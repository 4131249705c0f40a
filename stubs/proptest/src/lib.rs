//! A mini property-testing runner with the `proptest` API surface this
//! workspace uses: the `proptest!` macro, `prop_assert*`/`prop_assume`,
//! integer/float range strategies, `any`, `collection::vec`,
//! `sample::select`, `Just`, `prop_oneof!`, and `prop_map`.
//!
//! Cases are generated from a deterministic per-case seed; there is no
//! shrinking — a failing case panics with the proptest-style message
//! (including the seed). `PROPTEST_CASES` overrides the configured case
//! count, and `cc <hex>` entries in a sibling `.proptest-regressions`
//! file are replayed before the random sweep (the 64-digit hex seed is
//! folded to this runner's u64 seed space).

use std::ops::{Range, RangeInclusive};

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case hit a `prop_assume!` that did not hold; try another.
    Reject(String),
    /// The property failed.
    Fail(String),
}

impl TestCaseError {
    /// Build a rejection (used by `prop_assume!`).
    pub fn reject(msg: impl std::fmt::Display) -> Self {
        TestCaseError::Reject(msg.to_string())
    }

    /// Build a failure (used by `prop_assert!`).
    pub fn fail(msg: impl std::fmt::Display) -> Self {
        TestCaseError::Fail(msg.to_string())
    }
}

/// Result type the body of a `proptest!` test expands into.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration (subset of the real `ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` successful cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic per-case random source (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        TestRng(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    /// Next uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self, lo: u64, hi_incl: u64) -> u64 {
        let span = hi_incl.wrapping_sub(lo);
        if span == u64::MAX {
            return self.next_u64();
        }
        let span = span + 1;
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return lo + v % span;
            }
        }
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value generator.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erase the strategy (needed by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe sampling, for boxed strategies.
trait DynStrategy<V> {
    fn sample_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn DynStrategy<V>>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn sample(&self, rng: &mut TestRng) -> V {
        self.0.sample_dyn(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed strategies (`prop_oneof!` support).
pub struct Union<V>(pub Vec<BoxedStrategy<V>>);

impl<V> Strategy for Union<V> {
    type Value = V;

    fn sample(&self, rng: &mut TestRng) -> V {
        assert!(!self.0.is_empty());
        let i = rng.uniform(0, self.0.len() as u64 - 1) as usize;
        self.0[i].sample(rng)
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                rng.uniform(self.start as u64, self.end as u64 - 1) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                rng.uniform(*self.start() as u64, *self.end() as u64) as $t
            }
        }
    )*};
}

int_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.unit_f64() * (self.end() - self.start())
    }
}

/// A parsed atom of the regex subset supported for string strategies.
enum ReAtom {
    Any,
    Class(Vec<(char, char)>),
    Lit(char),
}

/// String strategies from a regex subset: concatenations of `.`,
/// `[class]`, and literal characters, each optionally quantified with
/// `{n}` or `{lo,hi}`.
struct ReStrategy {
    atoms: Vec<(ReAtom, usize, usize)>,
}

fn parse_regex(pat: &str) -> ReStrategy {
    let chars: Vec<char> = pat.chars().collect();
    let mut atoms = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let atom = match chars[i] {
            '.' => {
                i += 1;
                ReAtom::Any
            }
            '[' => {
                i += 1;
                let mut ranges = Vec::new();
                assert!(
                    chars.get(i) != Some(&'^'),
                    "proptest stub: negated classes unsupported"
                );
                while i < chars.len() && chars[i] != ']' {
                    let lo = chars[i];
                    if chars.get(i + 1) == Some(&'-') && chars.get(i + 2).is_some_and(|&c| c != ']')
                    {
                        ranges.push((lo, chars[i + 2]));
                        i += 3;
                    } else {
                        ranges.push((lo, lo));
                        i += 1;
                    }
                }
                assert!(chars.get(i) == Some(&']'), "unterminated char class");
                i += 1;
                ReAtom::Class(ranges)
            }
            '\\' => {
                i += 2;
                ReAtom::Lit(chars[i - 1])
            }
            c => {
                assert!(
                    !"{}()|*+?$^".contains(c),
                    "proptest stub: unsupported regex construct {c:?} in {pat:?}"
                );
                i += 1;
                ReAtom::Lit(c)
            }
        };
        let (lo, hi) = if chars.get(i) == Some(&'{') {
            let end = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .expect("unterminated quantifier")
                + i;
            let body: String = chars[i + 1..end].iter().collect();
            i = end + 1;
            match body.split_once(',') {
                Some((a, b)) => (a.parse().unwrap(), b.parse().unwrap()),
                None => {
                    let n = body.parse().unwrap();
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        atoms.push((atom, lo, hi));
    }
    ReStrategy { atoms }
}

impl Strategy for &str {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        let re = parse_regex(self);
        let mut out = String::new();
        for (atom, lo, hi) in &re.atoms {
            let n = rng.uniform(*lo as u64, *hi as u64) as usize;
            for _ in 0..n {
                match atom {
                    ReAtom::Lit(c) => out.push(*c),
                    ReAtom::Any => {
                        // Mostly printable ASCII, occasionally arbitrary
                        // unicode to stress parsers.
                        if rng.next_u64().is_multiple_of(8) {
                            let cp = rng.uniform(0, 0x10FFFF) as u32;
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        } else {
                            out.push((rng.uniform(32, 126) as u8) as char);
                        }
                    }
                    ReAtom::Class(ranges) => {
                        let r = ranges[rng.uniform(0, ranges.len() as u64 - 1) as usize];
                        out.push(
                            char::from_u32(rng.uniform(r.0 as u64, r.1 as u64) as u32)
                                .unwrap_or(r.0),
                        );
                    }
                }
            }
        }
        out
    }
}

macro_rules! tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// `any::<T>()` support.
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

arb_int!(u8, u32, u64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy for an arbitrary value of `T`.
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// An arbitrary value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Things usable as a collection-size specification.
    pub trait IntoSizeRange {
        /// Inclusive (lo, hi) bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end);
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy for a `Vec` whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    /// A `Vec` of values from `element`, sized within `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        VecStrategy { element, lo, hi }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.uniform(self.lo as u64, self.hi as u64) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::{Strategy, TestRng};

    /// Uniform choice from a fixed set.
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone>(Vec<T>);

    /// Choose uniformly from `options`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty());
        Select(options)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.uniform(0, self.0.len() as u64 - 1) as usize;
            self.0[i].clone()
        }
    }
}

/// The test-case driver behind the `proptest!` macro.
pub mod runner {
    use super::{ProptestConfig, TestCaseError, TestRng};
    use std::path::{Path, PathBuf};

    /// The case count actually in effect: `PROPTEST_CASES` overrides the
    /// per-suite configuration, so CI can run long soaks without touching
    /// source. Unparseable values fall back to the configured count.
    fn effective_cases(cfg: &ProptestConfig) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(cfg.cases)
    }

    /// Run `f` until the configured number of successful cases (or panic
    /// on failure).
    pub fn run<F: FnMut(&mut TestRng) -> Result<(), TestCaseError>>(
        cfg: &ProptestConfig,
        mut f: F,
    ) {
        let cases = effective_cases(cfg);
        let mut ok = 0u32;
        let mut rejects = 0u32;
        let max_rejects = cases.saturating_mul(16).max(1024);
        let mut case = 0u64;
        while ok < cases {
            let mut rng = TestRng::new(case);
            case += 1;
            match f(&mut rng) {
                Ok(()) => ok += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejects += 1;
                    if rejects > max_rejects {
                        panic!("proptest: too many prop_assume rejections");
                    }
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!(
                        "proptest case failed (case #{case}, seed {seed:#018x}): {msg}",
                        seed = case - 1
                    );
                }
            }
        }
    }

    /// Fold one `cc <hex>` token (real-proptest records a 256-bit seed as
    /// 64 hex digits) down to the u64 seed space this runner draws from:
    /// rotate-xor four bits at a time, so every digit contributes and a
    /// plain 16-digit seed folds to itself.
    fn fold_hex_seed(token: &str) -> Option<u64> {
        let mut acc = 0u64;
        let mut digits = 0u32;
        for c in token.chars() {
            let d = c.to_digit(16)?;
            acc = acc.rotate_left(4) ^ u64::from(d);
            digits += 1;
        }
        (digits > 0).then_some(acc)
    }

    /// Locate `<source minus .rs>.proptest-regressions`. `file!()` paths
    /// are workspace-relative while test binaries run from the package
    /// root, so try the path as given and every suffix of it against both
    /// the working directory and `CARGO_MANIFEST_DIR`.
    fn regression_file(source_file: &str) -> Option<PathBuf> {
        let base = source_file.strip_suffix(".rs").unwrap_or(source_file);
        let rel = PathBuf::from(format!("{base}.proptest-regressions"));
        if rel.is_file() {
            return Some(rel);
        }
        let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").ok()?;
        let comps: Vec<_> = rel.components().collect();
        for skip in 0..comps.len() {
            let tail: PathBuf = comps[skip..].iter().collect();
            let cand = Path::new(&manifest_dir).join(tail);
            if cand.is_file() {
                return Some(cand);
            }
        }
        None
    }

    /// Seeds recorded for this suite, in file order. Lines other than
    /// `cc <hex> ...` (comments, blanks) are ignored, like real proptest.
    fn regression_seeds(source_file: &str) -> Vec<u64> {
        let Some(path) = regression_file(source_file) else {
            return Vec::new();
        };
        let Ok(contents) = std::fs::read_to_string(&path) else {
            return Vec::new();
        };
        contents
            .lines()
            .filter_map(|line| {
                let mut words = line.split_whitespace();
                (words.next() == Some("cc"))
                    .then(|| words.next())
                    .flatten()
                    .and_then(fold_hex_seed)
            })
            .collect()
    }

    /// Like [`run`], but first replays every seed recorded in the suite's
    /// `.proptest-regressions` file (located from `source_file`, normally
    /// `file!()`). Replayed rejections are skipped; failures panic with
    /// the offending seed so the record stays actionable.
    pub fn run_with_source<F: FnMut(&mut TestRng) -> Result<(), TestCaseError>>(
        cfg: &ProptestConfig,
        source_file: &str,
        mut f: F,
    ) {
        for seed in regression_seeds(source_file) {
            let mut rng = TestRng::new(seed);
            if let Err(TestCaseError::Fail(msg)) = f(&mut rng) {
                panic!("proptest regression failed (seed {seed:#018x}): {msg}");
            }
        }
        run(cfg, f);
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn plain_seed_folds_to_itself() {
            assert_eq!(super::fold_hex_seed("00000000deadbeef"), Some(0xdeadbeef));
        }

        #[test]
        fn non_hex_is_rejected() {
            assert_eq!(super::fold_hex_seed("shrinks"), None);
            assert_eq!(super::fold_hex_seed(""), None);
        }

        #[test]
        fn full_width_token_folds_every_digit() {
            let a = super::fold_hex_seed(&"ab".repeat(32)).unwrap();
            let b = super::fold_hex_seed(&format!("{}{}", "ab".repeat(31), "ac")).unwrap();
            assert_ne!(a, b);
        }
    }
}

/// Common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };

    /// The `prop` module alias (`prop::sample::select`, …).
    pub mod prop {
        pub use crate::{collection, sample};
    }
}

/// Assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// Skip the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Uniform choice among heterogeneous strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Define property tests (subset of the real `proptest!` syntax).
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { @cfg ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( @cfg ($cfg:expr) ) => {};
    ( @cfg ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let __cfg = $cfg;
            $crate::runner::run_with_source(&__cfg, file!(), |__rng| {
                $(let $pat = $crate::Strategy::sample(&$strat, __rng);)+
                let __out: $crate::TestCaseResult = (|| {
                    $body
                    #[allow(unreachable_code)]
                    ::core::result::Result::Ok(())
                })();
                __out
            });
        }
        $crate::__proptest_impl! { @cfg ($cfg) $($rest)* }
    };
}
