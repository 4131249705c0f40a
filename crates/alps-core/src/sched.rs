//! The ALPS scheduling algorithm (Figure 3 of the paper).
//!
//! [`AlpsScheduler`] is a pure state machine: it never talks to an operating
//! system. A *backend* (the kernel simulator in `alps-sim`, or the real-Linux
//! supervisor in `alps-os`) drives it once per quantum in two phases:
//!
//! 1. [`AlpsScheduler::begin_quantum`] — returns the set of processes whose
//!    progress must be read *this* quantum. With the §2.3 optimization this
//!    is only the processes whose allowance could have been exhausted since
//!    their last measurement; without it, every eligible process.
//! 2. The backend reads each listed process's cumulative CPU time and
//!    blocked status, then calls [`AlpsScheduler::complete_quantum`], which
//!    runs the accounting and returns the [`Transition`]s (suspend/resume
//!    signals) the backend must apply.
//!
//! Splitting the invocation this way mirrors the real cost structure the
//! paper measures in Table 1: the expensive step is reading process state,
//! and its cost is proportional to the number of processes *actually read*.

use serde::{Deserialize, Serialize};

use crate::config::{AlpsConfig, IoPolicy};
use crate::time::Nanos;

/// Bits of the deadline consumed per deadline-wheel level.
const WHEEL_BITS: u32 = 6;
/// Buckets per deadline-wheel level (`2^WHEEL_BITS`).
const WHEEL_SLOTS: u64 = 1 << WHEEL_BITS;
/// Deadline-wheel levels. Four levels span `64⁴ ≈ 16.7M` invocations, so
/// a parked member is touched only when a level boundary passes it: at
/// most [`WHEEL_LEVELS`] touches per actual deadline, independent of how
/// long the deadline is.
const WHEEL_LEVELS: usize = 4;
/// Buckets in the whole wheel, level-major.
const WHEEL_BUCKETS: usize = WHEEL_LEVELS * WHEEL_SLOTS as usize;

/// Stable handle to a process registered with an [`AlpsScheduler`].
///
/// Slots are reused after [`AlpsScheduler::remove_process`], but each reuse
/// bumps a generation counter so stale ids are detected rather than silently
/// addressing the wrong process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProcId {
    idx: u32,
    generation: u32,
}

impl ProcId {
    /// Slot index; useful as a dense array key in backends.
    #[inline]
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// Slot-reuse generation; together with [`ProcId::index`] this is the
    /// id's complete raw form.
    #[inline]
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// Rebuild an id from its raw parts.
    ///
    /// Intended for checkpoint restore and for differential test oracles
    /// (`alps-conformance`) that must mint exactly the ids the production
    /// scheduler does. An id that was never issued is harmless: it fails
    /// every stale-id check.
    #[inline]
    pub fn from_raw(index: u32, generation: u32) -> Self {
        ProcId {
            idx: index,
            generation,
        }
    }
}

/// What a backend observed about one process at a measurement point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Observation {
    /// Cumulative CPU time the process has consumed since it was created
    /// (`getrusage`-style). The scheduler differences successive readings
    /// itself, so backends report totals, not deltas.
    pub total_cpu: Nanos,
    /// Whether the process currently sits on a wait channel (is blocked in
    /// the kernel). This is the §2.4 I/O heuristic input.
    pub blocked: bool,
}

/// A scheduling decision the backend must enact (a signal, in UNIX terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transition {
    /// The process has allowance again: make it runnable (`SIGCONT`).
    Resume(ProcId),
    /// The process exhausted its allowance: suspend it (`SIGSTOP`).
    Suspend(ProcId),
}

impl Transition {
    /// The process this transition applies to.
    pub fn proc_id(self) -> ProcId {
        match self {
            Transition::Resume(id) | Transition::Suspend(id) => id,
        }
    }
}

/// Result of one scheduler invocation ([`AlpsScheduler::complete_quantum`]).
#[derive(Debug, Clone, Default)]
pub struct QuantumOutcome {
    /// Eligibility changes to enact, in process-slot order.
    pub transitions: Vec<Transition>,
    /// Whether a cycle boundary was crossed during this invocation.
    pub cycle_completed: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ProcState {
    share: u64,
    /// Remaining entitlement this cycle, in units of quanta (may be
    /// fractional or negative; negative values carry debt into the next
    /// cycle, §2.2).
    allowance: f64,
    eligible: bool,
    /// Invocation index at which this process is next due for measurement.
    update: u64,
    /// Cumulative CPU reading at the last measurement.
    last_cpu: Nanos,
    /// Whether the `ForfeitAllowance` I/O policy already fired this cycle.
    forfeited: bool,
}

/// Aligned so that a slot is one 64-byte cache line, not one that
/// straddles two: with an 8-byte payload or none, the line holds it all.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[repr(align(64))]
struct Slot<P> {
    generation: u32,
    state: Option<ProcState>,
    /// Whether this slot has an entry in the `occupied` index (either
    /// live, or vacated and awaiting compaction).
    listed: bool,
    /// The slot's index in `occupied` while `listed`: set when the slot is
    /// appended, kept when a still-listed slot is reused, renumbered by
    /// compaction. Registration order is therefore position order, so a
    /// wheel bucket, a bitmap over positions, drains in the order of the
    /// occupied-slot walk.
    pos: u32,
    /// The one deadline-wheel bucket holding this slot's position, if
    /// any. Only an eligible slot is filed; it is unfiled when it comes
    /// due, is suspended or removed, or has its share changed, so the
    /// wheel holds no stale position. Not serialized: the wheel is rebuilt
    /// on restore, and an older checkpoint's `wheel_key` is ignored.
    #[serde(skip)]
    filed: Option<u8>,
    /// What the scheduler's owner keeps with the process (the engine's
    /// principal entry; nothing for the bare scheduler). A vacated slot
    /// keeps its last payload until the slot is reused. Not serialized.
    #[serde(skip)]
    payload: P,
}

/// The deadline wheel: [`WHEEL_BUCKETS`] bitmaps over `occupied`
/// positions, each with a summary bit per non-zero word, so a bucket
/// drains in ascending position (= registration) order in
/// O(members + positions/4096). Every bucket is `stride` words, all in
/// one allocation, sized to the position count when a call first finds
/// it short; a bucket never filed is never written. Empty after a
/// checkpoint restore until [`AlpsScheduler::index_wheel`] rebuilds it.
#[derive(Debug, Clone, Default)]
struct Wheel {
    /// Words per bucket: bucket `b` is `words[b·stride..(b+1)·stride]`.
    stride: usize,
    /// Summary words per bucket: `⌈stride/64⌉`.
    sstride: usize,
    words: Vec<u64>,
    /// Bit `w` of bucket `b`'s summary is set while its word `w` is not
    /// zero.
    summary: Vec<u64>,
    /// Whether the slots' filings are indexed (false after a restore).
    built: bool,
}

impl Wheel {
    /// Make room for positions `0..n`. O(1) when they fit.
    #[inline]
    fn fit(&mut self, n: usize) {
        let need = n.div_ceil(64);
        if need > self.stride {
            self.grow(need);
        }
    }

    /// Re-lay the buckets at a stride of at least `need` words (half as
    /// much again as now, so a growing population re-lays rarely),
    /// copying only the non-zero words.
    #[cold]
    fn grow(&mut self, need: usize) {
        let stride = need.max(self.stride + self.stride / 2);
        let sstride = stride.div_ceil(64);
        let mut words = vec![0u64; WHEEL_BUCKETS * stride];
        let mut summary = vec![0u64; WHEEL_BUCKETS * sstride];
        for b in 0..WHEEL_BUCKETS {
            for s in 0..self.sstride {
                let mut ws = self.summary[b * self.sstride + s];
                if ws == 0 {
                    continue;
                }
                summary[b * sstride + s] = ws;
                while ws != 0 {
                    let w = s * 64 + ws.trailing_zeros() as usize;
                    ws &= ws - 1;
                    words[b * stride + w] = self.words[b * self.stride + w];
                }
            }
        }
        (self.stride, self.sstride) = (stride, sstride);
        (self.words, self.summary) = (words, summary);
    }

    #[inline]
    fn set(&mut self, b: usize, pos: u32) {
        let w = pos as usize / 64;
        self.words[b * self.stride + w] |= 1 << (pos % 64);
        self.summary[b * self.sstride + w / 64] |= 1 << (w % 64);
    }

    /// File `pos` into bucket `b`, recording it in `filed` and taking it
    /// out of the bucket it was filed in before.
    #[inline]
    fn file(&mut self, filed: &mut Option<u8>, pos: u32, b: usize) {
        self.unfile(filed, pos);
        self.set(b, pos);
        *filed = Some(b as u8);
    }

    /// Take `pos` out of the bucket `filed` names, if any.
    #[inline]
    fn unfile(&mut self, filed: &mut Option<u8>, pos: u32) {
        let Some(b) = filed.take() else {
            return;
        };
        let w = pos as usize / 64;
        let word = &mut self.words[b as usize * self.stride + w];
        *word &= !(1 << (pos % 64));
        if *word == 0 {
            self.summary[b as usize * self.sstride + w / 64] &= !(1 << (w % 64));
        }
    }

    /// Empty bucket `b`, calling `f` on each of its positions in ascending
    /// order. `f` may file positions into any other bucket.
    #[inline]
    fn drain(&mut self, b: usize, mut f: impl FnMut(&mut Wheel, u32)) {
        for s in 0..self.sstride {
            let mut ws = self.summary[b * self.sstride + s];
            if ws == 0 {
                continue; // not written: a bucket never filed stays untouched
            }
            self.summary[b * self.sstride + s] = 0;
            while ws != 0 {
                let w = s * 64 + ws.trailing_zeros() as usize;
                ws &= ws - 1;
                let mut bits = std::mem::take(&mut self.words[b * self.stride + w]);
                while bits != 0 {
                    f(self, (w * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Empty every bucket, writing only the words that are not zero.
    fn clear(&mut self) {
        for b in 0..WHEEL_BUCKETS {
            self.drain(b, |_, _| {});
        }
    }
}

/// The ALPS proportional-share scheduler core (one instance per application).
///
/// Serializable: a supervisor can checkpoint its scheduler mid-cycle and
/// restore it after a restart without resetting allowances or cycle
/// accounting (backends must re-attach their process handles by
/// [`ProcId`], which is stable across the round trip).
///
/// Each slot carries a payload `P` beside the process's state, in the
/// same cache line: the [`Engine`](crate::Engine) keeps its principal
/// entry there. The bare scheduler's payload is `()`; a checkpoint holds
/// no payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlpsScheduler<P = ()> {
    cfg: AlpsConfig,
    /// Slot storage, indexed by [`ProcId::index`]; every access
    /// generation-checks the handle against the slot.
    slots: Vec<Slot<P>>,
    /// Vacant slot indices (LIFO), so registration and removal are O(1)
    /// regardless of population size.
    free: Vec<u32>,
    /// Slot indices holding (or recently holding) a process, in
    /// registration order. Invocations iterate this instead of the full
    /// slot vector, so they cost O(live); vacated entries are skipped and
    /// compacted away once they outnumber the live ones, which keeps
    /// departed processes from costing anything per quantum.
    occupied: Vec<u32>,
    /// Vacated entries still present in `occupied`.
    vacated: usize,
    live: usize,
    total_shares: u64,
    /// Time remaining in the current cycle, in nanoseconds (`t_c`).
    tc: f64,
    /// Invocation counter (`count` in Figure 3).
    count: u64,
    /// Completed-cycle counter.
    cycles_completed: u64,
    /// The hierarchical deadline wheel: bucket `level·WHEEL_SLOTS + k`
    /// holds the positions of eligible slots whose next measurement falls
    /// in the `k`-th window of `64^level` invocations (mod 64). A deadline
    /// fewer than 64 invocations ahead is filed at level 0, farther ones
    /// at the lowest level whose window index is fewer than 64 ahead, so
    /// an upper bucket cascades toward level 0 as its window opens;
    /// deadlines beyond the whole span park in the top level's farthest
    /// bucket and are refiled when it cascades. Not serialized: it only
    /// indexes the slots' `update` and `eligible`, and is rebuilt from
    /// them on first use after a restore.
    #[serde(skip)]
    wheel: Wheel,
    /// Due list saved by the last `begin_quantum`. Draining a wheel
    /// bucket unfiles its slots, so `complete_quantum` must reschedule
    /// exactly these slots even if the backend supplied no observation for
    /// some of them. The off-boundary repartition merges `dirty` into it
    /// and walks it, so it is also that walk's list; empty after
    /// `complete_quantum`.
    pending: Vec<u32>,
    /// Slots whose `update` was forced due outside an invocation
    /// (`add_process`, `set_share`) and that the next repartition must
    /// therefore examine. The off-boundary repartition walks
    /// `pending ∪ dirty` instead of every occupied slot.
    dirty: Vec<u32>,
    /// Number of currently eligible processes (the O(1) replacement for
    /// the liveness valve's full-occupied scan).
    eligible_count: usize,
}

/// `⌈a⌉` quanta as an invocation count, for any `a`: exactly
/// `a.ceil().max(0.0) as u64` (NaN and negatives give 0, values past
/// `u64::MAX` saturate), without the libm `ceil` call.
#[inline]
fn ceil_quanta(a: f64) -> u64 {
    // Below 2⁶³ the signed conversions are single instructions.
    if a < 9_223_372_036_854_775_808.0 {
        let t = a as i64; // truncates toward zero, saturating
        return (t + i64::from((t as f64) < a)).max(0) as u64;
    }
    a as u64 // an integer already, or NaN; saturating
}

impl AlpsScheduler {
    /// Create a scheduler with no processes.
    pub fn new(cfg: AlpsConfig) -> Self {
        Self::with_payloads(cfg)
    }

    /// Register a process with the given share and current cumulative CPU
    /// reading.
    ///
    /// Per §2.2, the process starts *ineligible* with an allowance equal to
    /// its share; the next invocation will emit a [`Transition::Resume`] for
    /// it. Backends should therefore place the process in the suspended
    /// state upon registration (e.g. send `SIGSTOP`).
    ///
    /// The remaining cycle time is extended by `share · Q`, keeping the
    /// invariant that `t_c` equals the CPU time still owed in this cycle.
    pub fn add_process(&mut self, share: u64, initial_cpu: Nanos) -> ProcId {
        self.add_process_with(share, initial_cpu, ())
    }
}

impl<P> AlpsScheduler<P> {
    /// A scheduler with no processes, whose slots carry a `P` each.
    pub(crate) fn with_payloads(cfg: AlpsConfig) -> Self {
        assert!(cfg.quantum > Nanos::ZERO, "quantum must be positive");
        AlpsScheduler {
            slots: Vec::new(),
            cfg,
            free: Vec::new(),
            occupied: Vec::new(),
            vacated: 0,
            live: 0,
            total_shares: 0,
            tc: 0.0,
            count: 0,
            cycles_completed: 0,
            wheel: Wheel {
                built: true,
                ..Wheel::default()
            },
            pending: Vec::new(),
            dirty: Vec::new(),
            eligible_count: 0,
        }
    }

    /// The wheel bucket for a measurement due at invocation `deadline`
    /// (`>= count`), filed at invocation `count`: level 0 if it is fewer
    /// than 64 invocations ahead, else the lowest level whose window
    /// index is fewer than 64 ahead. That window's bucket cascades when
    /// the window opens, after `count` and no later than `deadline`, and
    /// its slots refile lower. A deadline past the span parks in the top
    /// level's farthest bucket, and is refiled at most once per 63 top
    /// windows until it comes within range. A deadline at `count` maps to
    /// the bucket this invocation drains.
    #[inline]
    fn wheel_bucket(count: u64, deadline: u64) -> usize {
        debug_assert!(deadline >= count);
        for level in 0..WHEEL_LEVELS {
            let shift = WHEEL_BITS * level as u32;
            let window = deadline >> shift;
            if window - (count >> shift) < WHEEL_SLOTS {
                return level * WHEEL_SLOTS as usize + (window & (WHEEL_SLOTS - 1)) as usize;
            }
        }
        let far = (count >> (WHEEL_BITS * (WHEEL_LEVELS as u32 - 1))) + WHEEL_SLOTS - 1;
        WHEEL_BUCKETS - WHEEL_SLOTS as usize + (far & (WHEEL_SLOTS - 1)) as usize
    }

    /// Make the wheel index every position, and rebuild it if a
    /// checkpoint restore left it empty: file every eligible slot at its
    /// `update` or, if that has passed (`set_share` forced it due), at the
    /// next invocation. Slots in `pending` are skipped: they came due,
    /// and the next `begin_quantum` or `complete_quantum` reschedules
    /// them. O(1) unless the wheel must grow or a rebuild is owed.
    ///
    /// An eager checkpoint may predate the eager wheel: it has no
    /// `pending` or `dirty` entries, because the baseline once walked
    /// every slot in both phases, and its deadlines are `count + ⌈a⌉`.
    /// In eager mode the rebuild therefore brings every eligible slot's
    /// deadline to the next invocation at the latest, and marks dirty
    /// every eligible slot and every slot never examined (a process
    /// added since, still ineligible with `update == 0`), so the next
    /// repartition examines all that the walk would have.
    fn index_wheel(&mut self) {
        self.wheel.fit(self.occupied.len());
        if self.wheel.built {
            return;
        }
        self.wheel.built = true;
        let mut popped = vec![false; self.slots.len()];
        for &i in &self.pending {
            popped[i as usize] = true;
        }
        let next = self.count + 1;
        let eager = !self.cfg.lazy_measurement;
        for &i in &self.occupied {
            let slot = &mut self.slots[i as usize];
            let Some(s) = slot.state.as_mut() else {
                continue;
            };
            if eager && (s.eligible || s.update == 0) {
                s.update = s.update.min(next);
                self.dirty.push(i);
            }
            if s.eligible && !popped[i as usize] {
                let bucket = Self::wheel_bucket(self.count, s.update.max(next));
                self.wheel.file(&mut slot.filed, slot.pos, bucket);
            }
        }
    }

    /// Rebuild the wheel's bitmaps from the slots' filings, after
    /// compaction renumbered their positions.
    fn refile_positions(&mut self) {
        self.wheel.clear();
        for &i in &self.occupied {
            let slot = &self.slots[i as usize];
            if let Some(b) = slot.filed {
                self.wheel.set(b as usize, slot.pos);
            }
        }
    }

    /// The quantum length `Q`.
    pub fn quantum(&self) -> Nanos {
        self.cfg.quantum
    }

    /// Total shares `S` across all registered processes.
    pub fn total_shares(&self) -> u64 {
        self.total_shares
    }

    /// The cycle length `S · Q` in nanoseconds.
    pub fn cycle_len(&self) -> f64 {
        self.total_shares as f64 * self.cfg.quantum.as_f64()
    }

    /// CPU time remaining before the current cycle completes (`t_c`).
    pub fn cycle_time_remaining(&self) -> f64 {
        self.tc
    }

    /// Number of cycles completed so far.
    pub fn cycles_completed(&self) -> u64 {
        self.cycles_completed
    }

    /// Number of scheduler invocations so far.
    pub fn invocations(&self) -> u64 {
        self.count
    }

    /// Number of registered processes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no processes are registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// [`AlpsScheduler::add_process`], keeping `payload` in the slot.
    pub(crate) fn add_process_with(
        &mut self,
        share: u64,
        initial_cpu: Nanos,
        payload: P,
    ) -> ProcId {
        assert!(share > 0, "share must be positive");
        let state = ProcState {
            share,
            allowance: share as f64,
            eligible: false,
            update: 0, // due immediately once eligible
            last_cpu: initial_cpu,
            forfeited: false,
        };
        self.total_shares += share;
        self.tc += share as f64 * self.cfg.quantum.as_f64();
        self.live += 1;
        // Reuse the most recently freed slot if available.
        let id = if let Some(idx) = self.free.pop() {
            let idx = idx as usize;
            debug_assert!(self.slots[idx].state.is_none(), "free slot occupied");
            let slot = &mut self.slots[idx];
            slot.generation = slot.generation.wrapping_add(1);
            slot.state = Some(state);
            slot.payload = payload;
            if !slot.listed {
                // The vacated entry was compacted away; list the slot
                // again. (If it is still listed, the old entry simply
                // becomes live again at its original position.)
                slot.listed = true;
                slot.pos = self.occupied.len() as u32;
                self.occupied.push(idx as u32);
            } else {
                self.vacated -= 1;
            }
            ProcId {
                idx: idx as u32,
                generation: slot.generation,
            }
        } else {
            self.slots.push(Slot {
                generation: 0,
                state: Some(state),
                listed: true,
                pos: self.occupied.len() as u32,
                filed: None,
                payload,
            });
            self.occupied.push((self.slots.len() - 1) as u32);
            ProcId {
                idx: (self.slots.len() - 1) as u32,
                generation: 0,
            }
        };
        // The new process starts ineligible with `update = 0`: the next
        // repartition must examine it to emit its initial `Resume`. Off a
        // cycle boundary that repartition only walks `pending ∪ dirty`, so
        // record the obligation here.
        self.dirty.push(id.idx);
        id
    }

    /// Deregister a process. Returns its share, or `None` for a stale id.
    ///
    /// The remaining cycle time is shortened by the process's unspent
    /// (positive) allowance, so the surviving processes do not wait for CPU
    /// time that will never be consumed.
    pub fn remove_process(&mut self, id: ProcId) -> Option<u64> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        let state = slot.state.take()?;
        self.wheel.unfile(&mut slot.filed, slot.pos);
        if state.eligible {
            self.eligible_count -= 1;
        }
        self.free.push(id.idx);
        self.vacated += 1;
        if self.vacated * 2 > self.occupied.len() {
            let slots = &mut self.slots;
            let mut pos = 0;
            self.occupied.retain(|&i| {
                let slot = &mut slots[i as usize];
                if slot.state.is_none() {
                    slot.listed = false;
                    return false;
                }
                slot.pos = pos;
                pos += 1;
                true
            });
            self.vacated = 0;
            self.refile_positions();
        }
        self.total_shares -= state.share;
        self.live -= 1;
        if state.allowance > 0.0 {
            self.tc -= state.allowance * self.cfg.quantum.as_f64();
        }
        Some(state.share)
    }

    /// Change a process's share.
    ///
    /// The process's current allowance is rescaled in proportion to the
    /// share change (so a raise takes effect this cycle and a cut does not
    /// leave the process with many cycles of debt), and the remaining
    /// cycle time absorbs the allowance delta — preserving the liveness
    /// invariant `Σ allowanceᵢ = t_c / Q` (whenever cycle time remains,
    /// somebody is eligible to consume it).
    pub fn set_share(&mut self, id: ProcId, share: u64) -> Result<(), StaleId> {
        assert!(share > 0, "share must be positive");
        self.index_wheel();
        let q = self.cfg.quantum.as_f64();
        let state = self.state_mut(id).ok_or(StaleId(id))?;
        let old = state.share;
        let old_allowance = state.allowance;
        state.share = share;
        state.allowance = old_allowance * share as f64 / old as f64;
        // Re-measure at the next quantum: a cut allowance can exhaust
        // sooner than the previously scheduled measurement point.
        state.update = 0;
        let eligible = state.eligible;
        let allowance_delta = state.allowance - old_allowance;
        self.total_shares = self.total_shares - old + share;
        self.tc += allowance_delta * q;
        // The forced `update = 0` must surface through the wheel: an
        // eligible process is refiled to come due at the very next
        // invocation, and the next repartition must examine the slot even
        // if it runs before any `begin_quantum` does (complete-without-
        // begin reschedules it exactly like the full walk would).
        self.dirty.push(id.idx);
        if eligible {
            let bucket = Self::wheel_bucket(self.count, self.count + 1);
            let slot = &mut self.slots[id.idx as usize];
            self.wheel.file(&mut slot.filed, slot.pos, bucket);
        }
        Ok(())
    }

    /// The share of a process.
    pub fn share(&self, id: ProcId) -> Option<u64> {
        self.state(id).map(|s| s.share)
    }

    /// Current allowance of a process, in quanta.
    pub fn allowance(&self, id: ProcId) -> Option<f64> {
        self.state(id).map(|s| s.allowance)
    }

    /// Whether the process is currently in the eligible group.
    #[inline]
    pub fn is_eligible(&self, id: ProcId) -> Option<bool> {
        self.state(id).map(|s| s.eligible)
    }

    /// The id of the process in slot `idx`, which must hold one.
    pub(crate) fn id_at(&self, idx: u32) -> ProcId {
        let slot = &self.slots[idx as usize];
        debug_assert!(slot.state.is_some(), "slot {idx} is vacant");
        ProcId {
            idx,
            generation: slot.generation,
        }
    }

    /// The cumulative CPU reading of the process's last measurement (its
    /// `initial_cpu` until the first).
    #[inline]
    pub(crate) fn charged(&self, id: ProcId) -> Option<Nanos> {
        self.state(id).map(|s| s.last_cpu)
    }

    /// The payload of a live process.
    #[inline]
    pub(crate) fn payload(&self, id: ProcId) -> Option<&P> {
        let slot = self.slots.get(id.idx as usize)?;
        (slot.generation == id.generation && slot.state.is_some()).then_some(&slot.payload)
    }

    /// Iterate over the ids of all registered processes, in registration
    /// order.
    pub fn proc_ids(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.occupied.iter().filter_map(|&i| {
            let s = &self.slots[i as usize];
            s.state.as_ref().map(|_| ProcId {
                idx: i,
                generation: s.generation,
            })
        })
    }

    /// Begin a scheduler invocation: advance the invocation counter and
    /// return the processes whose progress must be measured this quantum.
    ///
    /// With [`AlpsConfig::lazy_measurement`] this is the set
    /// `{i : state_i = eligible ∧ update_i ≤ count}` from Figure 3; without
    /// it, every eligible process. The caller must follow up with
    /// [`Self::complete_quantum`] carrying one observation per returned id.
    pub fn begin_quantum(&mut self) -> Vec<ProcId> {
        let mut due = Vec::new();
        self.begin_quantum_into(&mut due);
        due
    }

    /// Allocation-free [`Self::begin_quantum`]: clears `due` and fills it
    /// with the processes whose progress must be measured this quantum.
    ///
    /// This cascades any upper-level wheel bucket whose window just
    /// opened and drains the invocation's level-0 bucket, a bitmap over
    /// `occupied` positions, so the due slots come out in registration
    /// order — O(due + N/4096) plus at most one touch per wheel level per
    /// parked slot over its whole wait.
    /// The eager baseline runs on the same wheel: its eligible processes
    /// are simply due again at the next invocation.
    pub fn begin_quantum_into(&mut self, due: &mut Vec<ProcId>) {
        due.clear();
        self.begin_quantum_with(|id, _| due.push(id));
    }

    /// [`Self::begin_quantum_into`] handing each due process to `f` with
    /// its payload, so the engine fills its due list straight from the
    /// drain.
    pub(crate) fn begin_quantum_with(&mut self, mut f: impl FnMut(ProcId, &P)) {
        self.index_wheel();
        self.count += 1;
        let count = self.count;
        let AlpsScheduler {
            slots,
            occupied,
            wheel,
            pending,
            ..
        } = self;
        // Slots that came due at an earlier `begin_quantum` whose
        // invocation was never completed are still due (only
        // `complete_quantum` reschedules): file them back, into this
        // invocation's bucket unless their deadline is still ahead.
        for &idx in pending.iter() {
            let slot = &mut slots[idx as usize];
            if let Some(s) = slot.state.as_ref().filter(|s| s.eligible) {
                let bucket = Self::wheel_bucket(count, s.update.max(count));
                wheel.file(&mut slot.filed, slot.pos, bucket);
            }
        }
        pending.clear();
        // Cascade: whenever the counter crosses a level-`l` window
        // boundary (its low `6·l` bits are zero), the level-`l` bucket of
        // the window just opened spills downward, each slot refiling by
        // its distance from `count`. A refile never lands in a bucket
        // drained here: its level-`l` window index is at least one ahead
        // (or, at level 0, it is this invocation's bucket, drained last).
        let mut level = 1;
        while level < WHEEL_LEVELS && count & ((1u64 << (WHEEL_BITS * level as u32)) - 1) == 0 {
            let k = ((count >> (WHEEL_BITS * level as u32)) & (WHEEL_SLOTS - 1)) as usize;
            wheel.drain(level * WHEEL_SLOTS as usize + k, |wheel, pos| {
                let slot = &mut slots[occupied[pos as usize] as usize];
                let update = slot.state.as_ref().map_or(count, |s| s.update);
                let bucket = Self::wheel_bucket(count, update.max(count));
                wheel.set(bucket, pos);
                slot.filed = Some(bucket as u8);
            });
            level += 1;
        }
        // Drain this invocation's level-0 bucket: every slot in it is due
        // now, and comes out in registration order, once.
        wheel.drain((count & (WHEEL_SLOTS - 1)) as usize, |_, pos| {
            let idx = occupied[pos as usize];
            let slot = &mut slots[idx as usize];
            debug_assert!(slot.state.as_ref().is_some_and(|s| s.update <= count));
            slot.filed = None;
            pending.push(idx);
            let id = ProcId {
                idx,
                generation: slot.generation,
            };
            f(id, &slot.payload);
        });
    }

    /// Complete the invocation started by [`Self::begin_quantum`], applying
    /// the measurement loop, cycle-boundary handling, and repartitioning of
    /// Figure 3.
    ///
    /// `observations` must contain exactly the processes returned by
    /// `begin_quantum` (order is irrelevant). Observations carrying a
    /// stale [`ProcId`] (the process was removed between the two calls) are
    /// ignored.
    pub fn complete_quantum(&mut self, observations: &[(ProcId, Observation)]) -> QuantumOutcome {
        let mut out = QuantumOutcome::default();
        self.complete_quantum_into(observations, &mut out);
        out
    }

    /// Allocation-free [`Self::complete_quantum`]: the outcome is written
    /// into `out`, whose transition list is cleared and reused. In steady
    /// state this performs no heap allocation.
    /// It measures each observation, then finishes the invocation;
    /// [`Engine`](crate::Engine) measures each due principal as its walk
    /// reaches it, then finishes alike.
    pub fn complete_quantum_into(
        &mut self,
        observations: &[(ProcId, Observation)],
        out: &mut QuantumOutcome,
    ) {
        let mut tc_delta = 0.0f64;
        for &(id, obs) in observations {
            self.measure(id, obs.total_cpu, obs.blocked, &mut tc_delta);
        }
        self.finish_quantum(tc_delta, out);
    }

    /// Figure 3's measurement step for one process: charge what it used
    /// up to `total_cpu` to its allowance, and to `t_c` through
    /// `tc_delta`, which the caller applies once. A stale id is ignored.
    #[inline]
    pub(crate) fn measure(
        &mut self,
        id: ProcId,
        total_cpu: Nanos,
        blocked: bool,
        tc_delta: &mut f64,
    ) {
        let q = self.cfg.quantum.as_f64();
        let io_policy = self.cfg.io_policy;
        let Some(state) = self.state_mut(id) else {
            return;
        };
        let consumed = total_cpu.saturating_sub(state.last_cpu);
        state.last_cpu = total_cpu;
        // Taking nothing off changes no float, so skip the division.
        if consumed > Nanos::ZERO {
            state.allowance -= consumed.as_f64() / q;
            *tc_delta -= consumed.as_f64();
        }
        if blocked {
            match io_policy {
                IoPolicy::OneQuantumPenalty => {
                    state.allowance -= 1.0;
                    *tc_delta -= q;
                }
                IoPolicy::NoPenalty => {}
                IoPolicy::ForfeitAllowance => {
                    if !state.forfeited && state.allowance > 0.0 {
                        *tc_delta -= state.allowance * q;
                        state.allowance = 0.0;
                        state.forfeited = true;
                    }
                }
            }
        }
    }

    /// Apply the measurements' summed `tc_delta`, then cross the cycle
    /// boundary if due and repartition.
    pub(crate) fn finish_quantum(&mut self, tc_delta: f64, out: &mut QuantumOutcome) {
        out.transitions.clear();
        out.cycle_completed = false;
        self.index_wheel();
        self.tc += tc_delta;

        // Cycle-boundary handling. Figure 3 credits exactly one cycle per
        // invocation even if t_c went far negative: the overrun shortens the
        // *next* cycle, which is how allocation errors are corrected over
        // subsequent cycles instead of accumulating (§2.2).
        let cycle_completed = self.tc <= 0.0 && self.total_shares > 0;
        out.cycle_completed = cycle_completed;
        if cycle_completed {
            self.tc += self.cycle_len();
            self.cycles_completed += 1;
        }

        // Repartition loop: credit shares, flip eligibility, schedule the
        // next measurement of every process measured this invocation.
        if !cycle_completed {
            // Off-boundary, only the slots measured this invocation
            // (`pending`) plus those whose `update` was forced due outside
            // an invocation (`dirty`) can need attention: every other
            // slot's allowance is unchanged since its last examination, so
            // its eligibility cannot have flipped and its scheduled
            // measurement still stands. Walking `pending ∪ dirty` in
            // registration order therefore emits exactly the transitions
            // and reschedules a walk of every occupied slot would.
            // `pending` is already in registration order (`begin_quantum`
            // drained it from the wheel, and compaction keeps relative
            // order); only slots dirtied since need merging in. A slot
            // vacated since needs no examination, and may have lost its
            // position to compaction.
            //
            // The merge sorts by position in this invocation's level-0
            // bucket: `begin_quantum` drained it, and every deadline filed
            // since lies ahead of `count`, so it is empty until the next
            // `begin_quantum`.
            if !self.dirty.is_empty() {
                let scratch = (self.count & (WHEEL_SLOTS - 1)) as usize;
                let AlpsScheduler {
                    slots,
                    occupied,
                    wheel,
                    pending,
                    dirty,
                    ..
                } = self;
                for &i in pending.iter().chain(dirty.iter()) {
                    let slot = &slots[i as usize];
                    if slot.state.is_some() {
                        wheel.set(scratch, slot.pos);
                    }
                }
                pending.clear();
                dirty.clear();
                wheel.drain(scratch, |_, p| pending.push(occupied[p as usize]));
            }
            let mut k = 0;
            while k < self.pending.len() {
                let i = self.pending[k] as usize;
                k += 1;
                self.repartition_slot(i, false, &mut out.transitions);
            }
            self.pending.clear();
        } else {
            // Cycle boundaries credit every slot's allowance (and reset its
            // forfeit flag), so the full walk is inherent (it is O(N) once
            // per cycle, not per quantum).
            self.pending.clear();
            self.dirty.clear();
            for k in 0..self.occupied.len() {
                let i = self.occupied[k] as usize;
                self.repartition_slot(i, cycle_completed, &mut out.transitions);
            }
        }

        // Liveness valve. The invariant `Σ allowanceᵢ = t_c / Q` guarantees
        // that positive cycle time implies an eligible process; if floating
        // drift (or a backend feeding inconsistent observations) ever broke
        // it, the scheduler would stall with everyone suspended. Collapse
        // the remaining cycle instead, so the next invocation completes it
        // and re-credits allowances. (`eligible_count` is the incrementally
        // maintained count of `eligible` flags, replacing a full scan.)
        if self.live > 0 && self.tc > 0.0 && self.eligible_count == 0 {
            self.tc = 0.0;
        }
    }

    /// The repartition-loop body of Figure 3 for one slot: credit its share
    /// and clear its forfeit flag (at cycle boundaries), flip its
    /// eligibility, and schedule its next measurement if it was due this
    /// invocation.
    fn repartition_slot(&mut self, i: usize, credit: bool, transitions: &mut Vec<Transition>) {
        let count = self.count;
        let lazy = self.cfg.lazy_measurement;
        // Disjoint field borrows: the slot's state is mutated while the
        // eligibility counter and the wheel buckets are updated alongside.
        let AlpsScheduler {
            slots,
            eligible_count,
            wheel,
            ..
        } = self;
        let slot = &mut slots[i];
        let Some(s) = slot.state.as_mut() else {
            return;
        };
        if credit {
            s.allowance += s.share as f64;
            s.forfeited = false;
        }
        let want_eligible = s.allowance > 0.0;
        if want_eligible != s.eligible {
            s.eligible = want_eligible;
            if want_eligible {
                *eligible_count += 1;
            } else {
                *eligible_count -= 1;
            }
            let id = ProcId {
                idx: i as u32,
                generation: slot.generation,
            };
            transitions.push(if want_eligible {
                Transition::Resume(id)
            } else {
                wheel.unfile(&mut slot.filed, slot.pos);
                Transition::Suspend(id)
            });
        }
        if s.update <= count {
            // A process with allowance a cannot become ineligible in
            // fewer than ⌈a⌉ quanta, so the next measurement can wait
            // that long (§2.3); the §3.2 baseline measures it at the next
            // invocation instead. Ineligible processes get update ≤ count
            // and are re-examined as soon as they are eligible again. (A
            // share near `u64::MAX` waits past the counter's range: the
            // deadline saturates instead of wrapping into the past.)
            let wait = ceil_quanta(s.allowance);
            let wait = if lazy { wait } else { wait.min(1) };
            s.update = count.saturating_add(wait);
            if s.eligible {
                // Eligible implies allowance > 0, so `⌈allowance⌉ >= 1`
                // and the deadline is in the future.
                let bucket = Self::wheel_bucket(count, s.update);
                wheel.file(&mut slot.filed, slot.pos, bucket);
            }
        }
    }

    #[inline]
    fn state(&self, id: ProcId) -> Option<&ProcState> {
        let slot = self.slots.get(id.idx as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.state.as_ref()
    }

    #[inline]
    fn state_mut(&mut self, id: ProcId) -> Option<&mut ProcState> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.state.as_mut()
    }
}

/// Error returned when an operation addresses a removed process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleId(pub ProcId);

impl core::fmt::Display for StaleId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "stale process id {:?}", self.0)
    }
}

impl std::error::Error for StaleId {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_ms(q: u64) -> AlpsConfig {
        AlpsConfig::new(Nanos::from_millis(q))
    }

    /// Drive one quantum where each listed process reports the given
    /// *cumulative* CPU and blocked flag.
    fn quantum(s: &mut AlpsScheduler, readings: &[(ProcId, u64, bool)]) -> QuantumOutcome {
        let due = s.begin_quantum();
        let obs: Vec<_> = due
            .iter()
            .map(|id| {
                let &(_, ms, blocked) = readings
                    .iter()
                    .find(|(rid, _, _)| rid == id)
                    .unwrap_or_else(|| panic!("no reading supplied for due process {id:?}"));
                (
                    *id,
                    Observation {
                        total_cpu: Nanos::from_millis(ms),
                        blocked,
                    },
                )
            })
            .collect();
        s.complete_quantum(&obs)
    }

    #[test]
    fn new_process_becomes_eligible_on_first_quantum() {
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let a = s.add_process(1, Nanos::ZERO);
        assert_eq!(s.is_eligible(a), Some(false));
        let due = s.begin_quantum();
        assert!(due.is_empty(), "ineligible processes are never measured");
        let out = s.complete_quantum(&[]);
        assert_eq!(out.transitions, vec![Transition::Resume(a)]);
        assert_eq!(s.is_eligible(a), Some(true));
    }

    #[test]
    fn allowance_decrements_by_consumption() {
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let a = s.add_process(3, Nanos::ZERO);
        quantum(&mut s, &[]); // becomes eligible, allowance 3
        assert_eq!(s.allowance(a), Some(3.0));
        // Not due again for ceil(3) = 3 quanta.
        quantum(&mut s, &[]);
        quantum(&mut s, &[]);
        // Due now; has consumed 10ms (one quantum) in total.
        quantum(&mut s, &[(a, 10, false)]);
        assert_eq!(s.allowance(a), Some(2.0));
        assert_eq!(s.is_eligible(a), Some(true));
    }

    #[test]
    fn exhausted_process_is_suspended_and_earns_back_at_cycle_end() {
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let a = s.add_process(1, Nanos::ZERO);
        let b = s.add_process(1, Nanos::ZERO);
        quantum(&mut s, &[]); // both eligible
                              // Cycle is S*Q = 20ms. A consumes its full 10ms allowance.
        let out = quantum(&mut s, &[(a, 10, false), (b, 0, false)]);
        assert_eq!(out.transitions, vec![Transition::Suspend(a)]);
        assert!(!out.cycle_completed);
        // B consumes its 10ms: cycle completes, A resumes.
        let out = quantum(&mut s, &[(b, 10, false)]);
        assert!(out.cycle_completed);
        assert_eq!(out.transitions, vec![Transition::Resume(a)]);
        assert_eq!(s.allowance(a), Some(1.0));
        assert_eq!(s.allowance(b), Some(1.0));
    }

    #[test]
    fn overconsumption_carries_debt_across_cycles() {
        // §2.2: a process that consumes twice its share in one cycle sits
        // out the next cycle entirely.
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let a = s.add_process(1, Nanos::ZERO);
        let b = s.add_process(1, Nanos::ZERO);
        quantum(&mut s, &[]);
        // A consumes 20ms in one go (2 quanta = twice its share); B idle.
        let out = quantum(&mut s, &[(a, 20, false), (b, 0, false)]);
        // t_c hit zero (cycle was 20ms), so a cycle completed; A's allowance
        // is 1-2+1 = 0 => ineligible for the whole next cycle.
        assert!(out.cycle_completed);
        assert_eq!(s.allowance(a), Some(0.0));
        assert_eq!(s.is_eligible(a), Some(false));
        assert_eq!(s.allowance(b), Some(2.0));
        // Next cycle: B consumes its 20ms over the following quanta; the
        // cycle completes and A comes back.
        let mut completed = false;
        for _ in 0..4 {
            let out = quantum(&mut s, &[(b, 20, false)]);
            if out.cycle_completed {
                completed = true;
                break;
            }
        }
        assert!(completed);
        assert_eq!(s.is_eligible(a), Some(true));
        assert_eq!(s.allowance(a), Some(1.0));
        // Over two cycles, A received 20ms of its 20ms entitlement: caught up.
    }

    #[test]
    fn lazy_measurement_skips_until_due() {
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let _a = s.add_process(5, Nanos::ZERO);
        let _b = s.add_process(5, Nanos::ZERO);
        quantum(&mut s, &[]); // both become eligible; update = count + ceil(5) = 1+5
                              // For the next 4 invocations neither process is due.
        for i in 0..4 {
            let due = s.begin_quantum();
            assert!(due.is_empty(), "invocation {i} should measure nothing");
            s.complete_quantum(&[]);
        }
        // 5th invocation: both due.
        let due = s.begin_quantum();
        assert_eq!(due.len(), 2);
        s.complete_quantum(
            &due.iter()
                .map(|&id| {
                    (
                        id,
                        Observation {
                            total_cpu: Nanos::from_millis(25),
                            blocked: false,
                        },
                    )
                })
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn unoptimized_measures_every_eligible_every_quantum() {
        let mut s = AlpsScheduler::new(cfg_ms(10).with_lazy_measurement(false));
        let _a = s.add_process(5, Nanos::ZERO);
        let _b = s.add_process(5, Nanos::ZERO);
        quantum(&mut s, &[]);
        for _ in 0..3 {
            let due = s.begin_quantum();
            assert_eq!(due.len(), 2);
            let obs: Vec<_> = due
                .iter()
                .map(|&id| {
                    (
                        id,
                        Observation {
                            total_cpu: Nanos::ZERO,
                            blocked: false,
                        },
                    )
                })
                .collect();
            s.complete_quantum(&obs);
        }
    }

    #[test]
    fn blocked_process_pays_one_quantum_and_shortens_cycle() {
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let a = s.add_process(2, Nanos::ZERO);
        let _b = s.add_process(4, Nanos::ZERO);
        quantum(&mut s, &[]);
        let tc_before = s.cycle_time_remaining();
        // A is due after ceil(2) = 2 quanta; observed blocked, no CPU used.
        quantum(&mut s, &[]);
        quantum(&mut s, &[(a, 0, true)]);
        assert_eq!(s.allowance(a), Some(1.0));
        let q = s.quantum().as_f64();
        assert!((tc_before - s.cycle_time_remaining() - q).abs() < 1e-6);
    }

    #[test]
    fn fully_blocked_process_lets_cycle_end_early() {
        // If a process blocks for all its allocated quanta, the cycle ends
        // as if its shares never contributed to the cycle length (§2.4).
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let a = s.add_process(3, Nanos::ZERO); // blocked forever
        let b = s.add_process(3, Nanos::ZERO);
        quantum(&mut s, &[]);
        // Cycle = 60ms. B consumes 30ms (its full share) while A blocks.
        // Lazy measurement means A is only penalized when it becomes due, so
        // the cycle ends after a handful of quanta rather than immediately.
        let mut completed = false;
        let mut b_total = 0u64;
        for _ in 0..12 {
            b_total = (b_total + 10).min(30);
            let out = quantum(&mut s, &[(a, 0, true), (b, b_total, false)]);
            if out.cycle_completed {
                completed = true;
                break;
            }
        }
        assert!(completed, "cycle should end early despite A never running");
        // B gets a fresh allowance and can keep running.
        assert!(s.allowance(b).unwrap() > 0.0);
    }

    #[test]
    fn no_penalty_policy_does_not_charge_blocked() {
        let mut s = AlpsScheduler::new(cfg_ms(10).with_io_policy(IoPolicy::NoPenalty));
        let a = s.add_process(2, Nanos::ZERO);
        quantum(&mut s, &[]);
        quantum(&mut s, &[]);
        quantum(&mut s, &[(a, 0, true)]);
        assert_eq!(s.allowance(a), Some(2.0));
    }

    #[test]
    fn forfeit_policy_zeroes_allowance_once_per_cycle() {
        let mut s = AlpsScheduler::new(cfg_ms(10).with_io_policy(IoPolicy::ForfeitAllowance));
        let a = s.add_process(3, Nanos::ZERO);
        let b = s.add_process(3, Nanos::ZERO);
        quantum(&mut s, &[]);
        // Both due after ceil(3) = 3 quanta.
        quantum(&mut s, &[]);
        quantum(&mut s, &[]);
        let out = quantum(&mut s, &[(a, 0, true), (b, 0, false)]);
        assert_eq!(s.allowance(a), Some(0.0));
        assert!(out.transitions.contains(&Transition::Suspend(a)));
        // The cycle shortened by A's whole allowance: only B's 30ms remain.
        assert!((s.cycle_time_remaining() - 30e6).abs() < 1e-3);
    }

    /// The slot holds the engine's principal entry for the tree's 4-byte
    /// members (`i32`, `u32`, kernsim's `Pid`) and stays one line.
    #[test]
    fn a_slot_is_one_cache_line() {
        use crate::principal::Principal;
        assert_eq!(std::mem::size_of::<Slot<()>>(), 64);
        assert_eq!(std::mem::size_of::<Slot<Principal<i32>>>(), 64);
        assert_eq!(std::mem::size_of::<Slot<Principal<u32>>>(), 64);
    }

    #[test]
    fn remove_process_shortens_cycle_and_invalidates_id() {
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let a = s.add_process(2, Nanos::ZERO);
        let b = s.add_process(2, Nanos::ZERO);
        quantum(&mut s, &[]);
        let tc_before = s.cycle_time_remaining();
        assert_eq!(s.remove_process(a), Some(2));
        assert_eq!(s.total_shares(), 2);
        assert!((tc_before - s.cycle_time_remaining() - 20e6).abs() < 1e-3);
        assert_eq!(s.remove_process(a), None, "double remove is rejected");
        assert_eq!(s.allowance(a), None);
        assert_eq!(s.share(b), Some(2));
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let a = s.add_process(1, Nanos::ZERO);
        s.remove_process(a);
        let c = s.add_process(5, Nanos::ZERO);
        assert_eq!(a.index(), c.index(), "slot is reused");
        assert_ne!(a, c, "but the generation differs");
        assert_eq!(s.share(a), None);
        assert_eq!(s.share(c), Some(5));
    }

    #[test]
    fn set_share_updates_totals() {
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let a = s.add_process(1, Nanos::ZERO);
        let _b = s.add_process(1, Nanos::ZERO);
        s.set_share(a, 3).unwrap();
        assert_eq!(s.total_shares(), 4);
        assert_eq!(s.share(a), Some(3));
        s.remove_process(a);
        assert!(s.set_share(a, 9).is_err());
    }

    #[test]
    fn stale_observation_is_ignored() {
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let a = s.add_process(1, Nanos::ZERO);
        let b = s.add_process(1, Nanos::ZERO);
        quantum(&mut s, &[]);
        let due = s.begin_quantum();
        assert_eq!(due.len(), 2);
        // a exits between measurement and completion.
        s.remove_process(a);
        let obs: Vec<_> = due
            .iter()
            .map(|&id| {
                (
                    id,
                    Observation {
                        total_cpu: Nanos::from_millis(5),
                        blocked: false,
                    },
                )
            })
            .collect();
        let out = s.complete_quantum(&obs);
        // No panic; b was still accounted.
        assert!(out.transitions.iter().all(|t| t.proc_id() != a));
        assert!((s.allowance(b).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cpu_counter_going_backwards_saturates() {
        // /proc readings can glitch; the core must not panic or credit time.
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let a = s.add_process(1, Nanos::from_millis(100));
        quantum(&mut s, &[]);
        quantum(&mut s, &[(a, 50, false)]);
        assert_eq!(s.allowance(a), Some(1.0), "no consumption charged");
    }

    #[test]
    fn empty_scheduler_quantum_is_noop() {
        let mut s = AlpsScheduler::new(cfg_ms(10));
        assert!(s.begin_quantum().is_empty());
        let out = s.complete_quantum(&[]);
        assert!(out.transitions.is_empty());
        assert!(!out.cycle_completed);
        assert_eq!(s.cycles_completed(), 0);
    }

    #[test]
    #[should_panic(expected = "share must be positive")]
    fn zero_share_rejected() {
        let mut s = AlpsScheduler::new(cfg_ms(10));
        s.add_process(0, Nanos::ZERO);
    }

    #[test]
    fn update_schedule_matches_allowance_ceiling() {
        // Allowance 4.3 => next measurement 5 quanta later (§2.3 example).
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let a = s.add_process(5, Nanos::ZERO);
        quantum(&mut s, &[]); // count=1, eligible, update = 1+5 = 6
        for _ in 0..4 {
            assert!(s.begin_quantum().is_empty());
            s.complete_quantum(&[]);
        } // count=5
        let due = s.begin_quantum(); // count=6: due
        assert_eq!(due, vec![a]);
        // Consumed 7ms => allowance 5 - 0.7 = 4.3 => due again in 5 quanta.
        s.complete_quantum(&[(
            a,
            Observation {
                total_cpu: Nanos::from_millis(7),
                blocked: false,
            },
        )]);
        for i in 0..4 {
            assert!(s.begin_quantum().is_empty(), "quantum {i} not due");
            s.complete_quantum(&[]);
        }
        let due = s.begin_quantum();
        assert_eq!(due, vec![a], "due exactly at ceil(4.3)=5 quanta");
    }

    #[test]
    fn a_huge_share_saturates_its_deadline() {
        // Allowance 2⁶⁴ quanta: `count + ⌈a⌉` overflowed (a debug panic; in
        // release the deadline wrapped to 0 and the member was re-measured
        // 64 quanta later, when its wheel bucket came round again).
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let a = s.add_process(u64::MAX, Nanos::ZERO);
        let out = quantum(&mut s, &[]);
        assert_eq!(out.transitions, vec![Transition::Resume(a)]);
        assert_eq!(s.state(a).map(|p| p.update), Some(u64::MAX));
        for k in 0..200 {
            assert!(s.begin_quantum().is_empty(), "quantum {k}: not due");
            s.complete_quantum(&[]);
        }
    }

    /// The level a slot is filed at, if it is filed.
    fn filed_level(s: &AlpsScheduler, id: ProcId) -> Option<u64> {
        s.slots[id.index()]
            .filed
            .map(|b| u64::from(b) / WHEEL_SLOTS)
    }

    /// Run invocations until `id` comes due, checking that it does so
    /// exactly at its `update` and never before. While `id` is the only
    /// filed slot and sits above level 0, the invocations before the next
    /// boundary of its level drain and cascade only empty buckets, so they
    /// are skipped by advancing the counter.
    fn run_until_due(s: &mut AlpsScheduler, id: ProcId) {
        let update = s.state(id).expect("live").update;
        while s.count + 1 < update {
            if let Some(level @ 1..) = filed_level(s, id) {
                let step = 1u64 << (WHEEL_BITS as u64 * level);
                s.count = (s.count / step + 1) * step - 1;
            }
            assert!(s.begin_quantum().is_empty(), "due early at {}", s.count);
            s.complete_quantum(&[]);
        }
        assert_eq!(s.begin_quantum(), vec![id], "not due at its update");
        assert_eq!(s.count, update);
    }

    #[test]
    fn a_far_deadline_is_due_exactly_at_its_invocation() {
        let idle = |id| {
            let obs = Observation {
                total_cpu: Nanos::ZERO,
                blocked: false,
            };
            [(id, obs)]
        };
        // Allowance 5 000: measured at invocation 5 001, filed at level 2,
        // cascaded to level 1 at 4 096 and to level 0 at 4 992.
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let a = s.add_process(5_000, Nanos::ZERO);
        quantum(&mut s, &[]);
        assert_eq!(s.state(a).map(|p| p.update), Some(5_001));
        assert_eq!(filed_level(&s, a), Some(2));
        for count in 2..5_001 {
            assert!(s.begin_quantum().is_empty(), "due early at {count}");
            s.complete_quantum(&[]);
        }
        assert_eq!(s.begin_quantum(), vec![a]);
        s.complete_quantum(&idle(a));
        // Due once: next at 10 001.
        for _ in 0..4_999 {
            assert!(s.begin_quantum().is_empty(), "due twice");
            s.complete_quantum(&[]);
        }
        assert_eq!(s.begin_quantum(), vec![a]);

        // Past the 64⁴ span: parked in the top level's farthest bucket
        // and refiled as the top windows open, until it comes due.
        let span = 1u64 << (WHEEL_BITS * WHEEL_LEVELS as u32);
        let mut s = AlpsScheduler::new(cfg_ms(10));
        let far = s.add_process(3 * span, Nanos::ZERO);
        quantum(&mut s, &[]);
        assert_eq!(filed_level(&s, far), Some(WHEEL_LEVELS as u64 - 1));
        run_until_due(&mut s, far);
        assert_eq!(s.count, 3 * span + 1);
        s.complete_quantum(&idle(far));
        run_until_due(&mut s, far);
        assert_eq!(s.count, 6 * span + 1);
    }

    #[test]
    fn ceil_quanta_matches_libm_ceil() {
        let libm = |a: f64| a.ceil().max(0.0) as u64;
        let two = |e: i32| 2f64.powi(e);
        let mut cases = vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            4.3,
            -0.5,
            -1.0,
            -4.3,
        ];
        for e in [52, 53, 63, 64] {
            for x in [two(e), -two(e)] {
                cases.extend([x, x.next_down(), x.next_up()]);
                cases.extend([x + 0.5, x - 0.5, x + 1.0, x - 1.0]);
            }
        }
        for a in cases {
            assert_eq!(ceil_quanta(a), libm(a), "a = {a:e} ({:#x})", a.to_bits());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn ceil_quanta_matches_libm_ceil_on_any_bit_pattern(bits in proptest::prelude::any::<u64>()) {
            let a = f64::from_bits(bits);
            proptest::prop_assert_eq!(ceil_quanta(a), a.ceil().max(0.0) as u64);
        }
    }

    /// Brute-force check that the slot indexes (`free`, `occupied`,
    /// `listed`, `vacated`) exactly summarize `slots`.
    fn assert_indexes_consistent(s: &AlpsScheduler) {
        for (pos, &idx) in s.free.iter().enumerate() {
            let idx = idx as usize;
            assert!(s.slots[idx].state.is_none(), "free slot {idx} is occupied");
            assert!(
                !s.free[pos + 1..].contains(&(idx as u32)),
                "slot {idx} listed twice in the free list"
            );
        }
        for (pos, &idx) in s.occupied.iter().enumerate() {
            let idx = idx as usize;
            assert!(
                s.slots[idx].listed,
                "occupied entry {idx} not marked listed"
            );
            assert!(
                !s.occupied[pos + 1..].contains(&(idx as u32)),
                "slot {idx} listed twice in the occupied index"
            );
        }
        for (idx, slot) in s.slots.iter().enumerate() {
            let in_occupied = s.occupied.contains(&(idx as u32));
            assert_eq!(
                slot.listed, in_occupied,
                "slot {idx}: listed flag disagrees with the occupied index"
            );
            if slot.state.is_some() {
                assert!(
                    in_occupied,
                    "live slot {idx} missing from the occupied index"
                );
                assert!(
                    !s.free.contains(&(idx as u32)),
                    "live slot {idx} on the free list"
                );
            } else {
                assert!(
                    s.free.contains(&(idx as u32)),
                    "vacant slot {idx} missing from the free list"
                );
            }
        }
        let dead = s
            .occupied
            .iter()
            .filter(|&&i| s.slots[i as usize].state.is_none())
            .count();
        assert_eq!(s.vacated, dead, "vacated count disagrees with a scan");
        assert!(
            s.vacated * 2 <= s.occupied.len().max(1),
            "compaction threshold violated: {} dead of {}",
            s.vacated,
            s.occupied.len()
        );
        for (pos, &idx) in s.occupied.iter().enumerate() {
            assert_eq!(
                s.slots[idx as usize].pos as usize, pos,
                "slot {idx}: pos disagrees with its occupied index"
            );
        }
        let eligible = s
            .occupied
            .iter()
            .filter_map(|&i| s.slots[i as usize].state.as_ref())
            .filter(|p| p.eligible)
            .count();
        assert_eq!(
            s.eligible_count, eligible,
            "eligible_count disagrees with a scan"
        );
        assert_wheel_consistent(s);
    }

    /// The wheel indexes exactly the slots' filings: a bucket's summary
    /// bit is set exactly for its non-zero words; every set bit belongs to
    /// a live, eligible slot whose filing names that bucket, and every
    /// filing's bit is set, so a slot is in one bucket at most; every
    /// eligible slot is filed or queued for the next repartition in
    /// `pending` or `dirty`; and this invocation's level-0 bucket, the
    /// repartition's merge scratch, is empty. A wheel a restore left
    /// unbuilt is empty, and no slot is filed.
    fn assert_wheel_consistent(s: &AlpsScheduler) {
        let w = &s.wheel;
        let filed = |i: usize| s.slots[i].filed;
        if !w.built {
            assert!(
                w.words.iter().all(|&x| x == 0),
                "an unbuilt wheel holds bits"
            );
            assert!((0..s.slots.len()).all(|i| filed(i).is_none()));
            return;
        }
        assert_eq!(w.sstride, w.stride.div_ceil(64));
        assert_eq!(w.words.len(), WHEEL_BUCKETS * w.stride);
        assert_eq!(w.summary.len(), WHEEL_BUCKETS * w.sstride);
        for b in 0..WHEEL_BUCKETS {
            for k in 0..w.stride {
                let word = w.words[b * w.stride + k];
                let summary = w.summary[b * w.sstride + k / 64] >> (k % 64) & 1;
                assert_eq!(summary == 1, word != 0, "bucket {b}: summary of word {k}");
                for bit in (0..64).filter(|bit| word >> bit & 1 == 1) {
                    let pos = k * 64 + bit;
                    assert!(
                        pos < s.occupied.len(),
                        "bucket {b}: position {pos} unlisted"
                    );
                    let i = s.occupied[pos] as usize;
                    assert!(
                        s.slots[i].state.as_ref().is_some_and(|p| p.eligible),
                        "bucket {b}: slot {i} vacant or suspended"
                    );
                    assert_eq!(
                        filed(i),
                        Some(b as u8),
                        "bucket {b}: slot {i} filed elsewhere"
                    );
                }
            }
            for s2 in w.stride.div_ceil(64) * 64..w.sstride * 64 {
                let summary = w.summary[b * w.sstride + s2 / 64] >> (s2 % 64) & 1;
                assert_eq!(summary, 0, "bucket {b}: summary past the stride");
            }
        }
        let now = (s.count & (WHEEL_SLOTS - 1)) as usize;
        assert!(
            w.words[now * w.stride..(now + 1) * w.stride]
                .iter()
                .all(|&x| x == 0),
            "this invocation's level-0 bucket is not empty"
        );
        for (i, slot) in s.slots.iter().enumerate() {
            if let Some(b) = slot.filed {
                assert!(slot.listed, "slot {i} filed but unlisted");
                let pos = slot.pos as usize;
                let word = w.words[b as usize * w.stride + pos / 64];
                assert_eq!(
                    word >> (pos % 64) & 1,
                    1,
                    "slot {i}'s filing in bucket {b} unset"
                );
            }
            if slot.state.as_ref().is_some_and(|p| p.eligible) {
                assert!(
                    slot.filed.is_some()
                        || s.pending.contains(&(i as u32))
                        || s.dirty.contains(&(i as u32)),
                    "eligible slot {i} unreachable by the wheel"
                );
            }
        }
    }

    /// Figure 3's due set by brute force: every eligible slot whose
    /// measurement is due at the next invocation, in registration order.
    fn due_by_scan(s: &AlpsScheduler) -> Vec<ProcId> {
        let next = s.count + 1;
        let due = |&i: &u32| {
            let slot = &s.slots[i as usize];
            let p = slot.state.as_ref()?;
            (p.eligible && p.update <= next).then_some(ProcId {
                idx: i,
                generation: slot.generation,
            })
        };
        s.occupied.iter().filter_map(due).collect()
    }

    /// Readings for a due list: each due member has consumed half the
    /// time on `clock`, and all are blocked or none.
    fn readings(due: &[ProcId], clock: u64, blocked: bool) -> Vec<(ProcId, Observation)> {
        let total_cpu = Nanos::from_millis(clock / 2);
        let obs = Observation { total_cpu, blocked };
        due.iter().map(|&id| (id, obs)).collect()
    }

    /// Random churn keeps the O(1) slot indexes and the wheel exactly
    /// consistent with a brute-force scan of every slot, `proc_ids`
    /// reporting exactly the live processes, and every due list equal to
    /// [`due_by_scan`], lazy and eager. Shares reach 5 000, and bursts of
    /// up to 4 500 quanta let such deadlines come due through the upper
    /// levels' cascades. A mass removal forces compaction, and a
    /// checkpoint taken between `begin_quantum` and `complete_quantum`
    /// carries on in place of the original.
    fn churn_stays_consistent(lazy: bool, ops: &[(u8, usize, u64)]) {
        let mut s = AlpsScheduler::new(cfg_ms(10).with_lazy_measurement(lazy));
        let mut live: Vec<ProcId> = Vec::new();
        let mut clock = 0u64;
        let quantum = |s: &mut AlpsScheduler, clock: &mut u64, blocked: bool| {
            *clock += 10;
            let want = due_by_scan(s);
            let due = s.begin_quantum();
            assert_eq!(due, want, "due list at invocation {}", s.count);
            s.complete_quantum(&readings(&due, *clock, blocked));
        };
        for &(op, pick, far) in ops {
            let share = if pick % 4 == 0 { far } else { 1 + far % 6 };
            match op {
                0..=2 => live.push(s.add_process(share, Nanos::from_millis(clock))),
                3 if !live.is_empty() => {
                    let id = live.swap_remove(pick % live.len());
                    s.remove_process(id).expect("id was live");
                }
                4 if !live.is_empty() => {
                    let id = live[pick % live.len()];
                    s.set_share(id, share).expect("id was live");
                }
                5 => {
                    // Remove two in three: more than half the occupied
                    // positions fall vacant, so the index compacts.
                    let keep = live.len() / 3;
                    for id in live.drain(keep..) {
                        s.remove_process(id).expect("id was live");
                    }
                }
                6 => {
                    clock += 10;
                    let want = due_by_scan(&s);
                    let due = s.begin_quantum();
                    assert_eq!(due, want, "due list at invocation {}", s.count);
                    let json = serde_json::to_string(&s).expect("serialize");
                    s = serde_json::from_str(&json).expect("deserialize");
                    assert_indexes_consistent(&s);
                    s.complete_quantum(&readings(&due, clock, pick % 2 == 0));
                }
                7 => {
                    for _ in 0..far % 4_500 {
                        quantum(&mut s, &mut clock, pick % 2 == 0);
                    }
                }
                _ => quantum(&mut s, &mut clock, pick % 2 == 0),
            }
            assert_indexes_consistent(&s);
            let mut want: Vec<ProcId> = live.clone();
            want.sort_by_key(|id| (id.idx, id.generation));
            let mut got: Vec<ProcId> = s.proc_ids().collect();
            got.sort_by_key(|id| (id.idx, id.generation));
            assert_eq!(got, want, "proc_ids disagrees with live set");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn slot_index_churn_stays_consistent(
            ops in proptest::collection::vec((0u8..14, 0usize..16, 1u64..5_001), 1..80),
        ) {
            for lazy in [true, false] {
                churn_stays_consistent(lazy, &ops);
            }
        }
    }

    /// One quantum of the round-trip drive: every due member reports a
    /// cumulative reading that grows with `k` at one of three rates, one
    /// in three blocked; a few members leave, join or change share
    /// between `begin_quantum` and `complete_quantum`.
    fn churn_quantum(
        s: &mut AlpsScheduler,
        live: &mut Vec<ProcId>,
        k: u64,
    ) -> (Vec<ProcId>, QuantumOutcome) {
        let due = s.begin_quantum();
        if k.is_multiple_of(10) {
            for j in 0..40 {
                let id = live.swap_remove((k as usize * 31 + j * 97) % live.len());
                s.remove_process(id).expect("live id");
                live.push(s.add_process(1 + (k + j as u64) % 200, Nanos::ZERO));
            }
        }
        if k % 7 == 3 {
            let id = live[k as usize * 13 % live.len()];
            s.set_share(id, 1 + k % 150).expect("live id");
        }
        let obs: Vec<_> = due
            .iter()
            .map(|&id| {
                let rate = 1 + id.index() as u64 % 3;
                let reading = Observation {
                    total_cpu: Nanos::from_millis(10 * k * rate),
                    blocked: id.index() % 3 == 0,
                };
                (id, reading)
            })
            .collect();
        let out = s.complete_quantum(&obs);
        (due, out)
    }

    /// A checkpoint carries no wheel; the restored scheduler rebuilds it
    /// from the slots on first use. At 6 000 members after churn, with
    /// lazy deadlines parked above level 0, two restored copies — one taken
    /// mid-quantum, one between quanta just after a share change forced an
    /// eligible member due — come due and transition exactly like the
    /// original for 200 quanta, lazy or eager.
    #[test]
    fn a_restored_wheel_reproduces_the_original() {
        for lazy in [true, false] {
            restored_wheel_reproduces_the_original(lazy);
        }
    }

    fn restored_wheel_reproduces_the_original(lazy: bool) {
        fn restore(s: &AlpsScheduler) -> AlpsScheduler {
            let json = serde_json::to_string(s).expect("serialize");
            assert!(!json.contains("wheel\":["), "the wheel is not serialized");
            let r: AlpsScheduler = serde_json::from_str(&json).expect("deserialize");
            assert!(!r.wheel.built, "rebuilt only on use");
            r
        }
        let mut original = AlpsScheduler::new(cfg_ms(10).with_lazy_measurement(lazy));
        let mut live: Vec<ProcId> = (0..6_000u64)
            .map(|i| original.add_process(1 + i % 200, Nanos::ZERO))
            .collect();
        const CHECKPOINT: u64 = 150;
        for k in 0..CHECKPOINT {
            churn_quantum(&mut original, &mut live, k);
        }
        let parked = original
            .slots
            .iter()
            .filter(|slot| slot.filed.is_some_and(|b| u64::from(b) >= WHEEL_SLOTS))
            .count();
        assert!(!lazy || parked > 0, "no deadline parked above level 0");

        // Mid-quantum: the due set popped, a share changed in between.
        let due = original.begin_quantum();
        assert!(!due.is_empty());
        original.set_share(live[0], 7).expect("live id");
        let mut mid = restore(&original);
        let obs: Vec<_> = due
            .iter()
            .map(|&id| {
                let total_cpu = Nanos::from_millis(20 * CHECKPOINT);
                let blocked = false;
                (id, Observation { total_cpu, blocked })
            })
            .collect();
        let out_o = original.complete_quantum(&obs);
        let out_r = mid.complete_quantum(&obs);
        assert_eq!(out_o.transitions, out_r.transitions);
        assert_wheel_consistent(&mid);

        // Between quanta, with an eligible member's next reading forced to
        // the coming quantum.
        let forced = *live
            .iter()
            .find(|&&id| original.is_eligible(id) == Some(true))
            .expect("an eligible member");
        original.set_share(forced, 3).expect("live id");
        mid.set_share(forced, 3).expect("live id");
        let between = restore(&original);

        let mut copies = [(mid, live.clone()), (between, live.clone())];
        let cycles = original.cycles_completed();
        for k in CHECKPOINT + 1..CHECKPOINT + 201 {
            let (due_o, out_o) = churn_quantum(&mut original, &mut live, k);
            if k == CHECKPOINT + 1 {
                assert!(due_o.contains(&forced));
            }
            for (copy, live_c) in &mut copies {
                let (due_c, out_c) = churn_quantum(copy, live_c, k);
                assert_eq!(due_o, due_c, "due sets diverged at quantum {k}");
                assert_eq!(out_o.transitions, out_c.transitions, "quantum {k}");
                assert_eq!(out_o.cycle_completed, out_c.cycle_completed);
            }
        }
        assert!(
            original.cycles_completed() > cycles,
            "no cycle boundary crossed"
        );
        assert_wheel_consistent(&original);
        let json = serde_json::to_string(&original).unwrap();
        for (copy, _) in &copies {
            assert_wheel_consistent(copy);
            assert_eq!(serde_json::to_string(copy).unwrap(), json);
        }
    }
}
