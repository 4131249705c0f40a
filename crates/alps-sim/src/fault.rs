//! Fault injection at the [`Substrate`] boundary.
//!
//! [`FaultySubstrate`] wraps any substrate and corrupts its answers
//! according to a seeded [`FaultPlan`]: signal
//! deliveries are silently dropped or deferred to the next quantum
//! boundary, CPU-time reads fail outright or return the previous
//! observation, and the clock jitters. Because the plan's decision stream
//! is a pure function of its seed, a faulty run over a deterministic inner
//! substrate replays exactly.
//!
//! Mid-quantum process exits — the one fault class that needs kernel
//! access rather than answer corruption — are driven by the test harness
//! itself via [`kernsim::SimCtl::terminate`], keyed off the same plan.

use std::collections::HashMap;

use alps_core::{Nanos, Observation, Signal, Substrate};
use kernsim::FaultPlan;

/// Error type of a [`FaultySubstrate`]: either an injected read failure or
/// the inner substrate's own error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faulty<E> {
    /// The fault plan decided this operation fails.
    Injected,
    /// The inner substrate failed on its own.
    Inner(E),
}

/// A [`Substrate`] decorator that injects faults per a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultySubstrate<S: Substrate> {
    inner: S,
    plan: FaultPlan,
    /// Last successful observation per member, replayed on stale reads.
    last_read: HashMap<S::Member, Observation>,
    /// Signals deferred by the plan, delivered at the next `now()` call
    /// (i.e. the next quantum boundary).
    delayed: Vec<(S::Member, Signal)>,
}

impl<S: Substrate> FaultySubstrate<S> {
    /// Wrap `inner`, injecting per `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultySubstrate {
            inner,
            plan,
            last_read: HashMap::new(),
            delayed: Vec::new(),
        }
    }

    /// The wrapped substrate.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped substrate, mutably.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// The plan (inspect its [`kernsim::FaultLog`] to see what fired).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Signals currently held back by delay injection.
    pub fn delayed_signals(&self) -> &[(S::Member, Signal)] {
        &self.delayed
    }

    fn release_delayed(&mut self) -> Result<(), S::Error> {
        for (m, sig) in std::mem::take(&mut self.delayed) {
            // A bounce here is fine: the member exited while the signal
            // was in flight, which is exactly the race being modeled.
            let _ = self.inner.deliver(m, sig)?;
        }
        Ok(())
    }
}

impl<S: Substrate> Substrate for FaultySubstrate<S> {
    type Member = S::Member;
    type Error = Faulty<S::Error>;

    fn now(&mut self) -> Nanos {
        // The boundary: land whatever was delayed, then report a possibly
        // jittered clock.
        if let Err(_e) = self.release_delayed() {
            // Inner delivery errors during release are dropped: `now()`
            // cannot fail, and a member the dropped signal left stopped
            // is read stopped and resumed.
        }
        // Monotonic by construction: the plan clamps each jittered
        // reading to its watermark, so a delayed fire re-mints the clock
        // forward instead of handing out a timestamp behind an earlier
        // one (which event consumers would otherwise have to reorder).
        self.plan.jittered_now(self.inner.now())
    }

    fn read(&mut self, m: S::Member) -> Result<Option<Observation>, Faulty<S::Error>> {
        if self.plan.fail_read() {
            return Err(Faulty::Injected);
        }
        let stale = self.plan.stale_read();
        if stale {
            if let Some(&old) = self.last_read.get(&m) {
                return Ok(Some(old));
            }
            // Nothing cached to be stale with; fall through to a real read.
        }
        match self.inner.read(m) {
            Ok(Some(o)) => {
                self.last_read.insert(m, o);
                Ok(Some(o))
            }
            Ok(None) => {
                self.last_read.remove(&m);
                Ok(None)
            }
            Err(e) => Err(Faulty::Inner(e)),
        }
    }

    fn read_exact(&mut self, m: S::Member) -> Result<Option<Nanos>, Faulty<S::Error>> {
        // Exact reads are instrumentation, not scheduling input; they
        // bypass injection so accuracy metrics stay ground truth.
        self.inner.read_exact(m).map_err(Faulty::Inner)
    }

    fn stopped(&self, m: S::Member) -> bool {
        self.inner.stopped(m)
    }

    fn deliver(&mut self, m: S::Member, signal: Signal) -> Result<bool, Faulty<S::Error>> {
        if self.plan.lose_signal() {
            // The caller sees success; nothing happens. The classic race.
            return Ok(true);
        }
        if self.plan.delay_signal() {
            self.delayed.push((m, signal));
            return Ok(true);
        }
        self.inner.deliver(m, signal).map_err(Faulty::Inner)
    }
}
