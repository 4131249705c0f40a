//! The backend abstraction the [`Engine`](super::Engine) drives.
//!
//! A [`Substrate`] is whatever world the controlled processes live in: the
//! `kernsim` discrete-event simulator, a real Linux box read through
//! `/proc`, or a scripted mock in tests. The engine owns the per-quantum
//! control loop; the substrate owns *observation* (cumulative CPU time,
//! blocked state) and *actuation* (stop/continue delivery). Everything the
//! paper's ALPS process does to the outside world passes through these
//! methods. The batched entry points ([`Substrate::read_batch`],
//! [`Substrate::apply_batch`]) let a backend amortize per-call overhead
//! across a whole quantum's worth of members; their defaults delegate to
//! the per-member methods, so implementing only those stays correct.

use core::fmt;
use core::hash::Hash;

use crate::sched::Observation;
use crate::time::Nanos;

/// A suspend/continue request for one member process — the engine-level
/// view of `SIGSTOP`/`SIGCONT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Suspend the member (`SIGSTOP`).
    Stop,
    /// Make the member runnable again (`SIGCONT`).
    Continue,
}

/// A world the engine can schedule processes in.
///
/// Implementations report *cumulative* CPU readings (the engine and the
/// core scheduler difference successive readings themselves) and signal
/// delivery outcomes. A member that no longer exists is reported as
/// `Ok(None)` from [`Substrate::read`] / [`Substrate::read_exact`] and
/// `Ok(false)` from [`Substrate::deliver`] — the engine reaps it; `Err` is
/// for faults (e.g. an unreadable `/proc` for reasons other than process
/// exit), which the engine counts, retries and, when they persist,
/// quarantines the member for.
pub trait Substrate {
    /// The backend's member identifier (a `pid_t` on Linux, a simulator
    /// pid in `kernsim`).
    type Member: Copy + Ord + Hash + fmt::Debug;
    /// Backend fault type. Use [`core::convert::Infallible`] for backends
    /// that cannot fail (e.g. the simulator).
    type Error;

    /// The backend's current wall clock.
    fn now(&mut self) -> Nanos;

    /// Read a member's progress: cumulative CPU time and blocked state.
    /// Returns `Ok(None)` if the member no longer exists.
    fn read(&mut self, member: Self::Member) -> Result<Option<Observation>, Self::Error>;

    /// Read every member of `members`, in order, appending one entry per
    /// member to `out` (`None` for a member that no longer exists).
    ///
    /// Fail-fast: a backend fault aborts the batch, with `out` holding
    /// the readings of the members processed before the fault — exactly
    /// the state a caller looping over [`Substrate::read`] would hold.
    /// The default does just that; backends with per-call overhead worth
    /// amortizing (syscall buffers, path formatting) override it. The
    /// engine drives this on the hot measurement path, so overrides
    /// should not allocate per call.
    fn read_batch(
        &mut self,
        members: &[Self::Member],
        out: &mut Vec<Option<Observation>>,
    ) -> Result<(), Self::Error> {
        for &m in members {
            let o = self.read(m)?;
            out.push(o);
        }
        Ok(())
    }

    /// Read a member's cumulative CPU time with the best precision the
    /// backend has, for cycle-boundary instrumentation (§3.1). Defaults to
    /// the visible reading from [`Substrate::read`]; the simulator
    /// overrides this with ground truth so accuracy numbers measure the
    /// *scheduler*, not the tick-sampled counters it reads.
    fn read_exact(&mut self, member: Self::Member) -> Result<Option<Nanos>, Self::Error> {
        Ok(self.read(member)?.map(|o| o.total_cpu))
    }

    /// Whether the last [`read`](Substrate::read) of `member` found it
    /// stopped by job control (state `T` in `/proc/<pid>/stat`). This is
    /// the engine's evidence of a lost `Continue`: a member read stopped
    /// while its principal is eligible is resumed in that quantum. The
    /// default reports `false`, so over a backend that cannot tell, a
    /// lost `Continue` waits for the principal's next transition.
    fn stopped(&self, member: Self::Member) -> bool {
        let _ = member;
        false
    }

    /// Deliver a stop/continue signal. Returns `Ok(false)` if the member
    /// no longer exists.
    fn deliver(&mut self, member: Self::Member, signal: Signal) -> Result<bool, Self::Error>;

    /// Deliver a batch of signals, in order, appending one delivery
    /// outcome per signal to `delivered` (`false` = member gone).
    ///
    /// Fail-fast: a backend fault aborts the batch with `delivered`
    /// holding the outcomes of the signals before the faulting one — the
    /// state a caller looping over [`Substrate::deliver`] would hold. The
    /// engine then resumes with the signals after it.
    /// Backends may reorder *work* internally (e.g. group same-signal
    /// deliveries) only if the observable outcome per member is the same
    /// as in-order delivery; the outcomes in `delivered` always follow
    /// `batch` order.
    fn apply_batch(
        &mut self,
        batch: &[(Self::Member, Signal)],
        delivered: &mut Vec<bool>,
    ) -> Result<(), Self::Error> {
        for &(m, sig) in batch {
            let d = self.deliver(m, sig)?;
            delivered.push(d);
        }
        Ok(())
    }
}
