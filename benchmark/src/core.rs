//! `core-mix-4k`: `alps_core::Engine` alone, over [`SynthSubstrate`].
//!
//! The engine is built the way `Supervisor::build` builds it (exact
//! instrumentation, auto-reap, default configuration). One member in ten
//! is compute-bound, the rest sleep, and the longest-enrolled members keep
//! being replaced by new ones. Each round starts from a fresh engine and
//! runs a constant number of quanta, so every round does the same work.
//!
//! Members are replaced when a cycle ends, not every quantum. A member
//! joins with a full allowance, and Figure 3 ends a cycle only once every
//! allowance is spent; under lazy measurement a sleeper holding `a` quanta
//! of allowance takes `a(a+1)/2` quanta to forfeit it (210 for a share of
//! 20). Replacing members every quantum therefore keeps a cycle open for
//! ever: the first version of this workload completed none in 6000 quanta
//! and idled with nearly everyone suspended, and replacing them in bursts
//! on a fixed schedule left 300-quantum tails in which a few dozen late
//! joiners were all that was due. Admitting the newcomers at the boundary
//! lets them spend their allowance alongside everyone else, so a cycle
//! lasts 210 to 320 quanta, most of them with hundreds of members due.
//!
//! 4000 members, not the 100 000 this workload was first written with. An
//! engine of 100 000 is 37 MB: it lives in the host's shared last-level
//! cache and in memory, so half of each quantum was cache misses whose cost
//! a neighbouring VM sets. Whole 20 s runs of the same work then differed by
//! 30 %, which no estimator inside a run can take out and no bound the
//! contract allows can cover. At 4000 the engine (1.5 MB) stays in this
//! core's own L2, and ten runs spread by 3 %. The traced run still takes one
//! round at 100 000 and reports it ungated (`core.quantum_us_100k`,
//! `core.bytes_per_member`), so a change that only hurts at scale is seen.

use std::collections::VecDeque;
use std::path::Path;

use alps_core::{AlpsConfig, Engine, EngineStats, Instrumentation, Nanos, NullSink, ProcId};

use crate::measure::{
    alloc_calls, keep_fastest, mean_us, median, p50_us, peak_rss_mb, percentile, rss_mb,
    shares_in_blocks, thread_cpu_ns, us, Dist,
};
use crate::report::{Outcome, RUN_SECONDS};
use crate::synth::{Kind, SynthSubstrate};
use crate::trace::{Timed, Tracer};

/// Members enrolled or removed per timed batch.
const BATCH: usize = 1000;

/// Timed rounds at the driver's `--seconds`: a round takes ~25 ms on the
/// reference box.
const ROUNDS_AT_RUN_SECONDS: u64 = 600;

/// The workload's constants. Everything a round does follows from these and
/// the seed; nothing depends on how long anything took.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Members enrolled before the first quantum.
    pub members: usize,
    /// CPUs of the synthetic machine. About one per hundred members, not
    /// 1: the compute-bound tenth holds shares worth 400·10.5 quanta of CPU
    /// per cycle, which one CPU would take 4200 quanta to deliver. At 41
    /// they are through in about half the 210 quanta the sleepers need, so
    /// the sleepers set the cycle length and a round crosses several
    /// boundaries.
    pub cpus: u64,
    /// Members that leave, and join, after a quantum that ended a cycle:
    /// about one per quantum, taken over the cycle.
    pub churn: usize,
    /// Quanta per round: enough for five cycle boundaries (a cycle lasts
    /// 210 to 320 quanta with the engine as it is).
    pub quanta: usize,
    /// Timed rounds (after one discarded warm-up round).
    pub rounds: usize,
}

impl Plan {
    pub fn new(seconds: u64, smoke: bool) -> Plan {
        if smoke {
            return Plan {
                members: 2000,
                cpus: 8,
                churn: 200,
                quanta: 300,
                rounds: 1,
            };
        }
        Plan {
            members: 4000,
            cpus: 41,
            churn: 200,
            quanta: 1400,
            rounds: (ROUNDS_AT_RUN_SECONDS * seconds / RUN_SECONDS).max(3) as usize,
        }
    }

    /// The same mix at 100 000 members (20 000 at smoke scale), one round:
    /// the traced run's ungated look at the engine outside the cache.
    pub fn at_scale(smoke: bool) -> Plan {
        let (members, cpus, quanta) = if smoke {
            (20_000, 80, 300)
        } else {
            (100_000, 1024, 1400)
        };
        Plan {
            members,
            cpus,
            churn: 2000,
            quanta,
            rounds: 1,
        }
    }

    /// Member ids a round may use: a cycle is never shorter than the 20
    /// quanta a share of 20 takes to forfeit when read every quantum.
    fn capacity(&self) -> usize {
        self.members + self.churn * (self.quanta / 20 + 1)
    }
}

/// Shares 1 to 20 for every member id of a round. Each kind draws from its
/// own sequence, in which every 20 consecutive members hold each share
/// once: the 200 ids that leave or join together are 20 compute-bound
/// members and 180 sleepers, whole blocks of both. What a round does is
/// then the same for every seed; the seed decides who holds which share.
fn share_table(plan: &Plan, seed: u64) -> Vec<u64> {
    assert_eq!(plan.churn % 200, 0, "whole blocks leave and join");
    assert_eq!(plan.members % 200, 0);
    let n = plan.capacity();
    let compute = shares_in_blocks(n.div_ceil(10), seed);
    let sleeper = shares_in_blocks(n - n / 10, !seed);
    let (mut c, mut s) = (compute.into_iter(), sleeper.into_iter());
    (0..n as u32)
        .map(|id| match kind_of(id) {
            Kind::Compute => c.next(),
            Kind::Sleeper => s.next(),
        })
        .map(|share| share.expect("one share per id"))
        .collect()
}

fn kind_of(id: u32) -> Kind {
    if id.is_multiple_of(10) {
        Kind::Compute
    } else {
        Kind::Sleeper
    }
}

/// Reach the synthetic world through whatever wraps it.
pub trait HasSynth: alps_core::Substrate<Member = u32, Error = std::convert::Infallible> {
    fn synth(&mut self) -> &mut SynthSubstrate;
}

impl HasSynth for SynthSubstrate {
    fn synth(&mut self) -> &mut SynthSubstrate {
        self
    }
}

impl HasSynth for Timed<SynthSubstrate> {
    fn synth(&mut self) -> &mut SynthSubstrate {
        &mut self.inner
    }
}

/// An engine, its world and the enrolment order.
struct World<S> {
    engine: Engine<u32>,
    sub: S,
    /// Enrolled members, longest-enrolled first.
    fifo: VecDeque<(ProcId, u32)>,
    next_id: u32,
    /// Share of every member id the round may use.
    share: Vec<u64>,
    /// Thread CPU ns of the pieces of set-up: `Engine::new` with the first
    /// batch of `add_member` calls, then each further batch of [`BATCH`].
    setup_ns: Vec<u64>,
}

impl<S: HasSynth> World<S> {
    /// Populate `sub` (untimed: it is the benchmark's), then build the
    /// engine over it (timed).
    fn build(plan: &Plan, seed: u64, mut sub: S) -> World<S> {
        assert_eq!(plan.members % BATCH, 0, "whole batches");
        let share = share_table(plan, seed);
        for id in 0..plan.members as u32 {
            sub.synth().add(id, kind_of(id));
        }
        let mut ids = Vec::with_capacity(plan.members);
        let mut setup_ns = Vec::with_capacity(plan.members / BATCH);
        let mut piece_start = thread_cpu_ns();
        let mut engine =
            Engine::new(AlpsConfig::default(), Instrumentation::Exact).with_auto_reap(true);
        for (i, &s) in share[..plan.members].iter().enumerate() {
            ids.push(engine.add_member(i as u32, s, Nanos::ZERO));
            if (i + 1) % BATCH == 0 {
                let now = thread_cpu_ns();
                setup_ns.push(now - piece_start);
                piece_start = now;
            }
        }
        let mut fifo = VecDeque::with_capacity(plan.members + plan.churn);
        fifo.extend(ids.into_iter().zip(0u32..));
        World {
            engine,
            sub,
            fifo,
            next_id: plan.members as u32,
            share,
            setup_ns,
        }
    }

    /// The membership change that follows the end of a cycle. Returns
    /// (operations attempted, operations failed).
    fn churn(&mut self, n: usize) -> (u64, u64) {
        let mut failed = 0;
        for _ in 0..n {
            let (id, member) = self.fifo.pop_front().expect("members to remove");
            if self.engine.remove_principal(id).is_none() {
                failed += 1;
            }
            self.sub.synth().remove(member);
        }
        for _ in 0..n {
            let member = self.next_id;
            self.next_id += 1;
            self.sub.synth().add(member, kind_of(member));
            let id = self
                .engine
                .add_member(member, self.share[member as usize], Nanos::ZERO);
            self.fifo.push_back((id, member));
        }
        (2 * n as u64, failed)
    }

    /// Remove everyone, timing `remove_principal` in batches. Returns ns per
    /// batch.
    fn teardown(&mut self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.fifo.len() / BATCH + 1);
        while self.fifo.len() >= BATCH {
            let c0 = thread_cpu_ns();
            for _ in 0..BATCH {
                let (id, _) = self.fifo.pop_front().expect("counted");
                std::hint::black_box(self.engine.remove_principal(id));
            }
            out.push(thread_cpu_ns() - c0);
        }
        out
    }
}

fn synth(plan: &Plan) -> SynthSubstrate {
    SynthSubstrate::new(AlpsConfig::default().quantum, plan.cpus, plan.capacity())
}

/// What a round did, for the "every round did the same" check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals {
    stats: EngineStats,
    due: u64,
    transitions: u64,
}

/// One round's measurements.
struct Round {
    totals: Totals,
    /// Thread CPU ns of each `run_quantum`.
    quantum_ns: Vec<u64>,
    setup_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Allocator calls inside `run_quantum`, second half of the round.
    steady_allocs: u64,
    steady_quanta: u64,
}

/// A round through `Engine::run_quantum`, the way a driver with nothing to
/// interleave calls it.
fn untraced_round(plan: &Plan, seed: u64) -> Round {
    let mut w = World::build(plan, seed, synth(plan));
    let mut quantum_ns = Vec::with_capacity(plan.quanta);
    let mut totals = Totals::default();
    let (mut attempted, mut failed) = (plan.members as u64, 0);
    let (mut steady_allocs, mut steady_quanta) = (0, 0);
    for q in 0..plan.quanta {
        w.sub.tick();
        let a0 = alloc_calls();
        let c0 = thread_cpu_ns();
        let Ok(transitions) = w.engine.run_quantum(&mut w.sub, &mut NullSink);
        let c1 = thread_cpu_ns();
        totals.transitions += transitions.len() as u64;
        quantum_ns.push(c1 - c0);
        if q >= plan.quanta / 2 {
            steady_allocs += alloc_calls() - a0;
            steady_quanta += 1;
        }
        attempted += 1;
        totals.due += w.engine.due().members().len() as u64;
        if w.engine.last_cycle_completed() {
            let (a, f) = w.churn(plan.churn);
            attempted += a;
            failed += f;
        }
    }
    totals.stats = w.engine.stats();
    if !w.sub.conserved() {
        failed += 1;
    }
    Round {
        totals,
        quantum_ns,
        setup_ns: w.setup_ns,
        attempted,
        failed,
        steady_allocs,
        steady_quanta,
    }
}

pub fn run(seed: u64, seconds: u64, smoke: bool) -> Outcome {
    let plan = Plan::new(seconds, smoke);
    let mut out = Outcome::default();
    out.note(format!("core-mix-4k plan: {plan:?}"));

    // Every round runs the same quanta and the same set-up pieces: keep the
    // fastest sighting of each, folding rounds in as they finish so that
    // the samples held do not grow with the number of rounds.
    let warmup = untraced_round(&plan, seed);
    let (mut quantum, mut setup) = (Vec::new(), Vec::new());
    let mut round_means = Vec::with_capacity(plan.rounds);
    for r in 0..plan.rounds {
        let round = untraced_round(&plan, seed);
        out.attempted += round.attempted;
        out.failed += round.failed;
        if round.failed > 0 {
            out.note(format!(
                "FAILED: round {r}: {} removals refused or simulated time not conserved",
                round.failed
            ));
        }
        if round.totals != warmup.totals {
            out.fail(format!(
                "round {r} did different work: {:?} vs {:?}",
                round.totals, warmup.totals
            ));
        }
        round_means.push(mean_us(&round.quantum_ns));
        keep_fastest(&mut quantum, &round.quantum_ns);
        keep_fastest(&mut setup, &round.setup_ns);
    }
    if warmup.totals.stats.cycles < 5 && !smoke {
        out.fail(format!(
            "a round crossed only {} cycle boundaries",
            warmup.totals.stats.cycles
        ));
    }
    round_means.sort_by(f64::total_cmp);
    out.note(format!(
        "quantum mean of whole rounds: {:.2} to {:.2} us, median {:.2} us",
        round_means[0],
        round_means[round_means.len() - 1],
        median(&round_means),
    ));

    // The metric is the mean of the quanta, not their median: mid-cycle
    // quanta measure hundreds of members, quanta late in a cycle find nobody
    // due and cost a tenth of that, about half are of each sort, and the
    // median falls in the gap between the two.
    let budget = AlpsConfig::default().quantum.as_nanos();
    let kept = quantum.iter().filter(|&&ns| ns < budget).count();
    let cost = mean_us(&quantum);
    let d = Dist::of(&mut quantum);
    out.note(format!(
        "fastest of {} rounds: quantum mean {cost:.2} us, p50 {:.2} us{}, n={}; {} cycles a round",
        plan.rounds,
        us(d.p50),
        d.tail
            .map(|(p, v)| format!(", p{p} {:.2} us", us(v)))
            .unwrap_or_default(),
        d.n,
        warmup.totals.stats.cycles,
    ));
    out.set("setup_s", setup.iter().sum::<u64>() as f64 / 1e9);
    out.set("quantum_cpu_us_p50", cost);
    setup.sort_unstable();
    out.note(format!(
        "core-mix-4k enroll_us_p50 = {:.4} us (one add_member, batches of {BATCH}; not gated)",
        us(percentile(&setup, 50.0)) / BATCH as f64
    ));
    out.set("on_time_pct", 100.0 * kept as f64 / d.n as f64);

    // Memory is the one thing a neighbour cannot disturb, and at 4000
    // members the process is mostly its own binary. So the run ends with
    // one round at scale, untimed, and `peak_rss_mb` is that engine's state
    // and cycle log.
    let big = Plan::at_scale(smoke);
    let at_scale = untraced_round(&big, seed);
    out.attempted += at_scale.attempted;
    out.failed += at_scale.failed;
    if at_scale.failed > 0 {
        out.note(format!(
            "FAILED: round at {} members: {} removals refused or simulated time not conserved",
            big.members, at_scale.failed
        ));
    }
    out.note(format!(
        "one round at {} members, for peak_rss_mb: quantum mean {:.2} us (not gated)",
        big.members,
        mean_us(&at_scale.quantum_ns),
    ));
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// The traced run: one untraced round for reference, then one round with
/// the three stages called apart over a span-recording substrate.
pub fn run_traced(seed: u64, seconds: u64, smoke: bool, trace_path: &Path) -> Outcome {
    let plan = Plan::new(seconds, smoke);
    let mut out = Outcome::default();
    out.note(format!("core-mix-4k plan: {plan:?}"));

    // The engine outside the cache, ungated: memory per member from this
    // process's first registration, then one round.
    let big = Plan::at_scale(smoke);
    let sub = synth(&big);
    let rss0 = rss_mb();
    let w = World::build(&big, seed, sub);
    let grown = rss_mb() - rss0;
    out.set(
        "core.bytes_per_member",
        grown * 1024.0 * 1024.0 / big.members as f64,
    );
    drop(w);
    let at_scale = untraced_round(&big, seed);
    out.attempted += at_scale.attempted;
    out.failed += at_scale.failed;
    out.set("core.quantum_us_100k", mean_us(&at_scale.quantum_ns));
    out.note(format!(
        "at {} members: quantum mean {:.2} us, {:.1} due a quantum, {} cycles",
        big.members,
        mean_us(&at_scale.quantum_ns),
        at_scale.totals.due as f64 / big.quanta as f64,
        at_scale.totals.stats.cycles,
    ));

    let reference = untraced_round(&plan, seed);
    out.attempted += reference.attempted;
    out.failed += reference.failed;
    let untraced = mean_us(&reference.quantum_ns);
    out.set(
        "core.allocs_per_quantum",
        reference.steady_allocs as f64 / reference.steady_quanta as f64,
    );

    let mut tracer = Tracer::with_capacity(plan.quanta * 6 + 16);
    let n_quantum = tracer.name("core.quantum");
    let n_begin = tracer.name("core.begin");
    let n_complete = tracer.name("core.complete");
    let n_apply = tracer.name("core.apply");
    let sub = Timed::new(
        synth(&plan),
        tracer,
        ("synth.read_batch", "synth.apply_batch"),
    );
    let mut w = World::build(&plan, seed, sub);
    let mut totals = Totals::default();
    let mut boundary = Vec::new();
    for q in 0..plan.quanta {
        w.sub.synth().tick();
        let span = w.sub.tracer.begin(n_quantum);
        let s = w.sub.tracer.begin(n_begin);
        let Ok(due) = w.engine.begin_quantum(&mut w.sub, &mut NullSink);
        w.sub.tracer.end(s);
        let s = w.sub.tracer.begin(n_complete);
        let Ok(()) = w.engine.complete_quantum(&mut w.sub, &mut NullSink);
        w.sub.tracer.end(s);
        let s = w.sub.tracer.begin(n_apply);
        let Ok(()) = w.engine.apply_pending_signals(&mut w.sub, &mut NullSink);
        w.sub.tracer.end(s);
        w.sub.tracer.end(span);
        totals.due += due as u64;
        totals.transitions += w.engine.last_transitions().len() as u64;
        out.attempted += 1;
        if w.engine.last_cycle_completed() {
            boundary.push(q);
            let (a, f) = w.churn(plan.churn);
            out.attempted += a;
            out.failed += f;
        }
    }
    totals.stats = w.engine.stats();
    if totals != reference.totals {
        out.fail(format!(
            "staged round did different work: {totals:?} vs {:?}",
            reference.totals
        ));
    }
    if !w.sub.synth().conserved() {
        out.fail("simulated time not conserved".into());
    }
    let remove_ns = w.teardown();

    let t = &w.sub.tracer;
    let per_quantum = t.durations(n_quantum, 0);
    let traced = mean_us(&per_quantum);
    out.set("core.begin_us", p50_us(t.durations(n_begin, 0)));
    out.set("core.complete_self_us", p50_us(t.self_times(n_complete, 0)));
    out.set("core.apply_self_us", p50_us(t.self_times(n_apply, 0)));
    out.set(
        "core.boundary_quantum_us",
        p50_us(boundary.iter().map(|&q| per_quantum[q]).collect()),
    );
    out.set(
        "core.add_member_us",
        p50_us(w.setup_ns.clone()) / BATCH as f64,
    );
    out.set("core.remove_principal_us", p50_us(remove_ns) / BATCH as f64);
    let quanta = plan.quanta as f64;
    out.set("core.due_per_quantum", totals.due as f64 / quanta);
    out.set(
        "core.transitions_per_quantum",
        totals.transitions as f64 / quanta,
    );
    out.set("core.cycles", totals.stats.cycles as f64);
    out.set("bench.untraced_quantum_cpu_us_p50", untraced);
    out.set("bench.traced_quantum_cpu_us_p50", traced);
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (traced - untraced) / untraced,
    );
    out.set("bench.clock_cost_ns", t.clock_cost_ns() as f64);
    out.set("bench.spans", t.len() as f64);
    out.set("bench.ledger_quanta", quanta);
    out.note(format!(
        "per-quantum means over the staged round: begin {:.2} us, complete self {:.2} us, \
         apply self {:.2} us; in the benchmark's own substrate: read_batch {:.2} us, \
         apply_batch {:.2} us",
        mean_us(&t.durations(n_begin, 0)),
        mean_us(&t.self_times(n_complete, 0)),
        mean_us(&t.self_times(n_apply, 0)),
        mean_us(&t.durations(w.sub.read_batch_name(), 0)),
        mean_us(&t.durations(w.sub.apply_batch_name(), 0)),
    ));
    if let Err(e) = t.write_json(trace_path, "core-mix-4k") {
        out.fail(format!("writing {}: {e}", trace_path.display()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_repeat_exactly_and_depend_on_the_seed() {
        let plan = Plan::new(RUN_SECONDS, true);
        let a = untraced_round(&plan, 7);
        let b = untraced_round(&plan, 7);
        let c = untraced_round(&plan, 8);
        assert_eq!(a.totals, b.totals);
        assert_eq!(
            a.totals, c.totals,
            "the seed only decides who holds which share"
        );
        assert_ne!(share_table(&plan, 7), share_table(&plan, 8));
        assert_eq!(a.failed, 0);
        assert_eq!(a.totals.stats.quanta, plan.quanta as u64);
        assert!(a.totals.stats.cycles >= 1, "{:?}", a.totals);
        assert!(a.totals.stats.signals > 0 && a.totals.stats.measurements > 0);
    }
}
