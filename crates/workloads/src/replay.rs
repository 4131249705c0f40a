//! Trace-driven workloads: replay a recorded burst/sleep schedule.
//!
//! The paper's workloads are synthetic; real deployments would want to
//! evaluate ALPS against recorded application behavior. [`TraceReplay`]
//! replays a sequence of `(cpu_burst, sleep)` segments — the format most
//! CPU-trace tools reduce to — and [`parse_trace`] reads the simple text
//! form (one `burst_us sleep_us` pair per line, `#` comments).

use alps_core::Nanos;
use kernsim::{Behavior, Sim, SimCtl, Step};

use crate::workload::{LatencyProbe, Tenant, Workload};

/// One segment of recorded behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// CPU to consume.
    pub burst: Nanos,
    /// Wait-channel time afterwards (zero = go straight to the next burst).
    pub sleep: Nanos,
}

/// What the replay does when the trace is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnEnd {
    /// Start over from the first segment.
    Loop,
    /// Exit the process.
    Exit,
}

/// A behavior that replays a trace of CPU bursts and sleeps.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    segments: Vec<Segment>,
    on_end: OnEnd,
    at: usize,
    mid_segment: bool,
    probe: Option<LatencyProbe>,
    pass_started: Option<Nanos>,
}

impl TraceReplay {
    /// Replay the given segments. Zero-length bursts/sleeps are skipped.
    pub fn new(segments: Vec<Segment>, on_end: OnEnd) -> Self {
        assert!(!segments.is_empty(), "empty trace");
        TraceReplay {
            segments,
            on_end,
            at: 0,
            mid_segment: false,
            probe: None,
            pass_started: None,
        }
    }

    /// Record each completed pass on `probe`: latency is the pass's
    /// wall-clock time, service demand its total CPU — so the probe's
    /// stretch reports the slowdown the scheduler inflicted.
    pub fn with_probe(mut self, probe: LatencyProbe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Total CPU one pass of the trace consumes.
    pub fn total_cpu(&self) -> Nanos {
        self.segments.iter().map(|s| s.burst).sum()
    }
}

impl Behavior for TraceReplay {
    fn on_ready(&mut self, ctl: &mut SimCtl<'_>) -> Step {
        loop {
            if self.at >= self.segments.len() {
                if let (Some(probe), Some(start)) = (&self.probe, self.pass_started.take()) {
                    let demand = self
                        .segments
                        .iter()
                        .map(|s| s.burst + s.sleep)
                        .sum::<Nanos>();
                    probe.record((ctl.now() - start).as_nanos(), demand.as_nanos());
                }
                match self.on_end {
                    OnEnd::Loop => self.at = 0,
                    OnEnd::Exit => return Step::Exit,
                }
            }
            if self.at == 0 && !self.mid_segment && self.pass_started.is_none() {
                self.pass_started = Some(ctl.now());
            }
            let seg = self.segments[self.at];
            if !self.mid_segment {
                self.mid_segment = true;
                if seg.burst > Nanos::ZERO {
                    return Step::Compute(seg.burst);
                }
            }
            // Burst done (or empty): sleep, then advance.
            self.mid_segment = false;
            self.at += 1;
            if seg.sleep > Nanos::ZERO {
                return Step::Sleep(seg.sleep);
            }
        }
    }

    fn name(&self) -> &str {
        "trace-replay"
    }
}

/// A trace-driven tenant as a [`Workload`] spec: `instances` copies of
/// the same trace, each recording completed passes on the shared probe.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Tenant name.
    pub name: String,
    /// The trace every instance replays.
    pub segments: Vec<Segment>,
    /// What happens when the trace ends.
    pub on_end: OnEnd,
    /// Number of replaying processes.
    pub instances: usize,
}

impl Workload for Replay {
    fn spawn(&self, sim: &mut Sim) -> Tenant {
        assert!(self.instances >= 1, "a replay tenant needs instances");
        let probe = LatencyProbe::new();
        let members = (0..self.instances)
            .map(|i| {
                let replay =
                    TraceReplay::new(self.segments.clone(), self.on_end).with_probe(probe.clone());
                sim.spawn(format!("{}-r{i}", self.name), Box::new(replay))
            })
            .collect();
        Tenant::new(self.name.clone(), members, Vec::new(), probe)
    }
}

/// Parse the text trace format: one `burst_us sleep_us` pair per line;
/// blank lines and `#` comments ignored.
pub fn parse_trace(text: &str) -> Result<Vec<Segment>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let burst: u64 = parts
            .next()
            .ok_or_else(|| format!("line {}: missing burst", lineno + 1))?
            .parse()
            .map_err(|e| format!("line {}: bad burst: {e}", lineno + 1))?;
        let sleep: u64 = parts
            .next()
            .ok_or_else(|| format!("line {}: missing sleep", lineno + 1))?
            .parse()
            .map_err(|e| format!("line {}: bad sleep: {e}", lineno + 1))?;
        if parts.next().is_some() {
            return Err(format!("line {}: trailing fields", lineno + 1));
        }
        out.push(Segment {
            burst: Nanos::from_micros(burst),
            sleep: Nanos::from_micros(sleep),
        });
    }
    if out.is_empty() {
        return Err("trace has no segments".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernsim::{Sim, SimConfig};

    #[test]
    fn parse_valid_trace() {
        let segs = parse_trace("# demo\n1000 2000\n\n500 0 # tail\n").unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].burst, Nanos::from_micros(1000));
        assert_eq!(segs[0].sleep, Nanos::from_micros(2000));
        assert_eq!(segs[1].sleep, Nanos::ZERO);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_trace("").is_err());
        assert!(parse_trace("# only comments\n").is_err());
        assert!(parse_trace("12").is_err());
        assert!(parse_trace("a b").is_err());
        assert!(parse_trace("1 2 3").is_err());
    }

    #[test]
    fn replay_consumes_exactly_the_trace_once() {
        let segs = parse_trace("10000 5000\n20000 0\n5000 1000\n").unwrap();
        let replay = TraceReplay::new(segs.clone(), OnEnd::Exit);
        let want_cpu = replay.total_cpu();
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.spawn("replay", Box::new(replay));
        sim.run_until(Nanos::from_secs(1));
        assert!(sim.proc(p).unwrap().is_exited());
        assert_eq!(sim.proc(p).unwrap().cputime(), want_cpu);
    }

    #[test]
    fn looping_replay_repeats_with_duty_cycle() {
        // 10ms CPU + 10ms sleep looped: ~50% duty cycle when alone.
        let segs = vec![Segment {
            burst: Nanos::from_millis(10),
            sleep: Nanos::from_millis(10),
        }];
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.spawn("loop", Box::new(TraceReplay::new(segs, OnEnd::Loop)));
        sim.run_until(Nanos::from_secs(4));
        let frac = sim.proc(p).unwrap().cputime().as_secs_f64() / 4.0;
        assert!((frac - 0.5).abs() < 0.02, "duty {frac}");
    }

    #[test]
    fn replay_tenant_records_pass_stretch() {
        // Alone, each 20ms pass (10ms burst + 10ms sleep) completes on
        // schedule: stretch ~1.
        let mut sim = Sim::new(SimConfig::default());
        let t = Replay {
            name: "trace".into(),
            segments: vec![Segment {
                burst: Nanos::from_millis(10),
                sleep: Nanos::from_millis(10),
            }],
            on_end: OnEnd::Loop,
            instances: 1,
        }
        .spawn(&mut sim);
        sim.run_until(Nanos::from_secs(4));
        assert!(t.completed() >= 190, "got {}", t.completed());
        let s = t.latency_summary(0);
        assert!(
            (s.mean_stretch - 1.0).abs() < 0.05,
            "uncontended stretch ~1, got {}",
            s.mean_stretch
        );
    }
}
