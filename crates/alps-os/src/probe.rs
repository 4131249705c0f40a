//! Live measurement of the Table-1 operation costs on *this* machine.
//!
//! The paper reports, for its 2.2 GHz Pentium 4 running FreeBSD 4.8:
//! timer receipt 9.02 µs, progress measurement 1.1 + 17.4·n µs, signal
//! 0.97 µs. `repro table1` reruns the equivalent micro-benchmarks here
//! (Linux, `/proc` reads instead of `kvm`) so the cost model can be
//! compared against current hardware. Progress measurement is timed the
//! way the supervisors take it — through a [`StatReader`]'s held
//! descriptor — and, beside it, by path: what a reading costs once the
//! reader has degraded for want of descriptors.

use alps_core::Nanos;

use crate::clock;
use crate::error::Result;
use crate::proc::{self, StatReader};

/// Measured operation costs on the current machine, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Probe {
    /// Cost of a minimal timed sleep/wake round trip (timer receipt).
    pub timer_event_us: f64,
    /// Fixed cost of a progress-measurement pass.
    pub measure_base_us: f64,
    /// Per-process cost of reading progress: one `pread` of a held
    /// `/proc/<pid>/stat` descriptor.
    pub measure_per_proc_us: f64,
    /// The same by path (open + read + close): the degraded cost.
    pub measure_per_proc_by_path_us: f64,
    /// Cost of sending one signal.
    pub signal_us: f64,
}

fn time_per_iter(iters: u32, f: impl FnMut()) -> f64 {
    let mut f = f;
    let start = clock::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = clock::now() - start;
    elapsed.as_micros_f64() / iters as f64
}

/// Split a measurement pass into its fixed and per-process cost by a
/// two-point fit: a pass of one read against a pass of eight.
fn fit_measure(iters: u32, mut read: impl FnMut()) -> (f64, f64) {
    let one_us = time_per_iter(iters, &mut read);
    let eight_us = time_per_iter(iters / 4, || {
        for _ in 0..8 {
            read();
        }
    });
    let per_proc_us = ((eight_us - one_us) / 7.0).max(0.0);
    ((one_us - per_proc_us).max(0.0), per_proc_us)
}

/// Run the Table-1 micro-benchmarks. `iters` controls precision (500 is
/// plenty; the paper's numbers are microsecond-scale).
pub fn probe_table1(iters: u32) -> Result<Table1Probe> {
    let me = std::process::id() as i32;
    let tick = proc::ns_per_tick();

    // Timer receipt: an immediate absolute sleep (syscall + return).
    let timer_event_us = time_per_iter(iters, || {
        clock::sleep_until(clock::now().saturating_sub(Nanos::from_secs(1)));
    });

    // Measure: one /proc/<pid>/stat read per process, through the same
    // reader the supervisor's batched read path uses...
    let mut reader = StatReader::new();
    let (measure_base_us, measure_per_proc_us) = fit_measure(iters, || {
        let _ = reader.read(me);
    });
    // ...and by path, through reused buffers.
    let (mut path_buf, mut stat_buf) = (String::new(), String::new());
    let (_, measure_per_proc_by_path_us) = fit_measure(iters, || {
        let _ = proc::read_stat_into(me, tick, &mut path_buf, &mut stat_buf);
    });

    // Signal: kill(pid, 0) performs the full permission path without
    // delivering anything.
    let signal_us = time_per_iter(iters, || {
        // SAFETY: kill with signal 0 only checks permissions.
        unsafe {
            libc::kill(me, 0);
        }
    });

    Ok(Table1Probe {
        timer_event_us,
        measure_base_us,
        measure_per_proc_us,
        measure_per_proc_by_path_us,
        signal_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_produces_sane_magnitudes() {
        let p = probe_table1(200).unwrap();
        // Micro-ops on any modern machine land between 0.01 µs and 1 ms.
        for (label, v) in [
            ("timer", p.timer_event_us),
            ("per-proc", p.measure_per_proc_us),
            ("per-proc by path", p.measure_per_proc_by_path_us),
            ("signal", p.signal_us),
        ] {
            assert!(v > 0.0, "{label}: {v}");
            assert!(v < 1000.0, "{label}: {v}");
        }
        assert!(p.measure_base_us >= 0.0);
        // Reading /proc costs more than sending a null signal, as in the
        // paper (17.4 µs vs 0.97 µs).
        assert!(
            p.measure_per_proc_us + p.measure_base_us > p.signal_us,
            "measurement should dominate: {p:?}"
        );
    }
}
