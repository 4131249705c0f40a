//! Table 1: the primary-operation cost model vs a live probe.

use alps_sim::CostModel;

use super::table::Table;
use crate::output::{fmt, heading};

/// Table 1: primary ALPS operation times — the paper's constants plus a
/// live probe of this machine.
pub fn table1() {
    heading("Table 1: Primary ALPS Operations Times (µs)");
    let model = CostModel::paper();
    let table = Table::new(&[-38, 10, 14]);
    table.header(&["operation", "paper", "this machine"]);
    let probe = alps_os::probe_table1(400).ok();
    let live =
        |cost: fn(&alps_os::Table1Probe) -> f64| fmt(probe.as_ref().map_or(f64::NAN, cost), 2);
    table.row(&[
        "Receive a timer event".into(),
        fmt(model.timer_event.as_micros_f64(), 2),
        live(|p| p.timer_event_us),
    ]);
    table.row(&[
        "Measure CPU time of n procs (base)".into(),
        fmt(model.measure_base.as_micros_f64(), 2),
        live(|p| p.measure_base_us),
    ]);
    table.row(&[
        "Measure CPU time of n procs (per n)".into(),
        fmt(model.measure_per_proc.as_micros_f64(), 2),
        live(|p| p.measure_per_proc_us),
    ]);
    table.row(&[
        "  ... by path, out of descriptors".into(),
        "-".into(),
        live(|p| p.measure_per_proc_by_path_us),
    ]);
    table.row(&[
        "Signal a process".into(),
        fmt(model.signal.as_micros_f64(), 2),
        live(|p| p.signal_us),
    ]);
    println!("\nThe simulator charges the paper column; the live column is");
    println!("measured on this host by alps-os (Linux /proc, not FreeBSD kvm):");
    println!("one pread per process of a held /proc/<pid>/stat descriptor, and");
    println!("open + read + close by path once the supervisor cannot hold one.");
}
