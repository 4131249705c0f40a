//! Experiment drivers, one module per paper table/figure family.
//!
//! * [`workload`] — Figures 4 and 5 (accuracy and overhead on the Table-2
//!   synthetic workloads) and the §3.2 optimization ablation;
//! * [`accounting`] — the measurement-granularity ablation (exact vs
//!   statclock-sampled CPU readings);
//! * [`io`] — Figure 6 (the I/O redistribution experiment) and the §2.4
//!   blocked-process policy ablation;
//! * [`multi`] — Figure 7 and Table 3 (three concurrent ALPSs);
//! * [`scalability`] — Figures 8 and 9 and the §4.2 breakdown thresholds;
//! * [`webserver`] — the §5 shared-web-server throughput experiment.

pub mod accounting;
pub mod io;
pub mod multi;
pub mod scalability;
pub mod webserver;
pub mod workload;
