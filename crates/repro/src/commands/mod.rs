//! One function per reproduced table/figure, grouped by experiment area.
//!
//! Each module covers one slice of the paper: [`costs`] (Table 1),
//! [`workload`] (Table 2, Figs. 4–5, the §3.2 and accounting ablations),
//! [`io`] (Fig. 6, §2.4), [`multi`] (Fig. 7, Table 3),
//! [`scalability`](mod@scalability) (Figs. 8–9, §4.2), [`web`] (§5), plus
//! the [`conformance`](mod@conformance) (the spec-oracle differential) and
//! [`verify`](mod@verify) extensions. All commands keep
//! their `commands::<name>()` paths via the re-exports below, so
//! `main.rs` is oblivious to the file layout. Column alignment is shared
//! in [`table::Table`].

mod conformance;
mod costs;
mod io;
mod multi;
mod scalability;
mod table;
mod verify;
mod web;
mod workload;

pub use conformance::conformance;
pub use costs::table1;
pub use io::{fig6, io_policy};
pub use multi::{fig7, table3};
pub use scalability::scalability;
pub use verify::verify;
pub use web::websrv;
pub use workload::{ablation, accounting, fig4, fig5, table2};

/// Shared run-scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Cycles per accuracy run (paper: 200).
    pub cycles: u64,
    /// Seeds averaged per point (paper: 3 tests).
    pub seeds: u64,
    /// Wall-clock seconds per scalability point.
    pub scal_secs: u64,
    /// Seconds of measured web-server throughput.
    pub web_secs: u64,
}

impl Scale {
    /// Paper-scale runs.
    pub fn full() -> Self {
        Scale {
            cycles: 200,
            seeds: 3,
            scal_secs: 80,
            web_secs: 60,
        }
    }

    /// Quick runs for smoke-testing the harness.
    pub fn quick() -> Self {
        Scale {
            cycles: 40,
            seeds: 1,
            scal_secs: 30,
            web_secs: 20,
        }
    }

    pub(crate) fn seed_list(&self) -> Vec<u64> {
        (1..=self.seeds).collect()
    }
}
