//! Scalability and breakdown: Figures 8 and 9 and the §4.2 threshold
//! analysis.

use alps_core::Nanos;
use alps_sim::experiments::scalability::{run_scalability, ScalabilityParams};

use super::table::Table;
use super::Scale;
use crate::output::{fmt, heading, write_data};

/// Figures 8 and 9 plus the §4.2 threshold analysis.
pub fn scalability(scale: &Scale, which: &str) {
    match which {
        "fig8" => heading("Figure 8: overhead (%) vs N, equal shares (5 per process)"),
        "fig9" => heading("Figure 9: mean RMS relative error (%) vs N, equal shares"),
        _ => heading("§4.2: breakdown thresholds (predicted vs observed)"),
    }
    for q in [10u64, 20, 40] {
        let mut p = ScalabilityParams::paper(Nanos::from_millis(q));
        p.duration = Nanos::from_secs(scale.scal_secs);
        let r = run_scalability(&p);
        let rows: Vec<Vec<f64>> = r
            .points
            .iter()
            .map(|pt| {
                vec![
                    pt.n as f64,
                    pt.overhead_pct,
                    pt.mean_rms_error_pct,
                    pt.quanta_serviced_frac,
                ]
            })
            .collect();
        write_data(
            &format!("fig8_9_q{q}ms.dat"),
            "n overhead_pct error_pct serviced_frac",
            &rows,
        );
        println!("\nquantum {q} ms:");
        match which {
            "fig8" => {
                let table = Table::new(&[5, 12]);
                table.header(&["N", "overhead(%)"]);
                for pt in &r.points {
                    table.row(&[pt.n.to_string(), fmt(pt.overhead_pct, 3)]);
                }
            }
            "fig9" => {
                let table = Table::new(&[5, 12, 10]);
                table.header(&["N", "error(%)", "serviced"]);
                for pt in &r.points {
                    table.row(&[
                        pt.n.to_string(),
                        fmt(pt.mean_rms_error_pct, 2),
                        fmt(pt.quanta_serviced_frac, 3),
                    ]);
                }
            }
            _ => {}
        }
        if let Some(a) = &r.analysis {
            println!(
                "  fit U_{q}(N) = {:.4}·N + {:.4}   (r² = {:.3})",
                a.fit.slope, a.fit.intercept, a.fit.r_squared
            );
            println!(
                "  predicted N* = {:.0}   observed N* = {}",
                a.predicted_threshold,
                r.observed_threshold
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "none".into())
            );
        }
    }
    println!("\npaper: fits U10=.0639N+.060, U20=.0338N+.034, U40=.0172N+.016;");
    println!("predicted thresholds 39/54/75, observed 40/60/90.");
}
