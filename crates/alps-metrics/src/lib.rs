//! # alps-metrics — measurement and statistics for the ALPS evaluation
//!
//! The quantitative machinery behind the paper's figures and tables:
//!
//! * [`accuracy`] — the mean-RMS-relative-error statistic of §3.1
//!   (Figures 4 and 9) and the per-cycle series of Figures 6 and 7;
//! * [`regression`] — least-squares fits (Table 3 rates, §4.2 overhead
//!   lines);
//! * [`threshold`] — the `U_Q(N*) = 100/(N*+1)` breakdown-threshold model
//!   of §4.2;
//! * [`summary`] — the [`Summary`] scalar-statistics block (and the
//!   historical mean/stddev/RMS free functions it consolidates);
//! * [`latency`] — fixed-bin latency histograms and the
//!   [`LatencySummary`] tail/stretch/yield block over a workload's
//!   per-request samples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod latency;
pub mod regression;
pub mod summary;
pub mod threshold;

pub use accuracy::{cumulative_cpu_series, mean_rms_relative_error_pct, share_percent_series};
pub use latency::{LatencyHistogram, LatencySummary};
pub use regression::{linear_fit, LinearFit};
pub use summary::{mean, rms, stddev, Summary};
pub use threshold::{analyze_overhead_curve, breakdown_threshold, ThresholdAnalysis};
