//! Basic summary statistics.
//!
//! The workspace-wide interface is [`Summary`]: one struct holding every
//! scalar statistic the repro tables and bench reports print, built in a
//! single pass with [`Summary::from_samples`]. The historical free
//! functions ([`mean`], [`stddev`], [`rms`]) remain available unchanged —
//! they are what `Summary` is computed from.

use serde::{Deserialize, Serialize};

/// Scalar summary of a sample set — the uniform statistic block the
/// repro tables and bench reports consume.
///
/// Every field is what the like-named free function returns on the same
/// samples; an empty sample set yields all-zero statistics (and
/// `min`/`max` of zero), matching the free functions' conventions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean ([`mean`]).
    pub mean: f64,
    /// Population standard deviation ([`stddev`]).
    pub stddev: f64,
    /// Root mean square ([`rms`]).
    pub rms: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample slice.
    pub fn from_samples(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                stddev: 0.0,
                rms: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        Summary {
            count: xs.len(),
            mean: mean(xs),
            stddev: stddev(xs),
            rms: rms(xs),
            min,
            max,
        }
    }
}

#[cfg(test)]
mod summary_struct_tests {
    use super::*;

    #[test]
    fn from_samples_matches_free_functions() {
        let xs = [1.0, 2.0, 3.0, 10.0];
        let s = Summary::from_samples(&xs);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, mean(&xs));
        assert_eq!(s.stddev, stddev(&xs));
        assert_eq!(s.rms, rms(&xs));
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10.0);
    }

    #[test]
    fn empty_is_all_zero() {
        let s = Summary::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let s = Summary::from_samples(&[0.5, 1.5]);
        let json = serde_json::to_string(&s).unwrap();
        let back: Summary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}

/// Arithmetic mean; zero for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; zero for fewer than two samples.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

/// Root mean square; zero for an empty slice.
pub fn rms(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn stddev_basic() {
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert!((stddev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rms_basic() {
        assert_eq!(rms(&[]), 0.0);
        assert!((rms(&[0.5, -0.5]) - 0.5).abs() < 1e-12);
        assert!((rms(&[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }
}
