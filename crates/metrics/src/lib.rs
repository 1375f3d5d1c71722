//! Statistics, distributions and recorders for the Drum evaluation harness.
//!
//! This crate is the measurement substrate shared by the simulator
//! (`drum-sim`), the UDP runtime (`drum-net`) and the figure generators
//! (`drum-lab`):
//!
//! * [`stats`] — streaming mean/variance (propagation-time averages and
//!   standard deviations, Figures 3–4 and 7–9),
//! * [`cdf`] — empirical CDFs (Figures 5, 11, 13, 14),
//! * [`histogram`] — bucketed latency distributions,
//! * [`recorder`] — the paper's §8 throughput/latency accounting,
//! * [`table`] — aligned text output for the figures.
//!
//! # Examples
//!
//! ```
//! use drum_metrics::stats::RunningStats;
//!
//! let stats: RunningStats = [4.0, 5.0, 6.0].into_iter().collect();
//! assert_eq!(stats.mean(), 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod histogram;
pub mod json;
pub mod recorder;
pub mod stats;
pub mod table;

pub use cdf::Cdf;
pub use histogram::Histogram;
pub use json::{Json, JsonError};
pub use recorder::{LatencyRecorder, ThroughputRecorder};
pub use stats::RunningStats;
pub use table::Table;

#[cfg(test)]
mod proptests {
    use crate::cdf::Cdf;
    use crate::stats::RunningStats;
    use drum_testkit::prop::{check, Config, Gen};
    use drum_testkit::{prop_assert, prop_assert_eq};

    fn samples(g: &mut Gen, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
        g.vec_with(min_len..max_len, |g| g.f64_in(lo..hi))
    }

    #[test]
    fn cdf_from_samples_is_monotone() {
        check("cdf_from_samples_is_monotone", Config::default(), |g| {
            let samples = samples(g, -1e6, 1e6, 1, 200);
            let cdf = Cdf::from_samples(&samples);
            let pts = cdf.points();
            for w in pts.windows(2) {
                prop_assert!(w[1].0 > w[0].0);
                prop_assert!(w[1].1 >= w[0].1);
            }
            prop_assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-9);
            Ok(())
        });
    }

    #[test]
    fn merge_matches_sequential() {
        check("merge_matches_sequential", Config::default(), |g| {
            let xs = samples(g, -1e3, 1e3, 0, 100);
            let ys = samples(g, -1e3, 1e3, 0, 100);
            let mut merged: RunningStats = xs.iter().copied().collect();
            let other: RunningStats = ys.iter().copied().collect();
            merged.merge(&other);
            let all: RunningStats = xs.iter().chain(ys.iter()).copied().collect();
            prop_assert_eq!(merged.count(), all.count());
            prop_assert!((merged.mean() - all.mean()).abs() < 1e-6);
            Ok(())
        });
    }

    #[test]
    fn ks_distance_bounded() {
        check("ks_distance_bounded", Config::default(), |g| {
            let a = samples(g, -100.0, 100.0, 1, 50);
            let b = samples(g, -100.0, 100.0, 1, 50);
            let ca = Cdf::from_samples(&a);
            let cb = Cdf::from_samples(&b);
            let d = ca.ks_distance(&cb);
            prop_assert!((0.0..=1.0).contains(&d));
            // Symmetry
            prop_assert!((d - cb.ks_distance(&ca)).abs() < 1e-12);
            Ok(())
        });
    }

    #[test]
    fn stats_json_round_trip() {
        check("stats_json_round_trip", Config::default(), |g| {
            let xs = samples(g, -1e6, 1e6, 0, 60);
            let stats: RunningStats = xs.iter().copied().collect();
            let back = RunningStats::from_json(&stats.to_json()).map_err(|e| e.to_string())?;
            prop_assert_eq!(back, stats);
            Ok(())
        });
    }

    #[test]
    fn cdf_json_round_trip() {
        check("cdf_json_round_trip", Config::default(), |g| {
            let xs = samples(g, -1e3, 1e3, 0, 60);
            let cdf = Cdf::from_samples(&xs);
            let back = Cdf::from_json(&cdf.to_json()).map_err(|e| e.to_string())?;
            prop_assert_eq!(back, cdf);
            Ok(())
        });
    }
}

#[cfg(test)]
mod json_round_trips {
    use crate::histogram::Histogram;
    use crate::recorder::{LatencyRecorder, ThroughputRecorder};
    use crate::stats::RunningStats;

    #[test]
    fn empty_stats_round_trip_through_non_finite_bounds() {
        // An empty accumulator has min = +inf / max = -inf, which JSON
        // cannot represent as numbers; the string spellings must survive.
        let empty = RunningStats::new();
        let back = RunningStats::from_json(&empty.to_json()).unwrap();
        assert_eq!(back, empty);
        assert!(back.min().is_nan());
    }

    #[test]
    fn histogram_round_trip() {
        let mut h = Histogram::new(0.0, 100.0, 10).unwrap();
        for x in [-5.0, 3.0, 55.0, 55.5, 99.9, 150.0] {
            h.record(x);
        }
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn latency_recorder_round_trip() {
        let mut r = LatencyRecorder::new();
        r.record_ms(12.5);
        r.record_ms(20.0);
        let back = LatencyRecorder::from_json(&r.to_json()).unwrap();
        assert_eq!(back.received(), 2);
        assert_eq!(back.mean_ms(), r.mean_ms());
    }

    #[test]
    fn throughput_recorder_round_trip() {
        let mut r = ThroughputRecorder::new();
        for i in 0..20 {
            r.record(i as f64 * 0.37);
        }
        let back = ThroughputRecorder::from_json(&r.to_json()).unwrap();
        assert_eq!(back.total(), r.total());
        assert_eq!(
            back.steady_state_throughput(8.0, 0.05),
            r.steady_state_throughput(8.0, 0.05)
        );
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(RunningStats::from_json("{}").is_err());
        assert!(RunningStats::from_json("not json").is_err());
        assert!(
            Histogram::from_json(r#"{"lo":1,"hi":0,"buckets":[],"underflow":0,"overflow":0}"#)
                .is_err()
        );
    }
}
