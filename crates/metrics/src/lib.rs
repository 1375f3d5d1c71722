//! Statistics for the Drum evaluation harness.
//!
//! This crate is the measurement substrate shared by the simulator
//! (`drum-sim`), the UDP runtime (`drum-net`) and the figure generators
//! (`drum-lab`):
//!
//! * [`stats`] — streaming mean/variance (propagation-time averages and
//!   standard deviations, Figures 3–4 and 7–9) and [`quantile_in_place`],
//! * [`table`] — aligned text output for the figures,
//! * [`json`] — the byte-stable JSON that trace events are written in.
//!
//! [`quantile_in_place`]: stats::quantile_in_place
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

pub mod json;
pub mod stats;
pub mod table;

pub use json::{Json, JsonError};
pub use stats::RunningStats;
pub use table::Table;

#[cfg(test)]
mod proptests {
    use crate::stats::RunningStats;
    use drum_testkit::prop::{check, Config, Gen};
    use drum_testkit::{prop_assert, prop_assert_eq};

    fn samples(g: &mut Gen, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
        g.vec_with(min_len..max_len, |g| g.f64_in(lo..hi))
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
            prop_assert!(
                (merged.population_variance() - all.population_variance()).abs()
                    <= 1e-9 * all.population_variance().max(1.0)
            );
            // Both NaN when nothing was pushed.
            prop_assert_eq!(merged.min().to_bits(), all.min().to_bits());
            prop_assert_eq!(merged.max().to_bits(), all.max().to_bits());
            Ok(())
        });
    }
}
