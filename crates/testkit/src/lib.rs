//! Test support for the Drum workspace: a property-based testing harness
//! with shrinking ([`prop`]) and seed averaging ([`mean_over_seeds`]) for
//! statistical protocol tests.
//!
//! # Examples
//!
//! ```
//! use drum_testkit::mean_over_seeds;
//!
//! let mean = mean_over_seeds(0..4, |seed| seed as f64);
//! assert_eq!(mean, 1.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prop;

/// Averages a per-seed measurement over `seeds` — the shared shape of
/// "run the scenario for each seed, report the mean" assertions in
/// statistical protocol tests, so each test states only its scenario.
///
/// # Panics
///
/// Panics if `seeds` is empty (a mean of nothing is a test bug).
pub fn mean_over_seeds(seeds: std::ops::Range<u64>, mut measure: impl FnMut(u64) -> f64) -> f64 {
    let count = seeds.end.checked_sub(seeds.start).filter(|&c| c > 0);
    let count = count.expect("mean_over_seeds needs a non-empty seed range") as f64;
    seeds.map(&mut measure).sum::<f64>() / count
}
