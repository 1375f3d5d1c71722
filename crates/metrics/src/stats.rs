//! Streaming summary statistics.
//!
//! Used throughout the evaluation harness to aggregate per-trial propagation
//! times (Figures 2–9) and per-process latencies (Figures 10–11) without
//! retaining every sample.

/// Numerically stable streaming mean/variance (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use drum_metrics::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_std() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`); `0.0` for fewer than 2 samples.
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation; `NaN` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation; `NaN` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel aggregation).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// Computes the `q`-quantile (0 ≤ q ≤ 1) of a sample by linear interpolation.
///
/// The input slice is sorted in place.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or the slice is empty.
pub fn quantile_in_place(samples: &mut [f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    assert!(!samples.is_empty(), "quantile of empty sample");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        samples[lo]
    } else {
        let frac = pos - lo as f64;
        samples[lo] * (1.0 - frac) + samples[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn single_sample() {
        let s: RunningStats = [3.5].into_iter().collect();
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.population_std(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn known_variance() {
        let s: RunningStats = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert_eq!(s.mean(), 3.0);
        assert!((s.population_variance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let all: RunningStats = data.iter().copied().collect();
        let mut a: RunningStats = data[..37].iter().copied().collect();
        let b: RunningStats = data[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: RunningStats = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&RunningStats::new());
        assert_eq!(s, before);

        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn quantiles() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile_in_place(&mut v, 0.0), 1.0);
        assert_eq!(quantile_in_place(&mut v, 1.0), 5.0);
        assert_eq!(quantile_in_place(&mut v, 0.5), 3.0);
        assert_eq!(quantile_in_place(&mut v, 0.25), 2.0);
    }

    #[test]
    fn quantile_interpolates() {
        let mut v = vec![0.0, 10.0];
        assert_eq!(quantile_in_place(&mut v, 0.5), 5.0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_bad_q() {
        let mut v = vec![1.0];
        quantile_in_place(&mut v, 1.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_rejects_empty() {
        let mut v: Vec<f64> = vec![];
        quantile_in_place(&mut v, 0.5);
    }
}
