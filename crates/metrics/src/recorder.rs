//! Latency and throughput recorders for the measurement harness (§8 of the
//! paper).
//!
//! The paper's cluster experiments send 10,000 messages at 40 msg/s and
//! report, per receiving process, the **average received throughput**
//! (ignoring the first and last 5% of the experiment's duration) and the
//! **average latency** of successfully received messages. These recorders
//! reproduce that accounting.

use crate::stats::RunningStats;

/// Records per-message receive latencies for one process.
///
/// # Examples
///
/// ```
/// use drum_metrics::recorder::LatencyRecorder;
///
/// let mut r = LatencyRecorder::new();
/// r.record_ms(12.5);
/// r.record_ms(20.0);
/// assert_eq!(r.received(), 2);
/// assert_eq!(r.mean_ms(), 16.25);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    stats: RunningStats,
    /// Timestamped samples `(t_secs, latency_ms)` kept for duration-window
    /// trimming; only populated through [`LatencyRecorder::record_at`].
    samples: Vec<(f64, f64)>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one successfully delivered message's latency in milliseconds.
    pub fn record_ms(&mut self, latency_ms: f64) {
        self.stats.push(latency_ms);
    }

    /// Records a delivery latency together with its arrival time (seconds
    /// since experiment start), enabling the paper's duration-window trim.
    pub fn record_at(&mut self, t_secs: f64, latency_ms: f64) {
        self.stats.push(latency_ms);
        self.samples.push((t_secs, latency_ms));
    }

    /// Latency statistics restricted to arrivals within `trim` and
    /// `1 - trim` of the experiment duration — the paper's accounting
    /// ("ignoring the first and last 5% of the time", §8), which trims by
    /// **duration**, not by sample count. Only samples recorded through
    /// [`LatencyRecorder::record_at`] participate; the result is empty when
    /// none fall inside the window.
    ///
    /// # Panics
    ///
    /// Panics if `trim` is not in `[0, 0.5)`.
    pub fn windowed_stats(&self, duration_secs: f64, trim: f64) -> RunningStats {
        assert!(
            (0.0..0.5).contains(&trim),
            "trim must be in [0, 0.5): {trim}"
        );
        let lo = duration_secs * trim;
        let hi = duration_secs * (1.0 - trim);
        self.samples
            .iter()
            .filter(|(t, _)| *t >= lo && *t < hi)
            .map(|(_, ms)| *ms)
            .collect()
    }

    /// Mean latency over the paper's standard 5% duration trim; falls back
    /// to the untrimmed mean when no timestamped sample lies in the window
    /// (e.g. all arrivals were stragglers, or only [`record_ms`] was used).
    ///
    /// [`record_ms`]: LatencyRecorder::record_ms
    pub fn paper_mean_ms(&self, duration_secs: f64) -> f64 {
        let w = self.windowed_stats(duration_secs, 0.05);
        if w.count() > 0 {
            w.mean()
        } else {
            self.mean_ms()
        }
    }

    /// Number of messages recorded.
    pub fn received(&self) -> u64 {
        self.stats.count()
    }

    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        self.stats.mean()
    }
}

/// Records message arrival times and computes steady-state throughput,
/// trimming a warm-up/cool-down fraction of the experiment duration exactly
/// as in the paper ("ignoring the first and last 5% of the time").
#[derive(Debug, Clone, Default)]
pub struct ThroughputRecorder {
    /// Arrival times (seconds since experiment start) of delivered messages.
    arrivals: Vec<f64>,
}

impl ThroughputRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a delivery at `t_secs` seconds since experiment start.
    pub fn record(&mut self, t_secs: f64) {
        self.arrivals.push(t_secs);
    }

    /// Total deliveries recorded.
    pub fn total(&self) -> usize {
        self.arrivals.len()
    }

    /// Average throughput (messages/second) between `trim` and `1 - trim`
    /// of the experiment duration `duration_secs`.
    ///
    /// Returns `0.0` for an empty recorder or a non-positive window.
    ///
    /// # Panics
    ///
    /// Panics if `trim` is not in `[0, 0.5)`.
    pub fn steady_state_throughput(&self, duration_secs: f64, trim: f64) -> f64 {
        assert!(
            (0.0..0.5).contains(&trim),
            "trim must be in [0, 0.5): {trim}"
        );
        let lo = duration_secs * trim;
        let hi = duration_secs * (1.0 - trim);
        let window = hi - lo;
        if window <= 0.0 {
            return 0.0;
        }
        let n = self
            .arrivals
            .iter()
            .filter(|t| **t >= lo && **t < hi)
            .count();
        n as f64 / window
    }

    /// Throughput over the paper's standard 5% trim.
    pub fn paper_throughput(&self, duration_secs: f64) -> f64 {
        self.steady_state_throughput(duration_secs, 0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_basics() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.received(), 0);
        assert_eq!(r.mean_ms(), 0.0);
        r.record_ms(10.0);
        r.record_ms(30.0);
        assert_eq!(r.received(), 2);
        assert_eq!(r.mean_ms(), 20.0);
    }

    #[test]
    fn latency_trim_is_by_duration_not_count() {
        let mut r = LatencyRecorder::new();
        // Ten early outliers, all inside the first 4% of a 100 s run. A
        // count-based 5% trim of 20 samples would drop only one from each
        // end; the paper's duration-based trim must drop all ten.
        for i in 0..10 {
            r.record_at(i as f64 * 0.4, 1000.0);
        }
        // Ten steady-state samples in the middle of the run.
        for i in 0..10 {
            r.record_at(40.0 + i as f64, 10.0);
        }
        let w = r.windowed_stats(100.0, 0.05);
        assert_eq!(w.count(), 10, "all early-burst samples must be trimmed");
        assert_eq!(w.mean(), 10.0);
        assert_eq!(r.paper_mean_ms(100.0), 10.0);
        // The untrimmed mean still sees everything.
        assert_eq!(r.mean_ms(), 505.0);
    }

    #[test]
    fn latency_trim_excludes_cooldown_tail() {
        let mut r = LatencyRecorder::new();
        r.record_at(50.0, 20.0);
        r.record_at(97.0, 500.0); // straggler in the last 3% of 100 s
        let w = r.windowed_stats(100.0, 0.05);
        assert_eq!(w.count(), 1);
        assert_eq!(r.paper_mean_ms(100.0), 20.0);
    }

    #[test]
    fn latency_paper_mean_falls_back_when_window_empty() {
        let mut r = LatencyRecorder::new();
        r.record_ms(15.0); // untimestamped
        assert_eq!(r.paper_mean_ms(10.0), 15.0);

        let mut all_late = LatencyRecorder::new();
        all_late.record_at(9.9, 42.0); // inside the final 5% of 10 s
        assert_eq!(all_late.paper_mean_ms(10.0), 42.0);
    }

    #[test]
    #[should_panic(expected = "trim")]
    fn latency_bad_trim_panics() {
        LatencyRecorder::new().windowed_stats(1.0, 0.6);
    }

    #[test]
    fn throughput_uniform_arrivals() {
        let mut r = ThroughputRecorder::new();
        // 100 messages uniformly over 10 seconds = 10 msg/s.
        for i in 0..100 {
            r.record(i as f64 * 0.1);
        }
        let tp = r.steady_state_throughput(10.0, 0.0);
        assert!((tp - 10.0).abs() < 1e-9, "tp = {tp}");
    }

    #[test]
    fn throughput_trims_edges() {
        let mut r = ThroughputRecorder::new();
        // A burst only in the first 5% must not count with 5% trim.
        for i in 0..50 {
            r.record(i as f64 * 0.001); // all within [0, 0.05)
        }
        assert_eq!(r.paper_throughput(1.0), 0.0);
        // But counts without trimming.
        assert!(r.steady_state_throughput(1.0, 0.0) > 0.0);
    }

    #[test]
    fn empty_throughput_is_zero() {
        let r = ThroughputRecorder::new();
        assert_eq!(r.paper_throughput(10.0), 0.0);
        assert_eq!(r.total(), 0);
    }

    #[test]
    #[should_panic(expected = "trim")]
    fn bad_trim_panics() {
        ThroughputRecorder::new().steady_state_throughput(1.0, 0.5);
    }

    #[test]
    fn zero_duration_is_zero() {
        let mut r = ThroughputRecorder::new();
        r.record(0.0);
        assert_eq!(r.steady_state_throughput(0.0, 0.0), 0.0);
    }
}
