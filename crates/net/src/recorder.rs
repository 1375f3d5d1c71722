//! The §8 delivery log and the per-receiver figures read from it: received
//! throughput and latency, "ignoring the first and last 5% of the time".
//! Both drivers log it from the one experiment payload ([`encode_payload`]):
//! [`Cluster::collect`](crate::experiment::Cluster::collect) on wall-clock
//! UDP, [`VirtualCluster`](crate::VirtualCluster) in virtual time.

use std::time::Duration;

use drum_core::bytes::{Bytes, BytesMut};
use drum_core::ids::ProcessId;
use drum_metrics::stats::RunningStats;

use crate::experiment::ReceiverReport;

/// Encodes the standard experiment payload: sequence number and send time
/// (from the run's start, in microseconds), zero-padded to `len` bytes (the
/// paper uses 50-byte messages).
pub fn encode_payload(sent: Duration, seq: u64, len: usize) -> Bytes {
    let mut out = BytesMut::with_capacity(len.max(16));
    out.put_u64(seq);
    out.put_u64(sent.as_micros() as u64);
    while out.len() < len {
        out.put_u8(0);
    }
    out.freeze()
}

/// One delivery of an experiment payload; times are measured from the
/// run's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// The receiving process (index = process id).
    pub receiver: usize,
    /// The payload's sequence number.
    pub seq: u64,
    /// When the source published the payload.
    pub sent: Duration,
    /// When the receiver delivered it: its
    /// [`Delivery::at`](crate::runtime::Delivery::at) on UDP, the virtual
    /// instant of the step that delivered it in virtual time.
    pub at: Duration,
}

impl Arrival {
    /// The delivery of `payload` to `receiver` at `at`, or `None` when the
    /// payload is shorter than an experiment payload's 16-byte header.
    pub(crate) fn of(receiver: usize, payload: &[u8], at: Duration) -> Option<Arrival> {
        let word = |i: usize| Some(u64::from_be_bytes(payload.get(i..i + 8)?.try_into().ok()?));
        Some(Arrival {
            receiver,
            seq: word(0)?,
            sent: Duration::from_micros(word(8)?),
            at,
        })
    }

    /// How long the payload took from its send to this delivery, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.at.saturating_sub(self.sent).as_secs_f64() * 1e3
    }
}

/// One receiver's §8 figures from the delivery log of a run whose source
/// sent for `secs`. Both ignore "the first and last 5% of the time": the
/// trim cuts by duration, not by sample count. Throughput reads 0 for a
/// non-positive window; latency falls back to the mean over every arrival
/// when none lies inside the window.
pub(crate) fn receiver_report(
    log: &[Arrival],
    id: usize,
    attacked: bool,
    secs: f64,
) -> ReceiverReport {
    let (lo, hi) = (secs * 0.05, secs * 0.95);
    let mine = || log.iter().filter(move |a| a.receiver == id);
    let all: RunningStats = mine().map(Arrival::latency_ms).collect();
    let steady: RunningStats = mine()
        .filter(|a| (lo..hi).contains(&a.at.as_secs_f64()))
        .map(Arrival::latency_ms)
        .collect();
    let throughput = (hi > lo).then(|| steady.count() as f64 / (hi - lo));
    ReceiverReport {
        id: ProcessId(id as u64),
        attacked,
        throughput: throughput.unwrap_or(0.0),
        mean_latency_ms: if steady.count() > 0 { &steady } else { &all }.mean(),
        received: all.count(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// An arrival at `receiver`, `at_secs` into the run, `latency_ms`
    /// after it was sent.
    pub(crate) fn arrival(receiver: usize, at_secs: f64, latency_ms: f64) -> Arrival {
        let at = Duration::from_secs_f64(at_secs);
        Arrival {
            receiver,
            seq: 0,
            sent: at - Duration::from_secs_f64(latency_ms / 1e3),
            at,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn latency_basics() {
        let r = receiver_report(&[], 1, false, 1.0);
        assert_eq!((r.received, r.mean_latency_ms), (0, 0.0));
        let log = [arrival(1, 0.5, 10.0), arrival(1, 0.6, 30.0)];
        let r = receiver_report(&log, 1, true, 1.0);
        assert_eq!(r.received, 2);
        assert!(close(r.mean_latency_ms, 20.0), "{r:?}");
        assert!(r.attacked);
        // The other receiver's arrivals are not this one's.
        assert_eq!(receiver_report(&log, 2, false, 1.0).received, 0);
    }

    #[test]
    fn latency_trim_is_by_duration_not_count() {
        // Ten early outliers, all inside the first 4% of a 100 s run. A
        // count-based 5% trim of 20 samples would drop only one from each
        // end; the paper's duration-based trim must drop all ten.
        let mut log: Vec<Arrival> = (0..10)
            .map(|i| arrival(1, 1.0 + i as f64 * 0.3, 1000.0))
            .collect();
        log.extend((0..10).map(|i| arrival(1, 40.0 + i as f64, 10.0)));
        let r = receiver_report(&log, 1, false, 100.0);
        assert!(close(r.mean_latency_ms, 10.0), "{r:?}");
        // The trim drops no arrival from the count.
        assert_eq!(r.received, 20);
    }

    #[test]
    fn latency_trim_excludes_cooldown_tail() {
        // A straggler in the last 3% of 100 s.
        let log = [arrival(1, 50.0, 20.0), arrival(1, 97.0, 500.0)];
        let r = receiver_report(&log, 1, false, 100.0);
        assert!(close(r.mean_latency_ms, 20.0), "{r:?}");
        assert!((r.throughput - 1.0 / 90.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn latency_paper_mean_falls_back_when_window_empty() {
        // Every arrival lies in the final 5% of a 10 s run.
        let log = [arrival(1, 9.9, 42.0), arrival(1, 9.95, 44.0)];
        let r = receiver_report(&log, 1, false, 10.0);
        assert!(close(r.mean_latency_ms, 43.0), "{r:?}");
        assert_eq!((r.received, r.throughput), (2, 0.0));
    }

    #[test]
    fn throughput_uniform_arrivals() {
        // 100 messages uniformly over 10 seconds = 10 msg/s; the window
        // [0.5, 9.5) holds 90 of them over 9 s.
        let log: Vec<Arrival> = (0..100)
            .map(|i| arrival(1, (i as f64 + 0.5) * 0.1, 10.0))
            .collect();
        let r = receiver_report(&log, 1, false, 10.0);
        assert!((r.throughput - 10.0).abs() < 1e-9, "tp = {}", r.throughput);
    }

    #[test]
    fn throughput_trims_edges() {
        // A burst only in the first 5% must not count.
        let log: Vec<Arrival> = (0..50)
            .map(|i| arrival(1, 0.01 + i as f64 * 0.0008, 5.0))
            .collect();
        let r = receiver_report(&log, 1, false, 1.0);
        assert_eq!(r.throughput, 0.0);
        // But the burst was received.
        assert_eq!(r.received, 50);
    }

    #[test]
    fn empty_throughput_is_zero() {
        let r = receiver_report(&[arrival(2, 5.0, 5.0)], 1, false, 10.0);
        assert_eq!((r.received, r.throughput), (0, 0.0));
    }

    #[test]
    fn zero_duration_is_zero() {
        let r = receiver_report(&[arrival(1, 1.0, 5.0)], 1, false, 0.0);
        assert_eq!(r.throughput, 0.0);
        assert_eq!(r.received, 1);
        assert!(close(r.mean_latency_ms, 5.0), "{r:?}");
    }
}
