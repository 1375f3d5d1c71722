//! The correctness checker and the delivery statistics it gathers on the
//! way. It sees every delivery as it is collected and keeps only bitsets
//! and histograms, so the benchmark's own memory stays far below the
//! program's and `peak_rss_mib` keeps meaning the program.

use std::ops::Range;
use std::time::Duration;

use drum_core::bytes::Bytes;
use rand::rngs::SplitMix64;
use rand::Rng;

use crate::spec::PAYLOAD_LEN;

/// The payload of message `seq`: its sequence number, then bytes that only
/// `(seed, seq)` determine — so a receiver-side payload can be checked
/// whole, not just parsed.
pub fn payload_for(seed: u64, seq: u64) -> Bytes {
    let mut out = vec![0u8; PAYLOAD_LEN];
    out[..8].copy_from_slice(&seq.to_be_bytes());
    SplitMix64::new(seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)).fill_bytes(&mut out[8..]);
    out.into()
}

/// The sequence number a payload carries, if it is exactly the payload the
/// benchmark generated for that number.
fn seq_of(seed: u64, payload: &[u8]) -> Option<u64> {
    let seq = u64::from_be_bytes(payload.get(..8)?.try_into().ok()?);
    (payload_for(seed, seq) == payload).then_some(seq)
}

/// A fault injected into the stream of collected deliveries, to show that
/// the checker (and the command's exit code) notices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Lose one measured message in a hundred, at every receiver: enough
    /// dropped sequence numbers to sink `delivered_fraction` under its floor.
    DropSeq,
    /// Report one delivery twice.
    Duplicate,
    /// Corrupt one delivered payload.
    ForeignPayload,
}

impl Fault {
    const NAMES: [(&'static str, Fault); 3] = [
        ("drop", Fault::DropSeq),
        ("dup", Fault::Duplicate),
        ("foreign", Fault::ForeignPayload),
    ];

    pub fn parse(s: &str) -> Option<Fault> {
        Self::NAMES.iter().find(|(n, _)| *n == s).map(|(_, f)| *f)
    }

    pub fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(_, f)| *f == self)
            .map_or("", |(n, _)| n)
    }
}

/// Counts in fixed-width buckets; quantiles interpolate inside a bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    width: f64,
    counts: Vec<u32>,
    total: u64,
}

impl Histogram {
    pub fn new(width: f64, buckets: usize) -> Self {
        Histogram {
            width,
            counts: vec![0; buckets],
            total: 0,
        }
    }

    pub fn add(&mut self, x: f64) {
        let i = ((x / self.width) as usize).min(self.counts.len() - 1);
        self.counts[i] = self.counts[i].saturating_add(1);
        self.total += 1;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut below = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = f64::from(c);
            if c > 0.0 && below + c >= rank {
                return (i as f64 + ((rank - below) / c).clamp(0.0, 1.0)) * self.width;
            }
            below += c;
        }
        self.counts.len() as f64 * self.width
    }
}

/// What the checker concluded about a run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Expected (message, receiver) deliveries of the measured messages.
    pub attempted: u64,
    /// Of those, how many arrived (in time, where a limit applies).
    pub delivered: u64,
    pub duplicates: u64,
    pub unknown_seq: u64,
    pub bad_payload: u64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    pub mean_hops: f64,
    pub p99_hops: f64,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.attempted - self.delivered.min(self.attempted)
    }

    pub fn delivered_fraction(&self) -> f64 {
        self.delivered as f64 / self.attempted.max(1) as f64
    }

    /// Every delivered payload decoded to a published message, once.
    pub fn stream_ok(&self) -> bool {
        self.duplicates == 0 && self.unknown_seq == 0 && self.bad_payload == 0
    }
}

pub struct Checker {
    seed: u64,
    /// One bitset per correct node, indexed by sequence number.
    seen: Vec<Vec<u64>>,
    published: u64,
    measured: Range<u64>,
    late_limit: Option<Duration>,
    fault: Option<Fault>,
    dropping: Option<u64>,
    delivered: u64,
    duplicates: u64,
    unknown_seq: u64,
    bad_payload: u64,
    latency_ms: Histogram,
    hops: Histogram,
    hops_sum: u64,
}

impl Checker {
    /// `late_limit`: a delivery slower than this counts as failed.
    pub fn new(seed: u64, correct: usize, late_limit: Option<Duration>) -> Self {
        Checker {
            seed,
            seen: vec![Vec::new(); correct],
            published: 0,
            measured: 0..0,
            late_limit,
            fault: None,
            dropping: None,
            delivered: 0,
            duplicates: 0,
            unknown_seq: 0,
            bad_payload: 0,
            // 0.1 ms buckets up to 4 s; slower deliveries pile into the last.
            latency_ms: Histogram::new(0.1, 40_000),
            hops: Histogram::new(1.0, 256),
            hops_sum: 0,
        }
    }

    pub fn inject(&mut self, fault: Option<Fault>) {
        self.fault = fault;
    }

    /// The next message's payload; the checker now expects it everywhere.
    pub fn publish(&mut self) -> (u64, Bytes) {
        let seq = self.published;
        self.published += 1;
        (seq, payload_for(self.seed, seq))
    }

    /// Messages published from now on are measured operations...
    pub fn begin_measured(&mut self) {
        self.measured = self.published..u64::MAX;
    }

    /// ...until now.
    pub fn end_measured(&mut self) {
        self.measured.end = self.published;
    }

    /// One collected delivery at correct node `receiver`. `latency` maps the
    /// message's sequence number to due-time → arrival.
    pub fn record(
        &mut self,
        receiver: usize,
        payload: &[u8],
        hops: u32,
        latency: impl Fn(u64) -> Duration,
    ) {
        if self.fault.is_some() || self.dropping.is_some() {
            let measured = seq_of(self.seed, payload).filter(|s| self.measured.contains(s));
            if let Some(seq) = measured {
                match self.fault.take() {
                    Some(Fault::ForeignPayload) => {
                        let mut bytes = payload.to_vec();
                        bytes[PAYLOAD_LEN - 1] ^= 0x55;
                        return self.admit(receiver, &bytes, hops, &latency);
                    }
                    Some(Fault::Duplicate) => self.admit(receiver, payload, hops, &latency),
                    Some(Fault::DropSeq) => self.dropping = Some(seq % 100),
                    None => {}
                }
                if self.dropping == Some(seq % 100) {
                    return;
                }
            }
        }
        self.admit(receiver, payload, hops, &latency);
    }

    fn admit(
        &mut self,
        receiver: usize,
        payload: &[u8],
        hops: u32,
        latency: &dyn Fn(u64) -> Duration,
    ) {
        let Some(seq) = seq_of(self.seed, payload) else {
            self.bad_payload += 1;
            return;
        };
        if seq >= self.published {
            self.unknown_seq += 1;
            return;
        }
        let (word, bit) = ((seq / 64) as usize, 1u64 << (seq % 64));
        let set = &mut self.seen[receiver];
        if set.len() <= word {
            set.resize(word + 1, 0);
        }
        if set[word] & bit != 0 {
            self.duplicates += 1;
            return;
        }
        set[word] |= bit;
        if !self.measured.contains(&seq) {
            return;
        }
        let latency = latency(seq);
        if self.late_limit.is_none_or(|limit| latency <= limit) {
            self.delivered += 1;
        }
        self.latency_ms.add(latency.as_secs_f64() * 1e3);
        self.hops.add(f64::from(hops));
        self.hops_sum += u64::from(hops);
    }

    pub fn outcome(&self) -> Outcome {
        let msgs = self.measured.end.min(self.published) - self.measured.start;
        let samples = self.hops.total().max(1);
        Outcome {
            // The source holds its own messages; everyone else must get them.
            attempted: msgs * (self.seen.len() as u64 - 1),
            delivered: self.delivered,
            duplicates: self.duplicates,
            unknown_seq: self.unknown_seq,
            bad_payload: self.bad_payload,
            p50_ms: self.latency_ms.quantile(0.50),
            p95_ms: self.latency_ms.quantile(0.95),
            p99_ms: self.latency_ms.quantile(0.99),
            p999_ms: self.latency_ms.quantile(0.999),
            mean_hops: self.hops_sum as f64 / samples as f64,
            p99_hops: self.hops.quantile(0.99),
        }
    }

    /// Latency samples behind the percentiles.
    pub fn samples(&self) -> u64 {
        self.latency_ms.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 7;

    /// Publishes `msgs` measured messages and delivers each to receivers
    /// 1..correct, except where `skip` says otherwise.
    fn run(
        correct: usize,
        msgs: u64,
        skip: impl Fn(usize, u64) -> bool,
    ) -> (Checker, Vec<(u64, Bytes)>) {
        let mut c = Checker::new(SEED, correct, Some(Duration::from_secs(1)));
        c.begin_measured();
        let sent: Vec<(u64, Bytes)> = (0..msgs).map(|_| c.publish()).collect();
        c.end_measured();
        for (seq, payload) in &sent {
            for r in 1..correct {
                if !skip(r, *seq) {
                    c.record(r, payload, 3, |_| Duration::from_millis(100));
                }
            }
        }
        (c, sent)
    }

    #[test]
    fn clean_stream_passes() {
        let (c, _) = run(5, 200, |_, _| false);
        let o = c.outcome();
        assert_eq!((o.attempted, o.delivered, o.failed()), (800, 800, 0));
        assert!(o.stream_ok());
        assert!((o.p50_ms - 100.0).abs() < 0.2, "{}", o.p50_ms);
        assert_eq!(o.mean_hops, 3.0);
    }

    #[test]
    fn dropped_seq_is_a_failed_operation() {
        let (c, _) = run(5, 200, |_, seq| seq == 17);
        let o = c.outcome();
        assert_eq!(o.failed(), 4);
        assert!(o.delivered_fraction() < crate::spec::DELIVERED_FLOOR);
    }

    #[test]
    fn duplicate_delivery_is_caught() {
        let (mut c, sent) = run(5, 50, |_, _| false);
        c.record(2, &sent[9].1, 3, |_| Duration::ZERO);
        assert_eq!(c.outcome().duplicates, 1);
        assert!(!c.outcome().stream_ok());
    }

    #[test]
    fn foreign_payload_is_caught() {
        let (mut c, sent) = run(5, 50, |_, _| false);
        let mut foreign = sent[3].1.to_vec();
        foreign[20] ^= 1;
        c.record(1, &foreign, 3, |_| Duration::ZERO);
        // A well-formed payload of a message nobody published yet.
        c.record(1, &payload_for(SEED, 50), 3, |_| Duration::ZERO);
        // A payload from another run's seed.
        c.record(1, &payload_for(SEED + 1, 4), 3, |_| Duration::ZERO);
        let o = c.outcome();
        assert_eq!((o.bad_payload, o.unknown_seq), (2, 1));
    }

    #[test]
    fn late_delivery_fails_the_operation() {
        let mut c = Checker::new(SEED, 3, Some(Duration::from_secs(1)));
        c.begin_measured();
        let (_, payload) = c.publish();
        c.end_measured();
        c.record(1, &payload, 2, |_| Duration::from_millis(1500));
        c.record(2, &payload, 2, |_| Duration::from_millis(900));
        let o = c.outcome();
        assert_eq!((o.attempted, o.delivered), (2, 1));
    }

    #[test]
    fn injected_faults_trip_the_checker() {
        for (fault, broken) in [
            (Fault::DropSeq, (|o| o.failed() > 0) as fn(&Outcome) -> bool),
            (Fault::Duplicate, |o| o.duplicates == 1),
            (Fault::ForeignPayload, |o| o.bad_payload == 1),
        ] {
            let mut c = Checker::new(SEED, 4, None);
            c.inject(Some(fault));
            c.begin_measured();
            let sent: Vec<_> = (0..300).map(|_| c.publish()).collect();
            c.end_measured();
            for (_, payload) in &sent {
                for r in 1..4 {
                    c.record(r, payload, 1, |_| Duration::from_millis(5));
                }
            }
            assert!(broken(&c.outcome()), "{fault:?}: {:?}", c.outcome());
        }
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..1000 {
            h.add(f64::from(i) / 10.0);
        }
        assert!((h.quantile(0.5) - 50.0).abs() < 0.2);
        assert!((h.quantile(0.99) - 99.0).abs() < 0.2);
        assert_eq!(Histogram::new(1.0, 4).quantile(0.5), 0.0);
    }
}
