//! The paced driver: the real sharded runtime (one `drum-shard-*` thread)
//! on wall-clock rounds, fed by an open-loop generator on this thread.
//! Each message is timed from the instant it was *due*, so a stall costs
//! the messages queued behind it too; how late the generator itself ran is
//! reported and bounds the run's validity.

use std::io;
use std::time::{Duration, Instant};

use drum_core::config::GossipConfig;
use drum_core::stream::StreamConfig;
use drum_net::{Cluster, ClusterConfig, FloodStrategy, NetConfig, NodeHandle};

use crate::check::{Checker, Fault, Histogram};
use crate::procfs;
use crate::spec::{Workload, LATE_LIMIT, PACED_DRAIN, PACED_WARMUP, ROUND, SETUP_REPS};
use crate::trace::{Kind, Spans};
use crate::{median, RunData};

const SHARD_THREADS: &str = "drum-shard";
const ATTACK_THREAD: &str = "drum-attacker";
/// Publishes between two collections of the delivery channels.
const COLLECT_EVERY: u64 = 8;

fn config(w: &Workload, seed: u64) -> ClusterConfig {
    ClusterConfig {
        n: w.n,
        malicious: w.malicious(),
        attacked: w.attacked,
        x_per_round: w.x as f64,
        // One shard thread plus this generator thread: the box's two cores.
        shards: 1,
        engines_per_shard: 0,
        net: NetConfig::new(GossipConfig::drum())
            .with_round(ROUND)
            // A tenth of headroom over the mean, for the rounds the jitter
            // made long.
            .with_stream(StreamConfig::paced(
                w.msgs_per_round + w.msgs_per_round.div_ceil(10),
            )),
        seed,
        // Stated, never taken from the environment.
        adversary: FloodStrategy::Static,
    }
}

/// The open-loop publish rate (msg/s) that fills `msgs_per_round`.
fn rate(w: &Workload) -> u64 {
    w.msgs_per_round as u64 * 1000 / ROUND.as_millis() as u64
}

/// When message `seq` of a stream of `rate` msg/s is due.
fn due(origin: Instant, rate: u64, seq: u64) -> Instant {
    origin + Duration::from_nanos(seq * 1_000_000_000 / rate)
}

/// CPU time so far of the shard thread and of the attacker thread.
fn thread_cpu_ns() -> (u64, u64) {
    (
        procfs::thread_run_ns(SHARD_THREADS),
        procfs::thread_run_ns(ATTACK_THREAD),
    )
}

struct Collector {
    checker: Checker,
    /// Due time of message 0, and the stream's rate.
    origin: Instant,
    rate: u64,
    window: (Instant, Option<Instant>),
    in_window: u64,
}

impl Collector {
    fn collect(&mut self, cluster: &Cluster) -> u64 {
        let mut n = 0;
        for (receiver, handle) in cluster.handles().iter().enumerate() {
            let NodeHandle::Sharded(engine) = handle else {
                unreachable!("the paced cluster is sharded")
            };
            while let Ok(d) = engine.delivered().try_recv() {
                n += 1;
                let (start, end) = self.window;
                if d.at >= start && end.is_none_or(|end| d.at <= end) {
                    self.in_window += 1;
                }
                let (origin, rate) = (self.origin, self.rate);
                self.checker
                    .record(receiver, &d.message.payload, d.message.hops, |seq| {
                        d.at.saturating_duration_since(due(origin, rate, seq))
                    });
            }
        }
        n
    }
}

/// `setup_s` of a workload, virtual-time ones too: start a real cluster of
/// the workload's shape, without its flood, and run it until its first
/// message has reached every correct node; the median of [`SETUP_REPS`]
/// starts. On wall-clock rounds this is what a user waits for, and it does
/// not swing with the machine's speed the way milliseconds of pure CPU do.
pub fn setup_s(w: &Workload, seed: u64) -> io::Result<f64> {
    let mut samples = Vec::new();
    for rep in 0..SETUP_REPS {
        samples.push(setup_once(w, seed.wrapping_add(rep as u64))?.as_secs_f64());
    }
    Ok(median(samples))
}

fn setup_once(w: &Workload, seed: u64) -> io::Result<Duration> {
    let start = Instant::now();
    let mut cfg = config(w, seed);
    cfg.attacked = 0;
    let cluster = Cluster::start(cfg)?;
    let mut c = Collector {
        checker: Checker::new(seed, w.correct(), None),
        origin: start,
        rate: rate(w),
        window: (start, None),
        in_window: 0,
    };
    c.checker.begin_measured();
    let (_, payload) = c.checker.publish();
    cluster.handles()[0].publish(payload);
    let want = w.correct() as u64 - 1;
    let mut got = 0;
    while got < want {
        if start.elapsed() > Duration::from_secs(10) {
            return Err(io::Error::other(
                "setup: the first message never arrived everywhere",
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
        got += c.collect(&cluster);
    }
    let took = start.elapsed();
    cluster.shutdown();
    Ok(took)
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    fault: Option<Fault>,
) -> io::Result<RunData> {
    let setup_s = setup_s(w, seed)?;
    let cluster = Cluster::start(config(w, seed))?;
    let born = Instant::now();
    let mut spans = Spans::new(trace);
    spans.stages = trace;
    let origin = Instant::now() + Duration::from_millis(5);
    let mut c = Collector {
        checker: Checker::new(seed, w.correct(), Some(LATE_LIMIT)),
        origin,
        rate: rate(w),
        // Opened and closed on the generator's own clock readings below.
        window: (origin + PACED_WARMUP, None),
        in_window: 0,
    };
    c.checker.inject(fault);
    let rate = c.rate;
    let warmup = PACED_WARMUP.as_millis() as u64 * rate / 1000;
    let measured = (seconds * rate as f64) as u64;
    // Generator lateness in 0.01 ms buckets up to 1 s.
    let mut late_ms = Histogram::new(0.01, 100_000);
    let mut late_max_ms = 0f64;
    let mut cpu0 = (0, 0);

    for k in 0..warmup + measured {
        let due = due(origin, rate, k);
        let wait = due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        if k == warmup {
            c.checker.begin_measured();
            c.window.0 = Instant::now();
            cpu0 = thread_cpu_ns();
        }
        if k >= warmup {
            let late = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
            late_ms.add(late);
            late_max_ms = late_max_ms.max(late);
        }
        spans.time(Kind::Publish, 0, || {
            let (_, payload) = c.checker.publish();
            cluster.handles()[0].publish(payload);
        });
        if k % COLLECT_EVERY == 0 {
            spans.time(Kind::Collect, 0, || c.collect(&cluster));
        }
    }
    c.checker.end_measured();
    let window_end = Instant::now();
    let cpu1 = thread_cpu_ns();
    c.window.1 = Some(window_end);
    let window_s = (window_end - c.window.0).as_secs_f64();

    let drain_until = Instant::now() + PACED_DRAIN;
    while Instant::now() < drain_until {
        spans.time(Kind::Collect, 0, || c.collect(&cluster));
        std::thread::sleep(Duration::from_millis(10));
    }
    c.collect(&cluster);
    let life_s = born.elapsed().as_secs_f64();
    let life_cpu_ns = procfs::thread_run_ns(SHARD_THREADS);
    let stats = cluster.shutdown();

    let correct = w.correct() as u64;
    let node_rounds: u64 = stats.iter().map(|s| s.rounds).sum();
    let rounds_late: u64 = stats.iter().map(|s| s.rounds_late).sum();
    let gen_late_p99_ms = late_ms.quantile(0.99);
    // Judged at the percentile of the bounded tail metric: a stall that
    // delays 1 % of the stream shows in p99 and max, and is reported, but
    // leaves the median and p95 standing.
    let gen_late_p95_ms = late_ms.quantile(0.95);
    let round_ms = ROUND.as_secs_f64() * 1e3;
    let invalid = if gen_late_p95_ms > round_ms {
        Some(format!(
            "generator p95 lateness {gen_late_p95_ms:.1} ms exceeds one round"
        ))
    } else if rounds_late * 100 > node_rounds {
        Some(format!(
            "{rounds_late} of {node_rounds} node rounds were late"
        ))
    } else {
        None
    };
    let shard_ns = (cpu1.0 - cpu0.0) as f64;
    Ok(RunData {
        setup_s,
        outcome: c.checker.outcome(),
        samples: c.checker.samples(),
        deliveries_per_s: c.in_window as f64 / window_s,
        rounds_per_s: node_rounds as f64 / correct as f64 / life_s,
        cpu_us_per_delivery: shard_ns / c.in_window.max(1) as f64 / 1e3,
        cpu_share: shard_ns / (window_s * 1e9),
        attack_cpu_share: (cpu1.1 - cpu0.1) as f64 / (window_s * 1e9),
        gen_late_p99_ms,
        gen_late_max_ms: late_max_ms,
        // No call boundary inside the shard thread is reachable from here,
        // so the traced run adds nothing to the stack's work.
        overhead_ratio: 1.0,
        ledger: None,
        stats,
        node_rounds,
        // The lifetime counts are set against the shard thread's CPU time.
        stack_s: life_cpu_ns as f64 / 1e9,
        // The attacker thread keeps its own count; this is its configured
        // rate over the cluster's life.
        hostile_dgrams: (w.x as f64 * w.attacked as f64 * life_s / ROUND.as_secs_f64()) as u64,
        invalid,
        spans: Some(spans),
    })
}
