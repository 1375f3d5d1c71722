//! Quickstart: a small Drum group multicasting over loopback UDP.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release -p drum --example quickstart
//! ```
//!
//! Spawns 8 processes (one thread group each), publishes 20 messages from
//! a single source, and prints per-process delivery counts, latencies and
//! the group-wide observability counters collected by `drum::trace`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use drum::core::config::ProtocolVariant;
use drum::net::experiment::{decode_payload, paper_cluster_config, Cluster};
use drum::trace::{names, NoopSink, Tracer};

fn main() -> std::io::Result<()> {
    let n = 8;
    let round = Duration::from_millis(100);
    println!("starting a {n}-process Drum group (round = {round:?})...");

    // Attach a tracer to the whole cluster. The sink receives structured
    // events (swap `NoopSink` for `JsonLinesSink` to stream a .jsonl
    // trace); the registry aggregates counters across every process
    // thread either way.
    let tracer = Tracer::new(Arc::new(NoopSink));
    let mut config = paper_cluster_config(ProtocolVariant::Drum, n, 0, 0.0, round, 42);
    config.net = config.net.with_tracer(tracer.clone());
    let correct = config.correct();
    let cluster = Cluster::start(config)?;
    let epoch = cluster.epoch();

    // Publish 20 messages at 20 msg/s from process 0.
    let total = 20u64;
    for seq in 0..total {
        cluster.publish_from_source(seq, 50);
        std::thread::sleep(Duration::from_millis(50));
    }

    // Collect deliveries for a few seconds.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut received = vec![0u64; correct];
    let mut latency_sum_ms = vec![0.0f64; correct];
    while Instant::now() < deadline {
        for (i, h) in cluster.handles().iter().enumerate() {
            for d in h.take_delivered() {
                if let Some((_seq, sent_micros)) = decode_payload(&d.message.payload) {
                    let now = epoch.elapsed().as_micros() as u64;
                    latency_sum_ms[i] += (now - sent_micros) as f64 / 1000.0;
                    received[i] += 1;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    println!("\nprocess  received  mean latency");
    println!("-------------------------------");
    for i in 1..correct {
        let mean = if received[i] > 0 {
            latency_sum_ms[i] / received[i] as f64
        } else {
            f64::NAN
        };
        println!("p{i:<7} {:>8}  {mean:>9.1} ms", received[i]);
    }

    let stats = cluster.shutdown();
    let rounds: u64 = stats.iter().map(|s| s.rounds).sum();
    println!("\ntotal rounds executed across the group: {rounds}");
    let delivered: u64 = received[1..].iter().sum();
    println!(
        "total deliveries: {delivered} / {}",
        total * (correct as u64 - 1)
    );

    // Group-wide counters from the shared trace registry.
    let reg = tracer.registry();
    println!("\nobservability counters (whole group):");
    for name in [
        names::MESSAGES_SENT,
        names::MESSAGES_RECEIVED,
        names::DROPPED_BY_BOUND,
        names::PORT_ROTATIONS,
        names::SYSCALLS_RECV,
        names::SYSCALLS_SEND,
        names::BATCH_FILL,
        names::MAC_FULL_VERIFIES,
        names::MAC_BATCH_HITS,
        names::CRYPTO_COMPRESS_CALLS,
        names::CRYPTO_LANES_FILLED,
        names::BUFFER_BYTES_PEAK,
        names::STREAM_BACKPRESSURE,
    ] {
        println!("  {name:<20} {}", reg.counter(name).get());
    }
    // ~3 for these 50-byte payloads: only messages new to a node are MACed.
    let engine_deliveries: u64 = stats.iter().map(|s| s.delivered).sum();
    println!(
        "  crypto.compress_calls per delivered message {:.2}",
        reg.counter(names::CRYPTO_COMPRESS_CALLS).get() as f64 / engine_deliveries.max(1) as f64
    );
    Ok(())
}
