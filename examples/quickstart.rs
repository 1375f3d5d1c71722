//! Quickstart: a small Drum group multicasting over loopback UDP.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release -p drum --example quickstart
//! ```
//!
//! Starts 8 processes on shard event loops (one per core), publishes 20
//! messages from a single source, and prints per-process delivery counts,
//! latencies and the group-wide counters the processes report at
//! shutdown.

use std::sync::Arc;
use std::time::{Duration, Instant};

use drum::core::config::ProtocolVariant;
use drum::net::experiment::{decode_payload, paper_cluster_config, Cluster};
use drum::net::NetStats;
use drum::trace::{NoopSink, Tracer};

fn main() -> std::io::Result<()> {
    let n = 8;
    let round = Duration::from_millis(100);
    println!("starting a {n}-process Drum group (round = {round:?})...");

    // Attach a tracer to the whole cluster. The sink receives structured
    // events, a `net round` event per process per round among them (swap
    // `NoopSink` for `JsonLinesSink` to stream a .jsonl trace).
    let tracer = Tracer::new(Arc::new(NoopSink));
    let mut config = paper_cluster_config(ProtocolVariant::Drum, n, 0, 0.0, round, 42);
    config.net = config.net.with_tracer(tracer);
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

    let totals: NetStats = cluster.shutdown().into_iter().sum();
    println!(
        "\ntotal rounds executed across the group: {}",
        totals.rounds
    );
    let delivered: u64 = received[1..].iter().sum();
    println!(
        "total deliveries: {delivered} / {}",
        total * (correct as u64 - 1)
    );

    // Group-wide counters: every process's stats, summed.
    println!("\nobservability counters (whole group):");
    for (name, value) in [
        ("datagrams sent", totals.sent),
        ("datagrams received", totals.received),
        ("budget drops", totals.budget_drops),
        ("ports allocated", totals.ports_allocated),
        ("recv syscalls", totals.syscalls_recv),
        ("send syscalls", totals.syscalls_send),
        ("batched datagrams", totals.batch_recv_datagrams),
        ("SHA-256 compressions", totals.compress_calls),
        ("buffer bytes peak", totals.buffer_bytes_peak),
        ("stream backpressure", totals.stream_backpressure),
    ] {
        println!("  {name:<20} {value}");
    }
    // ~3 for these 50-byte payloads: only messages new to a node are MACed.
    println!(
        "  crypto.compress_calls per delivered message {:.2}",
        totals.compress_calls as f64 / totals.delivered.max(1) as f64
    );
    Ok(())
}
