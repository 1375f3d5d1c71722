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
use drum::metrics::RunningStats;
use drum::net::experiment::{paper_cluster_config, Cluster};
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

    // Publish 20 messages at 20 msg/s from process 0.
    let total = 20u64;
    for seq in 0..total {
        cluster.publish_from_source(seq, 50);
        std::thread::sleep(Duration::from_millis(50));
    }

    // Log deliveries until all have arrived, for at most 5 s. Each is
    // timed when it arrived, however late it is collected.
    let expected = total * (correct as u64 - 1);
    let mut log = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    cluster.collect_until(&mut log, deadline, |log| log.len() as u64 >= expected);

    println!("\nprocess  received  mean latency");
    println!("-------------------------------");
    for i in 1..correct {
        let latency: RunningStats = log
            .iter()
            .filter(|a| a.receiver == i)
            .map(|a| a.at.saturating_sub(a.sent).as_secs_f64() * 1e3)
            .collect();
        let mean = if latency.count() > 0 {
            latency.mean()
        } else {
            f64::NAN
        };
        println!("p{i:<7} {:>8}  {mean:>9.1} ms", latency.count());
    }

    let totals: NetStats = cluster.shutdown().into_iter().sum();
    println!(
        "\ntotal rounds executed across the group: {}",
        totals.rounds
    );
    println!("total deliveries: {} / {expected}", log.len());

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
