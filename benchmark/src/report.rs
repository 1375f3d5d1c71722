//! From a run's raw data to named metrics, the correctness verdict, the
//! result line the driver reads, and the comparison of two result files.

use std::collections::HashMap;

use drum_metrics::json::Json;
use drum_net::NetStats;

use crate::probes::Probe;
use crate::spec::{Better, MetricDef, Workload, DELIVERED_FLOOR, END_TO_END, PER_LAYER};
use crate::{median, procfs, RunData};

pub type Metrics = Vec<(&'static MetricDef, f64)>;

/// Orders `values` as `table` does; every metric of the table must be there.
fn in_table_order(table: &'static [MetricDef], values: &HashMap<&str, f64>) -> Metrics {
    table
        .iter()
        .map(|def| {
            let v = *values
                .get(def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            (def, if v.is_finite() { v } else { 0.0 })
        })
        .collect()
}

pub fn end_to_end(d: &RunData) -> Metrics {
    let values = HashMap::from([
        ("setup_s", d.setup_s),
        ("delivery_p50_ms", d.outcome.p50_ms),
        ("delivery_p95_ms", d.outcome.p95_ms),
        ("delivery_mean_rounds", d.outcome.mean_hops),
        ("cpu_us_per_delivery", d.cpu_us_per_delivery),
        ("peak_rss_mib", procfs::peak_rss_mib()),
    ]);
    in_table_order(&END_TO_END, &values)
}

/// Lifetime counts of the whole cluster, from `NetStats` at shutdown.
struct Counts {
    sent: f64,
    dgrams_recv: f64,
    recv_syscalls: f64,
    send_syscalls: f64,
    frames: f64,
    framed_msgs: f64,
    deliveries: f64,
    budget_drops: f64,
    decode_errors: f64,
    port_mismatches: f64,
    auth_drops: f64,
    frames_rejected: f64,
    alloc_failed: f64,
    compress_calls: f64,
    lanes_filled: f64,
    buffer_bytes_peak: f64,
    backpressure: f64,
}

impl Counts {
    fn of(stats: &[NetStats]) -> Counts {
        let sum = |f: fn(&NetStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        // The I/O batchers are shared by all engines of the one shard (or
        // the one virtual-time driver): every engine reports their totals.
        let shared = stats.first().copied().unwrap_or_default();
        Counts {
            sent: sum(|s| s.sent),
            dgrams_recv: shared.batch_recv_datagrams as f64,
            recv_syscalls: shared.syscalls_recv as f64,
            send_syscalls: shared.syscalls_send as f64,
            frames: sum(|s| s.frames_sent),
            framed_msgs: sum(|s| s.framed_msgs),
            deliveries: sum(|s| s.delivered),
            budget_drops: sum(|s| s.budget_drops),
            decode_errors: sum(|s| s.decode_errors),
            port_mismatches: sum(|s| s.port_mismatches),
            auth_drops: sum(|s| s.auth_drops),
            frames_rejected: sum(|s| s.frames_rejected),
            alloc_failed: sum(|s| s.alloc_failed),
            compress_calls: sum(|s| s.compress_calls),
            lanes_filled: sum(|s| s.lanes_filled),
            buffer_bytes_peak: stats.iter().map(|s| s.buffer_bytes_peak).max().unwrap_or(0) as f64,
            backpressure: sum(|s| s.stream_backpressure),
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn per_layer(d: &RunData, probes: &[Probe], probe_seconds: f64) -> Metrics {
    let c = Counts::of(&d.stats);
    let rounds = d.node_rounds as f64;
    let mut v: HashMap<&str, f64> = HashMap::from([
        ("deliveries_per_s", d.deliveries_per_s),
        ("rounds_per_s", d.rounds_per_s),
        ("delivered_fraction", d.outcome.delivered_fraction()),
        ("delivery_p99_ms", d.outcome.p99_ms),
        ("delivery_p999_ms", d.outcome.p999_ms),
        ("delivery_p99_rounds", d.outcome.p99_hops),
        ("trace.overhead_ratio", d.overhead_ratio),
        ("net.shard.cpu_share", d.cpu_share),
        ("attack.cpu_share", d.attack_cpu_share),
        ("bench.gen_late_p99_ms", d.gen_late_p99_ms),
        ("bench.gen_late_max_ms", d.gen_late_max_ms),
        (
            "net.rounds_late",
            ratio(
                d.stats.iter().map(|s| s.rounds_late).sum::<u64>() as f64,
                rounds,
            ),
        ),
        ("net.dgrams_sent_per_delivery", ratio(c.sent, c.deliveries)),
        ("net.dgrams_recv_per_round", ratio(c.dgrams_recv, rounds)),
        (
            "net.hostile_dgrams_per_valid",
            ratio(
                d.hostile_dgrams as f64,
                (c.dgrams_recv - d.hostile_dgrams as f64).max(1.0),
            ),
        ),
        (
            "net.recv_syscalls_per_dgram",
            ratio(c.recv_syscalls, c.dgrams_recv),
        ),
        (
            "net.send_syscalls_per_dgram",
            ratio(c.send_syscalls, c.sent),
        ),
        ("net.batch_fill", ratio(c.dgrams_recv, c.recv_syscalls)),
        ("net.msgs_per_frame", ratio(c.framed_msgs, c.frames)),
        ("net.budget_drops_per_round", ratio(c.budget_drops, rounds)),
        (
            "net.decode_errors_per_round",
            ratio(c.decode_errors, rounds),
        ),
        (
            "net.port_mismatches_per_round",
            ratio(c.port_mismatches, rounds),
        ),
        ("net.auth_drops", c.auth_drops),
        ("net.frames_rejected", c.frames_rejected),
        ("net.alloc_failed", c.alloc_failed),
        (
            "crypto.compress_calls_per_delivery",
            ratio(c.compress_calls, c.deliveries),
        ),
        (
            "crypto.lane_fill",
            ratio(
                c.lanes_filled,
                drum_crypto::multiway::LANES as f64 * c.compress_calls,
            ),
        ),
        ("core.buffer_bytes_peak", c.buffer_bytes_peak),
        ("core.stream_backpressure", c.backpressure),
        (
            "probe.calls_min",
            probes.iter().map(|p| p.calls).min().unwrap_or(0) as f64,
        ),
        ("probe.seconds", probe_seconds),
    ]);

    // The measured ledger: spans around the virtual-time driver's calls.
    let l = d.ledger.unwrap_or_default();
    let per_round_us = |ns: u64| ratio(ns as f64 / 1e3, l.node_rounds as f64);
    let share = |ns: u64| ratio(ns as f64, l.stack_ns as f64);
    v.extend([
        ("net.runtime.tick_us_per_round", per_round_us(l.tick_ns)),
        ("net.runtime.drain_us_per_round", per_round_us(l.drain_ns)),
        ("net.sys.epoll_us_per_round", per_round_us(l.epoll_ns)),
        ("bench.flood_inject_us_per_round", per_round_us(l.flood_ns)),
        ("bench.collect_us_per_round", per_round_us(l.collect_ns)),
        ("ledger.tick_share", share(l.tick_ns)),
        ("ledger.drain_share", share(l.drain_ns)),
        ("ledger.epoll_share", share(l.epoll_ns)),
    ]);

    // The estimated sub-rows: a lifetime count times a probed unit cost,
    // over the time the stack ran.
    for p in probes {
        v.insert(p.name, p.median_ns);
    }
    let ns = |name: &str| v.get(name).copied().unwrap_or(0.0);
    let bare = (c.sent - c.frames).max(0.0);
    let estimates = [
        (
            "ledger.syscall_share",
            c.recv_syscalls * ns("transport.recv_empty_ns")
                + c.dgrams_recv * ns("transport.recv_ns_per_dgram")
                + c.sent * ns("transport.send_ns_per_dgram"),
        ),
        (
            "ledger.decode_share",
            c.frames * ns("codec.frame_decode_ns")
                + (c.dgrams_recv - c.frames - c.decode_errors).max(0.0)
                    * ns("codec.decode_ctrl_ns")
                + c.decode_errors * ns("codec.decode_reject_ns"),
        ),
        (
            "ledger.mac_share",
            // Frame tags and message tags: the blocks the engines report
            // hashing.
            c.lanes_filled * ns("crypto.mac_ns_per_block"),
        ),
        (
            "ledger.seal_share",
            // A sealed port written and opened per control message.
            bare * (ns("crypto.seal_port_ns") + ns("crypto.open_port_ns")),
        ),
        (
            "ledger.encode_share",
            c.frames * ns("codec.frame_build_ns") + bare * ns("codec.encode_ctrl_ns"),
        ),
        (
            "ledger.engine_buffer_share",
            rounds * ns("core.engine.begin_round_ns")
                + c.deliveries * ns("core.engine.handle_data_ns_per_msg")
                + c.budget_drops * ns("core.engine.handle_flood_ns")
                + c.frames * ns("core.buffer.select_missing_ns"),
        ),
    ]
    .map(|(name, cost_ns)| (name, ratio(cost_ns, d.stack_s * 1e9)));
    let attributed: f64 = estimates.iter().map(|(_, s)| s).sum();
    v.extend(estimates);
    v.insert("ledger.unattributed_share", 1.0 - attributed);
    in_table_order(&PER_LAYER, &v)
}

/// Why the run's outputs are not correct (empty when they are).
pub fn failures(w: &Workload, d: &RunData) -> Vec<String> {
    let c = Counts::of(&d.stats);
    let o = &d.outcome;
    let mut out = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            out.push(what);
        }
    };
    check(
        o.bad_payload == 0,
        format!("{} delivered payloads are not ours", o.bad_payload),
    );
    check(
        o.unknown_seq == 0,
        format!("{} deliveries of unpublished messages", o.unknown_seq),
    );
    check(
        o.duplicates == 0,
        format!("{} duplicate deliveries", o.duplicates),
    );
    check(
        c.auth_drops == 0.0,
        format!("net.auth_drops = {}", c.auth_drops),
    );
    check(
        c.frames_rejected == 0.0,
        format!("net.frames_rejected = {}", c.frames_rejected),
    );
    check(
        c.alloc_failed == 0.0,
        format!("net.alloc_failed = {}", c.alloc_failed),
    );
    check(
        o.delivered_fraction() >= DELIVERED_FLOOR,
        format!(
            "delivered_fraction {:.5} below {DELIVERED_FLOOR} ({} of {} failed)",
            o.delivered_fraction(),
            o.failed(),
            o.attempted
        ),
    );
    // The flood has to have landed for a flood workload to mean anything.
    check(
        w.attacked == 0 || c.budget_drops > 0.0,
        "flooded, yet no budget drops".into(),
    );
    check(
        w.garbage_every == 0 || c.decode_errors > 0.0,
        "garbage injected, yet no decode errors".into(),
    );
    if let Some(why) = &d.invalid {
        out.push(format!("invalid run: {why}"));
    }
    out
}

/// The line the driver reads: the last line of standard output.
pub fn result_line(correct: bool, d: &RunData, metrics: &Metrics) -> String {
    let metrics = metrics
        .iter()
        .map(|(def, v)| {
            let entry = Json::Obj(vec![
                ("value".into(), Json::Num(*v)),
                ("unit".into(), Json::Str(def.unit.into())),
            ]);
            (def.name.to_string(), entry)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Num(d.outcome.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(d.outcome.failed() as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string()
}

pub fn print_metrics(metrics: &Metrics) {
    for (def, v) in metrics {
        println!("{:<40} {:>16.4} {}", def.name, v, def.unit);
    }
}

/// The spread of a metric's runs as a share of their median: the distance
/// between the quartiles, or the whole range when there are too few runs
/// for quartiles.
fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let q = |v: &mut [f64], q| drum_metrics::stats::quantile_in_place(v, q);
    let width = if v.len() >= 4 {
        q(&mut v, 0.75) - q(&mut v, 0.25)
    } else {
        q(&mut v, 1.0) - q(&mut v, 0.0)
    };
    ratio(width, median(v).abs())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judges runs `b` against baseline runs `a` of one metric on one workload.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a.to_vec()), median(b.to_vec()));
    let worse_by = match def.better {
        Better::Lower => ratio(mb - ma, ma.abs()),
        Better::Higher => ratio(ma - mb, ma.abs()),
    };
    let beats = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    if spread(a).max(spread(b)) > def.bound {
        // Too noisy to call — unless every run of one side beats every run
        // of the other.
        if b.iter().all(|&x| a.iter().all(|&y| beats(x, y))) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > def.bound {
        Verdict::Worse
    } else if worse_by < -def.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn runs_of(result: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    result
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Prints one row per (end-to-end metric, workload); returns whether every
/// row is `better` or `same`.
pub fn compare(a: &Json, b: &Json) -> bool {
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "bound", "spread A", "spread B"
    );
    let mut agree = true;
    for w in &crate::spec::WORKLOADS {
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (runs_of(a, w.name, def.name), runs_of(b, w.name, def.name))
            else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(def, &va, &vb);
            agree &= matches!(verdict, Verdict::Better | Verdict::Same);
            println!(
                "{:<14} {:<22} {:>14.4} {:>14.4} {:>7.3} {:>8.4} {:>8.4}  {}",
                w.name,
                def.name,
                median(va.clone()),
                median(vb.clone()),
                def.bound,
                spread(&va),
                spread(&vb),
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    agree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Better::{Higher, Lower};

    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&def(Lower), &base, &[103.0, 104.0, 102.0]),
            Verdict::Same
        );
        assert_eq!(
            judge(&def(Lower), &base, &[120.0, 121.0, 119.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(&def(Lower), &base, &[80.0, 81.0, 79.0]),
            Verdict::Better
        );
        assert_eq!(
            judge(&def(Higher), &base, &[80.0, 81.0, 79.0]),
            Verdict::Worse
        );
        // Spread beyond the bound: unresolved, unless one side wins every pair.
        assert_eq!(
            judge(&def(Lower), &base, &[90.0, 130.0, 100.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&def(Lower), &base, &[50.0, 70.0, 60.0]),
            Verdict::Better
        );
    }

    #[test]
    fn spread_uses_quartiles_when_it_can() {
        assert!((spread(&[10.0, 10.0, 11.0]) - 0.1).abs() < 1e-9);
        let many: Vec<f64> = (0..10).map(f64::from).collect();
        assert!((spread(&many) - 4.5 / 4.5).abs() < 1e-9);
    }
}
