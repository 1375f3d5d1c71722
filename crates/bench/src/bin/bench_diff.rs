//! Compares a fresh `hotpath` run against the checked-in baseline and
//! fails on regressions in the *machine-independent exact* metrics.
//!
//! ```text
//! bench_diff BENCH_hotpath.json /tmp/bench_current.json
//! ```
//!
//! The hotpath suite mixes two kinds of comparison (see its module docs):
//! timed paths, whose ns/op numbers track the host machine, and modeled
//! counts — syscalls per datagram, epoll wakeups per engine, MAC verifies
//! per datagram, scheduling spans — that are exact constants of the code
//! for a fixed scenario. Only the second kind is diffable across machines,
//! so this tool compares exactly those units and ignores the timed ones.
//! CI runs it against the committed `BENCH_hotpath.json`: any exact metric
//! getting *worse* than the baseline (beyond a float-formatting epsilon)
//! is a regression in the mechanism the number pins down — batching
//! silently disabled, a scheduler chunking change, a verifier cache miss —
//! and fails the job, while wall-clock noise on shared runners cannot.
//!
//! Exit status: 0 clean, 1 regression(s), 2 usage/parse errors. Baseline
//! benches missing from the current run (e.g. syscall benches skipped off
//! Linux) are reported and tolerated; a bench present in both must not
//! regress.

use std::process::ExitCode;

use drum_metrics::json::Json;

/// Units whose numbers are exact machine-independent counts (everything
/// else in the suite is wall-clock and excluded by design).
const EXACT_UNITS: &[&str] = &[
    "sys/dgram",
    "verifies/dgram",
    "rounds",
    "idle/job",
    "split",
    "merge-ops",
    "compress-calls/block",
];

/// Slack for decimal round-tripping of the stored f64s; exact metrics
/// differ structurally (2x, 64x), never by 0.1%.
const EPSILON: f64 = 1e-3;

struct Entry {
    name: String,
    unit: String,
    current_per_op: f64,
    speedup: f64,
}

fn load(path: &str) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let results = json
        .get("results")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no results array"))?;
    results
        .iter()
        .map(|r| {
            let field = |k: &str| {
                r.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{path}: result missing '{k}'"))
            };
            let num = |k: &str| {
                r.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{path}: result missing '{k}'"))
            };
            Ok(Entry {
                name: field("name")?,
                unit: field("unit")?,
                current_per_op: num("current_per_op")?,
                speedup: num("speedup")?,
            })
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = match args.as_slice() {
        [b, c] => [b.clone(), c.clone()],
        _ => {
            eprintln!("usage: bench_diff <baseline.json> <current.json>");
            return ExitCode::from(2);
        }
    };
    let (baseline, current) = match (load(&baseline_path), load(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    println!("=== bench_diff: {baseline_path} -> {current_path} ===");
    println!(
        "  {:<24} {:>14} {:>14} {:>14}  status",
        "benchmark", "unit", "baseline", "current"
    );
    let mut regressions = 0u32;
    let mut compared = 0u32;
    for base in &baseline {
        if !EXACT_UNITS.contains(&base.unit.as_str()) {
            println!(
                "  {:<24} {:>14} {:>14} {:>14}  skipped (wall-clock)",
                base.name, base.unit, "-", "-"
            );
            continue;
        }
        let Some(cur) = current.iter().find(|c| c.name == base.name) else {
            println!(
                "  {:<24} {:>14} {:>14.4} {:>14}  missing in current run",
                base.name, base.unit, base.current_per_op, "-"
            );
            continue;
        };
        compared += 1;
        // "Worse" for every exact unit means: more of the cost per unit of
        // work (per_op up), or the seed/current ratio shrinking.
        let worse = cur.current_per_op > base.current_per_op + EPSILON
            || cur.speedup < base.speedup - EPSILON;
        println!(
            "  {:<24} {:>14} {:>14.4} {:>14.4}  {}",
            base.name,
            base.unit,
            base.current_per_op,
            cur.current_per_op,
            if worse { "REGRESSION" } else { "ok" }
        );
        if worse {
            regressions += 1;
        }
    }

    if compared == 0 {
        eprintln!("bench_diff: no exact metrics compared — is the current run complete?");
        return ExitCode::from(2);
    }
    if regressions > 0 {
        eprintln!("bench_diff: {regressions} exact-metric regression(s)");
        return ExitCode::from(1);
    }
    println!("bench_diff: {compared} exact metric(s) clean");
    ExitCode::SUCCESS
}
