//! drum-e2e: the end-to-end benchmark of the Drum stack.
//!
//! ```text
//! drum-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! drum-e2e run [--seed <n>] [--seconds <s>] [--runs <r>] [--trace]
//!              [--workload <name>] [--out <file>] [--inject-fault drop|dup|foreign]
//! drum-e2e compare <A.json> <B.json>
//! ```
//!
//! The first form measures one workload in this process and prints, as the
//! last line of standard output, the JSON object the benchmark driver
//! reads. `run` measures every workload, each in a fresh child process of
//! the first form (so memory and thread CPU time do not leak between
//! them), writes `benchmark/out/result.json` and fails if any check
//! fails. `compare` judges two such files against the bounds. See
//! `benchmark/README.md`.

mod check;
mod paced;
mod probes;
mod procfs;
mod report;
mod spec;
mod trace;
mod vtime;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use drum_metrics::json::Json;
use drum_net::NetStats;

use check::{Fault, Outcome};
use spec::{Driver, Workload, WORKLOADS};

/// Everything a driver hands back about one run.
#[derive(Default)]
pub struct RunData {
    pub setup_s: f64,
    pub outcome: Outcome,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    pub deliveries_per_s: f64,
    pub rounds_per_s: f64,
    pub cpu_us_per_delivery: f64,
    /// CPU time of the stack's thread(s) over wall time, measured window.
    pub cpu_share: f64,
    pub attack_cpu_share: f64,
    pub gen_late_p99_ms: f64,
    pub gen_late_max_ms: f64,
    /// Traced over untraced throughput.
    pub overhead_ratio: f64,
    pub ledger: Option<StageLedger>,
    /// Per-node counters at shutdown (cluster lifetime).
    pub stats: Vec<NetStats>,
    pub node_rounds: u64,
    /// How long the stack ran over the cluster's lifetime — what the
    /// lifetime counts are set against.
    pub stack_s: f64,
    pub hostile_dgrams: u64,
    /// Why the numbers measure the machine rather than the program.
    pub invalid: Option<String>,
    pub spans: Option<trace::Spans>,
}

/// Span sums over the traced windows of a virtual-time run.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageLedger {
    pub tick_ns: u64,
    pub drain_ns: u64,
    pub epoll_ns: u64,
    pub flood_ns: u64,
    pub collect_ns: u64,
    pub stack_ns: u64,
    pub node_rounds: u64,
}

pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    drum_metrics::stats::quantile_in_place(&mut values, 0.5)
}

/// Where span files and results go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: PathBuf,
    fault: Option<Fault>,
}

fn parse(args: &[String], trace_takes_value: bool) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        runs: 1,
        out: out_dir().join("result.json"),
        fault: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--trace" && !trace_takes_value {
            parsed.trace = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(Workload::by_name(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => parsed.trace = value == "1",
            "--runs" => parsed.runs = value.parse().map_err(|_| bad())?,
            "--out" => parsed.out = value.into(),
            "--inject-fault" => parsed.fault = Some(Fault::parse(value).ok_or_else(bad)?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(parsed)
}

/// Runs `w` on its driver.
fn drive(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    fault: Option<Fault>,
) -> std::io::Result<RunData> {
    match w.driver {
        Driver::Paced => paced::run(w, seed, seconds, trace, fault),
        Driver::Vtime => vtime::run(w, seed, seconds, trace, fault),
    }
}

/// Measures one workload in this process. Returns whether it was correct.
fn measure(w: &Workload, a: &Args) -> std::io::Result<bool> {
    println!(
        "# drum-e2e {} seed={} seconds={} trace={} | loopback, not a real link | io={} \
         (sys::enabled) simd_preferred={} nproc={}",
        w.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        if drum_net::sys::enabled() {
            "batched"
        } else {
            "per-datagram"
        },
        drum_crypto::multiway::simd_preferred(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("# {}", w.why);
    let data = drive(w, a.seed, a.seconds, a.trace, a.fault)?;
    let metrics = if a.trace {
        if let Some(spans) = &data.spans {
            spans.write(&out_dir().join(format!("{}.trace.json", w.name)), w.name)?;
        }
        let started = Instant::now();
        let probes = probes::run_all(w, a.seed);
        let probe_seconds = started.elapsed().as_secs_f64();
        for p in &probes {
            println!(
                "# probe {:<40} median {:>10.1} ns  p99 {:>10.1} ns  {:>7} calls",
                p.name, p.median_ns, p.p99_ns, p.calls
            );
        }
        report::per_layer(&data, &probes, probe_seconds)
    } else {
        report::end_to_end(&data)
    };
    report::print_metrics(&metrics);
    let o = &data.outcome;
    println!(
        "# operations: {} attempted, {} failed; {} latency samples; generator late p99 {:.3} ms \
         max {:.3} ms",
        o.attempted,
        o.failed(),
        data.samples,
        data.gen_late_p99_ms,
        data.gen_late_max_ms
    );
    let failures = report::failures(w, &data);
    for f in &failures {
        println!("# CHECK FAILED: {f}");
    }
    println!(
        "{}",
        report::result_line(failures.is_empty(), &data, &metrics)
    );
    Ok(failures.is_empty())
}

/// Runs every workload (or the one named) `runs` times, each in a child
/// process, and writes the result file.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| a.workload.is_none_or(|only| only.name == w.name))
    {
        let mut lines = Vec::new();
        for r in 0..a.runs {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &(a.seed + 1000 * r).to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if a.trace { "1" } else { "0" }]);
            if let Some(f) = a.fault {
                cmd.args(["--inject-fault", f.name()]);
            }
            let out = cmd.output().map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            let line = text.lines().last().unwrap_or_default();
            let json = Json::parse(line)
                .map_err(|e| format!("{}: no result line ({e}); {}", w.name, out.status))?;
            all_correct &= json.get("correct").and_then(Json::as_bool) == Some(true);
            lines.push(json);
        }
        workloads.push((w.name.to_string(), merge_runs(&lines)));
    }
    let result = Json::Obj(vec![
        ("seed".into(), Json::Num(a.seed as f64)),
        ("seconds".into(), Json::Num(a.seconds)),
        ("trace".into(), Json::Bool(a.trace)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    if let Some(dir) = a.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&a.out, format!("{result}\n")).map_err(|e| e.to_string())?;
    println!("# wrote {}", a.out.display());
    Ok(all_correct)
}

/// Folds the result lines of one workload's runs into per-metric lists.
fn merge_runs(lines: &[Json]) -> Json {
    let column = |key: &str| Json::Arr(lines.iter().filter_map(|l| l.get(key).cloned()).collect());
    let mut metrics: Vec<(String, Json)> = Vec::new();
    if let Some(Json::Obj(first)) = lines.first().and_then(|l| l.get("metrics")) {
        for (name, entry) in first {
            let values = lines
                .iter()
                .filter_map(|l| l.get("metrics")?.get(name)?.get("value").cloned())
                .collect();
            metrics.push((
                name.clone(),
                Json::Obj(vec![
                    (
                        "unit".into(),
                        entry.get("unit").cloned().unwrap_or(Json::Null),
                    ),
                    ("values".into(), Json::Arr(values)),
                ]),
            ));
        }
    }
    Json::Obj(vec![
        ("correct".into(), column("correct")),
        ("attempted".into(), column("attempted")),
        ("failed".into(), column("failed")),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    // The benchmark states every setting itself: no `DRUM_*` knob of the
    // program may reach it from the caller's environment. Done before any
    // thread exists.
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("DRUM_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse(&args[1..], false).and_then(|a| run_all(&a)),
        Some("compare") => match &args[1..] {
            [a, b] => load(a).and_then(|a| Ok(report::compare(&a, &load(b)?))),
            _ => Err("compare takes two result files".into()),
        },
        _ => parse(&args, true).and_then(|a| {
            let w = a.workload.ok_or("--workload is required")?;
            // The verdict travels in the result line; the exit code says
            // the measurement itself worked.
            measure(w, &a).map(|_| true).map_err(|e| e.to_string())
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("drum-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::{END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` and the tables in `spec.rs` say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = load(path).unwrap();
        let names = |key: &'static str| -> Vec<String> {
            json.field_array(key)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.name));
        for (entry, def) in json
            .field_array("end_to_end")
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(def.better.as_str())
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        for (entry, def) in json
            .field_array("per_layer")
            .unwrap()
            .iter()
            .zip(&PER_LAYER)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(def.better.as_str())
            );
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    fn smoke(name: &str, trace: bool) {
        let w = Workload::by_name(name).unwrap();
        let data = drive(w, 7, 2.0, trace, None).unwrap();
        assert_eq!(report::failures(w, &data), Vec::<String>::new());
        assert!(data.outcome.attempted > 0);
        let metrics = if trace {
            report::per_layer(&data, &probes::run_all(w, 7), 0.0)
        } else {
            report::end_to_end(&data)
        };
        let line = report::result_line(true, &data, &metrics);
        assert_eq!(
            Json::parse(&line)
                .unwrap()
                .get("failed")
                .and_then(Json::as_u64),
            Some(0)
        );
        if !trace {
            assert!(metrics
                .iter()
                .all(|(def, v)| *v > 0.0 || panic!("{} is 0", def.name)));
        }
    }

    // Two seconds of each workload, checker and all.
    #[test]
    fn smoke_paced_calm() {
        smoke("paced_calm", false);
    }

    #[test]
    fn smoke_paced_flood() {
        smoke("paced_flood", false);
    }

    #[test]
    fn smoke_vtime_burst() {
        smoke("vtime_burst", true);
    }

    #[test]
    fn smoke_vtime_hostile() {
        smoke("vtime_hostile", false);
    }

    #[test]
    fn an_injected_fault_fails_the_run() {
        let w = Workload::by_name("vtime_hostile").unwrap();
        for fault in [Fault::DropSeq, Fault::Duplicate, Fault::ForeignPayload] {
            let data = vtime::run(w, 7, 1.0, false, Some(fault)).unwrap();
            assert!(
                !report::failures(w, &data).is_empty(),
                "{fault:?} went unnoticed"
            );
        }
    }
}
