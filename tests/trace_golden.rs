//! Golden-trace regression tests: the observability layer as a protocol
//! oracle.
//!
//! A fixed-seed Drum-under-attack simulation is run with a JSON-lines
//! trace sink. Because sim events are round-stamped (no wall clock) and
//! tracing never draws from the simulation RNG, the emitted trace is a
//! pure function of `(config, seed)` — byte for byte.
//! `tests/fixtures/trace_golden_sharded.jsonl` pins it. The stepper's
//! per-process counter-derived streams make the trace independent of
//! `DRUM_POOL_THREADS`.
//!
//! Regenerating after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p drum --test trace_golden
//! ```
//!
//! then review the fixture diff like any other code change.

use std::sync::Arc;

use drum::core::config::ProtocolVariant;
use drum::sim::{run_trial_traced, SimConfig};
use drum::trace::{JsonLinesSink, SharedBuf, Tracer};

const FIXTURE_SHARDED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/trace_golden_sharded.jsonl"
);

/// The canonical scenario: 40 processes, 10% malicious, Drum under a
/// 64-messages-per-round attack, 8 rounds, seed 2004 (the paper's year).
fn canonical_trace() -> String {
    let mut cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 40, 64.0);
    cfg.max_rounds = 8;
    let buf = SharedBuf::new();
    let sink = Arc::new(JsonLinesSink::new(buf.clone()));
    run_trial_traced(&cfg, 2004, 8, Tracer::new(sink));
    buf.contents_string()
}

fn check_fixture(got: &str, fixture: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(fixture, got).expect("failed to write fixture");
        return;
    }
    let want = std::fs::read_to_string(fixture).unwrap_or_else(|_| {
        panic!(
            "missing {fixture} — regenerate with \
             `UPDATE_GOLDEN=1 cargo test -p drum --test trace_golden`"
        )
    });
    assert_eq!(
        got, &want,
        "trace diverged from {fixture}; if the change is intentional, \
         regenerate with `UPDATE_GOLDEN=1 cargo test -p drum --test \
         trace_golden` and review the diff"
    );
}

#[test]
fn fixed_seed_trace_is_byte_identical_across_runs() {
    let first = canonical_trace();
    let second = canonical_trace();
    assert!(!first.is_empty(), "canonical scenario emitted no events");
    assert_eq!(first, second, "fixed-seed trace must be deterministic");
}

#[test]
fn sharded_trace_matches_golden_fixture() {
    check_fixture(&canonical_trace(), FIXTURE_SHARDED);
}

#[test]
fn golden_trace_has_expected_shape() {
    let trace = canonical_trace();
    let lines: Vec<&str> = trace.lines().collect();
    // One sim.start header, then per-round events.
    assert!(lines[0].contains("\"event\":\"sim.start\""));
    assert!(lines[0].contains("\"target\":\"sim\""));
    // Every line is a single JSON object with the fixed key order.
    for line in &lines {
        assert!(line.starts_with("{\"target\":"), "bad line: {line}");
        assert!(line.ends_with('}'), "bad line: {line}");
    }
    // The attacked scenario must actually show attack pressure and
    // deliveries.
    assert!(lines.iter().any(|l| l.contains("\"event\":\"round\"")));
    assert!(lines.iter().any(|l| l.contains("\"event\":\"deliver\"")));
    assert!(lines.iter().any(|l| l.contains("\"fakes_push\"")));
}
