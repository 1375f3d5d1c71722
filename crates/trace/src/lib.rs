//! **drum-trace** — structured observability for the Drum workspace.
//!
//! The paper's results are statements about *per-round internal behaviour*:
//! how many pushes/pulls a target accepts under attack, which resource
//! bound dropped a message, when a message first reached each process.
//! This crate makes that behaviour observable without `println!`
//! archaeology, and — because fixed-seed runs serialize byte-identically —
//! turns traces themselves into a regression oracle (see the golden-trace
//! integration test).
//!
//! Three pieces, all hermetic (no external dependencies):
//!
//! * **Events** — [`Event`] with typed [`Field`]s and a [`Timestamp`] in
//!   sim-rounds (deterministic) or wall-clock microseconds;
//! * **Sinks** — [`NoopSink`] (near-zero overhead), [`MemorySink`]
//!   (tests) and [`JsonLinesSink`] (byte-stable JSON lines via
//!   `drum_metrics::json`); every sink is `Send + Sync`, so threads emit
//!   into one sink directly;
//! * **[`Tracer`]** — the clonable handle threaded through the layers: an
//!   optional sink and a wall-clock epoch.
//!
//! Counts are not kept here: they live where they are made (the engine's
//! round stats, then drum-net's per-node `NetStats`), and a node's `net
//! round` event is their live per-round view. The disabled default
//! tracer costs one branch per emission site (measured ≤ a few percent on
//! the engine-round micro-bench even with a no-op sink attached — see
//! DESIGN.md §Observability).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use drum_trace::{trace_event, MemorySink, Timestamp, Tracer};
//!
//! let sink = Arc::new(MemorySink::new());
//! let tracer = Tracer::new(sink.clone());
//! trace_event!(tracer, "sim", "round", Timestamp::Round(1), with_m = 5usize);
//!
//! assert_eq!(sink.take().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod sink;
pub mod tracer;

pub use event::{Event, Field, Timestamp, Value};
pub use sink::{JsonLinesSink, MemorySink, NoopSink, SharedBuf, Sink};
pub use tracer::Tracer;

#[cfg(test)]
mod integration {
    use super::*;
    use std::sync::Arc;

    /// End-to-end: multi-threaded emission into one JSON-lines sink.
    #[test]
    fn threads_to_jsonl() {
        let buf = SharedBuf::new();
        let tracer = Tracer::new(Arc::new(JsonLinesSink::new(buf.clone())));

        std::thread::scope(|scope| {
            for t in 0..3u64 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    for r in 0..10u64 {
                        trace_event!(tracer, "net", "round.begin", Timestamp::Round(r), me = t);
                    }
                });
            }
        });

        tracer.flush();
        assert_eq!(buf.contents_string().lines().count(), 30);
    }
}
