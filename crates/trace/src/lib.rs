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
//! * **Registry** — [`Registry`] of lock-free [`Counter`]s (messages
//!   sent/received, bound drops, port rotations, ...) that snapshots into
//!   a `drum_metrics` table.
//!
//! The [`Tracer`] handle bundles a sink and a registry; the disabled
//! default costs one branch per emission site (measured ≤ a few percent on
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
//! tracer.registry().counter("messages_sent").add(3);
//!
//! assert_eq!(sink.take().len(), 1);
//! assert_eq!(tracer.registry().snapshot(), vec![("messages_sent".into(), 3)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod registry;
pub mod sink;
pub mod tracer;

pub use event::{Event, Field, Timestamp, Value};
pub use registry::{names, Counter, Registry};
pub use sink::{JsonLinesSink, MemorySink, NoopSink, SharedBuf, Sink};
pub use tracer::Tracer;

#[cfg(test)]
mod integration {
    use super::*;
    use std::sync::Arc;

    /// End-to-end: multi-threaded emission into one JSON-lines sink,
    /// counters snapshotting alongside.
    #[test]
    fn threads_to_jsonl() {
        let buf = SharedBuf::new();
        let tracer = Tracer::new(Arc::new(JsonLinesSink::new(buf.clone())));
        let sent = tracer.registry().counter(names::MESSAGES_SENT);

        std::thread::scope(|scope| {
            for t in 0..3u64 {
                let tracer = tracer.clone();
                let sent = sent.clone();
                scope.spawn(move || {
                    for r in 0..10u64 {
                        trace_event!(tracer, "net", "round.begin", Timestamp::Round(r), me = t);
                        sent.inc();
                    }
                });
            }
        });

        tracer.flush();
        assert_eq!(buf.contents_string().lines().count(), 30);
        assert_eq!(sent.get(), 30);
    }
}
