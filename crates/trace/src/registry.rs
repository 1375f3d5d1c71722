//! A process-wide counter/gauge registry.
//!
//! Emission sites hold a [`Counter`] or [`Gauge`] handle (an `Arc`'d
//! atomic — incrementing is lock-free); snapshots are sorted by name so
//! repeated snapshots of identical states render identically, and they
//! export to `drum_metrics` tables and JSON.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use drum_metrics::json::Json;
use drum_metrics::table::Table;

/// Well-known counter names used by the wired layers, so dashboards and
/// tests agree on spelling.
pub mod names {
    /// Datagrams/messages successfully sent.
    pub const MESSAGES_SENT: &str = "messages_sent";
    /// Datagrams/messages received from the wire.
    pub const MESSAGES_RECEIVED: &str = "messages_received";
    /// Messages dropped because a per-round resource bound was exhausted.
    pub const DROPPED_BY_BOUND: &str = "dropped_by_bound";
    /// Pull-requests refused by the pull-channel bound specifically.
    pub const PULL_REQUESTS_REFUSED: &str = "pull_requests_refused";
    /// Random reply-port sockets allocated (port rotations).
    pub const PORT_ROTATIONS: &str = "port_rotations";
    /// Datagrams that failed to decode.
    pub const DECODE_ERRORS: &str = "decode_errors";
    /// Fabricated attack datagrams sent.
    pub const ATTACK_SENT: &str = "attack_sent";
    /// Receive syscalls made by the runtime (`recvmmsg` on the batched
    /// path, `recv_from` on the per-datagram fallback). Under flood this
    /// stays far below `messages_received` + `decode_errors` exactly when
    /// the syscall amortization is working.
    pub const SYSCALLS_RECV: &str = "net.syscalls_recv";
    /// Send syscalls made by the runtime (`sendmmsg` or `send_to`).
    pub const SYSCALLS_SEND: &str = "net.syscalls_send";
    /// Datagrams moved by batched (`recvmmsg`) receive calls; divide by
    /// `net.syscalls_recv` for the mean batch fill. Zero on the fallback
    /// path — a cheap way for dashboards to tell which mode ran.
    pub const BATCH_FILL: &str = "net.batch_fill";
    /// Rounds whose fixed-cadence deadline had already passed when the
    /// previous round's work finished — the load indicator that replaced
    /// the silent cadence drift (the deadline now advances from the
    /// previous deadline, not from `Instant::now()` after round work).
    pub const NET_ROUNDS_LATE: &str = "net.rounds_late";
    /// Outbound messages dropped because their destination port was 0 —
    /// a failed random-port allocation upstream (local bind failure, or a
    /// peer advertising port 0 after exhausting its own oracle).
    pub const NET_ALLOC_FAILED: &str = "net.alloc_failed";
    /// Random-port allocations that found neither a descriptor nor a port
    /// (`EMFILE`, ephemeral range exhausted) and re-advertised an older
    /// port of the same purpose instead. Distinct from `net.alloc_failed`,
    /// which counts only the messages lost to an advertised port 0.
    pub const NET_BIND_FAILED: &str = "net.bind_failed";
    /// Descriptors the random-port pools opened (fresh `socket()` calls).
    /// A pool opens descriptors only while it grows and rotates *ports* on
    /// them afterwards, so per engine-round this falls towards 0 while
    /// `port_rotations` keeps counting; a value near `port_rotations`
    /// means the pools are churning descriptors.
    pub const NET_SOCKETS_OPENED: &str = "net.sockets_opened";
    /// Sharded runtime: `epoll_pwait` wakeups taken by shard event loops.
    /// Divide `net.shard_dispatch` by this for engines-worth of datagram
    /// work served per kernel wakeup.
    pub const SHARD_WAKEUPS: &str = "net.shard_wakeups";
    /// Sharded runtime: ready-socket dispatches (token → engine drain)
    /// performed by shard event loops.
    pub const SHARD_DISPATCH: &str = "net.shard_dispatch";
    /// Full HMAC verifications paid on received data messages. Under an
    /// identical-fan-in flood this stays near the number of *unique*
    /// `(source, seq, tag)` triples per round while `messages_received`
    /// counts every copy — the gap is the batched-verification win.
    pub const MAC_FULL_VERIFIES: &str = "crypto.mac_full_verifies";
    /// Verdicts served from the round-scoped batch-verification cache
    /// instead of recomputing the HMAC (see `drum_crypto::batch`).
    pub const MAC_BATCH_HITS: &str = "crypto.mac_batch_hits";
    /// SHA-256 kernel invocations behind the source verifications that
    /// actually ran: an 8-wide multi-buffer call counts once, as does a
    /// single-block call. The ratio to `crypto.lanes_filled` is the
    /// multiway batching win (1.0 on the direct SHA-NI / scalar path).
    pub const CRYPTO_COMPRESS_CALLS: &str = "crypto.compress_calls";
    /// Total kernel lanes those invocations advanced — i.e. 64-byte blocks
    /// hashed. Fixed-seed runs report identical values with and without
    /// `DRUM_CRYPTO_NO_SIMD=1`; only `crypto.compress_calls` moves.
    pub const CRYPTO_LANES_FILLED: &str = "crypto.lanes_filled";
    /// High-water mark of message-buffer memory (payload bytes plus
    /// per-entry overhead), summed over processes. Bounded buffers keep
    /// this flat under sustained load; see `ext_soak`.
    pub const BUFFER_BYTES_PEAK: &str = "buffer.bytes_peak";
    /// Stream-scheduler submissions that exceeded the configured window
    /// and were queued with backpressure instead of silently dropped.
    pub const STREAM_BACKPRESSURE: &str = "stream.backpressure";
    /// Jobs executed to completion by a `drum_pool::Pool`.
    pub const POOL_JOBS: &str = "pool.jobs";
    /// Pool jobs run by a thread other than their batch's submitter —
    /// the cross-thread redistribution dynamic scheduling exists for.
    /// `pool.steals / pool.jobs` near zero means the submitter did all
    /// the work; near `(threads-1)/threads` means even sharing.
    pub const POOL_STEALS: &str = "pool.steals";
    /// Times an idle pool worker parked on the injector condvar. Stays
    /// flat while a flat sweep keeps the pool fed; climbs when batches
    /// drain between submissions.
    pub const POOL_PARK: &str = "pool.park";
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (open sockets, buffer size).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<Vec<(String, Counter)>>,
    gauges: Mutex<Vec<(String, Gauge)>>,
}

/// A shared, cheaply clonable registry of named counters and gauges.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, creating it at zero on first use.
    /// The same name always yields handles to the same underlying value.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((_, c)) = counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::default();
        counters.push((name.to_string(), c.clone()));
        c
    }

    /// Returns the gauge named `name`, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut gauges = self
            .inner
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((_, g)) = gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::default();
        gauges.push((name.to_string(), g.clone()));
        g
    }

    /// Snapshots every counter and gauge as `(name, value)`, sorted by
    /// name, so identical states snapshot identically.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .chain(
                self.inner
                    .gauges
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .map(|(n, g)| (n.clone(), g.get())),
            )
            .collect();
        out.sort();
        out
    }

    /// Renders the snapshot as a `drum_metrics` text table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec!["metric".into(), "value".into()]);
        for (name, value) in self.snapshot() {
            t.row(vec![name, value.to_string()]);
        }
        t
    }

    /// Serializes the snapshot as a JSON object (sorted keys).
    pub fn to_json(&self) -> String {
        Json::Obj(
            self.snapshot()
                .into_iter()
                .map(|(n, v)| (n, Json::num(v as f64)))
                .collect(),
        )
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_shared_by_name() {
        let reg = Registry::new();
        let a = reg.counter("messages_sent");
        let b = reg.counter("messages_sent");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("messages_sent").get(), 5);
    }

    #[test]
    fn gauge_sets_and_reads() {
        let reg = Registry::new();
        let g = reg.gauge("open_sockets");
        g.set(12);
        assert_eq!(reg.gauge("open_sockets").get(), 12);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("z_last").add(1);
        reg.counter("a_first").add(2);
        reg.gauge("m_gauge").set(7);
        let snap = reg.snapshot();
        assert_eq!(
            snap,
            vec![
                ("a_first".to_string(), 2),
                ("m_gauge".to_string(), 7),
                ("z_last".to_string(), 1),
            ]
        );
    }

    #[test]
    fn table_and_json_render() {
        let reg = Registry::new();
        reg.counter(names::MESSAGES_SENT).add(10);
        reg.counter(names::DROPPED_BY_BOUND).add(3);
        let table = reg.to_table().render();
        assert!(table.contains("messages_sent"));
        assert!(table.contains("10"));
        assert_eq!(
            reg.to_json(),
            r#"{"dropped_by_bound":3,"messages_sent":10}"#
        );
    }

    #[test]
    fn counters_are_thread_safe() {
        let reg = Registry::new();
        let c = reg.counter("shared");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
