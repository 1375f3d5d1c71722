//! A process-wide counter registry.
//!
//! Emission sites hold a [`Counter`] handle (an `Arc`'d atomic —
//! incrementing is lock-free); snapshots are sorted by name so repeated
//! snapshots of identical states render identically, and they export to a
//! `drum_metrics` table.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
    /// Receive (`recvmmsg`) syscalls made by the runtime. Under flood
    /// this stays far below `messages_received` + `decode_errors` exactly
    /// when the syscall amortization is working.
    pub const SYSCALLS_RECV: &str = "net.syscalls_recv";
    /// Send (`sendmmsg`) syscalls made by the runtime.
    pub const SYSCALLS_SEND: &str = "net.syscalls_send";
    /// Datagrams moved by the runtime's `recvmmsg` calls; divide by
    /// `net.syscalls_recv` for the mean batch fill.
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
    /// Sharded runtime: epoll waits made by shard event loops, including
    /// the zero-timeout ones that return at once. Divide
    /// `net.shard_dispatch` by this for engines-worth of datagram work
    /// served per wait.
    pub const SHARD_WAKEUPS: &str = "net.shard_wakeups";
    /// Sharded runtime: the epoll waits of [`SHARD_WAKEUPS`] that found
    /// nothing ready and blocked — the thread's sleeps. One sleep serves
    /// every round tick drawn within the shard's slack of its wakeup, so
    /// per engine-round this stays well under 1.
    pub const SHARD_SLEEPS: &str = "net.shard_sleeps";
    /// Sharded runtime: ready-socket dispatches (token → engine drain)
    /// performed by shard event loops.
    pub const SHARD_DISPATCH: &str = "net.shard_dispatch";
    /// HMAC verifications of received data messages: one per message new
    /// to the receiver whose source has a key. Duplicates are skipped
    /// before the MAC, so under an identical-fan-in flood this stays at the
    /// number of unique messages while `messages_received` counts every
    /// copy.
    pub const MAC_FULL_VERIFIES: &str = "crypto.mac_full_verifies";
    /// SHA-256 compressions behind those verifications, one per 64-byte
    /// block hashed (≈ 3 per 50-byte message).
    pub const CRYPTO_COMPRESS_CALLS: &str = "crypto.compress_calls";
    /// High-water mark of message-buffer memory (payload bytes plus
    /// per-entry overhead), summed over processes. Bounded buffers keep
    /// this flat under sustained load; see `ext_soak`.
    pub const BUFFER_BYTES_PEAK: &str = "buffer.bytes_peak";
    /// Stream-scheduler submissions that exceeded the configured window
    /// and were queued with backpressure instead of silently dropped.
    pub const STREAM_BACKPRESSURE: &str = "stream.backpressure";
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

/// A shared, cheaply clonable registry of named counters.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Arc<Mutex<Vec<(String, Counter)>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, creating it at zero on first use.
    /// The same name always yields handles to the same underlying value.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.lock();
        if let Some((_, c)) = counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::default();
        counters.push((name.to_string(), c.clone()));
        c
    }

    /// Snapshots every counter as `(name, value)`, sorted by name, so
    /// identical states snapshot identically.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .lock()
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
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

    fn lock(&self) -> MutexGuard<'_, Vec<(String, Counter)>> {
        self.counters.lock().unwrap_or_else(PoisonError::into_inner)
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
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("z_last").add(1);
        reg.counter("a_first").add(2);
        reg.counter("m_middle").add(7);
        let snap = reg.snapshot();
        assert_eq!(
            snap,
            vec![
                ("a_first".to_string(), 2),
                ("m_middle".to_string(), 7),
                ("z_last".to_string(), 1),
            ]
        );
    }

    #[test]
    fn table_renders() {
        let reg = Registry::new();
        reg.counter(names::MESSAGES_SENT).add(10);
        reg.counter(names::DROPPED_BY_BOUND).add(3);
        let table = reg.to_table().render();
        assert!(table.contains("messages_sent"));
        assert!(table.contains("10"));
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
