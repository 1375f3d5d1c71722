//! The driver: one event loop steps a shard of [`NodeCore`]s.
//!
//! A *shard* owns N nodes — one is a process on a thread of its own, a
//! thousand is a cluster on a handful of threads — on a single OS thread.
//! Every receive socket of every engine is registered in one shared epoll
//! instance with a token of `pack_token(engine, class)`, so a readiness
//! event routes straight to the owning engine's drain for exactly that
//! channel — one epoll wakeup serves datagram work for many engines. An
//! engine's rotating random-port pool is one registration: the pool keeps
//! its sockets in an inner epoll and receives only on the readable ones
//! (see [`crate::transport::SocketPool`]). Round starts fire from a
//! per-shard [`TimerWheel`] (a binary heap of fixed-cadence deadlines): the
//! loop blocks for exactly the time to the earliest deadline across all
//! engines (`epoll_pwait2`, nanosecond timeout) or until any socket is
//! readable. The thread therefore wakes once per round tick and once per
//! burst of datagrams — its CPU follows the work it serves, not wall time
//! × live sockets. An engine holds ~25 descriptors (DESIGN.md §16 has the
//! budget). A shard that cannot build its epoll does not start.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drum_core::bytes::Bytes;
use drum_core::ids::ProcessId;
use drum_trace::{names, Counter};

use crate::codec;
use crate::node::NetStats;
use crate::runtime::{unpack_token, Delivery, NodeCore, ProcessSpec};
use crate::sys;
use crate::transport::{bind_ephemeral, BatchRx, BatchTx};

/// Upper bound on a single epoll wait of the event loop. A wait is
/// otherwise exactly as long as the time to the next round deadline; the
/// cap only bounds how long a stop request can go unnoticed, at the price
/// of at most 40 extra wakeups per second on an idle shard, and is the
/// whole wait of a shard whose wheel is empty.
const EPOLL_WAIT_CAP: Duration = Duration::from_millis(25);

/// A binary heap of fixed-cadence round deadlines, one live entry per
/// engine. Deadlines pop in nondecreasing order; ties break on the lower
/// engine index so firing order is deterministic.
#[derive(Debug, Default)]
pub struct TimerWheel {
    heap: BinaryHeap<Reverse<(Instant, usize)>>,
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `engine`'s next deadline.
    pub fn push(&mut self, deadline: Instant, engine: usize) {
        self.heap.push(Reverse((deadline, engine)));
    }

    /// The earliest armed deadline, if any.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((d, _))| *d)
    }

    /// Pops the earliest deadline if it is due at `now`.
    pub fn pop_due(&mut self, now: Instant) -> Option<(Instant, usize)> {
        match self.heap.peek() {
            Some(Reverse((d, _))) if *d <= now => self.heap.pop().map(|Reverse(e)| e),
            _ => None,
        }
    }

    /// Number of armed deadlines.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the wheel is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// One engine's application-facing channels. The [`ShardHandle`] owns
/// shutdown for all engines of its shard.
#[derive(Debug)]
pub struct EngineHandle {
    id: ProcessId,
    publish_tx: Sender<Bytes>,
    delivered_rx: Receiver<Delivery>,
}

impl EngineHandle {
    /// The engine's process id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Queues a payload for multicast origination at this engine's next
    /// round start.
    pub fn publish(&self, payload: Bytes) {
        let _ = self.publish_tx.send(payload);
    }

    /// Receiver of delivered messages.
    pub fn delivered(&self) -> &Receiver<Delivery> {
        &self.delivered_rx
    }

    /// Drains everything currently delivered.
    pub fn take_delivered(&self) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Ok(d) = self.delivered_rx.try_recv() {
            out.push(d);
        }
        out
    }
}

/// Handle to a running shard thread. Dropping it stops the shard.
#[derive(Debug)]
pub struct ShardHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<Vec<NetStats>>>,
}

impl ShardHandle {
    /// Asks the shard to stop without waiting for it, so several shards
    /// can wind down at once before [`ShardHandle::shutdown`] joins them.
    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Signals the shard to stop and waits for it; returns each engine's
    /// final stats, in the order the specs were passed to [`spawn_shard`].
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the shard thread.
    pub fn shutdown(mut self) -> Vec<NetStats> {
        self.request_stop();
        self.join
            .take()
            .expect("shutdown called once")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// One engine's spec and the shard-side ends of its application channels.
type Lane = (ProcessSpec, Receiver<Bytes>, Sender<Delivery>);

/// The single-threaded state of one shard: N nodes, their shared send
/// socket and I/O batchers, the shared epoll instance, and the timer
/// wheel. [`spawn_shard`] runs it on its own thread; tests drive the same
/// steps ([`ShardCore::start_all`], [`ShardCore::fire_due`],
/// [`ShardCore::poll_io`]) with synthetic clocks.
pub struct ShardCore {
    nodes: Vec<NodeCore>,
    send_socket: UdpSocket,
    rx: BatchRx,
    tx: BatchTx,
    epoll: sys::Epoll,
    wheel: TimerWheel,
    tokens: Vec<u64>,
    prev_sys: (u64, u64, u64),
    c_wakeups: Counter,
    c_dispatch: Counter,
    c_sys_recv: Counter,
    c_sys_send: Counter,
    c_batch_fill: Counter,
}

impl ShardCore {
    /// Builds a shard from one `(spec, publish_rx, delivered_tx)` lane per
    /// engine. Binds the shared send socket, creates the shared epoll
    /// instance and registers every engine's receive sockets in it with
    /// engine-indexed tokens.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] if `lanes` is empty, the send socket
    /// cannot be bound, the epoll cannot be created or any registration
    /// fails — the kernel's error, not a degraded shard.
    pub fn new(lanes: Vec<Lane>) -> io::Result<Self> {
        let first = lanes
            .first()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty shard"))?;
        let reg = first.0.config.tracer.registry().clone();
        let send_socket = bind_ephemeral()?;
        let epoll = sys::Epoll::new()?;
        let mut nodes = Vec::with_capacity(lanes.len());
        for (i, (spec, publish_rx, delivered_tx)) in lanes.into_iter().enumerate() {
            let mut node = NodeCore::new(spec, publish_rx, delivered_tx);
            node.register(&epoll, i)?;
            nodes.push(node);
        }
        Ok(ShardCore {
            nodes,
            send_socket,
            rx: BatchRx::new(codec::MAX_WIRE_LEN + 1),
            tx: BatchTx::new(),
            epoll,
            wheel: TimerWheel::new(),
            tokens: Vec::new(),
            prev_sys: (0, 0, 0),
            c_wakeups: reg.counter(names::SHARD_WAKEUPS),
            c_dispatch: reg.counter(names::SHARD_DISPATCH),
            c_sys_recv: reg.counter(names::SYSCALLS_RECV),
            c_sys_send: reg.counter(names::SYSCALLS_SEND),
            c_batch_fill: reg.counter(names::BATCH_FILL),
        })
    }

    /// Number of engines in the shard.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the shard has no engines.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrows one engine's core (test observability).
    pub fn node(&self, engine: usize) -> &NodeCore {
        &self.nodes[engine]
    }

    /// Starts every engine's first round and arms its first deadline.
    pub fn start_all(&mut self, now: Instant) {
        for i in 0..self.nodes.len() {
            self.wheel.push(now, i);
        }
        self.fire_due(now);
    }

    /// Fires every due deadline: each fired engine finishes its running
    /// round, starts the next, and is re-armed on the fixed cadence (its
    /// new deadline advances from the fired one, not from `now` — see
    /// `node::advance_deadline`). Returns how many engines fired.
    pub fn fire_due(&mut self, now: Instant) -> usize {
        let mut fired = 0;
        while let Some((deadline, i)) = self.wheel.pop_due(now) {
            let next = self.nodes[i].next_deadline(deadline, now);
            self.nodes[i].round_tick(&self.send_socket, &mut self.tx);
            self.wheel.push(next, i);
            fired += 1;
        }
        fired
    }

    /// One I/O pass: block until any socket is readable or the earliest
    /// wheel deadline arrives (capped at `EPOLL_WAIT_CAP`), then
    /// dispatch each ready token to the owning engine's channel drain.
    /// `now` must be a fresh reading taken after [`ShardCore::fire_due`]:
    /// the wait is the whole time from `now` to that deadline.
    pub fn poll_io(&mut self, now: Instant) {
        let until = self
            .wheel
            .next_deadline()
            .map_or(EPOLL_WAIT_CAP, |d| d.saturating_duration_since(now));
        self.tokens.clear();
        let _ = self
            .epoll
            .wait_tagged_for(until.min(EPOLL_WAIT_CAP), &mut self.tokens);
        self.c_wakeups.inc();
        // Every registration is one descriptor with a token of its own, so
        // no token repeats; sorting fixes the dispatch order (engine, then
        // channel class) whatever order the kernel reported them in.
        self.tokens.sort_unstable();
        let mut dispatched = 0u64;
        for &token in &self.tokens {
            let (engine, class) = unpack_token(token);
            let Some(class) = class else { continue };
            let Some(node) = self.nodes.get_mut(engine) else {
                continue;
            };
            node.drain_class(
                class,
                &mut self.rx,
                &mut [],
                &self.send_socket,
                &mut self.tx,
            );
            dispatched += 1;
        }
        self.c_dispatch.add(dispatched);
    }

    /// Mirrors the shared batchers' syscall totals into the registry as
    /// deltas. The per-engine `finish_round` cannot do this (the batchers
    /// are shared by the whole shard), so the shard accounts once per loop
    /// iteration.
    fn account_sys(&mut self) {
        let cur = (
            self.rx.syscalls(),
            self.tx.syscalls(),
            self.rx.batched_datagrams(),
        );
        self.c_sys_recv.add(cur.0 - self.prev_sys.0);
        self.c_sys_send.add(cur.1 - self.prev_sys.1);
        self.c_batch_fill.add(cur.2 - self.prev_sys.2);
        self.prev_sys = cur;
    }

    /// The blocking event loop: fire due rounds, block for I/O, dispatch,
    /// account — until `stop`.
    pub fn run(&mut self, stop: &AtomicBool) {
        self.start_all(Instant::now());
        while !stop.load(Ordering::Relaxed) {
            self.fire_due(Instant::now());
            self.poll_io(Instant::now());
            self.account_sys();
        }
    }

    /// Tears the shard down: finalizes every engine (finishing rounds in
    /// flight) and returns their stats in lane order. Every engine reports
    /// the shard's *shared* syscall totals.
    pub fn into_stats(mut self) -> Vec<NetStats> {
        self.account_sys();
        let totals = (
            self.rx.syscalls(),
            self.tx.syscalls(),
            self.rx.batched_datagrams(),
        );
        self.nodes
            .into_iter()
            .map(|n| n.finalize(Some(totals)))
            .collect()
    }
}

/// Opens each spec's application channels: the shard keeps the lane, the
/// caller the handle.
fn lanes(specs: Vec<ProcessSpec>) -> (Vec<Lane>, Vec<EngineHandle>) {
    specs
        .into_iter()
        .map(|spec| {
            let (publish_tx, publish_rx) = channel::<Bytes>();
            let (delivered_tx, delivered_rx) = channel::<Delivery>();
            let engine = EngineHandle {
                id: spec.me,
                publish_tx,
                delivered_rx,
            };
            ((spec, publish_rx, delivered_tx), engine)
        })
        .unzip()
}

/// Spawns one shard thread multiplexing every engine in `specs`; returns
/// the shard handle plus one [`EngineHandle`] per spec, in order.
///
/// # Errors
///
/// Returns an [`io::Error`] if `specs` is empty or the shard's shared
/// send socket cannot be bound.
pub fn spawn_shard(specs: Vec<ProcessSpec>) -> io::Result<(ShardHandle, Vec<EngineHandle>)> {
    let (lanes, engines) = lanes(specs);
    let name = format!(
        "drum-shard-{}x{}",
        engines.first().map(|e| e.id.as_u64()).unwrap_or(0),
        engines.len()
    );
    // Built on the caller's thread so bind/registration errors surface
    // synchronously.
    let mut core = ShardCore::new(lanes)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let join = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            core.run(&stop_flag);
            core.into_stats()
        })
        .expect("failed to spawn shard thread");
    Ok((
        ShardHandle {
            stop,
            join: Some(join),
        },
        engines,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NetConfig;
    use crate::runtime::tests::specs;
    use crate::runtime::{pack_token, ChannelClass};
    use drum_core::config::GossipConfig;
    use drum_testkit::prop::{check, Config, Gen};
    use drum_testkit::prop_assert;

    #[test]
    fn timer_wheel_pops_nondecreasing_with_index_tiebreak() {
        let base = Instant::now();
        let mut wheel = TimerWheel::new();
        // Shuffled pushes, including exact ties.
        let entries = [(30u64, 2usize), (10, 7), (20, 1), (10, 3), (30, 0), (10, 5)];
        for (ms, engine) in entries {
            wheel.push(base + Duration::from_millis(ms), engine);
        }
        assert_eq!(wheel.len(), entries.len());
        assert_eq!(
            wheel.next_deadline(),
            Some(base + Duration::from_millis(10))
        );

        // Nothing is due before the earliest deadline.
        assert!(wheel.pop_due(base).is_none());

        let far = base + Duration::from_secs(1);
        let mut popped = Vec::new();
        while let Some((d, e)) = wheel.pop_due(far) {
            popped.push((d, e));
        }
        assert!(wheel.is_empty());
        assert_eq!(
            popped,
            vec![
                (base + Duration::from_millis(10), 3),
                (base + Duration::from_millis(10), 5),
                (base + Duration::from_millis(10), 7),
                (base + Duration::from_millis(20), 1),
                (base + Duration::from_millis(30), 0),
                (base + Duration::from_millis(30), 2),
            ],
            "pops must be nondecreasing, ties by engine index"
        );
    }

    #[test]
    fn timer_wheel_ordering_property() {
        let base = Instant::now();
        check(
            "timer_wheel_ordering_property",
            Config::with_cases(50),
            |g: &mut Gen| {
                let mut wheel = TimerWheel::new();
                let n = g.u64_in(1..40) as usize;
                for engine in 0..n {
                    wheel.push(base + Duration::from_millis(g.u64_in(0..50)), engine);
                }
                let far = base + Duration::from_secs(10);
                let mut prev: Option<(Instant, usize)> = None;
                let mut count = 0;
                while let Some(e) = wheel.pop_due(far) {
                    if let Some(p) = prev {
                        prop_assert!(p <= e, "wheel popped out of order: {p:?} then {e:?}");
                    }
                    prev = Some(e);
                    count += 1;
                }
                prop_assert!(count == n, "all armed deadlines must pop");
                Ok(())
            },
        );
    }

    #[test]
    fn tokens_round_trip_engine_and_class() {
        for engine in [0usize, 1, 63, 999, 100_000] {
            for class in ChannelClass::ALL {
                let (e, c) = unpack_token(pack_token(engine, class));
                assert_eq!((e, c), (engine, Some(class)));
            }
        }
        // Unused class codes decode to None instead of a bogus class.
        assert_eq!(unpack_token(7), (0, None));
        assert_eq!(unpack_token((5 << 3) | 6), (5, None));
    }

    fn shard_specs(n: u64, round_ms: u64, tracer: drum_trace::Tracer) -> Vec<ProcessSpec> {
        let config = NetConfig::new(GossipConfig::drum())
            .with_round(Duration::from_millis(round_ms))
            .with_tracer(tracer);
        specs(n, 41, config).0
    }

    /// The event loop wakes for round ticks and for datagrams, not for
    /// the passage of time: a count, so it holds on any machine. (A loop
    /// that polls through the sub-millisecond remainder before each
    /// deadline makes ~10^5 wakeups in this second.)
    #[test]
    fn shard_wakeups_are_bounded_by_rounds_and_datagrams() {
        let tracer = drum_trace::Tracer::disabled();
        let wakeups = tracer.registry().counter(names::SHARD_WAKEUPS);
        let (shard, engines) = spawn_shard(shard_specs(6, 40, tracer)).unwrap();
        engines[0].publish(Bytes::from_static(b"count me"));
        std::thread::sleep(Duration::from_secs(1));
        let stats = shard.shutdown();
        let rounds: u64 = stats.iter().map(|s| s.rounds).sum();
        let datagrams: u64 = stats.iter().map(|s| s.received + s.decode_errors).sum();
        assert!(rounds >= 6 * 10, "the shard must have run: {rounds} rounds");
        assert!(
            wakeups.get() <= 4 * (rounds + datagrams) + 64,
            "{} wakeups for {rounds} rounds and {datagrams} datagrams",
            wakeups.get()
        );
    }

    #[test]
    fn sharded_drum_disseminates_over_udp() {
        let (shard, engines) =
            spawn_shard(shard_specs(6, 40, drum_trace::Tracer::disabled())).unwrap();
        engines[0].publish(Bytes::from_static(b"hello shard"));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut received = [false; 6];
        received[0] = true;
        while Instant::now() < deadline && received.iter().any(|r| !r) {
            for (i, e) in engines.iter().enumerate() {
                for d in e.take_delivered() {
                    assert_eq!(d.message.payload, Bytes::from_static(b"hello shard"));
                    received[i] = true;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for (i, r) in received.iter().enumerate() {
            assert!(*r, "engine {i} never received the message");
        }
        let stats = shard.shutdown();
        assert_eq!(stats.len(), 6);
        for s in &stats {
            assert!(s.rounds > 0, "every engine must have run rounds: {s:?}");
        }
    }

    /// A shard whose epoll registrations fail does not start: every
    /// registration it makes — each engine's well-known pair and its
    /// pool's readiness set — is the kernel's error from
    /// [`ShardCore::new`], never a shard that runs without dispatch.
    #[test]
    fn a_shard_whose_epoll_registration_fails_is_an_error() {
        let build = |fail_after: Option<u32>| {
            let (lanes, _engines) = lanes(shard_specs(2, 20, drum_trace::Tracer::disabled()));
            sys::fault::fail_registration_after(fail_after);
            let built = ShardCore::new(lanes);
            sys::fault::fail_registration_after(None);
            built
        };
        // Three registrations per engine: pull, push and the pool.
        for k in 0..6 {
            let err = build(Some(k))
                .err()
                .unwrap_or_else(|| panic!("registration {k} failed, yet the shard was built"));
            assert_eq!(err.raw_os_error(), Some(28), "ENOSPC, as the hook made it");
        }
        let shard = build(Some(6)).expect("six registrations succeeded");
        assert_eq!(shard.len(), 2);
    }

    #[test]
    fn empty_shard_is_an_error() {
        assert!(spawn_shard(Vec::new()).is_err());
    }
}
