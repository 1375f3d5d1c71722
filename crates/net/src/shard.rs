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
//! per-shard [`TimerWheel`] (a binary heap of fixed-cadence deadlines).
//!
//! The loop sleeps only when no socket is readable, and then until a
//! datagram arrives or the wheel's earliest deadline *plus a slack h*
//! (`epoll_pwait2`, nanosecond timeout). h is the least of the shard's
//! `round × jitter / 4` (2.5 ms for 50 ms ± 20 % rounds, 0 without
//! jitter). On waking it fires, one at a time, every tick whose drawn
//! deadline lies within h of a fresh clock reading, and drains the epoll
//! between two ticks, so one engine's round-start datagrams are staged at
//! the next before that one ticks, as if its tick had come later. One
//! sleep thus serves every tick drawn within ±h of it. Each tick still
//! fires within ±h of its drawn deadline, and the next deadline advances
//! from the drawn one, so round lengths keep their jittered distribution
//! and no fixed grid of round starts appears (the paper's §4). The
//! thread's CPU follows the work it serves, not wall time × live sockets.
//! An engine holds ~25 descriptors (DESIGN.md §16 has the budget). A
//! shard that cannot build its epoll does not start.

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

use crate::codec;
use crate::node::NetStats;
use crate::runtime::{unpack_token, Delivery, NodeCore, ProcessSpec};
use crate::sys;
use crate::transport::{bind_ephemeral, BatchRx, BatchTx};

/// Upper bound on a single epoll sleep of the event loop. A sleep is
/// otherwise exactly as long as the time to the next wakeup (the earliest
/// round deadline plus the shard's slack); the cap only bounds how long a
/// stop request can go unnoticed, at the price of at most 40 extra
/// wakeups per second on an idle shard, and is the whole sleep of a shard
/// whose wheel is empty.
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

/// How far from its drawn deadline a tick may fire: `round × jitter / 4`,
/// and 0 without jitter. Round lengths are jittered by ±`round × jitter`
/// anyway, so moving a tick by a quarter of that keeps their spread.
fn tick_slack(round: Duration, jitter: f64) -> Duration {
    if jitter > 0.0 {
        round.mul_f64(jitter.min(1.0) / 4.0)
    } else {
        Duration::ZERO
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
    /// h: how far from a wakeup a drawn deadline may lie and still fire
    /// in it (the least `round × jitter / 4` of the shard's engines).
    slack: Duration,
    tokens: Vec<u64>,
    /// Epoll waits made ([`NetStats::shard_wakeups`]).
    wakeups: u64,
    /// Of those, the blocking ones ([`NetStats::shard_sleeps`]).
    sleeps: u64,
    /// Every tick fired: `(drawn deadline, engine, fire time)`.
    #[cfg(test)]
    fired: Vec<(Instant, usize, Instant)>,
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
        if lanes.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "empty shard"));
        }
        let send_socket = bind_ephemeral()?;
        let epoll = sys::Epoll::new()?;
        let slack = lanes
            .iter()
            .map(|(spec, ..)| tick_slack(spec.config.round, spec.config.jitter))
            .min()
            .unwrap_or_default();
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
            slack,
            tokens: Vec::new(),
            wakeups: 0,
            sleeps: 0,
            #[cfg(test)]
            fired: Vec::new(),
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

    /// Fires, one at a time and in deadline order, every tick whose drawn
    /// deadline lies within the slack of `now`, and drains the epoll
    /// between two ticks — the round-start datagrams of the engines that
    /// ticked are staged at the next before it ticks, as if its tick had
    /// come later. Each fired engine finishes its running round, starts
    /// the next, and is re-armed on the fixed cadence (its new deadline
    /// advances from the drawn one, not from `now` — see
    /// `node::advance_deadline`). Without jitter the slack is 0 and only
    /// deadlines at or before `now` fire. Returns how many engines fired.
    pub fn fire_due(&mut self, now: Instant) -> usize {
        let mut fired = 0;
        while let Some((deadline, i)) = self.wheel.pop_due(now + self.slack) {
            if fired > 0 {
                self.wait_dispatch(Duration::ZERO);
            }
            self.tick(deadline, i, now);
            fired += 1;
        }
        fired
    }

    /// Ticks engine `i`, drawn for `deadline`, at `now`, and re-arms it.
    fn tick(&mut self, deadline: Instant, i: usize, now: Instant) {
        let next = self.nodes[i].next_deadline(deadline, now);
        self.nodes[i].round_tick(&self.send_socket, &mut self.tx);
        self.wheel.push(next, i);
        #[cfg(test)]
        self.fired.push((deadline, i, now));
    }

    /// When the loop wakes if no datagram comes first: the slack past the
    /// earliest deadline, so one sleep serves every tick drawn within
    /// ±slack of it.
    fn wake_at(&self) -> Option<Instant> {
        self.wheel.next_deadline().map(|d| d + self.slack)
    }

    /// One I/O pass: dispatches whatever is ready; when nothing is, sleeps
    /// until a socket is readable or the earliest wheel deadline plus the
    /// slack (capped at `EPOLL_WAIT_CAP`) and dispatches what woke it.
    /// Only that blocking wait counts as a sleep. `now` must be a fresh
    /// reading taken after [`ShardCore::fire_due`]: the sleep is the whole
    /// time from `now` to that wakeup.
    pub fn poll_io(&mut self, now: Instant) {
        if self.wait_dispatch(Duration::ZERO) > 0 {
            return;
        }
        let until = self
            .wake_at()
            .map_or(EPOLL_WAIT_CAP, |w| w.saturating_duration_since(now))
            .min(EPOLL_WAIT_CAP);
        if !until.is_zero() {
            self.sleeps += 1;
            self.wait_dispatch(until);
        }
    }

    /// One epoll wait of at most `timeout`, then each ready token
    /// dispatched to the owning engine's channel drain. Returns how many
    /// tokens were ready.
    fn wait_dispatch(&mut self, timeout: Duration) -> usize {
        self.tokens.clear();
        let _ = self.epoll.wait_tagged_for(timeout, &mut self.tokens);
        self.wakeups += 1;
        // Every registration is one descriptor with a token of its own, so
        // no token repeats; sorting fixes the dispatch order (engine, then
        // channel class) whatever order the kernel reported them in.
        self.tokens.sort_unstable();
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
        }
        self.tokens.len()
    }

    /// The blocking event loop: fire the rounds due within the slack,
    /// then dispatch what is ready or sleep until the next wakeup — until
    /// `stop`.
    pub fn run(&mut self, stop: &AtomicBool) {
        self.start_all(Instant::now());
        while !stop.load(Ordering::Relaxed) {
            self.fire_due(Instant::now());
            self.poll_io(Instant::now());
        }
    }

    /// Tears the shard down: finalizes every engine (finishing rounds in
    /// flight) and returns their stats in lane order. The shard-wide
    /// counts — syscalls, batched datagrams, wakeups and sleeps — go to
    /// the first engine only, so a sum over engines counts them once.
    pub fn into_stats(self) -> Vec<NetStats> {
        let totals = (
            self.rx.syscalls(),
            self.tx.syscalls(),
            self.rx.batched_datagrams(),
        );
        let mut stats: Vec<NetStats> = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(i, n)| n.finalize((i == 0).then_some(totals)))
            .collect();
        stats[0].shard_wakeups = self.wakeups;
        stats[0].shard_sleeps = self.sleeps;
        stats
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

    fn shard_specs(n: u64, round_ms: u64) -> Vec<ProcessSpec> {
        let config =
            NetConfig::new(GossipConfig::drum()).with_round(Duration::from_millis(round_ms));
        specs(n, 41, config).0
    }

    /// The event loop wakes for round ticks and for datagrams, not for
    /// the passage of time: a count, so it holds on any machine. (A loop
    /// that polls through the sub-millisecond remainder before each
    /// deadline makes ~10^5 wakeups in this second.)
    #[test]
    fn shard_wakeups_are_bounded_by_rounds_and_datagrams() {
        let (shard, engines) = spawn_shard(shard_specs(6, 40)).unwrap();
        engines[0].publish(Bytes::from_static(b"count me"));
        std::thread::sleep(Duration::from_secs(1));
        let stats = shard.shutdown();
        let rounds: u64 = stats.iter().map(|s| s.rounds).sum();
        let datagrams: u64 = stats.iter().map(|s| s.received + s.decode_errors).sum();
        let wakeups: u64 = stats.iter().map(|s| s.shard_wakeups).sum();
        assert!(rounds >= 6 * 10, "the shard must have run: {rounds} rounds");
        assert!(
            wakeups <= 4 * (rounds + datagrams) + 64,
            "{wakeups} wakeups for {rounds} rounds and {datagrams} datagrams"
        );
    }

    /// The shard-wide counts go to the shard's first engine alone, so a
    /// sum over its engines counts each once.
    #[test]
    fn a_shards_counts_sum_to_its_first_engines() {
        let (shard, engines) = spawn_shard(shard_specs(4, 40)).unwrap();
        engines[0].publish(Bytes::from_static(b"count once"));
        std::thread::sleep(Duration::from_millis(300));
        let stats = shard.shutdown();
        let first = stats[0];
        assert!(
            first.syscalls_recv > 0 && first.shard_wakeups > 0,
            "{first:?}"
        );
        let total: NetStats = stats.into_iter().sum();
        assert_eq!(
            [
                total.syscalls_recv,
                total.syscalls_send,
                total.batch_recv_datagrams,
                total.shard_wakeups,
                total.shard_sleeps,
            ],
            [
                first.syscalls_recv,
                first.syscalls_send,
                first.batch_recv_datagrams,
                first.shard_wakeups,
                first.shard_sleeps,
            ]
        );
    }

    /// A shard of `n` engines on `round_ms` rounds jittered by `jitter`,
    /// not started, with its engines' handles.
    fn idle_shard(n: u64, round_ms: u64, jitter: f64) -> (ShardCore, Vec<EngineHandle>) {
        let mut config =
            NetConfig::new(GossipConfig::drum()).with_round(Duration::from_millis(round_ms));
        config.jitter = jitter;
        let (lanes, engines) = lanes(specs(n, 41, config).0);
        (ShardCore::new(lanes).unwrap(), engines)
    }

    /// Two ticks drawn less than two slacks apart fire in one wakeup, in
    /// deadline order, and the first engine's round-start pull-request is
    /// staged at the second before the second ticks: the second answers it
    /// in that same round start with the message it publishes there.
    #[test]
    fn ticks_within_two_slacks_fire_in_one_pass_with_a_drain_between() {
        let (mut shard, engines) = idle_shard(2, 50, 0.2);
        let h = shard.slack;
        assert_eq!(h, Duration::from_micros(2_500), "50 ms × 0.2 / 4");
        let base = Instant::now();
        let (first, second) = (base, base + 2 * h - Duration::from_micros(100));
        shard.wheel.push(second, 0);
        shard.wheel.push(first, 1);
        engines[0].publish(Bytes::from_static(b"pulled"));

        let t = shard.wake_at().unwrap();
        assert_eq!(t, first + h);
        assert_eq!(shard.fire_due(t), 2);
        assert_eq!(shard.fired, vec![(first, 1, t), (second, 0, t)]);

        // Nothing is due any more: the I/O passes never block.
        let far = base + Duration::from_secs(3_600);
        for _ in 0..8 {
            shard.poll_io(far);
        }
        let got: Vec<Bytes> = engines[1]
            .take_delivered()
            .into_iter()
            .map(|d| d.message.payload)
            .collect();
        assert_eq!(
            got,
            vec![Bytes::from_static(b"pulled")],
            "engine 0 ticked without engine 1's pull-request in its reservoir"
        );
    }

    /// Ticks drawn more than two slacks apart fire in separate wakeups,
    /// each one slack after its deadline.
    #[test]
    fn ticks_further_apart_fire_in_separate_passes() {
        let (mut shard, _engines) = idle_shard(2, 50, 0.2);
        let h = shard.slack;
        let base = Instant::now();
        let later = base + 2 * h + Duration::from_micros(100);
        shard.wheel.push(base, 0);
        shard.wheel.push(later, 1);

        let t = shard.wake_at().unwrap();
        assert_eq!(shard.fire_due(t), 1);
        let u = shard.wake_at().unwrap();
        assert_eq!(u, later + h);
        assert_eq!(shard.fire_due(u), 1);
        assert_eq!(
            shard.fired,
            vec![(base, 0, base + h), (later, 1, later + h)]
        );
    }

    /// Without jitter the slack is 0 and the loop wakes and fires at
    /// each drawn deadline exactly; a wakeup just before a deadline fires
    /// nothing.
    #[test]
    fn without_jitter_every_tick_fires_at_its_deadline() {
        let (mut shard, _engines) = idle_shard(3, 50, 0.0);
        assert_eq!(shard.slack, Duration::ZERO);
        let base = Instant::now();
        for i in 0..3 {
            shard
                .wheel
                .push(base + Duration::from_micros(700 * i as u64), i);
        }
        let mut fired = 0;
        while fired < 30 {
            let t = shard.wake_at().unwrap();
            assert_eq!(shard.fire_due(t - Duration::from_micros(1)), 0);
            fired += shard.fire_due(t);
        }
        assert_eq!(shard.fired.len(), 30);
        for &(deadline, engine, at) in &shard.fired {
            assert_eq!(at, deadline, "engine {engine} fired off its deadline");
        }
    }

    /// For any armed deadlines, slack h and wakeups no later than the
    /// loop's own: every tick fires within ±h of its drawn deadline, in
    /// nondecreasing deadline order, none is skipped, and each engine's
    /// next deadline advances from the drawn one (without jitter: by
    /// exactly one round), never from the fire time.
    #[test]
    fn windowed_ticks_fire_within_the_slack_of_their_drawn_deadlines() {
        const ROUND: Duration = Duration::from_millis(40);
        check(
            "windowed_ticks_fire_within_the_slack_of_their_drawn_deadlines",
            Config::with_cases(24),
            |g: &mut Gen| {
                let n = g.usize_in(1..5);
                let (mut shard, _engines) = idle_shard(n as u64, 40, 0.0);
                let h = Duration::from_micros(g.u64_in(0..10_001));
                shard.slack = h;
                let base = Instant::now();
                let armed: Vec<Instant> = (0..n)
                    .map(|_| base + Duration::from_micros(g.u64_in(0..20_000)))
                    .collect();
                for (i, &d) in armed.iter().enumerate() {
                    shard.wheel.push(d, i);
                }
                let mut prev = base;
                for _ in 0..12 * n {
                    // The loop's own wakeup, or a datagram's earlier one.
                    let wake = shard.wake_at().unwrap();
                    let t = if g.bool(0.5) {
                        wake
                    } else {
                        let span = wake.saturating_duration_since(prev).as_micros() as u64;
                        prev + Duration::from_micros(g.u64_in(0..span + 1))
                    };
                    shard.fire_due(t);
                    let left = shard.wheel.next_deadline().unwrap();
                    prop_assert!(left > t + h, "a tick due at {t:?} was left armed");
                    prev = t;
                }
                let mut last = None;
                let mut next = armed.clone();
                for &(d, i, at) in &shard.fired {
                    prop_assert!(
                        d <= at + h && at <= d + h,
                        "engine {i} fired {:?} from its deadline, slack {h:?}",
                        at.max(d) - at.min(d)
                    );
                    prop_assert!(last <= Some(d), "fired out of deadline order");
                    prop_assert!(d == next[i], "engine {i} skipped or moved a deadline");
                    next[i] = d + ROUND;
                    last = Some(d);
                }
                let mut rearmed: Vec<(Instant, usize)> = Vec::new();
                while let Some(e) = shard.wheel.pop_due(base + Duration::from_secs(3_600)) {
                    rearmed.push(e);
                }
                rearmed.sort_by_key(|&(_, i)| i);
                let want: Vec<_> = next.into_iter().zip(0..n).collect();
                prop_assert!(rearmed == want, "re-armed {rearmed:?}, want {want:?}");
                Ok(())
            },
        );
    }

    #[test]
    fn sharded_drum_disseminates_over_udp() {
        let (shard, engines) = spawn_shard(shard_specs(6, 40)).unwrap();
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
            let (lanes, _engines) = lanes(shard_specs(2, 20));
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
