//! The protocol half of a gossip node: [`Node`].
//!
//! Mirrors the paper's Java implementation (§8): each node runs its own
//! rounds whose duration is randomly jittered, performs the full
//! push-offer/push-reply/push-data handshake plus pull exchanges through
//! the [`drum_core::engine::Engine`], and discards whatever the per-round
//! budgets reject. "The operations that occur in a round are not
//! synchronized" — process A may send before receiving, B the other way
//! around; only the local round boundaries matter.
//!
//! A [`Node`] touches no socket: datagrams come in as `(Channel, &[u8])`,
//! leave through [`Node::send_outs`], and random ports come from the
//! driver's [`Ports`]. The shard steps it over UDP as a
//! [`crate::runtime::NodeCore`]; [`crate::vtime::VirtualCluster`] steps it
//! in virtual time.

use std::time::{Duration, Instant};

use drum_core::bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use drum_core::config::GossipConfig;
use drum_core::engine::{Engine, Outbound, PortOracle, PortPurpose, SendPort};
use drum_core::ids::{MessageId, ProcessId, Round};
use drum_core::message::{DataMessage, GossipMessage, MessageKind};
use drum_core::stream::{StreamConfig, StreamScheduler};
use drum_core::view::Membership;
use drum_crypto::keys::{KeyStore, SecretKey};
use drum_trace::{trace_event, Tracer};

use crate::codec;

/// Configuration of the networked runtime.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Protocol configuration (variant, fan-out, bounds, ports).
    pub gossip: GossipConfig,
    /// Nominal round duration (1 s in the paper; tests use tens of ms).
    pub round: Duration,
    /// Uniform jitter applied per round: duration ∈ `round × [1−j, 1+j]`.
    /// Round-length randomness is itself a defense: "the attacker cannot
    /// aim its messages for the beginning of a round" (§4).
    pub jitter: f64,
    /// Probability of dropping each outbound datagram (emulated link loss;
    /// 0.0 by default — loopback is lossless, the paper's LAN loses ~1%).
    pub loss: f64,
    /// Observability: cloned into every process (and the attacker, when a
    /// cluster is started through `experiment`). Net events carry
    /// wall-clock timestamps; each node's `net round` event is the live
    /// view of its [`NetStats`], which it returns at shutdown. Disabled by
    /// default.
    pub tracer: Tracer,
    /// Application stream pacing (see [`drum_core::stream`]): how many
    /// queued publishes are released into the gossip layer per round, and
    /// how deep the pending queue may grow before submissions count as
    /// backpressure. The default ([`StreamConfig::unlimited`]) releases
    /// everything immediately.
    pub stream: StreamConfig,
}

impl NetConfig {
    /// Paper-like defaults scaled for local experiments: 100 ms rounds,
    /// ±20% jitter.
    pub fn new(gossip: GossipConfig) -> Self {
        NetConfig {
            gossip,
            round: Duration::from_millis(100),
            jitter: 0.2,
            loss: 0.0,
            tracer: Tracer::disabled(),
            stream: StreamConfig::unlimited(),
        }
    }

    /// Returns a copy with the given application stream pacing.
    pub fn with_stream(mut self, stream: StreamConfig) -> Self {
        self.stream = stream;
        self
    }

    /// Returns a copy with the given tracer attached.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Returns a copy with emulated outbound link loss.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not within `[0, 1)`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1): {loss}");
        self.loss = loss;
        self
    }

    /// Returns a copy with a different round duration.
    pub fn with_round(mut self, round: Duration) -> Self {
        self.round = round;
        self
    }
}

/// Counters reported by a process when it stops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Local rounds executed.
    pub rounds: u64,
    /// Rounds whose fixed-cadence deadline had already passed when the
    /// previous round's work finished. The deadline still advances from
    /// the previous deadline (not from `Instant::now()`), so cadence is
    /// preserved; this counts how often the node was behind it.
    pub rounds_late: u64,
    /// Datagrams that failed to decode.
    pub decode_errors: u64,
    /// Datagrams whose kind did not match the port they arrived on.
    pub port_mismatches: u64,
    /// Messages dropped by the per-round budgets (sum over rounds).
    pub budget_drops: u64,
    /// Data messages dropped due to failed source authentication.
    pub auth_drops: u64,
    /// Outbound messages dropped because their destination port was 0 — a
    /// failed random-port allocation upstream (a local bind failure, or a
    /// peer that advertised port 0 after its own allocation failed).
    pub alloc_failed: u64,
    /// Random-port allocations that could bind nothing and re-advertised
    /// an older port of the same purpose (or 0, which `alloc_failed` then
    /// counts per lost message): descriptor or port exhaustion.
    pub bind_failed: u64,
    /// The `bind_failed` allocations that re-advertised an older port
    /// rather than 0.
    pub ports_reused: u64,
    /// Descriptors the random-port pool opened. Stops growing once the
    /// pool has its high-water of live sockets; ports rotate on those.
    pub sockets_opened: u64,
    /// Random ports the pool handed out.
    pub ports_allocated: u64,
    /// Syscalls the pool spent on those ports: releases, expiry readiness
    /// queries, discarding receives, re-port `bind` + `getsockname`, and
    /// what fresh descriptors cost while the pool grows. Per allocated
    /// port it reads ≈3.2 once the pool has grown.
    pub port_syscalls: u64,
    /// New data messages delivered to the application.
    pub delivered: u64,
    /// Datagrams successfully sent.
    pub sent: u64,
    /// Datagrams that decoded successfully (staged or immediate).
    pub received: u64,
    /// Receive (`recvmmsg`) syscalls made — the amortization the batching
    /// buys is visible as this staying far below the datagram count under
    /// flood. This field, the next two and the two shard counts are the
    /// shard's: its first engine reports them and the others read 0.
    pub syscalls_recv: u64,
    /// Send (`sendmmsg`) syscalls made.
    pub syscalls_send: u64,
    /// Datagrams moved by those `recvmmsg` calls: every datagram the
    /// shard received. Divided by [`NetStats::syscalls_recv`], the mean
    /// batch fill.
    pub batch_recv_datagrams: u64,
    /// Always 0: the runtime no longer builds gossip frames (DESIGN.md
    /// §19). The field stays because `benchmark/` reads it.
    pub frames_sent: u64,
    /// Always 0, like [`NetStats::frames_sent`] (kept for `benchmark/`).
    pub framed_msgs: u64,
    /// Always 0, like [`NetStats::frames_sent`] (kept for `benchmark/`): a
    /// frame datagram is now a decode error like any other unknown tag.
    pub frames_rejected: u64,
    /// High-water mark of message-buffer memory (payload bytes plus
    /// per-entry bookkeeping), sampled at each round end.
    pub buffer_bytes_peak: u64,
    /// Stream-scheduler submissions that found the pending window full
    /// and were queued with backpressure (never silently dropped).
    pub stream_backpressure: u64,
    /// SHA-256 compressions behind this node's source verification, one
    /// per 64-byte block hashed.
    pub compress_calls: u64,
    /// Always equal to [`NetStats::compress_calls`] (kept for
    /// `benchmark/`): every block is hashed one at a time.
    pub lanes_filled: u64,
    /// Epoll waits made by the shard's event loop, the zero-timeout ones
    /// that return at once included. Per engine-round it tracks the
    /// datagrams a round brings, and explodes if the loop ever polls.
    pub shard_wakeups: u64,
    /// Of those waits, the ones that found nothing ready and blocked. One
    /// sleep serves every round tick drawn within the shard's slack of
    /// it, so per engine-round this reads well under 1; a loop that sleeps
    /// until each deadline on its own reads ~1.
    pub shard_sleeps: u64,
}

/// Field-wise totals over nodes.
impl std::iter::Sum for NetStats {
    fn sum<I: Iterator<Item = NetStats>>(iter: I) -> NetStats {
        // Destructuring names every field, so a new one cannot be missed.
        macro_rules! sum_fields {
            ($($f:ident)*) => {
                iter.fold(NetStats::default(), |mut t, NetStats { $($f),* }| {
                    $(t.$f += $f;)*
                    t
                })
            };
        }
        sum_fields! {
            rounds rounds_late decode_errors port_mismatches budget_drops auth_drops
            alloc_failed bind_failed ports_reused sockets_opened ports_allocated
            port_syscalls delivered sent received syscalls_recv syscalls_send
            batch_recv_datagrams frames_sent framed_msgs frames_rejected buffer_bytes_peak
            stream_backpressure compress_calls lanes_filled shard_wakeups shard_sleeps
        }
    }
}

/// Separates a node's own RNG stream (round jitter, loss draws, reservoir
/// shuffles) from its engine's, which take the same seed.
const RNG_SALT: u64 = 0x5DEE_CE66_D1CE_5EED;

/// Mixes a process id into a seed so that a shared base seed still gives
/// every process its own seed.
pub fn seed_of(me: ProcessId) -> u64 {
    me.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Draws a base seed from OS entropy, for deployments where the port and
/// peer randomization must be unpredictable to an outside observer rather
/// than reproducible. Experiments that need replayable runs should keep
/// passing a fixed seed instead.
pub fn os_random_seed() -> u64 {
    SmallRng::from_os_rng().next_u64()
}

/// Where a datagram arrived, as the protocol sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// An attackable channel — a well-known port, or a fixed reply port of
    /// the no-random-ports ablation — that accepts only the kind named.
    /// Its arrivals are staged until the next round start.
    Staged(MessageKind),
    /// A random port allocated for this purpose. Its arrivals are handled
    /// at the next [`Node::dispatch`].
    Port(PortPurpose),
}

/// A driver's random ports. The engine allocates them through
/// [`PortOracle`]; the node retires them at every round end and copies
/// their counters into its [`NetStats`].
pub trait Ports: PortOracle {
    /// Retires the ports allocated `port_lifetime_rounds` or more rounds
    /// before `now`.
    fn expire(&mut self, now: Round);

    /// Writes the port counters of `stats` (`bind_failed` through
    /// `port_syscalls`). Ports that cost no descriptor leave them at 0.
    fn report(&self, _stats: &mut NetStats) {}
}

/// Bound on each staged-arrival reservoir (per channel, per round).
const STAGE_CAP: usize = 1024;

/// The reservoir of a staged kind, in round-start processing order.
fn slot(kind: MessageKind) -> usize {
    match kind {
        MessageKind::PullRequest => 0,
        MessageKind::PushOffer => 1,
        MessageKind::PullReply => 2,
        MessageKind::PushReply => 3,
        MessageKind::PushData => 4,
    }
}

fn shuffle_in_place(v: &mut [GossipMessage], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i as u64) as usize;
        v.swap(i, j);
    }
}

fn jittered(round: Duration, jitter: f64, rng: &mut SmallRng) -> Duration {
    if jitter <= 0.0 {
        return round;
    }
    let factor = 1.0 + rng.random_range(-jitter..jitter);
    round.mul_f64(factor.max(0.05))
}

/// Advances a round deadline on a fixed cadence: the next deadline is
/// `prev + jittered(round)`, anchored to the *previous deadline* and never
/// to "now", so processing time cannot stretch the cadence under flood; a
/// late round is followed by a short one.
///
/// Returns `(deadline, late)`: `late` when `now` had already reached the
/// computed deadline. A backlog of a further full round re-anchors at
/// `now + jittered(round)`, skipping the unrunnable rounds rather than
/// spinning zero-length ones.
pub(crate) fn advance_deadline(
    prev: Instant,
    now: Instant,
    round: Duration,
    jitter: f64,
    rng: &mut SmallRng,
) -> (Instant, bool) {
    let next = prev + jittered(round, jitter, rng);
    if next > now {
        return (next, false);
    }
    if now.duration_since(next) >= round {
        // More than one full round behind: skip forward.
        (now + jittered(round, jitter, rng), true)
    } else {
        (next, true)
    }
}

/// The single-threaded round state machine of one gossip node, without
/// its sockets.
///
/// Owns the engine, the RNG, the staged-arrival reservoirs, the stream
/// scheduler and the per-node stats. A driver calls
/// [`Node::next_deadline`], [`Node::round_tick`], [`Node::receive`] +
/// [`Node::dispatch`] and [`Node::send_outs`], so that it can interleave
/// many nodes on one thread.
pub struct Node {
    engine: Engine,
    rng: SmallRng,
    config: NetConfig,
    // Arrivals on attackable channels staged during round r are processed
    // right after round r+1's budget reset (see `start_round`).
    pub(crate) staged: [Vec<GossipMessage>; 5],
    staged_seen: [u64; 5],
    stats: NetStats,
    /// `stats` at the last round end, for the `round` event's deltas.
    prev: NetStats,
    // Outbound scratch reused across rounds and poll iterations:
    // `send_outs` drains `outs`, so its capacity is allocated once and
    // amortized over the node lifetime.
    outs: Vec<Outbound>,
    /// Decoded random-port arrivals awaiting [`Node::dispatch`].
    drained: Vec<(PortPurpose, GossipMessage)>,
    started: bool,
    /// Application stream pacing between `submit()` and the engine.
    stream: StreamScheduler,
}

impl Node {
    /// Builds the node's engine (seeded `seed`) and RNG (seeded
    /// `seed ^ RNG_SALT`), and emits the `proc.start` trace event. `seed`
    /// is this node's own: a cluster gives every node a different one
    /// ([`seed_of`]).
    pub fn new(
        me: ProcessId,
        members: Vec<ProcessId>,
        key_store: KeyStore,
        my_key: SecretKey,
        config: NetConfig,
        seed: u64,
    ) -> Node {
        let membership = Membership::new(me, members);
        let mut engine = Engine::new(config.gossip.clone(), membership, key_store, my_key, seed);
        engine.set_tracer(config.tracer.clone());
        trace_event!(
            config.tracer,
            "net",
            "proc.start",
            config.tracer.wall_now(),
            me = me.as_u64(),
            variant = config.gossip.variant.to_string(),
            random_ports = config.gossip.random_ports
        );
        Node {
            engine,
            rng: SmallRng::seed_from_u64(seed ^ RNG_SALT),
            stream: StreamScheduler::new(config.stream),
            config,
            staged: Default::default(),
            staged_seen: [0u64; 5],
            stats: NetStats::default(),
            prev: NetStats::default(),
            outs: Vec::new(),
            drained: Vec::new(),
            started: false,
        }
    }

    /// The node's engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Stats accumulated so far (finalized by [`Node::finalize`]).
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Figure 12(a) ablation: the fixed reply ports the engine advertises
    /// instead of fresh random ones.
    pub fn set_fixed_ports(&mut self, pull_reply: u16, push_reply: u16, push_data: u16) {
        self.engine
            .set_fixed_ports(pull_reply, push_reply, push_data);
    }

    /// Advances this node's round deadline on the fixed cadence (see
    /// `advance_deadline`), counting late rounds.
    pub fn next_deadline(&mut self, prev: Instant, now: Instant) -> Instant {
        let (next, late) = advance_deadline(
            prev,
            now,
            self.config.round,
            self.config.jitter,
            &mut self.rng,
        );
        self.stats.rounds_late += u64::from(late);
        next
    }

    /// Queues an application payload; the stream scheduler releases it into
    /// the engine at a round start. Windowed streams queue (and count
    /// backpressure) rather than silently dropping; the unlimited default
    /// admits everything.
    pub fn submit(&mut self, payload: Bytes) {
        self.stream.submit(payload);
    }

    /// Originates a message at once, bypassing the stream scheduler, and
    /// returns its id. It gossips from the next exchange on.
    pub fn publish(&mut self, payload: Bytes) -> MessageId {
        self.engine.publish(payload)
    }

    /// Starts a round: releases paced publishes, runs the engine's round
    /// start (fresh budgets, new pull-requests and push-offers), then
    /// processes the *previous* round's staged arrivals against the fresh
    /// budgets: a uniformly random budget-sized subset of all the
    /// attackable channels took, whatever its timing — the paper's "p
    /// discards all unread messages" at round end. The flood thus charges
    /// the budget *before* this round's mid-round replies contend for it,
    /// as a bounded FCFS reader would (the shared-bounds ablation rests on
    /// this). Everything waits in the outbox, round-start messages first.
    fn start_round<P: PortOracle>(&mut self, ports: &mut P) {
        let Self { stream, engine, .. } = self;
        stream.release_round(|payload| {
            engine.publish(payload);
        });
        let round_outs = self.engine.begin_round(ports);
        self.outs.extend(round_outs);

        for slot in 0..5 {
            self.staged_seen[slot] = 0;
            shuffle_in_place(&mut self.staged[slot], &mut self.rng);
            for msg in self.staged[slot].drain(..) {
                self.engine.handle_into(msg, ports, &mut self.outs);
            }
        }
        self.started = true;
    }

    /// Takes one datagram from `channel`. It is decoded — data messages the
    /// node has already seen are checked but not built — and its kind is
    /// checked against the channel: a staged channel stages it, a random
    /// port queues it for [`Node::dispatch`]. Garbage counts as a decode
    /// error; a staged kind mismatch as a port mismatch.
    pub fn receive(&mut self, channel: Channel, bytes: &[u8]) {
        let buffer = self.engine.buffer();
        let Ok(msg) = codec::decode_skipping(bytes, |id| buffer.seen(id)) else {
            self.stats.decode_errors += 1;
            return;
        };
        match channel {
            Channel::Staged(kind) if msg.kind() == kind => {
                // Reservoir replacement keeps the staged subset a uniform
                // sample of the round's arrivals, whatever their timing.
                self.stats.received += 1;
                let slot = slot(kind);
                self.staged_seen[slot] += 1;
                if self.staged[slot].len() < STAGE_CAP {
                    self.staged[slot].push(msg);
                } else {
                    let i = self.rng.random_range(0..self.staged_seen[slot]) as usize;
                    if i < STAGE_CAP {
                        self.staged[slot][i] = msg;
                    }
                }
            }
            Channel::Staged(_) => self.stats.port_mismatches += 1,
            Channel::Port(purpose) => {
                self.stats.received += 1;
                self.drained.push((purpose, msg));
            }
        }
    }

    /// Handles the random-port arrivals [`Node::receive`] queued. Kind must
    /// match the port's allocated purpose; matches are processed at once
    /// (the adversary cannot contend on concealed ports, and immediate
    /// processing gives the model's same-round pull-replies). Every data
    /// message that reaches the engine pays its own source verification.
    pub fn dispatch<P: PortOracle>(&mut self, ports: &mut P) {
        for (purpose, msg) in self.drained.drain(..) {
            let matches = matches!(
                (purpose, msg.kind()),
                (PortPurpose::PullReply, MessageKind::PullReply)
                    | (PortPurpose::PushReply, MessageKind::PushReply)
                    | (PortPurpose::PushData, MessageKind::PushData)
            );
            if matches {
                self.engine.handle_into(msg, ports, &mut self.outs);
            } else {
                self.stats.port_mismatches += 1;
            }
        }
    }

    /// Hands the outbox to `send`, one datagram per outbound message in
    /// order, and empties it. Each message first survives the emulated
    /// link-loss draw; one addressed to port 0 (a failed allocation
    /// upstream) is counted in `alloc_failed` instead — dropping it
    /// silently would hide socket exhaustion from every dashboard.
    ///
    /// `send(out)` encodes and queues the datagram.
    pub fn send_outs(&mut self, mut send: impl FnMut(&Outbound)) {
        let loss = self.config.loss;
        for out in self.outs.drain(..) {
            if loss > 0.0 && self.rng.random_bool(loss) {
                continue; // emulated link loss
            }
            if out.port == SendPort::Port(0) {
                self.stats.alloc_failed += 1;
                continue;
            }
            send(&out);
        }
    }

    /// Counts `n` datagrams the driver's transport took.
    pub fn record_sent(&mut self, n: u64) {
        self.stats.sent += n;
    }

    /// Drains the messages newly delivered to the application.
    pub fn take_delivered(&mut self) -> Vec<DataMessage> {
        self.engine.take_delivered()
    }

    /// Ends the running round, if one is: engine round end, stats
    /// accumulation, port expiry and the `round` trace event.
    fn finish_round<P: Ports>(&mut self, ports: &mut P) {
        if !self.started {
            return;
        }
        let round_stats = self.engine.end_round();
        self.stats.rounds += 1;
        let round_drops = round_stats.dropped_budget.iter().sum::<u64>();
        self.stats.budget_drops += round_drops;
        self.stats.auth_drops += round_stats.dropped_auth;
        self.stats.delivered += round_stats.delivered;
        ports.expire(self.engine.round());
        ports.report(&mut self.stats);
        self.stats.buffer_bytes_peak = self.engine.buffer().bytes_peak() as u64;
        self.stats.stream_backpressure = self.stream.stats().backpressure;
        self.stats.compress_calls = self.engine.mac_compressions();
        self.stats.lanes_filled = self.stats.compress_calls;

        // One event summarizes the round: the live per-node view of the
        // stats, whose deltas over a node's rounds sum to its totals.
        trace_event!(
            self.config.tracer,
            "net",
            "round",
            self.config.tracer.wall_now(),
            me = self.engine.me().as_u64(),
            round = self.engine.round().as_u64(),
            sent = self.stats.sent - self.prev.sent,
            received = self.stats.received - self.prev.received,
            budget_drops = round_drops,
            decode_errors = self.stats.decode_errors - self.prev.decode_errors,
            port_mismatches = self.stats.port_mismatches - self.prev.port_mismatches,
            alloc_failed = self.stats.alloc_failed - self.prev.alloc_failed,
            delivered = round_stats.delivered
        );
        self.prev = self.stats;
        self.started = false;
    }

    /// One deadline: finish the running round (if any) and start the next.
    pub fn round_tick<P: Ports>(&mut self, ports: &mut P) {
        self.finish_round(ports);
        self.start_round(ports);
    }

    /// Tears the node down: finishes a round still in flight, emits the
    /// `proc.stop` event and returns the final stats.
    pub fn finalize<P: Ports>(mut self, ports: &mut P) -> NetStats {
        self.finish_round(ports);
        trace_event!(
            self.config.tracer,
            "net",
            "proc.stop",
            self.config.tracer.wall_now(),
            me = self.engine.me().as_u64(),
            rounds = self.stats.rounds,
            rounds_late = self.stats.rounds_late,
            sent = self.stats.sent,
            received = self.stats.received,
            budget_drops = self.stats.budget_drops,
            delivered = self.stats.delivered
        );
        self.stats
    }
}
