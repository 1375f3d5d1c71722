//! One gossip node's rounds over real UDP sockets: [`NodeCore`].
//!
//! Mirrors the paper's Java implementation (§8): each node runs its own
//! rounds whose duration is randomly jittered, performs the full
//! push-offer/push-reply/push-data handshake plus pull exchanges through
//! the [`drum_core::engine::Engine`], drains its sockets continuously, and
//! discards whatever the per-round budgets reject. "The operations that
//! occur in a round are not synchronized" — process A may send before
//! receiving, B the other way around; only the local round boundaries
//! matter.
//!
//! [`NodeCore`] is a single-threaded state machine with no loop or thread
//! of its own. The shard driver ([`crate::shard`]) steps any number of
//! cores — one included — from a timer wheel and a shared epoll.

use std::io;
use std::net::UdpSocket;
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

use drum_core::bytes::{Bytes, BytesMut};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use drum_core::config::GossipConfig;
use drum_core::engine::{Engine, Outbound, PortPurpose, SendPort};
use drum_core::ids::ProcessId;
use drum_core::message::{DataMessage, GossipMessage, MessageKind};
use drum_core::stream::{StreamConfig, StreamScheduler};
use drum_core::view::Membership;
use drum_crypto::keys::{KeyStore, SecretKey};
use drum_trace::{names, trace_event, Counter, Tracer};

use crate::codec;
use crate::sys;
use crate::transport::{
    AblationSockets, AddressBook, BatchRx, BatchTx, SocketPool, WellKnownSockets,
};

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
    /// wall-clock timestamps; the registry counters aggregate across all
    /// processes sharing the tracer. Disabled by default.
    pub tracer: Tracer,
    /// Application stream pacing (see [`drum_core::stream`]): how many
    /// queued publishes are released into the gossip layer per round, and
    /// how deep the pending queue may grow before submissions count as
    /// backpressure. The default ([`StreamConfig::unlimited`]) releases
    /// everything immediately — byte-identical to the pre-scheduler
    /// behavior.
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

/// A data message delivered to the application, with its arrival time.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The delivered message.
    pub message: DataMessage,
    /// Local arrival instant.
    pub at: Instant,
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
    /// Descriptors the random-port pool opened. Stops growing once the
    /// pool has its high-water of live sockets; ports rotate on those.
    pub sockets_opened: u64,
    /// New data messages delivered to the application.
    pub delivered: u64,
    /// Datagrams successfully sent.
    pub sent: u64,
    /// Datagrams that decoded successfully (staged or immediate).
    pub received: u64,
    /// Receive (`recvmmsg`) syscalls made — the amortization the batching
    /// buys is visible as this staying far below the datagram count under
    /// flood. The three syscall totals are the shard's: every engine of a
    /// shard reports the same shared figures.
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
}

/// Everything needed to launch one process.
pub struct ProcessSpec {
    /// This process's id.
    pub me: ProcessId,
    /// Full member list (self included or not — normalized internally).
    pub members: Vec<ProcessId>,
    /// Cluster address book.
    pub book: AddressBook,
    /// Shared PKI.
    pub key_store: KeyStore,
    /// This process's secret key.
    pub my_key: SecretKey,
    /// Pre-bound well-known sockets (so the book could be built first).
    pub sockets: WellKnownSockets,
    /// Pre-bound fixed reply sockets for the no-random-ports ablation;
    /// must be `Some` exactly when `config.gossip.random_ports == false`.
    pub ablation: Option<AblationSockets>,
    /// Runtime configuration.
    pub config: NetConfig,
    /// RNG seed.
    pub seed: u64,
}

/// Bound on each staged-arrival reservoir (per channel, per round).
const STAGE_CAP: usize = 1024;

/// The receive channels a node owns. The discriminant is packed into the
/// low bits of a shard's epoll registration token (see [`pack_token`]), so
/// a shared event loop can route each readiness event straight to the
/// owning engine's drain for exactly that channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChannelClass {
    /// Well-known pull port (stages `PullRequest`s).
    WkPull,
    /// Well-known push port (stages `PushOffer`s).
    WkPush,
    /// The rotating random-port pool (processed immediately). One token
    /// covers the whole pool: it is the registration of the pool's inner
    /// readiness set, and the drain visits the sockets that set reports.
    Pool,
    /// Fixed pull-reply port (no-random-ports ablation only).
    AbPullReply,
    /// Fixed push-reply port (no-random-ports ablation only).
    AbPushReply,
    /// Fixed push-data port (no-random-ports ablation only).
    AbPushData,
}

impl ChannelClass {
    /// Every class.
    pub const ALL: [ChannelClass; 6] = [
        ChannelClass::WkPull,
        ChannelClass::WkPush,
        ChannelClass::AbPullReply,
        ChannelClass::AbPushReply,
        ChannelClass::AbPushData,
        ChannelClass::Pool,
    ];

    fn code(self) -> u64 {
        match self {
            ChannelClass::WkPull => 0,
            ChannelClass::WkPush => 1,
            ChannelClass::Pool => 2,
            ChannelClass::AbPullReply => 3,
            ChannelClass::AbPushReply => 4,
            ChannelClass::AbPushData => 5,
        }
    }

    fn from_code(code: u64) -> Option<ChannelClass> {
        Some(match code {
            0 => ChannelClass::WkPull,
            1 => ChannelClass::WkPush,
            2 => ChannelClass::Pool,
            3 => ChannelClass::AbPullReply,
            4 => ChannelClass::AbPushReply,
            5 => ChannelClass::AbPushData,
            _ => return None,
        })
    }
}

/// Packs an engine index and a channel class into an epoll registration
/// token: `(engine << 3) | class`. 61 bits of engine index is far beyond
/// any realistic shard width.
pub fn pack_token(engine: usize, class: ChannelClass) -> u64 {
    ((engine as u64) << 3) | class.code()
}

/// Unpacks an epoll registration token back into `(engine index, class)`.
/// The class is `None` for a code no [`ChannelClass`] uses (a foreign
/// registration); shard loops skip those.
pub fn unpack_token(token: u64) -> (usize, Option<ChannelClass>) {
    ((token >> 3) as usize, ChannelClass::from_code(token & 0x7))
}

/// Stages one arrival into its bounded per-channel reservoir. Reservoir
/// replacement keeps the retained subset a uniform sample over every
/// arrival of the round, so acceptance is independent of arrival timing.
fn stage_arrival(
    slot: usize,
    msg: GossipMessage,
    staged: &mut [Vec<GossipMessage>; 5],
    staged_seen: &mut [u64; 5],
    rng: &mut SmallRng,
) {
    staged_seen[slot] += 1;
    let q = &mut staged[slot];
    if q.len() < STAGE_CAP {
        q.push(msg);
    } else {
        let i = rng.random_range(0..staged_seen[slot]);
        if (i as usize) < STAGE_CAP {
            q[i as usize] = msg;
        }
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

/// Advances a round deadline on a fixed cadence.
///
/// The next deadline is `prev + jittered(round)` — anchored to the
/// *previous deadline*, never to "now". Anchoring to `Instant::now()`
/// after the round's work (the old behavior) made the effective round
/// length `round + processing time`, so cadence silently stretched under
/// flood — corrupting every per-round measurement. With the fixed anchor a
/// late round is followed by a short one and the long-run rate stays at
/// one round per `round` seconds.
///
/// Returns `(deadline, late)`. `late` is set when `now` had already
/// reached the computed deadline — i.e. the previous round's work overran
/// by at least a full round-length. When the backlog reaches a *further*
/// full round (work persistently slower than the cadence), catching up is
/// hopeless and the deadline re-anchors at `now + jittered(round)` —
/// skipping the unrunnable rounds rather than degenerating into a
/// zero-length round spin.
fn advance_deadline(
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

/// The single-threaded round state machine of one gossip node.
///
/// Owns the engine, sockets, staged-arrival reservoirs and per-node stats,
/// and exposes the round loop as discrete steps — [`NodeCore::next_deadline`],
/// [`NodeCore::start_round`], [`NodeCore::drain_class`],
/// [`NodeCore::finish_round`] — so that a driver can interleave many nodes
/// on one thread: [`crate::shard`] steps its cores from a timer wheel and a
/// shared epoll instance.
pub struct NodeCore {
    me: ProcessId,
    engine: Engine,
    pool: SocketPool,
    sockets: WellKnownSockets,
    ablation: Option<AblationSockets>,
    book: AddressBook,
    rng: SmallRng,
    config: NetConfig,
    tracer: Tracer,
    publish_rx: Receiver<Bytes>,
    delivered_tx: Sender<Delivery>,
    // Arrivals on attackable channels staged during round r are processed
    // right after round r+1's budget reset (see `start_round`).
    staged: [Vec<GossipMessage>; 5],
    staged_seen: [u64; 5],
    stats: NetStats,
    prev: NetStats,
    // Outbound scratch reused across rounds and poll iterations: `send_out`
    // drains `outs`, so its capacity (and the wire buffer's) is allocated
    // once and amortized over the node lifetime.
    wire: BytesMut,
    outs: Vec<Outbound>,
    /// One drain's decoded messages awaiting dispatch.
    drained: Vec<(PortPurpose, GossipMessage)>,
    started: bool,
    /// Application stream pacing between `publish()` and the engine.
    stream: StreamScheduler,
    c_sent: Counter,
    c_received: Counter,
    c_bound: Counter,
    c_pull_refused: Counter,
    c_decode: Counter,
    c_rounds_late: Counter,
    c_alloc_failed: Counter,
    c_bind_failed: Counter,
    c_sockets_opened: Counter,
    c_buf_peak: Counter,
    c_backpressure: Counter,
    c_compress_calls: Counter,
}

impl NodeCore {
    /// Builds the node state from a spec and its application-facing
    /// channels, and emits the `proc.start` trace event.
    pub fn new(
        spec: ProcessSpec,
        publish_rx: Receiver<Bytes>,
        delivered_tx: Sender<Delivery>,
    ) -> NodeCore {
        let ProcessSpec {
            me,
            members,
            book,
            key_store,
            my_key,
            sockets,
            ablation,
            config,
            seed,
        } = spec;
        let membership = Membership::new(me, members);
        let mut engine = Engine::new(config.gossip.clone(), membership, key_store, my_key, seed);
        // The engine resolves its own registry handles (the batched-MAC
        // verdict counters) from its tracer, so it needs the cluster's
        // tracer, not the disabled default it was constructed with.
        engine.set_tracer(config.tracer.clone());
        if let Some(ab) = &ablation {
            // Figure 12(a) ablation: fixed reply ports that the engine will
            // advertise instead of fresh random ones.
            let port = |s: &UdpSocket| s.local_addr().map(|a| a.port()).unwrap_or(0);
            engine.set_fixed_ports(
                port(&ab.pull_reply),
                port(&ab.push_reply),
                port(&ab.push_data),
            );
        }
        let rng = SmallRng::seed_from_u64(seed ^ seed_of(me));
        let mut pool = SocketPool::new(config.gossip.port_lifetime_rounds.max(1));
        let tracer = config.tracer.clone();
        let reg = tracer.registry().clone();
        pool.set_rotation_counter(reg.counter(names::PORT_ROTATIONS));
        trace_event!(
            tracer,
            "net",
            "proc.start",
            tracer.wall_now(),
            me = me.as_u64(),
            variant = config.gossip.variant.to_string(),
            random_ports = config.gossip.random_ports
        );
        let stream = StreamScheduler::new(config.stream);
        NodeCore {
            me,
            engine,
            pool,
            sockets,
            ablation,
            book,
            rng,
            config,
            tracer: tracer.clone(),
            publish_rx,
            delivered_tx,
            staged: Default::default(),
            staged_seen: [0u64; 5],
            stats: NetStats::default(),
            prev: NetStats::default(),
            wire: BytesMut::with_capacity(codec::MAX_WIRE_LEN),
            outs: Vec::new(),
            drained: Vec::new(),
            started: false,
            stream,
            c_sent: reg.counter(names::MESSAGES_SENT),
            c_received: reg.counter(names::MESSAGES_RECEIVED),
            c_bound: reg.counter(names::DROPPED_BY_BOUND),
            c_pull_refused: reg.counter(names::PULL_REQUESTS_REFUSED),
            c_decode: reg.counter(names::DECODE_ERRORS),
            c_rounds_late: reg.counter(names::NET_ROUNDS_LATE),
            c_alloc_failed: reg.counter(names::NET_ALLOC_FAILED),
            c_bind_failed: reg.counter(names::NET_BIND_FAILED),
            c_sockets_opened: reg.counter(names::NET_SOCKETS_OPENED),
            c_buf_peak: reg.counter(names::BUFFER_BYTES_PEAK),
            c_backpressure: reg.counter(names::STREAM_BACKPRESSURE),
            c_compress_calls: reg.counter(names::CRYPTO_COMPRESS_CALLS),
        }
    }

    /// The node's process id.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// Stats accumulated so far (finalized by [`NodeCore::finalize`]).
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Registers every receive socket with a *shared* shard epoll, tagging
    /// each registration with `pack_token(engine, class)` so the shard's
    /// event loop can dispatch readiness straight to this engine. The pool
    /// registers once, for every socket it will ever bind.
    ///
    /// # Errors
    ///
    /// Propagates the first failed registration. A partially registered
    /// node would sleep through live sockets, so its driver must not run.
    pub fn register(&mut self, ep: &sys::Epoll, engine: usize) -> io::Result<()> {
        let token = |class| pack_token(engine, class);
        ep.add_tagged(&self.sockets.pull, token(ChannelClass::WkPull))?;
        ep.add_tagged(&self.sockets.push, token(ChannelClass::WkPush))?;
        if let Some(ab) = &self.ablation {
            ep.add_tagged(&ab.pull_reply, token(ChannelClass::AbPullReply))?;
            ep.add_tagged(&ab.push_reply, token(ChannelClass::AbPushReply))?;
            ep.add_tagged(&ab.push_data, token(ChannelClass::AbPushData))?;
        }
        self.pool.set_epoll(ep, token(ChannelClass::Pool))
    }

    /// [`NodeCore::register`] as a success flag, the form `benchmark/`
    /// calls.
    pub fn register_tagged(&mut self, ep: &sys::Epoll, engine: usize) -> bool {
        self.register(ep, engine).is_ok()
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
        if late {
            self.stats.rounds_late += 1;
            self.c_rounds_late.inc();
        }
        next
    }

    /// Starts a round: accepts pending application publishes, runs the
    /// engine's round start (fresh budgets, new pull-requests and
    /// push-offers), then processes the *previous* round's staged arrivals
    /// against the fresh budgets.
    ///
    /// Messages on *attackable* channels (the well-known ports, plus the
    /// fixed reply ports in ablation mode) are STAGED: collected all round
    /// long into bounded reservoirs and only processed — as a uniformly
    /// random budget-sized subset — here, at the next round start. This
    /// realizes the paper's model exactly: "p discards all unread messages
    /// from its incoming message buffers" at round end, with the accepted
    /// subset independent of arrival timing, and it keeps the OS queues
    /// drained so accepted pull-requests are never stale. Crucially for
    /// the shared-bounds ablation, the flood charges the budget *before*
    /// this round's mid-round replies contend for it, exactly as a bounded
    /// FCFS reader would behave.
    pub fn start_round(&mut self, send_socket: &UdpSocket, tx: &mut BatchTx) {
        while let Ok(payload) = self.publish_rx.try_recv() {
            // Windowed streams queue (and count backpressure) rather than
            // silently dropping; the unlimited default admits everything.
            self.stream.submit(payload);
        }
        let Self { stream, engine, .. } = self;
        stream.release_round(|payload| {
            engine.publish(payload);
        });
        let round_outs = self.engine.begin_round(&mut self.pool);
        self.outs.extend(round_outs);
        self.send_out(send_socket, tx);

        for slot in 0..5 {
            self.staged_seen[slot] = 0;
            shuffle_in_place(&mut self.staged[slot], &mut self.rng);
            for msg in self.staged[slot].drain(..) {
                self.engine.handle_into(msg, &mut self.pool, &mut self.outs);
            }
        }
        self.send_out(send_socket, tx);
        self.deliver();
        self.started = true;
    }

    /// Drains one receive channel (for token-directed shard dispatch),
    /// sending any responses it generated and flushing deliveries.
    /// `_scratch` is unused; it stays because `benchmark/` passes it.
    pub fn drain_class(
        &mut self,
        class: ChannelClass,
        rx: &mut BatchRx,
        _scratch: &mut [u8],
        send_socket: &UdpSocket,
        tx: &mut BatchTx,
    ) {
        match class {
            ChannelClass::Pool => self.drain_pool(rx),
            attackable => self.drain_staging(attackable, rx),
        }
        if !self.outs.is_empty() {
            self.send_out(send_socket, tx);
        }
        self.deliver();
    }

    /// Drains one attackable socket until it would block, staging arrivals
    /// of its designated kind and counting mismatches/garbage. Shared by
    /// the well-known ports and the fixed reply ports of the ablation mode.
    ///
    /// Datagrams move through `rx`, one `recvmmsg` per batch, in kernel
    /// queue order.
    fn drain_staging(&mut self, class: ChannelClass, rx: &mut BatchRx) {
        let Self {
            sockets,
            ablation,
            stats,
            staged,
            staged_seen,
            rng,
            ..
        } = self;
        let (socket, expected, slot) = match (class, ablation.as_ref()) {
            (ChannelClass::WkPull, _) => (&sockets.pull, MessageKind::PullRequest, 0usize),
            (ChannelClass::WkPush, _) => (&sockets.push, MessageKind::PushOffer, 1),
            (ChannelClass::AbPullReply, Some(ab)) => (&ab.pull_reply, MessageKind::PullReply, 2),
            (ChannelClass::AbPushReply, Some(ab)) => (&ab.push_reply, MessageKind::PushReply, 3),
            (ChannelClass::AbPushData, Some(ab)) => (&ab.push_data, MessageKind::PushData, 4),
            _ => return,
        };
        rx.drain_socket(socket, &mut [], |bytes| match codec::decode(bytes) {
            Ok(msg) if msg.kind() == expected => {
                stats.received += 1;
                stage_arrival(slot, msg, staged, staged_seen, rng);
            }
            Ok(_) => stats.port_mismatches += 1,
            Err(_) => stats.decode_errors += 1,
        });
    }

    /// Drains the random-port pool. Kind must match the port's allocated
    /// purpose; matches are processed immediately (the adversary cannot
    /// contend on concealed ports, and immediate processing gives the
    /// model's same-round pull-replies).
    ///
    /// Every datagram is one bare gossip message. Anything else — a
    /// retired TAG 6 frame included — is a decode error, and every data
    /// message that reaches the engine pays its own source verification
    /// unless the node has already seen its id.
    fn drain_pool(&mut self, rx: &mut BatchRx) {
        let Self {
            pool,
            stats,
            drained,
            ..
        } = self;
        pool.drain(rx, |purpose, bytes| match codec::decode(bytes) {
            Ok(msg) => {
                stats.received += 1;
                drained.push((purpose, msg));
            }
            Err(_) => stats.decode_errors += 1,
        });
        for (purpose, msg) in self.drained.drain(..) {
            let matches = matches!(
                (purpose, msg.kind()),
                (PortPurpose::PullReply, MessageKind::PullReply)
                    | (PortPurpose::PushReply, MessageKind::PushReply)
                    | (PortPurpose::PushData, MessageKind::PushData)
            );
            if matches {
                self.engine.handle_into(msg, &mut self.pool, &mut self.outs);
            } else {
                self.stats.port_mismatches += 1;
            }
        }
    }

    /// Drains `self.outs`, encoding into the reusable wire scratch: one
    /// bare datagram per outbound message, control and data alike. The
    /// engine fans the same `PushData`/`PushOffer`/`PullRequest` to
    /// several recipients back-to-back, so the encoder runs only when the
    /// message actually changes from the previously encoded one
    /// (encode-once fan-out); the loss draw stays per-datagram either way.
    /// Datagrams leave through `tx`: one sendmmsg per batch, repeats
    /// sharing the arena bytes.
    fn send_out(&mut self, send_socket: &UdpSocket, tx: &mut BatchTx) {
        let loss = self.config.loss;
        let mut encoded: Option<usize> = None;
        for i in 0..self.outs.len() {
            if loss > 0.0 && self.rng.random_bool(loss) {
                continue; // emulated link loss
            }
            let addr = match self.outs[i].port {
                SendPort::WellKnownPull => match self.book.addrs_of(self.outs[i].to) {
                    Some(a) => a.pull,
                    None => continue,
                },
                SendPort::WellKnownPush => match self.book.addrs_of(self.outs[i].to) {
                    Some(a) => a.push,
                    None => continue,
                },
                SendPort::Port(0) => {
                    // Allocation failed upstream; dropping silently would
                    // hide socket exhaustion from every dashboard.
                    self.stats.alloc_failed += 1;
                    continue;
                }
                SendPort::Port(p) => AddressBook::loopback(p),
            };
            let repeat = matches!(encoded, Some(j) if self.outs[j].msg == self.outs[i].msg);
            if !repeat {
                codec::encode_into(&self.outs[i].msg, &mut self.wire);
                encoded = Some(i);
            }
            tx.push(send_socket, addr, &self.wire[..], repeat);
        }
        self.stats.sent += tx.finish(send_socket);
        self.outs.clear();
    }

    fn deliver(&mut self) {
        let delivered = self.engine.take_delivered();
        if delivered.is_empty() {
            return;
        }
        let now = Instant::now();
        for msg in delivered {
            let _ = self.delivered_tx.send(Delivery {
                message: msg,
                at: now,
            });
        }
    }

    /// Ends the current round: engine round end, stats accumulation, pool
    /// expiry, per-round registry counter deltas and the `round` trace
    /// event.
    pub fn finish_round(&mut self) {
        let round_stats = self.engine.end_round();
        self.stats.rounds += 1;
        let round_drops = round_stats.dropped_budget.iter().sum::<u64>();
        self.stats.budget_drops += round_drops;
        self.stats.auth_drops += round_stats.dropped_auth;
        self.stats.delivered += round_stats.delivered;
        self.pool.expire(self.engine.round());

        // Per-round observability: registry counters take the deltas (so
        // cluster-wide totals aggregate across processes), and one event
        // summarizes the round. Both are no-ops with a disabled tracer
        // beyond a handful of relaxed atomic adds.
        self.c_sent.add(self.stats.sent - self.prev.sent);
        self.c_received
            .add(self.stats.received - self.prev.received);
        self.c_bound.add(round_drops);
        self.c_pull_refused
            .add(round_stats.dropped_of(MessageKind::PullRequest));
        self.c_decode
            .add(self.stats.decode_errors - self.prev.decode_errors);
        self.c_alloc_failed
            .add(self.stats.alloc_failed - self.prev.alloc_failed);
        self.stats.bind_failed = self.pool.bind_failures();
        self.stats.sockets_opened = self.pool.sockets_opened();
        self.c_bind_failed
            .add(self.stats.bind_failed - self.prev.bind_failed);
        self.c_sockets_opened
            .add(self.stats.sockets_opened - self.prev.sockets_opened);
        self.stats.buffer_bytes_peak = self.engine.buffer().bytes_peak() as u64;
        self.stats.stream_backpressure = self.stream.stats().backpressure;
        // Peaks are monotone per node, so per-round deltas sum to the peak
        // and cluster-wide aggregation stays meaningful.
        self.c_buf_peak
            .add(self.stats.buffer_bytes_peak - self.prev.buffer_bytes_peak);
        self.c_backpressure
            .add(self.stats.stream_backpressure - self.prev.stream_backpressure);
        self.stats.compress_calls = self.engine.mac_compressions();
        self.stats.lanes_filled = self.stats.compress_calls;
        self.c_compress_calls
            .add(self.stats.compress_calls - self.prev.compress_calls);
        trace_event!(
            self.tracer,
            "net",
            "round",
            self.tracer.wall_now(),
            me = self.me.as_u64(),
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

    /// One timer-wheel tick: finish the running round (if any) and start
    /// the next. The shard's wheel calls this when the node's deadline
    /// fires.
    pub fn round_tick(&mut self, send_socket: &UdpSocket, tx: &mut BatchTx) {
        if self.started {
            self.finish_round();
        }
        self.start_round(send_socket, tx);
    }

    /// Tears the node down: finishes a round still in flight, mirrors the
    /// driver's final shared syscall totals `(recv, send, batched
    /// datagrams)`, emits the `proc.stop` event and returns the final stats.
    pub fn finalize(mut self, sys_totals: Option<(u64, u64, u64)>) -> NetStats {
        if self.started {
            self.finish_round();
        }
        if let Some((recv, send, batched)) = sys_totals {
            // The shard mirrors its shared batchers into the registry
            // itself; a node only reports them.
            self.stats.syscalls_recv = recv;
            self.stats.syscalls_send = send;
            self.stats.batch_recv_datagrams = batched;
        }
        trace_event!(
            self.tracer,
            "net",
            "proc.stop",
            self.tracer.wall_now(),
            me = self.me.as_u64(),
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

/// Mixes a process id into a seed so that a shared base seed still gives
/// every process its own RNG stream.
pub fn seed_of(me: ProcessId) -> u64 {
    me.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Draws a base seed from OS entropy, for deployments where the port and
/// peer randomization must be unpredictable to an outside observer rather
/// than reproducible. Experiments that need replayable runs should keep
/// passing a fixed [`ProcessSpec::seed`] instead.
pub fn os_random_seed() -> u64 {
    SmallRng::from_os_rng().next_u64()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::shard::{spawn_shard, EngineHandle, ShardHandle};
    use crate::transport::bind_ephemeral;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    /// Specs for an `n`-member group on freshly bound well-known sockets,
    /// plus the book, so a test can aim traffic at a member's real ports.
    pub(crate) fn specs(
        n: u64,
        key_seed: u64,
        config: NetConfig,
    ) -> (Vec<ProcessSpec>, AddressBook) {
        let key_store = KeyStore::new(key_seed);
        let members: Vec<ProcessId> = (0..n).map(ProcessId).collect();
        let (socks, entries): (Vec<_>, Vec<_>) = members
            .iter()
            .map(|&m| {
                let (sockets, addrs) = WellKnownSockets::bind().unwrap();
                ((m, sockets), (m, addrs))
            })
            .unzip();
        let book = AddressBook::new(entries);
        let specs = socks
            .into_iter()
            .map(|(m, sockets)| ProcessSpec {
                me: m,
                members: members.clone(),
                book: book.clone(),
                key_store: key_store.clone(),
                my_key: key_store.register(m.as_u64()),
                sockets,
                ablation: None,
                config: config.clone(),
                seed: seed_of(m),
            })
            .collect();
        (specs, book)
    }

    fn drum(round_ms: u64) -> NetConfig {
        NetConfig::new(GossipConfig::drum()).with_round(Duration::from_millis(round_ms))
    }

    fn cluster(n: u64, key_seed: u64, config: NetConfig) -> (ShardHandle, Vec<EngineHandle>) {
        spawn_shard(specs(n, key_seed, config).0).unwrap()
    }

    /// Node 0 of a two-member group, to drive by hand, with its delivery
    /// channel and the peer — whose sockets stay bound but are never read.
    fn lone_core(seed: u64) -> (NodeCore, Receiver<Delivery>, ProcessSpec) {
        let (mut specs, _) = specs(2, 3, NetConfig::new(GossipConfig::drum()));
        let peer = specs.pop().unwrap();
        let mut spec = specs.pop().unwrap();
        spec.seed = seed;
        let (_publish_tx, publish_rx) = channel();
        let (delivered_tx, delivered_rx) = channel();
        (
            NodeCore::new(spec, publish_rx, delivered_tx),
            delivered_rx,
            peer,
        )
    }

    #[test]
    fn drum_disseminates_over_udp() {
        // One engine per shard: each node on a thread of its own.
        let (shards, engines): (Vec<ShardHandle>, Vec<EngineHandle>) = specs(6, 99, drum(40))
            .0
            .into_iter()
            .map(|spec| {
                let (shard, mut engine) = spawn_shard(vec![spec]).unwrap();
                (shard, engine.remove(0))
            })
            .unzip();
        engines[0].publish(Bytes::from_static(b"hello udp"));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut received = [false; 6];
        received[0] = true;
        while Instant::now() < deadline && received.iter().any(|r| !r) {
            for (i, e) in engines.iter().enumerate() {
                for d in e.take_delivered() {
                    assert_eq!(d.message.payload, Bytes::from_static(b"hello udp"));
                    received[i] = true;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for (i, r) in received.iter().enumerate() {
            assert!(*r, "process {i} never received the message");
        }
        for shard in shards {
            let stats = shard.shutdown();
            assert!(stats.len() == 1 && stats[0].rounds > 0);
        }
    }

    #[test]
    fn push_only_disseminates_over_udp() {
        let config = NetConfig::new(GossipConfig::push()).with_round(Duration::from_millis(40));
        let (shard, engines) = cluster(5, 99, config);
        engines[0].publish(Bytes::from_static(b"push"));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = 0;
        while Instant::now() < deadline && got < 4 {
            got += engines[1..]
                .iter()
                .map(|e| e.take_delivered().len())
                .sum::<usize>();
            std::thread::sleep(Duration::from_millis(25));
        }
        // At least some processes must have it quickly; exact counts are
        // timing dependent.
        assert!(got > 0, "nobody received the pushed message");
        shard.shutdown();
    }

    #[test]
    fn with_loss_validates_range() {
        let cfg = NetConfig::new(GossipConfig::drum()).with_loss(0.25);
        assert_eq!(cfg.loss, 0.25);
        let result =
            std::panic::catch_unwind(|| NetConfig::new(GossipConfig::drum()).with_loss(1.0));
        assert!(result.is_err(), "loss = 1.0 must be rejected");
    }

    #[test]
    fn lossy_links_slow_but_do_not_stop_dissemination() {
        let (shard, engines) = cluster(5, 5, drum(40).with_loss(0.2));
        engines[0].publish(Bytes::from_static(b"lossy"));
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut reached = 0;
        let mut seen = [false; 5];
        seen[0] = true;
        while Instant::now() < deadline && reached < 5 {
            for (i, e) in engines.iter().enumerate() {
                if !e.take_delivered().is_empty() {
                    seen[i] = true;
                }
            }
            reached = seen.iter().filter(|s| **s).count();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(reached, 5, "20% loss must not stop dissemination");
        shard.shutdown();
    }

    #[test]
    fn tracer_counts_cluster_traffic() {
        use drum_trace::{names, MemorySink, Tracer};

        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        let (shard, engines) = cluster(4, 7, drum(30).with_tracer(tracer.clone()));

        engines[0].publish(Bytes::from_static(b"traced"));
        std::thread::sleep(Duration::from_millis(400));
        let stats = shard.shutdown();

        // Registry counters aggregate across all four processes and must
        // agree with the per-process stats the runtime reports.
        let reg = tracer.registry();
        let total_sent: u64 = stats.iter().map(|s| s.sent).sum();
        assert!(reg.counter(names::MESSAGES_SENT).get() <= total_sent);
        assert!(reg.counter(names::MESSAGES_SENT).get() > 0);
        assert!(reg.counter(names::MESSAGES_RECEIVED).get() > 0);
        assert!(reg.counter(names::PORT_ROTATIONS).get() > 0);
        // The pools' own counters surface the same way: every descriptor
        // opened is counted (≥ 4 rounds' worth of ports per node before
        // the first one comes back), and exhaustion would be.
        let opened: u64 = stats.iter().map(|s| s.sockets_opened).sum();
        assert_eq!(reg.counter(names::NET_SOCKETS_OPENED).get(), opened);
        assert!(opened >= 4 * 4 * 4, "{opened} descriptors opened");
        assert_eq!(reg.counter(names::NET_BIND_FAILED).get(), 0);
        assert!(stats.iter().all(|s| s.bind_failed == 0));

        let events = sink.take();
        assert_eq!(
            events.iter().filter(|e| e.name == "proc.start").count(),
            4,
            "one proc.start per process"
        );
        assert!(events
            .iter()
            .any(|e| e.target == "net" && e.name == "round"));
        assert_eq!(
            events.iter().filter(|e| e.name == "proc.stop").count(),
            4,
            "one proc.stop per process"
        );
    }

    #[test]
    fn garbage_datagrams_counted_not_fatal() {
        let (specs, book) = specs(2, 99, drum(30));
        let p0 = book.addrs_of(ProcessId(0)).unwrap();
        let (shard, engines) = spawn_shard(specs).unwrap();

        // Blast malformed datagrams at p0's well-known ports while a real
        // multicast is in flight: empty, truncated, bad-tag, and oversized
        // junk must all be counted as decode errors, never crash the
        // process or stop dissemination.
        let sender = bind_ephemeral().unwrap();
        engines[0].publish(Bytes::from_static(b"still works"));
        let garbage: [&[u8]; 4] = [b"", b"\xFF", b"\x01\x02\x03", &[0xAAu8; 512]];
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut p1_got = false;
        while Instant::now() < deadline && !p1_got {
            for junk in garbage {
                let _ = sender.send_to(junk, p0.pull);
                let _ = sender.send_to(junk, p0.push);
            }
            p1_got = !engines[1].take_delivered().is_empty();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(p1_got, "dissemination must survive the garbage flood");

        let stats = shard.shutdown();
        assert!(stats[0].rounds > 0 && stats[1].rounds > 0);
        assert!(
            stats[0].decode_errors > 0,
            "p0 must have counted the malformed datagrams: {:?}",
            stats[0]
        );
    }

    #[test]
    fn fabricated_frame_on_a_pool_port_is_a_decode_error() {
        use drum_core::engine::PortOracle;

        // Hand-driven, so the test can open a pool port itself.
        let (mut core, delivered_rx, _peer) = lone_core(11);
        let epoll = sys::Epoll::new().unwrap();
        core.register(&epoll, 0).unwrap();
        let send_socket = bind_ephemeral().unwrap();
        let mut tx = BatchTx::new();
        let mut rx = BatchRx::new(codec::MAX_WIRE_LEN + 1);
        core.start_round(&send_socket, &mut tx);
        let port = core
            .pool
            .allocate_port(PortPurpose::PullReply, core.engine.round());
        let dest = AddressBook::loopback(port);

        // The retired frame shape first, then — to show the port is live —
        // the same bogus pull-reply as a bare datagram.
        let attacker = bind_ephemeral().unwrap();
        let mut drain_until = |core: &mut NodeCore, done: &dyn Fn(&NetStats) -> bool| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !done(core.stats()) && Instant::now() < deadline {
                core.drain_class(ChannelClass::Pool, &mut rx, &mut [], &send_socket, &mut tx);
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        attacker
            .send_to(&crate::attack::fabricated_frame(7), dest)
            .unwrap();
        drain_until(&mut core, &|s| s.decode_errors > 0);
        assert_eq!(core.stats().decode_errors, 1);
        assert_eq!(core.stats().received, 0);
        assert_eq!(core.engine.mac_compressions(), 0);

        let bare = codec::encode(&crate::attack::fabricated_pull_reply(7));
        attacker.send_to(&bare, dest).unwrap();
        drain_until(&mut core, &|s| s.received > 0);
        assert_eq!(core.stats().received, 1);

        assert!(delivered_rx.try_recv().is_err(), "nothing may deliver");
        let stats = core.finalize(None);
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(stats.delivered, 0);
        // The bare forgery reached the engine and failed authentication
        // (unknown source: rejected before any hashing).
        assert_eq!(stats.auth_drops, 1);
        assert_eq!(stats.compress_calls, 0);
        assert_eq!(
            (stats.frames_sent, stats.framed_msgs, stats.frames_rejected),
            (0, 0, 0)
        );
    }

    #[test]
    fn same_seed_cores_draw_identical_jitter_streams() {
        // A node's RNG stream is a function of its seed alone: what fixed-
        // seed runs of any driver rest on.
        let gaps = |seed: u64| -> Vec<Duration> {
            let (mut core, _delivered_rx, _peer) = lone_core(seed);
            let t0 = Instant::now();
            let mut prev = t0;
            (0..32)
                .map(|_| {
                    let next = core.next_deadline(prev, t0);
                    let gap = next - prev;
                    prev = next;
                    gap
                })
                .collect()
        };
        let x = gaps(42);
        let y = gaps(42);
        let z = gaps(43);
        assert_eq!(x, y, "same seed must reproduce the jitter stream");
        assert_ne!(x, z, "different seeds must not share a jitter stream");
        // Jitter bounds: every gap within round × [1 − j, 1 + j].
        let round = Duration::from_millis(100);
        for gap in &x {
            assert!(
                *gap >= round.mul_f64(0.8) && *gap <= round.mul_f64(1.2),
                "gap {gap:?} outside jitter bounds"
            );
        }
    }

    #[test]
    fn deadline_advances_from_previous_deadline_not_now() {
        let mut rng = SmallRng::seed_from_u64(1);
        let round = Duration::from_millis(100);
        let t0 = Instant::now();

        // On time: next = prev + round, not late (jitter disabled so the
        // arithmetic is exact).
        let (d1, late) = advance_deadline(t0, t0, round, 0.0, &mut rng);
        assert_eq!(d1, t0 + round);
        assert!(!late);

        // Work finished inside the next window: still anchored, not late.
        let (d2, late) = advance_deadline(d1, d1 + Duration::from_millis(60), round, 0.0, &mut rng);
        assert_eq!(d2, d1 + round);
        assert!(!late);

        // Work overran past the next deadline (but by less than a full
        // round): keep the anchor — the next round is short, restoring the
        // cadence — and flag the lateness.
        let (d3, late) =
            advance_deadline(d2, d2 + Duration::from_millis(130), round, 0.0, &mut rng);
        assert_eq!(d3, d2 + round);
        assert!(late);

        // More than one full round behind the next deadline: skip forward
        // (re-anchor at now) instead of spinning zero-length rounds.
        let now = d3 + round + round + Duration::from_millis(5);
        let (d4, late) = advance_deadline(d3, now, round, 0.0, &mut rng);
        assert_eq!(d4, now + round);
        assert!(late);
    }

    #[test]
    fn cadence_holds_under_synthetic_overrun() {
        // Every simulated round's work overruns its deadline by a full
        // round-length. Under the old "deadline = now + jittered" rule the
        // effective period would be ~2× round (100 rounds take ~200
        // round-lengths); the fixed-cadence rule keeps the long-run rate
        // at ~1 round per round-length.
        let mut rng = SmallRng::seed_from_u64(7);
        let round = Duration::from_millis(50);
        let t0 = Instant::now();
        let mut deadline = t0;
        let mut now = t0;
        let mut late = 0u32;
        const ROUNDS: u32 = 100;
        for _ in 0..ROUNDS {
            let (d, l) = advance_deadline(deadline, now, round, 0.2, &mut rng);
            if l {
                late += 1;
            }
            deadline = d;
            now = deadline + round; // simulated overrun: one full round
        }
        let elapsed = deadline.duration_since(t0);
        let nominal = round * ROUNDS;
        assert!(
            elapsed >= nominal.mul_f64(0.8) && elapsed <= nominal.mul_f64(1.2),
            "cadence drifted: {ROUNDS} rounds spanned {elapsed:?}, nominal {nominal:?}"
        );
        assert!(late > 0, "a constant overrun must be flagged late");

        // When work is persistently slower than the round itself, the
        // skip-forward policy gives up on the unrunnable rounds instead of
        // spinning: every advance is late and re-anchored ahead of now.
        let mut deadline = Instant::now();
        let mut now = deadline;
        for _ in 0..20 {
            let (d, l) = advance_deadline(deadline, now, round, 0.2, &mut rng);
            assert!(l || d > now);
            deadline = d;
            now = deadline + round.mul_f64(2.5);
        }
        assert!(deadline > t0);
    }

    #[test]
    fn flooded_node_keeps_round_cadence() {
        // A 2-process cluster whose p0 well-known ports are flooded
        // continuously with well-formed pull-requests. The fixed-cadence
        // rule must keep p0's round count near elapsed/round even though
        // every round has flood-processing work; bounds are generous for
        // loaded CI machines.
        use drum_core::digest::Digest;
        use drum_core::message::PortRef;

        let (specs, book) = specs(2, 13, drum(40));
        let p0_pull = book.addrs_of(ProcessId(0)).unwrap().pull;
        let (shard, engines) = spawn_shard(specs).unwrap();

        engines[0].publish(Bytes::from_static(b"cadence"));
        // A dead socket keeps fabricated replies addressable without ICMP
        // noise; the flood itself is valid-looking pull-requests.
        let dead = bind_ephemeral().unwrap();
        let dead_port = dead.local_addr().unwrap().port();
        let flood = codec::encode(&GossipMessage::PullRequest {
            from: ProcessId(1),
            digest: Digest::new(),
            reply_port: PortRef::Plain(dead_port),
            nonce: 5,
        });
        let sender = bind_ephemeral().unwrap();
        let started = Instant::now();
        let run = Duration::from_millis(1200);
        while started.elapsed() < run {
            for _ in 0..32 {
                let _ = sender.send_to(&flood, p0_pull);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let elapsed = started.elapsed();
        let stats = shard.shutdown();
        let nominal = elapsed.as_millis() as u64 / 40;
        assert!(
            stats[0].received > 0,
            "the flood must have reached p0: {:?}",
            stats[0]
        );
        for s in &stats {
            assert!(
                s.rounds >= nominal * 55 / 100,
                "node fell behind cadence: {} rounds (+{} late) in {elapsed:?} (~{nominal} nominal)",
                s.rounds,
                s.rounds_late
            );
        }
    }

    #[test]
    fn failed_port_allocation_is_counted() {
        use drum_core::digest::Digest;
        use drum_core::message::PortRef;
        use drum_trace::{MemorySink, Tracer};

        // A peer advertises reply port 0 (what a node whose own random-port
        // allocation failed would send). The engine answers the pull
        // request, the runtime cannot address the reply — the drop must be
        // counted, in the per-node stats and the registry.
        let tracer = Tracer::new(Arc::new(MemorySink::new()));
        let (mut specs, book) = specs(2, 3, drum(20).with_tracer(tracer.clone()));
        let pull_addr = book.addrs_of(ProcessId(0)).unwrap().pull;
        let _silent_peer = specs.pop();
        let (shard, engines) = spawn_shard(specs).unwrap();

        // Give the node something to serve, then pull with reply port 0.
        engines[0].publish(Bytes::from_static(b"served"));
        let sender = bind_ephemeral().unwrap();
        let req = codec::encode(&GossipMessage::PullRequest {
            from: ProcessId(1),
            digest: Digest::new(),
            reply_port: PortRef::Plain(0),
            nonce: 9,
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut counted = false;
        while Instant::now() < deadline && !counted {
            let _ = sender.send_to(&req, pull_addr);
            std::thread::sleep(Duration::from_millis(10));
            counted = tracer.registry().counter(names::NET_ALLOC_FAILED).get() > 0;
        }
        let stats = shard.shutdown();
        assert!(
            counted && stats[0].alloc_failed > 0,
            "the dropped reply must be counted: {:?}",
            stats[0]
        );
    }
}
