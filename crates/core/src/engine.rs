//! The per-process gossip engine: a transport-agnostic implementation of one
//! Drum/Push/Pull endpoint (§4 of the paper).
//!
//! The engine is driven by the transport (e.g. `drum-net`'s UDP runtime):
//!
//! 1. [`Engine::begin_round`] — starts a local round; returns the
//!    pull-requests and push-offers to transmit, with freshly allocated
//!    (and sealed) random reply ports.
//! 2. [`Engine::handle`] — processes one incoming [`GossipMessage`] under
//!    the round's resource bounds and returns any responses.
//! 3. [`Engine::end_round`] — closes the round: purges the buffer,
//!    increments round counters and reports statistics.
//!
//! The engine never trusts the claimed sender of a wire message; only data
//! message *sources* are authenticated (via `drum-crypto`). Unsolicited
//! push-replies are ignored, reply ports are unsealed with the process's own
//! key, and everything beyond the per-channel bounds is dropped, exactly as
//! the paper prescribes.

use crate::bytes::Bytes;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;

use drum_crypto::auth::{self, AuthError};
use drum_crypto::batch::{BatchVerifier, VerifyRequest};
use drum_crypto::hmac::HmacKey;
use drum_crypto::keys::{KeyStore, SecretKey};
use drum_crypto::multiway::{self, LaneStats};
use drum_crypto::seal;
use drum_trace::{names, trace_event, Counter, Timestamp, Tracer};

use crate::bounds::{Channel, RoundBudget};
use crate::buffer::MessageBuffer;
use crate::config::GossipConfig;
use crate::ids::{MessageId, ProcessId, Round};
use crate::message::{DataMessage, GossipMessage, MessageKind, PortRef};
use crate::view::Membership;

/// What the engine asks the transport for when it needs a fresh local port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortPurpose {
    /// Port awaiting pull-replies.
    PullReply,
    /// Port awaiting push-replies.
    PushReply,
    /// Port awaiting push data messages.
    PushData,
}

/// Transport-supplied allocator of random local ports.
///
/// `drum-net` binds an ephemeral UDP socket and returns its port; tests use
/// a counter. Ports allocated in round `r` may be closed after the
/// configured port lifetime.
pub trait PortOracle {
    /// Returns a fresh local port for `purpose`, open as of round `round`.
    fn allocate_port(&mut self, purpose: PortPurpose, round: Round) -> u16;
}

/// A trivial [`PortOracle`] for tests and simulations: sequential ports.
///
/// Rotation stays inside `[ROTATION_BASE, 65_535)` — the ephemeral range a
/// real transport would draw from. The allocation counter is wider than the
/// port space on purpose: long soak runs allocate far more than 64k ports,
/// and the modular reduction keeps every one of them out of the privileged
/// and system-service ranges below 40 000.
#[derive(Debug, Default)]
pub struct CountingPortOracle {
    next: u64,
}

/// First port a [`CountingPortOracle`] rotation can produce.
pub const ROTATION_BASE: u16 = 40_000;

/// Size of the rotation window `[ROTATION_BASE, 65_535)`. The top port
/// 65 535 is excluded so a wrapped value can never alias the "allocation
/// failed" sentinel arithmetic of transports that offset from the base.
pub const ROTATION_SPAN: u64 = (u16::MAX as u64) - (ROTATION_BASE as u64);

impl PortOracle for CountingPortOracle {
    fn allocate_port(&mut self, _purpose: PortPurpose, _round: Round) -> u16 {
        self.next = self.next.wrapping_add(1);
        ROTATION_BASE + (self.next % ROTATION_SPAN) as u16
    }
}

/// Where the transport should deliver an outbound message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendPort {
    /// The destination's well-known pull-request port.
    WellKnownPull,
    /// The destination's well-known push-offer port.
    WellKnownPush,
    /// A specific (previously communicated) port.
    Port(u16),
}

/// An outbound message with routing information.
#[derive(Debug, Clone)]
pub struct Outbound {
    /// Destination process.
    pub to: ProcessId,
    /// Destination port class.
    pub port: SendPort,
    /// The message.
    pub msg: GossipMessage,
}

/// Counters describing what happened during a round (for metrics/tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Messages accepted within budget, by kind.
    pub accepted: [u64; 5],
    /// Messages dropped because a channel budget was exhausted.
    pub dropped_budget: [u64; 5],
    /// Data messages dropped due to failed source authentication.
    pub dropped_auth: u64,
    /// Push-replies dropped because no matching offer was outstanding.
    pub dropped_unsolicited: u64,
    /// New data messages delivered to the application this round.
    pub delivered: u64,
}

impl RoundStats {
    fn kind_index(kind: MessageKind) -> usize {
        match kind {
            MessageKind::PullRequest => 0,
            MessageKind::PullReply => 1,
            MessageKind::PushOffer => 2,
            MessageKind::PushReply => 3,
            MessageKind::PushData => 4,
        }
    }

    /// Accepted count for `kind`.
    pub fn accepted_of(&self, kind: MessageKind) -> u64 {
        self.accepted[Self::kind_index(kind)]
    }

    /// Budget-dropped count for `kind`.
    pub fn dropped_of(&self, kind: MessageKind) -> u64 {
        self.dropped_budget[Self::kind_index(kind)]
    }
}

/// A single gossip endpoint.
pub struct Engine {
    config: GossipConfig,
    membership: Membership,
    buffer: MessageBuffer,
    budget: RoundBudget,
    round: Round,
    next_seq: u64,
    my_key: SecretKey,
    /// Precomputed HMAC schedule for `my_key`; signing a published message
    /// costs no key-schedule work.
    my_auth_key: HmacKey,
    key_store: KeyStore,
    rng: SmallRng,
    /// Processes we sent a push-offer to this round; push-replies from
    /// anyone else are unsolicited and dropped.
    offered_to: HashSet<ProcessId>,
    /// Newly delivered messages awaiting collection by the application.
    delivered: Vec<DataMessage>,
    /// Reusable scratch for pull/push reply selection; grows once to
    /// `max_msgs_per_exchange` and is then recycled every exchange.
    scratch: Vec<DataMessage>,
    /// Per-round statistics.
    stats: RoundStats,
    /// Monotonic seal-nonce counter.
    nonce: u64,
    /// Fallback well-known reply ports for the no-random-ports ablation.
    fixed_pull_reply_port: u16,
    fixed_push_reply_port: u16,
    fixed_push_data_port: u16,
    /// Structured-event emitter (disabled by default: one branch per site).
    tracer: Tracer,
    /// Multiway MAC verification (`drum_crypto::batch`) of the messages of
    /// one delivery that are new to this node. `Some` only where the 8-lane
    /// kernel is the host's fastest SHA-256 (`multiway::simd_preferred`);
    /// everywhere else — SHA-NI and scalar hosts — `None`, and each new message pays one direct
    /// [`DataMessage::verify`], which is cheaper there. Decisions are
    /// identical either way.
    verify_cache: Option<BatchVerifier>,
    /// Cached registry handles for the batch-verification counters,
    /// refreshed by [`Engine::set_tracer`] so the hot receive path never
    /// takes the registry lock.
    c_mac_full: Counter,
    c_mac_hits: Counter,
    /// Cumulative SHA-256 kernel work behind source verification —
    /// harvested from the batch verifier, or counted per compression on the
    /// direct path — exposed through [`Engine::lane_stats`] so the
    /// transport emits per-round deltas.
    mac_lane: LaneStats,
}

impl core::fmt::Debug for Engine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Engine")
            .field("me", &self.membership.me())
            .field("round", &self.round)
            .field("buffered", &self.buffer.len())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Creates an engine for `membership.me()`.
    ///
    /// `my_key` is this process's secret (also registered in `key_store`);
    /// `seed` makes all random choices reproducible.
    pub fn new(
        config: GossipConfig,
        membership: Membership,
        key_store: KeyStore,
        my_key: SecretKey,
        seed: u64,
    ) -> Self {
        let budget = RoundBudget::for_config(&config);
        let buffer = MessageBuffer::new(config.buffer_rounds);
        let my_auth_key = my_key.hmac_key();
        let tracer = Tracer::disabled();
        let c_mac_full = tracer.registry().counter(names::MAC_FULL_VERIFIES);
        let c_mac_hits = tracer.registry().counter(names::MAC_BATCH_HITS);
        Engine {
            config,
            membership,
            buffer,
            budget,
            round: Round::ZERO,
            next_seq: 0,
            my_key,
            my_auth_key,
            key_store,
            rng: SmallRng::seed_from_u64(seed),
            offered_to: HashSet::new(),
            delivered: Vec::new(),
            scratch: Vec::new(),
            stats: RoundStats::default(),
            nonce: 0,
            fixed_pull_reply_port: crate::WELL_KNOWN_PULL_REPLY_PORT,
            fixed_push_reply_port: crate::WELL_KNOWN_PUSH_REPLY_PORT,
            fixed_push_data_port: crate::WELL_KNOWN_PUSH_DATA_PORT,
            tracer,
            verify_cache: multiway::simd_preferred().then(BatchVerifier::new),
            c_mac_full,
            c_mac_hits,
            mac_lane: LaneStats::default(),
        }
    }

    /// Attaches a tracer; engine events use round-numbered timestamps so
    /// fixed-seed runs trace byte-identically.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        self.c_mac_full = self.tracer.registry().counter(names::MAC_FULL_VERIFIES);
        self.c_mac_hits = self.tracer.registry().counter(names::MAC_BATCH_HITS);
    }

    /// Forces the batched verification path on or off, overriding the
    /// host dispatch picked by [`Engine::new`]. Tests use this to compare the two paths side by
    /// side on any host.
    pub fn set_batch_verify(&mut self, enabled: bool) {
        if enabled == self.verify_cache.is_some() {
            return;
        }
        self.verify_cache = enabled.then(BatchVerifier::new);
    }

    /// Whether received data messages go through the batched verifier.
    pub fn batch_verify_enabled(&self) -> bool {
        self.verify_cache.is_some()
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    #[inline]
    fn now(&self) -> Timestamp {
        Timestamp::Round(self.round.as_u64())
    }

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.membership.me()
    }

    /// Current local round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// Read access to the message buffer.
    pub fn buffer(&self) -> &MessageBuffer {
        &self.buffer
    }

    /// Mutable access to the membership list (join/leave events).
    pub fn membership_mut(&mut self) -> &mut Membership {
        &mut self.membership
    }

    /// Read access to the membership list.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Statistics of the round in progress.
    pub fn stats(&self) -> &RoundStats {
        &self.stats
    }

    /// Remaining acceptance capacity on `channel` for the current round.
    ///
    /// Transports use this to stop reading a well-known socket once its
    /// budget is exhausted — the excess stays queued in (and eventually
    /// overflows) the OS buffer, which is exactly the paper's
    /// "discard all unread messages" semantics on a real network stack.
    pub fn remaining_budget(&self, channel: Channel) -> usize {
        self.budget.remaining(channel)
    }

    /// Overrides the fixed reply/data ports used when `random_ports` is
    /// disabled (the Figure 12(a) ablation). A real transport binds actual
    /// sockets for these and registers their port numbers here; the
    /// defaults are only meaningful for abstract transports.
    pub fn set_fixed_ports(&mut self, pull_reply: u16, push_reply: u16, push_data: u16) {
        self.fixed_pull_reply_port = pull_reply;
        self.fixed_push_reply_port = push_reply;
        self.fixed_push_data_port = push_data;
    }

    /// Originates a new multicast message with this process as source.
    /// The message is signed, buffered and will gossip from the next
    /// exchange on. Returns its id.
    pub fn publish(&mut self, payload: Bytes) -> MessageId {
        let id = MessageId::new(self.me(), self.next_seq);
        self.next_seq += 1;
        let mut msg = DataMessage::sign_new_with(&self.my_auth_key, id, payload);
        // §8.1: the source logs 0 and immediately increases the counter to 1.
        msg.hops = 1;
        self.buffer.insert(msg, self.round);
        trace_event!(
            self.tracer,
            "engine",
            "publish",
            self.now(),
            me = self.me().as_u64(),
            seq = id.seq
        );
        id
    }

    /// Drains messages newly delivered to the application.
    pub fn take_delivered(&mut self) -> Vec<DataMessage> {
        core::mem::take(&mut self.delivered)
    }

    fn next_nonce(&mut self) -> u64 {
        self.nonce += 1;
        (self.round.as_u64() << 20) | (self.nonce & 0xFFFFF)
    }

    /// Cumulative SHA-256 kernel counters behind source verification since
    /// engine creation: an 8-wide call is +1 call / +8 lanes, a single-block
    /// compression +1 / +1 (so `lanes_filled` is blocks hashed on every
    /// path). Monotone, so per-round deltas are well defined for registry
    /// emission.
    pub fn lane_stats(&self) -> LaneStats {
        self.mac_lane
    }

    /// Seals `port` for `to` if random ports are enabled (and the peer key
    /// is known); otherwise returns a plaintext port reference.
    fn port_ref_for(&mut self, to: ProcessId, port: u16) -> (PortRef, u64) {
        let nonce = self.next_nonce();
        if self.config.random_ports {
            if let Ok(key) = self.key_store.key_of(to.as_u64()) {
                if let Ok(sealed) = seal::seal_port(&key, nonce, port) {
                    return (PortRef::Sealed(sealed), nonce);
                }
            }
        }
        (PortRef::Plain(port), nonce)
    }

    /// Recovers a reply port sent to us. Sealed ports are opened with our
    /// own key; plain ports are used as-is. `None` means the message was
    /// malformed (bad seal) and must be dropped.
    fn resolve_port(&self, port: &PortRef) -> Option<u16> {
        match port {
            PortRef::None => None,
            PortRef::Plain(p) => Some(*p),
            PortRef::Sealed(sealed) => seal::open_port(&self.my_key, sealed).ok(),
        }
    }

    /// Starts a new local round.
    ///
    /// Resets budgets (discarding "unread" capacity), samples this round's
    /// views and returns the pull-requests and push-offers to send. The
    /// `oracle` supplies fresh random local ports; when the configuration
    /// disables random ports, fixed well-known ports are used instead
    /// (Figure 12(a) ablation).
    pub fn begin_round<O: PortOracle>(&mut self, oracle: &mut O) -> Vec<Outbound> {
        self.round = self.round.next();
        self.budget.reset();
        self.stats = RoundStats::default();
        self.offered_to.clear();
        if let Some(cache) = self.verify_cache.as_mut() {
            cache.begin_round();
        }
        self.buffer.increment_hops();
        self.buffer.purge(self.round);

        let views = self.membership.sample_round_views(
            self.config.view_push_size(),
            self.config.view_pull_size(),
            &mut self.rng,
        );

        trace_event!(
            self.tracer,
            "engine",
            "round.begin",
            self.now(),
            me = self.me().as_u64(),
            pull = views.pull.len(),
            push = views.push.len(),
            buffered = self.buffer.len()
        );

        let mut out = Vec::with_capacity(views.push.len() + views.pull.len());

        // Nothing below touches the buffer, so every pull target is sent
        // the same digest: built for the first, cloned for the rest.
        let mut digest = None;
        for target in views.pull {
            let port = if self.config.random_ports {
                oracle.allocate_port(PortPurpose::PullReply, self.round)
            } else {
                self.fixed_pull_reply_port
            };
            let (reply_port, nonce) = self.port_ref_for(target, port);
            out.push(Outbound {
                to: target,
                port: SendPort::WellKnownPull,
                msg: GossipMessage::PullRequest {
                    from: self.me(),
                    digest: digest.get_or_insert_with(|| self.buffer.digest()).clone(),
                    reply_port,
                    nonce,
                },
            });
        }

        for target in views.push {
            self.offered_to.insert(target);
            let port = if self.config.random_ports {
                oracle.allocate_port(PortPurpose::PushReply, self.round)
            } else {
                self.fixed_push_reply_port
            };
            let (reply_port, nonce) = self.port_ref_for(target, port);
            out.push(Outbound {
                to: target,
                port: SendPort::WellKnownPush,
                msg: GossipMessage::PushOffer {
                    from: self.me(),
                    reply_port,
                    nonce,
                },
            });
        }

        out
    }

    /// Processes one incoming message, applying resource bounds, and
    /// returns any responses to transmit.
    pub fn handle<O: PortOracle>(
        &mut self,
        incoming: GossipMessage,
        oracle: &mut O,
    ) -> Vec<Outbound> {
        let mut out = Vec::new();
        self.handle_into(incoming, oracle, &mut out);
        out
    }

    /// Like [`Engine::handle`], but appends responses to a caller-owned
    /// vector so transports can reuse one allocation across the many
    /// messages of a poll iteration.
    pub fn handle_into<O: PortOracle>(
        &mut self,
        incoming: GossipMessage,
        oracle: &mut O,
        out: &mut Vec<Outbound>,
    ) {
        self.dispatch(incoming, oracle, out);
    }

    /// [`Engine::handle_into`] under its retired name. There is no
    /// pre-verified path any more — a frame tag only proved that *a member*
    /// built the frame, and a malicious member could wrap forged sources in
    /// one — so this verifies every new message's source like any other
    /// entry point. Nothing in the workspace calls it; it stays only
    /// because `benchmark/`'s engine probes compile against the name.
    pub fn handle_into_preverified<O: PortOracle>(
        &mut self,
        incoming: GossipMessage,
        oracle: &mut O,
        out: &mut Vec<Outbound>,
    ) {
        self.dispatch(incoming, oracle, out);
    }

    fn dispatch<O: PortOracle>(
        &mut self,
        incoming: GossipMessage,
        oracle: &mut O,
        out: &mut Vec<Outbound>,
    ) {
        let kind = incoming.kind();
        let channel = Channel::for_kind(kind);
        if !self.budget.try_accept(channel) {
            self.stats.dropped_budget[RoundStats::kind_index(kind)] += 1;
            // Edge-triggered: one `budget.exhausted` event per channel per
            // round, when its first message is refused. Per-drop events
            // would let an attacker amplify flood traffic into tracing
            // work; the full drop counts appear in `round.end` instead.
            if self.stats.dropped_budget[RoundStats::kind_index(kind)] == 1 {
                trace_event!(
                    self.tracer,
                    "engine",
                    "budget.exhausted",
                    self.now(),
                    me = self.me().as_u64(),
                    kind = kind.name()
                );
            }
            return;
        }
        self.stats.accepted[RoundStats::kind_index(kind)] += 1;
        trace_event!(
            self.tracer,
            "engine",
            "msg.accept",
            self.now(),
            me = self.me().as_u64(),
            kind = kind.name()
        );

        match incoming {
            GossipMessage::PullRequest {
                from,
                digest,
                reply_port,
                ..
            } => {
                let Some(port) = self.resolve_port(&reply_port) else {
                    return;
                };
                self.buffer.select_missing_into(
                    &digest,
                    self.config.max_msgs_per_exchange,
                    &mut self.rng,
                    &mut self.scratch,
                );
                out.push(Outbound {
                    to: from,
                    port: SendPort::Port(port),
                    msg: GossipMessage::PullReply {
                        from: self.me(),
                        messages: self.scratch.clone(),
                    },
                });
            }
            GossipMessage::PushOffer {
                from, reply_port, ..
            } => {
                let Some(port) = self.resolve_port(&reply_port) else {
                    return;
                };
                let data_port = if self.config.random_ports {
                    oracle.allocate_port(PortPurpose::PushData, self.round)
                } else {
                    self.fixed_push_data_port
                };
                let (data_port_ref, nonce) = self.port_ref_for(from, data_port);
                out.push(Outbound {
                    to: from,
                    port: SendPort::Port(port),
                    msg: GossipMessage::PushReply {
                        from: self.me(),
                        digest: self.buffer.digest(),
                        data_port: data_port_ref,
                        nonce,
                    },
                });
            }
            GossipMessage::PushReply {
                from,
                digest,
                data_port,
                ..
            } => {
                if !self.offered_to.contains(&from) {
                    self.stats.dropped_unsolicited += 1;
                    trace_event!(
                        self.tracer,
                        "engine",
                        "push_reply.unsolicited",
                        self.now(),
                        me = self.me().as_u64(),
                        from = from.as_u64()
                    );
                    return;
                }
                // One reply per offer.
                self.offered_to.remove(&from);
                let Some(port) = self.resolve_port(&data_port) else {
                    return;
                };
                self.buffer.select_missing_into(
                    &digest,
                    self.config.max_msgs_per_exchange,
                    &mut self.rng,
                    &mut self.scratch,
                );
                if self.scratch.is_empty() {
                    return;
                }
                out.push(Outbound {
                    to: from,
                    port: SendPort::Port(port),
                    msg: GossipMessage::PushData {
                        from: self.me(),
                        messages: self.scratch.clone(),
                    },
                });
            }
            GossipMessage::PullReply { messages, .. }
            | GossipMessage::PushData { messages, .. } => {
                self.receive_data(messages);
            }
        }
    }

    /// De-duplicates, verifies and delivers incoming data messages.
    ///
    /// Seen before MAC: a message whose id the buffer has already seen is
    /// skipped before any MAC, clone or bookkeeping. It could never be
    /// admitted anyway (`buffer.insert` refuses seen ids — a valid copy as
    /// a duplicate, a forged copy as a forgery), so the work per delivery
    /// follows the messages that are *new* to this node, and nothing is
    /// ever admitted unverified (§4: the source must authenticate).
    ///
    /// The remainder is verified by the host's faster path: one
    /// [`DataMessage::verify`] per message, or one multiway pass over all
    /// of them where the 8-lane kernel runs. Verdicts apply in arrival
    /// order either way, so `RoundStats`, delivery order and trace events
    /// are identical; only the kernel-call count differs.
    fn receive_data(&mut self, mut messages: Vec<DataMessage>) {
        let verdicts = self.verify_cache.as_mut().map(|cache| {
            let buffer = &self.buffer;
            messages.retain(|msg| !buffer.seen(msg.id));
            let reqs: Vec<VerifyRequest<'_>> = messages
                .iter()
                .map(|msg| VerifyRequest {
                    frame: false,
                    source: msg.id.source.as_u64(),
                    seq: msg.id.seq,
                    payload: &msg.payload,
                    tag: msg.auth,
                })
                .collect();
            let mut out = Vec::with_capacity(reqs.len());
            cache.verify_many(&self.key_store, &reqs, &mut out);
            let counters = cache.take_counters();
            self.c_mac_full.add(counters.full_verifies);
            self.c_mac_hits.add(counters.batch_hits);
            self.mac_lane.merge(LaneStats {
                compress_calls: counters.compress_calls,
                lanes_filled: counters.lanes_filled,
            });
            out
        });
        for (i, msg) in messages.into_iter().enumerate() {
            // Also catches a second copy within this same delivery.
            if self.buffer.seen(msg.id) {
                continue;
            }
            let verdict = match &verdicts {
                Some(verdicts) => verdicts[i],
                None => self.verify_direct(&msg),
            };
            if verdict.is_err() {
                self.stats.dropped_auth += 1;
                trace_event!(
                    self.tracer,
                    "engine",
                    "auth.drop",
                    self.now(),
                    me = self.me().as_u64(),
                    source = msg.id.source.as_u64(),
                    seq = msg.id.seq
                );
                continue;
            }
            let admitted = self.buffer.insert(msg.clone(), self.round);
            debug_assert!(admitted, "unseen a moment ago");
            self.stats.delivered += 1;
            trace_event!(
                self.tracer,
                "engine",
                "buffer.admit",
                self.now(),
                me = self.me().as_u64(),
                source = msg.id.source.as_u64(),
                seq = msg.id.seq,
                hops = u64::from(msg.hops)
            );
            self.delivered.push(msg);
        }
    }

    /// One direct source verification, with its compressions counted the
    /// way the multiway kernel counts its own single-block calls (+1 call,
    /// +1 lane each). An unknown source is rejected before any hashing.
    fn verify_direct(&mut self, msg: &DataMessage) -> Result<(), AuthError> {
        let verdict = msg.verify(&self.key_store);
        if !matches!(verdict, Err(AuthError::UnknownSource(_))) {
            let blocks = auth::msg_tag_compressions(msg.payload.len());
            self.mac_lane.merge(LaneStats {
                compress_calls: blocks,
                lanes_filled: blocks,
            });
        }
        verdict
    }

    /// Ends the round and returns its statistics. (The budget is reset at
    /// the *start* of the next round, so late messages of this round are
    /// still counted against it, matching the discard-unread semantics.)
    pub fn end_round(&mut self) -> RoundStats {
        trace_event!(
            self.tracer,
            "engine",
            "round.end",
            self.now(),
            me = self.me().as_u64(),
            accepted = self.stats.accepted.iter().sum::<u64>(),
            dropped_budget = self.stats.dropped_budget.iter().sum::<u64>(),
            dropped_auth = self.stats.dropped_auth,
            delivered = self.stats.delivered
        );
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolVariant;
    use crate::digest::Digest;

    fn setup(n: u64, variant: ProtocolVariant) -> (Vec<Engine>, KeyStore) {
        let store = KeyStore::new(7);
        let members: Vec<ProcessId> = (0..n).map(ProcessId).collect();
        let mut engines = Vec::new();
        for &m in &members {
            let key = store.register(m.as_u64());
            let config = match variant {
                ProtocolVariant::Drum => GossipConfig::drum(),
                ProtocolVariant::Push => GossipConfig::push(),
                ProtocolVariant::Pull => GossipConfig::pull(),
            };
            engines.push(Engine::new(
                config,
                Membership::new(m, members.clone()),
                store.clone(),
                key,
                m.as_u64() + 1,
            ));
        }
        (engines, store)
    }

    /// Routes messages between engines for `rounds` rounds with no loss.
    fn run_rounds(engines: &mut [Engine], rounds: usize) {
        let mut oracle = CountingPortOracle::default();
        for _ in 0..rounds {
            let mut inflight: Vec<Outbound> = Vec::new();
            let me_of = |o: &Outbound| o.to.as_u64() as usize;
            for e in engines.iter_mut() {
                inflight.extend(e.begin_round(&mut oracle));
            }
            // Settle all cascades within the round.
            while !inflight.is_empty() {
                let mut next = Vec::new();
                for out in inflight {
                    let idx = me_of(&out);
                    next.extend(engines[idx].handle(out.msg, &mut oracle));
                }
                inflight = next;
            }
            for e in engines.iter_mut() {
                e.end_round();
            }
        }
    }

    #[test]
    fn publish_buffers_and_signs() {
        let (mut engines, store) = setup(2, ProtocolVariant::Drum);
        let id = engines[0].publish(Bytes::from_static(b"hello"));
        assert!(engines[0].buffer().contains(id));
        assert!(engines[0].buffer().get(id).unwrap().verify(&store).is_ok());
        assert_eq!(engines[0].buffer().get(id).unwrap().hops, 1);
    }

    #[test]
    fn drum_disseminates_to_all() {
        let (mut engines, _) = setup(8, ProtocolVariant::Drum);
        let id = engines[0].publish(Bytes::from_static(b"m"));
        run_rounds(&mut engines, 10);
        for e in &engines {
            assert!(e.buffer().seen(id), "{:?} missing message", e.me());
        }
    }

    #[test]
    fn push_disseminates_to_all() {
        let (mut engines, _) = setup(8, ProtocolVariant::Push);
        let id = engines[0].publish(Bytes::from_static(b"m"));
        run_rounds(&mut engines, 12);
        for e in &engines {
            assert!(e.buffer().seen(id));
        }
    }

    #[test]
    fn pull_disseminates_to_all() {
        let (mut engines, _) = setup(8, ProtocolVariant::Pull);
        let id = engines[0].publish(Bytes::from_static(b"m"));
        run_rounds(&mut engines, 15);
        for e in &engines {
            assert!(e.buffer().seen(id));
        }
    }

    #[test]
    fn delivery_reported_once() {
        let (mut engines, _) = setup(4, ProtocolVariant::Drum);
        engines[0].publish(Bytes::from_static(b"m"));
        run_rounds(&mut engines, 8);
        let delivered = engines[1].take_delivered();
        assert_eq!(delivered.len(), 1);
        // Draining twice yields nothing new.
        assert!(engines[1].take_delivered().is_empty());
    }

    #[test]
    fn forged_data_rejected() {
        let (mut engines, _) = setup(2, ProtocolVariant::Drum);
        let fake = DataMessage {
            id: MessageId::new(ProcessId(0), 99),
            hops: 0,
            payload: Bytes::from_static(b"forged"),
            auth: drum_crypto::auth::AuthTag::zero(),
        };
        let mut oracle = CountingPortOracle::default();
        engines[1].begin_round(&mut oracle);
        engines[1].handle(
            GossipMessage::PushData {
                from: ProcessId(0),
                messages: vec![fake.clone()],
            },
            &mut oracle,
        );
        assert!(!engines[1].buffer().seen(fake.id));
        assert_eq!(engines[1].stats().dropped_auth, 1);
    }

    #[test]
    fn budget_drops_flood() {
        let (mut engines, _) = setup(2, ProtocolVariant::Drum);
        let mut oracle = CountingPortOracle::default();
        engines[0].begin_round(&mut oracle);
        // Flood the pull port with 50 requests: only F/2 = 2 accepted.
        let mut responses = 0;
        for i in 0..50 {
            let req = GossipMessage::PullRequest {
                from: ProcessId(1),
                digest: Digest::new(),
                reply_port: PortRef::Plain(1000 + i),
                nonce: i as u64,
            };
            responses += engines[0].handle(req, &mut oracle).len();
        }
        assert_eq!(responses, 2);
        assert_eq!(engines[0].stats().accepted_of(MessageKind::PullRequest), 2);
        assert_eq!(engines[0].stats().dropped_of(MessageKind::PullRequest), 48);
    }

    #[test]
    fn unsolicited_push_reply_dropped() {
        let (mut engines, _) = setup(2, ProtocolVariant::Drum);
        let mut oracle = CountingPortOracle::default();
        engines[0].begin_round(&mut oracle);
        let reply = GossipMessage::PushReply {
            from: ProcessId(1),
            digest: Digest::new(),
            data_port: PortRef::Plain(5000),
            nonce: 0,
        };
        // Engine 0 never offered to p1 in this contrived setup... unless the
        // random view picked it. Force the situation by clearing:
        engines[0].offered_to.clear();
        let out = engines[0].handle(reply, &mut oracle);
        assert!(out.is_empty());
        assert_eq!(engines[0].stats().dropped_unsolicited, 1);
    }

    #[test]
    fn push_reply_accepted_only_once_per_offer() {
        let (mut engines, _) = setup(2, ProtocolVariant::Drum);
        engines[0].publish(Bytes::from_static(b"m"));
        let mut oracle = CountingPortOracle::default();
        engines[0].begin_round(&mut oracle);
        engines[0].offered_to.insert(ProcessId(1));
        let reply = || GossipMessage::PushReply {
            from: ProcessId(1),
            digest: Digest::new(),
            data_port: PortRef::Plain(5000),
            nonce: 0,
        };
        let first = engines[0].handle(reply(), &mut oracle);
        assert_eq!(first.len(), 1);
        assert!(matches!(first[0].msg, GossipMessage::PushData { .. }));
        let second = engines[0].handle(reply(), &mut oracle);
        assert!(second.is_empty());
    }

    #[test]
    fn sealed_ports_used_when_enabled() {
        let (mut engines, _) = setup(3, ProtocolVariant::Drum);
        let mut oracle = CountingPortOracle::default();
        let out = engines[0].begin_round(&mut oracle);
        assert!(!out.is_empty());
        for o in &out {
            match &o.msg {
                GossipMessage::PullRequest { reply_port, .. }
                | GossipMessage::PushOffer { reply_port, .. } => {
                    assert!(reply_port.is_sealed(), "port must be sealed: {o:?}");
                }
                other => panic!("unexpected round-start message {other:?}"),
            }
        }
    }

    #[test]
    fn plain_ports_when_random_ports_disabled() {
        let store = KeyStore::new(7);
        let members: Vec<ProcessId> = (0..3).map(ProcessId).collect();
        let key = store.register(0);
        for m in &members {
            store.register(m.as_u64());
        }
        let mut engine = Engine::new(
            GossipConfig::drum().with_random_ports(false),
            Membership::new(ProcessId(0), members),
            store,
            key,
            1,
        );
        let mut oracle = CountingPortOracle::default();
        let out = engine.begin_round(&mut oracle);
        for o in &out {
            match &o.msg {
                GossipMessage::PullRequest { reply_port, .. }
                | GossipMessage::PushOffer { reply_port, .. } => {
                    assert!(matches!(reply_port, PortRef::Plain(_)));
                }
                other => panic!("unexpected message {other:?}"),
            }
        }
    }

    #[test]
    fn round_advances_and_budget_resets() {
        let (mut engines, _) = setup(2, ProtocolVariant::Drum);
        let mut oracle = CountingPortOracle::default();
        assert_eq!(engines[0].round(), Round(0));
        engines[0].begin_round(&mut oracle);
        assert_eq!(engines[0].round(), Round(1));
        // Exhaust pull budget.
        for i in 0..10 {
            engines[0].handle(
                GossipMessage::PullRequest {
                    from: ProcessId(1),
                    digest: Digest::new(),
                    reply_port: PortRef::Plain(i),
                    nonce: 0,
                },
                &mut oracle,
            );
        }
        engines[0].end_round();
        engines[0].begin_round(&mut oracle);
        // Fresh budget accepts again.
        let out = engines[0].handle(
            GossipMessage::PullRequest {
                from: ProcessId(1),
                digest: Digest::new(),
                reply_port: PortRef::Plain(1),
                nonce: 0,
            },
            &mut oracle,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn buffer_purges_after_configured_rounds() {
        let (mut engines, _) = setup(2, ProtocolVariant::Drum);
        let id = engines[0].publish(Bytes::from_static(b"m"));
        let mut oracle = CountingPortOracle::default();
        for _ in 0..11 {
            engines[0].begin_round(&mut oracle);
            engines[0].end_round();
        }
        assert!(!engines[0].buffer().contains(id));
        assert!(engines[0].buffer().seen(id));
    }

    #[test]
    fn tracer_records_budget_drops_and_round_lifecycle() {
        use drum_trace::{MemorySink, Tracer, Value};
        use std::sync::Arc;

        let (mut engines, _) = setup(2, ProtocolVariant::Drum);
        let sink = Arc::new(MemorySink::new());
        engines[0].set_tracer(Tracer::new(sink.clone()));
        let mut oracle = CountingPortOracle::default();
        engines[0].begin_round(&mut oracle);
        for i in 0..10 {
            engines[0].handle(
                GossipMessage::PullRequest {
                    from: ProcessId(1),
                    digest: Digest::new(),
                    reply_port: PortRef::Plain(1000 + i),
                    nonce: i as u64,
                },
                &mut oracle,
            );
        }
        let stats = engines[0].end_round();

        let events = sink.take();
        let count = |name: &str| events.iter().filter(|e| e.name == name).count() as u64;
        assert_eq!(count("round.begin"), 1);
        assert_eq!(count("round.end"), 1);
        // Bound exhaustion is edge-triggered: exactly one event for the
        // flooded pull-request channel no matter how many drops occurred.
        assert!(stats.dropped_of(MessageKind::PullRequest) > 1);
        assert_eq!(count("budget.exhausted"), 1);
        assert_eq!(
            count("msg.accept"),
            stats.accepted_of(MessageKind::PullRequest)
        );
        // Every engine event carries the emitting process id.
        for e in &events {
            assert_eq!(e.target, "engine");
            assert_eq!(e.field("me"), Some(&Value::U64(0)));
        }
    }

    #[test]
    fn pull_reply_respects_exchange_cap() {
        let store = KeyStore::new(7);
        let members: Vec<ProcessId> = (0..2).map(ProcessId).collect();
        let k0 = store.register(0);
        store.register(1);
        let mut engine = Engine::new(
            GossipConfig::drum().with_max_msgs_per_exchange(3),
            Membership::new(ProcessId(0), members),
            store,
            k0,
            1,
        );
        for _ in 0..10 {
            engine.publish(Bytes::from_static(b"m"));
        }
        let mut oracle = CountingPortOracle::default();
        engine.begin_round(&mut oracle);
        let out = engine.handle(
            GossipMessage::PullRequest {
                from: ProcessId(1),
                digest: Digest::new(),
                reply_port: PortRef::Plain(9),
                nonce: 0,
            },
            &mut oracle,
        );
        match &out[0].msg {
            GossipMessage::PullReply { messages, .. } => assert_eq!(messages.len(), 3),
            other => panic!("expected pull-reply, got {other:?}"),
        }
    }

    #[test]
    fn counting_oracle_never_leaves_rotation_window() {
        // Regression: the oracle used to compute `40_000u16.wrapping_add(n)`
        // with a u16 counter, so allocation ~25.5k wrapped past 65 535 into
        // the privileged port range. Drive well past both the old port-space
        // wrap (25 535 allocations) and the old counter wrap (65 535).
        let mut oracle = CountingPortOracle::default();
        let mut first_window = Vec::with_capacity(4);
        for i in 0u64..70_000 {
            let port = oracle.allocate_port(PortPurpose::PullReply, Round(0));
            assert!(
                (ROTATION_BASE..u16::MAX).contains(&port),
                "allocation {i} escaped the rotation window: {port}"
            );
            if i < 4 {
                first_window.push(port);
            }
        }
        // Unchanged low-allocation behavior: sequential from the base.
        assert_eq!(first_window, vec![40_001, 40_002, 40_003, 40_004]);
        // The rotation really cycles (modular, not saturating): after one
        // full span the sequence returns to the base of the window.
        let mut fresh = CountingPortOracle::default();
        for _ in 0..ROTATION_SPAN {
            fresh.allocate_port(PortPurpose::PushData, Round(0));
        }
        assert_eq!(
            fresh.allocate_port(PortPurpose::PushData, Round(0)),
            40_001,
            "one full span must wrap back to the first port"
        );
    }

    /// A hostile data batch: a valid message, duplicate fan-in of it, a
    /// payload-tampered copy, an outright forgery, and repeats of each —
    /// the mix a flooded receiver actually drains out of `recvmmsg`.
    fn hostile_mix(publisher: &mut Engine) -> Vec<DataMessage> {
        let id = publisher.publish(Bytes::from_static(b"real"));
        let real = publisher.buffer().get(id).unwrap().clone();
        let mut tampered = real.clone();
        tampered.payload = Bytes::from_static(b"tampered");
        let forged = DataMessage {
            id: MessageId::new(ProcessId(0), 77),
            hops: 0,
            payload: Bytes::from_static(b"forged"),
            auth: drum_crypto::auth::AuthTag::zero(),
        };
        vec![
            real.clone(),
            real.clone(),
            tampered.clone(),
            forged.clone(),
            real,
            tampered,
            forged,
        ]
    }

    #[test]
    fn batched_verification_matches_per_datagram_path() {
        // Two identically seeded instances; only the verification path
        // differs. Accept/reject decisions, stats and delivery must match.
        let (mut batched, _) = setup(2, ProtocolVariant::Drum);
        let (mut fallback, _) = setup(2, ProtocolVariant::Drum);
        batched[1].set_batch_verify(true);
        fallback[1].set_batch_verify(false);

        let mut results = Vec::new();
        for engines in [&mut batched, &mut fallback] {
            let mix = hostile_mix(&mut engines[0]);
            let mut oracle = CountingPortOracle::default();
            engines[1].begin_round(&mut oracle);
            engines[1].handle(
                GossipMessage::PushData {
                    from: ProcessId(0),
                    messages: mix,
                },
                &mut oracle,
            );
            let stats = engines[1].end_round();
            results.push((stats, engines[1].take_delivered()));
        }
        assert_eq!(results[0], results[1]);
        // One unique valid message, delivered once. Its duplicates and its
        // tampered copies arrive after it was admitted and are skipped as
        // seen; only the forgery of an *unseen* id is examined, twice.
        assert_eq!(results[0].0.dropped_auth, 2);
        assert_eq!(results[0].0.delivered, 1);
        // The direct path hashed the first `real` (2 blocks) and each
        // `forged` (2 + 2), nothing else.
        assert_eq!(fallback[1].lane_stats().compress_calls, 6);
    }

    #[test]
    fn identical_fan_in_pays_one_hmac() {
        // Both paths: the first copy is verified and admitted, the other 31
        // are skipped as seen before any MAC.
        for batch in [true, false] {
            let (mut engines, _) = setup(2, ProtocolVariant::Drum);
            engines[1].set_batch_verify(batch);
            let id = engines[0].publish(Bytes::from_static(b"m"));
            let real = engines[0].buffer().get(id).unwrap().clone();
            let mut oracle = CountingPortOracle::default();
            engines[1].begin_round(&mut oracle);
            engines[1].handle(
                GossipMessage::PushData {
                    from: ProcessId(0),
                    messages: vec![real.clone(); 32],
                },
                &mut oracle,
            );
            assert_eq!(engines[1].stats().delivered, 1);
            // One short HMAC: inner tail block + outer block.
            assert_eq!(engines[1].lane_stats().lanes_filled, 2, "batch={batch}");

            // Seen is not round-scoped: the same fan-in next round (and
            // through the other push-data slot of this one) costs nothing.
            engines[1].begin_round(&mut oracle);
            for _ in 0..2 {
                engines[1].handle(
                    GossipMessage::PushData {
                        from: ProcessId(0),
                        messages: vec![real.clone(); 8],
                    },
                    &mut oracle,
                );
            }
            assert_eq!(engines[1].stats().delivered, 0);
            assert_eq!(engines[1].lane_stats().lanes_filled, 2, "batch={batch}");
            if batch {
                let reg = engines[1].tracer().registry();
                assert_eq!(reg.counter(names::MAC_FULL_VERIFIES).get(), 1);
                assert_eq!(reg.counter(names::MAC_BATCH_HITS).get(), 31);
            }
        }
    }

    #[test]
    fn forged_copy_of_an_admitted_id_costs_nothing() {
        let (mut engines, store) = setup(2, ProtocolVariant::Drum);
        let id = engines[0].publish(Bytes::from_static(b"the real one"));
        let real = engines[0].buffer().get(id).unwrap().clone();
        let mut oracle = CountingPortOracle::default();
        engines[1].begin_round(&mut oracle);
        engines[1].handle(
            GossipMessage::PushData {
                from: ProcessId(0),
                messages: vec![real],
            },
            &mut oracle,
        );
        assert_eq!(engines[1].take_delivered().len(), 1);
        let before = engines[1].lane_stats();

        let forged = DataMessage {
            id,
            hops: 0,
            payload: Bytes::from_static(b"something else"),
            auth: drum_crypto::auth::AuthTag::zero(),
        };
        engines[1].handle(
            GossipMessage::PushData {
                from: ProcessId(0),
                messages: vec![forged],
            },
            &mut oracle,
        );
        assert!(engines[1].take_delivered().is_empty());
        assert_eq!(engines[1].stats().dropped_auth, 0);
        assert_eq!(engines[1].lane_stats(), before, "no compression ran");
        // The stored message is still the authentic one.
        let stored = engines[1].buffer().get(id).unwrap();
        assert_eq!(stored.payload, Bytes::from_static(b"the real one"));
        assert!(stored.verify(&store).is_ok());
    }

    #[test]
    fn forgery_before_the_real_message_does_not_block_it() {
        // Seen-first must never let a forgery claim an id: a rejected
        // message is not remembered, so the authentic copy still lands.
        let (mut engines, _) = setup(2, ProtocolVariant::Drum);
        let id = engines[0].publish(Bytes::from_static(b"real"));
        let real = engines[0].buffer().get(id).unwrap().clone();
        let mut tampered = real.clone();
        tampered.payload = Bytes::from_static(b"fake");
        for batch in [true, false] {
            let (mut receivers, _) = setup(2, ProtocolVariant::Drum);
            receivers[1].set_batch_verify(batch);
            let mut oracle = CountingPortOracle::default();
            receivers[1].begin_round(&mut oracle);
            receivers[1].handle(
                GossipMessage::PushData {
                    from: ProcessId(0),
                    messages: vec![tampered.clone(), real.clone(), tampered.clone()],
                },
                &mut oracle,
            );
            assert_eq!(receivers[1].stats().dropped_auth, 1, "batch={batch}");
            let delivered = receivers[1].take_delivered();
            assert_eq!(delivered.len(), 1);
            assert_eq!(delivered[0].payload, Bytes::from_static(b"real"));
        }
    }

    #[test]
    fn verification_cost_follows_new_messages() {
        // k new 50-byte messages cost exactly 3 compressions each on the
        // direct path (two inner tail blocks + the outer block); the same
        // exchange replayed costs none.
        const K: u64 = 12;
        let exchange = |publisher: &mut Engine| GossipMessage::PushData {
            from: ProcessId(0),
            messages: (0..K)
                .map(|_| {
                    let id = publisher.publish(Bytes::from(vec![7u8; 50]));
                    publisher.buffer().get(id).unwrap().clone()
                })
                .collect(),
        };
        let mut oracle = CountingPortOracle::default();

        let (mut engines, _) = setup(2, ProtocolVariant::Drum);
        engines[1].set_batch_verify(false);
        let push = exchange(&mut engines[0]);
        engines[1].begin_round(&mut oracle);
        engines[1].handle(push.clone(), &mut oracle);
        assert_eq!(engines[1].stats().delivered, K);
        assert_eq!(engines[1].lane_stats().compress_calls, 3 * K);
        assert_eq!(engines[1].lane_stats().lanes_filled, 3 * K);
        engines[1].handle(push, &mut oracle);
        assert_eq!(engines[1].stats().delivered, K);
        assert_eq!(engines[1].lane_stats().compress_calls, 3 * K);

        // The multiway path hashes the same blocks.
        let (mut multi, _) = setup(2, ProtocolVariant::Drum);
        multi[1].set_batch_verify(true);
        let push = exchange(&mut multi[0]);
        multi[1].begin_round(&mut oracle);
        multi[1].handle(push, &mut oracle);
        assert_eq!(multi[1].lane_stats().lanes_filled, 3 * K);
    }

    #[test]
    fn retired_preverified_entry_point_verifies_sources() {
        let (mut engines, _) = setup(2, ProtocolVariant::Drum);
        let mut oracle = CountingPortOracle::default();
        engines[1].begin_round(&mut oracle);
        let mut out = Vec::new();
        let messages = hostile_mix(&mut engines[0]);
        engines[1].handle_into_preverified(
            GossipMessage::PushData {
                from: ProcessId(0),
                messages,
            },
            &mut oracle,
            &mut out,
        );
        // Exactly what `handle_into` does with the same mix.
        assert_eq!(engines[1].stats().delivered, 1);
        assert_eq!(engines[1].stats().dropped_auth, 2);
    }

    #[test]
    fn preverified_data_still_pays_budget() {
        let (mut engines, _) = setup(2, ProtocolVariant::Drum);
        let id = engines[0].publish(Bytes::from_static(b"m"));
        let real = engines[0].buffer().get(id).unwrap().clone();
        let mut oracle = CountingPortOracle::default();
        engines[1].begin_round(&mut oracle);
        let mut out = Vec::new();
        // Drum F=4: the push-data channel accepts max(F/2, 1) = 2.
        for _ in 0..10 {
            engines[1].handle_into_preverified(
                GossipMessage::PushData {
                    from: ProcessId(0),
                    messages: vec![real.clone()],
                },
                &mut oracle,
                &mut out,
            );
        }
        assert_eq!(engines[1].stats().accepted_of(MessageKind::PushData), 2);
        assert_eq!(engines[1].stats().dropped_of(MessageKind::PushData), 8);
    }

    #[test]
    fn fallback_path_leaves_batch_counters_at_zero() {
        let (mut engines, _) = setup(2, ProtocolVariant::Drum);
        engines[1].set_batch_verify(false);
        assert!(!engines[1].batch_verify_enabled());
        let id = engines[0].publish(Bytes::from_static(b"m"));
        let real = engines[0].buffer().get(id).unwrap().clone();
        let mut oracle = CountingPortOracle::default();
        engines[1].begin_round(&mut oracle);
        engines[1].handle(
            GossipMessage::PushData {
                from: ProcessId(0),
                messages: vec![real; 16],
            },
            &mut oracle,
        );
        let reg = engines[1].tracer().registry();
        assert_eq!(reg.counter(names::MAC_FULL_VERIFIES).get(), 0);
        assert_eq!(reg.counter(names::MAC_BATCH_HITS).get(), 0);
    }
}
