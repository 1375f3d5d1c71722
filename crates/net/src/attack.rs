//! DoS attack traffic generation.
//!
//! Emulates the paper's adversary: each attacked process receives `x`
//! fabricated messages per round — `x/2` push-offers to its well-known push
//! port and `x/2` pull-requests to its well-known pull port for Drum, or
//! all `x` on the single channel for Push/Pull (§5). The messages are
//! syntactically valid (they decode and consume reception budget slots —
//! the application-level attack the paper studies) but carry bogus reply
//! ports and no authenticable data, so everything downstream of the budget
//! is wasted work for the victim.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drum_core::config::ProtocolVariant;
use drum_core::digest::Digest;
use drum_core::ids::ProcessId;
use drum_core::message::{GossipMessage, PortRef};
use drum_trace::{names, trace_event, Tracer};

use crate::codec;
use crate::transport::{bind_ephemeral, BatchTx, WellKnownAddrs};

/// How the flood is aimed and shaped — the wire-level mirror of
/// `drum_sim::AdversaryKind` (the net crate deliberately does not depend
/// on the simulator; the two enums are kept in sync by the shared
/// `DRUM_ADVERSARY` spellings).
///
/// Every strategy conserves the adversary's total send budget
/// (`x_per_round × targets`): adaptive strategies redistribute it, they do
/// not get more of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FloodStrategy {
    /// The paper's adversary: a fixed per-target flood, split across the
    /// victim protocol's well-known channels (`x/2 + x/2` for Drum).
    Static,
    /// Rotates the whole group budget onto one victim at a time, moving to
    /// the next target every `every` rounds — chasing the victims the way
    /// an adaptive attacker chases port rotation.
    TargetChasing {
        /// Rounds between focus shifts (≥ 1).
        every: u32,
    },
    /// Concentrates the whole group budget on the first target forever,
    /// trying to eclipse that one process from the group.
    Eclipse,
    /// Spends the entire budget on pull-requests: each one costs the
    /// victim a reply-budget slot, not just a reception slot.
    PullAbuse,
    /// Resends previously captured wire datagrams verbatim instead of
    /// fabricating fresh ones. With an empty corpus the attacker replays
    /// its own first fabrication — either way the victim sees identical
    /// fan-in, the case batched MAC verification collapses.
    Replay {
        /// Captured datagrams to cycle through (may be empty).
        corpus: Vec<Vec<u8>>,
    },
}

impl FloodStrategy {
    /// Stable name, matching the `DRUM_ADVERSARY` spellings.
    pub fn name(&self) -> &'static str {
        match self {
            FloodStrategy::Static => "static",
            FloodStrategy::TargetChasing { .. } => "chase",
            FloodStrategy::Eclipse => "eclipse",
            FloodStrategy::PullAbuse => "pull-abuse",
            FloodStrategy::Replay { .. } => "replay",
        }
    }

    /// Parses a `DRUM_ADVERSARY` value (`static`, `chase`, `chase:N`,
    /// `eclipse`, `pull-abuse`, `replay`). Returns `None` for unknown
    /// names and `chase:0`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "static" => Some(FloodStrategy::Static),
            "chase" => Some(FloodStrategy::TargetChasing { every: 1 }),
            "eclipse" => Some(FloodStrategy::Eclipse),
            "pull-abuse" => Some(FloodStrategy::PullAbuse),
            "replay" => Some(FloodStrategy::Replay { corpus: Vec::new() }),
            _ => {
                let every: u32 = s.strip_prefix("chase:")?.parse().ok()?;
                (every > 0).then_some(FloodStrategy::TargetChasing { every })
            }
        }
    }

    /// Reads `DRUM_ADVERSARY`, defaulting to [`FloodStrategy::Static`]
    /// when unset or unparseable.
    pub fn from_env() -> Self {
        std::env::var("DRUM_ADVERSARY")
            .ok()
            .and_then(|s| Self::parse(&s))
            .unwrap_or(FloodStrategy::Static)
    }
}

/// Configuration of one attacker.
#[derive(Debug, Clone)]
pub struct AttackerConfig {
    /// Fabricated messages per target per round.
    pub x_per_round: f64,
    /// Round duration the rate is defined against.
    pub round: Duration,
    /// Which protocol's channels to flood (determines the push/pull split).
    pub victim_protocol: ProtocolVariant,
    /// Fixed pull-reply ports of the targets, when the victims run the
    /// no-random-ports ablation (Figure 12(a)). When set (aligned with the
    /// target list), the pull budget is split evenly between each target's
    /// pull-request port and its pull-reply port, as in §9.
    pub reply_port_targets: Vec<std::net::SocketAddr>,
    /// Bursts per round: the per-round budget is sent in this many evenly
    /// spaced batches so victims see pressure throughout their (unaligned)
    /// rounds. Higher values smooth the flood; `1` concentrates it into one
    /// burst per round (the harshest shape for a fixed-cadence receiver).
    /// Defaults to 10.
    pub batches_per_round: u32,
    /// Observability: per-batch `attack.batch` events (attack traffic
    /// classification) plus the `attack_sent` registry counter. Disabled
    /// by default.
    pub tracer: Tracer,
    /// How the flood is aimed ([`FloodStrategy::Static`] is the paper's
    /// adversary; [`AttackerConfig::new`] pins it explicitly so the
    /// `DRUM_ADVERSARY` environment never silently reshapes a
    /// statically-configured experiment).
    pub strategy: FloodStrategy,
}

impl AttackerConfig {
    /// Standard attacker: floods only the well-known ports.
    pub fn new(x_per_round: f64, round: Duration, victim_protocol: ProtocolVariant) -> Self {
        AttackerConfig {
            x_per_round,
            round,
            victim_protocol,
            reply_port_targets: Vec::new(),
            batches_per_round: 10,
            tracer: Tracer::disabled(),
            strategy: FloodStrategy::Static,
        }
    }

    /// Like [`AttackerConfig::new`], but honoring the `DRUM_ADVERSARY`
    /// environment knob — the entry point the CLI and CI matrix use.
    pub fn new_from_env(
        x_per_round: f64,
        round: Duration,
        victim_protocol: ProtocolVariant,
    ) -> Self {
        let mut config = Self::new(x_per_round, round, victim_protocol);
        config.strategy = FloodStrategy::from_env();
        config
    }
}

/// A fabricated pull-request: decodes fine, claims a bogus sender and
/// directs any reply to a dead port.
pub fn fabricated_pull_request(seq: u64) -> GossipMessage {
    GossipMessage::PullRequest {
        from: ProcessId(0xDEAD_0000 + (seq & 0xFFFF)),
        digest: Digest::new(),
        reply_port: PortRef::Plain(1),
        nonce: seq,
    }
}

/// A fabricated push-offer with a dead reply port.
pub fn fabricated_push_offer(seq: u64) -> GossipMessage {
    GossipMessage::PushOffer {
        from: ProcessId(0xDEAD_0000 + (seq & 0xFFFF)),
        reply_port: PortRef::Plain(1),
        nonce: seq,
    }
}

/// A fabricated pull-reply carrying one unauthenticated data message —
/// useless to the victim, but it consumes a reply-channel acceptance slot
/// when the reply port is knowable (the Figure 12(a) ablation).
pub fn fabricated_pull_reply(seq: u64) -> GossipMessage {
    use drum_core::ids::MessageId;
    GossipMessage::PullReply {
        from: ProcessId(0xDEAD_0000 + (seq & 0xFFFF)),
        messages: vec![drum_core::message::DataMessage {
            id: MessageId::new(ProcessId(0xDEAD_0000 + (seq & 0xFFFF)), seq),
            hops: 0,
            payload: drum_core::bytes::Bytes::from(vec![0u8; 50]),
            auth: drum_crypto::auth::AuthTag::zero(),
        }],
    }
}

/// A fabricated gossip frame (the retired TAG 6 wire shape) wrapping one
/// bogus pull-reply. The frame codec still parses it and its tag can never
/// verify, but the runtime no longer looks: on any port it is a decode
/// error — no HMAC runs, nothing inside reaches the engine.
pub fn fabricated_frame(seq: u64) -> Vec<u8> {
    let mut builder = codec::FrameBuilder::new();
    builder.push(&fabricated_pull_reply(seq));
    let mut wire = drum_core::bytes::BytesMut::with_capacity(64);
    builder.finish_into(
        ProcessId(0xDEAD_0000 + (seq & 0xFFFF)),
        seq,
        |_| drum_crypto::auth::AuthTag::zero(),
        &mut wire,
    );
    wire[..].to_vec()
}

/// Handle to a running attacker thread.
#[derive(Debug)]
pub struct AttackerHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<u64>>,
}

impl AttackerHandle {
    /// Stops the attacker; returns the number of datagrams it sent.
    pub fn shutdown(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.join
            .take()
            .expect("shutdown called once")
            .join()
            .unwrap_or(0)
    }
}

impl Drop for AttackerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Spawns a thread flooding `targets` with fabricated traffic at the
/// configured per-round rate, spread uniformly across each round.
///
/// # Errors
///
/// Returns an [`std::io::Error`] if the attacker's send socket cannot be
/// bound.
pub fn spawn_attacker(
    targets: Vec<WellKnownAddrs>,
    config: AttackerConfig,
) -> std::io::Result<AttackerHandle> {
    let socket = bind_ephemeral()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();

    let join = std::thread::Builder::new()
        .name("drum-attacker".into())
        .spawn(move || {
            let mut sent = 0u64;
            let mut seq = 0u64;
            // Flooding is the attacker's hot path: reuse one wire buffer
            // for every fabricated datagram instead of allocating per send,
            // and hand bursts to the kernel through `sendmmsg` (where the
            // target has it) so the attacker can sustain paper-scale rates
            // from one thread.
            let mut wire = drum_core::bytes::BytesMut::with_capacity(codec::MAX_WIRE_LEN);
            let mut tx = BatchTx::new();
            // Per-round per-target counts on each channel.
            let (mut x_push, mut x_pull) = match config.victim_protocol {
                ProtocolVariant::Drum => (config.x_per_round / 2.0, config.x_per_round / 2.0),
                ProtocolVariant::Push => (config.x_per_round, 0.0),
                ProtocolVariant::Pull => (0.0, config.x_per_round),
            };
            // Adaptive strategies redistribute — never enlarge — the total
            // send budget: focused floods multiply the per-target rate by
            // the number of targets they stop flooding; pull-abuse shifts
            // the push half onto the pull channel.
            match &config.strategy {
                FloodStrategy::PullAbuse => {
                    x_pull += x_push;
                    x_push = 0.0;
                }
                FloodStrategy::Eclipse | FloodStrategy::TargetChasing { .. } => {
                    let scale = targets.len() as f64;
                    x_push *= scale;
                    x_pull *= scale;
                }
                FloodStrategy::Static | FloodStrategy::Replay { .. } => {}
            }
            // Replay ammunition: captured datagrams, or — with an empty
            // corpus — the attacker's own first fabrications, resent
            // verbatim (identical fan-in either way).
            let replay_corpus: Option<Vec<Vec<u8>>> = match &config.strategy {
                FloodStrategy::Replay { corpus } if !corpus.is_empty() => Some(corpus.clone()),
                FloodStrategy::Replay { .. } => Some(vec![
                    codec::encode(&fabricated_pull_request(1)).to_vec(),
                    codec::encode(&fabricated_push_offer(2)).to_vec(),
                ]),
                _ => None,
            };
            // Against the no-random-ports ablation the pull budget is split
            // between the request port and the (knowable) reply port (§9).
            let attack_replies = !config.reply_port_targets.is_empty();
            let (x_pull_req, x_pull_reply) = if attack_replies {
                (x_pull / 2.0, x_pull / 2.0)
            } else {
                (x_pull, 0.0)
            };
            let batches = config.batches_per_round.max(1);
            let batch_interval = config.round / batches;
            let per_batch_push = x_push / batches as f64;
            let per_batch_pull = x_pull_req / batches as f64;
            let per_batch_reply = x_pull_reply / batches as f64;
            let mut carry_push = 0.0f64;
            let mut carry_pull = 0.0f64;
            let mut carry_reply = 0.0f64;
            let tracer = config.tracer.clone();
            let c_attack = tracer.registry().counter(names::ATTACK_SENT);
            trace_event!(
                tracer,
                "attack",
                "start",
                tracer.wall_now(),
                targets = targets.len(),
                x_per_round = config.x_per_round,
                protocol = config.victim_protocol.to_string(),
                strategy = config.strategy.name(),
                reply_ports = attack_replies
            );

            let mut batch_no: u64 = 0;
            while !stop_flag.load(Ordering::Relaxed) {
                let batch_deadline = Instant::now() + batch_interval;
                carry_push += per_batch_push;
                carry_pull += per_batch_pull;
                carry_reply += per_batch_reply;
                let n_push = carry_push as usize;
                let n_pull = carry_pull as usize;
                let n_reply = carry_reply as usize;
                carry_push -= n_push as f64;
                carry_pull -= n_pull as f64;
                carry_reply -= n_reply as f64;

                // Focused strategies aim the whole (scaled) budget at one
                // target; target-chasing moves that focus every `every`
                // rounds (batches_per_round batches ≈ one victim round).
                let round_no = batch_no / u64::from(batches);
                batch_no += 1;
                let focus = match &config.strategy {
                    FloodStrategy::Eclipse => Some(0),
                    FloodStrategy::TargetChasing { every } => Some(
                        ((round_no / u64::from(*every)) % targets.len().max(1) as u64) as usize,
                    ),
                    _ => None,
                };

                let mut batch_total = 0u64;
                for (i, target) in targets.iter().enumerate() {
                    if focus.is_some_and(|f| f != i) {
                        continue;
                    }
                    for _ in 0..n_pull {
                        seq += 1;
                        match &replay_corpus {
                            Some(corpus) => {
                                let dg = &corpus[seq as usize % corpus.len()];
                                tx.push(&socket, target.pull, dg, false);
                            }
                            None => {
                                codec::encode_into(&fabricated_pull_request(seq), &mut wire);
                                tx.push(&socket, target.pull, &wire[..], false);
                            }
                        }
                        batch_total += 1;
                    }
                    for _ in 0..n_push {
                        seq += 1;
                        match &replay_corpus {
                            Some(corpus) => {
                                let dg = &corpus[seq as usize % corpus.len()];
                                tx.push(&socket, target.push, dg, false);
                            }
                            None => {
                                codec::encode_into(&fabricated_push_offer(seq), &mut wire);
                                tx.push(&socket, target.push, &wire[..], false);
                            }
                        }
                        batch_total += 1;
                    }
                    if let Some(reply_addr) = config.reply_port_targets.get(i) {
                        for _ in 0..n_reply {
                            seq += 1;
                            codec::encode_into(&fabricated_pull_reply(seq), &mut wire);
                            tx.push(&socket, *reply_addr, &wire[..], false);
                            batch_total += 1;
                        }
                    }
                }
                sent += tx.finish(&socket);

                if batch_total > 0 {
                    c_attack.add(batch_total);
                    trace_event!(
                        tracer,
                        "attack",
                        "batch",
                        tracer.wall_now(),
                        push = n_push,
                        pull = n_pull,
                        reply = n_reply,
                        targets = targets.len()
                    );
                }

                let now = Instant::now();
                if now < batch_deadline {
                    std::thread::sleep(batch_deadline - now);
                }
            }
            sent
        })
        .expect("failed to spawn attacker thread");

    Ok(AttackerHandle {
        stop,
        join: Some(join),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::WellKnownSockets;

    #[test]
    fn fabricated_messages_decode() {
        for msg in [fabricated_pull_request(1), fabricated_push_offer(2)] {
            let bytes = codec::encode(&msg);
            assert_eq!(codec::decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn fabricated_frame_parses_but_never_authenticates() {
        use drum_crypto::keys::KeyStore;

        let bytes = fabricated_frame(3);
        assert!(codec::is_frame(&bytes));
        let frame = codec::decode_frame(&bytes).unwrap();
        assert_eq!(frame.messages.len(), 1);
        // The claimed sender is not a group member, so verification fails
        // with UnknownSource; even a registered id would yield Forged.
        let store = KeyStore::new(1);
        store.register(7);
        let body = codec::frame_signed_body(&bytes).unwrap();
        assert!(drum_crypto::verify_frame(
            &store,
            frame.sender.as_u64(),
            frame.nonce,
            body,
            &frame.auth
        )
        .is_err());
    }

    #[test]
    fn attacker_floods_target_at_roughly_the_configured_rate() {
        let (sockets, addrs) = WellKnownSockets::bind().unwrap();
        let config = AttackerConfig::new(100.0, Duration::from_millis(100), ProtocolVariant::Drum);
        let attacker = spawn_attacker(vec![addrs], config).unwrap();
        std::thread::sleep(Duration::from_millis(450));
        let sent = attacker.shutdown();

        // ~4.5 rounds × 100 msgs ≈ 450; allow generous slack for timing.
        assert!(sent > 150, "sent only {sent}");

        // The datagrams actually arrived and split across both ports.
        let mut buf = [0u8; 2048];
        let mut pull_count = 0;
        while let Ok((len, _)) = sockets.pull.recv_from(&mut buf) {
            assert!(matches!(
                codec::decode(&buf[..len]).unwrap(),
                GossipMessage::PullRequest { .. }
            ));
            pull_count += 1;
        }
        let mut push_count = 0;
        while let Ok((len, _)) = sockets.push.recv_from(&mut buf) {
            assert!(matches!(
                codec::decode(&buf[..len]).unwrap(),
                GossipMessage::PushOffer { .. }
            ));
            push_count += 1;
        }
        assert!(pull_count > 0, "no fabricated pull-requests arrived");
        assert!(push_count > 0, "no fabricated push-offers arrived");
    }

    #[test]
    fn single_burst_attack_sends_full_round_budget_at_once() {
        let (sockets, addrs) = WellKnownSockets::bind().unwrap();
        let mut config =
            AttackerConfig::new(40.0, Duration::from_millis(100), ProtocolVariant::Drum);
        config.batches_per_round = 1;
        let attacker = spawn_attacker(vec![addrs], config).unwrap();
        // Wait well past the first burst, before the second round ends.
        std::thread::sleep(Duration::from_millis(60));
        let mut buf = [0u8; 2048];
        let mut first_burst = 0;
        while sockets.pull.recv_from(&mut buf).is_ok() {
            first_burst += 1;
        }
        attacker.shutdown();
        // One burst must carry the whole per-round pull budget (x/2 = 20),
        // not the smoothed default's 1/10 slice.
        assert!(
            first_burst >= 20,
            "first burst carried only {first_burst} datagrams"
        );
    }

    #[test]
    fn strategy_names_parse_round_trip() {
        for name in ["static", "chase", "eclipse", "pull-abuse", "replay"] {
            let s = FloodStrategy::parse(name).unwrap();
            assert_eq!(s.name(), name);
        }
        assert_eq!(
            FloodStrategy::parse("chase:4"),
            Some(FloodStrategy::TargetChasing { every: 4 })
        );
        assert_eq!(FloodStrategy::parse("chase:0"), None);
        assert_eq!(FloodStrategy::parse("nonsense"), None);
    }

    #[test]
    fn eclipse_attack_floods_only_the_first_target() {
        let (sockets_a, addrs_a) = WellKnownSockets::bind().unwrap();
        let (sockets_b, addrs_b) = WellKnownSockets::bind().unwrap();
        let mut config =
            AttackerConfig::new(60.0, Duration::from_millis(50), ProtocolVariant::Drum);
        config.strategy = FloodStrategy::Eclipse;
        let attacker = spawn_attacker(vec![addrs_a, addrs_b], config).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        attacker.shutdown();

        let mut buf = [0u8; 2048];
        let mut eclipsed = 0;
        while sockets_a.pull.recv_from(&mut buf).is_ok() {
            eclipsed += 1;
        }
        while sockets_a.push.recv_from(&mut buf).is_ok() {
            eclipsed += 1;
        }
        assert!(eclipsed > 0, "eclipse sent nothing to its victim");
        // The second target must be left entirely alone: the whole group
        // budget lands on the eclipsed process.
        assert!(sockets_b.pull.recv_from(&mut buf).is_err());
        assert!(sockets_b.push.recv_from(&mut buf).is_err());
    }

    #[test]
    fn pull_abuse_attack_spares_push_port_for_drum_victims() {
        let (sockets, addrs) = WellKnownSockets::bind().unwrap();
        let mut config =
            AttackerConfig::new(50.0, Duration::from_millis(50), ProtocolVariant::Drum);
        config.strategy = FloodStrategy::PullAbuse;
        let attacker = spawn_attacker(vec![addrs], config).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        attacker.shutdown();

        let mut buf = [0u8; 2048];
        let mut push_count = 0;
        while sockets.push.recv_from(&mut buf).is_ok() {
            push_count += 1;
        }
        assert_eq!(
            push_count, 0,
            "pull-abuse must spend the whole budget on the pull channel"
        );
        let mut pull_count = 0;
        while sockets.pull.recv_from(&mut buf).is_ok() {
            pull_count += 1;
        }
        assert!(pull_count > 0);
    }

    #[test]
    fn replay_attack_resends_captured_bytes_verbatim() {
        let (sockets, addrs) = WellKnownSockets::bind().unwrap();
        // "Capture" one authentic-looking wire datagram and hand it to the
        // replay strategy as its corpus.
        let captured = codec::encode(&fabricated_pull_request(42)).to_vec();
        let mut config =
            AttackerConfig::new(40.0, Duration::from_millis(50), ProtocolVariant::Drum);
        config.strategy = FloodStrategy::Replay {
            corpus: vec![captured.clone()],
        };
        let attacker = spawn_attacker(vec![addrs], config).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        attacker.shutdown();

        let mut buf = [0u8; 2048];
        let mut replayed = 0;
        while let Ok((len, _)) = sockets.pull.recv_from(&mut buf) {
            assert_eq!(
                &buf[..len],
                &captured[..],
                "replayed datagram must be byte-identical to the capture"
            );
            replayed += 1;
        }
        assert!(replayed > 1, "expected identical fan-in, got {replayed}");
    }

    #[test]
    fn pull_only_attack_spares_push_port() {
        let (sockets, addrs) = WellKnownSockets::bind().unwrap();
        let config = AttackerConfig::new(50.0, Duration::from_millis(50), ProtocolVariant::Pull);
        let attacker = spawn_attacker(vec![addrs], config).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        attacker.shutdown();

        let mut buf = [0u8; 2048];
        let mut push_count = 0;
        while sockets.push.recv_from(&mut buf).is_ok() {
            push_count += 1;
        }
        assert_eq!(push_count, 0, "Pull attack must not touch the push port");
        let mut pull_count = 0;
        while sockets.pull.recv_from(&mut buf).is_ok() {
            pull_count += 1;
        }
        assert!(pull_count > 0);
    }
}
