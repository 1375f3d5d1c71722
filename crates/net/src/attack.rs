//! DoS attack traffic: the paper's adversary, stated once.
//!
//! Each attacked process receives `x` fabricated messages per round (§5).
//! How that budget is split — across victims by [`AdversaryKind`], across
//! channels by [`ProtocolVariant`] — is [`AdversaryKind::rates`] in
//! drum-core, shared with the simulator. [`Flood`] turns those rates into
//! datagrams without touching a socket: it aims every slice of a round,
//! carries fractional counts from slice to slice, fabricates fresh or
//! replayed messages and, against fixed reply ports, gives the victims'
//! pull-reply ports their share. Two drivers send what it fabricates: the
//! `drum-attacker` thread of a [`crate::Cluster`] over UDP, and
//! [`crate::VirtualCluster`] straight into its nodes.
//!
//! The messages are syntactically valid — they decode and consume
//! reception budget slots, the application-level attack the paper studies
//! — but carry bogus reply ports and no authenticable data, so everything
//! downstream of the budget is wasted work for the victim. On the wire:
//!
//! * `Static` — every victim takes its own `x`, split across its
//!   protocol's well-known channels (`x/2 + x/2` for Drum);
//! * `TargetChasing { every }` — the group budget `x·targets` on one
//!   victim at a time, moving to the next every `every` rounds;
//! * `Eclipse` — the group budget on the first target, forever;
//! * `PullAbuse` — each victim's whole `x` as pull-requests;
//! * `Replay` — the static budget, but every datagram to a port is the
//!   same bytes (one pull-request on the pull port, one push-offer on the
//!   push port): maximal identical fan-in for the victim's verifier.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drum_core::config::{AdversaryKind, ProtocolVariant};
use drum_core::digest::Digest;
use drum_core::ids::ProcessId;
use drum_core::message::{GossipMessage, MessageKind, PortRef};
use drum_trace::{trace_event, Tracer};

use crate::codec;
use crate::transport::{bind_ephemeral, BatchTx, WellKnownAddrs};

/// A fabricated pull-request: decodes fine, claims a bogus sender and
/// directs any reply to a dead port, in plaintext — so it wins budget slots
/// but, with random ports on, never a reply.
pub fn fabricated_pull_request(seq: u64) -> GossipMessage {
    GossipMessage::PullRequest {
        from: ProcessId(0xDEAD_0000 + (seq & 0xFFFF)),
        digest: Digest::new(),
        reply_port: PortRef::Plain(1),
        nonce: seq,
    }
}

/// A fabricated push-offer with a dead plaintext reply port.
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

/// The adversary without a socket: which fabricated message goes to which
/// target in each slice of a round.
///
/// A round is cut into `slices` slices so that victims see pressure
/// throughout their unaligned rounds; each channel's per-slice rate is
/// carried over as a fraction, so every round spends its budget to within
/// one datagram per victim and channel.
#[derive(Debug, Clone)]
pub struct Flood {
    kind: AdversaryKind,
    targets: usize,
    slices: u64,
    /// Per-victim datagrams per slice, and the fractions the slices so far
    /// left over, on each channel: pull-requests, push-offers,
    /// pull-replies.
    per_slice: [f64; 3],
    carry: [f64; 3],
    /// Slices fabricated so far.
    slice: u64,
    /// Messages fabricated so far: the next fresh one's sequence number.
    seq: u64,
}

/// The fabricator of each of [`Flood`]'s channels, in its order.
const FABRICATE: [fn(u64) -> GossipMessage; 3] = [
    fabricated_pull_request,
    fabricated_push_offer,
    fabricated_pull_reply,
];

impl Flood {
    /// A flood of `x` fabricated messages per round for each of `targets`
    /// victims running `variant`, aimed by `kind` and split by
    /// [`AdversaryKind::rates`] (eclipse and a chase flood one victim at a
    /// time), in `slices` slices per round. With `fixed_reply_ports` the
    /// victims run the no-random-ports ablation, and half the pull rate
    /// goes to their pull-reply ports (§9).
    ///
    /// # Panics
    ///
    /// Panics for a kind that cannot run ([`AdversaryKind::is_valid`]).
    pub fn new(
        kind: AdversaryKind,
        variant: ProtocolVariant,
        x: f64,
        targets: usize,
        fixed_reply_ports: bool,
        slices: u32,
    ) -> Flood {
        assert!(
            kind.is_valid(),
            "adversary {kind:?} cannot run: chase cadence must be at least 1 round"
        );
        let flooded = match kind {
            AdversaryKind::Eclipse | AdversaryKind::TargetChasing { .. } => 1,
            _ => targets,
        };
        let rates = kind.rates(variant, x, targets, flooded);
        let (pull, reply) = rates.pull_split(!fixed_reply_ports);
        let slices = slices.max(1);
        Flood {
            kind,
            targets,
            slices: u64::from(slices),
            per_slice: [pull, rates.push, reply].map(|rate| rate / f64::from(slices)),
            carry: [0.0; 3],
            slice: 0,
            seq: 0,
        }
    }

    /// The one target this slice floods, or `None` for all of them:
    /// eclipse stays on target 0, a chase moves on every `every` rounds.
    fn focus(&self) -> Option<usize> {
        let round = self.slice / self.slices;
        match self.kind {
            AdversaryKind::Eclipse => Some(0),
            AdversaryKind::TargetChasing { every } => {
                Some((round / u64::from(every) % self.targets.max(1) as u64) as usize)
            }
            _ => None,
        }
    }

    /// Fabricates the next slice, handing `send` each message with its
    /// target's index: target by target, its pull-requests, push-offers,
    /// then pull-replies. A message's kind names the target's port it is
    /// for. Returns each flooded target's count on those three channels.
    pub fn next_slice(&mut self, mut send: impl FnMut(usize, &GossipMessage)) -> [usize; 3] {
        let mut counts = [0; 3];
        for (c, count) in counts.iter_mut().enumerate() {
            self.carry[c] += self.per_slice[c];
            *count = self.carry[c] as usize;
            self.carry[c] -= *count as f64;
        }
        let focus = self.focus();
        self.slice += 1;
        for target in (0..self.targets).filter(|&t| focus.is_none_or(|f| f == t)) {
            for (c, fabricate) in FABRICATE.iter().enumerate() {
                for _ in 0..counts[c] {
                    self.seq += 1;
                    // Replay resends the one request and the one offer; a
                    // fixed reply port only takes pull-replies, so those
                    // stay fresh.
                    let replayed = self.kind == AdversaryKind::Replay && c < 2;
                    send(target, &fabricate(if replayed { 1 } else { self.seq }));
                }
            }
        }
        counts
    }
}

/// A [`Flood`] on the `drum-attacker` thread, sent over UDP: the flood of
/// a [`crate::Cluster`].
#[derive(Debug)]
pub(crate) struct Attacker {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<u64>>,
}

impl Attacker {
    /// Sends one slice of `flood` every `slice`, to `targets`' well-known
    /// ports and, under the ablation, to their `reply_ports` (aligned with
    /// `targets`). Each slice goes to the kernel through `sendmmsg`, so
    /// one thread sustains paper-scale rates. `tracer` gets an
    /// `attack.batch` event per slice.
    ///
    /// # Errors
    ///
    /// Returns the error binding the send socket or spawning the thread.
    pub(crate) fn spawn(
        mut flood: Flood,
        slice: Duration,
        targets: Vec<WellKnownAddrs>,
        reply_ports: Vec<SocketAddr>,
        tracer: Tracer,
    ) -> io::Result<Attacker> {
        let socket = bind_ephemeral()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let join = std::thread::Builder::new()
            .name("drum-attacker".into())
            .spawn(move || {
                let mut tx = BatchTx::new();
                trace_event!(
                    tracer,
                    "attack",
                    "start",
                    tracer.wall_now(),
                    targets = targets.len(),
                    strategy = flood.kind.name(),
                    reply_ports = !reply_ports.is_empty()
                );
                let mut sent = 0;
                while !stop_flag.load(Ordering::Relaxed) {
                    let deadline = Instant::now() + slice;
                    let [pull, push, reply] = flood.next_slice(|t, msg| {
                        let to = match msg.kind() {
                            MessageKind::PullRequest => targets[t].pull,
                            MessageKind::PushOffer => targets[t].push,
                            _ => reply_ports[t],
                        };
                        tx.push_message(&socket, to, msg);
                    });
                    sent += tx.finish(&socket);
                    if pull + push + reply > 0 {
                        trace_event!(
                            tracer,
                            "attack",
                            "batch",
                            tracer.wall_now(),
                            push = push,
                            pull = pull,
                            reply = reply,
                            targets = targets.len()
                        );
                    }
                    let now = Instant::now();
                    if now < deadline {
                        std::thread::sleep(deadline - now);
                    }
                }
                sent
            })?;
        Ok(Attacker {
            stop,
            join: Some(join),
        })
    }

    /// Stops the attacker; returns the number of datagrams it sent.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the attacker thread: a flood that died must
    /// not pass for one that ran.
    pub(crate) fn shutdown(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.join
            .take()
            .expect("shutdown called once")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

impl Drop for Attacker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::WellKnownSockets;
    use drum_core::config::ProtocolVariant::{Drum, Pull, Push};

    /// Every message of a slice: its target, kind and sequence number
    /// (the nonce of a request or offer; 0 for a pull-reply).
    type Slice = Vec<(usize, MessageKind, u64)>;

    fn record(flood: &mut Flood, slices: usize) -> Vec<Slice> {
        (0..slices)
            .map(|_| {
                let mut got = Vec::new();
                flood.next_slice(|t, msg| {
                    let seq = match msg {
                        GossipMessage::PullRequest { nonce, .. }
                        | GossipMessage::PushOffer { nonce, .. } => *nonce,
                        _ => 0,
                    };
                    got.push((t, msg.kind(), seq));
                });
                got
            })
            .collect()
    }

    fn count(slices: &[Slice], kind: MessageKind) -> usize {
        slices.iter().flatten().filter(|m| m.1 == kind).count()
    }

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

    /// The one real-UDP smoke: the `drum-attacker` thread sends its flood,
    /// and both well-known ports receive their own kind.
    #[test]
    fn attacker_floods_target_at_roughly_the_configured_rate() {
        let (sockets, addrs) = WellKnownSockets::bind().unwrap();
        let flood = Flood::new(AdversaryKind::Static, Drum, 100.0, 1, false, 10);
        let tracer = Tracer::disabled();
        let slice = Duration::from_millis(10);
        let attacker = Attacker::spawn(flood, slice, vec![addrs], Vec::new(), tracer).unwrap();
        let thread = attacker.join.as_ref().unwrap().thread().name();
        assert_eq!(
            thread,
            Some("drum-attacker"),
            "benchmarks read its CPU by name"
        );
        std::thread::sleep(Duration::from_millis(300));
        let sent = attacker.shutdown();

        // ~3 rounds × 100 msgs ≈ 300; allow generous slack for timing.
        assert!(sent > 100, "sent only {sent}");
        let mut buf = [0u8; 2048];
        for (port, kind) in [
            (&sockets.pull, MessageKind::PullRequest),
            (&sockets.push, MessageKind::PushOffer),
        ] {
            let mut got = 0;
            while let Ok((len, _)) = port.recv_from(&mut buf) {
                assert_eq!(codec::decode(&buf[..len]).unwrap().kind(), kind);
                got += 1;
            }
            assert!(got > 0, "no fabricated {kind:?} arrived");
        }
    }

    #[test]
    fn shutdown_reraises_an_attacker_thread_panic() {
        let stop = Arc::new(AtomicBool::new(false));
        let join = std::thread::spawn(|| -> u64 { panic!("attacker thread died") });
        let attacker = Attacker {
            stop,
            join: Some(join),
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| attacker.shutdown()));
        assert!(caught.is_err(), "a dead flood was reported as a quiet one");
    }

    #[test]
    fn attacker_refuses_a_chase_without_cadence() {
        let chase = AdversaryKind::TargetChasing { every: 0 };
        let built = std::panic::catch_unwind(|| Flood::new(chase, Drum, 40.0, 2, false, 10));
        assert!(built.is_err(), "a chase that never moves was built");
    }

    /// Every kind, variant, whole or fractional `x`, target count and
    /// slicing spends `x·targets` datagrams a round: after every round the
    /// running total is within one carried datagram per flooded victim
    /// and channel of it, and no channel the kind spares is touched.
    #[test]
    fn every_kind_spends_the_group_budget() {
        for kind in AdversaryKind::ALL {
            for variant in [Drum, Push, Pull] {
                for x in [0.3, 7.5, 64.0, 128.0] {
                    for targets in [1, 3, 5] {
                        for slices in [1, 10] {
                            for fixed in [false, true] {
                                let what = format!(
                                    "{kind:?} {variant} x={x} targets={targets} \
                                     slices={slices} fixed={fixed}"
                                );
                                let mut flood =
                                    Flood::new(kind, variant, x, targets, fixed, slices);
                                let flooded = match kind {
                                    AdversaryKind::Eclipse
                                    | AdversaryKind::TargetChasing { .. } => 1,
                                    _ => targets,
                                };
                                let mut spent = 0;
                                let mut all = Vec::new();
                                for round in 1..=6 {
                                    let got = record(&mut flood, slices as usize);
                                    spent += got.iter().map(Vec::len).sum::<usize>();
                                    let budget = x * targets as f64 * f64::from(round);
                                    let slack = 3.0 * flooded as f64;
                                    assert!(
                                        (spent as f64 - budget).abs() <= slack,
                                        "{what}: {spent} after round {round}, budget {budget}"
                                    );
                                    all.extend(got);
                                }
                                let abuse = kind == AdversaryKind::PullAbuse;
                                if variant == Pull || abuse {
                                    assert_eq!(count(&all, MessageKind::PushOffer), 0, "{what}");
                                }
                                if variant == Push && !abuse {
                                    assert_eq!(count(&all, MessageKind::PullRequest), 0, "{what}");
                                }
                                if !fixed {
                                    assert_eq!(count(&all, MessageKind::PullReply), 0, "{what}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_burst_attack_sends_full_round_budget_at_once() {
        // One slice a round carries the whole per-round split (x/2 = 20
        // on each channel); ten slices carry a tenth each.
        for (slices, each) in [(1, 20), (10, 2)] {
            let mut flood = Flood::new(AdversaryKind::Static, Drum, 40.0, 1, false, slices);
            let first = &record(&mut flood, 1)[..];
            assert_eq!(count(first, MessageKind::PullRequest), each);
            assert_eq!(count(first, MessageKind::PushOffer), each);
        }
    }

    #[test]
    fn eclipse_attack_floods_only_the_first_target() {
        let mut flood = Flood::new(AdversaryKind::Eclipse, Drum, 60.0, 2, false, 10);
        let got = record(&mut flood, 30);
        assert!(got.iter().flatten().all(|m| m.0 == 0), "a second victim");
        // The whole group budget lands on the eclipsed process.
        assert_eq!(got.iter().map(Vec::len).sum::<usize>(), 3 * 120);
    }

    #[test]
    fn chase_moves_to_the_next_target_every_every_rounds() {
        let chase = AdversaryKind::TargetChasing { every: 2 };
        let mut flood = Flood::new(chase, Drum, 10.0, 3, false, 4);
        for round in 0..12 {
            let got = record(&mut flood, 4);
            let victim = round / 2 % 3;
            assert!(got.iter().flatten().all(|m| m.0 == victim), "round {round}");
            assert_eq!(got.iter().map(Vec::len).sum::<usize>(), 30, "round {round}");
        }
    }

    #[test]
    fn pull_abuse_attack_spares_push_port_for_drum_victims() {
        let mut flood = Flood::new(AdversaryKind::PullAbuse, Drum, 50.0, 2, false, 10);
        let got = record(&mut flood, 20);
        assert_eq!(count(&got, MessageKind::PushOffer), 0);
        assert_eq!(count(&got, MessageKind::PullRequest), 2 * 2 * 50);
    }

    #[test]
    fn pull_only_attack_spares_push_port() {
        let mut flood = Flood::new(AdversaryKind::Static, Pull, 50.0, 1, false, 10);
        let got = record(&mut flood, 20);
        assert_eq!(count(&got, MessageKind::PushOffer), 0);
        assert_eq!(count(&got, MessageKind::PullRequest), 2 * 50);
    }

    #[test]
    fn replay_attack_sends_each_port_its_own_datagram() {
        // Every datagram on a port is the one kind that port accepts (a
        // wrong-kind datagram never reaches the budget), and each port sees
        // a single byte string, repeated.
        let mut flood = Flood::new(AdversaryKind::Replay, Drum, 40.0, 2, false, 10);
        let mut bytes: Vec<(usize, MessageKind, Vec<u8>)> = Vec::new();
        for _ in 0..20 {
            flood.next_slice(|t, msg| bytes.push((t, msg.kind(), codec::encode(msg).to_vec())));
        }
        assert_eq!(bytes.len(), 2 * 2 * 40);
        for (target, kind) in [(0, MessageKind::PullRequest), (1, MessageKind::PushOffer)] {
            let mut port = bytes.iter().filter(|b| (b.0, b.1) == (target, kind));
            let first = &port.next().expect("the port is flooded").2;
            assert!(port.all(|b| &b.2 == first), "{kind:?} saw two byte strings");
        }
    }

    #[test]
    fn fixed_reply_ports_split_the_pull_budget() {
        // §9: against knowable reply ports, half the pull budget goes to
        // each victim's pull-reply port.
        let mut flood = Flood::new(AdversaryKind::Static, Drum, 40.0, 2, true, 1);
        let got = record(&mut flood, 1);
        assert_eq!(count(&got, MessageKind::PullRequest), 2 * 10);
        assert_eq!(count(&got, MessageKind::PullReply), 2 * 10);
        assert_eq!(count(&got, MessageKind::PushOffer), 2 * 20);
    }

    /// The benchmark's `paced_flood` setting (Drum, x = 128, 5 victims,
    /// 10 slices a round) against the formula of the attacker thread the
    /// flood replaced: each channel's count is the whole part of a running
    /// `x/2 / 10`, and every slice runs target by target, pull-requests
    /// before push-offers, one sequence number each.
    #[test]
    fn static_flood_keeps_the_threads_slices() {
        let mut flood = Flood::new(AdversaryKind::Static, Drum, 128.0, 5, false, 10);
        let got = record(&mut flood, 30);
        let (per_slice, mut carry, mut seq) = (64.0 / 10.0, [0.0f64; 2], 0);
        let mut counts = Vec::new();
        for slice in &got {
            let mut n = [0usize; 2];
            for c in 0..2 {
                carry[c] += per_slice;
                n[c] = carry[c] as usize;
                carry[c] -= n[c] as f64;
            }
            let mut want = Vec::new();
            for target in 0..5 {
                for (c, kind) in [MessageKind::PullRequest, MessageKind::PushOffer]
                    .into_iter()
                    .enumerate()
                {
                    for _ in 0..n[c] {
                        seq += 1;
                        want.push((target, kind, seq));
                    }
                }
            }
            assert_eq!(slice, &want);
            counts.push(n[0]);
        }
        assert_eq!(&counts[..10], [6, 6, 7, 6, 7, 6, 6, 7, 6, 7]);
        assert_eq!(counts.iter().sum::<usize>(), 3 * 64);
    }
}
