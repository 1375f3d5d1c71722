//! Real-UDP runtime for the Drum gossip protocol — the §8 measurement
//! substrate of the paper (Badishi, Keidar, Sasson, DSN 2004).
//!
//! Where the paper ran a Java implementation on 50 Emulab machines, this
//! crate runs every logical process over real UDP sockets on the loopback
//! interface (see `DESIGN.md` for the substitution argument):
//!
//! * [`codec`] — hardened binary wire format;
//! * [`sys`] — the raw Linux `recvmmsg`/`sendmmsg`/`epoll` shims, the one
//!   I/O path (Linux x86-64 and aarch64 only; other targets fail to
//!   compile);
//! * [`transport`] — batched receive/send, well-known + random ephemeral
//!   sockets, address book;
//! * [`node`] — [`Node`], one process's unsynchronized rounds around a
//!   [`drum_core::engine::Engine`], datagrams in and out as bytes;
//! * [`runtime`] — [`NodeCore`], a [`Node`] on its UDP sockets;
//! * [`shard`] — the UDP driver: one event loop (shared epoll + timer
//!   wheel) steps the [`NodeCore`]s of a shard on one OS thread;
//! * [`vtime`] — the virtual-time driver: [`Node`]s on a seeded in-memory
//!   network;
//! * [`attack`] — fabricated-traffic generators (the adversary);
//! * [`experiment`] — clusters, throughput/latency reports (Figures 10–11)
//!   and propagation-round measurements (Figure 9).
//!
//! # Examples
//!
//! A three-process Drum cluster delivering one multicast:
//!
//! ```
//! use std::time::{Duration, Instant};
//! use drum_core::config::ProtocolVariant;
//! use drum_net::experiment::{paper_cluster_config, Cluster};
//!
//! # fn main() -> std::io::Result<()> {
//! let config = paper_cluster_config(
//!     ProtocolVariant::Drum, 3, 0, 0.0, Duration::from_millis(30), 42);
//! let cluster = Cluster::start(config)?;
//! cluster.publish_from_source(0, 50);
//!
//! let deadline = Instant::now() + Duration::from_secs(10);
//! let mut deliveries = 0;
//! while Instant::now() < deadline && deliveries == 0 {
//!     deliveries = cluster.handles()[1..]
//!         .iter()
//!         .map(|h| h.take_delivered().len())
//!         .sum();
//!     std::thread::sleep(Duration::from_millis(10));
//! }
//! assert!(deliveries > 0);
//! cluster.shutdown();
//! # Ok(())
//! # }
//! ```

// Unsafe code is denied crate-wide and allowed in exactly one place: the
// `sys` module, whose raw Linux syscall shims (recvmmsg/sendmmsg/epoll)
// are the crate's one I/O path. Everything else in this crate is safe
// Rust. There is no per-datagram or sleep-poll path for other targets:
// they are rejected here, at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!("drum-net builds for Linux on x86-64 and aarch64 only (its I/O is raw recvmmsg/sendmmsg/epoll syscalls)");

pub mod attack;
pub mod codec;
pub mod experiment;
pub mod node;
pub mod runtime;
pub mod shard;
#[allow(unsafe_code)]
pub mod sys;
pub mod transport;
pub mod vtime;

pub use attack::{spawn_attacker, AttackerConfig, AttackerHandle};
pub use codec::{
    decode, decode_frame, decode_skipping, encode, frame_signed_body, is_frame, peek_kind,
    DecodeError, Frame, FrameBuilder, FRAME_BUDGET, FRAME_HEADER_LEN, FRAME_ITEM_OVERHEAD,
    FRAME_TAG_LEN, MAX_FRAME_MESSAGES,
};
/// The former name of [`drum_core::AdversaryKind`] in this crate, kept
/// because `benchmark/` names `FloodStrategy::Static`; it is removed at
/// benchmark v2.
pub use drum_core::AdversaryKind as FloodStrategy;
pub use experiment::{
    paper_cluster_config, propagation_experiment, resolve_shards, soak_experiment,
    throughput_experiment, Cluster, ClusterConfig, NodeHandle, PropagationReport, ReceiverReport,
    SoakPhase, SoakReport, ThroughputReport,
};
pub use node::{os_random_seed, Channel, NetConfig, NetStats, Node, Ports};
pub use runtime::{ChannelClass, Delivery, NodeCore, ProcessSpec};
pub use shard::{spawn_shard, EngineHandle, ShardCore, ShardHandle, TimerWheel};
pub use transport::{AddressBook, BatchRx, BatchTx, SocketPool, WellKnownAddrs, WellKnownSockets};
pub use vtime::VirtualCluster;

/// The real node on the virtual-time driver, end to end: spread, loss,
/// determinism, delivery and the headline attack result.
#[cfg(test)]
mod tests {
    use crate::{NetConfig, NetStats, VirtualCluster};
    use drum_core::bytes::Bytes;
    use drum_core::config::GossipConfig;
    use drum_core::ids::MessageId;

    /// Rounds for a message from node 0 to reach every node, if it does
    /// within `max_rounds`.
    fn spread(
        gossip: GossipConfig,
        n: usize,
        loss: f64,
        seed: u64,
        max_rounds: u32,
    ) -> Option<u32> {
        let mut net = VirtualCluster::new(n, NetConfig::new(gossip).with_loss(loss), seed);
        let id = net.publish(0, Bytes::from_static(b"m"));
        net.run_until_spread(id, 1.0, max_rounds)
    }

    #[test]
    fn dissemination_without_failures() {
        let rounds = spread(GossipConfig::drum(), 12, 0.0, 1, 50).expect("must spread");
        assert!(rounds <= 12, "took {rounds} rounds");
    }

    #[test]
    fn push_and_pull_variants_work() {
        for gossip in [GossipConfig::push(), GossipConfig::pull()] {
            let variant = gossip.variant;
            assert!(
                spread(gossip, 10, 0.0, 3, 80).is_some(),
                "{variant:?} failed to spread"
            );
        }
    }

    #[test]
    fn loss_slows_but_does_not_stop() {
        assert!(spread(GossipConfig::drum(), 10, 0.3, 5, 200).is_some());
    }

    /// A run is a function of its seed: the same seed replays every node's
    /// stats and every delivery, byte for byte, and another seed does not.
    /// The flooded run shows the whole node ran: the codec (`received`),
    /// the staged reservoirs under budget (`budget_drops`) and source
    /// authentication (`compress_calls`).
    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let config = NetConfig::new(GossipConfig::drum()).with_loss(0.05);
            let mut net = VirtualCluster::new(10, config, seed).with_attack(vec![0, 1], 64.0);
            for k in 0..3u8 {
                net.publish(usize::from(k), Bytes::from(vec![k; 16]));
            }
            net.run_rounds(12);
            let delivered: Vec<Vec<(MessageId, Bytes)>> = (0..10)
                .map(|i| {
                    net.delivered(i)
                        .iter()
                        .map(|m| (m.id, m.payload.clone()))
                        .collect()
                })
                .collect();
            let stats: Vec<NetStats> = (0..10).map(|i| *net.node(i).stats()).collect();
            (stats, delivered)
        };
        let (stats, delivered) = run(7);
        assert_eq!((stats.clone(), delivered.clone()), run(7));
        assert_ne!(stats, run(8).0, "another seed, another run");

        // Every node delivers the other sources' payloads once, never its
        // own message.
        for (i, got) in delivered.iter().enumerate() {
            let mut payloads: Vec<u8> = got.iter().map(|(_, p)| p[0]).collect();
            payloads.sort_unstable();
            let want: Vec<u8> = (0..3).filter(|&k| usize::from(k) != i).collect();
            assert_eq!(payloads, want, "node {i}");
            assert!(got
                .iter()
                .all(|(id, p)| p[..] == [p[0]; 16] && id.source.as_u64() != i as u64));
        }
        let flooded = stats[0];
        assert!(flooded.received > 0, "{flooded:?}");
        assert!(flooded.budget_drops > 0, "{flooded:?}");
        assert!(flooded.compress_calls > 0, "{flooded:?}");
        assert_eq!(flooded.decode_errors + flooded.port_mismatches, 0);
    }

    #[test]
    fn delivered_payloads_match() {
        let mut net = VirtualCluster::new(4, NetConfig::new(GossipConfig::drum()), 11);
        let id = net.publish(0, Bytes::from_static(b"payload-x"));
        net.run_rounds(10);
        for i in 1..4 {
            let got: Vec<(MessageId, &[u8])> = net
                .delivered(i)
                .iter()
                .map(|m| (m.id, &m.payload[..]))
                .collect();
            assert_eq!(got, [(id, &b"payload-x"[..])], "node {i}");
        }
        // The source does not deliver its own message.
        assert!(net.delivered(0).is_empty());
    }

    #[test]
    fn full_handshake_drum_flat_under_attack() {
        // The headline result survives the real push-offer handshake that
        // the paper's analysis and simulations omit.
        let mean_rounds = |x: f64, gossip: GossipConfig| {
            let trials = 10;
            let mut total = 0u32;
            for seed in 0..trials {
                let config = NetConfig::new(gossip.clone()).with_loss(0.01);
                let mut net = VirtualCluster::new(30, config, seed).with_attack(vec![0, 1, 2], x);
                let id = net.publish(0, Bytes::from_static(b"m"));
                total += net.run_until_spread(id, 0.99, 400).unwrap_or(400);
            }
            f64::from(total) / trials as f64
        };

        let drum_weak = mean_rounds(32.0, GossipConfig::drum());
        let drum_strong = mean_rounds(256.0, GossipConfig::drum());
        assert!(
            drum_strong < drum_weak + 3.0,
            "Drum with offers must stay flat: {drum_weak:.1} -> {drum_strong:.1}"
        );

        let push_weak = mean_rounds(32.0, GossipConfig::push());
        let push_strong = mean_rounds(256.0, GossipConfig::push());
        assert!(
            push_strong > push_weak * 1.5,
            "Push must degrade: {push_weak:.1} -> {push_strong:.1}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use crate::codec::{decode, decode_skipping, encode};
    use drum_core::digest::Digest;
    use drum_core::ids::{MessageId, ProcessId};
    use drum_core::message::{DataMessage, GossipMessage, PortRef};
    use drum_crypto::auth::AuthTag;
    use drum_testkit::prop::{check, Config, Gen};
    use drum_testkit::{prop_assert, prop_assert_eq};

    fn arb_digest(g: &mut Gen) -> Digest {
        g.vec_with(0..64, |g| (g.u64_in(0..16), g.u64_in(0..128)))
            .into_iter()
            .map(|(s, q)| MessageId::new(ProcessId(s), q))
            .collect()
    }

    fn arb_key(g: &mut Gen) -> [u8; 32] {
        let mut key = [0u8; 32];
        for b in &mut key {
            *b = g.u8();
        }
        key
    }

    fn arb_port(g: &mut Gen) -> PortRef {
        match g.u64_in(0..3) {
            0 => PortRef::None,
            1 => PortRef::Plain(g.u16()),
            _ => {
                let k = drum_crypto::keys::SecretKey::from_bytes(arb_key(g));
                PortRef::Sealed(drum_crypto::seal::seal_port(&k, g.u64(), g.u16()).unwrap())
            }
        }
    }

    fn arb_messages(g: &mut Gen) -> Vec<DataMessage> {
        g.vec_with(0..8, |g| DataMessage {
            id: MessageId::new(ProcessId(g.u64()), g.u64()),
            hops: g.u32_in(0..u32::MAX),
            payload: g.bytes(0..100).into(),
            auth: AuthTag(arb_key(g)),
        })
    }

    fn arb_message(g: &mut Gen) -> GossipMessage {
        match g.u64_in(0..5) {
            0 => GossipMessage::PullRequest {
                from: ProcessId(g.u64()),
                digest: arb_digest(g),
                reply_port: arb_port(g),
                nonce: g.u64(),
            },
            1 => GossipMessage::PullReply {
                from: ProcessId(g.u64()),
                messages: arb_messages(g),
            },
            2 => GossipMessage::PushOffer {
                from: ProcessId(g.u64()),
                reply_port: arb_port(g),
                nonce: g.u64(),
            },
            3 => GossipMessage::PushReply {
                from: ProcessId(g.u64()),
                digest: arb_digest(g),
                data_port: arb_port(g),
                nonce: g.u64(),
            },
            _ => GossipMessage::PushData {
                from: ProcessId(g.u64()),
                messages: arb_messages(g),
            },
        }
    }

    #[test]
    fn codec_round_trips() {
        check("codec_round_trips", Config::default(), |g| {
            let msg = arb_message(g);
            let bytes = encode(&msg);
            prop_assert_eq!(decode(&bytes).unwrap(), msg);
            Ok(())
        });
    }

    /// A skip set over ids, drawn per case: roughly half of all ids.
    fn arb_skip(g: &mut Gen) -> impl Fn(MessageId) -> bool {
        let salt = g.u64();
        move |id: MessageId| {
            (id.source.as_u64() ^ id.seq ^ salt)
                .count_ones()
                .is_multiple_of(2)
        }
    }

    #[test]
    fn decode_skipping_leaves_out_exactly_the_skipped_data_messages() {
        check(
            "decode_skipping_leaves_out_exactly_the_skipped_data_messages",
            Config::default(),
            |g| {
                let msg = arb_message(g);
                let skip = arb_skip(g);
                let bytes = encode(&msg);
                let want = match msg {
                    GossipMessage::PullReply { from, mut messages } => {
                        messages.retain(|m| !skip(m.id));
                        GossipMessage::PullReply { from, messages }
                    }
                    GossipMessage::PushData { from, mut messages } => {
                        messages.retain(|m| !skip(m.id));
                        GossipMessage::PushData { from, messages }
                    }
                    control => control,
                };
                prop_assert_eq!(decode_skipping(&bytes, &skip).unwrap(), want);
                Ok(())
            },
        );
    }

    #[test]
    fn decode_skipping_fails_exactly_when_decode_does() {
        check(
            "decode_skipping_fails_exactly_when_decode_does",
            Config::default(),
            |g| {
                let bytes = if g.bool(0.25) {
                    g.bytes(0..512)
                } else {
                    let mut bytes = encode(&arb_message(g)).to_vec();
                    let i = g.index(bytes.len());
                    if g.bool(0.5) {
                        bytes[i] = g.u8();
                    } else {
                        bytes.truncate(i);
                    }
                    bytes
                };
                let skip = arb_skip(g);
                prop_assert_eq!(decode_skipping(&bytes, &skip).err(), decode(&bytes).err());
                Ok(())
            },
        );
    }

    #[test]
    fn encode_into_matches_encode() {
        use drum_core::bytes::BytesMut;
        // A reused (dirty) scratch buffer must produce the exact bytes of a
        // fresh `encode` for every message — the zero-allocation fan-out
        // path cannot change the wire format.
        check("encode_into_matches_encode", Config::default(), |g| {
            let mut scratch = BytesMut::with_capacity(16);
            scratch.put_slice(b"stale bytes from a previous datagram");
            for _ in 0..4 {
                let msg = arb_message(g);
                crate::codec::encode_into(&msg, &mut scratch);
                prop_assert_eq!(&scratch[..], &encode(&msg)[..]);
            }
            Ok(())
        });
    }

    #[test]
    fn decode_never_panics_on_garbage() {
        check("decode_never_panics_on_garbage", Config::default(), |g| {
            let bytes = g.bytes(0..512);
            let _ = decode(&bytes);
            Ok(())
        });
    }

    #[test]
    fn decode_never_panics_on_mutations() {
        check("decode_never_panics_on_mutations", Config::default(), |g| {
            let msg = arb_message(g);
            let mut bytes = encode(&msg).to_vec();
            if !bytes.is_empty() {
                let i = g.index(bytes.len());
                bytes[i] = g.u8();
            }
            let _ = decode(&bytes);
            Ok(())
        });
    }

    #[test]
    fn decode_frame_never_panics_on_garbage() {
        use crate::codec::decode_frame;
        check(
            "decode_frame_never_panics_on_garbage",
            Config::default(),
            |g| {
                // Arbitrary bytes, and arbitrary bytes forced to look like a
                // frame (lead tag byte 6) so the parser's interior is
                // actually exercised rather than rejected at the first byte.
                let mut bytes = g.bytes(0..2048);
                let _ = decode_frame(&bytes);
                if !bytes.is_empty() {
                    bytes[0] = 6;
                }
                let _ = decode_frame(&bytes);
                Ok(())
            },
        );
    }

    #[test]
    fn frame_pack_unpack_round_trips() {
        use crate::codec::{decode_frame, frame_signed_body, FrameBuilder};
        use drum_core::bytes::BytesMut;
        use drum_crypto::keys::SecretKey;

        check("frame_pack_unpack_round_trips", Config::default(), |g| {
            let key = SecretKey::from_bytes(arb_key(g)).hmac_key();
            let sender = ProcessId(g.u64_in(0..64));
            let nonce = g.u64();
            let msgs = g.vec_with(1..12, arb_message);
            let mut builder = FrameBuilder::new();
            let mut wire = BytesMut::with_capacity(16);
            let mut cursor = 0usize;
            // Greedy fill may split the list over several frames; every
            // frame must decode back to exactly the packed prefix, carry a
            // verifiable tag, and preserve message order.
            while cursor < msgs.len() {
                let mut packed = 0usize;
                while cursor + packed < msgs.len() && builder.push(&msgs[cursor + packed]) {
                    packed += 1;
                }
                prop_assert!(packed > 0, "an empty builder must accept any message");
                let n = builder.finish_into(
                    sender,
                    nonce,
                    |body| drum_crypto::sign_frame_with(&key, sender.as_u64(), nonce, body),
                    &mut wire,
                );
                prop_assert_eq!(n, packed);
                let frame = decode_frame(&wire[..]).unwrap();
                prop_assert_eq!(frame.sender, sender);
                prop_assert_eq!(frame.nonce, nonce);
                prop_assert_eq!(&frame.messages[..], &msgs[cursor..cursor + packed]);
                let body = frame_signed_body(&wire[..]).unwrap();
                prop_assert!(drum_crypto::verify_frame_with(
                    &key,
                    sender.as_u64(),
                    nonce,
                    body,
                    &frame.auth
                )
                .is_ok());
                cursor += packed;
            }
            Ok(())
        });
    }

    #[test]
    fn decode_frame_never_panics_on_mutations() {
        use crate::codec::{decode_frame, FrameBuilder};
        use drum_core::bytes::BytesMut;
        use drum_crypto::auth::AuthTag;

        check(
            "decode_frame_never_panics_on_mutations",
            Config::default(),
            |g| {
                let msgs = g.vec_with(1..6, arb_message);
                let mut builder = FrameBuilder::new();
                for m in &msgs {
                    let _ = builder.push(m);
                }
                let mut wire = BytesMut::with_capacity(16);
                builder.finish_into(ProcessId(1), 7, |_| AuthTag::zero(), &mut wire);
                let mut bytes = wire[..].to_vec();
                let i = g.index(bytes.len());
                bytes[i] = g.u8();
                let _ = decode_frame(&bytes);
                // Truncations of a valid frame never panic either.
                let cut = g.index(bytes.len());
                let _ = decode_frame(&bytes[..cut]);
                Ok(())
            },
        );
    }
}
