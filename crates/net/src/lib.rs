//! Real-UDP runtime for the Drum gossip protocol — the §8 measurement
//! substrate of the paper (Badishi, Keidar, Sasson, DSN 2004).
//!
//! Where the paper ran a Java implementation on 50 Emulab machines, this
//! crate runs every logical process over real UDP sockets on the loopback
//! interface (see `DESIGN.md` for the substitution argument):
//!
//! * [`codec`] — hardened binary wire format;
//! * [`transport`] — well-known + random ephemeral sockets, address book;
//! * [`runtime`] — [`NodeCore`], one process's unsynchronized rounds around
//!   a [`drum_core::engine::Engine`], as steps a driver calls;
//! * [`shard`] — the driver: one event loop (shared epoll + timer wheel)
//!   steps the engines of a shard on one OS thread, from a single process
//!   to 1,000+ real-UDP nodes;
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
// back the batched I/O fast path. Everything else in this crate is safe
// Rust, and every batched path has a safe per-datagram fallback, the one
// path of every other target.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod codec;
pub mod experiment;
pub mod runtime;
pub mod shard;
#[allow(unsafe_code)]
pub mod sys;
pub mod transport;

pub use attack::{spawn_attacker, AttackerConfig, AttackerHandle, FloodStrategy};
pub use codec::{
    decode, decode_frame, encode, frame_signed_body, is_frame, peek_kind, DecodeError, Frame,
    FrameBuilder, FRAME_BUDGET, FRAME_HEADER_LEN, FRAME_ITEM_OVERHEAD, FRAME_TAG_LEN,
    MAX_FRAME_MESSAGES,
};
pub use experiment::{
    paper_cluster_config, propagation_experiment, resolve_shards, soak_experiment,
    throughput_experiment, Cluster, ClusterConfig, NodeHandle, PropagationReport, ReceiverReport,
    SoakPhase, SoakReport, ThroughputReport,
};
pub use runtime::{
    os_random_seed, ChannelClass, Delivery, NetConfig, NetStats, NodeCore, ProcessSpec,
};
pub use shard::{spawn_shard, EngineHandle, ShardCore, ShardHandle, TimerWheel};
pub use transport::{AddressBook, BatchRx, BatchTx, SocketPool, WellKnownAddrs, WellKnownSockets};

#[cfg(test)]
mod proptests {
    use crate::codec::{decode, encode};
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
