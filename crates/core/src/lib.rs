//! Transport-agnostic engine for **Drum** — the DoS-resistant gossip-based
//! multicast protocol of Badishi, Keidar and Sasson (DSN 2004) — and its
//! Push-only / Pull-only baselines.
//!
//! Drum achieves resistance to targeted denial-of-service attacks with
//! three simple, composable measures:
//!
//! 1. **combining push and pull** gossip ([`config::ProtocolVariant::Drum`]),
//!    so an attack that blocks one direction leaves the other operational;
//! 2. **separate resource bounds** per operation ([`bounds::RoundBudget`]),
//!    so flooding one port cannot starve another;
//! 3. **random, sealed ports** for replies and data ([`message::PortRef`]),
//!    so the attacker does not know where to aim.
//!
//! This crate contains the protocol logic only; pair it with:
//! `drum-net` (real UDP transport), `drum-sim` (Monte-Carlo simulator),
//! `drum-analysis` (closed-form numerics) and `drum-membership` (dynamic
//! groups).
//!
//! # Examples
//!
//! Two engines exchanging a message through an in-memory "network":
//!
//! ```
//! use drum_core::bytes::Bytes;
//! use drum_core::config::GossipConfig;
//! use drum_core::engine::{CountingPortOracle, Engine};
//! use drum_core::ids::ProcessId;
//! use drum_core::view::Membership;
//! use drum_crypto::keys::KeyStore;
//!
//! let store = KeyStore::new(42);
//! let members = vec![ProcessId(0), ProcessId(1)];
//! let k0 = store.register(0);
//! let k1 = store.register(1);
//! let mut a = Engine::new(GossipConfig::drum(), Membership::new(ProcessId(0), members.clone()),
//!                         store.clone(), k0, 1);
//! let mut b = Engine::new(GossipConfig::drum(), Membership::new(ProcessId(1), members),
//!                         store, k1, 2);
//!
//! let id = a.publish(Bytes::from_static(b"hello group"));
//! let mut oracle = CountingPortOracle::default();
//!
//! // One round: deliver every message to its destination engine.
//! let mut inflight: Vec<_> = a.begin_round(&mut oracle).into_iter()
//!     .chain(b.begin_round(&mut oracle)).collect();
//! while !inflight.is_empty() {
//!     let mut next = Vec::new();
//!     for out in inflight {
//!         let target = if out.to == ProcessId(0) { &mut a } else { &mut b };
//!         next.extend(target.handle(out.msg, &mut oracle));
//!     }
//!     inflight = next;
//! }
//! assert!(b.buffer().seen(id));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod bounds;
pub mod buffer;
pub mod bytes;
pub mod config;
pub mod digest;
pub mod engine;
pub mod ids;
pub mod message;
pub mod stream;
pub mod view;

pub use bitset::BitSet;
pub use bounds::{Channel, RoundBudget};
pub use buffer::MessageBuffer;
pub use bytes::{Bytes, BytesMut};
pub use config::{AdversaryKind, BoundMode, ConfigError, GossipConfig, ProtocolVariant};
pub use digest::{Digest, DigestError};
pub use engine::{Engine, Outbound, PortOracle, PortPurpose, RoundStats, SendPort};
pub use ids::{MessageId, ProcessId, Round};
pub use message::{DataMessage, GossipMessage, MessageKind, PortRef};
pub use stream::{StreamConfig, StreamScheduler, StreamStats};
pub use view::{Membership, RoundViews};

/// Default well-known port offset for pull-requests (relative to a
/// process's base port in `drum-net`).
pub const WELL_KNOWN_PULL_PORT: u16 = 0;

/// Default well-known port offset for push-offers.
pub const WELL_KNOWN_PUSH_PORT: u16 = 1;

/// Fixed pull-reply port used only by the no-random-ports ablation.
pub const WELL_KNOWN_PULL_REPLY_PORT: u16 = 2;

/// Fixed push-reply port used only by the no-random-ports ablation.
pub const WELL_KNOWN_PUSH_REPLY_PORT: u16 = 3;

/// Fixed push-data port used only by the no-random-ports ablation.
pub const WELL_KNOWN_PUSH_DATA_PORT: u16 = 4;

#[cfg(test)]
mod proptests {
    use crate::digest::Digest;
    use crate::ids::{MessageId, ProcessId};
    use drum_testkit::prop::{check, Config, Gen};
    use drum_testkit::{prop_assert, prop_assert_eq};
    use std::collections::BTreeSet;

    fn arb_ids(g: &mut Gen) -> Vec<MessageId> {
        g.vec_with(0..200, |g| {
            MessageId::new(ProcessId(g.u64_in(0..8)), g.u64_in(0..64))
        })
    }

    #[test]
    fn digest_matches_btreeset() {
        check("digest_matches_btreeset", Config::default(), |g| {
            let ids = arb_ids(g);
            let probes = arb_ids(g);
            let digest: Digest = ids.iter().copied().collect();
            let reference: BTreeSet<MessageId> = ids.iter().copied().collect();
            prop_assert_eq!(digest.len(), reference.len());
            for probe in probes {
                prop_assert_eq!(digest.contains(probe), reference.contains(&probe));
            }
            let expanded: Vec<MessageId> = digest.iter().collect();
            let sorted: Vec<MessageId> = reference.into_iter().collect();
            prop_assert_eq!(expanded, sorted);
            Ok(())
        });
    }

    #[test]
    fn digest_wire_round_trip() {
        check("digest_wire_round_trip", Config::default(), |g| {
            let ids = arb_ids(g);
            let digest: Digest = ids.iter().copied().collect();
            let raw: Vec<(ProcessId, Vec<(u64, u64)>)> =
                digest.intervals().map(|(s, v)| (s, v.to_vec())).collect();
            let decoded = Digest::from_intervals(raw).unwrap();
            prop_assert_eq!(digest, decoded);
            Ok(())
        });
    }

    #[test]
    fn digest_insert_idempotent() {
        check("digest_insert_idempotent", Config::default(), |g| {
            let ids = arb_ids(g);
            let mut digest: Digest = ids.iter().copied().collect();
            let len = digest.len();
            let intervals = digest.interval_count();
            for id in &ids {
                prop_assert!(!digest.insert(*id));
            }
            prop_assert_eq!(digest.len(), len);
            prop_assert_eq!(digest.interval_count(), intervals);
            Ok(())
        });
    }

    #[test]
    fn engine_survives_arbitrary_message_sequences() {
        check(
            "engine_survives_arbitrary_message_sequences",
            Config::default(),
            |g| {
                use crate::config::GossipConfig;
                use crate::engine::{CountingPortOracle, Engine};
                use crate::message::{DataMessage, GossipMessage, PortRef};
                use crate::view::Membership;
                use drum_crypto::auth::AuthTag;
                use drum_crypto::keys::KeyStore;

                let msgs = g.vec_with(1..80, |g| {
                    (g.u8() % 5, g.u64_in(0..6), g.u64_in(0..16), g.u16())
                });
                let seed = g.u64_in(0..1000);

                // Fuzz the engine with arbitrary (unauthenticated) protocol
                // messages: it must never panic and never deliver a message
                // that fails source authentication.
                let store = KeyStore::new(seed);
                let members: Vec<ProcessId> = (0..6).map(ProcessId).collect();
                for m in &members {
                    store.register(m.as_u64());
                }
                let key = store.key_of(0).unwrap();
                let mut engine = Engine::new(
                    GossipConfig::drum(),
                    Membership::new(ProcessId(0), members),
                    store,
                    key,
                    seed,
                );
                let mut oracle = CountingPortOracle::default();
                engine.begin_round(&mut oracle);

                for (kind, from, seq, port) in msgs {
                    let from = ProcessId(from);
                    let data = DataMessage {
                        id: MessageId::new(from, seq),
                        hops: 0,
                        payload: crate::bytes::Bytes::from_static(b"fuzz"),
                        auth: AuthTag::zero(),
                    };
                    let msg = match kind {
                        0 => GossipMessage::PullRequest {
                            from,
                            digest: Digest::new(),
                            reply_port: PortRef::Plain(port),
                            nonce: seq,
                        },
                        1 => GossipMessage::PullReply {
                            from,
                            messages: vec![data],
                        },
                        2 => GossipMessage::PushOffer {
                            from,
                            reply_port: PortRef::Plain(port),
                            nonce: seq,
                        },
                        3 => GossipMessage::PushReply {
                            from,
                            digest: Digest::new(),
                            data_port: PortRef::Plain(port),
                            nonce: seq,
                        },
                        _ => GossipMessage::PushData {
                            from,
                            messages: vec![data],
                        },
                    };
                    let _ = engine.handle(msg, &mut oracle);
                }
                // Zero-tagged data never authenticates, so nothing delivers.
                prop_assert!(engine.take_delivered().is_empty());
                prop_assert!(engine.buffer().is_empty());
                Ok(())
            },
        );
    }

    #[test]
    fn buffer_never_redelivers() {
        check("buffer_never_redelivers", Config::default(), |g| {
            use crate::buffer::MessageBuffer;
            use crate::bytes::Bytes;
            use crate::ids::Round;
            use drum_crypto::auth::AuthTag;

            let ops = g.vec_with(1..100, |g| {
                (g.u64_in(0..4), g.u64_in(0..32), g.u64_in(0..5))
            });
            let mut buf = MessageBuffer::new(3);
            let mut delivered = BTreeSet::new();
            let mut round = Round(0);
            for (s, q, advance) in ops {
                round = Round(round.as_u64() + advance);
                buf.purge(round);
                let id = MessageId::new(ProcessId(s), q);
                let msg = crate::message::DataMessage {
                    id,
                    hops: 0,
                    payload: Bytes::new(),
                    auth: AuthTag::zero(),
                };
                let fresh = buf.insert(msg, round);
                // A message is "delivered" at most once ever.
                prop_assert_eq!(fresh, delivered.insert(id));
            }
            Ok(())
        });
    }

    #[test]
    fn live_digest_equals_the_rebuilt_one() {
        check(
            "live_digest_equals_the_rebuilt_one",
            Config::default(),
            |g| {
                use crate::buffer::MessageBuffer;
                use crate::bytes::Bytes;
                use crate::ids::Round;
                use drum_crypto::auth::AuthTag;

                // Random sources, out-of-order and duplicate seqs, purges at
                // advancing rounds; both seen-set modes.
                let max_age = g.u64_in(1..5);
                let mut buf = if g.bool(0.5) {
                    MessageBuffer::with_seen_window(max_age, max_age + g.u64_in(0..6))
                } else {
                    MessageBuffer::new(max_age)
                };
                let ops = g.vec_with(1..150, |g| {
                    (g.u64_in(0..4), g.u64_in(0..24), g.u64_in(0..3), g.bool(0.5))
                });
                let mut held = BTreeSet::new();
                let mut round = Round(0);
                for (s, q, advance, purge) in ops {
                    round = Round(round.as_u64() + advance);
                    if purge {
                        buf.purge(round);
                        held.retain(|&id| buf.contains(id));
                    }
                    let id = MessageId::new(ProcessId(s), q);
                    let msg = crate::message::DataMessage {
                        id,
                        hops: 0,
                        payload: Bytes::new(),
                        auth: AuthTag::zero(),
                    };
                    if buf.insert(msg, round) {
                        held.insert(id);
                    }
                    let rebuilt: Digest = held.iter().copied().collect();
                    let live = buf.digest();
                    prop_assert_eq!(&live, &rebuilt);
                    prop_assert_eq!(live.len(), buf.len());
                }
                Ok(())
            },
        );
    }
}
