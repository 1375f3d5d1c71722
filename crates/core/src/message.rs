//! Data and wire message types of the Drum protocol (§4 of the paper).

use crate::bytes::Bytes;
use drum_crypto::auth::AuthTag;
use drum_crypto::seal::SealedPort;

use crate::digest::Digest;
use crate::ids::{MessageId, ProcessId};

/// A multicast data message.
///
/// Created once by its source and then gossiped; the `hops` counter is the
/// paper's round counter (§8.1): the source logs 0 and immediately sets it to
/// 1; every process increments the counters of buffered messages once per
/// local round, so on reception it records how many rounds the message has
/// traveled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataMessage {
    /// Globally unique id (source + sequence number).
    pub id: MessageId,
    /// Round counter (§8.1), incremented once per round while buffered.
    pub hops: u32,
    /// Application payload.
    pub payload: Bytes,
    /// Source-authentication tag over `(source, seq, payload)`.
    pub auth: AuthTag,
}

impl DataMessage {
    /// Creates and signs a new data message.
    pub fn sign_new(
        source_key: &drum_crypto::keys::SecretKey,
        id: MessageId,
        payload: Bytes,
    ) -> Self {
        Self::sign_new_with(source_key.schedule(), id, payload)
    }

    /// Creates and signs a new data message using a precomputed key schedule
    /// (see [`drum_crypto::keys::SecretKey::hmac_key`]). Sources that publish
    /// repeatedly should cache the schedule and use this entry point.
    pub fn sign_new_with(
        auth_key: &drum_crypto::hmac::HmacKey,
        id: MessageId,
        payload: Bytes,
    ) -> Self {
        let auth = drum_crypto::auth::sign_with(auth_key, id.source.as_u64(), id.seq, &payload);
        DataMessage {
            id,
            hops: 0,
            payload,
            auth,
        }
    }

    /// Verifies the source-authentication tag against the key store.
    ///
    /// # Errors
    ///
    /// Propagates [`drum_crypto::auth::AuthError`] for unknown sources and
    /// forged tags.
    pub fn verify(
        &self,
        store: &drum_crypto::keys::KeyStore,
    ) -> Result<(), drum_crypto::auth::AuthError> {
        drum_crypto::auth::verify(
            store,
            self.id.source.as_u64(),
            self.id.seq,
            &self.payload,
            &self.auth,
        )
    }
}

/// How a reply port is communicated.
///
/// Drum seals random ports under the recipient's key so an attacker cannot
/// learn them ([`PortRef::Sealed`]). The ablation variant that demonstrates
/// *why* this matters (Figure 12(a)) uses [`PortRef::Plain`]; abstract
/// transports (the simulator) use [`PortRef::None`]. Every variant is a
/// fixed-size value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortRef {
    /// No port information (abstract/simulated transport).
    None,
    /// A cleartext port — vulnerable to targeted flooding. Answered only
    /// with random ports off; with them on, a member never sends one, and
    /// the engine refuses to reply to it.
    Plain(u16),
    /// A sealed port, only readable by the intended recipient.
    Sealed(SealedPort),
}

impl PortRef {
    /// Whether the port is concealed from eavesdroppers.
    pub fn is_sealed(&self) -> bool {
        matches!(self, PortRef::Sealed(_))
    }
}

/// The gossip wire messages (§4).
///
/// `PullRequest` and `PushOffer` go to well-known ports; all other messages
/// go to ports carried (usually sealed) inside a previous message.
#[derive(Debug, Clone, PartialEq)]
pub enum GossipMessage {
    /// "Send me what I'm missing": digest of held messages + reply port.
    PullRequest {
        /// Requester.
        from: ProcessId,
        /// What the requester already has.
        digest: Digest,
        /// Where to send the pull-reply (random, sealed).
        reply_port: PortRef,
        /// Seal nonce (round × counter), echoed for key derivation.
        nonce: u64,
    },
    /// Response to a pull-request: messages missing from the digest.
    PullReply {
        /// Responder.
        from: ProcessId,
        /// The requested data messages.
        messages: Vec<DataMessage>,
    },
    /// First leg of the push handshake: "I have messages for you".
    PushOffer {
        /// Offerer.
        from: ProcessId,
        /// Where to send the push-reply (random, sealed).
        reply_port: PortRef,
        /// Seal nonce.
        nonce: u64,
    },
    /// Second leg: the target's digest plus a data port.
    PushReply {
        /// Push target replying to an offer.
        from: ProcessId,
        /// What the target already has.
        digest: Digest,
        /// Where to send the data messages (random, sealed).
        data_port: PortRef,
        /// Seal nonce.
        nonce: u64,
    },
    /// Third leg: data messages the target was missing.
    PushData {
        /// Original offerer.
        from: ProcessId,
        /// Messages missing from the target's digest.
        messages: Vec<DataMessage>,
    },
}

impl GossipMessage {
    /// The claimed sender of this message.
    ///
    /// Note: on an insecure channel this is *not* authenticated — only data
    /// message *sources* are. The protocol never trusts `from` for anything
    /// beyond addressing a reply.
    pub fn from(&self) -> ProcessId {
        match self {
            GossipMessage::PullRequest { from, .. }
            | GossipMessage::PullReply { from, .. }
            | GossipMessage::PushOffer { from, .. }
            | GossipMessage::PushReply { from, .. }
            | GossipMessage::PushData { from, .. } => *from,
        }
    }

    /// A short label for logging and metrics.
    pub fn kind(&self) -> MessageKind {
        match self {
            GossipMessage::PullRequest { .. } => MessageKind::PullRequest,
            GossipMessage::PullReply { .. } => MessageKind::PullReply,
            GossipMessage::PushOffer { .. } => MessageKind::PushOffer,
            GossipMessage::PushReply { .. } => MessageKind::PushReply,
            GossipMessage::PushData { .. } => MessageKind::PushData,
        }
    }
}

/// Discriminant of [`GossipMessage`], used for budgeting and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Pull-request (well-known pull port).
    PullRequest,
    /// Pull-reply (random port).
    PullReply,
    /// Push-offer (well-known push port).
    PushOffer,
    /// Push-reply (random port).
    PushReply,
    /// Push data (random port).
    PushData,
}

impl MessageKind {
    /// Stable lowercase label (allocation-free, for trace events).
    pub const fn name(self) -> &'static str {
        match self {
            MessageKind::PullRequest => "pull-request",
            MessageKind::PullReply => "pull-reply",
            MessageKind::PushOffer => "push-offer",
            MessageKind::PushReply => "push-reply",
            MessageKind::PushData => "push-data",
        }
    }
}

impl core::fmt::Display for MessageKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drum_crypto::keys::KeyStore;

    fn store_and_key(source: u64) -> (KeyStore, drum_crypto::keys::SecretKey) {
        let store = KeyStore::new(77);
        let key = store.register(source);
        (store, key)
    }

    /// A data message is its id, hop count, payload handle and tag: 72
    /// bytes on 64-bit targets, with the payload handle a bare shared slice.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_data_message_is_72_bytes() {
        assert_eq!(size_of::<DataMessage>(), 72);
    }

    #[test]
    fn sign_and_verify_data_message() {
        let (store, key) = store_and_key(4);
        let msg = DataMessage::sign_new(
            &key,
            MessageId::new(ProcessId(4), 0),
            Bytes::from_static(b"m"),
        );
        assert!(msg.verify(&store).is_ok());
    }

    #[test]
    fn tampered_payload_fails_verification() {
        let (store, key) = store_and_key(4);
        let mut msg = DataMessage::sign_new(
            &key,
            MessageId::new(ProcessId(4), 0),
            Bytes::from_static(b"m"),
        );
        msg.payload = Bytes::from_static(b"x");
        assert!(msg.verify(&store).is_err());
    }

    #[test]
    fn fabricated_message_fails_verification() {
        let (store, _) = store_and_key(4);
        let msg = DataMessage {
            id: MessageId::new(ProcessId(4), 0),
            hops: 0,
            payload: Bytes::from_static(b"fake"),
            auth: AuthTag::zero(),
        };
        assert!(msg.verify(&store).is_err());
    }

    #[test]
    fn gossip_message_from_and_kind() {
        let m = GossipMessage::PushOffer {
            from: ProcessId(9),
            reply_port: PortRef::None,
            nonce: 0,
        };
        assert_eq!(m.from(), ProcessId(9));
        assert_eq!(m.kind(), MessageKind::PushOffer);
        assert_eq!(m.kind().to_string(), "push-offer");
    }

    #[test]
    fn port_ref_sealed_detection() {
        assert!(!PortRef::None.is_sealed());
        assert!(!PortRef::Plain(80).is_sealed());
        let key = drum_crypto::keys::SecretKey::from_bytes([1; 32]);
        let sealed = drum_crypto::seal::seal_port(&key, 0, 1234).unwrap();
        assert!(PortRef::Sealed(sealed).is_sealed());
    }

    #[test]
    fn all_kinds_display() {
        for (k, s) in [
            (MessageKind::PullRequest, "pull-request"),
            (MessageKind::PullReply, "pull-reply"),
            (MessageKind::PushOffer, "push-offer"),
            (MessageKind::PushReply, "push-reply"),
            (MessageKind::PushData, "push-data"),
        ] {
            assert_eq!(k.to_string(), s);
        }
    }
}
