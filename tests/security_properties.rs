//! Adversarial security properties, end to end: the specific attacker
//! capabilities the paper's model grants — fabricating messages, snooping,
//! replaying — must not buy anything beyond budgeted contention.

use drum::core::config::GossipConfig;
use drum::core::digest::Digest;
use drum::core::engine::{CountingPortOracle, Engine};
use drum::core::ids::{MessageId, ProcessId};
use drum::core::message::{DataMessage, GossipMessage, PortRef};
use drum::core::view::Membership;
use drum::crypto::auth::AuthTag;
use drum::crypto::keys::{KeyStore, SecretKey};
use drum::crypto::seal;
use drum_core::bytes::Bytes;

fn engine_pair() -> (Engine, Engine, KeyStore) {
    let store = KeyStore::new(2026);
    let members = vec![ProcessId(0), ProcessId(1)];
    let k0 = store.register(0);
    let k1 = store.register(1);
    let a = Engine::new(
        GossipConfig::drum(),
        Membership::new(ProcessId(0), members.clone()),
        store.clone(),
        k0,
        1,
    );
    let b = Engine::new(
        GossipConfig::drum(),
        Membership::new(ProcessId(1), members),
        store.clone(),
        k1,
        2,
    );
    (a, b, store)
}

#[test]
fn forged_data_messages_never_deliver() {
    let (mut a, _, _) = engine_pair();
    let mut oracle = CountingPortOracle::default();
    a.begin_round(&mut oracle);

    // The adversary fabricates a data message claiming p1 as source with
    // an arbitrary tag, and another reusing a *valid-looking* but
    // wrong-keyed signature.
    for forged in [
        DataMessage {
            id: MessageId::new(ProcessId(1), 7),
            hops: 1,
            payload: Bytes::from_static(b"evil"),
            auth: AuthTag::zero(),
        },
        DataMessage::sign_new(
            &SecretKey::from_bytes([66u8; 32]), // not p1's key
            MessageId::new(ProcessId(1), 8),
            Bytes::from_static(b"evil2"),
        ),
    ] {
        a.handle(
            GossipMessage::PushData {
                from: ProcessId(1),
                messages: vec![forged.clone()],
            },
            &mut oracle,
        );
        assert!(
            !a.buffer().seen(forged.id),
            "forged {} delivered!",
            forged.id
        );
    }
    assert_eq!(a.stats().dropped_auth, 2);
    assert!(a.take_delivered().is_empty());
}

#[test]
fn replayed_data_messages_deliver_once() {
    let (mut a, mut b, _) = engine_pair();
    let mut oracle = CountingPortOracle::default();
    let id = b.publish(Bytes::from_static(b"legit"));
    let replica = b.buffer().get(id).unwrap().clone();

    a.begin_round(&mut oracle);
    // First delivery.
    a.handle(
        GossipMessage::PushData {
            from: ProcessId(1),
            messages: vec![replica.clone()],
        },
        &mut oracle,
    );
    assert_eq!(a.take_delivered().len(), 1);
    // Replays (same round and after a round boundary) never re-deliver.
    a.handle(
        GossipMessage::PushData {
            from: ProcessId(1),
            messages: vec![replica.clone()],
        },
        &mut oracle,
    );
    a.end_round();
    a.begin_round(&mut oracle);
    a.handle(
        GossipMessage::PushData {
            from: ProcessId(1),
            messages: vec![replica],
        },
        &mut oracle,
    );
    assert!(a.take_delivered().is_empty(), "replay re-delivered");
}

#[test]
fn forged_copy_of_a_delivered_message_buys_no_work() {
    // Seen before MAC: once a message is admitted, neither a replay nor a
    // forgery under its id costs the receiver a single compression, and
    // the forgery cannot displace the authentic copy.
    let (mut a, mut b, store) = engine_pair();
    let mut oracle = CountingPortOracle::default();
    let id = b.publish(Bytes::from_static(b"legit"));
    let replica = b.buffer().get(id).unwrap().clone();
    a.begin_round(&mut oracle);
    a.handle(
        GossipMessage::PushData {
            from: ProcessId(1),
            messages: vec![replica.clone()],
        },
        &mut oracle,
    );
    assert_eq!(a.take_delivered().len(), 1);
    let paid = a.lane_stats();
    assert!(paid.compress_calls > 0, "the first copy pays its MAC");

    let forged = DataMessage {
        payload: Bytes::from_static(b"evil"),
        auth: AuthTag::zero(),
        ..replica.clone()
    };
    a.handle(
        GossipMessage::PullReply {
            from: ProcessId(1),
            messages: vec![forged, replica],
        },
        &mut oracle,
    );
    assert!(a.take_delivered().is_empty());
    assert_eq!(a.stats().dropped_auth, 0);
    assert_eq!(a.lane_stats(), paid);
    let stored = a.buffer().get(id).unwrap();
    assert_eq!(stored.payload, Bytes::from_static(b"legit"));
    assert!(stored.verify(&store).is_ok());
}

#[test]
fn sealed_ports_are_opaque_and_tamper_evident() {
    let (mut a, _, store) = engine_pair();
    let mut oracle = CountingPortOracle::default();
    let outs = a.begin_round(&mut oracle);

    // Snooping: the sealed port bytes must not contain the port number in
    // the clear (checked over every message of the round).
    for out in &outs {
        let (PortRef::Sealed(sealed), _) = (match &out.msg {
            GossipMessage::PullRequest {
                reply_port, nonce, ..
            }
            | GossipMessage::PushOffer {
                reply_port, nonce, ..
            } => (reply_port.clone(), *nonce),
            other => panic!("unexpected {other:?}"),
        }) else {
            panic!("port must be sealed");
        };
        // The recipient can open it...
        let recipient_key = store.key_of(out.to.as_u64()).unwrap();
        let port = seal::open_port(&recipient_key, &sealed).unwrap();
        assert!(port >= 40_000, "oracle ports start at 40000");
        // ...a non-recipient cannot...
        let wrong = SecretKey::from_bytes([9u8; 32]);
        assert!(seal::open_port(&wrong, &sealed).is_err());
        // ...and the ciphertext is not the plaintext.
        assert_ne!(sealed.ciphertext, port.to_be_bytes().to_vec());
        // Tampering is detected.
        let mut mangled = sealed.clone();
        mangled.ciphertext[0] ^= 0xFF;
        assert!(seal::open_port(&recipient_key, &mangled).is_err());
    }
}

#[test]
fn spoofed_push_reply_cannot_extract_data() {
    // An attacker who merely *claims* to be a process we offered to — but
    // sends from an unexpected identity — gets nothing.
    let (mut a, _, _) = engine_pair();
    let mut oracle = CountingPortOracle::default();
    a.publish(Bytes::from_static(b"secret-ish"));
    a.begin_round(&mut oracle);

    // p7 is not even in the membership, and was never offered to.
    let spoof = GossipMessage::PushReply {
        from: ProcessId(7),
        digest: Digest::new(),
        data_port: PortRef::Plain(31337),
        nonce: 0,
    };
    let responses = a.handle(spoof, &mut oracle);
    assert!(
        responses.is_empty(),
        "unsolicited push-reply must be ignored"
    );
    assert_eq!(a.stats().dropped_unsolicited, 1);
}

#[test]
fn pull_request_with_corrupt_sealed_port_is_wasted() {
    // A fabricated pull-request with a syntactically valid but
    // cryptographically garbage sealed port consumes its budget slot (the
    // attack cost the paper models) but produces no reply.
    let (mut a, _, _) = engine_pair();
    let mut oracle = CountingPortOracle::default();
    a.publish(Bytes::from_static(b"m"));
    a.begin_round(&mut oracle);

    let garbage = seal::SealedBox {
        nonce: 1,
        ciphertext: vec![1, 2],
        tag: [0u8; 32],
    };
    let req = GossipMessage::PullRequest {
        from: ProcessId(1),
        digest: Digest::new(),
        reply_port: PortRef::Sealed(garbage),
        nonce: 1,
    };
    let responses = a.handle(req, &mut oracle);
    assert!(
        responses.is_empty(),
        "garbage seal must not produce a reply"
    );
}

#[test]
fn testkit_attacker_cannot_hit_random_ports() {
    // In the virtual network, a message aimed at a never-allocated port is
    // dropped by the registry — the transport-level equivalent of the
    // adversary not knowing the random ports.
    use drum::testkit::{NetworkConfig, VirtualNetwork};
    let mut net = VirtualNetwork::new(NetworkConfig::drum(6).with_attack(vec![0], 512.0), 3);
    let id = net.publish(1, Bytes::from_static(b"m")); // non-attacked source
                                                       // Despite a huge flood on p0's well-known channels, the group (whose
                                                       // reply/data channels the attacker cannot see) disseminates fine.
    let rounds = net.run_until_spread(id, 1.0, 60).expect("must spread");
    assert!(rounds < 30, "took {rounds} rounds");
}

#[test]
fn certificates_cannot_be_transferred_between_subjects() {
    use drum::membership::ca::CertificateAuthority;
    use drum::membership::database::MembershipDb;
    use drum::membership::events::MembershipEvent;

    let ca = CertificateAuthority::new([3u8; 32], KeyStore::new(5));
    let cert = ca.join(ProcessId(1), 0, 100).unwrap();

    // The attacker rewrites the subject to itself; the signature breaks.
    let mut stolen = cert;
    stolen.subject = ProcessId(666);
    let mut db = MembershipDb::new(ProcessId(0), ca.verification_key());
    assert!(db.apply(&MembershipEvent::Join(stolen), 1).is_err());
    assert!(!db.contains(ProcessId(666)));
}
