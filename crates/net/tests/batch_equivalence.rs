//! Batched I/O against its oracle, the sent sequence.
//!
//! The `recvmmsg`/`sendmmsg` path in `drum_net::sys` must be invisible to
//! the protocol: a drain surfaces exactly the datagrams that were sent, in
//! send order (so the round loop makes the accept/drop/budget decisions
//! the sequence calls for), and a fan-out reaches every recipient exactly
//! once. These tests run over real loopback sockets, including the hostile
//! inputs the codec hardens against — garbage, truncation, wrong-purpose
//! messages.

use std::net::UdpSocket;
use std::time::Duration;

use drum_core::digest::Digest;
use drum_core::ids::ProcessId;
use drum_core::message::{GossipMessage, MessageKind, PortRef};
use drum_net::codec;
use drum_net::transport::bind_ephemeral;
use drum_net::{BatchRx, BatchTx};
use drum_testkit::prop::{check, Config, Gen};
use drum_testkit::prop_assert_eq;

const SLOT_LEN: usize = codec::MAX_WIRE_LEN + 1;

fn pull_request(nonce: u64) -> Vec<u8> {
    codec::encode(&GossipMessage::PullRequest {
        from: ProcessId(nonce),
        digest: Digest::new(),
        reply_port: PortRef::Plain(1),
        nonce,
    })
    .to_vec()
}

fn push_offer(nonce: u64) -> Vec<u8> {
    codec::encode(&GossipMessage::PushOffer {
        from: ProcessId(nonce),
        reply_port: PortRef::None,
        nonce,
    })
    .to_vec()
}

/// The round loop's per-datagram decision on a pull channel: accept the
/// first `budget` well-formed pull-requests, classify everything else.
/// Mirrors `drain_staging` in `drum_net::runtime`.
#[derive(Debug, PartialEq, Eq)]
enum Decision {
    Accepted(u64),
    DroppedByBudget,
    WrongPurpose,
    DecodeError,
}

fn classify(datagrams: &[Vec<u8>], budget: usize) -> Vec<Decision> {
    let mut accepted = 0usize;
    datagrams
        .iter()
        .map(|bytes| match codec::decode(bytes) {
            Ok(msg) if msg.kind() == MessageKind::PullRequest => {
                if accepted < budget {
                    accepted += 1;
                    match msg {
                        GossipMessage::PullRequest { nonce, .. } => Decision::Accepted(nonce),
                        _ => unreachable!(),
                    }
                } else {
                    Decision::DroppedByBudget
                }
            }
            Ok(_) => Decision::WrongPurpose,
            Err(_) => Decision::DecodeError,
        })
        .collect()
}

/// Sends `datagrams` to `receiver` (retrying transient failures) and
/// drains them back through `rx`, waiting until all `datagrams.len()`
/// arrived or a timeout passes.
fn round_trip(rx: &mut BatchRx, receiver: &UdpSocket, datagrams: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let sender = bind_ephemeral().expect("bind sender");
    let dest = receiver.local_addr().expect("receiver addr");
    for d in datagrams {
        // Loopback can momentarily refuse (ENOBUFS) under bursts; retry.
        while sender.send_to(d, dest).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let mut got: Vec<Vec<u8>> = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while got.len() < datagrams.len() && std::time::Instant::now() < deadline {
        rx.drain_socket(receiver, &mut [], |bytes| got.push(bytes.to_vec()));
        if got.len() < datagrams.len() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    got
}

/// A hostile mix: valid pull-requests beyond the budget, wrong-purpose
/// messages, garbage, truncated and empty datagrams.
fn hostile_sequence() -> Vec<Vec<u8>> {
    let mut seq: Vec<Vec<u8>> = Vec::new();
    for nonce in 0..10 {
        seq.push(pull_request(nonce));
    }
    seq.push(push_offer(99)); // wrong purpose for a pull channel
    seq.push(vec![0xFF; 40]); // garbage
    let mut truncated = pull_request(77);
    truncated.truncate(truncated.len() / 2);
    seq.push(truncated);
    seq.push(Vec::new()); // empty datagram
    seq.push(pull_request(11)); // valid again after the junk
    seq
}

#[test]
fn a_hostile_sequence_drains_as_sent_and_meets_the_budget() {
    let sent = hostile_sequence();
    let receiver = bind_ephemeral().unwrap();
    let mut rx = BatchRx::new(SLOT_LEN);

    let got = round_trip(&mut rx, &receiver, &sent);
    // Same bytes, same order: the decision stream is the sequence's own.
    assert_eq!(got, sent);
    // Every datagram moved through `recvmmsg`, none was counted twice.
    assert_eq!(rx.batched_datagrams(), sent.len() as u64);
    assert!(rx.syscalls() > 0);
    // The budget decisions the round loop computes on this fixed sequence:
    // 5 accepts, 6 budget drops, 1 wrong purpose, 3 decode failures.
    let decisions = classify(&got, 5);
    let count = |want: fn(&Decision) -> bool| decisions.iter().filter(|d| want(d)).count();
    assert_eq!(
        (
            count(|d| matches!(d, Decision::Accepted(_))),
            count(|d| matches!(d, Decision::DroppedByBudget)),
            count(|d| matches!(d, Decision::WrongPurpose)),
            count(|d| matches!(d, Decision::DecodeError)),
        ),
        (5, 6, 1, 3)
    );
    assert_eq!(
        decisions[..5],
        [0, 1, 2, 3, 4].map(Decision::Accepted),
        "the first five pull-requests, in send order"
    );
}

#[test]
fn a_64_way_fan_out_is_one_sendmmsg_reaching_each_recipient_once() {
    // A full 64-slot send batch.
    let receivers: Vec<UdpSocket> = (0..64).map(|_| bind_ephemeral().unwrap()).collect();
    let wire = pull_request(42);
    let sender = bind_ephemeral().unwrap();
    let mut tx = BatchTx::new();
    for r in &receivers {
        tx.push(&sender, r.local_addr().unwrap(), &wire, false);
    }
    assert_eq!(tx.finish(&sender), 64);
    assert_eq!(tx.syscalls(), 1, "one sendmmsg for the whole fan-out");

    let mut buf = [0u8; 2048];
    for r in &receivers {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match r.recv_from(&mut buf) {
                Ok((len, _)) => {
                    assert_eq!(&buf[..len], &wire[..]);
                    break;
                }
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Err(e) => panic!("datagram never arrived: {e}"),
            }
        }
        // Exactly once: no duplicate delivery from range sharing.
        assert!(r.recv_from(&mut buf).is_err());
    }
}

#[test]
fn random_batches_drain_as_sent() {
    // One socket reused across cases — binding per case would exhaust
    // ports under the shrinker.
    let receiver = bind_ephemeral().unwrap();

    check(
        "random_batches_drain_as_sent",
        Config::with_cases(24),
        |g: &mut Gen| {
            let sent: Vec<Vec<u8>> = g.vec_with(1..20, |g| match g.u64_in(0..4) {
                0 => pull_request(g.u64_in(0..1000)),
                1 => push_offer(g.u64_in(0..1000)),
                2 => g.bytes(0..200),
                _ => {
                    let mut d = pull_request(g.u64_in(0..1000));
                    d.truncate(g.index(d.len() + 1));
                    d
                }
            });
            let mut rx = BatchRx::new(SLOT_LEN);
            let got = round_trip(&mut rx, &receiver, &sent);
            prop_assert_eq!(&got, &sent);
            prop_assert_eq!(rx.batched_datagrams(), sent.len() as u64);
            Ok(())
        },
    );
}
