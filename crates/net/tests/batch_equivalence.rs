//! Batched vs. per-datagram I/O equivalence.
//!
//! The `recvmmsg`/`sendmmsg` fast path in `drum_net::sys` must be
//! invisible to the protocol: both receive modes must surface the same
//! datagrams in the same order (so the round loop makes identical
//! accept/drop/budget decisions), and both send modes must deliver the
//! same fan-out. These tests run the two modes side by side over real
//! loopback sockets, including the hostile inputs the codec hardens
//! against — garbage, truncation, wrong-purpose messages.

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
/// Mirrors `drain_attackable` in `drum_net::runtime`.
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

/// Sends `datagrams` to `dest` (blocking on transient failure) and drains
/// them back through `rx`, waiting until all `datagrams.len()` arrived or
/// a timeout passes.
fn round_trip(rx: &mut BatchRx, receiver: &UdpSocket, datagrams: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let sender = bind_ephemeral().expect("bind sender");
    let dest = receiver.local_addr().expect("receiver addr");
    for d in datagrams {
        // Loopback can momentarily refuse (ENOBUFS) under bursts; retry.
        while sender.send_to(d, dest).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let mut scratch = vec![0u8; SLOT_LEN];
    let mut got: Vec<Vec<u8>> = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while got.len() < datagrams.len() && std::time::Instant::now() < deadline {
        rx.drain_socket(receiver, &mut scratch, |bytes| got.push(bytes.to_vec()));
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
fn batched_and_fallback_make_identical_decisions() {
    let datagrams = hostile_sequence();
    let budget = 5;

    let recv_batched = bind_ephemeral().unwrap();
    let recv_fallback = bind_ephemeral().unwrap();
    let mut rx_batched = BatchRx::forced(SLOT_LEN, true);
    let mut rx_fallback = BatchRx::forced(SLOT_LEN, false);
    assert!(!rx_fallback.batched());

    let got_batched = round_trip(&mut rx_batched, &recv_batched, &datagrams);
    let got_fallback = round_trip(&mut rx_fallback, &recv_fallback, &datagrams);

    // Same bytes, same order: the decision stream is forced equal.
    assert_eq!(got_batched, got_fallback);
    assert_eq!(got_batched, datagrams, "loopback must preserve order");
    assert_eq!(
        classify(&got_batched, budget),
        classify(&got_fallback, budget)
    );
    // Sanity: the budget decisions in this fixed sequence are what the
    // round loop would compute — 5 accepts, 6 budget drops, 1 wrong
    // purpose, 3 decode failures.
    let decisions = classify(&got_batched, budget);
    let accepts = decisions
        .iter()
        .filter(|d| matches!(d, Decision::Accepted(_)))
        .count();
    let drops = decisions
        .iter()
        .filter(|d| matches!(d, Decision::DroppedByBudget))
        .count();
    assert_eq!((accepts, drops), (5, 6));

    if rx_batched.batched() {
        // The batched drain really went through recvmmsg, and it moved
        // every datagram (no silent per-datagram degradation).
        assert!(rx_batched.syscalls() > 0);
        assert_eq!(rx_batched.batched_datagrams(), datagrams.len() as u64);
        assert_eq!(rx_fallback.batched_datagrams(), 0);
    }
}

#[test]
fn batched_and_fallback_send_identical_fanout() {
    // A full 64-slot send batch.
    let receivers: Vec<UdpSocket> = (0..64).map(|_| bind_ephemeral().unwrap()).collect();
    let wire = pull_request(42);

    for batched in [true, false] {
        let sender = bind_ephemeral().unwrap();
        let mut tx = BatchTx::forced(batched);
        // Batching is never silently off where the target supports it.
        assert_eq!(tx.batched(), batched && drum_net::sys::available());
        for (i, r) in receivers.iter().enumerate() {
            // The encode-once fan-out hint: every push after the first
            // repeats the same bytes.
            tx.push(&sender, r.local_addr().unwrap(), &wire, i > 0);
        }
        let sent = tx.finish(&sender);
        assert_eq!(sent, receivers.len() as u64, "batched={batched}");
        // One `sendmmsg` for the whole fan-out, against one `send_to` per
        // recipient.
        let syscalls = if tx.batched() { 1 } else { sent };
        assert_eq!(tx.syscalls(), syscalls, "batched={batched}");

        let mut buf = [0u8; 2048];
        for r in &receivers {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                match r.recv_from(&mut buf) {
                    Ok((len, _)) => {
                        assert_eq!(&buf[..len], &wire[..], "batched={batched}");
                        break;
                    }
                    Err(_) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(1))
                    }
                    Err(e) => panic!("datagram never arrived (batched={batched}): {e}"),
                }
            }
            // Exactly once: no duplicate delivery from range sharing.
            assert!(r.recv_from(&mut buf).is_err(), "batched={batched}");
        }
    }
}

#[test]
fn random_batches_surface_identically_in_both_modes() {
    // One socket pair reused across cases — binding per case would
    // exhaust ports under the shrinker.
    let recv_batched = bind_ephemeral().unwrap();
    let recv_fallback = bind_ephemeral().unwrap();

    check(
        "random_batches_surface_identically_in_both_modes",
        Config::with_cases(24),
        |g: &mut Gen| {
            let datagrams: Vec<Vec<u8>> = g.vec_with(1..20, |g| match g.u64_in(0..4) {
                0 => pull_request(g.u64_in(0..1000)),
                1 => push_offer(g.u64_in(0..1000)),
                2 => g.bytes(0..200),
                _ => {
                    let mut d = pull_request(g.u64_in(0..1000));
                    d.truncate(g.index(d.len() + 1));
                    d
                }
            });
            let budget = g.u64_in(0..8) as usize;

            let mut rx_batched = BatchRx::forced(SLOT_LEN, true);
            let mut rx_fallback = BatchRx::forced(SLOT_LEN, false);
            let got_b = round_trip(&mut rx_batched, &recv_batched, &datagrams);
            let got_f = round_trip(&mut rx_fallback, &recv_fallback, &datagrams);
            prop_assert_eq!(&got_b, &got_f);
            prop_assert_eq!(classify(&got_b, budget), classify(&got_f, budget));
            Ok(())
        },
    );
}
