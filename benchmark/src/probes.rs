//! Layer probes: timed calls of public functions of each layer, on inputs
//! shaped like a workload's traffic (`k` data messages per exchange, a
//! buffer and digest of the steady-state size, 50-byte payloads). Run
//! after the workload in the traced run; they give the unit costs behind
//! the ledger's estimated sub-rows.

use std::hint::black_box;
use std::time::{Duration, Instant};

use drum_core::buffer::MessageBuffer;
use drum_core::bytes::BytesMut;
use drum_core::config::GossipConfig;
use drum_core::digest::Digest;
use drum_core::engine::{CountingPortOracle, Engine};
use drum_core::ids::{MessageId, ProcessId, Round};
use drum_core::message::{DataMessage, GossipMessage, PortRef};
use drum_core::view::Membership;
use drum_crypto::auth;
use drum_crypto::keys::KeyStore;
use drum_crypto::{seal, BatchVerifier, VerifyRequest};
use drum_net::attack::fabricated_pull_request;
use drum_net::transport::bind_ephemeral;
use drum_net::{codec, AddressBook, BatchRx, BatchTx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::check::payload_for;
use crate::median;
use crate::spec::Workload;

/// Stop probing a function after this many calls...
const CALLS: u64 = 100_000;
/// ...or this long, whichever comes first (the run has a time budget).
const TIME_CAP: Duration = Duration::from_millis(120);

#[derive(Debug, Clone)]
pub struct Probe {
    pub name: &'static str,
    /// Median and p99 over batches of the mean ns per operation.
    pub median_ns: f64,
    pub p99_ns: f64,
    pub calls: u64,
}

/// Times `run` over fresh `setup` states until [`CALLS`] or [`TIME_CAP`].
/// Both see the probe's context `ctx`; only `run` is timed, and it returns
/// how many operations it performed.
fn probe_with<C, S>(
    name: &'static str,
    ctx: &mut C,
    mut setup: impl FnMut(&mut C) -> S,
    mut run: impl FnMut(&mut C, S) -> u64,
) -> Probe {
    let started = Instant::now();
    let mut per_op = Vec::new();
    let mut calls = 0;
    while calls < CALLS && (started.elapsed() < TIME_CAP || per_op.len() < 20) {
        let state = setup(ctx);
        let t = Instant::now();
        let ops = run(ctx, state);
        let ns = t.elapsed().as_nanos() as f64;
        per_op.push(ns / ops as f64);
        calls += ops;
    }
    let p99_ns = drum_metrics::stats::quantile_in_place(&mut per_op, 0.99);
    Probe {
        name,
        median_ns: median(per_op),
        p99_ns,
        calls,
    }
}

/// A probe whose input does not change between batches.
fn probe(name: &'static str, mut run: impl FnMut() -> u64) -> Probe {
    probe_with(name, &mut (), |_| (), |_, _| run())
}

/// Runs `f` `reps` times over the same input.
fn repeat(reps: u64, mut f: impl FnMut()) -> u64 {
    for _ in 0..reps {
        f();
    }
    reps
}

struct Shape {
    seed: u64,
    /// Data messages per exchange.
    k: usize,
    /// Messages in a steady-state buffer (10 rounds' worth).
    buffered: usize,
    members: Vec<ProcessId>,
}

impl Shape {
    fn data(&self, store_key: &drum_crypto::HmacKey, seq: u64) -> DataMessage {
        let mut m = DataMessage::sign_new_with(
            store_key,
            MessageId::new(ProcessId(0), seq),
            payload_for(self.seed, seq),
        );
        m.hops = 1;
        m
    }
}

pub fn run_all(w: &Workload, seed: u64) -> Vec<Probe> {
    let shape = Shape {
        seed,
        k: w.msgs_per_round,
        buffered: w.msgs_per_round * GossipConfig::drum().buffer_rounds as usize,
        members: (0..w.n as u64).map(ProcessId).collect(),
    };
    let mut out = Vec::new();
    let store = KeyStore::new(seed);
    let keys: Vec<_> = (0..w.correct() as u64).map(|m| store.register(m)).collect();
    let source_key = keys[0].hmac_key();
    let exchange: Vec<DataMessage> = (0..shape.k as u64)
        .map(|s| shape.data(&source_key, s))
        .collect();
    let push_data = GossipMessage::PushData {
        from: ProcessId(1),
        messages: exchange.clone(),
    };
    let steady_digest: Digest = (0..shape.buffered as u64)
        .map(|s| MessageId::new(ProcessId(0), s))
        .collect();
    let pull_request = GossipMessage::PullRequest {
        from: ProcessId(1),
        digest: steady_digest.clone(),
        reply_port: PortRef::Sealed(seal::seal_port(&keys[1], 77, 50_123).expect("seal")),
        nonce: 77,
    };
    let mut frame_wire = BytesMut::with_capacity(4096);
    let mut framer = codec::FrameBuilder::new();
    framer.push(&push_data);
    framer.finish_into(
        ProcessId(1),
        9,
        |body| auth::sign_frame_with(&keys[1].hmac_key(), 1, 9, body),
        &mut frame_wire,
    );
    let frame: Vec<u8> = frame_wire[..].to_vec();

    transport(&mut out, &frame);
    codec_layer(&mut out, &shape, &push_data, &pull_request, &frame);
    crypto(&mut out, &shape, &store, &keys, &frame);
    core_layer(&mut out, &shape, &store, &keys);
    out
}

fn transport(out: &mut Vec<Probe>, frame: &[u8]) {
    let tx_socket = bind_ephemeral().expect("bind");
    let sink = bind_ephemeral().expect("bind");
    let sink_addr = AddressBook::loopback(sink.local_addr().expect("addr").port());
    let mut tx = BatchTx::new();
    // The sink is never read: once its queue is full the kernel drops, as
    // it does for a flooded well-known port.
    out.push(probe("transport.send_ns_per_dgram", || {
        for _ in 0..64 {
            tx.push(&tx_socket, sink_addr, frame, false);
        }
        tx.finish(&tx_socket);
        64
    }));

    let rx_socket = bind_ephemeral().expect("bind");
    let rx_addr = AddressBook::loopback(rx_socket.local_addr().expect("addr").port());
    let mut rx = BatchRx::new(codec::MAX_WIRE_LEN + 1);
    let mut scratch = vec![0u8; codec::MAX_WIRE_LEN + 1];
    // Fewer than one recvmmsg batch, and few enough to fit the default
    // receive queue at the largest frame size.
    const PRELOAD: u64 = 32;
    out.push(probe_with(
        "transport.recv_ns_per_dgram",
        &mut (tx, &mut rx),
        |(tx, _)| {
            for _ in 0..PRELOAD {
                tx.push(&tx_socket, rx_addr, frame, false);
            }
            tx.finish(&tx_socket);
        },
        |(_, rx), ()| {
            rx.drain_socket(&rx_socket, &mut scratch, |b| {
                black_box(b);
            }) as u64
        },
    ));
    out.push(probe("transport.recv_empty_ns", || {
        repeat(64, || {
            rx.drain_socket(&rx_socket, &mut scratch, |b| {
                black_box(b);
            });
        })
    }));
}

fn codec_layer(
    out: &mut Vec<Probe>,
    shape: &Shape,
    push_data: &GossipMessage,
    pull_request: &GossipMessage,
    frame: &[u8],
) {
    let k = shape.k as u64;
    let mut wire = BytesMut::with_capacity(codec::MAX_WIRE_LEN);
    out.push(probe("codec.encode_ns_per_data_msg", || {
        k * repeat(16, || codec::encode_into(black_box(push_data), &mut wire))
    }));
    let data_bytes = codec::encode(push_data);
    out.push(probe("codec.decode_ns_per_data_msg", || {
        k * repeat(16, || {
            black_box(codec::decode(black_box(&data_bytes)).expect("valid"));
        })
    }));
    out.push(probe("codec.encode_ctrl_ns", || {
        repeat(64, || {
            codec::encode_into(black_box(pull_request), &mut wire)
        })
    }));
    let ctrl_bytes = codec::encode(pull_request);
    out.push(probe("codec.decode_ctrl_ns", || {
        repeat(64, || {
            black_box(codec::decode(black_box(&ctrl_bytes)).expect("valid"));
        })
    }));
    // Hostile bytes: random datagrams, and valid ones with one byte changed.
    let mut rng = SmallRng::seed_from_u64(shape.seed ^ 0xBAD);
    let hostile: Vec<Vec<u8>> = (0..64)
        .map(|i| {
            let mut bytes = ctrl_bytes.to_vec();
            if i % 2 == 0 {
                rng.fill_bytes(&mut bytes);
            } else {
                let at = rng.random_range(0..bytes.len());
                bytes[at] ^= 1 << rng.random_range(0..8u32);
            }
            bytes
        })
        .collect();
    out.push(probe("codec.decode_reject_ns", || {
        for bytes in &hostile {
            let _ = black_box(codec::decode(black_box(bytes)));
        }
        hostile.len() as u64
    }));
    let mut framer = codec::FrameBuilder::new();
    out.push(probe("codec.frame_build_ns", || {
        repeat(16, || {
            framer.push(black_box(push_data));
            framer.finish_unsigned_into(ProcessId(1), 9, &mut wire);
        })
    }));
    out.push(probe("codec.frame_decode_ns", || {
        repeat(16, || {
            black_box(codec::decode_frame(black_box(frame)).expect("valid"));
        })
    }));
}

fn crypto(
    out: &mut Vec<Probe>,
    shape: &Shape,
    store: &KeyStore,
    keys: &[drum_crypto::SecretKey],
    frame: &[u8],
) {
    let key = keys[0].hmac_key();
    let signed: Vec<DataMessage> = (0..64).map(|s| shape.data(&key, s)).collect();
    out.push(probe("crypto.sign_ns_per_msg", || {
        for m in &signed {
            black_box(auth::sign_with(&key, 0, m.id.seq, black_box(&m.payload)));
        }
        signed.len() as u64
    }));
    out.push(probe("crypto.verify_ns_per_msg", || {
        for m in &signed {
            auth::verify_with(&key, 0, m.id.seq, black_box(&m.payload), &m.auth)
                .expect("signed above");
        }
        signed.len() as u64
    }));
    let reqs: Vec<VerifyRequest<'_>> = signed
        .iter()
        .map(|m| VerifyRequest {
            frame: false,
            source: 0,
            seq: m.id.seq,
            payload: &m.payload,
            tag: m.auth,
        })
        .collect();
    // Besides its own row, this gives the cost of one SHA-256 block: the
    // verifier's time over the blocks it reports hashing — the unit
    // `NetStats::lanes_filled` counts in.
    let mut verdicts = Vec::new();
    let (mut blocks, mut block_ns) = (0u64, 0f64);
    out.push(probe_with(
        "crypto.verify_many_ns_per_msg",
        &mut BatchVerifier::new(),
        |verifier| verifier.begin_round(),
        |verifier, ()| {
            let t = Instant::now();
            verifier.verify_many(store, black_box(&reqs), &mut verdicts);
            block_ns += t.elapsed().as_nanos() as f64;
            blocks += verifier.take_counters().lanes_filled;
            reqs.len() as u64
        },
    ));
    let per_block = block_ns / blocks.max(1) as f64;
    out.push(Probe {
        name: "crypto.mac_ns_per_block",
        median_ns: per_block,
        p99_ns: per_block,
        calls: blocks,
    });
    let body = codec::frame_signed_body(frame).expect("a frame");
    let sender_key = keys[1].hmac_key();
    out.push(probe("crypto.frame_sign_ns", || {
        repeat(16, || {
            black_box(auth::sign_frame_with(&sender_key, 1, 9, black_box(body)));
        })
    }));
    out.push(probe("crypto.seal_port_ns", || {
        repeat(64, || {
            black_box(seal::seal_port(&keys[1], black_box(77), 50_123).expect("seal"));
        })
    }));
    let sealed = seal::seal_port(&keys[1], 77, 50_123).expect("seal");
    out.push(probe("crypto.open_port_ns", || {
        repeat(64, || {
            black_box(seal::open_port(&keys[1], black_box(&sealed)).expect("open"));
        })
    }));
}

/// An engine and what feeds it, shared by a probe's setup and run.
struct Rig {
    engine: Engine,
    oracle: CountingPortOracle,
    replies: Vec<drum_core::engine::Outbound>,
    next_seq: u64,
}

fn core_layer(
    out: &mut Vec<Probe>,
    shape: &Shape,
    store: &KeyStore,
    keys: &[drum_crypto::SecretKey],
) {
    let k = shape.k as u64;
    let rig = |me: u64| Rig {
        engine: Engine::new(
            GossipConfig::drum(),
            Membership::new(ProcessId(me), shape.members.clone()),
            store.clone(),
            keys[me as usize].clone(),
            shape.seed ^ me,
        ),
        oracle: CountingPortOracle::default(),
        replies: Vec::new(),
        next_seq: 0,
    };
    let source_key = keys[0].hmac_key();
    // The next exchange of k messages nobody has seen yet.
    let fresh = |next_seq: &mut u64| {
        let messages = (*next_seq..*next_seq + k)
            .map(|s| shape.data(&source_key, s))
            .collect();
        *next_seq += k;
        GossipMessage::PushData {
            from: ProcessId(2),
            messages,
        }
    };
    // Rounds before timing starts, so buffers reach their steady state.
    const SETTLE: usize = 12;

    // A source publishing k messages a round, ten rounds buffered.
    let publish_round = |r: &mut Rig| {
        for _ in 0..k {
            r.engine.publish(payload_for(shape.seed, r.next_seq));
            r.next_seq += 1;
        }
    };
    let mut source = rig(0);
    for _ in 0..SETTLE {
        publish_round(&mut source);
        source.engine.begin_round(&mut source.oracle);
    }
    out.push(probe_with(
        "core.engine.begin_round_ns",
        &mut source,
        publish_round,
        |r, ()| {
            black_box(r.engine.begin_round(&mut r.oracle));
            1
        },
    ));

    // A receiver taking one exchange of k fresh messages a round, already
    // vouched for by their frame's tag, as on the packed path.
    let new_round = |r: &mut Rig| {
        r.engine.begin_round(&mut r.oracle);
        r.replies.clear();
        fresh(&mut r.next_seq)
    };
    let handle = |r: &mut Rig, msg: GossipMessage| {
        r.engine
            .handle_into_preverified(msg, &mut r.oracle, &mut r.replies);
        black_box(r.engine.take_delivered());
        k
    };
    let mut receiver = rig(1);
    for _ in 0..SETTLE {
        let msg = new_round(&mut receiver);
        handle(&mut receiver, msg);
    }
    out.push(probe_with(
        "core.engine.handle_data_ns_per_msg",
        &mut receiver,
        new_round,
        handle,
    ));
    // The same receiver offered an exchange it already holds.
    let held = fresh(&mut receiver.next_seq);
    handle(&mut receiver, held.clone());
    out.push(probe_with(
        "core.engine.handle_dup_ns_per_msg",
        &mut receiver,
        |r| {
            r.engine.begin_round(&mut r.oracle);
            held.clone()
        },
        handle,
    ));

    // A flooded node: F/2 = 2 pull-requests spend the round's budget, the
    // 64 that follow are refused — those are timed.
    out.push(probe_with(
        "core.engine.handle_flood_ns",
        &mut rig(2),
        |r| {
            r.engine.begin_round(&mut r.oracle);
            let mut msgs: Vec<GossipMessage> = (0..66)
                .map(|_| {
                    r.next_seq += 1;
                    fabricated_pull_request(r.next_seq)
                })
                .collect();
            for msg in msgs.drain(..2) {
                r.engine.handle_into(msg, &mut r.oracle, &mut r.replies);
            }
            r.replies.clear();
            msgs
        },
        |r, msgs| {
            let n = msgs.len() as u64;
            for msg in msgs {
                r.engine.handle_into(msg, &mut r.oracle, &mut r.replies);
            }
            n
        },
    ));

    // The message buffer alone, in the same steady state: a round inserts k
    // messages and purges the k that turned ten rounds old.
    let buffer = || {
        let mut buffer = MessageBuffer::new(GossipConfig::drum().buffer_rounds);
        let mut next_seq = 0;
        for round in 1..=SETTLE as u64 {
            let GossipMessage::PushData { messages, .. } = fresh(&mut next_seq) else {
                unreachable!()
            };
            for m in messages {
                buffer.insert(m, Round(round));
            }
            buffer.purge(Round(round));
        }
        (buffer, SETTLE as u64, next_seq)
    };
    let next_round = |(_, round, next_seq): &mut (MessageBuffer, u64, u64)| {
        *round += 1;
        let GossipMessage::PushData { messages, .. } = fresh(next_seq) else {
            unreachable!()
        };
        messages
    };
    out.push(probe_with(
        "core.buffer.insert_ns",
        &mut buffer(),
        |state| {
            let messages = next_round(state);
            state.0.purge(Round(state.1));
            messages
        },
        |(buffer, round, _), messages| {
            for m in messages {
                buffer.insert(m, Round(*round));
            }
            k
        },
    ));
    out.push(probe_with(
        "core.buffer.purge_ns_per_round",
        &mut buffer(),
        |state| {
            for m in next_round(state) {
                state.0.insert(m, Round(state.1));
            }
        },
        |(buffer, round, _), ()| {
            black_box(buffer.purge(Round(*round)));
            1
        },
    ));
    let (buffer, _, next_seq) = buffer();
    out.push(probe("core.buffer.digest_ns", || {
        repeat(16, || {
            black_box(buffer.digest());
        })
    }));
    // A partner that lacks the newest round's k messages.
    let mut theirs = buffer.digest();
    for s in next_seq - k..next_seq {
        theirs.remove(MessageId::new(ProcessId(0), s));
    }
    let mut rng = SmallRng::seed_from_u64(shape.seed);
    let mut picked = Vec::new();
    let max = GossipConfig::drum().max_msgs_per_exchange;
    out.push(probe("core.buffer.select_missing_ns", || {
        repeat(16, || {
            buffer.select_missing_into(black_box(&theirs), max, &mut rng, &mut picked);
        })
    }));
}
