//! The random-port pools keep their descriptors: after warm-up a running
//! shard opens and closes none on their behalf.
//!
//! One test, alone in its binary, because it counts the *process's* open
//! descriptors (`/proc/self/fd`) — any neighbour test binding a socket
//! would show up in the count.

use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use drum_core::bytes::Bytes;
use drum_core::config::GossipConfig;
use drum_core::ids::ProcessId;
use drum_crypto::keys::KeyStore;
use drum_net::runtime::seed_of;
use drum_net::transport::{AddressBook, WellKnownSockets};
use drum_net::{NetConfig, ProcessSpec, ShardCore};

const ENGINES: u64 = 6;
const ROUND: Duration = Duration::from_millis(40);

fn open_descriptors() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

#[test]
fn a_running_shard_opens_and_closes_no_descriptors_after_warm_up() {
    if open_descriptors().is_none() {
        return; // no procfs on this target
    }
    let key_store = KeyStore::new(41);
    let members: Vec<ProcessId> = (0..ENGINES).map(ProcessId).collect();
    let bound: Vec<_> = members
        .iter()
        .map(|&m| (m, WellKnownSockets::bind().unwrap()))
        .collect();
    let book = AddressBook::new(bound.iter().map(|(m, (_, addrs))| (*m, *addrs)));
    let mut publishers = Vec::new();
    let mut receivers = Vec::new();
    let lanes = bound
        .into_iter()
        .map(|(m, (sockets, _))| {
            let (publish_tx, publish_rx) = channel::<Bytes>();
            let (delivered_tx, delivered_rx) = channel();
            publishers.push(publish_tx);
            receivers.push(delivered_rx);
            let spec = ProcessSpec {
                me: m,
                members: members.clone(),
                book: book.clone(),
                key_store: key_store.clone(),
                my_key: key_store.register(m.as_u64()),
                sockets,
                ablation: None,
                config: NetConfig::new(GossipConfig::drum()).with_round(ROUND),
                seed: seed_of(m),
            };
            (spec, publish_rx, delivered_tx)
        })
        .collect();
    let mut shard = ShardCore::new(lanes).unwrap();

    // A synthetic clock: half a round per step, so every engine's jittered
    // deadline fires on time, and an I/O pass that never blocks (its
    // deadline is always long past) repeated until the exchanges a round
    // start sets off have played out.
    let mut now = Instant::now();
    let far = now + Duration::from_secs(3_600);
    shard.start_all(now);
    let mut step = |shard: &mut ShardCore| {
        now += ROUND / 2;
        shard.fire_due(now);
        for _ in 0..8 {
            shard.poll_io(far);
        }
    };
    let rounds = |shard: &ShardCore| shard.node(0).stats().rounds;
    let opened = |shard: &ShardCore| -> u64 {
        (0..shard.len())
            .map(|i| shard.node(i).stats().sockets_opened)
            .sum()
    };

    // Warm-up: the pools grow to their high-water of live sockets. Ports
    // live 3 rounds; a few dozen more let the busiest 3-round window a
    // 6-engine group produces come by.
    publishers[0].send(Bytes::from_static(b"traffic")).unwrap();
    while rounds(&shard) < 60 {
        step(&mut shard);
    }
    let (fds_warm, opened_warm, rounds_warm) =
        (open_descriptors().unwrap(), opened(&shard), rounds(&shard));
    assert!(opened_warm >= ENGINES * 3 * 4, "pools grew: {opened_warm}");

    let mut fds = fds_warm;
    while rounds(&shard) < rounds_warm + 200 {
        step(&mut shard);
        let after = open_descriptors().unwrap();
        assert!(
            after >= fds,
            "a descriptor was closed: {fds} -> {after} open at round {}",
            rounds(&shard)
        );
        fds = after;
    }
    // 200 rounds × 6 engines × ~5.5 ports: a socket per port would have
    // opened ~6 600. What may still open is a pool meeting a busier window
    // than any in its warm-up, a descriptor at a time.
    let grew = opened(&shard) - opened_warm;
    assert!(grew <= ENGINES, "{grew} sockets opened after warm-up");
    assert!(
        fds - fds_warm <= ENGINES as usize,
        "{fds_warm} -> {fds} descriptors"
    );
    drop(receivers);
}
