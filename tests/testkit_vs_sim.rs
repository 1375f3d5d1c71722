//! The abstract simulator (`drum-sim`, no push-offers, acceptance
//! probabilities) versus the real node on the virtual-time driver
//! (`drum_net::vtime`: the runtime's own protocol half — codec, staged
//! reservoirs, per-port kind checks, full three-way push handshake, sealed
//! ports, real buffers — over an in-memory network). The paper's analysis
//! deliberately models push *without* offers; these tests confirm the
//! conclusions carry over to the real protocol.

use drum::core::config::{GossipConfig, ProtocolVariant};
use drum::net::{NetConfig, VirtualCluster};
use drum::sim::config::SimConfig;
use drum::sim::runner::run_experiment;
use drum_core::bytes::Bytes;

const TRIALS: u64 = 8;

/// Mean rounds for the real engine to reach `fraction` of the group.
fn real_rounds(gossip: GossipConfig, n: usize, attacked: usize, x: f64) -> f64 {
    let mut total = 0u32;
    for seed in 0..TRIALS {
        let config = NetConfig::new(gossip.clone()).with_loss(0.01);
        let mut net = VirtualCluster::new(n, config, seed).with_attack((0..attacked).collect(), x);
        let id = net.publish(0, Bytes::from_static(b"m"));
        total += net.run_until_spread(id, 0.99, 500).unwrap_or(500);
    }
    total as f64 / TRIALS as f64
}

fn sim_rounds(proto: ProtocolVariant, n: usize, attacked: usize, x: f64) -> f64 {
    let mut cfg = if x > 0.0 {
        let mut c = SimConfig::paper_attack(proto, n, x);
        c.malicious = 0; // the virtual cluster has no malicious members
        if let Some(a) = c.attack.as_mut() {
            a.attacked = attacked;
        }
        c
    } else {
        SimConfig::baseline(proto, n)
    };
    cfg.max_rounds = 1000;
    run_experiment(&cfg, 100, 77, 0).mean_rounds()
}

#[test]
fn no_attack_real_engine_matches_simulator() {
    for (gossip, proto) in [
        (GossipConfig::drum(), ProtocolVariant::Drum),
        (GossipConfig::push(), ProtocolVariant::Push),
        (GossipConfig::pull(), ProtocolVariant::Pull),
    ] {
        let real = real_rounds(gossip, 60, 0, 0.0);
        let sim = sim_rounds(proto, 60, 0, 0.0);
        assert!(
            (real - sim).abs() <= 3.0,
            "{proto}: real engine {real:.1} vs simulator {sim:.1}"
        );
    }
}

#[test]
fn drum_flat_under_attack_with_real_handshake() {
    let weak = real_rounds(GossipConfig::drum(), 40, 4, 32.0);
    let strong = real_rounds(GossipConfig::drum(), 40, 4, 512.0);
    assert!(
        strong < weak + 3.0,
        "real Drum should be flat in x: {weak:.1} -> {strong:.1}"
    );
}

#[test]
fn push_degrades_under_attack_with_real_handshake() {
    // With offers, an attacked target cannot even *answer* the offer, so
    // the push chain breaks exactly as the offer-less model predicts.
    let weak = real_rounds(GossipConfig::push(), 40, 4, 32.0);
    let strong = real_rounds(GossipConfig::push(), 40, 4, 256.0);
    assert!(
        strong > weak * 1.5,
        "real Push should degrade: {weak:.1} -> {strong:.1}"
    );
}

#[test]
fn pull_source_attack_stalls_with_real_handshake() {
    let weak = real_rounds(GossipConfig::pull(), 40, 1, 32.0);
    let strong = real_rounds(GossipConfig::pull(), 40, 1, 256.0);
    assert!(
        strong > weak * 1.5,
        "real Pull should stall at the source: {weak:.1} -> {strong:.1}"
    );
}

#[test]
fn real_drum_beats_real_push_and_pull_under_attack() {
    let drum = real_rounds(GossipConfig::drum(), 40, 4, 256.0);
    let push = real_rounds(GossipConfig::push(), 40, 4, 256.0);
    let pull = real_rounds(GossipConfig::pull(), 40, 4, 256.0);
    assert!(drum * 1.5 < push, "drum {drum:.1} vs push {push:.1}");
    assert!(drum * 1.5 < pull, "drum {drum:.1} vs pull {pull:.1}");
}
