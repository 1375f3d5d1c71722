//! §9: the other two DoS-mitigation measures, ablated.
//!
//! * **random ports** (Figure 12(a)) — disabling them lets the adversary
//!   split its pull budget across the request *and* reply ports, and
//!   Drum's propagation time becomes linear in the attack rate;
//! * **separate resource bounds** (Figure 12(b)) — sharing one bound
//!   across control channels lets a pull-port flood starve push-offers
//!   and push-replies.

use drum::core::bounds::{Channel, RoundBudget};
use drum::core::config::{BoundMode, GossipConfig, ProtocolVariant};
use drum::core::digest::Digest;
use drum::core::engine::{CountingPortOracle, Engine};
use drum::core::ids::ProcessId;
use drum::core::message::{GossipMessage, PortRef};
use drum::core::view::Membership;
use drum::crypto::keys::KeyStore;
use drum::crypto::seal::seal_port;
use drum::sim::config::SimConfig;
use drum::sim::runner::run_experiment;

const TRIALS: usize = 60;
const N: usize = 120;

#[test]
fn fig12a_random_ports_flat_well_known_linear() {
    let mean = |random_ports: bool, x: f64| {
        let mut cfg = SimConfig::paper_attack(ProtocolVariant::Drum, N, x);
        cfg.random_ports = random_ports;
        cfg.max_rounds = 2000;
        run_experiment(&cfg, TRIALS, 11, 0).mean_rounds()
    };

    // With random ports: flat in x.
    let with_weak = mean(true, 64.0);
    let with_strong = mean(true, 512.0);
    assert!(
        with_strong < with_weak + 3.0,
        "random-ports Drum should be flat: {with_weak:.1} -> {with_strong:.1}"
    );

    // Without: grows clearly with x.
    let wo_weak = mean(false, 64.0);
    let wo_strong = mean(false, 512.0);
    assert!(
        wo_strong > wo_weak * 1.5,
        "well-known-ports Drum should degrade: {wo_weak:.1} -> {wo_strong:.1}"
    );

    // And the ablated variant is strictly worse at high x.
    assert!(wo_strong > with_strong * 1.5);
}

#[test]
fn fig12b_shared_bounds_starve_control_channels() {
    // Unit-level reproduction of the §9 mechanism: under SharedControl,
    // fabricated pull-requests exhaust the joint budget and push-offers
    // get dropped; under Separate they never can.
    let mut shared =
        RoundBudget::for_config(&GossipConfig::drum().with_bound_mode(BoundMode::SharedControl));
    let mut separate = RoundBudget::for_config(&GossipConfig::drum());

    // The flood: 100 fabricated pull-requests arrive first.
    let mut shared_accepted_fakes = 0;
    let mut separate_accepted_fakes = 0;
    for _ in 0..100 {
        if shared.try_accept(Channel::PullRequest) {
            shared_accepted_fakes += 1;
        }
        if separate.try_accept(Channel::PullRequest) {
            separate_accepted_fakes += 1;
        }
    }
    assert!(shared_accepted_fakes > separate_accepted_fakes);

    // Now a legitimate push-offer arrives.
    assert!(
        !shared.try_accept(Channel::PushOffer),
        "shared bound should be exhausted by the pull flood"
    );
    assert!(
        separate.try_accept(Channel::PushOffer),
        "separate push budget must be unaffected by the pull flood"
    );
}

#[test]
fn fig12b_engine_level_shared_bounds_drop_offers_under_flood() {
    let store = KeyStore::new(3);
    let members: Vec<ProcessId> = (0..4).map(ProcessId).collect();
    for m in &members {
        store.register(m.as_u64());
    }

    let run = |mode: BoundMode| {
        let key = store.key_of(0).unwrap();
        let mut engine = Engine::new(
            GossipConfig::drum().with_bound_mode(mode),
            Membership::new(ProcessId(0), members.clone()),
            store.clone(),
            key.clone(),
            1,
        );
        let mut oracle = CountingPortOracle::default();
        engine.begin_round(&mut oracle);
        // Fabricated pull-request flood...
        for i in 0..50u64 {
            engine.handle(
                GossipMessage::PullRequest {
                    from: ProcessId(0xDEAD),
                    digest: Digest::new(),
                    reply_port: PortRef::Plain(1),
                    nonce: i,
                },
                &mut oracle,
            );
        }
        // ...then a legitimate push-offer, its reply port sealed for p0.
        let reply_port = PortRef::Sealed(seal_port(&key, 0, 2).unwrap());
        let responses = engine.handle(
            GossipMessage::PushOffer {
                from: ProcessId(1),
                reply_port,
                nonce: 0,
            },
            &mut oracle,
        );
        responses.len()
    };

    assert_eq!(
        run(BoundMode::Separate),
        1,
        "separate bounds must answer the offer"
    );
    assert_eq!(
        run(BoundMode::SharedControl),
        0,
        "shared bounds must be starved"
    );
}

#[test]
fn fig12a_random_ports_ablation_on_real_udp() {
    // The same ablation end-to-end on UDP: with random ports disabled the
    // engine advertises fixed reply ports, the cluster binds real sockets
    // for them, and the attacker splits its pull budget onto the
    // (now knowable) pull-reply port. Under a strong attack the ablated
    // variant loses deliveries that standard Drum gets through.
    use drum::net::experiment::{paper_cluster_config, throughput_experiment};
    use std::time::Duration;

    let run = |random_ports: bool| {
        let mut cfg = paper_cluster_config(
            ProtocolVariant::Drum,
            8,
            3,
            512.0,
            Duration::from_millis(40),
            17,
        );
        cfg.net.gossip = GossipConfig::drum().with_random_ports(random_ports);
        let report = throughput_experiment(cfg, 40, 80.0, 50, Duration::from_secs(3)).unwrap();
        // Total messages received by the attacked (non-source) receivers.
        report
            .receivers
            .iter()
            .filter(|r| r.attacked)
            .map(|r| r.received)
            .sum::<u64>()
    };

    let with_ports = run(true);
    let without = run(false);
    assert!(
        with_ports > without || with_ports >= 70,
        "random ports should protect attacked receivers: with={with_ports} without={without}"
    );
}

#[test]
fn push_pull_combination_is_the_third_pillar() {
    // Sanity cross-check of §5's main comparison at one strong data point:
    // Drum (push+pull) beats both single-method protocols under a focused
    // attack, with everything else (bounds, ports) identical.
    let rounds = |proto| {
        let mut cfg = SimConfig::paper_attack(proto, N, 256.0);
        cfg.max_rounds = 2000;
        run_experiment(&cfg, TRIALS, 12, 0).mean_rounds()
    };
    let drum = rounds(ProtocolVariant::Drum);
    let push = rounds(ProtocolVariant::Push);
    let pull = rounds(ProtocolVariant::Pull);
    assert!(drum * 2.0 < push, "drum {drum:.1} vs push {push:.1}");
    assert!(drum * 2.0 < pull, "drum {drum:.1} vs pull {pull:.1}");
}

#[test]
fn strict_split_bounds_cost_a_little_without_attack() {
    // §7.1 observes Push/Pull slightly outperform Drum in the failure-free
    // case because Drum's per-channel bounds are strict. Verify the gap
    // exists but is small.
    let mean = |proto| {
        let cfg = SimConfig::baseline(proto, N);
        run_experiment(&cfg, TRIALS, 13, 0).mean_rounds()
    };
    let drum = mean(ProtocolVariant::Drum);
    let push = mean(ProtocolVariant::Push);
    assert!(
        drum >= push - 0.5,
        "drum {drum:.1} should not beat push {push:.1} here"
    );
    assert!(
        drum < push + 4.0,
        "the strict-bounds penalty should be small"
    );
}
