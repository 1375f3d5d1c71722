//! End-to-end tests of the UDP runtime: dissemination, attack resistance
//! and the §8 measurement pipeline, on a real (loopback) network — and,
//! where one wall-clock run is a coin flip, the same nodes on the
//! virtual-time driver.

use std::time::{Duration, Instant};

use drum::core::config::{GossipConfig, ProtocolVariant};
use drum::net::experiment::{
    paper_cluster_config, propagation_experiment, throughput_experiment, Cluster,
};
use drum::net::{NetConfig, VirtualCluster};
use drum_core::bytes::Bytes;

const ROUND: Duration = Duration::from_millis(40);

fn wait_all_receive(cluster: &Cluster, expect: usize, timeout: Duration) -> usize {
    let deadline = Instant::now() + timeout;
    let mut seen = vec![false; cluster.handles().len()];
    seen[0] = true;
    while Instant::now() < deadline && seen.iter().filter(|s| **s).count() < expect {
        for (i, h) in cluster.handles().iter().enumerate() {
            if !h.take_delivered().is_empty() {
                seen[i] = true;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    seen.iter().filter(|s| **s).count()
}

#[test]
fn drum_full_dissemination_over_udp() {
    let config = paper_cluster_config(ProtocolVariant::Drum, 10, 0, 0.0, ROUND, 1);
    let correct = config.correct();
    let cluster = Cluster::start(config).unwrap();
    cluster.publish_from_source(0, 50);
    let reached = wait_all_receive(&cluster, correct, Duration::from_secs(20));
    assert_eq!(
        reached, correct,
        "only {reached}/{correct} processes received M"
    );
    cluster.shutdown();
}

#[test]
fn drum_disseminates_despite_attack_on_source() {
    // Attack the source and two more processes hard; Drum still delivers.
    let config = paper_cluster_config(ProtocolVariant::Drum, 10, 3, 128.0, ROUND, 2);
    let correct = config.correct();
    let cluster = Cluster::start(config).unwrap();
    cluster.publish_from_source(0, 50);
    let reached = wait_all_receive(&cluster, correct, Duration::from_secs(30));
    assert!(
        reached >= correct - 1,
        "attack suppressed dissemination: {reached}/{correct}"
    );
    cluster.shutdown();
}

#[test]
fn pull_attack_on_source_delays_exit() {
    // Under a pull-channel flood of the source, Pull struggles to get the
    // message out at all within a few rounds — the p̃ effect. Over five
    // rounds the message escapes the source about once in 20 runs, so a
    // wall-clock cluster makes this a coin flip; the node's protocol half
    // on the virtual-time driver makes it one fixed-seed run.
    let config = NetConfig::new(GossipConfig::pull());
    let mut net = VirtualCluster::new(8, config, 3).with_attack(vec![0], 1024.0);
    net.publish(0, Bytes::from_static(b"m"));
    net.run_rounds(5);
    let receivers = (1..8).filter(|&i| !net.delivered(i).is_empty()).count();
    assert!(
        receivers <= 4,
        "pull escaped too easily: {receivers} receivers"
    );
}

#[test]
fn multiple_sources_interleave() {
    let config = paper_cluster_config(ProtocolVariant::Drum, 6, 0, 0.0, ROUND, 4);
    let cluster = Cluster::start(config).unwrap();
    // Two different processes publish concurrently.
    cluster.handles()[0].publish(Bytes::from_static(b"from p0"));
    cluster.handles()[1].publish(Bytes::from_static(b"from p1"));

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut got_p0 = false;
    let mut got_p1 = false;
    while Instant::now() < deadline && !(got_p0 && got_p1) {
        for d in cluster.handles()[2].take_delivered() {
            match d.message.payload.as_ref() {
                b"from p0" => got_p0 = true,
                b"from p1" => got_p1 = true,
                other => panic!("unexpected payload {other:?}"),
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.shutdown();
    assert!(
        got_p0 && got_p1,
        "p2 missed a source: p0={got_p0} p1={got_p1}"
    );
}

#[test]
fn throughput_report_is_sane() {
    let config = paper_cluster_config(ProtocolVariant::Drum, 8, 0, 0.0, ROUND, 5);
    let report = throughput_experiment(config, 30, 60.0, 50, Duration::from_secs(2)).unwrap();
    assert_eq!(report.published, 30);
    assert!(!report.receivers.is_empty());
    for r in &report.receivers {
        assert!(r.received <= 30);
        assert!(r.mean_latency_ms >= 0.0);
        assert!(!r.attacked);
    }
    // The mean over receivers is positive: messages flowed.
    assert!(report.mean_throughput() > 0.0);
}

#[test]
fn propagation_experiment_counts_hops() {
    let config = paper_cluster_config(ProtocolVariant::Drum, 8, 0, 0.0, ROUND, 6);
    let report = propagation_experiment(config, 4, 1, Duration::from_secs(15)).unwrap();
    assert_eq!(report.rounds_to_99.count() as usize + report.incomplete, 4);
    assert!(
        report.rounds_to_99.count() >= 3,
        "too many incomplete messages"
    );
    let mean = report.rounds_to_99.mean();
    // A 7-correct-process group converges in a few rounds.
    assert!((1.0..20.0).contains(&mean), "mean hops {mean}");
}

#[test]
fn push_starves_attacked_receiver_drum_does_not() {
    // One receiver attacked heavily. Under Push its incoming channel is the
    // only path, so deliveries drop; under Drum its pull channel still
    // works. Compare delivery counts of the attacked receiver (id 1).
    let count_for = |variant| {
        // Attack ids 0 and 1 (the source is id 0 per the paper).
        let config = paper_cluster_config(variant, 8, 2, 256.0, ROUND, 7);
        let report = throughput_experiment(config, 40, 80.0, 50, Duration::from_secs(3)).unwrap();
        report
            .receivers
            .iter()
            .find(|r| r.id.as_u64() == 1)
            .map(|r| r.received)
            .unwrap_or(0)
    };
    let drum = count_for(ProtocolVariant::Drum);
    let push = count_for(ProtocolVariant::Push);
    assert!(
        drum > push || drum >= 35,
        "attacked receiver: drum got {drum}, push got {push}"
    );
}
