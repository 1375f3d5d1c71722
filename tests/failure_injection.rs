//! Failure injection across the stack: crashes, loss, malformed and
//! hostile traffic, and resource pressure.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use drum::core::config::ProtocolVariant;
use drum::net::experiment::{paper_cluster_config, Arrival, Cluster};
use drum::net::transport::bind_ephemeral;
use drum::sim::config::SimConfig;
use drum::sim::runner::run_experiment;

const TRIALS: usize = 40;

#[test]
fn graceful_degradation_under_increasing_crashes() {
    // Figure 2(b): propagation keeps working as crashes mount, degrading
    // smoothly rather than collapsing.
    let mut prev_mean = 0.0;
    for crashed_frac in [0.0, 0.2, 0.4] {
        let mut cfg = SimConfig::baseline(ProtocolVariant::Drum, 150);
        cfg.crashed = (150.0 * crashed_frac) as usize;
        let res = run_experiment(&cfg, TRIALS, 21, 0);
        assert_eq!(res.failures, 0, "crashes must not prevent dissemination");
        assert!(
            res.mean_rounds() >= prev_mean - 0.5,
            "no wild non-monotonicity"
        );
        prev_mean = res.mean_rounds();
    }
    // Even 40% crashed: still single-digit-ish rounds.
    assert!(
        prev_mean < 20.0,
        "40% crashes should only slow things down: {prev_mean}"
    );
}

#[test]
fn heavy_link_loss_slows_but_does_not_stop() {
    let mut cfg = SimConfig::baseline(ProtocolVariant::Drum, 100);
    cfg.loss = 0.25;
    cfg.max_rounds = 500;
    let res = run_experiment(&cfg, TRIALS, 22, 0);
    assert_eq!(res.failures, 0, "25% loss should not prevent dissemination");

    let mut clean = SimConfig::baseline(ProtocolVariant::Drum, 100);
    clean.loss = 0.0;
    let clean_res = run_experiment(&clean, TRIALS, 22, 0);
    assert!(res.mean_rounds() > clean_res.mean_rounds() - 0.5);
}

#[test]
fn simultaneous_crashes_attack_and_loss() {
    // Everything at once: 10% malicious, 10% crashed, 10% attacked, lossy
    // links. Drum still converges.
    let mut cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 120, 128.0);
    cfg.crashed = 12;
    cfg.loss = 0.05;
    cfg.max_rounds = 1000;
    let res = run_experiment(&cfg, TRIALS, 23, 0);
    assert_eq!(res.failures, 0, "combined failures must not stop Drum");
}

#[test]
fn udp_cluster_survives_garbage_floods() {
    // Blast raw garbage (not even valid protocol messages) at every
    // well-known port of a live cluster; dissemination must continue and
    // the runtime must account the junk as decode errors, not crash.
    let config = paper_cluster_config(
        ProtocolVariant::Drum,
        6,
        0,
        0.0,
        Duration::from_millis(40),
        31,
    );
    let cluster = Cluster::start(config).unwrap();

    // Garbage generator: we do not know the ports directly here, so spray
    // the loopback ports around the ephemeral range used by the cluster's
    // sockets — and, more importantly, send malformed datagrams to the
    // source's channels via its published address book entries. Since the
    // book is internal, recreate pressure by sending to many random
    // ephemeral ports; some will hit cluster sockets.
    let blaster = bind_ephemeral().unwrap();
    let stop_at = Instant::now() + Duration::from_millis(600);
    cluster.publish_from_source(0, 50);
    let mut sprayed = 0u32;
    while Instant::now() < stop_at {
        for port in (20000u16..60000).step_by(977) {
            let _ = blaster.send_to(&[0xFFu8, 1, 2, 3], ("127.0.0.1", port));
            sprayed += 1;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(sprayed > 0);

    // The message still disseminates: the source and every receiver
    // hold it.
    let reached = |log: &[Arrival]| {
        let receivers = log.iter().map(|a| a.receiver);
        std::iter::once(0)
            .chain(receivers)
            .collect::<HashSet<_>>()
            .len()
    };
    let correct = cluster.handles().len();
    let mut log = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    cluster.collect_until(&mut log, deadline, |log| reached(log) == correct);
    assert_eq!(reached(&log), correct, "garbage flood broke dissemination");
    cluster.shutdown();
}

#[test]
fn extreme_attack_rate_does_not_wedge_the_runtime() {
    // An absurd x: the victims' sockets overflow, but rounds keep turning
    // and shutdown is clean.
    let config = paper_cluster_config(
        ProtocolVariant::Drum,
        5,
        2,
        2000.0,
        Duration::from_millis(30),
        32,
    );
    let cluster = Cluster::start(config).unwrap();
    cluster.publish_from_source(0, 50);
    std::thread::sleep(Duration::from_millis(800));
    let stats = cluster.shutdown();
    for s in &stats {
        assert!(s.rounds >= 3, "a process wedged: {s:?}");
    }
}

#[test]
fn tiny_groups_work() {
    // n = 2 is the degenerate edge: one partner only.
    for proto in [
        ProtocolVariant::Drum,
        ProtocolVariant::Push,
        ProtocolVariant::Pull,
    ] {
        let cfg = SimConfig::baseline(proto, 2);
        let res = run_experiment(&cfg, 20, 33, 0);
        assert_eq!(res.failures, 0, "{proto} failed on n=2");
    }
}

#[test]
fn attack_on_every_correct_process_still_converges_eventually() {
    // The rightmost point of Figure 7: α covers all correct processes.
    let mut cfg = SimConfig::attack_alpha(ProtocolVariant::Drum, 60, 0.9, 16.0);
    cfg.max_rounds = 2000;
    let res = run_experiment(&cfg, TRIALS, 34, 0);
    assert_eq!(
        res.failures, 0,
        "full-coverage attack must only slow Drum down"
    );
}
