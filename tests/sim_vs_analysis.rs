//! Figures 13 and 14: the closed-form Appendix C analysis and the
//! Monte-Carlo simulator must produce "virtually identical" per-round
//! CDFs of the fraction of correct processes holding `M`.
//!
//! We compare the two with a Kolmogorov–Smirnov-style max deviation over
//! the first rounds, using reduced trial counts (the paper uses 1000).

use drum::analysis::appendix_c::analysis_cdf;
use drum::core::config::ProtocolVariant;
use drum::sim::config::SimConfig;
use drum::sim::experiments::{cdf_curve, PROTOCOLS};

const TRIALS: usize = 150;
const ROUNDS: usize = 30;

/// Max absolute deviation between analysis and simulation curves.
/// `analysis[r]` is the fraction at the *start* of round r, so
/// `analysis[r+1]` aligns with the simulator's after-round-r sample.
fn deviation(analysis: &[f64], sim: &[f64]) -> f64 {
    analysis
        .iter()
        .skip(1)
        .zip(sim.iter())
        .map(|(a, s)| (a - s).abs())
        .fold(0.0, f64::max)
}

fn compare(proto: ProtocolVariant, n: usize, b: usize, attacked: usize, x: u64, tolerance: f64) {
    let analysis = analysis_cdf(proto, n, b, 0.01, 4, attacked, x, ROUNDS);

    let mut cfg = if x > 0 {
        SimConfig::paper_attack(proto, n, x as f64)
    } else {
        let mut c = SimConfig::baseline(proto, n);
        c.malicious = b;
        c
    };
    if x > 0 {
        cfg.malicious = b;
        if let Some(a) = cfg.attack.as_mut() {
            a.attacked = attacked;
        }
    }
    let sim = cdf_curve(&cfg, TRIALS, 20260705, ROUNDS);

    let d = deviation(&analysis, &sim);
    assert!(
        d < tolerance,
        "{proto} n={n} b={b} attacked={attacked} x={x}: max deviation {d:.3} >= {tolerance}"
    );
}

#[test]
fn fig13a_failure_free_n120_all_protocols() {
    // The paper's Fig 13(a) uses n=1000; n=120 keeps the test fast while
    // exercising exactly the same formulas.
    for proto in PROTOCOLS {
        compare(proto, 120, 0, 0, 0, 0.08);
    }
}

#[test]
fn fig13b_crashed_10pct() {
    for proto in PROTOCOLS {
        compare(proto, 120, 12, 0, 0, 0.08);
    }
}

#[test]
fn fig14a_alpha10_x32() {
    for proto in PROTOCOLS {
        compare(proto, 120, 12, 12, 32, 0.12);
    }
}

#[test]
fn fig14c_alpha10_x128() {
    for proto in PROTOCOLS {
        compare(proto, 120, 12, 12, 128, 0.12);
    }
}

#[test]
fn fig14d_alpha40_x128() {
    for proto in PROTOCOLS {
        compare(proto, 120, 12, 48, 128, 0.12);
    }
}

#[test]
fn fig14f_alpha80_x128_drum() {
    // The harshest setting; Drum still converges and analysis tracks it.
    compare(ProtocolVariant::Drum, 120, 12, 96, 128, 0.12);
}

#[test]
fn the_push_pull_paradox_of_section_7_2() {
    // §7.2 documents a paradox under the (α=10%, x=128) attack:
    //
    // * by the *average per-round CDF* (what the analysis's E[S_r]
    //   computes), Push reaches more processes per round than Pull — Pull
    //   has runs where M sits at the attacked source for many rounds, and
    //   those drag the average fraction down;
    // * yet by *mean rounds until 99%* (the per-trial metric the
    //   simulations report), Pull beats Push — Push must deliver to every
    //   attacked process, Pull only has to escape one.
    //
    // Drum wins by both metrics.
    let rounds_analysis = |p: ProtocolVariant| {
        analysis_cdf(p, 120, 12, 0.01, 4, 12, 128, 200)
            .iter()
            .position(|f| *f >= 0.99)
            .unwrap_or(usize::MAX)
    };
    let (da, pa, la) = (
        rounds_analysis(ProtocolVariant::Drum),
        rounds_analysis(ProtocolVariant::Push),
        rounds_analysis(ProtocolVariant::Pull),
    );
    assert!(
        da < pa && pa < la,
        "expected-fraction ordering should be drum < push < pull: drum={da} push={pa} pull={la}"
    );

    let rounds_sim = |p: ProtocolVariant| {
        let cfg = SimConfig::paper_attack(p, 120, 128.0);
        drum::sim::runner::run_experiment(&cfg, TRIALS, 99, 0).mean_rounds()
    };
    let (ds, ps, ls) = (
        rounds_sim(ProtocolVariant::Drum),
        rounds_sim(ProtocolVariant::Push),
        rounds_sim(ProtocolVariant::Pull),
    );
    assert!(
        ds < ls && ls < ps,
        "mean rounds-to-99% ordering should be drum < pull < push: drum={ds} pull={ls} push={ps}"
    );
}
