//! Canned experiment sweeps matching the paper's simulation figures.
//!
//! Each function returns plain data (parameter, per-protocol results) that
//! `drum-lab figures` formats into the same series the paper plots. `trials` is a parameter everywhere: the paper uses 1000 runs per
//! point; tests and quick modes use fewer.
//!
//! Every sweep builds its grid of [`SweepPoint`]s up front and runs the
//! whole thing through [`run_sweep`] as **one flat set of trial chunks**
//! ([`crate::par`]). That keeps every thread busy across point
//! boundaries: a thread that finishes a cheap baseline point immediately
//! picks up trials from the expensive attacked points instead of idling
//! at a per-point join barrier (the seed harness's behaviour, which
//! `pool_determinism`'s straggler-mix test measures against).

use drum_core::ProtocolVariant;

use crate::config::SimConfig;
use crate::runner::{run_many, ExperimentResult};

/// The three protocols compared throughout the paper.
pub const PROTOCOLS: [ProtocolVariant; 3] = [
    ProtocolVariant::Drum,
    ProtocolVariant::Push,
    ProtocolVariant::Pull,
];

/// One x-axis value of a sweep and the configs evaluated at it.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter value.
    pub x: f64,
    /// The scenarios to evaluate at this point (one per output column).
    pub configs: Vec<SimConfig>,
}

/// One row of a sweep: the x-axis value and the per-config results in
/// the same order as the point's `configs`.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The swept parameter value.
    pub x: f64,
    /// Results in the point's config order (protocol sweeps use
    /// [`PROTOCOLS`] order: Drum, Push, Pull).
    pub results: Vec<ExperimentResult>,
}

/// Evaluates every config of every point — `trials` trials each — as one
/// flat set of trial chunks, and reshapes the results back into
/// per-point rows. All figure sweeps route through here.
pub fn run_sweep(
    points: &[SweepPoint],
    trials: usize,
    seed: u64,
    cdf_rounds: usize,
) -> Vec<SweepRow> {
    let flat: Vec<SimConfig> = points
        .iter()
        .flat_map(|p| p.configs.iter().cloned())
        .collect();
    let mut results = run_many(&flat, trials, seed, cdf_rounds).into_iter();
    points
        .iter()
        .map(|p| SweepRow {
            x: p.x,
            results: results.by_ref().take(p.configs.len()).collect(),
        })
        .collect()
}

/// Builds the standard per-protocol point: one config per entry of
/// [`PROTOCOLS`], derived from `make`.
fn protocol_point(x: f64, make: impl Fn(ProtocolVariant) -> SimConfig) -> SweepPoint {
    SweepPoint {
        x,
        configs: PROTOCOLS.iter().map(|&p| make(p)).collect(),
    }
}

/// Figure 2(a): failure-free propagation time as `n` grows.
pub fn fig2a_scalability(ns: &[usize], trials: usize, seed: u64) -> Vec<SweepRow> {
    let points: Vec<SweepPoint> = ns
        .iter()
        .map(|&n| protocol_point(n as f64, |p| SimConfig::baseline(p, n)))
        .collect();
    run_sweep(&points, trials, seed, 0)
}

/// Figure 2(b): propagation time as the fraction of crashed processes
/// grows (`n` fixed).
pub fn fig2b_crashes(n: usize, crash_fractions: &[f64], trials: usize, seed: u64) -> Vec<SweepRow> {
    let points: Vec<SweepPoint> = crash_fractions
        .iter()
        .map(|&frac| {
            protocol_point(frac, |p| {
                let mut cfg = SimConfig::baseline(p, n);
                cfg.crashed = (n as f64 * frac).round() as usize;
                cfg
            })
        })
        .collect();
    run_sweep(&points, trials, seed, 0)
}

/// The x = 0 (or α = 0) column of the attack figures: no fabricated
/// traffic, but the 10% malicious processes still refuse to gossip.
fn attack_baseline(p: ProtocolVariant, n: usize) -> SimConfig {
    let mut c = SimConfig::baseline(p, n);
    c.malicious = n / 10;
    c
}

/// Figure 3(a) / Figure 9(a): targeted attack on 10% of the processes,
/// propagation time vs. attack rate `x`.
pub fn fig3a_attack_strength(n: usize, xs: &[f64], trials: usize, seed: u64) -> Vec<SweepRow> {
    let points: Vec<SweepPoint> = xs
        .iter()
        .map(|&x| {
            protocol_point(x, |p| {
                if x == 0.0 {
                    attack_baseline(p, n)
                } else {
                    SimConfig::paper_attack(p, n, x)
                }
            })
        })
        .collect();
    run_sweep(&points, trials, seed, 0)
}

/// Figure 3(b) / Figure 9(b): fixed `x`, increasing attacked fraction α.
pub fn fig3b_attack_extent(
    n: usize,
    x: f64,
    alphas: &[f64],
    trials: usize,
    seed: u64,
) -> Vec<SweepRow> {
    let points: Vec<SweepPoint> = alphas
        .iter()
        .map(|&alpha| {
            protocol_point(alpha, |p| {
                if alpha == 0.0 {
                    attack_baseline(p, n)
                } else {
                    SimConfig::attack_alpha(p, n, alpha, x)
                }
            })
        })
        .collect();
    run_sweep(&points, trials, seed, 0)
}

/// Figures 5 / 13 / 14: per-round CDF of the fraction of correct processes
/// holding `M`, for one scenario.
pub fn cdf_curve(cfg: &SimConfig, trials: usize, seed: u64, rounds: usize) -> Vec<f64> {
    cdf_curves(std::slice::from_ref(cfg), trials, seed, rounds)
        .pop()
        .expect("one config in, one curve out")
}

/// Per-round CDFs for several scenarios evaluated as one flat job set.
pub fn cdf_curves(cfgs: &[SimConfig], trials: usize, seed: u64, rounds: usize) -> Vec<Vec<f64>> {
    run_many(cfgs, trials, seed, rounds)
        .into_iter()
        .map(|r| r.avg_fraction_per_round)
        .collect()
}

/// Figure 7 / 8: fixed total attack strength `B = c·F·n` spread over a
/// varying fraction of the correct processes.
///
/// For each α in `alphas`, each attacked process receives
/// `x = B / (α·n)` fabricated messages per round.
pub fn fixed_strength_sweep(
    n: usize,
    total_b: f64,
    alphas: &[f64],
    protocols: &[ProtocolVariant],
    trials: usize,
    seed: u64,
) -> Vec<SweepRow> {
    let points: Vec<SweepPoint> = alphas
        .iter()
        .map(|&alpha| {
            let attacked = ((n as f64 * alpha).round() as usize).max(1);
            let x = total_b / attacked as f64;
            SweepPoint {
                x: alpha,
                configs: protocols
                    .iter()
                    .map(|&p| SimConfig::attack_alpha(p, n, alpha, x))
                    .collect(),
            }
        })
        .collect();
    run_sweep(&points, trials, seed, 0)
}

/// Extension: Drum propagation time at very large `n`, with and without
/// a flood of fixed per-victim strength (the Figure 7 setting α = 0.1,
/// `x` fabricated messages per attacked process per round).
///
/// Unlike the paper figures, the trial count shrinks as `n` grows — one
/// 10⁶-member trial costs ~100× a 10⁴ one — so each entry of `points` is
/// an `(n, trials)` pair evaluated as its own flat job set. Returns rows
/// with `x = n` and `results = [no-attack baseline, flood]`; the
/// baseline keeps the paper's 10% malicious non-cooperators so the two
/// columns differ only in fabricated traffic.
pub fn ext_scale_sweep(points: &[(usize, usize)], alpha: f64, x: f64, seed: u64) -> Vec<SweepRow> {
    points
        .iter()
        .map(|&(n, trials)| {
            let configs = vec![
                attack_baseline(ProtocolVariant::Drum, n),
                SimConfig::attack_alpha(ProtocolVariant::Drum, n, alpha, x),
            ];
            SweepRow {
                x: n as f64,
                results: run_many(&configs, trials, seed, 0),
            }
        })
        .collect()
}

/// Figure 12(a): Drum with and without random ports, vs. attack rate `x`.
/// Returns rows whose `results` hold `[with_random_ports, without]`.
pub fn fig12a_random_ports(n: usize, xs: &[f64], trials: usize, seed: u64) -> Vec<SweepRow> {
    let points: Vec<SweepPoint> = xs
        .iter()
        .map(|&x| SweepPoint {
            x,
            configs: [true, false]
                .iter()
                .map(|&random_ports| {
                    let mut cfg = if x == 0.0 {
                        attack_baseline(ProtocolVariant::Drum, n)
                    } else {
                        SimConfig::paper_attack(ProtocolVariant::Drum, n, x)
                    };
                    cfg.random_ports = random_ports;
                    cfg
                })
                .collect(),
        })
        .collect();
    run_sweep(&points, trials, seed, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_experiment;

    const TRIALS: usize = 12;

    #[test]
    fn fig2a_rows_have_all_protocols() {
        let rows = fig2a_scalability(&[40, 80], TRIALS, 1);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.results.len(), 3);
            for r in &row.results {
                assert_eq!(r.failures, 0);
            }
        }
    }

    #[test]
    fn fig2b_crashes_slow_but_do_not_stop() {
        let rows = fig2b_crashes(100, &[0.0, 0.3], TRIALS, 2);
        for row in &rows {
            for r in &row.results {
                assert_eq!(r.failures, 0, "crash fraction {} failed", row.x);
            }
        }
        // 30% crashes slower than 0% for every protocol.
        for i in 0..3 {
            assert!(rows[1].results[i].mean_rounds() >= rows[0].results[i].mean_rounds() - 0.5);
        }
    }

    #[test]
    fn fig3a_drum_flat_push_pull_grow() {
        let rows = fig3a_attack_strength(120, &[32.0, 256.0], TRIALS, 3);
        let drum_growth = rows[1].results[0].mean_rounds() - rows[0].results[0].mean_rounds();
        let push_growth = rows[1].results[1].mean_rounds() - rows[0].results[1].mean_rounds();
        let pull_growth = rows[1].results[2].mean_rounds() - rows[0].results[2].mean_rounds();
        assert!(drum_growth < 3.0, "drum grew by {drum_growth}");
        assert!(
            push_growth > drum_growth,
            "push {push_growth} vs drum {drum_growth}"
        );
        assert!(
            pull_growth > drum_growth,
            "pull {pull_growth} vs drum {drum_growth}"
        );
    }

    #[test]
    fn flat_sweep_matches_per_point_experiments() {
        // The whole-sweep flattening must not change any individual
        // result: row (x, protocol) equals a standalone run_experiment
        // with the same config, trials and seed.
        let rows = fig3a_attack_strength(60, &[0.0, 64.0], TRIALS, 9);
        for row in &rows {
            for (i, &p) in PROTOCOLS.iter().enumerate() {
                let cfg = if row.x == 0.0 {
                    attack_baseline(p, 60)
                } else {
                    SimConfig::paper_attack(p, 60, row.x)
                };
                assert_eq!(
                    row.results[i],
                    run_experiment(&cfg, TRIALS, 9, 0),
                    "x={} protocol {:?} diverged from standalone run",
                    row.x,
                    p
                );
            }
        }
    }

    #[test]
    fn cdf_curve_monotone() {
        let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 120, 64.0);
        let curve = cdf_curve(&cfg, TRIALS, 4, 25);
        assert_eq!(curve.len(), 25);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        assert!(curve[24] > 0.95);
    }

    #[test]
    fn fixed_strength_drum_worst_at_full_spread() {
        // Lemma 2 prediction (c = 10): Drum's propagation time increases
        // with α.
        let n = 120;
        let b = 36.0 * n as f64;
        let rows = fixed_strength_sweep(n, b, &[0.1, 0.9], &[ProtocolVariant::Drum], TRIALS, 5);
        let focused = rows[0].results[0].mean_rounds();
        let spread = rows[1].results[0].mean_rounds();
        assert!(
            spread > focused,
            "spread attack ({spread}) should hurt Drum more than focused ({focused})"
        );
    }

    #[test]
    fn ext_scale_rows_track_points_and_grow_with_n() {
        let rows = ext_scale_sweep(&[(40, TRIALS), (160, TRIALS / 2)], 0.1, 72.0, 7);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.results.len(), 2, "baseline + flood at n={}", row.x);
            for r in &row.results {
                assert_eq!(r.failures, 0, "n={} failed to disseminate", row.x);
            }
            // The flood can only slow Drum down, never speed it up by much.
            assert!(row.results[1].mean_rounds() >= row.results[0].mean_rounds() - 1.0);
        }
        // Rounds-to-99% grows with n (log-n growth at full scale).
        assert!(rows[1].results[0].mean_rounds() > rows[0].results[0].mean_rounds() - 0.5);
    }

    #[test]
    fn fig12a_well_known_ports_hurt() {
        let rows = fig12a_random_ports(120, &[256.0], TRIALS, 6);
        let with = rows[0].results[0].mean_rounds();
        let without = rows[0].results[1].mean_rounds();
        assert!(without > with, "without ports {without} vs with {with}");
    }
}
