//! Cross-validation of the three evaluation layers: the Monte-Carlo
//! simulator's *primitive events* are measured empirically and compared
//! against the closed-form formulas of appendices A–C — a much sharper
//! check than comparing end-to-end curves.

use drum_analysis::appendix_a;
use drum_analysis::appendix_b;
use drum_analysis::appendix_c::{pair_probabilities, DetailedParams};
use drum_core::config::ProtocolVariant;
use drum_sim::sampling::{accepted_valid, binomial};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const TRIALS: usize = 200_000;

/// Empirical estimate of Appendix A's `p_a`: the probability that one
/// specific valid message is accepted by a process attacked with `x`
/// fabricated messages, when `Y-1 ~ Binomial(n-2, F/(n-1))` other valid
/// messages compete and `F` of all arrivals are accepted.
fn empirical_p_a(n: usize, f: usize, x: usize, rng: &mut SmallRng) -> f64 {
    let q = f as f64 / (n - 1) as f64;
    let mut accepted = 0usize;
    for _ in 0..TRIALS {
        let others = binomial(n - 2, q, rng);
        // Our message + `others` valid + x fabricated compete for f slots;
        // count how often OUR specific message is among the accepted.
        // Equivalent formulation: accept `a` of the (others+1) valid ones
        // and ask whether a uniformly chosen specific one is included.
        let a = accepted_valid(others + 1, x, f, rng);
        // P(specific valid included | a of others+1 accepted) = a/(others+1)
        if a > 0 {
            let r = rng_usize(rng, others + 1);
            if r < a {
                accepted += 1;
            }
        }
    }
    accepted as f64 / TRIALS as f64
}

fn rng_usize(rng: &mut SmallRng, n: usize) -> usize {
    use rand::RngExt;
    rng.random_range(0..n)
}

#[test]
fn empirical_p_u_matches_appendix_a() {
    let mut rng = SmallRng::seed_from_u64(1);
    let analytic = appendix_a::p_u(120, 4);
    let empirical = empirical_p_a(120, 4, 0, &mut rng);
    assert!(
        (analytic - empirical).abs() < 0.01,
        "p_u: analytic {analytic:.4} vs empirical {empirical:.4}"
    );
}

#[test]
fn empirical_p_a_matches_appendix_a() {
    let mut rng = SmallRng::seed_from_u64(2);
    for &x in &[8usize, 32, 128] {
        let analytic = appendix_a::p_a(120, 4, x as u64);
        let empirical = empirical_p_a(120, 4, x, &mut rng);
        assert!(
            (analytic - empirical).abs() < 0.01,
            "p_a(x={x}): analytic {analytic:.4} vs empirical {empirical:.4}"
        );
    }
}

#[test]
fn empirical_p_tilde_matches_appendix_b() {
    // p̃: probability that at least one valid pull-request survives at an
    // attacked source. Empirically: Y ~ Binomial(n-1, F/(n-1)) valid
    // requests, x fabricated; some valid accepted?
    let (n, f, x) = (120usize, 4usize, 128usize);
    let mut rng = SmallRng::seed_from_u64(3);
    let q = f as f64 / (n - 1) as f64;
    let mut escapes = 0usize;
    for _ in 0..TRIALS {
        let valid = binomial(n - 1, q, &mut rng);
        if accepted_valid(valid, x, f, &mut rng) > 0 {
            escapes += 1;
        }
    }
    let empirical = escapes as f64 / TRIALS as f64;
    let analytic = appendix_b::p_tilde(n, f, x as u64);
    assert!(
        (analytic - empirical).abs() < 0.01,
        "p̃: analytic {analytic:.4} vs empirical {empirical:.4}"
    );
}

#[test]
fn appendix_c_pair_probabilities_consistent_with_appendix_a() {
    // With no loss and no faulty processes, Appendix C's per-pair push
    // probability is q·(1−d_push) which must equal (F_in/(n−1))-scaled
    // Appendix A acceptance. Check the ratio structure: p_push^u divided
    // by the view probability equals the acceptance probability.
    let n = 200;
    let params = DetailedParams {
        n,
        b: 0,
        loss: 0.0,
        view_push: 4,
        view_pull: 0,
        f_in_push: 4,
        f_in_pull: 0,
    };
    let pr = pair_probabilities(ProtocolVariant::Push, &params, 0);
    let q = 4.0 / (n as f64 - 1.0);
    let acceptance = pr.push_u / q;
    let p_u = appendix_a::p_u(n, 4);
    assert!(
        (acceptance - p_u).abs() < 0.01,
        "acceptance {acceptance:.4} vs p_u {p_u:.4}"
    );
}

#[test]
fn attacked_acceptance_decreases_smoothly() {
    // Monotone, no cliffs: doubling x roughly halves p_a for large x.
    let mut rng = SmallRng::seed_from_u64(4);
    let p64 = empirical_p_a(120, 4, 64, &mut rng);
    let p128 = empirical_p_a(120, 4, 128, &mut rng);
    let ratio = p64 / p128;
    assert!(
        (1.6..2.6).contains(&ratio),
        "expected ~2x drop, got {p64:.4}/{p128:.4} = {ratio:.2}"
    );
}
