//! Appendix C of the paper: the detailed (non-asymptotic) numerical
//! analysis of Drum, Push and Pull — with link loss, crashed/malicious
//! processes and DoS attacks — whose results are "virtually identical" to
//! the simulations (Figures 13 and 14).
//!
//! The computation proceeds in three steps:
//!
//! 1. per-message discard probabilities `d_push` / `d_pull` (§C.2.1) and
//!    their under-attack variants (§C.2.2);
//! 2. per-pair transmission-success probabilities `p_push` / `p_pull`;
//! 3. a Markov recursion on the number of correct processes holding `M`:
//!    one-dimensional without an attack, two-dimensional
//!    `(S^u_r, S^a_r)` (non-attacked, attacked) under an attack.
//!
//! All binomial arithmetic is exact log-domain ([`crate::logmath`]).

use drum_core::config::ProtocolVariant;

use crate::logmath::{pow_one_minus, LogFactorial};

/// Parameters of the detailed analysis (§C.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailedParams {
    /// Group size `n`.
    pub n: usize,
    /// Number of faulty (crashed or malicious) processes `b`.
    pub b: usize,
    /// Link-loss probability `ε_loss`.
    pub loss: f64,
    /// `|view_push|` (0 for Pull).
    pub view_push: usize,
    /// `|view_pull|` (0 for Push).
    pub view_pull: usize,
    /// Reception bound on push messages `F_in-push`.
    pub f_in_push: usize,
    /// Reception bound on pull-requests `F_in-pull`.
    pub f_in_pull: usize,
}

impl DetailedParams {
    /// The paper's standard instantiation: fan-out `F` split according to
    /// the protocol (Drum: F/2 + F/2; Push: F push; Pull: F pull).
    ///
    /// # Panics
    ///
    /// Panics if `n <= b + 1`, `F == 0`, or Drum is given an odd `F`.
    pub fn paper(protocol: ProtocolVariant, n: usize, b: usize, loss: f64, fan_out: usize) -> Self {
        assert!(n > b + 1, "need at least two correct processes");
        assert!(fan_out > 0, "fan-out must be positive");
        let (vp, vl) = match protocol {
            ProtocolVariant::Drum => {
                assert!(fan_out.is_multiple_of(2), "Drum splits the fan-out evenly");
                (fan_out / 2, fan_out / 2)
            }
            ProtocolVariant::Push => (fan_out, 0),
            ProtocolVariant::Pull => (0, fan_out),
        };
        DetailedParams {
            n,
            b,
            loss,
            view_push: vp,
            view_pull: vl,
            f_in_push: vp,
            f_in_pull: vl,
        }
    }

    /// Number of correct processes `n - b`.
    pub fn correct(&self) -> usize {
        self.n - self.b
    }
}

/// Distribution of `Y`, the number of valid messages received on one
/// channel in a round, *given* that a particular correct sender's message
/// arrived (§C.2.1).
///
/// `Z - 1 ~ Binomial(n-b-2, view/(n-1))` correct processes also choose the
/// target, and each of their messages independently survives loss, so
/// `Y - 1 ~ Binomial(n-b-2, (view/(n-1))·(1-ε))` by binomial thinning.
/// Returns `Pr(Y=y)` for `y = 1..=n-b-1` at index `y-1`.
fn y_dist_given_arrival(lf: &LogFactorial, p: &DetailedParams, view: usize) -> Vec<f64> {
    let nb = p.correct();
    let q = view as f64 / (p.n - 1) as f64 * (1.0 - p.loss);
    (1..nb).map(|y| lf.binom_pmf(nb - 2, y - 1, q)).collect()
}

/// Discard probability without an attack: the probability that the target
/// discards the (arrived) message because more than `f_in` valid messages
/// competed this round.
fn discard_prob(lf: &LogFactorial, p: &DetailedParams, view: usize, f_in: usize) -> f64 {
    let dist = y_dist_given_arrival(lf, p, view);
    let mut acc = 0.0;
    for (idx, pr) in dist.iter().enumerate() {
        let y = idx + 1;
        if y > f_in {
            acc += (y - f_in) as f64 / y as f64 * pr;
        }
    }
    acc
}

/// Discard probability under attack: `x_fab` fabricated messages are sent
/// to the channel each round; `X̂ ~ Binomial(x_fab, 1-ε)` of them arrive
/// and compete with the `Y` valid ones for the `f_in` slots (§C.2.2).
fn discard_prob_attacked(
    lf: &LogFactorial,
    p: &DetailedParams,
    view: usize,
    f_in: usize,
    x_fab: u64,
) -> f64 {
    let dist = y_dist_given_arrival(lf, p, view);
    let x_fab = x_fab as usize;
    // Distribution of arriving fabricated messages.
    let fab_dist: Vec<f64> = (0..=x_fab)
        .map(|k| lf.binom_pmf(x_fab, k, 1.0 - p.loss))
        .collect();
    let mut acc = 0.0;
    for (idx, pr_y) in dist.iter().enumerate() {
        let y = idx + 1;
        if *pr_y == 0.0 {
            continue;
        }
        let mut inner = 0.0;
        for (x_hat, pr_x) in fab_dist.iter().enumerate() {
            let total = y + x_hat;
            if total > f_in {
                inner += (total - f_in) as f64 / total as f64 * pr_x;
            }
        }
        acc += inner * pr_y;
    }
    acc
}

/// The per-pair success probabilities of one round, for attacked (`a`) and
/// non-attacked (`u`) endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairProbabilities {
    /// `p^u_push`: sender's push accepted by a non-attacked target.
    pub push_u: f64,
    /// `p^a_push`: sender's push accepted by an attacked target.
    pub push_a: f64,
    /// `p^u_pull`: M obtained by pulling from a non-attacked informed process.
    pub pull_u: f64,
    /// `p^a_pull`: M obtained by pulling from an attacked informed process.
    pub pull_a: f64,
}

impl PairProbabilities {
    /// Per-pair probability of transmitting `M` without any attack
    /// (both endpoints non-attacked), per protocol.
    pub fn no_attack_p(&self, protocol: ProtocolVariant) -> f64 {
        match protocol {
            ProtocolVariant::Push => self.push_u,
            ProtocolVariant::Pull => self.pull_u,
            ProtocolVariant::Drum => 1.0 - (1.0 - self.push_u) * (1.0 - self.pull_u),
        }
    }
}

/// Computes all four per-pair probabilities (§C.2.1–C.2.2).
///
/// `x` is the total fabricated-message rate per attacked process per round;
/// Drum splits it `x/2` push + `x/2` pull, Push and Pull take all of it on
/// their single channel (§5).
pub fn pair_probabilities(
    protocol: ProtocolVariant,
    params: &DetailedParams,
    x: u64,
) -> PairProbabilities {
    let lf = LogFactorial::up_to(params.n + x as usize + 4);
    let (x_push, x_pull) = match protocol {
        ProtocolVariant::Drum => (x / 2, x - x / 2),
        ProtocolVariant::Push => (x, 0),
        ProtocolVariant::Pull => (0, x),
    };

    let q_push = params.view_push as f64 / (params.n - 1) as f64;
    let q_pull = params.view_pull as f64 / (params.n - 1) as f64;
    let ok = 1.0 - params.loss;

    let (push_u, push_a) = if params.view_push > 0 {
        let d_u = discard_prob(&lf, params, params.view_push, params.f_in_push);
        let d_a = discard_prob_attacked(&lf, params, params.view_push, params.f_in_push, x_push);
        (q_push * ok * (1.0 - d_u), q_push * ok * (1.0 - d_a))
    } else {
        (0.0, 0.0)
    };

    let (pull_u, pull_a) = if params.view_pull > 0 {
        let d_u = discard_prob(&lf, params, params.view_pull, params.f_in_pull);
        let d_a = discard_prob_attacked(&lf, params, params.view_pull, params.f_in_pull, x_pull);
        // Pull needs the request (1 loss draw) and the reply (a second one).
        (
            q_pull * ok * ok * (1.0 - d_u),
            q_pull * ok * ok * (1.0 - d_a),
        )
    } else {
        (0.0, 0.0)
    };

    PairProbabilities {
        push_u,
        push_a,
        pull_u,
        pull_a,
    }
}

/// Result of a recursion run: per-round expected number (and fraction) of
/// correct processes holding `M`. Index 0 is round 0 (only the source).
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationCurve {
    /// Expected number of correct processes with `M` at round start.
    pub expected: Vec<f64>,
    /// `expected` divided by the number of correct processes.
    pub fraction: Vec<f64>,
}

impl PropagationCurve {
    /// First round at which the expected fraction reaches `threshold`
    /// (e.g. 0.99), if it does within the computed horizon.
    pub fn rounds_to_fraction(&self, threshold: f64) -> Option<usize> {
        self.fraction.iter().position(|f| *f >= threshold)
    }
}

/// No-attack recursion (§C.2.1): evolves the distribution of `S_r` — the
/// number of correct processes holding `M` — for `rounds` rounds.
///
/// `p` is the per-pair per-round transmission probability
/// ([`PairProbabilities::no_attack_p`]).
#[allow(clippy::needless_range_loop)] // the indices couple several arrays
pub fn propagation_no_attack(params: &DetailedParams, p: f64, rounds: usize) -> PropagationCurve {
    let nb = params.correct();
    let lf = LogFactorial::up_to(nb + 1);
    let q = 1.0 - p;
    // dist[i] = Pr(S_r = i), i in 0..=nb (index 0 unused; source always has M).
    let mut dist = vec![0.0f64; nb + 1];
    dist[1] = 1.0;
    let mut expected = Vec::with_capacity(rounds + 1);
    expected.push(1.0);

    for _ in 0..rounds {
        let mut next = vec![0.0f64; nb + 1];
        for (i, mass) in dist.iter().enumerate() {
            if *mass <= 1e-15 || i == 0 {
                continue;
            }
            // Each of the nb - i uninformed processes independently fails to
            // receive M from all i informed ones with probability q^i.
            let q_i = pow_one_minus(p, i as f64); // (1-p)^i
            let p_new = 1.0 - q_i;
            let remaining = nb - i;
            for j in i..=nb {
                let pmf = lf.binom_pmf(remaining, j - i, p_new);
                if pmf > 0.0 {
                    next[j] += mass * pmf;
                }
            }
        }
        let _ = q; // q documented for clarity; pow_one_minus used instead
        dist = next;
        let e: f64 = dist.iter().enumerate().map(|(i, m)| i as f64 * m).sum();
        expected.push(e);
    }

    let fraction = expected.iter().map(|e| e / nb as f64).collect();
    PropagationCurve { expected, fraction }
}

/// Under-attack joint recursion (§C.2.2): evolves the joint distribution of
/// `(S^u_r, S^a_r)` — non-attacked / attacked correct processes holding `M`
/// — for `rounds` rounds. The source is attacked (`S^a_0 = 1`).
///
/// `alpha_n` is the number of attacked correct processes. Returns the curve
/// of `E[S_r] = E[S^u_r] + E[S^a_r]`, plus the two component curves.
///
/// # Panics
///
/// Panics if `alpha_n` is 0 or exceeds the number of correct processes.
#[allow(clippy::needless_range_loop)] // the indices couple several arrays
pub fn propagation_under_attack(
    params: &DetailedParams,
    probs: &PairProbabilities,
    protocol: ProtocolVariant,
    alpha_n: usize,
    rounds: usize,
) -> AttackCurves {
    let nb = params.correct();
    assert!(alpha_n >= 1 && alpha_n <= nb, "alpha_n out of range");
    let n_u = nb - alpha_n; // non-attacked correct
    let n_a = alpha_n; // attacked correct
    let lf = LogFactorial::up_to(nb + 1);

    // Probability that a given *uninformed* process fails to obtain M this
    // round, given (i_u, i_a) informed processes, by target class (§C.2.2).
    let q_star = |i_u: usize, i_a: usize| -> (f64, f64) {
        let iu = i_u as f64;
        let ia = i_a as f64;
        match protocol {
            ProtocolVariant::Push => (
                pow_one_minus(probs.push_u, iu + ia),
                pow_one_minus(probs.push_a, iu + ia),
            ),
            ProtocolVariant::Pull => {
                let q = pow_one_minus(probs.pull_u, iu) * pow_one_minus(probs.pull_a, ia);
                (q, q)
            }
            ProtocolVariant::Drum => {
                let pull_part = pow_one_minus(probs.pull_u, iu) * pow_one_minus(probs.pull_a, ia);
                (
                    pow_one_minus(probs.push_u, iu + ia) * pull_part,
                    pow_one_minus(probs.push_a, iu + ia) * pull_part,
                )
            }
        }
    };

    // Joint distribution, flattened: dist[iu * (n_a + 1) + ia].
    let width = n_a + 1;
    let mut dist = vec![0.0f64; (n_u + 1) * width];
    dist[1] = 1.0; // (i_u = 0, i_a = 1): the attacked source.

    let mut e_u = vec![0.0f64];
    let mut e_a = vec![1.0f64];

    let mut pu_buf = vec![0.0f64; n_u + 1];
    let mut pa_buf = vec![0.0f64; n_a + 1];

    for _ in 0..rounds {
        let mut next = vec![0.0f64; (n_u + 1) * width];
        for i_u in 0..=n_u {
            for i_a in 0..=n_a {
                let mass = dist[i_u * width + i_a];
                if mass <= 1e-15 {
                    continue;
                }
                let (q_u, q_a) = q_star(i_u, i_a);
                let p_u_new = 1.0 - q_u;
                let p_a_new = 1.0 - q_a;
                // Transition pmfs for the two independent classes.
                for (j, slot) in pu_buf.iter_mut().enumerate() {
                    *slot = if j < i_u {
                        0.0
                    } else {
                        lf.binom_pmf(n_u - i_u, j - i_u, p_u_new)
                    };
                }
                for (j, slot) in pa_buf.iter_mut().enumerate() {
                    *slot = if j < i_a {
                        0.0
                    } else {
                        lf.binom_pmf(n_a - i_a, j - i_a, p_a_new)
                    };
                }
                for j_u in i_u..=n_u {
                    let m_u = mass * pu_buf[j_u];
                    if m_u <= 1e-18 {
                        continue;
                    }
                    let row = j_u * width;
                    for j_a in i_a..=n_a {
                        next[row + j_a] += m_u * pa_buf[j_a];
                    }
                }
            }
        }
        dist = next;
        let mut eu = 0.0;
        let mut ea = 0.0;
        for i_u in 0..=n_u {
            for i_a in 0..=n_a {
                let m = dist[i_u * width + i_a];
                eu += i_u as f64 * m;
                ea += i_a as f64 * m;
            }
        }
        e_u.push(eu);
        e_a.push(ea);
    }

    let expected: Vec<f64> = e_u.iter().zip(e_a.iter()).map(|(u, a)| u + a).collect();
    let fraction = expected.iter().map(|e| e / nb as f64).collect();
    AttackCurves {
        total: PropagationCurve { expected, fraction },
        expected_unattacked: e_u,
        expected_attacked: e_a,
        n_unattacked: n_u,
        n_attacked: n_a,
    }
}

/// Output of [`propagation_under_attack`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttackCurves {
    /// Combined curve over all correct processes.
    pub total: PropagationCurve,
    /// `E[S^u_r]` per round.
    pub expected_unattacked: Vec<f64>,
    /// `E[S^a_r]` per round.
    pub expected_attacked: Vec<f64>,
    /// Number of non-attacked correct processes.
    pub n_unattacked: usize,
    /// Number of attacked correct processes.
    pub n_attacked: usize,
}

/// Convenience: full Figure 14-style analysis — CDF of the expected fraction
/// of correct processes holding `M` per round, for the given protocol and
/// attack `(alpha_n attacked, x fabricated per attacked process per round)`.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn analysis_cdf(
    protocol: ProtocolVariant,
    n: usize,
    b: usize,
    loss: f64,
    fan_out: usize,
    alpha_n: usize,
    x: u64,
    rounds: usize,
) -> Vec<f64> {
    let params = DetailedParams::paper(protocol, n, b, loss, fan_out);
    if alpha_n == 0 || x == 0 {
        let probs = pair_probabilities(protocol, &params, 0);
        propagation_no_attack(&params, probs.no_attack_p(protocol), rounds).fraction
    } else {
        let probs = pair_probabilities(protocol, &params, x);
        propagation_under_attack(&params, &probs, protocol, alpha_n, rounds)
            .total
            .fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drum_core::config::ProtocolVariant::{Drum, Pull, Push};

    fn paper_params(p: ProtocolVariant) -> DetailedParams {
        DetailedParams::paper(p, 120, 12, 0.01, 4)
    }

    #[test]
    fn params_constructor() {
        let d = paper_params(Drum);
        assert_eq!(d.view_push, 2);
        assert_eq!(d.view_pull, 2);
        assert_eq!(d.correct(), 108);
        let p = paper_params(Push);
        assert_eq!(p.view_push, 4);
        assert_eq!(p.view_pull, 0);
        let l = paper_params(Pull);
        assert_eq!(l.view_pull, 4);
    }

    #[test]
    #[should_panic(expected = "evenly")]
    fn drum_rejects_odd_fan_out() {
        DetailedParams::paper(Drum, 100, 0, 0.0, 5);
    }

    #[test]
    fn pair_probabilities_in_range() {
        for proto in [Drum, Push, Pull] {
            let params = paper_params(proto);
            for &x in &[0u64, 32, 128] {
                let pr = pair_probabilities(proto, &params, x);
                for v in [pr.push_u, pr.push_a, pr.pull_u, pr.pull_a] {
                    assert!((0.0..=1.0).contains(&v), "{proto} x={x}: {v}");
                }
            }
        }
    }

    #[test]
    fn attack_reduces_success_probability() {
        let params = paper_params(Drum);
        let clean = pair_probabilities(Drum, &params, 0);
        let attacked = pair_probabilities(Drum, &params, 128);
        assert!(attacked.push_a < clean.push_u);
        assert!(attacked.pull_a < clean.pull_u);
        // Non-attacked probabilities are unaffected by x.
        assert!((attacked.push_u - clean.push_u).abs() < 1e-12);
        assert!((attacked.pull_u - clean.pull_u).abs() < 1e-12);
    }

    #[test]
    fn no_attack_curve_is_monotone_and_converges() {
        let params = paper_params(Drum);
        let probs = pair_probabilities(Drum, &params, 0);
        let curve = propagation_no_attack(&params, probs.no_attack_p(Drum), 30);
        for w in curve.fraction.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "fraction must be non-decreasing");
        }
        assert!(
            curve.fraction[30] > 0.99,
            "should converge: {}",
            curve.fraction[30]
        );
        assert!(curve.rounds_to_fraction(0.99).is_some());
    }

    #[test]
    fn push_faster_than_pull_without_attack_slightly() {
        // Failure-free: all three protocols converge in O(log n) rounds.
        for proto in [Drum, Push, Pull] {
            let params = DetailedParams::paper(proto, 120, 0, 0.01, 4);
            let probs = pair_probabilities(proto, &params, 0);
            let curve = propagation_no_attack(&params, probs.no_attack_p(proto), 25);
            let r = curve.rounds_to_fraction(0.99);
            assert!(r.is_some() && r.unwrap() <= 15, "{proto}: {r:?}");
        }
    }

    #[test]
    fn under_attack_drum_beats_push_and_pull() {
        // The Figure 14(c) setting: n = 120, alpha = 10%, x = 128.
        let mut rounds_to_99 = std::collections::HashMap::new();
        for proto in [Drum, Push, Pull] {
            let frac = analysis_cdf(proto, 120, 12, 0.01, 4, 12, 128, 60);
            let r = frac.iter().position(|f| *f >= 0.99).unwrap_or(usize::MAX);
            rounds_to_99.insert(proto, r);
        }
        let drum = rounds_to_99[&Drum];
        let push = rounds_to_99[&Push];
        let pull = rounds_to_99[&Pull];
        assert!(drum < push, "drum {drum} !< push {push}");
        assert!(drum < pull, "drum {drum} !< pull {pull}");
    }

    #[test]
    fn attack_curves_mass_is_conserved() {
        let params = paper_params(Drum);
        let probs = pair_probabilities(Drum, &params, 64);
        let curves = propagation_under_attack(&params, &probs, Drum, 12, 10);
        // Expected totals never exceed the population and never decrease.
        for w in curves.total.expected.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        assert!(curves.total.expected.last().unwrap() <= &(params.correct() as f64 + 1e-6));
        assert_eq!(curves.n_unattacked, 96);
        assert_eq!(curves.n_attacked, 12);
    }

    #[test]
    fn stronger_attack_slows_push_but_not_drum() {
        // Lemma 1 vs Corollary 1 in the detailed model.
        let r = |proto: ProtocolVariant, x: u64| {
            analysis_cdf(proto, 120, 12, 0.01, 4, 12, x, 120)
                .iter()
                .position(|f| *f >= 0.99)
                .unwrap_or(999)
        };
        let drum_64 = r(Drum, 64);
        let drum_256 = r(Drum, 256);
        let push_64 = r(Push, 64);
        let push_256 = r(Push, 256);
        assert!(
            drum_256 <= drum_64 + 2,
            "Drum ~constant: {drum_64} -> {drum_256}"
        );
        assert!(
            push_256 > push_64 + 4,
            "Push grows: {push_64} -> {push_256}"
        );
    }

    #[test]
    fn thinning_identity_matches_double_sum() {
        // Cross-check the binomial-thinning shortcut against the paper's
        // double sum for a small instance.
        let params = DetailedParams {
            n: 12,
            b: 2,
            loss: 0.1,
            view_push: 2,
            view_pull: 2,
            f_in_push: 2,
            f_in_pull: 2,
        };
        let lf = LogFactorial::up_to(64);
        let nb = params.correct();
        let qv = params.view_push as f64 / (params.n - 1) as f64;
        let thinned = y_dist_given_arrival(&lf, &params, params.view_push);
        for y in 1..nb {
            // Double sum per the paper.
            let mut direct = 0.0;
            for z in y..nb {
                let pz = lf.binom_pmf(nb - 2, z - 1, qv);
                let py = lf.binom_pmf(z - 1, y - 1, 1.0 - params.loss);
                direct += pz * py;
            }
            assert!((thinned[y - 1] - direct).abs() < 1e-12, "y = {y}");
        }
    }
}
