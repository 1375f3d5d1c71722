//! Closed-form numerical analysis of gossip-based multicast under DoS
//! attacks — the mathematics of the Drum paper (Badishi, Keidar, Sasson,
//! DSN 2004), appendices A–C and §6.
//!
//! * [`appendix_a`] — acceptance probabilities `p_u`, `p_a` (Figure 1);
//! * [`appendix_b`] — `p̃`, the probability that a message escapes an
//!   attacked source under Pull (explains Pull's latency tail);
//! * [`appendix_c`] — the detailed Markov recursion on the number of
//!   processes holding a message, with loss, crashes and attacks
//!   (Figures 13–14);
//! * [`asymptotic`] — §6 effective fan-in/out rates, the Push/Pull lower
//!   bounds (Lemmas 4 and 6) and Lemma 2's intensity normalization;
//! * [`logmath`] — exact log-domain combinatorics underneath it all.
//!
//! Everything is pure `f64` computation: no simulation, no randomness, and
//! results are deterministic and fast enough to regenerate every analysis
//! figure of the paper in milliseconds.
//!
//! # Examples
//!
//! Reproducing the headline claim of Figure 3(a) analytically — Drum's
//! propagation time under a 10% targeted attack is flat in the attack
//! strength, while Push's lower bound grows linearly:
//!
//! ```
//! use drum_analysis::appendix_c::analysis_cdf;
//! use drum_core::config::ProtocolVariant;
//!
//! let rounds = |proto, x| {
//!     analysis_cdf(proto, 120, 12, 0.01, 4, 12, x, 100)
//!         .iter().position(|f| *f >= 0.99).unwrap()
//! };
//! let drum_weak = rounds(ProtocolVariant::Drum, 32);
//! let drum_strong = rounds(ProtocolVariant::Drum, 256);
//! assert!(drum_strong <= drum_weak + 2); // flat
//!
//! let push_weak = rounds(ProtocolVariant::Push, 32);
//! let push_strong = rounds(ProtocolVariant::Push, 256);
//! assert!(push_strong > push_weak + 4); // grows
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appendix_a;
pub mod appendix_b;
pub mod appendix_c;
pub mod asymptotic;
pub mod logmath;

pub use appendix_a::{p_a, p_a_upper_bound, p_u};
pub use appendix_b::{expected_rounds_to_leave_source, p_tilde, prob_stuck_after};
pub use appendix_c::{
    analysis_cdf, pair_probabilities, propagation_no_attack, propagation_under_attack,
    AttackCurves, DetailedParams, PairProbabilities, PropagationCurve,
};
pub use asymptotic::{
    attack_intensity, effective_rates, effective_rates_for, pull_source_exit_lower_bound,
    push_propagation_lower_bound, EffectiveRates, Proto,
};

#[cfg(test)]
mod proptests {
    use crate::appendix_a::{p_a, p_u};
    use crate::appendix_c::{pair_probabilities, DetailedParams};
    use crate::logmath::LogFactorial;
    use drum_core::config::ProtocolVariant::{Drum, Pull, Push};
    use drum_testkit::prop::{check, Config};
    use drum_testkit::prop_assert;

    #[test]
    fn p_u_always_in_unit_interval() {
        check("p_u_always_in_unit_interval", Config::with_cases(64), |g| {
            let n = g.usize_in(10..400);
            let f = g.usize_in(1..8);
            let v = p_u(n, f);
            prop_assert!((0.0..=1.0).contains(&v));
            Ok(())
        });
    }

    #[test]
    fn p_a_below_bound_and_in_range() {
        check(
            "p_a_below_bound_and_in_range",
            Config::with_cases(64),
            |g| {
                let n = g.usize_in(10..300);
                let f = g.usize_in(1..6);
                let x = g.u64_in(1..600);
                let v = p_a(n, f, x);
                prop_assert!((0.0..=1.0).contains(&v));
                if x >= f as u64 {
                    prop_assert!(v <= f as f64 / x as f64 + 1e-12);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn binom_mass_conserved() {
        check("binom_mass_conserved", Config::with_cases(64), |g| {
            let n = g.usize_in(0..200);
            // f64_in is half-open; nudge the span so p = 1.0 stays reachable.
            let p = g.f64_in(0.0..1.0 + f64::EPSILON).min(1.0);
            let lf = LogFactorial::up_to(n);
            let total: f64 = (0..=n).map(|k| lf.binom_pmf(n, k, p)).sum();
            prop_assert!((total - 1.0).abs() < 1e-8);
            Ok(())
        });
    }

    #[test]
    fn pair_probabilities_valid() {
        check("pair_probabilities_valid", Config::with_cases(64), |g| {
            let x = g.u64_in(0..300);
            let b = g.usize_in(0..20);
            for proto in [Drum, Push, Pull] {
                let params = DetailedParams::paper(proto, 120, b, 0.01, 4);
                let pr = pair_probabilities(proto, &params, x);
                for v in [pr.push_u, pr.push_a, pr.pull_u, pr.pull_a] {
                    prop_assert!((0.0..=1.0).contains(&v));
                }
                // Attacked never beats non-attacked.
                prop_assert!(pr.push_a <= pr.push_u + 1e-12);
                prop_assert!(pr.pull_a <= pr.pull_u + 1e-12);
            }
            Ok(())
        });
    }
}
