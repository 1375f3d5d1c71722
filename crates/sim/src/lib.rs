//! Round-synchronized Monte-Carlo simulator for gossip multicast under
//! crash failures and DoS attacks — the §7 evaluation substrate of the Drum
//! paper (Badishi, Keidar, Sasson, DSN 2004).
//!
//! The simulator tracks the propagation of one message `M` through a group
//! in which every process gossips every round, transmissions are lost
//! independently, reception is bounded per round and per channel, and an
//! adversary floods a chosen subset of the correct processes with
//! fabricated messages ([`config::SimConfig`]).
//!
//! * [`model`] — the per-round protocol dynamics (push, pull, bounds,
//!   random-port ablation);
//! * [`adversary`] — the model's reading of each [`AdversaryKind`]
//!   (static flood, target-chasing, eclipse, pull-abuse, replay);
//! * [`sampling`] — hypergeometric acceptance and view sampling;
//! * [`runner`] — parallel, deterministic multi-trial execution;
//! * [`par`] — the scoped threads the runner spreads trials over;
//! * [`experiments`] — canned sweeps matching Figures 2–8 and 12–14.
//!
//! # Examples
//!
//! Reproducing the headline comparison (Figure 3(a), one point): under a
//! targeted attack with `x = 128`, Drum converges in a handful of rounds
//! while Pull needs far longer:
//!
//! ```
//! use drum_core::ProtocolVariant;
//! use drum_sim::config::SimConfig;
//! use drum_sim::runner::run_experiment;
//!
//! let drum = run_experiment(
//!     &SimConfig::paper_attack(ProtocolVariant::Drum, 120, 128.0), 20, 42, 0);
//! let pull = run_experiment(
//!     &SimConfig::paper_attack(ProtocolVariant::Pull, 120, 128.0), 20, 42, 0);
//! assert!(drum.mean_rounds() < pull.mean_rounds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod config;
pub mod experiments;
pub mod model;
pub mod par;
pub mod runner;
pub mod sampling;

pub use adversary::AdversaryKind;
pub use config::{AttackConfig, Role, SimConfig, SimConfigError};
pub use model::SimState;
pub use runner::{run_experiment, run_trial, run_trial_traced, ExperimentResult, TrialOutcome};

#[cfg(test)]
mod proptests {
    use crate::config::SimConfig;
    use crate::model::SimState;
    use drum_core::ProtocolVariant;
    use drum_testkit::prop::{check, Config, Gen};
    use drum_testkit::{prop_assert, prop_assert_eq};

    fn arb_protocol(g: &mut Gen) -> ProtocolVariant {
        match g.u64_in(0..3) {
            0 => ProtocolVariant::Drum,
            1 => ProtocolVariant::Push,
            _ => ProtocolVariant::Pull,
        }
    }

    #[test]
    fn simulation_invariants() {
        check("simulation_invariants", Config::with_cases(24), |g| {
            let proto = arb_protocol(g);
            let n = g.usize_in(20..80);
            let x = g.f64_in(0.0..200.0);
            let seed = g.u64_in(0..1000);
            let random_ports = g.bool(0.5);

            let mut cfg = if x > 0.0 {
                SimConfig::paper_attack(proto, n, x)
            } else {
                SimConfig::baseline(proto, n)
            };
            cfg.random_ports = random_ports;
            if cfg.validate().is_err() {
                // proptest's `prop_assume!`: discard invalid configurations.
                return Ok(());
            }

            let mut state = SimState::new(cfg.clone());
            let mut prev = state.correct_with_m();
            prop_assert_eq!(prev, 1);
            for _ in 0..12 {
                state.step(seed);
                let now = state.correct_with_m();
                // M never disappears and the count never exceeds the group.
                prop_assert!(now >= prev);
                prop_assert!(now <= cfg.correct());
                prop_assert_eq!(now, state.attacked_with_m() + state.unattacked_with_m());
                prev = now;
            }
            Ok(())
        });
    }

    #[test]
    fn source_always_retains_m() {
        check("source_always_retains_m", Config::with_cases(24), |g| {
            let proto = arb_protocol(g);
            let seed = g.u64_in(0..100);
            let cfg = SimConfig::paper_attack(proto, 40, 64.0);
            let mut state = SimState::new(cfg);
            for _ in 0..8 {
                state.step(seed);
                prop_assert!(state.has_m(0));
            }
            Ok(())
        });
    }
}
