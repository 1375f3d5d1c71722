//! How the simulator interprets an [`AdversaryKind`] (extension beyond the
//! paper).
//!
//! The paper's adversary is a *static* flood: a fixed set of attacked
//! processes each receives `x` fabricated messages per round, split across
//! the protocol's channels (§5). Drum's resource-bound argument is only
//! convincing if it also survives adversaries that *adapt* — that chase
//! targets, concentrate their budget, or game a specific channel instead
//! of flooding blindly. The model asks the configured kind two things:
//! `retarget` once per round for the attacked set, and `rates` once
//! per trial for the per-target per-channel fabrication rates.
//!
//! Determinism contract: retargeting's only entropy source is the round's
//! control `SmallRng`, drawn in a fixed order — that keeps fixed-seed
//! trials byte-identical across `DRUM_POOL_THREADS` worker counts (the
//! same recipe as the runner, see `runner.rs`). [`AdversaryKind::Static`]
//! draws nothing, so all paper figures keep their random stream.

use rand::rngs::SmallRng;

use drum_core::BitSet;

pub use drum_core::AdversaryKind;

use crate::config::SimConfig;
use crate::sampling::sample_targets_any;

/// What retargeting may observe. Everything here is honest observable
/// state: which processes exist and which already hold `M` (an adversary
/// watching traffic can infer the frontier).
#[derive(Debug)]
pub(crate) struct TargetView<'a> {
    /// Current round (1-based; `retarget` runs at the top of the round).
    pub round: u32,
    /// Configured attacked-set size `attacked` (the budget in targets).
    pub k: usize,
    /// Number of correct processes. Under the fixed role layout the
    /// correct processes are exactly ids `0..n_correct` (fixed for the
    /// trial), so a count replaces the old 8-bytes-per-member index list —
    /// part of the struct-of-arrays shrink that lets n = 10^6 trials stay
    /// cache-resident.
    pub n_correct: usize,
    /// Which processes currently hold `M`, indexed by process id.
    pub has_m: &'a BitSet,
}

/// Top-of-round targeting for `kind`. Returning `true` replaces the
/// attacked set with the *correct process ids* (in `0..view.n_correct`)
/// written to `out`; `false` leaves the targets unchanged (the model then
/// ignores `out`). All randomness comes from `rng`, drawn in a fixed order.
///
/// * `Static`, `PullAbuse`, `Replay` — never retarget.
/// * `TargetChasing { every }` — every `every` rounds, a `k`-subset of the
///   correct processes that do not yet hold `M` (topped up with random
///   holders when fewer than `k` remain uninfected).
/// * `Eclipse` — one-shot placement on the source (correct index 0) in the
///   trial's first round.
pub(crate) fn retarget(
    kind: AdversaryKind,
    view: &TargetView<'_>,
    rng: &mut SmallRng,
    out: &mut Vec<usize>,
) -> bool {
    match kind {
        AdversaryKind::Static | AdversaryKind::PullAbuse | AdversaryKind::Replay => false,
        AdversaryKind::TargetChasing { every } => {
            if !view.round.is_multiple_of(every) {
                return false;
            }
            chase_frontier(view, rng, out);
            true
        }
        AdversaryKind::Eclipse => {
            if view.round != 1 {
                return false;
            }
            out.clear();
            out.push(0); // the source is always correct index 0
            true
        }
    }
}

/// Frontier chase: partition the correct ids, without-`M` first. Both
/// sides keep their ascending order so the RNG-consuming samples are the
/// only nondeterminism.
fn chase_frontier(view: &TargetView<'_>, rng: &mut SmallRng, out: &mut Vec<usize>) {
    out.clear();
    let without: Vec<usize> = (0..view.n_correct)
        .filter(|&ci| !view.has_m.get(ci))
        .collect();
    if without.len() >= view.k {
        // Uniform k-subset of the frontier.
        let mut picks = Vec::new();
        sample_targets_any(without.len(), view.k, rng, &mut picks);
        out.extend(picks.into_iter().map(|p| without[p]));
    } else {
        // Chase everything uninfected, fill the rest from the holders.
        out.extend(without.iter().copied());
        let holders: Vec<usize> = (0..view.n_correct)
            .filter(|&ci| view.has_m.get(ci))
            .collect();
        let need = view.k.min(view.n_correct) - out.len();
        let mut picks = Vec::new();
        sample_targets_any(holders.len(), need, rng, &mut picks);
        out.extend(picks.into_iter().map(|p| holders[p]));
    }
}

/// Per-target per-round fabrication rates `(x_push, x_pull)` of `cfg`'s
/// adversary. The static split is [`SimConfig::x_push`]/[`SimConfig::x_pull`];
/// eclipse lands the whole group budget `B = x·attacked` on its one victim;
/// pull-abuse moves the push half onto the pull channel. Replay keeps the
/// static rates: at the acceptance-budget layer replays contend for the
/// same slots as fabrications before authentication runs.
pub(crate) fn rates(cfg: &SimConfig) -> (f64, f64) {
    match cfg.adversary() {
        AdversaryKind::Static | AdversaryKind::TargetChasing { .. } | AdversaryKind::Replay => {
            (cfg.x_push(), cfg.x_pull())
        }
        AdversaryKind::Eclipse => {
            let k = cfg.attacked().max(1) as f64;
            (cfg.x_push() * k, cfg.x_pull() * k)
        }
        AdversaryKind::PullAbuse => (0.0, cfg.x_rate()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drum_core::ProtocolVariant;
    use rand::SeedableRng;

    fn paper(kind: AdversaryKind) -> SimConfig {
        SimConfig::paper_attack(ProtocolVariant::Drum, 120, 128.0).with_adversary(kind)
    }

    #[test]
    fn static_strategy_preserves_paper_rates() {
        assert_eq!(rates(&paper(AdversaryKind::Static)), (64.0, 64.0));
    }

    #[test]
    fn eclipse_concentrates_the_group_budget() {
        // 12 attacked × x/2 per channel → 768 per channel on the one victim.
        assert_eq!(rates(&paper(AdversaryKind::Eclipse)), (768.0, 768.0));
        let mut rng = SmallRng::seed_from_u64(1);
        let has_m = BitSet::new(120);
        let view = |round| TargetView {
            round,
            k: 12,
            n_correct: 108,
            has_m: &has_m,
        };
        let kind = AdversaryKind::Eclipse;
        let mut out = Vec::new();
        assert!(retarget(kind, &view(1), &mut rng, &mut out));
        assert_eq!(out, vec![0]);
        // Placement is one-shot.
        assert!(!retarget(kind, &view(2), &mut rng, &mut out));
    }

    #[test]
    fn pull_abuse_reroutes_the_whole_budget() {
        assert_eq!(rates(&paper(AdversaryKind::PullAbuse)), (0.0, 128.0));
    }

    #[test]
    fn chase_prefers_uninfected_targets() {
        let kind = AdversaryKind::TargetChasing { every: 1 };
        let mut rng = SmallRng::seed_from_u64(7);
        let mut has_m = BitSet::new(20);
        // 17 of 20 already hold M; only 3 are frontier.
        for i in 0..17 {
            has_m.set(i);
        }
        let view = TargetView {
            round: 1,
            k: 5,
            n_correct: 20,
            has_m: &has_m,
        };
        let mut out = Vec::new();
        assert!(retarget(kind, &view, &mut rng, &mut out));
        assert_eq!(out.len(), 5);
        // All 3 frontier processes must be chased.
        for frontier in [17usize, 18, 19] {
            assert!(out.contains(&frontier), "missing frontier {frontier}");
        }
    }

    #[test]
    fn chase_cadence_is_respected() {
        let kind = AdversaryKind::TargetChasing { every: 3 };
        let mut rng = SmallRng::seed_from_u64(7);
        let has_m = BitSet::new(10);
        let mut out = Vec::new();
        for round in 1..=6 {
            let view = TargetView {
                round,
                k: 2,
                n_correct: 10,
                has_m: &has_m,
            };
            let fired = retarget(kind, &view, &mut rng, &mut out);
            assert_eq!(fired, round % 3 == 0, "round {round}");
        }
    }
}
