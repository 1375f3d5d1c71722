//! Trial execution and aggregation.
//!
//! Each data point in the paper's simulation figures averages 1000
//! independent runs. [`run_experiment`] executes trials in parallel
//! ([`crate::par`]) with per-trial deterministic seeds, so every figure is
//! exactly reproducible from `(config, base_seed, trials)`.
//!
//! # Deterministic reduction under dynamic scheduling
//!
//! Threads claim chunks of trials dynamically (whichever thread frees
//! next takes the next chunk), so nothing about *which* thread ran a
//! trial or *when* may leak into the result. The reduction is therefore
//! arranged so the float operations happen in one fixed order regardless
//! of thread count:
//!
//! 1. trial `i` always uses seed `base_seed + i` — the trial itself is a
//!    pure function of `(cfg, seed)`;
//! 2. trials are grouped into chunks whose size is a pure function of
//!    `trials` alone ([`chunk_size`]), never of the thread count;
//! 3. each chunk absorbs its trials in ascending trial order into its own
//!    fixed-index `Partial` (Welford pushes are order-sensitive);
//! 4. chunk partials are merged in ascending chunk order on the calling
//!    thread.
//!
//! Every float sees the same operands in the same order whether trials
//! run on 1 thread or 64, so `ExperimentResult` is *byte-identical* across
//! `DRUM_POOL_THREADS` settings — pinned by the thread-count-independence
//! property test in `tests/pool_determinism.rs`.

use drum_metrics::stats::RunningStats;

use crate::config::SimConfig;
use crate::model::SimState;
use crate::par;

/// Outcome of a single simulated trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// First round at which ≥ `threshold` of the correct processes held
    /// `M`; `None` if `max_rounds` was hit first.
    pub rounds_to_threshold: Option<u32>,
    /// Same threshold restricted to attacked correct processes.
    pub rounds_attacked: Option<u32>,
    /// Same threshold restricted to non-attacked correct processes.
    pub rounds_unattacked: Option<u32>,
    /// Rounds the trial actually simulated before stopping (threshold
    /// reached and CDF recorded, or `max_rounds`). This is the trial's
    /// deterministic cost in scheduler units — the straggler spread
    /// dynamic claiming exists to absorb.
    pub rounds_executed: u32,
    /// Fraction of correct processes holding `M` after each round
    /// (index 0 = after round 1), recorded up to `cdf_rounds`.
    pub fraction_per_round: Vec<f64>,
}

/// Runs one trial of `cfg` with the given `seed`, recording per-round
/// fractions for the first `cdf_rounds` rounds.
pub fn run_trial(cfg: &SimConfig, seed: u64, cdf_rounds: usize) -> TrialOutcome {
    run_trial_traced(cfg, seed, cdf_rounds, drum_trace::Tracer::disabled())
}

/// Like [`run_trial`], but emits round-stamped events through `tracer`.
///
/// Tracing never touches the RNG, so a traced trial evolves identically
/// to an untraced one with the same seed; with a deterministic sink the
/// emitted trace is byte-stable across runs (the golden-trace oracle).
pub fn run_trial_traced(
    cfg: &SimConfig,
    seed: u64,
    cdf_rounds: usize,
    tracer: drum_trace::Tracer,
) -> TrialOutcome {
    let mut state = SimState::new(cfg.clone());
    state.set_tracer(tracer);
    run_trial_in(&mut state, seed, cdf_rounds)
}

/// Trial driver over a caller-owned [`SimState`] — the state's scratch
/// (tallies, bitsets, request lists) is reused across calls via
/// [`SimState::reset`], so a sweep's worth of trials allocates its
/// working set once.
fn run_trial_in(state: &mut SimState, seed: u64, cdf_rounds: usize) -> TrialOutcome {
    let cfg = state.config().clone();
    let threshold = cfg.threshold;

    let n_attacked = cfg.attacked();
    let n_correct = cfg.correct();
    let n_unattacked = n_correct - n_attacked;
    let need_total = (threshold * n_correct as f64).ceil() as usize;
    let need_attacked = if n_attacked > 0 {
        (threshold * n_attacked as f64).ceil() as usize
    } else {
        0
    };
    let need_unattacked = if n_unattacked > 0 {
        (threshold * n_unattacked as f64).ceil() as usize
    } else {
        0
    };

    let mut outcome = TrialOutcome {
        rounds_to_threshold: None,
        rounds_attacked: if n_attacked == 0 { Some(0) } else { None },
        rounds_unattacked: if n_unattacked == 0 { Some(0) } else { None },
        rounds_executed: 0,
        fraction_per_round: Vec::with_capacity(cdf_rounds),
    };

    for round in 1..=cfg.max_rounds {
        state.step(seed);
        outcome.rounds_executed = round;
        let with_m = state.correct_with_m();
        if (round as usize) <= cdf_rounds {
            outcome
                .fraction_per_round
                .push(cfg.fraction_of_correct(with_m));
        }
        if outcome.rounds_to_threshold.is_none() && with_m >= need_total {
            outcome.rounds_to_threshold = Some(round);
        }
        if outcome.rounds_attacked.is_none() && state.attacked_with_m() >= need_attacked {
            outcome.rounds_attacked = Some(round);
        }
        if outcome.rounds_unattacked.is_none() && state.unattacked_with_m() >= need_unattacked {
            outcome.rounds_unattacked = Some(round);
        }
        let done = outcome.rounds_to_threshold.is_some()
            && outcome.rounds_attacked.is_some()
            && outcome.rounds_unattacked.is_some()
            && (round as usize) >= cdf_rounds;
        if done {
            break;
        }
    }

    // Pad the CDF tail with the final value so ragged trials average
    // correctly.
    let last = outcome
        .fraction_per_round
        .last()
        .copied()
        .unwrap_or_else(|| cfg.fraction_of_correct(state.correct_with_m()));
    while outcome.fraction_per_round.len() < cdf_rounds {
        outcome
            .fraction_per_round
            .push(last.max(state.fraction_with_m()));
    }

    outcome
}

/// Aggregated results of many trials of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Trials executed.
    pub trials: usize,
    /// Trials that never reached the threshold within `max_rounds`.
    pub failures: usize,
    /// Rounds to the overall threshold.
    pub rounds: RunningStats,
    /// Rounds to the threshold among attacked correct processes.
    pub rounds_attacked: RunningStats,
    /// Rounds to the threshold among non-attacked correct processes.
    pub rounds_unattacked: RunningStats,
    /// Mean fraction of correct processes holding `M` after each round
    /// (the CDF curves of Figures 5, 13, 14).
    pub avg_fraction_per_round: Vec<f64>,
}

impl ExperimentResult {
    /// Mean rounds to the threshold (successful trials only).
    pub fn mean_rounds(&self) -> f64 {
        self.rounds.mean()
    }

    /// Standard deviation of the rounds to the threshold.
    pub fn std_rounds(&self) -> f64 {
        self.rounds.population_std()
    }
}

/// The scheduling unit: trials per claimed chunk, a **pure function of
/// `trials`** so the reduction order never depends on the machine.
/// Small experiments get chunk 1 (maximum redistribution); large ones
/// cap at 16 trials per job, which at the paper's 1000-trial points
/// yields 63 jobs per config — plenty of slack for dynamic scheduling
/// while keeping claim overhead negligible.
pub fn chunk_size(trials: usize) -> usize {
    trials.div_ceil(64).clamp(1, 16)
}

/// Runs `trials` trials of **every** config in `cfgs` as one flat set of
/// chunks on up to `threads` threads, and aggregates per config. This is
/// the primitive sweeps build on: claiming (config × chunk) items from one
/// set means no thread idles at a sweep-point boundary — fast points'
/// threads move straight onto the next point's trials.
///
/// Trial `i` of every config uses seed `base_seed + i`; results are
/// byte-identical for any thread count (see the module docs).
///
/// # Panics
///
/// Panics if `trials == 0`, any configuration is invalid, or a trial
/// panics (the first trial panic is re-raised here).
pub fn run_many_on(
    threads: usize,
    cfgs: &[SimConfig],
    trials: usize,
    base_seed: u64,
    cdf_rounds: usize,
) -> Vec<ExperimentResult> {
    assert!(trials > 0, "need at least one trial");
    for cfg in cfgs {
        cfg.validate().expect("invalid simulation config");
    }
    if cfgs.is_empty() {
        return Vec::new();
    }

    let chunk = chunk_size(trials);
    let chunks_per_cfg = trials.div_ceil(chunk);
    let partials: Vec<Partial> = par::map(threads, cfgs.len() * chunks_per_cfg, |job| {
        let cfg = &cfgs[job / chunks_per_cfg];
        let lo = (job % chunks_per_cfg) * chunk;
        let hi = (lo + chunk).min(trials);
        let mut part = Partial::new(cdf_rounds);
        // One SimState per chunk, rewound between trials so scratch
        // capacity (tallies, bitsets, request lists) is reused —
        // [`SimState::reset`] pins this to fresh-state equivalence.
        let mut state = SimState::new(cfg.clone());
        for i in lo..hi {
            if i > lo {
                state.reset();
            }
            let seed = base_seed + i as u64;
            part.absorb(&run_trial_in(&mut state, seed, cdf_rounds));
        }
        part
    });

    partials
        .chunks(chunks_per_cfg)
        .map(|parts| {
            let mut total = Partial::new(cdf_rounds);
            for p in parts {
                total.merge(p);
            }
            total.into_result(trials)
        })
        .collect()
}

/// [`run_many_on`] on [`par::threads`] threads.
pub fn run_many(
    cfgs: &[SimConfig],
    trials: usize,
    base_seed: u64,
    cdf_rounds: usize,
) -> Vec<ExperimentResult> {
    run_many_on(par::threads(), cfgs, trials, base_seed, cdf_rounds)
}

/// Runs `trials` independent trials of `cfg` on [`par::threads`] threads
/// and aggregates.
///
/// Trial `i` uses seed `base_seed + i`, so results are reproducible and
/// independent of thread scheduling and worker count.
///
/// # Panics
///
/// Panics if `trials == 0` or the configuration is invalid.
pub fn run_experiment(
    cfg: &SimConfig,
    trials: usize,
    base_seed: u64,
    cdf_rounds: usize,
) -> ExperimentResult {
    run_many(std::slice::from_ref(cfg), trials, base_seed, cdf_rounds)
        .pop()
        .expect("one config in, one result out")
}

/// Order-sensitive partial aggregate of one chunk of trials.
#[derive(Debug)]
struct Partial {
    failures: usize,
    rounds: RunningStats,
    rounds_attacked: RunningStats,
    rounds_unattacked: RunningStats,
    fraction_sums: Vec<f64>,
}

impl Partial {
    fn new(cdf_rounds: usize) -> Self {
        Partial {
            failures: 0,
            rounds: RunningStats::new(),
            rounds_attacked: RunningStats::new(),
            rounds_unattacked: RunningStats::new(),
            fraction_sums: vec![0.0; cdf_rounds],
        }
    }

    fn absorb(&mut self, outcome: &TrialOutcome) {
        match outcome.rounds_to_threshold {
            Some(r) => self.rounds.push(r as f64),
            None => self.failures += 1,
        }
        if let Some(r) = outcome.rounds_attacked {
            if r > 0 {
                self.rounds_attacked.push(r as f64);
            }
        }
        if let Some(r) = outcome.rounds_unattacked {
            if r > 0 {
                self.rounds_unattacked.push(r as f64);
            }
        }
        for (sum, f) in self
            .fraction_sums
            .iter_mut()
            .zip(&outcome.fraction_per_round)
        {
            *sum += f;
        }
    }

    fn merge(&mut self, other: &Partial) {
        self.failures += other.failures;
        self.rounds.merge(&other.rounds);
        self.rounds_attacked.merge(&other.rounds_attacked);
        self.rounds_unattacked.merge(&other.rounds_unattacked);
        for (a, b) in self.fraction_sums.iter_mut().zip(&other.fraction_sums) {
            *a += b;
        }
    }

    fn into_result(self, trials: usize) -> ExperimentResult {
        let avg_fraction_per_round = self
            .fraction_sums
            .iter()
            .map(|s| s / trials as f64)
            .collect();
        ExperimentResult {
            trials,
            failures: self.failures,
            rounds: self.rounds,
            rounds_attacked: self.rounds_attacked,
            rounds_unattacked: self.rounds_unattacked,
            avg_fraction_per_round,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drum_core::ProtocolVariant;

    #[test]
    fn trial_reaches_threshold_without_attack() {
        let cfg = SimConfig::baseline(ProtocolVariant::Drum, 100);
        let outcome = run_trial(&cfg, 1, 20);
        let r = outcome.rounds_to_threshold.expect("should converge");
        assert!(r <= 20, "took {r} rounds");
        assert_eq!(outcome.fraction_per_round.len(), 20);
        // Fractions are monotone and end at ~1.
        for w in outcome.fraction_per_round.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(*outcome.fraction_per_round.last().unwrap() >= 0.99);
    }

    #[test]
    fn trial_is_deterministic_given_seed() {
        let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 120, 64.0);
        let a = run_trial(&cfg, 11, 15);
        let b = run_trial(&cfg, 11, 15);
        assert_eq!(a, b);
        let c = run_trial(&cfg, 12, 15);
        assert!(a != c || a.rounds_to_threshold == c.rounds_to_threshold);
    }

    #[test]
    fn trial_reports_its_executed_round_cost() {
        let cfg = SimConfig::baseline(ProtocolVariant::Drum, 100);
        let outcome = run_trial(&cfg, 1, 5);
        // The trial ran at least until threshold + CDF, at most max_rounds.
        let r = outcome.rounds_to_threshold.expect("should converge");
        assert!(outcome.rounds_executed >= r.max(5));
        assert!(outcome.rounds_executed <= cfg.max_rounds);

        let mut capped = SimConfig::paper_attack(ProtocolVariant::Pull, 120, 512.0);
        capped.max_rounds = 3;
        let stuck = run_trial(&capped, 1, 2);
        assert_eq!(stuck.rounds_executed, 3);
    }

    #[test]
    fn experiment_aggregates() {
        let cfg = SimConfig::baseline(ProtocolVariant::Push, 80);
        let res = run_experiment(&cfg, 20, 42, 15);
        assert_eq!(res.trials, 20);
        assert_eq!(res.failures, 0);
        assert_eq!(res.rounds.count(), 20);
        assert!(res.mean_rounds() > 1.0 && res.mean_rounds() < 20.0);
        assert_eq!(res.avg_fraction_per_round.len(), 15);
        assert!(res.avg_fraction_per_round[14] > 0.99);
    }

    #[test]
    fn experiment_deterministic_despite_parallelism() {
        let cfg = SimConfig::paper_attack(ProtocolVariant::Pull, 60, 32.0);
        let a = run_experiment(&cfg, 16, 7, 10);
        let b = run_experiment(&cfg, 16, 7, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn run_many_matches_individual_experiments() {
        let cfgs = vec![
            SimConfig::baseline(ProtocolVariant::Drum, 60),
            SimConfig::paper_attack(ProtocolVariant::Push, 60, 32.0),
            SimConfig::paper_attack(ProtocolVariant::Pull, 60, 32.0),
        ];
        let flat = run_many(&cfgs, 12, 5, 8);
        assert_eq!(flat.len(), cfgs.len());
        for (cfg, flat_res) in cfgs.iter().zip(&flat) {
            assert_eq!(flat_res, &run_experiment(cfg, 12, 5, 8));
        }
    }

    #[test]
    fn run_many_with_no_configs_is_empty() {
        assert_eq!(run_many(&[], 4, 0, 4), Vec::new());
    }

    #[test]
    fn chunk_size_is_a_pure_function_of_trials() {
        assert_eq!(chunk_size(1), 1);
        assert_eq!(chunk_size(16), 1);
        assert_eq!(chunk_size(64), 1);
        assert_eq!(chunk_size(65), 2);
        assert_eq!(chunk_size(150), 3);
        assert_eq!(chunk_size(1000), 16);
        assert_eq!(chunk_size(100_000), 16);
        // Job count per config stays >= 63 at the paper's point size, so
        // there is always work to redistribute.
        assert!(1000usize.div_ceil(chunk_size(1000)) >= 63);
    }

    #[test]
    fn attacked_trials_record_subgroup_rounds() {
        let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 120, 64.0);
        let res = run_experiment(&cfg, 8, 3, 10);
        assert!(res.rounds_attacked.count() > 0);
        assert!(res.rounds_unattacked.count() > 0);
        // Non-attacked processes are reached no later on average.
        assert!(res.rounds_unattacked.mean() <= res.rounds_attacked.mean() + 2.0);
    }

    #[test]
    fn hopeless_scenario_counts_failures() {
        // An absurd attack that cannot finish within 2 rounds.
        let mut cfg = SimConfig::paper_attack(ProtocolVariant::Pull, 120, 512.0);
        cfg.max_rounds = 2;
        let res = run_experiment(&cfg, 5, 1, 2);
        assert!(res.failures > 0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let cfg = SimConfig::baseline(ProtocolVariant::Drum, 50);
        run_experiment(&cfg, 0, 0, 5);
    }

    #[test]
    fn traced_trial_matches_untraced() {
        use std::sync::Arc;

        let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 80, 64.0);
        let plain = run_trial(&cfg, 9, 12);

        let sink = Arc::new(drum_trace::MemorySink::new());
        let tracer = drum_trace::Tracer::new(sink.clone());
        let traced = run_trial_traced(&cfg, 9, 12, tracer);

        // Tracing must not perturb the simulation (it never draws from
        // the RNG), and the trial must actually produce events.
        assert_eq!(plain, traced);
        let events = sink.take();
        assert!(events.iter().any(|e| e.name == "sim.start"));
        assert!(events.iter().any(|e| e.name == "round"));
        assert!(events.iter().any(|e| e.name == "deliver"));
    }
}
