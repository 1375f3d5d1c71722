//! Worker-count independence of the experiment runner, and the
//! straggler-spread regression that motivates dynamic scheduling.
//!
//! The runner's contract (runner.rs module docs): because the chunk size
//! is a pure function of the trial count and chunk partials merge in
//! chunk order, `ExperimentResult` must be **byte-identical** — every
//! float compared via `to_bits` — whether trials run inline on one
//! thread, on 3 threads, or on the default thread count. This is what
//! lets `DRUM_POOL_THREADS=1` CI runs validate the parallel runs.

use drum_core::ProtocolVariant;
use drum_sim::config::SimConfig;
use drum_sim::par;
use drum_sim::runner::{chunk_size, run_experiment, run_many_on, run_trial, ExperimentResult};
use drum_testkit::prop::{self, Config};
use drum_testkit::prop_assert;

/// Bitwise equality for the float-bearing parts of a result; `==` would
/// accept `-0.0 == 0.0` and reject nothing NaN-shaped, while the contract
/// is byte identity.
fn assert_bitwise_eq(a: &ExperimentResult, b: &ExperimentResult, what: &str) {
    assert_eq!(a.trials, b.trials, "{what}: trials");
    assert_eq!(a.failures, b.failures, "{what}: failures");
    for (name, x, y) in [
        ("rounds", &a.rounds, &b.rounds),
        ("rounds_attacked", &a.rounds_attacked, &b.rounds_attacked),
        (
            "rounds_unattacked",
            &a.rounds_unattacked,
            &b.rounds_unattacked,
        ),
    ] {
        assert_eq!(x.count(), y.count(), "{what}: {name} count");
        assert_eq!(
            x.mean().to_bits(),
            y.mean().to_bits(),
            "{what}: {name} mean bits"
        );
        assert_eq!(
            x.population_std().to_bits(),
            y.population_std().to_bits(),
            "{what}: {name} std bits"
        );
    }
    assert_eq!(
        a.avg_fraction_per_round.len(),
        b.avg_fraction_per_round.len(),
        "{what}: cdf length"
    );
    for (i, (x, y)) in a
        .avg_fraction_per_round
        .iter()
        .zip(&b.avg_fraction_per_round)
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: cdf[{i}] bits");
    }
}

fn scenario_mix() -> Vec<SimConfig> {
    vec![
        SimConfig::baseline(ProtocolVariant::Drum, 80),
        SimConfig::paper_attack(ProtocolVariant::Push, 80, 128.0),
        SimConfig::paper_attack(ProtocolVariant::Pull, 80, 64.0),
    ]
}

#[test]
fn results_identical_across_worker_counts() {
    let cfgs = scenario_mix();
    let trials = 20;
    // 1 thread = the inline in-order oracle; 3 and 7 exercise dynamic
    // claiming with different interleavings; the default is whatever this
    // machine (or DRUM_POOL_THREADS) says.
    let oracle = run_many_on(1, &cfgs, trials, 31, 12);
    for threads in [3, 7] {
        // Repeat per thread count so claim interleavings actually vary.
        for rep in 0..3 {
            let got = run_many_on(threads, &cfgs, trials, 31, 12);
            assert_eq!(got.len(), oracle.len());
            for (cfg_i, (a, b)) in oracle.iter().zip(&got).enumerate() {
                assert_bitwise_eq(a, b, &format!("threads={threads} rep={rep} cfg={cfg_i}"));
            }
        }
    }
    let default = run_many_on(par::threads(), &cfgs, trials, 31, 12);
    for (cfg_i, (a, b)) in oracle.iter().zip(&default).enumerate() {
        assert_bitwise_eq(a, b, &format!("default threads cfg={cfg_i}"));
    }
}

#[test]
fn run_experiment_uses_the_same_reduction_as_the_inline_pool() {
    let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 60, 64.0);
    let via_default = run_experiment(&cfg, 17, 5, 8);
    let via_inline = run_many_on(1, std::slice::from_ref(&cfg), 17, 5, 8)
        .pop()
        .unwrap();
    assert_bitwise_eq(&via_inline, &via_default, "run_experiment vs inline");
}

#[test]
fn prop_worker_count_never_changes_results() {
    prop::check(
        "worker_count_never_changes_results",
        Config::with_cases(12),
        |g| {
            let n = g.usize_in(30..90);
            let protocol = [
                ProtocolVariant::Drum,
                ProtocolVariant::Push,
                ProtocolVariant::Pull,
            ][g.index(3)];
            let x = g.u64_in(0..257) as f64;
            let trials = g.usize_in(1..24);
            let seed = g.u64_in(0..1 << 32);
            let cdf_rounds = g.usize_in(0..10);
            let mut cfg = if x == 0.0 {
                SimConfig::baseline(protocol, n)
            } else {
                SimConfig::paper_attack(protocol, n, x)
            };
            // Keep hopeless Pull floods short so cases stay fast.
            cfg.max_rounds = 120;
            let cfgs = std::slice::from_ref(&cfg);
            let a = run_many_on(1, cfgs, trials, seed, cdf_rounds);
            let b = run_many_on(3, cfgs, trials, seed, cdf_rounds);
            let c = run_many_on(5, cfgs, trials, seed, cdf_rounds);
            prop_assert!(a == b, "1 thread vs 3 threads diverged: {a:?} vs {b:?}");
            prop_assert!(a == c, "1 thread vs 5 threads diverged: {a:?} vs {c:?}");
            // PartialEq passed; also pin bit-level identity.
            for (x3, x1) in b.iter().zip(&a) {
                for (f3, f1) in x3
                    .avg_fraction_per_round
                    .iter()
                    .zip(&x1.avg_fraction_per_round)
                {
                    prop_assert!(f3.to_bits() == f1.to_bits(), "cdf bits diverged");
                }
            }
            Ok(())
        },
    );
}

/// Every adversary strategy is as deterministic as the static flood:
/// retargeting decisions are pure functions of the trial RNG and round
/// state, so a fixed seed must give byte-identical results no matter how
/// many threads interleave the trials. The `ext_adversary` and
/// `ext_pull_abuse` figures depend on it: a strategy whose results
/// depended on scheduling would make them unreproducible.
#[test]
fn adversary_strategies_deterministic_across_worker_counts() {
    use drum_sim::AdversaryKind;

    for kind in AdversaryKind::ALL {
        let cfgs: Vec<SimConfig> = [
            SimConfig::paper_attack(ProtocolVariant::Drum, 80, 128.0),
            SimConfig::paper_attack(ProtocolVariant::Push, 80, 64.0),
            SimConfig::paper_attack(ProtocolVariant::Pull, 80, 64.0),
        ]
        .into_iter()
        .map(|cfg| {
            let mut cfg = cfg.with_adversary(kind);
            // Adaptive floods against Pull can be slow to converge; the
            // determinism contract does not need full propagation.
            cfg.max_rounds = 150;
            cfg
        })
        .collect();
        let trials = 12;
        let oracle = run_many_on(1, &cfgs, trials, 20040628, 8);
        for threads in [3, 7] {
            let got = run_many_on(threads, &cfgs, trials, 20040628, 8);
            for (cfg_i, (a, b)) in oracle.iter().zip(&got).enumerate() {
                assert_bitwise_eq(
                    a,
                    b,
                    &format!("adversary={} threads={threads} cfg={cfg_i}", kind.name()),
                );
            }
        }
    }
}

/// The regression dynamic scheduling was built for, as exact counts: on a
/// realistic attacked sweep mix, per-point static chunking strands most
/// workers behind the straggler chunk, while dynamic self-scheduling
/// (modeled as greedy list scheduling over the same flat job set)
/// finishes far sooner and with far tighter per-worker completion spread.
/// Both schedules are modeled from each trial's deterministic cost in
/// executed rounds, so the spans are constants of the code on every
/// machine, whatever its core count.
#[test]
fn dynamic_scheduling_beats_static_chunks_on_straggler_mixes() {
    const WORKERS: usize = 8;
    // The smoke trial count, where the seed's per-point barriers waste the
    // most: `div_ceil(12, 8) = 2` leaves two of eight workers idle through
    // every point even before its straggler chunk runs long.
    let trials = 12;
    let seed = 20040628;

    // The fig3a-style mix: cheap baselines next to heavy-tailed attacked
    // points (Pull under flood is geometric in the source-escape round).
    let sweep: Vec<SimConfig> = [0.0, 16.0, 32.0, 64.0, 96.0, 128.0]
        .iter()
        .flat_map(|&x| {
            [
                ProtocolVariant::Drum,
                ProtocolVariant::Push,
                ProtocolVariant::Pull,
            ]
            .into_iter()
            .map(move |p| {
                if x == 0.0 {
                    SimConfig::baseline(p, 120)
                } else {
                    SimConfig::paper_attack(p, 120, x)
                }
            })
        })
        .collect();

    // Deterministic per-trial costs in executed rounds.
    let costs_per_cfg: Vec<Vec<u64>> = sweep
        .iter()
        .map(|cfg| {
            (0..trials)
                .map(|i| u64::from(run_trial(cfg, seed + i as u64, 0).rounds_executed))
                .collect()
        })
        .collect();

    // Seed scheduler: per-point contiguous chunks + join barrier → the
    // sweep takes the sum of per-point straggler chunks.
    let static_span: u64 = costs_per_cfg
        .iter()
        .map(|costs| schedule::static_point_makespan(costs, WORKERS))
        .sum();

    // Dynamic scheduler: one flat job set (runner chunking), no barriers.
    let chunk = chunk_size(trials);
    let flat_jobs: Vec<u64> = costs_per_cfg
        .iter()
        .flat_map(|costs| schedule::chunk_sums(costs, chunk))
        .collect();
    let dynamic_span = schedule::greedy_makespan(&flat_jobs, WORKERS);
    assert_eq!(
        (static_span, dynamic_span),
        (529, 318),
        "sweep span in rounds, static vs dynamic"
    );

    // Job-completion spread: idle worker-rounds. Static strands whole
    // workers at every barrier; dynamic packs them (8.7 vs 0.87 per job).
    assert_eq!(flat_jobs.len(), 216);
    let static_idle = schedule::idle_time(static_span, WORKERS, &flat_jobs);
    let dynamic_idle = schedule::idle_time(dynamic_span, WORKERS, &flat_jobs);
    assert_eq!(
        (static_idle, dynamic_idle),
        (1875, 187),
        "idle worker-rounds, static vs dynamic"
    );
}

/// Machine-independent scheduling models over per-job costs in abstract
/// units (simulated rounds): wall-clock speedups are no stable gate on 1–2
/// core CI hosts, modeled spans are exact on every machine.
mod schedule {
    /// Sums `costs` over contiguous chunks of `chunk` jobs (last chunk may
    /// be short). This is the per-chunk work profile of a static split.
    pub fn chunk_sums(costs: &[u64], chunk: usize) -> Vec<u64> {
        assert!(chunk > 0, "chunk size must be positive");
        costs.chunks(chunk).map(|c| c.iter().sum()).collect()
    }

    /// Modeled makespan of the seed scheduler for **one sweep point**:
    /// split `costs` into `workers` contiguous chunks (sizes `div_ceil`),
    /// run each chunk on its own worker, join. A whole sweep under this
    /// scheduler is the *sum* of its points' makespans.
    pub fn static_point_makespan(costs: &[u64], workers: usize) -> u64 {
        assert!(workers > 0, "worker count must be positive");
        if costs.is_empty() {
            return 0;
        }
        let chunk = costs.len().div_ceil(workers);
        chunk_sums(costs, chunk).into_iter().max().unwrap_or(0)
    }

    /// Modeled makespan of dynamic claiming over one flat job set: greedy
    /// list scheduling, each job in order to the least-loaded worker.
    pub fn greedy_makespan(jobs: &[u64], workers: usize) -> u64 {
        assert!(workers > 0, "worker count must be positive");
        let mut load = vec![0u64; workers];
        for &job in jobs {
            let min = load
                .iter_mut()
                .min()
                .expect("worker count checked positive");
            *min += job;
        }
        load.into_iter().max().unwrap_or(0)
    }

    /// Total worker-idle units for a schedule: `workers * makespan` slots
    /// minus the work actually done.
    pub fn idle_time(makespan: u64, workers: usize, jobs: &[u64]) -> u64 {
        (makespan * workers as u64).saturating_sub(jobs.iter().sum())
    }

    #[test]
    fn chunk_sums_cover_all_jobs() {
        assert_eq!(chunk_sums(&[1, 2, 3, 4, 5], 2), vec![3, 7, 5]);
        assert_eq!(chunk_sums(&[], 3), Vec::<u64>::new());
    }

    #[test]
    fn static_makespan_is_heaviest_chunk() {
        // 6 jobs, 3 workers -> chunks of 2: [3, 7, 11].
        assert_eq!(static_point_makespan(&[1, 2, 3, 4, 5, 6], 3), 11);
        // More workers than jobs: every job is its own chunk.
        assert_eq!(static_point_makespan(&[9, 1], 8), 9);
        assert_eq!(static_point_makespan(&[], 4), 0);
    }

    #[test]
    fn greedy_packs_around_stragglers() {
        // One straggler + filler: greedy keeps other workers busy, so the
        // makespan is the straggler alone while the static split strands
        // it with half the filler.
        let jobs = [100, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10];
        assert_eq!(greedy_makespan(&jobs, 2), 100);
        assert_eq!(static_point_makespan(&jobs, 2), 150);
    }

    #[test]
    fn greedy_never_beats_the_work_lower_bound() {
        let jobs = [7u64, 3, 9, 4, 4, 6, 2, 8];
        let total: u64 = jobs.iter().sum();
        for workers in 1..6 {
            let span = greedy_makespan(&jobs, workers);
            assert!(span >= total.div_ceil(workers as u64));
            assert!(span >= *jobs.iter().max().unwrap());
            assert!(span <= static_point_makespan(&jobs, workers).max(span));
        }
    }

    #[test]
    fn one_worker_spans_equal_total_work() {
        let jobs = [5u64, 1, 12, 2];
        assert_eq!(greedy_makespan(&jobs, 1), 20);
        assert_eq!(static_point_makespan(&jobs, 1), 20);
        assert_eq!(idle_time(20, 1, &jobs), 0);
    }

    #[test]
    fn idle_time_counts_stranded_slots() {
        let jobs = [100u64, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10];
        let static_span = static_point_makespan(&jobs, 2);
        let dynamic_span = greedy_makespan(&jobs, 2);
        assert_eq!(idle_time(static_span, 2, &jobs), 100);
        assert_eq!(idle_time(dynamic_span, 2, &jobs), 0);
    }
}
