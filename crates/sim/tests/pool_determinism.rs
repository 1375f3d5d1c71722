//! Worker-count independence of the experiment runner, and the
//! straggler-spread regression that motivates dynamic scheduling.
//!
//! The runner's contract (runner.rs module docs): because the chunk size
//! is a pure function of the trial count and chunk partials merge in
//! chunk order, `ExperimentResult` must be **byte-identical** — every
//! float compared via `to_bits` — whether trials run inline on one
//! thread, on a 3-thread pool, or on the default global pool. This is
//! what lets `DRUM_POOL_THREADS=1` CI runs validate the parallel runs.

use drum_core::ProtocolVariant;
use drum_pool::{schedule, Pool};
use drum_sim::config::SimConfig;
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
    // claiming with different interleavings; the global pool is whatever
    // this machine (or DRUM_POOL_THREADS) says.
    let oracle = run_many_on(&Pool::new(1), &cfgs, trials, 31, 12);
    for threads in [3, 7] {
        let pool = Pool::new(threads);
        // Repeat per pool so claim interleavings actually vary.
        for rep in 0..3 {
            let got = run_many_on(&pool, &cfgs, trials, 31, 12);
            assert_eq!(got.len(), oracle.len());
            for (cfg_i, (a, b)) in oracle.iter().zip(&got).enumerate() {
                assert_bitwise_eq(a, b, &format!("threads={threads} rep={rep} cfg={cfg_i}"));
            }
        }
    }
    let global = run_many_on(Pool::global(), &cfgs, trials, 31, 12);
    for (cfg_i, (a, b)) in oracle.iter().zip(&global).enumerate() {
        assert_bitwise_eq(a, b, &format!("global pool cfg={cfg_i}"));
    }
}

#[test]
fn run_experiment_uses_the_same_reduction_as_the_inline_pool() {
    let cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 60, 64.0);
    let via_global = run_experiment(&cfg, 17, 5, 8);
    let via_inline = run_many_on(&Pool::new(1), std::slice::from_ref(&cfg), 17, 5, 8)
        .pop()
        .unwrap();
    assert_bitwise_eq(&via_inline, &via_global, "run_experiment vs inline");
}

#[test]
fn prop_worker_count_never_changes_results() {
    let pool3 = Pool::new(3);
    let pool5 = Pool::new(5);
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
            let a = run_many_on(&Pool::new(1), cfgs, trials, seed, cdf_rounds);
            let b = run_many_on(&pool3, cfgs, trials, seed, cdf_rounds);
            let c = run_many_on(&pool5, cfgs, trials, seed, cdf_rounds);
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
/// many pool workers interleave the trials. The `ext_adversary` and
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
        let oracle = run_many_on(&Pool::new(1), &cfgs, trials, 20040628, 8);
        for threads in [3, 7] {
            let got = run_many_on(&Pool::new(threads), &cfgs, trials, 20040628, 8);
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

/// Tentpole invariant of the intra-trial sharded stepper: one fixed-seed
/// trial is byte-identical across `DRUM_POOL_THREADS ∈ {1, 3, 7}` *and*
/// across shard counts, including shard counts that don't divide `n`
/// (straggler-mix ranges: the last shard is smaller and finishes first,
/// so workers claim uneven batches) and a mid-trial `rotate_targets`
/// round. Streams are keyed per `(trial_seed, round, phase, process)` —
/// never per shard or worker — and partials merge in ascending shard
/// order, so neither the partition nor the schedule can show through.
#[test]
fn sharded_stepper_identical_across_threads_and_shards() {
    use drum_sim::SimState;

    fn fingerprint(cfg: &SimConfig, seed: u64, shards: usize, pool: &Pool) -> (usize, Vec<bool>) {
        let mut state = SimState::new(cfg.clone());
        for _ in 0..30 {
            state.step_sharded(seed, shards, pool);
        }
        (
            state.correct_with_m(),
            (0..cfg.n).map(|i| state.has_m(i)).collect(),
        )
    }

    // n = 173 (prime): every multi-shard split has unequal ranges.
    let mut cfg = SimConfig::paper_attack(ProtocolVariant::Drum, 173, 96.0);
    cfg.attack.as_mut().unwrap().rotate_every = Some(3);
    let reference = fingerprint(&cfg, 20040628, 1, &Pool::new(1));
    for threads in [1usize, 3, 7] {
        let pool = Pool::new(threads);
        for shards in [1usize, 2, 3, 5, 8, 16, 173] {
            // Repeat so claim interleavings actually vary.
            for rep in 0..2 {
                assert_eq!(
                    fingerprint(&cfg, 20040628, shards, &pool),
                    reference,
                    "diverged at threads={threads} shards={shards} rep={rep}"
                );
            }
        }
    }
}

/// Randomized version of the invariant above, crossing random scenarios
/// with random shard counts on differently sized pools.
#[test]
fn prop_sharded_shard_and_thread_count_never_change_results() {
    use drum_sim::run_trial_traced_mode;

    let pool3 = Pool::new(3);
    let pool7 = Pool::new(7);
    prop::check(
        "sharded_shard_and_thread_count_never_change_results",
        Config::with_cases(10),
        |g| {
            let n = g.usize_in(30..160);
            let protocol = [
                ProtocolVariant::Drum,
                ProtocolVariant::Push,
                ProtocolVariant::Pull,
            ][g.index(3)];
            let x = g.u64_in(0..129) as f64;
            let seed = g.u64_in(0..1 << 32);
            let mut cfg = if x == 0.0 {
                SimConfig::baseline(protocol, n)
            } else {
                SimConfig::paper_attack(protocol, n, x)
            };
            if g.bool(0.5) {
                cfg.random_ports = false;
            }
            cfg.max_rounds = 100;
            let shards_a = g.usize_in(1..20);
            let shards_b = g.usize_in(1..20);

            // Via the public runner (global pool)...
            let t = |shards| {
                run_trial_traced_mode(&cfg, seed, 6, drum_trace::Tracer::disabled(), shards)
            };
            prop_assert!(
                t(shards_a) == t(shards_b),
                "runner outcome diverged between {shards_a} and {shards_b} shards"
            );

            // ...and stepping directly on explicit pools.
            let direct = |shards, pool: &Pool| {
                let mut state = drum_sim::SimState::new(cfg.clone());
                for _ in 0..12 {
                    state.step_sharded(seed, shards, pool);
                }
                (0..cfg.n).map(|i| state.has_m(i)).collect::<Vec<bool>>()
            };
            let a = direct(shards_a, &pool3);
            let b = direct(shards_b, &pool7);
            prop_assert!(
                a == b,
                "state diverged: shards {shards_a} on 3 threads vs {shards_b} on 7"
            );
            Ok(())
        },
    );
}

/// The regression dynamic scheduling was built for: on a realistic
/// attacked sweep mix, per-point static chunking strands most workers
/// behind the straggler chunk, while dynamic self-scheduling (modeled as
/// greedy list scheduling over the same flat job set — exact, machine
/// independent) finishes far sooner and with far tighter per-worker
/// completion spread.
#[test]
fn dynamic_scheduling_beats_static_chunks_on_straggler_mixes() {
    const WORKERS: usize = 8;
    let trials = 24;
    let seed = 20040628;

    // The fig3a-style mix: cheap baselines next to heavy-tailed attacked
    // points (Pull under flood is geometric in the source-escape round).
    let sweep: Vec<SimConfig> = [0.0, 64.0, 128.0]
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

    assert!(
        dynamic_span < static_span,
        "dynamic span {dynamic_span} should beat static span {static_span}"
    );

    // Job-completion spread: idle worker-rounds per job. Static strands
    // whole workers at every barrier; dynamic packs them.
    let total_jobs = flat_jobs.len() as u64;
    let static_idle = schedule::idle_time(static_span, WORKERS, &flat_jobs) / total_jobs;
    let dynamic_idle = schedule::idle_time(dynamic_span, WORKERS, &flat_jobs) / total_jobs;
    assert!(
        dynamic_idle < static_idle,
        "dynamic idle/job {dynamic_idle} should beat static {static_idle}"
    );
}
