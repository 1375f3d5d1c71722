//! Machine-independent scheduling models.
//!
//! The repo's dev hosts differ wildly in core count (CI runners are often
//! 1–2 cores), so wall-clock parallel speedups are not a stable gate.
//! Instead, regression tests model both schedulers over the *measured
//! deterministic per-job costs* (a trial's executed round count) and
//! assert the modeled spans — exact arithmetic, identical on every
//! machine, like the syscalls-per-datagram counts of the net tests.
//!
//! Two schedulers are modeled:
//!
//! * [`static_point_makespan`] — the seed harness: each sweep point splits
//!   its trials into `workers` contiguous chunks and joins before the next
//!   point, so every point waits on its own straggler chunk;
//! * [`greedy_makespan`] — list scheduling: each job goes to the
//!   least-loaded worker, which is what atomic-index self-scheduling
//!   converges to when per-job cost dwarfs the claim (one `fetch_add`).
//!
//! All costs are in abstract units (we use simulated rounds); only ratios
//! matter.

/// Sums `costs` over contiguous chunks of `chunk` jobs (last chunk may be
/// short). This is the per-chunk work profile of a static split.
pub fn chunk_sums(costs: &[u64], chunk: usize) -> Vec<u64> {
    assert!(chunk > 0, "chunk size must be positive");
    costs.chunks(chunk).map(|c| c.iter().sum()).collect()
}

/// Modeled makespan of the seed scheduler for **one sweep point**: split
/// `costs` into `workers` contiguous chunks (sizes `div_ceil`), run each
/// chunk on its own worker, join. The point takes as long as its heaviest
/// chunk. A whole sweep under this scheduler is the *sum* of its points'
/// makespans, because of the join barrier between points.
pub fn static_point_makespan(costs: &[u64], workers: usize) -> u64 {
    assert!(workers > 0, "worker count must be positive");
    if costs.is_empty() {
        return 0;
    }
    let chunk = costs.len().div_ceil(workers);
    chunk_sums(costs, chunk).into_iter().max().unwrap_or(0)
}

/// Modeled makespan of dynamic self-scheduling over one flat job set:
/// greedy list scheduling, assigning each job in order to the currently
/// least-loaded worker. Returns the busiest worker's total load.
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
/// minus the work actually done. Divide by job count for idle time per
/// job.
pub fn idle_time(makespan: u64, workers: usize, jobs: &[u64]) -> u64 {
    (makespan * workers as u64).saturating_sub(jobs.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

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
