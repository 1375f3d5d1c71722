//! Scoped parallelism for the simulator: the trials of a sweep.
//!
//! Items are claimed dynamically — whichever worker frees next takes the
//! next one — so a straggler never strands the other workers. Which thread
//! ran an item must never show in a result, so callers write per-item
//! state and reduce in index order (see [`crate::runner`]). On one thread
//! every call runs inline in index order, which makes
//! `DRUM_POOL_THREADS=1` the order oracle for every parallel run.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

/// The environment variable [`threads`] reads.
const THREADS_VAR: &str = "DRUM_POOL_THREADS";

/// The process's thread count: `DRUM_POOL_THREADS`, read once, or else
/// `available_parallelism`.
///
/// # Panics
///
/// Panics if `DRUM_POOL_THREADS` is set to anything but a positive
/// integer.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let value = std::env::var_os(THREADS_VAR);
        parse_threads(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
    })
}

/// [`threads`] for one value of `DRUM_POOL_THREADS` (`None` = unset).
fn parse_threads(value: Option<&str>) -> usize {
    match value {
        None => thread::available_parallelism().map_or(1, NonZeroUsize::get),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => panic!("{THREADS_VAR} must be a positive integer, got {v:?}"),
        },
    }
}

/// Calls `f(i, &mut items[i])` once for every item, on up to `threads`
/// scoped threads that each claim the next unclaimed item when they free.
/// Runs inline, in index order, when `threads <= 1` or when there is at
/// most one item.
///
/// # Panics
///
/// Re-raises the first panic payload of an item once every worker has
/// joined.
fn for_each_mut<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let queue = Mutex::new(items.iter_mut().enumerate());
    let work = || loop {
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some((i, item)) = next else { break };
        f(i, item);
    };
    let panic = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        let mut first = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                first.get_or_insert(payload);
            }
        }
        first
    });
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// `f(i)` for every `i` in `0..total`, in index order, computed on up to
/// `threads` scoped threads as by `for_each_mut`.
pub fn map<R, F>(threads: usize, total: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = (0..total).map(|_| None).collect();
    for_each_mut(threads, &mut slots, |i, slot| *slot = Some(f(i)));
    slots
        .into_iter()
        .map(|slot| slot.expect("for_each_mut runs every item or panics"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn runs_every_item_exactly_once() {
        for threads in [1, 2, 4, 9] {
            let mut hits = vec![0u32; 137];
            for_each_mut(threads, &mut hits, |_, hit| *hit += 1);
            assert_eq!(hits, vec![1; 137], "{threads} threads");
        }
    }

    #[test]
    fn map_returns_results_in_index_order() {
        assert_eq!(
            map(4, 100, |i| i * 3),
            (0..300).step_by(3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn one_thread_runs_inline_in_order() {
        let caller = thread::current().id();
        let order = Mutex::new(Vec::new());
        for_each_mut(1, &mut [(); 10], |i, _| {
            assert_eq!(thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(order.into_inner().unwrap(), (0..10).collect::<Vec<usize>>());
    }

    #[test]
    fn items_borrow_from_the_callers_stack() {
        let input: Vec<u64> = (0..64).collect();
        let sums: Vec<u64> = map(3, input.len(), |i| input[i] + 1);
        assert_eq!(sums.iter().sum::<u64>(), 64 * 65 / 2);
    }

    #[test]
    fn panic_payload_reaches_the_caller() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for_each_mut(3, &mut [(); 32], |i, _| {
                assert_ne!(i, 7, "item seven exploded");
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("formatted payload");
        assert!(
            msg.contains("item seven exploded"),
            "unexpected payload {msg:?}"
        );
        // The calling thread stays able to run parallel work.
        assert_eq!(map(3, 5, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_callers_both_complete() {
        thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| assert_eq!(map(4, 50, |i| i), (0..50).collect::<Vec<_>>()));
            }
        });
    }

    #[test]
    fn zero_items_is_a_noop() {
        for_each_mut(2, &mut [(); 0], |_, _| panic!("must not run"));
        assert!(map(2, 0, |_| -> u8 { panic!("must not run") }).is_empty());
    }

    #[test]
    fn threads_variable_is_a_positive_integer_or_unset() {
        assert!(parse_threads(None) >= 1);
        assert_eq!(parse_threads(Some("1")), 1);
        assert_eq!(parse_threads(Some("3")), 3);
        for bad in ["0", "abc", "", "-2", " 2", "1.5"] {
            let payload = catch_unwind(|| parse_threads(Some(bad)))
                .expect_err("a bad value must not fall back to all cores");
            let msg = payload.downcast_ref::<String>().expect("formatted payload");
            assert!(
                msg.contains(THREADS_VAR) && msg.contains(&format!("{bad:?}")),
                "message {msg:?} must name the variable and the value"
            );
        }
    }
}
