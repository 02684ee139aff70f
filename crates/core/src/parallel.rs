//! A hand-rolled scoped worker pool.
//!
//! The CoreCover pipeline is embarrassingly parallel at several stages —
//! view tuples per view, tuple-cores per tuple, verification per
//! rewriting, sweep points per query instance — but the build is offline,
//! so instead of rayon this module provides the one primitive those
//! stages need: an order-preserving [`parallel_map`] built on
//! [`std::thread::scope`].
//!
//! Workers pull item indices from a shared atomic counter (dynamic
//! scheduling: cheap items do not stall behind expensive ones) and tag
//! each result with its index; results are sorted back into input order
//! before returning. **Determinism:** the output `Vec` is exactly
//! `items.iter().map(f)` regardless of thread count or scheduling — the
//! tentpole guarantee that parallel CoreCover results are byte-identical
//! to serial ones.
//!
//! Phase attribution: the spawning thread's open span path is captured
//! and re-attached on every worker ([`obs::attach_path`]), so spans
//! opened inside `f` aggregate under the same phase-tree node a serial
//! run would use instead of dangling at the root. The spawning thread's
//! request trace (if one is installed) is carried the same way
//! ([`obs::trace::attach`]), so worker-side spans and events land under
//! the request span that spawned them.
//!
//! Budget propagation: likewise, the spawning thread's ambient
//! [`obs::Budget`] (if any) is attached on every worker, so the whole
//! pool shares one deadline/cancellation flag and stops promptly when
//! it fires. Node caps are per-search, so budgeted results keep the
//! byte-identical-to-serial guarantee; only wall-clock deadlines are
//! nondeterministic.
//!
//! Those three — span path, trace, budget — are the only thread-local
//! state carried. Nothing else a worker runs is configured ambiently:
//! there is one executor, and the containment route (semijoins for
//! acyclic patterns, the homomorphism DFS otherwise) is a pure function
//! of the query pair, so a worker computes exactly what the caller would.

use viewplan_obs as obs;
use viewplan_sync::{thread, AtomicUsize, Mutex, Ordering};

/// The default thread count: the `VIEWPLAN_THREADS` environment variable
/// when set to a positive integer, otherwise 1 (serial). The CLI's
/// `--threads` flag and explicit config fields override it.
pub fn default_threads() -> usize {
    std::env::var("VIEWPLAN_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` scoped workers, returning
/// results in input order. With `threads <= 1` (or fewer than two items)
/// this is a plain serial map with no thread or lock traffic, so a
/// 1-thread configuration costs the same as the pre-pool code path.
///
/// Panics in `f` propagate to the caller when the scope joins, matching
/// the serial behavior of a panicking closure.
// lock-order: `panicked` then `collected` are only ever taken one at a
// time (never while holding the other), so no acquisition order exists to
// violate.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let workers = threads.min(items.len());
    obs::counter!("parallel.batches").incr();
    obs::counter!("parallel.tasks").add(items.len() as u64);
    let parent_path = obs::current_path();
    let parent_budget = obs::budget::current();
    let parent_trace = obs::trace::current_context();
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    // Workers catch panics from `f` so the original payload (not the
    // scope's generic "a scoped thread panicked") reaches the caller.
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _phase = obs::attach_path(&parent_path);
                let _budget = obs::budget::attach(parent_budget.clone());
                let _trace = obs::trace::attach(parent_trace.as_ref());
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    // ordering: work-stealing index; only atomicity of
                    // the claim matters, results sync via `collected`.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&items[i]))) {
                        Ok(r) => local.push((i, r)),
                        Err(payload) => {
                            *panicked.lock() = Some(payload);
                            break;
                        }
                    }
                }
                collected.lock().extend(local);
            });
        }
    });
    if let Some(payload) = panicked.into_inner() {
        std::panic::resume_unwind(payload);
    }
    let mut tagged = collected.into_inner();
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), items.len());
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 8, 200] {
            let par = parallel_map(threads, &items, |&x| x * x);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(8, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map(8, &[41u64], |&x| x + 1), vec![42]);
    }

    #[test]
    fn uneven_work_is_still_ordered() {
        // Make early items slow so late items finish first.
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(4, &items, |&x| {
            if x < 4 {
                thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn ambient_budget_reaches_workers() {
        let budget = obs::budget::BudgetSpec::new().node_budget(1).build();
        let _g = obs::budget::install(budget.clone());
        let items: Vec<u64> = (0..8).collect();
        let out = parallel_map(4, &items, |&x| {
            let mut m = obs::budget::Meter::start(obs::Phase::Hom);
            while m.tick() {}
            x
        });
        assert_eq!(out, items);
        // Every worker saw the spawning thread's budget: all 8 searches
        // hit the 1-node cap.
        assert_eq!(budget.abandoned(obs::Phase::Hom), 8);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u64> = (0..16).collect();
        let _ = parallel_map(4, &items, |&x| {
            if x == 7 {
                panic!("boom");
            }
            x
        });
    }
}
