//! A std-only scoped-thread worker pool for embarrassingly-parallel work.
//!
//! [`parallel_map`] fans a work list out over `jobs` scoped threads and
//! returns results **in input order** regardless of completion order, so
//! parallel runs emit byte-identical tables and JSON to sequential runs.
//! Work distribution is a single atomic cursor: threads pull the next
//! index until the list is drained, which load-balances uneven item costs
//! without any channel machinery.
//!
//! Originally private to the experiment harness (`clop-bench`); it lives
//! here so analysis crates (e.g. the footprint ladder in `clop-trace`) can
//! shard independent passes through the same pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `items` using up to `jobs` worker threads.
///
/// `f` receives `(index, item)` and results are returned in index order.
/// `jobs <= 1` (or a short list) runs inline on the caller's thread; a
/// panic in any worker propagates to the caller.
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }

    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Poison-tolerant: each slot is touched by exactly one
                // worker, so a panic elsewhere cannot tear this state. The
                // cursor hands out each index once, so the item is there.
                let item = work[i].lock().unwrap_or_else(|e| e.into_inner()).take();
                if let Some(item) = item {
                    let r = f(i, item);
                    *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
                }
            });
        }
    });

    // The scope re-raised any worker's panic, so every index was taken and
    // every slot filled.
    results
        .into_iter()
        .filter_map(|slot| slot.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect()
}

/// Map `f` over `items` in parallel, then fold the results **in input
/// order** on the caller's thread.
///
/// This is the canonical shape for sharded analyses: the expensive
/// per-item work parallelizes, while the sequential input-order fold keeps
/// the combined result bit-identical for every `jobs` value even when the
/// fold itself is order-sensitive.
pub fn parallel_map_reduce<T, R, A, F, G>(jobs: usize, items: Vec<T>, map: F, init: A, fold: G) -> A
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    G: FnMut(A, R) -> A,
{
    parallel_map(jobs, items, map).into_iter().fold(init, fold)
}

/// The number of jobs to use by default: the machine's available
/// parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..50).collect();
        let out = parallel_map(8, items.clone(), |i, x| {
            // Stagger completion to scramble finish order.
            std::thread::sleep(std::time::Duration::from_micros((50 - i as u64) * 10));
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u32> = (0..31).collect();
        let seq = parallel_map(1, items.clone(), |i, x| (i as u32) * 1000 + x);
        let par = parallel_map(4, items, |i, x| (i as u32) * 1000 + x);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_item_lists() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(4, empty, |_, x: u32| x).is_empty());
        assert_eq!(parallel_map(4, vec![7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn non_send_results_not_required_items_moved() {
        // Items are moved into the closure; returning owned Strings works.
        let out = parallel_map(3, vec!["a", "b", "c"], |i, s| format!("{}{}", i, s));
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        parallel_map(2, vec![0u32, 1, 2, 3], |_, x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn map_reduce_folds_in_input_order() {
        // An order-sensitive fold (string concatenation): any worker count
        // must produce the sequential result.
        let items: Vec<u32> = (0..40).collect();
        let expect = parallel_map_reduce(
            1,
            items.clone(),
            |_, x| x.to_string(),
            String::new(),
            |a, r| a + &r,
        );
        for jobs in [2, 3, 8] {
            let got = parallel_map_reduce(
                jobs,
                items.clone(),
                |_, x| x.to_string(),
                String::new(),
                |a, r| a + &r,
            );
            assert_eq!(got, expect, "jobs={}", jobs);
        }
    }

    #[test]
    fn map_reduce_empty_yields_init() {
        let sum = parallel_map_reduce(4, Vec::<u32>::new(), |_, x| x, 7u32, |a, r| a + r);
        assert_eq!(sum, 7);
    }
}
