//! Shared multi-threading primitives for the workspace's deterministic
//! parallelism.
//!
//! Every parallel subsystem in the repo — spread estimation, RR-set
//! generation, seed selection, and (since this module) the learning layer
//! and the graph generators — follows the same architecture: split the work
//! into **shards whose decomposition does not depend on the thread count**,
//! run the shards over `std::thread::scope` workers, and merge the results
//! **in shard order**. When each shard's computation is a pure function of
//! `(inputs, shard index)`, the merged output is byte-identical no matter
//! how many workers ran or how the scheduler interleaved them.
//!
//! [`run_sharded`] is that pattern as a function: `work(shard)` is executed
//! for every shard index and the results are returned indexed by shard,
//! with workers pulling shards from a shared cursor so uneven shard costs
//! still balance. [`join`] runs two independent jobs at once under one
//! thread budget. [`resolve_threads`] is the workspace-wide meaning of a
//! `threads` knob (`0` = one worker per available core); it lives here —
//! the bottom of the crate graph — so `comic-actionlog` and the generators
//! can share it with `comic-ris` without a dependency cycle.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolve a `threads` knob: `0` means one worker per available core.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Run two independent jobs under one `threads` budget and return both
/// results: with a budget of 2 or more, `a` gets the larger half and runs on
/// a scoped thread while `b` runs on the calling thread with the rest; with
/// a budget of 1 they run one after the other on the calling thread. Each
/// job receives its own thread count, so results that are independent of
/// the thread count do not change with the budget.
///
/// # Example
/// ```
/// use comic_graph::par::join;
/// let (a, b) = join(4, |t| (t, "a"), |t| (t, "b"));
/// assert_eq!((a, b), ((2, "a"), (2, "b")));
/// assert_eq!(join(1, |t| t, |t| t), (1, 1));
/// ```
pub fn join<A, B, FA, FB>(threads: usize, a: FA, b: FB) -> (A, B)
where
    A: Send,
    FA: FnOnce(usize) -> A + Send,
    FB: FnOnce(usize) -> B,
{
    let threads = resolve_threads(threads);
    if threads <= 1 {
        let ra = a(1);
        return (ra, b(1));
    }
    let (ta, tb) = (threads.div_ceil(2), threads / 2);
    std::thread::scope(|scope| {
        let ha = scope.spawn(move || a(ta));
        let rb = b(tb);
        (ha.join().expect("joined job panicked"), rb)
    })
}

/// Run `work(0..shards)` over at most `threads` scoped workers and return
/// the results **in shard order**.
///
/// The shard decomposition is the caller's: as long as `work` is a pure
/// function of its shard index, the returned vector is independent of
/// `threads` — the determinism contract every caller in this workspace
/// relies on. `threads <= 1` (after [`resolve_threads`]) runs inline on the
/// calling thread with no spawn overhead.
///
/// # Example
/// ```
/// use comic_graph::par::run_sharded;
/// let squares = run_sharded(5, 4, |i| (i * i) as u64);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// assert_eq!(squares, run_sharded(5, 1, |i| (i * i) as u64));
/// ```
pub fn run_sharded<T, F>(shards: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads).min(shards).max(1);
    if threads == 1 {
        return (0..shards).map(work).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..shards).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let shard = cursor.fetch_add(1, Ordering::Relaxed);
                if shard >= shards {
                    break;
                }
                let out = work(shard);
                slots.lock().expect("sharded worker poisoned the slots")[shard] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("sharded workers poisoned the slots")
        .into_iter()
        .map(|s| s.expect("every shard index below the cursor limit ran"))
        .collect()
}

/// Split `0..len` into shards of at most `shard_size` contiguous indices:
/// the fixed, thread-count-independent decomposition used by the parallel
/// generators and learners. Returns `(shard_count, range_of)` where
/// `range_of(i)` yields shard `i`'s half-open range.
pub fn fixed_ranges(len: usize, shard_size: usize) -> (usize, impl Fn(usize) -> (usize, usize)) {
    let size = shard_size.max(1);
    let count = len.div_ceil(size).max(1);
    (count, move |i: usize| {
        let lo = i * size;
        (lo.min(len), ((i + 1) * size).min(len))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn results_arrive_in_shard_order_for_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let got = run_sharded(13, threads, |i| i * 10);
            assert_eq!(
                got,
                (0..13).map(|i| i * 10).collect::<Vec<_>>(),
                "{threads}"
            );
        }
    }

    #[test]
    fn more_threads_than_shards_is_clamped() {
        assert_eq!(run_sharded(2, 64, |i| i), vec![0, 1]);
        assert!(run_sharded(0, 4, |i| i).is_empty());
    }

    #[test]
    fn uneven_shard_costs_still_complete() {
        let got = run_sharded(20, 4, |i| {
            if i % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i as u64
        });
        assert_eq!(got, (0..20u64).collect::<Vec<_>>());
    }

    #[test]
    fn fixed_ranges_cover_exactly() {
        let (count, range) = fixed_ranges(10, 3);
        assert_eq!(count, 4);
        let ranges: Vec<_> = (0..count).map(range).collect();
        assert_eq!(ranges, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        // Empty input still yields one (empty) shard so callers need no
        // special case.
        let (count, range) = fixed_ranges(0, 3);
        assert_eq!(count, 1);
        assert_eq!(range(0), (0, 0));
    }

    #[test]
    fn join_splits_the_budget_and_keeps_both_results() {
        assert_eq!(join(1, |t| t, |t| t + 10), (1, 11));
        assert_eq!(join(2, |t| t, |t| t + 10), (1, 11));
        assert_eq!(join(3, |t| t, |t| t + 10), (2, 11));
        // Under a budget of 2 the jobs overlap: each sees the other start.
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let meet = |me: usize| {
            started[me].store(true, Ordering::SeqCst);
            let t0 = std::time::Instant::now();
            while !started[1 - me].load(Ordering::SeqCst) {
                if t0.elapsed() > std::time::Duration::from_secs(10) {
                    return false;
                }
                std::thread::yield_now();
            }
            true
        };
        assert_eq!(join(2, |_| meet(0), |_| meet(1)), (true, true));
    }

    #[test]
    fn resolve_threads_contract() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }
}
