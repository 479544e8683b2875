//! A deterministic fork-join layer over `std::thread::scope`.
//!
//! Every hot loop in the workspace — trigger enumeration in the chase,
//! canonical-query evaluation in the type analyzer, piece-unification
//! fan-out in the rewriter, branch exploration in the model finder — is
//! embarrassingly parallel over independent work items, but the paper's
//! semantics (canonical repair order, reproducible null names) demand
//! *observational determinism*: a caller's output must be bit-identical
//! at any thread count. The hermetic-build policy (DESIGN.md) rules out
//! rayon, so this module provides the minimal fork-join vocabulary on
//! the standard library alone.
//!
//! ## The shard-then-merge contract
//!
//! Work is split into *contiguous index shards*, one thread per shard;
//! each shard's results are collected separately and merged in input
//! order. Provided the per-item computation is a pure function of the
//! item (no observable side effects across items), the merged output is
//! independent of the shard boundaries and therefore of the thread
//! count. Anything order- or identity-sensitive — applying chase
//! repairs, interning fresh nulls, mutating a dedup set — stays on the
//! calling thread, *after* the merge.
//!
//! ## Thread count
//!
//! [`num_threads`] reads `BDDFC_THREADS` (clamped to ≥ 1), defaulting to
//! the machine's available parallelism capped at [`MAX_DEFAULT_THREADS`];
//! it resolves that setting once per process, on first use.
//! [`with_thread_count`] overrides it for the current thread's dynamic
//! extent — tests use it to pin 1/2/7-thread runs in-process. At one
//! thread every entry point takes a guaranteed sequential path on the
//! calling thread: no spawns, no channels, byte-for-byte the reference
//! semantics.
//!
//! ## Small regions stay on the caller
//!
//! Every entry point takes a *work estimate* from its call site, derived
//! from a property of the input (delta rows, candidate count, domain
//! size, …) and expressed in units of roughly one trigger witness check.
//! A region whose estimate is below [`MIN_PAR_WORK`] takes the same
//! sequential path as one thread does, whatever the thread count: a
//! spawn costs tens of microseconds, more than many small regions take
//! in total (the Theorem 2 pipeline's chase of a few dozen facts runs
//! hundreds of such rounds). A single shard already satisfies the
//! shard-then-merge contract, so the cutoff cannot change any output.
//! [`with_min_work`] overrides the cutoff for the current thread's
//! dynamic extent; the determinism suites set it to 0 so their small
//! inputs still exercise the sharded path, and [`sharded_regions`] lets
//! them check that it ran.
//!
//! ## Sharded regions
//!
//! A sharded region spawns `shards − 1` scoped workers and runs shard 0
//! on the calling thread. Every shard, the caller's included, runs with
//! the thread count pinned to 1, so nested `par_*` calls inside a
//! parallel region degrade to the sequential path instead of
//! oversubscribing the machine.
//!
//! Panics in any shard are propagated: the first shard's panic payload
//! (in shard order, for determinism) is resumed on the calling thread
//! after all workers have been joined.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::LocalKey;

/// Upper bound on the default thread count when `BDDFC_THREADS` is not
/// set. Explicit settings may exceed it.
pub const MAX_DEFAULT_THREADS: usize = 16;

/// Estimated work below which a region runs on the calling thread, in
/// units of roughly one trigger witness check (30–140 ns on the E13
/// graphs). Sharding a region costs a spawn and a join per extra worker
/// (about 40 µs for one worker on a 2-vCPU VM); below this estimate that
/// overhead exceeds what the extra threads save.
pub const MIN_PAR_WORK: usize = 8192;

thread_local! {
    /// Per-thread override installed by [`with_thread_count`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Per-thread cutoff override installed by [`with_min_work`].
    static MIN_WORK_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Regions this thread has sharded, for [`sharded_regions`].
    static SHARDED: Cell<u64> = const { Cell::new(0) };
}

/// Parses a `BDDFC_THREADS` value: a positive integer, surrounding
/// whitespace ignored. Non-numeric or zero values are errors carrying
/// the offending value — garbage input must not silently degrade the
/// machine to one thread.
pub fn parse_threads(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("BDDFC_THREADS must be a positive integer, got `{raw}`")),
    }
}

/// The number of worker threads `par_*` calls on this thread will use:
/// the innermost [`with_thread_count`] override if one is active, else
/// `BDDFC_THREADS` if set to a positive integer (unset or empty means
/// auto), else the machine's available parallelism capped at
/// [`MAX_DEFAULT_THREADS`]. The environment and the machine are read on
/// the first call only: `available_parallelism` reads the cgroup quota
/// files, tens of microseconds that every region would otherwise pay.
///
/// # Panics
///
/// Panics on a non-numeric or zero `BDDFC_THREADS` value, naming it, so
/// a typo fails loudly rather than silently selecting the default.
pub fn num_threads() -> usize {
    static CONFIGURED: OnceLock<Result<usize, String>> = OnceLock::new();
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    match CONFIGURED.get_or_init(configured_threads) {
        Ok(n) => *n,
        Err(e) => panic!("{e}"),
    }
}

/// The process-wide thread count: `BDDFC_THREADS` if set and non-blank,
/// else `auto_threads()`.
fn configured_threads() -> Result<usize, String> {
    match std::env::var("BDDFC_THREADS") {
        Ok(s) if !s.trim().is_empty() => parse_threads(&s),
        _ => Ok(auto_threads()),
    }
}

/// The default thread count when `BDDFC_THREADS` is unset: available
/// parallelism capped at [`MAX_DEFAULT_THREADS`].
fn auto_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_DEFAULT_THREADS))
}

/// Runs `f` with the thread count pinned to `n` on the current thread
/// (restored afterwards, even on panic). This is how the determinism
/// suites re-run themselves at 1, 2 and 7 threads in-process.
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    with_override(&THREAD_OVERRIDE, n.max(1), f)
}

/// Runs `f` with the small-region cutoff set to `min_work` on the current
/// thread (restored afterwards, even on panic) instead of
/// [`MIN_PAR_WORK`]. `with_min_work(0, f)` shards every region of two or
/// more items, which is how the determinism suites keep exercising the
/// sharded path on small inputs.
pub fn with_min_work<R>(min_work: usize, f: impl FnOnce() -> R) -> R {
    with_override(&MIN_WORK_OVERRIDE, min_work, f)
}

/// Sets a thread-local override for the extent of `f`.
fn with_override<R>(
    key: &'static LocalKey<Cell<Option<usize>>>,
    value: usize,
    f: impl FnOnce() -> R,
) -> R {
    struct Restore(&'static LocalKey<Cell<Option<usize>>>, Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            self.0.with(|c| c.set(self.1));
        }
    }
    let _restore = Restore(key, key.with(|c| c.replace(Some(value))));
    f()
}

/// How many regions the current thread has split across threads so far.
/// Tests compare it before and after a call to check that the sharded
/// path actually ran.
pub fn sharded_regions() -> u64 {
    SHARDED.with(Cell::get)
}

/// Splits `0..len` into at most `shards` non-empty contiguous ranges of
/// near-equal size.
fn split(len: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.min(len).max(1);
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let end = start + base + usize::from(i < extra);
        out.push(start..end);
        start = end;
    }
    out
}

/// Runs `f` on each shard range, one thread per shard, and returns the
/// per-shard results in shard order. `work` is the call site's estimate
/// of the region's cost (see [`MIN_PAR_WORK`]). The sequential path (one
/// thread, fewer than two items, or `work` below the cutoff) calls
/// `f(0..len)` directly.
///
/// Determinism contract: the caller must combine the returned values in
/// a *boundary-insensitive* way — `f(a..b)` then `f(b..c)`, combined,
/// must equal `f(a..c)`. Concatenating per-index output vectors and
/// summing per-index counters both qualify; anything keyed on the shard
/// itself does not.
pub fn par_chunks<R, F>(len: usize, work: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let threads = num_threads();
    let min_work = MIN_WORK_OVERRIDE.with(Cell::get).unwrap_or(MIN_PAR_WORK);
    if threads <= 1 || len <= 1 || work < min_work {
        return vec![f(0..len)];
    }
    SHARDED.with(|c| c.set(c.get() + 1));
    run_sharded(split(len, threads), &f)
}

/// Applies `f` to every item of `items` and returns the results in input
/// order, computed on up to [`num_threads`] threads when the estimated
/// `work` reaches the cutoff (see [`par_chunks`]).
pub fn par_map<T, R, F>(items: &[T], work: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let shards = par_chunks(items.len(), work, |range| {
        items[range].iter().map(&f).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for shard in shards {
        out.extend(shard);
    }
    out
}

/// A cooperative early-exit handle for [`par_map_cancel`]: records the
/// lowest item index that has produced a "winning" result, so workers on
/// strictly later items can abandon work whose result is guaranteed to
/// be discarded.
pub struct Cancel {
    min_won: AtomicUsize,
}

impl Cancel {
    fn new() -> Self {
        Cancel { min_won: AtomicUsize::new(usize::MAX) }
    }

    /// Declares that the item at `idx` produced a winning result.
    pub fn win(&self, idx: usize) {
        self.min_won.fetch_min(idx, Ordering::Relaxed);
    }

    /// May the item at `idx` stop early? True iff a *strictly earlier*
    /// item has already won — the later item's result can never be the
    /// canonical winner, so abandoning it cannot change any output
    /// derived through the lowest-winner rule.
    pub fn superseded(&self, idx: usize) -> bool {
        self.min_won.load(Ordering::Relaxed) < idx
    }
}

/// Like [`par_map`], but `f` additionally receives the item's index and
/// a shared [`Cancel`] handle. Callers that select the lowest-index
/// winning result get sequential-equivalent output at any thread count:
/// a worker may only bail out once an earlier item has won, and such a
/// worker's result is discarded by the lowest-winner rule anyway.
pub fn par_map_cancel<T, R, F>(items: &[T], work: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &Cancel) -> R + Sync,
{
    let cancel = Cancel::new();
    let shards = par_chunks(items.len(), work, |range| {
        range
            .map(|i| f(i, &items[i], &cancel))
            .collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for shard in shards {
        out.extend(shard);
    }
    out
}

/// Runs shard 0 on the calling thread and every other range on a scoped
/// worker, each pinned to one thread (so nested `par_*` calls run
/// sequentially), joins them all, and resumes the first panic (in shard
/// order) if any shard panicked.
fn run_sharded<R, F>(ranges: Vec<Range<usize>>, f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let run = |range: Range<usize>| {
        with_thread_count(1, || catch_unwind(AssertUnwindSafe(|| f(range))))
    };
    let mut ranges = ranges.into_iter();
    let first = ranges.next().expect("split yields at least one range");
    let results: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges.map(|range| scope.spawn(move || run(range))).collect();
        let mut results = vec![run(first)];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("shard panics are caught inside")),
        );
        results
    });
    // Unwrapping in shard order re-raises the earliest shard's payload,
    // whatever the workers' timing.
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 7 "), Ok(7));
        assert_eq!(parse_threads("16"), Ok(16));
    }

    #[test]
    fn parse_threads_rejects_garbage_naming_the_value() {
        let err = parse_threads("abc").unwrap_err();
        assert_eq!(err, "BDDFC_THREADS must be a positive integer, got `abc`");
        for raw in ["0", "-3", "1.5", "two"] {
            let err = parse_threads(raw).unwrap_err();
            assert!(err.contains(raw), "error {err:?} must name the value {raw:?}");
        }
    }

    /// An estimate that always clears the default cutoff.
    const BIG: usize = usize::MAX;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u32> = (0..1000).collect();
        for threads in [1, 2, 7] {
            let out = with_thread_count(threads, || par_map(&items, BIG, |&x| x * 2));
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let empty: Vec<u32> = Vec::new();
        for threads in [1, 4] {
            with_thread_count(threads, || {
                assert!(par_map(&empty, BIG, |&x: &u32| x).is_empty());
                let shards = par_chunks(0, BIG, |r| r.len());
                assert_eq!(shards.iter().sum::<usize>(), 0);
                assert!(par_map_cancel(&empty, BIG, |_, &x: &u32, _| x).is_empty());
            });
        }
    }

    #[test]
    fn single_item_stays_sequential() {
        // One item never spawns: the closure runs on the calling thread.
        let caller = std::thread::current().id();
        let out = with_thread_count(8, || {
            par_map(&[41], BIG, |&x| {
                assert_eq!(std::thread::current().id(), caller);
                x + 1
            })
        });
        assert_eq!(out, vec![42]);
    }

    /// The distinct threads `par_map` runs `items` on, and whether the
    /// region counted as sharded.
    fn threads_used(items: &[u32], work: usize) -> (Vec<std::thread::ThreadId>, bool) {
        let before = sharded_regions();
        let mut ids = par_map(items, work, |_| std::thread::current().id());
        ids.dedup();
        (ids, sharded_regions() > before)
    }

    #[test]
    fn small_work_stays_on_the_caller() {
        // Below the cutoff, many items and many threads still never spawn.
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..64).collect();
        let (ids, sharded) =
            with_thread_count(8, || threads_used(&items, MIN_PAR_WORK - 1));
        assert_eq!(ids, vec![caller]);
        assert!(!sharded);
    }

    #[test]
    fn min_work_override_shards_a_two_item_region() {
        // At the cutoff the region shards; under `with_min_work(0, ..)`
        // even a zero estimate does. Shard 0 runs on the caller, shard 1
        // on one worker.
        let caller = std::thread::current().id();
        for (work, min_work) in [(MIN_PAR_WORK, MIN_PAR_WORK), (0, 0)] {
            let (ids, sharded) = with_thread_count(2, || {
                with_min_work(min_work, || threads_used(&[1, 2], work))
            });
            assert_eq!(ids.len(), 2, "work {work}, cutoff {min_work}");
            assert_eq!(ids[0], caller, "shard 0 runs on the calling thread");
            assert_ne!(ids[1], caller);
            assert!(sharded);
        }
        // The override is scoped: outside it the default cutoff is back.
        let (ids, sharded) = with_thread_count(2, || threads_used(&[1, 2], 0));
        assert_eq!(ids, vec![caller]);
        assert!(!sharded);
    }

    #[test]
    fn par_chunks_covers_the_range_exactly_once() {
        for threads in [1, 2, 3, 7, 64] {
            let shards =
                with_thread_count(threads, || par_chunks(10, BIG, |r| r.collect::<Vec<_>>()));
            let flat: Vec<usize> = shards.into_iter().flatten().collect();
            assert_eq!(flat, (0..10).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn worker_panics_propagate() {
        // Panics in a worker's shard, in the caller's shard 0, and in
        // both: the earliest shard's payload is the one re-raised.
        for (panics, expected) in [(&[57][..], 57), (&[3][..], 3), (&[3, 57][..], 3)] {
            let before = num_threads();
            let result = std::panic::catch_unwind(|| {
                with_thread_count(4, || {
                    par_map(&(0..100).collect::<Vec<u32>>(), BIG, |&x| {
                        if panics.contains(&x) {
                            panic!("boom at {x}");
                        }
                        x
                    })
                })
            });
            let payload = result.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<String>().expect("string payload");
            assert_eq!(msg, &format!("boom at {expected}"));
            // The caller's shard-0 pin was unwound along with it.
            assert_eq!(num_threads(), before);
        }
    }

    #[test]
    fn nested_calls_run_sequentially_inside_workers() {
        // Inside a parallel region the thread count is pinned to 1, so a
        // nested par_map must not spawn; outside it is restored.
        let items: Vec<u32> = (0..64).collect();
        let before = num_threads();
        let out = with_thread_count(4, || {
            par_map(&items, BIG, |&x| {
                // Every shard, the caller's shard 0 included, runs with
                // num_threads() pinned to 1.
                assert_eq!(num_threads(), 1);
                let inner: u32 = par_map(&items, BIG, |&y| y).iter().sum();
                inner + x
            })
        });
        let base: u32 = items.iter().sum();
        assert_eq!(out, items.iter().map(|&x| base + x).collect::<Vec<_>>());
        assert_eq!(num_threads(), before, "override fully restored");
    }

    #[test]
    fn with_thread_count_restores_on_panic() {
        let before = num_threads();
        let _ = std::panic::catch_unwind(|| {
            with_thread_count(3, || panic!("unwind through the guard"))
        });
        assert_eq!(num_threads(), before);
    }

    #[test]
    fn cancel_only_discardable_work_is_skipped() {
        // Item 2 wins; items > 2 may observe supersession, items ≤ 2
        // never do. The lowest winner is stable at any thread count.
        for threads in [1, 2, 7] {
            let skipped = AtomicU64::new(0);
            let items: Vec<usize> = (0..50).collect();
            let out = with_thread_count(threads, || {
                par_map_cancel(&items, BIG, |i, _, cancel| {
                    if cancel.superseded(i) {
                        assert!(i > 2, "items at or before the winner never bail");
                        skipped.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                    if i == 2 || i == 30 {
                        cancel.win(i);
                        return Some(i);
                    }
                    None
                })
            });
            let winner = out
                .iter()
                .enumerate()
                .find_map(|(i, r)| r.map(|v| (i, v)))
                .expect("a winner exists");
            assert_eq!(winner, (2, 2), "threads = {threads}");
        }
    }

    #[test]
    fn env_parsing_is_tolerant() {
        // num_threads never returns 0 whatever the environment says.
        assert!(num_threads() >= 1);
        with_thread_count(0, || assert_eq!(num_threads(), 1));
    }
}
