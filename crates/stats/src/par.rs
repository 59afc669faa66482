//! Deterministic parallel execution on `std::thread::scope`.
//!
//! The campaign pipeline (capture fan-out, per-participant response
//! generation, figure regeneration) is embarrassingly parallel *and*
//! must stay byte-reproducible: the regression suite asserts that the
//! same root [`Seed`](crate::Seed) yields identical campaign reports.
//! Both properties hold because work items never share an RNG stream —
//! each item draws only from its own `Seed::derive_index` child — so the
//! only thing parallelism could perturb is *result order*, and the
//! functions here pin that by index:
//!
//! * work items are claimed in contiguous *chunks* from a shared atomic
//!   counter by a fixed pool of scoped threads — one `fetch_add` per
//!   chunk instead of per item keeps synchronisation off the per-item
//!   path;
//! * each worker buffers `(index, result)` pairs locally; the buffers
//!   are merged into index order after the scope joins, so no per-slot
//!   locks are taken at all;
//! * the requested thread count is clamped to the machine's effective
//!   parallelism (unless the caller pinned it via `EYEORG_THREADS`),
//!   and a pool of 1 short-circuits to a plain sequential iterator —
//!   the exact code path the single-threaded implementation used.
//!
//! The merged output is therefore identical for every thread count, and
//! an effective pool of 1 *is* the old sequential run. On a box where
//! `available_parallelism` is 1 a request for "4 threads" no longer
//! pays thread spawn + contention for zero speedup (the PR 1 bench
//! showed 0.3–0.4× "speedups" exactly because of that).
//!
//! [`par_fold_range`] claims indices the same way but returns one
//! folded state per worker instead of one result per index: which
//! worker folds which index follows the schedule, so its callers'
//! folds must be exactly commutative and associative, and the merged
//! states are then identical for every thread count too.
//!
//! No external dependencies: plain `std::thread::scope` and
//! `AtomicUsize`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

// --- seeded interleaving chaos (race-exerciser support) ---------------
//
// The `stress` binary in `crates/lint` re-runs the campaign engine under
// permuted thread schedules: with a non-zero chaos seed every worker
// sprinkles seed-derived `yield_now` calls through its claim/execute
// loop, perturbing which worker claims which chunk and when. The merged
// output must not change — results are pinned by index, or (for
// `par_fold_range`) merged by an exactly commutative fold — so any
// divergence under chaos is a real interleaving bug, caught on stable
// without a race detector.

/// Process-wide chaos seed; `0` disables injection (the default, and
/// the only value production paths ever see).
static CHAOS_SEED: AtomicU64 = AtomicU64::new(0);

/// Install a chaos seed for seeded-interleaving stress runs (`0` turns
/// injection back off). Schedules are a pure function of
/// `(seed, worker, step)`, so a given seed perturbs thread timing
/// reproducibly enough to name in a bug report.
pub fn set_chaos_seed(seed: u64) {
    // lint:allow(D3): store/load only gate test-time yield injection; no data flows through this atomic into any fingerprinted output
    CHAOS_SEED.store(seed, Ordering::Relaxed);
}

/// Yield 0–3 times based on the chaos seed, this worker, and its local
/// step counter. A single relaxed load when chaos is off.
#[inline]
fn chaos_yield(worker: usize, step: &mut u64) {
    // lint:allow(D3): store/load only gate test-time yield injection; no data flows through this atomic into any fingerprinted output
    let seed = CHAOS_SEED.load(Ordering::Relaxed);
    if seed == 0 {
        return;
    }
    *step += 1;
    // splitmix64-style mix of (seed, worker, step).
    let mut z = seed
        ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ step.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    for _ in 0..(z & 3) {
        std::thread::yield_now();
    }
}

/// Number of worker threads to use when a caller asks for "automatic":
/// the `EYEORG_THREADS` environment variable when set to a positive
/// integer, otherwise [`std::thread::available_parallelism`].
///
/// Cached after the first call (consistent within a process run).
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Some(n) = env_thread_override() {
            return n;
        }
        std::thread::available_parallelism().map(usize::from).unwrap_or(1)
    })
}

/// Upper bound honoured for `EYEORG_THREADS`: far beyond any machine
/// this workload targets, but low enough that a stray `999999999` in the
/// environment cannot ask `std::thread::scope` for a billion workers.
pub const MAX_THREAD_OVERRIDE: usize = 512;

/// Parse an `EYEORG_THREADS`-style value. `None` for anything that is
/// not a positive integer (empty, garbage, `0`); values above
/// [`MAX_THREAD_OVERRIDE`] clamp to it. Whitespace is trimmed.
pub fn parse_thread_override(raw: &str) -> Option<usize> {
    let n = raw.trim().parse::<usize>().ok()?;
    if n == 0 {
        return None;
    }
    Some(n.min(MAX_THREAD_OVERRIDE))
}

/// The `EYEORG_THREADS` override, if set to a positive integer.
fn env_thread_override() -> Option<usize> {
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| {
        std::env::var("EYEORG_THREADS").ok().as_deref().and_then(parse_thread_override)
    })
}

/// Resolve a thread-count knob: `0` means "automatic" (see
/// [`default_threads`]), anything else is taken literally.
pub fn resolve_threads(knob: usize) -> usize {
    if knob == 0 {
        default_threads()
    } else {
        knob
    }
}

/// The pool size actually worth spawning for an explicit `threads`
/// request: clamped to `available_parallelism` so that oversubscribing
/// a small machine degrades to the sequential path instead of paying
/// spawn + contention overhead for nothing. An explicit
/// `EYEORG_THREADS` pin wins over the clamp (it is how the regression
/// tests force multi-threaded execution on 1-core CI boxes).
pub fn effective_pool(threads: usize) -> usize {
    if env_thread_override().is_some() {
        return threads;
    }
    let hw = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    threads.min(hw)
}

/// Chunk size for the shared work counter: large enough to amortise the
/// `fetch_add`, small enough to keep the tail balanced when per-item
/// cost is skewed (page loads vary ~5× across sites).
fn chunk_size(n: usize, pool: usize) -> usize {
    // Aim for ~4 chunks per worker, at least 1 item per chunk.
    (n / (pool * 4)).max(1)
}

/// Map `f` over `0..n` on `threads` workers, returning results in index
/// order. `f(i)` must depend only on `i` (and captured immutable state)
/// — the usual shape is "derive the item's own seed from its index".
///
/// With an effective pool of 1 (requested, or clamped by the hardware)
/// this is exactly `(0..n).map(f).collect()`.
pub fn par_map_range<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let pool = effective_pool(threads).min(n);
    if pool <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = chunk_size(n, pool);
    let next = AtomicUsize::new(0);
    let f = &f;
    let mut per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pool)
            .map(|worker| {
                let next = &next;
                scope.spawn(move || {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let mut chaos_step = 0u64;
                    loop {
                        chaos_yield(worker, &mut chaos_step);
                        // lint:allow(D3): relaxed chunk claiming only permutes which worker computes which index; results are merged back in index order below, so no claim order reaches any output
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start..(start + chunk).min(n) {
                            chaos_yield(worker, &mut chaos_step);
                            out.push((i, f(i)));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            // lint:allow(D4): a panicking work item must propagate, not be swallowed into a partial result
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    // Merge by index. Each index appears exactly once across the
    // buffers; within a buffer indices are increasing, so a bucket
    // scatter restores the full order without sorting.
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for buf in per_worker.drain(..) {
        for (i, r) in buf {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(r);
        }
    }
    // lint:allow(D4): the chunked claim loop visits every index in 0..n exactly once, so every slot is filled
    slots.into_iter().map(|s| s.expect("every index claimed")).collect()
}

/// Fold `0..n` on `threads` workers into per-worker states: each worker
/// calls `make` once and folds every index it claims into its state
/// with `f(&mut state, i)`; the workers' states come back (at most
/// `threads` of them, at least one) for the caller to merge. The flat
/// campaign kernel uses this to fold every shard a worker claims into
/// one worker-owned campaign fold, so a run holds one fold per worker,
/// not one per shard.
///
/// Determinism contract: the fold must be exactly associative and
/// commutative — merging the returned states, in any order, must equal
/// folding `0..n` into one state. Which worker folds which index, and
/// how many states there are, vary with the schedule; only a merge that
/// is blind to grouping and order keeps the result stable. Integer
/// tallies, fixed-point sums and multiset-determined sketches qualify;
/// float sums and order-keeping buffers do not.
///
/// With an effective pool of 1 (or `n <= 1`) this is one `make()`
/// followed by `(0..n).for_each(|i| f(&mut state, i))`: exactly one
/// state, even for `n = 0`.
pub fn par_fold_range<S, M, F>(n: usize, threads: usize, make: M, f: F) -> Vec<S>
where
    S: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let pool = effective_pool(threads).min(n);
    if pool <= 1 || n <= 1 {
        let mut state = make();
        for i in 0..n {
            f(&mut state, i);
        }
        return vec![state];
    }
    let chunk = chunk_size(n, pool);
    let next = AtomicUsize::new(0);
    let make = &make;
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pool)
            .map(|worker| {
                let next = &next;
                scope.spawn(move || {
                    let mut state = make();
                    let mut chaos_step = 0u64;
                    loop {
                        chaos_yield(worker, &mut chaos_step);
                        // lint:allow(D3): relaxed chunk claiming decides which worker folds which index; the caller's fold is exactly commutative and associative, so merging the worker states in any grouping gives one result and no claim order reaches any output
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start..(start + chunk).min(n) {
                            chaos_yield(worker, &mut chaos_step);
                            f(&mut state, i);
                        }
                    }
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            // lint:allow(D4): a panicking work item must propagate, not be swallowed into a partial result
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Seed;

    #[test]
    fn parallel_matches_sequential() {
        let work = |i: usize| {
            // A per-index derived stream, like real call sites.
            let mut rng = crate::rng::Rng::seed_from_u64(Seed(9).derive_index("w", i as u64).value());
            (0..100).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
        };
        let seq = par_map_range(64, 1, work);
        for threads in [2, 3, 4, 8] {
            assert_eq!(par_map_range(64, threads, work), seq, "threads={threads}");
        }
    }

    /// An exactly commutative, associative fold state: wrapping sums,
    /// an xor, integer bins, and the sorted multiset of folded indices.
    #[derive(Debug, Clone, PartialEq, Default)]
    struct Tally {
        sum: u64,
        xor: u64,
        bins: [u64; 7],
        seen: Vec<usize>,
    }

    impl Tally {
        fn fold(&mut self, i: usize) {
            let mut rng =
                crate::rng::Rng::seed_from_u64(Seed(11).derive_index("s", i as u64).value());
            let v = rng.next_u64();
            self.sum = self.sum.wrapping_add(v);
            self.xor ^= v;
            self.bins[(v % 7) as usize] += 1;
            self.seen.push(i);
        }

        fn merge(mut self, other: &Tally) -> Tally {
            self.sum = self.sum.wrapping_add(other.sum);
            self.xor ^= other.xor;
            for (b, o) in self.bins.iter_mut().zip(&other.bins) {
                *b += o;
            }
            self.seen.extend(&other.seen);
            self.seen.sort_unstable();
            self
        }
    }

    fn fold_merged(n: usize, threads: usize) -> (usize, Tally) {
        let states = par_fold_range(n, threads, Tally::default, Tally::fold);
        let count = states.len();
        (count, states.iter().fold(Tally::default(), Tally::merge))
    }

    /// The chaos seeds of the `stress` exerciser in `crates/lint`.
    const CHAOS_SEEDS: [u64; 3] = [0, 0x9e37_79b9_7f4a_7c15, 0x00c0_ffee_d00d_cafe];

    #[test]
    fn fold_merges_to_the_sequential_fold_under_any_schedule() {
        for n in [0, 1, 2, 7, 97, 257] {
            let (count, seq) = fold_merged(n, 1);
            assert_eq!(count, 1, "a pool of 1 returns exactly one state (n={n})");
            assert_eq!(seq.seen, (0..n).collect::<Vec<_>>(), "every index folded once (n={n})");
            for chaos in CHAOS_SEEDS {
                set_chaos_seed(chaos);
                for threads in [1, 2, 4] {
                    let (count, merged) = fold_merged(n, threads);
                    assert!(
                        (1..=threads).contains(&count),
                        "n={n} threads={threads}: {count} states"
                    );
                    assert_eq!(merged, seq, "n={n} threads={threads} chaos={chaos:#x}");
                }
            }
            set_chaos_seed(0);
        }
    }

    #[test]
    fn fold_of_zero_and_one_items_is_one_state() {
        for threads in [1, 2, 4, 8] {
            let empty = par_fold_range(0, threads, Tally::default, Tally::fold);
            assert_eq!(empty, vec![Tally::default()], "threads={threads}");
            let one = par_fold_range(1, threads, Tally::default, Tally::fold);
            let mut expected = Tally::default();
            expected.fold(0);
            assert_eq!(one, vec![expected], "threads={threads}");
        }
    }

    #[test]
    fn zero_and_one_items_work_at_any_thread_count() {
        assert_eq!(par_map_range(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_range(1, 8, |i| i * 2), vec![0]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(par_map_range(3, 64, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn chunked_claiming_covers_every_index() {
        // n not divisible by chunk or pool; every index must appear once.
        for n in [2, 7, 63, 64, 65, 257] {
            let got = par_map_range(n, 4, |i| i);
            assert_eq!(got, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn thread_override_parsing_rejects_and_clamps() {
        // Plain positive integers pass through.
        assert_eq!(parse_thread_override("1"), Some(1));
        assert_eq!(parse_thread_override("8"), Some(8));
        assert_eq!(parse_thread_override("  4\n"), Some(4));
        // Zero means "no override", like an unset variable.
        assert_eq!(parse_thread_override("0"), None);
        // Garbage falls back instead of propagating a parse panic.
        assert_eq!(parse_thread_override(""), None);
        assert_eq!(parse_thread_override("two"), None);
        assert_eq!(parse_thread_override("-3"), None);
        assert_eq!(parse_thread_override("4.5"), None);
        assert_eq!(parse_thread_override("8 workers"), None);
        // Huge values clamp instead of requesting absurd pools; numbers
        // beyond usize parse as errors and also fall back.
        assert_eq!(parse_thread_override("999999999"), Some(MAX_THREAD_OVERRIDE));
        assert_eq!(parse_thread_override(&"9".repeat(40)), None);
        assert_eq!(parse_thread_override("512"), Some(512));
        assert_eq!(parse_thread_override("513"), Some(512));
    }

    #[test]
    fn chunk_size_is_sane() {
        assert_eq!(chunk_size(1, 4), 1);
        assert_eq!(chunk_size(64, 4), 4);
        assert!(chunk_size(1000, 2) >= 1);
    }
}
