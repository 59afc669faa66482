//! stress: the seeded-interleaving race exerciser.
//!
//! The workspace's determinism contract says campaign output and
//! observability counters are byte-identical at every thread count. The
//! unit tests check that under whatever schedule the OS happens to
//! produce — which on an idle CI box is usually the *same* schedule
//! every run, so a real ordering bug can hide for months. This binary
//! closes that gap: it re-runs the parallel campaign pipeline under
//! **seed-permuted adversarial schedules** (`eyeorg_stats::par` injects
//! 0–3 `yield_now` calls at every chunk claim and work item, driven by
//! a splitmix64 stream over `(chaos_seed, worker, step)`) at 1, 2, and
//! 4 worker threads, and fails loudly unless every combination produces
//! the same campaign digest and the same counter fingerprint.
//!
//! The row-keeping campaign merges its results in index order; the
//! folding kernel behind `flat_timeline_campaign`, `flat_ab_campaign`
//! and `adaptive_timeline_campaign` does not — each worker folds every
//! shard it claims into its own fold, so the schedule decides which
//! worker folds which shard, and only the exact, multiset-determined
//! merge keeps the digest stable. Those three run here too, over
//! 20,000 participants in 64-participant shards (the adaptive run in
//! 1,000-participant epochs, so later epochs start from spilled
//! sketches and stop stimuli under a mask).
//!
//! A second phase hammers the per-key `OnceLock` cells of the shared
//! capture cache: many workers race overlapping keys on a fresh cache
//! and every winner must hand all losers the *same allocation*, with
//! miss counters equal to the number of distinct keys regardless of the
//! interleaving.
//!
//! If `EYEORG_THREADS` is unset the binary pins it to 4 so that
//! `effective_pool` spawns real contention even on a 1-core CI box.

use std::process::ExitCode;
use std::sync::Arc;

use eyeorg_browser::BrowserConfig;
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::{par_map_range, set_chaos_seed, Seed};
use eyeorg_video::{shared_capture_cache, CaptureCache, CaptureConfig, Video};
use eyeorg_workload::{alexa_like, Website};

const SITES: usize = 6;
const REPEATS: usize = 2;
const PARTICIPANTS: usize = 80;
/// Crowd size and shard size of the folding-kernel rounds.
const KERNEL_PARTICIPANTS: usize = 20_000;
const KERNEL_SHARD: usize = 64;
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const CHAOS_SEEDS: [u64; 3] = [0, 0x9e37_79b9_7f4a_7c15, 0x00c0_ffee_d00d_cafe];

/// FNV-1a over the `Debug` rendering: every field of every row feeds
/// the digest, so equal digests mean byte-identical campaigns without
/// keeping the full strings around for a 9-way comparison.
fn digest<T: std::fmt::Debug>(value: &T) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{value:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One cold campaign run: cleared shared cache, fresh counters, the
/// given schedule perturbation. Returns (campaign digest, counter
/// fingerprint).
fn campaign_round(sites: &[Website], threads: usize, chaos: u64) -> (u64, String) {
    shared_capture_cache().clear();
    eyeorg_obs::reset();
    set_chaos_seed(chaos);
    let seed = Seed(2016).derive("stress");
    let capture = CaptureConfig { repeats: REPEATS, ..CaptureConfig::default() };
    let stimuli = timeline_stimuli_threads(
        sites,
        &BrowserConfig::new(),
        &capture,
        seed.derive("cap"),
        threads,
    );
    let cfg = ExperimentConfig { threads, ..ExperimentConfig::default() };
    let campaign =
        run_timeline_campaign(stimuli, &CrowdFlower, PARTICIPANTS, &cfg, seed.derive("run"));
    let fp = eyeorg_obs::snapshot("stress", threads).counter_fingerprint();
    (digest(&campaign), fp)
}

/// One folding-kernel run under the given schedule perturbation:
/// fresh counters, then `run` at `threads`. Returns (output digest,
/// counter fingerprint).
fn kernel_round<T: std::fmt::Debug>(
    threads: usize,
    chaos: u64,
    run: impl Fn(&ExperimentConfig, &StreamConfig) -> T,
) -> (u64, String) {
    eyeorg_obs::reset();
    set_chaos_seed(chaos);
    let cfg = ExperimentConfig { threads, ..ExperimentConfig::default() };
    let sc = StreamConfig { shard_size: KERNEL_SHARD, ..StreamConfig::default() };
    let out = run(&cfg, &sc);
    (digest(&out), eyeorg_obs::snapshot("stress", threads).counter_fingerprint())
}

/// Run `round` at every thread count × chaos seed and count the
/// combinations whose (digest, counter fingerprint) differ from the
/// first one's.
fn sweep(what: &str, round: &dyn Fn(usize, u64) -> (u64, String)) -> u32 {
    let mut failures = 0u32;
    let mut baseline: Option<(u64, String)> = None;
    for &threads in &THREAD_COUNTS {
        for &chaos in &CHAOS_SEEDS {
            let got = round(threads, chaos);
            match &baseline {
                None => {
                    println!("{what:<8} threads={threads} chaos={chaos:#018x} digest={:#018x} (baseline)", got.0);
                    baseline = Some(got);
                }
                Some(base) => {
                    if *base == got {
                        println!(
                            "{what:<8} threads={threads} chaos={chaos:#018x} digest={:#018x} ok",
                            got.0
                        );
                    } else {
                        failures += 1;
                        let which = if base.0 != got.0 { "digest" } else { "counter fingerprint" };
                        eprintln!(
                            "DIVERGENCE: {what} threads={threads} chaos={chaos:#018x}: {which} differs from baseline"
                        );
                    }
                }
            }
        }
    }
    failures
}

/// Race `workers × per_worker` requests over `distinct` overlapping keys
/// on a fresh cache. Every request for a key must come back as the same
/// `Arc` allocation, the cache must hold exactly `distinct` entries, and
/// the miss counter must equal `distinct` — the once-per-key guarantee.
fn cache_round(sites: &[Website], threads: usize, chaos: u64) -> Result<(), String> {
    eyeorg_obs::reset();
    set_chaos_seed(chaos);
    let cache = CaptureCache::new();
    let seed = Seed(2016).derive("stress-cache");
    let capture = CaptureConfig { repeats: 1, ..CaptureConfig::default() };
    let browser = BrowserConfig::new();
    let distinct = sites.len();
    let requests = distinct * 8;
    let videos: Vec<Arc<Video>> = par_map_range(requests, threads, |i| {
        cache.capture_median(&sites[i % distinct], &browser, seed.derive("k"), &capture)
    });
    if cache.len() != distinct {
        return Err(format!("cache holds {} entries, expected {distinct}", cache.len()));
    }
    for (i, v) in videos.iter().enumerate() {
        if !Arc::ptr_eq(v, &videos[i % distinct]) {
            return Err(format!("request {i} returned a different allocation for its key"));
        }
    }
    let misses = eyeorg_obs::metrics::VIDEO_CACHE_MISSES.get();
    if misses != distinct as u64 {
        return Err(format!("{misses} misses recorded, expected {distinct}"));
    }
    let total = eyeorg_obs::metrics::VIDEO_CACHE_REQUESTS.get();
    if total != requests as u64 {
        return Err(format!("{total} requests recorded, expected {requests}"));
    }
    Ok(())
}

fn main() -> ExitCode {
    if std::env::var_os("EYEORG_THREADS").is_none() {
        // Before any pool is sized: effective_pool reads the override
        // once, and without it a 1-core box would clamp every round to
        // the sequential path and exercise nothing.
        std::env::set_var("EYEORG_THREADS", "4");
    }
    eyeorg_obs::enable();
    let sites = alexa_like(Seed(2016).derive("stress-sites"), SITES);

    let mut failures = sweep("campaign", &|threads, chaos| campaign_round(&sites, threads, chaos));

    // The kernel rounds share one set of captures: the schedule under
    // test is the kernel's, not the capture fan-out's.
    let seed = Seed(2016).derive("stress-kernel");
    let capture = CaptureConfig { repeats: REPEATS, ..CaptureConfig::default() };
    let browser = BrowserConfig::new();
    let tl = timeline_stimuli(&sites, &browser, &capture, seed.derive("cap"));
    let ab = protocol_ab_stimuli(&sites, &browser, &capture, seed.derive("cap-ab"));
    let filters = paper_pipeline();
    let n = KERNEL_PARTICIPANTS;
    failures += sweep("flat-tl", &|threads, chaos| {
        kernel_round(threads, chaos, |cfg, sc| {
            flat_timeline_campaign(&tl, &CrowdFlower, n, cfg, &filters, seed, sc)
        })
    });
    failures += sweep("flat-ab", &|threads, chaos| {
        kernel_round(threads, chaos, |cfg, sc| {
            flat_ab_campaign(&ab, &CrowdFlower, n, cfg, &filters, seed, sc)
        })
    });
    // Stops fall at barriers 1 to 8, and all but one stimulus spill.
    let ac = AdaptiveConfig { epoch: 1_000, epsilon: 0.05, min_n: 500, max_n: 0 };
    failures += sweep("adaptive", &|threads, chaos| {
        kernel_round(threads, chaos, |cfg, sc| {
            let out = adaptive_timeline_campaign(
                &tl,
                &CrowdFlower,
                n,
                cfg,
                &filters,
                seed,
                sc,
                &ac,
                AdaptiveBackend::Flat,
            );
            (out.digest, out.decisions)
        })
    });

    for &threads in &THREAD_COUNTS {
        for &chaos in &CHAOS_SEEDS {
            match cache_round(&sites, threads, chaos) {
                Ok(()) => println!("cache    threads={threads} chaos={chaos:#018x} ok"),
                Err(why) => {
                    failures += 1;
                    eprintln!("RACE: cache threads={threads} chaos={chaos:#018x}: {why}");
                }
            }
        }
    }

    set_chaos_seed(0);
    if failures == 0 {
        println!("stress: all interleavings deterministic");
        ExitCode::SUCCESS
    } else {
        eprintln!("stress: {failures} divergent interleaving(s)");
        ExitCode::FAILURE
    }
}
