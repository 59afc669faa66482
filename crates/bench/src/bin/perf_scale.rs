//! Scale harness for the streaming and flat data-plane campaign engines.
//!
//! The headline measurement: a 1,000,000-participant × 20-stimulus
//! timeline campaign through both engines in bounded memory, plus a
//! single-thread old-vs-new comparison and a thread sweep (1 / 2 / auto
//! via the `ExperimentConfig::threads` knob). Gates: (a) the flat digest
//! is byte-identical to the streaming digest at full scale and at every
//! sweep point, (b) retained bytes stay bounded, (c) the flat engine
//! clears the single-thread regression floor over the streaming engine
//! (see [`FLAT_SPEEDUP_FLOOR`] for why the floor sits below the original
//! roadmap target), (d) the streaming engine keeps its ≥10x
//! participants/sec advantage over the materializing path —
//! `run_timeline_campaign` + `filter_timeline` + `digest_timeline` at
//! [`MATERIALIZING_CAP`] participants, whose time goes almost all to
//! the filter's and the digest's per-participant row scans (quadratic
//! in crowd size), not to serving the rows — and (e) on boxes with more
//! than one hardware thread, the flat auto-thread sweep clears
//! [`PARALLEL_EFFICIENCY_FLOOR`] (on a 1-core box the measurement is
//! recorded but the gate is disarmed — pool = 1 reads ~1.0 by
//! definition). Writes `results/BENCH_scale.json`. The small-scale
//! divergence checks are the `campaign_golden` test in `eyeorg-core`.
//!
//! Memory is reported two ways: the digest's own retained-bytes
//! accounting (exact, hardware-independent) and the process peak-RSS
//! proxy from `/proc/self/status` (`VmHWM`, Linux-only, informational).

use std::time::Instant;

use eyeorg_bench::campaigns::capture_browser;
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::Seed;
use eyeorg_video::CaptureConfig;
use eyeorg_workload::alexa_like;

const FULL_PARTICIPANTS: usize = 1_000_000;
const FULL_SITES: usize = 20;
const BOUND_PROBE_PARTICIPANTS: usize = 100_000;
const MATERIALIZING_CAP: usize = 20_000;
/// Crowd size of the single-thread old-vs-new comparison and the
/// thread sweep (big enough to dominate fixed costs, small enough that
/// the 1-thread streaming run stays cheap).
const SWEEP_PARTICIPANTS: usize = 200_000;
/// Shard size of the headline runs. The fast-path arena (DESIGN.md
/// §3k) keeps per-cell sessions, leaf seeds and expanded RNG blocks
/// resident for a whole shard, so the sweet spot moved down from the
/// pre-fast-path 8192: 512 rows × 6 cells keeps the arena inside
/// cache and measures ~20% faster on the reference box. Digest
/// identity across shard sizes is gated below (and by the
/// `campaign_golden` test), so the knob is pure tuning.
const FULL_SHARD: usize = 512;
/// Contrast shard for the full-scale identity gate (the pre-fast-path
/// headline size).
const ALT_SHARD: usize = 8192;

/// Single-thread flat-vs-streaming hard regression floor. The roadmap
/// aimed for 3x (band 5–10x), but that target predates the measured
/// cost split: ~70% of the streaming engine's single-thread time was
/// the *seeded behavioural model* (persona + session + response
/// draws), which capped the ratio near 1.5x (Amdahl). The §3k fast
/// path shrank that model term for **both** engines — draw-exact, so
/// byte-identity holds — which lowers the ceiling on the *ratio* even
/// as both absolute times improve; perfbench's `crowd-1m` workload
/// times the model end to end, and this floor protects the flat engine's
/// remaining structural win (arena batching + bulk seeding) from
/// regressing: post-fast-path the ratio measures ~1.3x on the
/// reference box, and the floor sits a noise margin below it. The
/// measured ratio and the roadmap target are both recorded in
/// `BENCH_scale.json`.
const FLAT_SPEEDUP_FLOOR: f64 = 1.2;
/// Roadmap item 4's original single-thread target, recorded for
/// comparison against the measured ratio.
const FLAT_SPEEDUP_TARGET: f64 = 3.0;
/// Parallel-efficiency floor for the flat auto-thread sweep
/// (auto-thread speedup over 1 thread, divided by the worker pool
/// used). Gated only when the box actually has more than one hardware
/// thread: on a 1-core box the sweep degenerates to pool = 1 and the
/// ratio reads ~1.0 *by definition*, so gating (or advertising) it
/// there would be vacuous — the residual of ROADMAP item 4.
const PARALLEL_EFFICIENCY_FLOOR: f64 = 0.6;

/// Peak resident set size in bytes (`VmHWM`), or 0 where unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn stimuli(sites: usize, repeats: usize, seed: Seed) -> Vec<TimelineStimulus> {
    let corpus = alexa_like(seed.derive("sites"), sites);
    let capture = CaptureConfig { repeats, ..CaptureConfig::default() };
    timeline_stimuli(&corpus, &capture_browser(), &capture, seed.derive("capture"))
}

fn stream_run(
    stimuli: &[TimelineStimulus],
    n: usize,
    seed: Seed,
    shard: usize,
    threads: usize,
) -> (TimelineDigest, f64) {
    eyeorg_obs::reset();
    let cfg = ExperimentConfig { threads, ..ExperimentConfig::default() };
    let t = Instant::now();
    let digest = stream_timeline_campaign(
        stimuli,
        &CrowdFlower,
        n,
        &cfg,
        &paper_pipeline(),
        seed,
        &StreamConfig { shard_size: shard, ..StreamConfig::default() },
    );
    (digest, t.elapsed().as_secs_f64())
}

fn flat_run(
    stimuli: &[TimelineStimulus],
    n: usize,
    seed: Seed,
    shard: usize,
    threads: usize,
) -> (TimelineDigest, f64) {
    eyeorg_obs::reset();
    let cfg = ExperimentConfig { threads, ..ExperimentConfig::default() };
    let t = Instant::now();
    let digest = flat_timeline_campaign(
        stimuli,
        &CrowdFlower,
        n,
        &cfg,
        &paper_pipeline(),
        seed,
        &StreamConfig { shard_size: shard, ..StreamConfig::default() },
    );
    (digest, t.elapsed().as_secs_f64())
}

fn materializing_run(
    stimuli: &[TimelineStimulus],
    n: usize,
    seed: Seed,
) -> (TimelineDigest, f64) {
    eyeorg_obs::reset();
    let cfg = ExperimentConfig::default();
    let t = Instant::now();
    let campaign = run_timeline_campaign(stimuli.to_vec(), &CrowdFlower, n, &cfg, seed);
    let report = filter_timeline(&campaign, &paper_pipeline());
    let digest = digest_timeline(&campaign, &report, n, &DigestParams::default());
    (digest, t.elapsed().as_secs_f64())
}

fn full() {
    let seed = Seed(2016).derive("perf-scale");
    let stimuli = stimuli(FULL_SITES, 3, seed);

    // Headline streaming run: a million participants, bounded memory.
    let (full_digest, full_secs) =
        stream_run(&stimuli, FULL_PARTICIPANTS, seed.derive("run"), FULL_SHARD, 0);
    let streaming_pps = FULL_PARTICIPANTS as f64 / full_secs;
    let full_retained = full_digest.retained_bytes();
    println!(
        "streaming  n={FULL_PARTICIPANTS} shard={FULL_SHARD}: {full_secs:.2}s \
         ({streaming_pps:.0} participants/sec, digest {full_retained} bytes)"
    );

    // Headline flat run: same campaign through the flat data plane.
    let (flat_digest, flat_secs) =
        flat_run(&stimuli, FULL_PARTICIPANTS, seed.derive("run"), FULL_SHARD, 0);
    let flat_pps = FULL_PARTICIPANTS as f64 / flat_secs;
    let flat_retained = flat_digest.retained_bytes();
    println!(
        "flat       n={FULL_PARTICIPANTS} shard={FULL_SHARD}: {flat_secs:.2}s \
         ({flat_pps:.0} participants/sec, digest {flat_retained} bytes)"
    );
    let mut identical = true;
    if flat_digest.fingerprint() != full_digest.fingerprint() {
        identical = false;
        eprintln!("DIVERGENCE: flat digest differs from streaming at n={FULL_PARTICIPANTS}");
    }

    // Shard-size invariance gate at full scale.
    let (alt_digest, alt_secs) =
        stream_run(&stimuli, FULL_PARTICIPANTS, seed.derive("run"), ALT_SHARD, 0);
    if alt_digest.fingerprint() != full_digest.fingerprint() {
        identical = false;
        eprintln!("DIVERGENCE: shard={ALT_SHARD} digest differs from shard={FULL_SHARD}");
    }
    println!("streaming  n={FULL_PARTICIPANTS} shard={ALT_SHARD}: {alt_secs:.2}s");

    // Old-vs-new, single thread: the flat engine's structure-of-arrays
    // batching against the streaming engine's row-at-a-time loop, both
    // pinned to one worker so the comparison is allocation/layout, not
    // parallelism.
    let (sweep_ref, stream_1t_secs) =
        stream_run(&stimuli, SWEEP_PARTICIPANTS, seed.derive("sweep"), FULL_SHARD, 1);
    let sweep_ref_fp = sweep_ref.fingerprint();
    let stream_1t_pps = SWEEP_PARTICIPANTS as f64 / stream_1t_secs;
    println!(
        "streaming  n={SWEEP_PARTICIPANTS} threads=1: {stream_1t_secs:.2}s \
         ({stream_1t_pps:.0} participants/sec)"
    );

    // Thread sweep of the flat engine via the in-process knob; every
    // point must reproduce the 1-thread streaming digest byte for byte.
    let mut flat_sweep = Vec::new(); // (threads, secs, pps)
    for threads in [1usize, 2, 0] {
        let (d, secs) =
            flat_run(&stimuli, SWEEP_PARTICIPANTS, seed.derive("sweep"), FULL_SHARD, threads);
        if d.fingerprint() != sweep_ref_fp {
            identical = false;
            eprintln!("DIVERGENCE: flat threads={threads} digest differs at n={SWEEP_PARTICIPANTS}");
        }
        let pps = SWEEP_PARTICIPANTS as f64 / secs;
        println!("flat       n={SWEEP_PARTICIPANTS} threads={threads}: {secs:.2}s ({pps:.0} participants/sec)");
        flat_sweep.push((threads, secs, pps));
    }
    let flat_1t_pps = flat_sweep[0].2;
    let flat_2t_pps = flat_sweep[1].2;
    let flat_auto_pps = flat_sweep[2].2;
    let flat_speedup_1t = flat_1t_pps / stream_1t_pps;
    let auto_threads = eyeorg_stats::effective_pool(eyeorg_stats::resolve_threads(0));
    // Parallel efficiency: auto-thread speedup over 1 thread, divided by
    // the pool actually used (1.0 = perfect scaling). Only a real
    // measurement when the hardware offers >1 thread; a 1-core box
    // degrades the sweep to pool=1 and the ratio reads ~1.0 by
    // definition, so the floor below is disarmed there.
    let parallel_efficiency = (flat_auto_pps / flat_1t_pps) / auto_threads.max(1) as f64;
    // lint:allow(D8): hw_parallelism only arms the efficiency gate and annotates JSON metadata, never digest bytes
    let hw_parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let par_eff_gated = hw_parallelism > 1;
    println!(
        "flat vs streaming, 1 thread: {flat_speedup_1t:.1}x \
         (parallel efficiency at {auto_threads} threads: {parallel_efficiency:.2}{})",
        if par_eff_gated { "" } else { ", ungated: 1 hardware thread" }
    );

    // Boundedness gate: once every sketch has spilled, the digest's
    // retained bytes are a constant — the same at 100k and 1M.
    let (probe_digest, _) =
        flat_run(&stimuli, BOUND_PROBE_PARTICIPANTS, seed.derive("run"), FULL_SHARD, 0);
    let probe_retained = probe_digest.retained_bytes();
    let bounded = full_retained <= probe_retained && flat_retained <= probe_retained;
    if !bounded {
        eprintln!(
            "FAIL: retained bytes grew with n ({probe_retained} at \
             n={BOUND_PROBE_PARTICIPANTS} vs {full_retained}/{flat_retained} at \
             n={FULL_PARTICIPANTS})"
        );
    }

    // Throughput comparison: the materializing engine at a capped crowd
    // size (its row-retention and per-participant row scans make the
    // full million impractical — which is the point of the streaming
    // engine).
    let (mat_digest, mat_secs) =
        materializing_run(&stimuli, MATERIALIZING_CAP, seed.derive("run"));
    let materializing_pps = MATERIALIZING_CAP as f64 / mat_secs;
    let speedup = streaming_pps / materializing_pps;
    println!(
        "materializing n={MATERIALIZING_CAP}: {mat_secs:.2}s \
         ({materializing_pps:.0} participants/sec) -> streaming speedup {speedup:.1}x"
    );
    // Equivalence spot-check at the capped size too.
    let (mat_check, _) =
        flat_run(&stimuli, MATERIALIZING_CAP, seed.derive("run"), FULL_SHARD, 0);
    if mat_check.fingerprint() != mat_digest.fingerprint() {
        identical = false;
        eprintln!("DIVERGENCE: flat digest differs from materializing at n={MATERIALIZING_CAP}");
    }

    let peak_rss = peak_rss_bytes();
    let speedup_ok = speedup >= 10.0;
    if !speedup_ok {
        eprintln!("FAIL: streaming speedup {speedup:.1}x is below the 10x gate");
    }
    let flat_speedup_ok = flat_speedup_1t >= FLAT_SPEEDUP_FLOOR;
    if !flat_speedup_ok {
        eprintln!(
            "FAIL: flat single-thread speedup {flat_speedup_1t:.1}x is below the \
             {FLAT_SPEEDUP_FLOOR}x regression floor"
        );
    }
    let par_eff_ok = !par_eff_gated || parallel_efficiency >= PARALLEL_EFFICIENCY_FLOOR;
    if !par_eff_ok {
        eprintln!(
            "FAIL: parallel efficiency {parallel_efficiency:.2} at {auto_threads} threads \
             is below the {PARALLEL_EFFICIENCY_FLOOR} floor ({hw_parallelism} hardware \
             threads available)"
        );
    }

    let env = eyeorg_bench::env_metadata_json();
    let json = format!(
        "{{\n  \"participants\": {FULL_PARTICIPANTS},\n  \"stimuli\": {FULL_SITES},\n  \
         \"shard_size\": {FULL_SHARD},\n  \"alt_shard_size\": {ALT_SHARD},\n  \
         {env},\n  \
         \"streaming_secs\": {full_secs:.6},\n  \
         \"streaming_participants_per_sec\": {streaming_pps:.1},\n  \
         \"flat_secs\": {flat_secs:.6},\n  \
         \"flat_participants_per_sec\": {flat_pps:.1},\n  \
         \"alt_shard_secs\": {alt_secs:.6},\n  \
         \"sweep_participants\": {SWEEP_PARTICIPANTS},\n  \
         \"streaming_1thread_participants_per_sec\": {stream_1t_pps:.1},\n  \
         \"flat_1thread_participants_per_sec\": {flat_1t_pps:.1},\n  \
         \"flat_2thread_participants_per_sec\": {flat_2t_pps:.1},\n  \
         \"flat_auto_participants_per_sec\": {flat_auto_pps:.1},\n  \
         \"flat_speedup_1thread\": {flat_speedup_1t:.2},\n  \
         \"flat_speedup_floor\": {FLAT_SPEEDUP_FLOOR},\n  \
         \"flat_speedup_roadmap_target\": {FLAT_SPEEDUP_TARGET},\n  \
         \"parallel_efficiency\": {parallel_efficiency:.3},\n  \
         \"parallel_efficiency_floor\": {PARALLEL_EFFICIENCY_FLOOR},\n  \
         \"hw_parallelism\": {hw_parallelism},\n  \
         \"parallel_efficiency_gated\": {par_eff_gated},\n  \
         \"parallel_efficiency_ok\": {par_eff_ok},\n  \
         \"materializing_participants\": {MATERIALIZING_CAP},\n  \
         \"materializing_secs\": {mat_secs:.6},\n  \
         \"materializing_participants_per_sec\": {materializing_pps:.1},\n  \
         \"speedup\": {speedup:.2},\n  \
         \"digest_retained_bytes\": {full_retained},\n  \
         \"digest_retained_bytes_at_{BOUND_PROBE_PARTICIPANTS}\": {probe_retained},\n  \
         \"retained_bytes_bounded\": {bounded},\n  \
         \"peak_rss_bytes\": {peak_rss},\n  \
         \"speedup_gate_10x\": {speedup_ok},\n  \
         \"flat_speedup_floor_met\": {flat_speedup_ok},\n  \
         \"identical_across_engines_shards_threads\": {identical}\n}}\n"
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("wrote results/BENCH_scale.json");

    if !identical || !bounded || !speedup_ok || !flat_speedup_ok || !par_eff_ok {
        eprintln!("FAIL: scale gates not met");
        std::process::exit(1);
    }
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unknown argument: {arg}");
        std::process::exit(2);
    }
    eyeorg_obs::enable();
    full();
}
