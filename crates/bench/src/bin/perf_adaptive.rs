//! Harness for the adaptive early-stopping campaign driver
//! (DESIGN.md §3h): measures how many participants confidence-bound
//! pruning saves on the headline campaign.
//!
//! The measurement: the 1,000,000 × 20 campaign of
//! `perf_scale` run once in full through the flat engine and once
//! adaptively with the calibrated stopping rule. Gates: (a) the
//! adaptive run simulates at least [`REDUCTION_GATE`]x fewer
//! participants than the offered budget, and (b) every UPLT percentile
//! in [`PERCENTILES`] of every stimulus is within the declared tolerance
//! [`ACCURACY_TOL`] of the full run's value. Writes
//! `results/BENCH_adaptive.json`. The determinism gates (an inactive
//! rule equals the plain kernel; an active rule's decisions are
//! invariant across shards, threads and chaos seeds) are the `adaptive`
//! cell of the `campaign_golden` test in `eyeorg-core`.

use std::time::Instant;

use eyeorg_bench::campaigns::capture_browser;
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::Seed;
use eyeorg_video::CaptureConfig;
use eyeorg_workload::alexa_like;

const FULL_PARTICIPANTS: usize = 1_000_000;
const FULL_SITES: usize = 20;
const FULL_SHARD: usize = 8192;

/// Calibrated stopping rule for the full-scale measurement. The sketch
/// widens its median interval by one bin width once spilled, so
/// `epsilon` must sit above that resolution floor (~0.01 s on this
/// workload); 0.05 s staggers convergence over the first few epoch
/// barriers at 2–15k kept responses per stimulus — an order of
/// magnitude under the full run's ~215k — while keeping every reported
/// percentile well inside [`ACCURACY_TOL`].
const FULL_EPOCH: usize = 8_192;
const FULL_EPSILON: f64 = 0.05;
const FULL_MIN_N: u64 = 2_000;

/// The ISSUE's headline gate: budget ÷ participants actually simulated.
const REDUCTION_GATE: f64 = 3.0;

/// UPLT percentiles checked against the full run.
const PERCENTILES: [f64; 5] = [10.0, 25.0, 50.0, 75.0, 90.0];
/// Declared per-percentile accuracy tolerance, seconds. The stopping
/// rule bounds the *median* half-width by `epsilon`; tail percentiles
/// see larger sampling + sketch-resolution error, so the band widens
/// towards the tails. Values are ~2x the worst deltas measured on the
/// calibrated configuration (recorded in `BENCH_adaptive.json`).
const ACCURACY_TOL: [f64; 5] = [0.2, 0.2, 0.1, 0.1, 0.2];

fn stimuli(sites: usize, repeats: usize, seed: Seed) -> Vec<TimelineStimulus> {
    let corpus = alexa_like(seed.derive("sites"), sites);
    let capture = CaptureConfig { repeats, ..CaptureConfig::default() };
    timeline_stimuli(&corpus, &capture_browser(), &capture, seed.derive("capture"))
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

fn adaptive_run(
    stimuli: &[TimelineStimulus],
    budget: usize,
    seed: Seed,
    shard: usize,
    threads: usize,
    ac: &AdaptiveConfig,
) -> (AdaptiveOutcome, f64) {
    eyeorg_obs::reset();
    let cfg = ExperimentConfig { threads, ..ExperimentConfig::default() };
    let t = Instant::now();
    let out = adaptive_timeline_campaign(
        stimuli,
        &CrowdFlower,
        budget,
        &cfg,
        &paper_pipeline(),
        seed,
        &StreamConfig { shard_size: shard, ..StreamConfig::default() },
        ac,
        AdaptiveBackend::Flat,
    );
    (out, t.elapsed().as_secs_f64())
}

fn full() {
    let seed = Seed(2016).derive("perf-adaptive");
    let stimuli = stimuli(FULL_SITES, 3, seed);
    let run_seed = seed.derive("run");

    // Full run: the whole budget through the flat engine.
    let (full_digest, full_secs) =
        flat_run(&stimuli, FULL_PARTICIPANTS, run_seed, FULL_SHARD, 0);
    println!(
        "full      n={FULL_PARTICIPANTS}: {full_secs:.2}s \
         ({:.0} participants/sec)",
        FULL_PARTICIPANTS as f64 / full_secs
    );

    // Adaptive run: same budget, calibrated stopping rule.
    let ac = AdaptiveConfig {
        epoch: FULL_EPOCH,
        epsilon: FULL_EPSILON,
        min_n: FULL_MIN_N,
        max_n: 0,
    };
    let (out, adaptive_secs) =
        adaptive_run(&stimuli, FULL_PARTICIPANTS, run_seed, FULL_SHARD, 0, &ac);
    let simulated = out.recruited - out.pruned;
    let reduction = out.budget as f64 / simulated.max(1) as f64;
    let speedup = full_secs / adaptive_secs.max(1e-9);
    println!(
        "adaptive  budget={FULL_PARTICIPANTS} eps={FULL_EPSILON} min_n={FULL_MIN_N} \
         epoch={FULL_EPOCH}: {adaptive_secs:.2}s, recruited {} (pruned {}), \
         simulated {simulated} => {reduction:.1}x fewer participants, \
         {speedup:.1}x wall-clock",
        out.recruited, out.pruned
    );
    for d in &out.decisions {
        println!(
            "  stop epoch {:>2} {:<22} n={:>6} hw={:.3}s ({:?})",
            d.epoch, d.name, d.retained, d.half_width, d.cause
        );
    }

    // Accuracy: every reported UPLT percentile of every stimulus within
    // the declared tolerance of the full run.
    let mut accuracy_ok = true;
    let mut max_delta = [0f64; PERCENTILES.len()];
    for si in 0..stimuli.len() {
        let full_sk = &full_digest.stimuli[si].sketch;
        let adap_sk = &out.digest.stimuli[si].sketch;
        for (pi, &p) in PERCENTILES.iter().enumerate() {
            let (Some(f), Some(a)) = (full_sk.quantile(p), adap_sk.quantile(p)) else {
                accuracy_ok = false;
                eprintln!("FAIL: stimulus {si} p{p} missing a quantile");
                continue;
            };
            let delta = (f - a).abs();
            if delta > max_delta[pi] {
                max_delta[pi] = delta;
            }
            if delta > ACCURACY_TOL[pi] {
                accuracy_ok = false;
                eprintln!(
                    "FAIL: stimulus {si} ({}) p{p}: |{f:.3} - {a:.3}| = {delta:.3}s \
                     exceeds tolerance {}s",
                    full_digest.stimuli[si].name, ACCURACY_TOL[pi]
                );
            }
        }
    }
    for (pi, &p) in PERCENTILES.iter().enumerate() {
        println!(
            "accuracy p{p:<4}: max |delta| {:.3}s (tolerance {}s)",
            max_delta[pi], ACCURACY_TOL[pi]
        );
    }

    let reduction_ok = reduction >= REDUCTION_GATE;
    if !reduction_ok {
        eprintln!(
            "FAIL: participant reduction {reduction:.2}x is below the {REDUCTION_GATE}x gate"
        );
    }
    let all_stopped = out.stopped_at.iter().all(Option::is_some);
    if !all_stopped {
        // Not a gate (budget exhaustion is legal), but worth seeing.
        println!("note: some stimuli ran to budget exhaustion");
    }

    let env = eyeorg_bench::env_metadata_json();
    let deltas: Vec<String> = PERCENTILES
        .iter()
        .zip(max_delta.iter())
        .zip(ACCURACY_TOL.iter())
        .map(|((p, d), t)| {
            format!("{{\"percentile\": {p}, \"max_delta_secs\": {d:.6}, \"tolerance_secs\": {t}}}")
        })
        .collect();
    let json = format!(
        "{{\n  \"participants_budget\": {FULL_PARTICIPANTS},\n  \
         \"stimuli\": {FULL_SITES},\n  \"shard_size\": {FULL_SHARD},\n  \
         \"adaptive\": {{\"epoch\": {FULL_EPOCH}, \"epsilon\": {FULL_EPSILON}, \
         \"min_n\": {FULL_MIN_N}, \"max_n\": 0, \"z\": {ADAPTIVE_Z}}},\n  \
         {env},\n  \
         \"full_secs\": {full_secs:.6},\n  \
         \"adaptive_secs\": {adaptive_secs:.6},\n  \
         \"recruited\": {},\n  \"pruned\": {},\n  \"simulated\": {simulated},\n  \
         \"participants_saved\": {},\n  \"epochs\": {},\n  \"decisions\": {},\n  \
         \"all_stimuli_stopped\": {all_stopped},\n  \
         \"participant_reduction\": {reduction:.3},\n  \
         \"reduction_gate\": {REDUCTION_GATE},\n  \
         \"wallclock_speedup\": {speedup:.3},\n  \
         \"accuracy\": [\n    {}\n  ],\n  \
         \"reduction_gate_met\": {reduction_ok},\n  \
         \"accuracy_within_tolerance\": {accuracy_ok}\n}}\n",
        out.recruited,
        out.pruned,
        out.participants_saved(),
        out.epochs,
        out.decisions.len(),
        deltas.join(",\n    ")
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_adaptive.json", &json).expect("write BENCH_adaptive.json");
    println!("wrote results/BENCH_adaptive.json");

    if !reduction_ok || !accuracy_ok {
        eprintln!("FAIL: adaptive gates not met");
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
