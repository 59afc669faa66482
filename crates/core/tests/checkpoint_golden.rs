//! Golden checkpoint bytes (DESIGN.md §3i, format version 1).
//!
//! Four small checkpoints are rebuilt from fixed seeds and compared
//! byte for byte against files checked in under `tests/fixtures/`:
//!
//! * `ckpt_tl_worker.jsonl` — a timeline worker slice over `[40, 120)`
//!   with a 4-sample exact cap, so every sketch has spilled to bins;
//! * `ckpt_tl_driver.jsonl` — an adaptive timeline driver checkpoint
//!   interrupted at the first barrier that took a stop decision;
//! * `ckpt_tl_driver_pruned.jsonl` — a one-video-per-participant
//!   adaptive driver checkpoint interrupted at the first barrier with
//!   pruned participants (`pruned > 0`), pinning the masked kernel's
//!   pruning;
//! * `ckpt_ab_worker.jsonl` — an A/B worker slice over `[30, 90)`.
//!
//! Each must also be a fixed point of `load` → `save`. The obs registry
//! stays disabled (the default) in this test binary, so the counters
//! line is the all-zero registry and the bytes do not depend on what
//! else ran in the process. A failure here means the on-disk format
//! changed: bump `CHECKPOINT_VERSION` instead of editing the fixtures.

use std::sync::OnceLock;

use eyeorg_browser::BrowserConfig;
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::Seed;
use eyeorg_video::CaptureConfig;
use eyeorg_workload::alexa_like;

fn capture() -> CaptureConfig {
    CaptureConfig { repeats: 1, ..CaptureConfig::default() }
}

fn tl_stimuli() -> &'static Vec<TimelineStimulus> {
    static STIMULI: OnceLock<Vec<TimelineStimulus>> = OnceLock::new();
    STIMULI.get_or_init(|| {
        let sites = alexa_like(Seed(2201), 3);
        timeline_stimuli(&sites, &BrowserConfig::new(), &capture(), Seed(2202))
    })
}

fn ab_stimuli() -> &'static Vec<AbStimulus> {
    static STIMULI: OnceLock<Vec<AbStimulus>> = OnceLock::new();
    STIMULI.get_or_init(|| {
        let sites = alexa_like(Seed(2203), 2);
        protocol_ab_stimuli(&sites, &BrowserConfig::new(), &capture(), Seed(2204))
    })
}

fn cfg() -> ExperimentConfig {
    ExperimentConfig { threads: 2, ..ExperimentConfig::default() }
}

/// Small accumulators keep the fixtures short; `exact_cap = 4` forces
/// the spilled-sketch regime.
fn sc() -> StreamConfig {
    StreamConfig {
        shard_size: 16,
        params: DigestParams { hist_bins: 8, sketch_bins: 16, exact_cap: 4 },
    }
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn tl_worker() -> TimelineCheckpoint {
    timeline_worker_checkpoint(
        tl_stimuli(),
        &CrowdFlower,
        40,
        120,
        &cfg(),
        &paper_pipeline(),
        Seed(2210),
        &sc(),
    )
    .expect("timeline worker checkpoint")
}

/// An adaptive driver run of 200 participants, interrupted at the first
/// barrier whose checkpoint `stop` accepts.
fn tl_driver(
    cfg: &ExperimentConfig,
    seed: Seed,
    stop: impl Fn(&TimelineCheckpoint) -> bool,
) -> TimelineCheckpoint {
    let ac = AdaptiveConfig { epoch: 32, epsilon: 0.5, min_n: 4, max_n: 0 };
    let outcome = checkpointed_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        200,
        cfg,
        &paper_pipeline(),
        seed,
        &sc(),
        &ac,
        AdaptiveBackend::Flat,
        None,
        &CheckpointConfig::default(),
        &mut |ev| match ev {
            CheckpointEvent::Checkpoint(ck) => !stop(ck),
            CheckpointEvent::Live(_) => true,
        },
    )
    .expect("checkpointed run");
    let RunOutcome::Interrupted(ck) = outcome else { panic!("the stop predicate interrupts") };
    *ck
}

/// The `pruned` count on a checkpoint's totals line (line 2).
fn pruned(ck: &TimelineCheckpoint) -> u64 {
    let doc = ck.save();
    let key = "\"pruned\":";
    let at = doc.find(key).expect("totals line") + key.len();
    let end = at + doc[at..].find(',').expect("pruned value");
    doc[at..end].parse().expect("pruned is a count")
}

fn ab_worker() -> AbCheckpoint {
    ab_worker_checkpoint(
        ab_stimuli(),
        &CrowdFlower,
        30,
        90,
        &cfg(),
        &paper_pipeline(),
        Seed(2212),
        &sc(),
    )
    .expect("ab worker checkpoint")
}

#[test]
fn timeline_worker_slice_matches_golden_bytes() {
    let golden = fixture("ckpt_tl_worker.jsonl");
    let ck = tl_worker();
    assert_eq!(ck.range(), (40, 120));
    assert!(golden.contains("\"spilled\":true"), "fixture exercises the spilled regime");
    assert_eq!(ck.save(), golden);
    let reloaded = TimelineCheckpoint::load(&golden).expect("golden loads");
    assert_eq!(reloaded.save(), golden, "load → save is a fixed point");
}

#[test]
fn timeline_driver_with_decisions_matches_golden_bytes() {
    let golden = fixture("ckpt_tl_driver.jsonl");
    // Interrupt at the first barrier that has taken a decision.
    let ck = tl_driver(&cfg(), Seed(2211), |ck| ck.save().contains("\"cause\":"));
    assert!(ck.is_resumable());
    assert!(golden.contains("\"cause\":\"converged\""), "fixture carries stop decisions");
    assert_eq!(ck.save(), golden);
    let reloaded = TimelineCheckpoint::load(&golden).expect("golden loads");
    assert_eq!(reloaded.save(), golden, "load → save is a fixed point");
}

#[test]
fn ab_worker_slice_matches_golden_bytes() {
    let golden = fixture("ckpt_ab_worker.jsonl");
    let ck = ab_worker();
    assert_eq!(ck.range(), (30, 90));
    assert_eq!(ck.save(), golden);
    let reloaded = AbCheckpoint::load(&golden).expect("golden loads");
    assert_eq!(reloaded.save(), golden, "load → save is a fixed point");
}

#[test]
fn timeline_driver_with_pruning_matches_golden_bytes() {
    let golden = fixture("ckpt_tl_driver_pruned.jsonl");
    let one_video = ExperimentConfig { videos_per_participant: 1, ..cfg() };
    let ck = tl_driver(&one_video, Seed(2213), |ck| pruned(ck) > 0);
    assert!(ck.is_resumable());
    assert!(pruned(&ck) > 0, "fixture carries pruned participants");
    assert_eq!(ck.save(), golden);
    let reloaded = TimelineCheckpoint::load(&golden).expect("golden loads");
    assert_eq!(reloaded.save(), golden, "load → save is a fixed point");
}
