//! Golden checkpoint bytes (DESIGN.md §3i, format version 1).
//!
//! Three small checkpoints are rebuilt from fixed seeds and compared
//! byte for byte against files checked in under `tests/fixtures/`:
//!
//! * `ckpt_tl_worker.jsonl` — a timeline worker slice over `[40, 120)`
//!   with a 4-sample exact cap, so every sketch has spilled to bins;
//! * `ckpt_tl_driver.jsonl` — an adaptive timeline driver checkpoint
//!   interrupted at the first barrier that took a stop decision;
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
        AdaptiveBackend::Streaming,
    )
    .expect("timeline worker checkpoint")
}

fn tl_driver() -> TimelineCheckpoint {
    let ac = AdaptiveConfig { epoch: 32, epsilon: 0.5, min_n: 4, max_n: 0 };
    let outcome = checkpointed_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        200,
        &cfg(),
        &paper_pipeline(),
        Seed(2211),
        &sc(),
        &ac,
        AdaptiveBackend::Streaming,
        None,
        &CheckpointConfig::default(),
        // Interrupt at the first barrier that has taken a decision.
        &mut |ev| match ev {
            CheckpointEvent::Checkpoint(ck) => !ck.save().contains("\"cause\":"),
            CheckpointEvent::Live(_) => true,
        },
    )
    .expect("checkpointed run");
    let RunOutcome::Interrupted(ck) = outcome else { panic!("a decision interrupts the run") };
    *ck
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
    let ck = tl_driver();
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
