//! Thread-count determinism regression tests.
//!
//! The parallel campaign engine's contract: for a fixed root seed, the
//! campaign (and everything derived from it, down to the exported JSON
//! dataset) is byte-identical at every worker-thread count, and
//! `threads = 1` runs the same pipeline as a plain sequential loop.
//! These tests pin that contract with a small end-to-end campaign of
//! each type.

use eyeorg_browser::BrowserConfig;
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::Seed;
use eyeorg_video::CaptureConfig;
use eyeorg_workload::alexa_like;

fn capture() -> CaptureConfig {
    CaptureConfig { repeats: 2, ..CaptureConfig::default() }
}

fn cfg(threads: usize) -> ExperimentConfig {
    ExperimentConfig { threads, ..ExperimentConfig::default() }
}

#[test]
fn timeline_campaign_identical_across_thread_counts() {
    let sites = alexa_like(Seed(901), 4);
    let stimuli = timeline_stimuli(&sites, &BrowserConfig::new(), &capture(), Seed(902));

    let sequential =
        run_timeline_campaign(stimuli.clone(), &CrowdFlower, 40, &cfg(1), Seed(903));
    let parallel = run_timeline_campaign(stimuli, &CrowdFlower, 40, &cfg(4), Seed(903));

    // Byte-identical through the full export path (covers every row,
    // response, control, and the serialised float formatting).
    let pipeline = paper_pipeline();
    let seq_json = to_json(&export_timeline(
        "det",
        &sequential,
        &filter_timeline(&sequential, &pipeline),
    ));
    let par_json =
        to_json(&export_timeline("det", &parallel, &filter_timeline(&parallel, &pipeline)));
    assert_eq!(seq_json, par_json, "exported dataset must not depend on thread count");
    // And through the raw structures.
    assert_eq!(format!("{sequential:?}"), format!("{parallel:?}"));
}

#[test]
fn ab_campaign_identical_across_thread_counts() {
    let sites = alexa_like(Seed(911), 4);
    let stimuli = protocol_ab_stimuli(&sites, &BrowserConfig::new(), &capture(), Seed(912));

    let sequential = run_ab_campaign(stimuli.clone(), &CrowdFlower, 40, &cfg(1), Seed(913));
    let parallel = run_ab_campaign(stimuli, &CrowdFlower, 40, &cfg(4), Seed(913));

    let pipeline = paper_pipeline();
    let seq_json =
        to_json(&export_ab("det", &sequential, &filter_ab(&sequential, &pipeline)));
    let par_json = to_json(&export_ab("det", &parallel, &filter_ab(&parallel, &pipeline)));
    assert_eq!(seq_json, par_json, "exported dataset must not depend on thread count");
    assert_eq!(format!("{sequential:?}"), format!("{parallel:?}"));
}

#[test]
fn thread_knob_zero_resolves_to_auto_and_stays_deterministic() {
    let sites = alexa_like(Seed(921), 3);
    let stimuli = timeline_stimuli(&sites, &BrowserConfig::new(), &capture(), Seed(922));
    let auto = run_timeline_campaign(stimuli.clone(), &CrowdFlower, 20, &cfg(0), Seed(923));
    let one = run_timeline_campaign(stimuli, &CrowdFlower, 20, &cfg(1), Seed(923));
    assert_eq!(format!("{auto:?}"), format!("{one:?}"));
}

#[test]
fn capture_fanout_identical_across_thread_counts() {
    let sites = alexa_like(Seed(931), 3);
    let browser = BrowserConfig::new();
    let seq = timeline_stimuli_threads(&sites, &browser, &capture(), Seed(932), 1);
    let par = timeline_stimuli_threads(&sites, &browser, &capture(), Seed(932), 4);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.name, b.name);
        assert_eq!(format!("{:?}", a.video), format!("{:?}", b.video));
    }
}
