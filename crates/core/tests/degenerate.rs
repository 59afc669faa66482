//! Regression tests for the degenerate analysis path: every response of
//! a site (or the whole campaign) filtered away must degrade to "zero
//! retained" — empty sample vectors, `None` aggregates, a renderable
//! export — never a panic.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

use eyeorg_browser::BrowserConfig;
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::Seed;
use eyeorg_video::CaptureConfig;
use eyeorg_workload::alexa_like;

fn quick_capture() -> CaptureConfig {
    CaptureConfig { repeats: 2, ..CaptureConfig::default() }
}

fn mini_timeline(n_participants: usize, seed: u64) -> TimelineCampaign {
    let sites = alexa_like(Seed(520), 4);
    let stimuli = timeline_stimuli(&sites, &BrowserConfig::new(), &quick_capture(), Seed(521));
    run_timeline_campaign(
        stimuli,
        &CrowdFlower,
        n_participants,
        &ExperimentConfig::default(),
        Seed(seed),
    )
}

/// A filter report that dropped everyone: the worst case of §4.3
/// filtering, which a small campaign with strict thresholds can reach.
fn everyone_dropped(campaign: &TimelineCampaign) -> FilterReport {
    FilterReport {
        engagement: campaign.participants.len(),
        soft: 0,
        control: 0,
        kept: BTreeSet::new(),
    }
}

#[test]
fn analysis_survives_all_responses_filtered() {
    let _g = serial();
    let c = mini_timeline(12, 30);
    let report = everyone_dropped(&c);
    let n_sites = c.stimuli_names.len();

    // Raw and banded sample selection: every site ends up empty, and
    // the band filter must not choke on the empty inputs.
    for band in [None, Some((25.0, 75.0)), Some((10.0, 90.0))] {
        let samples = uplt_samples(&c, &report, band);
        assert_eq!(samples.len(), n_sites);
        assert!(samples.iter().all(Vec::is_empty), "no kept participant, no samples");

        let means = mean_uplt(&c, &report, band);
        assert_eq!(means, vec![None; n_sites], "empty sites aggregate to None");
        let stdevs = uplt_stdev(&c, &report, band);
        assert_eq!(stdevs, vec![None; n_sites]);
    }

    let components = eyeorg_core::analysis::uplt_components(&c, &report);
    assert!(components.iter().all(|(a, b, h)| {
        a.is_empty() && b.is_empty() && h.is_empty()
    }));

    // The export path renders rows with kept=false throughout.
    let export = export_timeline("degenerate", &c, &report);
    let json = to_json(&export);
    let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    for row in v["rows"].as_array().expect("rows array") {
        assert_eq!(row["kept"].as_bool(), Some(false));
    }
}

#[test]
fn single_site_with_zero_retained_degrades_not_panics() {
    let _g = serial();
    // Mixed case: keep some participants, but band-filter a site whose
    // kept responses all sit at the extremes of an inverted band — the
    // per-site vector is empty while others are not.
    let c = mini_timeline(12, 31);
    let report = filter_timeline(&c, &paper_pipeline());
    // An inverted band keeps nothing anywhere — per-site zero retained.
    let samples = uplt_samples(&c, &report, Some((75.0, 25.0)));
    assert!(samples.iter().all(Vec::is_empty));
    let means = mean_uplt(&c, &report, Some((75.0, 25.0)));
    assert!(means.iter().all(Option::is_none));
}

#[test]
fn ab_analysis_survives_all_votes_filtered() {
    let _g = serial();
    let sites = alexa_like(Seed(530), 3);
    let stimuli =
        protocol_ab_stimuli(&sites, &BrowserConfig::new(), &quick_capture(), Seed(531));
    let c = run_ab_campaign(stimuli, &CrowdFlower, 10, &ExperimentConfig::default(), Seed(32));
    let report = FilterReport {
        engagement: c.participants.len(),
        soft: 0,
        control: 0,
        kept: BTreeSet::new(),
    };
    let tallies = ab_tallies(&c, &report);
    assert_eq!(tallies.len(), c.stimuli_names.len());
    for t in &tallies {
        assert_eq!(t.total(), 0);
        assert_eq!(t.agreement(), None, "no votes, no agreement");
        assert_eq!(t.score(), None);
        assert_eq!(t.nd_rate(), None);
    }
    // Δ-bucketed agreement over all-empty tallies: every bucket empty.
    let deltas = vec![0.5; tallies.len()];
    let med = agreement_by_delta(&tallies, &deltas, &[0.0, 1.0, 2.0]);
    assert!(med.iter().all(Option::is_none));

    let export = export_ab("degenerate-ab", &c, &report);
    let json = to_json(&export);
    assert!(serde_json::from_str::<serde_json::Value>(&json).is_ok());
}

/// Asserts that `run` panics with the zero-videos-with-controls message.
fn assert_refused(engine: &str, run: impl Fn()) {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .expect_err("zero videos with controls must be refused");
    let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
    assert!(
        msg.contains("control questions need at least one video per participant"),
        "{engine}: {msg:?}"
    );
}

/// Zero videos per participant with controls on (the control question
/// reuses one of the participant's videos) is refused up front by every
/// one-shot engine, with a message instead of an index-out-of-bounds
/// panic deep inside the serving loop.
#[test]
fn zero_videos_per_participant_with_controls_is_refused() {
    let _g = serial();
    let sites = alexa_like(Seed(530), 2);
    let tl = timeline_stimuli(&sites, &BrowserConfig::new(), &quick_capture(), Seed(531));
    let ab = protocol_ab_stimuli(&sites, &BrowserConfig::new(), &quick_capture(), Seed(532));
    let zero = ExperimentConfig { videos_per_participant: 0, ..ExperimentConfig::default() };
    let filters = paper_pipeline();
    let sc = StreamConfig::default();
    let n = 20;
    assert_refused("run_timeline", || {
        run_timeline_campaign(tl.clone(), &CrowdFlower, n, &zero, Seed(9));
    });
    assert_refused("run_ab", || {
        run_ab_campaign(ab.clone(), &CrowdFlower, n, &zero, Seed(9));
    });
    assert_refused("stream_timeline", || {
        stream_timeline_campaign(&tl, &CrowdFlower, n, &zero, &filters, Seed(9), &sc);
    });
    assert_refused("flat_timeline", || {
        flat_timeline_campaign(&tl, &CrowdFlower, n, &zero, &filters, Seed(9), &sc);
    });
    assert_refused("flat_ab", || {
        flat_ab_campaign(&ab, &CrowdFlower, n, &zero, &filters, Seed(9), &sc);
    });
    assert_refused("adaptive", || {
        let (idle, flat) = (AdaptiveConfig::default(), AdaptiveBackend::Flat);
        let seed = Seed(9);
        adaptive_timeline_campaign(&tl, &CrowdFlower, n, &zero, &filters, seed, &sc, &idle, flat);
    });
}

/// The obs registry is process-global and the harness runs tests
/// concurrently: a test that compares counter fingerprints holds this
/// lock while it counts, and every other campaign-running test here
/// holds it too.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn counters() -> String {
    eyeorg_obs::snapshot("degenerate", 0).counter_fingerprint()
}

/// `kept` holds every admitted participant, and nobody is dropped.
fn assert_all_kept_once(report: &FilterReport, admitted: usize, kind: &str) {
    assert_eq!(report.dropped(), 0, "{kind}: no session and no control to drop anyone on");
    assert_eq!(report.kept, (0..admitted).collect::<BTreeSet<_>>(), "{kind}: each kept once");
}

/// Zero videos per participant without controls: every admitted
/// participant has an empty group of rows and controls. The
/// materialized filter and digest judge each of them once and agree
/// with the flat kernel, digest and counter fingerprint, for both kinds.
#[test]
fn participants_without_rows_match_the_kernel() {
    let _g = serial();
    let sites = alexa_like(Seed(540), 2);
    let tl = timeline_stimuli(&sites, &BrowserConfig::new(), &quick_capture(), Seed(541));
    let ab = protocol_ab_stimuli(&sites, &BrowserConfig::new(), &quick_capture(), Seed(542));
    let cfg = ExperimentConfig {
        videos_per_participant: 0,
        with_controls: false,
        ..ExperimentConfig::default()
    };
    let (filters, sc, n, seed) = (paper_pipeline(), StreamConfig::default(), 40, Seed(10));
    eyeorg_obs::enable();

    eyeorg_obs::reset();
    let c = run_timeline_campaign(tl.clone(), &CrowdFlower, n, &cfg, seed);
    assert!(c.rows.is_empty() && c.controls.is_empty() && !c.participants.is_empty());
    let report = filter_timeline(&c, &filters);
    assert_all_kept_once(&report, c.participants.len(), "timeline");
    let rows = (digest_timeline(&c, &report, n, &sc.params).fingerprint(), counters());
    eyeorg_obs::reset();
    let flat = flat_timeline_campaign(&tl, &CrowdFlower, n, &cfg, &filters, seed, &sc);
    assert_eq!(rows, (flat.fingerprint(), counters()), "timeline");

    eyeorg_obs::reset();
    let c = run_ab_campaign(ab.clone(), &CrowdFlower, n, &cfg, seed);
    assert!(c.rows.is_empty() && c.controls.is_empty() && !c.participants.is_empty());
    let report = filter_ab(&c, &filters);
    assert_all_kept_once(&report, c.participants.len(), "A/B");
    let rows = (digest_ab(&c, &report, n).fingerprint(), counters());
    eyeorg_obs::reset();
    let flat = flat_ab_campaign(&ab, &CrowdFlower, n, &cfg, &filters, seed, &sc);
    assert_eq!(rows, (flat.fingerprint(), counters()), "A/B");
}
