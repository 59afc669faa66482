//! Workspace-level integration: the public API as a downstream user
//! consumes it, exercised across every crate boundary at once.

use eyeorg_browser::{load_page, AdBlocker, BrowserConfig};
use eyeorg_core::prelude::*;
use eyeorg_crowd::{CrowdFlower, RecruitmentService, TrustedChannel};
use eyeorg_http::Protocol;
use eyeorg_metrics::{compute_metrics, visual_progress_curve};
use eyeorg_net::NetworkProfile;
use eyeorg_stats::{pearson, Seed};
use eyeorg_video::{CaptureConfig, Video};
use eyeorg_workload::{ad_heavy, alexa_like};

/// The README's promised five-line flow actually works end to end.
#[test]
fn readme_flow() {
    let seed = Seed(1);
    let sites = alexa_like(seed, 4);
    let stimuli = timeline_stimuli(
        &sites,
        &BrowserConfig::new().with_network(NetworkProfile::fttc()),
        &CaptureConfig { repeats: 2, ..CaptureConfig::default() },
        seed,
    );
    let campaign =
        run_timeline_campaign(stimuli, &CrowdFlower, 30, &ExperimentConfig::default(), seed);
    let report = filter_timeline(&campaign, &paper_pipeline());
    let uplt = mean_uplt(&campaign, &report, Some((25.0, 75.0)));
    assert_eq!(uplt.len(), 4);
    assert!(uplt.iter().all(|u| u.is_some()));
}

/// Whole-stack determinism: same seed, bit-identical exports.
#[test]
fn whole_stack_determinism() {
    let run = || {
        let seed = Seed(77);
        let sites = ad_heavy(seed, 3, 1);
        let stimuli = adblock_ab_stimuli(
            &sites,
            &BrowserConfig::new(),
            AdBlocker::Ghostery,
            &CaptureConfig { repeats: 2, ..CaptureConfig::default() },
            seed,
        );
        let campaign =
            run_ab_campaign(stimuli, &CrowdFlower, 20, &ExperimentConfig::default(), seed);
        let report = filter_ab(&campaign, &paper_pipeline());
        to_json(&export_ab("det-test", &campaign, &report))
    };
    assert_eq!(run(), run());
}

/// Metrics computed from a capture agree with the trace's own account.
#[test]
fn metrics_consistent_with_trace() {
    let sites = alexa_like(Seed(5), 3);
    for site in &sites {
        let trace = load_page(site, &BrowserConfig::new(), Seed(6));
        let onload = trace.onload.expect("onload fired");
        let video = Video::capture(trace, 10, eyeorg_net::SimDuration::from_secs(4));
        let m = compute_metrics(&video);
        assert_eq!(m.onload, Some(onload));
        let curve = visual_progress_curve(&video);
        assert!((curve.last().expect("non-empty").1 - 1.0).abs() < 1e-9);
    }
}

/// The H1-vs-H2 protocol effect survives the full pipeline: the crowd's
/// aggregate verdict matches the underlying capture difference for sites
/// with a large SpeedIndex delta.
#[test]
fn crowd_verdicts_track_capture_reality() {
    let seed = Seed(31);
    let sites = alexa_like(seed, 6);
    let stimuli = protocol_ab_stimuli(
        &sites,
        &BrowserConfig::new().with_network(NetworkProfile::cable()),
        &CaptureConfig { repeats: 3, ..CaptureConfig::default() },
        seed,
    );
    let campaign =
        run_ab_campaign(stimuli, &CrowdFlower, 80, &ExperimentConfig::default(), seed);
    let report = filter_ab(&campaign, &paper_pipeline());
    let tallies = ab_tallies(&campaign, &report);
    for (i, t) in tallies.iter().enumerate() {
        let si_a = compute_metrics(&campaign.a_videos[i]).speed_index.unwrap().as_secs_f64();
        let si_b = compute_metrics(&campaign.b_videos[i]).speed_index.unwrap().as_secs_f64();
        let delta = si_a - si_b; // positive → B (H2) genuinely faster
        if let Some(score) = t.score() {
            if delta > 1.5 {
                assert!(score > 0.5, "site {i}: SI delta {delta:.2}s but score {score:.2}");
            }
            if delta < -1.5 {
                assert!(score < 0.5, "site {i}: SI delta {delta:.2}s but score {score:.2}");
            }
        }
    }
}

/// Recruitment channels expose the paper's economics through the trait.
#[test]
fn recruitment_trait_objects() {
    let services: Vec<Box<dyn RecruitmentService>> =
        vec![Box::new(CrowdFlower), Box::new(TrustedChannel)];
    for svc in &services {
        let r = svc.recruit(Seed(3), 25);
        assert_eq!(r.participants.len(), 25);
        assert!(r.duration().as_secs_f64() > 0.0);
    }
}

/// Protocol choice is honoured end to end (per-origin fallback included).
#[test]
fn protocol_labels_propagate() {
    let site = &alexa_like(Seed(8), 1)[0];
    let h1 = load_page(site, &BrowserConfig::new().with_protocol(Protocol::Http1), Seed(9));
    let h2 = load_page(site, &BrowserConfig::new().with_protocol(Protocol::Http2), Seed(9));
    assert_eq!(h1.protocol, "h1");
    assert_eq!(h2.protocol, "h2");
    // HARs carry per-resource data for everything fetched.
    let har = eyeorg_browser::to_har(&h2, site);
    assert!(!har.log.entries.is_empty());
}

/// Correlation machinery sanity on real campaign output: crowd UPLT must
/// positively correlate with onload across sites (the weakest version of
/// Fig. 7's finding, at miniature scale).
#[test]
fn uplt_onload_correlation_positive() {
    let seed = Seed(60);
    let sites = alexa_like(seed, 8);
    let stimuli = timeline_stimuli(
        &sites,
        &BrowserConfig::new().with_network(NetworkProfile::fttc()),
        &CaptureConfig { repeats: 2, ..CaptureConfig::default() },
        seed,
    );
    let campaign =
        run_timeline_campaign(stimuli, &CrowdFlower, 80, &ExperimentConfig::default(), seed);
    let report = filter_timeline(&campaign, &paper_pipeline());
    let uplt: Vec<f64> = mean_uplt(&campaign, &report, Some((25.0, 75.0)))
        .into_iter()
        .flatten()
        .collect();
    let onload: Vec<f64> = campaign
        .videos
        .iter()
        .map(|v| v.trace().onload.expect("onload").as_secs_f64())
        .collect();
    assert_eq!(uplt.len(), onload.len());
    let r = pearson(&onload, &uplt).expect("correlation defined");
    assert!(r > 0.3, "crowd UPLT should track onload: r = {r:.2}");
}
