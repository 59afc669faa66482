//! Counter-fingerprint equivalence between the sharded engines (the
//! flat kernel, and the streaming timeline reference) and the
//! materializing engine. Lives in its own integration-test binary (=
//! its own process) because the obs registry is process-global: any
//! concurrently running campaign would pollute the snapshots.

use eyeorg_browser::BrowserConfig;
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::Seed;
use eyeorg_video::CaptureConfig;
use eyeorg_workload::alexa_like;

fn cfg(threads: usize) -> ExperimentConfig {
    ExperimentConfig { threads, ..ExperimentConfig::default() }
}

/// One test fn on purpose: the harness runs `#[test]`s concurrently
/// within a binary, and these all mutate the global metric registry.
#[test]
fn counter_fingerprints_match_across_engines_shards_and_threads() {
    let capture = CaptureConfig { repeats: 2, ..CaptureConfig::default() };
    let sites = alexa_like(Seed(811), 4);
    let tl = timeline_stimuli(&sites, &BrowserConfig::new(), &capture, Seed(812));
    let ab = protocol_ab_stimuli(&sites, &BrowserConfig::new(), &capture, Seed(813));
    let n = 150;

    eyeorg_obs::enable();

    // Timeline: materializing reference (campaign + filter + digest — the
    // digest fold owns the per-site retained counters).
    eyeorg_obs::reset();
    let campaign = run_timeline_campaign(tl.clone(), &CrowdFlower, n, &cfg(0), Seed(820));
    let report = filter_timeline(&campaign, &paper_pipeline());
    let _ = digest_timeline(&campaign, &report, n, &DigestParams::default());
    let reference = eyeorg_obs::snapshot("tl", 0).counter_fingerprint();

    for shard in [1usize, 16, 64, n + 1] {
        for threads in [1usize, 2, 0] {
            eyeorg_obs::reset();
            let _ = stream_timeline_campaign(
                &tl,
                &CrowdFlower,
                n,
                &cfg(threads),
                &paper_pipeline(),
                Seed(820),
                &StreamConfig { shard_size: shard, ..StreamConfig::default() },
            );
            let got = eyeorg_obs::snapshot("tl", threads).counter_fingerprint();
            assert_eq!(got, reference, "timeline shard={shard} threads={threads}");

            eyeorg_obs::reset();
            let _ = flat_timeline_campaign(
                &tl,
                &CrowdFlower,
                n,
                &cfg(threads),
                &paper_pipeline(),
                Seed(820),
                &StreamConfig { shard_size: shard, ..StreamConfig::default() },
            );
            let got = eyeorg_obs::snapshot("tl-flat", threads).counter_fingerprint();
            assert_eq!(got, reference, "flat timeline shard={shard} threads={threads}");
        }
    }

    // Chaos schedules must not leak into the counters either: the
    // demand-driven fold bumps collected/skipped as pure per-shard
    // totals, so permuted worker interleavings land on the same
    // fingerprint.
    for chaos in [7u64, 23] {
        eyeorg_stats::set_chaos_seed(chaos);
        eyeorg_obs::reset();
        let _ = flat_timeline_campaign(
            &tl,
            &CrowdFlower,
            n,
            &cfg(0),
            &paper_pipeline(),
            Seed(820),
            &StreamConfig { shard_size: 16, ..StreamConfig::default() },
        );
        eyeorg_stats::set_chaos_seed(0);
        let got = eyeorg_obs::snapshot("tl-flat-chaos", 0).counter_fingerprint();
        assert_eq!(got, reference, "flat timeline chaos={chaos}");
    }

    // A/B: same drill.
    eyeorg_obs::reset();
    let campaign = run_ab_campaign(ab.clone(), &CrowdFlower, n, &cfg(0), Seed(830));
    let report = filter_ab(&campaign, &paper_pipeline());
    let _ = digest_ab(&campaign, &report, n);
    let reference = eyeorg_obs::snapshot("ab", 0).counter_fingerprint();

    for shard in [1usize, 16, 64, n + 1] {
        for threads in [1usize, 2, 0] {
            eyeorg_obs::reset();
            let _ = flat_ab_campaign(
                &ab,
                &CrowdFlower,
                n,
                &cfg(threads),
                &paper_pipeline(),
                Seed(830),
                &StreamConfig { shard_size: shard, ..StreamConfig::default() },
            );
            let got = eyeorg_obs::snapshot("ab-flat", threads).counter_fingerprint();
            assert_eq!(got, reference, "flat ab shard={shard} threads={threads}");
        }
    }
}
