//! Sharded-vs-materializing equivalence: the flat kernel (both test
//! kinds) and the streaming timeline reference must reproduce the
//! materializing engine's digest **byte for byte** — for every crowd
//! size, every shard size (including shards larger than the crowd),
//! every thread count, and every chaos schedule. Counter-fingerprint
//! equivalence lives in `streaming_counters.rs` (its own process,
//! because the obs registry is global).

use std::sync::OnceLock;

use eyeorg_browser::BrowserConfig;
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::{set_chaos_seed, Seed};
use eyeorg_video::CaptureConfig;
use eyeorg_workload::alexa_like;

fn capture() -> CaptureConfig {
    CaptureConfig { repeats: 2, ..CaptureConfig::default() }
}

fn tl_stimuli() -> &'static Vec<TimelineStimulus> {
    static STIMULI: OnceLock<Vec<TimelineStimulus>> = OnceLock::new();
    STIMULI.get_or_init(|| {
        let sites = alexa_like(Seed(951), 4);
        timeline_stimuli(&sites, &BrowserConfig::new(), &capture(), Seed(952))
    })
}

fn ab_stimuli() -> &'static Vec<AbStimulus> {
    static STIMULI: OnceLock<Vec<AbStimulus>> = OnceLock::new();
    STIMULI.get_or_init(|| {
        let sites = alexa_like(Seed(961), 4);
        protocol_ab_stimuli(&sites, &BrowserConfig::new(), &capture(), Seed(962))
    })
}

fn cfg(threads: usize) -> ExperimentConfig {
    ExperimentConfig { threads, ..ExperimentConfig::default() }
}

fn stream_cfg(shard_size: usize) -> StreamConfig {
    StreamConfig { shard_size, ..StreamConfig::default() }
}

#[test]
fn timeline_streaming_matches_materializing_across_n_and_shard_sizes() {
    let stimuli = tl_stimuli();
    for n in [1usize, 7, 100, 1000] {
        let campaign =
            run_timeline_campaign(stimuli.clone(), &CrowdFlower, n, &cfg(0), Seed(970));
        let report = filter_timeline(&campaign, &paper_pipeline());
        let reference =
            digest_timeline(&campaign, &report, n, &DigestParams::default()).fingerprint();
        for shard in [1usize, 16, 64, n + 1] {
            let digest = stream_timeline_campaign(
                stimuli,
                &CrowdFlower,
                n,
                &cfg(0),
                &paper_pipeline(),
                Seed(970),
                &stream_cfg(shard),
            );
            assert_eq!(digest.fingerprint(), reference, "n={n} shard={shard}");
            // The filter report's counts are part of the digest, but
            // pin the overlap explicitly too.
            assert_eq!(digest.filters, FilterTally::of_report(&report), "n={n} shard={shard}");
        }
    }
}

#[test]
fn streaming_digest_identical_across_thread_counts() {
    let stimuli = tl_stimuli();
    let reference = stream_timeline_campaign(
        stimuli,
        &CrowdFlower,
        300,
        &cfg(1),
        &paper_pipeline(),
        Seed(990),
        &stream_cfg(32),
    )
    .fingerprint();
    for threads in [2usize, 4, 0] {
        let digest = stream_timeline_campaign(
            stimuli,
            &CrowdFlower,
            300,
            &cfg(threads),
            &paper_pipeline(),
            Seed(990),
            &stream_cfg(32),
        );
        assert_eq!(digest.fingerprint(), reference, "threads={threads}");
    }
}

#[test]
fn flat_timeline_matches_streaming_across_n_shards_and_threads() {
    let stimuli = tl_stimuli();
    for n in [1usize, 7, 100, 1000] {
        let reference = stream_timeline_campaign(
            stimuli,
            &CrowdFlower,
            n,
            &cfg(0),
            &paper_pipeline(),
            Seed(970),
            &stream_cfg(64),
        )
        .fingerprint();
        for shard in [1usize, 16, 64, n + 1] {
            for threads in [1usize, 2, 0] {
                let digest = flat_timeline_campaign(
                    stimuli,
                    &CrowdFlower,
                    n,
                    &cfg(threads),
                    &paper_pipeline(),
                    Seed(970),
                    &stream_cfg(shard),
                );
                assert_eq!(
                    digest.fingerprint(),
                    reference,
                    "n={n} shard={shard} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn flat_ab_matches_materializing_across_n_shards_and_threads() {
    let stimuli = ab_stimuli();
    for n in [1usize, 7, 100, 1000] {
        let campaign = run_ab_campaign(stimuli.clone(), &CrowdFlower, n, &cfg(0), Seed(980));
        let report = filter_ab(&campaign, &paper_pipeline());
        let reference = digest_ab(&campaign, &report, n).fingerprint();
        for shard in [1usize, 16, 64, n + 1] {
            for threads in [1usize, 2, 0] {
                let digest = flat_ab_campaign(
                    stimuli,
                    &CrowdFlower,
                    n,
                    &cfg(threads),
                    &paper_pipeline(),
                    Seed(980),
                    &stream_cfg(shard),
                );
                assert_eq!(
                    digest.fingerprint(),
                    reference,
                    "n={n} shard={shard} threads={threads}"
                );
                assert_eq!(
                    digest.filters,
                    FilterTally::of_report(&report),
                    "n={n} shard={shard} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn digests_identical_across_shards_threads_and_chaos_seeds() {
    // The identity matrix: the flat kernel at every shard size × worker
    // count × chaos schedule must land on the materializing reference
    // digest, for more than one campaign seed. Chaos seeds
    // permute which worker claims which shard and when (see
    // `eyeorg_stats::set_chaos_seed`), so a pass here means the
    // demand-driven fast path's outputs are pinned by index, not by
    // scheduling luck.
    let stimuli = tl_stimuli();
    let n = 300usize;
    for campaign_seed in [Seed(970), Seed(31_337)] {
        let campaign =
            run_timeline_campaign(stimuli.clone(), &CrowdFlower, n, &cfg(0), campaign_seed);
        let report = filter_timeline(&campaign, &paper_pipeline());
        let reference =
            digest_timeline(&campaign, &report, n, &DigestParams::default()).fingerprint();
        for shard in [1usize, 16, 64] {
            for threads in [1usize, 2, 0] {
                for chaos in [0u64, 7, 23] {
                    set_chaos_seed(chaos);
                    let flat = flat_timeline_campaign(
                        stimuli,
                        &CrowdFlower,
                        n,
                        &cfg(threads),
                        &paper_pipeline(),
                        campaign_seed,
                        &stream_cfg(shard),
                    )
                    .fingerprint();
                    set_chaos_seed(0);
                    assert_eq!(
                        flat, reference,
                        "flat seed={campaign_seed:?} shard={shard} threads={threads} \
                         chaos={chaos}"
                    );
                }
            }
        }
    }
}

#[test]
fn streaming_digest_band_means_match_analysis_at_small_n() {
    // Below the sketch cap the digest's banded means must be *exactly*
    // the figure pipeline's numbers (`analysis::mean_uplt`) — the
    // "exact small-n fallback keeps figure outputs unchanged" claim.
    let stimuli = tl_stimuli();
    let n = 200;
    let campaign = run_timeline_campaign(stimuli.clone(), &CrowdFlower, n, &cfg(0), Seed(995));
    let report = filter_timeline(&campaign, &paper_pipeline());
    let digest = stream_timeline_campaign(
        stimuli,
        &CrowdFlower,
        n,
        &cfg(0),
        &paper_pipeline(),
        Seed(995),
        &StreamConfig::default(),
    );
    for band in [None, Some((25.0, 75.0)), Some((10.0, 90.0))] {
        let expected = eyeorg_core::analysis::mean_uplt(&campaign, &report, band);
        let got = digest.mean_uplt(band);
        assert_eq!(expected.len(), got.len());
        for (si, (e, g)) in expected.iter().zip(&got).enumerate() {
            match (e, g) {
                (None, None) => {}
                (Some(e), Some(g)) => {
                    assert!((e - g).abs() < 1e-9, "band {band:?} site {si}: {e} vs {g}")
                }
                _ => panic!("band {band:?} site {si}: {e:?} vs {g:?}"),
            }
        }
    }
}
