//! Adaptive early-stopping properties (DESIGN.md §3h).
//!
//! * `epsilon = 0, max_n = 0` (inactive) ⇒ the adaptive driver is
//!   byte-identical to the plain streaming timeline reference for
//!   every shard size, thread count, and epoch size. (The matching
//!   counter-fingerprint check is the `adaptive` cell of
//!   `campaign_golden`, which holds the global obs registry.)
//! * With an active rule, the decision sequence and the final digest
//!   are invariant under shard size, thread count, epoch-vs-budget
//!   alignment, and the chaos-seed exerciser.
//! * Decisions are monotone in `epsilon`, never fire before `min_n`,
//!   and always fire by `max_n`.

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

fn cfg(threads: usize) -> ExperimentConfig {
    ExperimentConfig { threads, ..ExperimentConfig::default() }
}

fn stream_cfg(shard_size: usize) -> StreamConfig {
    StreamConfig { shard_size, ..StreamConfig::default() }
}

fn inactive(epoch: usize) -> AdaptiveConfig {
    AdaptiveConfig { epoch, epsilon: 0.0, min_n: 256, max_n: 0 }
}

fn run_adaptive(n: usize, threads: usize, shard: usize, ac: &AdaptiveConfig) -> AdaptiveOutcome {
    adaptive_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        n,
        &cfg(threads),
        &paper_pipeline(),
        Seed(970),
        &stream_cfg(shard),
        ac,
        AdaptiveBackend::Flat,
    )
}

#[test]
fn inactive_config_is_byte_identical_to_streaming() {
    let stimuli = tl_stimuli();
    for n in [7usize, 400] {
        let reference = stream_timeline_campaign(
            stimuli,
            &CrowdFlower,
            n,
            &cfg(0),
            &paper_pipeline(),
            Seed(970),
            &stream_cfg(16),
        )
        .fingerprint();
        for threads in [1usize, 2, 0] {
            for shard in [1usize, 16, 64] {
                // The epoch size must be invisible when no rule can fire
                // — including epochs that straddle shard boundaries.
                for epoch in [37usize, 256] {
                    let out = run_adaptive(n, threads, shard, &inactive(epoch));
                    assert_eq!(
                        out.digest.fingerprint(),
                        reference,
                        "n={n} threads={threads} shard={shard} epoch={epoch}"
                    );
                    assert_eq!(out.recruited, n as u64);
                    assert_eq!(out.pruned, 0);
                    assert_eq!(out.participants_saved(), 0);
                    assert!(out.decisions.is_empty());
                    assert!(out.stopped_at.iter().all(Option::is_none));
                }
            }
        }
    }
}

/// With `exact_cap = 8` the driver's sketches spill within the first
/// epochs, so every later epoch's worker folds start spilled and bin
/// from their first push. The digest must still equal the streaming
/// reference's, which merges fresh exact shard folds in shard order.
#[test]
fn spilled_driver_regime_matches_streaming() {
    let sc = |shard_size| StreamConfig {
        shard_size,
        params: DigestParams { exact_cap: 8, ..DigestParams::default() },
    };
    let n = 400;
    let reference = stream_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        n,
        &cfg(0),
        &paper_pipeline(),
        Seed(970),
        &sc(16),
    );
    assert!(reference.stimuli.iter().all(|s| !s.sketch.is_exact()));
    for threads in [1usize, 2, 4] {
        for shard in [1usize, 16] {
            let out = adaptive_timeline_campaign(
                tl_stimuli(),
                &CrowdFlower,
                n,
                &cfg(threads),
                &paper_pipeline(),
                Seed(970),
                &sc(shard),
                &inactive(37),
                AdaptiveBackend::Flat,
            );
            assert_eq!(
                out.digest.fingerprint(),
                reference.fingerprint(),
                "threads={threads} shard={shard}"
            );
        }
    }
}

/// An epsilon that reliably fires on this 4-stimulus workload well
/// before a 1200-participant budget runs out (UPLT spreads are a few
/// seconds; half-widths cross 0.5 s after a few hundred kept responses).
fn active() -> AdaptiveConfig {
    AdaptiveConfig { epoch: 100, epsilon: 0.5, min_n: 50, max_n: 0 }
}

#[test]
fn decisions_and_digest_invariant_under_shards_threads_and_chaos() {
    let n = 1200usize;
    let reference = run_adaptive(n, 1, 16, &active());
    assert!(
        !reference.decisions.is_empty(),
        "calibration: epsilon must fire on this workload"
    );
    let ref_decisions = reference.decision_fingerprint();
    let ref_digest = reference.digest.fingerprint();
    for threads in [1usize, 2, 0] {
        for shard in [16usize, 64, n + 1] {
            for chaos in [0u64, 7, 23] {
                set_chaos_seed(chaos);
                let out = run_adaptive(n, threads, shard, &active());
                set_chaos_seed(0);
                let ctx = format!("threads={threads} shard={shard} chaos={chaos}");
                assert_eq!(out.decision_fingerprint(), ref_decisions, "{ctx}");
                assert_eq!(out.digest.fingerprint(), ref_digest, "{ctx}");
                assert_eq!(out.recruited, reference.recruited);
                assert_eq!(out.pruned, reference.pruned);
                assert_eq!(out.stopped_at, reference.stopped_at);
            }
        }
    }
}

#[test]
fn stopping_is_monotone_in_epsilon() {
    let n = 1200usize;
    let mut prev: Option<AdaptiveOutcome> = None;
    for epsilon in [0.3f64, 0.5, 0.9] {
        let ac = AdaptiveConfig { epsilon, ..active() };
        let out = run_adaptive(n, 1, 64, &ac);
        if let Some(p) = &prev {
            for si in 0..tl_stimuli().len() {
                // A looser epsilon stops every stimulus no later.
                match (p.stopped_at[si], out.stopped_at[si]) {
                    (Some(tight), Some(loose)) => assert!(
                        loose <= tight,
                        "stimulus {si}: eps={epsilon} stopped at {loose} > {tight}"
                    ),
                    (None, _) => {}
                    (Some(tight), None) => {
                        panic!("stimulus {si}: stopped at {tight} under tighter eps but never under eps={epsilon}")
                    }
                }
            }
            assert!(out.recruited <= p.recruited);
            assert!(out.participants_saved() >= p.participants_saved());
        }
        prev = Some(out);
    }
}

#[test]
fn convergence_never_fires_before_min_n() {
    // A huge epsilon would stop everything at the first barrier were it
    // not for the min_n guard.
    let ac = AdaptiveConfig { epoch: 50, epsilon: 100.0, min_n: 300, max_n: 0 };
    let out = run_adaptive(1200, 0, 64, &ac);
    assert!(!out.decisions.is_empty());
    for d in &out.decisions {
        assert_eq!(d.cause, StopCause::Converged);
        assert!(d.retained >= ac.min_n, "{d:?} fired below min_n");
    }
}

#[test]
fn max_n_always_fires_even_without_epsilon() {
    let ac = AdaptiveConfig { epoch: 50, epsilon: 0.0, min_n: 256, max_n: 60 };
    let out = run_adaptive(1200, 0, 64, &ac);
    // Every stimulus must stop (budget is ample), via the cap.
    assert!(out.stopped_at.iter().all(Option::is_some), "{:?}", out.stopped_at);
    assert_eq!(out.decisions.len(), tl_stimuli().len());
    for d in &out.decisions {
        assert_eq!(d.cause, StopCause::MaxN);
        assert!(d.retained >= ac.max_n, "{d:?} fired below max_n");
    }
    // Stopping every stimulus before budget exhaustion saves the tail.
    assert!(out.recruited < out.budget);
    assert!(out.participants_saved() > 0);
    for si in 0..tl_stimuli().len() {
        assert!(out.digest.stimuli[si].retained() >= ac.max_n);
    }
}

#[test]
fn live_digest_equals_full_run_truncated_at_stop() {
    // Serve-all/push-live semantics: a stimulus that never stops must
    // end with exactly the digest the plain streaming run gives it,
    // even while other stimuli stop and participants get pruned.
    let n = 1200usize;
    let ac = AdaptiveConfig { epoch: 100, epsilon: 0.0, min_n: 256, max_n: 120 };
    // Cap only takes effect per stimulus; run the full engine for the
    // truncation reference at each stop point's processed count.
    let out = run_adaptive(n, 1, 64, &ac);
    for (si, stopped) in out.stopped_at.iter().enumerate() {
        let Some(epoch_idx) = stopped else { continue };
        let processed = (*epoch_idx as usize * ac.epoch).min(n);
        let truncated = stream_timeline_campaign(
            tl_stimuli(),
            &CrowdFlower,
            processed,
            &cfg(1),
            &paper_pipeline(),
            Seed(970),
            &stream_cfg(64),
        );
        assert_eq!(
            format!("{:?}", out.digest.stimuli[si]),
            format!("{:?}", truncated.stimuli[si]),
            "stimulus {si} stopped at barrier {epoch_idx} (processed={processed})"
        );
    }
}
