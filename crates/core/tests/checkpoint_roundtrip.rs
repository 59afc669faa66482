//! Checkpoint serialization properties (DESIGN.md §3i).
//!
//! * `load(save(state))` is **bit-identical** for every accumulator —
//!   `Moments` (incl. rejected counts and the empty accumulator's
//!   `±inf` min/max sentinels), `QuantileSketch` in both the exact and
//!   spilled regimes, `Histogram`, the tallies, and the full
//!   per-stimulus digest set — checked through the digest fingerprint
//!   (canonical `Debug`) after a worker-checkpoint round trip.
//! * Interrupt → save → load → resume composes to the uninterrupted
//!   run's digest fingerprint, adaptive and plain, including an
//!   interruption after participants have been pruned.
//! * Split ranges merged through checkpoints equal the single run;
//!   pieces built over another stimulus list refuse to merge, finalize
//!   or resume, and a refused merge leaves the receiver unchanged.
//! * Truncated or corrupted bytes come back as typed
//!   [`CheckpointError`]s — never a panic (D4 discipline end to end),
//!   including totals that break `admitted + rejected + pruned ==
//!   range_hi - range_lo` and a drive line counting more epochs than
//!   the range holds, either of which would overflow a resumed run.
//! * Configs no engine can serve are refused as typed errors by every
//!   `Result`-returning entry point.
//!
//! Counter-fingerprint equivalence needs the process-global obs
//! registry to itself: it is checked by the `resume` and `merge3` cells
//! of `campaign_golden`.

use std::sync::OnceLock;

use eyeorg_browser::BrowserConfig;
use eyeorg_core::digest::MergeError;
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::Seed;
use eyeorg_video::CaptureConfig;
use eyeorg_workload::alexa_like;

const N: usize = 300;

fn capture() -> CaptureConfig {
    CaptureConfig { repeats: 2, ..CaptureConfig::default() }
}

fn tl_stimuli() -> &'static Vec<TimelineStimulus> {
    static STIMULI: OnceLock<Vec<TimelineStimulus>> = OnceLock::new();
    STIMULI.get_or_init(|| {
        let sites = alexa_like(Seed(1431), 3);
        timeline_stimuli(&sites, &BrowserConfig::new(), &capture(), Seed(1432))
    })
}

fn ab_stimuli() -> &'static Vec<AbStimulus> {
    static STIMULI: OnceLock<Vec<AbStimulus>> = OnceLock::new();
    STIMULI.get_or_init(|| {
        let sites = alexa_like(Seed(1433), 3);
        protocol_ab_stimuli(&sites, &BrowserConfig::new(), &capture(), Seed(1434))
    })
}

fn cfg() -> ExperimentConfig {
    ExperimentConfig { threads: 2, ..ExperimentConfig::default() }
}

fn sc(shard: usize, exact_cap: usize) -> StreamConfig {
    StreamConfig {
        shard_size: shard,
        params: DigestParams { exact_cap, ..DigestParams::default() },
    }
}

fn inactive() -> AdaptiveConfig {
    AdaptiveConfig { epoch: 64, epsilon: 0.0, min_n: 8, max_n: 0 }
}

/// One worker checkpoint over `[lo, hi)` for the shared campaign.
fn tl_worker(lo: usize, hi: usize, shard: usize, exact_cap: usize) -> TimelineCheckpoint {
    timeline_worker_checkpoint(
        tl_stimuli(),
        &CrowdFlower,
        lo,
        hi,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(shard, exact_cap),
    )
    .expect("worker checkpoint")
}

fn reference_fp(exact_cap: usize) -> String {
    stream_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(64, exact_cap),
    )
    .fingerprint()
}

// -------------------------------------------------------------------
// Round trips
// -------------------------------------------------------------------

/// Save→load→finalize of a full-range worker checkpoint reproduces the
/// plain streaming run's digest fingerprint bit for bit, in both
/// sketch regimes. With `exact_cap = 2048` every sketch stays exact
/// (full sorted sample as bit-patterns); with `exact_cap = 4` every
/// sketch has spilled to bins — both must round-trip exactly. This
/// exercises every accumulator the digest carries: `Moments` with its
/// i128 fixed-point sums, min/max bit patterns, and rejected counts;
/// `QuantileSketch` in both regimes; `Histogram`; the filter, control,
/// and behaviour states.
#[test]
fn save_load_round_trip_is_bit_exact_in_both_sketch_regimes() {
    for exact_cap in [2048, 4] {
        let ck = tl_worker(0, N, 64, exact_cap);
        let reloaded = TimelineCheckpoint::load(&ck.save()).expect("round trip loads");
        assert_eq!(ck.save(), reloaded.save(), "serialized form is a fixed point");
        let fp = reloaded
            .finalize(tl_stimuli(), &CrowdFlower)
            .expect("finalize round-tripped checkpoint")
            .fingerprint();
        assert_eq!(fp, reference_fp(exact_cap), "exact_cap={exact_cap}");
    }
}

/// Empty-range checkpoints round-trip too: every `Moments` carries its
/// `+inf`/`-inf` empty min/max sentinels through the bit-level
/// encoding, and the digest equals a zero-participant run.
#[test]
fn empty_checkpoint_round_trips_inf_sentinels() {
    let ck = tl_worker(0, 0, 64, 2048);
    let reloaded = TimelineCheckpoint::load(&ck.save()).expect("empty checkpoint loads");
    assert_eq!(ck.save(), reloaded.save());
    let digest =
        reloaded.finalize(tl_stimuli(), &CrowdFlower).expect("finalize empty checkpoint");
    let direct = stream_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        0,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(64, 2048),
    );
    assert_eq!(digest.fingerprint(), direct.fingerprint());
}

/// A/B worker checkpoints round-trip and finalize to the materializing
/// engine's A/B digest.
#[test]
fn ab_save_load_round_trip_is_bit_exact() {
    let ck = ab_worker_checkpoint(
        ab_stimuli(),
        &CrowdFlower,
        0,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1441),
        &sc(64, 2048),
    )
    .expect("ab worker checkpoint");
    let reloaded = AbCheckpoint::load(&ck.save()).expect("ab round trip loads");
    assert_eq!(ck.save(), reloaded.save());
    let fp = reloaded
        .finalize(ab_stimuli(), &CrowdFlower)
        .expect("finalize ab checkpoint")
        .fingerprint();
    let campaign = run_ab_campaign(ab_stimuli().clone(), &CrowdFlower, N, &cfg(), Seed(1441));
    let report = filter_ab(&campaign, &paper_pipeline());
    assert_eq!(fp, digest_ab(&campaign, &report, N).fingerprint());
}

// -------------------------------------------------------------------
// Split / merge
// -------------------------------------------------------------------

/// Three worker checkpoints over adjacent ranges — written and reloaded
/// through the serialized form, with *different* shard sizes per worker
/// — merge into the single-process run's digest fingerprint.
#[test]
fn split_ranges_merge_to_single_run_fingerprint() {
    let mut left = TimelineCheckpoint::load(&tl_worker(0, 100, 32, 2048).save()).expect("w0");
    let mid = TimelineCheckpoint::load(&tl_worker(100, 220, 64, 2048).save()).expect("w1");
    let right = TimelineCheckpoint::load(&tl_worker(220, N, 16, 2048).save()).expect("w2");
    left.merge(&mid).expect("adjacent ranges merge");
    left.merge(&right).expect("adjacent ranges merge");
    assert_eq!(left.range(), (0, N as u64));
    let fp = left
        .finalize(tl_stimuli(), &CrowdFlower)
        .expect("finalize merged checkpoint")
        .fingerprint();
    assert_eq!(fp, reference_fp(2048));
}

/// Merge refuses non-adjacent ranges, admitted-index discontinuities,
/// and params mismatches — with typed errors, leaving the receiver
/// unchanged.
#[test]
fn merge_rejects_gaps_and_mismatches() {
    let w0 = tl_worker(0, 100, 64, 2048);
    let w2 = tl_worker(150, 200, 64, 2048);
    let mut acc = TimelineCheckpoint::load(&w0.save()).expect("w0");
    let before = acc.save();
    match acc.merge(&w2) {
        Err(CheckpointError::RangeGap { left_hi: 100, right_lo: 150 }) => {}
        other => panic!("expected RangeGap, got {other:?}"),
    }
    assert_eq!(acc.save(), before, "failed merge left the receiver unchanged");

    // Adjacent range whose admitted base disagrees (forged header).
    let w1 = tl_worker(100, 150, 64, 2048);
    let mut doctored = w1.save();
    let base = w1.admitted_before();
    doctored = doctored.replacen(
        &format!("\"admitted_before\":{base}"),
        &format!("\"admitted_before\":{}", base + 1),
        1,
    );
    let forged = TimelineCheckpoint::load(&doctored).expect("forged file still parses");
    match acc.merge(&forged) {
        Err(CheckpointError::AdmittedGap { .. }) => {}
        other => panic!("expected AdmittedGap, got {other:?}"),
    }

    // Same range, different digest params.
    let coarse = tl_worker(100, 150, 64, 4);
    match acc.merge(&coarse) {
        Err(CheckpointError::ParamsMismatch { .. }) => {}
        other => panic!("expected ParamsMismatch, got {other:?}"),
    }
}

/// `stimuli` with one stimulus fewer, and with the same count but the
/// last stimulus renamed (so a merge gets past the first stimuli before
/// it fails).
fn other_stimulus_sets<S: Clone>(stimuli: &[S], rename: impl Fn(&mut S)) -> [Vec<S>; 2] {
    let mut renamed = stimuli.to_vec();
    rename(renamed.last_mut().expect("stimuli"));
    [stimuli[..stimuli.len() - 1].to_vec(), renamed]
}

/// Whether `err` is the merge error of a fold over `left` stimuli
/// meeting one over `right` (a renamed stimulus when the counts agree).
fn is_stimulus_set_error(err: &CheckpointError, left: usize, right: usize) -> bool {
    match *err {
        CheckpointError::Merge(MergeError::StimulusCount { left: l, right: r }) => {
            (l, r) == (left, right)
        }
        CheckpointError::Merge(MergeError::StimulusName { .. }) => left == right,
        _ => false,
    }
}

/// Timeline worker checkpoints built over another stimulus list refuse
/// to merge (the receiver unchanged), to finalize against the run's
/// stimuli, and to seed a resume — as typed merge errors.
#[test]
fn timeline_pieces_over_other_stimuli_are_refused() {
    let mut acc = TimelineCheckpoint::load(&tl_worker(0, 100, 64, 2048).save()).expect("w0");
    let before = acc.save();
    let RunOutcome::Interrupted(driver) =
        run_checkpointed(&cfg(), &inactive(), None, &first_barrier)
    else {
        panic!("interrupts")
    };
    for other in other_stimulus_sets(tl_stimuli(), |s| s.name.push_str("-elsewhere")) {
        let n = other.len();
        let run = |lo, hi| {
            let sc = sc(64, 2048);
            let filters = paper_pipeline();
            timeline_worker_checkpoint(
                &other,
                &CrowdFlower,
                lo,
                hi,
                &cfg(),
                &filters,
                Seed(1440),
                &sc,
            )
            .expect("worker checkpoint")
        };
        let err = acc.merge(&run(100, 150)).expect_err("other stimuli must not merge");
        assert!(is_stimulus_set_error(&err, 3, n), "{n} stimuli: {err:?}");
        assert_eq!(acc.save(), before, "failed merge left the receiver unchanged");

        let err = run(0, 100).finalize(tl_stimuli(), &CrowdFlower).expect_err("finalize");
        assert!(is_stimulus_set_error(&err, 3, n), "{n} stimuli: {err:?}");

        let err = checkpointed_timeline_campaign(
            &other,
            &CrowdFlower,
            N,
            &cfg(),
            &paper_pipeline(),
            Seed(1440),
            &sc(32, 2048),
            &inactive(),
            AdaptiveBackend::Flat,
            Some(&driver),
            &CheckpointConfig { every_shards: 2 },
            &mut |_| true,
        )
        .expect_err("a resume over other stimuli must be refused");
        assert!(is_stimulus_set_error(&err, n, 3), "{n} stimuli: {err:?}");
    }
}

/// The A/B counterpart of [`timeline_pieces_over_other_stimuli_are_refused`].
#[test]
fn ab_pieces_over_other_stimuli_are_refused() {
    let worker = |stimuli: &[AbStimulus], lo, hi| {
        let filters = paper_pipeline();
        ab_worker_checkpoint(
            stimuli,
            &CrowdFlower,
            lo,
            hi,
            &cfg(),
            &filters,
            Seed(1441),
            &sc(64, 2048),
        )
        .expect("ab worker checkpoint")
    };
    let mut acc = AbCheckpoint::load(&worker(ab_stimuli(), 0, 100).save()).expect("w0");
    let before = acc.save();
    for other in other_stimulus_sets(ab_stimuli(), |s| s.name.push_str("-elsewhere")) {
        let n = other.len();
        let err = acc.merge(&worker(&other, 100, 150)).expect_err("other stimuli must not merge");
        assert!(is_stimulus_set_error(&err, 3, n), "{n} stimuli: {err:?}");
        assert_eq!(acc.save(), before, "failed merge left the receiver unchanged");

        let err =
            worker(&other, 0, 100).finalize(ab_stimuli(), &CrowdFlower).expect_err("finalize");
        assert!(is_stimulus_set_error(&err, 3, n), "{n} stimuli: {err:?}");

        let err = checkpointed_ab_campaign(
            &other,
            &CrowdFlower,
            N,
            &cfg(),
            &paper_pipeline(),
            Seed(1441),
            &sc(32, 2048),
            Some(&acc),
            &CheckpointConfig { every_shards: 2 },
            &mut |_| true,
        )
        .expect_err("a resume over other stimuli must be refused");
        assert!(is_stimulus_set_error(&err, n, 3), "{n} stimuli: {err:?}");
    }
}

// -------------------------------------------------------------------
// Interrupt / resume
// -------------------------------------------------------------------

/// Sees the `k`-th barrier's checkpoint (`k` is 1-based) and interrupts
/// the run by returning `true`.
type Stop = dyn Fn(usize, &TimelineCheckpoint) -> bool;

fn run_checkpointed(
    ec: &ExperimentConfig,
    ac: &AdaptiveConfig,
    resume: Option<&TimelineCheckpoint>,
    stop: &Stop,
) -> RunOutcome {
    let mut seen = 0usize;
    checkpointed_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        N,
        ec,
        &paper_pipeline(),
        Seed(1440),
        &sc(32, 2048),
        ac,
        AdaptiveBackend::Flat,
        resume,
        &CheckpointConfig { every_shards: 2 },
        &mut |ev| match ev {
            CheckpointEvent::Checkpoint(ck) => {
                seen += 1;
                !stop(seen, ck)
            }
            CheckpointEvent::Live(_) => true,
        },
    )
    .expect("checkpointed run")
}

fn never(_: usize, _: &TimelineCheckpoint) -> bool {
    false
}

fn first_barrier(k: usize, _: &TimelineCheckpoint) -> bool {
    k == 1
}

/// The `pruned` count on a checkpoint's totals line (line 2).
fn pruned(ck: &TimelineCheckpoint) -> u64 {
    let doc = ck.save();
    let key = "\"pruned\":";
    let at = doc.find(key).expect("totals line") + key.len();
    let end = at + doc[at..].find(',').expect("pruned value");
    doc[at..end].parse().expect("pruned is a count")
}

/// Interrupt at a barrier, serialize, reload, resume: the composition's
/// digest fingerprint equals the uninterrupted run, for plain +
/// adaptive configs. Every case is interrupted at the
/// first barrier, where nothing has stopped yet (`pruned == 0`). The
/// one-video adaptive case is also interrupted at the first barrier
/// after a stop decision: participants whose only stimulus stopped are
/// pruned there, so the reloaded totals carry `pruned > 0` through the
/// loader's `admitted + rejected + pruned == range_hi - range_lo` check.
#[test]
fn interrupt_resume_composes_to_uninterrupted_fingerprint() {
    let active = AdaptiveConfig { epoch: 64, epsilon: 0.25, min_n: 16, max_n: 0 };
    let one_video = ExperimentConfig { videos_per_participant: 1, ..cfg() };
    let after_stop = |_: usize, ck: &TimelineCheckpoint| pruned(ck) > 0;
    let cases = [(cfg(), inactive(), false), (cfg(), active, false), (one_video, active, true)];
    for (ec, ac, prunes) in cases {
        let RunOutcome::Complete(full) = run_checkpointed(&ec, &ac, None, &never) else {
            panic!("uninterrupted run must complete");
        };
        let stops: &[&Stop] =
            if prunes { &[&first_barrier, &after_stop] } else { &[&first_barrier] };
        for (i, stop) in stops.iter().enumerate() {
            let RunOutcome::Interrupted(ck) = run_checkpointed(&ec, &ac, None, *stop) else {
                panic!("observer interrupts (point {i})");
            };
            assert!(ck.is_resumable());
            assert_eq!(pruned(&ck) > 0, i == 1, "point {i}");
            let reloaded = TimelineCheckpoint::load(&ck.save()).expect("driver checkpoint loads");
            let RunOutcome::Complete(resumed) = run_checkpointed(&ec, &ac, Some(&reloaded), &never)
            else {
                panic!("resumed run must complete");
            };
            assert_eq!(
                resumed.digest.fingerprint(),
                full.digest.fingerprint(),
                "epsilon {}, videos {}, point {i}",
                ac.epsilon,
                ec.videos_per_participant
            );
            assert_eq!(resumed.decision_fingerprint(), full.decision_fingerprint());
        }
    }
}

/// Live-mode lines: one per barrier plus a final line, all valid JSON,
/// monotone in `processed`, and the final line equals the digest's own
/// read-outs via [`live_line_from_digest`].
#[test]
fn live_lines_progress_and_final_matches_digest() {
    let mut lines: Vec<String> = Vec::new();
    let outcome = checkpointed_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(32, 2048),
        &inactive(),
        AdaptiveBackend::Flat,
        None,
        &CheckpointConfig { every_shards: 2 },
        &mut |ev| {
            if let CheckpointEvent::Live(l) = ev {
                lines.push(l.to_string());
            }
            true
        },
    )
    .expect("checkpointed run");
    let RunOutcome::Complete(outcome) = outcome else { panic!("run completes") };
    // 300 participants, shard 32, every_shards 2 → barriers at 64, 128,
    // 192, 256, 300, plus the final line.
    assert_eq!(lines.len(), 6);
    let processed: Vec<u64> = lines
        .iter()
        .map(|l| {
            let v: serde::Value = serde_json::from_str(l).expect("live line is valid JSON");
            v.field("processed").as_u64().expect("processed field")
        })
        .collect();
    assert_eq!(processed, vec![64, 128, 192, 256, 300, 300]);
    assert_eq!(
        lines.last().expect("non-empty"),
        &live_line_from_digest(&outcome.digest, N as u64, true)
    );
}

/// The A/B driver interrupt/resume composition equals the uninterrupted
/// A/B run.
#[test]
fn ab_interrupt_resume_composes() {
    let run = |resume: Option<&AbCheckpoint>, stop_after: Option<usize>| {
        let mut seen = 0usize;
        checkpointed_ab_campaign(
            ab_stimuli(),
            &CrowdFlower,
            N,
            &cfg(),
            &paper_pipeline(),
            Seed(1441),
            &sc(32, 2048),
            resume,
            &CheckpointConfig { every_shards: 2 },
            &mut |_| {
                seen += 1;
                stop_after.is_none_or(|k| seen < k)
            },
        )
        .expect("checkpointed ab run")
    };
    let AbRunOutcome::Complete(full) = run(None, None) else { panic!("completes") };
    let AbRunOutcome::Interrupted(ck) = run(None, Some(1)) else { panic!("interrupts") };
    let reloaded = AbCheckpoint::load(&ck.save()).expect("ab checkpoint loads");
    let AbRunOutcome::Complete(resumed) = run(Some(&reloaded), None) else {
        panic!("resumed run completes")
    };
    assert_eq!(resumed.fingerprint(), full.fingerprint());
}

// -------------------------------------------------------------------
// Hostile bytes
// -------------------------------------------------------------------

/// Every truncation of a valid file — at line granularity and at byte
/// granularity — and a battery of corruptions load as typed errors,
/// never a panic.
#[test]
fn truncated_and_corrupted_bytes_yield_typed_errors() {
    let good = tl_worker(0, 100, 64, 4).save();

    // Whole-line truncations.
    let lines: Vec<&str> = good.lines().collect();
    for keep in 0..lines.len() {
        let doc = lines[..keep].join("\n");
        let err = TimelineCheckpoint::load(&doc).expect_err("truncated file must not load");
        assert!(
            matches!(err, CheckpointError::Truncated { .. }),
            "kept {keep} lines: {err:?}"
        );
    }

    // Byte truncations (cut mid-line → Parse or Truncated).
    for cut in (1..good.len()).step_by(97) {
        if !good.is_char_boundary(cut) {
            continue;
        }
        assert!(TimelineCheckpoint::load(&good[..cut]).is_err(), "cut at byte {cut}");
    }

    // Corruptions with a specific expected class.
    let cases: Vec<(String, &str)> = vec![
        (good.replacen("eyeorg-checkpoint", "not-a-checkpoint", 1), "bad format tag"),
        (good.replacen("\"version\":1", "\"version\":99", 1), "future version"),
        (good.replacen("\"kind\":\"timeline\"", "\"kind\":\"ab\"", 1), "wrong kind"),
        (good.replacen("\"spilled\":true", "\"spilled\":false", 1), "regime flip"),
        (good.replacen("\"qsum\":\"", "\"qsum\":\"x", 1), "unparseable i128"),
        (format!("{good}{{\"end\":\"eyeorg-checkpoint\"}}\n"), "trailing line"),
        (good.replace("\"counts\"", "\"c0unts\""), "missing field"),
        ("{\"not\":\"json\"".to_string(), "unterminated JSON"),
        ("null\n".to_string(), "non-object header"),
    ];
    for (doc, what) in &cases {
        assert!(TimelineCheckpoint::load(doc).is_err(), "{what} must not load");
    }

    // Flipping a sketch count must fail validation (n bookkeeping).
    if let Some(pos) = good.find("\"spilled\":true") {
        let prefix = &good[..pos];
        if let Some(cpos) = prefix.rfind("\"counts\":[") {
            let mut doc = good.clone();
            doc.insert_str(cpos + "\"counts\":[".len(), "999999,");
            assert!(
                matches!(
                    TimelineCheckpoint::load(&doc),
                    Err(CheckpointError::State { .. } | CheckpointError::Parse { .. })
                ),
                "inflated bin counts must fail the n cross-check"
            );
        }
    }

    // The original still loads after all that slicing.
    assert!(TimelineCheckpoint::load(&good).is_ok());
}

/// A worker checkpoint cannot seed a resume, and a resume under
/// different digest params is refused.
#[test]
fn resume_rejects_worker_checkpoints_and_params_drift() {
    let worker = tl_worker(0, 100, 64, 2048);
    assert!(!worker.is_resumable());
    let err = checkpointed_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(32, 2048),
        &inactive(),
        AdaptiveBackend::Flat,
        Some(&worker),
        &CheckpointConfig::default(),
        &mut |_| true,
    )
    .expect_err("worker checkpoint must not resume");
    assert!(matches!(err, CheckpointError::Config { .. }), "{err:?}");

    let RunOutcome::Interrupted(driver) =
        run_checkpointed(&cfg(), &inactive(), None, &first_barrier)
    else {
        panic!("interrupts")
    };
    let err = checkpointed_timeline_campaign(
        tl_stimuli(),
        &CrowdFlower,
        N,
        &cfg(),
        &paper_pipeline(),
        Seed(1440),
        &sc(32, 4), // different exact_cap than the checkpoint's params
        &inactive(),
        AdaptiveBackend::Flat,
        Some(&driver),
        &CheckpointConfig::default(),
        &mut |_| true,
    )
    .expect_err("params drift must be refused");
    assert!(matches!(err, CheckpointError::ParamsMismatch { .. }), "{err:?}");
}

/// `doc` with its totals line's `admitted` count replaced by
/// `u64::MAX - 1` (the header's `admitted_before` key does not match).
fn forge_admitted(doc: &str) -> String {
    let key = "{\"admitted\":";
    let at = doc.find(key).expect("totals line") + key.len();
    let end = at + doc[at..].find(',').expect("admitted value");
    format!("{}{}{}", &doc[..at], u64::MAX - 1, &doc[end..])
}

/// Every fold satisfies `admitted + rejected + pruned == range_hi -
/// range_lo`; a totals line that breaks it is refused at load time
/// (line 2) instead of overflowing the resumed timeline driver's
/// admitted-index arithmetic.
#[test]
fn forged_totals_are_refused_before_a_timeline_resume() {
    let RunOutcome::Interrupted(ck) = run_checkpointed(&cfg(), &inactive(), None, &first_barrier)
    else {
        panic!("interrupts")
    };
    let forged = forge_admitted(&ck.save());
    let err = match TimelineCheckpoint::load(&forged) {
        Err(e) => e,
        Ok(loaded) => checkpointed_timeline_campaign(
            tl_stimuli(),
            &CrowdFlower,
            N,
            &cfg(),
            &paper_pipeline(),
            Seed(1440),
            &sc(32, 2048),
            &inactive(),
            AdaptiveBackend::Flat,
            Some(&loaded),
            &CheckpointConfig { every_shards: 2 },
            &mut |_| true,
        )
        .expect_err("forged totals must not resume"),
    };
    assert!(matches!(err, CheckpointError::Format { line: 2, .. }), "{err:?}");
}

/// Every epoch advances at least one participant index, so a drive line
/// that counts more epochs than the range holds is forged; it is refused
/// at load time instead of overflowing the resumed driver's epoch count.
#[test]
fn forged_epoch_count_is_refused_before_a_timeline_resume() {
    let RunOutcome::Interrupted(ck) = run_checkpointed(&cfg(), &inactive(), None, &first_barrier)
    else {
        panic!("interrupts")
    };
    let doc = ck.save();
    let forged = doc.replacen("\"epochs\":1,", &format!("\"epochs\":{},", u64::MAX), 1);
    assert_ne!(forged, doc, "the first barrier's drive line counts one epoch");
    let err = match TimelineCheckpoint::load(&forged) {
        Err(e) => e,
        Ok(loaded) => checkpointed_timeline_campaign(
            tl_stimuli(),
            &CrowdFlower,
            N,
            &cfg(),
            &paper_pipeline(),
            Seed(1440),
            &sc(32, 2048),
            &inactive(),
            AdaptiveBackend::Flat,
            Some(&loaded),
            &CheckpointConfig { every_shards: 2 },
            &mut |_| true,
        )
        .expect_err("a forged epoch count must not resume"),
    };
    let drive_line = doc.lines().count() - 2;
    assert!(matches!(err, CheckpointError::Format { line, .. } if line == drive_line), "{err:?}");
}

/// The A/B counterpart: a forged A/B driver checkpoint is refused at
/// load time instead of panicking in the resumed run.
#[test]
fn forged_totals_are_refused_before_an_ab_resume() {
    let run = |resume: Option<&AbCheckpoint>, stop: bool| {
        checkpointed_ab_campaign(
            ab_stimuli(),
            &CrowdFlower,
            N,
            &cfg(),
            &paper_pipeline(),
            Seed(1441),
            &sc(32, 2048),
            resume,
            &CheckpointConfig { every_shards: 2 },
            &mut |_| !stop,
        )
    };
    let Ok(AbRunOutcome::Interrupted(ck)) = run(None, true) else { panic!("interrupts") };
    let forged = forge_admitted(&ck.save());
    let err = match AbCheckpoint::load(&forged) {
        Err(e) => e,
        Ok(loaded) => run(Some(&loaded), false).expect_err("forged totals must not resume"),
    };
    assert!(matches!(err, CheckpointError::Format { line: 2, .. }), "{err:?}");
}

/// Zero videos per participant with controls on (the control question
/// reuses one of the participant's videos) is a typed config error from
/// every `Result`-returning entry point, not an index-out-of-bounds
/// panic inside the kernel.
#[test]
fn zero_videos_per_participant_is_a_config_error() {
    let zero = ExperimentConfig { videos_per_participant: 0, ..cfg() };
    let filters = paper_pipeline();
    let errs = [
        checkpointed_timeline_campaign(
            tl_stimuli(),
            &CrowdFlower,
            N,
            &zero,
            &filters,
            Seed(1440),
            &sc(32, 2048),
            &inactive(),
            AdaptiveBackend::Flat,
            None,
            &CheckpointConfig::default(),
            &mut |_| true,
        )
        .err(),
        checkpointed_ab_campaign(
            ab_stimuli(),
            &CrowdFlower,
            N,
            &zero,
            &filters,
            Seed(1441),
            &sc(32, 2048),
            None,
            &CheckpointConfig::default(),
            &mut |_| true,
        )
        .err(),
        timeline_worker_checkpoint(
            tl_stimuli(),
            &CrowdFlower,
            0,
            N,
            &zero,
            &filters,
            Seed(1440),
            &sc(32, 2048),
        )
        .err(),
        ab_worker_checkpoint(
            ab_stimuli(),
            &CrowdFlower,
            0,
            N,
            &zero,
            &filters,
            Seed(1441),
            &sc(32, 2048),
        )
        .err(),
    ];
    for (i, err) in errs.into_iter().enumerate() {
        assert!(
            matches!(&err, Some(CheckpointError::Config { detail }) if detail.contains("video")),
            "entry point {i}: {err:?}"
        );
    }
}
