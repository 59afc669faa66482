//! Multi-process checkpoint harness for the §3i serialization layer:
//! proves that interrupt/resume and independently-written worker
//! checkpoints compose — digest *and* observability-counter
//! fingerprint — to the uninterrupted single-process run.
//!
//! Three modes over one fixed smoke campaign (4 stimuli × 400
//! participants, shard 64, checkpoint every 2 shards):
//!
//! * `--smoke [--fingerprint-out PATH] [--live-out PATH]` — in-process
//!   gates, exiting non-zero on any failure:
//!   (a) the checkpointed driver with an inactive rule equals the
//!   streaming timeline reference (digest + counters);
//!   (b) interrupt at the first barrier → `save` → `load` in a
//!   simulated fresh process (obs registry reset) → resume equals the
//!   uninterrupted run, plain and adaptive (decision fingerprint
//!   included) — and the A/B driver's resume equals the materializing
//!   engine's A/B digest and counters;
//!   (c) `save` → `load` → `save` is a byte-level fixed point.
//!   `--fingerprint-out` writes the run's fingerprints so
//!   `scripts/verify.sh` can `cmp` runs at different `EYEORG_THREADS`
//!   values; `--live-out` writes the live JSONL stream (one line per
//!   barrier, final line checked against the end-of-run digest).
//! * `--worker LO HI --out PATH` — run the worker slice
//!   `[LO, HI)` of the same campaign in *this* process and write its
//!   checkpoint file. `verify.sh` launches several of these as real
//!   child processes over disjoint ranges.
//! * `--merge OUT_FP FILE...` — load the checkpoint files, merge them
//!   in range order, finalize, and write `digest-fp\ncounter-fp\n` for
//!   the caller to `cmp` against the single-process reference.

use eyeorg_bench::campaigns::capture_browser;
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::Seed;
use eyeorg_video::CaptureConfig;
use eyeorg_workload::alexa_like;

const SITES: usize = 4;
const PARTICIPANTS: usize = 400;
const SHARD: usize = 64;
const EVERY_SHARDS: usize = 2;

/// Active stopping rule for the adaptive resume gate: fires on this
/// workload well before the 400-participant budget.
const SMOKE_EPSILON: f64 = 0.25;
const SMOKE_MIN_N: u64 = 32;

fn seed() -> Seed {
    Seed(2016).derive("merge-digests")
}

fn smoke_stimuli() -> Vec<TimelineStimulus> {
    let corpus = alexa_like(seed().derive("sites"), SITES);
    let capture = CaptureConfig { repeats: 2, ..CaptureConfig::default() };
    timeline_stimuli(&corpus, &capture_browser(), &capture, seed().derive("capture"))
}

fn smoke_ab_stimuli() -> Vec<AbStimulus> {
    let corpus = alexa_like(seed().derive("sites"), SITES);
    let capture = CaptureConfig { repeats: 2, ..CaptureConfig::default() };
    protocol_ab_stimuli(&corpus, &capture_browser(), &capture, seed().derive("ab-capture"))
}

/// `threads: 0` so the `EYEORG_THREADS` knob applies — `verify.sh`
/// compares fingerprint files across thread counts.
fn cfg() -> ExperimentConfig {
    ExperimentConfig { threads: 0, ..ExperimentConfig::default() }
}

fn scfg() -> StreamConfig {
    StreamConfig { shard_size: SHARD, ..StreamConfig::default() }
}

fn ck_cfg() -> CheckpointConfig {
    CheckpointConfig { every_shards: EVERY_SHARDS }
}

fn inactive() -> AdaptiveConfig {
    AdaptiveConfig { epoch: 64, epsilon: 0.0, min_n: 8, max_n: 0 }
}

fn active() -> AdaptiveConfig {
    AdaptiveConfig { epoch: 64, epsilon: SMOKE_EPSILON, min_n: SMOKE_MIN_N, max_n: 0 }
}

fn counters() -> String {
    eyeorg_obs::snapshot("merge-digests", 0).counter_fingerprint()
}

/// Drive the checkpointed timeline campaign, stopping at the
/// `stop_after`-th barrier when given (None = run to completion).
/// Returns the outcome plus the live JSONL lines seen.
fn run_ck(
    stimuli: &[TimelineStimulus],
    ac: &AdaptiveConfig,
    resume: Option<&TimelineCheckpoint>,
    stop_after: Option<usize>,
) -> (RunOutcome, Vec<String>) {
    let mut live = Vec::new();
    let mut seen = 0usize;
    let out = checkpointed_timeline_campaign(
        stimuli,
        &CrowdFlower,
        PARTICIPANTS,
        &cfg(),
        &paper_pipeline(),
        seed().derive("run"),
        &scfg(),
        ac,
        AdaptiveBackend::Flat,
        resume,
        &ck_cfg(),
        &mut |ev| match ev {
            CheckpointEvent::Live(line) => {
                live.push(line.to_string());
                true
            }
            CheckpointEvent::Checkpoint(_) => {
                seen += 1;
                stop_after.is_none_or(|k| seen < k)
            }
        },
    )
    .expect("checkpointed campaign");
    (out, live)
}

fn write_file(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(path, contents).expect("write output file");
}

fn smoke(fp_out: Option<String>, live_out: Option<String>) {
    let stimuli = smoke_stimuli();
    let mut identical = true;

    // Reference: the streaming timeline reference, digest and counters.
    eyeorg_obs::reset();
    let reference = stream_timeline_campaign(
        &stimuli,
        &CrowdFlower,
        PARTICIPANTS,
        &cfg(),
        &paper_pipeline(),
        seed().derive("run"),
        &scfg(),
    );
    let reference_fp = reference.fingerprint();
    let reference_counters = counters();

    // Gate (a): the checkpointed driver with an inactive rule equals
    // the reference — and gate (b): interrupt at the first barrier,
    // reload the bytes with a reset obs registry, resume, and land on
    // the same fingerprints.
    eyeorg_obs::reset();
    let (out, live_lines) = run_ck(&stimuli, &inactive(), None, None);
    let RunOutcome::Complete(outcome) = out else {
        eprintln!("DIVERGENCE: uninterrupted run did not complete");
        std::process::exit(1);
    };
    if outcome.digest.fingerprint() != reference_fp {
        identical = false;
        eprintln!("DIVERGENCE: checkpointed digest != streaming reference");
    }
    if counters() != reference_counters {
        identical = false;
        eprintln!("DIVERGENCE: checkpointed counters != streaming reference");
    }
    let last = live_lines.last().cloned().unwrap_or_default();
    if last != live_line_from_digest(&outcome.digest, PARTICIPANTS as u64, true) {
        identical = false;
        eprintln!("DIVERGENCE: final live line != end-of-run digest read-out");
    }
    println!("smoke uninterrupted: {} live lines", live_lines.len());

    // Interrupt → save → load → resume.
    eyeorg_obs::reset();
    let (out, _) = run_ck(&stimuli, &inactive(), None, Some(1));
    let RunOutcome::Interrupted(ck) = out else {
        eprintln!("DIVERGENCE: run did not stop at the first barrier");
        std::process::exit(1);
    };
    let bytes = ck.save();
    let reloaded = TimelineCheckpoint::load(&bytes).expect("reload checkpoint");
    if reloaded.save() != bytes {
        identical = false;
        eprintln!("DIVERGENCE: save/load is not a fixed point");
    }
    eyeorg_obs::reset(); // simulate the resuming process starting fresh
    let (out, _) = run_ck(&stimuli, &inactive(), Some(&reloaded), None);
    let RunOutcome::Complete(outcome) = out else {
        eprintln!("DIVERGENCE: resumed run did not complete");
        std::process::exit(1);
    };
    if outcome.digest.fingerprint() != reference_fp {
        identical = false;
        eprintln!("DIVERGENCE: resumed digest != uninterrupted run");
    }
    if counters() != reference_counters {
        identical = false;
        eprintln!("DIVERGENCE: resumed counters != uninterrupted run");
    }
    println!("smoke interrupt/resume: ok={identical}");

    // Gate (b), adaptive: the stopping rule's decision sequence must
    // survive interruption too.
    eyeorg_obs::reset();
    let (out, _) = run_ck(&stimuli, &active(), None, None);
    let RunOutcome::Complete(act_ref) = out else {
        eprintln!("DIVERGENCE: adaptive uninterrupted run did not complete");
        std::process::exit(1);
    };
    let act_fp = act_ref.digest.fingerprint();
    let act_decisions = act_ref.decision_fingerprint();
    let act_counters = counters();
    if act_ref.decisions.is_empty() {
        identical = false;
        eprintln!("DIVERGENCE: smoke epsilon never fired (calibration broken)");
    }
    eyeorg_obs::reset();
    let (out, _) = run_ck(&stimuli, &active(), None, Some(1));
    let RunOutcome::Interrupted(ck) = out else {
        eprintln!("DIVERGENCE: adaptive run did not stop at the first barrier");
        std::process::exit(1);
    };
    let reloaded = TimelineCheckpoint::load(&ck.save()).expect("reload adaptive checkpoint");
    eyeorg_obs::reset();
    let (out, _) = run_ck(&stimuli, &active(), Some(&reloaded), None);
    let RunOutcome::Complete(outcome) = out else {
        eprintln!("DIVERGENCE: adaptive resumed run did not complete");
        std::process::exit(1);
    };
    if outcome.digest.fingerprint() != act_fp
        || outcome.decision_fingerprint() != act_decisions
        || counters() != act_counters
    {
        identical = false;
        eprintln!("DIVERGENCE: adaptive resume differs from uninterrupted run");
    }
    println!("smoke adaptive interrupt/resume: {} decisions", outcome.decisions.len());

    // The A/B driver: same interrupt → save → load → resume contract.
    // Its reference is the materializing engine (campaign + filter +
    // digest fold).
    let ab = smoke_ab_stimuli();
    eyeorg_obs::reset();
    let campaign =
        run_ab_campaign(ab.clone(), &CrowdFlower, PARTICIPANTS, &cfg(), seed().derive("ab-run"));
    let report = filter_ab(&campaign, &paper_pipeline());
    let ab_fp = digest_ab(&campaign, &report, PARTICIPANTS).fingerprint();
    let ab_counters = counters();
    eyeorg_obs::reset();
    let mut seen = 0usize;
    let out = checkpointed_ab_campaign(
        &ab,
        &CrowdFlower,
        PARTICIPANTS,
        &cfg(),
        &paper_pipeline(),
        seed().derive("ab-run"),
        &scfg(),
        None,
        &ck_cfg(),
        &mut |_| {
            seen += 1;
            seen < 1
        },
    )
    .expect("ab checkpointed campaign");
    let AbRunOutcome::Interrupted(ck) = out else {
        eprintln!("DIVERGENCE: A/B run did not stop at the first barrier");
        std::process::exit(1);
    };
    let reloaded = AbCheckpoint::load(&ck.save()).expect("reload A/B checkpoint");
    eyeorg_obs::reset();
    let out = checkpointed_ab_campaign(
        &ab,
        &CrowdFlower,
        PARTICIPANTS,
        &cfg(),
        &paper_pipeline(),
        seed().derive("ab-run"),
        &scfg(),
        Some(&reloaded),
        &ck_cfg(),
        &mut |_| true,
    )
    .expect("ab resumed campaign");
    let AbRunOutcome::Complete(digest) = out else {
        eprintln!("DIVERGENCE: A/B resumed run did not complete");
        std::process::exit(1);
    };
    if digest.fingerprint() != ab_fp || counters() != ab_counters {
        identical = false;
        eprintln!("DIVERGENCE: A/B resume differs from uninterrupted run");
    }
    println!("smoke A/B interrupt/resume: ok={identical}");

    if let Some(path) = live_out {
        write_file(&path, &(live_lines.join("\n") + "\n"));
        println!("wrote {path}");
    }
    if let Some(path) = fp_out {
        // Everything a cross-process / cross-thread-count `cmp` needs:
        // plain digest + counters (== the streaming reference's, and ==
        // what `--merge` emits), then the adaptive run's digest,
        // decision, and counter fingerprints.
        let contents = format!(
            "{reference_fp}\n{reference_counters}\n{act_fp}\n{act_decisions}\n{act_counters}\n"
        );
        write_file(&path, &contents);
        println!("wrote {path}");
    }

    if !identical {
        eprintln!("FAIL: checkpoint layer diverged");
        std::process::exit(1);
    }
    println!("smoke OK: checkpoint/resume and live analytics match the uninterrupted run");
}

fn worker(args: &[String]) {
    let mut lo = None;
    let mut hi = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().expect("--out needs a path").clone()),
            v => {
                let n: usize = v.parse().unwrap_or_else(|_| {
                    eprintln!("unknown --worker argument: {v}");
                    std::process::exit(2);
                });
                if lo.is_none() {
                    lo = Some(n);
                } else {
                    hi = Some(n);
                }
            }
        }
    }
    let (Some(lo), Some(hi), Some(out)) = (lo, hi, out) else {
        eprintln!("usage: merge_digests --worker LO HI --out PATH");
        std::process::exit(2);
    };
    // Build stimuli before the reset: the captured counter state must
    // cover the campaign only, matching the single-process reference.
    let stimuli = smoke_stimuli();
    eyeorg_obs::reset();
    let ck = timeline_worker_checkpoint(
        &stimuli,
        &CrowdFlower,
        lo,
        hi,
        &cfg(),
        &paper_pipeline(),
        seed().derive("run"),
        &scfg(),
    )
    .unwrap_or_else(|e| {
        eprintln!("FAIL: worker [{lo}, {hi}) checkpoint: {e}");
        std::process::exit(1);
    });
    write_file(&out, &ck.save());
    println!("worker [{lo}, {hi}) wrote {out}");
}

fn merge(args: &[String]) {
    let [out_fp, files @ ..] = args else {
        eprintln!("usage: merge_digests --merge OUT_FP FILE...");
        std::process::exit(2);
    };
    if files.is_empty() {
        eprintln!("usage: merge_digests --merge OUT_FP FILE...");
        std::process::exit(2);
    }
    let mut parts: Vec<TimelineCheckpoint> = files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("FAIL: read {path}: {e}");
                std::process::exit(1);
            });
            TimelineCheckpoint::load(&text).unwrap_or_else(|e| {
                eprintln!("FAIL: load {path}: {e}");
                std::process::exit(1);
            })
        })
        .collect();
    parts.sort_by_key(|c| c.range().0);
    let mut merged = parts.remove(0);
    for part in &parts {
        merged.merge(part).unwrap_or_else(|e| {
            eprintln!("FAIL: merge checkpoint covering {:?}: {e}", part.range());
            std::process::exit(1);
        });
    }
    let stimuli = smoke_stimuli();
    let digest = merged.finalize(&stimuli, &CrowdFlower).unwrap_or_else(|e| {
        eprintln!("FAIL: finalize merged checkpoint: {e}");
        std::process::exit(1);
    });
    // The merged counter state is the sum of the workers' registries;
    // restore it into a clean one to render the canonical fingerprint.
    eyeorg_obs::reset();
    merged.restore_counters();
    let contents = format!("{}\n{}\n", digest.fingerprint(), counters());
    write_file(out_fp, &contents);
    println!(
        "merged {} checkpoints covering [0, {}) -> {out_fp}",
        files.len(),
        merged.range().1
    );
}

fn main() {
    eyeorg_obs::enable();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--worker") => worker(&args[1..]),
        Some("--merge") => merge(&args[1..]),
        Some("--smoke") => {
            let mut fp_out = None;
            let mut live_out = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--fingerprint-out" => {
                        fp_out = Some(it.next().expect("--fingerprint-out needs a path").clone());
                    }
                    "--live-out" => {
                        live_out = Some(it.next().expect("--live-out needs a path").clone());
                    }
                    other => {
                        eprintln!("unknown argument: {other}");
                        std::process::exit(2);
                    }
                }
            }
            smoke(fp_out, live_out);
        }
        _ => {
            eprintln!(
                "usage: merge_digests --smoke [--fingerprint-out PATH] [--live-out PATH]\n\
                 \x20      merge_digests --worker LO HI --out PATH\n\
                 \x20      merge_digests --merge OUT_FP FILE..."
            );
            std::process::exit(2);
        }
    }
}
