//! Golden campaigns: fixed-seed campaigns must reproduce recorded hashes.
//!
//! Pins the FNV-1a hashes of the digest, obs counter and (adaptive)
//! decision fingerprints of small fixed-seed campaigns — `timeline`,
//! `protocol-ab`, `adblock-ab`, `adaptive` — and asserts that every
//! engine (flat, streaming, materializing), shard size, thread count
//! {1, 2, 4}, checkpoint resume and three-process worker split
//! reproduces them. The `*/rows` hashes pin the materialized campaigns'
//! rows themselves: a canonical rendering of every row and control
//! field (times in integer µs) and each admitted participant's seed,
//! including the fields no digest reads. The run-report binary's
//! counters are pinned by `crates/bench/tests/run_report_golden.rs`.
//!
//! The obs registry is process-global, so every test holds one lock. If
//! `EYEORG_THREADS` is unset the binary sets it to 4 before any pool is
//! sized, so thread counts above one spawn real pools on a 1-core box.
//! If an intended change of the science moves a hash, the failure
//! message prints the cell's new rows.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use eyeorg_browser::{AdBlocker, BrowserConfig};
use eyeorg_core::prelude::*;
use eyeorg_crowd::{CrowdFlower, Participant, VideoSession};
use eyeorg_net::NetworkProfile;
use eyeorg_stats::{set_chaos_seed, Seed};
use eyeorg_video::{shared_capture_cache, CaptureConfig};
use eyeorg_workload::alexa_like;

/// Recorded `(cell/fingerprint, hash)` pairs.
const GOLDEN: &[(&str, &str)] = &[
    ("timeline/digest", "7ece7388a382ede1"),
    ("timeline/counters", "82a3ef8a1c54331a"),
    ("timeline/rows", "8974c1b67ab7726a"),
    ("protocol-ab/digest", "424dda221e4ff650"),
    ("protocol-ab/counters", "d6fe20b43e5df2e3"),
    ("protocol-ab/rows", "53e6f099d6c64eed"),
    ("adblock-ab/digest", "e4ab217986ef54cd"),
    ("adblock-ab/counters", "e18277a5876eee88"),
    ("adblock-ab/rows", "98ce6413e516cb96"),
    ("adaptive/digest", "d91546eeb3f011d2"),
    ("adaptive/counters", "0746267343fc54d0"),
    ("adaptive/decisions", "0123e6789fd40b1e"),
    ("resume/live", "9ac765b7c2339af7"),
];

/// The recorded hash of `key`.
fn golden(key: &str) -> &'static str {
    GOLDEN.iter().find(|(k, _)| *k == key).map_or("missing", |&(_, v)| v)
}

const SITES: usize = 4;
const N: usize = 400;
const SHARD: usize = 64;
const THREADS: [usize; 3] = [1, 2, 4];
/// Shard sizes: the canonical one, a coarser one, and one shard for
/// the whole crowd.
const SHARDS: [usize; 3] = [SHARD, 128, N + 1];

fn fnv1a(s: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Serialise the tests (the obs registry is global) and put the process
/// in the state every test expects.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    if std::env::var_os("EYEORG_THREADS").is_none() {
        // Before any pool is sized: without the pin a 1-core box clamps
        // every thread count to the sequential path.
        std::env::set_var("EYEORG_THREADS", "4");
    }
    eyeorg_obs::enable();
    set_chaos_seed(0);
    guard
}

fn seed() -> Seed {
    Seed(2016).derive("campaign-golden")
}

fn fttc() -> BrowserConfig {
    BrowserConfig::new().with_network(NetworkProfile::fttc())
}

fn capture() -> CaptureConfig {
    CaptureConfig { repeats: 2, ..CaptureConfig::default() }
}

fn sites() -> Vec<eyeorg_workload::Website> {
    alexa_like(seed().derive("sites"), SITES)
}

fn tl_stimuli() -> &'static [TimelineStimulus] {
    static STIMULI: OnceLock<Vec<TimelineStimulus>> = OnceLock::new();
    STIMULI.get_or_init(|| timeline_stimuli(&sites(), &fttc(), &capture(), seed().derive("tl-cap")))
}

fn protocol_stimuli() -> &'static [AbStimulus] {
    static STIMULI: OnceLock<Vec<AbStimulus>> = OnceLock::new();
    let cable = BrowserConfig::new().with_network(NetworkProfile::cable());
    STIMULI
        .get_or_init(|| protocol_ab_stimuli(&sites(), &cable, &capture(), seed().derive("ab-cap")))
}

fn adblock_stimuli() -> &'static [AbStimulus] {
    static STIMULI: OnceLock<Vec<AbStimulus>> = OnceLock::new();
    let (blocker, ads) = (AdBlocker::Ghostery, seed().derive("ads-cap"));
    STIMULI.get_or_init(|| adblock_ab_stimuli(&sites(), &fttc(), blocker, &capture(), ads))
}

fn cfg(threads: usize) -> ExperimentConfig {
    ExperimentConfig { threads, ..ExperimentConfig::default() }
}

fn sc(shard_size: usize) -> StreamConfig {
    StreamConfig { shard_size, ..StreamConfig::default() }
}

fn run_seed() -> Seed {
    seed().derive("run")
}

/// The hashes of a campaign's digest and counter fingerprints.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    digest: String,
    counters: String,
}

impl Cell {
    /// Pair a digest fingerprint with the registry's counters.
    fn of(digest: &str) -> Cell {
        let counters = eyeorg_obs::snapshot("campaign-golden", 0).counter_fingerprint();
        Cell { digest: fnv1a(digest), counters: fnv1a(&counters) }
    }

    /// Compare the cell's (and any `extra`) fingerprints with its
    /// recorded hashes.
    fn assert_golden(&self, cell: &str, extra: &[(&str, &str)]) {
        let own = [("digest", self.digest.as_str()), ("counters", self.counters.as_str())];
        let actual: Vec<(String, String)> =
            own.iter().chain(extra).map(|(k, h)| (format!("{cell}/{k}"), h.to_string())).collect();
        let expected: Vec<(String, String)> = GOLDEN
            .iter()
            .filter(|(k, _)| k.split('/').next() == Some(cell))
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let table: String =
            actual.iter().map(|(k, v)| format!("    (\"{k}\", \"{v}\"),\n")).collect();
        assert_eq!(actual, expected, "{cell} fingerprints moved; new rows:\n{table}");
    }
}

/// The `timeline` cell: the flat kernel at one thread.
fn timeline_cell() -> &'static Cell {
    static CELL: OnceLock<Cell> = OnceLock::new();
    CELL.get_or_init(|| sharded(false, 1, SHARD))
}

/// The flat kernel, or the streaming reference when `stream`.
fn sharded(stream: bool, threads: usize, shard: usize) -> Cell {
    let stimuli = tl_stimuli();
    eyeorg_obs::reset();
    let engine = if stream { stream_timeline_campaign } else { flat_timeline_campaign };
    let d =
        engine(stimuli, &CrowdFlower, N, &cfg(threads), &paper_pipeline(), run_seed(), &sc(shard));
    Cell::of(&d.fingerprint())
}

#[test]
fn timeline() {
    let _g = serial();
    let cell = timeline_cell();
    let stimuli = tl_stimuli();
    let mut rows = None;
    for threads in THREADS {
        eyeorg_obs::reset();
        let campaign =
            run_timeline_campaign(stimuli.to_vec(), &CrowdFlower, N, &cfg(threads), run_seed());
        let report = filter_timeline(&campaign, &paper_pipeline());
        let d = digest_timeline(&campaign, &report, N, &DigestParams::default());
        assert_eq!(Cell::of(&d.fingerprint()), *cell, "materializing, threads={threads}");
        assert_same_rows(&mut rows, &tl_rows(&campaign), threads);
        for shard in SHARDS {
            let ctx = format!("threads={threads} shard={shard}");
            assert_eq!(sharded(false, threads, shard), *cell, "flat, {ctx}");
            assert_eq!(sharded(true, threads, shard), *cell, "stream, {ctx}");
        }
    }
    cell.assert_golden("timeline", &[("rows", rows.as_deref().unwrap_or_default())]);
}

/// The hash of a materialized campaign's rows at `threads` equals the
/// one at the first thread count.
fn assert_same_rows(first: &mut Option<String>, rendered: &str, threads: usize) {
    let rows = fnv1a(rendered);
    let first = first.get_or_insert_with(|| rows.clone());
    assert!(*first == rows, "materialized campaign at threads={threads} differs from threads=1");
}

/// One session, every field, times in integer µs.
fn session_text(s: &VideoSession) -> String {
    format!(
        "{} {} {} {} {} {} {}",
        s.video_load.as_micros(),
        s.time_spent.as_micros(),
        s.seeks,
        s.plays,
        s.pauses,
        s.out_of_focus.as_micros(),
        s.skipped
    )
}

/// The admitted participants' seeds and the controls, one line each.
fn seeds_and_controls(participants: &[Participant], controls: &[ControlRow]) -> String {
    let seeds = participants.iter().map(|p| format!("p {}\n", p.seed.value()));
    let controls = controls.iter().map(|c| format!("c {} {}\n", c.participant, c.passed));
    seeds.chain(controls).collect()
}

/// The canonical rendering of a timeline campaign's rows: every field
/// of every row and control, plus each admitted participant's seed.
fn tl_rows(c: &TimelineCampaign) -> String {
    let rows = c.rows.iter().map(|r| {
        let response = r.response.map_or("-".to_string(), |x| {
            format!(
                "{} {} {} {} {}",
                x.perceived.as_micros(),
                x.slider.as_micros(),
                x.helper.as_micros(),
                x.submitted.as_micros(),
                x.accepted_helper
            )
        });
        format!("r {} {} {} {response}\n", r.participant, r.stimulus, session_text(&r.session))
    });
    rows.collect::<String>() + &seeds_and_controls(&c.participants, &c.controls)
}

/// [`tl_rows`] for an A/B campaign.
fn ab_rows(c: &AbCampaign) -> String {
    let rows = c.rows.iter().map(|r| {
        let verdict = match r.verdict {
            Some(AbVerdict::AFaster) => "A",
            Some(AbVerdict::BFaster) => "B",
            Some(AbVerdict::NoDifference) => "N",
            None => "-",
        };
        let (p, s, a_left, session) =
            (r.participant, r.stimulus, r.a_left, session_text(&r.session));
        format!("r {p} {s} {a_left} {session} {verdict}\n")
    });
    rows.collect::<String>() + &seeds_and_controls(&c.participants, &c.controls)
}

fn flat_ab(stimuli: &[AbStimulus], threads: usize) -> Cell {
    eyeorg_obs::reset();
    let d = flat_ab_campaign(
        stimuli,
        &CrowdFlower,
        N,
        &cfg(threads),
        &paper_pipeline(),
        seed().derive("ab-run"),
        &sc(SHARD),
    );
    Cell::of(&d.fingerprint())
}

/// The `protocol-ab` cell: the flat kernel at one thread.
fn protocol_cell() -> &'static Cell {
    static CELL: OnceLock<Cell> = OnceLock::new();
    CELL.get_or_init(|| flat_ab(protocol_stimuli(), 1))
}

/// The flat kernel equals the materializing A/B engine at every thread
/// count. Returns the hash of the materialized rows.
fn check_ab(stimuli: &[AbStimulus], cell: &Cell) -> String {
    let mut rows = None;
    for threads in THREADS {
        eyeorg_obs::reset();
        let ab_run = seed().derive("ab-run");
        let campaign = run_ab_campaign(stimuli.to_vec(), &CrowdFlower, N, &cfg(threads), ab_run);
        let report = filter_ab(&campaign, &paper_pipeline());
        let d = digest_ab(&campaign, &report, N);
        assert_eq!(Cell::of(&d.fingerprint()), *cell, "materializing, threads={threads}");
        assert_same_rows(&mut rows, &ab_rows(&campaign), threads);
        assert_eq!(flat_ab(stimuli, threads), *cell, "flat, threads={threads}");
    }
    rows.unwrap_or_default()
}

#[test]
fn protocol_ab() {
    let _g = serial();
    let cell = protocol_cell();
    let rows = check_ab(protocol_stimuli(), cell);
    cell.assert_golden("protocol-ab", &[("rows", &rows)]);
}

#[test]
fn adblock_ab() {
    let _g = serial();
    let blocked = adblock_stimuli().iter().filter(|s| s.a.trace() != s.b.trace()).count();
    assert!(blocked > 0, "the blocker changes no load");
    let cell = flat_ab(adblock_stimuli(), 1);
    let rows = check_ab(adblock_stimuli(), &cell);
    cell.assert_golden("adblock-ab", &[("rows", &rows)]);
}

fn active() -> AdaptiveConfig {
    AdaptiveConfig { epoch: 50, epsilon: 0.5, min_n: 50, max_n: 0 }
}

/// A rule that cannot fire: the run must equal the plain kernel.
fn inactive(epoch: usize) -> AdaptiveConfig {
    AdaptiveConfig { epoch, epsilon: 0.0, min_n: 256, max_n: 0 }
}

/// The `adaptive` cell, plus its decision fingerprint.
fn adaptive_cell() -> &'static (Cell, String) {
    static CELL: OnceLock<(Cell, String)> = OnceLock::new();
    CELL.get_or_init(|| {
        let out = run_adaptive(1, SHARD, &active());
        (Cell::of(&out.digest.fingerprint()), fnv1a(&out.decision_fingerprint()))
    })
}

fn run_adaptive(threads: usize, shard: usize, ac: &AdaptiveConfig) -> AdaptiveOutcome {
    let stimuli = tl_stimuli();
    eyeorg_obs::reset();
    adaptive_timeline_campaign(
        stimuli,
        &CrowdFlower,
        N,
        &cfg(threads),
        &paper_pipeline(),
        run_seed(),
        &sc(shard),
        ac,
        AdaptiveBackend::Flat,
    )
}

#[test]
fn adaptive() {
    let _g = serial();
    let (cell, decisions) = adaptive_cell();
    let timeline = timeline_cell();
    for shard in SHARDS {
        for threads in THREADS {
            for chaos in [0u64, 5] {
                set_chaos_seed(chaos);
                let out = run_adaptive(threads, shard, &active());
                set_chaos_seed(0);
                let ctx = format!("active, shard={shard} threads={threads} chaos={chaos}");
                assert!(!out.decisions.is_empty(), "{ctx}: the rule never fired");
                assert_eq!(fnv1a(&out.decision_fingerprint()), *decisions, "{ctx}");
                assert_eq!(Cell::of(&out.digest.fingerprint()), *cell, "{ctx}");
            }
            for epoch in [37usize, 256] {
                let out = run_adaptive(threads, shard, &inactive(epoch));
                let ctx = format!("inactive, shard={shard} threads={threads} epoch={epoch}");
                assert!(out.decisions.is_empty(), "{ctx}: an inactive rule took decisions");
                assert_eq!(out.participants_saved(), 0, "{ctx}");
                assert_eq!(Cell::of(&out.digest.fingerprint()), *timeline, "{ctx}");
            }
        }
    }
    cell.assert_golden("adaptive", &[("decisions", decisions)]);
}

/// Drive the checkpointed timeline campaign at `threads` from a reset
/// registry (or from `resume`), interrupting at the first barrier when
/// `interrupt`. Returns the outcome and the live lines seen.
fn checkpointed(
    threads: usize,
    ac: &AdaptiveConfig,
    resume: Option<&TimelineCheckpoint>,
    interrupt: bool,
) -> (RunOutcome, Vec<String>) {
    let mut live = Vec::new();
    let stimuli = tl_stimuli();
    eyeorg_obs::reset();
    let out = checkpointed_timeline_campaign(
        stimuli,
        &CrowdFlower,
        N,
        &cfg(threads),
        &paper_pipeline(),
        run_seed(),
        &sc(SHARD),
        ac,
        AdaptiveBackend::Flat,
        resume,
        &CheckpointConfig { every_shards: 2 },
        &mut |ev| match ev {
            CheckpointEvent::Live(line) => {
                live.push(line.to_string());
                true
            }
            CheckpointEvent::Checkpoint(_) => !interrupt,
        },
    )
    .expect("checkpointed campaign");
    (out, live)
}

/// Interrupt at the first barrier, check `save(load(x)) == x`, and
/// resume from the loaded bytes in a reset registry.
fn interrupt_and_resume(threads: usize, ac: &AdaptiveConfig) -> AdaptiveOutcome {
    let (out, _) = checkpointed(threads, ac, None, true);
    let RunOutcome::Interrupted(ck) = out else { panic!("run did not stop at the first barrier") };
    let bytes = ck.save();
    let loaded = TimelineCheckpoint::load(&bytes).expect("reload checkpoint");
    assert_eq!(loaded.save(), bytes, "save/load is not a fixed point");
    let (out, _) = checkpointed(threads, ac, Some(&loaded), false);
    let RunOutcome::Complete(outcome) = out else { panic!("resumed run did not complete") };
    *outcome
}

/// The protocol A/B counterpart of [`interrupt_and_resume`].
fn ab_interrupt_and_resume(threads: usize) -> AbDigest {
    // Capture before the first reset: the captures bump obs counters,
    // and `protocol_cell`'s run counts none of them.
    let stimuli = protocol_stimuli();
    let run = |resume: Option<&AbCheckpoint>, interrupt: bool| {
        eyeorg_obs::reset();
        checkpointed_ab_campaign(
            stimuli,
            &CrowdFlower,
            N,
            &cfg(threads),
            &paper_pipeline(),
            seed().derive("ab-run"),
            &sc(SHARD),
            resume,
            &CheckpointConfig { every_shards: 2 },
            &mut |_| !interrupt,
        )
        .expect("checkpointed A/B campaign")
    };
    let AbRunOutcome::Interrupted(ck) = run(None, true) else {
        panic!("A/B run did not stop at the first barrier")
    };
    let bytes = ck.save();
    let loaded = AbCheckpoint::load(&bytes).expect("reload A/B checkpoint");
    assert_eq!(loaded.save(), bytes, "A/B save/load is not a fixed point");
    let AbRunOutcome::Complete(digest) = run(Some(&loaded), false) else {
        panic!("A/B resumed run did not complete")
    };
    *digest
}

#[test]
fn resume() {
    let _g = serial();
    let timeline = timeline_cell();
    let (cell, decisions) = adaptive_cell();
    for threads in THREADS {
        let (out, live) = checkpointed(threads, &inactive(SHARD), None, false);
        let RunOutcome::Complete(out) = out else { panic!("threads={threads}: run did not end") };
        let d = &out.digest;
        assert_eq!(Cell::of(&d.fingerprint()), *timeline, "uninterrupted, threads={threads}");
        assert!(live.len() > 2, "one live line per barrier, plus the final one");
        let last = live_line_from_digest(d, N as u64, true);
        assert_eq!(
            live.last(),
            Some(&last),
            "final live line != digest read-out, threads={threads}"
        );
        let hash = fnv1a(&live.join("\n"));
        assert_eq!(hash, golden("resume/live"), "live lines moved, threads={threads}: {hash}");

        let d = interrupt_and_resume(threads, &inactive(SHARD)).digest.fingerprint();
        assert_eq!(Cell::of(&d), *timeline, "plain resume, threads={threads}");

        let out = interrupt_and_resume(threads, &active());
        let ctx = format!("adaptive resume, threads={threads}");
        assert_eq!(Cell::of(&out.digest.fingerprint()), *cell, "{ctx}");
        assert_eq!(fnv1a(&out.decision_fingerprint()), *decisions, "{ctx}");

        let d = ab_interrupt_and_resume(threads).fingerprint();
        assert_eq!(Cell::of(&d), *protocol_cell(), "A/B resume, threads={threads}");
    }
}

/// A checkpoint whose recorded counters sit next to `u64::MAX` is valid
/// input: resuming it saturates the totals instead of overflowing.
#[test]
fn forged_counters_saturate_on_resume() {
    let _g = serial();
    let (out, _) = checkpointed(1, &inactive(SHARD), None, true);
    let RunOutcome::Interrupted(ck) = out else { panic!("run did not stop at the first barrier") };
    // Every per-site total on the counters line becomes u64::MAX - 1.
    let text = ck.save();
    let key = "\"core.retained_per_site\":{";
    let start = text.find(key).expect("per-site counters recorded") + key.len();
    let end = start + text[start..].find('}').expect("labeled map closes");
    let cells: Vec<String> = text[start..end]
        .split(',')
        .map(|cell| format!("{}:{}", cell.rsplit_once(':').expect("label:value").0, u64::MAX - 1))
        .collect();
    let forged = format!("{}{}{}", &text[..start], cells.join(","), &text[end..]);
    let loaded = TimelineCheckpoint::load(&forged).expect("forged totals are well-formed");
    let (out, _) = checkpointed(1, &inactive(SHARD), Some(&loaded), false);
    assert!(matches!(out, RunOutcome::Complete(_)), "forged resume did not complete");
    let report = eyeorg_obs::snapshot("campaign-golden", 0);
    assert!(report.labeled["core.retained_per_site"].values().all(|&v| v == u64::MAX));
}

/// Participant ranges of the three worker processes and the
/// `EYEORG_THREADS` each runs at.
const MERGE3: [(&str, usize); 3] =
    [("merge3_child_0_150", 1), ("merge3_child_150_300", 2), ("merge3_child_300_400", 4)];

/// Write the worker checkpoint of `[lo, hi)` for the parent to merge,
/// into the working directory the parent gives the child.
fn merge3_child(child: &str, lo: usize, hi: usize) {
    let _g = serial();
    let stimuli = tl_stimuli();
    eyeorg_obs::reset();
    let ck = timeline_worker_checkpoint(
        stimuli,
        &CrowdFlower,
        lo,
        hi,
        &cfg(0),
        &paper_pipeline(),
        run_seed(),
        &sc(SHARD),
    )
    .expect("worker checkpoint");
    std::fs::write(format!("{child}.jsonl"), ck.save()).expect("write worker checkpoint");
}

#[test]
#[ignore = "a worker process of `merge3`"]
fn merge3_child_0_150() {
    merge3_child("merge3_child_0_150", 0, 150);
}

#[test]
#[ignore = "a worker process of `merge3`"]
fn merge3_child_150_300() {
    merge3_child("merge3_child_150_300", 150, 300);
}

#[test]
#[ignore = "a worker process of `merge3`"]
fn merge3_child_300_400() {
    merge3_child("merge3_child_300_400", 300, 400);
}

#[test]
fn merge3() {
    let _g = serial();
    let exe = std::env::current_exe().expect("test binary path");
    // One directory per run: concurrent test runs sharing the target
    // directory must not see each other's worker files.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("campaign_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create worker directory");
    let children: Vec<_> = MERGE3
        .iter()
        .map(|&(child, threads)| {
            std::process::Command::new(&exe)
                .args(["--ignored", "--exact", child])
                .current_dir(&dir)
                .env("EYEORG_THREADS", threads.to_string())
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("spawn worker process")
        })
        .collect();
    for (mut child, (name, _)) in children.into_iter().zip(MERGE3) {
        assert!(child.wait().expect("wait for worker").success(), "worker {name} failed");
    }
    let mut parts: Vec<TimelineCheckpoint> = MERGE3
        .iter()
        .map(|(child, _)| {
            let text = std::fs::read_to_string(dir.join(format!("{child}.jsonl")))
                .expect("worker wrote its file");
            TimelineCheckpoint::load(&text).expect("load worker checkpoint")
        })
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove worker directory");
    parts.sort_by_key(|c| c.range().0);
    let mut merged = parts.remove(0);
    for part in &parts {
        merged.merge(part).expect("merge adjacent ranges");
    }
    assert_eq!(merged.range(), (0, N as u64));
    let digest = merged.finalize(tl_stimuli(), &CrowdFlower).expect("finalize merged checkpoint");
    eyeorg_obs::reset();
    merged.restore_counters();
    assert_eq!(Cell::of(&digest.fingerprint()), *timeline_cell(), "merged workers");
}

/// The capture fan-out serves the same videos cold at every thread
/// count, and a warm cache serves the very captures it was filled with.
#[test]
fn capture_fan_out() {
    let _g = serial();
    let sites = sites();
    let videos = |threads| {
        let stimuli =
            timeline_stimuli_threads(&sites, &fttc(), &capture(), seed().derive("tl-cap"), threads);
        format!("{:?}", stimuli.iter().map(|s| &s.video).collect::<Vec<_>>())
    };
    let expected = format!("{:?}", tl_stimuli().iter().map(|s| &s.video).collect::<Vec<_>>());
    for threads in THREADS {
        shared_capture_cache().clear();
        assert!(videos(threads) == expected, "cold capture at threads={threads} differs");
    }
    assert!(videos(1) == expected, "cached capture != cold capture");
}
