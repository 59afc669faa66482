//! The `crowd-1m` and `split-resume` workloads: large timeline and A/B
//! campaigns over stimuli captured during set-up.
//!
//! The site corpus is fixed; the benchmark seed picks the capture and
//! crowd seeds. Over a million participants the work per run does not
//! depend on which seed it is.

use eyeorg_bench::campaigns::{capture_browser, protocol_capture_browser};
use eyeorg_core::prelude::*;
use eyeorg_crowd::CrowdFlower;
use eyeorg_stats::Seed;
use eyeorg_video::{shared_capture_cache, CaptureConfig};
use eyeorg_workload::alexa_like;

use crate::check::{debug_hash, hash, Fp};
use crate::harness::{Obs, Stats, Workload};
use crate::trace::span;
use crate::Size;

/// Sizes of the crowd workloads.
#[derive(Debug, Clone, Copy)]
struct Dims {
    sites: usize,
    repeats: usize,
    participants: usize,
    shard: usize,
    adaptive: AdaptiveConfig,
    /// Barrier at which the adaptive run is interrupted and resumed.
    interrupt_at: usize,
    /// Worker slices of the A/B campaign.
    slices: usize,
}

impl Dims {
    fn of(size: Size) -> Dims {
        match size {
            // ε = 0.02 s on 20k-participant epochs: on every recorded
            // variant most stimuli stop within the budget and a few run
            // to it, so the run keeps live and stopped masks to the end.
            Size::Full => Dims {
                sites: 20,
                repeats: 5,
                participants: 1_000_000,
                shard: 512,
                adaptive: AdaptiveConfig {
                    epoch: 20_000,
                    epsilon: 0.02,
                    min_n: 2_000,
                    max_n: 0,
                },
                interrupt_at: 10,
                slices: 3,
            },
            Size::Smoke => Dims {
                sites: 4,
                repeats: 2,
                participants: 4_000,
                shard: 64,
                adaptive: AdaptiveConfig {
                    epoch: 400,
                    epsilon: 0.15,
                    min_n: 32,
                    max_n: 0,
                },
                interrupt_at: 2,
                slices: 3,
            },
        }
    }
}

/// Stimuli captured during set-up.
#[derive(Clone)]
pub struct Stimuli {
    timeline: Vec<TimelineStimulus>,
    ab: Vec<AbStimulus>,
    page_loads: u64,
}

impl PartialEq for Stimuli {
    fn eq(&self, other: &Stimuli) -> bool {
        let tl =
            |a: &TimelineStimulus, b: &TimelineStimulus| a.name == b.name && a.video == b.video;
        let ab = |a: &AbStimulus, b: &AbStimulus| a.name == b.name && a.a == b.a && a.b == b.b;
        self.page_loads == other.page_loads
            && self.timeline.len() == other.timeline.len()
            && self.ab.len() == other.ab.len()
            && self
                .timeline
                .iter()
                .zip(&other.timeline)
                .all(|(a, b)| tl(a, b))
            && self.ab.iter().zip(&other.ab).all(|(a, b)| ab(a, b))
    }
}

/// What both crowd workloads share: sizes, seeds and the pool.
struct Common {
    dims: Dims,
    seed: Seed,
    pool: usize,
}

impl Common {
    fn new(size: Size, variant: u64, pool: usize) -> Common {
        Common {
            dims: Dims::of(size),
            seed: Seed(2016 + variant).derive("perfbench-crowd"),
            pool,
        }
    }

    fn cfg(&self) -> ExperimentConfig {
        ExperimentConfig {
            threads: self.pool,
            ..ExperimentConfig::default()
        }
    }

    fn sc(&self) -> StreamConfig {
        StreamConfig {
            shard_size: self.dims.shard,
            ..StreamConfig::default()
        }
    }

    /// Corpus generation and cold capture; A/B stimuli only when `ab`.
    fn setup(&self, ab: bool) -> Stimuli {
        let sites = {
            let _s = span("workload.corpus");
            alexa_like(
                Seed(2016).derive("perfbench-crowd").derive("sites"),
                self.dims.sites,
            )
        };
        let capture = CaptureConfig {
            repeats: self.dims.repeats,
            ..CaptureConfig::default()
        };
        let timeline = {
            let _s = span("capture.timeline_stimuli");
            timeline_stimuli_threads(
                &sites,
                &capture_browser(),
                &capture,
                self.seed.derive("tl-cap"),
                self.pool,
            )
        };
        let ab = if ab {
            let _s = span("capture.protocol_ab_stimuli");
            protocol_ab_stimuli(
                &sites,
                &protocol_capture_browser(),
                &capture,
                self.seed.derive("ab-cap"),
            )
        } else {
            Vec::new()
        };
        let page_loads = (shared_capture_cache().len() * self.dims.repeats) as u64;
        Stimuli {
            timeline,
            ab,
            page_loads,
        }
    }
}

fn setup_check(s: &Stimuli) -> Result<Vec<Fp>, String> {
    let mut fps = vec![("stimuli", debug_hash(&s.timeline))];
    if !s.ab.is_empty() {
        fps.push(("ab_stimuli", debug_hash(&s.ab)));
    }
    Ok(fps)
}

/// `crowd-1m`: one flat-kernel timeline campaign of a million
/// participants.
pub struct Crowd1m(Common);

impl Crowd1m {
    /// The workload at `size` for input variant `variant`.
    pub fn of(size: Size, variant: u64, pool: usize) -> Crowd1m {
        Crowd1m(Common::new(size, variant, pool))
    }
}

impl Workload for Crowd1m {
    type Setup = Stimuli;
    type Out = TimelineDigest;

    fn setup(&self) -> Stimuli {
        self.0.setup(false)
    }

    fn setup_check(&self, s: &Stimuli) -> Result<Vec<Fp>, String> {
        setup_check(s)
    }

    fn setup_page_loads(&self, s: &Stimuli) -> u64 {
        s.page_loads
    }

    fn run(&self, s: &Stimuli, _: &mut Obs) -> TimelineDigest {
        let c = &self.0;
        let _s = span("campaign.flat_timeline");
        flat_timeline_campaign(
            &s.timeline,
            &CrowdFlower,
            c.dims.participants,
            &c.cfg(),
            &paper_pipeline(),
            c.seed.derive("crowd"),
            &c.sc(),
        )
    }

    fn check(&self, digest: &TimelineDigest) -> Result<Vec<Fp>, String> {
        Ok(vec![("digest", hash(digest.fingerprint().as_bytes()))])
    }

    fn stats(&self, _: &TimelineDigest) -> Stats {
        Stats {
            participants: self.0.dims.participants as u64,
            ..Stats::default()
        }
    }

    /// The same campaign through the streaming engine.
    fn reference(&self, s: &Stimuli) -> Option<Result<Vec<Fp>, String>> {
        let c = &self.0;
        let digest = stream_timeline_campaign(
            &s.timeline,
            &CrowdFlower,
            c.dims.participants,
            &c.cfg(),
            &paper_pipeline(),
            c.seed.derive("crowd"),
            &c.sc(),
        );
        Some(self.check(&digest))
    }
}

/// `split-resume`: (a) an adaptive timeline campaign whose checkpoint is
/// saved and loaded back at every barrier, interrupted once and resumed
/// from the loaded bytes; (b) an A/B campaign split into worker slices
/// whose checkpoints are saved, loaded, merged and finalised.
pub struct SplitResume(Common);

impl SplitResume {
    /// The workload at `size` for input variant `variant`.
    pub fn of(size: Size, variant: u64, pool: usize) -> SplitResume {
        SplitResume(Common::new(size, variant, pool))
    }
}

/// Outputs of one split-resume repetition.
pub struct SplitOut {
    adaptive: Result<AdaptiveOutcome, String>,
    merged: Result<AbDigest, String>,
    checkpoints: u64,
    checkpoint_bytes: u64,
}

/// Saves and loads every barrier checkpoint of an adaptive run, and
/// interrupts the run once.
struct Barriers {
    seen: usize,
    interrupt_at: Option<usize>,
    resume_from: Option<TimelineCheckpoint>,
    error: Option<String>,
    count: u64,
    bytes: u64,
}

impl Barriers {
    fn observe(&mut self, ev: CheckpointEvent<'_>) -> bool {
        let CheckpointEvent::Checkpoint(ck) = ev else {
            return true;
        };
        self.seen += 1;
        let text = {
            let _s = span("checkpoint.save");
            ck.save()
        };
        self.count += 1;
        self.bytes += text.len() as u64;
        let loaded = {
            let _s = span("checkpoint.load");
            TimelineCheckpoint::load(&text)
        };
        match loaded {
            Ok(loaded) if self.interrupt_at == Some(self.seen) => {
                self.resume_from = Some(loaded);
                false
            }
            Ok(_) => true,
            Err(e) => {
                self.error
                    .get_or_insert(format!("barrier {}: {e}", self.seen));
                true
            }
        }
    }
}

impl SplitResume {
    fn adaptive(
        &self,
        s: &Stimuli,
        obs: &mut Obs,
        b: &mut Barriers,
    ) -> Result<AdaptiveOutcome, String> {
        let c = &self.0;
        let run = |resume: Option<&TimelineCheckpoint>, b: &mut Barriers| {
            let _s = span("campaign.checkpointed_timeline");
            checkpointed_timeline_campaign(
                &s.timeline,
                &CrowdFlower,
                c.dims.participants,
                &c.cfg(),
                &paper_pipeline(),
                c.seed.derive("adaptive"),
                &c.sc(),
                &c.dims.adaptive,
                AdaptiveBackend::Flat,
                resume,
                &CheckpointConfig { every_shards: 1 },
                &mut |ev| b.observe(ev),
            )
        };
        match run(None, b).map_err(|e| e.to_string())? {
            RunOutcome::Interrupted(_) => {}
            RunOutcome::Complete(_) => {
                return Err(format!("run ended before barrier {}", c.dims.interrupt_at))
            }
        }
        let from = b
            .resume_from
            .take()
            .ok_or("interrupted without a loaded checkpoint")?;
        // A resumed process starts with an empty registry;
        // `checkpointed_timeline_campaign` restores the totals recorded in
        // the checkpoint.
        obs.discard();
        b.interrupt_at = None;
        let outcome = match run(Some(&from), b).map_err(|e| e.to_string())? {
            RunOutcome::Complete(o) => *o,
            RunOutcome::Interrupted(_) => return Err("resumed run interrupted".to_string()),
        };
        if let Some(e) = b.error.take() {
            return Err(e);
        }
        obs.take();
        eprintln!(
            "adaptive: {} barriers, {} of {} stimuli stopped, {} participants recruited",
            outcome.epochs,
            outcome.decisions.len(),
            s.timeline.len(),
            outcome.recruited
        );
        Ok(outcome)
    }

    fn split_ab(&self, s: &Stimuli, obs: &mut Obs, b: &mut Barriers) -> Result<AbDigest, String> {
        let c = &self.0;
        let n = c.dims.participants;
        let mut saved = Vec::with_capacity(c.dims.slices);
        for w in 0..c.dims.slices {
            let (lo, hi) = (n * w / c.dims.slices, n * (w + 1) / c.dims.slices);
            // Each worker is its own process: its checkpoint carries
            // only its own counter totals.
            obs.discard();
            let ck = {
                let _s = span("campaign.ab_worker");
                ab_worker_checkpoint(
                    &s.ab,
                    &CrowdFlower,
                    lo,
                    hi,
                    &c.cfg(),
                    &paper_pipeline(),
                    c.seed.derive("ab"),
                    &c.sc(),
                )
                .map_err(|e| e.to_string())?
            };
            let text = {
                let _s = span("checkpoint.save");
                ck.save()
            };
            b.count += 1;
            b.bytes += text.len() as u64;
            saved.push(text);
        }
        obs.discard();
        let mut loaded = Vec::with_capacity(saved.len());
        for text in &saved {
            let _s = span("checkpoint.load");
            loaded.push(AbCheckpoint::load(text).map_err(|e| e.to_string())?);
        }
        let _s = span("checkpoint.merge");
        let mut parts = loaded.into_iter();
        let mut merged = parts.next().ok_or("no worker slices")?;
        for part in parts {
            merged.merge(&part).map_err(|e| e.to_string())?;
        }
        let digest = merged
            .finalize(&s.ab, &CrowdFlower)
            .map_err(|e| e.to_string())?;
        merged.restore_counters();
        obs.take();
        Ok(digest)
    }
}

impl Workload for SplitResume {
    type Setup = Stimuli;
    type Out = SplitOut;

    fn setup(&self) -> Stimuli {
        self.0.setup(true)
    }

    fn setup_check(&self, s: &Stimuli) -> Result<Vec<Fp>, String> {
        setup_check(s)
    }

    fn setup_page_loads(&self, s: &Stimuli) -> u64 {
        s.page_loads
    }

    fn run(&self, s: &Stimuli, obs: &mut Obs) -> SplitOut {
        let mut b = Barriers {
            seen: 0,
            interrupt_at: Some(self.0.dims.interrupt_at),
            resume_from: None,
            error: None,
            count: 0,
            bytes: 0,
        };
        let adaptive = self.adaptive(s, obs, &mut b);
        let merged = self.split_ab(s, obs, &mut b);
        SplitOut {
            adaptive,
            merged,
            checkpoints: b.count,
            checkpoint_bytes: b.bytes,
        }
    }

    fn check(&self, out: &SplitOut) -> Result<Vec<Fp>, String> {
        let adaptive = out.adaptive.as_ref().map_err(String::clone)?;
        let merged = out.merged.as_ref().map_err(String::clone)?;
        Ok(vec![
            ("resumed", hash(adaptive.digest.fingerprint().as_bytes())),
            (
                "decisions",
                hash(adaptive.decision_fingerprint().as_bytes()),
            ),
            ("merged", hash(merged.fingerprint().as_bytes())),
        ])
    }

    fn stats(&self, out: &SplitOut) -> Stats {
        let n = self.0.dims.participants as u64;
        let adaptive = out.adaptive.as_ref().map_or(0, |o| o.recruited);
        Stats {
            participants: adaptive + n,
            checkpoints: out.checkpoints,
            checkpoint_bytes: out.checkpoint_bytes,
            worker_participants: n,
            ..Stats::default()
        }
    }

    /// The adaptive run without interruption or checkpoints, and the A/B
    /// campaign in one process through the flat engine.
    fn reference(&self, s: &Stimuli) -> Option<Result<Vec<Fp>, String>> {
        let c = &self.0;
        let adaptive = adaptive_timeline_campaign(
            &s.timeline,
            &CrowdFlower,
            c.dims.participants,
            &c.cfg(),
            &paper_pipeline(),
            c.seed.derive("adaptive"),
            &c.sc(),
            &c.dims.adaptive,
            AdaptiveBackend::Flat,
        );
        let merged = flat_ab_campaign(
            &s.ab,
            &CrowdFlower,
            c.dims.participants,
            &c.cfg(),
            &paper_pipeline(),
            c.seed.derive("ab"),
            &c.sc(),
        );
        let out = SplitOut {
            adaptive: Ok(adaptive),
            merged: Ok(merged),
            checkpoints: 0,
            checkpoint_bytes: 0,
        };
        Some(self.check(&out))
    }
}
