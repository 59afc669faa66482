//! # eyeorg-core
//!
//! The Eyeorg platform: crowdsourced web-QoE measurement, end to end.
//!
//! This crate is the reproduction's counterpart of the system in §3 of
//! the paper — the part that *is* Eyeorg rather than its substrates. It
//! designs experiments, runs campaigns against (simulated) crowds,
//! validates and filters responses, and analyses the results:
//!
//! * [`experiment`] — timeline and A/B test definitions, balanced video
//!   assignment, randomised A/B presentation order, control insertion.
//! * [`builders`] — webpeg capture pipelines for the three campaign
//!   types (PLT timeline, H1-vs-H2 A/B, ad-blocker A/B).
//! * [`campaign`] — recruitment, the humanness gate and the row types:
//!   campaigns whose every showing is kept as a row for row-level
//!   analysis, grouped by participant in one pass for its consumers.
//! * [`flat`] — the one per-participant campaign pipeline for both test
//!   kinds, which either keeps rows (for [`campaign`] and the streaming
//!   reference) or folds them
//!   shard by shard into bounded-memory digests, in structure-of-arrays
//!   form (per-stimulus planes, per-worker arena scratch,
//!   stimulus-blocked inner loop) — byte-identical digests, memory
//!   proportional to a shard, allocation-free inner loop.
//! * [`stream`] — what the sharded entry points share (the one shard
//!   fold of both test kinds, generic over the per-stimulus
//!   accumulator, and the admitted-index pre-pass) and the streaming
//!   timeline reference: the materializing path run one shard at a
//!   time, which the kernel is checked against at crowd sizes whose
//!   rows do not fit in memory at once.
//! * [`adaptive`] — the one epoch driver every folding entry point
//!   runs the kernel through, and the adaptive stopping rule.
//! * [`digest`] — mergeable campaign digests and the materializing
//!   folds that pin the sharded engines to the materializing one.
//! * [`checkpoint`] — versioned JSONL serialization of the full
//!   accumulator state: interrupt/resume, multi-process split/merge,
//!   and live incremental analytics, all byte-identical to the
//!   uninterrupted single-process run. One codec, `Checkpoint<A>`,
//!   generic over the test kind's per-stimulus accumulator;
//!   `TimelineCheckpoint` and `AbCheckpoint` are its two instances.
//! * [`validation`] — §3.3's hard rules: the humanness (captcha) gate.
//! * [`filtering`] — the §4.3 validation pipeline: engagement (actions &
//!   focus), soft rules, control questions, wisdom-of-the-crowd bands.
//! * [`analysis`] — `UserPerceivedPLT` aggregation, A/B agreement and
//!   scores, Δ-bucketed agreement, behaviour statistics.
//! * [`viz`] — the Fig. 1 response-timeline explorer and ASCII CDFs.
//! * [`report`] — Table-1 summaries and the public-dataset JSON export.
//! * [`dataset`] — the consumer side: parse a released dataset and
//!   recompute the aggregates without the original campaign objects.
//!
//! ## Quickstart
//!
//! ```no_run
//! use eyeorg_core::prelude::*;
//! use eyeorg_stats::Seed;
//!
//! // 1. Pick a site sample and capture videos (webpeg).
//! let sites = eyeorg_workload::alexa_like(Seed(7), 20);
//! let stimuli = timeline_stimuli(
//!     &sites,
//!     &eyeorg_browser::BrowserConfig::new(),
//!     &eyeorg_video::CaptureConfig::default(),
//!     Seed(7),
//! );
//!
//! // 2. Run a campaign with 100 paid participants.
//! let campaign = run_timeline_campaign(
//!     stimuli,
//!     &eyeorg_crowd::CrowdFlower,
//!     100,
//!     &ExperimentConfig::default(),
//!     Seed(7),
//! );
//!
//! // 3. Filter and analyse.
//! let report = filter_timeline(&campaign, &paper_pipeline());
//! let uplt = mean_uplt(&campaign, &report, Some((25.0, 75.0)));
//! println!("site 0 crowd UPLT: {:?}", uplt[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod analysis;
pub mod builders;
pub mod campaign;
pub mod checkpoint;
pub mod dataset;
pub mod digest;
pub mod experiment;
pub mod filtering;
pub mod flat;
pub mod report;
pub mod stream;
pub mod validation;
pub mod viz;

/// Most-used items in one import.
pub mod prelude {
    pub use crate::analysis::{
        ab_demographics, ab_tallies, agreement_by_delta, behavior_points, mean_uplt,
        uplt_samples, uplt_stdev, AbTally, DemographicSensitivity,
    };
    pub use crate::builders::{
        adblock_ab_stimuli, protocol_ab_stimuli, push_ab_stimuli, timeline_stimuli,
        timeline_stimuli_threads,
    };
    pub use crate::campaign::{
        run_ab_campaign, run_timeline_campaign, AbCampaign, AbRow, AbVerdict, ControlRow,
        TimelineCampaign, TimelineRow,
    };
    pub use crate::digest::{
        digest_ab, digest_timeline, AbDigest, DigestParams, TimelineDigest,
    };
    pub use crate::adaptive::{
        adaptive_timeline_campaign, stop_half_width, AdaptiveBackend, AdaptiveOutcome, StopCause,
        StopDecision, ADAPTIVE_Z,
    };
    pub use crate::checkpoint::{
        ab_worker_checkpoint, checkpointed_ab_campaign, checkpointed_timeline_campaign,
        live_line_from_digest, timeline_worker_checkpoint, AbCheckpoint, AbRunOutcome,
        CheckpointConfig, CheckpointError, CheckpointEvent, CounterState, RunOutcome,
        TimelineCheckpoint,
    };
    pub use crate::experiment::{
        AbStimulus, AdaptiveConfig, ExperimentConfig, TimelineStimulus,
    };
    pub use crate::filtering::{
        filter_ab, filter_timeline, paper_pipeline, wisdom_band, FilterDecision, FilterPipeline,
        FilterReport, FilterTally, ParticipantFilter,
    };
    pub use crate::dataset::{crowd_uplt_from_dataset, read_ab, read_timeline, scores_from_dataset};
    pub use crate::report::{export_ab, export_timeline, render_table1, table1_row, to_json};
    pub use crate::flat::{flat_ab_campaign, flat_timeline_campaign};
    pub use crate::stream::{stream_timeline_campaign, StreamConfig};
    pub use crate::validation::{captcha_admits, captcha_gate, GateReport};
}
