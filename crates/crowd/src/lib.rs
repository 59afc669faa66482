//! # eyeorg-crowd
//!
//! The crowd: simulated study participants for the Eyeorg platform.
//!
//! The paper's repro gate is people — 100 trusted + 100 paid validators
//! and 3 × 1,000 paid workers. Per the substitution rule (DESIGN.md) this
//! crate generates a synthetic crowd whose *pathologies are calibrated to
//! the paper's own measurements*: the ~20 % of paid workers the filters
//! catch, the 1–2 % video skippers, the ~5 % control failures, the
//! distraction-grows-with-video-load-time coupling, the two frenetic
//! 700-seek outliers, and the three interpretations of "ready to use"
//! behind Fig. 9's response modes.
//!
//! * [`participant`] — demographics, phenotypes, trait generation.
//! * [`perception`] — the timeline test: ready-moment extraction, noisy
//!   perception, slider overshoot, frame-helper negotiation.
//! * [`abjudge`] — the A/B test: JND-based Left/Right/NoDifference.
//! * [`behavior`] — instrumentation signals: actions, focus, skips, time.
//! * [`service`] — CrowdFlower/Microworkers/Trusted recruitment with the
//!   paper's cost and arrival anchors.
//!
//! Everything derives from per-participant seeds: a campaign re-run with
//! the same seed reproduces every response bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abjudge;
pub mod behavior;
pub mod fastpath;
pub mod participant;
pub mod perception;
pub mod service;

pub use abjudge::{ab_control, ab_control_flat, ab_response, judge_pair, judge_pair_flat, AbAnswer};
pub use fastpath::ModelSeeds;
pub use behavior::{
    total_time_on_site, total_time_on_site_persona, video_session, video_session_profiled,
    SessionProfile, TestKind, VideoSession,
};
pub use participant::{
    Gender, Participant, ParticipantClass, ParticipantType, Persona, PopulationProfile,
    ReadinessCriterion, TraitCursor,
};
pub use perception::{
    timeline_control_passes, timeline_control_passes_flat, timeline_response,
    timeline_response_flat, timeline_response_shared, true_ready_time, ReadyTimes,
    TimelineResponse, TimelineStimulusProfile,
};
pub use service::{CrowdFlower, Microworkers, Recruitment, RecruitmentService, TrustedChannel};

/// One standard-normal draw (Box–Muller), shared by the perception and
/// behaviour models.
pub(crate) fn dist_normal(rng: &mut eyeorg_stats::rng::Rng) -> f64 {
    rng.standard_normal()
}
