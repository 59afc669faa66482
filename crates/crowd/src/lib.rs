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
//! * [`participant`] — demographics, phenotypes, trait generation, and
//!   the seed policy of every response draw ([`ModelSeeds`]).
//! * [`perception`] — the timeline test: ready-moment extraction, noisy
//!   perception, slider overshoot, frame-helper negotiation.
//! * [`abjudge`] — the A/B test: JND-based Left/Right/NoDifference.
//! * [`behavior`] — instrumentation signals: actions, focus, skips, time.
//! * [`service`] — CrowdFlower/Microworkers/Trusted recruitment with the
//!   paper's cost and arrival anchors.
//!
//! Each draw has one entry in its home module, taking the per-stimulus
//! constants, the participant's [`Persona`] and its leaf RNG. Every leaf
//! RNG comes from [`ModelSeeds`], the one place the per-participant seed
//! policy is written down, so a campaign re-run with the same seed
//! reproduces every response bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abjudge;
pub mod behavior;
pub mod participant;
pub mod perception;
pub mod service;

pub use abjudge::{ab_control, judge_pair, AbAnswer};
pub use behavior::{total_time_on_site, video_session, SessionProfile, TestKind, VideoSession};
pub use participant::{
    Gender, ModelSeeds, Participant, ParticipantClass, ParticipantType, Persona,
    PopulationProfile, ReadinessCriterion, TraitCursor,
};
pub use perception::{
    timeline_control_passes, timeline_response, true_ready_time, ReadyTimes, TimelineResponse,
    TimelineStimulusProfile,
};
pub use service::{CrowdFlower, Microworkers, Recruitment, RecruitmentService, TrustedChannel};
