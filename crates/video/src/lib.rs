//! # eyeorg-video
//!
//! webpeg's video pipeline: capturing page loads as frame sequences and
//! comparing their frames.
//!
//! Eyeorg's central design decision (§3.1 of the paper) is to show every
//! participant the *same video* of a page loading, decoupling the
//! measured experience from participants' own networks and browsers.
//! This crate is that machinery over the simulated browser:
//!
//! * [`frame`] — downscaled viewport frames with pixel-level comparison.
//! * [`bitplane`] — bitpacked cell predicates (one `u64` word per 64
//!   cells) behind the word-parallel comparison loops.
//! * [`capture`] — [`capture::Video`]: lazy frame rendering from a load
//!   trace; visual-completeness queries.
//! * [`webpeg`] — repeat-5-keep-median capture orchestration.
//! * [`compare`] — the 1 % rewind-frame helper (Fig. 3a).
//! * [`timeline`] — materialised frame sequences with memoised rewind
//!   lookups (what campaign-scale response simulation uses).
//!
//! How participants *receive* the videos — download size, preload,
//! A/B pairs spliced into one file, the 3 s-delayed A/B control — is
//! modelled in closed form by the crowd (`eyeorg_crowd::behavior` and
//! `eyeorg_crowd::abjudge`), per stimulus and participant, not by
//! encoding or splicing frames here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitplane;
pub mod capture;
pub mod compare;
pub mod frame;
pub mod timeline;
pub mod webpeg;

pub use bitplane::BitGrid;
pub use capture::Video;
pub use compare::{earliest_similar_frame, rewind_suggestion, SIMILARITY_THRESHOLD};
pub use frame::Frame;
pub use timeline::FrameTimeline;
pub use webpeg::{
    capture_all, capture_median, shared_capture_cache, CaptureCache, CaptureConfig,
};
