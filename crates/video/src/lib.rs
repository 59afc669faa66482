//! # eyeorg-video
//!
//! webpeg's video pipeline: capturing page loads as frame sequences and
//! everything the platform does with them.
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
//! * [`encode`](mod@encode) — an honest delta codec whose byte sizes
//!   feed the video delivery model.
//! * [`compare`] — the 1 % rewind-frame helper and blank control frames
//!   (Fig. 3).
//! * [`splice`] — side-by-side A/B splicing with artificial-delay
//!   controls.
//! * [`timeline`] — materialised frame sequences with memoised rewind
//!   lookups (what campaign-scale response simulation uses).
//! * [`player`] — participant-side preload/playback (video load times
//!   drive the engagement effects of Fig. 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitplane;
pub mod capture;
pub mod compare;
pub mod encode;
pub mod frame;
pub mod player;
pub mod splice;
pub mod timeline;
pub mod webpeg;

pub use bitplane::BitGrid;
pub use capture::Video;
pub use compare::{control_frame, earliest_similar_frame, rewind_suggestion, SIMILARITY_THRESHOLD};
pub use encode::{encode, EncodedVideo};
pub use frame::Frame;
pub use player::{preload_time, PlaybackResult, PlaybackSim};
pub use splice::{control_splice, AbOrder, SplicedVideo};
pub use timeline::FrameTimeline;
pub use webpeg::{
    capture_all, capture_median, shared_capture_cache, CaptureCache, CaptureConfig,
};
