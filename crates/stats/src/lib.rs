//! # eyeorg-stats
//!
//! Statistics toolkit for the Eyeorg reproduction.
//!
//! The Eyeorg paper (CoNExT 2016) evaluates crowdsourced web-QoE responses
//! almost entirely through a handful of statistical primitives: empirical
//! CDFs (nearly every figure), percentile-band filtering (the
//! wisdom-of-the-crowd filter keeps the 25th–75th percentile band of each
//! video's responses), standard deviations as an agreement measure
//! (Fig. 6b), Pearson correlation between `UserPerceivedPLT` and the
//! automatic PLT metrics (Fig. 7b), and histogram/mode analysis of response
//! distributions (Fig. 9). This crate implements those primitives once, with
//! deterministic behaviour, so every other crate in the workspace shares a
//! single audited implementation.
//!
//! ## Modules
//!
//! * [`summary`] — moments and order statistics of a sample.
//! * [`quantile`] — percentiles with linear interpolation and percentile-band
//!   selection (the paper's 10–90 and 25–75 filters).
//! * [`ecdf`] — empirical cumulative distribution functions.
//! * [`corr`] — Pearson and Spearman correlation.
//! * [`hist`] — histograms with fixed-width and Freedman–Diaconis binning.
//! * [`modes`] — peak detection and distribution-shape classification
//!   (tight-unimodal / spread-unimodal / multimodal, as in Fig. 9).
//! * [`stream`] — streaming, mergeable accumulators (exact fixed-point
//!   moments, bounded deterministic quantile sketch) for the sharded
//!   campaign engine.
//! * [`bootstrap`] — seeded bootstrap confidence intervals.
//! * [`seed`] — deterministic seed derivation used across the workspace.
//! * [`rng`] — the workspace's internal seeded generator (xoshiro256++).
//! * [`par`] — deterministic parallel map (index-sharded seed streams,
//!   order-pinned merge) used by the campaign pipeline.
//!
//! All functions operate on `&[f64]` (or typed wrappers thereof) and either
//! return `Option`/`Result` on degenerate input or document their behaviour
//! explicitly; nothing panics on empty input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod corr;
pub mod ecdf;
pub mod hist;
pub mod modes;
pub mod par;
pub mod quantile;
pub mod rng;
pub mod seed;
pub mod stream;
pub mod summary;

pub use bootstrap::{bootstrap_ci, bootstrap_pearson_ci, ConfidenceInterval};
pub use corr::{pearson, spearman};
pub use ecdf::Ecdf;
pub use hist::{Histogram, HistogramState};
pub use modes::{classify_shape, find_peaks, DistributionShape, ShapeParams};
pub use par::{
    default_threads, effective_pool, par_fold_range, par_map_range, parse_thread_override,
    resolve_threads, set_chaos_seed, MAX_THREAD_OVERRIDE,
};
pub use quantile::{percentile, percentile_band};
pub use rng::Rng;
pub use seed::Seed;
pub use stream::{
    DecimalI128, Moments, MomentsState, QuantileSketch, QuantileSketchState, StateError,
};
pub use summary::Summary;
