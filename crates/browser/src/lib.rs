//! # eyeorg-browser
//!
//! The simulated browser: everything webpeg drove a real Chrome for.
//!
//! The paper's capture tool loads pages in Chrome under controlled
//! conditions (protocol, network and device emulation, extensions, cold
//! caches, DNS primer) and extracts the load timeline via the remote
//! debugging protocol. This crate reproduces that pipeline end to end on
//! simulated substrates:
//!
//! * [`config`] — the knob set (protocol, network, device, blockers).
//! * [`loader`] — the page-load engine: preload scanner, parser blocking,
//!   render blocking, progressive paint, script injection, onload; and
//!   [`load_repeats`], which loads one configuration under several seeds
//!   while simulating their common prefix once.
//! * [`extensions`] — the AdBlock/Ghostery/uBlock models of §5.4.
//! * [`paint`] — paint events, the raw material of videos and metrics.
//! * [`trace`] — [`trace::LoadTrace`], the full record of one load.
//! * [`har`] — HAR 1.2-style export, as webpeg collected per capture.
//!
//! ```
//! use eyeorg_browser::{load_page, BrowserConfig};
//! use eyeorg_stats::Seed;
//! use eyeorg_workload::{generate_site, SiteClass};
//!
//! let site = generate_site(Seed(1), 0, SiteClass::Blog);
//! let trace = load_page(&site, &BrowserConfig::new(), Seed(1));
//! assert!(trace.onload.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod extensions;
pub mod har;
pub mod loader;
pub mod paint;
pub mod trace;

pub use config::{BrowserConfig, CpuCosts, DeviceProfile};
pub use extensions::AdBlocker;
pub use har::{to_har, to_har_json};
pub use loader::{load_page, load_page_with_conns, load_repeats};
pub use paint::{PaintEvent, PaintKind};
pub use trace::{LoadTrace, ResourceTrace, SkipReason};
