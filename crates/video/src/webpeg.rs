//! webpeg: the capture orchestrator.
//!
//! §3.2: "For each experiment configuration, we repeat each load five
//! times and use the video with the median onload time." This module
//! wraps the browser + capture pipeline exactly that way: fresh browser
//! state per load (a new seeded loader), repeated loads, median
//! selection.
//!
//! The repeats of one capture go through
//! [`eyeorg_browser::load_repeats`], which simulates the part of the
//! loads that their seeds cannot yet tell apart once and forks the rest.
//! The traces (and obs counters) are exactly those of independent loads.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use eyeorg_browser::{load_repeats, BrowserConfig, LoadTrace};
use eyeorg_net::SimDuration;
use eyeorg_stats::Seed;
use eyeorg_workload::Website;

use crate::capture::Video;

/// Capture settings for a webpeg run.
#[derive(Debug, Clone, Copy)]
pub struct CaptureConfig {
    /// Frames per second of the recording.
    pub fps: u32,
    /// Recording continues this long after onload.
    pub record_after: SimDuration,
    /// Number of repeated loads per configuration.
    pub repeats: usize,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        // The paper records at video rate and repeats each load 5 times.
        CaptureConfig { fps: 10, record_after: SimDuration::from_secs(5), repeats: 5 }
    }
}

/// Perform `repeats` loads of `site` and return every trace, in load
/// order. Each load uses an independent derived seed — fresh browser
/// state, fresh network draws — exactly like webpeg deleting Chrome's
/// local state between loads.
///
/// The loads run through [`load_repeats`]: each trace equals
/// `load_page(site, browser, seed.derive_index("load", i))`, but the
/// simulation the repeats have in common runs once.
pub fn capture_all(
    site: &Website,
    browser: &BrowserConfig,
    seed: Seed,
    capture: &CaptureConfig,
) -> Vec<LoadTrace> {
    let seeds: Vec<Seed> =
        (0..capture.repeats).map(|i| seed.derive_index("load", i as u64)).collect();
    load_repeats(site, browser, &seeds)
}

/// Capture the site and keep the load with the **median onload time**,
/// returning its video.
///
/// # Panics
/// Panics if `repeats` is zero.
pub fn capture_median(
    site: &Website,
    browser: &BrowserConfig,
    seed: Seed,
    capture: &CaptureConfig,
) -> Video {
    assert!(capture.repeats > 0, "at least one load required");
    let traces = capture_all(site, browser, seed, capture);
    let median = select_median_onload(traces);
    Video::capture(median, capture.fps, capture.record_after)
}

/// Cache key of one capture: fingerprints of everything that determines
/// the resulting video. `capture_median` is a pure function of these
/// four values — the browser fingerprint covers the network profile,
/// protocol, and ad-blocker settings via its `Debug` form — so equal
/// keys always map to bit-identical videos.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CaptureKey {
    site: u64,
    browser: u64,
    capture: u64,
    seed: u64,
}

/// FNV-1a over a `Debug` rendering: the configuration structs carry
/// `f64` fields, which rules out deriving `Hash`, but their `Debug`
/// output is a complete, deterministic description of their state.
fn debug_fingerprint<T: std::fmt::Debug>(value: &T) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{value:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A keyed store of finished captures, shared across builder calls.
///
/// Campaign builders capture the same (site, browser, seed) triple more
/// than once — most notably the with-ads baseline of the ad-blocker
/// study, which every blocker's A side repeats. Captures are pure, so a
/// map lookup is transparent; the `Mutex` makes the cache usable from
/// the parallel capture fan-out (held only around map access, never
/// during a capture). Each key maps to a per-key [`OnceLock`] cell, so
/// concurrent requests for the *same* key compute exactly once (late
/// arrivals block on the winner inside `get_or_init`) while misses on
/// *different* keys proceed in parallel. That once-per-key guarantee
/// also makes the hit/miss observability counters deterministic: misses
/// equal the number of distinct keys regardless of thread interleaving.
///
/// The map is a `BTreeMap` rather than a hash map: iteration order is
/// part of the workspace's determinism contract (rule D1), and the cache
/// stays small enough (one entry per distinct capture configuration)
/// that the asymptotic difference is irrelevant.
#[derive(Debug, Default)]
pub struct CaptureCache {
    map: Mutex<BTreeMap<CaptureKey, Arc<OnceLock<Arc<Video>>>>>,
}

impl CaptureCache {
    /// An empty cache.
    pub fn new() -> CaptureCache {
        CaptureCache::default()
    }

    /// Number of cached captures.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Whether the cache holds no captures.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached capture (used by benchmarks that must time
    /// cold captures).
    pub fn clear(&self) {
        self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    }

    /// [`capture_median`] through the cache: returns the stored video
    /// when this exact configuration was captured before, otherwise
    /// captures (outside the lock — the per-key cell serialises racing
    /// misses on the same key so the capture runs exactly once, and
    /// every caller sharing a key holds the *same* allocation) and
    /// stores the result.
    ///
    /// Hits hand out an [`Arc`] clone — a refcount bump, not a copy of
    /// the trace — so stimulus builders can share one capture across an
    /// entire campaign for free.
    pub fn capture_median(
        &self,
        site: &Website,
        browser: &BrowserConfig,
        seed: Seed,
        capture: &CaptureConfig,
    ) -> Arc<Video> {
        let key = CaptureKey {
            site: debug_fingerprint(site),
            browser: debug_fingerprint(browser),
            capture: debug_fingerprint(capture),
            seed: seed.value(),
        };
        let (cell, inserted) = {
            let mut map = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            match map.entry(key) {
                std::collections::btree_map::Entry::Occupied(e) => (Arc::clone(e.get()), false),
                std::collections::btree_map::Entry::Vacant(e) => {
                    (Arc::clone(e.insert(Arc::new(OnceLock::new()))), true)
                }
            }
        };
        eyeorg_obs::metrics::VIDEO_CACHE_REQUESTS.incr();
        if inserted {
            eyeorg_obs::metrics::VIDEO_CACHE_MISSES.incr();
        } else {
            eyeorg_obs::metrics::VIDEO_CACHE_HITS.incr();
        }
        Arc::clone(cell.get_or_init(|| Arc::new(capture_median(site, browser, seed, capture))))
    }
}

/// The process-wide capture cache the stimulus builders share.
pub fn shared_capture_cache() -> &'static CaptureCache {
    static CACHE: OnceLock<CaptureCache> = OnceLock::new();
    CACHE.get_or_init(CaptureCache::new)
}

/// Pick the trace with the median onload from a set of loads (ties and
/// even counts resolve to the lower middle, as an index-based median of
/// sorted onloads).
fn select_median_onload(mut traces: Vec<LoadTrace>) -> LoadTrace {
    assert!(!traces.is_empty());
    traces.sort_by_key(|t| t.onload.map(|o| o.as_micros()).unwrap_or(u64::MAX));
    let mid = (traces.len() - 1) / 2;
    traces.swap_remove(mid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeorg_stats::Seed;
    use eyeorg_workload::{generate_site, SiteClass};

    #[test]
    fn median_selection_picks_middle_onload() {
        let site = generate_site(Seed(5), 0, SiteClass::Blog);
        let cfg = CaptureConfig { repeats: 5, ..CaptureConfig::default() };
        let traces = capture_all(&site, &BrowserConfig::new(), Seed(7), &cfg);
        assert_eq!(traces.len(), 5);
        let mut onloads: Vec<u64> =
            traces.iter().map(|t| t.onload.unwrap().as_micros()).collect();
        onloads.sort_unstable();
        let video = capture_median(&site, &BrowserConfig::new(), Seed(7), &cfg);
        assert_eq!(video.trace().onload.unwrap().as_micros(), onloads[2]);
    }

    #[test]
    fn repeated_loads_differ_but_are_reproducible() {
        let site = generate_site(Seed(6), 1, SiteClass::News);
        let cfg = CaptureConfig { repeats: 3, ..CaptureConfig::default() };
        let a = capture_all(&site, &BrowserConfig::new(), Seed(8), &cfg);
        let b = capture_all(&site, &BrowserConfig::new(), Seed(8), &cfg);
        assert_eq!(a, b, "same seed, same captures");
        // Within a run, loads see different network draws.
        assert!(
            a[0].onload != a[1].onload || a[1].onload != a[2].onload,
            "independent loads should differ"
        );
    }

    #[test]
    fn cache_returns_identical_video_for_repeated_key() {
        let site = generate_site(Seed(9), 2, SiteClass::Ecommerce);
        let cfg = CaptureConfig { repeats: 2, ..CaptureConfig::default() };
        let browser = BrowserConfig::new();
        let cache = CaptureCache::new();
        let first = cache.capture_median(&site, &browser, Seed(11), &cfg);
        assert_eq!(cache.len(), 1);
        let second = cache.capture_median(&site, &browser, Seed(11), &cfg);
        assert_eq!(cache.len(), 1, "repeat key must not grow the cache");
        assert!(Arc::ptr_eq(&first, &second), "hits share one allocation, no copy");
        assert_eq!(first.trace(), second.trace(), "cache must return the stored capture");
        // The cached video equals what an uncached capture produces.
        let direct = capture_median(&site, &browser, Seed(11), &cfg);
        assert_eq!(first.trace(), direct.trace());
    }

    #[test]
    fn cache_distinguishes_every_key_component() {
        let site_a = generate_site(Seed(9), 2, SiteClass::Ecommerce);
        let site_b = generate_site(Seed(9), 3, SiteClass::Ecommerce);
        let cfg = CaptureConfig { repeats: 2, ..CaptureConfig::default() };
        let cfg_4 = CaptureConfig { repeats: 4, ..CaptureConfig::default() };
        let browser = BrowserConfig::new();
        let shaped = BrowserConfig::new().with_network(eyeorg_net::NetworkProfile::fttc());
        let cache = CaptureCache::new();
        cache.capture_median(&site_a, &browser, Seed(11), &cfg);
        cache.capture_median(&site_b, &browser, Seed(11), &cfg); // site differs
        cache.capture_median(&site_a, &shaped, Seed(11), &cfg); // network differs
        cache.capture_median(&site_a, &browser, Seed(12), &cfg); // seed differs
        cache.capture_median(&site_a, &browser, Seed(11), &cfg_4); // capture cfg differs
        assert_eq!(cache.len(), 5, "each configuration gets its own entry");
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one load")]
    fn zero_repeats_rejected() {
        let site = generate_site(Seed(5), 0, SiteClass::Blog);
        let cfg = CaptureConfig { repeats: 0, ..CaptureConfig::default() };
        capture_median(&site, &BrowserConfig::new(), Seed(7), &cfg);
    }
}
