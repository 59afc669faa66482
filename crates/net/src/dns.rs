//! DNS resolution model.
//!
//! webpeg performs a "primer" load before each measured load so that the
//! ISP resolver's cache is warm and a cold DNS miss cannot skew the
//! recorded page-load time (§3.1, following the methodology of the
//! authors' "Is the Web HTTP/2 Yet?" paper). Reproducing that requires a
//! resolver with a *cache*, not a constant: the first lookup of a name is
//! expensive and recursive, subsequent lookups are cheap until the TTL
//! expires.

use eyeorg_stats::rng::Rng;
use std::collections::BTreeMap;

use eyeorg_stats::Seed;

use crate::time::{SimDuration, SimTime};

/// Outcome of one name resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// How long the lookup took.
    pub latency: SimDuration,
    /// Whether the answer came from cache.
    pub cache_hit: bool,
}

/// Configuration of the resolver's latency behaviour.
#[derive(Debug, Clone, Copy)]
pub struct DnsConfig {
    /// Latency of a cache hit (stub ↔ recursive resolver on the ISP LAN).
    pub hit_latency: SimDuration,
    /// Minimum latency of a recursive (cold) lookup.
    pub miss_latency_min: SimDuration,
    /// Maximum additional latency of a cold lookup; actual cold latency is
    /// drawn uniformly from `[min, min + spread]` per name (then fixed for
    /// that name, as the authoritative path doesn't change per query).
    pub miss_latency_spread: SimDuration,
    /// TTL applied to cached answers.
    pub ttl: SimDuration,
}

impl Default for DnsConfig {
    fn default() -> Self {
        DnsConfig {
            hit_latency: SimDuration::from_millis(2),
            miss_latency_min: SimDuration::from_millis(20),
            miss_latency_spread: SimDuration::from_millis(100),
            ttl: SimDuration::from_secs(300),
        }
    }
}

/// A caching stub-resolver model.
#[derive(Debug, Clone)]
pub struct Resolver {
    cfg: DnsConfig,
    rng: Rng,
    /// name → (expiry, cold latency drawn for this name).
    cache: BTreeMap<String, (SimTime, SimDuration)>,
    hits: u64,
    misses: u64,
}

impl Resolver {
    /// A resolver with an empty cache.
    pub fn new(cfg: DnsConfig, seed: Seed) -> Resolver {
        Resolver {
            cfg,
            rng: Rng::seed_from_u64(seed.derive("dns").value()),
            cache: BTreeMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Resolve `name` at time `now`.
    pub fn resolve(&mut self, name: &str, now: SimTime) -> Resolution {
        if let Some(&(expiry, _)) = self.cache.get(name) {
            if expiry > now {
                self.hits += 1;
                return Resolution { latency: self.cfg.hit_latency, cache_hit: true };
            }
        }
        self.misses += 1;
        let spread_us = self.cfg.miss_latency_spread.as_micros();
        let extra = if spread_us == 0 { 0 } else { self.rng.random_range(0..=spread_us) };
        let cold = self.cfg.miss_latency_min + SimDuration::from_micros(extra);
        self.cache.insert(name.to_owned(), (now + cold + self.cfg.ttl, cold));
        Resolution { latency: cold, cache_hit: false }
    }

    /// Drop every cached entry (a fresh browser profile does this between
    /// loads; the *resolver*'s cache — modelled here — survives, so call
    /// this only to model a genuinely cold resolver).
    pub fn flush(&mut self) {
        self.cache.clear();
    }

    /// Cache hits served.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Recursive lookups performed.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_lookup_is_cold_then_cached() {
        let mut r = Resolver::new(DnsConfig::default(), Seed(1));
        let a = r.resolve("example.com", SimTime::ZERO);
        assert!(!a.cache_hit);
        assert!(a.latency >= SimDuration::from_millis(20));
        let b = r.resolve("example.com", SimTime::from_millis(100));
        assert!(b.cache_hit);
        assert_eq!(b.latency, SimDuration::from_millis(2));
        assert_eq!(r.hits(), 1);
        assert_eq!(r.misses(), 1);
    }

    #[test]
    fn ttl_expiry_forces_recursive_lookup() {
        let cfg = DnsConfig { ttl: SimDuration::from_secs(1), ..DnsConfig::default() };
        let mut r = Resolver::new(cfg, Seed(2));
        r.resolve("example.com", SimTime::ZERO);
        let late = r.resolve("example.com", SimTime::from_secs(10));
        assert!(!late.cache_hit);
        assert_eq!(r.misses(), 2);
    }

    #[test]
    fn distinct_names_distinct_entries() {
        let mut r = Resolver::new(DnsConfig::default(), Seed(3));
        r.resolve("a.com", SimTime::ZERO);
        let b = r.resolve("b.com", SimTime::ZERO);
        assert!(!b.cache_hit);
    }

    #[test]
    fn cold_latency_deterministic_per_seed() {
        let run = |seed| {
            let mut r = Resolver::new(DnsConfig::default(), seed);
            r.resolve("x.com", SimTime::ZERO).latency
        };
        assert_eq!(run(Seed(9)), run(Seed(9)));
    }

    #[test]
    fn flush_empties_cache() {
        let mut r = Resolver::new(DnsConfig::default(), Seed(4));
        r.resolve("a.com", SimTime::ZERO);
        r.flush();
        assert!(!r.resolve("a.com", SimTime::from_millis(1)).cache_hit);
    }

    #[test]
    fn primer_pattern_warms_cache() {
        // The webpeg primer: resolve every origin once, then the measured
        // load sees only hits.
        let mut r = Resolver::new(DnsConfig::default(), Seed(5));
        let origins = ["site.com", "cdn.site.com", "ads.net"];
        for o in &origins {
            r.resolve(o, SimTime::ZERO);
        }
        let t = SimTime::from_secs(5);
        assert!(origins.iter().all(|o| r.resolve(o, t).cache_hit));
    }
}
