//! `load_repeats` is `load_page` once per seed: the same traces and the
//! same obs counters, whatever it shares between the repeats.
//!
//! The matrix crosses protocols and ad blocking with lossless, lightly
//! lossy and bursty links, a warm and a cold resolver, and repeat counts
//! from one (nothing to share) to seven. Lives in its own integration
//! test binary with a single test fn because the obs registry is
//! process-global: a concurrently running load would pollute the
//! snapshots.

use eyeorg_browser::{load_page, load_repeats, AdBlocker, BrowserConfig, LoadTrace};
use eyeorg_http::Protocol;
use eyeorg_net::NetworkProfile;
use eyeorg_stats::Seed;
use eyeorg_workload::{ad_heavy, generate_site, SiteClass, Website};

fn sites() -> Vec<Website> {
    let mut v = vec![generate_site(Seed(21), 0, SiteClass::Blog)];
    v.extend(ad_heavy(Seed(22), 1, 3));
    v
}

fn configs() -> Vec<(&'static str, BrowserConfig)> {
    vec![
        ("h1", BrowserConfig::new().with_protocol(Protocol::Http1)),
        ("h2", BrowserConfig::new().with_protocol(Protocol::Http2)),
        ("h2push", BrowserConfig::new().with_protocol(Protocol::Http2).with_server_push()),
        ("adblock", BrowserConfig::new().with_adblocker(AdBlocker::AdBlock)),
    ]
}

fn networks() -> Vec<NetworkProfile> {
    vec![
        NetworkProfile::fttc(),
        NetworkProfile::cable(),
        NetworkProfile::mobile_3g(),
        NetworkProfile::lossless_test(),
    ]
}

/// Run `load` on a freshly reset registry and return its output with
/// the counter fingerprint it left behind.
fn counted(load: impl FnOnce() -> Vec<LoadTrace>) -> (Vec<LoadTrace>, String) {
    eyeorg_obs::reset();
    let traces = load();
    (traces, eyeorg_obs::snapshot("loads", 1).counter_fingerprint())
}

#[test]
fn repeats_equal_sequential_loads_in_traces_and_counters() {
    eyeorg_obs::enable();
    let mut cell = 0u64;
    for site in &sites() {
        for (name, cfg) in configs() {
            for network in networks() {
                for primer in [true, false] {
                    let cfg = BrowserConfig { primer, ..cfg.clone().with_network(network.clone()) };
                    for repeats in [1u64, 2, 5, 7] {
                        cell += 1;
                        let seeds: Vec<Seed> =
                            (0..repeats).map(|i| Seed(cell).derive_index("load", i)).collect();
                        let tag = format!(
                            "{} {name}/{}/primer={primer} x{repeats}",
                            site.name, network.name
                        );
                        let (shared, shared_counters) =
                            counted(|| load_repeats(site, &cfg, &seeds));
                        let (sequential, sequential_counters) =
                            counted(|| seeds.iter().map(|&s| load_page(site, &cfg, s)).collect());
                        assert_eq!(shared.len(), sequential.len(), "{tag}");
                        for (i, (a, b)) in shared.iter().zip(&sequential).enumerate() {
                            assert_eq!(a, b, "{tag}: repeat {i} differs");
                        }
                        assert_eq!(shared_counters, sequential_counters, "{tag}: counters differ");
                    }
                }
            }
        }
    }
    eyeorg_obs::reset();
    eyeorg_obs::disable();
}

#[test]
fn no_seeds_no_loads() {
    let site = generate_site(Seed(1), 0, SiteClass::Blog);
    assert!(load_repeats(&site, &BrowserConfig::new(), &[]).is_empty());
}
