//! Golden page loads: fixed-seed loads must reproduce recorded bytes.
//!
//! Every other determinism check compares one run with another (batched
//! vs per-segment, one thread count vs another). This one pins the
//! absolute output of the capture path: the `LoadTrace`, and each
//! connection's `ConnStats` and qlog, for a matrix of protocols, ad
//! blocking and access links, including a lossy link where retransmission
//! timeouts, RTO backoff and RTT-driven RTO changes all occur. Any change
//! to the simulator that moves a single event shows up here.
//!
//! The hashes are FNV-1a over the `Debug` rendering of each load's output
//! (the same rendering perfbench fingerprints). If an intended change of
//! the science moves them, the failure message prints the new table.

use eyeorg_browser::{load_page_with_conns, AdBlocker, BrowserConfig};
use eyeorg_http::Protocol;
use eyeorg_net::{ConnEvent, LossModel, NetworkProfile};
use eyeorg_stats::Seed;
use eyeorg_workload::{ad_heavy, generate_site, SiteClass, Website};

/// Recorded `(cell, hash)` pairs; one cell is a browser configuration on
/// one access link, loaded for every site and seed.
const GOLDEN: &[(&str, &str)] = &[
    ("h1/fttc", "3bea3b24bc7e350e"),
    ("h1/cable", "5c20ea34099868c4"),
    ("h1/lossy", "656c54f950be551b"),
    ("h2/fttc", "76ac0932bdd69be4"),
    ("h2/cable", "87da36f05cee4c2c"),
    ("h2/lossy", "b8321e6f3e955c05"),
    ("h2push/fttc", "5171f20c27110c24"),
    ("h2push/cable", "5d62eb25de8f2fa3"),
    ("h2push/lossy", "2669fd365436c2b1"),
    ("ghostery/fttc", "83fcb4bfa04e0aa4"),
    ("ghostery/cable", "337b802733aff37c"),
    ("ghostery/lossy", "11f57ef0d907ec3e"),
];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn sites() -> Vec<Website> {
    let mut v = vec![generate_site(Seed(100), 0, SiteClass::News)];
    v.extend(ad_heavy(Seed(8), 1, 3));
    v
}

fn configs() -> Vec<(&'static str, BrowserConfig)> {
    vec![
        ("h1", BrowserConfig::new().with_protocol(Protocol::Http1)),
        ("h2", BrowserConfig::new().with_protocol(Protocol::Http2)),
        ("h2push", BrowserConfig::new().with_protocol(Protocol::Http2).with_server_push()),
        ("ghostery", BrowserConfig::new().with_adblocker(AdBlocker::Ghostery)),
    ]
}

fn networks() -> Vec<(&'static str, NetworkProfile)> {
    vec![
        ("fttc", NetworkProfile::fttc()),
        ("cable", NetworkProfile::cable()),
        (
            "lossy",
            NetworkProfile {
                name: "FTTC-4%",
                loss: LossModel::Bernoulli { p: 0.04 },
                ..NetworkProfile::fttc()
            },
        ),
    ]
}

const SEEDS: [u64; 3] = [1, 2, 3];

#[test]
fn page_loads_match_recorded_hashes() {
    let sites = sites();
    let mut actual: Vec<(String, String)> = Vec::new();
    let mut backoffs = 0usize;
    for (cfg_name, base) in configs() {
        for (net_name, net) in networks() {
            let cfg = base.clone().with_network(net);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut timeouts = 0u64;
            for site in &sites {
                for seed in SEEDS {
                    let (trace, conns) = load_page_with_conns(site, &cfg, Seed(seed));
                    fnv1a(&mut h, format!("{trace:?}").as_bytes());
                    for (stats, log) in &conns {
                        fnv1a(&mut h, format!("{stats:?}{log:?}").as_bytes());
                    }
                    timeouts += conns.iter().map(|(s, _)| s.timeouts).sum::<u64>();
                    backoffs += conns.iter().filter(|(_, log)| backed_off(&log.events)).count();
                }
            }
            if net_name == "lossy" {
                assert!(timeouts > 0, "{cfg_name}/{net_name}: no RTO fired");
            }
            actual.push((format!("{cfg_name}/{net_name}"), format!("{h:016x}")));
        }
    }
    assert!(backoffs > 0, "no connection backed its RTO off on the lossy link");
    let expected: Vec<(String, String)> =
        GOLDEN.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
    let table: String =
        actual.iter().map(|(k, v)| format!("    (\"{k}\", \"{v}\"),\n")).collect();
    assert_eq!(actual, expected, "page-load fingerprints moved; new table:\n{table}");
}

/// Whether a connection's RTO fired twice with no ACK in between (the
/// second firing ran on a backed-off timer).
fn backed_off(events: &[(eyeorg_net::SimTime, ConnEvent)]) -> bool {
    let mut armed_after_timeout = false;
    for (_, ev) in events {
        match ev {
            ConnEvent::Timeout if armed_after_timeout => return true,
            ConnEvent::Timeout => armed_after_timeout = true,
            ConnEvent::AckReceived { .. } => armed_after_timeout = false,
            _ => {}
        }
    }
    false
}
