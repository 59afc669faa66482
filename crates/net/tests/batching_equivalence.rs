//! Burst batching must be invisible: the batched `NetSim` emits a
//! `NetEvent` trace (and statistics, and qlog) identical to the
//! per-segment reference across seeded loss and bandwidth profiles.
//!
//! The scenario driver below exercises the shapes page loads produce —
//! many small objects on parallel connections (where batching engages),
//! a large ACK-clocked transfer (where it mostly cannot), and loss
//! (where it must fall back) — and compares the complete observable
//! output of the two paths event by event.

use eyeorg_net::loss::LossModel;
use eyeorg_net::profile::{NetworkProfile, TlsMode};
use eyeorg_net::sim::{ConnId, ConnStats, NetEvent, NetSim};
use eyeorg_net::{ConnLog, SimTime};
use eyeorg_stats::Seed;

/// Everything the application can observe from one scenario run.
type Observed = (Vec<(SimTime, NetEvent)>, Vec<ConnStats>, Vec<Option<ConnLog>>);

/// One simulated "page": a handful of connections fetching a mix of
/// object sizes, with follow-up requests issued as responses complete.
fn run_scenario(
    profile: NetworkProfile,
    seed: Seed,
    batching: bool,
    conns: usize,
    objects: &[u64],
) -> Observed {
    let mut sim = NetSim::new(profile, seed);
    sim.set_burst_batching(batching);
    sim.set_logging(true);
    let ids: Vec<ConnId> = (0..conns).map(|_| sim.open(SimTime::ZERO, TlsMode::None)).collect();
    // Round-robin the object list over the connections; each connection
    // requests its next object when the previous response completes.
    let mut next_obj: Vec<usize> = (0..conns).collect();
    let mut expecting: Vec<u64> = vec![0; conns];
    let mut requested: Vec<u64> = vec![0; conns];
    let mut trace = Vec::new();
    while let Some((t, ev)) = sim.next_event() {
        trace.push((t, ev));
        match ev {
            NetEvent::Established { conn } => {
                if next_obj[conn.0] < objects.len() {
                    requested[conn.0] += 120;
                    sim.client_send(conn, t, 120);
                }
            }
            NetEvent::RequestDelivered { conn, total_bytes } => {
                if total_bytes == requested[conn.0] {
                    let obj = objects[next_obj[conn.0]];
                    next_obj[conn.0] += conns;
                    expecting[conn.0] += obj;
                    sim.server_send(conn, t, obj);
                }
            }
            NetEvent::Delivered { conn, total_bytes } => {
                if total_bytes == expecting[conn.0] && next_obj[conn.0] < objects.len() {
                    requested[conn.0] += 120;
                    sim.client_send(conn, t, 120);
                }
            }
        }
    }
    let stats = ids.iter().map(|&c| sim.conn_stats(c)).collect();
    let logs = ids.iter().map(|&c| sim.take_log(c)).collect();
    (trace, stats, logs)
}

fn assert_equivalent(profile: NetworkProfile, seed: Seed, conns: usize, objects: &[u64], tag: &str) {
    let reference = run_scenario(profile.clone(), seed, false, conns, objects);
    let batched = run_scenario(profile, seed, true, conns, objects);
    assert_eq!(
        batched.0.len(),
        reference.0.len(),
        "{tag}: event counts diverge ({} batched vs {} reference)",
        batched.0.len(),
        reference.0.len()
    );
    for (i, (b, r)) in batched.0.iter().zip(reference.0.iter()).enumerate() {
        assert_eq!(b, r, "{tag}: NetEvent #{i} diverges");
    }
    assert_eq!(batched.1, reference.1, "{tag}: conn stats diverge");
    for (i, (b, r)) in batched.2.iter().zip(reference.2.iter()).enumerate() {
        assert_eq!(
            format!("{b:?}"),
            format!("{r:?}"),
            "{tag}: qlog for conn {i} diverges"
        );
    }
}

/// Object mix shaped like a page: many smalls, a few mediums, one large.
const PAGE_OBJECTS: &[u64] = &[
    4_200, 1_100, 9_000, 65_000, 2_800, 14_600, 700, 30_000, 5_500, 250_000, 3_000, 12_000,
];

#[test]
fn identical_traces_lossless_profiles() {
    for (pi, profile) in [
        NetworkProfile::lossless_test(),
        NetworkProfile::fiber(),
        NetworkProfile::dsl(),
    ]
    .into_iter()
    .enumerate()
    {
        for s in 0..3u64 {
            assert_equivalent(
                profile.clone(),
                Seed(100 + s),
                6,
                PAGE_OBJECTS,
                &format!("lossless profile#{pi} seed#{s}"),
            );
        }
    }
    // Long request/response chains: dozens of objects per connection,
    // cycling through six sizes from 700 B to 120 kB.
    let objects: Vec<u64> =
        [2_500, 14_000, 700, 40_000, 9_000, 120_000].into_iter().cycle().take(96).collect();
    for (conns, n) in [(4, 24), (6, 96)] {
        let tag = format!("round robin {conns} conns x {n} objects");
        assert_equivalent(NetworkProfile::lossless_test(), Seed(2016), conns, &objects[..n], &tag);
    }
}

#[test]
fn identical_traces_under_random_loss() {
    for (li, loss) in [
        LossModel::Bernoulli { p: 0.01 },
        LossModel::Bernoulli { p: 0.05 },
    ]
    .into_iter()
    .enumerate()
    {
        let profile = NetworkProfile { loss, ..NetworkProfile::lossless_test() };
        for s in 0..4u64 {
            assert_equivalent(
                profile.clone(),
                Seed(500 + s),
                4,
                PAGE_OBJECTS,
                &format!("loss model#{li} seed#{s}"),
            );
        }
    }
}

#[test]
fn identical_traces_under_bursty_loss_and_presets() {
    // Gilbert–Elliott loss plus every WebPageTest-style preset (3G's
    // narrow link forces drop-tail, LTE exercises the large-BDP path).
    for (pi, profile) in NetworkProfile::presets().into_iter().enumerate() {
        assert_equivalent(
            profile,
            Seed(900 + pi as u64),
            3,
            &PAGE_OBJECTS[..8],
            &format!("preset#{pi}"),
        );
    }
}

#[test]
fn identical_single_large_transfer() {
    // ACK-clocked bulk flow: batching rarely engages mid-stream but must
    // still agree byte-for-byte, including the app-limited tail.
    for s in 0..3u64 {
        assert_equivalent(
            NetworkProfile::lossless_test(),
            Seed(40 + s),
            1,
            &[2_000_000],
            &format!("bulk seed#{s}"),
        );
    }
}

#[test]
fn batching_reduces_event_count() {
    // Sanity: the optimisation actually removes event-queue round trips
    // on a batching-friendly workload (it would be easy to pass the
    // equivalence tests by never engaging).
    let run = |batching: bool| {
        let mut sim = NetSim::new(NetworkProfile::lossless_test(), Seed(7));
        sim.set_burst_batching(batching);
        let conn = sim.open(SimTime::ZERO, TlsMode::None);
        let mut served = 0;
        while let Some((t, ev)) = sim.next_event() {
            match ev {
                NetEvent::Established { .. } => sim.client_send(conn, t, 120),
                NetEvent::RequestDelivered { total_bytes, .. }
                    if total_bytes == 120 * (served + 1) =>
                {
                    sim.server_send(conn, t, 10_000);
                    served += 1;
                }
                NetEvent::Delivered { total_bytes, .. }
                    if total_bytes == served * 10_000 && served < 20 =>
                {
                    sim.client_send(conn, t, 120);
                }
                _ => {}
            }
        }
        sim.events_processed()
    };
    let batched = run(true);
    let reference = run(false);
    assert!(
        batched < reference,
        "batching should shrink event count: {batched} vs {reference}"
    );
}
