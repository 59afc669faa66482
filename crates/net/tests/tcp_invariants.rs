//! Invariants of the TCP state machines under adversarial delivery
//! orders and ACK patterns: the receiver conserves bytes, and the
//! sender respects its window and the application limit and always
//! finishes once ACKs cover everything.
//!
//! Each property runs over hundreds of cases drawn from the workspace's
//! own seeded RNG: randomized, fully deterministic, std-only.

use eyeorg_net::tcp::{TcpReceiver, TcpSender, MSS};
use eyeorg_net::SimTime;
use eyeorg_stats::Rng;

/// Cases per property.
const CASES: usize = 256;

/// Whatever order segments arrive in (duplicates and overlaps
/// included), the receiver delivers each byte exactly once and ends
/// with the full prefix once all segments have been seen.
#[test]
fn receiver_conserves_bytes() {
    let mut rng = Rng::seed_from_u64(0x7c9_0001);
    for case in 0..CASES {
        let total_segments = rng.random_range(1usize..30);
        let order_len = rng.random_range(1usize..90);
        let order: Vec<usize> = (0..order_len).map(|_| rng.random_range(0usize..30)).collect();
        let mut r = TcpReceiver::new();
        let mut delivered = 0u64;
        // The chained tail guarantees every segment arrives at least once.
        for i in order.iter().copied().chain(0..total_segments) {
            let start = (i % total_segments) as u64 * MSS;
            let out = r.on_segment(start, start + MSS);
            delivered += out.newly_delivered;
            assert!(out.ack <= total_segments as u64 * MSS, "case {case}: ack past the data");
            assert_eq!(out.ack, r.delivered(), "case {case}: ack is the delivered prefix");
        }
        assert_eq!(delivered, total_segments as u64 * MSS, "case {case}: bytes lost or doubled");
        assert_eq!(r.buffered(), 0, "case {case}: bytes left out of order");
    }
}

/// The sender never has more unacked data than its window allows (plus
/// one segment), never sends beyond the application's bytes, and
/// always terminates when ACKs eventually cover everything.
#[test]
fn sender_window_invariants() {
    let mut rng = Rng::seed_from_u64(0x7c9_0002);
    for case in 0..CASES {
        let app_bytes = rng.random_range(1u64..400_000);
        let n_chunks = rng.random_range(1usize..200);
        let ack_chunks: Vec<u64> = (0..n_chunks).map(|_| rng.random_range(1u64..40)).collect();
        let mut s = TcpSender::new();
        s.app_write(app_bytes);
        let mut now_us = 0u64;
        let mut acked = 0u64;
        let mut chunks = ack_chunks.iter().cycle();
        let mut rounds = 0;
        while !s.all_acked() {
            rounds += 1;
            assert!(rounds < 10_000, "case {case}: sender must terminate");
            // Drain the window.
            while let Some(seg) = s.next_segment() {
                assert!(seg.end <= app_bytes, "case {case}: sent beyond the app data");
                assert!(!seg.is_empty(), "case {case}: empty segment");
                s.mark_sent(seg, SimTime::from_micros(now_us));
                assert!(s.in_flight() <= s.cwnd_bytes() + MSS, "case {case}: window overrun");
            }
            // ACK forward by an arbitrary chunk.
            let step = chunks.next().expect("a non-empty cycle never ends") * MSS;
            acked = (acked + step).min(s.in_flight() + acked).min(app_bytes);
            now_us += 10_000;
            s.on_ack(acked, SimTime::from_micros(now_us));
        }
        assert_eq!(acked, app_bytes, "case {case}: not every byte acknowledged");
    }
}
