//! Bottleneck link model.
//!
//! A page load's connections all share the client's access link; the
//! contention between HTTP/1.1's six parallel connections and HTTP/2's
//! single multiplexed one happens *here*, which is why the link is a
//! first-class component rather than a per-connection delay constant.
//!
//! [`LinkQueue`] models one direction of a link as a FIFO serialiser with
//! a bounded drop-tail queue — the classic bufferbloat-era access-link
//! abstraction. A packet handed to the queue at time `t` begins
//! transmission when the transmitter frees up, occupies it for
//! `size / rate`, then propagates for the link's one-way delay.

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// Outcome of offering a packet to a [`LinkQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmit {
    /// The packet will arrive at the far end at this time.
    Delivered(SimTime),
    /// The queue was full; drop-tail discarded the packet.
    Dropped,
}

/// One direction of a link: `rate_bps` serialisation, `prop_delay`
/// propagation, and a drop-tail buffer of at most `queue_limit` packets
/// queued (a packet currently in transmission does not count against the
/// limit).
#[derive(Debug, Clone)]
pub struct LinkQueue {
    rate_bps: u64,
    prop_delay: SimDuration,
    queue_limit: usize,
    /// Departure times (end of serialisation) of packets that have been
    /// accepted but whose serialisation has not finished. Kept sorted by
    /// construction (FIFO), so expired entries are pruned from the front
    /// in O(1) per departed packet.
    in_flight_departures: VecDeque<SimTime>,
    /// Time the transmitter becomes free.
    busy_until: SimTime,
    /// `now` of the latest offer.
    last_offer: SimTime,
    /// Counters for diagnostics and tests.
    accepted: u64,
    dropped: u64,
}

impl LinkQueue {
    /// Create a link direction.
    ///
    /// # Panics
    /// Panics if `rate_bps` is zero; an unusable link is a config error.
    pub fn new(rate_bps: u64, prop_delay: SimDuration, queue_limit: usize) -> LinkQueue {
        assert!(rate_bps > 0, "link rate must be positive");
        LinkQueue {
            rate_bps,
            prop_delay,
            queue_limit,
            in_flight_departures: VecDeque::new(),
            busy_until: SimTime::ZERO,
            last_offer: SimTime::ZERO,
            accepted: 0,
            dropped: 0,
        }
    }

    /// Offer a packet of `bytes` to the link at time `now`.
    ///
    /// Returns the delivery time at the far end, or [`Transmit::Dropped`]
    /// when the buffer is full. `now` must be monotonically non-decreasing
    /// across calls (enforced in debug builds only, for speed). Arrival
    /// times then never decrease either, which lets the simulator queue
    /// them FIFO.
    pub fn offer(&mut self, now: SimTime, bytes: u64) -> Transmit {
        debug_assert!(now >= self.last_offer, "offer at {now} after one at {}", self.last_offer);
        self.last_offer = now;
        // Lazily prune packets that have already finished serialising;
        // departures are FIFO-sorted, so only the front can have expired.
        while self.in_flight_departures.front().is_some_and(|&d| d <= now) {
            self.in_flight_departures.pop_front();
        }
        // Packets *waiting* (not yet begun transmission) = those whose
        // serialisation has not started; conservatively approximate the
        // occupancy as all unfinished packets minus the one on the wire.
        let queued = self.in_flight_departures.len().saturating_sub(1);
        if queued >= self.queue_limit {
            self.dropped += 1;
            return Transmit::Dropped;
        }
        let start = self.busy_until.max(now);
        let departure = start + SimDuration::serialization(bytes, self.rate_bps);
        self.busy_until = departure;
        self.in_flight_departures.push_back(departure);
        self.accepted += 1;
        Transmit::Delivered(departure + self.prop_delay)
    }

    /// Current queueing delay a new packet would experience before its
    /// serialisation begins.
    pub fn queueing_delay(&self, now: SimTime) -> SimDuration {
        if self.busy_until > now {
            self.busy_until.since(now)
        } else {
            SimDuration::ZERO
        }
    }

    /// One-way propagation delay.
    pub fn prop_delay(&self) -> SimDuration {
        self.prop_delay
    }

    /// Configured rate in bits per second.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Packets accepted since creation.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Packets dropped by the bounded buffer since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(m: u64) -> u64 {
        m * 1_000_000
    }

    #[test]
    fn single_packet_latency_is_serialization_plus_prop() {
        let mut l = LinkQueue::new(mbps(10), SimDuration::from_millis(20), 64);
        // 1460B at 10Mbps = 1168µs; + 20ms prop.
        match l.offer(SimTime::ZERO, 1460) {
            Transmit::Delivered(t) => assert_eq!(t.as_micros(), 1168 + 20_000),
            Transmit::Dropped => panic!("dropped"),
        }
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut l = LinkQueue::new(mbps(10), SimDuration::ZERO, 64);
        let t1 = match l.offer(SimTime::ZERO, 1460) {
            Transmit::Delivered(t) => t,
            _ => panic!(),
        };
        let t2 = match l.offer(SimTime::ZERO, 1460) {
            Transmit::Delivered(t) => t,
            _ => panic!(),
        };
        assert_eq!(t2.as_micros(), 2 * t1.as_micros());
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut l = LinkQueue::new(mbps(10), SimDuration::ZERO, 64);
        l.offer(SimTime::ZERO, 1460);
        // Offer the next packet long after the first finished.
        let late = SimTime::from_millis(100);
        match l.offer(late, 1460) {
            Transmit::Delivered(t) => {
                assert_eq!(t.since(late).as_micros(), 1168);
            }
            _ => panic!(),
        }
        assert_eq!(l.queueing_delay(SimTime::from_millis(200)), SimDuration::ZERO);
    }

    #[test]
    fn drop_tail_when_buffer_full() {
        let mut l = LinkQueue::new(mbps(1), SimDuration::ZERO, 2);
        // One on the wire + 2 queued fit; the 4th must drop.
        for _ in 0..3 {
            assert!(matches!(l.offer(SimTime::ZERO, 1460), Transmit::Delivered(_)));
        }
        assert_eq!(l.offer(SimTime::ZERO, 1460), Transmit::Dropped);
        assert_eq!(l.accepted(), 3);
        assert_eq!(l.dropped(), 1);
    }

    #[test]
    fn buffer_drains_over_time() {
        let mut l = LinkQueue::new(mbps(1), SimDuration::ZERO, 2);
        for _ in 0..3 {
            l.offer(SimTime::ZERO, 1460);
        }
        assert_eq!(l.offer(SimTime::ZERO, 1460), Transmit::Dropped);
        // After all three serialise (3 * 11.68ms), the queue is empty again.
        let later = SimTime::from_millis(40);
        assert!(matches!(l.offer(later, 1460), Transmit::Delivered(_)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "after one at")]
    fn offers_back_in_time_panic_in_debug_builds() {
        let mut l = LinkQueue::new(mbps(10), SimDuration::ZERO, 64);
        l.offer(SimTime::from_millis(5), 1460);
        l.offer(SimTime::from_millis(4), 1460);
    }

    #[test]
    fn queueing_delay_reflects_backlog() {
        let mut l = LinkQueue::new(mbps(1), SimDuration::ZERO, 64);
        l.offer(SimTime::ZERO, 1460); // 11.68 ms serialisation
        let d = l.queueing_delay(SimTime::ZERO);
        assert_eq!(d.as_micros(), 11_680);
    }
}
