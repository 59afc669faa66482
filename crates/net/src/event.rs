//! Deterministic event queue.
//!
//! Events pop in `(time, sequence)` order. Every event takes a sequence
//! number from one monotone counter, which breaks ties in scheduling
//! order: two events scheduled for the same instant always pop in the
//! order they were scheduled. Determinism here is what makes every
//! campaign in the reproduction replayable from a seed.
//!
//! A sequence number can also be *reserved* ([`EventQueue::reserve_seq`])
//! and used later ([`EventQueue::schedule_seq`]). The simulator reserves
//! one for every retransmission-timer arm but keeps at most one timer
//! entry per connection in the queue, so a timer that is re-armed on
//! every ACK costs a counter bump instead of a queue push and a later
//! no-op pop; when the live timer is finally scheduled under its
//! reserved number it pops exactly where a per-arm entry would have.
//!
//! Pending events live in a binary min-heap plus `LANES` FIFO *lanes*
//! ([`EventQueue::schedule_lane`]). A lane suits a stream whose times
//! never decrease, such as the arrivals at the far end of one direction
//! of a FIFO link: appending a fresh, larger sequence number at or after
//! the tail's time keeps the lane sorted by `(time, seq)`, so it costs a
//! `VecDeque` push instead of a heap sift. An event that would sort
//! before a lane's tail goes to the heap instead, so the pop order never
//! depends on the caller's monotonicity: [`EventQueue::pop`] takes the
//! least of the heap's top and the lanes' heads, exactly the event a
//! single heap would pop. The simulator keeps ~69 events pending at an
//! average pop of the `paper` workload, most of them packets in flight;
//! with link arrivals on lanes the heap holds ~7, mostly timers. The
//! default `LANES = 0` is a plain heap.
//!
//! Each pop moves one entry through a heap sift or out of a lane, so
//! the entry's size is part of every event's cost: payloads should be
//! small. The simulator's events are 16 bytes, an entry with its
//! `(time, seq)` key 32; anything bulkier (an ACK's SACK blocks) waits
//! outside the queue.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A scheduled event carrying a payload of type `E`, ordered so that the
/// `(time, seq)`-smallest event is the heap's maximum.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    // lint:allow(D6): orders integer (time, seq) keys through the total `Ord` below; no floats
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A deterministic future-event list with `LANES` FIFO lanes beside its
/// heap (see the module docs).
///
/// Events may only be scheduled at or after the time of the most recently
/// popped event (the queue's *watermark*); scheduling into the past would
/// violate causality and panics.
#[derive(Debug, Clone)]
pub struct EventQueue<E, const LANES: usize = 0> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Each lane is sorted by `(time, seq)`: it only appends events that
    /// sort after its tail.
    lanes: [VecDeque<Scheduled<E>>; LANES],
    next_seq: u64,
    watermark: SimTime,
}

impl<E, const LANES: usize> Default for EventQueue<E, LANES> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, const LANES: usize> EventQueue<E, LANES> {
    /// An empty queue with watermark at time zero.
    pub fn new() -> EventQueue<E, LANES> {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: std::array::from_fn(|_| VecDeque::new()),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedule `payload` to fire at `time`, after every event already
    /// scheduled for the same instant.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the watermark (the time of the
    /// last popped event).
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.reserve_seq();
        self.schedule_seq(time, seq, payload);
    }

    /// [`EventQueue::schedule`] on lane `lane`: the event pops exactly
    /// where `schedule` would pop it. It is appended to the lane when
    /// `time` is at or after the lane's tail, and goes to the heap
    /// otherwise.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the watermark or `lane >= LANES`.
    pub fn schedule_lane(&mut self, lane: usize, time: SimTime, payload: E) {
        self.check_time(time);
        let ev = Scheduled { time, seq: self.reserve_seq(), payload };
        let fifo = &mut self.lanes[lane];
        if fifo.back().is_none_or(|tail| tail.time <= time) {
            fifo.push_back(ev);
        } else {
            self.heap.push(ev);
        }
    }

    /// Take the next sequence number without scheduling anything: an
    /// event later scheduled under it with [`EventQueue::schedule_seq`]
    /// sorts as if it had been scheduled now.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `payload` at `time` under a sequence number obtained from
    /// [`EventQueue::reserve_seq`]. Each reserved number should be used
    /// by at most one pending event.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the watermark.
    pub fn schedule_seq(&mut self, time: SimTime, seq: u64, payload: E) {
        self.check_time(time);
        debug_assert!(seq < self.next_seq, "sequence number {seq} was never reserved");
        self.heap.push(Scheduled { time, seq, payload });
    }

    fn check_time(&self, time: SimTime) {
        assert!(
            time >= self.watermark,
            "scheduling into the past: {} < watermark {}",
            time,
            self.watermark
        );
    }

    /// Remove and return the earliest event, advancing the watermark.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::from_micros(u64::MAX))
    }

    /// [`EventQueue::pop`], but only if the earliest event fires at or
    /// before `limit`; a later one stays queued and `None` comes back.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let (time, lane) = self.first()?;
        if time > limit {
            return None;
        }
        let ev = match lane {
            Some(lane) => self.lanes[lane].pop_front(),
            None => self.heap.pop(),
        }?;
        self.watermark = ev.time;
        Some((ev.time, ev.payload))
    }

    /// The earliest event's time, and the lane whose head it is (`None`
    /// when it is the heap's top); `None` when the queue is empty.
    fn first(&self) -> Option<(SimTime, Option<usize>)> {
        let mut least = self.heap.peek().map(Scheduled::key);
        let mut first = None;
        for (lane, fifo) in self.lanes.iter().enumerate() {
            if let Some(head) = fifo.front() {
                if least.is_none_or(|k| head.key() < k) {
                    least = Some(head.key());
                    first = Some(lane);
                }
            }
        }
        least.map(|(time, _)| (time, first))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heads = self.lanes.iter().filter_map(|fifo| fifo.front());
        self.heap.peek().into_iter().chain(heads).map(|ev| ev.time).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
    }

    /// The current watermark: no event earlier than this can exist.
    pub fn now(&self) -> SimTime {
        self.watermark
    }

    /// Bytes one pending event occupies: its payload plus its `(time,
    /// seq)` key.
    #[cfg(test)]
    pub(crate) const fn entry_bytes() -> usize {
        std::mem::size_of::<Scheduled<E>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use eyeorg_stats::rng::Rng;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<_> = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q: EventQueue<_> = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn watermark_advances() {
        let mut q: EventQueue<_> = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(10));
        // Scheduling at exactly the watermark is allowed.
        q.schedule(SimTime::from_millis(10), ());
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        let mut q: EventQueue<_> = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.pop();
        q.schedule(SimTime::from_millis(9), ());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q: EventQueue<_> = EventQueue::new();
        q.schedule(SimTime::from_millis(1) + SimDuration::from_micros(5), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(1005)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn far_future_event_pops_after_later_scheduled_earlier_one() {
        // An RTO parked far out is the minimum until an earlier event
        // arrives; the earlier one then pops first.
        let mut q: EventQueue<_> = EventQueue::new();
        q.schedule(SimTime::from_secs(30), "rto");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(30)));
        q.schedule(SimTime::from_millis(1), "data");
        assert_eq!(q.pop().map(|(_, p)| p), Some("data"));
        assert_eq!(q.pop().map(|(_, p)| p), Some("rto"));
    }

    /// The reference semantics: a plain binary heap on `(time, seq)`.
    #[derive(Clone)]
    struct HeapRef<E> {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
        payloads: std::collections::BTreeMap<u64, E>,
        next_seq: u64,
    }

    impl<E> HeapRef<E> {
        fn new() -> Self {
            HeapRef {
                heap: std::collections::BinaryHeap::new(),
                payloads: std::collections::BTreeMap::new(),
                next_seq: 0,
            }
        }
        fn reserve_seq(&mut self) -> u64 {
            self.next_seq += 1;
            self.next_seq - 1
        }
        fn schedule_seq(&mut self, time: SimTime, seq: u64, payload: E) {
            self.heap.push(std::cmp::Reverse((time, seq)));
            self.payloads.insert(seq, payload);
        }
        fn pop(&mut self) -> Option<(SimTime, E)> {
            let std::cmp::Reverse((t, seq)) = self.heap.pop()?;
            Some((t, self.payloads.remove(&seq).unwrap()))
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|std::cmp::Reverse((t, _))| *t)
        }
    }

    /// Pop both queues to exhaustion, demanding the same stream.
    fn drain_against(cal: &mut EventQueue<u64, 2>, mut heap: HeapRef<u64>, what: &str) {
        while let Some(expect) = heap.pop() {
            assert_eq!(cal.pop(), Some(expect), "{what}");
            assert_eq!(cal.len(), heap.payloads.len(), "{what}");
        }
        assert!(cal.is_empty(), "{what}");
    }

    /// Drive a two-lane queue and the heap reference through an
    /// identical randomized schedule/pop workload and demand identical
    /// `(time, payload)` streams and lengths. Deterministic seeds; covers
    /// bursts of ties, far-future tails, interleaved peeks, sequence
    /// numbers reserved now and scheduled later (as the RTO timer uses
    /// them), bounded pops with limits before, at and after the head,
    /// lane appends in order and out of order (the heap fallback),
    /// same-instant ties across both lanes and the heap, and a clone
    /// taken mid-run (as load snapshots take one) drained on its own.
    #[test]
    fn matches_binary_heap_reference() {
        let (mut appended, mut fallbacks) = (0, 0);
        // Bounded pops that popped, and that left the head queued.
        let mut bounded = [0u32; 2];
        for seed in 0u64..8 {
            let mut rng = Rng::seed_from_u64(0xCAFE + seed);
            let mut cal: EventQueue<u64, 2> = EventQueue::new();
            let mut heap: HeapRef<u64> = HeapRef::new();
            let mut now = 0u64;
            let mut payload = 0u64;
            let mut reserved: Vec<u64> = Vec::new();
            // The latest time scheduled on each lane, and an instant that
            // both lanes and the heap schedule at.
            let mut lane_tail = [0u64; 2];
            let mut tie = 0u64;
            let mut snapshot = None;
            for step in 0..4_000 {
                if tie < now {
                    tie = now + rng.next_u64() % 5_000;
                }
                let r = rng.next_u64() % 100;
                if r < 8 {
                    let seq = cal.reserve_seq();
                    assert_eq!(seq, heap.reserve_seq());
                    reserved.push(seq);
                } else if r < 16 && !reserved.is_empty() {
                    // Use a reserved number, possibly an old one.
                    let seq = reserved.swap_remove(rng.next_u64() as usize % reserved.len());
                    let t = SimTime::from_micros(now + rng.next_u64() % 300_000);
                    cal.schedule_seq(t, seq, payload);
                    heap.schedule_seq(t, seq, payload);
                    payload += 1;
                } else if r < 36 || cal.is_empty() {
                    // Schedule 1..=3 heap events; occasionally ties, a far
                    // tail, or exactly-at-watermark.
                    for _ in 0..=(rng.next_u64() % 3) {
                        let t = match rng.next_u64() % 11 {
                            0 => now,                                           // tie with `now`
                            1..=6 => now + rng.next_u64() % 2_000,              // near future
                            7 | 8 => now + rng.next_u64() % 300_000,            // ~rtt scale
                            9 => tie, // tie with the lanes
                            _ => now + 1_000_000 + rng.next_u64() % 30_000_000, // far RTO
                        };
                        let t = SimTime::from_micros(t);
                        cal.schedule(t, payload);
                        let seq = heap.reserve_seq();
                        heap.schedule_seq(t, seq, payload);
                        payload += 1;
                    }
                } else if r < 56 {
                    // A run of 1..=4 events on one lane, mostly in order.
                    let lane = (rng.next_u64() % 2) as usize;
                    for _ in 0..=(rng.next_u64() % 4) {
                        let tail = lane_tail[lane].max(now);
                        let t = match rng.next_u64() % 10 {
                            0 => now,
                            1 => tie,
                            2 => now + rng.next_u64() % (tail - now + 1), // often before the tail
                            _ => tail + rng.next_u64() % 3_000,
                        };
                        lane_tail[lane] = lane_tail[lane].max(t);
                        let before = cal.heap.len();
                        cal.schedule_lane(lane, SimTime::from_micros(t), payload);
                        if cal.heap.len() > before {
                            fallbacks += 1;
                        } else {
                            appended += 1;
                        }
                        let seq = heap.reserve_seq();
                        heap.schedule_seq(SimTime::from_micros(t), seq, payload);
                        payload += 1;
                    }
                } else if r < 80 || heap.peek_time().is_none() {
                    assert_eq!(cal.peek_time(), heap.peek_time(), "seed={seed} step={step}");
                    let a = cal.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "seed={seed} step={step}");
                    if let Some((t, _)) = a {
                        now = t.as_micros();
                    }
                } else {
                    // A bounded pop with a limit before, at or after the
                    // head: it pops exactly when the head is due.
                    let head = heap.peek_time().map_or(0, SimTime::as_micros);
                    let limit = match rng.next_u64() % 3 {
                        0 => head.saturating_sub(1 + rng.next_u64() % 1_000),
                        1 => head,
                        _ => head + 1 + rng.next_u64() % 1_000,
                    };
                    let limit = SimTime::from_micros(limit);
                    let a = cal.pop_until(limit);
                    let due = heap.peek_time().is_some_and(|t| t <= limit);
                    let b = if due { heap.pop() } else { None };
                    assert_eq!(a, b, "seed={seed} step={step} limit={limit}");
                    match a {
                        Some((t, _)) => {
                            now = t.as_micros();
                            bounded[0] += 1;
                        }
                        None => bounded[1] += 1,
                    }
                }
                assert_eq!(cal.len(), heap.payloads.len(), "seed={seed} step={step}");
                if step == 2_000 {
                    snapshot = Some((cal.clone(), heap.clone()));
                }
            }
            // Drain: the full remaining order must match, for the queue
            // and for its mid-run clone.
            drain_against(&mut cal, heap, &format!("seed={seed} drain"));
            let (mut fork, fork_heap) = snapshot.expect("step 2000 was reached");
            drain_against(&mut fork, fork_heap, &format!("seed={seed} clone drain"));
        }
        assert!(appended > 1_000 && fallbacks > 100, "{appended} appends, {fallbacks} fallbacks");
        assert!(bounded.iter().all(|&n| n > 100), "bounded pops (popped, held): {bounded:?}");
    }

    #[test]
    fn reserved_seq_pops_before_later_same_time_event() {
        let mut q: EventQueue<_> = EventQueue::new();
        let t = SimTime::from_millis(200);
        let early = q.reserve_seq();
        q.schedule(t, "scheduled later");
        q.schedule_seq(t, early, "reserved earlier");
        q.schedule(SimTime::from_millis(100), "before");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["before", "reserved earlier", "scheduled later"]);
    }

    #[test]
    fn drains_a_large_random_population_in_time_then_fifo_order() {
        let mut q: EventQueue<_> = EventQueue::new();
        let mut rng = Rng::seed_from_u64(7);
        let mut times: Vec<(SimTime, u32)> = Vec::new();
        for i in 0..1_000u32 {
            let t = SimTime::from_micros(rng.next_u64() % 5_000_000);
            q.schedule(t, i);
            times.push((t, i));
        }
        times.sort_by_key(|&(t, i)| (t, i)); // seq == insertion order == i
        let drained: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, times);
    }
}
