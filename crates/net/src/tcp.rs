//! TCP sender/receiver state machines.
//!
//! The protocol comparison at the centre of the paper's second campaign
//! (HTTP/1.1 vs HTTP/2, Fig. 8a/8b) is, at the transport level, a
//! comparison between *six short parallel congestion windows* and *one
//! long shared one*. Getting that right requires an actual congestion
//! controller, not a fixed-latency pipe, so this module implements a
//! Reno/NewReno-style sender:
//!
//! * slow start from a 10-segment initial window (RFC 6928, matching the
//!   Chrome/Linux stacks webpeg recorded through),
//! * congestion avoidance with the standard `MSS²/cwnd` per-ACK growth,
//! * fast retransmit on three duplicate ACKs with NewReno partial-ACK
//!   retransmission, skipping what a SACK scoreboard says has arrived,
//! * retransmission timeouts with exponential backoff and Karn-corrected
//!   RTT estimation (RFC 6298 smoothing).
//!
//! The structures here are *pure state machines*: they decide what to send
//! and how to react to ACKs, but performing the sends (and experiencing
//! loss and queueing) is the job of [`crate::sim::NetSim`]. This split
//! keeps the transport logic unit-testable without a simulator.

use crate::time::{SimDuration, SimTime};

/// Maximum segment size in payload bytes. 1460 = 1500-byte Ethernet MTU
/// minus 40 bytes of IPv4+TCP headers.
pub const MSS: u64 = 1460;

/// Initial congestion window, in segments (RFC 6928).
pub const INITIAL_WINDOW_SEGMENTS: u64 = 10;

/// Bytes of L3/L4 header accounted per segment on the wire.
pub const HEADER_BYTES: u64 = 40;

/// Duplicate-ACK threshold for fast retransmit.
pub const DUPACK_THRESHOLD: u32 = 3;

/// Lower clamp on the retransmission timeout. Real stacks use 200 ms–1 s;
/// we use 200 ms so RTO behaviour is visible on simulated broadband RTTs.
pub const MIN_RTO: SimDuration = SimDuration::from_millis(200);

/// Upper clamp on the retransmission timeout.
pub const MAX_RTO: SimDuration = SimDuration::from_secs(60);

/// Initial RTO before any RTT sample exists (RFC 6298 says 1 s).
pub const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);

/// A transmission instruction produced by [`TcpSender::next_segment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentToSend {
    /// First byte offset (inclusive).
    pub start: u64,
    /// One past the last byte offset.
    pub end: u64,
    /// Whether this is a retransmission.
    pub retransmission: bool,
}

impl SegmentToSend {
    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the segment carries no payload (never produced in practice).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// Bytes this segment occupies on the wire, including headers.
    pub fn wire_bytes(&self) -> u64 {
        self.len() + HEADER_BYTES
    }
}

/// What an ACK caused the sender to do, reported for tracing/tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOutcome {
    /// The ACK advanced `snd_una` in the normal course of things.
    Advanced,
    /// A duplicate ACK that did not yet trigger recovery.
    Duplicate,
    /// The third duplicate ACK: fast retransmit has been queued.
    FastRetransmit,
    /// A partial ACK during recovery: the next hole has been queued for
    /// retransmission (NewReno).
    PartialAck,
    /// The ACK completed recovery.
    RecoveryComplete,
    /// The ACK was stale (below `snd_una` with no outstanding data).
    Ignored,
}

/// Reno/NewReno congestion-controlled sender over an abstract byte stream.
#[derive(Debug, Clone)]
pub struct TcpSender {
    mss: u64,
    /// Congestion window in bytes. Kept as f64 so congestion-avoidance
    /// growth of MSS²/cwnd per ACK accumulates smoothly.
    cwnd: f64,
    ssthresh: f64,
    /// Lowest unacknowledged byte.
    snd_una: u64,
    /// Next fresh byte to transmit.
    snd_nxt: u64,
    /// Total bytes the application has made available to send.
    app_limit: u64,
    dup_acks: u32,
    /// `Some(recovery_point)` while in loss recovery; recovery ends when
    /// `snd_una` passes this.
    recovery: Option<u64>,
    /// Active retransmission range `[cursor, end)`; segments the SACK
    /// scoreboard covers are skipped, so only genuine holes are re-sent.
    rtx: Option<(u64, u64)>,
    /// SACK scoreboard: the union of every advertised block (RFC 2018
    /// carries at most 3 blocks per ACK, so the sender accumulates them),
    /// pruned as the cumulative point advances.
    sacked: RangeSet,
    /// ACK-clocked retransmission credit (RFC 6675's pipe control,
    /// simplified): each returning ACK during recovery licenses one
    /// retransmission, so recovery drains into the queue at the rate the
    /// queue empties instead of re-flooding it.
    rtx_credit: u64,
    /// Dupacks since the recovery cursor last moved; a pile-up means the
    /// hole's own retransmission was lost, and the cursor rewinds (the
    /// job RACK does in modern stacks) instead of waiting out an RTO.
    dupacks_since_progress: u32,
    /// Whether the most recent `update_sack` carried new information.
    last_sack_new: bool,
    // --- RTT estimation (RFC 6298) ---
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    rto_backoff: u32,
    /// Send times of fresh segments still awaiting acknowledgement:
    /// `(seq_end, sent_at, rtx_epoch_at_send)`. Sampling every segment
    /// (rather than one probe per RTT) lets the RTT estimator see the
    /// queueing built *within* a burst — which is what HyStart needs.
    send_times: std::collections::VecDeque<(u64, SimTime, u64)>,
    /// Incremented on every retransmission; samples from older epochs are
    /// ambiguous (Karn) and skipped.
    rtx_epoch: u64,
    /// Smallest RTT sample seen (HyStart's baseline).
    min_rtt: Option<SimDuration>,
    // --- counters ---
    segments_sent: u64,
    retransmissions: u64,
    timeouts: u64,
}

impl TcpSender {
    /// A fresh sender with an empty send buffer.
    pub fn new() -> TcpSender {
        TcpSender {
            mss: MSS,
            cwnd: (INITIAL_WINDOW_SEGMENTS * MSS) as f64,
            ssthresh: f64::INFINITY,
            snd_una: 0,
            snd_nxt: 0,
            app_limit: 0,
            dup_acks: 0,
            recovery: None,
            rtx: None,
            sacked: RangeSet::default(),
            rtx_credit: 0,
            dupacks_since_progress: 0,
            last_sack_new: false,
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: INITIAL_RTO,
            rto_backoff: 0,
            send_times: std::collections::VecDeque::new(),
            rtx_epoch: 0,
            min_rtt: None,
            segments_sent: 0,
            retransmissions: 0,
            timeouts: 0,
        }
    }

    /// Make `bytes` more application data available for transmission.
    pub fn app_write(&mut self, bytes: u64) {
        self.app_limit += bytes;
    }

    /// Bytes in flight (sent but unacknowledged).
    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Whether all written application data has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.snd_una == self.app_limit
    }

    /// Whether the sender is *application-limited*: everything the
    /// application has written is already on the wire, so absent a
    /// retransmission the next [`TcpSender::next_segment`] returns `None`.
    pub(crate) fn app_limited(&self) -> bool {
        self.snd_nxt >= self.app_limit
    }

    /// Whether the send path is in its clean fast-path state: no recovery
    /// episode, no pending retransmission cursor, no SACKed holes, and no
    /// duplicate-ACK count. This is the state a fully-acked in-order
    /// exchange leaves behind; burst batching in `NetSim` requires it
    /// before deferring ACK processing.
    pub(crate) fn window_quiescent(&self) -> bool {
        self.recovery.is_none()
            && self.rtx.is_none()
            && self.sacked.is_empty()
            && self.dup_acks == 0
    }

    /// Current congestion window in bytes.
    pub fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current retransmission timeout, including backoff.
    pub fn current_rto(&self) -> SimDuration {
        let backed_off = self.rto.saturating_mul(1u32 << self.rto_backoff.min(16));
        backed_off.min(MAX_RTO).max(MIN_RTO)
    }

    /// Total segments handed to the network (including retransmissions).
    pub fn segments_sent(&self) -> u64 {
        self.segments_sent
    }

    /// Retransmitted segments (fast retransmit + RTO).
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// RTO events fired.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// The next segment to put on the wire, if the window and send buffer
    /// allow one. The caller must then call [`TcpSender::mark_sent`].
    ///
    /// Retransmissions take priority over fresh data and are exempt from
    /// the window check (the standard loss-recovery behaviour — the data
    /// they cover is already counted in flight).
    pub fn next_segment(&self) -> Option<SegmentToSend> {
        if let Some((mut cursor, mut end)) = self.rtx {
            // Only data *below* SACKed bytes is presumed lost (RFC 6675's
            // IsLost); anything above the highest SACK is still in
            // flight. With an empty scoreboard (RTO path) the whole
            // range is fair game — that is go-back-N.
            if let Some(highest) = self.sacked.max_end() {
                end = end.min(highest);
            }
            // Skip everything the receiver has SACKed — only holes go out.
            while cursor < end {
                match self.sacked.skip_past(cursor) {
                    Some(e) => cursor = e,
                    None => break,
                }
            }
            if cursor < end {
                // ACK-clocked: each retransmission needs a credit, and the
                // burst stays window-limited past the cumulative point.
                if self.rtx_credit > 0 && cursor.saturating_sub(self.snd_una) < self.cwnd as u64 {
                    let mut seg_end = (cursor + self.mss).min(end);
                    if let Some(s) = self.sacked.next_block_start(cursor) {
                        seg_end = seg_end.min(s);
                    }
                    return Some(SegmentToSend {
                        start: cursor,
                        end: seg_end,
                        retransmission: true,
                    });
                }
                return None;
            }
        }
        if self.snd_nxt >= self.app_limit {
            return None;
        }
        // Pipe estimate (RFC 6675): SACKed bytes have left the network,
        // so new data may flow during recovery instead of idling the
        // link for a full queue-drain while retransmissions trickle.
        let sacked: u64 = self
            .sacked
            .as_slice()
            .iter()
            .map(|&(s, e)| e.min(self.snd_nxt).saturating_sub(s.max(self.snd_una)))
            .sum();
        let pipe = self.in_flight().saturating_sub(sacked);
        if pipe + 1 > self.cwnd as u64 {
            return None;
        }
        // Allow the segment if at least one byte fits; real stacks send a
        // full segment once any window opens (we avoid silly-window logic
        // because the receiver never shrinks its window in this model).
        let end = (self.snd_nxt + self.mss).min(self.app_limit);
        Some(SegmentToSend { start: self.snd_nxt, end, retransmission: false })
    }

    /// Record that `seg` was handed to the network at `now`.
    pub fn mark_sent(&mut self, seg: SegmentToSend, now: SimTime) {
        self.segments_sent += 1;
        if seg.retransmission {
            self.retransmissions += 1;
            self.rtx_credit = self.rtx_credit.saturating_sub(1);
            if let Some((cursor, end)) = self.rtx {
                debug_assert!(seg.start >= cursor, "retransmissions walk the range");
                self.rtx = Some((seg.end.max(cursor), end));
            }
            self.rtx_epoch += 1;
        } else {
            debug_assert_eq!(seg.start, self.snd_nxt, "fresh data must be in order");
            self.snd_nxt = seg.end;
            self.send_times.push_back((seg.end, now, self.rtx_epoch));
        }
    }

    /// Merge the SACK blocks carried on an incoming ACK into the
    /// scoreboard (call before [`TcpSender::on_ack`]). Records whether
    /// the ACK carried any *new* information — RFC 6675 only treats an
    /// ACK as a duplicate worth reacting to when it does (acks of
    /// spuriously retransmitted data advertise nothing new and must not
    /// feed back into more retransmission).
    pub fn update_sack(&mut self, sack: SackBlocks) {
        let mut new_info = false;
        for &(start, end) in sack.as_slice() {
            let (_, covered) = self.sacked.insert_range(start, end);
            new_info |= covered < end - start;
        }
        self.last_sack_new = new_info;
    }

    /// Process a cumulative ACK for all bytes `< ack`.
    pub fn on_ack(&mut self, ack: u64, now: SimTime) -> AckOutcome {
        if ack > self.snd_una {
            // --- new data acknowledged ---
            let delta = ack - self.snd_una;
            self.snd_una = ack;
            self.dup_acks = 0;
            self.rto_backoff = 0;
            self.sacked.prune_below(self.snd_una);
            self.sample_rtt(ack, now);

            if let Some(recovery_point) = self.recovery {
                if ack >= recovery_point {
                    // Recovery complete; deflate to ssthresh.
                    self.recovery = None;
                    self.rtx = None;
                    self.rtx_credit = 0;
                    self.cwnd = self.ssthresh;
                    return AckOutcome::RecoveryComplete;
                }
                // Partial ACK: the cumulative point advanced into the
                // range; skip anything now acknowledged and keep walking.
                // The advance means segments left the network: grant
                // proportional retransmission credit.
                if let Some((cursor, end)) = self.rtx {
                    self.rtx = Some((cursor.max(self.snd_una), end));
                }
                self.rtx_credit += (delta / self.mss).max(1);
                self.dupacks_since_progress = 0;
                return AckOutcome::PartialAck;
            }

            // Window growth.
            if self.cwnd < self.ssthresh {
                self.cwnd += self.mss as f64; // slow start: +1 MSS per ACK
            } else {
                self.cwnd += (self.mss * self.mss) as f64 / self.cwnd; // CA
            }
            return AckOutcome::Advanced;
        }

        // Duplicate ACK only counts when data is outstanding AND it told
        // us something new (RFC 6675's DupAck definition); acks of
        // duplicate data carry no new SACK ranges and are inert.
        if ack == self.snd_una && self.in_flight() > 0 {
            if !self.last_sack_new && !self.sacked.is_empty() {
                return AckOutcome::Ignored;
            }
            if self.recovery.is_some() {
                // Each dupack signals a segment left the network: one
                // more retransmission may enter (pipe control).
                self.rtx_credit += 1;
                self.dupacks_since_progress += 1;
                if self.dupacks_since_progress >= 16 {
                    // Rescue: the hole retransmission itself was lost.
                    self.dupacks_since_progress = 0;
                    if let Some((_, end)) = self.rtx {
                        self.rtx = Some((self.snd_una, end));
                    }
                }
                return AckOutcome::Duplicate;
            }
            self.dup_acks += 1;
            if self.dup_acks == DUPACK_THRESHOLD {
                self.enter_fast_recovery();
                return AckOutcome::FastRetransmit;
            }
            return AckOutcome::Duplicate;
        }
        AckOutcome::Ignored
    }

    /// A retransmission timer fired at `now`. Collapses the window to one
    /// segment and queues the first unacked byte for retransmission.
    /// Returns `false` (and does nothing) if no data is outstanding.
    pub fn on_rto(&mut self) -> bool {
        if self.in_flight() == 0 {
            return false;
        }
        self.timeouts += 1;
        self.ssthresh = (self.in_flight() as f64 / 2.0).max((2 * self.mss) as f64);
        self.cwnd = self.mss as f64;
        self.dup_acks = 0;
        // Go-back-N from the cumulative point, ACK-clocked and
        // window-limited (cwnd grows back through slow start).
        self.recovery = Some(self.snd_nxt);
        self.rtx = Some((self.snd_una, self.snd_nxt));
        self.rtx_credit = 1;
        self.rto_backoff = (self.rto_backoff + 1).min(16);
        self.rtx_epoch += 1;
        true
    }

    fn enter_fast_recovery(&mut self) {
        self.ssthresh = (self.in_flight() as f64 / 2.0).max((2 * self.mss) as f64);
        self.cwnd = self.ssthresh;
        self.recovery = Some(self.snd_nxt);
        self.rtx = Some((self.snd_una, self.snd_nxt));
        // The three dupacks that got us here are three departures.
        self.rtx_credit = 3;
    }

    fn sample_rtt(&mut self, ack: u64, now: SimTime) {
        // Pop everything this cumulative ACK covers; the *last* covered
        // segment carries the freshest (tail-of-burst) timing.
        let mut newest: Option<(SimTime, u64)> = None;
        while let Some(&(seq_end, sent_at, epoch)) = self.send_times.front() {
            if seq_end > ack {
                break;
            }
            self.send_times.pop_front();
            newest = Some((sent_at, epoch));
        }
        let Some((sent_at, epoch)) = newest else { return };
        if epoch != self.rtx_epoch {
            return; // Karn: a retransmission happened since; ambiguous
        }
        let sample = now.since(sent_at);
        self.min_rtt = Some(match self.min_rtt {
            Some(m) if m <= sample => m,
            _ => sample,
        });
        // HyStart-style slow-start exit (what 2016-era CUBIC servers ran):
        // once queueing delay shows up in the RTT, stop doubling — this is
        // what saves a single large flow from the overshoot collapse that
        // Reno-with-fixed-ssthresh suffers on every bulk transfer.
        if self.cwnd < self.ssthresh {
            // The probe rides the tail of each burst and therefore sees
            // the burst's own serialisation as queueing; demand a
            // substantial standing queue (half the base RTT, ≥8 ms)
            // before exiting, or slow start stops far below the BDP.
            // lint:allow(D4): min_rtt was set from this very sample a few lines above
            let base = self.min_rtt.expect("just set").as_micros();
            let threshold = base + (base / 2).max(8_000);
            if sample.as_micros() > threshold {
                self.ssthresh = self.cwnd;
            }
        }
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = SimDuration::from_micros(sample.as_micros() / 2);
            }
            Some(srtt) => {
                let err = srtt.as_micros().abs_diff(sample.as_micros());
                self.rttvar = SimDuration::from_micros((3 * self.rttvar.as_micros() + err) / 4);
                self.srtt =
                    Some(SimDuration::from_micros((7 * srtt.as_micros() + sample.as_micros()) / 8));
            }
        }
        let rto = SimDuration::from_micros(
            // lint:allow(D4): srtt was set in the branch above before the RTO is computed
            self.srtt.expect("just set").as_micros() + 4 * self.rttvar.as_micros().max(1_000),
        );
        self.rto = rto.max(MIN_RTO).min(MAX_RTO);
    }

    /// Smoothed RTT estimate, if a valid sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }
}

impl Default for TcpSender {
    fn default() -> Self {
        Self::new()
    }
}

/// Up to three SACK blocks carried on an ACK (RFC 2018 allows 3–4; three
/// suffice to cover drop-tail burst holes in practice).
///
/// At 56 bytes a snapshot is too big to ride in the simulator's queue
/// entries: `NetSim` parks each non-empty one in a per-connection FIFO
/// and its ACK event carries only a flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SackBlocks {
    blocks: [(u64, u64); 3],
    len: u8,
}

impl SackBlocks {
    /// The first three of the receiver's out-of-order ranges.
    pub fn from_ranges(ranges: &[(u64, u64)]) -> SackBlocks {
        let mut out = SackBlocks::default();
        for &range in ranges.iter().take(3) {
            out.push_block(range);
        }
        out
    }

    fn push_block(&mut self, block: (u64, u64)) {
        self.blocks[self.len as usize] = block;
        self.len += 1;
    }

    /// The blocks as a slice.
    pub fn as_slice(&self) -> &[(u64, u64)] {
        &self.blocks[..self.len as usize]
    }
}

/// Disjoint byte ranges `[start, end)` in ascending order, overlapping
/// and touching ranges merged: the sender's SACK scoreboard and the
/// receiver's reassembly buffer. Both hold a few ranges, one per loss
/// hole, so a sorted `Vec` searched with `partition_point` serves them.
/// Being disjoint, the ranges ascend in their ends too.
#[derive(Debug, Clone, Default)]
struct RangeSet {
    ranges: Vec<(u64, u64)>,
}

impl RangeSet {
    fn as_slice(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Add `[start, end)`, merging it with every range it overlaps or
    /// touches. Returns the merged range's index and how many bytes of
    /// `[start, end)` the set already covered.
    fn insert_range(&mut self, start: u64, end: u64) -> (usize, u64) {
        // The ranges that overlap or touch `[start, end)` are the run
        // `lo..hi`: past every range ending before `start`, and up to the
        // last one starting at or before `end`.
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let hi = self.ranges.partition_point(|&(s, _)| s <= end);
        let run = &self.ranges[lo..hi];
        let covered = run.iter().map(|&(s, e)| e.min(end).saturating_sub(s.max(start))).sum();
        let merged = match (run.first(), run.last()) {
            (Some(&(s, _)), Some(&(_, e))) => (s.min(start), e.max(end)),
            _ => (start, end),
        };
        self.ranges.splice(lo..hi, std::iter::once(merged));
        (lo, covered)
    }

    /// Drop every range that ends at or before `seq`.
    fn prune_below(&mut self, seq: u64) {
        let k = self.ranges.partition_point(|&(_, e)| e <= seq);
        self.ranges.drain(..k);
    }

    /// Remove every range starting at or before `seq` and return how far
    /// the bytes from `seq` on are now contiguous: the last removed
    /// range's end when it lies past `seq`, else `seq`.
    fn drain_through(&mut self, seq: u64) -> u64 {
        let k = self.ranges.partition_point(|&(s, _)| s <= seq);
        let reach = self.ranges[..k].last().map_or(seq, |&(_, e)| e.max(seq));
        self.ranges.drain(..k);
        reach
    }

    /// The end of the range covering `seq`.
    fn skip_past(&self, seq: u64) -> Option<u64> {
        let k = self.ranges.partition_point(|&(s, _)| s <= seq);
        k.checked_sub(1).map(|i| self.ranges[i].1).filter(|&e| seq < e)
    }

    /// The start of the first range beginning after `seq`.
    fn next_block_start(&self, seq: u64) -> Option<u64> {
        let k = self.ranges.partition_point(|&(s, _)| s <= seq);
        self.ranges.get(k).map(|&(s, _)| s)
    }

    /// The highest covered byte's successor.
    fn max_end(&self) -> Option<u64> {
        self.ranges.last().map(|&(_, e)| e)
    }

    /// Bytes covered.
    fn covered(&self) -> u64 {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }
}

/// Receiver side: cumulative ACK generation and in-order delivery
/// accounting, with an out-of-order reassembly buffer whose ranges are
/// advertised back to the sender as SACK blocks.
#[derive(Debug, Clone, Default)]
pub struct TcpReceiver {
    /// Next byte expected in order.
    rcv_nxt: u64,
    /// Out-of-order ranges, all above `rcv_nxt`.
    ooo: RangeSet,
    /// Rotation cursor so successive ACKs advertise *different* ranges —
    /// three blocks per ACK only cover a burst-loss buffer if they
    /// rotate (what real stacks do).
    sack_rotate: usize,
}

/// Result of receiving one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiveOutcome {
    /// Cumulative ACK to send (next expected byte).
    pub ack: u64,
    /// Bytes newly available to the application, in order, because of
    /// this segment (0 for out-of-order or duplicate segments).
    pub newly_delivered: u64,
    /// SACK blocks advertising the reassembly buffer's holes' far sides.
    pub sack: SackBlocks,
}

impl TcpReceiver {
    /// A fresh receiver expecting byte 0.
    pub fn new() -> TcpReceiver {
        TcpReceiver::default()
    }

    /// Total in-order bytes delivered to the application so far.
    pub fn delivered(&self) -> u64 {
        self.rcv_nxt
    }

    /// Bytes held in the reassembly buffer (received out of order).
    pub fn buffered(&self) -> u64 {
        self.ooo.covered()
    }

    /// Accept the segment `[start, end)`.
    pub fn on_segment(&mut self, start: u64, end: u64) -> ReceiveOutcome {
        assert!(start <= end, "segment range inverted");
        let before = self.rcv_nxt;
        if end <= self.rcv_nxt {
            // Entirely duplicate.
            return ReceiveOutcome {
                ack: self.rcv_nxt,
                newly_delivered: 0,
                sack: SackBlocks::from_ranges(self.ooo.as_slice()),
            };
        }
        let start = start.max(self.rcv_nxt);
        if start > self.rcv_nxt {
            // Out of order: stash and emit a duplicate ACK with SACK
            // info — the block containing this segment first (RFC 2018),
            // then two more of the other ranges chosen by rotation so
            // that a long burst's whole buffer map reaches the sender
            // over a few ACKs.
            let (at, _) = self.ooo.insert_range(start, end);
            let ranges = self.ooo.as_slice();
            let mut sack = SackBlocks::default();
            sack.push_block(ranges[at]);
            let others = ranges.len() - 1;
            if others > 0 {
                for k in 0..2usize.min(others) {
                    let j = (self.sack_rotate + k) % others;
                    sack.push_block(ranges[if j < at { j } else { j + 1 }]);
                }
                self.sack_rotate = (self.sack_rotate + 2) % others;
            }
            return ReceiveOutcome { ack: self.rcv_nxt, newly_delivered: 0, sack };
        }
        // In order: advance, then drain any contiguous buffered ranges.
        self.rcv_nxt = self.ooo.drain_through(end);
        ReceiveOutcome {
            ack: self.rcv_nxt,
            newly_delivered: self.rcv_nxt - before,
            sack: SackBlocks::from_ranges(self.ooo.as_slice()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_window(s: &mut TcpSender, now: SimTime) -> Vec<SegmentToSend> {
        let mut out = Vec::new();
        while let Some(seg) = s.next_segment() {
            s.mark_sent(seg, now);
            out.push(seg);
        }
        out
    }

    #[test]
    fn initial_window_is_ten_segments() {
        let mut s = TcpSender::new();
        s.app_write(1_000_000);
        let segs = drain_window(&mut s, SimTime::ZERO);
        assert_eq!(segs.len(), 10);
        assert_eq!(s.in_flight(), 10 * MSS);
        assert!(segs.iter().all(|g| g.len() == MSS && !g.retransmission));
    }

    #[test]
    fn short_flow_sends_partial_final_segment() {
        let mut s = TcpSender::new();
        s.app_write(2000);
        let segs = drain_window(&mut s, SimTime::ZERO);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].len(), MSS);
        assert_eq!(segs[1].len(), 2000 - MSS);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = TcpSender::new();
        s.app_write(10_000_000);
        let t0 = SimTime::ZERO;
        let w0 = drain_window(&mut s, t0).len();
        // ACK the whole first window one RTT later.
        let t1 = SimTime::from_millis(50);
        for i in 1..=w0 as u64 {
            s.on_ack(i * MSS, t1);
        }
        let w1 = drain_window(&mut s, t1).len();
        // cwnd grew by 1 MSS per ACK → window doubled.
        assert_eq!(w1, 2 * w0);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut s = TcpSender::new();
        s.app_write(100_000_000);
        // Force CA by setting up a recovery and completing it.
        let t = SimTime::ZERO;
        drain_window(&mut s, t);
        // 3 dupacks → fast retransmit → recovery.
        s.on_ack(0, t);
        s.on_ack(0, t);
        assert_eq!(s.on_ack(0, t), AckOutcome::FastRetransmit);
        let rec_point = s.in_flight(); // == snd_nxt
        assert_eq!(s.on_ack(rec_point, SimTime::from_millis(100)), AckOutcome::RecoveryComplete);
        let cwnd_after = s.cwnd_bytes();
        // One full window of ACKs in CA grows cwnd by ~1 MSS total.
        let acks = cwnd_after / MSS;
        let base = s.snd_una;
        // Send fresh data so ACKs aren't duplicates.
        drain_window(&mut s, SimTime::from_millis(100));
        for i in 1..=acks {
            s.on_ack(base + i * MSS, SimTime::from_millis(150));
        }
        let grown = s.cwnd_bytes();
        let delta = grown as i64 - cwnd_after as i64;
        assert!((delta - MSS as i64).abs() <= MSS as i64 / 4, "CA growth {delta}");
    }

    #[test]
    fn fast_retransmit_after_three_dupacks() {
        let mut s = TcpSender::new();
        s.app_write(100_000);
        drain_window(&mut s, SimTime::ZERO);
        let flight_before = s.in_flight();
        assert_eq!(s.on_ack(0, SimTime::ZERO), AckOutcome::Duplicate);
        assert_eq!(s.on_ack(0, SimTime::ZERO), AckOutcome::Duplicate);
        assert_eq!(s.on_ack(0, SimTime::ZERO), AckOutcome::FastRetransmit);
        // Window halved (>= 2 MSS floor).
        assert_eq!(s.cwnd_bytes(), flight_before / 2);
        // The queued retransmission covers the first segment.
        let seg = s.next_segment().expect("retransmission pending");
        assert!(seg.retransmission);
        assert_eq!(seg.start, 0);
        assert_eq!(seg.len(), MSS);
        s.mark_sent(seg, SimTime::ZERO);
        assert_eq!(s.retransmissions(), 1);
    }

    #[test]
    fn newreno_partial_ack_retransmits_next_hole() {
        let mut s = TcpSender::new();
        s.app_write(100_000);
        drain_window(&mut s, SimTime::ZERO);
        for _ in 0..3 {
            s.on_ack(0, SimTime::ZERO);
        }
        let seg = s.next_segment().unwrap();
        s.mark_sent(seg, SimTime::ZERO);
        // Partial ACK: only the first segment's worth arrives.
        assert_eq!(s.on_ack(MSS, SimTime::from_millis(60)), AckOutcome::PartialAck);
        let seg2 = s.next_segment().unwrap();
        assert!(seg2.retransmission);
        assert_eq!(seg2.start, MSS);
    }

    #[test]
    fn rto_collapses_window() {
        let mut s = TcpSender::new();
        s.app_write(100_000);
        drain_window(&mut s, SimTime::ZERO);
        assert!(s.on_rto());
        assert_eq!(s.cwnd_bytes(), MSS);
        assert_eq!(s.timeouts(), 1);
        let seg = s.next_segment().unwrap();
        assert!(seg.retransmission);
        assert_eq!(seg.start, 0);
        // Backoff doubles the effective RTO.
        let rto1 = s.current_rto();
        s.mark_sent(seg, SimTime::ZERO);
        s.on_rto();
        assert_eq!(s.current_rto().as_micros(), (rto1.as_micros() * 2).min(MAX_RTO.as_micros()));
    }

    #[test]
    fn rto_without_outstanding_data_is_noop() {
        let mut s = TcpSender::new();
        assert!(!s.on_rto());
        assert_eq!(s.timeouts(), 0);
    }

    #[test]
    fn rtt_estimation_updates_rto() {
        let mut s = TcpSender::new();
        s.app_write(MSS);
        let seg = s.next_segment().unwrap();
        s.mark_sent(seg, SimTime::ZERO);
        s.on_ack(MSS, SimTime::from_millis(80));
        let srtt = s.srtt().expect("sample taken");
        assert_eq!(srtt, SimDuration::from_millis(80));
        // RTO = srtt + 4*max(rttvar,1ms) = 80 + 4*40 = 240 ms.
        assert_eq!(s.current_rto(), SimDuration::from_millis(240));
    }

    #[test]
    fn karn_poisons_rtt_after_retransmission() {
        let mut s = TcpSender::new();
        s.app_write(10 * MSS);
        drain_window(&mut s, SimTime::ZERO);
        s.on_rto();
        let seg = s.next_segment().unwrap();
        s.mark_sent(seg, SimTime::from_millis(500));
        // The ACK covers the probe but the sample is ambiguous → no srtt.
        s.on_ack(MSS, SimTime::from_millis(600));
        assert!(s.srtt().is_none());
    }

    #[test]
    fn all_acked_tracks_completion() {
        let mut s = TcpSender::new();
        s.app_write(3000);
        assert!(!s.all_acked());
        drain_window(&mut s, SimTime::ZERO);
        s.on_ack(3000, SimTime::from_millis(10));
        assert!(s.all_acked());
    }

    // ----- receiver -----

    #[test]
    fn receiver_in_order_delivery() {
        let mut r = TcpReceiver::new();
        let o = r.on_segment(0, 1460);
        assert_eq!((o.ack, o.newly_delivered), (1460, 1460));
        assert!(o.sack.as_slice().is_empty());
        let o = r.on_segment(1460, 2000);
        assert_eq!((o.ack, o.newly_delivered), (2000, 540));
        assert_eq!(r.delivered(), 2000);
    }

    #[test]
    fn receiver_out_of_order_buffers_and_drains() {
        let mut r = TcpReceiver::new();
        // Segment 2 arrives first: dup-ACK for 0, nothing delivered.
        let o = r.on_segment(1460, 2920);
        assert_eq!((o.ack, o.newly_delivered), (0, 0));
        assert_eq!(o.sack.as_slice(), &[(1460, 2920)], "dup-ack advertises the buffered range");
        assert_eq!(r.buffered(), 1460);
        // Hole fills: both segments deliver at once.
        let o = r.on_segment(0, 1460);
        assert_eq!((o.ack, o.newly_delivered), (2920, 2920));
        assert!(o.sack.as_slice().is_empty());
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn receiver_ignores_duplicates() {
        let mut r = TcpReceiver::new();
        r.on_segment(0, 1460);
        let o = r.on_segment(0, 1460);
        assert_eq!((o.ack, o.newly_delivered), (1460, 0));
        // Partial overlap delivers only the new part.
        let o = r.on_segment(1000, 2000);
        assert_eq!((o.ack, o.newly_delivered), (2000, 540));
    }

    #[test]
    fn receiver_merges_ooo_ranges() {
        let mut r = TcpReceiver::new();
        r.on_segment(2920, 4380); // third segment
        r.on_segment(1460, 2920); // second segment — adjacent, must merge
        assert_eq!(r.buffered(), 2920);
        let o = r.on_segment(0, 1460);
        assert_eq!(o.ack, 4380);
        assert_eq!(o.newly_delivered, 4380);
    }

    #[test]
    fn receiver_multiple_holes() {
        let mut r = TcpReceiver::new();
        r.on_segment(1460, 2920);
        r.on_segment(4380, 5840);
        assert_eq!(r.buffered(), 2920);
        let o = r.on_segment(0, 1460);
        // Only the first hole closes; the second range stays buffered.
        assert_eq!(o.ack, 2920);
        assert_eq!(r.buffered(), 1460);
        let o = r.on_segment(2920, 4380);
        assert_eq!(o.ack, 5840);
        assert_eq!(r.buffered(), 0);
    }

    // ----- range set against the BTreeMap reference -----

    use std::collections::BTreeMap;

    use eyeorg_stats::rng::Rng;

    /// The reference semantics: the `BTreeMap` scoreboard and reassembly
    /// buffer the sender and receiver used before [`RangeSet`].
    #[derive(Debug, Clone, Default)]
    struct MapRanges(BTreeMap<u64, u64>);

    impl MapRanges {
        fn insert(&mut self, mut start: u64, mut end: u64) -> u64 {
            let overlapping: Vec<u64> = self
                .0
                .range(..=end)
                .filter(|&(&s, &e)| e >= start && s <= end)
                .map(|(&s, _)| s)
                .collect();
            let mut covered = 0u64;
            for s in overlapping {
                let e = self.0.remove(&s).unwrap();
                covered += e.min(end).saturating_sub(s.max(start));
                start = start.min(s);
                end = end.max(e);
            }
            self.0.insert(start, end);
            covered
        }
        fn prune_below(&mut self, una: u64) {
            self.0.retain(|_, e| *e > una);
        }
        fn drain_through(&mut self, mut rcv_nxt: u64) -> u64 {
            while let Some((&s, &e)) = self.0.range(..=rcv_nxt).next_back() {
                if e <= rcv_nxt {
                    self.0.remove(&s);
                    continue;
                }
                if s <= rcv_nxt {
                    rcv_nxt = e;
                    self.0.remove(&s);
                } else {
                    break;
                }
            }
            rcv_nxt
        }
        fn skip_past(&self, seq: u64) -> Option<u64> {
            self.0
                .range(..=seq)
                .next_back()
                .filter(|&(&s, &e)| s <= seq && seq < e)
                .map(|(_, &e)| e)
        }
        fn next_block_start(&self, seq: u64) -> Option<u64> {
            self.0.range(seq + 1..).next().map(|(&s, _)| s)
        }
        fn max_end(&self) -> Option<u64> {
            self.0.values().max().copied()
        }
        fn ranges(&self) -> Vec<(u64, u64)> {
            self.0.iter().map(|(&s, &e)| (s, e)).collect()
        }
    }

    /// A random point on a 500-byte grid (so ranges often touch or share
    /// an edge), sometimes nudged off it.
    fn point(rng: &mut Rng, base: u64) -> u64 {
        let p = base + 500 * rng.below(60);
        if rng.below(4) == 0 {
            p + rng.below(500)
        } else {
            p
        }
    }

    /// Drive [`RangeSet`] and the map reference through seeded random
    /// sequences of every operation the sender and receiver use, and
    /// demand identical ranges, covered-byte counts and answers.
    #[test]
    fn range_set_matches_btreemap_reference() {
        let mut ops = [0u32; 4];
        for seed in 0u64..16 {
            let mut rng = Rng::seed_from_u64(0x5ACC + seed);
            let mut set = RangeSet::default();
            let mut map = MapRanges::default();
            // The cumulative point: prunes and drains only move it forward.
            let mut una = 0u64;
            for step in 0..3_000 {
                let what = format!("seed={seed} step={step}");
                match rng.below(10) {
                    0..=4 => {
                        let start = point(&mut rng, una);
                        let end = start + 1 + rng.below(4) * 500 + rng.below(2) * rng.below(500);
                        let (at, covered) = set.insert_range(start, end);
                        assert_eq!(covered, map.insert(start, end), "{what}");
                        let r = set.as_slice()[at];
                        assert!(r.0 <= start && end <= r.1, "{what}: merged range {r:?}");
                        ops[0] += 1;
                    }
                    5 => {
                        una = point(&mut rng, una).min(una + 2_000);
                        set.prune_below(una);
                        map.prune_below(una);
                        ops[1] += 1;
                    }
                    6 => {
                        let seq = point(&mut rng, una).min(una + 3_000);
                        una = set.drain_through(seq);
                        assert_eq!(una, map.drain_through(seq), "{what}");
                        ops[2] += 1;
                    }
                    _ => {
                        let seq = point(&mut rng, una.saturating_sub(1_000));
                        assert_eq!(set.skip_past(seq), map.skip_past(seq), "{what}");
                        let next = set.next_block_start(seq);
                        assert_eq!(next, map.next_block_start(seq), "{what}");
                        ops[3] += 1;
                    }
                }
                assert_eq!(set.as_slice(), map.ranges().as_slice(), "{what}");
                assert_eq!(set.max_end(), map.max_end(), "{what}");
                assert_eq!(set.is_empty(), map.0.is_empty(), "{what}");
                let bytes: u64 = map.0.iter().map(|(s, e)| e - s).sum();
                assert_eq!(set.covered(), bytes, "{what}");
            }
        }
        assert!(ops.iter().all(|&n| n > 2_000), "inserts, prunes, drains, queries: {ops:?}");
    }

    /// The receiver before [`RangeSet`]: a `BTreeMap` buffer, and SACK
    /// rotation through collected `Vec`s.
    #[derive(Default)]
    struct MapReceiver {
        rcv_nxt: u64,
        ooo: MapRanges,
        sack_rotate: usize,
    }

    impl MapReceiver {
        fn blocks(ranges: &[(u64, u64)]) -> Vec<(u64, u64)> {
            ranges.iter().take(3).copied().collect()
        }

        fn on_segment(&mut self, start: u64, end: u64) -> (u64, u64, Vec<(u64, u64)>) {
            let before = self.rcv_nxt;
            if end <= self.rcv_nxt {
                return (self.rcv_nxt, 0, Self::blocks(&self.ooo.ranges()));
            }
            let start = start.max(self.rcv_nxt);
            if start > self.rcv_nxt {
                self.ooo.insert(start, end);
                let recent = self.ooo.0.range(..=start).next_back().map(|(&s, &e)| (s, e)).unwrap();
                let others: Vec<(u64, u64)> =
                    self.ooo.ranges().into_iter().filter(|r| *r != recent).collect();
                let mut blocks = vec![recent];
                if !others.is_empty() {
                    for k in 0..2usize.min(others.len()) {
                        blocks.push(others[(self.sack_rotate + k) % others.len()]);
                    }
                    self.sack_rotate = (self.sack_rotate + 2) % others.len();
                }
                return (self.rcv_nxt, 0, blocks);
            }
            self.rcv_nxt = self.ooo.drain_through(end);
            (self.rcv_nxt, self.rcv_nxt - before, Self::blocks(&self.ooo.ranges()))
        }
    }

    /// Feed [`TcpReceiver`] and the map receiver the same seeded
    /// arrivals of a lossy, reordering transfer — holes, retransmissions,
    /// duplicates and partial overlaps — and demand identical ACKs,
    /// deliveries, SACK blocks (rotation included) and buffer sizes.
    #[test]
    fn receiver_matches_btreemap_reference() {
        let mut max_blocks = 0;
        for seed in 0u64..16 {
            let mut rng = Rng::seed_from_u64(0xACC + seed);
            let mut r = TcpReceiver::new();
            let mut reference = MapReceiver::default();
            let total = 400 * MSS;
            for step in 0..4_000 {
                // Mostly near the cumulative point, sometimes far ahead
                // (a burst past a hole) or behind it (a duplicate).
                let base = r.delivered();
                let start = match rng.below(8) {
                    0 => base.saturating_sub(rng.below(3 * MSS)),
                    1..=4 => base + MSS * rng.below(12),
                    _ => base + rng.below(40 * MSS),
                }
                .min(total - 1);
                let end = (start + 1 + rng.below(MSS)).min(total);
                let got = r.on_segment(start, end);
                let (ack, newly, blocks) = reference.on_segment(start, end);
                let what = format!("seed={seed} step={step} [{start}, {end})");
                assert_eq!((got.ack, got.newly_delivered), (ack, newly), "{what}");
                assert_eq!(got.sack.as_slice(), blocks.as_slice(), "{what}");
                assert_eq!(
                    r.buffered(),
                    reference.ooo.0.iter().map(|(s, e)| e - s).sum::<u64>(),
                    "{what}"
                );
                max_blocks = max_blocks.max(blocks.len());
            }
        }
        assert_eq!(max_blocks, 3, "rotation must advertise three blocks");
    }
}
