//! HTTP/2 multiplexing building blocks.
//!
//! HTTP/2 runs every request to an origin over one TCP connection as
//! prioritised *streams* whose DATA frames interleave. The pieces that
//! matter to the paper's H1-vs-H2 campaign:
//!
//! * **one slow start** shared by all requests (faster for many small
//!   objects, but a single loss event stalls everything — transport-level
//!   head-of-line blocking);
//! * **prioritised interleaving** — critical resources get the
//!   connection's bandwidth first ([`H2Scheduler`], strict priority by
//!   stream weight, FIFO within a weight);
//! * **HPACK** header compression ([`crate::hpack`]);
//! * **framing overhead** — 9 bytes per frame, ≤16 KiB payloads.
//!
//! The server's write order is decided incrementally: the engine keeps at
//! most a write-window of bytes inside the transport and tops it up from
//! the scheduler as delivery progresses, which is what lets a
//! late-arriving high-priority response overtake a bulky low-priority one
//! mid-flight (as a real server's bounded socket buffer does).
//!
//! [`ChunkMap`] records the composition of the connection's downlink byte
//! stream so cumulative delivery from the transport can be attributed
//! back to individual streams.

use std::collections::VecDeque;

use crate::request::RequestId;

/// Maximum DATA/HEADERS frame payload (RFC 7540 default `SETTINGS_MAX_FRAME_SIZE`).
pub const MAX_FRAME_PAYLOAD: u64 = 16_384;

/// Bytes of frame header per frame.
pub const FRAME_OVERHEAD: u64 = 9;

/// What part of a response a chunk carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkKind {
    /// Response HEADERS block bytes.
    Header,
    /// Response DATA bytes.
    Body,
}

/// One scheduled frame in the downlink stream: `overhead` bytes of frame
/// header followed by `payload` bytes belonging to `id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Stream (request) the payload belongs to.
    pub id: RequestId,
    /// Frame-header bytes preceding the payload.
    pub overhead: u64,
    /// Payload bytes.
    pub payload: u64,
    /// Header or body payload.
    pub kind: ChunkKind,
}

/// A send-side stream with response data still to be written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct H2SendStream {
    /// Stream identity.
    pub id: RequestId,
    /// HEADERS block bytes not yet written (HPACK-compressed size).
    pub header_remaining: u64,
    /// Body bytes not yet written.
    pub body_remaining: u64,
    /// Stream weight (from [`crate::request::Priority::h2_weight`]).
    pub weight: u32,
}

impl H2SendStream {
    /// A stream ready to send `header` + `body` bytes at `weight`.
    pub fn new(id: RequestId, header: u64, body: u64, weight: u32) -> H2SendStream {
        H2SendStream { id, header_remaining: header, body_remaining: body, weight }
    }

    fn remaining(&self) -> u64 {
        self.header_remaining + self.body_remaining
    }
}

/// Prioritised scheduler over the ready streams of one connection.
///
/// Chrome (the browser webpeg drove) builds *exclusive dependency
/// chains*: within a priority class, each stream depends on the one
/// before it, so servers serve same-priority responses **sequentially in
/// request order** and higher classes pre-empt lower ones entirely. The
/// scheduler reproduces exactly that: strict priority by weight, FIFO
/// within a weight class, one ≤16 KiB frame at a time. (Fair round-robin
/// within a class — what a weight-only reading of RFC 7540 produces —
/// makes every image finish simultaneously late and erases HTTP/2's
/// time-to-content advantage; Chrome's chains exist precisely to avoid
/// that.)
///
/// Only streams with unwritten bytes are kept, already in service order:
/// by weight, highest first, and in the order they were added within a
/// weight. A new stream is inserted behind its weight class, the next
/// frame always comes from the front stream, and a drained stream is
/// popped, so picking a frame costs the same however many streams wait.
#[derive(Debug, Clone, Default)]
pub struct H2Scheduler {
    streams: VecDeque<H2SendStream>,
}

impl H2Scheduler {
    /// An empty scheduler.
    pub fn new() -> H2Scheduler {
        H2Scheduler::default()
    }

    /// Register a stream with response bytes ready at the server.
    pub fn add_stream(&mut self, stream: H2SendStream) {
        if stream.remaining() > 0 {
            let at = self.streams.partition_point(|s| s.weight >= stream.weight);
            self.streams.insert(at, stream);
        }
    }

    /// Whether any stream still has unwritten bytes.
    pub fn has_pending(&self) -> bool {
        !self.streams.is_empty()
    }

    /// Total unwritten bytes across streams.
    pub fn pending_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.remaining()).sum()
    }

    /// Produce the next frame, with payload capped at `max_payload`
    /// (usually the remaining write window). Returns `None` when nothing
    /// is pending or `max_payload` is zero.
    ///
    /// Headers always precede body bytes within a stream, and a frame
    /// never mixes the two (HEADERS and DATA are distinct frame types).
    pub fn next_chunk(&mut self, max_payload: u64) -> Option<Chunk> {
        if max_payload == 0 {
            return None;
        }
        let s = self.streams.front_mut()?;
        let chunk = if s.header_remaining > 0 {
            let payload = s.header_remaining.min(max_payload.max(1)).min(MAX_FRAME_PAYLOAD);
            s.header_remaining -= payload;
            Chunk { id: s.id, overhead: FRAME_OVERHEAD, payload, kind: ChunkKind::Header }
        } else {
            let payload = s.body_remaining.min(max_payload).min(MAX_FRAME_PAYLOAD);
            s.body_remaining -= payload;
            Chunk { id: s.id, overhead: FRAME_OVERHEAD, payload, kind: ChunkKind::Body }
        };
        if s.remaining() == 0 {
            self.streams.pop_front();
        }
        Some(chunk)
    }
}

/// Attribution result for newly delivered downlink bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Stream receiving payload.
    pub id: RequestId,
    /// Payload kind.
    pub kind: ChunkKind,
    /// Newly delivered payload bytes of this chunk (excludes framing).
    pub payload_delta: u64,
}

/// The composition of a connection's downlink byte stream, in write
/// order, used to map cumulative transport delivery back to streams.
#[derive(Debug, Clone, Default)]
pub struct ChunkMap {
    chunks: VecDeque<Chunk>,
    /// Absolute stream offset up to which bytes have been attributed.
    attributed: u64,
    /// Absolute offset at which the current front chunk began.
    front_start: u64,
}

impl ChunkMap {
    /// An empty map.
    pub fn new() -> ChunkMap {
        ChunkMap::default()
    }

    /// Record a chunk appended to the downlink stream. Returns the chunk's
    /// total on-wire size (overhead + payload) for the caller to hand to
    /// the transport.
    pub fn push(&mut self, chunk: Chunk) -> u64 {
        let size = chunk.overhead + chunk.payload;
        self.chunks.push_back(chunk);
        size
    }

    /// Attribute delivery progress: `total` is the cumulative downlink
    /// bytes the transport has delivered in order. Replaces the contents
    /// of `out` (a buffer the caller reuses) with per-stream payload
    /// deltas in stream order.
    pub fn advance(&mut self, total: u64, out: &mut Vec<Delivery>) {
        out.clear();
        while self.attributed < total {
            let Some(front) = self.chunks.front().copied() else { break };
            let chunk_end = self.front_start + front.overhead + front.payload;
            let payload_start = self.front_start + front.overhead;
            let upto = total.min(chunk_end);
            // Payload delivered within this chunk so far vs before.
            let prev_payload = self.attributed.saturating_sub(payload_start);
            let now_payload = upto.saturating_sub(payload_start);
            let delta = now_payload - prev_payload;
            if delta > 0 {
                // Coalesce with a preceding delta for the same stream/kind.
                match out.last_mut() {
                    Some(d) if d.id == front.id && d.kind == front.kind => d.payload_delta += delta,
                    _ => {
                        out.push(Delivery { id: front.id, kind: front.kind, payload_delta: delta })
                    }
                }
            }
            self.attributed = upto;
            if upto == chunk_end {
                self.front_start = chunk_end;
                self.chunks.pop_front();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeorg_stats::rng::Rng;

    fn advance(m: &mut ChunkMap, total: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        m.advance(total, &mut out);
        out
    }

    #[test]
    fn scheduler_headers_before_body() {
        let mut s = H2Scheduler::new();
        s.add_stream(H2SendStream::new(RequestId(1), 100, 5000, 16));
        let c1 = s.next_chunk(u64::MAX).unwrap();
        assert_eq!(c1.kind, ChunkKind::Header);
        assert_eq!(c1.payload, 100);
        let c2 = s.next_chunk(u64::MAX).unwrap();
        assert_eq!(c2.kind, ChunkKind::Body);
    }

    #[test]
    fn scheduler_strict_priority_preempts() {
        let mut s = H2Scheduler::new();
        s.add_stream(H2SendStream::new(RequestId(1), 0, 100_000, 4)); // low class first
        s.add_stream(H2SendStream::new(RequestId(2), 0, 100_000, 32)); // high class
        let mut first_done_order = Vec::new();
        let mut remaining = [100_000u64; 2];
        while let Some(c) = s.next_chunk(u64::MAX) {
            let i = (c.id.0 - 1) as usize;
            remaining[i] -= c.payload;
            if remaining[i] == 0 {
                first_done_order.push(c.id);
            }
        }
        // The heavier stream finishes entirely before the lighter one
        // gets a byte of further service.
        assert_eq!(first_done_order, vec![RequestId(2), RequestId(1)]);
    }

    #[test]
    fn scheduler_fifo_within_class() {
        let mut s = H2Scheduler::new();
        s.add_stream(H2SendStream::new(RequestId(1), 0, 50_000, 6));
        s.add_stream(H2SendStream::new(RequestId(2), 0, 50_000, 6));
        // All of stream 1's frames precede stream 2's (exclusive chain).
        let mut seen2 = false;
        while let Some(c) = s.next_chunk(u64::MAX) {
            if c.id == RequestId(2) {
                seen2 = true;
            } else {
                assert!(!seen2, "stream 1 frame after stream 2 started");
            }
        }
    }

    #[test]
    fn scheduler_respects_frame_and_window_caps() {
        let mut s = H2Scheduler::new();
        s.add_stream(H2SendStream::new(RequestId(1), 0, 1_000_000, 32));
        let c = s.next_chunk(u64::MAX).unwrap();
        assert_eq!(c.payload, MAX_FRAME_PAYLOAD);
        let c2 = s.next_chunk(100).unwrap();
        assert!(c2.payload <= 100);
    }

    #[test]
    fn scheduler_drains_exactly() {
        let mut s = H2Scheduler::new();
        s.add_stream(H2SendStream::new(RequestId(1), 50, 300, 8));
        s.add_stream(H2SendStream::new(RequestId(2), 60, 0, 8));
        let mut total = 0;
        while let Some(c) = s.next_chunk(u64::MAX) {
            total += c.payload;
        }
        assert_eq!(total, 50 + 300 + 60);
        assert!(!s.has_pending());
        assert_eq!(s.pending_bytes(), 0);
    }

    #[test]
    fn scheduler_zero_window_returns_none() {
        let mut s = H2Scheduler::new();
        s.add_stream(H2SendStream::new(RequestId(1), 10, 10, 8));
        assert!(s.next_chunk(0).is_none());
    }

    #[test]
    fn chunk_map_attribution_with_overhead() {
        let mut m = ChunkMap::new();
        let sz =
            m.push(Chunk { id: RequestId(1), overhead: 9, payload: 100, kind: ChunkKind::Header });
        assert_eq!(sz, 109);
        // First 5 bytes: all framing, no payload.
        assert!(advance(&mut m, 5).is_empty());
        // Through byte 59: 50 payload bytes.
        let d = advance(&mut m, 59);
        assert_eq!(
            d,
            vec![Delivery { id: RequestId(1), kind: ChunkKind::Header, payload_delta: 50 }]
        );
        // Rest of the chunk.
        let d = advance(&mut m, 109);
        assert_eq!(d[0].payload_delta, 50);
    }

    #[test]
    fn chunk_map_interleaved_streams() {
        let mut m = ChunkMap::new();
        m.push(Chunk { id: RequestId(1), overhead: 9, payload: 100, kind: ChunkKind::Body });
        m.push(Chunk { id: RequestId(2), overhead: 9, payload: 50, kind: ChunkKind::Body });
        m.push(Chunk { id: RequestId(1), overhead: 9, payload: 100, kind: ChunkKind::Body });
        let d = advance(&mut m, 9 + 100 + 9 + 50 + 9 + 10);
        assert_eq!(
            d,
            vec![
                Delivery { id: RequestId(1), kind: ChunkKind::Body, payload_delta: 100 },
                Delivery { id: RequestId(2), kind: ChunkKind::Body, payload_delta: 50 },
                Delivery { id: RequestId(1), kind: ChunkKind::Body, payload_delta: 10 },
            ]
        );
    }

    #[test]
    fn chunk_map_coalesces_same_stream_chunks() {
        let mut m = ChunkMap::new();
        m.push(Chunk { id: RequestId(1), overhead: 0, payload: 10, kind: ChunkKind::Body });
        m.push(Chunk { id: RequestId(1), overhead: 0, payload: 10, kind: ChunkKind::Body });
        let d = advance(&mut m, 20);
        assert_eq!(
            d,
            vec![Delivery { id: RequestId(1), kind: ChunkKind::Body, payload_delta: 20 }]
        );
    }

    #[test]
    fn chunk_map_idempotent_on_stale_totals() {
        let mut m = ChunkMap::new();
        m.push(Chunk { id: RequestId(1), overhead: 9, payload: 10, kind: ChunkKind::Body });
        advance(&mut m, 19);
        assert!(advance(&mut m, 19).is_empty());
        assert!(advance(&mut m, 5).is_empty());
    }

    /// The reference pick: streams in insertion order, and every frame
    /// scans them for the highest weight, earliest added.
    #[derive(Default)]
    struct ScanScheduler {
        streams: Vec<H2SendStream>,
    }

    impl ScanScheduler {
        fn add_stream(&mut self, stream: H2SendStream) {
            if stream.remaining() > 0 {
                self.streams.push(stream);
            }
        }

        fn next_chunk(&mut self, max_payload: u64) -> Option<Chunk> {
            if max_payload == 0 {
                return None;
            }
            let idx = self
                .streams
                .iter()
                .enumerate()
                .max_by(|(ia, a), (ib, b)| a.weight.cmp(&b.weight).then(ib.cmp(ia)))
                .map(|(i, _)| i)?;
            let s = &mut self.streams[idx];
            let chunk = if s.header_remaining > 0 {
                let payload = s.header_remaining.min(max_payload.max(1)).min(MAX_FRAME_PAYLOAD);
                s.header_remaining -= payload;
                Chunk { id: s.id, overhead: FRAME_OVERHEAD, payload, kind: ChunkKind::Header }
            } else {
                let payload = s.body_remaining.min(max_payload).min(MAX_FRAME_PAYLOAD);
                s.body_remaining -= payload;
                Chunk { id: s.id, overhead: FRAME_OVERHEAD, payload, kind: ChunkKind::Body }
            };
            if s.remaining() == 0 {
                self.streams.remove(idx);
            }
            Some(chunk)
        }
    }

    /// Run [`H2Scheduler`] against the linear-scan pick over seeded
    /// streams of mixed weights (the `Priority::h2_weight` classes plus
    /// odd ones), added before and between frames, with write windows
    /// from zero past the frame cap: the `Chunk` streams must match.
    #[test]
    fn scheduler_matches_linear_scan_reference() {
        const WEIGHTS: [u32; 6] = [256, 96, 50, 24, 6, 1];
        let mut chunks = 0;
        for seed in 0u64..16 {
            let mut rng = Rng::seed_from_u64(0x42 + seed);
            let mut s = H2Scheduler::new();
            let mut reference = ScanScheduler::default();
            let mut next_id = 0;
            for step in 0..2_000 {
                if rng.below(4) == 0 {
                    for _ in 0..=rng.below(3) {
                        let weight = WEIGHTS[rng.below(WEIGHTS.len() as u64) as usize];
                        let header = [0, 20, 300][rng.below(3) as usize];
                        let body = [0, 900, 30_000, 200_000][rng.below(4) as usize];
                        let stream = H2SendStream::new(RequestId(next_id), header, body, weight);
                        next_id += 1;
                        s.add_stream(stream);
                        reference.add_stream(stream);
                    }
                }
                let window = match rng.below(6) {
                    0 => 0,
                    1 => 1 + rng.below(100),
                    2 => 1 + rng.below(2 * MAX_FRAME_PAYLOAD),
                    _ => u64::MAX,
                };
                let got = s.next_chunk(window);
                assert_eq!(got, reference.next_chunk(window), "seed={seed} step={step}");
                chunks += usize::from(got.is_some());
                let pending: u64 = reference.streams.iter().map(H2SendStream::remaining).sum();
                assert_eq!(s.pending_bytes(), pending, "seed={seed} step={step}");
                assert_eq!(s.has_pending(), !reference.streams.is_empty());
            }
        }
        assert!(chunks > 10_000, "{chunks} chunks compared");
    }
}
