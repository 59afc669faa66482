//! The network simulator: connections over a shared access link.
//!
//! [`NetSim`] is the substrate under every page load in this
//! reproduction. It owns one bidirectional access link (the client's
//! bottleneck), any number of TCP connections multiplexed over it, a
//! seeded loss process, and the global event queue. The HTTP engines in
//! `eyeorg-http` drive it through four calls — open a connection, send
//! request bytes up, send response bytes down, and pump events — and
//! observe byte-level progress through [`NetEvent`]s.
//!
//! ## Fidelity notes
//!
//! * Response (downlink) segments experience congestion control, loss and
//!   drop-tail queueing — this is where the HTTP/1.1-vs-HTTP/2 differences
//!   the paper measures come from.
//! * Request (uplink) bytes and ACKs are serialised through the uplink
//!   queue but are not subject to loss or congestion control: requests in
//!   the studied workloads are a few hundred bytes, far below any
//!   uplink's congestion point, and modelling their loss would add noise
//!   without changing any conclusion (documented substitution).
//! * Handshake packets (TCP + TLS legs) are likewise lossless; their
//!   contribution is the round trips, which are modelled through the real
//!   queues so queueing delay still applies.
//!
//! A simulator is plain data: it tallies its own `net.*` obs counters
//! (see [`NetSim::fold_counters`]) and can be cloned mid-run, which is
//! how the browser shares the common prefix of repeated loads.

use std::collections::VecDeque;

use eyeorg_obs::metrics as obs;
use eyeorg_stats::Seed;

use crate::event::EventQueue;
use crate::link::{LinkQueue, Transmit};
use crate::loss::LossProcess;
use crate::profile::{NetworkProfile, TlsMode};
use crate::qlog::{ConnEvent, ConnLog};
use crate::tcp::{SackBlocks, TcpReceiver, TcpSender, HEADER_BYTES, MSS};
use crate::time::{SimDuration, SimTime};

/// Wire size of a handshake packet (SYN/SYNACK/TLS flight, abstracted).
const HANDSHAKE_PACKET_BYTES: u64 = 66;

/// Wire size of a bare ACK.
const ACK_BYTES: u64 = HEADER_BYTES + 26;

/// Event-queue lane of arrivals at the client end of the downlink.
/// [`LinkQueue::offer`] delivers FIFO behind a constant propagation
/// delay, so each direction's arrival times never decrease.
const DOWN: usize = 0;

/// Event-queue lane of arrivals at the server end of the uplink.
const UP: usize = 1;

/// Identifier of a connection within one [`NetSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub usize);

/// Application-visible events surfaced by [`NetSim::next_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// The connection finished its TCP (+TLS) handshake; the client may
    /// now send requests.
    Established {
        /// The connection that became usable.
        conn: ConnId,
    },
    /// Cumulative request bytes that have arrived at the server.
    RequestDelivered {
        /// Connection carrying the request.
        conn: ConnId,
        /// Total uplink application bytes delivered so far.
        total_bytes: u64,
    },
    /// Cumulative in-order response bytes available to the client
    /// application (the browser).
    Delivered {
        /// Connection carrying the response.
        conn: ConnId,
        /// Total downlink application bytes delivered in order so far.
        total_bytes: u64,
    },
}

/// Internal simulator events, 16 bytes each, so that a queue entry with
/// its `(time, seq)` key is 32: connection ids are `u32` (`open` keeps
/// every index below `u32::MAX`), and an ACK's SACK blocks wait in its
/// connection's `Conn::sacks` FIFO instead of riding in the event.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Open {
        conn: u32,
    },
    HandshakeLeg {
        conn: u32,
        remaining: u32,
    },
    ClientSend {
        conn: u32,
        bytes: u64,
    },
    ServerSend {
        conn: u32,
        bytes: u64,
    },
    UpDataArrive {
        conn: u32,
        end: u64,
    },
    /// Segment `[start, start + len)` reaches the client; a segment is
    /// at most `MSS` bytes.
    SegArrive {
        conn: u32,
        len: u16,
        start: u64,
    },
    /// A cumulative ACK reaches the server. When `sacked`, its SACK
    /// blocks are the front of the connection's `Conn::sacks`.
    AckArrive {
        conn: u32,
        sacked: bool,
        ack: u64,
    },
    /// Coalesced replay point for a batched lossless burst: fires at the
    /// arrival time of the burst's *last* ACK and applies every deferred
    /// ACK in order (see `BurstPlan`). `generation` tombstones batches
    /// whose plan was flushed early.
    AckBatch {
        conn: u32,
        generation: u64,
    },
    /// The connection's one queued retransmission-timer entry, identified
    /// by its sequence number (see `Conn::rto_entry`).
    RtoCheck {
        conn: u32,
        seq: u64,
    },
}

const _: () = assert!(std::mem::size_of::<Ev>() <= 16);

impl Ev {
    /// Index of the connection the event belongs to.
    fn conn(self) -> usize {
        match self {
            Ev::Open { conn }
            | Ev::HandshakeLeg { conn, .. }
            | Ev::ClientSend { conn, .. }
            | Ev::ServerSend { conn, .. }
            | Ev::UpDataArrive { conn, .. }
            | Ev::SegArrive { conn, .. }
            | Ev::AckArrive { conn, .. }
            | Ev::AckBatch { conn, .. }
            | Ev::RtoCheck { conn, .. } => conn as usize,
        }
    }
}

/// Maximum number of segments coalesced into one batch. Keeps the span
/// guard tight and the deferred state small; bursts beyond this simply
/// run the per-segment path.
const MAX_BATCH_SEGMENTS: usize = 64;

/// A burst's deferred ACKs may span at most this long after the plan was
/// created. Far below TCP's minimum RTO (200 ms), so every RTO check
/// that could observe deferred state is provably stale (a newer rearm
/// always lands first).
const MAX_BATCH_SPAN: SimDuration = SimDuration::from_millis(100);

/// An active lossless-burst batch for one connection.
///
/// Created by `pump` when an application-limited sender put `k >= 2`
/// fresh consecutive segments on an idle path with zero loss draws and
/// nothing else in flight. Each arriving segment of the burst records
/// its ACK `(arrival_time, ack_number)` here instead of scheduling a
/// per-ACK event; when the last segment arrives, one `Ev::AckBatch` at
/// the final ACK's arrival time replays them all against the sender in
/// order, with their original timestamps — byte-identical sender state,
/// `k - 1` fewer event-queue round-trips, and `k - 1` fewer stale
/// `RtoCheck` events (their rearms are folded into epoch bumps).
///
/// Any event that could observe the deferred sender state
/// (`ServerSend`, a live `RtoCheck`, a stray `AckArrive`) *flushes* the
/// plan first: deferred ACKs at or before the current time are applied
/// immediately, later ones are re-materialised as ordinary `AckArrive`
/// events at their exact recorded times.
#[derive(Debug, Clone)]
struct BurstPlan {
    /// Byte ranges still expected to arrive, in order.
    pending_segments: VecDeque<(u64, u64)>,
    /// Recorded ACKs awaiting replay: `(uplink_arrival, ack_number)`.
    acks: VecDeque<(SimTime, u64)>,
    /// Tombstone counter matched against `Ev::AckBatch::generation`.
    generation: u64,
    /// When `pump` created the plan (for the span guard).
    created_at: SimTime,
}

/// The retransmission check armed by the most recent `rearm_rto`: where
/// a per-arm timer model would have queued it, and the `rto_epoch` it
/// belongs to.
#[derive(Debug, Clone, Copy)]
struct ArmedRto {
    deadline: SimTime,
    /// Reserved queue sequence number: the check pops at exactly
    /// `(deadline, seq)`, as a per-arm queue entry would have.
    seq: u64,
    epoch: u64,
}

/// Per-connection bookkeeping around the TCP state machines.
#[derive(Debug, Clone)]
struct Conn {
    sender: TcpSender,
    receiver: TcpReceiver,
    tls: TlsMode,
    established: bool,
    established_at: Option<SimTime>,
    opened_at: SimTime,
    up_sent: u64,
    up_delivered: u64,
    /// Bumped by every rearm and every deferred ACK; a check armed in an
    /// older epoch can no longer fire.
    rto_epoch: u64,
    /// The armed retransmission check, `None` when disarmed.
    rto_armed: Option<ArmedRto>,
    /// The connection's one `Ev::RtoCheck` in the queue, as `(time,
    /// seq)`; always at or before `rto_armed`'s deadline. An entry that
    /// pops early re-queues itself at the armed `(deadline, seq)`, so a
    /// timer re-armed on every ACK costs no queue traffic until it is
    /// about to fire. Queued entries that are no longer this one are
    /// orphans and pop as no-ops.
    rto_entry: Option<(SimTime, u64)>,
    /// Active lossless-burst batch, if any.
    plan: Option<BurstPlan>,
    /// Monotone plan counter; stale `Ev::AckBatch` events carry an older
    /// generation and are ignored.
    plan_generation: u64,
    /// SACK blocks of the queued `Ev::AckArrive { sacked: true }` events,
    /// in send order. A connection's ACKs cross one FIFO uplink, so they
    /// pop in the order they were sent and each finds its blocks at the
    /// front.
    sacks: VecDeque<SackBlocks>,
    log: Option<ConnLog>,
}

/// Public per-connection statistics (for HARs and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnStats {
    /// When `open` was called.
    pub opened_at: SimTime,
    /// When the handshake completed (None if still connecting).
    pub established_at: Option<SimTime>,
    /// Segments the server sent, including retransmissions.
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// RTO events.
    pub timeouts: u64,
    /// In-order response bytes delivered to the client.
    pub bytes_delivered: u64,
}

/// A simulator's tallies of the `net.*` obs counters (declared in
/// `eyeorg_obs::metrics`), in the order listed there.
#[derive(Debug, Clone, Copy, Default)]
struct NetCounters {
    events_processed: u64,
    segments_sent: u64,
    retransmissions: u64,
    drops_random_loss: u64,
    drops_queue: u64,
    bursts_batched: u64,
    burst_flushes: u64,
}

/// A deterministic network simulation over one access link.
#[derive(Debug, Clone)]
pub struct NetSim {
    profile: NetworkProfile,
    downlink: LinkQueue,
    uplink: LinkQueue,
    loss: LossProcess,
    conns: Vec<Conn>,
    /// Link arrivals go on the `DOWN` and `UP` lanes; timers, opens,
    /// sends and flushed ACKs go on the heap.
    queue: EventQueue<Ev, 2>,
    out: VecDeque<(SimTime, NetEvent)>,
    logging: bool,
    /// Coalesce lossless bursts into one ACK-replay event (default on).
    /// The `false` path is the per-segment reference implementation the
    /// equivalence tests compare against.
    batching: bool,
    /// Internal events popped since construction.
    /// `batching_equivalence::batching_reduces_event_count` checks that
    /// the batched path pops fewer than the per-segment one.
    pops: u64,
    counters: NetCounters,
    /// `pump`'s candidate burst, kept to reuse its allocation.
    burst: Vec<(u64, u64)>,
}

impl NetSim {
    /// Create a simulator for the given access-link profile. All
    /// randomness (currently the loss process) derives from `seed`.
    pub fn new(profile: NetworkProfile, seed: Seed) -> NetSim {
        let one_way = profile.one_way_delay();
        NetSim {
            downlink: LinkQueue::new(profile.down_bps, one_way, profile.queue_limit),
            // Uplink carries only small requests/ACKs; give it a deep
            // buffer so drop-tail never applies (see module docs).
            uplink: LinkQueue::new(profile.up_bps, one_way, usize::MAX / 2),
            loss: NetSim::loss_process(&profile, seed),
            conns: Vec::new(),
            queue: EventQueue::new(),
            out: VecDeque::new(),
            logging: false,
            batching: true,
            pops: 0,
            counters: NetCounters::default(),
            burst: Vec::new(),
            profile,
        }
    }

    /// The loss process a simulator created by `NetSim::new(profile,
    /// seed)` starts with.
    pub fn loss_process(profile: &NetworkProfile, seed: Seed) -> LossProcess {
        LossProcess::new(profile.loss, seed)
    }

    /// The configured profile.
    pub fn profile(&self) -> &NetworkProfile {
        &self.profile
    }

    /// Enable or disable qlog-style event logging for connections opened
    /// *after* this call.
    pub fn set_logging(&mut self, on: bool) {
        self.logging = on;
    }

    /// Enable or disable lossless-burst batching (default: enabled).
    /// Disabling selects the per-segment reference path; both paths
    /// produce identical [`NetEvent`] traces, statistics and logs — the
    /// `batching_equivalence` tests verify this.
    pub fn set_burst_batching(&mut self, on: bool) {
        self.batching = on;
    }

    /// Internal simulator events popped since construction. The
    /// `net.events_processed` counter is larger: it also counts the
    /// retransmission checks a re-arm retired without queueing them.
    pub fn events_processed(&self) -> u64 {
        self.pops
    }

    /// Add this simulator's `net.*` counter tallies to the obs registry
    /// (once per simulation: the tallies are totals).
    pub fn fold_counters(&self) {
        let c = self.counters;
        obs::NET_EVENTS_PROCESSED.add(c.events_processed);
        obs::NET_SEGMENTS_SENT.add(c.segments_sent);
        obs::NET_RETRANSMISSIONS.add(c.retransmissions);
        obs::NET_DROPS_RANDOM_LOSS.add(c.drops_random_loss);
        obs::NET_DROPS_QUEUE.add(c.drops_queue);
        obs::NET_BURSTS_BATCHED.add(c.bursts_batched);
        obs::NET_BURST_FLUSHES.add(c.burst_flushes);
    }

    /// Loss draws made so far: one per data segment sent.
    pub fn loss_draws(&self) -> u64 {
        self.loss.draws()
    }

    /// Replace the loss process. Every later segment's fate comes from
    /// `loss`; a run whose past draws agree with `loss`'s own past
    /// draws continues exactly as if `loss` had been there from the
    /// start.
    pub fn replace_loss(&mut self, loss: LossProcess) {
        self.loss = loss;
    }

    /// Number of connections opened so far; their ids are
    /// `ConnId(0)..ConnId(conn_count())` in open order.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Take (consume) the event log of a connection; `None` when logging
    /// was off when it was opened.
    pub fn take_log(&mut self, conn: ConnId) -> Option<ConnLog> {
        self.conns[conn.0].log.take()
    }

    /// Current simulation time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Earliest pending internal event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Open a connection at time `at` (≥ the current watermark). The
    /// handshake (1 RTT for TCP plus [`TlsMode::extra_round_trips`]) runs
    /// through the link queues; an [`NetEvent::Established`] fires when
    /// the client may transmit.
    pub fn open(&mut self, at: SimTime, tls: TlsMode) -> ConnId {
        let idx = self.conns.len();
        assert!(idx < u32::MAX as usize, "connection ids are u32");
        self.conns.push(Conn {
            sender: TcpSender::new(),
            receiver: TcpReceiver::new(),
            tls,
            established: false,
            established_at: None,
            opened_at: at,
            up_sent: 0,
            up_delivered: 0,
            rto_epoch: 0,
            rto_armed: None,
            rto_entry: None,
            plan: None,
            plan_generation: 0,
            sacks: VecDeque::new(),
            log: self.logging.then(ConnLog::default),
        });
        self.queue.schedule(at, Ev::Open { conn: idx as u32 });
        ConnId(idx)
    }

    /// Queue `bytes` of request data from client to server at time `at`.
    /// The connection must be established by then (the caller reacts to
    /// [`NetEvent::Established`], so this is natural); bytes sent on an
    /// unestablished connection are delivered only after establishment.
    pub fn client_send(&mut self, conn: ConnId, at: SimTime, bytes: u64) {
        assert!(bytes > 0, "client_send of zero bytes");
        self.queue.schedule(at, Ev::ClientSend { conn: conn.0 as u32, bytes });
    }

    /// Queue `bytes` of response data from server to client at time `at`.
    pub fn server_send(&mut self, conn: ConnId, at: SimTime, bytes: u64) {
        assert!(bytes > 0, "server_send of zero bytes");
        self.queue.schedule(at, Ev::ServerSend { conn: conn.0 as u32, bytes });
    }

    /// Statistics snapshot for a connection.
    pub fn conn_stats(&self, conn: ConnId) -> ConnStats {
        let c = &self.conns[conn.0];
        ConnStats {
            opened_at: c.opened_at,
            established_at: c.established_at,
            segments_sent: c.sender.segments_sent(),
            retransmissions: c.sender.retransmissions(),
            timeouts: c.sender.timeouts(),
            bytes_delivered: c.receiver.delivered(),
        }
    }

    /// Advance the simulation until the next application-visible event
    /// and return it, or `None` when the simulation has quiesced.
    pub fn next_event(&mut self) -> Option<(SimTime, NetEvent)> {
        self.next_event_until(SimTime::from_micros(u64::MAX))
    }

    /// Like [`NetSim::next_event`], but refuses to process internal events
    /// later than `limit`. Returns `None` once the next pending internal
    /// event (if any) lies beyond `limit`, leaving it queued.
    ///
    /// Layers above the simulator (the HTTP engines) keep their own timed
    /// actions (server think time, scheduler wake-ups); this bound lets
    /// them interleave those actions without the simulator racing past
    /// the time at which the layer above still intends to inject work.
    pub fn next_event_until(&mut self, limit: SimTime) -> Option<(SimTime, NetEvent)> {
        loop {
            if let Some(ev) = self.out.pop_front() {
                return Some(ev);
            }
            let Some((now, ev)) = self.queue.pop_until(limit) else {
                debug_assert!(
                    !self.queue.is_empty() || self.conns.iter().all(|c| c.sacks.is_empty()),
                    "SACK blocks left behind at quiescence"
                );
                return None;
            };
            self.process(now, ev);
        }
    }

    /// Run the simulation to quiescence, discarding events. Useful in
    /// tests that only inspect final statistics.
    pub fn run_to_quiescence(&mut self) {
        while self.next_event().is_some() {}
    }

    // ------------------------------------------------------------------
    // Internal event processing
    // ------------------------------------------------------------------

    fn process(&mut self, now: SimTime, ev: Ev) {
        self.pops += 1;
        // Retransmission checks count when they fire or are retired (see
        // `retire_rto`), not when a queue entry pops.
        if !matches!(ev, Ev::RtoCheck { .. }) {
            self.counters.events_processed += 1;
        }
        // Events that touch the sender while a burst plan is deferring
        // its ACKs must see the exact reference state: flush first.
        // (`RtoCheck` defers the flush until after its staleness test —
        // any check that can pop mid-plan was armed before the burst's
        // own rearm and is therefore stale on both paths.)
        let conn = ev.conn();
        match ev {
            Ev::ServerSend { .. } | Ev::AckArrive { .. } if self.conns[conn].plan.is_some() => {
                self.flush_plan(conn, now);
            }
            _ => {}
        }
        match ev {
            Ev::Open { conn: id } => {
                // First handshake leg: client → server.
                let total_legs = 2 * (1 + self.conns[conn].tls.extra_round_trips());
                let arrival = self.up_transmit(now, HANDSHAKE_PACKET_BYTES);
                self.queue.schedule_lane(
                    UP,
                    arrival,
                    Ev::HandshakeLeg { conn: id, remaining: total_legs - 1 },
                );
            }
            Ev::HandshakeLeg { conn: id, remaining } => {
                if remaining == 0 {
                    let c = &mut self.conns[conn];
                    c.established = true;
                    c.established_at = Some(now);
                    if let Some(log) = &mut c.log {
                        log.push(now, ConnEvent::Established);
                    }
                    // Flush any request bytes queued before establishment.
                    let pending = c.up_sent - c.up_delivered;
                    let delivered = c.up_delivered;
                    self.out.push_back((now, NetEvent::Established { conn: ConnId(conn) }));
                    if pending > 0 {
                        self.up_send_chunks(conn, now, delivered, pending);
                    }
                    return;
                }
                // Legs alternate: odd remaining counts left → next leg is
                // downlink if the leg count left is odd (server replies),
                // uplink otherwise.
                let is_down = remaining % 2 == 1;
                let (lane, arrival) = if is_down {
                    (DOWN, self.down_transmit_lossless(now, HANDSHAKE_PACKET_BYTES))
                } else {
                    (UP, self.up_transmit(now, HANDSHAKE_PACKET_BYTES))
                };
                self.queue.schedule_lane(
                    lane,
                    arrival,
                    Ev::HandshakeLeg { conn: id, remaining: remaining - 1 },
                );
            }
            Ev::ClientSend { bytes, .. } => {
                let start = self.conns[conn].up_sent;
                self.conns[conn].up_sent += bytes;
                if self.conns[conn].established {
                    self.up_send_chunks(conn, now, start, bytes);
                }
                // Otherwise the handshake-completion path flushes it.
            }
            Ev::UpDataArrive { end, .. } => {
                let c = &mut self.conns[conn];
                if end > c.up_delivered {
                    c.up_delivered = end;
                    self.out.push_back((
                        now,
                        NetEvent::RequestDelivered { conn: ConnId(conn), total_bytes: end },
                    ));
                }
            }
            Ev::ServerSend { bytes, .. } => {
                self.conns[conn].sender.app_write(bytes);
                self.pump(conn, now);
                self.rearm_rto(conn, now);
            }
            Ev::SegArrive { conn: id, len, start } => {
                let end = start + u64::from(len);
                // A planned burst expects exactly its own segments, in
                // order; anything else observing the wire mid-plan (a
                // retransmission cannot — the plan precludes in-flight
                // strangers — but be defensive) flushes back to the
                // reference path.
                let planned = match &self.conns[conn].plan {
                    Some(p) if p.pending_segments.front() == Some(&(start, end)) => true,
                    Some(_) => {
                        self.flush_plan(conn, now);
                        false
                    }
                    None => false,
                };
                let outcome = self.conns[conn].receiver.on_segment(start, end);
                if outcome.newly_delivered > 0 {
                    self.out.push_back((
                        now,
                        NetEvent::Delivered {
                            conn: ConnId(conn),
                            total_bytes: self.conns[conn].receiver.delivered(),
                        },
                    ));
                }
                // ACK back to the server through the uplink.
                let arrival = self.up_transmit(now, ACK_BYTES);
                if planned {
                    // Record the ACK instead of scheduling it; the batch
                    // event (scheduled here for the last segment, at the
                    // same call position the reference would allocate its
                    // AckArrive) replays all of them in order.
                    // lint:allow(D4): planned is true only for connections that carry an ACK plan
                    let p = self.conns[conn].plan.as_mut().expect("plan routed");
                    p.pending_segments.pop_front();
                    p.acks.push_back((arrival, outcome.ack));
                    let span_ok = arrival.since(p.created_at) <= MAX_BATCH_SPAN;
                    let in_order = outcome.sack.as_slice().is_empty();
                    debug_assert!(in_order, "planned burst produced SACK");
                    if !span_ok || !in_order {
                        self.flush_plan(conn, now);
                    } else if self.conns[conn]
                        .plan
                        .as_ref()
                        .is_some_and(|p| p.pending_segments.is_empty())
                    {
                        // lint:allow(D4): the is_some_and guard on this branch established the plan exists
                        let generation = self.conns[conn].plan.as_ref().unwrap().generation;
                        let ev = Ev::AckBatch { conn: id, generation };
                        self.queue.schedule_lane(UP, arrival, ev);
                    }
                } else {
                    let sacked = !outcome.sack.as_slice().is_empty();
                    if sacked {
                        self.conns[conn].sacks.push_back(outcome.sack);
                    }
                    let ev = Ev::AckArrive { conn: id, sacked, ack: outcome.ack };
                    self.queue.schedule_lane(UP, arrival, ev);
                }
            }
            Ev::AckBatch { generation, .. } => {
                let live =
                    self.conns[conn].plan.as_ref().is_some_and(|p| p.generation == generation);
                if !live {
                    return; // plan was flushed; the ACKs already replayed
                }
                // lint:allow(D4): live was checked just above: a plan with this generation is present
                let plan = self.conns[conn].plan.take().expect("checked live");
                debug_assert!(plan.pending_segments.is_empty(), "batch before last segment");
                let n = plan.acks.len();
                for (k, (t, ack)) in plan.acks.into_iter().enumerate() {
                    if k + 1 == n {
                        // The last ACK fires at the batch's own time: run
                        // the full reference ACK path.
                        debug_assert_eq!(t, now, "batch scheduled at last ACK arrival");
                        self.apply_ack(conn, now, ack, SackBlocks::default());
                    } else {
                        self.apply_deferred_ack(conn, t, ack);
                    }
                }
            }
            Ev::AckArrive { sacked, ack, .. } => {
                let sack = if sacked {
                    // lint:allow(D4): a sacked ACK queued its blocks when it was sent, and one connection's ACKs pop in send order
                    self.conns[conn].sacks.pop_front().expect("SACK blocks queued with their ACK")
                } else {
                    SackBlocks::default()
                };
                self.apply_ack(conn, now, ack, sack);
            }
            Ev::RtoCheck { conn: id, seq } => {
                let c = &mut self.conns[conn];
                if c.rto_entry.map(|(_, s)| s) != Some(seq) {
                    return; // orphan: an earlier entry replaced it
                }
                c.rto_entry = None;
                let Some(armed) = c.rto_armed else {
                    return; // disarmed since the entry was queued
                };
                if (armed.deadline, armed.seq) != (now, seq) {
                    // Queued for an earlier arm: wait for the armed one.
                    let (deadline, seq) = (armed.deadline, armed.seq);
                    c.rto_entry = Some((deadline, seq));
                    self.queue.schedule_seq(deadline, seq, Ev::RtoCheck { conn: id, seq });
                    return;
                }
                c.rto_armed = None;
                self.counters.events_processed += 1;
                let epoch = armed.epoch;
                // A live check during an active plan would act on the
                // deferred sender state; restore exactness first. (Cannot
                // happen — see the dispatch comment — but stay safe.)
                if self.conns[conn].plan.is_some() {
                    self.flush_plan(conn, now);
                    if self.conns[conn].rto_epoch != epoch {
                        return;
                    }
                }
                if self.conns[conn].sender.on_rto() {
                    if let Some(log) = &mut self.conns[conn].log {
                        log.push(now, ConnEvent::Timeout);
                    }
                    self.pump(conn, now);
                    self.rearm_rto(conn, now);
                }
            }
        }
    }

    /// The full reference ACK path: SACK bookkeeping, cumulative ACK,
    /// logging, window pump, RTO rearm.
    fn apply_ack(&mut self, conn: usize, now: SimTime, ack: u64, sack: SackBlocks) {
        self.conns[conn].sender.update_sack(sack);
        self.conns[conn].sender.on_ack(ack, now);
        let c = &mut self.conns[conn];
        if let Some(log) = &mut c.log {
            log.push(
                now,
                ConnEvent::AckReceived {
                    ack,
                    cwnd: c.sender.cwnd_bytes(),
                    in_flight: c.sender.in_flight(),
                },
            );
        }
        self.pump(conn, now);
        self.rearm_rto(conn, now);
    }

    /// Replay one deferred ACK with its original timestamp `t` (in the
    /// past relative to the event being processed).
    ///
    /// Identical to [`NetSim::apply_ack`] under the burst preconditions:
    /// the pump is a provable no-op (the sender stays app-limited with no
    /// retransmission state until the batch's final ACK), and the rearm
    /// reduces to its epoch bump — the reference's RtoCheck at `t + rto`
    /// is guaranteed stale because the next ACK replays (and bumps the
    /// epoch again) within the batch span, far inside the minimum RTO.
    fn apply_deferred_ack(&mut self, conn: usize, t: SimTime, ack: u64) {
        let c = &mut self.conns[conn];
        c.sender.update_sack(SackBlocks::default());
        c.sender.on_ack(ack, t);
        if let Some(log) = &mut c.log {
            log.push(
                t,
                ConnEvent::AckReceived {
                    ack,
                    cwnd: c.sender.cwnd_bytes(),
                    in_flight: c.sender.in_flight(),
                },
            );
        }
        debug_assert!(
            c.sender.next_segment().is_none(),
            "deferred ACK must not open the send window"
        );
        self.retire_rto(conn);
    }

    /// Deactivate a connection's burst plan, restoring the exact
    /// reference state at `now`: deferred ACKs that have already arrived
    /// (`t <= now`) are replayed immediately; later ones go back into
    /// the event queue as ordinary `AckArrive` events at their exact
    /// recorded times.
    fn flush_plan(&mut self, conn: usize, now: SimTime) {
        let Some(mut plan) = self.conns[conn].plan.take() else {
            return;
        };
        self.counters.burst_flushes += 1;
        let mut last_applied = None;
        while let Some(&(t, ack)) = plan.acks.front() {
            if t > now {
                break;
            }
            plan.acks.pop_front();
            self.apply_deferred_ack(conn, t, ack);
            last_applied = Some(t);
        }
        if plan.acks.is_empty() && plan.pending_segments.is_empty() {
            // The whole burst was already acknowledged: the reference's
            // final ACK also re-armed the RTO at its own arrival time.
            if let Some(t) = last_applied {
                debug_assert!(self.conns[conn].sender.next_segment().is_none());
                self.rearm_rto(conn, t);
            }
        }
        for (t, ack) in plan.acks {
            // In-order burst ACKs carry no SACK blocks (validated when
            // they were recorded).
            self.queue.schedule(t, Ev::AckArrive { conn: conn as u32, sacked: false, ack });
        }
    }

    /// Transmit all segments the sender's window currently allows.
    ///
    /// When burst batching is on and the transmitted burst satisfies the
    /// lossless-burst preconditions, a [`BurstPlan`] is installed so the
    /// burst's ACKs coalesce into a single event (see `BurstPlan` docs).
    fn pump(&mut self, conn: usize, now: SimTime) {
        // Candidate burst: fresh (non-retransmitted) segments actually
        // handed to the link this pump, none dropped anywhere.
        let mut burst = std::mem::take(&mut self.burst);
        burst.clear();
        let mut clean = self.batching && self.conns[conn].plan.is_none();
        while let Some(seg) = self.conns[conn].sender.next_segment() {
            self.conns[conn].sender.mark_sent(seg, now);
            self.counters.segments_sent += 1;
            if seg.retransmission {
                self.counters.retransmissions += 1;
            }
            let cwnd = self.conns[conn].sender.cwnd_bytes();
            if let Some(log) = &mut self.conns[conn].log {
                log.push(
                    now,
                    ConnEvent::SegmentSent {
                        start: seg.start,
                        len: seg.len(),
                        retransmission: seg.retransmission,
                        cwnd,
                    },
                );
            }
            if self.loss.drops_next() {
                self.counters.drops_random_loss += 1;
                if let Some(log) = &mut self.conns[conn].log {
                    log.push(now, ConnEvent::SegmentDropped { start: seg.start });
                }
                clean = false;
                continue; // lost in the network
            }
            match self.downlink.offer(now, seg.wire_bytes()) {
                Transmit::Delivered(arrival) => {
                    debug_assert!(seg.len() <= MSS, "a segment is at most one MSS");
                    let ev = Ev::SegArrive {
                        conn: conn as u32,
                        len: seg.len() as u16,
                        start: seg.start,
                    };
                    self.queue.schedule_lane(DOWN, arrival, ev);
                    if seg.retransmission {
                        clean = false;
                    } else {
                        burst.push((seg.start, seg.end));
                    }
                }
                Transmit::Dropped => {
                    // Drop-tail loss: sender finds out via dupacks/RTO.
                    self.counters.drops_queue += 1;
                    if let Some(log) = &mut self.conns[conn].log {
                        log.push(now, ConnEvent::SegmentDropped { start: seg.start });
                    }
                    clean = false;
                }
            }
        }
        if clean && burst.len() >= 2 && burst.len() <= MAX_BATCH_SEGMENTS {
            self.maybe_install_plan(conn, now, &burst);
        }
        self.burst = burst;
    }

    /// Install a [`BurstPlan`] for `burst` if the connection is in the
    /// provably-deferrable state: the burst is contiguous, it is the
    /// *only* data in flight, the sender is application-limited with a
    /// clean window, and the receiver sits exactly at the burst's first
    /// byte with nothing buffered out-of-order. Under these conditions
    /// every deferred ACK's pump is a no-op and its rearm reduces to an
    /// epoch bump, so replaying the ACKs late is byte-identical.
    fn maybe_install_plan(&mut self, conn: usize, now: SimTime, burst: &[(u64, u64)]) {
        let c = &self.conns[conn];
        let contiguous = burst.windows(2).all(|w| w[0].1 == w[1].0);
        let (first_start, last_end) = (burst[0].0, burst[burst.len() - 1].1);
        let sole_in_flight = c.sender.in_flight() == last_end - first_start;
        let deferrable = contiguous
            && sole_in_flight
            && c.sender.app_limited()
            && c.sender.window_quiescent()
            && c.receiver.delivered() == first_start
            && c.receiver.buffered() == 0;
        if !deferrable {
            return;
        }
        self.counters.bursts_batched += 1;
        let c = &mut self.conns[conn];
        c.plan_generation += 1;
        c.plan = Some(BurstPlan {
            pending_segments: burst.iter().copied().collect(),
            acks: VecDeque::new(),
            generation: c.plan_generation,
            created_at: now,
        });
    }

    /// Reset the retransmission timer after any sender activity.
    ///
    /// The new check takes its queue sequence number now, but is queued
    /// only when the connection has no entry at or before its deadline;
    /// otherwise the existing entry re-queues it when it pops.
    fn rearm_rto(&mut self, conn: usize, now: SimTime) {
        self.retire_rto(conn);
        let c = &mut self.conns[conn];
        if c.sender.in_flight() > 0 {
            let deadline = now + c.sender.current_rto();
            let seq = self.queue.reserve_seq();
            c.rto_armed = Some(ArmedRto { deadline, seq, epoch: c.rto_epoch });
            if c.rto_entry.is_none_or(|(t, _)| t > deadline) {
                c.rto_entry = Some((deadline, seq));
                self.queue.schedule_seq(deadline, seq, Ev::RtoCheck { conn: conn as u32, seq });
            }
        }
    }

    /// Start a new timer epoch, retiring the armed check. A retired check
    /// counts as a processed event here, where a per-arm timer model
    /// would have queued it and later popped it as a no-op; every load
    /// runs to quiescence, so the totals agree.
    fn retire_rto(&mut self, conn: usize) {
        let c = &mut self.conns[conn];
        c.rto_epoch += 1;
        if c.rto_armed.take().is_some() {
            self.counters.events_processed += 1;
        }
    }

    /// Send `bytes` of request data (starting at stream offset `start`)
    /// up the link in MSS-sized chunks.
    fn up_send_chunks(&mut self, conn: usize, now: SimTime, start: u64, bytes: u64) {
        let mut off = 0;
        while off < bytes {
            let chunk = (bytes - off).min(MSS);
            let arrival = self.up_transmit(now, chunk + HEADER_BYTES);
            let ev = Ev::UpDataArrive { conn: conn as u32, end: start + off + chunk };
            self.queue.schedule_lane(UP, arrival, ev);
            off += chunk;
        }
    }

    fn up_transmit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        match self.uplink.offer(now, bytes) {
            Transmit::Delivered(t) => t,
            Transmit::Dropped => unreachable!("uplink buffer is effectively unbounded"),
        }
    }

    fn down_transmit_lossless(&mut self, now: SimTime, bytes: u64) -> SimTime {
        match self.downlink.offer(now, bytes) {
            Transmit::Delivered(t) => t,
            // A handshake packet squeezed out by a full buffer: model as
            // delayed behind the burst rather than lost, keeping
            // handshakes deterministic.
            Transmit::Dropped => {
                now + self.downlink.queueing_delay(now) + self.downlink.prop_delay()
            }
        }
    }
}

/// One-shot convenience: time to deliver `bytes` from server to client on
/// a fresh connection (handshake + request + response), mimicking a
/// single-object fetch. Returns `(request_sent_at, completion)` times.
pub fn single_transfer(
    profile: NetworkProfile,
    seed: Seed,
    tls: TlsMode,
    request_bytes: u64,
    response_bytes: u64,
) -> (SimTime, SimTime) {
    let mut sim = NetSim::new(profile, seed);
    let conn = sim.open(SimTime::ZERO, tls);
    let mut request_at = SimTime::ZERO;
    let mut done_at = SimTime::ZERO;
    while let Some((t, ev)) = sim.next_event() {
        match ev {
            NetEvent::Established { conn: c } if c == conn => {
                request_at = t;
                sim.client_send(conn, t, request_bytes);
            }
            NetEvent::RequestDelivered { conn: c, total_bytes }
                if c == conn && total_bytes == request_bytes =>
            {
                sim.server_send(conn, t, response_bytes);
            }
            NetEvent::Delivered { conn: c, total_bytes }
                if c == conn && total_bytes == response_bytes =>
            {
                done_at = t;
            }
            _ => {}
        }
    }
    (request_at, done_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LossModel;

    fn lossless() -> NetworkProfile {
        NetworkProfile::lossless_test() // 10/10 Mbit/s, 40 ms RTT, no loss
    }

    #[test]
    fn handshake_takes_one_rtt_without_tls() {
        let mut sim = NetSim::new(lossless(), Seed(1));
        let conn = sim.open(SimTime::ZERO, TlsMode::None);
        let (t, ev) = sim.next_event().expect("established");
        assert_eq!(ev, NetEvent::Established { conn });
        // 1 RTT = 40 ms plus two 66-byte serialisations (52.8 µs each → 53).
        let us = t.as_micros();
        assert!((40_000..41_000).contains(&us), "handshake at {us}µs");
    }

    #[test]
    fn tls13_adds_one_rtt() {
        let t_plain = {
            let mut s = NetSim::new(lossless(), Seed(1));
            s.open(SimTime::ZERO, TlsMode::None);
            s.next_event().unwrap().0
        };
        let t_tls = {
            let mut s = NetSim::new(lossless(), Seed(1));
            s.open(SimTime::ZERO, TlsMode::Tls13);
            s.next_event().unwrap().0
        };
        let delta = t_tls.as_micros() - t_plain.as_micros();
        assert!((40_000..41_000).contains(&delta), "TLS1.3 extra {delta}µs");
    }

    #[test]
    fn small_fetch_arrives_after_two_rtt_ish() {
        let (req_at, done) = single_transfer(lossless(), Seed(2), TlsMode::None, 300, 10_000);
        // request leg (0.5 RTT) + response leg (0.5 RTT) + serialisation.
        let fetch = done.as_micros() - req_at.as_micros();
        assert!((40_000..52_000).contains(&fetch), "fetch took {fetch}µs");
    }

    #[test]
    fn bulk_transfer_throughput_close_to_link_rate() {
        let bytes = 2_000_000u64;
        let (_req, done) = single_transfer(lossless(), Seed(3), TlsMode::None, 300, bytes);
        let ideal = (bytes + 40 * bytes / MSS) as f64 * 8.0 / 10_000_000.0;
        let actual = done.as_secs_f64();
        // Slow start and the request RTT cost something, but under 35 %.
        assert!(actual > ideal, "cannot beat the link: {actual} vs {ideal}");
        assert!(actual < ideal * 1.35, "too slow: {actual} vs ideal {ideal}");
    }

    #[test]
    fn transfer_completes_under_loss_with_retransmissions() {
        let profile = NetworkProfile { loss: LossModel::Bernoulli { p: 0.03 }, ..lossless() };
        let mut sim = NetSim::new(profile, Seed(4));
        let conn = sim.open(SimTime::ZERO, TlsMode::None);
        let total = 500_000u64;
        let mut done = None;
        while let Some((t, ev)) = sim.next_event() {
            match ev {
                NetEvent::Established { .. } => sim.client_send(conn, t, 300),
                NetEvent::RequestDelivered { total_bytes: 300, .. } => {
                    sim.server_send(conn, t, total)
                }
                NetEvent::Delivered { total_bytes, .. } if total_bytes == total => done = Some(t),
                _ => {}
            }
        }
        let stats = sim.conn_stats(conn);
        assert!(done.is_some(), "transfer never completed");
        assert!(stats.retransmissions > 0, "3% loss must cause retransmissions");
        assert_eq!(stats.bytes_delivered, total);
    }

    #[test]
    fn lossy_transfer_slower_than_lossless() {
        let run = |loss| {
            let profile = NetworkProfile { loss, ..lossless() };
            single_transfer(profile, Seed(5), TlsMode::None, 300, 1_000_000).1
        };
        let clean = run(LossModel::None);
        let lossy = run(LossModel::Bernoulli { p: 0.05 });
        assert!(lossy > clean, "loss must slow the transfer: {lossy} vs {clean}");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed| {
            let profile = NetworkProfile { loss: LossModel::Bernoulli { p: 0.02 }, ..lossless() };
            single_transfer(profile, seed, TlsMode::Tls13, 400, 300_000)
        };
        assert_eq!(run(Seed(42)), run(Seed(42)));
        assert_ne!(run(Seed(42)), run(Seed(43)));
    }

    #[test]
    fn six_connections_share_the_bottleneck() {
        // Six parallel 200 KB transfers must take ~6x the time one does
        // on the shared link (minus slow-start overlap benefits).
        let one = {
            let (_r, d) = single_transfer(lossless(), Seed(6), TlsMode::None, 300, 200_000);
            d.as_secs_f64()
        };
        let mut sim = NetSim::new(lossless(), Seed(6));
        let conns: Vec<ConnId> = (0..6).map(|_| sim.open(SimTime::ZERO, TlsMode::None)).collect();
        let mut done_count = 0;
        let mut last_done = SimTime::ZERO;
        while let Some((t, ev)) = sim.next_event() {
            match ev {
                NetEvent::Established { conn } => sim.client_send(conn, t, 300),
                NetEvent::RequestDelivered { conn, total_bytes: 300 } => {
                    sim.server_send(conn, t, 200_000)
                }
                NetEvent::Delivered { total_bytes: 200_000, .. } => {
                    done_count += 1;
                    last_done = t;
                }
                _ => {}
            }
        }
        assert_eq!(done_count, 6);
        assert_eq!(conns.len(), 6);
        let six = last_done.as_secs_f64();
        // The six flows share one 10 Mbit/s link: finishing all of them
        // can't beat aggregate serialisation time (6 × 200 KB ≈ 0.99 s
        // with header overhead), and overlapping slow starts mean it
        // shouldn't take much longer either.
        let ideal = 6.0 * (200_000.0 + 40.0 * 200_000.0 / MSS as f64) * 8.0 / 10_000_000.0;
        assert!(six > ideal, "cannot beat the shared link: {six}s vs {ideal}s");
        assert!(six < ideal * 1.4, "sharing too inefficient: {six}s vs {ideal}s");
        // And the shared link means each flow is far slower than solo.
        assert!(six > 2.0 * one, "six flows at {six}s vs one at {one}s");
    }

    /// How each popped `RtoCheck` entry was handled.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct RtoPops {
        /// Replaced by an earlier entry (the deadline moved earlier).
        orphan: u64,
        /// Popped before the armed deadline and re-queued there (the
        /// deadline moved later).
        early: u64,
        /// The timer was disarmed (nothing in flight) while it waited.
        disarmed: u64,
        /// Fired at exactly the armed `(deadline, seq)`.
        live: u64,
    }

    /// Serve one `bytes`-sized response on one connection, popping the
    /// queue by hand to classify every timer entry against the
    /// connection's armed check just before it is processed.
    fn classify_rto_pops(profile: NetworkProfile, seed: Seed, bytes: u64) -> (RtoPops, ConnStats) {
        let mut sim = NetSim::new(profile, seed);
        let conn = sim.open(SimTime::ZERO, TlsMode::None);
        let mut pops = RtoPops::default();
        while let Some((now, ev)) = sim.queue.pop() {
            if let Ev::RtoCheck { seq, .. } = ev {
                let c = &sim.conns[ev.conn()];
                match c.rto_armed {
                    _ if c.rto_entry.map(|(_, s)| s) != Some(seq) => pops.orphan += 1,
                    None => pops.disarmed += 1,
                    Some(a) if (a.deadline, a.seq) == (now, seq) => pops.live += 1,
                    Some(a) => {
                        assert!((now, seq) < (a.deadline, a.seq), "entry after its deadline");
                        pops.early += 1;
                    }
                }
            }
            sim.process(now, ev);
            while let Some((t, ev)) = sim.out.pop_front() {
                match ev {
                    NetEvent::Established { .. } => sim.client_send(conn, t, 300),
                    NetEvent::RequestDelivered { total_bytes: 300, .. } => {
                        sim.server_send(conn, t, bytes)
                    }
                    _ => {}
                }
            }
            // The one entry never trails the armed check.
            let c = &sim.conns[conn.0];
            if let Some(a) = c.rto_armed {
                let (t, s) = c.rto_entry.expect("armed check without an entry");
                assert!((t, s) <= (a.deadline, a.seq));
            }
        }
        let c = &sim.conns[conn.0];
        assert!(c.rto_armed.is_none() && c.rto_entry.is_none(), "timer left behind");
        assert!(c.sacks.is_empty(), "SACK blocks left behind");
        (pops, sim.conn_stats(conn))
    }

    #[test]
    fn one_rto_entry_follows_the_armed_deadline() {
        let (pops, stats) = classify_rto_pops(lossless(), Seed(9), 300_000);
        assert_eq!(stats.bytes_delivered, 300_000);
        // The first RTT sample shrinks the RTO below the initial 1 s: the
        // deadline moves earlier and the first entry is orphaned.
        assert!(pops.orphan >= 1, "{pops:?}");
        // ACK-clocked re-arms push the deadline later: the entry pops
        // early and re-queues itself at the armed deadline.
        assert!(pops.early >= 1, "{pops:?}");
        // The final ACK leaves nothing in flight, disarming the timer.
        assert!(pops.disarmed >= 1, "{pops:?}");
        assert_eq!(pops.live, 0, "no loss, no timeout: {pops:?}");
        assert_eq!(stats.timeouts, 0);
    }

    #[test]
    fn live_rto_fires_once_per_timeout() {
        let profile = NetworkProfile { loss: LossModel::Bernoulli { p: 0.1 }, ..lossless() };
        let (pops, stats) = classify_rto_pops(profile, Seed(4), 500_000);
        assert_eq!(stats.bytes_delivered, 500_000);
        assert!(stats.timeouts > 0, "10% loss must time out at least once");
        assert_eq!(pops.live, stats.timeouts, "{pops:?}");
    }

    #[test]
    fn queue_entries_are_32_bytes() {
        assert!(std::mem::size_of::<Ev>() <= 16);
        assert!(EventQueue::<Ev, 2>::entry_bytes() <= 32);
    }

    /// Six connections fetch under bursty loss, popping the queue by
    /// hand: every sacked ACK finds at the front of its connection's FIFO
    /// the blocks the receiver produced with that ACK number, and no
    /// blocks are left at quiescence.
    #[test]
    fn sack_blocks_pop_with_their_acks() {
        let profile = NetworkProfile {
            loss: LossModel::GilbertElliott {
                p_good_to_bad: 0.02,
                p_bad_to_good: 0.3,
                loss_good: 0.005,
                loss_bad: 0.4,
            },
            ..lossless()
        };
        let mut sim = NetSim::new(profile, Seed(11));
        let conns: Vec<ConnId> = (0..6).map(|_| sim.open(SimTime::ZERO, TlsMode::None)).collect();
        // Each sacked ACK's number and blocks, in the order they were pushed.
        let mut pushed: Vec<VecDeque<(u64, SackBlocks)>> = vec![VecDeque::new(); conns.len()];
        let (mut sacked, mut plain) = (0u32, 0u32);
        let mut done = 0;
        while let Some((now, ev)) = sim.queue.pop() {
            let c = ev.conn();
            match ev {
                Ev::AckArrive { sacked: true, ack, .. } => {
                    let (a, blocks) = pushed[c].pop_front().expect("blocks pushed for the ACK");
                    assert_eq!(a, ack);
                    assert_eq!(sim.conns[c].sacks.front(), Some(&blocks));
                    sacked += 1;
                }
                Ev::AckArrive { sacked: false, .. } => plain += 1,
                _ => {}
            }
            let before = sim.conns[c].sacks.len();
            sim.process(now, ev);
            if let Ev::SegArrive { .. } = ev {
                let conn = &sim.conns[c];
                if conn.sacks.len() > before {
                    let blocks = *conn.sacks.back().expect("just pushed");
                    pushed[c].push_back((conn.receiver.delivered(), blocks));
                }
            }
            while let Some((t, ev)) = sim.out.pop_front() {
                match ev {
                    NetEvent::Established { conn } => sim.client_send(conn, t, 300),
                    NetEvent::RequestDelivered { conn, total_bytes: 300 } => {
                        sim.server_send(conn, t, 150_000)
                    }
                    NetEvent::Delivered { total_bytes: 150_000, .. } => done += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(done, conns.len(), "every transfer completes");
        assert!(sacked > 50 && plain > 50, "{sacked} sacked and {plain} plain ACKs");
        for (c, conn) in sim.conns.iter().enumerate() {
            assert!(conn.sacks.is_empty() && pushed[c].is_empty(), "conn {c}: blocks left behind");
        }
    }

    #[test]
    fn request_before_establishment_is_flushed_after() {
        let mut sim = NetSim::new(lossless(), Seed(7));
        let conn = sim.open(SimTime::ZERO, TlsMode::None);
        // Queue the request immediately (before Established).
        sim.client_send(conn, SimTime::ZERO, 500);
        let mut got_request = false;
        while let Some((_t, ev)) = sim.next_event() {
            if let NetEvent::RequestDelivered { total_bytes, .. } = ev {
                assert_eq!(total_bytes, 500);
                got_request = true;
            }
        }
        assert!(got_request);
    }

    #[test]
    fn delivered_events_are_cumulative_and_monotone() {
        let mut sim = NetSim::new(lossless(), Seed(8));
        let conn = sim.open(SimTime::ZERO, TlsMode::None);
        sim.client_send(conn, SimTime::ZERO, 300);
        let mut sent_response = false;
        let mut last = 0;
        while let Some((t, ev)) = sim.next_event() {
            match ev {
                NetEvent::RequestDelivered { .. } if !sent_response => {
                    sent_response = true;
                    sim.server_send(conn, t, 100_000);
                }
                NetEvent::Delivered { total_bytes, .. } => {
                    assert!(total_bytes > last, "monotone progress");
                    last = total_bytes;
                }
                _ => {}
            }
        }
        assert_eq!(last, 100_000);
    }
}
