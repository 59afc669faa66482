//! The fetch engine: protocol scheduling over the network simulator.
//!
//! [`FetchEngine`] is what the browser talks to. It accepts [`Request`]
//! submissions, runs them over HTTP/1.1 connection pools or HTTP/2
//! multiplexed connections (per [`HttpConfig::protocol`]), and surfaces
//! progressive [`FetchEvent`]s. One engine models one browser session's
//! network stack: all origins, all connections, one shared access link.
//!
//! ## Co-simulation contract
//!
//! The engine is designed to interleave with a caller that has its own
//! timed work (the browser's main thread). The caller alternates between
//! [`FetchEngine::next_event_until`] (bounded by its own next action
//! time) and [`FetchEngine::submit`]. Submission times must be
//! non-decreasing and must not precede any `limit` already passed to
//! `next_event_until` — in a co-simulation loop this holds by
//! construction, and violations panic rather than corrupt causality.
//!
//! An engine is plain data: it counts its own `http.*` obs counters
//! (and its simulator its `net.*` ones) and is `Clone`, so a caller can
//! fork a session mid-run. [`FetchEngine::fold_counters`] adds the
//! tallies to the registry.

use std::collections::{BTreeMap, VecDeque};

use eyeorg_net::event::EventQueue;
use eyeorg_obs::metrics as obs;
use eyeorg_net::{ConnId, LossProcess, NetEvent, NetSim, NetworkProfile, SimTime, TlsMode};
use eyeorg_stats::Seed;

use crate::h1::{H1Conn, H1Delivery, H1Origin, QueuedRequest};
use crate::h2::{ChunkKind, ChunkMap, Delivery, H2Scheduler, H2SendStream, FRAME_OVERHEAD};
use crate::hpack::HpackContext;
use crate::request::{FetchEvent, OriginId, Request, RequestId, RequestTiming};

/// Application protocol spoken to every origin in a session.
///
/// webpeg selects the protocol per capture via Chrome's command-line
/// switches (§3.1 of the paper); likewise the protocol here is a session
/// constant, not per-request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// HTTP/1.1: up to [`HttpConfig::h1_pool_size`] connections per
    /// origin, one exchange at a time on each.
    Http1,
    /// HTTP/2: one connection per origin, prioritised multiplexing.
    Http2,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Protocol for all origins.
    pub protocol: Protocol,
    /// TLS mode for new connections.
    pub tls: TlsMode,
    /// HTTP/1.1 connections per origin (Chrome uses 6).
    pub h1_pool_size: usize,
    /// HTTP/2 write window: maximum bytes in the transport but not yet
    /// delivered, which bounds how far ahead the server commits to a
    /// write order (models the bounded socket buffer of a real server).
    pub h2_write_window: u64,
}

impl HttpConfig {
    /// Defaults for the given protocol: 6-connection H1 pools, 64 KiB H2
    /// write window, TLS 1.3.
    pub fn new(protocol: Protocol) -> HttpConfig {
        HttpConfig {
            protocol,
            tls: TlsMode::Tls13,
            h1_pool_size: 6,
            // Must comfortably exceed the bandwidth-delay product of fast
            // consumer paths (~150 KB at 20 Mbit/s × 60 ms), as real H2
            // servers' socket buffers do; an undersized window throttles
            // the single multiplexed connection below what HTTP/1.1's six
            // sockets achieve.
            h2_write_window: 262_144,
        }
    }
}

/// Per-request record.
#[derive(Debug, Clone)]
struct Rec {
    req: Request,
    timing: RequestTiming,
    /// Resources the server pushes alongside this response instead of
    /// waiting for client requests, in ascending id order.
    pushes: Vec<RequestId>,
    /// Index of the serving connection within the origin's H1 pool.
    h1_conn: Option<usize>,
    /// On-wire (HPACK-compressed) response header size, fixed when the
    /// response is scheduled (H2 only; H1 uses the raw size).
    resp_header_wire: u64,
    header_received: u64,
    body_received: u64,
    headers_done: bool,
    completed: bool,
}

/// HTTP/2 per-origin connection state.
#[derive(Debug, Clone)]
struct H2Origin {
    conn: ConnId,
    established: bool,
    hpack_up: HpackContext,
    hpack_down: HpackContext,
    /// Requests submitted but not yet sent (connection still connecting
    /// or submit time in the future).
    pending: Vec<(RequestId, SimTime)>,
    /// Sent requests awaiting arrival at the server: (id, cumulative
    /// uplink byte mark).
    up_queue: VecDeque<(RequestId, u64)>,
    up_sent: u64,
    sched: H2Scheduler,
    chunks: ChunkMap,
    written: u64,
    delivered: u64,
}

#[derive(Debug, Clone)]
enum OriginState {
    H1(H1Origin),
    H2(H2Origin),
}

#[derive(Debug, Clone, Copy)]
enum TimerEv {
    /// A response becomes ready at the server (think time elapsed).
    ResponseReady(RequestId),
    /// Attempt assignments/sends for an origin (submission time reached).
    TryAssign(OriginId),
}

/// An engine's tallies of the `http.*` obs counters (declared in
/// `eyeorg_obs::metrics`), in the order listed there.
#[derive(Debug, Clone, Copy, Default)]
struct HttpCounters {
    h1_requests_assigned: u64,
    h1_conns_reused: u64,
    conns_opened: u64,
    h2_streams: u64,
    h2_pushed_streams: u64,
}

/// The per-session fetch engine. See module docs.
#[derive(Debug, Clone)]
pub struct FetchEngine {
    net: NetSim,
    cfg: HttpConfig,
    recs: Vec<Rec>,
    origins: BTreeMap<OriginId, OriginState>,
    origin_protocols: BTreeMap<OriginId, Protocol>,
    /// Each connection's origin, indexed by [`ConnId`] (ids are dense:
    /// the simulator numbers connections in open order).
    conn_map: Vec<OriginId>,
    timers: EventQueue<TimerEv>,
    out: VecDeque<(SimTime, FetchEvent)>,
    uplink_wire_bytes: u64,
    /// Reused attribution buffers for delivered downlink bytes.
    h1_deliveries: Vec<H1Delivery>,
    h2_deliveries: Vec<Delivery>,
    counters: HttpCounters,
}

impl FetchEngine {
    /// Create an engine over a fresh simulated network.
    pub fn new(cfg: HttpConfig, profile: NetworkProfile, seed: Seed) -> FetchEngine {
        FetchEngine {
            net: NetSim::new(profile, seed),
            cfg,
            recs: Vec::new(),
            origins: BTreeMap::new(),
            origin_protocols: BTreeMap::new(),
            conn_map: Vec::new(),
            timers: EventQueue::new(),
            out: VecDeque::new(),
            uplink_wire_bytes: 0,
            h1_deliveries: Vec::new(),
            h2_deliveries: Vec::new(),
            counters: HttpCounters::default(),
        }
    }

    /// Add this session's `http.*` and `net.*` counter tallies to the
    /// obs registry (once per session: the tallies are totals).
    pub fn fold_counters(&self) {
        let c = self.counters;
        obs::HTTP_H1_REQUESTS_ASSIGNED.add(c.h1_requests_assigned);
        obs::HTTP_H1_CONNS_REUSED.add(c.h1_conns_reused);
        obs::HTTP_CONNS_OPENED.add(c.conns_opened);
        obs::HTTP_H2_STREAMS.add(c.h2_streams);
        obs::HTTP_H2_PUSHED_STREAMS.add(c.h2_pushed_streams);
        self.net.fold_counters();
    }

    /// Replace the simulator's loss process (see [`NetSim::replace_loss`]).
    pub fn replace_loss(&mut self, loss: LossProcess) {
        self.net.replace_loss(loss);
    }

    /// Toggle the network simulator's lossless burst batching (on by
    /// default; the traces are identical either way). The off position
    /// is the per-segment reference path benchmarks compare against.
    pub fn set_burst_batching(&mut self, on: bool) {
        self.net.set_burst_batching(on);
    }

    /// Enable or disable the network simulator's per-connection qlog
    /// (see [`NetSim::set_logging`]); affects connections opened after
    /// the call.
    pub fn set_net_logging(&mut self, on: bool) {
        self.net.set_logging(on);
    }

    /// Override the protocol for one origin (e.g. a third-party ad server
    /// that has not deployed HTTP/2, forcing Chrome to fall back). Must
    /// be called before the first request to that origin; later calls are
    /// ignored once the origin's connection state exists.
    pub fn set_origin_protocol(&mut self, origin: OriginId, protocol: Protocol) {
        if !self.origins.contains_key(&origin) {
            self.origin_protocols.insert(origin, protocol);
        }
    }

    /// The protocol in effect for an origin.
    pub fn origin_protocol(&self, origin: OriginId) -> Protocol {
        *self.origin_protocols.get(&origin).unwrap_or(&self.cfg.protocol)
    }

    /// Submit a request at time `at` (see module docs for ordering
    /// requirements). Returns the request's id.
    pub fn submit(&mut self, at: SimTime, req: Request) -> RequestId {
        let id = RequestId(self.recs.len() as u64);
        let origin = req.origin;
        self.recs.push(Rec {
            req,
            timing: RequestTiming { submitted: Some(at), ..RequestTiming::default() },
            pushes: Vec::new(),
            h1_conn: None,
            resp_header_wire: 0,
            header_received: 0,
            body_received: 0,
            headers_done: false,
            completed: false,
        });
        match self.origin_protocol(origin) {
            Protocol::Http1 => {
                let state = self
                    .origins
                    .entry(origin)
                    .or_insert_with(|| OriginState::H1(H1Origin::new()));
                let OriginState::H1(o) = state else { unreachable!("protocol fixed per engine") };
                let priority = self.recs[id.0 as usize].req.priority;
                o.queue.push(QueuedRequest { id, submitted: at, priority });
            }
            Protocol::Http2 => {
                if !self.origins.contains_key(&origin) {
                    let conn = self.net.open(at, self.cfg.tls);
                    self.counters.conns_opened += 1;
                    self.map_conn(conn, origin);
                    self.origins.insert(
                        origin,
                        OriginState::H2(H2Origin {
                            conn,
                            established: false,
                            hpack_up: HpackContext::new(),
                            hpack_down: HpackContext::new(),
                            pending: Vec::new(),
                            up_queue: VecDeque::new(),
                            up_sent: 0,
                            sched: H2Scheduler::new(),
                            chunks: ChunkMap::new(),
                            written: 0,
                            delivered: 0,
                        }),
                    );
                }
                // lint:allow(D4): the entry was inserted just above when absent
                let OriginState::H2(o) = self.origins.get_mut(&origin).expect("just inserted")
                else {
                    unreachable!("protocol fixed per engine")
                };
                o.pending.push((id, at));
            }
        }
        self.timers.schedule(at, TimerEv::TryAssign(origin));
        id
    }

    /// Register a **server push**: `req` will be delivered on the same
    /// HTTP/2 connection as `parent`, becoming ready at the server the
    /// moment the parent's response does — no client request, no request
    /// round trip, no uplink bytes (RFC 7540 §8.2; the paper's §6 names
    /// push strategies as exactly the kind of optimisation Eyeorg exists
    /// to evaluate).
    ///
    /// # Panics
    /// Panics if `parent`'s origin is not HTTP/2 (push does not exist in
    /// HTTP/1.1) or if `req` targets a different origin (a server can
    /// only push for itself).
    pub fn submit_pushed(&mut self, at: SimTime, parent: RequestId, req: Request) -> RequestId {
        let parent_origin = self.recs[parent.0 as usize].req.origin;
        assert_eq!(req.origin, parent_origin, "push must stay on the parent's origin");
        assert_eq!(
            self.origin_protocol(parent_origin),
            Protocol::Http2,
            "server push requires HTTP/2"
        );
        let id = RequestId(self.recs.len() as u64);
        self.recs.push(Rec {
            req,
            timing: RequestTiming { submitted: Some(at), ..RequestTiming::default() },
            pushes: Vec::new(),
            h1_conn: None,
            resp_header_wire: 0,
            header_received: 0,
            body_received: 0,
            headers_done: false,
            completed: false,
        });
        self.recs[parent.0 as usize].pushes.push(id);
        id
    }

    /// The next fetch event at or before `limit`, advancing the
    /// simulation as needed. `None` means no event exists at or before
    /// `limit` (there may be later ones).
    pub fn next_event_until(&mut self, limit: SimTime) -> Option<(SimTime, FetchEvent)> {
        loop {
            if let Some(&(t, ev)) = self.out.front() {
                if t <= limit {
                    self.out.pop_front();
                    return Some((t, ev));
                }
                return None;
            }
            let net_t = self.net.peek_time();
            let tim_t = self.timers.peek_time();
            let timer_first = match (net_t, tim_t) {
                (None, None) => return None,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (Some(n), Some(t)) => t <= n,
            };
            if timer_first {
                // lint:allow(D4): timer_first is only true when tim_t is Some
                let t = tim_t.expect("timer_first implies a timer");
                if t > limit {
                    return None;
                }
                // lint:allow(D4): a timer was peeked above, so the timer queue is non-empty
                let (t, ev) = self.timers.pop().expect("peeked non-empty");
                self.handle_timer(t, ev);
            } else {
                // Let the network run, but never past a pending timer or
                // the caller's limit.
                let bound = tim_t.map_or(limit, |t| t.min(limit));
                match self.net.next_event_until(bound) {
                    Some((t, ev)) => self.handle_net(t, ev),
                    None => {
                        // No network event at or before `bound`. If a
                        // timer set the bound, the next iteration fires
                        // it; if the caller's limit did, we are done.
                        if tim_t.is_none_or(|t| t > limit) {
                            return None;
                        }
                    }
                }
            }
        }
    }

    /// The next fetch event with no time bound; `None` when the session
    /// has fully quiesced.
    pub fn next_event(&mut self) -> Option<(SimTime, FetchEvent)> {
        self.next_event_until(SimTime::from_micros(u64::MAX))
    }

    /// Earliest time at which anything might happen (lower bound for the
    /// next event). `None` when fully quiesced.
    pub fn peek_time(&self) -> Option<SimTime> {
        let cands = [
            self.out.front().map(|e| e.0),
            self.timers.peek_time(),
            self.net.peek_time(),
        ];
        cands.into_iter().flatten().min()
    }

    /// Timing record for a request.
    pub fn timing(&self, id: RequestId) -> RequestTiming {
        self.recs[id.0 as usize].timing
    }

    /// The request as submitted.
    pub fn request(&self, id: RequestId) -> &Request {
        &self.recs[id.0 as usize].req
    }

    /// Whether the response has fully arrived.
    pub fn is_completed(&self, id: RequestId) -> bool {
        self.recs[id.0 as usize].completed
    }

    /// Total wire bytes sent uplink for requests (headers after any
    /// compression, plus framing). Lets tests observe HPACK savings.
    pub fn uplink_wire_bytes(&self) -> u64 {
        self.uplink_wire_bytes
    }

    /// Access the underlying network simulator (read-only), e.g. for
    /// per-connection statistics in HAR export.
    pub fn net(&self) -> &NetSim {
        &self.net
    }

    /// Consume the engine, returning the underlying network simulator
    /// (e.g. to take its per-connection logs).
    pub fn into_net(self) -> NetSim {
        self.net
    }

    /// Number of transport connections opened to `origin` so far.
    pub fn connections_to(&self, origin: OriginId) -> usize {
        match self.origins.get(&origin) {
            None => 0,
            Some(OriginState::H1(o)) => o.conns.len(),
            Some(OriginState::H2(_)) => 1,
        }
    }

    // ------------------------------------------------------------------

    fn handle_timer(&mut self, now: SimTime, ev: TimerEv) {
        match ev {
            TimerEv::TryAssign(origin) => self.try_assign(origin, now),
            TimerEv::ResponseReady(id) => self.response_ready(id, now),
        }
    }

    fn handle_net(&mut self, now: SimTime, ev: NetEvent) {
        match ev {
            NetEvent::Established { conn } => {
                let origin = self.conn_map[conn.0];
                // lint:allow(D4): origins gains an entry before any connection to it is opened
                match self.origins.get_mut(&origin).expect("origin exists") {
                    OriginState::H1(o) => {
                        let c = o
                            .conns
                            .iter_mut()
                            .find(|c| c.conn == conn)
                            // lint:allow(D4): the connection was added to the pool when it was opened
                            .expect("conn in pool");
                        c.established = true;
                    }
                    OriginState::H2(o) => {
                        o.established = true;
                    }
                }
                self.try_assign(origin, now);
            }
            NetEvent::RequestDelivered { conn, total_bytes } => {
                let origin = self.conn_map[conn.0];
                let mut ready: Vec<RequestId> = Vec::new();
                // lint:allow(D4): origins gains an entry before any connection to it is opened
                match self.origins.get_mut(&origin).expect("origin exists") {
                    OriginState::H1(o) => {
                        let c = o
                            .conns
                            .iter_mut()
                            .find(|c| c.conn == conn)
                            // lint:allow(D4): the connection was added to the pool when it was opened
                            .expect("conn in pool");
                        if let Some(id) = c.request_arrived(total_bytes) {
                            if self.recs[id.0 as usize].timing.request_at_server.is_none() {
                                ready.push(id);
                            }
                        }
                    }
                    OriginState::H2(o) => {
                        while let Some(&(id, mark)) = o.up_queue.front() {
                            if mark <= total_bytes {
                                o.up_queue.pop_front();
                                ready.push(id);
                            } else {
                                break;
                            }
                        }
                    }
                }
                for id in ready {
                    let rec = &mut self.recs[id.0 as usize];
                    rec.timing.request_at_server = Some(now);
                    let think = rec.req.server_think;
                    self.timers.schedule(now + think, TimerEv::ResponseReady(id));
                }
            }
            NetEvent::Delivered { conn, total_bytes } => {
                let origin = self.conn_map[conn.0];
                self.on_down_delivered(origin, conn, total_bytes, now);
            }
        }
    }

    fn try_assign(&mut self, origin: OriginId, now: SimTime) {
        match self.origins.get(&origin) {
            Some(OriginState::H1(_)) => self.try_assign_h1(origin, now),
            Some(OriginState::H2(_)) => self.try_assign_h2(origin, now),
            None => {}
        }
    }

    fn try_assign_h1(&mut self, origin: OriginId, now: SimTime) {
        // Assign queued requests to idle established connections.
        loop {
            let Some(OriginState::H1(o)) = self.origins.get_mut(&origin) else { return };
            let Some(idx) = o.idle_established() else { break };
            let Some(q) = o.pop_assignable(now) else { break };
            let raw_header = self.recs[q.id.0 as usize].req.request_header_bytes;
            let c = &mut o.conns[idx];
            self.counters.h1_requests_assigned += 1;
            if c.down_scheduled > 0 {
                // The connection has already served response bytes:
                // this assignment is persistent-connection reuse.
                self.counters.h1_conns_reused += 1;
            }
            c.assign(q.id, raw_header);
            let conn = c.conn;
            self.net.client_send(conn, now, raw_header);
            self.uplink_wire_bytes += raw_header;
            let rec = &mut self.recs[q.id.0 as usize];
            rec.h1_conn = Some(idx);
            rec.timing.sent = Some(now);
        }
        // Open additional connections for whatever is still waiting.
        let Some(OriginState::H1(o)) = self.origins.get_mut(&origin) else { return };
        let assignable_now =
            o.queue.iter().filter(|q| q.submitted <= now).count();
        let connecting_idle =
            o.conns.iter().filter(|c| !c.established && c.idle()).count();
        let mut to_open = assignable_now
            .saturating_sub(connecting_idle)
            .min(self.cfg.h1_pool_size.saturating_sub(o.conns.len()));
        let mut new_conns = Vec::new();
        while to_open > 0 {
            let conn = self.net.open(now, self.cfg.tls);
            self.counters.conns_opened += 1;
            self.map_conn(conn, origin);
            new_conns.push(conn);
            to_open -= 1;
        }
        let Some(OriginState::H1(o)) = self.origins.get_mut(&origin) else { return };
        o.conns.extend(new_conns.into_iter().map(H1Conn::new));
    }

    /// Record a just-opened connection's origin.
    fn map_conn(&mut self, conn: ConnId, origin: OriginId) {
        debug_assert_eq!(conn.0, self.conn_map.len(), "connections map in open order");
        self.conn_map.push(origin);
    }

    fn try_assign_h2(&mut self, origin: OriginId, now: SimTime) {
        let Some(OriginState::H2(o)) = self.origins.get_mut(&origin) else { return };
        if !o.established {
            return;
        }
        // Send every pending request whose submit time has arrived, in
        // submission order.
        let mut sendable: Vec<RequestId> = Vec::new();
        o.pending.retain(|&(id, at)| {
            if at <= now {
                sendable.push(id);
                false
            } else {
                true
            }
        });
        let conn = o.conn;
        for id in sendable {
            let raw = self.recs[id.0 as usize].req.request_header_bytes;
            let Some(OriginState::H2(o)) = self.origins.get_mut(&origin) else { return };
            let wire = o.hpack_up.encode(raw) + FRAME_OVERHEAD;
            o.up_sent += wire;
            o.up_queue.push_back((id, o.up_sent));
            self.net.client_send(conn, now, wire);
            self.uplink_wire_bytes += wire;
            self.recs[id.0 as usize].timing.sent = Some(now);
        }
    }

    fn response_ready(&mut self, id: RequestId, now: SimTime) {
        let origin = self.recs[id.0 as usize].req.origin;
        // lint:allow(D4): every request's origin was registered when the request was submitted
        match self.origins.get_mut(&origin).expect("origin exists") {
            OriginState::H1(o) => {
                // lint:allow(D4): an H1 response only becomes ready after the request was assigned a connection
                let idx = self.recs[id.0 as usize].h1_conn.expect("assigned connection");
                let rec = &mut self.recs[id.0 as usize];
                let header = rec.req.response_header_bytes;
                let body = rec.req.body_bytes;
                rec.resp_header_wire = header;
                let c = &mut o.conns[idx];
                let confirmed = c.response_scheduled(header, body);
                debug_assert_eq!(confirmed, id);
                let total = header + body;
                if total > 0 {
                    self.net.server_send(c.conn, now, total);
                } else {
                    // Degenerate empty response: complete instantly.
                    self.emit_headers(id, now);
                    self.emit_complete(id, now);
                }
            }
            OriginState::H2(o) => {
                let rec = &mut self.recs[id.0 as usize];
                let wire_header = o.hpack_down.encode(rec.req.response_header_bytes);
                rec.resp_header_wire = wire_header;
                let weight = rec.req.priority.h2_weight();
                self.counters.h2_streams += 1;
                o.sched.add_stream(H2SendStream::new(id, wire_header, rec.req.body_bytes, weight));
                // Pushed streams ride along: they become ready with the
                // parent (the server already knows it will send them).
                let push_ids = std::mem::take(&mut rec.pushes);
                for pid in push_ids {
                    let prec = &mut self.recs[pid.0 as usize];
                    prec.timing.sent = Some(now);
                    prec.timing.request_at_server = Some(now);
                    let Some(OriginState::H2(o)) = self.origins.get_mut(&origin) else {
                        unreachable!("origin variant fixed")
                    };
                    // PUSH_PROMISE costs a small frame on the wire before
                    // the pushed HEADERS (we fold it into the header
                    // block's size).
                    let wire_header =
                        o.hpack_down.encode(prec.req.response_header_bytes) + 16;
                    prec.resp_header_wire = wire_header;
                    let weight = prec.req.priority.h2_weight();
                    self.counters.h2_streams += 1;
                    self.counters.h2_pushed_streams += 1;
                    o.sched.add_stream(H2SendStream::new(
                        pid,
                        wire_header,
                        prec.req.body_bytes,
                        weight,
                    ));
                }
                self.pump_h2(origin, now);
            }
        }
    }

    fn pump_h2(&mut self, origin: OriginId, now: SimTime) {
        let Some(OriginState::H2(o)) = self.origins.get_mut(&origin) else { return };
        loop {
            let in_transport = o.written - o.delivered;
            let space = self.cfg.h2_write_window.saturating_sub(in_transport);
            if space == 0 {
                break;
            }
            let Some(chunk) = o.sched.next_chunk(space) else { break };
            let size = o.chunks.push(chunk);
            o.written += size;
            self.net.server_send(o.conn, now, size);
        }
    }

    fn on_down_delivered(&mut self, origin: OriginId, conn: ConnId, total: u64, now: SimTime) {
        // lint:allow(D4): origins gains an entry before any connection to it is opened
        match self.origins.get_mut(&origin).expect("origin exists") {
            OriginState::H1(o) => {
                // lint:allow(D4): the connection was added to the pool when it was opened
                let c = o.conns.iter_mut().find(|c| c.conn == conn).expect("conn in pool");
                let mut events = std::mem::take(&mut self.h1_deliveries);
                c.on_delivered(total, &mut events);
                let mut freed = false;
                for &ev in &events {
                    match ev {
                        H1Delivery::Headers(id) => self.emit_headers(id, now),
                        H1Delivery::Body(id, b) => {
                            self.recs[id.0 as usize].body_received = b;
                            self.out.push_back((now, FetchEvent::Data { id, body_bytes: b }));
                        }
                        H1Delivery::Done(id) => {
                            self.emit_complete(id, now);
                            freed = true;
                        }
                    }
                }
                self.h1_deliveries = events;
                if freed {
                    self.try_assign(origin, now);
                }
            }
            OriginState::H2(o) => {
                o.delivered = total;
                let mut deliveries = std::mem::take(&mut self.h2_deliveries);
                o.chunks.advance(total, &mut deliveries);
                for &d in &deliveries {
                    let rec = &mut self.recs[d.id.0 as usize];
                    match d.kind {
                        ChunkKind::Header => {
                            rec.header_received += d.payload_delta;
                            if !rec.headers_done && rec.header_received >= rec.resp_header_wire {
                                self.emit_headers(d.id, now);
                            }
                        }
                        ChunkKind::Body => {
                            rec.body_received += d.payload_delta;
                            let b = rec.body_received;
                            let done = b >= rec.req.body_bytes;
                            self.out.push_back((now, FetchEvent::Data { id: d.id, body_bytes: b }));
                            if done {
                                self.emit_complete(d.id, now);
                            }
                        }
                    }
                    // Header-only responses complete once headers land.
                    let rec = &self.recs[d.id.0 as usize];
                    if rec.headers_done && rec.req.body_bytes == 0 && !rec.completed {
                        self.emit_complete(d.id, now);
                    }
                }
                self.h2_deliveries = deliveries;
                self.pump_h2(origin, now);
            }
        }
    }

    fn emit_headers(&mut self, id: RequestId, now: SimTime) {
        let rec = &mut self.recs[id.0 as usize];
        if rec.headers_done {
            return;
        }
        rec.headers_done = true;
        rec.timing.headers_received = Some(now);
        self.out.push_back((now, FetchEvent::HeadersReceived { id }));
    }

    fn emit_complete(&mut self, id: RequestId, now: SimTime) {
        let rec = &mut self.recs[id.0 as usize];
        if rec.completed {
            return;
        }
        rec.completed = true;
        rec.timing.completed = Some(now);
        self.out.push_back((now, FetchEvent::Completed { id }));
    }
}
