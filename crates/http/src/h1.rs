//! HTTP/1.1 connection-pool building blocks.
//!
//! An HTTP/1.1 browser opens up to six parallel TCP connections per
//! origin and runs one request–response exchange at a time on each (real
//! browsers ship with pipelining disabled, as did the Chrome webpeg
//! recorded). The consequences this module exists to reproduce:
//!
//! * **head-of-line blocking at the connection pool** — the seventh
//!   request waits for a connection to free up;
//! * **per-connection slow start** — six short flows each ramp their own
//!   congestion window (slower per-flow, but six parallel ramps);
//! * **raw headers** — every request repeats its full cookie/UA baggage.
//!
//! [`H1Conn`] is the per-connection bookkeeping: which response is in
//! flight and where its header/body boundaries fall in the connection's
//! cumulative downlink byte stream. It is a pure state machine —
//! `eyeorg_http::engine` performs the actual sends.

use eyeorg_net::{ConnId, SimTime};

use crate::request::{Priority, RequestId};

/// Attribution events produced as downlink bytes arrive on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum H1Delivery {
    /// The in-flight response's headers finished arriving.
    Headers(RequestId),
    /// Body progress: cumulative body bytes received for the response.
    Body(RequestId, u64),
    /// The response completed; the connection is free again.
    Done(RequestId),
}

/// The response currently being received on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurrentResponse {
    /// Which request this response answers.
    pub id: RequestId,
    /// Absolute downlink-stream offset at which headers end.
    pub header_end: u64,
    /// Absolute offset at which the body (and response) ends.
    pub body_end: u64,
    headers_emitted: bool,
}

/// One HTTP/1.1 connection in an origin's pool.
#[derive(Debug, Clone)]
pub struct H1Conn {
    /// Transport connection backing this slot.
    pub conn: ConnId,
    /// Whether the handshake has completed.
    pub established: bool,
    /// Request whose *request bytes* are on the wire / awaiting response.
    /// `Some` from assignment until the response completes.
    pub in_service: Option<RequestId>,
    /// Cumulative request bytes sent up this connection (attribution
    /// mark: when the server has received this many, the current request
    /// has fully arrived).
    pub up_mark: u64,
    /// Response currently streaming down, with its stream boundaries.
    pub current: Option<CurrentResponse>,
    /// Cumulative downlink bytes already attributed.
    pub down_attributed: u64,
    /// Total downlink bytes expected once the current response is fully
    /// written (grows as responses are scheduled).
    pub down_scheduled: u64,
}

impl H1Conn {
    /// A new, not-yet-established connection slot.
    pub fn new(conn: ConnId) -> H1Conn {
        H1Conn {
            conn,
            established: false,
            in_service: None,
            up_mark: 0,
            current: None,
            down_attributed: 0,
            down_scheduled: 0,
        }
    }

    /// Whether a new request may be assigned (established or not — a
    /// request may be queued on a connecting slot; it is sent on
    /// establishment).
    pub fn idle(&self) -> bool {
        self.in_service.is_none()
    }

    /// Begin serving `id`: the caller sends `request_bytes` up the wire.
    ///
    /// # Panics
    /// Panics if the connection is already serving a request — HTTP/1.1
    /// without pipelining never has two in flight.
    pub fn assign(&mut self, id: RequestId, request_bytes: u64) {
        assert!(self.in_service.is_none(), "H1 connection already busy");
        self.in_service = Some(id);
        self.up_mark += request_bytes;
    }

    /// The server has `total` cumulative request bytes; returns the
    /// request that just fully arrived, if it is the one in service.
    pub fn request_arrived(&self, total: u64) -> Option<RequestId> {
        if total >= self.up_mark {
            self.in_service.filter(|_| self.current.is_none())
        } else {
            None
        }
    }

    /// The server begins writing the response for the request in service:
    /// record its boundaries in the downlink stream.
    ///
    /// # Panics
    /// Panics if no request is in service or a response is already in
    /// flight.
    pub fn response_scheduled(&mut self, header_bytes: u64, body_bytes: u64) -> RequestId {
        // lint:allow(D4): documented panic: calling without a request in service is a protocol-logic error
        let id = self.in_service.expect("response without a request in service");
        assert!(self.current.is_none(), "response already in flight");
        let header_end = self.down_scheduled + header_bytes;
        let body_end = header_end + body_bytes;
        self.down_scheduled = body_end;
        self.current =
            Some(CurrentResponse { id, header_end, body_end, headers_emitted: false });
        id
    }

    /// Attribute newly delivered downlink bytes (`total` is cumulative for
    /// the connection) to the in-flight response. Replaces the contents
    /// of `out` (a buffer the caller reuses) with the resulting events.
    pub fn on_delivered(&mut self, total: u64, out: &mut Vec<H1Delivery>) {
        out.clear();
        if total <= self.down_attributed {
            return;
        }
        self.down_attributed = total;
        let Some(cur) = self.current.as_mut() else { return };
        if !cur.headers_emitted && total >= cur.header_end {
            cur.headers_emitted = true;
            out.push(H1Delivery::Headers(cur.id));
        }
        if cur.headers_emitted && total > cur.header_end {
            let body_so_far = total.min(cur.body_end) - cur.header_end;
            if total >= cur.body_end {
                let id = cur.id;
                if cur.body_end > cur.header_end {
                    out.push(H1Delivery::Body(id, body_so_far));
                }
                out.push(H1Delivery::Done(id));
                self.current = None;
                self.in_service = None;
            } else {
                out.push(H1Delivery::Body(cur.id, body_so_far));
            }
        } else if cur.headers_emitted && total >= cur.body_end {
            // Zero-length body: Done immediately after headers.
            let id = cur.id;
            out.push(H1Delivery::Done(id));
            self.current = None;
            self.in_service = None;
        }
    }
}

/// A queued request waiting for a free connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequest {
    /// The waiting request.
    pub id: RequestId,
    /// When it was submitted (assignment may not precede this).
    pub submitted: SimTime,
    /// Its priority (higher priorities win free connections).
    pub priority: Priority,
}

/// An origin's HTTP/1.1 connection pool and pending-request queue.
#[derive(Debug, Clone, Default)]
pub struct H1Origin {
    /// Connection slots (at most the configured pool size).
    pub conns: Vec<H1Conn>,
    /// Requests awaiting a connection.
    pub queue: Vec<QueuedRequest>,
}

impl H1Origin {
    /// A fresh pool with no connections.
    pub fn new() -> H1Origin {
        H1Origin::default()
    }

    /// Pop the best assignable queued request at time `now`: highest
    /// priority first, FIFO within a priority, and never a request
    /// submitted in the future.
    pub fn pop_assignable(&mut self, now: SimTime) -> Option<QueuedRequest> {
        let mut best: Option<usize> = None;
        for (i, q) in self.queue.iter().enumerate() {
            if q.submitted > now {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    if q.priority < self.queue[b].priority {
                        best = Some(i);
                    }
                }
            }
        }
        best.map(|i| self.queue.remove(i))
    }

    /// Index of an idle established connection, preferring lower indices
    /// (deterministic reuse order).
    pub fn idle_established(&self) -> Option<usize> {
        self.conns.iter().position(|c| c.established && c.idle())
    }

    /// Index of an idle connecting slot (a request can wait on it).
    pub fn idle_connecting(&self) -> Option<usize> {
        self.conns.iter().position(|c| !c.established && c.idle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn() -> H1Conn {
        let mut c = H1Conn::new(ConnId(0));
        c.established = true;
        c
    }

    fn on_delivered(c: &mut H1Conn, total: u64) -> Vec<H1Delivery> {
        let mut out = Vec::new();
        c.on_delivered(total, &mut out);
        out
    }

    #[test]
    fn assign_and_request_arrival() {
        let mut c = conn();
        c.assign(RequestId(1), 500);
        assert!(!c.idle());
        assert_eq!(c.request_arrived(499), None);
        assert_eq!(c.request_arrived(500), Some(RequestId(1)));
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_assign_panics() {
        let mut c = conn();
        c.assign(RequestId(1), 100);
        c.assign(RequestId(2), 100);
    }

    #[test]
    fn delivery_attribution_full_cycle() {
        let mut c = conn();
        c.assign(RequestId(1), 100);
        c.response_scheduled(200, 1000);
        // Headers incomplete: nothing.
        assert!(on_delivered(&mut c, 150).is_empty());
        // Headers complete at 200.
        assert_eq!(on_delivered(&mut c, 200), vec![H1Delivery::Headers(RequestId(1))]);
        // Partial body.
        assert_eq!(on_delivered(&mut c, 700), vec![H1Delivery::Body(RequestId(1), 500)]);
        // Completion.
        assert_eq!(
            on_delivered(&mut c, 1200),
            vec![H1Delivery::Body(RequestId(1), 1000), H1Delivery::Done(RequestId(1))]
        );
        assert!(c.idle());
    }

    #[test]
    fn headers_and_completion_in_one_burst() {
        let mut c = conn();
        c.assign(RequestId(3), 100);
        c.response_scheduled(200, 300);
        let evs = on_delivered(&mut c, 500);
        assert_eq!(
            evs,
            vec![
                H1Delivery::Headers(RequestId(3)),
                H1Delivery::Body(RequestId(3), 300),
                H1Delivery::Done(RequestId(3)),
            ]
        );
    }

    #[test]
    fn zero_length_body() {
        let mut c = conn();
        c.assign(RequestId(4), 100);
        c.response_scheduled(150, 0);
        let evs = on_delivered(&mut c, 150);
        assert_eq!(evs, vec![H1Delivery::Headers(RequestId(4)), H1Delivery::Done(RequestId(4))]);
    }

    #[test]
    fn keep_alive_reuses_stream_offsets() {
        let mut c = conn();
        c.assign(RequestId(1), 100);
        c.response_scheduled(100, 100);
        on_delivered(&mut c, 200);
        assert!(c.idle());
        // Second exchange continues the cumulative stream.
        c.assign(RequestId(2), 100);
        assert_eq!(c.request_arrived(200), Some(RequestId(2)));
        c.response_scheduled(50, 50);
        let evs = on_delivered(&mut c, 300);
        assert!(evs.contains(&H1Delivery::Done(RequestId(2))));
    }

    #[test]
    fn duplicate_delivery_ignored() {
        let mut c = conn();
        c.assign(RequestId(1), 100);
        c.response_scheduled(100, 100);
        on_delivered(&mut c, 150);
        assert!(on_delivered(&mut c, 150).is_empty());
        assert!(on_delivered(&mut c, 120).is_empty());
    }

    #[test]
    fn queue_priority_and_fifo() {
        let mut o = H1Origin::new();
        let t = SimTime::from_millis(10);
        o.queue.push(QueuedRequest { id: RequestId(1), submitted: t, priority: Priority::Low });
        o.queue.push(QueuedRequest { id: RequestId(2), submitted: t, priority: Priority::High });
        o.queue.push(QueuedRequest { id: RequestId(3), submitted: t, priority: Priority::High });
        let first = o.pop_assignable(t).unwrap();
        assert_eq!(first.id, RequestId(2), "higher priority wins");
        let second = o.pop_assignable(t).unwrap();
        assert_eq!(second.id, RequestId(3), "FIFO within priority");
        assert_eq!(o.pop_assignable(t).unwrap().id, RequestId(1));
        assert!(o.pop_assignable(t).is_none());
    }

    #[test]
    fn future_submissions_not_assignable() {
        let mut o = H1Origin::new();
        o.queue.push(QueuedRequest {
            id: RequestId(1),
            submitted: SimTime::from_millis(100),
            priority: Priority::High,
        });
        assert!(o.pop_assignable(SimTime::from_millis(50)).is_none());
        assert!(o.pop_assignable(SimTime::from_millis(100)).is_some());
    }

    #[test]
    fn idle_slot_queries() {
        let mut o = H1Origin::new();
        o.conns.push(H1Conn::new(ConnId(0)));
        assert_eq!(o.idle_established(), None);
        assert_eq!(o.idle_connecting(), Some(0));
        o.conns[0].established = true;
        assert_eq!(o.idle_established(), Some(0));
        o.conns[0].assign(RequestId(1), 10);
        assert_eq!(o.idle_established(), None);
    }
}
