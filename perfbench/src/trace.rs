//! Spans, clocks and memory readings for the benchmark.
//!
//! Spans are recorded only by the benchmark's own code, around its
//! calls into the workspace's public functions, and only while tracing
//! is on: with tracing off a span guard reads no clock. Every call the
//! benchmark traces runs on the main thread (the workspace parallelises
//! inside those calls), so spans nest strictly and a span's self time is
//! its duration minus the durations of its direct children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// Span name; the part before the first `.` is the layer.
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Traced pass the span belongs to (spans of one pass share it).
    pass: u32,
    /// Wall seconds since the tracer started, at the start.
    start: f64,
    /// Wall seconds since the tracer started, at the end.
    end: f64,
    /// Process CPU seconds at the start.
    cpu_start: f64,
    /// Process CPU seconds at the end.
    cpu_end: f64,
}

impl Span {
    fn wall(&self) -> f64 {
        self.end - self.start
    }

    fn cpu(&self) -> f64 {
        self.cpu_end - self.cpu_start
    }
}

struct Tracer {
    on: bool,
    pass: u32,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        pass: 0,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turn span recording on or off.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Start a new traced pass; later spans carry its number.
pub fn begin_pass() -> u32 {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.pass += 1;
        t.pass
    })
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard is dropped"]
pub struct Guard(Option<usize>);

/// Open a span named `name` (`layer.what`) until the guard drops.
pub fn span(name: &'static str) -> Guard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return Guard(None);
        }
        let id = t.spans.len();
        let now = t.origin.elapsed().as_secs_f64();
        let span = Span {
            name,
            parent: t.open.last().copied(),
            pass: t.pass,
            start: now,
            end: now,
            cpu_start: process_cpu_s(),
            cpu_end: 0.0,
        };
        t.spans.push(span);
        t.open.push(id);
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let cpu = process_cpu_s();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let now = t.origin.elapsed().as_secs_f64();
            t.open.retain(|&o| o != id);
            if let Some(s) = t.spans.get_mut(id) {
                s.end = now;
                s.cpu_end = cpu;
            }
        });
    }
}

/// Every span recorded so far.
fn spans() -> Vec<Span> {
    TRACER.with(|t| t.borrow().spans.clone())
}

/// Self wall and CPU seconds of one span: its own values minus those of
/// its direct children.
fn self_times(spans: &[Span]) -> Vec<(f64, f64)> {
    let mut out: Vec<(f64, f64)> = spans.iter().map(|s| (s.wall(), s.cpu())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p].0 -= s.wall();
            out[p].1 -= s.cpu();
        }
    }
    out
}

/// Per span name, the summed self wall seconds, self CPU seconds and
/// total wall seconds over the spans of `pass`.
pub fn summary(pass: u32) -> BTreeMap<&'static str, SpanTotals> {
    let spans = spans();
    let selfs = self_times(&spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, (self_wall, self_cpu)) in spans.iter().zip(selfs) {
        if s.pass != pass {
            continue;
        }
        let e = out.entry(s.name).or_default();
        e.self_wall += self_wall;
        e.self_cpu += self_cpu;
        e.wall += s.wall();
    }
    out
}

/// Totals of one span name within a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Summed self wall seconds.
    pub self_wall: f64,
    /// Summed self CPU seconds (whole process).
    pub self_cpu: f64,
    /// Summed wall seconds including children.
    pub wall: f64,
}

/// JSON array of every span, for the trace file written at the end of a
/// traced run.
pub fn spans_json() -> String {
    let spans = spans();
    let selfs = self_times(&spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(selfs)
        .enumerate()
        .map(|(i, (s, (self_wall, self_cpu)))| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"id\": {i}, \"parent\": {parent}, \"pass\": {}, \"name\": \"{}\", \
                 \"start_s\": {}, \"end_s\": {}, \"self_s\": {self_wall}, \"cpu_s\": {}, \
                 \"self_cpu_s\": {self_cpu}}}",
                s.pass,
                s.name,
                s.start,
                s.end,
                s.cpu()
            )
        })
        .collect();
    format!("[\n  {}\n]", rows.join(",\n  "))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux clocks and /proc; it builds for 64-bit Linux only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by every thread of this process, including
/// threads that have already exited.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
