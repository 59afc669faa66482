//! The static metric registry.
//!
//! Every counter, labeled counter, and histogram in the system is
//! declared here — instrumented crates import these statics rather than
//! registering their own, so a [`crate::snapshot`] can never miss a
//! metric and the report's key set is identical across runs.
//!
//! Naming: `<layer>.<what>`, layers matching the crate names.
//!
//! Determinism contract: each metric is bumped only at points whose
//! invocation count is a pure function of the workload and its seeds.
//! Nothing here may be recorded from thread-count-dependent machinery
//! (lazy memoisation that a parallel engine precomputes, racy cache
//! fills, work-stealing internals) — that would break the byte-identical
//! fingerprint `scripts/verify.sh` checks across `EYEORG_THREADS`.
//!
//! The `net.*` and `http.*` counters are not bumped per event. The
//! network simulator and the fetch engine tally them in plain integers
//! that travel (and are cloned) with their state, and the browser folds
//! those tallies in once per page load, together with the `browser.*`
//! totals. Each load therefore adds exactly what its events counted,
//! also when `eyeorg_browser::load_repeats` shares simulation between
//! repeats, and a traced run pays one fold per load instead of one
//! atomic add per simulator event.

use crate::{Counter, Histogram, LabeledCounter};

// --- net: the TCP/link simulator ---

/// Simulator events processed, in the per-arm timer model: every popped
/// event except retransmission-timer entries, plus each armed
/// retransmission check once (when it fires, or when a re-arm retires
/// it). This is what a queue holding one check per re-arm would pop.
pub static NET_EVENTS_PROCESSED: Counter = Counter::new("net.events_processed");
/// Data segments handed to the link (including retransmissions).
pub static NET_SEGMENTS_SENT: Counter = Counter::new("net.segments_sent");
/// Segments that were retransmissions.
pub static NET_RETRANSMISSIONS: Counter = Counter::new("net.retransmissions");
/// Segments dropped by the random-loss model before queueing.
pub static NET_DROPS_RANDOM_LOSS: Counter = Counter::new("net.drops_random_loss");
/// Segments dropped by the drop-tail link buffer.
pub static NET_DROPS_QUEUE: Counter = Counter::new("net.drops_queue");
/// Bursts whose ACKs were coalesced into a batched plan.
pub static NET_BURSTS_BATCHED: Counter = Counter::new("net.bursts_batched");
/// Batched plans flushed back to per-ACK replay (interleaving traffic).
pub static NET_BURST_FLUSHES: Counter = Counter::new("net.burst_flushes");

// --- http: the H1/H2 protocol engines ---

/// Requests assigned to an HTTP/1.1 connection.
pub static HTTP_H1_REQUESTS_ASSIGNED: Counter = Counter::new("http.h1_requests_assigned");
/// H1 assignments that reused a connection which had already served a
/// response (persistent-connection reuse).
pub static HTTP_H1_CONNS_REUSED: Counter = Counter::new("http.h1_conns_reused");
/// Transport connections opened (H1 pool fills + H2 per-origin opens).
pub static HTTP_CONNS_OPENED: Counter = Counter::new("http.conns_opened");
/// HTTP/2 response streams scheduled (client-requested).
pub static HTTP_H2_STREAMS: Counter = Counter::new("http.h2_streams");
/// HTTP/2 server-pushed streams scheduled.
pub static HTTP_H2_PUSHED_STREAMS: Counter = Counter::new("http.h2_pushed_streams");

// --- browser: the page-load engine ---

/// Completed page loads.
pub static BROWSER_PAGE_LOADS: Counter = Counter::new("browser.page_loads");
/// Resources whose responses completed during a load.
pub static BROWSER_RESOURCES_FETCHED: Counter = Counter::new("browser.resources_fetched");
/// Paint events recorded across loads.
pub static BROWSER_PAINT_EVENTS: Counter = Counter::new("browser.paint_events");
/// Simulated main-thread busy time across loads, microseconds.
pub static BROWSER_MAIN_THREAD_CPU_US: Counter = Counter::new("browser.main_thread_cpu_us");
/// Per-load distribution of simulated main-thread busy time (ms).
pub static BROWSER_LOAD_CPU_MS: Histogram = Histogram::new("browser.load_cpu_ms");

// --- video: capture and the shared capture cache ---

/// Videos captured from load traces.
pub static VIDEO_CAPTURES: Counter = Counter::new("video.captures");
/// Frames encoded into video files. The crowd models downloads in closed
/// form and no code encodes frames, so this reads 0.
// Kept registered because perfbench's `fingerprints.txt` hashes, and the
// `ckpt_*.jsonl` fixtures' counters lines carry, every registered counter,
// zeros included. It goes with the next fingerprint re-record (ROADMAP
// items 1 and 11).
pub static VIDEO_FRAMES_ENCODED: Counter = Counter::new("video.frames_encoded");
/// Per-capture frame-count distribution.
pub static VIDEO_FRAMES_PER_CAPTURE: Histogram = Histogram::new("video.frames_per_capture");
/// Lookups against the shared capture cache.
pub static VIDEO_CACHE_REQUESTS: Counter = Counter::new("video.capture_cache_requests");
/// Lookups answered by an existing entry.
pub static VIDEO_CACHE_HITS: Counter = Counter::new("video.capture_cache_hits");
/// Lookups that created the entry (exactly one per distinct key).
pub static VIDEO_CACHE_MISSES: Counter = Counter::new("video.capture_cache_misses");

// --- core: gates, filters, campaigns, analysis ---

/// Participants admitted by the captcha gate.
pub static CORE_GATE_ADMITTED: Counter = Counter::new("core.gate_admitted");
/// Participants rejected by the captcha gate.
pub static CORE_GATE_REJECTED: Counter = Counter::new("core.gate_rejected");
/// Timeline responses collected (video shown, not skipped).
pub static CORE_RESPONSES_COLLECTED: Counter = Counter::new("core.responses_collected");
/// Timeline showings the participant skipped.
pub static CORE_RESPONSES_SKIPPED: Counter = Counter::new("core.responses_skipped");
/// A/B verdicts collected.
pub static CORE_AB_VOTES: Counter = Counter::new("core.ab_votes");
/// A/B showings the participant skipped.
pub static CORE_AB_SKIPS: Counter = Counter::new("core.ab_skips");
/// Participants surviving the §4.3 filter pipeline.
pub static CORE_PARTICIPANTS_KEPT: Counter = Counter::new("core.participants_kept");
/// Participants dropped, by the filter bucket that caught them
/// (`engagement` / `soft` / `control`).
pub static CORE_FILTER_DROPS: LabeledCounter = LabeledCounter::new("core.filter_drops");
/// Responses retained per stimulus after wisdom-of-the-crowd banding
/// (sites that lost every response appear with 0).
pub static CORE_RETAINED_PER_SITE: LabeledCounter =
    LabeledCounter::new("core.retained_per_site");

// --- adaptive: the early-stopping campaign driver ---
//
// Determinism note: these are bumped only from the adaptive driver's
// single-threaded epoch-barrier loop and from the kernel's fold totals,
// and only when an adaptive rule (`epsilon > 0` or `max_n > 0`) is
// actually in force — an `epsilon = 0` adaptive run leaves all three at
// zero, which keeps its counter fingerprint byte-identical to the
// plain streaming engine's (zero-valued counters are still reported).

/// Epoch barriers evaluated by the adaptive driver.
pub static ADAPTIVE_EPOCHS: Counter = Counter::new("adaptive.epochs");
/// Stimuli whose recruitment the stopping rule closed.
pub static ADAPTIVE_STIMULI_STOPPED: Counter = Counter::new("adaptive.stimuli_stopped");
/// Participants never simulated thanks to early stopping: whole-crowd
/// budget never recruited plus admitted participants pruned because all
/// their assigned stimuli had already stopped.
pub static ADAPTIVE_PARTICIPANTS_SAVED: Counter = Counter::new("adaptive.participants_saved");

static COUNTERS: [&Counter; 31] = [
    &NET_EVENTS_PROCESSED,
        &NET_SEGMENTS_SENT,
        &NET_RETRANSMISSIONS,
        &NET_DROPS_RANDOM_LOSS,
        &NET_DROPS_QUEUE,
        &NET_BURSTS_BATCHED,
        &NET_BURST_FLUSHES,
        &HTTP_H1_REQUESTS_ASSIGNED,
        &HTTP_H1_CONNS_REUSED,
        &HTTP_CONNS_OPENED,
        &HTTP_H2_STREAMS,
        &HTTP_H2_PUSHED_STREAMS,
        &BROWSER_PAGE_LOADS,
        &BROWSER_RESOURCES_FETCHED,
        &BROWSER_PAINT_EVENTS,
        &BROWSER_MAIN_THREAD_CPU_US,
        &VIDEO_CAPTURES,
        &VIDEO_FRAMES_ENCODED,
        &VIDEO_CACHE_REQUESTS,
        &VIDEO_CACHE_HITS,
        &VIDEO_CACHE_MISSES,
        &CORE_GATE_ADMITTED,
        &CORE_GATE_REJECTED,
        &CORE_RESPONSES_COLLECTED,
        &CORE_RESPONSES_SKIPPED,
        &CORE_AB_VOTES,
        &CORE_AB_SKIPS,
    &CORE_PARTICIPANTS_KEPT,
        &ADAPTIVE_EPOCHS,
        &ADAPTIVE_STIMULI_STOPPED,
        &ADAPTIVE_PARTICIPANTS_SAVED,
];

static LABELED: [&LabeledCounter; 2] = [&CORE_FILTER_DROPS, &CORE_RETAINED_PER_SITE];

static HISTOGRAMS: [&Histogram; 2] = [&BROWSER_LOAD_CPU_MS, &VIDEO_FRAMES_PER_CAPTURE];

/// Every registered plain counter.
pub fn counters() -> &'static [&'static Counter] {
    &COUNTERS
}

/// Every registered labeled counter.
pub fn labeled() -> &'static [&'static LabeledCounter] {
    &LABELED
}

/// Every registered histogram.
pub fn histograms() -> &'static [&'static Histogram] {
    &HISTOGRAMS
}
