//! The page loader: one simulated Chrome loading one site.
//!
//! This is the heart of the webpeg substitution. It co-simulates two
//! timelines:
//!
//! * the **network** — [`eyeorg_http::FetchEngine`] over the simulated
//!   access link, and
//! * the **main thread** — HTML parsing, script execution, filter-list
//!   matching and paint flushes, serialised through a busy-until cursor.
//!
//! The semantics reproduced (each is load-bearing for some paper result):
//!
//! * **Preload scanner** — resources referenced by received-but-unparsed
//!   HTML are discovered and fetched immediately; parsing only gates
//!   *execution* and *painting*.
//! * **Parser blocking** — a sync `<script>` halts parsing until it has
//!   loaded and executed.
//! * **Render blocking** — no pixels before every discovered stylesheet
//!   has applied; web fonts additionally gate document *text* (but not
//!   images or ads).
//! * **Progressive document paint** — parsed document content paints in
//!   horizontal bands on vsync-aligned flushes.
//! * **Script injection** — trackers execute on arrival and inject their
//!   ads/widgets after an auction delay; injections scheduled before
//!   `onload`'s conditions hold delay it, later ones land after it. This
//!   produces both OnLoad-overestimates and underestimates exactly as the
//!   paper's introduction describes.
//! * **Ad blocking** — filter matching costs main-thread time on every
//!   discovered request; blocked resources are never fetched, and the
//!   children of a blocked injector are never discovered.
//! * **onload** — fires when parsing is done and no started fetch is
//!   outstanding.
//!
//! ## Repeated loads
//!
//! Only two things in a load consume its seed: the network's loss
//! process and the DNS resolver. [`load_repeats`] exploits that. Repeats
//! of one configuration are identical until their first differing loss
//! draw, so it simulates their common prefix once. A *driver* load runs
//! from the start and is cloned at loop boundaries shortly before each
//! other repeat's divergence. Each clone then resumes with that repeat's
//! own loss process and resolver. A repeat that never diverges within
//! the driver's load is the driver's *twin* and takes its trace.

use std::collections::BTreeSet;

use eyeorg_http::{FetchEngine, FetchEvent, HttpConfig, OriginId, Priority, Protocol, Request, RequestId};
use eyeorg_net::dns::Resolution;
use eyeorg_net::event::EventQueue;
use eyeorg_obs::metrics as obs;
use eyeorg_net::{ConnId, ConnLog, ConnStats, DnsConfig, LossProcess, NetSim, Resolver, SimDuration, SimTime};
use eyeorg_stats::Seed;
use eyeorg_workload::{Discovery, Rect, ResourceId, ResourceKind, Website};

use crate::config::BrowserConfig;
use crate::paint::{align_to_vsync, PaintEvent, PaintKind};
use crate::trace::{LoadTrace, ResourceTrace, SkipReason};

/// Per-slot creative rotation count: some slots never rotate, some churn
/// repeatedly — per-site variance in late pixel churn is what decouples
/// LastVisualChange from perception (Fig. 7b's 0.47).
fn max_ad_rotations(rid: ResourceId) -> u8 {
    let h = (u64::from(rid.0) ^ 0x5bd1).wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33;
    (h % 6) as u8 // 0..=5
}

/// Deterministic rotation interval for an ad slot: 3–9 s, varying by slot
/// and generation so rotations do not synchronise.
fn ad_rotation_delay(rid: ResourceId, generation: u8) -> SimDuration {
    let mut h = (u64::from(rid.0) << 8 | u64::from(generation))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 29;
    SimDuration::from_millis(2_000 + h % 4_500)
}

/// Browser-side timed events.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The browser learns the resource exists.
    Discovered(ResourceId),
    /// Filter matching + DNS done; hand the request to the network.
    Submit(ResourceId),
    /// A parse task finished, having consumed document bytes up to `upto`.
    ParseDone { upto: u64 },
    /// A script finished executing.
    ScriptExecuted(ResourceId),
    /// Paint flush: pending paints reach the screen.
    PaintFlush,
    /// An advertisement rotates to a new creative.
    AdRotate(ResourceId, u8),
}

/// Load `site` under `cfg`; the seed controls network loss and DNS
/// timing. Returns the full trace.
pub fn load_page(site: &Website, cfg: &BrowserConfig, seed: Seed) -> LoadTrace {
    Loader::new(site, cfg, seed, true).run().0
}

/// [`load_page`] plus the transport record of every connection the load
/// opened, in open order: its statistics and its qlog. The trace is
/// identical to [`load_page`]'s; logging only observes.
pub fn load_page_with_conns(
    site: &Website,
    cfg: &BrowserConfig,
    seed: Seed,
) -> (LoadTrace, Vec<(ConnStats, ConnLog)>) {
    let mut loader = Loader::new(site, cfg, seed, true);
    loader.engine.set_net_logging(true);
    let (trace, engine) = loader.run();
    let mut net = engine.into_net();
    let conns = (0..net.conn_count())
        .map(|i| (net.conn_stats(ConnId(i)), net.take_log(ConnId(i)).unwrap_or_default()))
        .collect();
    (trace, conns)
}

/// [`load_page`] once per seed: returns exactly
/// `seeds.iter().map(|s| load_page(site, cfg, *s))`, and adds exactly
/// what those loads add to the obs counters.
///
/// The repeats share the simulation of their common prefix (see the
/// module docs on repeated loads); any repeat outside the sharing
/// preconditions is loaded with [`load_page`].
pub fn load_repeats(site: &Website, cfg: &BrowserConfig, seeds: &[Seed]) -> Vec<LoadTrace> {
    share_repeats(site, cfg, seeds).into_iter().map(|(trace, _)| trace).collect()
}

/// A snapshot for a repeat is taken at the first loop boundary at most
/// this many loss draws before its divergence index. One loop step
/// rarely sends more segments than this.
const FORK_MARGIN: u64 = 64;

/// Loss draws scanned per repeat for its first drop. A repeat that
/// agrees with the driver this far is treated as diverging here.
const SCAN_CAP: u64 = 1 << 16;

/// How [`share_repeats`] produced one repeat's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Path {
    /// Simulated from the start; the others share its prefix.
    Driver,
    /// Outcomes agree with the driver's over its whole load.
    Twin,
    /// Resumed from a snapshot of the driver's load.
    Fork,
    /// Fallback to [`load_page`]: a resolver outcome differed from the
    /// driver's before the repeat's snapshot (or end, for a twin).
    ResolverMismatch,
    /// Fallback to [`load_page`]: no loop boundary fell within
    /// [`FORK_MARGIN`] draws before the divergence index.
    NoSnapshot,
}

/// [`load_repeats`], with the path each trace took.
fn share_repeats(site: &Website, cfg: &BrowserConfig, seeds: &[Seed]) -> Vec<(LoadTrace, Path)> {
    let n = seeds.len();
    if n < 2 {
        return seeds.iter().map(|&seed| (load_page(site, cfg, seed), Path::Driver)).collect();
    }
    let first_drop: Vec<u64> = seeds
        .iter()
        .map(|&seed| {
            let mut loss = loss_process(cfg, seed);
            (0..SCAN_CAP).find(|_| loss.drops_next()).unwrap_or(SCAN_CAP)
        })
        .collect();
    // The latest first drop (the earliest repeat among equals).
    let driver = (0..n).rev().max_by_key(|&r| first_drop[r]).unwrap_or(0);
    // Divergence index per repeat: the first loss draw whose outcome
    // differs from the driver's (draws before it agree). The driver's
    // own index is never read.
    let diverge: Vec<u64> = (0..n)
        .map(|r| {
            if r == driver || first_drop[r] < first_drop[driver] || first_drop[r] == SCAN_CAP {
                // Both deliver everything before `r`'s first drop.
                return first_drop[r];
            }
            let (mut a, mut b) = (loss_process(cfg, seeds[driver]), loss_process(cfg, seeds[r]));
            (0..SCAN_CAP).find(|_| a.drops_next() != b.drops_next()).unwrap_or(SCAN_CAP)
        })
        .collect();

    let mut loader = Loader::new(site, cfg, seeds[driver], true);
    let mut snapshots: Vec<Option<Loader>> = vec![None; n];
    loop {
        let drawn = loader.engine.net().loss_draws();
        for r in (0..n).filter(|&r| r != driver) {
            if snapshots[r].is_none() && drawn <= diverge[r] && diverge[r] - drawn <= FORK_MARGIN {
                snapshots[r] = Some(loader.clone());
            }
        }
        if !loader.step() {
            break;
        }
    }
    let drawn = loader.engine.net().loss_draws();
    let cpu_busy_us = loader.cpu_busy_us;
    let dns_calls = std::mem::take(&mut loader.dns_calls);
    let (driver_trace, driver_engine) = loader.finalize();

    let mut out = Vec::with_capacity(n);
    for (r, &seed) in seeds.iter().enumerate() {
        // `None` when the repeat's resolver answers a recorded call
        // differently.
        let shared = if r == driver {
            Some((driver_trace.clone(), Path::Driver))
        } else if drawn <= diverge[r] {
            replays(&dns_calls, site, cfg, seed).map(|_| {
                fold_counters(&driver_trace, &driver_engine, cpu_busy_us);
                (driver_trace.clone(), Path::Twin)
            })
        } else if let Some(fork) = snapshots[r].take() {
            fork.resume(seed).map(|trace| (trace, Path::Fork))
        } else {
            Some((load_page(site, cfg, seed), Path::NoSnapshot))
        };
        out.push(shared.unwrap_or_else(|| (load_page(site, cfg, seed), Path::ResolverMismatch)));
    }
    out
}

/// The engine seed of a load with `seed`.
fn net_seed(seed: Seed) -> Seed {
    seed.derive("net")
}

/// A fresh loss process, as a load with `seed` starts with.
fn loss_process(cfg: &BrowserConfig, seed: Seed) -> LossProcess {
    NetSim::loss_process(&cfg.network, net_seed(seed))
}

/// The resolver a load with `seed` starts with.
fn primed_resolver(site: &Website, cfg: &BrowserConfig, seed: Seed) -> Resolver {
    let mut resolver = Resolver::new(DnsConfig::default(), seed.derive("dns"));
    if cfg.primer {
        // The webpeg primer load warms the resolver for every origin
        // the page touches; its cost is outside the measured load.
        for o in &site.origins {
            resolver.resolve(&o.host, SimTime::ZERO);
        }
    }
    resolver
}

/// The resolver of a load with `seed` after it made `calls`, or `None`
/// if one of them resolves differently than recorded.
fn replays(calls: &[DnsCall], site: &Website, cfg: &BrowserConfig, seed: Seed) -> Option<Resolver> {
    let mut resolver = primed_resolver(site, cfg, seed);
    calls
        .iter()
        .all(|&(origin, t, outcome)| {
            resolver.resolve(&site.origins[usize::from(origin)].host, t) == outcome
        })
        .then_some(resolver)
}

/// One in-load resolver call: origin index, time, outcome.
type DnsCall = (u16, SimTime, Resolution);

/// Add one load's totals to the obs registry.
fn fold_counters(trace: &LoadTrace, engine: &FetchEngine, cpu_busy_us: u64) {
    engine.fold_counters();
    obs::BROWSER_PAGE_LOADS.incr();
    obs::BROWSER_RESOURCES_FETCHED.add(trace.resources.iter().filter(|r| r.fetched()).count() as u64);
    obs::BROWSER_PAINT_EVENTS.add(trace.paints.len() as u64);
    obs::BROWSER_MAIN_THREAD_CPU_US.add(cpu_busy_us);
    obs::BROWSER_LOAD_CPU_MS.record(cpu_busy_us / 1000);
}

#[derive(Clone)]
struct Loader<'a> {
    site: &'a Website,
    cfg: &'a BrowserConfig,
    engine: FetchEngine,
    resolver: Resolver,
    /// Every resolver call of this load, in order: what a repeat
    /// resumed from a snapshot of this load replays.
    dns_calls: Vec<DnsCall>,
    tasks: EventQueue<Ev>,
    /// Main thread is busy until this instant.
    mt_free: SimTime,
    /// Total main-thread CPU microseconds charged (adblock matching,
    /// HTML parsing, JS execution). Observability only — not part of
    /// [`LoadTrace`], so trace fingerprints are unchanged.
    cpu_busy_us: u64,
    res: Vec<ResourceTrace>,
    /// The resource of each request, indexed by [`RequestId`] (the
    /// engine numbers requests densely in submission order).
    req_map: Vec<ResourceId>,
    registered_origins: BTreeSet<u16>,
    discovered: Vec<bool>,
    /// Resources that have started loading and not yet completed/skipped.
    outstanding: BTreeSet<ResourceId>,
    // --- parser state ---
    html_total: u64,
    html_received: u64,
    html_parsed: u64,
    parse_scheduled_to: u64,
    /// Sync scripts by document byte position, not yet executed.
    sync_scripts: Vec<(u64, ResourceId)>,
    /// The sync script the parser is stopped at, if any.
    parse_blocked_by: Option<ResourceId>,
    parse_task_running: bool,
    parse_complete: Option<SimTime>,
    // --- paint state ---
    paints: Vec<PaintEvent>,
    pending_paints: Vec<(ResourceId, Rect, PaintKind, u8)>,
    flush_scheduled: bool,
    painted_doc_height: u32,
    /// Visual resources loaded but not paintable yet (render blocked or
    /// parser not reached).
    awaiting_paint: BTreeSet<ResourceId>,
    // --- milestones ---
    onload: Option<SimTime>,
    last_event_time: SimTime,
}

impl<'a> Loader<'a> {
    fn new(site: &'a Website, cfg: &'a BrowserConfig, seed: Seed, batching: bool) -> Loader<'a> {
        let http_cfg = HttpConfig {
            protocol: cfg.protocol,
            tls: cfg.tls,
            ..HttpConfig::new(cfg.protocol)
        };
        let mut engine = FetchEngine::new(http_cfg, cfg.network.clone(), net_seed(seed));
        engine.set_burst_batching(batching);
        let html_total = site.resources[0].body_bytes;
        let mut sync_scripts: Vec<(u64, ResourceId)> = site
            .resources
            .iter()
            .filter(|r| r.parser_blocking())
            .filter_map(|r| match r.discovery {
                Discovery::Html { at_fraction } => {
                    Some(((f64::from(at_fraction) * html_total as f64) as u64, r.id))
                }
                _ => None,
            })
            .collect();
        sync_scripts.sort_unstable();

        let mut tasks = EventQueue::new();
        tasks.schedule(SimTime::ZERO, Ev::Discovered(ResourceId(0)));

        Loader {
            site,
            cfg,
            engine,
            resolver: primed_resolver(site, cfg, seed),
            dns_calls: Vec::new(),
            tasks,
            mt_free: SimTime::ZERO,
            cpu_busy_us: 0,
            res: site.resources.iter().map(|r| ResourceTrace::empty(r.id)).collect(),
            req_map: Vec::new(),
            registered_origins: BTreeSet::new(),
            discovered: vec![false; site.resources.len()],
            outstanding: BTreeSet::new(),
            html_total,
            html_received: 0,
            html_parsed: 0,
            parse_scheduled_to: 0,
            sync_scripts,
            parse_blocked_by: None,
            parse_task_running: false,
            parse_complete: None,
            paints: Vec::new(),
            pending_paints: Vec::new(),
            flush_scheduled: false,
            painted_doc_height: 0,
            awaiting_paint: BTreeSet::new(),
            onload: None,
            last_event_time: SimTime::ZERO,
        }
    }

    fn run(mut self) -> (LoadTrace, FetchEngine) {
        while self.step() {}
        self.finalize()
    }

    /// One turn of the co-simulation loop: the next fetch event if one
    /// comes at or before the next browser task, else that task.
    /// `false` once both timelines are exhausted.
    fn step(&mut self) -> bool {
        let limit = self.tasks.peek_time().unwrap_or(SimTime::from_micros(u64::MAX));
        if let Some((t, fe)) = self.engine.next_event_until(limit) {
            self.last_event_time = self.last_event_time.max(t);
            self.handle_fetch(t, fe);
            self.check_onload(t);
        } else if let Some((t, ev)) = self.tasks.pop() {
            self.last_event_time = self.last_event_time.max(t);
            self.handle_browser(t, ev);
            self.check_onload(t);
        } else {
            return false;
        }
        true
    }

    /// Continue a snapshot of another repeat's load as the load with
    /// `seed`, whose loss draws agree with it up to the snapshot. `None`
    /// when this seed's resolver answers one of the snapshot's calls
    /// differently.
    fn resume(mut self, seed: Seed) -> Option<LoadTrace> {
        self.resolver = replays(&self.dns_calls, self.site, self.cfg, seed)?;
        let mut loss = loss_process(self.cfg, seed);
        for _ in 0..self.engine.net().loss_draws() {
            loss.drops_next();
        }
        self.engine.replace_loss(loss);
        Some(self.run().0)
    }

    // ------------------------------------------------------------------
    // Fetch-side events
    // ------------------------------------------------------------------

    fn handle_fetch(&mut self, t: SimTime, ev: FetchEvent) {
        let Some(&rid) = self.req_map.get(ev.request_id().0 as usize) else { return };
        match ev {
            FetchEvent::HeadersReceived { .. } => {
                self.res[rid.0 as usize].headers = Some(t);
            }
            FetchEvent::Data { body_bytes, .. } => {
                if rid == ResourceId(0) {
                    self.html_received = body_bytes;
                    self.scan_for_discoveries(t);
                    self.schedule_parse(t);
                }
            }
            FetchEvent::Completed { .. } => {
                self.res[rid.0 as usize].completed = Some(t);
                self.outstanding.remove(&rid);
                self.on_resource_loaded(rid, t);
            }
        }
    }

    /// A resource's bytes are fully in; apply its effects.
    fn on_resource_loaded(&mut self, rid: ResourceId, t: SimTime) {
        let kind = self.site.resources[rid.0 as usize].kind;
        match kind {
            ResourceKind::Html => {
                self.scan_for_discoveries(t);
                self.schedule_parse(t);
            }
            ResourceKind::Css | ResourceKind::Font => {
                self.res[rid.0 as usize].applied = Some(t);
                self.discover_children(rid, t);
                // Styles arriving may unblock all waiting paints.
                self.release_paintables(t);
            }
            ResourceKind::Js | ResourceKind::Tracker => {
                let r = &self.site.resources[rid.0 as usize];
                if r.parser_blocking() {
                    // Executes when the parser reaches it; if the parser
                    // is already stopped at this script, run it now.
                    if self.parse_blocked_by == Some(rid) {
                        self.queue_script_execution(rid, t);
                    }
                } else {
                    // async/deferred semantics: execute on arrival.
                    self.queue_script_execution(rid, t);
                }
            }
            ResourceKind::Image | ResourceKind::Ad | ResourceKind::Widget => {
                self.awaiting_paint.insert(rid);
                self.release_paintables(t);
            }
        }
    }

    // ------------------------------------------------------------------
    // Browser-side events
    // ------------------------------------------------------------------

    fn handle_browser(&mut self, t: SimTime, ev: Ev) {
        match ev {
            Ev::Discovered(rid) => self.on_discovered(rid, t),
            Ev::Submit(rid) => self.on_submit(rid, t),
            Ev::ParseDone { upto } => self.on_parse_done(upto, t),
            Ev::ScriptExecuted(rid) => self.on_script_executed(rid, t),
            Ev::PaintFlush => self.on_paint_flush(t),
            Ev::AdRotate(rid, generation) => self.on_ad_rotate(rid, generation, t),
        }
    }

    fn on_discovered(&mut self, rid: ResourceId, t: SimTime) {
        // `discovered[rid]` is set at scheduling time to prevent duplicate
        // Discovered events; the per-resource trace field is the "has the
        // handler run" guard.
        if self.res[rid.0 as usize].discovered.is_some() {
            return;
        }
        self.discovered[rid.0 as usize] = true;
        self.res[rid.0 as usize].discovered = Some(t);
        let resource = &self.site.resources[rid.0 as usize];

        // Filter-list matching occupies the main thread per request.
        let mut ready_at = t;
        if let Some(blocker) = self.cfg.adblocker {
            let cost = SimDuration::from_micros(
                (blocker.profile().match_cost.as_micros() as f64 * self.cfg.device.cpu_factor)
                    as u64,
            );
            let start = self.mt_free.max(t);
            self.mt_free = start + cost;
            self.cpu_busy_us += cost.as_micros();
            ready_at = self.mt_free;
            if blocker.blocks(self.site, resource) {
                self.res[rid.0 as usize].skipped = Some(SkipReason::BlockedByExtension);
                return;
            }
        }
        // DNS, cached per host across the load.
        let host = &self.site.origins[resource.origin.0 as usize].host;
        let dns = self.resolver.resolve(host, ready_at);
        self.dns_calls.push((resource.origin.0, ready_at, dns));
        self.outstanding.insert(rid);
        self.tasks.schedule(ready_at + dns.latency, Ev::Submit(rid));
    }

    fn on_submit(&mut self, rid: ResourceId, t: SimTime) {
        let resource = &self.site.resources[rid.0 as usize];
        let origin_ref = resource.origin;
        let origin = OriginId(u32::from(origin_ref.0));
        if self.registered_origins.insert(origin_ref.0) {
            // H2 only where the origin supports it; webpeg can force H1
            // but cannot force H2 onto a server that lacks it.
            let proto = if self.cfg.protocol == Protocol::Http2
                && self.site.origins[origin_ref.0 as usize].supports_h2
            {
                Protocol::Http2
            } else {
                Protocol::Http1
            };
            self.engine.set_origin_protocol(origin, proto);
        }
        let priority = match resource.kind {
            ResourceKind::Html => Priority::Critical,
            ResourceKind::Css | ResourceKind::Font => Priority::High,
            ResourceKind::Js => Priority::Medium,
            ResourceKind::Image => Priority::Low,
            ResourceKind::Ad | ResourceKind::Tracker | ResourceKind::Widget => Priority::Lowest,
        };
        let req = Request {
            origin,
            request_header_bytes: resource.request_header_bytes,
            response_header_bytes: resource.response_header_bytes,
            body_bytes: resource.body_bytes,
            priority,
            server_think: SimDuration::from_micros(resource.server_think_us),
        };
        let req_id = self.engine.submit(t, req);
        self.map_request(req_id, rid);
        self.res[rid.0 as usize].submitted = Some(t);

        // Server push: alongside the document, the origin pushes its
        // render-blocking stylesheets (the server knows its own manifest;
        // the browser needs neither discovery nor a request round trip).
        if rid == ResourceId(0)
            && self.cfg.h2_server_push
            && self.cfg.protocol == Protocol::Http2
            && self.site.origins[0].supports_h2
        {
            let pushable: Vec<ResourceId> = self
                .site
                .resources
                .iter()
                .filter(|r| {
                    r.kind == ResourceKind::Css
                        && r.render_blocking
                        && r.origin == self.site.resources[0].origin
                        && !self.discovered[r.id.0 as usize]
                })
                .map(|r| r.id)
                .collect();
            for prid in pushable {
                let pres = &self.site.resources[prid.0 as usize];
                let preq = Request {
                    origin,
                    request_header_bytes: 0, // pushes carry no request
                    response_header_bytes: pres.response_header_bytes,
                    body_bytes: pres.body_bytes,
                    priority: Priority::High,
                    server_think: SimDuration::from_micros(pres.server_think_us),
                };
                let pid = self.engine.submit_pushed(t, req_id, preq);
                self.map_request(pid, prid);
                self.discovered[prid.0 as usize] = true;
                self.res[prid.0 as usize].discovered = Some(t);
                self.res[prid.0 as usize].submitted = Some(t);
                self.outstanding.insert(prid);
            }
        }
    }

    /// Record the resource a just-submitted request fetches.
    fn map_request(&mut self, req: RequestId, rid: ResourceId) {
        debug_assert_eq!(req.0 as usize, self.req_map.len(), "requests map in submission order");
        self.req_map.push(rid);
    }

    fn on_parse_done(&mut self, upto: u64, t: SimTime) {
        self.parse_task_running = false;
        self.html_parsed = self.html_parsed.max(upto);
        self.after_parse_progress(t);
    }

    /// The parser sits at `html_parsed`; decide what happens next:
    /// execute/wait on a sync script, declare parsing complete, or parse
    /// more bytes.
    fn after_parse_progress(&mut self, t: SimTime) {
        // New parse progress can unlock waiting images (their layout
        // slots now exist) as well as the next document band.
        self.release_paintables(t);
        // Skip over extension-blocked scripts; stop at the first real one.
        while let Some(&(pos, script)) = self.sync_scripts.first() {
            if self.html_parsed < pos {
                break;
            }
            if self.res[script.0 as usize].skipped.is_some() {
                self.sync_scripts.remove(0);
                continue;
            }
            // Parser stopped at `script` — either it has arrived (execute
            // now) or we wait for its bytes.
            if self.parse_blocked_by != Some(script) {
                self.parse_blocked_by = Some(script);
                if self.res[script.0 as usize].completed.is_some() {
                    self.queue_script_execution(script, t);
                }
            }
            return;
        }
        if self.html_parsed >= self.html_total && self.res[0].completed.is_some() {
            if self.parse_complete.is_none() {
                self.parse_complete = Some(t);
            }
            return;
        }
        self.schedule_parse(t);
    }

    fn on_script_executed(&mut self, rid: ResourceId, t: SimTime) {
        self.res[rid.0 as usize].applied = Some(t);
        self.discover_children(rid, t);
        let was_blocking = self.parse_blocked_by == Some(rid);
        self.sync_scripts.retain(|&(_, s)| s != rid);
        if was_blocking {
            self.parse_blocked_by = None;
            self.after_parse_progress(t);
        }
    }

    fn on_paint_flush(&mut self, t: SimTime) {
        self.flush_scheduled = false;
        self.mt_free = self.mt_free.max(t);
        for (rid, rect, kind, generation) in std::mem::take(&mut self.pending_paints) {
            self.paints.push(PaintEvent { time: t, resource: rid, rect, kind, generation });
            if kind != PaintKind::DocumentBand && generation == 0 {
                self.res[rid.0 as usize].applied = Some(t);
            }
            // Ads rotate creatives: schedule up to MAX_AD_ROTATIONS
            // further repaints of the same slot. Pure pixel churn — no
            // network, no onload impact — but it pushes LastVisualChange
            // well past the point the page feels ready.
            if kind == PaintKind::Ad && generation < max_ad_rotations(rid) {
                let delay = ad_rotation_delay(rid, generation);
                self.tasks.schedule(t + delay, Ev::AdRotate(rid, generation + 1));
            }
        }
    }

    fn on_ad_rotate(&mut self, rid: ResourceId, generation: u8, t: SimTime) {
        let Some(rect) = self.site.resources[rid.0 as usize].rect else { return };
        self.pending_paints.push((rid, rect, PaintKind::Ad, generation));
        self.schedule_flush(t);
    }

    // ------------------------------------------------------------------
    // Discovery / parsing / painting helpers
    // ------------------------------------------------------------------

    /// Preload scanner: discover every HTML-referenced resource whose
    /// reference lies within the received bytes.
    fn scan_for_discoveries(&mut self, t: SimTime) {
        for r in &self.site.resources {
            if self.discovered[r.id.0 as usize] {
                continue;
            }
            if let Discovery::Html { at_fraction } = r.discovery {
                let pos = (f64::from(at_fraction) * self.html_total as f64) as u64;
                if pos <= self.html_received {
                    self.discovered[r.id.0 as usize] = true;
                    self.tasks.schedule(t, Ev::Discovered(r.id));
                }
            }
        }
    }

    /// Children injected by `parent` (fonts from CSS, ads from trackers…)
    /// become discoverable once the parent applies.
    fn discover_children(&mut self, parent: ResourceId, t: SimTime) {
        for r in &self.site.resources {
            if self.discovered[r.id.0 as usize] {
                continue;
            }
            if r.discovery == (Discovery::Parent { parent }) {
                let delay = match r.kind {
                    ResourceKind::Ad => {
                        // Deterministic heavy-ish tail per slot: auctions,
                        // passbacks and timer-driven slots land anywhere in
                        // [delay, delay + spread].
                        let h = (u64::from(r.id.0) ^ 0xa5a5)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            >> 17;
                        let spread_us = self.cfg.ad_injection_spread.as_micros();
                        let extra = if spread_us == 0 { 0 } else { h % spread_us };
                        self.cfg.ad_injection_delay + SimDuration::from_micros(extra)
                    }
                    ResourceKind::Widget => self.cfg.widget_injection_delay,
                    ResourceKind::Tracker => SimDuration::from_millis(80),
                    _ => SimDuration::ZERO,
                };
                self.discovered[r.id.0 as usize] = true;
                self.tasks.schedule(t + delay, Ev::Discovered(r.id));
            }
        }
    }

    /// Queue the next chunk of parsing if bytes are available and the
    /// parser is not blocked.
    fn schedule_parse(&mut self, t: SimTime) {
        if self.parse_task_running || self.parse_blocked_by.is_some() {
            return;
        }
        // Parse up to the next unexecuted sync script or the received end.
        let stop = match self.sync_scripts.first() {
            Some(&(pos, _)) if pos <= self.html_received => pos,
            _ => self.html_received,
        };
        let from = self.parse_scheduled_to;
        if stop <= from {
            return;
        }
        self.parse_scheduled_to = stop;
        let cost_us =
            ((stop - from) as f64 * self.cfg.cpu.parse_per_byte_us * self.cfg.device.cpu_factor)
                as u64;
        let start = self.mt_free.max(t);
        self.mt_free = start + SimDuration::from_micros(cost_us);
        self.cpu_busy_us += cost_us;
        self.tasks.schedule(self.mt_free, Ev::ParseDone { upto: stop });
        self.parse_task_running = true;
    }

    fn queue_script_execution(&mut self, rid: ResourceId, t: SimTime) {
        let bytes = self.site.resources[rid.0 as usize].body_bytes;
        let cost_us =
            (bytes as f64 * self.cfg.cpu.js_exec_per_byte_us * self.cfg.device.cpu_factor) as u64;
        let start = self.mt_free.max(t);
        self.mt_free = start + SimDuration::from_micros(cost_us);
        self.cpu_busy_us += cost_us;
        self.tasks.schedule(self.mt_free, Ev::ScriptExecuted(rid));
    }

    /// Every discovered render-blocking *stylesheet* has applied (or was
    /// skipped): non-text painting may proceed. (Chrome blocks first
    /// paint on head CSS; images do not wait for web fonts.)
    fn css_unblocked(&self) -> bool {
        self.blocking_applied(|kind| kind == ResourceKind::Css)
    }

    /// Stylesheets *and fonts* applied: document text may paint. Fonts
    /// gate only the text they style, the closest tractable equivalent
    /// of per-text-run font blocking.
    fn text_unblocked(&self) -> bool {
        self.blocking_applied(|kind| matches!(kind, ResourceKind::Css | ResourceKind::Font))
    }

    fn blocking_applied(&self, relevant: impl Fn(ResourceKind) -> bool) -> bool {
        self.site.resources.iter().all(|r| {
            if !r.render_blocking || !relevant(r.kind) || !self.discovered[r.id.0 as usize] {
                return true;
            }
            let tr = &self.res[r.id.0 as usize];
            tr.applied.is_some() || tr.skipped.is_some()
        })
    }

    /// Move loaded visual resources to the pending-paint list when
    /// rendering allows it.
    fn release_paintables(&mut self, t: SimTime) {
        if !self.css_unblocked() {
            return;
        }
        let ready: Vec<ResourceId> = self
            .awaiting_paint
            .iter()
            .copied()
            .filter(|rid| {
                // Parser must have passed an HTML-referenced element for
                // it to have a layout slot; injected content appears as
                // soon as it loads.
                match self.site.resources[rid.0 as usize].discovery {
                    Discovery::Html { at_fraction } => {
                        let pos = (f64::from(at_fraction) * self.html_total as f64) as u64;
                        self.html_parsed >= pos
                    }
                    _ => true,
                }
            })
            .collect();
        for rid in ready {
            self.awaiting_paint.remove(&rid);
            let r = &self.site.resources[rid.0 as usize];
            let Some(rect) = r.rect else { continue };
            let kind = match r.kind {
                ResourceKind::Ad => PaintKind::Ad,
                ResourceKind::Widget => PaintKind::Widget,
                _ => PaintKind::Image,
            };
            self.pending_paints.push((rid, rect, kind, 0));
        }
        self.queue_document_band(t);
        if !self.pending_paints.is_empty() {
            self.schedule_flush(t);
        }
    }

    /// Paint the newly parsed portion of the document as a band.
    fn queue_document_band(&mut self, t: SimTime) {
        if !self.text_unblocked() || self.html_total == 0 {
            return;
        }
        // No text before the parser clears the <head>: stylesheet
        // references live in the first ~15 % of the document, and a flush
        // before they have even been *seen* would paint unstyled text a
        // real browser never shows.
        if (self.html_parsed as f64) < 0.15 * self.html_total as f64 {
            return;
        }
        let frac = self.html_parsed as f64 / self.html_total as f64;
        let new_height = ((self.site.page_height as f64) * frac) as u32;
        if new_height > self.painted_doc_height {
            let band = Rect {
                x: 0,
                y: self.painted_doc_height,
                w: self.site.canvas_width,
                h: new_height - self.painted_doc_height,
            };
            self.painted_doc_height = new_height;
            self.pending_paints.push((ResourceId(0), band, PaintKind::DocumentBand, 0));
            self.schedule_flush(t);
        }
    }

    fn schedule_flush(&mut self, t: SimTime) {
        if self.flush_scheduled {
            return;
        }
        self.flush_scheduled = true;
        let at = align_to_vsync(self.mt_free.max(t) + self.cfg.cpu.style_flush, self.cfg.cpu.vsync);
        self.tasks.schedule(at, Ev::PaintFlush);
    }

    fn check_onload(&mut self, t: SimTime) {
        if let Some(parse_done) = self.parse_complete {
            if self.onload.is_none() && self.outstanding.is_empty() {
                self.onload = Some(t.max(parse_done));
            }
        }
    }

    fn finalize(mut self) -> (LoadTrace, FetchEngine) {
        // Resources never discovered: their injection chain was cut.
        for r in &self.site.resources {
            let tr = &mut self.res[r.id.0 as usize];
            if tr.discovered.is_none() && tr.skipped.is_none() {
                tr.skipped = Some(SkipReason::ParentBlocked);
            }
        }
        let protocol = match self.cfg.protocol {
            Protocol::Http1 => "h1",
            Protocol::Http2 => "h2",
        };
        let trace = LoadTrace {
            site: self.site.name.clone(),
            protocol: protocol.into(),
            network: self.cfg.network.name.into(),
            adblocker: self.cfg.adblocker.map(|b| b.name().into()),
            resources: self.res,
            paints: self.paints,
            parse_complete: self.parse_complete,
            onload: self.onload,
            quiescent: Some(self.last_event_time),
            above_fold_area: self.site.above_fold_area(),
            fold_y: self.site.fold_y,
            canvas_width: self.site.canvas_width,
            page_height: self.site.page_height,
        };
        debug_assert_eq!(trace.check_invariants(), Ok(()));
        fold_counters(&trace, &self.engine, self.cpu_busy_us);
        (trace, self.engine)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use eyeorg_net::NetworkProfile;
    use eyeorg_workload::{ad_heavy, alexa_like, generate_site, SiteClass};

    /// Load five repeats of several sites under `cfg`, check every trace
    /// against its plain load, and count the paths the traces took.
    fn tally(cfg: &BrowserConfig) -> BTreeMap<Path, usize> {
        let mut sites = vec![generate_site(Seed(3), 0, SiteClass::News)];
        sites.extend(ad_heavy(Seed(4), 2, 3));
        let mut paths = BTreeMap::new();
        for site in &sites {
            for capture in 0..4 {
                let seeds: Vec<Seed> =
                    (0..5).map(|i| Seed(capture).derive_index("load", i)).collect();
                for ((trace, path), &seed) in share_repeats(site, cfg, &seeds).iter().zip(&seeds) {
                    assert_eq!(*trace, load_page(site, cfg, seed), "{path:?} trace differs");
                    *paths.entry(*path).or_insert(0) += 1;
                }
            }
        }
        paths
    }

    #[test]
    fn drivers_twins_and_forks_all_engage() {
        for network in [NetworkProfile::fttc(), NetworkProfile::cable()] {
            let paths = tally(&BrowserConfig::new().with_network(network));
            eprintln!("{paths:?}");
            assert_eq!(paths.get(&Path::Driver), Some(&12), "{paths:?}");
            assert!(paths.get(&Path::Twin) > Some(&0), "{paths:?}");
            assert!(paths.get(&Path::Fork) > Some(&0), "{paths:?}");
            // Primed resolvers answer every in-load lookup from cache.
            assert_eq!(paths.get(&Path::ResolverMismatch), None, "{paths:?}");
        }
    }

    #[test]
    fn cold_resolvers_fall_back_to_plain_loads() {
        let cfg = BrowserConfig { primer: false, ..BrowserConfig::new() };
        let paths = tally(&cfg);
        eprintln!("{paths:?}");
        // The document's own lookup is a cold miss with a per-seed
        // latency, so no repeat can share the driver's prefix.
        assert_eq!(paths.get(&Path::Driver), Some(&12), "{paths:?}");
        assert_eq!(paths.get(&Path::ResolverMismatch), Some(&48), "{paths:?}");
    }

    /// With the network simulator's burst batching turned off (the
    /// per-segment reference path), a real browser load must be
    /// byte-identical to the default path — across site classes,
    /// protocols, and lossy network profiles.
    #[test]
    fn reference_path_produces_identical_traces() {
        let shaped = BrowserConfig::new().with_network(NetworkProfile::dsl());
        let h2 = BrowserConfig::new().with_protocol(Protocol::Http2);
        let mut sites = vec![
            generate_site(Seed(300), 0, SiteClass::News),
            generate_site(Seed(301), 1, SiteClass::Blog),
            generate_site(Seed(302), 2, SiteClass::Ecommerce),
        ];
        sites.extend(alexa_like(Seed(2016), 3));
        for (i, site) in sites.iter().enumerate() {
            for (ci, cfg) in [&BrowserConfig::new(), &shaped, &h2].into_iter().enumerate() {
                let seed = Seed(800 + i as u64);
                let batched = load_page(site, cfg, seed);
                let reference = Loader::new(site, cfg, seed, false).run().0;
                assert_eq!(batched, reference, "site {i} config {ci}: traces diverge");
            }
        }
    }
}
