//! The flat data-plane campaign engine: SoA batching + arena scratch.
//!
//! [`crate::stream`] already bounds memory by folding shard-by-shard,
//! but its inner loop is still *participant-at-a-time*: every row
//! re-derives per-stimulus constants (frame clock, ready moments,
//! session profile), formats the per-stimulus labels, and allocates
//! fresh `Vec`s for picks, sessions, and responses. This module runs
//! the identical seeded pipeline in **structure-of-arrays** form:
//!
//! 1. All per-stimulus constants are hoisted into *planes* (one
//!    [`TlPlane`]/[`AbPlane`] per stimulus) built once per campaign:
//!    precomputed labels, [`TimelineStimulusProfile`], [`SessionProfile`],
//!    and the full rewind table — the inner loop never touches a
//!    `Video` again.
//! 2. Each shard works out of a reusable **arena** ([`TlScratch`]/
//!    [`AbScratch`]) owned by its worker thread (via
//!    [`par_map_range_scratch`]): flat per-cell arrays for personas,
//!    picks, sessions, and the per-stimulus row index, plus the
//!    per-stimulus **seed plane** (`seed_buf`) and its bulk-expanded
//!    generator block (`rngs`). After the first shard warms the
//!    capacities up, the inner loop allocates nothing.
//! 3. Within a shard the work runs **stimulus-blocked**: pass A draws
//!    trait cursors and gates them (finishing traits only for served
//!    rows), pass B assigns stimuli and builds the per-stimulus cell
//!    index, pass C serves all showings of stimulus 0, then all of
//!    stimulus 1, … — deriving each stimulus's behaviour leaf seeds
//!    into a flat plane and expanding them into xoshiro256++ states in
//!    one block — and pass D/E answers controls and walks rows in
//!    ascending order folding filters, votes, and behaviour into the
//!    same shard accumulators the streaming engine uses. Slider
//!    responses and A/B judgments are **demand-driven**: they are drawn
//!    at push time, only for cells whose value actually reaches a live
//!    digest (kept row, non-skipped session, live stimulus).
//!
//! ## Why the digest stays byte-identical
//!
//! Every random draw in the pipeline comes from an RNG seeded by
//! `persona.seed ⊕ activity label ⊕ per-stimulus label` — never from a
//! shared stream — so *call order across (participant, stimulus) cells
//! is immaterial*: reordering pass C by stimulus instead of by
//! participant, bulk-seeding a whole stimulus block, or not drawing a
//! response whose value no accumulator consumes reads the exact same
//! bits everywhere else. What does carry order is the push sequence
//! into each accumulator, and pass E replays it exactly as the
//! streaming engine does: rows ascending, slots in presentation order.
//! Counters (gate, responses, filters, controls) are pure totals and
//! are bumped in pass C regardless of whether the value is later
//! consumed. The `streaming_equivalence` and `streaming_counters` tests
//! pin both engines to each other across shard sizes and thread counts.

use eyeorg_crowd::fastpath::{
    self, judge_pair_seeded, session_seed, timeline_control_seeded, timeline_response_seeded,
    video_session_from_rng,
};
use eyeorg_crowd::{
    ModelSeeds, Persona, RecruitmentService, SessionProfile, TestKind, TimelineStimulusProfile,
    VideoSession,
};
use eyeorg_stats::rng::Rng;
use eyeorg_stats::{par_map_range, par_map_range_scratch, resolve_threads, Seed};
use eyeorg_video::FrameTimeline;

use crate::campaign::{AbVerdict, ControlRow};
use crate::digest::DigestParams;
use crate::digest::{AbDigest, TimelineDigest};
use crate::experiment::{a_on_left, assign_into, AbStimulus, ExperimentConfig, TimelineStimulus};
use crate::filtering::{decide, FilterDecision, ParticipantFilter};
use crate::stream::{
    admitted_bases_range, behavior_point_persona, merge_shards, AbShard, StreamConfig, TlShard,
};

/// Per-stimulus constants of a timeline campaign, hoisted out of the
/// inner loop: the response model's profile, the behaviour model's
/// profile, both labels, and the full rewind table.
struct TlPlane {
    label: String,
    ctrl_label: String,
    profile: TimelineStimulusProfile,
    session: SessionProfile,
    rewinds: Vec<usize>,
}

impl TlPlane {
    fn of(si: usize, st: &TimelineStimulus) -> TlPlane {
        let mut tl = FrameTimeline::of(&st.video);
        tl.precompute_rewinds();
        TlPlane {
            label: format!("tl-{si}"),
            ctrl_label: format!("ctrl-tl-{si}"),
            profile: TimelineStimulusProfile::of(&st.video),
            session: SessionProfile::of(&st.video, TestKind::Timeline),
            rewinds: tl.rewind_table(),
        }
    }
}

/// One worker's reusable arena: flat per-row / per-cell arrays (a
/// *cell* is `row * k + slot`). Cleared and refilled per shard; after
/// the first shard the capacities are warm and the shard loop
/// allocates nothing.
struct TlScratch {
    /// Served personas, one per row.
    personas: Vec<Persona>,
    /// Hoisted per-activity parent seeds, one per row — derived once
    /// instead of once per (cell, draw site).
    seeds: Vec<ModelSeeds>,
    /// Admitted index per row. Equal to `shard base + row` under an
    /// all-live mask; under an adaptive mask, pruned participants still
    /// consume admitted indices, so rows are a *subset* of the admitted
    /// sequence and carry their index explicitly.
    row_pi: Vec<u64>,
    /// Assigned stimulus per cell.
    picks: Vec<u32>,
    /// [`assign_into`] staging buffer.
    pick_buf: Vec<usize>,
    /// Session per cell (filled out of row order by pass C).
    sessions: Vec<Option<VideoSession>>,
    /// Whether the cell produced a response (not skipped).
    voted: Vec<bool>,
    /// Per-stimulus list of cells, the pass-C iteration order.
    stim_rows: Vec<Vec<u32>>,
    /// The per-stimulus seed plane: one behaviour leaf seed per showing
    /// of the current stimulus, derived in a flat pass.
    seed_buf: Vec<u64>,
    /// The seed plane bulk-expanded into generator states.
    rngs: Vec<Rng>,
    /// Contiguous per-row session slice handed to the filters.
    row_buf: Vec<VideoSession>,
}

impl TlScratch {
    fn new(n_stimuli: usize) -> TlScratch {
        TlScratch {
            personas: Vec::new(),
            seeds: Vec::new(),
            row_pi: Vec::new(),
            picks: Vec::new(),
            pick_buf: Vec::new(),
            sessions: Vec::new(),
            voted: Vec::new(),
            stim_rows: (0..n_stimuli).map(|_| Vec::new()).collect(),
            seed_buf: Vec::new(),
            rngs: Vec::new(),
            row_buf: Vec::new(),
        }
    }

    /// Reset row state for a new shard, keeping every capacity.
    fn reset(&mut self) {
        self.personas.clear();
        self.seeds.clear();
        self.row_pi.clear();
        self.picks.clear();
        self.sessions.clear();
        self.voted.clear();
        for rows in &mut self.stim_rows {
            rows.clear();
        }
    }

    /// Grow the per-cell arrays to `cells` entries.
    fn size_cells(&mut self, cells: usize) {
        self.picks.resize(cells, 0);
        self.sessions.resize(cells, None);
        self.voted.resize(cells, false);
    }
}

/// The flat timeline engine's shared read-only campaign state: planes,
/// population, seeds, and config, bundled so the one-shot campaign
/// entry point and the adaptive epoch driver run the same column
/// passes. Mask semantics match [`crate::stream::tl_fold_range`]:
/// serve-all-picks, push-only-live, prune-whole-participants.
pub(crate) struct FlatTlCtx<'a> {
    stimuli: &'a [TimelineStimulus],
    planes: Vec<TlPlane>,
    pop: eyeorg_crowd::PopulationProfile,
    cfg: &'a ExperimentConfig,
    filters: &'a [Box<dyn ParticipantFilter + Send + Sync>],
    recruit_seed: Seed,
    assign_seed: Seed,
    params: DigestParams,
    k: usize,
}

impl<'a> FlatTlCtx<'a> {
    /// Hoist all per-stimulus constants into planes, in parallel.
    pub(crate) fn new(
        stimuli: &'a [TimelineStimulus],
        service: &dyn RecruitmentService,
        cfg: &'a ExperimentConfig,
        filters: &'a [Box<dyn ParticipantFilter + Send + Sync>],
        seed: Seed,
        params: DigestParams,
        threads: usize,
    ) -> FlatTlCtx<'a> {
        FlatTlCtx {
            stimuli,
            planes: par_map_range(stimuli.len(), threads, |si| TlPlane::of(si, &stimuli[si])),
            pop: service.population(),
            cfg,
            filters,
            recruit_seed: seed.derive("recruit"),
            assign_seed: seed.derive("timeline"),
            params,
            k: cfg.videos_per_participant.min(stimuli.len()),
        }
    }

    fn new_scratch(&self) -> TlScratch {
        TlScratch::new(self.stimuli.len())
    }

    /// Fold participant indices `[lo, hi)` with admitted-index base
    /// `base` under the per-stimulus `live` mask — the stimulus-blocked
    /// column passes, replaying exactly the streaming engine's draw and
    /// push sequences.
    fn fold_range(
        &self,
        arena: &mut TlScratch,
        lo: usize,
        hi: usize,
        base: u64,
        live: &[bool],
    ) -> TlShard {
        let all_live = live.iter().all(|&l| l);
        let k = self.k;
        let mut fold = TlShard::new(self.stimuli, &self.params);
        arena.reset();

        // Pass A: humanness gate (and, under an adaptive mask, whole-
        // participant pruning); one persona per *served* row. The trait
        // stream is paused at the class draw, so gate-rejected and
        // pruned participants never pay for the rest of their trait
        // draws — they still consume their admitted index, keeping
        // every later participant's assignment equal to the full run's.
        let mut admitted_in_shard = 0u64;
        for i in lo..hi {
            let cur = self.pop.start_traits(self.recruit_seed, i as u64);
            if !crate::validation::captcha_admits_gate(cur.seed(), cur.class()) {
                fold.rejected += 1;
                continue;
            }
            let my_pi = base + admitted_in_shard;
            admitted_in_shard += 1;
            if !all_live {
                assign_into(
                    self.assign_seed,
                    my_pi,
                    self.stimuli.len(),
                    self.cfg.videos_per_participant,
                    &mut arena.pick_buf,
                );
                if !arena.pick_buf.iter().any(|&si| live[si]) {
                    fold.pruned += 1;
                    continue;
                }
            }
            arena.row_pi.push(my_pi);
            let p = cur.finish(&self.pop);
            arena.seeds.push(ModelSeeds::of(p.seed));
            arena.personas.push(p);
        }
        let rows = arena.personas.len();
        fold.admitted = rows as u64;
        arena.size_cells(rows * k);

        // Pass B: assignment + per-stimulus cell index. (Under a mask
        // this re-derives the picks pass A already peeked at — the
        // assignment stream is index-addressed, so the replay is free
        // of side effects and far cheaper than threading the picks
        // through.)
        for row in 0..rows {
            let my_pi = arena.row_pi[row];
            assign_into(self.assign_seed, my_pi, self.stimuli.len(),
                self.cfg.videos_per_participant, &mut arena.pick_buf);
            for (slot, &si) in arena.pick_buf.iter().enumerate() {
                let cell = row * k + slot;
                arena.picks[cell] = si as u32;
                arena.stim_rows[si].push(cell as u32);
            }
        }

        // Pass C: serve stimulus-blocked — one plane's constants
        // (profile, labels) stay hot across all of its showings in the
        // shard. The stimulus's behaviour leaf seeds are derived into a
        // flat plane and expanded into generator states in one block.
        // Stopped stimuli are still served (their sessions feed the
        // filters); only the digest push is masked, in pass E.
        for (si, plane) in self.planes.iter().enumerate() {
            arena.seed_buf.clear();
            arena.seed_buf.extend(
                arena.stim_rows[si]
                    .iter()
                    .map(|&cell| session_seed(&arena.seeds[cell as usize / k], &plane.label)),
            );
            Rng::seed_block(&arena.seed_buf, &mut arena.rngs);
            for (j, &cell) in arena.stim_rows[si].iter().enumerate() {
                let cell = cell as usize;
                let p = &arena.personas[cell / k];
                let session = video_session_from_rng(
                    &plane.session,
                    p,
                    TestKind::Timeline,
                    arena.rngs[j].clone(),
                );
                if session.skipped {
                    fold.skipped += 1;
                } else {
                    fold.collected += 1;
                    arena.voted[cell] = true;
                }
                arena.sessions[cell] = Some(session);
            }
        }

        // Passes D+E: controls, filters, and the order-pinned fold
        // — rows ascending, slots in presentation order, exactly
        // the streaming engine's push sequence. Slider responses are
        // drawn here, on demand: only cells whose value reaches a live
        // digest pay for the response model (the response stream is
        // per-cell independent, so eliding the rest perturbs nothing).
        for row in 0..rows {
            let my_pi = arena.row_pi[row];
            let cbase = row * k;
            arena.row_buf.clear();
            arena.row_buf.extend(
                // lint:allow(D4): pass C fills every cell — each (row, slot) belongs to exactly one stim_rows bucket
                arena.sessions[cbase..cbase + k].iter().map(|o| o.expect("cell served")),
            );
            let p = &arena.personas[row];
            let mseeds = &arena.seeds[row];
            let control = self.cfg.with_controls.then(|| {
                let ctrl = arena.picks[cbase] as usize;
                let passed = timeline_control_seeded(p, mseeds, &self.planes[ctrl].ctrl_label);
                ControlRow { participant: my_pi as usize, passed }
            });
            if let Some(c) = &control {
                fold.controls.record(c.passed);
            }
            let ctrl_arr;
            let ctrl_refs: &[&ControlRow] = if let Some(c) = &control {
                ctrl_arr = [c];
                &ctrl_arr
            } else {
                &[]
            };
            let d = decide(self.filters, &arena.row_buf, ctrl_refs);
            fold.filters.record(d);
            if d == FilterDecision::Kept {
                for slot in 0..k {
                    let si = arena.picks[cbase + slot] as usize;
                    if arena.voted[cbase + slot] && live[si] {
                        let plane = &self.planes[si];
                        let resp = timeline_response_seeded(
                            &plane.profile,
                            &plane.rewinds,
                            p,
                            mseeds,
                            &plane.label,
                        );
                        fold.stimuli[si].push(resp.submitted.as_secs_f64());
                    }
                }
            }
            fold.behavior.push(&behavior_point_persona(
                my_pi as usize,
                &arena.row_buf,
                p,
                mseeds,
            ));
        }
        fold
    }
}

/// One adaptive epoch through the flat engine: shard `[lo, hi)`, fold
/// each shard under `live` from per-worker arenas, and return the folds
/// in shard order plus the range's gate-admission count. The flat twin
/// of [`crate::stream::stream_tl_epoch`].
pub(crate) fn flat_tl_epoch(
    ctx: &FlatTlCtx<'_>,
    lo: usize,
    hi: usize,
    threads: usize,
    shard: usize,
    base_admitted: u64,
    live: &[bool],
) -> (Vec<TlShard>, u64) {
    let shards = (hi - lo).div_ceil(shard);
    let (bases, range_admitted) = admitted_bases_range(
        lo,
        hi,
        shard,
        threads,
        &ctx.pop,
        ctx.recruit_seed,
        base_admitted,
    );
    let folds: Vec<TlShard> = par_map_range_scratch(
        shards,
        threads,
        || ctx.new_scratch(),
        |arena, s| {
            let slo = lo + s * shard;
            let shi = (slo + shard).min(hi);
            let fold = ctx.fold_range(arena, slo, shi, bases[s], live);
            crate::stream::bump_shard_counters(&fold);
            fold
        },
    );
    (folds, range_admitted)
}

/// Run a timeline campaign through the flat data-plane engine.
///
/// Byte-identical to [`crate::stream::stream_timeline_campaign`] on the
/// same inputs — digest *and* obs counter fingerprint — at any shard
/// size and thread count (pinned by the `streaming_equivalence` tests).
pub fn flat_timeline_campaign(
    stimuli: &[TimelineStimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> TimelineDigest {
    assert!(!stimuli.is_empty(), "campaign needs stimuli");
    let _t = eyeorg_obs::phase_timer("core.flat_timeline");
    let threads = resolve_threads(cfg.threads);
    let ctx = FlatTlCtx::new(stimuli, service, cfg, filters, seed, sc.params, threads);
    let live = vec![true; stimuli.len()];
    let (folds, _) =
        flat_tl_epoch(&ctx, 0, n_participants, threads, sc.shard_size.max(1), 0, &live);
    merge_shards(stimuli, service, n_participants, &sc.params, &folds)
}

/// Per-stimulus constants of an A/B campaign: the label, both sides'
/// ready moments under every readiness criterion, and the behaviour
/// profile of the longer capture (what the participant must sit
/// through).
struct AbPlane {
    label: String,
    ready_a: eyeorg_crowd::ReadyTimes,
    ready_b: eyeorg_crowd::ReadyTimes,
    session: SessionProfile,
}

impl AbPlane {
    fn of(si: usize, st: &AbStimulus) -> AbPlane {
        let longer = if st.a.duration() >= st.b.duration() { &st.a } else { &st.b };
        AbPlane {
            label: format!("ab-{si}"),
            ready_a: eyeorg_crowd::ReadyTimes::of(&st.a),
            ready_b: eyeorg_crowd::ReadyTimes::of(&st.b),
            session: SessionProfile::of(longer, TestKind::Ab),
        }
    }
}

/// [`TlScratch`]'s A/B twin. Verdicts are not stored: judgments are
/// demand-driven, drawn in the fold pass only for kept rows.
struct AbScratch {
    personas: Vec<Persona>,
    seeds: Vec<ModelSeeds>,
    picks: Vec<u32>,
    pick_buf: Vec<usize>,
    sessions: Vec<Option<VideoSession>>,
    voted: Vec<bool>,
    stim_rows: Vec<Vec<u32>>,
    seed_buf: Vec<u64>,
    rngs: Vec<Rng>,
    row_buf: Vec<VideoSession>,
}

impl AbScratch {
    fn new(n_stimuli: usize) -> AbScratch {
        AbScratch {
            personas: Vec::new(),
            seeds: Vec::new(),
            picks: Vec::new(),
            pick_buf: Vec::new(),
            sessions: Vec::new(),
            voted: Vec::new(),
            stim_rows: (0..n_stimuli).map(|_| Vec::new()).collect(),
            seed_buf: Vec::new(),
            rngs: Vec::new(),
            row_buf: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.personas.clear();
        self.seeds.clear();
        self.picks.clear();
        self.sessions.clear();
        self.voted.clear();
        for rows in &mut self.stim_rows {
            rows.clear();
        }
    }

    fn size_cells(&mut self, cells: usize) {
        self.picks.resize(cells, 0);
        self.sessions.resize(cells, None);
        self.voted.resize(cells, false);
    }
}

/// Run an A/B campaign through the flat data-plane engine.
/// Byte-identical to [`crate::stream::stream_ab_campaign`] on the same
/// inputs.
pub fn flat_ab_campaign(
    stimuli: &[AbStimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> AbDigest {
    assert!(!stimuli.is_empty(), "campaign needs stimuli");
    let _t = eyeorg_obs::phase_timer("core.flat_ab");
    let threads = resolve_threads(cfg.threads);
    let shard = sc.shard_size.max(1);
    let shards = n_participants.div_ceil(shard);
    let pop = service.population();
    let recruit_seed = seed.derive("recruit");
    let assign_seed = seed.derive("ab-assign");
    let side_seed = seed.derive("ab-side");
    let k = cfg.videos_per_participant.min(stimuli.len());

    let bases = admitted_bases_range(0, n_participants, shard, threads, &pop, recruit_seed, 0).0;

    let planes: Vec<AbPlane> =
        par_map_range(stimuli.len(), threads, |si| AbPlane::of(si, &stimuli[si]));

    let folds: Vec<AbShard> = par_map_range_scratch(
        shards,
        threads,
        || AbScratch::new(stimuli.len()),
        |arena, s| {
            let lo = s * shard;
            let hi = (lo + shard).min(n_participants);
            let mut fold = AbShard::new(stimuli);
            arena.reset();

            // Pass A: gate on the class-only trait prefix; rejected
            // participants never pay for the rest of their trait draws.
            for i in lo..hi {
                let cur = pop.start_traits(recruit_seed, i as u64);
                if crate::validation::captcha_admits_gate(cur.seed(), cur.class()) {
                    let p = cur.finish(&pop);
                    arena.seeds.push(ModelSeeds::of(p.seed));
                    arena.personas.push(p);
                } else {
                    fold.rejected += 1;
                }
            }
            let rows = arena.personas.len();
            fold.admitted = rows as u64;
            arena.size_cells(rows * k);

            for row in 0..rows {
                let my_pi = bases[s] + row as u64;
                assign_into(assign_seed, my_pi, stimuli.len(), cfg.videos_per_participant,
                    &mut arena.pick_buf);
                for (slot, &si) in arena.pick_buf.iter().enumerate() {
                    let cell = row * k + slot;
                    arena.picks[cell] = si as u32;
                    arena.stim_rows[si].push(cell as u32);
                }
            }

            // Pass C: sessions only, bulk-seeded per stimulus. The
            // judgment draw is deferred to the fold pass — its value is
            // consumed only when the row survives the filters, but the
            // cast/skip counters and show tallies are totals over every
            // showing and are bumped here.
            for (si, plane) in planes.iter().enumerate() {
                arena.seed_buf.clear();
                arena.seed_buf.extend(
                    arena.stim_rows[si]
                        .iter()
                        .map(|&cell| session_seed(&arena.seeds[cell as usize / k], &plane.label)),
                );
                Rng::seed_block(&arena.seed_buf, &mut arena.rngs);
                let acc = &mut fold.stimuli[si];
                for (j, &cell) in arena.stim_rows[si].iter().enumerate() {
                    let cell = cell as usize;
                    let row = cell / k;
                    let my_pi = bases[s] + row as u64;
                    let p = &arena.personas[row];
                    let a_left = a_on_left(side_seed, my_pi, si);
                    let session = video_session_from_rng(
                        &plane.session,
                        p,
                        TestKind::Ab,
                        arena.rngs[j].clone(),
                    );
                    acc.shows += 1;
                    if a_left {
                        acc.a_left_shows += 1;
                    }
                    if session.skipped {
                        fold.skipped += 1;
                    } else {
                        fold.cast += 1;
                        arena.voted[cell] = true;
                    }
                    arena.sessions[cell] = Some(session);
                }
            }

            for row in 0..rows {
                let my_pi = bases[s] + row as u64;
                let cbase = row * k;
                arena.row_buf.clear();
                arena.row_buf.extend(
                    // lint:allow(D4): pass C fills every cell — each (row, slot) belongs to exactly one stim_rows bucket
                    arena.sessions[cbase..cbase + k].iter().map(|o| o.expect("cell served")),
                );
                let p = &arena.personas[row];
                let mseeds = &arena.seeds[row];
                let control = cfg.with_controls.then(|| {
                    let ctrl = arena.picks[cbase] as usize;
                    let (_, passed) = fastpath::ab_control_seeded(
                        planes[ctrl].ready_a.get(p.readiness),
                        p,
                        mseeds,
                        &planes[ctrl].label,
                    );
                    ControlRow { participant: my_pi as usize, passed }
                });
                if let Some(c) = &control {
                    fold.controls.record(c.passed);
                }
                let ctrl_arr;
                let ctrl_refs: &[&ControlRow] = if let Some(c) = &control {
                    ctrl_arr = [c];
                    &ctrl_arr
                } else {
                    &[]
                };
                let d = decide(filters, &arena.row_buf, ctrl_refs);
                fold.filters.record(d);
                if d == FilterDecision::Kept {
                    for slot in 0..k {
                        let cell = cbase + slot;
                        if arena.voted[cell] {
                            let si = arena.picks[cell] as usize;
                            let plane = &planes[si];
                            let a_left = a_on_left(side_seed, my_pi, si);
                            let (l, r) = if a_left {
                                (plane.ready_a.get(p.readiness), plane.ready_b.get(p.readiness))
                            } else {
                                (plane.ready_b.get(p.readiness), plane.ready_a.get(p.readiness))
                            };
                            let answer = judge_pair_seeded(l, r, p, mseeds, &plane.label);
                            fold.stimuli[si].tally.record(match (answer, a_left) {
                                (eyeorg_crowd::AbAnswer::NoDifference, _) => AbVerdict::NoDifference,
                                (eyeorg_crowd::AbAnswer::Left, true)
                                | (eyeorg_crowd::AbAnswer::Right, false) => AbVerdict::AFaster,
                                (eyeorg_crowd::AbAnswer::Left, false)
                                | (eyeorg_crowd::AbAnswer::Right, true) => AbVerdict::BFaster,
                            });
                        }
                    }
                }
                fold.behavior.push(&behavior_point_persona(
                    my_pi as usize,
                    &arena.row_buf,
                    p,
                    mseeds,
                ));
            }
            fold.bump_counters();
            fold
        },
    );

    merge_shards(stimuli, service, n_participants, &sc.params, &folds)
}
