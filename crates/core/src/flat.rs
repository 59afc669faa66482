//! The flat data-plane campaign kernel: SoA batching + arena scratch.
//!
//! This module holds the one per-participant campaign pipeline for
//! both test kinds — assign, session, answer, control — and runs it
//! two ways. It either keeps every showing as a row (`serve`, behind
//! [`crate::campaign::run_timeline_campaign`],
//! [`crate::campaign::run_ab_campaign`] and, one shard at a time, the
//! timeline reference [`crate::stream::stream_timeline_campaign`]) or
//! folds a digest (`Kernel::epoch`, called only by the epoch driver of
//! [`crate::adaptive`], which [`flat_timeline_campaign`],
//! [`flat_ab_campaign`] and every other folding entry point run).
//! Both draw every value from the same per-stimulus planes and the same
//! `Plane` answer and control methods. The fold runs the pipeline in
//! **structure-of-arrays** form:
//!
//! 1. All per-stimulus constants are hoisted into *planes* (one
//!    `TlPlane`/`AbPlane` per stimulus) built once per campaign:
//!    precomputed labels, the response/readiness constants, the
//!    [`SessionProfile`], and (timeline) the full rewind table — the
//!    inner loop never touches a `Video` again.
//! 2. Each worker thread owns one reusable **arena** (`Scratch`) and
//!    one fold (via [`par_fold_range`]), and every shard it claims
//!    runs out of that arena and folds into that fold. The arena holds
//!    flat per-cell arrays for personas, picks, sessions, and the
//!    per-stimulus row index, plus the per-stimulus **seed plane**
//!    (`seed_buf`) and its bulk-expanded generator block (`rngs`).
//!    After the first shard warms the capacities up, the inner loop
//!    allocates nothing, and an epoch holds one fold per worker
//!    however many shards it has.
//! 3. Within a shard the work runs **stimulus-blocked**: pass A draws
//!    trait cursors and gates them (finishing traits only for served
//!    rows), pass B assigns stimuli and builds the per-stimulus cell
//!    index, pass C serves all showings of stimulus 0, then all of
//!    stimulus 1, … — deriving each stimulus's behaviour leaf seeds
//!    into a flat plane and expanding them into xoshiro256++ states in
//!    one block — and pass D/E answers controls and walks rows in
//!    ascending order folding filters, answers, and behaviour into the
//!    worker's fold. Slider responses and A/B judgments are
//!    **demand-driven**: they are drawn at push time, only for cells
//!    whose value actually reaches a live digest (kept row, non-skipped
//!    session, live stimulus).
//!
//! ## One skeleton, two kinds
//!
//! The shard pass (`Kernel::fold_range`: gate → assign →
//! stimulus-blocked serve → row walk) and the epoch around it are
//! written once, generic over `Plane`, and so is the row-keeping
//! `serve`. Both kinds fold into the one fold type (`stream::Fold`),
//! whose gate, answer and per-participant totals the kernel keeps
//! itself. A test kind supplies only its per-stimulus plane, its answer
//! and control draws, what one showing (A/B: its show tallies) and one
//! kept answer do to the stimulus's accumulator, and its row. A/B
//! campaigns run under an all-live mask; timeline campaigns
//! additionally serve the adaptive driver's per-stimulus mask (serve
//! all picks, push only live, prune whole participants — see
//! `crate::adaptive`).
//!
//! ## Why the digest stays byte-identical
//!
//! Every random draw in the pipeline comes from an RNG seeded by
//! `persona.seed ⊕ activity label ⊕ per-stimulus label` — never from a
//! shared stream — so *call order across (participant, stimulus) cells
//! is immaterial*: reordering pass C by stimulus instead of by
//! participant, bulk-seeding a whole stimulus block, or not drawing a
//! response whose value no accumulator consumes reads the exact same
//! bits everywhere else. Nor does push order reach the digest: every
//! accumulator is exactly multiset-determined (fixed-point `i128`
//! moments, integer bins and tallies, a quantile sketch whose state
//! depends only on the multiset of values), so a worker folds the
//! shards it claims in claim order, and `Kernel::epoch` merges the
//! per-worker folds into the driver's fold in whatever grouping the
//! schedule produced. (Pass E still walks rows ascending, slots in
//! presentation order — the order `digest_timeline`/`digest_ab` fold
//! the rows of `serve`.) Counters (gate, responses, filters, controls)
//! are pure totals, counted in pass C regardless of whether the value
//! is later consumed and bumped once per worker fold. The
//! `streaming_equivalence`, `streaming_counters` and `campaign_golden`
//! tests pin the fold to the digest of the kept rows (for timeline
//! campaigns also to the rows' digests taken shard by shard and merged
//! in shard order, the streaming reference) across shard sizes and
//! thread counts, and the `stress` exerciser across chaos-seeded
//! schedules.

use eyeorg_crowd::{
    ab_control, judge_pair, timeline_control_passes, timeline_response, total_time_on_site,
    video_session, AbAnswer, ModelSeeds, Participant, Persona, PopulationProfile, ReadyTimes,
    RecruitmentService, SessionProfile, TestKind, TimelineResponse, TimelineStimulusProfile,
    VideoSession,
};
use eyeorg_stats::rng::Rng;
use eyeorg_stats::{par_fold_range, par_map_range, resolve_threads, Seed};
use eyeorg_video::FrameTimeline;

use crate::adaptive::{drive_resumable, DriveState};
use crate::analysis::BehaviorPoint;
use crate::campaign::{AbRow, AbVerdict, ControlRow, TimelineRow};
use crate::checkpoint::ShardKind;
use crate::digest::{AbDigest, AbStimulusDigest, StimulusDigest, TimelineDigest};
use crate::experiment::{
    a_on_left, assert_runnable, assign, assign_into, AbStimulus, ExperimentConfig, TimelineStimulus,
};
use crate::filtering::{decide, FilterDecision, ParticipantFilter};
use crate::stream::{admitted_bases_range, Fold, StreamConfig};

/// What a test kind supplies to the shared kernel: its per-stimulus
/// plane of hoisted constants, its answer and control draws, what one
/// showing and one kept answer do to the stimulus's accumulator, and
/// its row. Gate, assignment, serving, filters, behaviour and the
/// fold's totals are the kind-independent skeleton.
pub(crate) trait Plane: Sized + Send + Sync {
    /// What a campaign of this kind shows.
    type Stimulus: Sync;
    /// The per-stimulus accumulator of the kernel's [`Fold`].
    type Acc: ShardKind<Stimulus = Self::Stimulus>;
    /// One participant's answer on one stimulus.
    type Answer;
    /// One materialized showing.
    type Row: Send;
    /// The behaviour model's test kind.
    const TEST: TestKind;
    /// The campaign-seed label of the assignment stream.
    const ASSIGN: &'static str;
    /// Hoist stimulus `si`'s constants for a campaign seeded `seed`.
    fn of(si: usize, st: &Self::Stimulus, seed: Seed) -> Self;
    /// The per-stimulus label every per-cell draw is keyed by.
    fn label(&self) -> &str;
    /// The behaviour model's per-stimulus constants.
    fn session(&self) -> &SessionProfile;
    /// Count one showing of stimulus `si` to admitted participant `pi`
    /// on the stimulus's accumulator (nothing, unless the kind keeps
    /// show tallies).
    fn show(&self, _acc: &mut Self::Acc, _si: usize, _pi: u64) {}
    /// Whether persona `p` passes the control question built on this
    /// stimulus.
    fn control(&self, p: &Persona, seeds: &ModelSeeds) -> bool;
    /// Draw admitted participant `pi`'s answer on stimulus `si`.
    fn answer(&self, si: usize, pi: u64, p: &Persona, seeds: &ModelSeeds) -> Self::Answer;
    /// Fold one kept answer into its stimulus's accumulator.
    fn push_answer(acc: &mut Self::Acc, answer: Self::Answer);
    /// The row of one showing of stimulus `si` to participant `pi` of
    /// the served list, admitted index `admitted`; `answer` is `None`
    /// when the session was skipped.
    fn row(
        &self,
        si: usize,
        pi: usize,
        admitted: u64,
        session: VideoSession,
        answer: Option<Self::Answer>,
    ) -> Self::Row;
}

/// Per-stimulus constants of a timeline campaign: the response model's
/// profile, the behaviour model's profile, both labels, and the full
/// rewind table.
pub(crate) struct TlPlane {
    label: String,
    ctrl_label: String,
    profile: TimelineStimulusProfile,
    session: SessionProfile,
    rewinds: Vec<usize>,
}

impl Plane for TlPlane {
    type Stimulus = TimelineStimulus;
    type Acc = StimulusDigest;
    type Answer = TimelineResponse;
    type Row = TimelineRow;
    const TEST: TestKind = TestKind::Timeline;
    const ASSIGN: &'static str = "timeline";

    fn of(si: usize, st: &TimelineStimulus, _: Seed) -> TlPlane {
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

    fn label(&self) -> &str {
        &self.label
    }

    fn session(&self) -> &SessionProfile {
        &self.session
    }

    fn control(&self, p: &Persona, seeds: &ModelSeeds) -> bool {
        timeline_control_passes(p, seeds.perception(&self.ctrl_label))
    }

    fn answer(&self, _: usize, _: u64, p: &Persona, seeds: &ModelSeeds) -> TimelineResponse {
        timeline_response(&self.profile, &self.rewinds, p, seeds.perception(&self.label))
    }

    fn push_answer(acc: &mut StimulusDigest, response: TimelineResponse) {
        acc.push(response.submitted.as_secs_f64());
    }

    fn row(
        &self,
        si: usize,
        pi: usize,
        _: u64,
        session: VideoSession,
        response: Option<TimelineResponse>,
    ) -> TimelineRow {
        TimelineRow { participant: pi, stimulus: si, session, response }
    }
}

/// Per-stimulus constants of an A/B campaign: the label, both sides'
/// ready moments under every readiness criterion, the behaviour profile
/// of the longer capture (what the participant must sit through), and
/// the campaign's presentation-side seed.
pub(crate) struct AbPlane {
    label: String,
    ready_a: ReadyTimes,
    ready_b: ReadyTimes,
    session: SessionProfile,
    side_seed: Seed,
}

impl Plane for AbPlane {
    type Stimulus = AbStimulus;
    type Acc = AbStimulusDigest;
    type Answer = AbVerdict;
    type Row = AbRow;
    const TEST: TestKind = TestKind::Ab;
    const ASSIGN: &'static str = "ab-assign";

    fn of(si: usize, st: &AbStimulus, seed: Seed) -> AbPlane {
        let longer = if st.a.duration() >= st.b.duration() { &st.a } else { &st.b };
        AbPlane {
            label: format!("ab-{si}"),
            ready_a: ReadyTimes::of(&st.a),
            ready_b: ReadyTimes::of(&st.b),
            session: SessionProfile::of(longer, TestKind::Ab),
            side_seed: seed.derive("ab-side"),
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn session(&self) -> &SessionProfile {
        &self.session
    }

    /// Show tallies are totals over every showing; the judgment itself
    /// is drawn only for kept rows.
    fn show(&self, acc: &mut AbStimulusDigest, si: usize, pi: u64) {
        acc.shows += 1;
        if a_on_left(self.side_seed, pi, si) {
            acc.a_left_shows += 1;
        }
    }

    fn control(&self, p: &Persona, seeds: &ModelSeeds) -> bool {
        ab_control(self.ready_a.get(p.readiness), p, seeds.abjudge(&self.label)).1
    }

    /// The judgment, drawn in presentation space and mapped back to
    /// stimulus space.
    fn answer(&self, si: usize, pi: u64, p: &Persona, seeds: &ModelSeeds) -> AbVerdict {
        let (a, b) = (self.ready_a.get(p.readiness), self.ready_b.get(p.readiness));
        let a_left = a_on_left(self.side_seed, pi, si);
        let (l, r) = if a_left { (a, b) } else { (b, a) };
        match (judge_pair(l, r, p, seeds.abjudge(&self.label)), a_left) {
            (AbAnswer::NoDifference, _) => AbVerdict::NoDifference,
            (AbAnswer::Left, true) | (AbAnswer::Right, false) => AbVerdict::AFaster,
            (AbAnswer::Left, false) | (AbAnswer::Right, true) => AbVerdict::BFaster,
        }
    }

    fn push_answer(acc: &mut AbStimulusDigest, verdict: AbVerdict) {
        acc.tally.record(verdict);
    }

    fn row(
        &self,
        si: usize,
        pi: usize,
        admitted: u64,
        session: VideoSession,
        verdict: Option<AbVerdict>,
    ) -> AbRow {
        let a_left = a_on_left(self.side_seed, admitted, si);
        AbRow { participant: pi, stimulus: si, a_left, session, verdict }
    }
}

/// One worker's reusable arena: flat per-row / per-cell arrays (a
/// *cell* is `row * k + slot`). Cleared and refilled per shard; after
/// the first shard the capacities are warm and the shard loop
/// allocates nothing.
struct Scratch {
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

impl Scratch {
    fn new(n_stimuli: usize) -> Scratch {
        Scratch {
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

/// The kernel's shared read-only campaign state: planes, population,
/// seeds, config, and sharding, bundled so every entry point runs the
/// same column passes through [`Kernel::epoch`].
pub(crate) struct Kernel<'a, P: Plane> {
    pub(crate) stimuli: &'a [P::Stimulus],
    planes: Vec<P>,
    pop: PopulationProfile,
    cfg: &'a ExperimentConfig,
    filters: &'a [Box<dyn ParticipantFilter + Send + Sync>],
    recruit_seed: Seed,
    assign_seed: Seed,
    /// Showings per participant.
    k: usize,
    pub(crate) threads: usize,
    shard: usize,
}

/// The kernel over a timeline campaign.
pub(crate) type TlKernel<'a> = Kernel<'a, TlPlane>;
/// The kernel over an A/B campaign.
pub(crate) type AbKernel<'a> = Kernel<'a, AbPlane>;

impl<'a, P: Plane> Kernel<'a, P> {
    /// Hoist all per-stimulus constants into planes, in parallel.
    pub(crate) fn new(
        stimuli: &'a [P::Stimulus],
        service: &dyn RecruitmentService,
        cfg: &'a ExperimentConfig,
        filters: &'a [Box<dyn ParticipantFilter + Send + Sync>],
        seed: Seed,
        sc: &StreamConfig,
    ) -> Kernel<'a, P> {
        let threads = resolve_threads(cfg.threads);
        Kernel {
            stimuli,
            planes: planes(stimuli, seed, threads),
            pop: service.population(),
            cfg,
            filters,
            recruit_seed: seed.derive("recruit"),
            assign_seed: seed.derive(P::ASSIGN),
            k: cfg.videos_per_participant.min(stimuli.len()),
            threads,
            shard: sc.shard_size.max(1),
        }
    }

    /// Gate admissions over participant indices `[0, lo)`: the
    /// admitted-index base of a range starting at `lo`.
    pub(crate) fn admitted_before(&self, lo: usize) -> u64 {
        admitted_bases_range(0, lo, self.shard, self.threads, &self.pop, self.recruit_seed, 0).1
    }

    /// One epoch: shard participant indices `[lo, hi)` (pass 1 computes
    /// the shards' admitted bases, continuing from `base_admitted`),
    /// fold every shard a worker claims under the per-stimulus `live`
    /// mask into that worker's one fold, merge the workers' folds into
    /// `acc`, and return the range's gate-admission count. Each worker
    /// fold starts as `acc.empty_like()`, so once `acc`'s sketches have
    /// spilled the workers bin from their first push; such partials are
    /// merged here and never leave the kernel. Which worker folds which
    /// shard follows the schedule: `acc` ends the same because every
    /// accumulator is multiset-determined and its merge exact.
    pub(crate) fn epoch(
        &self,
        lo: usize,
        hi: usize,
        base_admitted: u64,
        live: &[bool],
        acc: &mut Fold<P::Acc>,
    ) -> u64 {
        let shard = self.shard;
        let (bases, range_admitted) = admitted_bases_range(
            lo,
            hi,
            shard,
            self.threads,
            &self.pop,
            self.recruit_seed,
            base_admitted,
        );
        let workers = par_fold_range(
            bases.len(),
            self.threads,
            || (Scratch::new(self.stimuli.len()), acc.empty_like()),
            |(arena, fold), s| {
                let slo = lo + s * shard;
                self.fold_range(arena, fold, slo, (slo + shard).min(hi), bases[s], live);
            },
        );
        for (_, fold) in &workers {
            fold.bump_counters();
        }
        acc.merge_all(workers.iter().map(|(_, fold)| fold));
        range_admitted
    }

    /// Fold participant indices `[lo, hi)` with admitted-index base
    /// `base` under the per-stimulus `live` mask into `fold` — the
    /// stimulus-blocked column passes, replaying exactly the
    /// materializing engine's draw and push sequences.
    fn fold_range(
        &self,
        arena: &mut Scratch,
        fold: &mut Fold<P::Acc>,
        lo: usize,
        hi: usize,
        base: u64,
        live: &[bool],
    ) {
        let all_live = live.iter().all(|&l| l);
        let k = self.k;
        arena.reset();

        // Pass A: humanness gate (and, under an adaptive mask, whole-
        // participant pruning); one persona per *served* row. The trait
        // stream is paused at the class draw, so gate-rejected and
        // pruned participants never pay for the rest of their trait
        // draws — they still consume their admitted index, keeping
        // every later participant's assignment equal to the full run's.
        let mut admitted = 0u64;
        for i in lo..hi {
            let cur = self.pop.start_traits(self.recruit_seed, i as u64);
            if !crate::validation::captcha_admits_gate(cur.seed(), cur.class()) {
                fold.rejected += 1;
                continue;
            }
            let my_pi = base + admitted;
            admitted += 1;
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
        fold.admitted += rows as u64;
        arena.size_cells(rows * k);

        // Pass B: assignment + per-stimulus cell index. (Under a mask
        // this re-derives the picks pass A already peeked at — the
        // assignment stream is index-addressed, so the replay is free
        // of side effects and far cheaper than threading the picks
        // through.)
        for row in 0..rows {
            assign_into(
                self.assign_seed,
                arena.row_pi[row],
                self.stimuli.len(),
                self.cfg.videos_per_participant,
                &mut arena.pick_buf,
            );
            for (slot, &si) in arena.pick_buf.iter().enumerate() {
                let cell = row * k + slot;
                arena.picks[cell] = si as u32;
                arena.stim_rows[si].push(cell as u32);
            }
        }

        // Pass C: serve stimulus-blocked — one plane's constants stay
        // hot across all of its showings in the shard. The stimulus's
        // behaviour leaf seeds are derived into a flat plane and
        // expanded into generator states in one block. Stopped stimuli
        // are still served (their sessions feed the filters); only the
        // digest push is masked, in pass E.
        for (si, plane) in self.planes.iter().enumerate() {
            arena.seed_buf.clear();
            arena.seed_buf.extend(
                arena.stim_rows[si]
                    .iter()
                    .map(|&cell| arena.seeds[cell as usize / k].session_seed(plane.label())),
            );
            Rng::seed_block(&arena.seed_buf, &mut arena.rngs);
            for (j, &cell) in arena.stim_rows[si].iter().enumerate() {
                let cell = cell as usize;
                let row = cell / k;
                let session = video_session(
                    plane.session(),
                    &arena.personas[row],
                    P::TEST,
                    arena.rngs[j].clone(),
                );
                if session.skipped {
                    fold.skipped += 1;
                } else {
                    fold.answered += 1;
                }
                plane.show(&mut fold.stimuli[si], si, arena.row_pi[row]);
                arena.voted[cell] = !session.skipped;
                arena.sessions[cell] = Some(session);
            }
        }

        // Passes D+E: controls, filters, and the order-pinned fold —
        // rows ascending, slots in presentation order, exactly the
        // materializing engine's push sequence. Answers are drawn here,
        // on demand: only cells whose value reaches a live digest pay
        // for the response model (the response stream is per-cell
        // independent, so eliding the rest perturbs nothing).
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
            // The control reuses the participant's first video (§3.3).
            let control = self.cfg.with_controls.then(|| ControlRow {
                participant: my_pi as usize,
                passed: self.planes[arena.picks[cbase] as usize].control(p, mseeds),
            });
            let control = control.as_ref();
            if let Some(c) = control {
                fold.controls.record(c.passed);
            }
            let d = decide(self.filters, &arena.row_buf, control.as_slice());
            fold.filters.record(d);
            let total = total_time_on_site(&arena.row_buf, p, mseeds.instructions());
            fold.behavior.push(&BehaviorPoint::of(my_pi as usize, &arena.row_buf, total));
            if d == FilterDecision::Kept {
                for cell in cbase..cbase + k {
                    let si = arena.picks[cell] as usize;
                    if arena.voted[cell] && live[si] {
                        let answer = self.planes[si].answer(si, my_pi, p, mseeds);
                        P::push_answer(&mut fold.stimuli[si], answer);
                    }
                }
            }
        }
    }
}

/// Every stimulus's plane, hoisted in parallel: built once per campaign
/// and shared by every shard the kernel folds or `serve` keeps.
pub(crate) fn planes<P: Plane>(stimuli: &[P::Stimulus], seed: Seed, threads: usize) -> Vec<P> {
    par_map_range(stimuli.len(), threads, |si| P::of(si, &stimuli[si], seed))
}

/// Serve the gate-admitted `participants`, whose admitted indices run
/// from `base`, in index order and keep every showing as a row — the
/// kernel's per-participant pipeline without a fold: assign the videos,
/// draw each session from the plane's [`SessionProfile`], draw an
/// answer for every showing not skipped, then ask the control question
/// on the first video. Every draw is keyed by the admitted index; rows
/// and controls carry the index into `participants`. Participants are
/// independent work items, so the parallel map merged in index order is
/// byte-identical at any thread count.
pub(crate) fn serve<P: Plane>(
    planes: &[P],
    participants: &[Participant],
    base: u64,
    cfg: &ExperimentConfig,
    seed: Seed,
) -> (Vec<P::Row>, Vec<ControlRow>) {
    let assign_seed = seed.derive(P::ASSIGN);
    let per_participant = par_map_range(participants.len(), resolve_threads(cfg.threads), |pi| {
        let admitted = base + pi as u64;
        let p = participants[pi].persona();
        let seeds = ModelSeeds::of(p.seed);
        let picks = assign(assign_seed, admitted, planes.len(), cfg.videos_per_participant);
        let rows: Vec<P::Row> = picks
            .iter()
            .map(|&si| {
                let plane = &planes[si];
                let rng = seeds.behavior(plane.label());
                let session = video_session(plane.session(), &p, P::TEST, rng);
                let answer = (!session.skipped).then(|| plane.answer(si, admitted, &p, &seeds));
                plane.row(si, pi, admitted, session, answer)
            })
            .collect();
        let control = cfg
            .with_controls
            .then(|| ControlRow { participant: pi, passed: planes[picks[0]].control(&p, &seeds) });
        (rows, control)
    });
    let mut rows = Vec::new();
    let mut controls = Vec::new();
    for (p_rows, control) in per_participant {
        rows.extend(p_rows);
        controls.extend(control);
    }
    (rows, controls)
}

/// One whole campaign of `n_participants` through the kernel, as one
/// all-live driver epoch, merged into its digest.
fn one_shot<P: Plane>(
    stimuli: &[P::Stimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> <P::Acc as ShardKind>::Digest {
    assert_runnable(stimuli.len(), cfg);
    let kernel = Kernel::<P>::new(stimuli, service, cfg, filters, seed, sc);
    let start = DriveState::fresh(stimuli, &sc.params);
    let (st, _) = drive_resumable(&kernel, n_participants, n_participants, start, &mut |_| true);
    st.acc.into_digest(service, n_participants)
}

/// Run a timeline campaign through the flat kernel.
///
/// Byte-identical to `run_timeline_campaign` + `filter_timeline` +
/// `digest_timeline`, whole or shard by shard
/// ([`crate::stream::stream_timeline_campaign`]), on the same inputs —
/// digest *and* obs counter fingerprint — at any shard size and thread
/// count (pinned by the `streaming_equivalence` and `streaming_counters`
/// tests).
pub fn flat_timeline_campaign(
    stimuli: &[TimelineStimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> TimelineDigest {
    let _t = eyeorg_obs::phase_timer("core.flat_timeline");
    one_shot::<TlPlane>(stimuli, service, n_participants, cfg, filters, seed, sc)
}

/// Run an A/B campaign through the flat kernel. Byte-identical to
/// `run_ab_campaign` + `filter_ab` + `digest_ab` on the same inputs.
pub fn flat_ab_campaign(
    stimuli: &[AbStimulus],
    service: &dyn RecruitmentService,
    n_participants: usize,
    cfg: &ExperimentConfig,
    filters: &[Box<dyn ParticipantFilter + Send + Sync>],
    seed: Seed,
    sc: &StreamConfig,
) -> AbDigest {
    let _t = eyeorg_obs::phase_timer("core.flat_ab");
    one_shot::<AbPlane>(stimuli, service, n_participants, cfg, filters, seed, sc)
}
