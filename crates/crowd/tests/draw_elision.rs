//! Draw-elision soundness properties for the behavioural model.
//!
//! The campaign kernel's licence to skip work rests on one invariant: every
//! draw the model takes derives from `persona.seed ⊕ activity ⊕
//! per-stimulus label` with **no shared RNG stream**, so a draw whose
//! value is never consumed can be elided without perturbing any drawn
//! value. These properties pin that invariant directly, independent of
//! the campaign engines' end-to-end digest gates:
//!
//! * a value computed *in isolation* (everything else elided) is
//!   bit-identical to the same value inside a full serve-all pipeline;
//! * trait cursors that are dropped unfinished (gate-rejected or
//!   pruned participants) never perturb the participants that *are*
//!   materialised;
//! * bulk `Rng::seed_block` expansion of a whole seed plane matches
//!   scalar per-cell seeding for every cell.
//!
//! If any of these fail, the demand-driven engines would still be
//! internally consistent — but no longer byte-identical to the
//! serve-everything reference, which is the regression these tests
//! exist to catch early (at the crowd layer, with field-level
//! assertions instead of an opaque digest mismatch).

use eyeorg_crowd::{
    ab_control, judge_pair, timeline_control_passes, timeline_response, total_time_on_site,
    true_ready_time, video_session, ModelSeeds, Persona, PopulationProfile, ReadinessCriterion,
    SessionProfile, TestKind, TimelineStimulusProfile, VideoSession,
};
use eyeorg_browser::{load_page, BrowserConfig};
use eyeorg_net::SimDuration;
use eyeorg_stats::rng::Rng;
use eyeorg_stats::Seed;
use eyeorg_video::{FrameTimeline, Video};
use eyeorg_workload::{generate_site, SiteClass};

fn video(seed: u64) -> Video {
    let site = generate_site(Seed(seed), 0, SiteClass::News);
    let trace = load_page(&site, &BrowserConfig::new(), Seed(seed));
    Video::capture(trace, 10, SimDuration::from_secs(4))
}

/// A full serve-all pass over `labels` for one participant: sessions,
/// responses, control, judgment, instruction and total time, in the
/// order the engines take them. Returns everything it drew.
#[allow(clippy::type_complexity)]
fn serve_all(
    p: &Persona,
    seeds: &ModelSeeds,
    sprof: &SessionProfile,
    tprof: &TimelineStimulusProfile,
    rewinds: &[usize],
    labels: &[String],
) -> (Vec<VideoSession>, Vec<f64>, bool, SimDuration) {
    let sessions: Vec<VideoSession> = labels
        .iter()
        .map(|l| video_session(sprof, p, TestKind::Timeline, seeds.behavior(l)))
        .collect();
    let responses: Vec<f64> = labels
        .iter()
        .map(|l| timeline_response(tprof, rewinds, p, seeds.perception(l)).submitted.as_secs_f64())
        .collect();
    let control = timeline_control_passes(p, seeds.perception("ctrl-tl-0"));
    let total = total_time_on_site(&sessions, p, seeds.instructions());
    (sessions, responses, control, total)
}

/// Any single value computed with every sibling draw elided must equal
/// the same value inside the full serve-all pipeline. This is the
/// demand-driven engines' licence to skip: were any two activity
/// streams secretly shared (one global RNG, draw-order coupling),
/// eliding sessions would shift responses and this would fail with a
/// field-level diff.
#[test]
fn isolated_values_match_full_serve() {
    let v = video(90);
    let mut tl = FrameTimeline::of(&v);
    tl.precompute_rewinds();
    let rewinds = tl.rewind_table();
    let sprof = SessionProfile::of(&v, TestKind::Timeline);
    let tprof = TimelineStimulusProfile::of(&v);
    let labels: Vec<String> = (0..4).map(|si| format!("tl-{si}")).collect();
    let ready = true_ready_time(&v, ReadinessCriterion::MainContent);

    for pool in [PopulationProfile::paid(), PopulationProfile::trusted()] {
        for i in 0..120 {
            let p = pool.generate_persona(Seed(421), i);
            let seeds = ModelSeeds::of(p.seed);
            let (sessions, responses, control, total) =
                serve_all(&p, &seeds, &sprof, &tprof, &rewinds, &labels);

            // Each response with all sessions, the control, the other
            // responses and the time accounting elided.
            for (j, label) in labels.iter().enumerate() {
                let lone = timeline_response(&tprof, &rewinds, &p, seeds.perception(label));
                assert_eq!(
                    lone.submitted.as_secs_f64(),
                    responses[j],
                    "response {label} participant {i}"
                );
            }
            // Each session with everything else elided.
            for (j, label) in labels.iter().enumerate() {
                let lone = video_session(&sprof, &p, TestKind::Timeline, seeds.behavior(label));
                assert_eq!(lone, sessions[j], "session {label} participant {i}");
            }
            // Control and behaviour independent of response elision.
            assert_eq!(
                timeline_control_passes(&p, seeds.perception("ctrl-tl-0")),
                control,
                "control participant {i}"
            );
            assert_eq!(
                total_time_on_site(&sessions, &p, seeds.instructions()),
                total,
                "total time participant {i}"
            );
            let instruction = total_time_on_site(&[], &p, seeds.instructions());
            // A/B streams stay untouched by everything above.
            let later = ready + SimDuration::from_millis(600);
            let judged = judge_pair(ready, later, &p, seeds.abjudge("ab-1"));
            let ab_ctrl = ab_control(ready, &p, seeds.abjudge("ab-0"));
            let (sessions2, ..) = serve_all(&p, &seeds, &sprof, &tprof, &rewinds, &labels);
            assert_eq!(sessions2, sessions, "timeline replay after judging, participant {i}");
            assert_eq!(
                judge_pair(ready, later, &p, seeds.abjudge("ab-1")),
                judged,
                "judgment replay participant {i}"
            );
            // Replay after the intervening timeline serve: the A/B
            // control and instruction streams must be untouched by it.
            assert_eq!(
                ab_control(ready, &p, seeds.abjudge("ab-0")),
                ab_ctrl,
                "ab control replay participant {i}"
            );
            assert_eq!(
                total_time_on_site(&[], &p, seeds.instructions()),
                instruction,
                "instruction replay participant {i}"
            );
        }
    }
}

/// Gate-rejected and pruned participants drop their trait cursors
/// unfinished. The participants that *are* materialised — whether via
/// the cursor path or full generation, in any order, with any subset
/// of their neighbours elided — must come out bit-identical.
#[test]
fn unfinished_cursors_never_perturb_materialised_participants() {
    for pool in [PopulationProfile::paid(), PopulationProfile::trusted()] {
        let root = Seed(1187);
        let reference: Vec<Persona> =
            (0..600).map(|i| pool.generate_persona(root, i)).collect();

        // Finish only every third cursor (a stand-in for the gate
        // admitting ~1/3 of recruits); drop the rest unfinished.
        for (i, expected) in reference.iter().enumerate() {
            let cur = pool.start_traits(root, i as u64);
            if i % 3 == 0 {
                assert_eq!(&cur.finish(&pool), expected, "sparse finish index {i}");
            }
            // Non-multiples: cursor dropped here, nothing drawn beyond
            // the class pick.
        }
        // Reverse order, finishing a different subset: still identical.
        for i in (0..600u64).rev() {
            let cur = pool.start_traits(root, i);
            if i % 3 == 1 {
                assert_eq!(
                    cur.finish(&pool),
                    reference[i as usize],
                    "reverse sparse finish index {i}"
                );
            }
        }
    }
}

/// A whole per-stimulus seed plane expanded with `Rng::seed_block`
/// must reproduce scalar per-cell seeding for every cell — the bulk
/// path the flat engine's pass C takes.
#[test]
fn bulk_seed_plane_matches_scalar_cells() {
    let v = video(77);
    let sprof = SessionProfile::of(&v, TestKind::Timeline);
    let pool = PopulationProfile::paid();
    let personas: Vec<Persona> = (0..200).map(|i| pool.generate_persona(Seed(55), i)).collect();
    let seeds: Vec<ModelSeeds> = personas.iter().map(|p| ModelSeeds::of(p.seed)).collect();

    let mut rngs = Vec::new();
    for si in 0..6 {
        let label = format!("tl-{si}");
        let plane: Vec<u64> = seeds.iter().map(|s| s.session_seed(&label)).collect();
        Rng::seed_block(&plane, &mut rngs);
        assert_eq!(rngs.len(), personas.len(), "label {label}");
        for (j, (p, ms)) in personas.iter().zip(&seeds).enumerate() {
            assert_eq!(
                video_session(&sprof, p, TestKind::Timeline, rngs[j].clone()),
                video_session(&sprof, p, TestKind::Timeline, ms.behavior(&label)),
                "label {label} cell {j}"
            );
        }
    }
}
