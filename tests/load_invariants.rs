//! Loader and capture invariants over arbitrary (valid) websites, not
//! just the generator's output.
//!
//! The sites are drawn from the workspace's own seeded RNG: structurally
//! varied, fully deterministic, std-only.

use eyeorg_browser::{load_page, BrowserConfig};
use eyeorg_net::NetworkProfile;
use eyeorg_stats::{Rng, Seed};
use eyeorg_video::{rewind_suggestion, CaptureConfig, FrameTimeline, Video};
use eyeorg_workload::{
    Discovery, Origin, OriginRef, Rect, Resource, ResourceId, ResourceKind, Website,
};

/// Sites per property.
const CASES: usize = 24;

/// A small but structurally varied website: 0–5 images, 0–3 scripts,
/// 0–2 stylesheets and 0–2 ads (loaded by the last script when there is
/// one). Valid by construction; the properties check that too.
fn random_site(rng: &mut Rng) -> Website {
    let n_img = rng.random_range(0usize..6);
    let n_js = rng.random_range(0usize..4);
    let n_css = rng.random_range(0usize..3);
    let n_ad = rng.random_range(0usize..3);
    let html_bytes = rng.random_range(10_000u64..150_000);
    let page_height = rng.random_range(1_500u32..6_000);
    let noise = rng.next_u64();
    let mut resources = vec![Resource {
        id: ResourceId(0),
        kind: ResourceKind::Html,
        origin: OriginRef(0),
        body_bytes: html_bytes,
        request_header_bytes: 400,
        response_header_bytes: 300,
        rect: Some(Rect { x: 0, y: 0, w: 1280, h: page_height }),
        discovery: Discovery::Root,
        render_blocking: false,
        defer: false,
        server_think_us: 20_000,
    }];
    let mut push = |kind, rect, discovery, blocking, defer, bytes| {
        let id = ResourceId(resources.len() as u32);
        resources.push(Resource {
            id,
            kind,
            origin: OriginRef(if matches!(kind, ResourceKind::Ad) { 1 } else { 0 }),
            body_bytes: bytes,
            request_header_bytes: 350,
            response_header_bytes: 250,
            rect,
            discovery,
            render_blocking: blocking,
            defer,
            server_think_us: 10_000 + (bytes % 50_000),
        });
        id
    };
    for i in 0..n_css {
        let at_fraction = 0.02 + 0.03 * i as f32;
        push(
            ResourceKind::Css,
            None,
            Discovery::Html { at_fraction },
            true,
            false,
            5_000 + noise % 40_000,
        );
    }
    let mut last_js = None;
    for i in 0..n_js {
        let at_fraction = 0.1 + 0.2 * i as f32;
        let bytes = 3_000 + noise % 60_000;
        last_js = Some(push(
            ResourceKind::Js,
            None,
            Discovery::Html { at_fraction },
            false,
            i % 2 == 0,
            bytes,
        ));
    }
    for i in 0..n_img {
        let y = (i as u32 * page_height / n_img.max(1) as u32).min(page_height.saturating_sub(101));
        let rect = Some(Rect { x: 10, y, w: 400, h: 100 });
        let at_fraction = 0.15 + 0.1 * i as f32;
        push(
            ResourceKind::Image,
            rect,
            Discovery::Html { at_fraction },
            false,
            false,
            2_000 + (noise >> 8) % 80_000,
        );
    }
    for _ in 0..n_ad {
        let discovery = match last_js {
            Some(parent) => Discovery::Parent { parent },
            None => Discovery::Html { at_fraction: 0.5 },
        };
        let rect = Some(Rect { x: 900, y: 100, w: 300, h: 250 });
        push(ResourceKind::Ad, rect, discovery, false, false, 4_000 + noise % 30_000);
    }
    Website {
        name: "prop.example".into(),
        origins: vec![
            Origin { host: "prop.example".into(), supports_h2: true, third_party: false },
            Origin { host: "ads.example".into(), supports_h2: noise & 1 == 0, third_party: true },
        ],
        resources,
        canvas_width: 1280,
        page_height,
        fold_y: 720,
    }
}

/// Every site is structurally valid and loads to a trace satisfying all
/// recorded invariants, under several network profiles.
#[test]
fn any_site_loads_cleanly() {
    let mut rng = Rng::seed_from_u64(0x10ad_0001);
    let profiles = [NetworkProfile::fttc(), NetworkProfile::cable(), NetworkProfile::fiber()];
    for case in 0..CASES {
        let site = random_site(&mut rng);
        assert!(site.validate().is_empty(), "case {case}: {:?}", site.validate());
        let profile = profiles[rng.random_range(0usize..profiles.len())].clone();
        let trace =
            load_page(&site, &BrowserConfig::new().with_network(profile), Seed(rng.below(1000)));
        assert!(trace.check_invariants().is_ok(), "case {case}: {:?}", trace.check_invariants());
        let onload = trace.onload.expect("onload must fire");
        assert!(trace.parse_complete.is_some(), "case {case}: parsing never completed");
        let quiescent = trace.quiescent.expect("quiescent set");
        for r in &trace.resources {
            // Everything fetched or skipped, nothing lost.
            assert!(
                r.completed.is_some() || r.skipped.is_some(),
                "case {case}: {:?} dangling",
                r.id
            );
            // Whatever was discovered before onload completes by the
            // trace's quiescent time.
            if let (Some(d), Some(c)) = (r.discovered, r.completed) {
                if d < onload {
                    assert!(c <= quiescent, "case {case}: {:?} completes after quiescence", r.id);
                }
            }
        }
    }
}

/// Captures render consistent frames: a blank start, at least two
/// frames, and rewinds that never go forward.
#[test]
fn any_capture_is_coherent() {
    let mut rng = Rng::seed_from_u64(0x10ad_0002);
    for case in 0..CASES {
        let site = random_site(&mut rng);
        let trace = load_page(&site, &BrowserConfig::new(), Seed(rng.below(500)));
        let video = Video::capture(trace, 10, eyeorg_net::SimDuration::from_secs(2));
        assert!(video.frame_count() >= 2, "case {case}");
        assert!(video.frame(0).painted_fraction() <= 0.01, "case {case}: capture starts blank");
        let tl = FrameTimeline::of(&video);
        let n = tl.len();
        assert_eq!(n, video.frame_count(), "case {case}");
        for chosen in [n / 3, n - 1] {
            let rewind = tl.rewind_at(chosen);
            assert!(rewind <= chosen, "case {case}: rewind went forward");
            assert_eq!(rewind, rewind_suggestion(&video, chosen), "case {case}");
        }
    }
}

/// webpeg's median selection returns one of the repeat loads.
#[test]
fn webpeg_median_is_one_of_the_loads() {
    let mut rng = Rng::seed_from_u64(0x10ad_0003);
    let cfg = CaptureConfig { repeats: 3, ..CaptureConfig::default() };
    for case in 0..CASES {
        let site = random_site(&mut rng);
        let seed = Seed(rng.below(200));
        let video = eyeorg_video::capture_median(&site, &BrowserConfig::new(), seed, &cfg);
        let all = eyeorg_video::capture_all(&site, &BrowserConfig::new(), seed, &cfg);
        assert!(all.iter().any(|t| t == video.trace()), "case {case}: median is not a load");
    }
}
