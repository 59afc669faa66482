//! End-to-end behaviour of the simulated browser: the load-bearing
//! phenomena for the paper's campaigns must emerge from real page loads.

use eyeorg_browser::{load_page, AdBlocker, BrowserConfig, DeviceProfile, PaintKind, SkipReason};
use eyeorg_http::Protocol;
use eyeorg_net::NetworkProfile;
use eyeorg_stats::Seed;
use eyeorg_workload::{ad_heavy, alexa_like, generate_site, Discovery, ResourceKind, SiteClass, Website};

fn news_site() -> Website {
    generate_site(Seed(100), 0, SiteClass::News)
}

#[test]
fn load_produces_complete_trace() {
    let site = news_site();
    let trace = load_page(&site, &BrowserConfig::new(), Seed(1));
    assert!(trace.check_invariants().is_ok(), "{:?}", trace.check_invariants());
    assert!(trace.onload.is_some(), "onload must fire");
    assert!(trace.parse_complete.is_some());
    assert!(!trace.paints.is_empty(), "something must paint");
    let fvc = trace.first_visual_change().unwrap();
    let lvc = trace.last_visual_change().unwrap();
    assert!(fvc <= lvc);
    assert!(fvc < trace.onload.unwrap(), "first paint precedes onload");
}

#[test]
fn all_unblocked_resources_fetched() {
    let site = news_site();
    let trace = load_page(&site, &BrowserConfig::new(), Seed(2));
    for r in &trace.resources {
        assert!(
            r.completed.is_some() || r.skipped.is_some(),
            "{:?} neither completed nor skipped",
            r.id
        );
    }
    // Without a blocker nothing is skipped.
    assert!(trace.resources.iter().all(|r| r.skipped.is_none()));
}

#[test]
fn some_ads_complete_after_onload() {
    // The OnLoad-underestimate case: ads injected by trackers that
    // execute late land after onload on at least some ad-heavy sites.
    let sites = ad_heavy(Seed(7), 12, 2);
    let mut post_onload_sites = 0;
    for site in &sites {
        let trace = load_page(site, &BrowserConfig::new(), Seed(3));
        if !trace.post_onload_completions().is_empty() {
            post_onload_sites += 1;
        }
    }
    assert!(
        post_onload_sites >= 2,
        "expected several sites with post-onload ad traffic, got {post_onload_sites}/12"
    );
}

#[test]
fn h2_faster_than_h1_for_most_sites() {
    let sites = alexa_like(Seed(21), 12);
    let mut h2_wins = 0;
    for site in &sites {
        let h1 = load_page(site, &BrowserConfig::new().with_protocol(Protocol::Http1), Seed(4));
        let h2 = load_page(site, &BrowserConfig::new().with_protocol(Protocol::Http2), Seed(4));
        if h2.onload.unwrap() < h1.onload.unwrap() {
            h2_wins += 1;
        }
    }
    assert!(h2_wins >= 8, "H2 should win most sites: {h2_wins}/12");
}

#[test]
fn ghostery_blocks_tracker_chains_transitively() {
    let sites = ad_heavy(Seed(8), 8, 3);
    let mut saw_parent_blocked = false;
    for site in &sites {
        let cfg = BrowserConfig::new().with_adblocker(AdBlocker::Ghostery);
        let trace = load_page(site, &cfg, Seed(5));
        for r in &trace.resources {
            match r.skipped {
                Some(SkipReason::ParentBlocked) => {
                    saw_parent_blocked = true;
                    // The parent must itself be blocked or also orphaned.
                    if let Discovery::Parent { parent } = site.resources[r.id.0 as usize].discovery
                    {
                        assert!(
                            trace.resources[parent.0 as usize].skipped.is_some(),
                            "orphan {:?} has a live parent",
                            r.id
                        );
                    }
                }
                Some(SkipReason::BlockedByExtension) => {
                    assert!(r.submitted.is_none());
                }
                None => {}
            }
        }
    }
    assert!(saw_parent_blocked, "Ghostery should cut at least one injection chain");
}

#[test]
fn blockers_reduce_fetched_requests_and_speed_up_loads() {
    let sites = ad_heavy(Seed(9), 10, 2);
    for blocker in AdBlocker::ALL {
        let mut fetched_plain = 0usize;
        let mut fetched_blocked = 0usize;
        let mut onload_plain = 0.0;
        let mut onload_blocked = 0.0;
        for site in &sites {
            let plain = load_page(site, &BrowserConfig::new(), Seed(6));
            let blocked = load_page(site, &BrowserConfig::new().with_adblocker(blocker), Seed(6));
            fetched_plain += plain.resources.iter().filter(|r| r.fetched()).count();
            fetched_blocked += blocked.resources.iter().filter(|r| r.fetched()).count();
            onload_plain += plain.onload.unwrap().as_secs_f64();
            onload_blocked += blocked.onload.unwrap().as_secs_f64();
        }
        assert!(
            fetched_blocked < fetched_plain,
            "{blocker:?} should reduce request count ({fetched_blocked} vs {fetched_plain})"
        );
        assert!(
            onload_blocked < onload_plain,
            "{blocker:?} should speed up aggregate onload ({onload_blocked:.2} vs {onload_plain:.2})"
        );
    }
}

#[test]
fn ghostery_blocks_most_third_party_traffic() {
    // Ghostery's tracker-first policy should cut more third-party
    // requests than AdBlock (chains die at the root).
    let sites = ad_heavy(Seed(10), 10, 2);
    let count_third_party = |blocker: AdBlocker| -> usize {
        sites
            .iter()
            .map(|site| {
                let trace =
                    load_page(site, &BrowserConfig::new().with_adblocker(blocker), Seed(7));
                trace
                    .resources
                    .iter()
                    .filter(|r| {
                        r.fetched()
                            && site.origins[site.resources[r.id.0 as usize].origin.0 as usize]
                                .third_party
                    })
                    .count()
            })
            .sum()
    };
    let ghostery = count_third_party(AdBlocker::Ghostery);
    let adblock = count_third_party(AdBlocker::AdBlock);
    assert!(
        ghostery < adblock,
        "Ghostery should allow less third-party traffic: {ghostery} vs {adblock}"
    );
}

#[test]
fn loads_are_deterministic() {
    let site = news_site();
    let a = load_page(&site, &BrowserConfig::new(), Seed(11));
    let b = load_page(&site, &BrowserConfig::new(), Seed(11));
    assert_eq!(a, b);
    let c = load_page(&site, &BrowserConfig::new(), Seed(12));
    assert_ne!(a, c, "different seeds must differ (loss/DNS draws)");
}

#[test]
fn slower_device_slows_cpu_bound_milestones() {
    // Note: onload itself can move *either way* with CPU speed — a slow
    // main thread can push an ad injection past the onload cutoff,
    // excluding it from the load (an effect real pages exhibit too). The
    // strictly CPU-bound milestone is parse completion.
    let site = news_site();
    let desktop = load_page(&site, &BrowserConfig::new(), Seed(13));
    let mobile = load_page(
        &site,
        &BrowserConfig::new().with_device(DeviceProfile::mobile_mid()),
        Seed(13),
    );
    assert!(
        mobile.parse_complete.unwrap() > desktop.parse_complete.unwrap(),
        "4x CPU factor must slow parsing: {} vs {}",
        mobile.parse_complete.unwrap(),
        desktop.parse_complete.unwrap()
    );
    assert!(mobile.first_visual_change().unwrap() >= desktop.first_visual_change().unwrap());
}

#[test]
fn slower_network_slows_the_load() {
    let site = news_site();
    let cable = load_page(&site, &BrowserConfig::new(), Seed(14));
    let dsl = load_page(
        &site,
        &BrowserConfig::new().with_network(NetworkProfile::dsl()),
        Seed(14),
    );
    assert!(dsl.onload.unwrap() > cable.onload.unwrap());
}

#[test]
fn first_paint_waits_for_render_blocking_css() {
    let site = news_site();
    let trace = load_page(&site, &BrowserConfig::new(), Seed(15));
    let fvc = trace.first_visual_change().unwrap();
    // Every stylesheet discovered before first paint must have applied
    // by then.
    for r in &site.resources {
        if r.kind == ResourceKind::Css {
            let tr = &trace.resources[r.id.0 as usize];
            if tr.discovered.is_some_and(|d| d < fvc) {
                assert!(
                    tr.applied.is_some_and(|a| a <= fvc),
                    "paint at {fvc} before stylesheet {:?} applied",
                    r.id
                );
            }
        }
    }
}

#[test]
fn document_paints_progressively() {
    // A big document with no render-blocking fonts: parsing interleaves
    // with network arrival, so the text paints in multiple bands. (Sites
    // whose fonts outlast parsing legitimately paint in one band.)
    use eyeorg_workload::{Origin, Rect, Resource, ResourceId, Website};
    let site = Website {
        name: "bigdoc.example".into(),
        origins: vec![Origin {
            host: "bigdoc.example".into(),
            supports_h2: true,
            third_party: false,
        }],
        resources: vec![Resource {
            id: ResourceId(0),
            kind: ResourceKind::Html,
            origin: eyeorg_workload::OriginRef(0),
            body_bytes: 400_000,
            request_header_bytes: 400,
            response_header_bytes: 300,
            rect: Some(Rect { x: 0, y: 0, w: 1280, h: 4000 }),
            discovery: Discovery::Root,
            render_blocking: false,
            defer: false,
            server_think_us: 20_000,
        }],
        canvas_width: 1280,
        page_height: 4000,
        fold_y: 720,
    };
    assert!(site.validate().is_empty());
    let trace = load_page(&site, &BrowserConfig::new(), Seed(16));
    let bands: Vec<_> =
        trace.paints.iter().filter(|p| p.kind == PaintKind::DocumentBand).collect();
    assert!(bands.len() >= 3, "expected multiple document bands, got {}", bands.len());
    // Bands tile downward without overlap.
    let mut y = 0;
    for b in &bands {
        assert_eq!(b.rect.y, y, "bands must tile contiguously");
        y += b.rect.h;
    }
    assert_eq!(y, site.page_height, "bands cover the whole page");
}

#[test]
fn primer_avoids_cold_dns_on_measured_load() {
    let site = news_site();
    let mut no_primer_cfg = BrowserConfig::new();
    no_primer_cfg.primer = false;
    let warm = load_page(&site, &BrowserConfig::new(), Seed(17));
    let cold = load_page(&site, &no_primer_cfg, Seed(17));
    // The root request goes out earlier when the resolver is warm.
    let warm_submit = warm.resources[0].submitted.unwrap();
    let cold_submit = cold.resources[0].submitted.unwrap();
    assert!(warm_submit < cold_submit, "primer should remove cold lookup: {warm_submit} vs {cold_submit}");
}

#[test]
fn mixed_protocol_fallback_for_non_h2_third_parties() {
    // Find a site with a non-H2 third-party origin and check the load
    // still completes under the H2 config (fallback path).
    let sites = ad_heavy(Seed(18), 10, 1);
    let site = sites
        .iter()
        .find(|s| s.origins.iter().any(|o| !o.supports_h2))
        .expect("corpus contains non-H2 ad networks");
    let trace = load_page(site, &BrowserConfig::new(), Seed(19));
    assert!(trace.onload.is_some());
    assert!(trace.resources.iter().all(|r| r.completed.is_some() || r.skipped.is_some()));
}

#[test]
fn corpus_wide_load_sanity() {
    // Every site in a mixed corpus loads to quiescence with a valid
    // trace under both protocols.
    for (i, site) in alexa_like(Seed(20), 8).iter().enumerate() {
        for proto in [Protocol::Http1, Protocol::Http2] {
            let trace = load_page(site, &BrowserConfig::new().with_protocol(proto), Seed(i as u64));
            assert!(trace.check_invariants().is_ok(), "site {i} {proto:?}");
            let onload = trace.onload.expect("onload fired").as_secs_f64();
            assert!(
                (0.1..120.0).contains(&onload),
                "site {i} {proto:?}: implausible onload {onload}s"
            );
        }
    }
}

#[test]
fn server_push_accelerates_first_paint() {
    // With the origin pushing its render-blocking CSS, first paint should
    // come earlier on most sites (no CSS discovery round trip).
    let sites = alexa_like(Seed(70), 8);
    let mut wins = 0;
    let mut total = 0;
    for (i, site) in sites.iter().enumerate() {
        let plain = load_page(site, &BrowserConfig::new(), Seed(71 + i as u64));
        let pushed =
            load_page(site, &BrowserConfig::new().with_server_push(), Seed(71 + i as u64));
        assert!(pushed.check_invariants().is_ok());
        assert!(pushed.onload.is_some());
        let fold = site.fold_y;
        let fvc = |t: &eyeorg_browser::LoadTrace| {
            t.paints
                .iter()
                .find(|p| p.rect.above_fold(fold).is_some())
                .map(|p| p.time)
        };
        if let (Some(a), Some(b)) = (fvc(&plain), fvc(&pushed)) {
            total += 1;
            if b <= a {
                wins += 1;
            }
        }
    }
    assert!(wins * 3 >= total * 2, "push should help first paint: {wins}/{total}");
}
