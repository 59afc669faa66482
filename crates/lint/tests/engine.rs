//! Integration tests: run the rule engine over the fixture corpus.
//!
//! Every rule has three fixtures under `tests/fixtures/`: a known-bad
//! file that must trip, a waived file that must pass with the waiver
//! consumed, and a file whose waiver no longer suppresses anything and
//! must therefore fail. The fixtures are excluded from the workspace
//! scan (`SKIP_PREFIXES`) precisely because they violate on purpose.

mod linelex;

use std::path::Path;

use eyeorg_lint::{lint_source, scan_workspace, FileMeta, Report};

/// Lint a fixture as though it lived in a fingerprinted library crate,
/// where every rule applies.
fn lint_fixture(name: &str) -> Report {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let meta = FileMeta::classify(&format!("crates/net/src/{name}"));
    lint_source(&meta, &source)
}

fn codes(report: &Report) -> Vec<&str> {
    report.diagnostics.iter().map(|d| d.code.as_str()).collect()
}

#[test]
fn bad_fixtures_trip_their_rule() {
    for rule in ["D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8"] {
        let report = lint_fixture(&format!("{}_bad.rs", rule.to_lowercase()));
        assert!(!report.is_clean(), "{rule} bad fixture must trip");
        assert!(
            codes(&report).iter().all(|c| *c == rule),
            "{rule} bad fixture tripped foreign codes: {:?}",
            report.diagnostics
        );
    }
}

#[test]
fn bad_fixture_diagnostics_carry_line_numbers() {
    let report = lint_fixture("d1_bad.rs");
    let lines: Vec<usize> = report.diagnostics.iter().map(|d| d.line).collect();
    // Line 6 declares and constructs a HashMap: two findings, counted
    // per occurrence so an `n=2` waiver can account for both.
    assert_eq!(lines, vec![3, 6, 6], "one finding per occurrence: {:?}", report.diagnostics);
    assert!(report.diagnostics[0].path.ends_with("d1_bad.rs"));
}

#[test]
fn waived_fixtures_pass_and_consume_the_waiver() {
    for rule in ["d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8"] {
        let report = lint_fixture(&format!("{rule}_waived.rs"));
        assert!(
            report.is_clean(),
            "{rule} waived fixture must be clean, got {:?}",
            report.diagnostics
        );
        assert_eq!(report.waivers_used, 1, "{rule} waiver must be consumed");
    }
}

#[test]
fn unused_waivers_are_findings() {
    for rule in ["d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8"] {
        let report = lint_fixture(&format!("{rule}_unused_waiver.rs"));
        assert_eq!(
            codes(&report),
            vec!["unused-waiver"],
            "{rule} stale waiver must be reported: {:?}",
            report.diagnostics
        );
        assert_eq!(report.waivers_used, 0);
    }
}

#[test]
fn malformed_waivers_are_findings() {
    let report = lint_fixture("bad_waiver.rs");
    assert_eq!(codes(&report), vec!["bad-waiver", "bad-waiver"], "{:?}", report.diagnostics);
    let lines: Vec<usize> = report.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![3, 8]);
}

/// Satellite regression: `lint:allow(rule, n=K)` suppresses K findings
/// on one line, and an over-declared count is itself a finding.
#[test]
fn counted_waivers_cover_multiple_findings_per_line() {
    let report = lint_fixture("waiver_count_waived.rs");
    assert!(report.is_clean(), "n=2 must cover both findings: {:?}", report.diagnostics);
    assert_eq!(report.waivers_used, 2);

    let report = lint_fixture("waiver_count_over.rs");
    assert_eq!(
        codes(&report),
        vec!["unused-waiver"],
        "an over-declared n must be flagged: {:?}",
        report.diagnostics
    );
}

/// The streaming accumulator modules (PR 5) feed digest fingerprints
/// directly, so D1 must apply to each of them — a hash collection
/// sneaking into an accumulator would make shard merges order-seeded.
#[test]
fn streaming_accumulator_modules_are_d1_covered() {
    let bad = "use std::collections::HashMap;\n\
               pub fn tally(xs: &[u32]) -> usize {\n\
                   let mut m: HashMap<u32, u32> = HashMap::new();\n\
                   for x in xs { *m.entry(*x).or_insert(0) += 1; }\n\
                   m.len()\n\
               }\n";
    for path in [
        "crates/stats/src/stream.rs",
        "crates/core/src/digest.rs",
        "crates/core/src/stream.rs",
        // The flat data plane fills the same digest accumulators from
        // its column passes, and the bitplane popcounts feed frame
        // comparisons that digests are built on — same exposure.
        "crates/core/src/flat.rs",
        // The adaptive driver merges shard folds at epoch barriers and
        // takes stopping decisions on the merged accumulators — a
        // nondeterministic container there skews the decision sequence.
        "crates/core/src/adaptive.rs",
        "crates/video/src/bitplane.rs",
        // The behavioural-model fast path (PR 10) derives every session,
        // response and control draw the engines fingerprint; an
        // order-seeded container there would poison all three engines
        // at once.
        "crates/crowd/src/fastpath.rs",
    ] {
        let meta = FileMeta::classify(path);
        let report = lint_source(&meta, bad);
        assert!(
            codes(&report).contains(&"D1"),
            "{path} must be under D1 coverage, got {:?}",
            report.diagnostics
        );
    }
}

/// The fast-path module hands out raw seeds and folds float draws, so
/// beyond D1 it must also sit under D6 (float ordering/accumulation)
/// and D8 (machine-dependent taint reaching a seed/fingerprint sink).
/// Snippets are shaped on `tests/fixtures/d6_bad.rs` / `d8_bad.rs`.
#[test]
fn fastpath_module_is_d6_and_d8_covered() {
    let meta = FileMeta::classify("crates/crowd/src/fastpath.rs");

    let d6_bad = "pub fn spread(xs: &[f64]) -> f64 {\n\
                      let mut v = xs.to_vec();\n\
                      v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));\n\
                      v.iter().sum::<f64>()\n\
                  }\n";
    let report = lint_source(&meta, d6_bad);
    assert!(
        codes(&report).contains(&"D6"),
        "fastpath.rs must be under D6 coverage, got {:?}",
        report.diagnostics
    );

    let d8_bad = "pub fn shard_seed() -> u64 {\n\
                      let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);\n\
                      fingerprint(n as u64)\n\
                  }\n\
                  fn fingerprint(x: u64) -> u64 {\n\
                      x.wrapping_mul(2654435761)\n\
                  }\n";
    let report = lint_source(&meta, d8_bad);
    assert!(
        codes(&report).contains(&"D8"),
        "fastpath.rs must be under D8 coverage, got {:?}",
        report.diagnostics
    );
}

/// The gate the CI pass enforces: the real tree is clean, every
/// finding fixed or waived inline with its invariant. Keeping this as a
/// test means `cargo test` alone catches a regression even when the
/// lint binary is not run.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = scan_workspace(&root).expect("workspace readable");
    assert!(report.files > 50, "scan must cover the tree, saw {} files", report.files);
    let rendered: Vec<String> =
        report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(report.is_clean(), "workspace lint findings:\n{}", rendered.join("\n"));
}

/// Tentpole self-test: the token-stream line views must agree with the
/// PR 4 line lexer (modulo trailing whitespace, which the old lexer's
/// escape handling could overshoot at end of line) on every fixture
/// and every real source file in the workspace.
#[test]
fn tokenizer_agrees_with_line_lexer() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for dir in [manifest.join("tests/fixtures"), manifest.join("../../crates")] {
        collect_rs(&dir, &mut files);
    }
    files.sort();
    assert!(files.len() > 40, "agreement corpus too small: {}", files.len());
    for path in files {
        let src = std::fs::read_to_string(&path).expect("source readable");
        let tokens = eyeorg_lint::token::tokenize(&src);
        let views = eyeorg_lint::token::line_views(&src, &tokens);
        let mut scrubber = linelex::Scrubber::new();
        for (idx, line) in src.lines().enumerate() {
            let old = scrubber.scrub(line);
            let new = &views[idx];
            assert_eq!(
                old.code.trim_end(),
                new.code.trim_end(),
                "{}:{}: line-lexer/tokenizer code disagreement",
                path.display(),
                idx + 1
            );
            assert_eq!(
                old.comment.as_deref().map(str::trim_end),
                new.comment.as_deref().map(str::trim_end),
                "{}:{}: comment disagreement",
                path.display(),
                idx + 1
            );
        }
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
