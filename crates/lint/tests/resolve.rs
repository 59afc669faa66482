//! Call resolution fixtures for the reachability rules (D7, D8).
//!
//! Each case is a small multi-file workspace. A panic reached through
//! a path the code really names (a `pub use` re-export, `Self::`, a
//! `type` alias, a trait default body, a generic parameter, a fn passed
//! by path as an argument) must still be found; a path that leaves the
//! workspace (`std`, a primitive, a prelude type), names a derived
//! method or names a local must bind to nothing, even when a same-named
//! workspace item would panic.

use eyeorg_lint::{analyze_sources, FileMeta};

/// The `(path, line, code)` of every diagnostic over `files`.
fn findings(files: &[(&str, &str)]) -> Vec<(String, usize, String)> {
    let inputs = files.iter().map(|(p, src)| (FileMeta::classify(p), (*src).to_owned())).collect();
    analyze_sources(inputs).diagnostics.into_iter().map(|d| (d.path, d.line, d.code)).collect()
}

fn d7(path: &str, line: usize) -> (String, usize, String) {
    (path.to_owned(), line, "D7".to_owned())
}

const STATS_LIB: &str = "\
pub mod summary;
pub mod decoy;
pub use summary::Summary;
";

const STATS_SUMMARY: &str = "\
pub struct Summary;

impl Summary {
    pub fn of(sample: &[u8]) -> u8 {
        sample[0]
    }
}
";

/// Same names as the real targets, each a panic a false edge would
/// report.
const STATS_DECOY: &str = "\
pub struct Other;

impl Other {
    pub fn of(sample: &[u8]) -> u8 {
        sample[1]
    }
    pub fn decode(bytes: &[u8]) -> u8 {
        bytes[1]
    }
}
";

#[test]
fn a_panic_through_a_pub_use_re_export_is_found() {
    let entry = "\
// lint:entrypoint(untrusted)
pub fn load(bytes: &[u8]) -> u8 {
    eyeorg_stats::Summary::of(bytes)
}
";
    let got = findings(&[
        ("crates/core/src/checkpoint.rs", entry),
        ("crates/stats/src/decoy.rs", STATS_DECOY),
        ("crates/stats/src/lib.rs", STATS_LIB),
        ("crates/stats/src/summary.rs", STATS_SUMMARY),
    ]);
    assert_eq!(got, vec![d7("crates/stats/src/summary.rs", 5)]);
}

#[test]
fn a_panic_through_self_is_found() {
    let src = "\
pub struct Loader;

impl Loader {
    // lint:entrypoint(untrusted)
    pub fn load(bytes: &[u8]) -> u8 {
        Self::decode(bytes)
    }

    fn decode(bytes: &[u8]) -> u8 {
        bytes[0]
    }
}
";
    let got = findings(&[
        ("crates/core/src/checkpoint.rs", src),
        ("crates/stats/src/decoy.rs", STATS_DECOY),
        ("crates/stats/src/lib.rs", STATS_LIB),
    ]);
    assert_eq!(got, vec![d7("crates/core/src/checkpoint.rs", 10)]);
}

#[test]
fn a_panic_through_a_fn_passed_by_path_is_found() {
    let src = "\
// lint:entrypoint(untrusted)
pub fn load(lines: &[&[u8]]) -> Vec<u8> {
    lines.iter().map(|l| *l).map(decode).collect()
}

fn decode(bytes: &[u8]) -> u8 {
    bytes[0]
}
";
    let got = findings(&[("crates/core/src/checkpoint.rs", src)]);
    assert_eq!(got, vec![d7("crates/core/src/checkpoint.rs", 7)]);
}

#[test]
fn a_local_passed_as_an_argument_binds_to_nothing() {
    let src = "\
// lint:entrypoint(untrusted)
pub fn load(bytes: &[u8]) -> usize {
    let decode = bytes.len();
    usize::max(decode, 1)
}
";
    let got = findings(&[
        ("crates/core/src/checkpoint.rs", src),
        ("crates/stats/src/decoy.rs", STATS_DECOY),
        ("crates/stats/src/lib.rs", STATS_LIB),
    ]);
    assert_eq!(got, vec![]);
}

#[test]
fn a_panic_through_a_type_alias_is_found() {
    let checkpoint = "\
pub struct Checkpoint<A>(A);

impl<A> Checkpoint<A> {
    pub fn load(lines: &[u8]) -> u8 {
        lines[0]
    }
}

pub type TimelineCheckpoint = Checkpoint<u64>;
";
    let lib = "\
pub mod checkpoint;
pub mod resume;
pub use checkpoint::TimelineCheckpoint;
";
    let resume = "\
use crate::TimelineCheckpoint;

// lint:entrypoint(untrusted)
pub fn resume(bytes: &[u8]) -> u8 {
    TimelineCheckpoint::load(bytes)
}
";
    let decoy = "\
pub struct Decoy;

impl Decoy {
    pub fn load(lines: &[u8]) -> u8 {
        lines[2]
    }
}
";
    let got = findings(&[
        ("crates/core/src/checkpoint.rs", checkpoint),
        ("crates/core/src/decoy.rs", decoy),
        ("crates/core/src/lib.rs", lib),
        ("crates/core/src/resume.rs", resume),
    ]);
    assert_eq!(got, vec![d7("crates/core/src/checkpoint.rs", 5)]);
}

#[test]
fn a_panic_in_a_trait_default_body_is_found() {
    let src = "\
pub trait Codec {
    fn decode(bytes: &[u8]) -> u8 {
        bytes[0]
    }
}

pub struct Line;

impl Codec for Line {}

// lint:entrypoint(untrusted)
pub fn load(bytes: &[u8]) -> u8 {
    Line::decode(bytes)
}
";
    let got = findings(&[
        ("crates/core/src/checkpoint.rs", src),
        ("crates/stats/src/decoy.rs", STATS_DECOY),
        ("crates/stats/src/lib.rs", STATS_LIB),
    ]);
    assert_eq!(got, vec![d7("crates/core/src/checkpoint.rs", 3)]);
}

#[test]
fn a_call_through_a_trait_path_reaches_its_impls() {
    let src = "\
pub trait Codec {
    fn decode(&self, bytes: &[u8]) -> u8;
}

pub struct Line;

impl Codec for Line {
    fn decode(&self, bytes: &[u8]) -> u8 {
        bytes[0]
    }
}

// lint:entrypoint(untrusted)
pub fn load(line: &Line, bytes: &[u8]) -> u8 {
    Codec::decode(line, bytes)
}
";
    let got = findings(&[("crates/core/src/checkpoint.rs", src)]);
    assert_eq!(got, vec![d7("crates/core/src/checkpoint.rs", 9)]);
}

#[test]
fn a_panic_through_a_generic_parameter_is_found() {
    let src = "\
pub trait Make {
    fn new(bytes: &[u8]) -> Self;
}

pub struct Totals(u8);

impl Make for Totals {
    fn new(bytes: &[u8]) -> Totals {
        Totals(bytes[0])
    }
}

// lint:entrypoint(untrusted)
pub fn load<A: Make>(bytes: &[u8]) -> A {
    A::new(bytes)
}
";
    let got = findings(&[("crates/core/src/checkpoint.rs", src)]);
    assert_eq!(got, vec![d7("crates/core/src/checkpoint.rs", 9)]);
}

/// Workspace items that share a name with a std or prelude item, or
/// with a derived method. Each panics, so any false edge is a finding.
const DECOYS: &str = "\
pub struct StimulusDigest;

impl StimulusDigest {
    pub fn new() -> StimulusDigest {
        panic!(\"new\")
    }
    pub fn from(x: u8) -> u8 {
        [x][1]
    }
}

pub struct Hand;

impl Default for Hand {
    fn default() -> Hand {
        panic!(\"default\")
    }
}
";

#[test]
fn std_prelude_and_derived_paths_bind_to_nothing() {
    let entry = "\
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Derived;

// lint:entrypoint(untrusted)
pub fn load(bytes: &[u8]) -> usize {
    let out = std::process::Command::new(\"nproc\").output();
    let mut v: Vec<u8> = Vec::new();
    let m: BTreeMap<u8, u8> = BTreeMap::new();
    let s = String::from(\"x\");
    let n = usize::from(bytes.len() > 1);
    let _ = Derived::default();
    v.push(1);
    out.is_ok() as usize + m.len() + s.len() + n
}
";
    let got = findings(&[
        ("crates/core/src/checkpoint.rs", entry),
        ("crates/core/src/decoys.rs", DECOYS),
    ]);
    assert_eq!(got, Vec::new(), "no call above reaches a workspace item");
}

#[test]
fn a_hand_written_default_is_bound_by_path() {
    let entry = "\
use crate::decoys::Hand;

// lint:entrypoint(untrusted)
pub fn load() -> Hand {
    Hand::default()
}
";
    let got = findings(&[
        ("crates/core/src/checkpoint.rs", entry),
        ("crates/core/src/decoys.rs", DECOYS),
    ]);
    assert_eq!(got, vec![d7("crates/core/src/decoys.rs", 16)]);
}

/// The shape of a benchmark's environment probe: the thread count and
/// `nproc` feed a report, never a digest. `Command::new` and
/// `BTreeMap::new` must not bind to the digest sink's `new`, and a
/// line naming the source twice is one site.
#[test]
fn a_std_constructor_does_not_reach_a_digest_sink() {
    let probe = "\
use std::collections::BTreeMap;

pub fn pin() -> usize {
    let available_parallelism = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let nproc = std::process::Command::new(\"nproc\").output().map(|_| 1).unwrap_or(available_parallelism);
    let mut m = BTreeMap::new();
    m.insert(nproc, available_parallelism);
    m.len()
}
";
    let digest = "\
pub struct StimulusDigest;

impl StimulusDigest {
    pub fn new() -> StimulusDigest {
        StimulusDigest
    }
}
";
    let files = [("crates/core/src/digest.rs", digest), ("crates/core/src/probe.rs", probe)];
    assert_eq!(findings(&files), Vec::new());

    // The same probe calling the sink for real is one finding, at the
    // one line that calls `available_parallelism`.
    let tainted =
        probe.replace("m.len()", "let _ = crate::digest::StimulusDigest::new();\n    m.len()");
    let files = [("crates/core/src/digest.rs", digest), ("crates/core/src/probe.rs", &tainted)];
    assert_eq!(findings(&files), vec![("crates/core/src/probe.rs".to_owned(), 4, "D8".to_owned())]);
}

/// `available_parallelism` is a source where it is read from the
/// machine — a call, or a path naming the function — and not where a
/// local or a field of that name carries a value already read.
#[test]
fn available_parallelism_is_a_source_only_at_a_call_or_a_path() {
    let sink = "\nfn fingerprint(x: usize) -> usize {\n    x\n}\n";
    let d8_lines = |body: &str| -> Vec<usize> {
        let src = format!("{body}{sink}");
        findings(&[("crates/core/src/engine.rs", &src)])
            .into_iter()
            .filter(|(_, _, code)| code == "D8")
            .map(|(_, line, _)| line)
            .collect()
    };
    // A call through its path, and a bare call of an imported name.
    assert_eq!(
        d8_lines(
            "pub fn a() -> usize {\n    fingerprint(std::thread::available_parallelism().map_or(1, |n| n.get()))\n}\n"
        ),
        vec![2]
    );
    assert_eq!(
        d8_lines(
            "use std::thread::available_parallelism;\npub fn a() -> usize {\n    fingerprint(available_parallelism().map_or(1, |n| n.get()))\n}\n"
        ),
        vec![3]
    );
    // The function named by path, called later.
    assert_eq!(
        d8_lines(
            "pub fn a() -> usize {\n    let probe = std::thread::available_parallelism;\n    fingerprint(probe().map_or(1, |n| n.get()))\n}\n"
        ),
        vec![2]
    );
    // A local and a field of that name are values, not reads.
    assert_eq!(
        d8_lines("pub fn a(available_parallelism: usize) -> usize {\n    fingerprint(available_parallelism)\n}\n"),
        Vec::<usize>::new()
    );
    assert_eq!(
        d8_lines(
            "pub struct Env {\n    pub available_parallelism: usize,\n}\npub fn a(env: &Env) -> usize {\n    fingerprint(env.available_parallelism)\n}\n"
        ),
        Vec::<usize>::new()
    );
}
