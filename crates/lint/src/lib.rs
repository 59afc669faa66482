//! `eyeorg-lint`: determinism & concurrency static analysis for the
//! Eyeorg workspace.
//!
//! The platform's contract (DESIGN.md §3) is that campaign output and
//! observability counter fingerprints are **byte-identical at any
//! thread count**. `scripts/verify.sh` checks that after the fact by
//! diffing run outputs; this crate enforces it at the source level, so
//! a nondeterminism hazard fails the build instead of surviving until
//! it happens to reproduce on some machine.
//!
//! The analyzer runs in passes (DESIGN.md §3j): a whole-file Rust
//! tokenizer ([`token`]) feeds per-line scrubbed views to the line
//! rules, and a structural pass (`graph`, private) recovers a
//! per-workspace item graph for the reachability rules. Its call edges
//! resolve a qualified path the way the code names it — through `use`
//! items, `pub use` re-exports, `type` aliases and `crate::`/`self::`/
//! `super::`/`Self::` — so `Vec::new` or `std::process::Command::new`
//! binds to nothing; only a generic or otherwise unresolvable head and
//! method calls bind by name alone. Eight rules, each mapped to a way
//! the contract has historically been broken in systems like this:
//!
//! * **D1** — no `HashMap`/`HashSet` in fingerprinted crates (net,
//!   http, browser, video, core, stats, metrics, crowd, workload).
//!   Hash iteration order is seeded per-process; any order that escapes
//!   into output breaks byte-identity. Use `BTreeMap`/`BTreeSet`.
//! * **D2** — no `Instant::now`/`SystemTime` outside `eyeorg-obs`
//!   timing internals and the two timing harnesses, `crates/bench` and
//!   `perfbench/`, whose clock reads are their measurements.
//!   Fingerprinted values must be pure functions of the workload and
//!   its seeds, never of the clock.
//! * **D3** — no `Ordering::*` atomics outside `eyeorg-obs`. Ad-hoc
//!   atomics are exactly where thread-count-dependent behaviour hides;
//!   the few legitimate uses carry an order-independence proof in a
//!   waiver.
//! * **D4** — no `unwrap()`/`expect()` in library (non-test,
//!   non-bench, non-binary) code without a waiver stating the invariant
//!   that rules the panic out.
//! * **D5** — no `thread::spawn`/`thread::scope` outside
//!   `eyeorg-stats::par`. All parallelism goes through the
//!   deterministic index-pinned engine.
//! * **D6** — no non-`total_cmp` float ordering (`partial_cmp`) and no
//!   raw `f32`/`f64` accumulation (`sum::<f64>()`, `fold(0.0, …)`) in
//!   fingerprinted crates outside `crates/stats/src/stream.rs`, the
//!   sanctioned fixed-point module. NaN-order and re-association are
//!   how float results drift across refactors.
//! * **D7** — no panic site (`unwrap`/`expect`, panicking macros,
//!   expression-position indexing, `/`/`%` by a non-literal divisor)
//!   in any fn **reachable** from a `// lint:entrypoint(untrusted)`
//!   marker: the `core::checkpoint` load/merge surface and the
//!   vendored-serde decode path run on bytes from disk and must fail
//!   with typed errors, never a panic.
//! * **D8** — no nondeterminism source (hash-ordered collections,
//!   `available_parallelism` called or named by path, env reads outside
//!   the `EYEORG_*` allowlist, thread identity) in any fn that can
//!   **reach** a digest/fingerprint sink through the call graph.
//!
//! Any finding can be waived inline:
//!
//! ```text
//! // lint:allow(D4): Ecdf::new rejects empty samples, so `sorted` is non-empty
//! let hi = *self.sorted.last().expect("non-empty");
//! ```
//!
//! A waiver on its own comment line covers the **next** line; a waiver
//! in a trailing comment covers its **own** line. A line with several
//! findings of one rule needs a count-aware waiver —
//! `// lint:allow(D1, n=2): reason` — and one comment may carry several
//! waivers for different rules. The reason is mandatory, and a waiver
//! that never (or only partially) suppresses findings is itself an
//! error — stale waivers rot into blanket exemptions otherwise. A
//! waiver is the only way to suppress a finding.
//!
//! The crate stays hermetic: no `syn`, no external dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
pub mod token;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use token::LineView;

/// Crates whose output feeds the campaign / counter fingerprints; D1
/// applies to every source line in these, test code included.
pub const FINGERPRINTED_CRATES: &[&str] =
    &["net", "http", "browser", "video", "core", "stats", "metrics", "crowd", "workload"];

/// The eight determinism & concurrency rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `HashMap`/`HashSet` in fingerprinted crates.
    D1,
    /// No wall-clock reads outside `eyeorg-obs` and the timing harnesses.
    D2,
    /// No `Ordering::*` atomics outside `eyeorg-obs`.
    D3,
    /// No `unwrap()`/`expect()` in library code without a waiver.
    D4,
    /// No `thread::spawn`/`thread::scope` outside `eyeorg-stats::par`.
    D5,
    /// No non-total float ordering / raw float accumulation in
    /// fingerprinted crates outside the stats fixed-point module.
    D6,
    /// No panic site reachable from a `lint:entrypoint(untrusted)` fn.
    D7,
    /// No nondeterminism source reaching a digest/fingerprint sink.
    D8,
}

/// All rules, in reporting order.
pub const ALL_RULES: [Rule; 8] = [
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D4,
    Rule::D5,
    Rule::D6,
    Rule::D7,
    Rule::D8,
];

impl Rule {
    /// The short code used in diagnostics and waivers (`D1`..`D8`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::D6 => "D6",
            Rule::D7 => "D7",
            Rule::D8 => "D8",
        }
    }

    /// Parse a waiver rule name.
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "D4" => Some(Rule::D4),
            "D5" => Some(Rule::D5),
            "D6" => Some(Rule::D6),
            "D7" => Some(Rule::D7),
            "D8" => Some(Rule::D8),
            _ => None,
        }
    }

    /// One-line description for `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D1 => "no HashMap/HashSet in fingerprinted crates (hash order breaks byte-identity)",
            Rule::D2 => "no wall-clock reads outside eyeorg-obs and the crates/bench, perfbench harnesses",
            Rule::D3 => "no raw atomic orderings outside eyeorg-obs",
            Rule::D4 => "no unwrap()/expect() in library code without a written invariant",
            Rule::D5 => "no thread::spawn/scope outside eyeorg-stats::par",
            Rule::D6 => "no partial_cmp / raw float accumulation in fingerprinted crates outside stats::stream",
            Rule::D7 => "no panic site reachable from a `// lint:entrypoint(untrusted)` fn",
            Rule::D8 => "no nondeterminism source reaching a digest/fingerprint sink",
        }
    }

    /// Word-bounded patterns whose presence on a code line trips the
    /// rule. Empty for the graph-pass rules (D7/D8), which are driven
    /// by reachability, not line content.
    fn needles(self) -> &'static [&'static str] {
        match self {
            Rule::D1 => &["HashMap", "HashSet", "hash_map::", "hash_set::"],
            Rule::D2 => &["Instant::now", "SystemTime"],
            Rule::D3 => &[
                "Ordering::Relaxed",
                "Ordering::Acquire",
                "Ordering::Release",
                "Ordering::AcqRel",
                "Ordering::SeqCst",
            ],
            Rule::D4 => &[".unwrap()", ".expect("],
            Rule::D5 => &["thread::spawn", "thread::scope"],
            Rule::D6 => &[
                "partial_cmp",
                "sum::<f64>",
                "sum::<f32>",
                "fold(0.0",
                "fold(0.0_f64",
                "fold(0.0_f32",
                "fold(0.0f64",
                "fold(0.0f32",
            ],
            Rule::D7 | Rule::D8 => &[],
        }
    }

    /// Why a hit is a determinism/concurrency hazard.
    fn message(self) -> &'static str {
        match self {
            Rule::D1 => {
                "HashMap/HashSet in a fingerprinted crate: hash iteration order is \
                 per-process and breaks byte-identical output; use BTreeMap/BTreeSet \
                 or waive with proof that the order never escapes"
            }
            Rule::D2 => {
                "wall-clock read outside eyeorg-obs and the timing harnesses: \
                 fingerprinted values must be pure functions of the workload and its \
                 seeds, never of the clock"
            }
            Rule::D3 => {
                "raw atomic ordering outside eyeorg-obs: ad-hoc atomics are where \
                 thread-count-dependent behaviour hides; route through eyeorg-obs or \
                 waive with an order-independence proof"
            }
            Rule::D4 => {
                "unwrap()/expect() in library code: return Result/Option, or waive \
                 stating the invariant that rules the panic out"
            }
            Rule::D5 => {
                "thread::spawn/scope outside eyeorg-stats::par: all parallelism must \
                 go through the deterministic index-pinned engine"
            }
            Rule::D6 => {
                "non-total float ordering or raw float accumulation in a \
                 fingerprinted crate: NaN-order and re-association drift across \
                 refactors; use f64::total_cmp and the stats::stream fixed-point \
                 accumulators, or waive with proof the value is order-independent"
            }
            Rule::D7 => {
                "panic site reachable from an untrusted entry point: return a typed \
                 error, or waive with the invariant that rules the panic out"
            }
            Rule::D8 => {
                "nondeterminism source can reach a digest/fingerprint sink: \
                 quarantine the source, or waive with proof the value never feeds \
                 fingerprint bytes"
            }
        }
    }
}

/// How a source file is classified for rule applicability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Workspace-relative path, used in diagnostics.
    pub display_path: String,
    /// Crate short name (`net`, `stats`, `serde_json`, `perfbench`, ...
    /// or `root` for the top-level `eyeorg` package).
    pub crate_name: String,
    /// Whether the file lives under a `tests/` directory (integration
    /// tests: D4/D5 do not apply).
    pub in_tests_dir: bool,
    /// Whether the file is a binary entry point or example
    /// (`src/bin/`, `src/main.rs`, `examples/`): not library code, so
    /// D4 does not apply.
    pub is_entrypoint: bool,
    /// Whether this is `crates/stats/src/par.rs`, the one module
    /// allowed to spawn threads (D5 exemption).
    pub is_par_module: bool,
    /// Whether the file is vendored third-party code (`vendor/`).
    /// Line rules D1–D6 do not apply (it is not ours to restyle), but
    /// the graph rules D7/D8 still see it — the decode path lives here.
    pub is_vendor: bool,
    /// Whether this is `crates/stats/src/stream.rs`, the sanctioned
    /// fixed-point accumulator module (D6 exemption).
    pub is_stream_module: bool,
}

impl FileMeta {
    /// Classify a workspace-relative path (`/`-separated).
    pub fn classify(rel_path: &str) -> FileMeta {
        let components: Vec<&str> = rel_path.split('/').collect();
        let crate_name = match components.first() {
            Some(&"crates") | Some(&"vendor") if components.len() > 1 => {
                components[1].to_owned()
            }
            Some(&"perfbench") => "perfbench".to_owned(),
            _ => "root".to_owned(),
        };
        let in_tests_dir = components.contains(&"tests");
        let is_entrypoint = components.iter().any(|c| *c == "bin" || *c == "examples")
            || components.last() == Some(&"main.rs");
        FileMeta {
            display_path: rel_path.to_owned(),
            crate_name,
            in_tests_dir,
            is_entrypoint,
            is_par_module: rel_path == "crates/stats/src/par.rs",
            is_vendor: components.first() == Some(&"vendor"),
            is_stream_module: rel_path == "crates/stats/src/stream.rs",
        }
    }

    /// Whether `rule` applies to a line of this file; `in_test_code` is
    /// true inside `#[cfg(test)]` regions. Only meaningful for the line
    /// rules (D1–D6); D7/D8 findings come from the graph pass, which
    /// does its own filtering.
    fn applies(&self, rule: Rule, in_test_code: bool) -> bool {
        if self.is_vendor {
            return false;
        }
        let test_code = in_test_code || self.in_tests_dir;
        match rule {
            Rule::D1 => FINGERPRINTED_CRATES.contains(&self.crate_name.as_str()),
            Rule::D2 => !matches!(self.crate_name.as_str(), "obs" | "bench" | "perfbench"),
            Rule::D3 => self.crate_name != "obs",
            Rule::D4 => self.crate_name != "bench" && !test_code && !self.is_entrypoint,
            Rule::D5 => !self.is_par_module && !test_code,
            Rule::D6 => {
                FINGERPRINTED_CRATES.contains(&self.crate_name.as_str())
                    && !test_code
                    && !self.is_stream_module
            }
            Rule::D7 | Rule::D8 => false,
        }
    }
}

/// One finding, pointing at a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Diagnostic code: a rule code, `unused-waiver` or `bad-waiver`.
    pub code: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.code, self.message)
    }
}

/// Outcome of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, ordered by (path, line, code).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files: usize,
    /// Number of findings suppressed by inline waivers.
    pub waivers_used: usize,
}

impl Report {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

// --- waivers ---------------------------------------------------------

/// Marker that introduces a waiver inside a `//` comment.
const WAIVER_MARKER: &str = "lint:allow(";

#[derive(Debug)]
struct Waiver {
    rule: Rule,
    declared_line: usize,
    /// Findings this waiver may suppress (`n=K`, default 1).
    n: u32,
    /// Findings it actually suppressed.
    used: u32,
}

/// Parse every waiver out of a comment. Each element is
/// `Ok((rule, n))` or `Err(message)` for a malformed marker; one
/// comment may carry several waivers (e.g. stacked D4 + D7 proofs).
fn parse_waivers(comment: &str) -> Vec<Result<(Rule, u32), String>> {
    let mut starts = Vec::new();
    let mut search = 0;
    while let Some(p) = comment[search..].find(WAIVER_MARKER) {
        starts.push(search + p);
        search += p + WAIVER_MARKER.len();
    }
    let mut out = Vec::new();
    for (k, &s) in starts.iter().enumerate() {
        let seg_end = starts.get(k + 1).copied().unwrap_or(comment.len());
        let rest = &comment[s + WAIVER_MARKER.len()..seg_end];
        out.push(parse_one_waiver(rest));
    }
    out
}

/// Parse the text after one `lint:allow(` marker.
fn parse_one_waiver(rest: &str) -> Result<(Rule, u32), String> {
    let close = match rest.find(')') {
        Some(c) => c,
        None => return Err("malformed waiver: missing `)`".to_owned()),
    };
    let inner = &rest[..close];
    let mut parts = inner.split(',');
    let rule_txt = parts.next().unwrap_or("").trim();
    let rule = match Rule::parse(rule_txt) {
        Some(r) => r,
        None => {
            return Err(format!("unknown rule `{rule_txt}` in waiver (expected D1..D8)"))
        }
    };
    let n = match parts.next() {
        None => 1u32,
        Some(nspec) => {
            let nspec = nspec.trim();
            let count = nspec
                .strip_prefix("n=")
                .and_then(|v| v.trim().parse::<u32>().ok())
                .filter(|&v| v >= 1);
            match count {
                Some(c) => c,
                None => {
                    return Err(format!(
                        "malformed waiver count `{nspec}` (expected `n=<positive integer>`)"
                    ))
                }
            }
        }
    };
    if parts.next().is_some() {
        return Err("malformed waiver: expected `lint:allow(RULE)` or `lint:allow(RULE, n=K)`"
            .to_owned());
    }
    let after = &rest[close + 1..];
    let reason = match after.strip_prefix(':') {
        Some(r) => r.trim(),
        None => return Err("malformed waiver: expected `): <reason>`".to_owned()),
    };
    if reason.is_empty() {
        return Err(format!(
            "waiver for {} has no reason: state the invariant that makes it safe",
            rule.code()
        ));
    }
    Ok((rule, n))
}

// --- per-file analysis -----------------------------------------------

/// Whether `needle` occurs in `hay` bounded by non-identifier chars.
#[cfg(test)]
fn find_word(hay: &str, needle: &str) -> bool {
    count_word(hay, needle) > 0
}

/// Number of word-bounded, non-overlapping occurrences of `needle`.
fn count_word(hay: &str, needle: &str) -> usize {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut count = 0;
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let abs = start + pos;
        let before_ok = !needle.starts_with(ident)
            || !hay[..abs].chars().next_back().is_some_and(ident);
        let after_ok = !needle.ends_with(ident)
            || !hay[abs + needle.len()..].chars().next().is_some_and(ident);
        if before_ok && after_ok {
            count += 1;
        }
        start = abs + needle.len();
    }
    count
}

/// Whether a scrubbed line carries a live `#[cfg(test)]` (and not
/// `#[cfg(not(test))]`), and at which byte offset.
fn cfg_test_pos(code: &str) -> Option<usize> {
    let pos = code.find("cfg(test)")?;
    if code[..pos].ends_with("not(") {
        return None;
    }
    Some(pos)
}

/// Per-line `#[cfg(test)]`-region flags, tracked by brace depth over
/// the scrubbed views. The attribute arms a pending flag; the next `{`
/// opens the region, a `;` first (e.g. `#[cfg(test)] use ...;`)
/// cancels it.
fn test_line_flags(views: &[LineView]) -> Vec<bool> {
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut region: Option<i64> = None;
    views
        .iter()
        .map(|view| {
            let attr_pos = cfg_test_pos(&view.code);
            let mut line_is_test = region.is_some();
            for (byte_pos, c) in view.code.char_indices() {
                if attr_pos == Some(byte_pos) {
                    pending = true;
                }
                match c {
                    '{' => {
                        if pending && region.is_none() {
                            region = Some(depth);
                            pending = false;
                            line_is_test = true;
                        }
                        depth += 1;
                    }
                    '}' => {
                        depth -= 1;
                        if region == Some(depth) {
                            region = None;
                        }
                    }
                    ';' if region.is_none() => {
                        pending = false;
                    }
                    _ => {}
                }
            }
            line_is_test
        })
        .collect()
}

/// One rule finding before waiver resolution. `message` overrides the
/// rule's stock text (graph findings carry a witness call path).
#[derive(Debug)]
struct Finding {
    line: usize,
    rule: Rule,
    message: Option<String>,
}

/// Everything the per-file pass knows about one file; the graph pass
/// appends D7/D8 findings before waivers are resolved.
struct FileAnalysis {
    meta: FileMeta,
    src: String,
    tokens: Vec<token::Token>,
    test_flags: Vec<bool>,
    findings: Vec<Finding>,
    waivers: Vec<Waiver>,
    /// Target line (1-based) → indices into `waivers`.
    covered: BTreeMap<usize, Vec<usize>>,
    /// `bad-waiver` diagnostics.
    bad: Vec<Diagnostic>,
}

/// Tokenize one file, register waivers, and run the line rules D1–D6.
fn analyze_file(meta: FileMeta, src: String) -> FileAnalysis {
    let tokens = token::tokenize(&src);
    let views = token::line_views(&src, &tokens);
    let test_flags = test_line_flags(&views);
    let mut findings = Vec::new();
    let mut waivers: Vec<Waiver> = Vec::new();
    let mut covered: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut bad = Vec::new();

    for (idx, view) in views.iter().enumerate() {
        let line_no = idx + 1;
        // Register waivers before checking this line's rules, so a
        // trailing waiver can cover its own line. Doc comments (`///`,
        // `//!`) are documentation, not directives — a waiver quoted in
        // one must not take effect.
        let plain_comment = view
            .comment
            .as_deref()
            .filter(|c| !c.starts_with('/') && !c.starts_with('!'));
        if let Some(comment) = plain_comment {
            for parsed in parse_waivers(comment) {
                match parsed {
                    Ok((rule, n)) => {
                        let target = if view.code.trim().is_empty() {
                            line_no + 1 // standalone comment: covers the next line
                        } else {
                            line_no // trailing comment: covers its own line
                        };
                        covered.entry(target).or_default().push(waivers.len());
                        waivers.push(Waiver { rule, declared_line: line_no, n, used: 0 });
                    }
                    Err(msg) => bad.push(Diagnostic {
                        path: meta.display_path.clone(),
                        line: line_no,
                        code: "bad-waiver".to_owned(),
                        message: msg,
                    }),
                }
            }
        }

        let line_is_test = test_flags[idx];
        for rule in ALL_RULES {
            let needles = rule.needles();
            if needles.is_empty() || !meta.applies(rule, line_is_test) {
                continue;
            }
            let count: usize = needles.iter().map(|n| count_word(&view.code, n)).sum();
            for _ in 0..count {
                findings.push(Finding { line: line_no, rule, message: None });
            }
        }
    }

    FileAnalysis { meta, src, tokens, test_flags, findings, waivers, covered, bad }
}

/// Resolve waivers against findings and emit this file's diagnostics.
fn finish_file(mut fa: FileAnalysis, report: &mut Report) {
    fa.findings.sort_by(|a, b| (a.line, a.rule.code()).cmp(&(b.line, b.rule.code())));
    let mut diagnostics = fa.bad;
    for finding in fa.findings {
        let waived = fa.covered.get(&finding.line).and_then(|idxs| {
            idxs.iter().copied().find(|&w| {
                fa.waivers[w].rule == finding.rule && fa.waivers[w].used < fa.waivers[w].n
            })
        });
        match waived {
            Some(w) => {
                fa.waivers[w].used += 1;
                report.waivers_used += 1;
            }
            None => diagnostics.push(Diagnostic {
                path: fa.meta.display_path.clone(),
                line: finding.line,
                code: finding.rule.code().to_owned(),
                message: finding
                    .message
                    .unwrap_or_else(|| finding.rule.message().to_owned()),
            }),
        }
    }
    for waiver in &fa.waivers {
        if waiver.used == 0 {
            diagnostics.push(Diagnostic {
                path: fa.meta.display_path.clone(),
                line: waiver.declared_line,
                code: "unused-waiver".to_owned(),
                message: format!(
                    "waiver for {} never suppressed a finding: remove it (stale \
                     waivers rot into blanket exemptions)",
                    waiver.rule.code()
                ),
            });
        } else if waiver.used < waiver.n {
            diagnostics.push(Diagnostic {
                path: fa.meta.display_path.clone(),
                line: waiver.declared_line,
                code: "unused-waiver".to_owned(),
                message: format!(
                    "waiver for {} declares n={} but suppressed only {} finding(s): \
                     tighten the count (stale capacity rots into a blanket exemption)",
                    waiver.rule.code(),
                    waiver.n,
                    waiver.used
                ),
            });
        }
    }
    diagnostics.sort_by(|a, b| (a.line, &a.code).cmp(&(b.line, &b.code)));
    report.diagnostics.extend(diagnostics);
}

/// Run the full multi-pass analysis over a set of classified sources:
/// per-file tokenization + line rules, then the workspace item graph
/// and the taint rules (D7/D8), then waiver resolution.
pub fn analyze_sources(inputs: Vec<(FileMeta, String)>) -> Report {
    let mut fas: Vec<FileAnalysis> =
        inputs.into_iter().map(|(m, s)| analyze_file(m, s)).collect();
    let graph_inputs: Vec<graph::FileInput<'_>> = fas
        .iter()
        .map(|fa| graph::FileInput {
            path: &fa.meta.display_path,
            crate_name: &fa.meta.crate_name,
            src: &fa.src,
            tokens: &fa.tokens,
            test_lines: &fa.test_flags,
            in_tests_dir: fa.meta.in_tests_dir,
            is_entry_file: fa.meta.is_entrypoint,
        })
        .collect();
    let taint = graph::analyze(&graph_inputs);
    drop(graph_inputs);
    for t in taint {
        let rule = if t.code == "D7" { Rule::D7 } else { Rule::D8 };
        fas[t.file].findings.push(Finding { line: t.line, rule, message: Some(t.message) });
    }
    let mut report = Report { files: fas.len(), ..Report::default() };
    for fa in fas {
        finish_file(fa, &mut report);
    }
    report
}

/// Lint one file's source text (all passes, single-file item graph).
pub fn lint_source(meta: &FileMeta, source: &str) -> Report {
    analyze_sources(vec![(meta.clone(), source.to_owned())])
}

// --- JSON report -----------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize a report as deterministic machine-readable JSON (stable
/// key order, diagnostics in report order).
pub fn report_to_json(report: &Report) -> String {
    let mut out = String::from("{");
    out.push_str("\"version\":1");
    out.push_str(&format!(",\"files\":{}", report.files));
    out.push_str(&format!(",\"waivers_used\":{}", report.waivers_used));
    out.push_str(&format!(",\"clean\":{}", report.is_clean()));
    out.push_str(",\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"path\":\"{}\",\"line\":{},\"code\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&d.path),
            d.line,
            json_escape(&d.code),
            json_escape(&d.message)
        ));
    }
    out.push_str("]}");
    out
}

// --- workspace walking -----------------------------------------------

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "results"];

/// Workspace-relative path prefixes excluded from scanning. The lint
/// fixtures intentionally violate every rule, and `serde_derive` is a
/// build-time proc-macro whose generated code is invisible to lexical
/// analysis (the generated decode path is covered where it runs, via
/// the `serde_json`/`serde` items the expansion calls).
const SKIP_PREFIXES: &[&str] = &["crates/lint/tests/fixtures", "vendor/serde_derive"];

/// Collect every `.rs` file under `root` (sorted, workspace-relative).
fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let rel = match path.strip_prefix(root) {
                Ok(r) => r.to_string_lossy().replace('\\', "/"),
                Err(_) => continue,
            };
            if path.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                if SKIP_PREFIXES.iter().any(|p| rel == *p) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push((rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint every Rust source in the workspace rooted at `root`: the
/// configuration the CI gate runs.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let sources = collect_sources(root)?;
    let mut inputs = Vec::with_capacity(sources.len());
    for (rel, path) in sources {
        let text = std::fs::read_to_string(&path)?;
        inputs.push((FileMeta::classify(&rel), text));
    }
    Ok(analyze_sources(inputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(path: &str) -> FileMeta {
        FileMeta::classify(path)
    }

    fn codes(meta: &FileMeta, src: &str) -> Vec<String> {
        lint_source(meta, src).diagnostics.into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn classify_paths() {
        let m = meta("crates/net/src/event.rs");
        assert_eq!(m.crate_name, "net");
        assert!(!m.in_tests_dir && !m.is_entrypoint && !m.is_par_module);
        assert!(meta("crates/stats/src/par.rs").is_par_module);
        assert!(meta("crates/stats/src/stream.rs").is_stream_module);
        assert!(meta("crates/core/tests/determinism.rs").in_tests_dir);
        assert!(meta("crates/bench/src/bin/perf_model.rs").is_entrypoint);
        assert!(meta("crates/lint/src/main.rs").is_entrypoint);
        assert!(meta("examples/quickstart.rs").is_entrypoint);
        assert_eq!(meta("src/lib.rs").crate_name, "root");
        assert_eq!(meta("perfbench/src/trace.rs").crate_name, "perfbench");
        let v = meta("vendor/serde_json/src/lib.rs");
        assert!(v.is_vendor);
        assert_eq!(v.crate_name, "serde_json");
    }

    #[test]
    fn word_boundaries() {
        assert!(find_word("use std::collections::HashMap;", "HashMap"));
        assert!(!find_word("struct MyHashMapLike;", "HashMap"));
        assert!(!find_word("let x = v.unwrap_or(3);", ".unwrap()"));
        assert!(find_word("let x = v.unwrap();", ".unwrap()"));
        assert!(find_word("a.load(Ordering::Relaxed)", "Ordering::Relaxed"));
        assert!(!find_word("cmp::Ordering::Less", "Ordering::Relaxed"));
        assert!(find_word("std::thread::spawn(f)", "thread::spawn"));
    }

    #[test]
    fn occurrences_are_counted_not_collapsed() {
        assert_eq!(count_word("let m: HashMap<K, V> = HashMap::new();", "HashMap"), 2);
        assert_eq!(count_word("x.unwrap(); y.unwrap(); z.unwrap();", ".unwrap()"), 3);
        assert_eq!(count_word("no hits here", "HashMap"), 0);
    }

    #[test]
    fn d1_trips_only_in_fingerprinted_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(codes(&meta("crates/net/src/sim.rs"), src), vec!["D1"]);
        assert!(codes(&meta("crates/obs/src/lib.rs"), src).is_empty());
        assert!(codes(&meta("crates/lint/src/lib.rs"), src).is_empty());
    }

    #[test]
    fn d1_counts_every_occurrence_on_a_line() {
        let src = "let m: HashMap<u32, u32> = HashMap::new();\n";
        assert_eq!(codes(&meta("crates/net/src/sim.rs"), src), vec!["D1", "D1"]);
        // A count-aware waiver covers both…
        let waived = "let m: HashMap<u32, u32> = HashMap::new(); // lint:allow(D1, n=2): test scaffold\n";
        let r = lint_source(&meta("crates/net/src/sim.rs"), waived);
        assert!(r.is_clean(), "diagnostics: {:?}", r.diagnostics);
        assert_eq!(r.waivers_used, 2);
        // …while a plain waiver only covers one and leaves a finding.
        let under = "let m: HashMap<u32, u32> = HashMap::new(); // lint:allow(D1): test scaffold\n";
        let r = lint_source(&meta("crates/net/src/sim.rs"), under);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, "D1");
    }

    #[test]
    fn overdeclared_waiver_count_is_flagged() {
        let src = "let v = x.unwrap(); // lint:allow(D4, n=2): only one call here\n";
        let r = lint_source(&meta("crates/core/src/analysis.rs"), src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, "unused-waiver");
        assert!(r.diagnostics[0].message.contains("n=2"));
    }

    #[test]
    fn multiple_waivers_in_one_comment() {
        let src = "let v = m[k].unwrap(); // lint:allow(D4): k checked above; lint:allow(D1): not a map\n";
        // D1 never fires (no needle), so that waiver is stale; D4 is
        // consumed. Both were parsed from one comment.
        let r = lint_source(&meta("crates/obs/src/util.rs"), src);
        let codes: Vec<&str> = r.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, vec!["unused-waiver"]);
        assert_eq!(r.waivers_used, 1);
    }

    #[test]
    fn d1_covers_the_checkpoint_module() {
        // The checkpoint serializer feeds the digest and counter
        // fingerprints directly: iteration-order nondeterminism there
        // would silently break the byte-identity gates, so its file
        // must stay under D1.
        let src = "use std::collections::HashMap;\n";
        assert_eq!(codes(&meta("crates/core/src/checkpoint.rs"), src), vec!["D1"]);
    }

    #[test]
    fn d2_exempts_obs_and_bench() {
        let src = "let t = Instant::now();\n";
        assert_eq!(codes(&meta("crates/video/src/frame.rs"), src), vec!["D2"]);
        assert!(codes(&meta("crates/obs/src/lib.rs"), src).is_empty());
        assert!(codes(&meta("crates/bench/src/lib.rs"), src).is_empty());
    }

    #[test]
    fn d2_scope_ends_at_the_timing_harnesses() {
        // perfbench's clock reads are its measurements, as bench's are.
        let src = "let t = Instant::now();\n";
        assert!(codes(&meta("perfbench/src/harness.rs"), src).is_empty());
        assert!(codes(&meta("perfbench/src/main.rs"), src).is_empty());
        assert_eq!(codes(&meta("crates/core/src/flat.rs"), src), vec!["D2"]);
        assert_eq!(codes(&meta("src/lib.rs"), src), vec!["D2"]);
    }

    #[test]
    fn d4_exempts_tests_benches_and_entrypoints() {
        let src = "let v = x.unwrap();\nlet w = y.expect(\"set\");\n";
        assert_eq!(codes(&meta("crates/core/src/analysis.rs"), src), vec!["D4", "D4"]);
        assert!(codes(&meta("crates/core/tests/determinism.rs"), src).is_empty());
        assert!(codes(&meta("crates/bench/src/lib.rs"), src).is_empty());
        assert!(codes(&meta("crates/bench/src/bin/run_report.rs"), src).is_empty());
        assert!(codes(&meta("examples/quickstart.rs"), src).is_empty());
    }

    #[test]
    fn d6_trips_on_float_ordering_and_accumulation() {
        let src = "\
let worst = xs.iter().fold(0.0, f64::max);
vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
let total: f64 = xs.iter().sum::<f64>();
";
        let got = codes(&meta("crates/core/src/analysis.rs"), src);
        // Line 2 also trips D4 (.unwrap()); D6 fires on all three lines.
        assert_eq!(got.iter().filter(|c| *c == "D6").count(), 3, "{got:?}");
    }

    #[test]
    fn d6_exempts_stream_module_tests_and_unfingerprinted_crates() {
        let src = "let worst = xs.iter().fold(0.0, f64::max);\n";
        assert_eq!(codes(&meta("crates/stats/src/modes.rs"), src), vec!["D6"]);
        assert!(codes(&meta("crates/stats/src/stream.rs"), src).is_empty());
        assert!(codes(&meta("crates/obs/src/lib.rs"), src).is_empty());
        assert!(codes(&meta("crates/stats/tests/accuracy.rs"), src).is_empty());
        assert!(codes(&meta("crates/bench/src/lib.rs"), src).is_empty());
    }

    #[test]
    fn d7_flags_panic_sites_reachable_from_entrypoints() {
        let src = "\
// lint:entrypoint(untrusted)
pub fn load(bytes: &[u8]) -> u32 {
    decode(bytes)
}

fn decode(bytes: &[u8]) -> u32 {
    bytes[0] as u32
}

fn unrelated(v: Option<u32>) -> u32 {
    v.unwrap()
}
";
        let r = lint_source(&meta("crates/core/src/checkpoint.rs"), src);
        let d7: Vec<&Diagnostic> =
            r.diagnostics.iter().filter(|d| d.code == "D7").collect();
        assert_eq!(d7.len(), 1, "diagnostics: {:?}", r.diagnostics);
        assert_eq!(d7[0].line, 7);
        assert!(d7[0].message.contains("load"), "witness path: {}", d7[0].message);
        // `unrelated` is not reachable from the entry point: D4 only.
        assert!(r.diagnostics.iter().any(|d| d.code == "D4" && d.line == 11));
    }

    #[test]
    fn d7_waiver_suppresses_a_proven_site() {
        let src = "\
// lint:entrypoint(untrusted)
pub fn load(lines: &[u32]) -> u32 {
    // lint:allow(D7): header check above guarantees at least one line
    lines[0]
}
";
        let r = lint_source(&meta("crates/core/src/checkpoint.rs"), src);
        assert!(r.is_clean(), "diagnostics: {:?}", r.diagnostics);
        assert_eq!(r.waivers_used, 1);
    }

    #[test]
    fn d8_flags_source_to_sink_paths() {
        let src = "\
pub fn shard_count() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

// lint:sink(digest)
fn fold_digest(x: u64) -> u64 {
    x
}

pub fn run() -> u64 {
    let n = shard_count();
    fold_digest(n as u64)
}
";
        let r = lint_source(&meta("crates/core/src/engine.rs"), src);
        let d8: Vec<&Diagnostic> =
            r.diagnostics.iter().filter(|d| d.code == "D8").collect();
        // shard_count itself never calls the sink: clean. run() calls
        // both, but contains no source, so the flag lands on… nothing:
        // the taint is function-granular by design. Move the source
        // into run() and it fires.
        assert!(d8.is_empty(), "diagnostics: {:?}", r.diagnostics);
        let src2 = "\
// lint:sink(digest)
fn fold_digest(x: u64) -> u64 {
    x
}

pub fn run() -> u64 {
    let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    fold_digest(n as u64)
}
";
        let r2 = lint_source(&meta("crates/core/src/engine.rs"), src2);
        let d8: Vec<&Diagnostic> =
            r2.diagnostics.iter().filter(|d| d.code == "D8").collect();
        assert_eq!(d8.len(), 1, "diagnostics: {:?}", r2.diagnostics);
        assert_eq!(d8[0].line, 7);
        assert!(d8[0].message.contains("fold_digest"));
    }

    #[test]
    fn d8_respects_the_env_allowlist() {
        let src = "\
fn threads() -> Option<String> {
    std::env::var(\"EYEORG_THREADS\").ok()
}

fn fingerprint_of(x: u64) -> u64 {
    x
}

fn seed() -> u64 {
    let s = std::env::var(\"RANDOM_SEED\").map(|v| v.len() as u64).unwrap_or(0);
    fingerprint_of(s)
}
";
        let r = lint_source(&meta("crates/core/src/engine.rs"), src);
        let d8: Vec<&Diagnostic> =
            r.diagnostics.iter().filter(|d| d.code == "D8").collect();
        assert_eq!(d8.len(), 1, "diagnostics: {:?}", r.diagnostics);
        assert_eq!(d8[0].line, 10);
    }

    #[test]
    fn cfg_test_region_is_exempt_from_d4_but_not_d1() {
        let src = "\
pub fn f() -> u32 { 1 }

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() {
        let v = Some(1).unwrap();
        let _ = v;
    }
}
";
        // D4 inside cfg(test) is fine; the HashMap still trips D1.
        assert_eq!(codes(&meta("crates/net/src/sim.rs"), src), vec!["D1"]);
        // After the test module the exemption must end.
        let src2 = format!("{src}\nfn late() {{ Some(1).unwrap(); }}\n");
        assert_eq!(codes(&meta("crates/net/src/sim.rs"), &src2), vec!["D1", "D4"]);
    }

    #[test]
    fn cfg_not_test_does_not_open_a_region() {
        let src = "\
#[cfg(not(test))]
fn f() {
    let v = Some(1).unwrap();
}
";
        assert_eq!(codes(&meta("crates/net/src/sim.rs"), src), vec!["D4"]);
    }

    #[test]
    fn cfg_test_on_use_item_does_not_latch() {
        let src = "\
#[cfg(test)]
use std::cell::Cell;

fn f() {
    let v = Some(1).unwrap();
}
";
        assert_eq!(codes(&meta("crates/net/src/sim.rs"), src), vec!["D4"]);
    }

    #[test]
    fn standalone_waiver_covers_next_line_and_is_consumed() {
        let src = "\
// lint:allow(D4): the map is populated for every key at construction
let v = m.get(&k).unwrap();
";
        let r = lint_source(&meta("crates/core/src/analysis.rs"), src);
        assert!(r.is_clean(), "diagnostics: {:?}", r.diagnostics);
        assert_eq!(r.waivers_used, 1);
    }

    #[test]
    fn trailing_waiver_covers_its_own_line() {
        let src =
            "let v = m.get(&k).unwrap(); // lint:allow(D4): populated at construction\n";
        let r = lint_source(&meta("crates/core/src/analysis.rs"), src);
        assert!(r.is_clean(), "diagnostics: {:?}", r.diagnostics);
        assert_eq!(r.waivers_used, 1);
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_suppress() {
        let src = "\
// lint:allow(D2): wrong rule entirely
let v = m.get(&k).unwrap();
";
        let r = lint_source(&meta("crates/core/src/analysis.rs"), src);
        let codes: Vec<&str> = r.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, vec!["unused-waiver", "D4"]);
    }

    #[test]
    fn unused_waiver_is_an_error() {
        let src = "// lint:allow(D4): nothing below ever trips\nlet x = 1;\n";
        let r = lint_source(&meta("crates/core/src/analysis.rs"), src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, "unused-waiver");
        assert_eq!(r.diagnostics[0].line, 1);
    }

    #[test]
    fn waiver_without_reason_or_with_bad_rule_is_rejected() {
        let r = lint_source(
            &meta("crates/core/src/analysis.rs"),
            "// lint:allow(D4):\nlet v = x.unwrap();\n",
        );
        let codes: Vec<&str> = r.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, vec!["bad-waiver", "D4"]);

        let r = lint_source(
            &meta("crates/core/src/analysis.rs"),
            "// lint:allow(D9): no such rule\nlet x = 1;\n",
        );
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, "bad-waiver");

        let r = lint_source(
            &meta("crates/core/src/analysis.rs"),
            "// lint:allow(D4, n=0): zero makes no sense\nlet v = x.unwrap();\n",
        );
        let codes: Vec<&str> = r.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, vec!["bad-waiver", "D4"]);
    }

    #[test]
    fn one_waiver_covers_one_line_only() {
        let src = "\
// lint:allow(D4): covers only the next line
let a = x.unwrap();
let b = y.unwrap();
";
        let r = lint_source(&meta("crates/core/src/analysis.rs"), src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].line, 3);
    }

    #[test]
    fn patterns_in_strings_and_comments_do_not_trip() {
        let src = r#"
let msg = "never use Instant::now in fingerprinted code";
// HashMap is spelled out here, and .unwrap() too
/* thread::spawn in a block comment */
let re = r"Ordering::Relaxed";
"#;
        let r = lint_source(&meta("crates/net/src/sim.rs"), src);
        assert!(r.is_clean(), "diagnostics: {:?}", r.diagnostics);
    }

    #[test]
    fn waiver_quoted_in_doc_comment_is_inert() {
        let src = "\
//! Example: `// lint:allow(D4): some reason`
/// And again: // lint:allow(D1): quoted
pub fn f() -> u32 {
    1
}
";
        let r = lint_source(&meta("crates/core/src/analysis.rs"), src);
        assert!(r.is_clean(), "diagnostics: {:?}", r.diagnostics);
    }

    #[test]
    fn d3_and_d5_exemptions() {
        let atomics = "x.store(1, Ordering::SeqCst);\n";
        assert_eq!(codes(&meta("crates/stats/src/par.rs"), atomics), vec!["D3"]);
        assert!(codes(&meta("crates/obs/src/lib.rs"), atomics).is_empty());

        let spawn = "std::thread::scope(|s| { s.spawn(f); });\n";
        assert!(codes(&meta("crates/stats/src/par.rs"), spawn).is_empty());
        assert_eq!(codes(&meta("crates/video/src/frame.rs"), spawn), vec!["D5"]);
        // Test code may spawn threads (concurrency tests do).
        assert!(codes(&meta("crates/obs/tests/racing.rs"), spawn).is_empty());
    }

    #[test]
    fn vendor_is_exempt_from_line_rules_but_not_taint() {
        let src = "let v = x.unwrap();\nuse std::collections::HashMap;\n";
        assert!(codes(&meta("vendor/serde_json/src/lib.rs"), src).is_empty());
        let src2 = "\
// lint:entrypoint(untrusted)
pub fn from_str(bytes: &[u8]) -> u32 {
    bytes[0] as u32
}
";
        let got = codes(&meta("vendor/serde_json/src/lib.rs"), src2);
        assert_eq!(got, vec!["D7"]);
    }

    #[test]
    fn json_report_is_stable_and_escaped() {
        let mut r = Report { files: 3, waivers_used: 2, ..Report::default() };
        r.diagnostics.push(Diagnostic {
            path: "a/b.rs".to_owned(),
            line: 7,
            code: "D1".to_owned(),
            message: "say \"no\"\nplease".to_owned(),
        });
        let json = report_to_json(&r);
        assert_eq!(
            json,
            "{\"version\":1,\"files\":3,\"waivers_used\":2,\"clean\":false,\
             \"diagnostics\":[{\"path\":\"a/b.rs\",\"line\":7,\"code\":\"D1\",\
             \"message\":\"say \\\"no\\\"\\nplease\"}]}"
        );
    }
}
