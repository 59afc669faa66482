//! Workspace item graph and the taint rules built on it (D7, D8).
//!
//! A light structural pass over the token stream recovers, per file,
//! the `fn` items (with their module and `impl`/`trait` owner), each
//! module's names (`use` bindings, globs, `type` aliases, declared
//! items), the calls each body makes, the *panic sites* it contains
//! (`.unwrap()`, `.expect(`, panicking macros, expression-position
//! indexing, `/` or `%` by a non-literal divisor), and the
//! *nondeterminism sources* it touches (hash-ordered collections,
//! `available_parallelism` called or named by path, env reads outside
//! the `EYEORG_*` allowlist, thread identity).
//!
//! A qualified call path resolves the way the code names it (DESIGN.md
//! §3j): through the caller module's `use` items, `pub use` re-exports
//! and `type` aliases, with `crate::`/`self::`/`super::`/`Self::`
//! spelled out. A head outside the workspace (`std`, a primitive, a
//! prelude type, a name imported from those) binds to nothing; a
//! workspace path binds to the items at its canonical path, else only
//! to same-named trait default bodies and methods of impls on a generic
//! parameter. A head it cannot resolve (a generic parameter, an opaque
//! glob, a trait path) and every method call bind by name alone, within
//! the caller's crate dependency closure — an over-approximation, the
//! right direction for the two rules that consume the graph. A path
//! passed as an argument without being called (`.map(decode)`) is a
//! call too, but binds only where it resolves to a workspace path: a
//! local's name binds to nothing.
//!
//! * **D7** — no panic site may be *reachable* from a function marked
//!   `// lint:entrypoint(untrusted)` (the checkpoint load/merge surface
//!   and the vendored-serde decode path: code that runs on bytes from
//!   disk).
//! * **D8** — no function containing a nondeterminism source may
//!   *reach* a digest/fingerprint sink (anything in
//!   `crates/core/src/digest.rs`, any fn whose name contains
//!   `fingerprint`, or a fn marked `// lint:sink(digest)`).
//!
//! Both emit ordinary rule findings carrying a witness call path, so
//! waivers (`// lint:allow(D7, n=2): proof`) apply at the flagged line.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::token::{Token, TokenKind};

/// Direct dependencies between workspace crates (short names), mirrored
/// from the crate manifests. Call resolution refuses to bind a call in
/// crate A to an item in crate B unless B is in A's dependency closure
/// — this is what keeps name-only matching from inventing edges such
/// as `obs` code calling `core::checkpoint` methods.
const CRATE_DEPS: &[(&str, &[&str])] = &[
    ("stats", &["serde"]),
    ("obs", &["serde", "serde_json"]),
    ("net", &["obs", "stats", "serde", "serde_json"]),
    ("http", &["obs", "net", "stats"]),
    ("browser", &["obs", "stats", "net", "http", "workload", "serde", "serde_json"]),
    ("video", &["obs", "net", "stats", "browser", "workload"]),
    ("metrics", &["net", "browser", "video", "workload", "stats"]),
    ("crowd", &["net", "video", "metrics", "browser", "workload", "stats", "serde"]),
    ("workload", &["serde", "stats", "serde_json"]),
    (
        "core",
        &[
            "obs", "stats", "net", "http", "workload", "browser", "video", "metrics",
            "crowd", "serde", "serde_json",
        ],
    ),
    (
        "bench",
        &[
            "obs", "net", "http", "core", "stats", "workload", "browser", "video",
            "metrics", "crowd", "serde_json",
        ],
    ),
    ("lint", &["core", "crowd", "stats", "video", "workload", "browser", "obs"]),
    ("serde", &[]),
    ("serde_json", &["serde"]),
];

/// Transitive dependency closure of `krate` (short name), including
/// itself. Unknown crates get `None`: resolution then allows any target
/// (conservative for ad-hoc fixtures, the root package and perfbench).
fn dep_closure(krate: &str) -> Option<Vec<&'static str>> {
    let direct: BTreeMap<&str, &[&str]> = CRATE_DEPS.iter().copied().collect();
    let (root_key, _) = CRATE_DEPS.iter().find(|(k, _)| *k == krate)?;
    let mut seen: Vec<&'static str> = Vec::new();
    let mut stack = vec![*root_key];
    while let Some(k) = stack.pop() {
        if seen.contains(&k) {
            continue;
        }
        seen.push(k);
        for d in direct.get(k).copied().unwrap_or(&[]) {
            stack.push(d);
        }
    }
    seen.sort_unstable();
    Some(seen)
}

/// Primitives and the prelude's types, variants and functions: a path
/// headed by one of these (unless the module shadows it) leaves the
/// workspace. Prelude traits are absent on purpose: `Default::default()`
/// or `From::from(x)` dispatches on a type the lint cannot see, possibly
/// a workspace one, so such a path binds by name alone.
const OUTSIDE_NAMES: &[&str] = &[
    "bool", "char", "str", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64",
    "i128", "isize", "f32", "f64", "Vec", "String", "Box", "Option", "Some", "None", "Result",
    "Ok", "Err", "drop",
];

/// How deep `use` chains, aliases and globs are followed before a path
/// is given up as unresolvable (a cycle, or pathological nesting).
const MAX_DEPTH: u32 = 16;

/// One file handed to the graph pass.
pub struct FileInput<'a> {
    /// Workspace-relative display path.
    pub path: &'a str,
    /// Crate short name from [`crate::FileMeta`].
    pub crate_name: &'a str,
    /// Source text.
    pub src: &'a str,
    /// Token stream of `src`.
    pub tokens: &'a [Token],
    /// Per-line `#[cfg(test)]`-region flags (1-based line - 1).
    pub test_lines: &'a [bool],
    /// Whether the file lives under `tests/`.
    pub in_tests_dir: bool,
    /// Whether the file is a bin/example entry point.
    pub is_entry_file: bool,
}

/// A D7/D8 finding produced by the graph pass, routed through the
/// normal waiver machinery by the caller.
#[derive(Debug)]
pub struct TaintFinding {
    /// Index into the `files` slice given to [`analyze`].
    pub file: usize,
    /// 1-based line of the flagged site.
    pub line: usize,
    /// `"D7"` or `"D8"`.
    pub code: &'static str,
    /// Message with a witness call path.
    pub message: String,
}

/// A call reference inside a fn body.
#[derive(Debug)]
struct Call {
    /// Path segments as written (`Self`, `crate`, `super` kept).
    segs: Vec<String>,
    /// `recv.name(…)`: the receiver's type is unknown.
    method: bool,
    /// A path passed as a value (`.map(decode)`): binds only where it
    /// resolves to a workspace path, so a local's name binds to nothing.
    value: bool,
}

/// A potential panic site inside a fn body.
#[derive(Debug)]
struct PanicSite {
    line: usize,
    what: &'static str,
}

/// A nondeterminism source inside a fn body.
#[derive(Debug)]
struct NdSource {
    line: usize,
    what: String,
}

/// The block a fn item is declared in.
#[derive(Debug, Clone)]
enum Owner {
    /// A free fn.
    Free,
    /// A method of an `impl` block, for the type path as written.
    Type(Vec<String>),
    /// A method or default body of a `trait` block.
    Trait(String),
}

/// One `fn` item recovered from the token stream.
#[derive(Debug)]
struct FnItem {
    /// Module the item is declared in (a key of [`Scopes`]).
    module: Vec<String>,
    owner: Owner,
    name: String,
    /// Canonical path (crate, modules, owner, name); filled in once
    /// every file is parsed, since an owner type may be imported.
    path: Vec<String>,
    /// Bound when a resolved path finds no item of its own: a trait
    /// default body, or a method of an impl on a generic parameter.
    fallback: bool,
    file: usize,
    is_test: bool,
    in_entry_file: bool,
    entrypoint: bool,
    sink: bool,
    calls: Vec<Call>,
    panic_sites: Vec<PanicSite>,
    nd_sources: Vec<NdSource>,
}

/// The names one module declares or brings into scope.
#[derive(Debug, Default)]
struct Scope {
    /// `use` bindings and `type` aliases: local name → path as written.
    names: BTreeMap<String, Vec<String>>,
    /// Items declared here: modules, types, traits, free fns.
    defs: BTreeSet<String>,
    /// Prefixes of glob imports (`use a::b::*`), as written.
    globs: Vec<Vec<String>>,
}

/// Module path → its scope, over the whole file set.
type Scopes = BTreeMap<Vec<String>, Scope>;

/// Reserved words: never a callee or a path segment, except the
/// path keywords below.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "static", "struct", "super", "trait", "true", "type",
    "union", "unsafe", "use", "where", "while", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Keywords that may head or continue a path.
fn is_path_keyword(s: &str) -> bool {
    matches!(s, "crate" | "self" | "super" | "Self")
}

/// Macros whose expansion can panic.
fn is_panic_macro(name: &str) -> bool {
    matches!(
        name,
        "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
            | "assert_ne"
    )
}

/// Module path of a file: its crate root, then the module nesting its
/// location implies. `crates/net/src/tcp/sack.rs` → `[net, tcp, sack]`,
/// `vendor/serde_json/src/lib.rs` → `[serde_json]`. A test, example or
/// `src/bin` file is a crate of its own, rooted at its path (a name no
/// source can spell), so its modules never mix with the library's.
/// Inline `mod` nesting extends this during parsing.
fn module_path(path: &str, crate_name: &str) -> Vec<String> {
    let comps: Vec<&str> = path.split('/').map(|c| c.strip_suffix(".rs").unwrap_or(c)).collect();
    let at = comps.iter().position(|c| matches!(*c, "src" | "tests" | "examples" | "benches"));
    let at = at.unwrap_or(comps.len().saturating_sub(2));
    let (root, rest) = match &comps[at..] {
        ["src", "bin", _, ..] => (comps[..at + 3].join("/"), &comps[at + 3..]),
        ["tests" | "examples" | "benches", _, ..] => (comps[..at + 2].join("/"), &comps[at + 2..]),
        _ => (crate_name.to_owned(), comps.get(at + 1..).unwrap_or(&[])),
    };
    let modules = rest.iter().filter(|c| !c.is_empty() && !matches!(**c, "lib" | "mod" | "main"));
    std::iter::once(root).chain(modules.map(|c| (*c).to_owned())).collect()
}

/// The structural parser: one pass over a file's tokens.
struct Parser<'a, 't> {
    file: usize,
    input: &'a FileInput<'a>,
    scopes: &'t mut Scopes,
    i: usize,
    /// Module the cursor is in.
    module: Vec<String>,
    /// The `impl`/`trait` block the cursor is in.
    owner: Owner,
    fn_stack: Vec<usize>,
    pending_entry: bool,
    pending_sink: bool,
    prev_sig: Option<(TokenKind, &'a str)>,
    fns: Vec<FnItem>,
}

impl<'a, 't> Parser<'a, 't> {
    fn new(file: usize, input: &'a FileInput<'a>, scopes: &'t mut Scopes) -> Parser<'a, 't> {
        Parser {
            file,
            input,
            scopes,
            i: 0,
            module: module_path(input.path, input.crate_name),
            owner: Owner::Free,
            fn_stack: Vec::new(),
            pending_entry: false,
            pending_sink: false,
            prev_sig: None,
            fns: Vec::new(),
        }
    }

    fn toks(&self) -> &'a [Token] {
        self.input.tokens
    }

    fn text(&self, t: &Token) -> &'a str {
        t.text(self.input.src)
    }

    /// The scope of the module the cursor is in.
    fn scope(&mut self) -> &mut Scope {
        self.scopes.entry(self.module.clone()).or_default()
    }

    /// Index of the next significant token at or after `from`.
    fn sig_at(&self, mut from: usize) -> Option<usize> {
        while let Some(t) = self.toks().get(from) {
            match t.kind {
                TokenKind::White | TokenKind::LineComment | TokenKind::BlockComment => {
                    from += 1
                }
                _ => return Some(from),
            }
        }
        None
    }

    /// Peek the `n`th significant token after the cursor (0 = next).
    fn peek_sig(&self, n: usize) -> Option<&'a Token> {
        let mut at = self.i;
        for k in 0..=n {
            at = self.sig_at(at)?;
            if k == n {
                return Some(&self.toks()[at]);
            }
            at += 1;
        }
        None
    }

    /// Whether the `n`th significant token ahead is the punctuation `p`.
    fn peek_punct(&self, n: usize, p: &str) -> bool {
        self.peek_sig(n).is_some_and(|t| t.kind == TokenKind::Punct && self.text(t) == p)
    }

    /// Advance the cursor to the next significant token and return it,
    /// processing marker comments and updating `prev_sig`.
    fn bump(&mut self) -> Option<&'a Token> {
        while let Some(t) = self.toks().get(self.i) {
            self.i += 1;
            match t.kind {
                TokenKind::White | TokenKind::BlockComment => continue,
                TokenKind::LineComment => {
                    self.note_markers(self.text(t));
                    continue;
                }
                _ => {
                    self.prev_sig = Some((t.kind, self.text(t)));
                    return Some(t);
                }
            }
        }
        None
    }

    /// Consume the next token when it is an identifier, returning its text.
    fn bump_ident(&mut self) -> Option<&'a str> {
        if !self.peek_sig(0).is_some_and(|t| t.kind == TokenKind::Ident) {
            return None;
        }
        self.bump().map(|t| self.text(t))
    }

    /// Record `lint:entrypoint(untrusted)` / `lint:sink(digest)` markers
    /// from a `//` comment. Doc comments are documentation: inert.
    fn note_markers(&mut self, comment: &str) {
        let body = &comment[2..];
        if body.starts_with('/') || body.starts_with('!') {
            return;
        }
        if body.contains("lint:entrypoint(untrusted)") {
            self.pending_entry = true;
        }
        if body.contains("lint:sink(digest)") {
            self.pending_sink = true;
        }
    }

    fn clear_markers(&mut self) {
        self.pending_entry = false;
        self.pending_sink = false;
    }

    /// Parse a `{`-delimited region (cursor just past the `{`). Returns
    /// after consuming the matching `}`.
    fn parse_region(&mut self) {
        loop {
            let prev = self.prev_sig;
            let Some(tok) = self.bump() else { return };
            match tok.kind {
                TokenKind::Punct => match self.text(tok) {
                    "{" => {
                        self.clear_markers();
                        self.parse_region();
                    }
                    "}" => {
                        self.clear_markers();
                        return;
                    }
                    ";" => self.clear_markers(),
                    "[" => self.note_indexing(prev, tok.line),
                    "/" | "%" => self.note_division(tok.line),
                    _ => {}
                },
                TokenKind::Ident => self.handle_ident(tok, prev),
                _ => {}
            }
        }
    }

    /// Dispatch on an identifier: item keywords open scopes or declare
    /// names, everything else is expression context (calls, macros,
    /// sources).
    fn handle_ident(&mut self, tok: &'a Token, prev: Option<(TokenKind, &'a str)>) {
        match self.text(tok) {
            "mod" => self.parse_mod(),
            "impl" => self.parse_impl(),
            "trait" => self.parse_trait(),
            "fn" => self.parse_fn(),
            "use" => self.parse_use(),
            "type" if matches!(self.owner, Owner::Free) => self.parse_type_alias(),
            "struct" | "enum" | "union" => {
                if let Some(name) = self.bump_ident() {
                    self.scope().defs.insert(name.to_owned());
                }
            }
            "macro_rules" => {
                // `macro_rules! name { … }`: the body is a balanced
                // token tree; descend so fn items defined by expansion
                // templates (vendored serde) are still recorded.
                let _ = self.bump(); // `!`
                let _ = self.bump(); // name
                if self.peek_punct(0, "{") {
                    let _ = self.bump();
                    self.clear_markers();
                    self.parse_region();
                }
            }
            name if !is_keyword(name) => self.expr_ident(tok, prev, name),
            name @ ("crate" | "self" | "super") if self.peek_punct(0, ":") => {
                self.expr_ident(tok, prev, name)
            }
            _ => {}
        }
    }

    /// `mod name { … }` opens a nested module; `mod name;` declares one
    /// whose body lives in its own file.
    fn parse_mod(&mut self) {
        let Some(name) = self.bump_ident() else { return };
        self.scope().defs.insert(name.to_owned());
        if self.peek_punct(0, "{") {
            let _ = self.bump();
            self.clear_markers();
            self.module.push(name.to_owned());
            let saved = std::mem::replace(&mut self.owner, Owner::Free);
            self.parse_region();
            self.owner = saved;
            self.module.pop();
        }
    }

    /// `use` tree after the keyword, up to its `;`: every leaf binds its
    /// last segment (or its `as` name) in the current module; `*` adds a
    /// glob. Nested groups are tracked by the path length at each `{`.
    fn parse_use(&mut self) {
        let mut path: Vec<String> = Vec::new();
        let mut groups: Vec<usize> = vec![0];
        let mut alias: Option<&str> = None;
        loop {
            let Some(t) = self.bump() else { return };
            let s = self.text(t);
            let top = groups.last().copied().unwrap_or(0);
            match (t.kind, s) {
                (TokenKind::Ident, "as") => alias = self.bump_ident(),
                (TokenKind::Ident, _) => path.push(s.to_owned()),
                (TokenKind::Punct, "*") => {
                    let glob = path.clone();
                    self.scope().globs.push(glob);
                    path.truncate(top);
                }
                (TokenKind::Punct, "{") => groups.push(path.len()),
                (TokenKind::Punct, "," | "}" | ";") => {
                    if path.len() > top {
                        self.bind_use(&path, alias.take());
                    }
                    alias = None;
                    path.truncate(top);
                    if s == "}" {
                        if groups.len() == 1 {
                            // Not this tree's brace: leave it to the region.
                            self.i -= 1;
                            return;
                        }
                        groups.pop();
                        path.truncate(groups.last().copied().unwrap_or(0));
                    }
                    if s == ";" {
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    /// Bind one `use` leaf: `a::b` binds `b`, `a::b::{self}` binds `b`,
    /// `a::b as c` binds `c`, and `as _` binds nothing.
    fn bind_use(&mut self, path: &[String], alias: Option<&str>) {
        let target = match path.split_last() {
            Some((last, parent)) if last == "self" => parent,
            _ => path,
        };
        let Some(last) = target.last() else { return };
        let name = alias.unwrap_or(last);
        if name != "_" {
            let (name, target) = (name.to_owned(), target.to_vec());
            self.scope().names.insert(name, target);
        }
    }

    /// `type Name<…> = a::b::Target<…>;` binds `Name` to the target's
    /// path; an alias of a non-path type (a tuple, a reference, `dyn`)
    /// binds nothing, so calls through it stay unresolved.
    fn parse_type_alias(&mut self) {
        let Some(name) = self.bump_ident() else { return };
        let mut angle = 0i32;
        loop {
            let Some(t) = self.bump() else { return };
            match (t.kind, self.text(t)) {
                (TokenKind::Punct, "<") => angle += 1,
                (TokenKind::Punct, ">") => angle -= 1,
                (TokenKind::Punct, "=") if angle == 0 => break,
                (TokenKind::Punct, ";") => return,
                _ => {}
            }
        }
        let Some(head) = self.bump_ident().filter(|h| !is_keyword(h) || is_path_keyword(h)) else {
            return;
        };
        let (target, _) = self.take_path(head);
        self.scope().names.insert(name.to_owned(), target);
    }

    /// `impl … { … }`: the implemented type — the path ending in the
    /// last angle-depth-0 identifier before `where`/`{` — owns the
    /// block's methods and stands for `Self`.
    fn parse_impl(&mut self) {
        let (mut angle, mut colons, mut last_dash, mut in_where) = (0i32, 0, false, false);
        let mut ty: Vec<String> = Vec::new();
        loop {
            let Some(t) = self.bump() else { return };
            let s = self.text(t);
            match (t.kind, s) {
                (TokenKind::Punct, "<") => angle += 1,
                (TokenKind::Punct, ">") if !last_dash => angle -= 1,
                (TokenKind::Punct, "{") => break,
                (TokenKind::Punct, ";") => return, // e.g. inside macro patterns
                (TokenKind::Ident, "where") => in_where = true,
                (TokenKind::Ident, _)
                    if angle == 0 && !in_where && (!is_keyword(s) || is_path_keyword(s)) =>
                {
                    if colons < 2 {
                        ty.clear();
                    }
                    ty.push(s.to_owned());
                }
                _ => {}
            }
            let punct = t.kind == TokenKind::Punct;
            colons = if punct && s == ":" && angle == 0 { colons + 1 } else { 0 };
            last_dash = punct && s == "-";
        }
        self.clear_markers();
        let owner = if ty.is_empty() { Owner::Free } else { Owner::Type(ty) };
        let saved = std::mem::replace(&mut self.owner, owner);
        self.parse_region();
        self.owner = saved;
    }

    /// `trait Name { … }`: default method bodies are real code; the
    /// trait name qualifies them like an impl type.
    fn parse_trait(&mut self) {
        let Some(name) = self.bump_ident() else { return };
        loop {
            let Some(t) = self.bump() else { return };
            if t.kind == TokenKind::Punct {
                match self.text(t) {
                    "{" => break,
                    ";" => return,
                    _ => {}
                }
            }
        }
        self.clear_markers();
        self.scope().defs.insert(name.to_owned());
        let saved = std::mem::replace(&mut self.owner, Owner::Trait(name.to_owned()));
        self.parse_region();
        self.owner = saved;
    }

    /// `fn name…` — record the item, then scan the signature to the
    /// body `{` (or `;` for a bodiless trait method) and parse the body
    /// attributing calls/sites to this fn.
    fn parse_fn(&mut self) {
        // `fn(u8) -> u8` as a type: not an item.
        if !self.peek_sig(0).is_some_and(|t| t.kind == TokenKind::Ident) {
            return;
        }
        let Some(name_tok) = self.bump() else { return };
        let name = self.text(name_tok).to_owned();
        let line = name_tok.line;
        let is_test = self.input.in_tests_dir
            || self.input.test_lines.get(line - 1).copied().unwrap_or(false);
        let sink = self.pending_sink
            || self.input.path == "crates/core/src/digest.rs"
            || name.contains("fingerprint");
        if matches!(self.owner, Owner::Free) {
            self.scope().defs.insert(name.clone());
        }
        let item = FnItem {
            module: self.module.clone(),
            owner: self.owner.clone(),
            name,
            path: Vec::new(),
            fallback: false,
            file: self.file,
            is_test,
            in_entry_file: self.input.is_entry_file,
            entrypoint: self.pending_entry,
            sink,
            calls: Vec::new(),
            panic_sites: Vec::new(),
            nd_sources: Vec::new(),
        };
        self.clear_markers();
        let idx = self.fns.len();
        self.fns.push(item);
        // Signature: first `{` at paren/bracket depth 0 opens the body;
        // a `;` there means no body.
        let mut paren = 0i32;
        let mut bracket = 0i32;
        loop {
            let Some(t) = self.bump() else { return };
            if t.kind == TokenKind::Punct {
                match self.text(t) {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "{" if paren == 0 && bracket == 0 => break,
                    ";" if paren == 0 && bracket == 0 => return,
                    _ => {}
                }
            }
        }
        self.fn_stack.push(idx);
        self.parse_region();
        self.fn_stack.pop();
    }

    /// The path `first::b::c` whose first segment was just consumed,
    /// turbofish skipped. `false` when a keyword cut it short.
    fn take_path(&mut self, first: &str) -> (Vec<String>, bool) {
        let mut segs = vec![first.to_owned()];
        while self.peek_punct(0, ":") && self.peek_punct(1, ":") {
            let _ = self.bump();
            let _ = self.bump();
            match self.peek_sig(0) {
                Some(t) if t.kind == TokenKind::Ident => {
                    let s = self.text(t);
                    let _ = self.bump();
                    if is_keyword(s) && !is_path_keyword(s) {
                        return (segs, false);
                    }
                    segs.push(s.to_owned());
                }
                Some(t) if t.kind == TokenKind::Punct && self.text(t) == "<" => {
                    // Turbofish `::<T>`: skip to the matching `>`.
                    let _ = self.bump();
                    let (mut depth, mut last_dash) = (1i32, false);
                    while depth > 0 {
                        let Some(t) = self.bump() else { return (segs, false) };
                        let s = self.text(t);
                        match (t.kind, s) {
                            (TokenKind::Punct, "<") => depth += 1,
                            (TokenKind::Punct, ">") if !last_dash => depth -= 1,
                            _ => {}
                        }
                        last_dash = t.kind == TokenKind::Punct && s == "-";
                    }
                }
                _ => break,
            }
        }
        (segs, true)
    }

    /// Expression-position identifier: detect calls, panic macros, and
    /// nondeterminism sources.
    fn expr_ident(&mut self, tok: &'a Token, prev: Option<(TokenKind, &'a str)>, name: &str) {
        let line = tok.line;
        // Macro invocation?
        if self.peek_punct(0, "!") {
            if is_panic_macro(name) {
                self.note_panic(line, "panicking macro");
            }
            let _ = self.bump(); // consume `!` so `![` is not indexing
            return;
        }
        // Path / call detection: collect `a::b::c` and look for `(`.
        let (segs, complete) = self.take_path(name);
        let is_call = complete && self.peek_punct(0, "(");
        // A fn passed by path as an argument (`.map(decode)`) is called
        // by the callee it is passed to.
        let value = complete
            && !is_call
            && matches!(prev, Some((TokenKind::Punct, "(" | ",")))
            && (self.peek_punct(0, ")") || self.peek_punct(0, ","));
        // Sources named anywhere in the path. `available_parallelism`
        // counts only when called or named by path: a local or a field
        // of that name holds a value already read.
        for s in &segs {
            match s.as_str() {
                "HashMap" | "HashSet" | "RandomState" | "DefaultHasher" => {
                    self.note_source(line, format!("hash-ordered `{s}`"))
                }
                "available_parallelism" if is_call || segs.len() > 1 => {
                    self.note_source(line, "`available_parallelism` (machine-dependent)".to_owned())
                }
                "ThreadId" => self.note_source(line, "thread identity".to_owned()),
                _ => {}
            }
        }
        if !is_call && !value {
            return;
        }
        // `..Type::default()` (struct update) follows a `.` but is a path.
        let method = segs.len() == 1 && matches!(prev, Some((TokenKind::Punct, ".")));
        let Some(callee) = segs.last().cloned() else { return };
        if method && matches!(callee.as_str(), "unwrap" | "expect") {
            self.note_panic(line, if callee == "unwrap" { ".unwrap()" } else { ".expect(…)" });
        }
        // Env reads: `env::var("NAME")` outside the EYEORG_* allowlist.
        if segs.len() >= 2
            && segs[segs.len() - 2] == "env"
            && matches!(callee.as_str(), "var" | "var_os" | "vars" | "vars_os")
        {
            let arg_allowed = is_call
                && matches!(callee.as_str(), "var" | "var_os")
                && self.peek_sig(1).is_some_and(|t| {
                    t.kind == TokenKind::Str
                        && self.text(t).trim_matches(|c| c == 'b' || c == '"').starts_with("EYEORG_")
                });
            if !arg_allowed {
                self.note_source(line, format!("env read `env::{callee}`"));
            }
        }
        if segs.len() >= 2 && segs[segs.len() - 2] == "thread" && callee == "current" {
            self.note_source(line, "thread identity (`thread::current`)".to_owned());
        }
        if let Some(f) = self.fn_stack.last().copied() {
            self.fns[f].calls.push(Call { segs, method, value });
        }
    }

    /// A `[` in expression position (previous significant token is a
    /// value-producing ident, `)`, `]` or `?`) is slice/array indexing,
    /// which panics when out of bounds.
    fn note_indexing(&mut self, prev: Option<(TokenKind, &'a str)>, line: usize) {
        let indexing = match prev {
            Some((TokenKind::Ident, s)) => !is_keyword(s),
            Some((TokenKind::Punct, ")" | "]" | "?")) => true,
            _ => false,
        };
        if indexing {
            self.note_panic(line, "slice/array indexing `[…]`");
        }
    }

    /// `/` or `%` with a non-literal divisor can panic (integer divide
    /// by zero / MIN-by-minus-one overflow). A nonzero numeric literal
    /// divisor is statically safe.
    fn note_division(&mut self, line: usize) {
        // `/=` and `%=` compound-assign forms.
        let n = usize::from(self.peek_punct(0, "="));
        let safe = self.peek_sig(n).is_some_and(|t| {
            // Any literal containing a nonzero digit (`2`, `0x1f`,
            // `100.0`) cannot be a zero divisor; `0`, `0x0`, `0.0`
            // stay flagged.
            t.kind == TokenKind::Number
                && self.text(t).chars().any(|c| ('1'..='9').contains(&c))
        });
        if !safe {
            self.note_panic(line, "`/` or `%` with non-literal divisor");
        }
    }

    fn note_panic(&mut self, line: usize, what: &'static str) {
        if let Some(f) = self.fn_stack.last().copied() {
            self.fns[f].panic_sites.push(PanicSite { line, what });
        }
    }

    /// Record a source once per site: one line naming the same source
    /// twice is one finding.
    fn note_source(&mut self, line: usize, what: String) {
        if let Some(f) = self.fn_stack.last().copied() {
            let sources = &mut self.fns[f].nd_sources;
            if !sources.iter().any(|s| s.line == line && s.what == what) {
                sources.push(NdSource { line, what });
            }
        }
    }

    fn run(mut self) -> Vec<FnItem> {
        // Every file declares its module, even one without items.
        self.scope();
        // Top level is an implicit region that ends at EOF, not `}`;
        // parse_region returning on a stray `}` is fine (fixtures).
        loop {
            let before = self.i;
            self.parse_region();
            if self.i >= self.toks().len() || self.i == before {
                break;
            }
        }
        self.fns
    }
}

/// Where a path leads.
#[derive(Debug)]
enum Target {
    /// Outside the workspace: std, a primitive, a prelude type.
    Outside,
    /// A canonical workspace path.
    Path(Vec<String>),
    /// Not resolvable here: a generic parameter, an opaque glob,
    /// dispatch through a trait path.
    Unknown,
}

/// Expands written paths to canonical ones over the module scopes.
struct Resolver<'t> {
    scopes: &'t Scopes,
    /// Crate roots present in the file set.
    crates: BTreeSet<&'t str>,
}

impl Resolver<'_> {
    /// Expand `segs`, as written in `module`, to its target. `globs`
    /// lets the head come from a glob import; a glob's own path may not,
    /// or a module's globs would expand each other forever.
    fn expand(&self, segs: &[String], module: &[String], depth: u32, globs: bool) -> Target {
        let Some((head, rest)) = segs.split_first() else { return Target::Unknown };
        if depth > MAX_DEPTH || module.is_empty() {
            return Target::Unknown;
        }
        let joined = |base: &[String], rest: &[String]| -> Vec<String> {
            base.iter().chain(rest).cloned().collect()
        };
        let path = match head.as_str() {
            "crate" => joined(&module[..1], rest),
            "self" => joined(module, rest),
            "super" => {
                let ups = segs.iter().take_while(|s| *s == "super").count();
                if ups >= module.len() {
                    return Target::Unknown;
                }
                joined(&module[..module.len() - ups], &segs[ups..])
            }
            head => {
                if let Some(t) = self.lookup(module, head, rest, depth, globs) {
                    return t;
                }
                if matches!(head, "std" | "core" | "alloc") {
                    return Target::Outside;
                }
                let krate = match head {
                    "eyeorg" => "root",
                    _ => head.strip_prefix("eyeorg_").unwrap_or(head),
                };
                if self.crates.contains(krate) {
                    joined(&[krate.to_owned()], rest)
                } else if OUTSIDE_NAMES.contains(&head) {
                    return Target::Outside;
                } else {
                    return Target::Unknown;
                }
            }
        };
        self.canon(path, depth)
    }

    /// What `name` means in `module`, followed by `rest`: a `use` or
    /// `type` binding, an item declared there, or a name a glob import
    /// provides. `None` when the module does not bind it.
    fn lookup(
        &self,
        module: &[String],
        name: &str,
        rest: &[String],
        depth: u32,
        globs: bool,
    ) -> Option<Target> {
        let scope = self.scopes.get(module)?;
        if let Some(target) = scope.names.get(name) {
            let segs: Vec<String> = target.iter().chain(rest).cloned().collect();
            return Some(self.expand(&segs, module, depth + 1, true));
        }
        if scope.defs.contains(name) {
            let mut path = module.to_vec();
            path.push(name.to_owned());
            path.extend_from_slice(rest);
            return Some(self.canon(path, depth + 1));
        }
        for glob in scope.globs.iter().filter(|_| globs) {
            match self.expand(glob, module, depth + 1, false) {
                Target::Path(g) => {
                    if let Some(t) = self.lookup(&g, name, rest, depth + 1, true) {
                        return Some(t);
                    }
                }
                Target::Outside => {}
                Target::Unknown => return Some(Target::Unknown),
            }
        }
        None
    }

    /// Rewrite a workspace path through the bindings of the modules it
    /// passes, so a re-exported or aliased name reaches its definition.
    fn canon(&self, path: Vec<String>, depth: u32) -> Target {
        if depth > MAX_DEPTH {
            return Target::Unknown;
        }
        for i in 1..path.len() {
            let Some(scope) = self.scopes.get(&path[..i]) else { continue };
            if scope.defs.contains(&path[i]) {
                continue;
            }
            if let Some(t) = self.lookup(&path[..i], &path[i], &path[i + 1..], depth + 1, true) {
                return t;
            }
        }
        Target::Path(path)
    }

    /// Target of a call made by `caller`.
    fn call_target(&self, caller: &FnItem, call: &Call) -> Target {
        if call.method {
            return Target::Unknown;
        }
        match (call.segs.first().map(String::as_str), &caller.owner) {
            (Some("Self"), Owner::Type(ty)) => {
                let segs: Vec<String> = ty.iter().chain(&call.segs[1..]).cloned().collect();
                self.expand(&segs, &caller.module, 0, true)
            }
            (Some("Self"), _) => Target::Unknown,
            _ => self.expand(&call.segs, &caller.module, 0, true),
        }
    }
}

/// Run the structural pass + taint rules over a file set. Returns
/// findings sorted by (file, line, code).
pub fn analyze(files: &[FileInput<'_>]) -> Vec<TaintFinding> {
    let mut scopes = Scopes::new();
    let mut fns: Vec<FnItem> = Vec::new();
    for (idx, input) in files.iter().enumerate() {
        fns.extend(Parser::new(idx, input, &mut scopes).run());
    }
    let resolver = Resolver {
        crates: scopes.keys().filter_map(|m| m.first()).map(String::as_str).collect(),
        scopes: &scopes,
    };
    // Canonical item paths: an impl's type may be imported or aliased.
    for f in &mut fns {
        let mut path = f.module.clone();
        match &f.owner {
            Owner::Free => {}
            Owner::Trait(t) => {
                path.push(t.clone());
                f.fallback = true;
            }
            Owner::Type(ty) => match resolver.expand(ty, &f.module, 0, true) {
                Target::Path(p) => path = p,
                t => {
                    path.extend(ty.last().cloned());
                    f.fallback = matches!(t, Target::Unknown);
                }
            },
        }
        path.push(f.name.clone());
        f.path = path;
    }
    // Name index: last path segment → item indices (insertion order is
    // file order, which is sorted by the caller — deterministic).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(&f.name).or_default().push(i);
    }
    let closures: Vec<Option<Vec<&'static str>>> =
        files.iter().map(|f| dep_closure(f.crate_name)).collect();

    // Same-named items the caller may bind to: its own file, or another
    // file's non-test library item in its crate's dependency closure.
    let candidates = |caller: &FnItem, name: &str| -> Vec<usize> {
        let Some(cands) = by_name.get(name) else { return Vec::new() };
        cands
            .iter()
            .copied()
            .filter(|&t| {
                let (tf, tc) = (&fns[t], files[fns[t].file].crate_name);
                tf.file == caller.file
                    || !(tf.is_test || tf.in_entry_file)
                        && closures[caller.file].as_ref().is_none_or(|cl| {
                            cl.contains(&tc) || tc == files[caller.file].crate_name
                        })
            })
            .collect()
    };
    let resolve = |caller: &FnItem, call: &Call| -> Vec<usize> {
        match resolver.call_target(caller, call) {
            Target::Outside => Vec::new(),
            Target::Unknown if call.value => Vec::new(),
            Target::Unknown => call.segs.last().map_or(Vec::new(), |n| candidates(caller, n)),
            Target::Path(want) => {
                let cands = want.last().map_or(Vec::new(), |n| candidates(caller, n));
                let exact = |t: &usize| fns[*t].path == want;
                // A trait's own method: the call dispatches on a type the
                // lint cannot see.
                if cands.iter().any(|t| exact(t) && matches!(fns[*t].owner, Owner::Trait(_))) {
                    return cands;
                }
                let found = cands.iter().any(exact);
                cands
                    .into_iter()
                    .filter(|t| if found { exact(t) } else { fns[*t].fallback })
                    .collect()
            }
        }
    };
    let mut edges: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
    for f in &fns {
        let mut out: Vec<usize> = f.calls.iter().flat_map(|c| resolve(f, c)).collect();
        out.sort_unstable();
        out.dedup();
        edges.push(out);
    }

    let qual = |i: usize| fns[i].path.join("::");
    // Witness path from a BFS parent chain, entry first.
    let chain = |parent: &[Option<usize>], mut at: usize| -> String {
        let mut segs = vec![qual(at)];
        while let Some(p) = parent[at] {
            segs.push(qual(p));
            at = p;
            if segs.len() > 8 {
                segs.push("…".to_owned());
                break;
            }
        }
        segs.reverse();
        segs.join(" → ")
    };

    // BFS from `starts`, stopping at the first fn `stop` accepts: the
    // parent chain (for witnesses), the reached set, and the stop hit.
    let bfs = |starts: &[usize], stop: &dyn Fn(usize) -> bool| {
        let mut parent: Vec<Option<usize>> = vec![None; fns.len()];
        let mut reached = vec![false; fns.len()];
        let mut queue: VecDeque<usize> = starts.iter().copied().collect();
        starts.iter().for_each(|&s| reached[s] = true);
        let mut hit = starts.iter().copied().find(|&s| stop(s));
        while let (None, Some(f)) = (hit, queue.pop_front()) {
            for &t in &edges[f] {
                if !reached[t] {
                    reached[t] = true;
                    parent[t] = Some(f);
                    queue.push_back(t);
                    if stop(t) {
                        hit = Some(t);
                        break;
                    }
                }
            }
        }
        (parent, reached, hit)
    };

    let mut findings = Vec::new();

    // D7: every panic site reachable from a `lint:entrypoint(untrusted)`
    // fn is a finding.
    let entries: Vec<usize> = (0..fns.len()).filter(|&i| fns[i].entrypoint).collect();
    let (parent, reached, _) = bfs(&entries, &|_| false);
    for i in (0..fns.len()).filter(|&i| reached[i]) {
        for site in &fns[i].panic_sites {
            findings.push(TaintFinding {
                file: fns[i].file,
                line: site.line,
                code: "D7",
                message: format!(
                    "{} in `{}` is reachable from untrusted entry point ({}): \
                     code on the checkpoint/decode path must return typed errors, \
                     or waive with the invariant that rules the panic out",
                    site.what,
                    qual(i),
                    chain(&parent, i),
                ),
            });
        }
    }

    // D8: a fn containing a nondeterminism source that reaches any
    // digest/fingerprint sink flags each source line.
    for i in 0..fns.len() {
        if fns[i].nd_sources.is_empty() || fns[i].is_test {
            continue;
        }
        let (parent, _, hit) = bfs(&[i], &|t| fns[t].sink);
        let Some(s) = hit else { continue };
        for src in &fns[i].nd_sources {
            findings.push(TaintFinding {
                file: fns[i].file,
                line: src.line,
                code: "D8",
                message: format!(
                    "nondeterminism source ({}) in `{}` can reach digest/fingerprint \
                     sink `{}` ({}): quarantine the source or waive with proof the \
                     value never feeds fingerprint bytes",
                    src.what,
                    qual(i),
                    qual(s),
                    chain(&parent, s),
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.file, a.line, a.code).cmp(&(b.file, b.line, b.code)));
    findings
}
