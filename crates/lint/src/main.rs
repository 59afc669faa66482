//! `lint` — run the determinism & panic-surface rules over the workspace.
//!
//! Usage: `cargo run -p eyeorg-lint [-- FLAGS]` (see `--help`).
//!
//! Exits 0 on a clean tree, 1 with diagnostics when anything trips,
//! 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

const HELP: &str = "\
lint — determinism, panic-surface, and taint analysis for the eyeorg workspace

USAGE:
    lint [FLAGS]

FLAGS:
    --root PATH         workspace root to scan (default: auto-detected)
    --format text|json  diagnostic output format on stdout (default: text)
    --json-out PATH     additionally write the JSON report to PATH
    --list-rules        print every rule code with a one-line summary and exit
    --help              print this help and exit

EXIT CODES:
    0   the tree is clean (after waivers)
    1   findings were reported
    2   usage error or I/O failure

Waive a finding inline with `// lint:allow(RULE): reason`, covering the
next line (standalone comment) or its own line (trailing comment); add
`n=K` — `lint:allow(D1, n=2): reason` — when one line carries several
findings of the same rule. Unused or over-counted waivers are errors.
A waiver is the only way to suppress a finding.

D7/D8 call edges resolve a path through `use`, `pub use` and `type`
aliases: a std or prelude head binds to nothing, a workspace path to
its canonical item, a generic head or a method call to every same-named
item (DESIGN.md §3j).
";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = String::from("text");
    let mut json_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage_err("--root needs a path"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = "text".to_owned(),
                Some("json") => format = "json".to_owned(),
                _ => return usage_err("--format needs `text` or `json`"),
            },
            "--json-out" => match args.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => return usage_err("--json-out needs a path"),
            },
            "--list-rules" => {
                for rule in eyeorg_lint::ALL_RULES {
                    println!("{}  {}", rule.code(), rule.summary());
                }
                println!();
                println!(
                    "waiver syntax: `// lint:allow(RULE): reason` or \
                     `// lint:allow(RULE, n=K): reason`"
                );
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            other => {
                return usage_err(&format!("unknown flag {other} (see --help)"));
            }
        }
    }
    // `cargo run` executes from the invoker's directory; when that is
    // not the workspace root (no `crates/` beside us), fall back to the
    // root this crate was built from.
    if !root.join("crates").is_dir() {
        if let Some(manifest) = option_env!("CARGO_MANIFEST_DIR") {
            let candidate = PathBuf::from(manifest).join("../..");
            if candidate.join("crates").is_dir() {
                root = candidate;
            }
        }
    }

    let report = match eyeorg_lint::scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let json = eyeorg_lint::report_to_json(&report);
    if let Some(path) = &json_out {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("lint: failed to create {}: {e}", parent.display());
                    return ExitCode::from(2);
                }
            }
        }
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("lint: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if format == "json" {
        println!("{json}");
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        if report.is_clean() {
            println!(
                "lint: clean — {} files scanned, {} waiver(s) honoured",
                report.files, report.waivers_used
            );
        } else {
            eprintln!(
                "lint: {} finding(s) in {} files scanned ({} waiver(s) honoured)",
                report.diagnostics.len(),
                report.files,
                report.waivers_used
            );
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("lint: {msg}");
    ExitCode::from(2)
}
