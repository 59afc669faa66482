#!/usr/bin/env bash
# Tier-1 verification: build, test, lint, stress, the run report and a
# check that the tracked results/ files are up to date.
# Run from the repository root.
#
# Every step runs even when an earlier one fails, so one red step cannot
# hide the others; the script then lists the failed steps and exits
# non-zero if there were any.
set -uo pipefail
cd "$(dirname "$0")/.." || exit 1

failed=()
step() {
    echo "==> $*"
    "$@" || failed+=("$*")
}

step cargo build --release
# The campaign goldens' resume test on its own: in a full run the test
# order decides what the process-global obs registry has already seen
# (which stimuli were captured, which cells were computed), and that
# can hide a test that only passes after another one ran first.
step cargo test -q -p eyeorg-core --test campaign_golden -- --exact resume
# Includes the campaign goldens (crates/core/tests/campaign_golden.rs):
# fixed-seed campaign digests, obs counters and adaptive decisions pinned
# across engines, shard sizes, thread counts, checkpoint resume and a
# three-process worker split/merge; and the 1M-participant scale claims
# (crates/bench/tests/scale_claims.rs): adaptive stopping simulates >= 3x
# fewer participants with every UPLT percentile in tolerance, and the
# digest's retained bytes stay bounded.
step cargo test -q --workspace
# perfbench/ is a Cargo workspace of its own, so the two lines above
# never compile it. Its self-test builds it against the current crates
# and checks its smoke-size outputs against perfbench/fingerprints.txt.
step cargo test --offline --manifest-path perfbench/Cargo.toml
step cargo clippy --workspace --all-targets -- -D warnings
# Doc links must resolve: a link to a deleted or renamed item fails here.
step env RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
    cargo doc --offline --no-deps --workspace
# Determinism/panic-surface/taint static analysis (rules D1-D8,
# DESIGN.md §3e/§3j): exits non-zero with path:line diagnostics on any
# finding not covered by an inline waiver. D7/D8 follow call edges that
# resolve a qualified path through `use`, `pub use` and `type` aliases
# (std and prelude heads bind to nothing); only generic heads and method
# calls bind by name alone. The machine-readable report lands in
# results/ so CI uploads it next to the run report.
step cargo run -q --release -p eyeorg-lint --bin lint -- --json-out results/LINT_report.json
# Seeded-interleaving race exerciser: the campaign pipeline, the folding
# kernel (one-shot timeline and A/B, adaptive) and the capture cache's
# per-key OnceLock cells must produce identical digests and counters at
# 1/2/4 threads under adversarial yield schedules. The
# explicit EYEORG_THREADS pin bypasses the hardware clamp so real
# multi-thread pools run even on 1-core CI boxes.
step env EYEORG_THREADS=4 cargo run -q --release -p eyeorg-lint --bin stress
# The run report (results/RUN_report.json, uploaded by CI). Git ignores
# it, since its timing section changes every run;
# crates/bench/tests/run_report_golden.rs pins its counter section.
step cargo run -q --release -p eyeorg-bench --bin run_report
# The tracked results must be what this tree produces: a change that
# moves results/LINT_report.json without re-recording it fails here.
step git diff --exit-code -- results/

if ((${#failed[@]})); then
    echo "verify.sh: ${#failed[@]} step(s) failed:" >&2
    printf '  %s\n' "${failed[@]}" >&2
    exit 1
fi
echo "verify.sh: every step passed"
