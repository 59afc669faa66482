#!/usr/bin/env bash
# Tier-1 verification: build, test, lint, and the timing gates. Run from
# the repository root.
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
# three-process worker split/merge.
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
# results/ so CI uploads it next to the bench artifacts.
step cargo run -q --release -p eyeorg-lint --bin lint -- --json-out results/LINT_report.json
# Seeded-interleaving race exerciser: the campaign pipeline and the
# capture cache's per-key OnceLock cells must produce identical digests
# and counters at 1/2/4 threads under adversarial yield schedules. The
# explicit EYEORG_THREADS pin bypasses the hardware clamp so real
# multi-thread pools run even on 1-core CI boxes.
step env EYEORG_THREADS=4 cargo run -q --release -p eyeorg-lint --bin stress
# The deterministic run report (results/RUN_report.json, uploaded by
# CI); crates/bench/tests/run_report_golden.rs pins its counter section.
step cargo run -q --release -p eyeorg-bench --bin run_report
# Behavioural-model fast-path gate (DESIGN.md §3k): the smoke run exits
# non-zero when the demand-driven model path (trait cursors, hoisted
# seed parents, bulk-seeded sessions, draw-elided responses) diverges
# from the pre-fast-path reference on any scenario checksum, or when
# the measured model-path speedup falls below the smoke regression
# floor. Writes results/BENCH_model.json (uploaded by CI; the full-size
# run is `perf_model` with no flags and gates the 1.8x target).
step cargo run -q --release -p eyeorg-bench --bin perf_model -- --smoke
# Adaptive early stopping at scale (DESIGN.md §3h): exits non-zero
# unless the adaptive 1M-participant campaign simulates >= 3x fewer
# participants than the full run with every UPLT percentile inside the
# declared tolerance (writes results/BENCH_adaptive.json).
step cargo run -q --release -p eyeorg-bench --bin perf_adaptive

if ((${#failed[@]})); then
    echo "verify.sh: ${#failed[@]} step(s) failed:" >&2
    printf '  %s\n' "${failed[@]}" >&2
    exit 1
fi
echo "verify.sh: every step passed"
