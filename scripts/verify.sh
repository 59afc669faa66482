#!/usr/bin/env bash
# Tier-1 verification: build, test, lint, and the determinism-checking
# perf harness. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# All scratch fingerprint/checkpoint files are cleaned by one EXIT trap
# (they used to leak whenever a `cmp` gate tripped before the per-block
# `rm`). results/RUN_report.json, results/LIVE_smoke.jsonl, and the
# BENCH_*.json measurements are artifacts and stay.
trap 'rm -f results/.RUN_fp_* results/.SCALE_fp_* results/.ADAPT_fp_* \
    results/.CKPT_fp_* results/.ckpt_w*.jsonl' EXIT

cargo build --release
cargo test -q --workspace
# perfbench/ is a Cargo workspace of its own, so the two lines above
# never compile it. Its self-test builds it against the current crates
# and checks its smoke-size outputs against perfbench/fingerprints.txt.
cargo test --offline --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
# Determinism/panic-surface/taint static analysis (rules D1-D8,
# DESIGN.md §3e/§3j): exits non-zero with path:line diagnostics on any
# finding not covered by an inline waiver or the checked-in D6 baseline
# (crates/lint/lint-baseline.txt). The machine-readable report lands in
# results/ so CI uploads it next to the bench artifacts.
cargo run -q --release -p eyeorg-lint --bin lint -- --json-out results/LINT_report.json
# Seeded-interleaving race exerciser: the campaign pipeline and the
# capture cache's per-key OnceLock cells must produce identical digests
# and counters at 1/2/4 threads under adversarial yield schedules. The
# explicit EYEORG_THREADS pin bypasses the hardware clamp so real
# multi-thread pools run even on 1-core CI boxes.
EYEORG_THREADS=4 cargo run -q --release -p eyeorg-lint --bin stress
# Times the pipeline at 1/2/N threads and exits non-zero when any
# thread count produces a campaign that differs from the 1-thread run.
cargo run -q --release -p eyeorg-bench --bin perf_pipeline
# Times the single-thread hot paths (batched TCP simulation, COW frame
# timelines, incremental curves) against their in-process reference
# implementations and exits non-zero on any output divergence.
cargo run -q --release -p eyeorg-bench --bin perf_hotpath -- --smoke
# The observability layer's determinism contract: the counter section of
# the run report must be byte-identical at 1 thread, 2 threads, and the
# hardware default. The canonical results/RUN_report.json comes from the
# final (auto-threaded) run.
EYEORG_THREADS=1 cargo run -q --release -p eyeorg-bench --bin run_report -- \
    --out results/RUN_report.json --fingerprint-out results/.RUN_fp_1
EYEORG_THREADS=2 cargo run -q --release -p eyeorg-bench --bin run_report -- \
    --out results/RUN_report.json --fingerprint-out results/.RUN_fp_2
cargo run -q --release -p eyeorg-bench --bin run_report -- \
    --out results/RUN_report.json --fingerprint-out results/.RUN_fp_auto
cmp results/.RUN_fp_1 results/.RUN_fp_2
cmp results/.RUN_fp_1 results/.RUN_fp_auto
# Campaign-engine divergence gate: the smoke run exits non-zero when the
# streaming timeline reference (any shard size) or the flat kernel (any
# shard size x thread knob) produces a digest or counter fingerprint
# that differs from the materializing engine, and the written
# fingerprints — streaming and flat, digests and counters — must be
# byte-identical at 1 thread, 2 threads, and the hardware default. (The
# full 1M-participant measurement is `perf_scale` with no flags; it
# writes results/BENCH_scale.json with the flat-vs-streaming floor.)
EYEORG_THREADS=1 cargo run -q --release -p eyeorg-bench --bin perf_scale -- \
    --smoke --fingerprint-out results/.SCALE_fp_1
EYEORG_THREADS=2 cargo run -q --release -p eyeorg-bench --bin perf_scale -- \
    --smoke --fingerprint-out results/.SCALE_fp_2
cargo run -q --release -p eyeorg-bench --bin perf_scale -- \
    --smoke --fingerprint-out results/.SCALE_fp_auto
cmp results/.SCALE_fp_1 results/.SCALE_fp_2
cmp results/.SCALE_fp_1 results/.SCALE_fp_auto
# Behavioural-model fast-path gate (DESIGN.md §3k): the smoke run exits
# non-zero when the demand-driven model path (trait cursors, hoisted
# seed parents, bulk-seeded sessions, draw-elided responses) diverges
# from the pre-fast-path reference on any scenario checksum, or when
# the measured model-path speedup falls below the smoke regression
# floor. Writes results/BENCH_model.json (uploaded by CI; the full-size
# run is `perf_model` with no flags and gates the 1.8x target).
cargo run -q --release -p eyeorg-bench --bin perf_model -- --smoke
# Adaptive early-stopping divergence gate (DESIGN.md §3h): the smoke run
# exits non-zero when an inactive rule (epsilon = 0) differs from the
# streaming timeline reference in digest or counter fingerprint, or when
# an active rule's decision sequence / digest / counters vary across
# shard sizes, thread knobs, or chaos seeds — and the written
# fingerprints must be byte-identical at 1 thread, 2 threads, and the
# hardware default. The full run then measures the 1M-participant
# campaign and exits non-zero unless the adaptive run simulates >= 3x
# fewer participants with every UPLT percentile inside the declared
# tolerance (writes results/BENCH_adaptive.json).
EYEORG_THREADS=1 cargo run -q --release -p eyeorg-bench --bin perf_adaptive -- \
    --smoke --fingerprint-out results/.ADAPT_fp_1
EYEORG_THREADS=2 cargo run -q --release -p eyeorg-bench --bin perf_adaptive -- \
    --smoke --fingerprint-out results/.ADAPT_fp_2
cargo run -q --release -p eyeorg-bench --bin perf_adaptive -- \
    --smoke --fingerprint-out results/.ADAPT_fp_auto
cmp results/.ADAPT_fp_1 results/.ADAPT_fp_2
cmp results/.ADAPT_fp_1 results/.ADAPT_fp_auto
cargo run -q --release -p eyeorg-bench --bin perf_adaptive
# Checkpoint/resume gate (DESIGN.md §3i): the smoke run exits non-zero
# when an interrupt → save → load → resume run (plain or adaptive, A/B
# included) differs from the uninterrupted run in digest,
# decision, or counter fingerprint, or when the live JSONL stream's
# final line differs from the end-of-run digest read-out. Fingerprints
# must be byte-identical at 1 thread, 2 threads, and the hardware
# default; results/LIVE_smoke.jsonl is the live-analytics artifact.
EYEORG_THREADS=1 cargo run -q --release -p eyeorg-bench --bin merge_digests -- \
    --smoke --fingerprint-out results/.CKPT_fp_1
EYEORG_THREADS=2 cargo run -q --release -p eyeorg-bench --bin merge_digests -- \
    --smoke --fingerprint-out results/.CKPT_fp_2
cargo run -q --release -p eyeorg-bench --bin merge_digests -- \
    --smoke --fingerprint-out results/.CKPT_fp_auto --live-out results/LIVE_smoke.jsonl
cmp results/.CKPT_fp_1 results/.CKPT_fp_2
cmp results/.CKPT_fp_1 results/.CKPT_fp_auto
# Multi-process split/merge gate: three real child processes each run a
# disjoint slice of the same campaign at different thread counts and
# write checkpoint files; merging them must reproduce the single-process
# digest AND counter fingerprints byte for byte.
cargo run -q --release -p eyeorg-bench --bin merge_digests -- \
    --worker 0 150 --out results/.ckpt_w1.jsonl &
EYEORG_THREADS=1 cargo run -q --release -p eyeorg-bench --bin merge_digests -- \
    --worker 150 300 --out results/.ckpt_w2.jsonl &
EYEORG_THREADS=2 cargo run -q --release -p eyeorg-bench --bin merge_digests -- \
    --worker 300 400 --out results/.ckpt_w3.jsonl &
wait
cargo run -q --release -p eyeorg-bench --bin merge_digests -- \
    --merge results/.CKPT_fp_merged \
    results/.ckpt_w1.jsonl results/.ckpt_w2.jsonl results/.ckpt_w3.jsonl
head -2 results/.CKPT_fp_auto > results/.CKPT_fp_single
cmp results/.CKPT_fp_merged results/.CKPT_fp_single
echo "verify: OK"
