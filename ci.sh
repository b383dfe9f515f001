#!/usr/bin/env bash
# Repo gate: build, tests, formatting, lints, static analysis. Run before
# every merge.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline

# Tests: every package in the workspace (a bare `cargo test` at the root of
# this non-virtual workspace would run only the root package's tests).
# Tolerate exactly the failures already present in the growth seed
# (tests/known_seed_failures.txt) and fail on any NEW failure, so "no worse
# than the seed" is machine-checked rather than eyeballed.
test_log=$(mktemp)
if cargo test --workspace -q --offline --no-fail-fast >"$test_log" 2>&1; then
    echo "ci: all tests pass"
else
    grep -E '^[A-Za-z0-9_:]+ --- FAILED$' "$test_log" | sed 's/ --- FAILED//' | sort -u >"$test_log.failed"
    grep -Ev '^\s*(#|$)' tests/known_seed_failures.txt | sort -u >"$test_log.known"
    new_failures=$(comm -23 "$test_log.failed" "$test_log.known")
    fixed=$(comm -13 "$test_log.failed" "$test_log.known")
    if [[ -n "$new_failures" ]]; then
        echo "ci: NEW test failures (not in tests/known_seed_failures.txt):"
        echo "$new_failures"
        tail -n 100 "$test_log"
        exit 1
    fi
    if [[ ! -s "$test_log.failed" ]]; then
        # cargo test failed but no per-test FAILED lines: build error or
        # harness-level failure — never tolerable.
        echo "ci: cargo test failed without per-test failures (build/harness error)"
        tail -n 100 "$test_log"
        exit 1
    fi
    echo "ci: only known seed failures present:"
    sed 's/^/ci:   /' "$test_log.failed"
    if [[ -n "$fixed" ]]; then
        echo "ci: NOTE: these known failures now pass — remove them from tests/known_seed_failures.txt:"
        echo "$fixed"
    fi
fi
rm -f "$test_log" "$test_log.failed" "$test_log.known"

cargo fmt --check
# --workspace: at the root of this non-virtual workspace a bare
# `--all-targets` lints only the root package's targets (and the member
# libraries they build), never a member's tests, benches or own bins.
cargo clippy --offline --workspace --all-targets -- -D warnings

# Rustdoc gate: every intra-doc link must resolve to exactly one item, so a
# deletion cannot leave a dangling [`name`] behind in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Static-analysis gate: the workspace must lint clean under simlint
# (R1–R11 plus the A1–A3 suppression audit, see DESIGN.md "Static analysis
# & determinism rules"). Any unsuppressed finding fails the gate; the JSON
# report is validated against the mptcp-lint-report/v2 schema so downstream
# tooling can trust it. The lint-diff baseline (tests/lint_baseline.txt)
# additionally pins the per-(rule, file) finding counts *including*
# suppressed ones: a new finding — even one someone annotated — fails until
# the baseline is deliberately refreshed (EXPERIMENTS.md "Lint runbook"),
# while findings that disappear only print a refresh reminder.
cargo build --release --offline -p simlint
mkdir -p results
./target/release/simlint --root . --json results/lint_report.json \
    --baseline tests/lint_baseline.txt
./target/release/simlint --validate results/lint_report.json

# Observability gate: a fast traced scenario must produce a non-empty JSONL
# trace and a schema-valid run report. --strict: "no reports found" must
# fail, not vacuously pass.
cargo build --release --offline -p bench
rm -f results/ci_trace.*.jsonl results/repro_run.json
MPTCP_TRACE=results/ci_trace ./target/release/repro_run scenarios/lossy_backup.json
test -s results/ci_trace.custom.seed11.jsonl
./target/release/validate_report --strict results/repro_run.json

# Orchestration gate: run the quick CI manifest sharded across 2 workers,
# then validate the cross-seed sweep report and every per-job run report.
# --strict: an empty run directory must fail, not vacuously pass. The
# sweep embeds per-job trace digests, so this also re-proves that worker
# scheduling cannot leak into results (the orchestra test suite compares
# --jobs 1/4/8 byte-for-byte; here we just need one sharded run to be
# schema-valid end to end).
cargo build --release --offline -p orchestra
rm -rf results/orchestra/ci-gate
./target/release/orchestra --manifest manifests/ci_quick.json \
    --jobs 2 --run-id ci-gate --quiet
./target/release/validate_report --strict \
    results/orchestra/ci-gate results/orchestra/ci-gate/jobs

# Viz gate: rendering is a pure function of the artifact bytes. Render the
# observability gate's pinned-seed trace twice and require byte-identical
# pages; require the page to be self-contained (no external references);
# and render the orchestra run's sweep explorer to prove the end-to-end
# artifact -> page path stays alive. The golden-digest and --jobs identity
# proofs live in cargo test (tests/viz_timeline.rs, crates/viz); this gate
# re-checks the shipped binary on fresh artifacts.
cargo build --release --offline -p viz
./target/release/viz trace results/ci_trace.custom.seed11.jsonl \
    --out results/ci_trace.a.html
./target/release/viz trace results/ci_trace.custom.seed11.jsonl \
    --out results/ci_trace.b.html
cmp results/ci_trace.a.html results/ci_trace.b.html
if grep -qE 'http://|https://|file://|<script' results/ci_trace.a.html; then
    echo "ci: viz page is not self-contained (external reference or script)"
    exit 1
fi
rm -f results/ci_trace.a.html results/ci_trace.b.html
./target/release/viz sweep results/orchestra/ci-gate
test -s results/orchestra/ci-gate/index.html

# Chaos gate: a fixed-budget fuzz campaign (pinned seed, 200 generated
# fault schedules) must finish with ZERO invariant violations on this tree,
# and its mptcp-chaos-report/v1 artifact must validate. The checked-in
# minimal-repro fixtures are replayed by `cargo test` above
# (tests/chaos_repros.rs); this gate searches fresh schedules instead, so
# a regression in failover/recovery behaviour fails CI even before anyone
# writes a test for it.
cargo build --release --offline -p chaos
rm -rf results/chaos/ci-gate
./target/release/chaos campaign --seed 1105 --iterations 200 --jobs 4 \
    --out results/chaos/ci-gate
./target/release/validate_report --strict results/chaos/ci-gate

# Perf-behaviour gate: the tracked perf report (BENCH_perf.json) must stay
# schema-valid, and `perf --check` re-runs its checked scenarios: the
# scenario_b/fattree/flap, k16_perm and flow_check trace digests must match
# the recorded goldens byte-for-byte, and k16_perm's bytes/connection and
# flow_check's bytes/flow must stay within 1.25x of their recorded budgets.
# Digests and allocation sizes are machine-independent, so this catches a
# behaviour change smuggled in as an "optimization", or a memory
# regression, without timing anything.
./target/release/validate_report BENCH_perf.json
./target/release/perf --check BENCH_perf.json

# Flow-backend gate: the flow-level simulator must keep agreeing with the
# packet simulator (scenarios A/B/C and the k=8 FatTree, every headline
# metric within the ±10% tolerance documented in DESIGN.md "Flow-level
# backend"). The cross-validation tests are release-only (#[ignore] in
# debug) because the packet runs take minutes unoptimized.
cargo test --release --offline --test flow_crossval -- --include-ignored

# Benchmark-behaviour gate: the repository benchmark (perfbench/, see
# BENCHMARK.json) runs its self-tests, then a short plain and a short
# traced run of each workload on pinned seed 1. Each run's digest pass
# compares the trace digest and event count with the pin in
# perfbench/src/pins.rs and exits non-zero on any mismatch or failed check,
# so a behaviour change fails here instead of only in a benchmark
# comparison. The plain run steps each simulation with one `run_until`; the
# traced run (--trace 1) steps it in 10 ms (packet) or 5 ms (flow) slices,
# so the event queue's horizon check, `peek_time` and `advance_to` meet
# pending entries of its heaps and delay lanes at every slice boundary, and
# the sliced run must still match the pin.
cargo test --offline --manifest-path perfbench/Cargo.toml
for workload in packet_fattree packet_scenc_faults flow_churn; do
    for trace in 0 1; do
        cargo run --quiet --offline --release --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --trace "$trace" --seconds 0 >/dev/null
    done
done
# Then every pin: `perfbench pin` re-runs all 30 pinned (workload, seed)
# pairs (seeds 1-10) and prints their digests and event counts, which must
# equal perfbench/src/pins.rs tuple for tuple. pins.rs is rustfmt'd over
# several lines per pin and the printout has one line per pin, so both are
# reduced to `workload:"…",seed:N,digest:"…",events:N` tuples first. A
# benchmark comparison runs held-out seeds, which have no pins, so this is
# where a behaviour change on any pinned seed fails.
pin_tuples() {
    tr -d ' \n' <"$1" |
        grep -oE 'workload:"[a-z_]+",seed:[0-9]+,digest:"[0-9a-f]+",events:[0-9]+' | sort
}
pin_log=$(mktemp)
cargo run --quiet --offline --release --manifest-path perfbench/Cargo.toml -- pin >"$pin_log"
if [[ "$(pin_tuples "$pin_log")" != "$(pin_tuples perfbench/src/pins.rs)" ]] ||
    [[ $(pin_tuples perfbench/src/pins.rs | wc -l) -ne 30 ]]; then
    echo "ci: perfbench pin disagrees with perfbench/src/pins.rs (or pins.rs lost a pin):"
    diff <(pin_tuples perfbench/src/pins.rs) <(pin_tuples "$pin_log") || true
    exit 1
fi
rm -f "$pin_log"

echo "ci: all gates passed"
