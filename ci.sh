#!/usr/bin/env bash
# Repo gate: build, tests, formatting, lints and determinism rules. Run
# before every merge.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline

# Tests: every package in the workspace (a bare `cargo test` at the root of
# this non-virtual workspace would run only the root package's tests). Any
# failing test fails the gate; --no-fail-fast reports every failure at once.
cargo test --workspace -q --offline --no-fail-fast

cargo fmt --check
# Lint gate, which also enforces the determinism rules: clippy.toml bans
# wall-clock time, hash-ordered collections, OS entropy and thread starts,
# and the sim crates' roots raise the panic, cast and float-compare lints
# (DESIGN.md "Static analysis & determinism rules"). --workspace: at the
# root of this non-virtual workspace a bare `--all-targets` lints only the
# root package's targets (and the member libraries they build), never a
# member's tests, benches or own bins. The two -W flags make every
# suppression an #[expect] with a reason, and under -D warnings an
# #[expect] that suppresses nothing fails as unfulfilled.
clippy_log=$(mktemp)
cargo clippy --offline --workspace --all-targets -- -D warnings \
    -W clippy::allow_attributes -W clippy::allow_attributes_without_reason 2>&1 |
    tee "$clippy_log"
# A clippy.toml entry whose path resolves to nothing (a typo, or an item
# that was removed) bans nothing, and clippy reports it only as a warning
# that -D warnings does not escalate. Fail on it here.
if grep -q 'clippy\.toml' "$clippy_log"; then
    echo "ci: clippy.toml has an entry that resolves to nothing (see above)"
    exit 1
fi
rm -f "$clippy_log"

# Rustdoc gate: every intra-doc link must resolve to exactly one item, so a
# deletion cannot leave a dangling [`name`] behind in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Observability gate: a fast traced scenario must produce a non-empty JSONL
# trace and a schema-valid run report. --strict: "no reports found" must
# fail, not vacuously pass.
cargo build --release --offline -p bench

# Table gate: the testbed binaries rewrite the 16 tracked Scenario A-C
# tables (Figs. 1, 4, 5, 9-12, 17, Tables I-II, the epsilon family) and the
# FatTree binaries their 6 (Figs. 13-14, Table III, the two robustness
# tables) at quick scale, ~30 s on a 2-vCPU host; the Fig. 7/8 and
# packet-level ablation binaries rewrite their 10 tables at paper scale,
# ~3 s; and the two fluid-solver binaries, which have no scale switch,
# their 2, ~5 s. Any byte of difference from the committed results/ fails
# here, so the tracked tables cannot drift from the code that writes them.
tracked_tables=()
for t in fig1b_scenario_a_throughput fig1c_scenario_a_loss \
    fig9_scenario_a_olia_throughput fig10_scenario_a_olia_loss \
    fig4a_scenario_b_lia fig4b_scenario_b_optimal \
    fig17_probing_rtt100 fig17_probing_rtt25 \
    table1_scenario_b_lia table2_scenario_b_olia \
    fig5b_scenario_c_analytic fig5c_scenario_c_measured fig5d_scenario_c_loss \
    fig11_scenario_c_olia_throughput fig12_scenario_c_olia_loss \
    ablation_epsilon_family \
    fig13a_fattree_aggregate fig13b_fattree_ranked \
    fig14_shortflow_pdf table3_shortflows dc_robustness dc_robustness_faults \
    fig7_8_summary fig7_trace_lia fig7_trace_olia fig8_trace_lia fig8_trace_olia \
    ablation_alpha_responsiveness ablation_path_pruning ablation_rcv_window \
    ablation_red_variants ablation_rtt_compensation \
    theory_convergence theory_fluid_equilibria; do
    tracked_tables+=("results/$t.csv")
done
rm -f "${tracked_tables[@]}" # a table no binary writes shows as deleted
for bin in scenario_a scenario_b scenario_c \
    fig13_fattree fig14_table3_shortflows dc_robustness; do
    REPRO_QUICK=1 "./target/release/$bin" >/dev/null
done
for bin in fig7_8_traces ablation_alpha_responsiveness ablation_path_pruning \
    ablation_rcv_window ablation_red_variants ablation_rtt_compensation \
    theory_convergence theory_fluid; do
    "./target/release/$bin" >/dev/null
done
if ! git diff --exit-code --quiet -- "${tracked_tables[@]}"; then
    echo "ci: the table binaries no longer write the tracked tables:"
    git diff --stat -- "${tracked_tables[@]}"
    exit 1
fi

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
