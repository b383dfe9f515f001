#!/usr/bin/env bash
# Reproduce the paper's sweeps: expand manifests/paper.json into its full
# (scenario × parameter point × seed) grid and shard it across every core
# with the orchestra runner. Exits non-zero if ANY job fails — no more
# silently swallowed bench-bin crashes. Honors REPRO_QUICK=1 for CI-scale
# measurement windows; extra arguments pass straight through to orchestra
# (e.g. --jobs 4, --filter scenario_b).
#
# Results land in results/orchestra/<run-id>/: one mptcp-run-report/v2 per
# job under jobs/, the append-only journal, and the cross-seed sweep.json
# (mptcp-sweep-report/v1). Re-running resumes the existing run directory,
# skipping journaled-done jobs. See EXPERIMENTS.md for the runbook; the
# per-scenario and figure binaries (scenario_a/b/c, fig*, ablation_*, ...)
# remain available via `cargo run --release -p bench --bin <name>` for the
# tracked plot-ready tables under results/.
set -euo pipefail
cd "$(dirname "$0")"

scale_args=()
run_id="paper-full"
if [[ "${REPRO_QUICK:-0}" == "1" ]]; then
    scale_args=(--quick)
    run_id="paper-quick"
fi

cargo build --release --offline -p orchestra

if [[ -e "results/orchestra/$run_id/manifest.json" ]]; then
    exec ./target/release/orchestra --resume "$run_id" "$@"
fi
exec ./target/release/orchestra --manifest manifests/paper.json \
    "${scale_args[@]+"${scale_args[@]}"}" "$@"
