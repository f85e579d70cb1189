#!/usr/bin/env bash
# Runs every example and figure bench whose stdout is deterministic (fixed
# seeds, no wall times) and writes each program's stdout to
# <out_dir>/<program>.txt, plus two frontier_plan searches: the pinned
# golden-small search and the default catalog space (all CTMC), both as
# canonical JSON. Exits non-zero if any program exits non-zero.
#
# Usage: scripts/run_figure_programs.sh <build_dir> <out_dir>
#
# Build the programs first:
#   cmake --build <build_dir> --target bench_all examples frontier_plan
#
# Two trees that should describe the same systems (a refactor that deletes a
# duplicate path, say) must produce byte-identical output directories:
#   diff -r base_out head_out
#
# bench_sweep_perf prints wall times, so its stdout is not captured; its
# batch-vs-sequential cross-check line must still read "yes".

set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build_dir> <out_dir>" >&2
  exit 2
fi

build_dir=$(cd "$1" && pwd)
mkdir -p "$2"
out_dir=$(cd "$2" && pwd)

programs=(
  quickstart
  scrub_scheduler
  tape_vs_disk
  independence_study
  threat_model_explorer
  archive_planner
  bench_fig1_fault_timelines
  bench_fig2_double_fault_matrix
  bench_scrubbing_effect
  bench_model_validation
  bench_negligent_latent
  bench_independence
  bench_correlation_sweep
  bench_replication_vs_correlation
  bench_mv_ml_tradeoff
  bench_erasure_vs_replication
  bench_scrub_phase_ablation
  bench_batch_diversity
  bench_audit_strategies
  bench_drive_economics
  bench_strategy_elasticities
  bench_millennial_archive
)

# Some benches write side files (BENCH_*.json) into the working directory;
# keep those out of the compared output.
work_dir=$(mktemp -d)
trap 'rm -rf "$work_dir"' EXIT
cd "$work_dir"

status=0
# run <output name> <program> [args...]
run() {
  local name=$1
  shift
  if ! "$build_dir/$1" "${@:2}" > "$out_dir/$name.txt"; then
    echo "error: $name exited non-zero" >&2
    status=1
  fi
}
for program in "${programs[@]}"; do
  run "$program" "$program"
done
run frontier_plan_golden_small frontier_plan --golden-small --format=json
run frontier_plan_catalog frontier_plan --format=json

if ! "$build_dir/bench_sweep_perf" > sweep_perf.txt; then
  echo "error: bench_sweep_perf exited non-zero" >&2
  status=1
fi
if ! grep -q 'bit-identical.*: yes' sweep_perf.txt ||
    grep -q 'bit-identical.*: no' sweep_perf.txt; then
  echo "error: bench_sweep_perf batch results are not bit-identical" >&2
  status=1
fi

exit "$status"
