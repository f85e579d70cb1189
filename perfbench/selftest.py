#!/usr/bin/env python3
"""The benchmark's own tests. From the root of a checkout:

    python3 perfbench/selftest.py

1. Builds and runs perfbench_test (reproducible request bytes, distinct
   sweep ids across seeds, the mttdl_figure and golden-small workload shapes,
   and the traced replay's byte identity with the service).
2. Smoke-runs every workload declared in BENCHMARK.json, untraced and
   traced, and checks that each run is correct, emits exactly the declared
   metrics with their declared units, and that the traced run's exact counts
   match the workload's documented shape.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py: build helpers and paths)

# Exact per-layer counts of the traced run, per workload.
EXACT_COUNTS = {
    "mttdl_figure": {"storage.trials_per_query": 12000, "sweep.rounds_per_cell": 2,
                     "fleet.attempts_per_query": 0, "service.cache_hit_ratio": 0},
    "archive_fleet": {"storage.trials_per_query": 100000, "sweep.rounds_per_cell": 1,
                      "fleet.attempts_per_query": 2, "service.cache_hit_ratio": 0},
    "frontier_cold": {"frontier.ctmc_evals": 18, "frontier.simulated_evals": 44,
                      "frontier.cache_served": 0, "storage.trials_per_query": 26400,
                      "service.cache_hit_ratio": 0},
    "frontier_warm": {"frontier.ctmc_evals": 18, "frontier.simulated_evals": 44,
                      "frontier.cache_served": 44, "storage.trials_per_query": 0,
                      "service.cache_hit_ratio": 1},
}


def smoke(workload, trace, declared):
    command = [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload",
               workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    name = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{name}: exit {done.returncode}: {done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{name}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{name}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}: {done.stderr[-2000:]}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append(f"{name}: metrics {sorted(metrics)} != declared {sorted(declared)}")
    for metric, unit in declared.items():
        if metric in metrics and metrics[metric].get("unit") != unit:
            errors.append(f"{name}: {metric} unit {metrics[metric].get('unit')} != {unit}")
    if trace:
        for metric, expected in EXACT_COUNTS[workload].items():
            value = metrics.get(metric, {}).get("value")
            if value != expected:
                errors.append(f"{name}: {metric} = {value}, expected {expected}")
    return errors


def main():
    if not run.build(["perfbench", "perfbench_test"]):
        return 1
    if subprocess.run([str(run.BUILD_DIR / "perfbench_test")], cwd=run.BUILD_DIR,
                      check=False).returncode != 0:
        print("selftest: perfbench_test failed", file=sys.stderr)
        return 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in modes.items():
            errors += smoke(workload, trace, declared)
    for error in errors:
        print(f"selftest: {error}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "all checks passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
