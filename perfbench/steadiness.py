"""Run each workload ten times and report how steady every metric is.

Usage::

    python3 perfbench/steadiness.py

Every workload of BENCHMARK.json runs ten times for ``run_seconds``, with
seeds 1–10, each run in a process of its own.  For every end-to-end metric
the report gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread — the interquartile
distance over the median — against the metric's bound, and marks a spread
above a third of the bound.  Each run's host probe before and after its
pass is listed, so a slow host shows apart from a slow change.  Two traced
runs per workload follow; each lists the problems ``run.py`` found, among
them any exact count that differs from the first traced run of the same
code.  The exit code is 1 when any run was not correct.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import benchmark_spec, run_workload  # noqa: E402

RUNS = 10
TRACED_SEEDS = (1001, 1002)


def spread(values: List[float]) -> Dict[str, float]:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = benchmark_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, RUNS + 1):
            run = run_workload(workload, seed, seconds, 0)
            runs.append(run)
            rec, res = run["record"], run["result"]
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"probe={rec['probe_before_ms']:.1f}/{rec['probe_after_ms']:.1f} ms "
                  f"steal={rec['steal_s']:.2f} s pass={rec['pass_s']:.1f} s "
                  f"windows={len(rec['windows'])} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
            if not res["correct"]:
                status = 1
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<12} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
        for name, bound in bounds.items():
            s = spread([r["result"]["metrics"][name]["value"] for r in runs])
            flag = "" if s["spread"] <= bound / 3 else ("  > bound/3" if s["spread"] <= bound else "  > BOUND")
            print(f"  {name:<12} {s['median']:>11.4f} {s['q1']:>11.4f} {s['q3']:>11.4f} "
                  f"{s['spread']:>7.1%} {bound:>6.0%}{flag}")
        for seed in TRACED_SEEDS:
            run = run_workload(workload, seed, seconds, 1)
            print(f"  traced seed={seed} correct={run['result']['correct']} "
                  f"overhead={run['record']['per_layer'].get('trace.overhead_pct', float('nan')):.1f}%")
            for problem in run["record"]["problems"]:
                print(f"    {problem}")
            if not run["result"]["correct"]:
                status = 1
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
