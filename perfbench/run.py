"""Run one workload of the benchmark and print its metrics.

Usage::

    python3 perfbench/run.py --workload hot|cold|sweep|all --seed N \\
        --seconds S --trace 0|1 [--quick]

With ``--trace 0`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` it carries every per-layer metric
instead.  The line before it is the run record (host, versions, probes),
which is also appended to ``perfbench/.out/runs.jsonl``.  ``--workload
all`` runs the three workloads in turn, each in a process of its own, and
prints one result line each, tagged with its workload.

A traced run needs an untraced median of the same code to report its
overhead; when the run log has none, it makes one untraced run first, in
a process of its own.
``--quick`` starts one server in ``cold``'s set-up and allows a single
round, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH,
    OUT,
    SourceMissing,
    benchmark_spec,
    commit,
    log_run,
    logged_runs,
    require_source,
    run_workload,
    scrub_repro_env,
    source_digest,
    stop_resource_tracker,
)

WORKLOADS = ("hot", "cold", "sweep")


def _host_metrics(ctx) -> Dict[str, float]:
    record = ctx.record
    return {
        "host.probe_ms": (record["probe_before_ms"] + record["probe_after_ms"]) / 2,
        "host.steal_s": record["steal_s"],
        "host.server_cpu_s": ctx.server_cpu_s,
        "host.client_cpu_s": record["client_cpu_s"],
    }


def run_once(args: argparse.Namespace, trace: bool, pinned: Dict[str, Any],
             source: str, unset: List[str]) -> Dict[str, Any]:
    import numpy

    import layers
    import workloads
    from spans import Recorder

    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    ctx = workloads.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=trace, pinned=pinned, quick=args.quick, workdir=workdir,
    )
    if trace and args.workload == "sweep":
        ctx.recorder = Recorder()
    runner = {"hot": workloads.run_hot, "cold": workloads.run_cold,
              "sweep": workloads.run_sweep}[args.workload]
    try:
        runner(ctx)
    finally:
        ctx.close()
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)

    problems: List[str] = list(ctx.failures)
    completed = len(ctx.samples)
    end_to_end = {
        "setup_s": statistics.median(ctx.setup_times),
        **ctx.end_to_end(),
        "peak_rss_mb": ctx.peak_rss_kb / 1024,
    }
    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "quick": args.quick, "commit": commit(), "source": source,
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "repro_env_unset": not unset,
        "repro_env_found": unset, "pass_s": ctx.pass_s, "windows": ctx.windows,
        "completed": completed, "setup_times": ctx.setup_times,
        "server_cpu_s": ctx.server_cpu_s, "end_to_end": end_to_end,
        "query_ms": ctx.query_medians(),
        "time": time.time(),
    }
    record.update({k: v for k, v in ctx.record.items() if k != "forced"})

    metrics: Dict[str, float] = {}
    if trace:
        if args.workload == "sweep":
            per_layer, exact, trouble = layers.sweep_layers(ctx, ctx.recorder.spans)
        else:
            per_layer, exact, trouble = layers.service_layers(ctx)
        problems += trouble
        metrics.update(per_layer)
        metrics.update(_host_metrics(ctx))
        baseline = [r["end_to_end"]["req_per_s"] for r in untraced_runs(args, source)]
        if baseline and end_to_end["req_per_s"] > 0:
            metrics["trace.overhead_pct"] = (
                statistics.median(baseline) / end_to_end["req_per_s"] - 1
            ) * 100
        earlier = [r["exact"] for r in logged_runs(args.workload, source, True, args.quick)
                   if r.get("exact")]
        problems += [f"exact count {line}" for line in exact_differences(earlier, exact)]
        problems += [f"exact count {k} = {v}" for k, v in exact.items()
                     if isinstance(v, str) and v.startswith("conflict")]
        record["exact"] = exact
        record["per_layer"] = metrics
    else:
        metrics.update(end_to_end)

    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out: Dict[str, Dict[str, Any]] = {}
    for entry in wanted:
        value = metrics.get(entry["name"], 0.0)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {entry['name']} has no finite value")
            value = 0.0
        out[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    correct = ctx.failed == 0 and not problems and completed > 0
    record["correct"] = correct
    record["problems"] = problems
    log_run(record)
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    return {
        "record": record,
        "result": {"correct": correct, "attempted": ctx.attempted,
                   "failed": ctx.failed, "metrics": out},
    }


def untraced_runs(args: argparse.Namespace, source: str) -> List[Dict[str, Any]]:
    """Logged untraced runs of this workload, code and pass length."""
    return [r for r in logged_runs(args.workload, source, False, args.quick)
            if r["seconds"] == args.seconds]


def exact_differences(earlier: List[Dict[str, Any]], exact: Dict[str, Any]) -> List[str]:
    """Lines naming every exact count that differs from the first earlier run."""
    if not earlier:
        return []
    reference = earlier[0]
    lines = []
    for name in sorted(set(reference) | set(exact)):
        if reference.get(name) != exact.get(name):
            lines.append(f"{name}: {reference.get(name)!r} before, {exact.get(name)!r} now")
    return lines


def _terminated(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one cold start and at least one round (harness tests)")
    args = parser.parse_args(argv)
    # A terminated run unwinds like an error, so it still stops what it started.
    signal.signal(signal.SIGTERM, _terminated)
    try:
        require_source()
    except SourceMissing as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.workload == "all":
        for workload in WORKLOADS:
            result = run_workload(workload, args.seed, args.seconds, args.trace,
                                  args.quick)["result"]
            print(json.dumps({"workload": workload, **result}), flush=True)
        return 0
    unset = scrub_repro_env()
    with open(BENCH / "pinned.json", encoding="utf-8") as fh:
        pinned = json.load(fh)
    source = source_digest()
    outcome = measure(args, pinned, source, unset)
    print(json.dumps({"record": outcome["record"]}, sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


def measure(args: argparse.Namespace, pinned: Dict[str, Any], source: str,
            unset: List[str]) -> Dict[str, Any]:
    """One run; a traced one first makes an untraced baseline if none is logged."""
    if args.trace and not untraced_runs(args, source):
        run_workload(args.workload, args.seed, args.seconds, 0, args.quick)
    return run_once(args, bool(args.trace), pinned, source, unset)


if __name__ == "__main__":
    sys.exit(main())
