"""Tests of the benchmark harness itself.

Run with ``python -m pytest perfbench -q`` from the repository root.  The
quick-mode runs make one short pass or round of each workload, so the whole
file takes two to three minutes; they check metric names, units,
the pinned-output checks, the exact counts and that no process a run
starts outlives it, not speed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args: str, cwd: Path = common.ROOT) -> subprocess.CompletedProcess:
    """Run ``run.py`` in a session of its own; fail if any process of it outlives it.

    Output goes to files, not pipes: a reader of a pipe would wait for every
    process holding its write end, and so would not see one left running.
    """
    cmd = [sys.executable, "perfbench/run.py", *args]
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, text=True,
                                start_new_session=True)
        try:
            proc.wait(timeout=600)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        left = running_in_session(proc.pid)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    assert left == [], stderr
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def running_in_session(session: int) -> list:
    """The processes of ``session`` that still exist, with their states.

    A zombie counts too: nobody in the run waited for it to end.
    """
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            head, tail = stat.read_text().rsplit(")", 1)
            fields = tail.split()
            if int(fields[3]) == session:
                found.append(f"{stat.parent.name} {fields[0]} {head.split('(', 1)[1]}")
        except (OSError, IndexError, ValueError):
            continue
    return found


def test_benchmark_json_shape_and_limits():
    spec = common.benchmark_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == ["hot", "cold", "sweep"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) and max(bounds.values()) <= 0.25
    assert {"setup_s", "req_per_s", "p50_ms", "p90_ms", "p99_ms", "peak_rss_mb"} == set(bounds)


def _span(id, parent, name, start, end):
    return {"id": id, "parent": parent, "name": name, "start": start, "end": end}


def test_self_times_are_duration_minus_children_and_add_up():
    root = _span("r", None, "request", 0.0, 10.0)
    wire = _span("c", "r", "wire", 1.0, 9.0)
    solve = _span(1, None, "solve", 2.0, 6.0)
    sst = _span(2, 1, "sst", 3.0, 5.0)
    got, problems = spans.self_times(root, [wire, solve, sst], hang="c")
    assert problems == []
    assert got == {"unattributed": 2.0, "wire": 4.0, "solve": 2.0, "sst": 2.0}


@pytest.mark.parametrize("bad, expected", [
    # a server span that ends after the client's wait (and the request)
    (_span(3, None, "put", 8.0, 11.0), "runs outside its parent wire"),
    # a span hung under a parent of another request
    (_span(3, 99, "put", 6.5, 7.0), "outside the request"),
    # a second outermost server span overlapping the first
    (_span(3, None, "put", 4.0, 8.5), "the children of wire overlap"),
])
def test_self_time_checks_fail_on_spans_that_do_not_nest(bad, expected):
    root = _span("r", None, "request", 0.0, 10.0)
    wire = _span("c", "r", "wire", 1.0, 9.0)
    solve = _span(1, None, "solve", 2.0, 6.0)
    _times, problems = spans.self_times(root, [wire, solve, bad], hang="c")
    assert any(expected in line for line in problems), problems


def test_recorder_nests_and_wraps():
    rec = spans.Recorder()

    class Thing:
        def work(self, x):
            return x + 1

    rec.wrap(Thing, "work", "thing.work", lambda span, result, a, k: span["attrs"].update(out=result))
    outer = rec.begin("outer")
    assert Thing().work(1) == 2
    rec.end(outer)
    inner = [s for s in rec.spans if s["name"] == "thing.work"][0]
    assert inner["parent"] == outer["id"] and inner["attrs"] == {"out": 2}


def test_pinned_digest_mismatch_counts_as_failed(tmp_path):
    common.require_source()
    import workloads

    pinned = json.loads((BENCH / "pinned.json").read_text())
    pinned["queries"]["fig2|si-solve"]["sha256"] = "0" * 64
    ctx = workloads.Context(workload="hot", seed=0, seconds=0, trace=False,
                            pinned=pinned, workdir=tmp_path / "work")
    server = workloads.Server(ctx)
    try:
        ctx.solve(server, "fig2", "si-solve", "cold", replay=True, timed=True)
        ctx.solve(server, "fig1", "si-solve", "cold", replay=True, timed=True)
        ctx.solve(server, "fig1", "si-solve", "cold", replay=False, timed=True)
    finally:
        ctx.stop_server(server)
    # the digest mismatch, then fig1 served from the cache where cold was due
    assert (ctx.attempted, ctx.failed, len(ctx.samples)) == (3, 2, 1)


@pytest.mark.parametrize("workload", ["hot", "cold", "sweep"])
def test_quick_runs_report_every_metric_and_pass_their_checks(workload):
    spec = common.benchmark_spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run("--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--quick")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], proc.stderr
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert record["exact"] and not record["problems"]
    assert record["repro_env_unset"]
    e2e = record["end_to_end"]
    assert all(e2e[name] > 0 for name in ("setup_s", "req_per_s", "p50_ms", "peak_rss_mb"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(common.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = run("--workload", "hot", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
