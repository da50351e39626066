"""Shared plumbing: checkout paths, ``/proc`` readers, statistics, run log.

Everything here is stdlib.  The benchmark reads the program under test
only through ``src/`` of the checkout it sits in, so one copy of this
directory measures whichever commit it is checked out beside.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Run outputs (per-run caches, run log, traces); ignored by git.
OUT = BENCH / ".out"
RUN_LOG = OUT / "runs.jsonl"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

_TICK = os.sysconf("SC_CLK_TCK")


class SourceMissing(SystemExit):
    """Raised when the checkout has no ``src/repro`` to measure."""


def require_source() -> None:
    """Refuse to run without the program's source beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(
            f"perfbench: no program source at {SRC / 'repro'}; run from a "
            "full checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scrub_repro_env() -> List[str]:
    """Unset every ``REPRO_*`` variable; return the names that were set.

    The library reads a dozen ``REPRO_*`` knobs (backend, workers, fault
    plans, ...).  The benchmark measures the defaults, so none may leak
    into the load generator or the server it starts.
    """
    names = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    return names


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def source_digest() -> str:
    """sha256 over ``src/`` and the benchmark's own files.

    Runs compare their overhead and exact counts only with runs of the same
    digest: the same program measured by the same benchmark.
    """
    h = hashlib.sha256()
    files = [p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    files += [p for p in BENCH.iterdir() if p.suffix in (".py", ".json")]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if started here, and wait for it.

    A pool solve's shared-memory arena starts the tracker in the process
    that calls ``solve_si``.  Left alone, the tracker ends only after that
    process has exited and so outlives the run.  Python offers no public
    call for this; ``_stop`` closes the tracker's pipe and reaps it, and
    does nothing when no tracker runs.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def commit() -> Optional[str]:
    """The checkout's git commit, or ``None`` when it is no git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


# ----------------------------------------------------------------------
# host attribution
# ----------------------------------------------------------------------


def host_probe_ms() -> float:
    """A fixed pure-Python loop: how fast this host runs the interpreter now.

    Timed before and after each pass.  It is never gated; it lets a reader
    tell a slow host from a slow change.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1000.0


def cpu_steal_s() -> float:
    """Host-wide CPU steal so far, from ``/proc/stat`` (0 where absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0


def loadavg() -> List[float]:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return []


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            stat = fh.read()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_kb(pid: int, field: str) -> int:
    """A ``/proc/<pid>/status`` memory field (``VmHWM``, ``VmRSS``) in KiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between order statistics at ``q·(n−1)``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# BENCHMARK.json and the run log
# ----------------------------------------------------------------------


def benchmark_spec() -> Dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 quick: bool = False) -> Dict:
    """One run of ``run.py`` in a process of its own: its record and result.

    A run owns its process, so no high-water mark, child-process usage or
    heap of one workload leaks into the figures of another.  The child's
    standard error passes through.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench: {' '.join(cmd)} failed with code {proc.returncode}")
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def log_run(record: Dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with open(RUN_LOG, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def logged_runs(workload: str, source: str, traced: bool, quick: bool) -> List[Dict]:
    """Earlier correct runs of ``workload`` on the same source and settings."""
    runs = []
    try:
        with open(RUN_LOG, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return runs
    for line in lines:
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if (
            rec.get("workload") == workload
            and rec.get("source") == source
            and bool(rec.get("trace")) == traced
            and bool(rec.get("quick")) == quick
            and rec.get("correct")
        ):
            runs.append(rec)
    return runs
