"""Fault-tolerant solver: recovery cost.

Two claims about the shard supervisor (repro.robustness), measured on the
same 24-state KBP as the solver speedup bench:

* **recovery** — a worker crash mid-sweep is retried and the report is
  byte-identical to the fault-free one;
* **resume** — a killed checkpointed solve resumes without re-checking
  journaled candidates.

Set ``SOLVER_FAULTS_BENCH_QUICK=1`` for CI smoke runs (smaller sweep).
Results append to ``BENCH_solver_faults.json``.
"""

import os
import random
import time

import pytest

from repro.core import solve_si_parallel
from repro.robustness import FaultPlan, verify_journal

from .bench_kbp_solver import _speedup_kbp
from .conftest import append_trajectory, once, record

_RESULTS: dict = {}

_QUICK = os.environ.get("SOLVER_FAULTS_BENCH_QUICK") == "1"
#: Free state-bits of the sweep: 2^14 candidates full, 2^10 quick.
_FREE_BITS = 10 if _QUICK else 14
_WORKERS = 8


def _program():
    return _speedup_kbp(random.Random(2024), _FREE_BITS)


def _same(a, b) -> bool:
    return a.candidates_checked == b.candidates_checked and tuple(
        p.mask for p in a.solutions
    ) == tuple(p.mask for p in b.solutions)


def test_crash_recovery_identical(benchmark):
    """One worker crash mid-sweep: retried, and the report is unchanged."""
    program = _program()

    def run():
        clean = solve_si_parallel(program, workers=_WORKERS)
        start = time.perf_counter()
        faulted = solve_si_parallel(
            program,
            workers=_WORKERS,
            fault_plan=FaultPlan.parse("crash@0"),
        )
        faulted_s = time.perf_counter() - start
        return clean, faulted, faulted_s

    clean, faulted, faulted_s = once(benchmark, run)
    assert _same(clean, faulted)
    assert faulted.fault_log.count("worker-crash") >= 1
    _RESULTS["crash_recovered"] = True
    record(
        benchmark,
        crash_recovered=True,
        crashes_seen=faulted.fault_log.count("worker-crash"),
        faulted_s=round(faulted_s, 3),
    )


def test_kill_and_resume_skips_journaled_work(benchmark, tmp_path):
    """Killed after 2 journaled shards; the resume re-checks none of them."""
    from repro.robustness import SimulatedKill

    program = _program()
    journal = tmp_path / "solve.journal"

    def run():
        with pytest.raises(SimulatedKill):
            solve_si_parallel(
                program,
                workers=_WORKERS,
                checkpoint=journal,
                fault_plan=FaultPlan.parse("kill@2"),
            )
        journaled = verify_journal(journal)["candidates_checked"]
        resumed = solve_si_parallel(program, workers=_WORKERS, checkpoint=journal)
        return journaled, resumed

    journaled, resumed = once(benchmark, run)
    assert resumed.fault_log.candidates_resumed == journaled > 0
    assert resumed.candidates_checked == 2**_FREE_BITS
    _RESULTS["resume_skipped_candidates"] = journaled
    record(benchmark, resume_skipped_candidates=journaled)
    _write_trajectory()


def _write_trajectory() -> None:
    entry = {
        "bench": "solver_faults",
        "timestamp": round(time.time()),
        "space": 24,
        "free_bits": _FREE_BITS,
        "workers": _WORKERS,
        "quick": _QUICK,
        **_RESULTS,
    }
    append_trajectory("BENCH_solver_faults.json", entry)
