"""Adversarial soak harness: sweep cost, determinism, and resume.

Three claims about the soak matrix (repro.sim.soak) on the CI quick
configuration (12 cells: {bounded-loss, lossy, reliable} × {weighted-random,
greedy-loss} × {no crash, receiver crash}):

* **cross-checked** — every cell's observed verdict is consistent with the
  model-checked ground truth, and the E13 pair shows up as *proven*
  livelocks (not timeouts): greedy-loss refutes the unrestricted LOSSY
  channel, bounded-loss survives it;
* **deterministic** — the same matrix produces a byte-identical journal on
  every run;
* **resumable** — a soak killed mid-sweep (``kill@N``) resumes without
  re-running journaled cells and still ends with the uninterrupted bytes.

Results append to ``BENCH_soak.json``.
"""

import time

import pytest

from repro.robustness import FaultPlan, SimulatedKill
from repro.sim import quick_config, run_soak
from repro.sim.soak import LIVELOCK_VERDICT

from .conftest import append_trajectory, once, record

_RESULTS: dict = {}


def test_soak_matrix_cross_checked(benchmark, tmp_path):
    """The quick matrix sweeps clean, with the E13 livelocks proven."""
    config = quick_config()

    def run():
        start = time.perf_counter()
        report = run_soak(config, tmp_path / "soak.jsonl")
        return report, time.perf_counter() - start

    report, elapsed = once(benchmark, run)
    assert report.consistent, report.inconsistencies
    livelocked = [k for k, v in report.verdicts.items() if v == LIVELOCK_VERDICT]
    # Exactly the greedy-loss × LOSSY cells livelock; bounded-loss delivers.
    assert livelocked and all(
        "lossy" in key and "greedy-loss" in key for key in livelocked
    )
    assert all(
        v == "delivered"
        for k, v in report.verdicts.items()
        if "bounded_loss" in k
    )
    _RESULTS["cells"] = report.total
    _RESULTS["livelocks_proven"] = len(livelocked)
    _RESULTS["consistent"] = report.consistent
    _RESULTS["sweep_s"] = round(elapsed, 3)
    record(
        benchmark,
        cells=report.total,
        livelocks_proven=len(livelocked),
        consistent=report.consistent,
        sweep_s=round(elapsed, 3),
    )


def test_soak_deterministic(benchmark, tmp_path):
    """Same matrix, same seeds → byte-identical journals."""
    config = quick_config()

    def run():
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_soak(config, a)
        run_soak(config, b)
        return a.read_bytes() == b.read_bytes()

    identical = once(benchmark, run)
    assert identical
    _RESULTS["byte_identical"] = True
    record(benchmark, byte_identical=True)


def test_soak_kill_and_resume(benchmark, tmp_path):
    """Killed after 5 journaled cells; the resume re-runs none of them."""
    config = quick_config()

    def run():
        reference = tmp_path / "ref.jsonl"
        interrupted = tmp_path / "int.jsonl"
        run_soak(config, reference)
        plan = FaultPlan.parse("kill@5", scratch=str(tmp_path / "faults"))
        with pytest.raises(SimulatedKill):
            run_soak(config, interrupted, fault_plan=plan)
        report = run_soak(config, interrupted)
        return report, interrupted.read_bytes() == reference.read_bytes()

    report, identical = once(benchmark, run)
    assert report.resumed == 5
    assert identical
    _RESULTS["resume_skipped_cells"] = report.resumed
    record(benchmark, resume_skipped_cells=report.resumed, byte_identical=identical)
    _write_trajectory()


def _write_trajectory() -> None:
    entry = {
        "bench": "soak",
        "timestamp": round(time.time()),
        **_RESULTS,
    }
    append_trajectory("BENCH_soak.json", entry)
