"""Evidence-subsystem cost: emission overhead and replay-vs-resolve speedup.

Three questions, each answered on real workloads and appended as a
trajectory entry to ``BENCH_certificates.json`` at the repo root:

* **Emission overhead** — re-running E7's random-KBP sweep (the same 40
  programs, seed 1991) with ``emit_certificate=True``: building the
  eq.-(25) certificates (resolution tables, Kleene chains, refutation
  witnesses) should cost under ~15% on top of the bare solve, because the
  solver already traverses everything the certificate records.  Both
  arms run the serial sweep (``parallel="never"``): one in-process shard
  of the per-candidate walk, so the difference is the evidence alone.
  ``parallel="auto"`` batches both arms, certified ones included; that
  ratio is ``certified_overhead`` in ``BENCH_kbp_solver.json``.
* **Replay speedup** — checking the serialized Figure-1 no-solution
  artifact with the independent replayer vs re-deriving the verdict with
  ``solve_si`` from scratch.  Replay does no fixpoint search over
  candidates it hasn't been handed, so it should win.
* **Instrumentation** — the fixpoint chain lengths and transformer-cache
  hit/miss/eviction counters that now ride on every solve, reported so
  regressions in either are visible in the benchmark JSON.
"""

from __future__ import annotations

import random
import time

from repro.certificates import loads as load_artifact
from repro.core import solve_si
from repro.figures import fig1_program
from repro.transformers import sst

from .bench_kbp_solver import _random_kbp
from .conftest import append_trajectory, once, record

_RESULTS: dict = {}

#: issue target: certificate emission may cost at most this fraction extra.
OVERHEAD_TARGET = 0.15
#: benchmark variance guard — fail loudly only well past the target.
OVERHEAD_HARD_LIMIT = 0.50


def _sweep_programs():
    rng = random.Random(1991)
    return [_random_kbp(rng) for _ in range(40)]


def test_emission_overhead_on_kbp_sweep(benchmark):
    """E7 sweep, bare vs certified: same verdicts, bounded extra cost.

    Both arms take the per-candidate walk (``parallel="never"``), so this
    is the price of evidence alone.  What a default certified solve costs
    over a default uncertified one, both on the batched kernel, is
    ``certified_overhead`` in ``BENCH_kbp_solver.json``.
    """

    def run():
        # Fresh programs per arm so transformer caches start cold for both.
        bare_programs = _sweep_programs()
        cert_programs = _sweep_programs()

        start = time.perf_counter()
        bare = [solve_si(p, parallel="never") for p in bare_programs]
        bare_s = time.perf_counter() - start

        start = time.perf_counter()
        certified = [
            solve_si(p, emit_certificate=True, parallel="never")
            for p in cert_programs
        ]
        cert_s = time.perf_counter() - start

        verdicts_agree = all(
            b.well_posed == c.well_posed
            and len(b.solutions) == len(c.solutions)
            for b, c in zip(bare, certified)
        )
        cache = cert_programs[0].transformer_cache.stats()
        return {
            "bare_s": bare_s,
            "cert_s": cert_s,
            "overhead": cert_s / bare_s - 1.0,
            "verdicts_agree": verdicts_agree,
            "all_certified": all(c.certificate is not None for c in certified),
            "cache_sample": cache,
        }

    out = once(benchmark, run)
    assert out["verdicts_agree"]
    assert out["all_certified"]
    assert out["overhead"] < OVERHEAD_HARD_LIMIT, (
        f"certificate emission cost {out['overhead']:.0%} extra; "
        f"target is {OVERHEAD_TARGET:.0%}"
    )
    _RESULTS["sweep_overhead"] = round(out["overhead"], 4)
    _RESULTS["sweep_overhead_within_target"] = out["overhead"] < OVERHEAD_TARGET
    record(
        benchmark,
        bare_s=round(out["bare_s"], 3),
        cert_s=round(out["cert_s"], 3),
        overhead_pct=round(100 * out["overhead"], 1),
        target_pct=100 * OVERHEAD_TARGET,
    )


def test_replay_vs_resolve_speedup(benchmark):
    """Checking the Figure-1 artifact beats re-deriving its verdict."""
    from repro.certificates.emit import certify_fig1
    from repro.certificates.replay import replay_artifact

    ((_, artifact),) = certify_fig1()
    wire = artifact.dumps()
    rounds = 5

    def run():
        start = time.perf_counter()
        for _ in range(rounds):
            outcome = replay_artifact(load_artifact(wire))
        replay_s = (time.perf_counter() - start) / rounds

        start = time.perf_counter()
        for _ in range(rounds):
            report = solve_si(fig1_program())
        resolve_s = (time.perf_counter() - start) / rounds
        return {
            "replay_s": replay_s,
            "resolve_s": resolve_s,
            "speedup": resolve_s / replay_s,
            "verdict": outcome.verdict,
            "well_posed": report.well_posed,
        }

    out = once(benchmark, run)
    assert out["verdict"] == "no-solution"
    assert not out["well_posed"]
    _RESULTS["replay_speedup"] = round(out["speedup"], 2)
    record(
        benchmark,
        replay_ms=round(1e3 * out["replay_s"], 2),
        resolve_ms=round(1e3 * out["resolve_s"], 2),
        speedup=round(out["speedup"], 2),
    )


def test_fixpoint_and_cache_instrumentation(benchmark):
    """Chain lengths and cache counters surfaced by the instrumented solvers."""
    from repro.certificates import build_model

    def run():
        # A fresh copy of the reliable-channel protocol: 3888 states, cold cache.
        program = build_model.__wrapped__("seqtrans-standard-L1-reliable").program
        result = sst(program, program.init)
        cache = program.transformer_cache.stats()
        return {
            "sst_name": result.name,
            "sst_iterations": result.iterations,
            "chain_len": len(result.chain),
            "cache": cache,
        }

    out = once(benchmark, run)
    assert out["sst_iterations"] >= 1
    assert out["chain_len"] == out["sst_iterations"] + 1
    assert out["cache"]["misses"] > 0
    assert "evictions" in out["cache"]
    _RESULTS["sst_iterations"] = out["sst_iterations"]
    _RESULTS["cache_hits"] = out["cache"]["hits"]
    _RESULTS["cache_misses"] = out["cache"]["misses"]
    _RESULTS["cache_evictions"] = out["cache"]["evictions"]
    record(
        benchmark,
        sst_iterations=out["sst_iterations"],
        cache_hits=out["cache"]["hits"],
        cache_misses=out["cache"]["misses"],
        cache_evictions=out["cache"]["evictions"],
    )
    _write_trajectory()


def _write_trajectory() -> None:
    entry = {
        "bench": "certificates",
        "timestamp": round(time.time()),
        **_RESULTS,
    }
    append_trajectory("BENCH_certificates.json", entry)
