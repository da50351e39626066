"""Explicit vs symbolic crossover on the factored sequence-transmission model.

Sweeps ``build_symbolic_protocol`` over message lengths and times the
eq.-(3) ``sst`` chain under the explicit int backend and the ROBDD
backend on the same instance:

* at small ``L`` both run and the chains are asserted bit-identical.
  Both backends build their transition tables with the same expression
  compiler (:mod:`repro.unity.support`): one evaluation per assignment of
  each expression's support, laid out over the states on int and
  compiled to support cubes on robdd, so neither pays a per-state sweep
  and robdd no longer trails int at small sizes;
* robdd's engine is built before its timer and recorded apart
  (``robdd_engine_ms``), so small-``L`` points time the chain alone;
* past ``REPRO_MAX_EXPLICIT_STATES`` the explicit route *refuses
  outright* — the headline point is ``L = 10`` (> 2^40 states)
  completing in well under a second.

The crossover curve (state bits vs wall time per backend) is appended as
a trajectory entry to ``BENCH_symbolic.json`` at the repo root.

Set ``SYMBOLIC_BENCH_QUICK=1`` for CI smoke runs (drops the slowest
explicit point; the refusal/completion assertions are unchanged).
"""

from __future__ import annotations

import math
import os
import time

import pytest

from repro.predicates import get_backend, limits, using_backend
from repro.predicates.limits import ExplicitStateLimitError
from repro.seqtrans import SeqTransParams, build_symbolic_protocol
from repro.transformers import sst

from .conftest import append_trajectory, once, record

_RESULTS: dict = {}

_QUICK = os.environ.get("SYMBOLIC_BENCH_QUICK") == "1"

# Lengths where the explicit int backend still runs (L=3 is ~90k states,
# whose successor tables and sst chain take the longest — skipped in
# quick mode).
_EXPLICIT_LENGTHS = (1, 2) if _QUICK else (1, 2, 3)
# The symbolic backend is timed on the same instances plus the scale point.
_SYMBOLIC_ONLY_LENGTHS = (10,)


def _timed_sst(length: int, backend: str):
    """Build the factored model fresh and run one full sst chain.

    On robdd the space's engine (variable order, domain constraints) is
    built before the timer starts and timed apart, so the chain time is
    the chain's alone; ``engine_s`` is 0 on int.
    """
    with using_backend(backend):
        program = build_symbolic_protocol(SeqTransParams(length=length))
        engine_s = 0.0
        if backend == "robdd":
            start = time.perf_counter()
            get_backend("robdd").engine(program.space)
            engine_s = time.perf_counter() - start
        start = time.perf_counter()
        result = sst(program, program.init)
        elapsed = time.perf_counter() - start
    chain = tuple(q.fingerprint() for q in result.chain)
    return elapsed, result.iterations, chain, program.space.size, engine_s


def test_crossover_curve(benchmark):
    """Both backends on the same instances: identical chains, diverging cost."""

    def measure():
        curve = []
        for length in _EXPLICIT_LENGTHS:
            int_s, int_iters, int_chain, states, _ = _timed_sst(length, "int")
            bdd_s, bdd_iters, bdd_chain, _, engine_s = _timed_sst(length, "robdd")
            assert int_chain == bdd_chain and int_iters == bdd_iters
            curve.append(
                {
                    "L": length,
                    "states": states,
                    "bits": round(math.log2(states), 1),
                    "int_ms": round(int_s * 1e3, 2),
                    "robdd_ms": round(bdd_s * 1e3, 2),
                    "robdd_engine_ms": round(engine_s * 1e3, 2),
                }
            )
        return curve

    curve = once(benchmark, measure)
    _RESULTS["curve"] = curve
    _RESULTS["chains_identical"] = True
    record(
        benchmark,
        points=len(curve),
        max_explicit_bits=curve[-1]["bits"],
        **{f"L{p['L']}_int_ms": p["int_ms"] for p in curve},
        **{f"L{p['L']}_robdd_ms": p["robdd_ms"] for p in curve},
    )


def test_symbolic_scale_completes_where_explicit_refuses(benchmark):
    """The 2^40-state point: refusal on int, sub-second chain on robdd."""

    def measure():
        points = []
        for length in _SYMBOLIC_ONLY_LENGTHS:
            params = SeqTransParams(length=length)
            with using_backend("int"):
                with pytest.raises(ExplicitStateLimitError):
                    build_symbolic_protocol(params)
            bdd_s, iters, _, states, _ = _timed_sst(length, "robdd")
            assert states > limits.get_limit("explicit")
            points.append(
                {
                    "L": length,
                    "bits": round(math.log2(states), 1),
                    "robdd_ms": round(bdd_s * 1e3, 2),
                    "iterations": iters,
                }
            )
        return points

    points = once(benchmark, measure)
    headline = points[-1]
    assert headline["bits"] >= 40
    _RESULTS["symbolic_scale"] = points
    _RESULTS["explicit_refused_past_limit"] = True
    record(
        benchmark,
        bits=headline["bits"],
        robdd_ms=headline["robdd_ms"],
        iterations=headline["iterations"],
    )
    _write_trajectory()


def _write_trajectory() -> None:
    entry = {
        "bench": "symbolic",
        "timestamp": round(time.time()),
        "quick": _QUICK,
        **_RESULTS,
    }
    append_trajectory("BENCH_symbolic.json", entry)
