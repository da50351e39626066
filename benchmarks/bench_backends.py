"""Backend comparison: packed numpy words vs the seed implementations.

Measures the kernels the refactor replaced, on a space big enough for the
``"auto"`` policy to pick the numpy backend (≥ 4096 states):

* ``wcyl`` — the seed ran a pure-Python O(size) loop per call;
* ``sp_program`` over a Kleene chain — the seed round-tripped every
  predicate through int masks per statement per iteration, and had no
  transformer cache;
* ``solve_si_iterative`` — asserted bit-identical under both backends
  (the backend is an optimization, never a semantics knob).

Alongside the pytest-benchmark records, the measured speedups are appended
as a trajectory entry to ``BENCH_backends.json`` at the repo root.
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.predicates import Predicate, get_backend, using_backend, wcyl
from repro.predicates.npbits import array_to_mask, mask_to_array
from repro.statespace import BoolDomain, IntRangeDomain, StateSpace, Variable
from repro.transformers import sp_program
from repro.unity import Program, Statement, const, var

from .conftest import append_trajectory, once, record

_RESULTS: dict = {}


def _bench_program(n_pos: int = 256, n_aux: int = 8) -> Program:
    """A token chain × a free-running counter: 2 · n_pos · n_aux states."""
    space = StateSpace(
        [
            Variable("pos", IntRangeDomain(0, n_pos - 1)),
            Variable("k", IntRangeDomain(0, n_aux - 1)),
            Variable("go", BoolDomain()),
        ]
    )
    statements = [
        Statement(
            name="advance",
            targets=("pos",),
            exprs=(var("pos") + const(1),),
            guard=(var("go")) & (var("pos") < const(n_pos - 1)),
        ),
        Statement(
            name="spin",
            targets=("k",),
            exprs=(var("k") + const(1),),
            guard=var("k") < const(n_aux - 1),
        ),
        Statement(name="start", targets=("go",), exprs=(const(True),)),
    ]
    init = Predicate.from_callable(
        space, lambda s: s["pos"] == 0 and s["k"] == 0 and not s["go"]
    )
    return Program(
        space,
        init,
        statements,
        processes={"P": ("pos", "go"), "Q": ("k",)},
        name="bench_backends",
    )


# ----------------------------------------------------------------------
# seed reference implementations (copied from the pre-backend revision)
# ----------------------------------------------------------------------


def _seed_wcyl(names, p: Predicate) -> Predicate:
    space = p.space
    group_of, n_groups = space.cylinder_partition(names)
    all_true = [True] * n_groups
    mask = p.mask
    for i in range(space.size):
        if not mask >> i & 1:
            all_true[group_of[i]] = False
    out = 0
    for i in range(space.size):
        if all_true[group_of[i]]:
            out |= 1 << i
    return Predicate(space, out)


def _seed_sp_program(program: Program, p: Predicate) -> Predicate:
    """The seed's vectorized path: an int→array→int round-trip per statement."""
    size = program.space.size
    out = 0
    for stmt in program.statements:
        successors = program.successor_np(stmt)
        sources = np.flatnonzero(mask_to_array(p.mask, size))
        image = np.zeros(size, dtype=bool)
        image[successors[sources]] = True
        out |= array_to_mask(image)
    return Predicate(program.space, out)


def _timeit(fn, repeats: int) -> float:
    fn()  # warm caches / tables outside the measurement
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def test_wcyl_speedup_vs_seed(benchmark):
    """Grouped numpy reduction vs the seed's per-state Python loop."""
    program = _bench_program()
    space = program.space
    assert space.size >= 4096
    mask = random.Random(3).getrandbits(space.size)
    names = ("pos", "go")

    def measure():
        seed_s = _timeit(lambda: _seed_wcyl(names, Predicate(space, mask)), 10)
        with using_backend("numpy"):
            p = Predicate(space, mask)
            fast_s = _timeit(lambda: wcyl(names, p), 10)
            fast = wcyl(names, p)
        assert fast.mask == _seed_wcyl(names, Predicate(space, mask)).mask
        return seed_s, fast_s

    seed_s, fast_s = once(benchmark, measure)
    speedup = seed_s / fast_s
    _RESULTS["wcyl_speedup"] = round(speedup, 1)
    record(
        benchmark,
        space=space.size,
        seed_us=round(seed_s * 1e6, 1),
        numpy_us=round(fast_s * 1e6, 1),
        speedup=round(speedup, 1),
    )
    assert speedup >= 3.0


def test_sp_program_chain_speedup_vs_seed(benchmark):
    """A 50-step ``x := SP.x ∨ x`` chain — the sst workload of eq. (3).

    The numpy backend keeps the chain in array form and the transformer
    cache absorbs the post-stabilization iterations; the seed recomputed
    and round-tripped every step.
    """
    program = _bench_program()
    space = program.space
    assert space.size >= 4096
    mask = random.Random(3).getrandbits(space.size)
    steps = 50

    def seed_chain() -> int:
        x = Predicate(space, mask)
        for _ in range(steps):
            x = Predicate(space, _seed_sp_program(program, x).mask | x.mask)
        return x.mask

    def backend_chain() -> int:
        with using_backend("numpy"):
            x = Predicate(space, mask)
            for _ in range(steps):
                x = sp_program(program, x) | x
            return x.mask

    def cold_chain() -> int:
        # A fresh cache per run: measures the kernels, not memoization.
        program.transformer_cache.clear()
        return backend_chain()

    def measure():
        seed_s = _timeit(seed_chain, 5)
        backend_chain()  # warm the kernel tables outside the timing
        cold_s = _timeit(cold_chain, 5)
        warm_s = _timeit(backend_chain, 5)  # cache persists, as in solve_si
        assert seed_chain() == backend_chain()
        return seed_s, cold_s, warm_s

    seed_s, cold_s, warm_s = once(benchmark, measure)
    speedup = seed_s / warm_s
    _RESULTS["sp_chain_speedup"] = round(speedup, 1)
    _RESULTS["sp_chain_cold_speedup"] = round(seed_s / cold_s, 1)
    record(
        benchmark,
        space=space.size,
        chain_steps=steps,
        seed_ms=round(seed_s * 1e3, 2),
        numpy_cold_ms=round(cold_s * 1e3, 2),
        numpy_warm_ms=round(warm_s * 1e3, 2),
        cold_speedup=round(seed_s / cold_s, 1),
        warm_speedup=round(speedup, 1),
    )
    assert seed_s / cold_s >= 2.0  # kernels alone
    assert speedup >= 3.0  # kernels + transformer cache


def test_sp_wp_kernels_int_vs_numpy(benchmark):
    """Per-call sp/wp kernel timings, int vs numpy, same 4096-state space."""
    from repro.transformers import sp_statement, wp_statement

    program = _bench_program()
    space = program.space
    mask = random.Random(9).getrandbits(space.size)
    stmt = program.statement("advance")

    def measure():
        timings = {}
        for name in ("int", "numpy"):
            with using_backend(name):
                p = Predicate(space, mask)
                program.kernel_table(get_backend(name), stmt)  # warm the table

                def one_pass():
                    program.transformer_cache.clear()
                    sp_statement(program, stmt, p)
                    wp_statement(program, stmt, p)

                timings[name] = _timeit(one_pass, 10)
        return timings

    timings = once(benchmark, measure)
    ratio = timings["int"] / timings["numpy"]
    _RESULTS["sp_wp_int_vs_numpy"] = round(ratio, 1)
    record(
        benchmark,
        space=space.size,
        int_us=round(timings["int"] * 1e6, 1),
        numpy_us=round(timings["numpy"] * 1e6, 1),
        numpy_speedup_over_int=round(ratio, 1),
    )
    assert ratio >= 1.0  # at 4096 states the packed kernels must already win


def test_solve_si_iterative_identical_across_backends(benchmark):
    """The backend must not change any eq.-25 verdict, only the wall clock."""
    from repro.core import solve_si, solve_si_iterative
    from repro.figures import fig1_program, fig2_program, fig2_strong_init, fig2_weak_init

    def run():
        verdicts = {}
        timings = {}
        for name in ("int", "numpy"):
            with using_backend(name):
                start = time.perf_counter()
                fig1 = solve_si_iterative(fig1_program())
                fig2 = fig2_program()
                sis = tuple(
                    solve_si(fig2.with_init(init(fig2))).strongest().fingerprint().hex()
                    for init in (fig2_weak_init, fig2_strong_init)
                )
                timings[name] = time.perf_counter() - start
                verdicts[name] = (fig1.converged, len(fig1.cycle), sis)
        return verdicts, timings

    verdicts, timings = once(benchmark, run)
    assert verdicts["int"] == verdicts["numpy"]
    converged, cycle_len, (weak_si, strong_si) = verdicts["int"]
    assert not converged and cycle_len == 2  # Figure 1: no solution
    assert weak_si != strong_si  # Figure 2: non-monotonicity
    _RESULTS["solve_si_identical"] = True
    record(
        benchmark,
        fig1_cycle=cycle_len,
        int_s=round(timings["int"], 3),
        numpy_s=round(timings["numpy"], 3),
    )
    _write_trajectory()


def _write_trajectory() -> None:
    entry = {
        "bench": "backends",
        "timestamp": round(time.time()),
        "space": _bench_program().space.size,
        **_RESULTS,
    }
    append_trajectory("BENCH_backends.json", entry)
