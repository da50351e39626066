"""The sharded/batched eq.-(25) solver must be indistinguishable from serial.

Three layers of property tests:

* the candidate enumeration primitives (``_supersets_of``, Gray-code walks,
  shard assignment masks) cover the sublattice exactly once;
* ``batch_phi`` agrees with the serial resolver's Φ on every candidate,
  on both backends;
* whole solves — plain, certified, early-exit — produce reports (and
  certificate payloads) identical to the serial sweep, across worker
  counts and backends.

Then the routing of ``solve_si(parallel="auto")`` (in-process batched
sweep, serial loop or pool), and the in-process sweep's state, which
belongs to one solve: nested solves and solves on other threads must not
disturb it.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile_phi_plan, solve_si, solve_si_parallel
from repro.core.kbp import (
    INPROCESS_AUTO_FREE_BITS,
    MAX_EXHAUSTIVE_STATES,
    PARALLEL_AUTO_FREE_BITS,
    CandidateResolver,
    _supersets_of,
)
from repro.core.parallel import (
    assignment_mask,
    default_workers,
    gray_masks,
    plan_shards,
)
from repro.predicates import Predicate, using_backend
from repro.predicates.backends import get_backend
from repro.statespace import BoolDomain, IntRangeDomain, space_of
from repro.unity import (
    Const,
    GuardDomainError,
    Program,
    Statement,
    Unary,
    Var,
    const,
    knows,
    lnot,
    var,
)


# ----------------------------------------------------------------------
# enumeration primitives
# ----------------------------------------------------------------------


@st.composite
def base_and_full(draw, max_bits: int = 10):
    """A (base, full) mask pair with base ⊆ full."""
    bits = draw(st.integers(min_value=1, max_value=max_bits))
    full = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    base = full & draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    return base, full


@given(base_and_full())
def test_supersets_cover_the_interval_exactly_once(masks):
    base, full = masks
    free = full & ~base
    seen = list(_supersets_of(base, full))
    assert len(seen) == 1 << free.bit_count()
    assert len(set(seen)) == len(seen)
    for mask in seen:
        assert mask & base == base
        assert mask & ~full == 0


@given(base_and_full())
def test_supersets_descend_on_the_free_bits(masks):
    """The serial enumeration order certificates depend on: strictly
    decreasing free-bit submasks."""
    base, full = masks
    free = full & ~base
    subs = [mask & free for mask in _supersets_of(base, full)]
    assert subs == sorted(subs, reverse=True)


@given(st.lists(st.integers(min_value=0, max_value=20), unique=True, max_size=8))
def test_gray_walk_is_exhaustive_and_single_bit_stepped(positions):
    walk = list(gray_masks(positions))
    assert len(walk) == 1 << len(positions)
    assert len(set(walk)) == len(walk)
    allowed = 0
    for position in positions:
        allowed |= 1 << position
    for mask in walk:
        assert mask & ~allowed == 0
    for previous, current in zip(walk, walk[1:]):
        assert (previous ^ current).bit_count() == 1


@given(
    st.lists(st.integers(min_value=0, max_value=20), unique=True, max_size=6),
    st.integers(min_value=1, max_value=16),
)
def test_shard_plan_partitions_candidates(free_bits, workers):
    low, high = plan_shards(free_bits, workers)
    assert sorted(low + high) == sorted(free_bits)
    covered = set()
    for assignment in range(1 << len(high)):
        fixed = assignment_mask(high, assignment)
        for gray in gray_masks(low):
            covered.add(fixed | gray)
    assert len(covered) == 1 << len(free_bits)


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SOLVER_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_SOLVER_WORKERS", "zero")
    with pytest.raises(ValueError):
        default_workers()
    monkeypatch.setenv("REPRO_SOLVER_WORKERS", "0")
    with pytest.raises(ValueError):
        default_workers()


def test_default_workers_honours_cpu_affinity(monkeypatch):
    """``taskset -c 0`` on a many-CPU host means one worker, not one per CPU."""
    monkeypatch.delenv("REPRO_SOLVER_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_workers() == 1
    # Platforms without affinity masks fall back to the CPU count.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_workers() == 4


# ----------------------------------------------------------------------
# random knowledge-based programs
# ----------------------------------------------------------------------

_VIEWS = {"P": ["a"], "Q": ["b", "c"]}


@st.composite
def random_kbps(draw):
    """Small KBPs over three Booleans with knowledge-bearing guards."""
    space = space_of(a=BoolDomain(), b=BoolDomain(), c=BoolDomain())
    names = list(space.names)
    statements = []
    n_statements = draw(st.integers(min_value=2, max_value=3))
    for k in range(n_statements):
        target = draw(st.sampled_from(names))
        rhs = Const(draw(st.booleans()))
        process = draw(st.sampled_from(sorted(_VIEWS)))
        fact_var = draw(st.sampled_from(names))
        fact = Var(fact_var) if draw(st.booleans()) else Unary("not", Var(fact_var))
        guard = knows(process, fact)
        shape = draw(st.integers(min_value=0, max_value=3))
        if shape == 1:
            guard = lnot(guard)
        elif shape == 2:
            guard = guard & Var(draw(st.sampled_from(names)))
        elif shape == 3:
            guard = guard | Unary("not", Var(draw(st.sampled_from(names))))
        statements.append(
            Statement(name=f"s{k}", targets=(target,), exprs=(rhs,), guard=guard)
        )
    init_mask = 1 << draw(st.integers(min_value=0, max_value=space.size - 1))
    return Program(
        space,
        Predicate(space, init_mask),
        statements,
        processes=_VIEWS,
        name="random-kbp",
    )


# ----------------------------------------------------------------------
# batch_phi vs the serial resolver
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(random_kbps(), st.sampled_from(["int", "numpy"]))
def test_batch_phi_matches_resolver_phi(program, backend_name):
    plan = compile_phi_plan(program)
    assert plan is not None, "guard-only KBPs must compile"
    resolver = CandidateResolver(program)
    space = program.space
    masks = list(_supersets_of(program.init.mask, space.full_mask))
    backend = get_backend(backend_name)
    batched = backend.batch_phi(plan, masks)
    for mask, value in zip(masks, batched):
        assert value == resolver.phi(Predicate(space, mask)).mask


# ----------------------------------------------------------------------
# whole-solve equivalence
# ----------------------------------------------------------------------


def _assert_same_report(serial, parallel):
    assert parallel.candidates_checked == serial.candidates_checked
    assert tuple(p.mask for p in parallel.solutions) == tuple(
        p.mask for p in serial.solutions
    )


@settings(max_examples=15, deadline=None)
@given(random_kbps(), st.sampled_from(["int", "numpy"]))
def test_parallel_report_equals_serial_in_process(program, backend_name):
    with using_backend(backend_name):
        serial = solve_si(program, parallel="never")
        parallel = solve_si_parallel(program, workers=1, batch_size=3)
        _assert_same_report(serial, parallel)


@settings(max_examples=5, deadline=None)
@given(random_kbps(), st.sampled_from(["int", "numpy"]))
def test_parallel_report_equals_serial_multiprocess(program, backend_name):
    with using_backend(backend_name):
        serial = solve_si(program, parallel="never")
        parallel = solve_si_parallel(program, workers=2, batch_size=3)
        _assert_same_report(serial, parallel)


@settings(max_examples=6, deadline=None)
@given(random_kbps())
def test_certified_parallel_payload_is_byte_identical(program):
    from repro.certificates.canonical import canonical_dumps

    serial = solve_si(program, emit_certificate=True, parallel="never")
    parallel = solve_si_parallel(program, workers=2, emit_certificate=True)
    _assert_same_report(serial, parallel)
    assert canonical_dumps(parallel.certificate.to_payload()) == canonical_dumps(
        serial.certificate.to_payload()
    )


@settings(max_examples=10, deadline=None)
@given(random_kbps())
def test_any_solution_agrees_on_well_posedness(program):
    serial = solve_si(program, parallel="never")
    quick = solve_si_parallel(program, workers=1, any_solution=True)
    assert quick.well_posed == serial.well_posed
    for solution in quick.solutions:
        assert any(solution == s for s in serial.solutions)
    assert quick.candidates_checked <= serial.candidates_checked


def _nested_program() -> Program:
    space = space_of(a=BoolDomain(), b=BoolDomain(), c=BoolDomain())
    statements = [
        Statement(
            name="s0",
            targets=("a",),
            exprs=(Const(True),),
            guard=knows("Q", knows("P", var("a"))),
        ),
        Statement(name="s1", targets=("b",), exprs=(Const(False),)),
    ]
    return Program(
        space, Predicate(space, 1), statements, processes=_VIEWS, name="nested"
    )


def test_nested_knowledge_falls_back_to_resolver_path():
    """Nested K makes the plan ineligible; the sweep must still be exact."""
    program = _nested_program()
    assert compile_phi_plan(program) is None
    serial = solve_si(program, parallel="never")
    parallel = solve_si_parallel(program, workers=2)
    _assert_same_report(serial, parallel)


def test_knowledge_in_assignments_is_ineligible_but_solvable():
    space = space_of(a=BoolDomain(), b=BoolDomain())
    statements = [
        Statement(
            name="s0",
            targets=("a",),
            exprs=(knows("P", var("b")),),
            guard=Const(True),
        ),
    ]
    program = Program(
        space,
        Predicate(space, 1),
        statements,
        processes={"P": ["a"], "Q": ["b"]},
        name="k-rhs",
    )
    assert compile_phi_plan(program) is None
    serial = solve_si(program, parallel="never")
    parallel = solve_si_parallel(program, workers=1)
    _assert_same_report(serial, parallel)


def test_domain_exit_raises_the_original_error():
    """A candidate-enabled domain exit surfaces as GuardDomainError, not as
    a batching artifact."""
    space = space_of(go=BoolDomain(), n=IntRangeDomain(0, 3))
    statements = [
        Statement(
            name="bump",
            targets=("n",),
            exprs=(var("n") + const(1),),
            guard=knows("Ctl", var("go")),
        ),
        Statement(name="start", targets=("go",), exprs=(const(True),)),
    ]
    program = Program(
        space,
        Predicate.from_callable(space, lambda s: s["go"] and s["n"] == 3),
        statements,
        processes={"Ctl": ("go",), "Clock": ("n",)},
        name="overflow",
    )
    plan = compile_phi_plan(program)
    assert plan is not None and any(s.poison_mask for s in plan.statements)
    with pytest.raises(GuardDomainError):
        solve_si(program, parallel="never")
    with pytest.raises(GuardDomainError):
        solve_si_parallel(program, workers=1)


def test_standard_program_delegates_to_serial():
    from ..conftest import make_counter_program

    program = make_counter_program()
    serial = solve_si(program, parallel="never")
    parallel = solve_si_parallel(program, workers=4)
    _assert_same_report(serial, parallel)


def test_solve_si_routing_knobs():
    space = space_of(a=BoolDomain(), b=BoolDomain(), c=BoolDomain())
    program = Program(
        space,
        Predicate(space, 1),
        [
            Statement(
                name="s0",
                targets=("a",),
                exprs=(Const(True),),
                guard=knows("P", var("a")),
            )
        ],
        processes=_VIEWS,
        name="routed",
    )
    with pytest.raises(ValueError):
        solve_si(program, parallel="sometimes")
    forced = solve_si(program, parallel="force", workers=1)
    serial = solve_si(program, parallel="never")
    _assert_same_report(serial, forced)


@pytest.fixture
def routes(monkeypatch):
    """Record each ``solve_si_parallel`` call's ``workers`` and count
    ``compile_phi_plan`` calls, calling through to both."""
    from repro.core import parallel

    seen = {"workers": [], "compiles": 0}
    real_solve = parallel.solve_si_parallel
    real_compile = parallel.compile_phi_plan

    def solve_spy(program, **kwargs):
        seen["workers"].append(kwargs.get("workers"))
        return real_solve(program, **kwargs)

    def compile_spy(program):
        seen["compiles"] += 1
        return real_compile(program)

    monkeypatch.setattr(parallel, "solve_si_parallel", solve_spy)
    monkeypatch.setattr(parallel, "compile_phi_plan", compile_spy)
    return seen


def test_auto_route_sweeps_in_process_below_the_pool_crossover(routes):
    from repro.certificates import build_model

    below = build_model(f"kbp24-f{INPROCESS_AUTO_FREE_BITS - 1}").program
    report = solve_si(below)
    assert routes["workers"] == [1]  # the batched in-process sweep
    assert routes["compiles"] == 1  # the router's plan, not a second one
    assert report.dispatch is None and report.fault_log.clean

    routes["workers"].clear()
    at = build_model(f"kbp24-f{INPROCESS_AUTO_FREE_BITS}").program
    solve_si(at)
    assert routes["workers"] == [None]  # the default-sized pool
    assert routes["compiles"] == 2  # one per solve


def test_auto_route_keeps_the_serial_loop_without_a_plan(routes):
    """Nested K has no Φ plan: below 12 free bits the serial loop stays."""
    program = _nested_program()
    assert program.space.size - program.init.count() < PARALLEL_AUTO_FREE_BITS
    report = solve_si(program)
    assert routes["workers"] == []
    assert report.fault_log is None
    _assert_same_report(solve_si(program, parallel="never"), report)


def test_auto_route_keeps_certified_solves_serial(routes):
    from repro.certificates import build_model

    solve_si(build_model("kbp24-f6").program, emit_certificate=True)
    assert routes["workers"] == [] and routes["compiles"] == 0


@pytest.fixture(scope="module")
def serial_kbp24():
    """``parallel="never"`` on the exact int backend, once per program."""
    reports = {}

    def reference(program):
        if program.name not in reports:
            with using_backend("int"):
                reports[program.name] = solve_si(program, parallel="never")
        return reports[program.name]

    return reference


@pytest.mark.parametrize("backend_name", ["int", "numpy"])
@pytest.mark.parametrize("free_bits", range(4, 14))
def test_auto_route_matches_the_serial_sweep_on_kbp24(
    free_bits, backend_name, serial_kbp24
):
    from repro.certificates import build_model

    program = build_model(f"kbp24-f{free_bits}").program
    with using_backend(backend_name):
        report = solve_si(program)
    _assert_same_report(serial_kbp24(program), report)


# ----------------------------------------------------------------------
# in-process sweep state is per solve
# ----------------------------------------------------------------------


def test_nested_in_process_solve_keeps_the_outer_solve_intact(tmp_path):
    """A progress callback that runs another in-process solve must not
    disturb the solve it is called from."""
    from repro.certificates import build_model

    outer = build_model("kbp24-f8").program
    inner = build_model("kbp24-f6").program
    inner_reports = []

    def progress(tick):
        inner_reports.append(solve_si_parallel(inner, workers=1))

    report = solve_si_parallel(
        outer, workers=1, checkpoint=tmp_path / "outer.journal",
        progress=progress,
    )
    _assert_same_report(solve_si(outer, parallel="never"), report)
    assert len(inner_reports) > 1
    inner_serial = solve_si(inner, parallel="never")
    for inner_report in inner_reports:
        _assert_same_report(inner_serial, inner_report)


#: Bound on every wait and join below; only a deadlock would reach it.
_DEADLOCK_S = 120


def test_concurrent_certified_in_process_solves(tmp_path):
    """Two threads, two programs: thread A pauses after its first shard
    until thread B's whole solve has run, then finishes its own sweep."""
    import threading

    from repro.certificates import build_model
    from repro.certificates.canonical import payload_digest

    programs = {
        "a": build_model("kbp24-f7").program,
        "b": build_model("kbp24-f6").program,
    }
    a_paused, b_done = threading.Event(), threading.Event()
    reports, errors = {}, []

    def pause_once(tick):
        if not a_paused.is_set():
            a_paused.set()
            b_done.wait(_DEADLOCK_S)

    def solve_a():
        try:
            reports["a"] = solve_si_parallel(
                programs["a"], workers=1, emit_certificate=True,
                checkpoint=tmp_path / "a.journal", progress=pause_once,
            )
        except Exception as exc:  # reported below, never swallowed
            errors.append(exc)
        finally:
            a_paused.set()

    def solve_b():
        a_paused.wait(_DEADLOCK_S)
        try:
            reports["b"] = solve_si_parallel(
                programs["b"], workers=1, emit_certificate=True
            )
        except Exception as exc:
            errors.append(exc)
        finally:
            b_done.set()

    threads = [threading.Thread(target=solve_a), threading.Thread(target=solve_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(_DEADLOCK_S)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for key, program in programs.items():
        serial = solve_si(program, emit_certificate=True, parallel="never")
        _assert_same_report(serial, reports[key])
        assert payload_digest(reports[key].certificate.to_payload()) == (
            payload_digest(serial.certificate.to_payload())
        )


def test_in_process_solves_on_many_threads():
    """More threads than CPUs, switching as often as the interpreter lets
    them, each running default-route and certified in-process solves:
    every report must equal the serial sweep's."""
    import sys
    import threading

    from repro.certificates import build_model
    from repro.certificates.canonical import payload_digest

    def summary(report):
        masks = [p.mask for p in report.solutions]
        if report.certificate is None:
            return report.candidates_checked, masks
        digest = payload_digest(report.certificate.to_payload())
        return report.candidates_checked, masks, digest

    programs = [build_model(f"kbp24-f{k}").program for k in (5, 6, 8, 9)]
    serial = [
        summary(solve_si(p, parallel="never", emit_certificate=True))
        for p in programs
    ]
    mismatches, errors = [], []

    def sweep(offset):
        try:
            for step in range(6):
                index = (offset + step) % len(programs)
                if step % 3 == 0:
                    report = solve_si_parallel(
                        programs[index], workers=1, emit_certificate=True
                    )
                    expected = serial[index]
                else:
                    report = solve_si(programs[index])  # in-process route
                    expected = serial[index][:2]
                if summary(report) != expected:
                    mismatches.append((offset, step))
        except Exception as exc:  # reported below, never swallowed
            errors.append(exc)

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(_DEADLOCK_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and mismatches == []


def test_size_guard_names_both_escape_hatches():
    from repro.seqtrans import SeqTransParams, RELIABLE, build_kbp_protocol

    big = build_kbp_protocol(SeqTransParams(length=1), RELIABLE)
    assert big.space.size > MAX_EXHAUSTIVE_STATES
    with pytest.raises(ValueError, match="solve_si_iterative") as exc_info:
        solve_si(big)
    assert "parallel" in str(exc_info.value)
    with pytest.raises(ValueError, match="solve_si_iterative"):
        solve_si_parallel(big)


# ----------------------------------------------------------------------
# pool dispatch: the plan by value, spawn-clean workers, pool hygiene
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def pool_kbp() -> Program:
    from ..robustness.conftest import make_chaos_kbp

    return make_chaos_kbp()


@pytest.fixture(scope="module")
def pool_serial(pool_kbp):
    return solve_si(pool_kbp, parallel="never")


class TestDispatch:
    def test_shard_payload_is_descriptor_sized(self, pool_kbp):
        import pickle

        report = solve_si_parallel(pool_kbp, workers=2, collect_stats=True)
        stats = report.dispatch
        assert stats.shards_dispatched >= 2
        # (shard_index, fixed_mask) pickles to a few dozen bytes; the
        # successor arrays and masks travel once, in the initargs.
        assert stats.bytes_per_shard < 100
        plan = compile_phi_plan(pool_kbp)
        assert stats.init_bytes > len(pickle.dumps(plan))

    def test_pool_respawn_after_a_worker_crash(self, pool_kbp, pool_serial):
        from repro.robustness import FaultPlan

        report = solve_si_parallel(
            pool_kbp,
            workers=2,
            fault_plan=FaultPlan.parse("crash@1"),
            collect_stats=True,
        )
        _assert_same_report(pool_serial, report)
        assert report.fault_log.count("pool-respawn") >= 1

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(), reason="no fork here"
    )
    def test_submit_to_a_broken_pool_fails_through_the_future(self):
        from concurrent.futures.process import BrokenProcessPool

        from repro.core.transport import LocalPoolTransport

        transport = LocalPoolTransport(
            workers=1, mp_context=mp.get_context("fork")
        )
        try:
            crashed = transport.submit(os._exit, 1)
            with pytest.raises(BrokenProcessPool):
                crashed.result(timeout=60)
            later = transport.submit(abs, -1)  # must not raise here
            with pytest.raises(BrokenProcessPool):
                later.result(timeout=60)
        finally:
            transport.terminate()

    def test_in_process_solve_has_no_dispatch_stats(self, pool_kbp, pool_serial):
        report = solve_si_parallel(pool_kbp, workers=1)
        _assert_same_report(pool_serial, report)
        assert report.dispatch is None


@pytest.mark.skipif(
    "spawn" not in mp.get_all_start_methods(), reason="no spawn here"
)
class TestSpawn:
    def test_spawn_pool_matches_serial(self, pool_kbp, pool_serial):
        report = solve_si_parallel(
            pool_kbp, workers=2, start_method="spawn", collect_stats=True
        )
        _assert_same_report(pool_serial, report)
        assert report.dispatch.start_method == "spawn"

    def test_spawn_replays_backend_selection(self, pool_kbp, pool_serial):
        with using_backend("numpy"):
            report = solve_si_parallel(
                pool_kbp, workers=2, start_method="spawn"
            )
        _assert_same_report(pool_serial, report)

    def test_spawn_env_knob(self, pool_kbp, pool_serial, monkeypatch):
        from repro.core.parallel import START_METHOD_ENV_VAR

        monkeypatch.setenv(START_METHOD_ENV_VAR, "spawn")
        report = solve_si_parallel(pool_kbp, workers=2, collect_stats=True)
        _assert_same_report(pool_serial, report)
        assert report.dispatch.start_method == "spawn"

    def test_unknown_start_method_is_rejected(self, pool_kbp):
        with pytest.raises(ValueError):
            solve_si_parallel(pool_kbp, workers=2, start_method="teleport")


_HYGIENE_PROBE = """
import sys
from repro.certificates import build_model
from repro.core import solve_si_parallel

report = solve_si_parallel(
    build_model("kbp24-f6").program, workers=2, start_method="fork",
    collect_stats=True,
)
assert report.dispatch.transports == ["local"], report.dispatch
print(",".join(sorted(
    name for name in (
        "multiprocessing.shared_memory", "multiprocessing.resource_tracker"
    )
    if name in sys.modules
)))
"""


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="no fork here"
)
def test_fork_pool_solve_loads_no_shared_memory_machinery():
    """A fork-pool solve starts no resource tracker and maps no segment:
    neither module is even imported in a fresh interpreter."""
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_SOLVER_START_METHOD", None)
    env.pop("REPRO_SOLVER_REMOTE_WORKERS", None)
    done = subprocess.run(
        [sys.executable, "-c", _HYGIENE_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "", done.stdout
