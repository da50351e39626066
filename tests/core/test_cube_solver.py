"""Routing of ``solve_si`` past the solver limit, without a cube solver.

The cube-pruning eq.-(25) solver used to be the route ``solve_si`` took
past the solver limit when a program's knowledge terms were non-nested.
It is retired: past the limit every knowledge-based program is refused,
and the refusal names the routes that remain, ``solve_si_iterative``
(sound but incomplete) and a raised ``REPRO_MAX_SOLVER_STATES``.
"""

import pytest

from repro.core import solve_si, solve_si_iterative
from repro.figures import fig2_program, fig2_strong_init, fig2_weak_init
from repro.predicates import limits
from repro.predicates.limits import ExplicitStateLimitError


@pytest.fixture
def restore_limits():
    yield
    for name in limits.DEFAULT_LIMITS:
        limits.set_limit(name, None)


class TestRouting:
    def test_auto_routes_past_the_solver_limit(self, restore_limits):
        # Shrink the limit below Figure 2's 8 states: its knowledge terms
        # are non-nested, yet the default solve is refused, and the route
        # the refusal names still runs and reports a solution of the sweep.
        program = fig2_program()
        with pytest.raises(TypeError, match="method"):
            solve_si(program, method="cubes")
        variants = [
            program.with_init(init(program))
            for init in (fig2_weak_init, fig2_strong_init)
        ]
        limits.set_limit("solver", program.space.size - 1)
        iterated = []
        for variant in variants:
            with pytest.raises(ExplicitStateLimitError) as exc_info:
                solve_si(variant)
            message = str(exc_info.value)
            assert "solve_si_iterative" in message and "cubes" not in message
            report = solve_si_iterative(variant)
            assert report.converged
            iterated.append(report.solution.fingerprint())
        limits.set_limit("solver", None)
        for variant, fingerprint in zip(variants, iterated):
            sweep = solve_si(variant)
            assert fingerprint in {p.fingerprint() for p in sweep.solutions}

    def test_nested_knowledge_auto_stays_exhaustive(self, restore_limits):
        # Past the limit with nested knowledge there is no complete route:
        # the default solve meets the exhaustive guard, whose message
        # names the remaining escape hatches.
        from repro.seqtrans import RELIABLE, SeqTransParams, build_kbp_protocol

        program = build_kbp_protocol(SeqTransParams(length=1), RELIABLE)
        with pytest.raises(ExplicitStateLimitError, match="solve_si_iterative"):
            solve_si(program)
