"""Unit tests for the unified state-limit module (repro.predicates.limits).

One configurable home replaces the two unrelated ``MAX_EXHAUSTIVE_STATES``
constants that used to live in ``repro.core.kbp`` (28) and
``repro.transformers.junctivity`` (16).  Each guard must keep its old
default, stay overridable by environment variable and ``set_limit``, and
refuse with a message that names its escape hatches.
"""

import pytest

from repro.predicates import limits
from repro.predicates.limits import (
    DEFAULT_LIMITS,
    ExplicitStateLimitError,
    check_enumeration_size,
    check_explicit_size,
    check_solver_size,
    get_limit,
    set_limit,
)


@pytest.fixture
def restore_limits():
    yield
    for name in DEFAULT_LIMITS:
        set_limit(name, None)


class TestDefaults:
    def test_backend_aware_defaults_match_the_old_constants(self):
        assert get_limit("solver") == 28  # old repro.core.kbp value
        assert get_limit("enumeration") == 16  # old junctivity value
        assert get_limit("explicit") == 1 << 22

    def test_unknown_limit_name_rejected(self):
        with pytest.raises(KeyError, match="unknown limit"):
            get_limit("quantum")
        with pytest.raises(KeyError, match="unknown limit"):
            set_limit("quantum", 4)


class TestOverrides:
    def test_set_limit_overrides_and_restores(self, restore_limits):
        previous = set_limit("solver", 4)
        assert get_limit("solver") == 4
        with pytest.raises(ExplicitStateLimitError):
            check_solver_size(5)
        check_solver_size(4)  # at the limit is allowed
        set_limit("solver", previous)

    def test_env_var_is_read_on_first_use(self, restore_limits, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_SOLVER_STATES", "7")
        set_limit("solver", None)  # force a re-read
        assert get_limit("solver") == 7

    def test_garbage_env_var_raises(self, restore_limits, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_SOLVER_STATES", "lots")
        set_limit("solver", None)
        with pytest.raises(ValueError, match="REPRO_MAX_SOLVER_STATES"):
            get_limit("solver")

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            set_limit("solver", 0)


class TestGuardMessages:
    """Every refusal must name its escape hatches (ISSUE satellite)."""

    def test_explicit_guard_names_the_symbolic_backend(self, restore_limits):
        set_limit("explicit", 8)
        with pytest.raises(ExplicitStateLimitError) as exc_info:
            check_explicit_size(9, "materializing the frobnicator")
        message = str(exc_info.value)
        assert "materializing the frobnicator" in message
        assert "robdd" in message
        assert "REPRO_MAX_EXPLICIT_STATES" in message

    def test_solver_guard_names_iterative_and_parallel(self, restore_limits):
        set_limit("solver", 8)
        with pytest.raises(ExplicitStateLimitError) as exc_info:
            check_solver_size(9)
        message = str(exc_info.value)
        assert "cubes" not in message
        assert "solve_si_iterative" in message
        assert "repro.core.parallel" in message
        assert "REPRO_MAX_SOLVER_STATES" in message

    def test_enumeration_guard_names_the_sampled_alternative(
        self, restore_limits
    ):
        set_limit("enumeration", 8)
        with pytest.raises(ExplicitStateLimitError) as exc_info:
            check_enumeration_size(9)
        message = str(exc_info.value)
        assert "samples" in message
        assert "REPRO_MAX_ENUMERATION_STATES" in message

    def test_limit_error_is_a_value_error(self):
        # Pre-refactor guards raised bare ValueError; callers catching that
        # must keep working.
        assert issubclass(ExplicitStateLimitError, ValueError)


class TestGuardsAreLive:
    """Module constants are aliases; the guards consult the live setting."""

    def test_raising_the_solver_limit_unlocks_a_sweep(self, restore_limits):
        # Figure 2's knowledge is non-nested, yet past the limit the
        # default solve is refused: there is no other complete route.
        from repro.core import solve_si
        from repro.figures import fig2_program

        program = fig2_program()
        set_limit("solver", program.space.size - 1)
        with pytest.raises(ExplicitStateLimitError):
            solve_si(program)
        set_limit("solver", program.space.size)
        assert solve_si(program).well_posed
