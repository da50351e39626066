"""One configurable home for every "this space is too big" limit.

Three different ceilings used to live as scattered module constants, each
guarding a different cost model:

* **explicit materialization** — anything O(#states): successor arrays,
  int-mask round-trips, ``Predicate.from_callable`` sweeps.  The symbolic
  (ROBDD) backend is exempt: it never enumerates states, so the guards
  consult the backend's ``symbolic`` capability flag before refusing.
* **candidate sweeps** — the eq.-(25) exhaustive SI search enumerates
  ``2^(free states)`` candidates (``repro.core.kbp``); this was
  ``MAX_EXHAUSTIVE_STATES = 28`` there.
* **predicate enumeration** — junctivity analysis enumerates *all* ``2^n``
  predicates over the space (``repro.transformers.junctivity``); this was
  an unrelated constant that happened to share the same name (= 16).

Each limit is overridable by environment variable (read once, on first
use) or programmatically (:func:`set_limit`), and every guard message
names the escape hatches: the symbolic backend, the incomplete/sampled
alternatives, and the override knob itself.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

__all__ = [
    "DEFAULT_LIMITS",
    "ExplicitStateLimitError",
    "check_enumeration_size",
    "check_explicit_size",
    "check_solver_size",
    "get_limit",
    "set_limit",
]


class ExplicitStateLimitError(ValueError):
    """An operation would enumerate more explicit state than the limit allows."""


#: limit name -> (environment variable, default value)
DEFAULT_LIMITS = {
    # O(#states) materialization: successor arrays, int masks, per-state sweeps.
    "explicit": ("REPRO_MAX_EXPLICIT_STATES", 1 << 22),
    # Exhaustive eq.-(25) candidate sweeps: 2^(free states) candidates.
    "solver": ("REPRO_MAX_SOLVER_STATES", 28),
    # Exhaustive predicate enumeration: 2^(#states) predicates.
    "enumeration": ("REPRO_MAX_ENUMERATION_STATES", 16),
}

_values: Dict[str, Optional[int]] = {name: None for name in DEFAULT_LIMITS}


def get_limit(name: str) -> int:
    """The current value of a limit (``"explicit"``, ``"solver"``, ``"enumeration"``)."""
    try:
        env_var, default = DEFAULT_LIMITS[name]
    except KeyError:
        raise KeyError(
            f"unknown limit {name!r} (have {sorted(DEFAULT_LIMITS)})"
        ) from None
    value = _values[name]
    if value is None:
        raw = os.environ.get(env_var)
        if raw is None:
            value = default
        else:
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(
                    f"{env_var}={raw!r} is not an integer state limit"
                ) from None
        _values[name] = value
    return value


def set_limit(name: str, value: Optional[int]) -> Optional[int]:
    """Set a limit programmatically; returns the previous setting.

    ``None`` re-reads the environment variable on next use (test teardown).
    """
    if name not in DEFAULT_LIMITS:
        raise KeyError(f"unknown limit {name!r} (have {sorted(DEFAULT_LIMITS)})")
    if value is not None and value < 1:
        raise ValueError(f"limit {name!r} must be positive, got {value}")
    previous = _values[name]
    _values[name] = value
    return previous


def check_explicit_size(size: int, operation: str) -> None:
    """Refuse an O(#states) operation beyond the ``explicit`` limit.

    Callers on a symbolic route (ROBDD handles end to end) must *not* call
    this — the whole point of the symbolic backend is that these guards
    never fire for it.
    """
    limit = get_limit("explicit")
    if size > limit:
        raise ExplicitStateLimitError(
            f"{operation} would enumerate {size} explicit states "
            f"(limit {limit}); escape hatches: select the symbolic backend "
            "(REPRO_PREDICATE_BACKEND=robdd or set_default_backend('robdd')) "
            "which never materializes states, or raise "
            "REPRO_MAX_EXPLICIT_STATES / set_limit('explicit', ...)"
        )


def check_solver_size(size: int) -> None:
    """Refuse an exhaustive eq.-(25) candidate sweep beyond the ``solver`` limit."""
    limit = get_limit("solver")
    if size > limit:
        raise ExplicitStateLimitError(
            f"state space of {size} states is too large for an exhaustive "
            f"SI candidate sweep (2^free candidates; limit {limit}); "
            "escape hatches: solve_si_iterative runs an incomplete Kleene "
            "probe, or raise REPRO_MAX_SOLVER_STATES / set_limit('solver', ...)"
            " — the limit applies even to the sharded solver in "
            "repro.core.parallel"
        )


def check_enumeration_size(size: int) -> None:
    """Refuse exhaustive 2^n predicate enumeration beyond the ``enumeration`` limit."""
    limit = get_limit("enumeration")
    if size > limit:
        raise ExplicitStateLimitError(
            f"refusing exhaustive enumeration of 2^{size} predicates "
            f"(limit {limit} states); escape hatches: the sampled junctivity "
            "checks (samples=...) cover larger spaces probabilistically, or "
            "raise REPRO_MAX_ENUMERATION_STATES / set_limit('enumeration', ...)"
        )
