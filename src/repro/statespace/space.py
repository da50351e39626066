"""State spaces: ordered tuples of variables with mixed-radix state indexing.

A *state* is an assignment of a value to every variable.  The space
enumerates all states and gives each an integer index, so that predicates
can be represented exactly as bitsets (see :mod:`repro.predicates`).

The encoding is row-major ("first variable varies slowest"): state index

    idx = Σ_k  digit_k * stride_k,   stride_k = Π_{m>k} |dom_m|

which makes single-variable updates and projections O(1) integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .domains import Domain


@dataclass(frozen=True)
class Variable:
    """A named program variable with a finite domain."""

    name: str
    domain: Domain

    def __repr__(self) -> str:
        return f"{self.name}:{self.domain.name}"


class State(Mapping):
    """An immutable assignment of values to all variables of a space.

    Behaves as a read-only mapping from variable name to value.  States are
    cheap views: they hold only the space reference and their index.
    """

    __slots__ = ("space", "index")

    def __init__(self, space: "StateSpace", index: int):
        if not 0 <= index < space.size:
            raise IndexError(f"state index {index} out of range for {space}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "index", index)

    def __setattr__(self, key: str, value: Any) -> None:
        raise AttributeError("State is immutable")

    def __getitem__(self, name: str) -> Any:
        return self.space.value_at(self.index, name)

    def __iter__(self) -> Iterator[str]:
        return iter(self.space.names)

    def __len__(self) -> int:
        return len(self.space.names)

    def values_tuple(self) -> Tuple[Any, ...]:
        """All variable values in declaration order."""
        return self.space.decode(self.index)

    def as_dict(self) -> Dict[str, Any]:
        """A plain dict snapshot of the assignment."""
        return dict(zip(self.space.names, self.values_tuple()))

    def updated(self, **changes: Any) -> "State":
        """A new state with the given variables reassigned."""
        return State(self.space, self.space.reindex(self.index, changes))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, State):
            return self.space is other.space and self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.space), self.index))

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}={v!r}" for n, v in self.as_dict().items())
        return f"State({parts})"


class StateSpace:
    """The finite set of all assignments to an ordered list of variables.

    Construction precomputes strides for the mixed-radix encoding; the
    cylinder partition used by ``wcyl`` (paper eq. 6) is cached per variable
    subset via :meth:`cylinder_partition`.
    """

    def __init__(self, variables: Sequence[Variable]):
        if not variables:
            raise ValueError("a state space needs at least one variable")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.variables: Tuple[Variable, ...] = tuple(variables)
        self.names: Tuple[str, ...] = tuple(names)
        self._pos: Dict[str, int] = {n: k for k, n in enumerate(names)}
        self._radix: Tuple[int, ...] = tuple(len(v.domain) for v in variables)
        strides: List[int] = [1] * len(variables)
        for k in range(len(variables) - 2, -1, -1):
            strides[k] = strides[k + 1] * self._radix[k + 1]
        self._strides: Tuple[int, ...] = tuple(strides)
        self.size: int = strides[0] * self._radix[0]
        self._full_mask: Optional[int] = None
        self._cylinder_cache: Dict[frozenset, Tuple[List[int], int]] = {}
        self._cylinder_np_cache: Dict[frozenset, Tuple[Any, int]] = {}
        self._cylinder_mask_cache: Dict[frozenset, List[int]] = {}

    @property
    def full_mask(self) -> int:
        """``(1 << size) - 1`` — computed lazily and cached.

        Laziness matters beyond toy sizes: a symbolic (ROBDD) space of
        2^40+ states must never materialize a 2^40-bit integer, and nothing
        on the symbolic path reads this property.
        """
        m = self._full_mask
        if m is None:
            m = (1 << self.size) - 1
            self._full_mask = m
        return m

    # ------------------------------------------------------------------
    # variable lookup
    # ------------------------------------------------------------------

    def var(self, name: str) -> Variable:
        """The variable named ``name``."""
        try:
            return self.variables[self._pos[name]]
        except KeyError:
            raise KeyError(f"no variable {name!r} in {self}") from None

    def position(self, name: str) -> int:
        """Declaration position of ``name``."""
        try:
            return self._pos[name]
        except KeyError:
            raise KeyError(f"no variable {name!r} in {self}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._pos

    def check_vars(self, names: Iterable[str]) -> frozenset:
        """Validate a set of variable names, returning it as a frozenset."""
        fs = frozenset(names)
        unknown = fs - set(self.names)
        if unknown:
            raise KeyError(f"unknown variables {sorted(unknown)} in {self}")
        return fs

    # ------------------------------------------------------------------
    # encoding / decoding
    # ------------------------------------------------------------------

    def encode(self, values: Sequence[Any]) -> int:
        """Index of the state assigning ``values`` in declaration order."""
        if len(values) != len(self.variables):
            raise ValueError(
                f"expected {len(self.variables)} values, got {len(values)}"
            )
        idx = 0
        for var, stride, value in zip(self.variables, self._strides, values):
            idx += var.domain.index(value) * stride
        return idx

    def decode(self, index: int) -> Tuple[Any, ...]:
        """All variable values of the state at ``index``."""
        return tuple(
            var.domain.values[(index // stride) % radix]
            for var, stride, radix in zip(self.variables, self._strides, self._radix)
        )

    def index_of(self, assignment: Mapping[str, Any]) -> int:
        """Index of the state described by a full name→value mapping."""
        missing = set(self.names) - set(assignment)
        if missing:
            raise ValueError(f"assignment missing variables {sorted(missing)}")
        return self.encode([assignment[n] for n in self.names])

    def value_at(self, index: int, name: str) -> Any:
        """Value of variable ``name`` in the state at ``index``."""
        k = self.position(name)
        var = self.variables[k]
        return var.domain.values[(index // self._strides[k]) % self._radix[k]]

    def digit(self, index: int, position: int) -> int:
        """Domain-order position of variable ``position``'s value at ``index``."""
        return (index // self._strides[position]) % self._radix[position]

    def reindex(self, index: int, changes: Mapping[str, Any]) -> int:
        """Index after reassigning the variables in ``changes``."""
        for name, value in changes.items():
            k = self.position(name)
            var = self.variables[k]
            old_digit = self.digit(index, k)
            new_digit = var.domain.index(value)
            index += (new_digit - old_digit) * self._strides[k]
        return index

    # ------------------------------------------------------------------
    # states
    # ------------------------------------------------------------------

    def state_at(self, index: int) -> State:
        """The :class:`State` view at ``index``."""
        return State(self, index)

    def state_of(self, assignment: Mapping[str, Any]) -> State:
        """The state described by a full name→value mapping."""
        return State(self, self.index_of(assignment))

    def states(self) -> Iterator[State]:
        """All states, in index order."""
        return (State(self, i) for i in range(self.size))

    def indices(self) -> range:
        """All state indices."""
        return range(self.size)

    # ------------------------------------------------------------------
    # cylinder structure (the basis of wcyl, paper eq. 6)
    # ------------------------------------------------------------------

    def cylinder_partition(self, names: Iterable[str]) -> Tuple[List[int], int]:
        """Partition states by their projection onto ``names``.

        Returns ``(group_of, n_groups)``: ``group_of[i]`` is the group id of
        state ``i``; two states share a group iff they agree on every
        variable in ``names``.  Group ids are dense in ``0..n_groups-1``.

        Cached per variable subset — ``wcyl`` and the knowledge operator
        call this repeatedly with each process's variable set.
        """
        key = self.check_vars(names)
        cached = self._cylinder_cache.get(key)
        if cached is not None:
            return cached
        from ..predicates import limits  # lazy: guards only, no cycle at import

        limits.check_explicit_size(self.size, "materializing a cylinder partition")
        positions = sorted(self._pos[n] for n in key)
        n_groups = 1
        weights: List[int] = []
        for k in positions:
            weights.append(n_groups)
            n_groups *= self._radix[k]
        group_of = [0] * self.size
        for k, weight in zip(positions, weights):
            stride = self._strides[k]
            radix = self._radix[k]
            for i in range(self.size):
                group_of[i] += ((i // stride) % radix) * weight
        result = (group_of, n_groups)
        self._cylinder_cache[key] = result
        return result

    def cylinder_partition_np(self, names: Iterable[str]) -> Tuple[Any, int]:
        """:meth:`cylinder_partition` as a numpy int64 array (cached).

        Computed directly with vectorized mixed-radix arithmetic — the
        grouped-reduction kernels of the numpy predicate backend consume
        this without ever materializing the Python list.
        """
        import numpy as np

        key = self.check_vars(names)
        cached = self._cylinder_np_cache.get(key)
        if cached is not None:
            return cached
        positions = sorted(self._pos[n] for n in key)
        indices = np.arange(self.size, dtype=np.int64)
        group_of = np.zeros(self.size, dtype=np.int64)
        weight = 1
        for k in positions:
            group_of += ((indices // self._strides[k]) % self._radix[k]) * weight
            weight *= self._radix[k]
        group_of.setflags(write=False)
        result = (group_of, weight)
        self._cylinder_np_cache[key] = result
        return result

    def cylinder_group_masks(self, names: Iterable[str]) -> List[int]:
        """Per-group member bitmasks of the cylinder partition (cached).

        ``masks[g]`` has bit ``i`` set iff state ``i`` belongs to group
        ``g``.  The int predicate backend reduces ``wcyl``/``scyl`` to one
        big-int test per *group* with these, instead of one Python
        iteration per state.
        """
        key = self.check_vars(names)
        cached = self._cylinder_mask_cache.get(key)
        if cached is not None:
            return cached
        group_of, n_groups = self.cylinder_partition(names)
        masks = [0] * n_groups
        bit = 1
        for g in group_of:
            masks[g] |= bit
            bit <<= 1
        self._cylinder_mask_cache[key] = masks
        return masks

    def projection(self, index: int, names: Iterable[str]) -> Tuple[Any, ...]:
        """Values of the given variables (sorted by declaration order) at ``index``."""
        positions = sorted(self.position(n) for n in self.check_vars(names))
        return tuple(
            self.variables[k].domain.values[self.digit(index, k)] for k in positions
        )

    def __getstate__(self) -> Dict[str, Any]:
        # The expression compiler's per-space memo (repro.unity.support)
        # stays in the process that built it.
        state = dict(self.__dict__)
        state.pop("_support", None)
        return state

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StateSpace):
            return self.variables == other.variables
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.variables)

    def __repr__(self) -> str:
        return f"StateSpace({', '.join(map(repr, self.variables))}; {self.size} states)"


def space_of(**domains: Domain) -> StateSpace:
    """Convenience constructor: ``space_of(x=BoolDomain(), n=IntRangeDomain(0, 3))``.

    Variable order follows keyword order (Python 3.7+ preserves it).
    """
    return StateSpace([Variable(name, dom) for name, dom in domains.items()])
