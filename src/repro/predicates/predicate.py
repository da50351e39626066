"""Semantic predicates as exact bitsets over a finite state space.

A predicate is a Boolean valued total function on the state space (paper
section 2).  Over a finite space this is exactly a subset of states, which we
represent as a Python integer bitmask: bit ``i`` is set iff the predicate
holds in the state with index ``i``.  All the pointwise operators of the
paper's predicate calculus — ``∧ ∨ ¬ ⇒ ⇐ ≡`` — become single integer
operations, and the *everywhere* operator ``[p]`` is a comparison against the
full mask.

Note the paper's (and Dijkstra–Scholten's) convention: ``p ⇒ q`` applied
pointwise is itself a predicate; universal validity is written ``[p ⇒ q]``.
We mirror this: :meth:`Predicate.implies` is pointwise, and
:meth:`Predicate.entails` / :func:`everywhere` close it under ``[·]``.

Representation is pluggable (:mod:`repro.predicates.backends`): alongside
the exact int mask, a predicate may carry a *backend handle* (e.g. a
packed numpy word array).  Predicates produced by backend kernels hold
only the handle and materialize ``.mask`` lazily, so whole fixpoint chains
stay in array form; the two views are kept interchangeable and all
operators transparently route through whichever is present.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, Union

from ..statespace import State, StateSpace
from . import limits


class BackendMismatchError(TypeError):
    """Two predicates bound to *different* handle-keeping backends met.

    Combining them would silently round-trip one side through an int mask
    (defeating the backend's representation, and impossible for symbolic
    spaces).  The fix is to keep a chain on one backend — convert
    explicitly with ``p.handle(backend)`` / ``backend.wrap`` if mixing is
    really intended.
    """

    def __init__(self, left, right):
        super().__init__(
            f"cannot combine predicates from different backends: "
            f"{left.name!r} vs {right.name!r}; keep the chain on one backend "
            "or convert explicitly via Predicate.handle(backend)"
        )
        self.left = left
        self.right = right


class Predicate:
    """A subset of a state space, closed under the predicate calculus.

    Instances are immutable.  Operators::

        p & q    pointwise conjunction          p | q    pointwise disjunction
        ~p       pointwise negation             p ^ q    pointwise xor
        p - q    p ∧ ¬q
        p.implies(q)   pointwise ⇒ (a Predicate)
        p.iff(q)       pointwise ≡ (a Predicate)
        p.entails(q)   the Boolean [p ⇒ q]
        p == q         the Boolean [p ≡ q]
    """

    __slots__ = ("space", "_mask", "_backend", "_handle", "_fp")

    def __init__(self, space: StateSpace, mask: int):
        # Shift test instead of comparing against full_mask: huge (symbolic)
        # spaces must never materialize a 2^size-bit constant.
        if mask < 0 or mask >> space.size:
            raise ValueError(
                f"mask {mask:#x} out of range for a space of {space.size} states"
            )
        self.space = space
        self._mask: Optional[int] = mask
        self._backend = None
        self._handle = None
        self._fp: Optional[bytes] = None

    @classmethod
    def _from_handle(cls, space: StateSpace, backend, handle) -> "Predicate":
        """A predicate holding only a backend handle (mask materialized lazily).

        Internal — backends guarantee the handle is in range and keeps
        out-of-space bits zero, so no validation happens here.
        """
        p = cls.__new__(cls)
        p.space = space
        p._mask = None
        p._backend = backend
        p._handle = handle
        p._fp = None
        return p

    @property
    def mask(self) -> int:
        """The exact int bitmask (computed from the handle on first access)."""
        m = self._mask
        if m is None:
            m = self._backend.to_mask(self._handle, self.space.size)
            self._mask = m
        return m

    def handle(self, backend):
        """This predicate's handle under ``backend`` (cached on the instance)."""
        if self._backend is backend and self._handle is not None:
            return self._handle
        h = backend.from_mask_in(self.space, self.mask)
        self._backend = backend
        self._handle = h
        return h

    def fingerprint(self) -> bytes:
        """Canonical little-endian bytes — identical across backends.

        The key the transformer / knowledge-resolution caches use; equal
        predicates fingerprint equally no matter how they were computed.
        Memoized per instance — every cache layer hashes it.
        """
        fp = self._fp
        if fp is None:
            if self._mask is None:
                fp = self._backend.fingerprint(self._handle, self.space.size)
            elif self.space.size > limits.get_limit("explicit"):
                # Mask-born predicate over a symbolic-scale space (e.g. a
                # sparse from_indices): fingerprint structurally via the
                # symbolic backend rather than a 2^size-bit byte string.
                bk = _symbolic_backend()
                fp = bk.fingerprint(self.handle(bk), self.space.size)
            else:
                fp = self._mask.to_bytes((self.space.size + 7) // 8, "little")
            self._fp = fp
        return fp

    def _route(self, other: "Predicate"):
        """The handle-keeping backend to combine under, or None for int masks.

        Raises :class:`BackendMismatchError` when both operands are bound
        to *different* handle-keeping backends — never silently falls back
        to an int-mask round-trip.  "Bound" means handle-*only*: a
        predicate whose mask is materialized merely caches a handle (a
        long-lived predicate may accumulate handles from several backend
        scopes over its lifetime) and re-routes freely, no round-trip
        involved.
        """
        mine = self._backend
        if not (mine is not None and mine.keeps_handles and self._handle is not None):
            mine = None
        theirs = other._backend
        if not (
            theirs is not None
            and theirs.keeps_handles
            and other._handle is not None
        ):
            theirs = None
        if mine is not None and theirs is not None and mine is not theirs:
            if self._mask is None and other._mask is None:
                raise BackendMismatchError(mine, theirs)
            # At least one side still has its mask: keep the side that
            # exists only as a handle (both masked: keep the left).
            return mine if other._mask is not None else theirs
        return mine if mine is not None else theirs

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def true(cls, space: StateSpace) -> "Predicate":
        """The predicate holding everywhere.

        On spaces past the explicit-state limit this is a symbolic handle
        (the full mask would be a 2^size-bit integer).
        """
        if space.size > limits.get_limit("explicit"):
            bk = _symbolic_backend()
            return cls._from_handle(space, bk, bk.constant(space, True))
        return cls(space, space.full_mask)

    @classmethod
    def false(cls, space: StateSpace) -> "Predicate":
        """The predicate holding nowhere."""
        if space.size > limits.get_limit("explicit"):
            bk = _symbolic_backend()
            return cls._from_handle(space, bk, bk.constant(space, False))
        return cls(space, 0)

    @classmethod
    def from_callable(
        cls, space: StateSpace, fn: Callable[[State], Any]
    ) -> "Predicate":
        """Lift a Python function on states to a predicate (evaluated once per state)."""
        limits.check_explicit_size(space.size, "Predicate.from_callable")
        mask = 0
        for i in range(space.size):
            if fn(State(space, i)):
                mask |= 1 << i
        return cls(space, mask)

    @classmethod
    def from_indices(cls, space: StateSpace, indices: Iterable[int]) -> "Predicate":
        """The predicate holding exactly at the given state indices."""
        mask = 0
        for i in indices:
            if not 0 <= i < space.size:
                raise IndexError(f"state index {i} out of range")
            mask |= 1 << i
        return cls(space, mask)

    @classmethod
    def from_fingerprint(cls, space: StateSpace, fingerprint: bytes) -> "Predicate":
        """Rebuild a predicate from its canonical :meth:`fingerprint` bytes.

        The inverse of :meth:`fingerprint`, used by certificate
        deserialization.  Validation is strict: the byte string must have
        exactly ``ceil(size / 8)`` bytes and may not set bits at positions
        ``≥ size`` — both indicate an artifact from a different space (or a
        tampered one), never a representable predicate.
        """
        expected = (space.size + 7) // 8
        if len(fingerprint) != expected:
            raise ValueError(
                f"fingerprint has {len(fingerprint)} bytes; a space of "
                f"{space.size} states needs exactly {expected}"
            )
        mask = int.from_bytes(fingerprint, "little")
        if mask > space.full_mask:
            raise ValueError(
                f"fingerprint sets bits at state indices >= {space.size}"
            )
        return cls(space, mask)

    # ------------------------------------------------------------------
    # the predicate calculus (pointwise operators)
    # ------------------------------------------------------------------

    def _check(self, other: "Predicate") -> None:
        if not isinstance(other, Predicate):
            raise TypeError(f"expected a Predicate, got {type(other).__name__}")
        if other.space is not self.space and other.space != self.space:
            raise ValueError("predicates over different state spaces")

    def __and__(self, other: "Predicate") -> "Predicate":
        self._check(other)
        bk = self._route(other)
        if bk is not None:
            size = self.space.size
            return Predicate._from_handle(
                self.space, bk, bk.and_(self.handle(bk), other.handle(bk), size)
            )
        return Predicate(self.space, self.mask & other.mask)

    def __or__(self, other: "Predicate") -> "Predicate":
        self._check(other)
        bk = self._route(other)
        if bk is not None:
            size = self.space.size
            return Predicate._from_handle(
                self.space, bk, bk.or_(self.handle(bk), other.handle(bk), size)
            )
        return Predicate(self.space, self.mask | other.mask)

    def __xor__(self, other: "Predicate") -> "Predicate":
        self._check(other)
        bk = self._route(other)
        if bk is not None:
            size = self.space.size
            return Predicate._from_handle(
                self.space, bk, bk.xor(self.handle(bk), other.handle(bk), size)
            )
        return Predicate(self.space, self.mask ^ other.mask)

    def __invert__(self) -> "Predicate":
        bk = self._backend
        if bk is not None and bk.keeps_handles and self._handle is not None:
            size = self.space.size
            return Predicate._from_handle(
                self.space, bk, bk.not_(self._handle, size)
            )
        return Predicate(self.space, self.space.full_mask & ~self.mask)

    def __sub__(self, other: "Predicate") -> "Predicate":
        self._check(other)
        bk = self._route(other)
        if bk is not None:
            size = self.space.size
            return Predicate._from_handle(
                self.space, bk, bk.diff(self.handle(bk), other.handle(bk), size)
            )
        return Predicate(self.space, self.mask & ~other.mask)

    def implies(self, other: "Predicate") -> "Predicate":
        """Pointwise ``self ⇒ other`` (a predicate, per the paper's convention)."""
        self._check(other)
        bk = self._route(other)
        if bk is not None:
            size = self.space.size
            return Predicate._from_handle(
                self.space,
                bk,
                bk.or_(
                    bk.not_(self.handle(bk), size), other.handle(bk), size
                ),
            )
        return Predicate(
            self.space, (self.space.full_mask & ~self.mask) | other.mask
        )

    def iff(self, other: "Predicate") -> "Predicate":
        """Pointwise ``self ≡ other``."""
        self._check(other)
        bk = self._route(other)
        if bk is not None:
            size = self.space.size
            return Predicate._from_handle(
                self.space,
                bk,
                bk.not_(
                    bk.xor(self.handle(bk), other.handle(bk), size), size
                ),
            )
        return Predicate(self.space, self.space.full_mask & ~(self.mask ^ other.mask))

    # ------------------------------------------------------------------
    # the everywhere operator [·]
    # ------------------------------------------------------------------

    def is_everywhere(self) -> bool:
        """The Boolean ``[self]`` — true iff the predicate holds in every state."""
        if self._mask is None:
            return self._backend.is_full(self._handle, self.space.size)
        return self._mask == self.space.full_mask

    def is_false(self) -> bool:
        """True iff the predicate holds in no state."""
        if self._mask is None:
            return self._backend.is_false(self._handle, self.space.size)
        return self._mask == 0

    def entails(self, other: "Predicate") -> bool:
        """The Boolean ``[self ⇒ other]`` ("self is stronger than other")."""
        self._check(other)
        bk = self._route(other)
        if bk is not None and (self._mask is None or other._mask is None):
            size = self.space.size
            return bk.is_false(
                bk.diff(self.handle(bk), other.handle(bk), size), size
            )
        return self.mask & ~other.mask == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Predicate):
            self._check(other)
            if self._mask is not None and other._mask is not None:
                return self._mask == other._mask
            bk = self._backend
            if (
                bk is not None
                and bk is other._backend
                and self._handle is not None
                and other._handle is not None
            ):
                return bk.equal(self._handle, other._handle, self.space.size)
            return self.mask == other.mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.space), self.fingerprint()))

    # ------------------------------------------------------------------
    # extension queries
    # ------------------------------------------------------------------

    def holds_at(self, state: Union[State, int]) -> bool:
        """Whether the predicate holds in a given state (or state index)."""
        index = state.index if isinstance(state, State) else state
        if not 0 <= index < self.space.size:
            raise IndexError(f"state index {index} out of range")
        # Prefer a cached handle: O(1) word probe instead of a big-int shift.
        if self._handle is not None:
            return self._backend.test_bit(self._handle, index)
        return bool(self.mask >> index & 1)

    def count(self) -> int:
        """Number of states satisfying the predicate."""
        if self._mask is None:
            return self._backend.popcount(self._handle, self.space.size)
        return self._mask.bit_count()

    def indices(self) -> Iterator[int]:
        """Indices of satisfying states, ascending."""
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def states(self) -> Iterator[State]:
        """Satisfying states, in index order."""
        return (State(self.space, i) for i in self.indices())

    def example(self) -> State:
        """Some satisfying state (the least-index one).

        Raises :class:`ValueError` when the predicate is everywhere false.
        """
        if self._mask is None:
            idx = self._backend.some_index(self._handle, self.space.size)
            if idx is None:
                raise ValueError("predicate is everywhere false; no example state")
            return State(self.space, idx)
        if self.mask == 0:
            raise ValueError("predicate is everywhere false; no example state")
        return State(self.space, (self.mask & -self.mask).bit_length() - 1)

    def __bool__(self) -> bool:
        raise TypeError(
            "a Predicate has no implicit truth value; use [p] via is_everywhere(), "
            "satisfiability via not is_false(), or [p ⇒ q] via entails()"
        )

    def __repr__(self) -> str:
        tag = ""
        bk = self._backend
        if bk is not None and self._handle is not None:
            tag = f"; backend={bk.name}, handle={type(self._handle).__name__}"
        n = self.count()
        if n == 0:
            return f"Predicate(false{tag})"
        if n == self.space.size:
            return f"Predicate(true{tag})"
        if n <= 4 and self.space.size <= limits.get_limit("explicit"):
            shown = ", ".join(repr(s.as_dict()) for s in self.states())
            return f"Predicate({{{shown}}}{tag})"
        return f"Predicate({n}/{self.space.size} states{tag})"


def _symbolic_backend():
    """The registered symbolic (ROBDD) backend — lazy to avoid an import cycle."""
    from .backends import get_backend

    return get_backend("robdd")


def everywhere(p: Predicate) -> bool:
    """The everywhere operator ``[p]`` as a free function."""
    return p.is_everywhere()


def conjunction(space: StateSpace, predicates: Iterable[Predicate]) -> Predicate:
    """``(∀ v : v ∈ W : v)`` — conjunction over a (possibly empty) bag.

    The empty conjunction is ``true``, matching universal quantification
    over an empty range.  Folds with the ``&`` operator so handle-backed
    (e.g. symbolic) operands stay on their backend.
    """
    acc = Predicate.true(space)
    for p in predicates:
        if p.space is not space and p.space != space:
            raise ValueError("predicates over different state spaces")
        acc = acc & p
    return acc


def disjunction(space: StateSpace, predicates: Iterable[Predicate]) -> Predicate:
    """``(∃ v : v ∈ W : v)`` — disjunction over a (possibly empty) bag.

    The empty disjunction is ``false``.  Folds with ``|`` so handle-backed
    operands stay on their backend.
    """
    acc = Predicate.false(space)
    for p in predicates:
        if p.space is not space and p.space != space:
            raise ValueError("predicates over different state spaces")
        acc = acc | p
    return acc
