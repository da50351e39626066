"""The ``PredicateBackend`` protocol: the kernels every representation owns.

A predicate over a finite space is semantically a subset of state indices.
How that subset is *represented* — an exact Python-int bitmask, a packed
numpy ``uint64`` word array, in the future a BDD or a shard of a
distributed bitset — is a backend decision.  Every hot set operation the
paper's machinery needs bottoms out in the small kernel vocabulary below:

========================  =====================================================
kernel                    used by
========================  =====================================================
``image``                 ``sp`` (eq. 26) — image of a set under a successor map
``preimage``              ``wp``/``wlp``, the model checker's backward passes
``quantify_groups``       ``wcyl``/``scyl`` (eq. 6) — ∀/∃ over cylinder groups
``constant_on_groups``    ``depends_only_on`` (eq. 9)
``popcount``/``equal``    fixpoint convergence, reporting
boolean algebra           the predicate calculus itself
========================  =====================================================

Backends operate on opaque *handles*.  A handle is whatever the backend
finds fastest (the int backend's handle *is* the mask; the numpy backend's
is a packed word array); :class:`~repro.predicates.predicate.Predicate`
caches one handle per instance so a fixpoint chain stays in backend form
end to end instead of round-tripping through Python ints per call.

All kernels receive ``size`` (the number of states) because handles do not
necessarily record it.  Backends must keep any bits beyond ``size`` zero so
that fingerprints are canonical across backends.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple


class PredicateBackend:
    """Abstract base for predicate representations (see module docstring).

    Subclasses set ``name`` (the registry key) and ``keeps_handles``
    (whether results should stay in handle form on the ``Predicate``
    rather than being materialized to int masks eagerly).
    """

    name: str = "abstract"
    #: Whether Predicate results should carry the handle lazily (True for
    #: array backends, False when the handle *is* the exact mask).
    keeps_handles: bool = False
    #: Capability flags.  ``symbolic`` backends represent sets by structure
    #: (BDD nodes) and never enumerate states — guards that refuse huge
    #: explicit spaces must not fire for them.  ``enumerable`` backends can
    #: materialize exact int masks / iterate member indices in O(#states).
    symbolic: bool = False
    enumerable: bool = True

    # ------------------------------------------------------------------
    # handle conversion
    # ------------------------------------------------------------------

    def from_mask(self, mask: int, size: int) -> Any:
        raise NotImplementedError

    def from_mask_in(self, space, mask: int) -> Any:
        """Handle for ``mask`` over ``space``.

        Explicit backends only need ``size`` and delegate to
        :meth:`from_mask`; symbolic backends override — their encoding is
        derived from the space's variable structure, not a flat index range.
        """
        return self.from_mask(mask, space.size)

    def to_mask(self, handle: Any, size: int) -> int:
        raise NotImplementedError

    def fingerprint(self, handle: Any, size: int) -> bytes:
        """Canonical little-endian bytes of the bitset, ``(size+7)//8`` long.

        Equal predicates must fingerprint identically *across* backends —
        this is what keys the transformer and solver caches.
        """
        raise NotImplementedError

    def wrap(self, space, handle) -> "Any":
        """A :class:`Predicate` over ``space`` holding ``handle``."""
        from ..predicate import Predicate

        if self.keeps_handles:
            return Predicate._from_handle(space, self, handle)
        return Predicate(space, handle)

    def constant(self, space, value: bool) -> Any:
        """The ``true``/``false`` handle over ``space``."""
        mask = (1 << space.size) - 1 if value else 0
        return self.from_mask_in(space, mask)

    def some_index(self, handle: Any, size: int):
        """Index of some satisfying state (the least one), or ``None``.

        Symbolic backends override with a minimal-satisfying-path walk;
        the default round-trips through the mask.
        """
        m = self.to_mask(handle, size)
        if m == 0:
            return None
        return (m & -m).bit_length() - 1

    # ------------------------------------------------------------------
    # boolean algebra on handles
    # ------------------------------------------------------------------

    def and_(self, a: Any, b: Any, size: int) -> Any:
        raise NotImplementedError

    def or_(self, a: Any, b: Any, size: int) -> Any:
        raise NotImplementedError

    def xor(self, a: Any, b: Any, size: int) -> Any:
        raise NotImplementedError

    def not_(self, a: Any, size: int) -> Any:
        raise NotImplementedError

    def diff(self, a: Any, b: Any, size: int) -> Any:
        """``a ∧ ¬b``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def popcount(self, handle: Any, size: int) -> int:
        raise NotImplementedError

    def equal(self, a: Any, b: Any, size: int) -> bool:
        raise NotImplementedError

    def is_false(self, handle: Any, size: int) -> bool:
        raise NotImplementedError

    def is_full(self, handle: Any, size: int) -> bool:
        raise NotImplementedError

    def test_bit(self, handle: Any, index: int) -> bool:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # relational kernels (successor tables)
    # ------------------------------------------------------------------

    def build_table(self, program, stmt) -> Any:
        """The backend's preferred representation of ``stmt``'s successor map.

        Cached per (backend, statement) by ``Program.kernel_table``.
        """
        raise NotImplementedError

    def table_from_array(self, succ, size: int) -> Any:
        """The backend's successor-map representation from a raw index array.

        Like :meth:`build_table`, but fed a plain sequence instead of a
        ``(program, statement)`` pair — the batched-Φ plans carry successor
        arrays as data precisely so worker processes need no programs.
        """
        raise NotImplementedError

    def table_from_array_in(self, space, succ) -> Any:
        """:meth:`table_from_array` with the space available.

        Symbolic backends override: they turn the array into a relation
        over the space's encoded bit levels.
        """
        return self.table_from_array(succ, space.size)

    def stmt_relation(self, program, stmt) -> Any:
        """A *relational* transition representation of ``stmt``.

        Built from the statement's expressions over state-variable bit
        vectors, binding only the written variables' successor copies and
        keeping the guard-false states as a skip set, so ``image``/
        ``preimage`` forget and re-bind just the written variables.  Only
        symbolic backends represent transitions this way; explicit
        backends keep successor arrays.
        """
        raise NotImplementedError(
            f"backend {self.name!r} has no relational transition "
            "representation; use build_table (successor arrays)"
        )

    def image(self, handle: Any, table: Any, size: int) -> Any:
        """``{succ[i] : i ∈ handle}`` — the ``sp`` kernel."""
        raise NotImplementedError

    def preimage(self, handle: Any, table: Any, size: int) -> Any:
        """``{i : succ[i] ∈ handle}`` — the ``wp`` kernel."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # batched Φ (the eq.-25 sweep kernel)
    # ------------------------------------------------------------------

    def batch_phi(self, plan, masks) -> List[int]:
        """``Φ(x) = sst_{P_x}(init)`` for a batch of candidate masks.

        Two stages: :meth:`batch_resolve` (eq. 13, the candidates' term and
        guard handles) and :meth:`batch_chain` (the eq.-(3) Kleene chain).
        The certified sweep runs them apart to read the first stage's
        masks through :meth:`batch_rows`; this call converts nothing.
        The base implementation is the exact per-candidate loop over this
        backend's scalar kernels — the reference the vectorized overrides
        must match bit for bit.  ``plan`` is a
        :class:`~repro.predicates.backends.batch.PhiPlan`.
        """
        return self.batch_chain(plan, self.batch_resolve(plan, masks))

    def batch_resolve(self, plan, masks) -> Any:
        """Each candidate's eq.-(13) term handles and knowledge-guard handles.

        Raises :class:`~repro.predicates.backends.batch.BatchPoisonError`
        when a candidate's guard enables a poisoned state.  The result is
        opaque: :meth:`batch_chain` and :meth:`batch_rows` read it.
        ``plan`` is accessed only through its memoizing accessors
        (``init_handle``/``term_body``/``group_table``/``poison_handle``/
        ``succ_table``/``static_handle``), so each shared mask or array is
        converted to a handle once per process, not once per candidate.
        """
        from .batch import BatchPoisonError, eval_guard_postfix

        size = plan.space.size
        out = []
        for mask in masks:
            x = self.from_mask_in(plan.space, mask)
            not_x = self.not_(x, size)
            terms = []
            for position in range(len(plan.terms)):
                body = plan.term_body(self, position)
                table = plan.group_table(self, position)
                implication = self.or_(not_x, body, size)  # x ⇒ body, pointwise
                cylinder = self.quantify_groups(implication, table, size, True)
                terms.append(
                    self.and_(body, self.or_(cylinder, not_x, size), size)
                )
            guards = []
            for index, stmt in enumerate(plan.statements):
                if stmt.guard is None:
                    guards.append(None)
                    continue
                g = eval_guard_postfix(self, plan, stmt.guard, terms, size)
                poison = plan.poison_handle(self, index)
                if poison is not None and not self.is_false(
                    self.and_(g, poison, size), size
                ):
                    raise BatchPoisonError(mask, stmt.name)
                guards.append(g)
            out.append((terms, guards))
        return out

    def batch_chain(self, plan, resolved) -> List[int]:
        """Each candidate's Φ mask from :meth:`batch_resolve`'s result."""
        size = plan.space.size
        init = plan.init_handle(self)
        out = []
        for _, guards in resolved:
            current = self.constant(plan.space, False)
            # f.y = init ∨ SP_{P_x}.y is monotone once the guards are fixed,
            # so the Kleene chain from false stabilizes within size + 1 steps.
            for _ in range(size + 2):
                acc = init
                for index, g in enumerate(guards):
                    table = plan.succ_table(self, index)
                    if g is None:
                        post = self.image(current, table, size)
                    else:
                        post = self.or_(
                            self.image(self.and_(current, g, size), table, size),
                            self.diff(current, g, size),
                            size,
                        )
                    acc = self.or_(acc, post, size)
                if self.equal(acc, current, size):
                    break
                current = acc
            else:  # pragma: no cover - monotone chains always stop
                raise RuntimeError(
                    f"batched Φ chain exceeded {size + 2} steps on {size} states"
                )
            out.append(self.to_mask(current, size))
        return out

    def batch_rows(
        self, plan, resolved
    ) -> List[Tuple[Tuple[int, ...], Tuple[Optional[int], ...]]]:
        """``(term_masks, guard_masks)`` per candidate, as exact ints.

        Terms follow ``plan.terms``; guards follow ``plan.statements``,
        ``None`` where the statement's guard is not knowledge-based.
        """
        size = plan.space.size
        return [
            (
                tuple(self.to_mask(t, size) for t in terms),
                tuple(None if g is None else self.to_mask(g, size) for g in guards),
            )
            for terms, guards in resolved
        ]

    # ------------------------------------------------------------------
    # cylinder kernels (group tables)
    # ------------------------------------------------------------------

    def group_table(self, space, names) -> Any:
        """The backend's representation of ``space.cylinder_partition(names)``."""
        raise NotImplementedError

    def quantify_groups(
        self, handle: Any, table: Any, size: int, universal: bool
    ) -> Any:
        """∀ (``universal``) or ∃ over each cylinder group, broadcast back.

        ``universal=True`` is ``wcyl`` (a state survives iff the predicate
        holds at *every* group member); ``False`` is ``scyl`` (*some*).
        """
        raise NotImplementedError

    def constant_on_groups(self, handle: Any, table: Any, size: int) -> bool:
        """Whether the predicate is constant on every cylinder group."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
