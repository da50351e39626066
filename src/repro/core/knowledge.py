"""Knowledge as a predicate transformer (paper section 3).

The central definition is eq. (13)::

    K_i p  ≡  p ∧ (wcyl.vars_i.(SI ⇒ p) ∨ ¬SI)

Process ``i`` *knows* ``p`` at a state when ``p`` holds at every global
state that is (a) possible — i.e. satisfies the strongest invariant ``SI``
— and (b) indistinguishable from the current one, i.e. agrees with it on
the variables accessible to ``i``.  The extra conjunct/disjunct gives
``K_i p`` the value of ``p`` on *unreachable* states, which the paper finds
technically convenient (it keeps eq. 14 valid everywhere).

:class:`KnowledgeOperator` fixes a state space, an ``SI`` predicate and the
process→variables map; it then interprets plain and *nested* knowledge
(``K_S K_R p``), the group operators ``E_G`` ("everyone knows") and common
knowledge ``C_G`` (greatest fixed point of ``X ↦ E_G(p ∧ X)``), which the
paper notes the approach "can easily be extended to include".
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional

from ..predicates import Predicate, iterate_to_fixpoint, wcyl
from ..statespace import StateSpace
from ..unity import Expr, Knowledge, Program
from ..unity.support import expr_predicate
from ..transformers import strongest_invariant


class KnowledgeOperator:
    """The family ``{K_i}`` for fixed ``SI`` and process views.

    Parameters
    ----------
    space:
        The underlying finite state space.
    si:
        The strongest invariant used as the set of "possible" states.  Any
        predicate is accepted — the knowledge-based-protocol solver probes
        *candidate* SIs (eq. 25) through this same class.
    process_vars:
        Mapping from process name to the set of variables it can access.
    term_cache:
        Optional shared memo of knowledge-term *bodies* (the formula under
        the ``K``), keyed by term and the fingerprints of its resolved
        subterms.  Bodies are SI-independent, so the KBP solver passes one
        cache across every candidate SI it probes — each distinct body is
        then compiled once, not once per candidate.
    """

    def __init__(
        self,
        space: StateSpace,
        si: Predicate,
        process_vars: Mapping[str, Iterable[str]],
        term_cache: Optional[Dict] = None,
    ):
        if si.space != space:
            raise ValueError("SI predicate over a different state space")
        self.space = space
        self.si = si
        self.process_vars: Dict[str, FrozenSet[str]] = {
            name: space.check_vars(variables)
            for name, variables in process_vars.items()
        }
        if not self.process_vars:
            raise ValueError("at least one process is required")
        self._term_cache: Dict = term_cache if term_cache is not None else {}

    @classmethod
    def of_program(cls, program: Program, si: Optional[Predicate] = None) -> "KnowledgeOperator":
        """The operator of a *standard* program (``SI`` computed by eq. 1–5).

        Pass ``si`` explicitly to probe a candidate SI of a knowledge-based
        protocol instead.
        """
        if si is None:
            si = strongest_invariant(program)
        return cls(
            program.space,
            si,
            {p.name: p.variables for p in program.processes.values()},
        )

    # ------------------------------------------------------------------
    # the transformer itself
    # ------------------------------------------------------------------

    def vars_of(self, process: str) -> FrozenSet[str]:
        """The variables accessible to ``process``."""
        try:
            return self.process_vars[process]
        except KeyError:
            raise KeyError(
                f"unknown process {process!r} (have {sorted(self.process_vars)})"
            ) from None

    def knows(self, process: str, p: Predicate) -> Predicate:
        """``K_i p`` per eq. (13)."""
        if p.space != self.space:
            raise ValueError("predicate over a different state space")
        variables = self.vars_of(process)
        cylinder = wcyl(variables, self.si.implies(p))
        return p & (cylinder | ~self.si)

    def knows_simple(self, process: str, p: Predicate) -> Predicate:
        """The preliminary definition ``wcyl.vars_i.(SI ⇒ p)`` (pre-eq.-13).

        Agrees with :meth:`knows` on all reachable states; differs only in
        the value assigned on ``¬SI``.
        """
        return wcyl(self.vars_of(process), self.si.implies(p))

    def possible(self, process: str, p: Predicate) -> Predicate:
        """The epistemic dual ``¬K_i¬p`` — "process i considers p possible"."""
        return ~self.knows(process, ~p)

    # ------------------------------------------------------------------
    # group knowledge
    # ------------------------------------------------------------------

    def everyone_knows(self, group: Iterable[str], p: Predicate) -> Predicate:
        """``E_G p = (∀ i ∈ G : K_i p)``."""
        processes = list(group)
        if not processes:
            raise ValueError("E_G needs a non-empty group")
        out = None
        for process in processes:
            known = self.knows(process, p)
            out = known if out is None else out & known
        return out

    def common_knowledge(self, group: Iterable[str], p: Predicate) -> Predicate:
        """``C_G p`` — greatest fixed point of ``X ↦ E_G(p ∧ X)``.

        Equivalently the limit of ``E_G p ∧ E_G E_G p ∧ …``; on a finite
        space the descending chain stabilizes.
        """
        processes = list(group)

        def step(x: Predicate) -> Predicate:
            return self.everyone_knows(processes, p & x)

        result = iterate_to_fixpoint(
            step, Predicate.true(self.space), name="common_knowledge E_G-chain"
        )
        return result.require()

    def distributed_knowledge(self, group: Iterable[str], p: Predicate) -> Predicate:
        """``D_G p`` — knowledge of the combined view ``∪ vars_i``.

        What the group would know if the processes pooled their variables;
        the implicit-knowledge variant of [HM90].
        """
        processes = list(group)
        if not processes:
            raise ValueError("D_G needs a non-empty group")
        pooled: FrozenSet[str] = frozenset()
        for process in processes:
            pooled |= self.vars_of(process)
        cylinder = wcyl(pooled, self.si.implies(p))
        return p & (cylinder | ~self.si)

    # ------------------------------------------------------------------
    # expression interpretation (nested K terms)
    # ------------------------------------------------------------------

    def predicate_of(self, expr: Expr) -> Predicate:
        """The predicate denoted by an expression, resolving nested ``K`` terms.

        Knowledge terms are resolved innermost-first against *this*
        operator's SI; the expression compiler then combines the
        surrounding Boolean structure (:mod:`repro.unity.support`).
        """
        resolution = self.resolve_terms(expr.knowledge_terms())
        return expr_predicate(self.space, expr, resolution)

    def resolve_terms(
        self, terms: Iterable[Knowledge]
    ) -> Dict[Knowledge, Predicate]:
        """Concrete predicates for knowledge terms (innermost-out).

        The result maps every term *and its nested subterms* to predicates,
        suitable for :meth:`repro.unity.Program.resolve`.
        """
        resolution: Dict[Knowledge, Predicate] = {}
        for term in terms:
            self._resolve_term(term, resolution)
        return resolution

    def _resolve_term(
        self, term: Knowledge, resolution: Dict[Knowledge, Predicate]
    ) -> Predicate:
        if term in resolution:
            return resolution[term]
        inner_terms = sorted(term.formula.knowledge_terms(), key=repr)
        for inner in inner_terms:
            self._resolve_term(inner, resolution)
        # The body (the formula under K) depends only on the resolved
        # subterms, not on SI — memoize it across SIs sharing this cache.
        key = (term, tuple(resolution[inner].fingerprint() for inner in inner_terms))
        body = self._term_cache.get(key)
        if body is None:
            body = expr_predicate(self.space, term.formula, resolution)
            self._term_cache[key] = body
        resolved = self.knows(term.process, body)
        resolution[term] = resolved
        return resolved

    def with_si(self, si: Predicate) -> "KnowledgeOperator":
        """The same processes with a different (candidate) SI."""
        return KnowledgeOperator(
            self.space, si, self.process_vars, term_cache=self._term_cache
        )

    def __repr__(self) -> str:
        return (
            f"KnowledgeOperator(processes={sorted(self.process_vars)}, "
            f"SI holds at {self.si.count()}/{self.space.size} states)"
        )
