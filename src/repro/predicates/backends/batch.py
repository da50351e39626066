"""The batched-Φ plan: candidate-independent data for whole-batch sweeps.

The exhaustive eq.-(25) solver evaluates ``Φ(x) = sst_{P_x}(init)`` for an
exponential family of candidate invariants ``x``.  Per candidate, only two
ingredients actually vary:

* each knowledge term resolves to ``body ∧ (wcyl.V.(x ⇒ body) ∨ ¬x)``
  (paper eq. 13) — ``body`` is the SI-independent formula under the ``K``;
* each knowledge-based statement's *guard* predicate, a Boolean combination
  of resolved knowledge terms and knowledge-free static leaves.

Everything else — successor arrays, the initial condition, cylinder
partitions, static guard leaves — is shared by every ``P_x``.  A
:class:`PhiPlan` freezes that shared structure as plain masks and index
arrays so a predicate backend can evaluate Φ for *batches* of candidate
masks at once without touching programs, expressions, or resolvers:

* :meth:`~repro.predicates.backends.base.PredicateBackend.batch_phi` is
  the entry point every backend implements, in two stages:
  ``batch_resolve`` (eq. 13's term handles and the guard handles) and
  ``batch_chain`` (the Kleene chain); certified sweeps read the first
  stage's masks through ``batch_rows``.  The base class provides an
  exact per-candidate loop over its scalar kernels (what the int backend
  uses), and the numpy backend overrides the stages with fully vectorized
  sweeps over a ``(batch, words)`` ``uint64`` matrix;
* the plan is *compiled* from a knowledge-based :class:`repro.unity.Program`
  by :func:`repro.core.parallel.compile_phi_plan` (the layering keeps this
  module free of unity/core imports: only masks, names, and index tuples
  appear here).

Guards are compiled to a tiny postfix program over the stack ops
``("term", i)``, ``("static", mask)``, ``("not",)``, ``("and",)``,
``("or",)``, ``("xor",)`` — enough for the Boolean connectives; anything
richer makes the program ineligible and the solver falls back to the
per-candidate path.

Exactness contract: for every eligible program and candidate mask,
``batch_phi`` must return the same mask the serial resolver computes —
the differential tests enforce this across backends.  States where the
*unguarded* right-hand sides leave a variable's domain are recorded in
``poison_mask``; a candidate whose guard enables such a state raises
:class:`BatchPoisonError`, and the caller re-runs that candidate serially
so the exact :class:`~repro.unity.program.GuardDomainError` surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


class BatchPoisonError(Exception):
    """A batched candidate enables a statement whose unguarded successor is undefined.

    Carries the offending candidate mask and statement name; the sweep
    re-runs that candidate through the serial resolver, which raises the
    original :class:`~repro.unity.program.GuardDomainError` verbatim.
    """

    def __init__(self, candidate_mask: int, statement: str):
        self.candidate_mask = candidate_mask
        self.statement = statement
        super().__init__(
            f"candidate {candidate_mask:#x} enables statement {statement!r} "
            "at a state where its unguarded successor leaves the domain"
        )


@dataclass(frozen=True)
class TermPlan:
    """One knowledge term ``K_V(body)`` with its SI-independent pieces.

    ``body_mask`` is the exact bitset of the (knowledge-free) formula under
    the ``K``; ``variables`` is the owning process's view — the cylinder
    key of eq. (13)'s ``wcyl``.
    """

    body_mask: int
    variables: Tuple[str, ...]


@dataclass(frozen=True)
class StatementPlan:
    """One statement's successor map plus (for knowledge-based ones) its guard.

    ``guard is None`` means the successor array already encodes the full
    statement semantics (knowledge-free statement, guard included as skip).
    Otherwise ``succ`` is the *unguarded* assignment successor and the
    postfix ``guard`` program decides, per candidate, where it applies:

        sp.s.p = image(p ∧ g, succ) ∨ (p ∧ ¬g)

    ``poison_mask`` marks states where the unguarded successor is undefined
    (domain exit); enabling one is a :class:`BatchPoisonError`.
    """

    name: str
    succ: Tuple[int, ...]
    guard: Optional[Tuple[Tuple[Any, ...], ...]] = None
    poison_mask: int = 0


@dataclass
class PhiPlan:
    """Candidate-independent compilation of ``Φ`` for one program.

    Carries per-backend memos for successor tables and static handles so a
    backend converts each shared mask/array exactly once per process.
    Pool workers and socket workers receive the plan by value; the memos
    are process-local handles and never travel (:meth:`__getstate__`).
    """

    space: Any  # repro.statespace.StateSpace (duck-typed; no import cycle)
    init_mask: int
    statements: Tuple[StatementPlan, ...]
    terms: Tuple[TermPlan, ...]
    _tables: Dict[Tuple[str, int], Any] = field(default_factory=dict, repr=False)
    _statics: Dict[Tuple[str, int], Any] = field(default_factory=dict, repr=False)

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_tables"] = {}
        state["_statics"] = {}
        return state

    def succ_table(self, backend, index: int) -> Any:
        """Statement ``index``'s successor map in ``backend``'s preferred form."""
        key = (backend.name, index)
        table = self._tables.get(key)
        if table is None:
            table = backend.table_from_array_in(
                self.space, self.statements[index].succ
            )
            self._tables[key] = table
        return table

    def static_handle(self, backend, mask: int) -> Any:
        """A shared constant mask as a backend handle (memoized per backend)."""
        key = (backend.name, mask)
        handle = self._statics.get(key)
        if handle is None:
            handle = backend.from_mask_in(self.space, mask)
            self._statics[key] = handle
        return handle

    # ------------------------------------------------------------------
    # the plan interface ``batch_phi`` evaluates against
    #
    # ``batch_resolve``/``batch_chain`` never touch the raw mask fields below
    # this line — they go through these accessors, which convert each
    # shared mask to a backend handle once per process.  Guard postfix
    # programs reference statics by mask (``("static", mask)``).
    # ------------------------------------------------------------------

    def init_handle(self, backend) -> Any:
        """The initial condition as a backend handle."""
        return self.static_handle(backend, self.init_mask)

    def term_body(self, backend, index: int) -> Any:
        """Knowledge term ``index``'s body predicate as a backend handle."""
        return self.static_handle(backend, self.terms[index].body_mask)

    def group_table(self, backend, index: int) -> Any:
        """Term ``index``'s cylinder partition in ``backend``'s form."""
        variables = self.terms[index].variables
        key = (backend.name, variables)
        table = self._tables.get(key)
        if table is None:
            table = backend.group_table(self.space, variables)
            self._tables[key] = table
        return table

    def poison_handle(self, backend, index: int) -> Optional[Any]:
        """Statement ``index``'s poison set, or ``None`` when empty."""
        mask = self.statements[index].poison_mask
        if not mask:
            return None
        return self.static_handle(backend, mask)


def eval_guard_postfix(backend, plan: PhiPlan, ops, term_handles, size: int):
    """Run a compiled guard program over one backend's kernel vocabulary.

    ``term_handles`` are the already-resolved knowledge-term handles for the
    current candidate — or, on the numpy backend's batched path, whole
    ``(batch, words)`` matrices: its boolean kernels broadcast, so the same
    evaluator serves both shapes.
    """
    stack = []
    for op in ops:
        tag = op[0]
        if tag == "term":
            stack.append(term_handles[op[1]])
        elif tag == "static":
            stack.append(plan.static_handle(backend, op[1]))
        elif tag == "not":
            stack.append(backend.not_(stack.pop(), size))
        elif tag == "and":
            b = stack.pop()
            stack.append(backend.and_(stack.pop(), b, size))
        elif tag == "or":
            b = stack.pop()
            stack.append(backend.or_(stack.pop(), b, size))
        elif tag == "xor":
            b = stack.pop()
            stack.append(backend.xor(stack.pop(), b, size))
        else:  # pragma: no cover - compile_phi_plan only emits the tags above
            raise ValueError(f"unknown guard op {op!r}")
    if len(stack) != 1:  # pragma: no cover - malformed plans never compile
        raise ValueError("guard program left a non-singleton stack")
    return stack[0]
