"""UNITY programs: declarations, processes, init, and a statement set.

A program execution begins in a state satisfying ``init``, then repeatedly
executes statements chosen nondeterministically under the fairness
constraint that each statement is attempted infinitely often (paper
section 5).  There is no flow of control; all control information lives in
the guards.

A *process* carries no code of its own — following the paper's minimal
notion, a process is simply a named subset of the program variables (its
address space).  Processes are what knowledge is ascribed to.

For standard (knowledge-free) programs this module precomputes, per
statement, the total successor function as an index array, from which the
semantic ``sp``/``wp`` transformers and the program-level ``SP`` (eq. 26)
are one pass of integer arithmetic (see :mod:`repro.transformers`).  The
arrays and the predicates of expressions come from the expression compiler
(:mod:`repro.unity.support`), which evaluates each expression once per
assignment of the variables it reads, never once per state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..predicates import Predicate, limits
from ..predicates.cache import TransformerCache
from ..statespace import State, StateSpace
from . import support
from .expressions import EvalError, Expr, ExprLike, Knowledge, as_expr
from .statements import Statement
from .support import GuardDomainError


@dataclass(frozen=True)
class Process:
    """A named set of variables accessible to one process."""

    name: str
    variables: FrozenSet[str]

    def __repr__(self) -> str:
        return f"Process({self.name}: {{{', '.join(sorted(self.variables))}}})"


class Program:
    """An (extended) UNITY program over a finite state space.

    Parameters
    ----------
    space:
        The finite state space of all declared variables.
    init:
        Predicate characterizing allowed initial states; an :class:`Expr`
        is accepted and converted.
    statements:
        The non-empty assign section.
    processes:
        Mapping from process name to the variables it can access.  Shared
        memory is expressed by listing a variable in several processes.
    properties:
        Assumed properties of the environment (a *mixed specification*,
        [San90]) — e.g. the channel liveness assumptions (St-1)–(St-4).
        Stored as opaque objects interpreted by :mod:`repro.proofs`.
    name:
        Optional program name for diagnostics.
    """

    def __init__(
        self,
        space: StateSpace,
        init: Any,
        statements: Sequence[Statement],
        processes: Optional[Mapping[str, Iterable[str]]] = None,
        properties: Sequence[Any] = (),
        name: str = "program",
    ):
        if not statements:
            raise ValueError("a UNITY program needs a non-empty assign section")
        names = [s.name for s in statements]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate statement names: {names}")
        self.space = space
        self.name = name
        self.statements: Tuple[Statement, ...] = tuple(statements)
        self.properties: Tuple[Any, ...] = tuple(properties)
        self.init: Predicate = self._to_predicate(init)
        self.processes: Dict[str, Process] = {}
        for pname, variables in (processes or {}).items():
            var_set = space.check_vars(variables)
            self.processes[pname] = Process(pname, var_set)
        self._validate_statement_vars()
        self._successors: Dict[str, List[int]] = {}
        self._successors_np: Dict[str, Any] = {}
        self._enabled: Dict[str, Predicate] = {}
        #: backend-specific successor tables, keyed by (backend name, stmt name)
        self._kernel_tables: Dict[Tuple[str, str], Any] = {}
        #: memoized sp/wp applications, keyed by predicate fingerprint
        self.transformer_cache = TransformerCache()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _to_predicate(self, value: Any) -> Predicate:
        if isinstance(value, Predicate):
            if value.space != self.space:
                raise ValueError("init predicate over a different state space")
            return value
        if isinstance(value, Expr):
            return self.expr_predicate(value)
        if callable(value):
            return Predicate.from_callable(self.space, value)
        raise TypeError(f"cannot interpret {value!r} as an initial condition")

    def _validate_statement_vars(self) -> None:
        declared = set(self.space.names)
        for stmt in self.statements:
            unknown = (stmt.read_vars() | stmt.written_vars()) - declared
            if unknown:
                raise ValueError(
                    f"statement {stmt.name!r} uses undeclared variables {sorted(unknown)}"
                )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def is_knowledge_based(self) -> bool:
        """Whether any statement contains a knowledge term (section 4)."""
        return any(s.is_knowledge_based() for s in self.statements)

    def knowledge_terms(self) -> FrozenSet[Knowledge]:
        """All knowledge terms occurring in the program."""
        out: FrozenSet[Knowledge] = frozenset()
        for s in self.statements:
            out |= s.knowledge_terms()
        return out

    def process(self, name: str) -> Process:
        """The process named ``name``."""
        try:
            return self.processes[name]
        except KeyError:
            raise KeyError(
                f"no process {name!r} in program {self.name!r} "
                f"(have {sorted(self.processes)})"
            ) from None

    def statement(self, name: str) -> Statement:
        """The statement named ``name``."""
        for s in self.statements:
            if s.name == name:
                return s
        raise KeyError(f"no statement {name!r} in program {self.name!r}")

    # ------------------------------------------------------------------
    # expression ↔ predicate bridge
    # ------------------------------------------------------------------

    def expr_predicate(self, expr: ExprLike) -> Predicate:
        """The predicate denoted by a (knowledge-free) Boolean expression.

        Compiled by support enumeration (:func:`repro.unity.support.expr_predicate`);
        past the explicit-state limit the ROBDD backend compiles it to a handle.
        """
        e = as_expr(expr)
        if e.knowledge_terms():
            raise EvalError(
                f"{e!r} contains knowledge terms; resolve them first "
                "(repro.core.kbp) or use KnowledgeOperator"
            )
        return support.expr_predicate(self.space, e)

    # ------------------------------------------------------------------
    # operational semantics
    # ------------------------------------------------------------------

    def successor_array(self, stmt: Statement) -> List[int]:
        """Total successor function of ``stmt`` as an array over state indices.

        ``array[i]`` is the index of the state reached by executing ``stmt``
        in state ``i`` (skip when the guard is false).  Cached per statement
        name.  Raises :class:`GuardDomainError` if an assignment leaves a
        variable's declared domain — bounded models must guard against that
        explicitly, mirroring the care the paper takes with ``nat`` bounds.
        """
        if stmt.is_knowledge_based():
            raise EvalError(
                f"statement {stmt.name!r} is knowledge-based; resolve it first"
            )
        cached = self._successors.get(stmt.name)
        if cached is not None:
            return cached
        limits.check_explicit_size(
            self.space.size,
            f"building the successor array of statement {stmt.name!r} "
            "(the symbolic backend compiles statements to relations instead)",
        )
        array = support.successors(self.space, stmt)
        self._successors[stmt.name] = array
        return array

    def successor_np(self, stmt: Statement):
        """The successor array as a numpy int64 array (cached).

        Used by the vectorized fast paths in :mod:`repro.proofs` and
        :mod:`repro.transformers`.
        """
        cached = self._successors_np.get(stmt.name)
        if cached is None:
            import numpy as np

            cached = np.asarray(self.successor_array(stmt), dtype=np.int64)
            self._successors_np[stmt.name] = cached
        return cached

    def kernel_table(self, backend, stmt: Statement) -> Any:
        """``stmt``'s successor map in ``backend``'s preferred form (cached).

        Each predicate backend asks for a different representation (int
        predecessor tables, numpy index arrays, …); caching per (backend,
        statement) keeps kernel calls free of per-invocation conversion.
        """
        key = (backend.name, stmt.name)
        cached = self._kernel_tables.get(key)
        if cached is None:
            cached = backend.build_table(self, stmt)
            self._kernel_tables[key] = cached
        return cached

    def adopt_operational_caches(self, donor: "Program", stmt: Statement) -> None:
        """Share ``donor``'s cached semantics for a statement both programs contain.

        Sound only when the statement means the same thing in both — the
        KBP solver uses this to avoid recomputing successor arrays of
        knowledge-*free* statements for every candidate-SI resolution.
        """
        name = stmt.name
        cached = donor._successors.get(name)
        if cached is not None:
            self._successors.setdefault(name, cached)
        cached_np = donor._successors_np.get(name)
        if cached_np is not None:
            self._successors_np.setdefault(name, cached_np)
        enabled = donor._enabled.get(name)
        if enabled is not None:
            self._enabled.setdefault(name, enabled)
        for key, table in donor._kernel_tables.items():
            if key[1] == name:
                self._kernel_tables.setdefault(key, table)

    def step(self, state: State, stmt: Statement) -> State:
        """Execute one statement atomically from ``state``."""
        return State(self.space, self.successor_array(stmt)[state.index])

    def enabled(self, stmt: Statement) -> Predicate:
        """The predicate where ``stmt``'s guard holds (cached per statement)."""
        cached = self._enabled.get(stmt.name)
        if cached is None:
            cached = self.expr_predicate(stmt.guard)
            self._enabled[stmt.name] = cached
        return cached

    def fixed_point(self) -> Predicate:
        """``FP`` — states where no statement changes the state.

        UNITY's analogue of termination: the program has reached a fixed
        point when every statement is a skip.
        """
        space = self.space
        limits.check_explicit_size(space.size, "computing the FP predicate")
        mask = space.full_mask
        for stmt in self.statements:
            array = self.successor_array(stmt)
            stmt_mask = 0
            for i in range(space.size):
                if array[i] == i:
                    stmt_mask |= 1 << i
            mask &= stmt_mask
        return Predicate(space, mask)

    # ------------------------------------------------------------------
    # derived programs
    # ------------------------------------------------------------------

    def resolve(self, resolution: Mapping[Knowledge, Predicate]) -> "Program":
        """The standard program with every knowledge term replaced.

        This is the paper's conversion of a knowledge-based protocol to a
        standard protocol "by replacing all the knowledge predicates with
        the corresponding standard predicate" (section 4) — validity of the
        resolution is checked separately by :mod:`repro.core.kbp`.
        """
        missing = self.knowledge_terms() - set(resolution)
        if missing:
            raise KeyError(f"resolution missing knowledge terms: {sorted(map(repr, missing))}")
        return Program(
            space=self.space,
            init=self.init,
            statements=[s.resolve(resolution) for s in self.statements],
            processes={p.name: p.variables for p in self.processes.values()},
            properties=self.properties,
            name=f"{self.name}@resolved",
        )

    def with_init(self, init: Any) -> "Program":
        """The same program with a different initial condition.

        Central to reproducing Figure 2: strengthening ``init`` can change
        the strongest invariant of a knowledge-based protocol
        non-monotonically.
        """
        return Program(
            space=self.space,
            init=init,
            statements=self.statements,
            processes={p.name: p.variables for p in self.processes.values()},
            properties=self.properties,
            name=self.name,
        )

    def with_statements(
        self, statements: Sequence[Statement], name_suffix: str = "@extended"
    ) -> "Program":
        """The same declarations with a different assign section."""
        return Program(
            space=self.space,
            init=self.init,
            statements=statements,
            processes={p.name: p.variables for p in self.processes.values()},
            properties=self.properties,
            name=self.name + name_suffix,
        )

    def __repr__(self) -> str:
        kind = "knowledge-based" if self.is_knowledge_based() else "standard"
        return (
            f"Program({self.name!r}: {kind}, {len(self.statements)} statements, "
            f"{self.space.size} states, {len(self.processes)} processes)"
        )


def union_programs(left: Program, right: Program, name: Optional[str] = None) -> Program:
    """UNITY program union ``F ▯ G``: the statements of both, run together.

    Both programs must share the state space; the union's initial condition
    is the conjunction of the components'.  Statement names must be
    disjoint (rename before composing if they clash).  Processes are merged
    by name (shared names must agree on their variable sets).

    The union theorems of UNITY — e.g. ``p unless q`` holds in ``F ▯ G``
    iff it holds in both components (w.r.t. a common invariant baseline) —
    are exercised in the test suite.
    """
    if left.space != right.space:
        raise ValueError("program union needs a common state space")
    clash = {s.name for s in left.statements} & {s.name for s in right.statements}
    if clash:
        raise ValueError(f"statement names clash in union: {sorted(clash)}")
    processes: Dict[str, FrozenSet[str]] = {
        p.name: p.variables for p in left.processes.values()
    }
    for process in right.processes.values():
        existing = processes.get(process.name)
        if existing is not None and existing != process.variables:
            raise ValueError(
                f"process {process.name!r} has different views in the components"
            )
        processes[process.name] = process.variables
    return Program(
        space=left.space,
        init=left.init & right.init,
        statements=list(left.statements) + list(right.statements),
        processes=processes,
        properties=left.properties + right.properties,
        name=name or f"({left.name} ▯ {right.name})",
    )
