"""Semantic model checking of UNITY properties under statement fairness.

UNITY's execution model: at each step a statement is chosen
nondeterministically, subject to the fairness constraint that *every*
statement is attempted infinitely often (paper section 5).  On a finite
space this makes progress properties decidable.  Two independent
algorithms are provided and cross-validated in the test suite:

1. :func:`wlt` — the **weakest leads-to** least fixpoint.  ``wlt.q`` grows
   from ``q`` by repeatedly adjoining, for some *helpful* statement ``a``,
   the largest set ``X`` with::

       X ⊆ wp.a.Z          (a carries X into the target)
       X ⊆ ∧_b wp.b.(X∨Z)  (meanwhile no statement escapes X∨Z)

   — a greatest fixpoint per candidate helper.  Fairness guarantees ``a``
   eventually runs, so ``X ↦ Z``.  This mirrors exactly how UNITY proofs
   compose ``ensures`` steps, and is complete on finite spaces.

2. :func:`refute_leads_to` — an explicit **fair-cycle search**: ``p ↦ q``
   fails iff some reachable ``p``-state can reach, inside ``¬q``, a
   strongly connected component in which *every* statement has some edge
   staying inside (such an SCC supports an infinite fair run avoiding
   ``q``; an SCC that some statement always exits cannot).

Safety properties (``unless``, ``invariant``, ``stable``) are checked by
:mod:`repro.proofs.checking` directly from the text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..predicates import Predicate, limits
from ..transformers import strongest_invariant, wp_statement
from ..unity import Program


def _reachable(program: Program, si: Optional[Predicate]) -> Predicate:
    if si is not None:
        if si.space != program.space:
            raise ValueError("si predicate over a different state space")
        return si
    return strongest_invariant(program)


@dataclass(frozen=True)
class WltReport:
    """The :func:`wlt` fixpoint together with its adjoined ranking stages.

    ``stages`` is the sequence of ``(helper statement name, X)`` pairs in
    the order the least fixpoint adjoined them — each ``X`` satisfied
    ``X ⊆ wp.helper.Z`` and ``X ⊆ ∧_b wp.b.(X ∨ Z)`` against the ``Z``
    accumulated *before* it.  This is exactly the ranking a liveness
    certificate records, and an independent replayer can re-check each
    stage with one-step successor lookups only.
    """

    value: Predicate  # z | ~reach — same as wlt()
    z: Predicate  # the fixpoint inside the reachable set
    reach: Predicate
    stages: Tuple[Tuple[str, Predicate], ...]


def _wlt(
    program: Program,
    q: Predicate,
    si: Optional[Predicate],
    record: Optional[List[Tuple[str, Predicate]]],
) -> WltReport:
    reach = _reachable(program, si)
    z = q & reach
    changed = True
    while changed:
        changed = False
        for helper in program.statements:
            # Greatest fixpoint inside the reachable set:
            #   X := wp.helper.Z ∧ ∧_b wp.b.(X ∨ Z),  iterated down.
            x = wp_statement(program, helper, z) & reach
            while True:
                x_or_z = x | z
                new = x
                for stmt in program.statements:
                    new = new & wp_statement(program, stmt, x_or_z)
                    if new.is_false():
                        break
                if new == x:
                    break
                x = new
            if not (x - z).is_false():
                if record is not None:
                    record.append((helper.name, x))
                z = z | x
                changed = True
    return WltReport(
        value=z | ~reach, z=z, reach=reach, stages=tuple(record or ())
    )


def wlt(program: Program, q: Predicate, si: Optional[Predicate] = None) -> Predicate:
    """The weakest predicate ``w`` with ``w ↦ q`` (relative to ``si``).

    States outside ``si`` are included vacuously (no execution visits
    them), so ``p ↦ q`` holds iff ``[p ⇒ wlt.q]``.

    Every per-state pass is a ``wp`` kernel application: the nested
    fixpoints run through the active predicate backend and the program's
    transformer cache (``wp.b.(X ∨ Z)`` recurs heavily across candidate
    helpers), and all sets stay inside the reachable predicate.
    """
    return _wlt(program, q, si, record=None).value


def wlt_stages(
    program: Program, q: Predicate, si: Optional[Predicate] = None
) -> WltReport:
    """:func:`wlt` with the adjoined ``(helper, X)`` stages recorded."""
    return _wlt(program, q, si, record=[])


def holds_leads_to(
    program: Program, p: Predicate, q: Predicate, si: Optional[Predicate] = None
) -> bool:
    """Whether ``p ↦ q`` is valid under UNITY fairness (via :func:`wlt`)."""
    return p.entails(wlt(program, q, si))


# ----------------------------------------------------------------------
# independent refutation by fair-cycle search
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LeadsToRefutation:
    """A witness that ``p ↦ q`` fails.

    ``start`` is a reachable ``p``-state from which an infinite fair run
    avoids ``q`` forever; ``trap`` is the fair-stayable SCC it ends in.

    When the refuter runs with ``emit_witness=True`` the lasso is made
    concrete: ``prefix_states``/``prefix_statements`` is a labeled path
    from an initial state to ``start``, and
    ``approach_states``/``approach_statements`` continues from ``start``
    to a trap state while staying inside ``¬q`` throughout.
    """

    start: int
    trap: Tuple[int, ...]
    prefix_states: Tuple[int, ...] = ()
    prefix_statements: Tuple[str, ...] = ()
    approach_states: Tuple[int, ...] = ()
    approach_statements: Tuple[str, ...] = ()


def _tarjan_sccs(nodes: Sequence[int], successors) -> List[List[int]]:
    """Iterative Tarjan SCC over an explicit node list."""
    index_of = {}
    lowlink = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = 0
    for root in nodes:
        if root in index_of:
            continue
        work = [(root, iter(successors(root)))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index_of:
                    index_of[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(successors(nxt))))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


def labeled_path(
    program: Program,
    source_mask: int,
    goal_mask: int,
    allowed_mask: Optional[int] = None,
) -> Optional[Tuple[Tuple[int, ...], Tuple[str, ...]]]:
    """A statement-labeled BFS path from ``source_mask`` into ``goal_mask``.

    ``allowed_mask`` restricts the visited states (sources must lie inside
    it too); ``None`` allows the whole space.  Returns ``(states,
    statements)`` with ``len(statements) == len(states) - 1``, or ``None``
    when the goal is unreachable.  Used to make refutation lassos and
    safety counterexamples concrete.

    Explicit-only (per-state BFS over successor arrays); the symbolic
    fixpoint checkers (:func:`wlt`) run unguarded instead.
    """
    limits.check_explicit_size(
        program.space.size, "materializing a labeled counterexample path"
    )
    arrays = [(s.name, program.successor_array(s)) for s in program.statements]
    return labeled_path_over(
        arrays, program.space.size, source_mask, goal_mask, allowed_mask
    )


def labeled_path_over(
    arrays: Sequence[Tuple[str, Sequence[int]]],
    size: int,
    source_mask: int,
    goal_mask: int,
    allowed_mask: Optional[int] = None,
) -> Optional[Tuple[Tuple[int, ...], Tuple[str, ...]]]:
    """:func:`labeled_path`'s BFS over ``(statement name, successor array)``
    pairs, tried in the given order at each state — the certified eq.-(25)
    sweep passes a resolved view's arrays instead of a program's."""
    if allowed_mask is None:
        allowed_mask = (1 << size) - 1
    frontier: List[int] = []
    parent: dict = {}
    m = source_mask & allowed_mask
    while m:
        low = m & -m
        i = low.bit_length() - 1
        parent[i] = None
        frontier.append(i)
        m ^= low

    def unwind(i: int) -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
        states: List[int] = [i]
        labels: List[str] = []
        while parent[states[-1]] is not None:
            prev, label = parent[states[-1]]
            states.append(prev)
            labels.append(label)
        return tuple(reversed(states)), tuple(reversed(labels))

    for i in list(parent):
        if goal_mask >> i & 1:
            return unwind(i)
    while frontier:
        nxt_frontier: List[int] = []
        for i in frontier:
            for name, array in arrays:
                j = array[i]
                if j in parent or not (allowed_mask >> j & 1):
                    continue
                parent[j] = (i, name)
                if goal_mask >> j & 1:
                    return unwind(j)
                nxt_frontier.append(j)
        frontier = nxt_frontier
    return None


def refute_leads_to(
    program: Program,
    p: Predicate,
    q: Predicate,
    si: Optional[Predicate] = None,
    emit_witness: bool = False,
) -> Optional[LeadsToRefutation]:
    """Search for a fair run refuting ``p ↦ q``; ``None`` when the property holds.

    Independent of :func:`wlt` — used to cross-validate it.  With
    ``emit_witness=True`` the refutation carries a concrete lasso: a
    labeled path from ``init`` to the starting ``p``-state and a labeled
    ``¬q`` path from there into the trap (certificate material).

    Explicit-only (per-state Tarjan over successor arrays); cross-validate
    huge spaces against :func:`wlt` on sliced-down model instances instead.
    """
    space = program.space
    limits.check_explicit_size(space.size, "the explicit fair-cycle refuter")
    reach = _reachable(program, si)
    arrays = [program.successor_array(s) for s in program.statements]
    avoid_mask = reach.mask & ~q.mask  # candidate states: reachable, ¬q

    def inside(i: int) -> bool:
        return bool(avoid_mask >> i & 1)

    nodes = [i for i in range(space.size) if inside(i)]

    def successors(i: int):
        for array in arrays:
            j = array[i]
            if inside(j):
                yield j

    sccs = _tarjan_sccs(nodes, successors)
    # Fair-stayable: every statement has at least one edge staying inside.
    # (An infinite fair run's infinitely-visited set is strongly connected
    # and must absorb one firing of every statement.)
    trap_mask = 0
    stayable_components: List[Tuple[int, ...]] = []
    for component in sccs:
        members = set(component)
        if len(component) == 1:
            # A trivial SCC supports an infinite run only as a fixed point
            # of *every* statement (each firing must stay on the state).
            only = component[0]
            if all(array[only] == only for array in arrays):
                trap_mask |= 1 << only
                stayable_components.append((only,))
            continue
        stayable = all(
            any(array[i] in members for i in component) for array in arrays
        )
        if stayable:
            stayable_components.append(tuple(sorted(component)))
            for i in component:
                trap_mask |= 1 << i
    if trap_mask == 0:
        return None
    # Backward reachability inside ¬q to the traps.
    can_trap = trap_mask
    changed = True
    while changed:
        changed = False
        for i in nodes:
            if can_trap >> i & 1:
                continue
            for array in arrays:
                j = array[i]
                if inside(j) and can_trap >> j & 1:
                    can_trap |= 1 << i
                    changed = True
                    break
    bad_starts = p.mask & can_trap
    if bad_starts == 0:
        return None
    start = (bad_starts & -bad_starts).bit_length() - 1
    trap_states = tuple(
        i for i in range(space.size) if trap_mask >> i & 1
    )
    if not emit_witness:
        return LeadsToRefutation(start=start, trap=trap_states)
    prefix = labeled_path(program, program.init.mask, 1 << start)
    if prefix is None:
        raise ValueError(
            f"refutation start state {start} lies in the supplied si but is "
            "not reachable from init; cannot emit a concrete lasso witness"
        )
    approach = labeled_path(
        program, 1 << start, trap_mask, allowed_mask=avoid_mask | trap_mask
    )
    if approach is None:  # pragma: no cover — contradicts can_trap
        raise ValueError("no ¬q path from the start state into the trap")
    # A concrete lasso circulates in ONE component: narrow the witness trap
    # to the SCC the approach path actually enters, so a replayer can check
    # strong connectivity of exactly what the run stays in.
    entered = approach[0][-1]
    witness_trap = next(
        c for c in stayable_components if entered in c
    )
    return LeadsToRefutation(
        start=start,
        trap=witness_trap,
        prefix_states=prefix[0],
        prefix_statements=prefix[1],
        approach_states=approach[0],
        approach_statements=approach[1],
    )


def check_leads_to_both(
    program: Program, p: Predicate, q: Predicate, si: Optional[Predicate] = None
) -> bool:
    """Run both algorithms and assert they agree; returns the verdict.

    Used by tests and benches as a self-checking oracle.
    """
    by_wlt = holds_leads_to(program, p, q, si)
    by_refuter = refute_leads_to(program, p, q, si) is None
    if by_wlt != by_refuter:
        raise AssertionError(
            f"leads-to algorithms disagree on {p!r} ↦ {q!r}: "
            f"wlt={by_wlt} refuter={by_refuter}"
        )
    return by_wlt
