"""A literal reference solver for eq. (25), written from the paper's text.

State sets are plain Python ints (bit ``i`` is state ``i``).  Expressions
are evaluated one state at a time with ``Expr.eval`` and an explicit
resolution dict, and ``wcyl`` is computed by its definition.  Nothing here
touches ``CandidateResolver``, ``TransformerCache``, ``PhiPlan`` or a
predicate backend, so a fault in any of them cannot hide from it.
"""

from __future__ import annotations

from repro.statespace import State


class _Set(int):
    """A state set as a knowledge term's value inside ``Expr.eval``."""

    def holds_at(self, index):
        return bool(self >> index & 1)


def _states(space):
    return [State(space, i) for i in range(space.size)]


def wcyl(space, names, p):
    """Eq. (6): the states whose every ``names``-agreeing state is in ``p``."""
    groups = {}
    for s in _states(space):
        groups.setdefault(tuple(s[n] for n in sorted(names)), []).append(s.index)
    return sum(
        sum(1 << i for i in members)
        for members in groups.values()
        if all(p >> i & 1 for i in members)
    )


def resolution(program, si):
    """Eq. (13) at ``SI = si``: ``K_i p = p ∧ (wcyl.vars_i.(SI ⇒ p) ∨ ¬SI)``."""
    space = program.space
    outside = (1 << space.size) - 1 & ~si
    out = {}

    def resolve(term):
        for inner in term.formula.knowledge_terms():  # innermost first
            resolve(inner)
        p = sum(1 << s.index for s in _states(space) if term.formula.eval(s, out))
        view = program.processes[term.process].variables
        out[term] = _Set(p & (wcyl(space, view, outside | p) | outside))

    for term in program.knowledge_terms():
        resolve(term)
    return out


def _successors(program, stmt, resolved):
    """``stmt``'s successor per state; a false guard skips."""
    out = []
    for s in _states(program.space):
        if not stmt.guard.eval(s, resolved):
            out.append(s.index)
            continue
        values = [e.eval(s, resolved) for e in stmt.exprs]
        out.append(program.space.index_of({**s, **dict(zip(stmt.targets, values))}))
    return out


def phi(program, x):
    """``sst_{P_x}.init`` by eqs. (1)–(3): the limit of ``y := SP.y ∨ init``."""
    resolved = resolution(program, x)
    succ = [_successors(program, stmt, resolved) for stmt in program.statements]
    y = 0
    while True:
        step = program.init.mask
        for table in succ:
            for i, j in enumerate(table):
                if y >> i & 1:
                    step |= 1 << j
        if step == y:
            return y
        y = step


def solve(program):
    """Eq. (25): ``(solutions, candidates)`` over every ``x ⊇ init``,
    solutions sorted as ``SolveReport.solutions`` are."""
    init = program.init.mask
    candidates = [x for x in range(1 << program.space.size) if x & init == init]
    solutions = [x for x in candidates if phi(program, x) == x]
    return sorted(solutions, key=lambda m: (bin(m).count("1"), m)), len(candidates)
