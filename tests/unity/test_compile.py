"""The expression compiler against per-state evaluation.

Random expressions and statements over Boolean, integer-range, tuple and
sequence variables — with indexing that can leave its range, arithmetic
that can leave a domain, every short-circuiting connective and ``<=>`` —
are compiled by support enumeration (:mod:`repro.unity.support`) and by
the ROBDD backend's node algebra, and each result must equal what the
per-state evaluator gives: the same mask, the same successor list (on
ROBDD, the same image and preimage of every state), or the same exception
type with the same message.
"""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predicates import Predicate
from repro.predicates.backends import get_backend
from repro.predicates.backends.robdd import RobddHandle
from repro.statespace import (
    BoolDomain,
    IntRangeDomain,
    SeqDomain,
    State,
    TupleDomain,
    space_of,
)
from repro.unity import (
    Append,
    Binary,
    Const,
    Contains,
    GuardDomainError,
    Index,
    IsPrefix,
    Ite,
    Length,
    Program,
    Proj,
    Statement,
    Unary,
    UnresolvedKnowledgeError,
    assign,
    knows,
    land,
    tup,
    var,
)
from repro.unity import support
from .. import oracle

SPACE = space_of(
    b=BoolDomain(),
    n=IntRangeDomain(0, 3),
    t=TupleDomain(IntRangeDomain(0, 1), IntRangeDomain(0, 1)),
    s=SeqDomain(IntRangeDomain(0, 1), 2),
)

#: Knowledge leaves with room for nesting: ``K_S K_R b`` reads ``K_R b``.
K_R = knows("R", var("b"))
K_S = knows("S", var("n") < 2)
K_SR = knows("S", K_R)
TERMS = (K_R, K_S, K_SR)

ROBDD = get_backend("robdd")


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

_INT_ATOMS = st.sampled_from(
    [var("n"), Const(0), Const(1), Const(2), Length(var("s")), Proj(var("t"), 0)]
)
_BOOL_ATOMS = st.sampled_from([var("b"), Const(True), Const(False)])


def _ints(knowledge: bool = False):
    conditions = _BOOL_ATOMS | st.sampled_from(TERMS) if knowledge else _BOOL_ATOMS
    return st.recursive(
        _INT_ATOMS,
        lambda inner: st.one_of(
            st.builds(lambda a, c: a + c, inner, inner),
            st.builds(lambda a, c: a - c, inner, inner),
            # Both can leave their range: ``t`` has 2 components, ``s`` up to 2.
            st.builds(lambda a: Index(var("t"), a), inner),
            st.builds(lambda a: Index(var("s"), a), inner),
            st.builds(Ite, conditions, inner, inner),
        ),
        max_leaves=4,
    )


def _bools(knowledge: bool = False):
    ints = _ints(knowledge)
    comparisons = st.builds(
        lambda op, a, c: Binary(op, a, c),
        st.sampled_from(["==", "!=", "<", "<="]),
        ints,
        ints,
    )
    atoms = [
        _BOOL_ATOMS,
        comparisons,
        st.builds(lambda a: Contains(a, var("s")), ints),
        st.builds(lambda a: IsPrefix(var("s"), Append(Const(()), a)), ints),
        # A TypeError inside ``Binary.eval``: a sequence against an int.
        st.just(var("s") < var("n")),
    ]
    if knowledge:
        terms = st.sampled_from(TERMS)
        atoms.append(terms)
        # Knowledge under value-level nodes, bound as support digits there.
        atoms.append(st.builds(lambda k: Binary("==", k, var("b")), terms))
        atoms.append(
            st.builds(lambda k, a: Ite(k, Const(1), Const(0)) < a, terms, ints)
        )
    return st.recursive(
        st.one_of(*atoms),
        lambda inner: st.one_of(
            st.builds(
                lambda op, a, c: Binary(op, a, c),
                st.sampled_from(["and", "or", "=>", "<=>"]),
                inner,
                inner,
            ),
            st.builds(lambda a: Unary("not", a), inner),
            st.builds(Ite, inner, inner, inner),
        ),
        max_leaves=6,
    )


@st.composite
def statements(draw, knowledge=False):
    targets = draw(st.lists(st.sampled_from(["b", "n", "t", "s"]), min_size=1, unique=True))
    ints = _ints(knowledge)
    choices = {
        "b": _bools(knowledge) | ints,  # ``b := 2`` leaves the Boolean domain
        "n": ints,
        "t": st.builds(lambda a, c: tup(a, c), ints, ints),
        "s": st.builds(lambda a: Append(var("s"), a), ints) | st.just(Const(())),
    }
    exprs = tuple(draw(choices[t]) for t in targets)
    guard = draw(_bools(knowledge))
    return Statement(name="step", targets=tuple(targets), exprs=exprs, guard=guard)


resolutions = st.fixed_dictionaries(
    {term: st.integers(0, SPACE.full_mask) for term in TERMS}
).map(lambda masks: {t: Predicate(SPACE, m) for t, m in masks.items()})


# ----------------------------------------------------------------------
# the per-state reference
# ----------------------------------------------------------------------


def outcome(fn):
    """``("ok", value)`` or the exception's type and message."""
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the comparison is the test
        return type(exc), str(exc)


def per_state_mask(expr, resolution=None):
    mask = 0
    for s in oracle._states(SPACE):
        if expr.eval(s, resolution):
            mask |= 1 << s.index
    return mask


def per_state_successors(stmt):
    """The state-by-state successor sweep, as ``Program.successor_array`` ran it."""
    array = []
    for state in oracle._states(SPACE):
        if not stmt.guard.eval(state):
            array.append(state.index)
            continue
        changes = {}
        for target, expr in zip(stmt.targets, stmt.exprs):
            value = expr.eval(state)
            domain = SPACE.var(target).domain
            if value not in domain:
                raise GuardDomainError(
                    f"statement {stmt.name!r} assigns {target} := {value!r} "
                    f"outside domain {domain.name} in state {state.as_dict()!r}"
                )
            changes[target] = value
        array.append(SPACE.reindex(state.index, changes))
    return array


def robdd_mask(expr, resolution=None):
    handle = ROBDD.expr_handle(SPACE, expr, resolution)
    return ROBDD.to_mask(handle, SPACE.size)


def transitions(space, table):
    """Every state's image and preimage under a ROBDD relation, as index
    masks: the transitions themselves, whatever shape the relation has."""
    engine = ROBDD.engine(space)
    images, preimages = [], []
    for i in range(space.size):
        single = RobddHandle(engine, engine.state_cube(i))
        for out, kernel in ((images, ROBDD.image), (preimages, ROBDD.preimage)):
            out.append(ROBDD.to_mask(kernel(single, table, space.size), space.size))
    return images, preimages


def array_transitions(succ):
    """:func:`transitions` read off a successor array."""
    preimages = [0] * len(succ)
    for i, j in enumerate(succ):
        preimages[j] |= 1 << i
    return [1 << j for j in succ], preimages


def expected_relation(space, succ):
    """``succ``'s transitions, checked first against the array's own relation."""
    expected = array_transitions(succ)
    assert transitions(space, ROBDD.table_from_array_in(space, succ)) == expected
    return expected


def robdd_relation(stmt):
    return transitions(SPACE, ROBDD.stmt_relation(SimpleNamespace(space=SPACE), stmt))


# ----------------------------------------------------------------------
# differential properties
# ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_bools())
def test_expression_masks_match_per_state(expr):
    expected = outcome(lambda: per_state_mask(expr))
    assert outcome(lambda: support.expr_mask(SPACE, expr)) == expected
    assert outcome(lambda: robdd_mask(expr)) == expected


@settings(max_examples=300, deadline=None)
@given(_bools(knowledge=True), resolutions)
def test_knowledge_masks_match_per_state(expr, resolution):
    expected = outcome(lambda: per_state_mask(expr, resolution))
    assert outcome(lambda: support.expr_mask(SPACE, expr, resolution)) == expected
    assert outcome(lambda: robdd_mask(expr, resolution)) == expected


@settings(max_examples=150, deadline=None)
@given(_bools(knowledge=True), resolutions, st.sampled_from(TERMS))
def test_a_missing_resolution_raises_as_per_state(expr, resolution, dropped):
    partial = {t: p for t, p in resolution.items() if t != dropped}
    expected = outcome(lambda: per_state_mask(expr, partial))
    assert outcome(lambda: support.expr_mask(SPACE, expr, partial)) == expected
    assert outcome(lambda: robdd_mask(expr, partial)) == expected


@settings(max_examples=150, deadline=None)
@given(_bools(knowledge=True), resolutions)
def test_resolved_knowledge_reads_its_own_predicate(expr, resolution):
    from repro.unity.statements import _resolve_expr

    resolved = _resolve_expr(expr, resolution)
    expected = outcome(lambda: per_state_mask(expr, resolution))
    assert outcome(lambda: support.expr_mask(SPACE, resolved)) == expected
    assert outcome(lambda: robdd_mask(resolved)) == expected


@settings(max_examples=120, deadline=None)
@given(statements())
def test_successors_match_per_state(stmt):
    expected = outcome(lambda: per_state_successors(stmt))
    assert outcome(lambda: support.successors(SPACE, stmt)) == expected
    if expected[0] == "ok":
        assert expected[1] == oracle._successors(SimpleNamespace(space=SPACE), stmt, None)
        expected = ("ok", expected_relation(SPACE, expected[1]))
    assert outcome(lambda: robdd_relation(stmt)) == expected


@settings(max_examples=60, deadline=None)
@given(statements(knowledge=True), resolutions)
def test_resolved_statements_match_per_state(stmt, resolution):
    """Resolved knowledge in guards and right-hand sides, as the KBP solver
    and the replayer build them per candidate."""
    resolved = stmt.resolve(resolution)
    expected = outcome(lambda: per_state_successors(resolved))
    assert outcome(lambda: support.successors(SPACE, resolved)) == expected
    if expected[0] == "ok":
        expected = ("ok", expected_relation(SPACE, expected[1]))
    assert outcome(lambda: robdd_relation(resolved)) == expected


@settings(max_examples=60, deadline=None)
@given(statements())
def test_unguarded_successors_poison_exactly_where_an_update_fails(stmt):
    succ, poison = support.unguarded_successors(SPACE, stmt)
    for state in oracle._states(SPACE):
        i = state.index
        try:
            values = dict(zip(stmt.targets, (e.eval(state) for e in stmt.exprs)))
            expected = SPACE.index_of({**state, **values})
        except Exception:  # noqa: BLE001 - raising or leaving a domain poisons
            expected = None
        assert bool(poison >> i & 1) == (expected is None)
        assert succ[i] == (i if expected is None else expected)


# ----------------------------------------------------------------------
# fixed cases
# ----------------------------------------------------------------------

#: ``j < 2 and x[j] == 1`` with ``j ∈ 0..2`` and ``x`` a pair: the right
#: conjunct raises at ``j = 2``, where the left one is false.
PAIR = space_of(j=IntRangeDomain(0, 2), x=TupleDomain(IntRangeDomain(0, 1), IntRangeDomain(0, 1)))
SHORT_CIRCUIT = land(var("j") < 2, Index(var("x"), var("j")).eq(1))


def _pair_program(*statements):
    return Program(PAIR, init=var("j").eq(0), statements=list(statements))


def test_short_circuit_guard_compiles_on_robdd():
    """The guard idiom ``Binary.eval`` short-circuits for compiles on every
    backend, and the ROBDD relation has the explicit successor map's
    transitions."""
    stmt = assign("bump", {"j": var("j") + 1}, guard=SHORT_CIRCUIT)
    program = _pair_program(stmt)
    succ = program.successor_array(stmt)
    relation = ROBDD.stmt_relation(program, stmt)
    assert transitions(PAIR, relation) == expected_relation(PAIR, succ)
    handle = ROBDD.expr_handle(PAIR, SHORT_CIRCUIT)
    assert ROBDD.to_mask(handle, PAIR.size) == program.expr_predicate(SHORT_CIRCUIT).mask


def test_domain_escape_message_is_the_same_on_every_backend():
    stmt = assign("runaway", {"j": var("j") + 1}, guard=var("x").ne((0, 0)))
    messages = set()
    for name in ("int", "numpy", "robdd"):
        program = _pair_program(stmt)  # fresh caches per backend
        with pytest.raises(GuardDomainError) as caught:
            program.kernel_table(get_backend(name), stmt)
        messages.add(str(caught.value))
    assert messages == {
        "statement 'runaway' assigns j := 3 outside domain 0..2 "
        "in state {'j': 2, 'x': (0, 1)}"
    }


def test_a_raising_guard_names_the_lowest_state():
    stmt = assign("peek", {"j": Const(0)}, guard=Index(var("x"), var("j")).eq(1))
    with pytest.raises(Exception) as compiled:
        _pair_program(stmt).successor_array(stmt)
    with pytest.raises(Exception) as per_state:
        for i in range(PAIR.size):
            stmt.guard.eval(State(PAIR, i))
    assert type(compiled.value) is type(per_state.value)
    assert str(compiled.value) == str(per_state.value) == "index 2 out of range for (0, 0)"


def test_unresolved_knowledge_in_a_statement_raises_per_state():
    stmt = assign("k", {"b": Const(True)}, guard=K_R)
    with pytest.raises(UnresolvedKnowledgeError) as caught:
        ROBDD.stmt_relation(SimpleNamespace(space=SPACE), stmt)
    assert "knowledge term K[R](b) evaluated without a resolution" in str(caught.value)


def test_tables_hold_one_row_per_support_assignment():
    space = space_of(
        b=BoolDomain(), n=IntRangeDomain(0, 3), s=SeqDomain(IntRangeDomain(0, 1), 2)
    )
    support.expr_mask(space, land(var("n") < 2, Length(var("s")).eq(1)))
    rows = {repr(e): len(t.values) for e, t in support.vectors_of(space).tables.items()}
    assert rows == {"(n < 2)": 4, "(|s| == 1)": 7}


def test_pickled_spaces_leave_the_memo_behind():
    space = space_of(n=IntRangeDomain(0, 3))
    support.expr_mask(space, var("n") < 2)
    assert "_support" in space.__dict__
    clone = pickle.loads(pickle.dumps(space))
    assert clone == space and "_support" not in clone.__dict__


def test_successor_arrays_are_python_ints():
    stmt = assign("bump", {"j": var("j") + 1}, guard=var("j") < 2)
    array = _pair_program(stmt).successor_array(stmt)
    assert type(array) is list and all(type(i) is int for i in array)
