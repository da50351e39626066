"""The expression compiler: each expression evaluated once per support assignment.

An expression depends only on the variables it reads — its *support* —
which is eq. (6)'s variable forgetting.  Three steps turn it into
whole-space data, for the explicit backends here and for the ROBDD
backend through :func:`compile_bool`:

* a *value-level* node (anything but a constant, a knowledge leaf, or
  ``not``/``and``/``or``/``=>``/``<=>``/``if`` in Boolean position) is
  evaluated with ``Expr.eval`` on a plain dict once per assignment of its
  support (:class:`Table`, memoized per space and expression); a
  resolved knowledge leaf inside it is Shannon-expanded, as
  ``if K then e[K := true] else e[K := false]``;
* Boolean structure combines values and error sets by ``Binary.eval``'s
  short-circuit rules: ``a and b`` errs where ``a`` errs or ``a`` holds and
  ``b`` errs, ``or``/``=>`` likewise, ``if`` errs on the branch it takes,
  ``<=>`` where either side errs;
* :class:`Vectors` broadcasts: the space is an array with one axis per
  variable, so mixed-radix digit arithmetic needs no per-state index.

Where a state errs, the per-state code re-runs on the lowest such state
only (:func:`reraise_expr`, :func:`reraise_step`) and raises exactly what
a state-by-state sweep raised, ``GuardDomainError`` text included.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..predicates import Predicate, limits
from ..predicates.backends import backend_for_size
from ..statespace import State, StateSpace
from .expressions import (
    Binary,
    Const,
    EvalError,
    Expr,
    Ite,
    Knowledge,
    Unary,
    UnresolvedKnowledgeError,
)
from .statements import ResolvedKnowledge, Statement


class GuardDomainError(EvalError):
    """A statement left the declared domain of some variable."""


#: A table entry where the node raised.
RAISED = object()


class Table:
    """A value-level node evaluated once per assignment of its support
    variables, in declaration order (the first slowest, as in state
    indices); ``values[row]`` is the result or :data:`RAISED`."""

    __slots__ = ("positions", "values", "_truth", "_digits")

    def __init__(self, positions: Tuple[int, ...], values: List[Any]):
        self.positions = positions
        self.values = values
        self._truth: Optional[Tuple[Any, Any]] = None
        self._digits: Dict[int, Any] = {}

    def truth(self) -> Tuple[Any, Any]:
        """``(holds, raised)`` per row; ``raised`` is ``None`` if no row raises."""
        if self._truth is None:
            holds, raised = [], []
            for value in self.values:
                try:
                    holds.append(value is not RAISED and bool(value))
                    raised.append(value is RAISED)
                except Exception:
                    holds.append(False)
                    raised.append(True)
            self._truth = (np.array(holds), np.array(raised) if any(raised) else None)
        return self._truth

    def digits(self, position: int, domain) -> Any:
        """Each row's value as a digit of ``domain``, the domain of the
        variable at ``position``; −1 where the node raised or left it."""
        out = self._digits.get(position)
        if out is None:
            out = np.array(
                [domain.index(v) if v in domain else -1 for v in self.values],
                dtype=np.int64,
            )
            self._digits[position] = out
        return out


def _resolved_leaf(expr: Expr, resolution) -> Optional[Expr]:
    """An outermost knowledge leaf of ``expr`` that has a predicate, if any."""
    if isinstance(expr, (Knowledge, ResolvedKnowledge)):
        return expr if _leaf_predicate(expr, resolution) is not None else None
    for f in dataclasses.fields(expr):
        value = getattr(expr, f.name)
        for child in value if isinstance(value, tuple) else (value,):
            leaf = _resolved_leaf(child, resolution) if isinstance(child, Expr) else None
            if leaf is not None:
                return leaf
    return None


def cofactor(expr: Expr, leaf: Expr, value: bool) -> Expr:
    """``expr`` with ``leaf`` replaced by the constant ``value``."""
    if isinstance(expr, (Knowledge, ResolvedKnowledge)):
        return Const(value) if expr == leaf else expr
    changes = {}
    for f in dataclasses.fields(expr):
        field = getattr(expr, f.name)
        if isinstance(field, Expr):
            changes[f.name] = cofactor(field, leaf, value)
        elif isinstance(field, tuple) and field and isinstance(field[0], Expr):
            changes[f.name] = tuple(cofactor(v, leaf, value) for v in field)
    return dataclasses.replace(expr, **changes) if changes else expr


def _leaf_predicate(leaf: Expr, resolution) -> Any:
    if isinstance(leaf, ResolvedKnowledge):
        return leaf.predicate
    if resolution is not None and leaf in resolution:
        return resolution[leaf]
    return None


def support_table(
    space: StateSpace,
    expr: Expr,
    resolution=None,
    check: Optional[Callable[[Sequence[int], int], None]] = None,
) -> Tuple[Optional[Table], Optional[Expr]]:
    """``(table, None)`` with ``expr``'s :class:`Table`, or ``(None, leaf)``
    when a resolved knowledge leaf inside ``expr`` must be Shannon-expanded
    first.  ``check(positions, rows)`` runs before any enumeration.  A
    knowledge term left unresolved raises where it is reached, as it does
    per state; such tables are not memoized."""
    memo = vectors_of(space).tables
    try:
        table = memo.get(expr)
    except TypeError:  # an unhashable constant: tabulate without the memo
        memo, table = {}, None
    if table is not None:
        return table, None
    leaf = _resolved_leaf(expr, resolution)
    if leaf is not None:
        return None, leaf
    # Undeclared names stay unbound: ``Var.eval`` raises for them, as per state.
    names = sorted((n for n in expr.free_vars() if n in space), key=space.position)
    positions = tuple(space.position(n) for n in names)
    columns = [space.variables[k].domain.values for k in positions]
    if check is not None:
        check(positions, math.prod(len(c) for c in columns))
    values = []
    for combo in itertools.product(*columns):
        try:
            values.append(expr.eval(dict(zip(names, combo))))
        except Exception:
            values.append(RAISED)
    table = Table(positions, values)
    if not expr.knowledge_terms():
        memo[expr] = table
    return table, None


def _or(alg, a, b):
    if a is None:
        return b
    return a if b is None else alg.or_(a, b)


def _and(alg, a, b):
    return None if b is None else alg.and_(a, b)


def compile_bool(alg, expr: Expr, resolution=None) -> Tuple[Any, Any]:
    """``(value, raised)`` of ``expr`` in Boolean position under ``alg``.

    ``raised`` is where ``Expr.eval`` raises (``None`` where it cannot);
    ``value`` means nothing there.  ``alg`` supplies ``true``, ``false``,
    ``and_``, ``or_``, ``not_``, ``xor``, ``known(predicate)``,
    ``leaf(table)`` for value-level nodes, ``space`` and ``check`` (see
    :func:`support_table`).
    """
    if isinstance(expr, Const):
        try:
            return (alg.true if expr.value else alg.false), None
        except Exception:
            return alg.false, alg.true
    if isinstance(expr, Unary) and expr.op == "not":
        value, raised = compile_bool(alg, expr.operand, resolution)
        return alg.not_(value), raised
    if isinstance(expr, Binary) and expr.op in ("and", "or", "=>", "<=>"):
        a, a_raised = compile_bool(alg, expr.left, resolution)
        b, b_raised = compile_bool(alg, expr.right, resolution)
        if expr.op == "<=>":
            return alg.not_(alg.xor(a, b)), _or(alg, a_raised, b_raised)
        if expr.op == "or":
            reached, value = alg.not_(a), alg.or_(a, b)
        elif expr.op == "and":
            reached, value = a, alg.and_(a, b)
        else:
            reached, value = a, alg.or_(alg.not_(a), b)
        return value, _or(alg, a_raised, _and(alg, reached, b_raised))
    if isinstance(expr, Ite):
        c, c_raised = compile_bool(alg, expr.cond, resolution)
        t, t_raised = compile_bool(alg, expr.then, resolution)
        e, e_raised = compile_bool(alg, expr.orelse, resolution)
        not_c = alg.not_(c)
        raised = _or(alg, _and(alg, c, t_raised), _and(alg, not_c, e_raised))
        return alg.or_(alg.and_(c, t), alg.and_(not_c, e)), _or(alg, c_raised, raised)
    if isinstance(expr, (Knowledge, ResolvedKnowledge)):
        predicate = _leaf_predicate(expr, resolution)
        if predicate is None:
            return alg.false, alg.true
        return alg.known(predicate), None
    table, leaf = support_table(alg.space, expr, resolution, alg.check)
    if leaf is None:
        return alg.leaf(table)
    cases = (cofactor(expr, leaf, True), cofactor(expr, leaf, False))
    return compile_bool(alg, Ite(leaf, *cases), resolution)


class Vectors:
    """The explicit algebra: whole-space values as numpy arrays with one axis
    per variable of two or more values.  A value that depends on some
    variables only has length one on the other axes, so broadcasting
    combines values and :meth:`full` lays one out in state-index order.
    One instance per space (:func:`vectors_of`) also holds its leaf tables.
    """

    true = np.True_
    false = np.False_
    check = None
    and_ = staticmethod(operator.and_)
    or_ = staticmethod(operator.or_)
    not_ = staticmethod(operator.invert)
    xor = staticmethod(operator.xor)

    def __init__(self, space: StateSpace):
        self.space = space
        self._radix = [len(v.domain) for v in space.variables]
        self._axes = [k for k, r in enumerate(self._radix) if r > 1]
        self.shape = tuple(self._radix[k] for k in self._axes)
        self.tables: Dict[Expr, Table] = {}
        self._digit_axes: Dict[int, Any] = {}

    def _along(self, positions: Sequence[int]) -> Tuple[int, ...]:
        return tuple(self._radix[k] if k in positions else 1 for k in self._axes)

    def axis(self, position: int) -> Any:
        """The digit of the variable at ``position``, along its axis."""
        digits = self._digit_axes.get(position)
        if digits is None:
            digits = np.arange(self._radix[position]).reshape(self._along((position,)))
            self._digit_axes[position] = digits
        return digits

    def known(self, predicate) -> Any:
        size = self.space.size
        raw = np.frombuffer(predicate.mask.to_bytes((size + 7) // 8, "little"), np.uint8)
        bits = np.unpackbits(raw, count=size, bitorder="little")
        return bits.view(bool).reshape(self.shape)

    def spread(self, table: Table, column: Any) -> Any:
        """A per-row ``column`` of ``table`` as a value over the space."""
        return column.reshape(self._along(table.positions))

    def leaf(self, table: Table) -> Tuple[Any, Any]:
        holds, raised = table.truth()
        return self.spread(table, holds), (
            None if raised is None else self.spread(table, raised)
        )

    def full(self, value: Any) -> Any:
        """``value`` at every state, as a flat array in state-index order."""
        value = np.asarray(value)
        out = np.empty(self.shape, dtype=value.dtype)
        out[...] = value
        return out.reshape(-1)

    def mask(self, value: Any) -> int:
        """A Boolean value as a state bitmask."""
        packed = np.packbits(self.full(value), bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def succ(self, delta: Any) -> List[int]:
        """``i + delta`` at every state ``i``, as Python ints."""
        out = self.full(delta).astype(np.int64, copy=False)
        out += np.arange(self.space.size, dtype=np.int64)
        return out.tolist()

    def first(self, raised: Any) -> Optional[int]:
        """The lowest state in ``raised``, or ``None``."""
        if raised is None:
            return None
        flat = self.full(raised)
        return int(flat.argmax()) if flat.any() else None


def vectors_of(space: StateSpace) -> Vectors:
    """The space's :class:`Vectors`, kept on the space (pickles drop it)."""
    vectors = space.__dict__.get("_support")
    if vectors is None:
        vectors = space._support = Vectors(space)
    return vectors


def reraise_expr(space: StateSpace, expr: Expr, index: int, resolution=None) -> None:
    """Evaluate ``expr`` at state ``index``, compiled as raising there."""
    bool(expr.eval(State(space, index), resolution))
    raise AssertionError(f"{expr!r} compiled as raising at state {index}")


def reraise_step(space: StateSpace, stmt: Statement, index: int) -> None:
    """Execute ``stmt`` at state ``index``, compiled as raising or leaving a
    domain there, as the per-state successor sweep did."""
    state = State(space, index)
    if stmt.guard.eval(state):
        for target, expr in zip(stmt.targets, stmt.exprs):
            value = expr.eval(state)
            domain = space.var(target).domain
            if value not in domain:
                raise GuardDomainError(
                    f"statement {stmt.name!r} assigns {target} := {value!r} "
                    f"outside domain {domain.name} in state {state.as_dict()!r}"
                )
    raise AssertionError(f"statement {stmt.name!r} compiled as raising at state {index}")


def expr_mask(space: StateSpace, expr: Expr, resolution=None) -> int:
    """The states where ``expr`` holds; raises what the lowest erring state raises."""
    vectors = vectors_of(space)
    value, raised = compile_bool(vectors, expr, resolution)
    first = vectors.first(raised)
    if first is not None:
        reraise_expr(space, expr, first, resolution)
    return vectors.mask(value)


def expr_predicate(space: StateSpace, expr: Expr, resolution=None) -> Predicate:
    """The predicate of a Boolean expression; knowledge terms read
    ``resolution``.  Past the explicit-state limit the ROBDD backend
    compiles the expression to a handle instead."""
    if space.size > limits.get_limit("explicit"):
        backend = backend_for_size(space.size)
        if getattr(backend, "symbolic", False):
            return backend.wrap(space, backend.expr_handle(space, expr, resolution))
        limits.check_explicit_size(space.size, f"evaluating {expr!r}")
    return Predicate(space, expr_mask(space, expr, resolution))


def _digits(vectors: Vectors, expr: Expr, position: int) -> Any:
    """``expr``'s value as a digit of the variable at ``position``, over the
    space; −1 where it raises or leaves the domain."""
    table, leaf = support_table(vectors.space, expr)
    if leaf is None:
        domain = vectors.space.variables[position].domain
        return vectors.spread(table, table.digits(position, domain))
    return np.where(  # Shannon-expand, as compile_bool does
        vectors.known(leaf.predicate),
        _digits(vectors, cofactor(expr, leaf, True), position),
        _digits(vectors, cofactor(expr, leaf, False), position),
    )


def _updates(vectors: Vectors, stmt: Statement) -> Tuple[Any, Any]:
    """``(delta, poison)``: the index change of ``stmt``'s assignment, and
    where an update raises or leaves its domain (``None``: nowhere)."""
    space = vectors.space
    delta, poison = 0, None
    for target, expr in zip(stmt.targets, stmt.exprs):
        k = space.position(target)
        digits = _digits(vectors, expr, k)
        if (digits < 0).any():
            poison = _or(vectors, poison, digits < 0)
        delta = delta + (digits - vectors.axis(k)) * space._strides[k]
    return delta, poison


def successors(space: StateSpace, stmt: Statement) -> List[int]:
    """``stmt``'s successor of every state (itself where the guard is
    false); raises what the lowest erring state raises."""
    vectors = vectors_of(space)
    guard, raised = compile_bool(vectors, stmt.guard)
    delta, poison = _updates(vectors, stmt)
    first = vectors.first(_or(vectors, raised, _and(vectors, guard, poison)))
    if first is not None:
        reraise_step(space, stmt, first)
    return vectors.succ(np.where(guard, delta, 0))


def unguarded_successors(space: StateSpace, stmt: Statement) -> Tuple[Tuple[int, ...], int]:
    """``stmt``'s assignment ignoring its guard, and the mask of states where
    an update raises or leaves its domain (their successor is themselves)."""
    vectors = vectors_of(space)
    delta, poison = _updates(vectors, stmt)
    if poison is None:
        return tuple(vectors.succ(delta)), 0
    return tuple(vectors.succ(np.where(poison, 0, delta))), vectors.mask(poison)


def guarded_successors(succ: Sequence[int], guard_mask: int) -> List[int]:
    """A knowledge-guarded statement's successor array in ``P_x``.

    ``succ`` is the statement's :func:`unguarded_successors`, computed once
    per statement; ``guard_mask`` is where its guard holds under the
    candidate's resolution.  State ``i`` goes to ``succ[i]`` where the
    guard holds and stays at ``i`` elsewhere.
    """
    return [j if guard_mask >> i & 1 else i for i, j in enumerate(succ)]


class ResolvedView:
    """``P_x``'s successor arrays for any resolution, without building ``P_x``.

    A knowledge-free statement means the same in every ``P_x``: its array
    is compiled once.  A statement with knowledge only in its guard is its
    unguarded successor, also compiled once, plus the guard's mask under
    the resolution (:func:`guarded_successors`).

    :meth:`arrays` returns ``None`` where the view does not apply (a
    right-hand side holds knowledge, or the space is past the explicit
    limit) and wherever ``P_x``'s own compile raises: a guard that raises,
    a guard that enables a poisoned state, or a knowledge-free statement
    that raises.  The caller then builds ``P_x`` with ``Program.resolve``,
    which raises exactly that error.
    """

    def __init__(self, space: StateSpace, statements: Sequence[Statement]):
        self.space = space
        self._parts = self._compile(statements)

    def _compile(self, statements: Sequence[Statement]) -> Optional[list]:
        """Per statement ``(name, array, None, 0)``, or ``(name, unguarded
        successor, guard, poison mask)`` when the guard holds knowledge;
        ``None`` when there is no view."""
        space = self.space
        if space.size > limits.get_limit("explicit"):
            return None
        parts = []
        for stmt in statements:
            if not stmt.is_knowledge_based():
                try:
                    parts.append((stmt.name, successors(space, stmt), None, 0))
                except Exception:  # P_x's own compile raises it again
                    return None
            elif any(e.knowledge_terms() for e in stmt.exprs):
                return None
            else:
                succ, poison = unguarded_successors(space, stmt)
                parts.append((stmt.name, succ, stmt.guard, poison))
        return parts

    def arrays(self, resolution) -> Optional[List[Tuple[str, Sequence[int]]]]:
        """``(name, successor array)`` of each statement of ``P_x``, in
        program order, or ``None`` (see the class docstring)."""
        if self._parts is None:
            return None
        out = []
        for name, succ, guard, poison in self._parts:
            if guard is None:
                out.append((name, succ))
                continue
            try:
                mask = expr_mask(self.space, guard, resolution)
            except Exception:  # P_x's own compile raises it again
                return None
            if mask & poison:
                return None
            out.append((name, guarded_successors(succ, mask)))
        return out
