"""The symbolic ROBDD predicate backend — sets by structure, not extension.

A self-contained reduced ordered BDD engine (hash-consed nodes, memoized
apply / quantification, negation by apply), with no dependency beyond the
standard library.  Where the explicit backends hold one bit per state, this
backend holds a *circuit* recognizing the set, so spaces of 2^40+ states
are routine as long as the sets involved have structure.

Encoding
--------
Each space variable ``v_k`` (radix ``r_k``) gets ``max(1, ceil(log2 r_k))``
Boolean *slots*, MSB first.  Slots are flattened in declaration order into
``s = 0 .. B-1``; slot ``s`` owns two adjacent BDD levels:

* level ``2s`` — the *current* copy,
* level ``2s+1`` — the *primed* (successor) copy,

so renaming current↔primed is a uniform level shift of ±1 that preserves
the order.  Bit patterns that encode no domain value (when a radix is not
a power of two) are excluded by the per-space *domain constraint* BDD; the
engine maintains the invariant that every predicate handle is a subset of
the domain, with ``true`` *being* the domain node.  Because variable
slots are MSB-first and mixed-radix strides decrease, the lexicographic
order of slot assignments equals the numeric state-index order — the
least satisfying path is the least member index.

Transitions are *relations* over current+primed levels
(:class:`RobddRelation`) compiled from the statement's guard and update
expressions (:meth:`RobddBackend.stmt_relation`) with the shared
expression compiler's leaf tables (:mod:`repro.unity.support`), which
never enumerate the space; a Φ plan's successor arrays translate exactly
(:meth:`RobddEngine.relation_from_array`).  ``image``/``preimage`` are
relational product + quantification.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from .. import limits
from .base import PredicateBackend

__all__ = ["RobddBackend", "RobddEngine", "RobddHandle", "RobddRelation"]

#: Largest support-assignment product the expression compiler will
#: enumerate for a single guard / update expression.  Statements of
#: factored models read a handful of small variables; hitting this cap
#: means the model needs refactoring, not a bigger sweep.
MAX_RELATION_SUPPORT = 1 << 16


class RobddHandle:
    """A predicate as a BDD node over the current levels of one engine."""

    __slots__ = ("engine", "node")

    def __init__(self, engine: "RobddEngine", node: int):
        self.engine = engine
        self.node = node

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"RobddHandle(node={self.node})"


class RobddRelation:
    """A transition relation as a BDD node over current+primed levels."""

    __slots__ = ("engine", "node")

    def __init__(self, engine: "RobddEngine", node: int):
        self.engine = engine
        self.node = node

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"RobddRelation(node={self.node})"


class RobddGroupTable:
    """Cylinder-quantification data: the levels of the non-kept variables."""

    __slots__ = ("engine", "set_id", "kept")

    def __init__(self, engine: "RobddEngine", set_id: int, kept: FrozenSet[str]):
        self.engine = engine
        self.set_id = set_id
        self.kept = kept


class RobddEngine:
    """Hash-consed ROBDD node store for one state space.

    Nodes are ints: ``0``/``1`` are the terminals, every other id indexes
    the ``(level, lo, hi)`` arrays.  All operations are memoized; equality
    of sets is identity of node ids.
    """

    def __init__(self, space):
        self.space = space
        radices = [len(v.domain) for v in space.variables]
        self.var_bits: List[int] = [
            max(1, (r - 1).bit_length()) if r > 1 else 1 for r in radices
        ]
        self.n_slots = sum(self.var_bits)
        self.n_levels = 2 * self.n_slots
        self._inf = self.n_levels  # terminal pseudo-level
        # slot -> (variable position, shift within the digit, index weight)
        self.slot_var: List[int] = []
        self.slot_shift: List[int] = []
        self.slot_weight: List[int] = []
        for k, bits in enumerate(self.var_bits):
            stride = space._strides[k]
            for p in range(bits):
                shift = bits - 1 - p
                self.slot_var.append(k)
                self.slot_shift.append(shift)
                self.slot_weight.append((1 << shift) * stride)
        # node store: terminals first
        self._level: List[int] = [self._inf, self._inf]
        self._lo: List[int] = [0, 1]
        self._hi: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # memo tables
        self._and_m: Dict[Tuple[int, int], int] = {}
        self._or_m: Dict[Tuple[int, int], int] = {}
        self._xor_m: Dict[Tuple[int, int], int] = {}
        self._neg_m: Dict[int, int] = {}
        self._shift_m: Dict[Tuple[int, int], int] = {}
        self._exists_m: Dict[Tuple[int, int], int] = {}
        self._forall_m: Dict[Tuple[int, int], int] = {}
        self._count_m: Dict[int, int] = {}
        # interned quantification level sets
        self._sets: List[Tuple[FrozenSet[int], int]] = []
        self._set_ids: Dict[FrozenSet[int], int] = {}
        self.cur_set = self._intern_set(frozenset(range(0, self.n_levels, 2)))
        self.pri_set = self._intern_set(frozenset(range(1, self.n_levels, 2)))
        # domain constraint (valid digit encodings), both copies
        self.domain = self._build_domain()
        self.domain_p = self._shift(self.domain, +1)
        # per-variable and whole-state identity relations (v' = v)
        self._var_identity: List[int] = [
            self._build_identity(k) for k in range(len(space.variables))
        ]
        ident = 1
        for rel in reversed(self._var_identity):
            ident = self._and(ident, rel)
        self.identity_all = self._and(
            self._and(ident, self.domain), self.domain_p
        )
        self._group_tables: Dict[FrozenSet[str], RobddGroupTable] = {}

    # ------------------------------------------------------------------
    # node store
    # ------------------------------------------------------------------

    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = len(self._level)
            self._level.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
        return node

    def node_count(self) -> int:
        """Total nodes ever hash-consed (terminals included)."""
        return len(self._level)

    # ------------------------------------------------------------------
    # boolean algebra (memoized apply)
    # ------------------------------------------------------------------

    def _and(self, a: int, b: int) -> int:
        if a == b:
            return a
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        r = self._and_m.get(key)
        if r is not None:
            return r
        la, lb = self._level[a], self._level[b]
        top = la if la < lb else lb
        a0, a1 = (self._lo[a], self._hi[a]) if la == top else (a, a)
        b0, b1 = (self._lo[b], self._hi[b]) if lb == top else (b, b)
        r = self._mk(top, self._and(a0, b0), self._and(a1, b1))
        self._and_m[key] = r
        return r

    def _or(self, a: int, b: int) -> int:
        if a == b:
            return a
        if a == 1 or b == 1:
            return 1
        if a == 0:
            return b
        if b == 0:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        r = self._or_m.get(key)
        if r is not None:
            return r
        la, lb = self._level[a], self._level[b]
        top = la if la < lb else lb
        a0, a1 = (self._lo[a], self._hi[a]) if la == top else (a, a)
        b0, b1 = (self._lo[b], self._hi[b]) if lb == top else (b, b)
        r = self._mk(top, self._or(a0, b0), self._or(a1, b1))
        self._or_m[key] = r
        return r

    def _xor(self, a: int, b: int) -> int:
        if a == b:
            return 0
        if a == 0:
            return b
        if b == 0:
            return a
        if a == 1:
            return self._neg(b)
        if b == 1:
            return self._neg(a)
        if a > b:
            a, b = b, a
        key = (a, b)
        r = self._xor_m.get(key)
        if r is not None:
            return r
        la, lb = self._level[a], self._level[b]
        top = la if la < lb else lb
        a0, a1 = (self._lo[a], self._hi[a]) if la == top else (a, a)
        b0, b1 = (self._lo[b], self._hi[b]) if lb == top else (b, b)
        r = self._mk(top, self._xor(a0, b0), self._xor(a1, b1))
        self._xor_m[key] = r
        return r

    def _neg(self, a: int) -> int:
        """Raw complement (over all bit patterns; callers re-intersect domain)."""
        if a <= 1:
            return 1 - a
        r = self._neg_m.get(a)
        if r is not None:
            return r
        r = self._mk(self._level[a], self._neg(self._lo[a]), self._neg(self._hi[a]))
        self._neg_m[a] = r
        self._neg_m[r] = a
        return r

    def _shift(self, a: int, delta: int) -> int:
        """Rename every level by ``+delta`` (current↔primed; order-preserving)."""
        if a <= 1:
            return a
        key = (a, delta)
        r = self._shift_m.get(key)
        if r is not None:
            return r
        r = self._mk(
            self._level[a] + delta,
            self._shift(self._lo[a], delta),
            self._shift(self._hi[a], delta),
        )
        self._shift_m[key] = r
        return r

    # ------------------------------------------------------------------
    # quantification
    # ------------------------------------------------------------------

    def _intern_set(self, levels: FrozenSet[int]) -> int:
        sid = self._set_ids.get(levels)
        if sid is None:
            sid = len(self._sets)
            self._sets.append((levels, max(levels) if levels else -1))
            self._set_ids[levels] = sid
        return sid

    def _exists(self, u: int, sid: int) -> int:
        levels, maxlvl = self._sets[sid]
        if u <= 1 or self._level[u] > maxlvl:
            return u
        key = (u, sid)
        r = self._exists_m.get(key)
        if r is not None:
            return r
        lvl = self._level[u]
        lo = self._exists(self._lo[u], sid)
        hi = self._exists(self._hi[u], sid)
        r = self._or(lo, hi) if lvl in levels else self._mk(lvl, lo, hi)
        self._exists_m[key] = r
        return r

    def _forall(self, u: int, sid: int) -> int:
        levels, maxlvl = self._sets[sid]
        if u <= 1 or self._level[u] > maxlvl:
            return u
        key = (u, sid)
        r = self._forall_m.get(key)
        if r is not None:
            return r
        lvl = self._level[u]
        lo = self._forall(self._lo[u], sid)
        hi = self._forall(self._hi[u], sid)
        r = self._and(lo, hi) if lvl in levels else self._mk(lvl, lo, hi)
        self._forall_m[key] = r
        return r

    # ------------------------------------------------------------------
    # the domain constraint and state cubes
    # ------------------------------------------------------------------

    def _var_lt_const(self, k: int, bound: int, primed: bool) -> int:
        """``digit_k < bound`` over variable ``k``'s (current or primed) levels."""
        bits = self.var_bits[k]
        base_slot = sum(self.var_bits[:k])
        node = 0  # after all bits compared equal, value == bound-prefix: not less
        for p in range(bits - 1, -1, -1):
            lvl = 2 * (base_slot + p) + (1 if primed else 0)
            c_bit = (bound >> (bits - 1 - p)) & 1
            if c_bit:
                node = self._mk(lvl, 1, node)
            else:
                node = self._mk(lvl, node, 0)
        return node

    def _build_domain(self) -> int:
        node = 1
        for k in range(len(self.space.variables) - 1, -1, -1):
            r = len(self.space.variables[k].domain)
            if r == (1 << self.var_bits[k]):
                continue
            node = self._and(self._var_lt_const(k, r, False), node)
        return node

    def _build_identity(self, k: int) -> int:
        """``v_k' = v_k`` as a relation node."""
        bits = self.var_bits[k]
        base_slot = sum(self.var_bits[:k])
        node = 1
        for p in range(bits - 1, -1, -1):
            s = base_slot + p
            both0 = self._mk(2 * s + 1, node, 0)
            both1 = self._mk(2 * s + 1, 0, node)
            node = self._mk(2 * s, both0, both1)
        return node

    def state_cube(self, index: int, primed: bool = False) -> int:
        """The singleton BDD of the state at ``index``."""
        space = self.space
        node = 1
        for s in range(self.n_slots - 1, -1, -1):
            k = self.slot_var[s]
            bit = (space.digit(index, k) >> self.slot_shift[s]) & 1
            lvl = 2 * s + (1 if primed else 0)
            node = self._mk(lvl, 0, node) if bit else self._mk(lvl, node, 0)
        return node

    def digit_cube(self, k: int, digit: int, primed: bool = False) -> int:
        """The BDD fixing variable ``k``'s digit (other variables free)."""
        bits = self.var_bits[k]
        base_slot = sum(self.var_bits[:k])
        node = 1
        for p in range(bits - 1, -1, -1):
            bit = (digit >> (bits - 1 - p)) & 1
            lvl = 2 * (base_slot + p) + (1 if primed else 0)
            node = self._mk(lvl, 0, node) if bit else self._mk(lvl, node, 0)
        return node

    def _balanced_or(self, parts: List[int]) -> int:
        if not parts:
            return 0
        while len(parts) > 1:
            parts = [
                self._or(parts[i], parts[i + 1]) if i + 1 < len(parts) else parts[i]
                for i in range(0, len(parts), 2)
            ]
        return parts[0]

    # ------------------------------------------------------------------
    # counting / enumeration
    # ------------------------------------------------------------------

    def _slot_of(self, u: int) -> int:
        return self._level[u] // 2 if u > 1 else self.n_slots

    def count(self, u: int) -> int:
        """Satisfying states of a (domain-subset, current-level) BDD."""
        return self._count_rel(u) << self._slot_of(u)

    def _count_rel(self, u: int) -> int:
        """Models over slots ``slot(u) .. B-1`` (free slots count double)."""
        if u == 0:
            return 0
        if u == 1:
            return 1
        r = self._count_m.get(u)
        if r is not None:
            return r
        s = self._slot_of(u)
        lo, hi = self._lo[u], self._hi[u]
        r = (self._count_rel(lo) << (self._slot_of(lo) - s - 1)) + (
            self._count_rel(hi) << (self._slot_of(hi) - s - 1)
        )
        self._count_m[u] = r
        return r

    def iter_indices(self, u: int) -> Iterator[int]:
        """All member state indices (ascending) — O(#members · B)."""
        weight = self.slot_weight
        n_slots = self.n_slots
        level = self._level
        lo_arr, hi_arr = self._lo, self._hi

        def rec(s: int, u: int, acc: int) -> Iterator[int]:
            if u == 0:
                return
            if s == n_slots:
                yield acc
                return
            if u > 1 and level[u] == 2 * s:
                yield from rec(s + 1, lo_arr[u], acc)
                yield from rec(s + 1, hi_arr[u], acc + weight[s])
            else:
                yield from rec(s + 1, u, acc)
                yield from rec(s + 1, u, acc + weight[s])

        yield from rec(0, u, 0)

    def min_index(self, u: int) -> Optional[int]:
        """Least member index (lex-least slot assignment), or ``None``."""
        if u == 0:
            return None
        acc = 0
        while u > 1:
            lo, hi = self._lo[u], self._hi[u]
            if lo != 0:
                u = lo
            else:
                acc += self.slot_weight[self._level[u] // 2]
                u = hi
        return acc

    def test_index(self, u: int, index: int) -> bool:
        """Membership of one state index — O(B)."""
        space = self.space
        while u > 1:
            s = self._level[u] // 2
            bit = (space.digit(index, self.slot_var[s]) >> self.slot_shift[s]) & 1
            u = self._hi[u] if bit else self._lo[u]
        return u == 1

    # ------------------------------------------------------------------
    # relational kernels
    # ------------------------------------------------------------------

    def image(self, u: int, rel: int) -> int:
        prod = self._and(u, rel)
        e = self._exists(prod, self.cur_set)
        return self._and(self._shift(e, -1), self.domain)

    def preimage(self, u: int, rel: int) -> int:
        prod = self._and(rel, self._shift(u, +1))
        e = self._exists(prod, self.pri_set)
        return self._and(e, self.domain)

    def relation_from_array(self, succ) -> int:
        parts = [
            self._and(self.state_cube(i), self.state_cube(j, primed=True))
            for i, j in enumerate(succ)
        ]
        return self._balanced_or(parts)

    # ------------------------------------------------------------------
    # canonical serialization (certificates)
    # ------------------------------------------------------------------

    def serialize(self, u: int) -> Dict[str, Any]:
        """Postorder dense-renumbered node list; terminals are ids 0/1."""
        index: Dict[int, int] = {0: 0, 1: 1}
        nodes: List[List[int]] = []

        def rec(n: int) -> None:
            if n in index:
                return
            rec(self._lo[n])
            rec(self._hi[n])
            index[n] = len(nodes) + 2
            nodes.append(
                [self._level[n], index[self._lo[n]], index[self._hi[n]]]
            )

        rec(u)
        return {"nodes": nodes, "root": index[u]}

    def deserialize(self, payload: Dict[str, Any]) -> int:
        """Rebuild a state-predicate node, validating structure strictly."""
        nodes = payload.get("nodes")
        root = payload.get("root")
        if not isinstance(nodes, list) or not isinstance(root, int):
            raise ValueError("robdd payload needs a node list and a root id")
        ids: List[int] = [0, 1]
        levels: List[int] = [self._inf, self._inf]
        for entry in nodes:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ValueError(f"malformed robdd node entry {entry!r}")
            lvl, lo, hi = entry
            if not (0 <= lvl < self.n_levels and lvl % 2 == 0):
                raise ValueError(f"robdd node level {lvl} is not a current level")
            if not (0 <= lo < len(ids) and 0 <= hi < len(ids)):
                raise ValueError("robdd node references an undefined child id")
            if levels[lo] <= lvl or levels[hi] <= lvl:
                raise ValueError("robdd node levels are not strictly ordered")
            if lo == hi:
                raise ValueError("robdd node with equal children is not reduced")
            ids.append(self._mk(lvl, ids[lo], ids[hi]))
            levels.append(lvl)
        if not 0 <= root < len(ids):
            raise ValueError(f"robdd root id {root} out of range")
        node = ids[root]
        if self._and(node, self.domain) != node:
            raise ValueError("robdd payload escapes the space's domain constraint")
        return node


class _Nodes:
    """The expression compiler's algebra over one engine's raw nodes (see
    :func:`repro.unity.support.compile_bool`): a value-level leaf becomes
    one OR of cubes where its table holds and one where it raised."""

    false = 0
    true = 1

    def __init__(self, backend: "RobddBackend", eng: RobddEngine):
        self.backend = backend
        self.eng = eng
        self.space = eng.space
        self.and_, self.or_, self.not_, self.xor = eng._and, eng._or, eng._neg, eng._xor

    def known(self, predicate) -> int:
        return self.backend._pred_node(self.eng, predicate)

    def check(self, positions, rows: int) -> None:
        if rows > MAX_RELATION_SUPPORT:
            names = sorted(self.eng.space.variables[k].name for k in positions)
            raise ValueError(
                f"expression support {names} spans {rows} assignments "
                f"(cap {MAX_RELATION_SUPPORT}); factor the statement so each "
                "expression reads less state, or raise "
                "repro.predicates.backends.robdd.MAX_RELATION_SUPPORT"
            )

    def cubes(self, table) -> Iterator[int]:
        """The cube of each row of ``table``'s support, in row order."""
        eng = self.eng
        columns = [
            [eng.digit_cube(k, d) for d in range(len(eng.space.variables[k].domain))]
            for k in table.positions
        ]
        self.check(table.positions, math.prod(len(c) for c in columns))
        for fixed in itertools.product(*columns):
            cube = 1
            for node in fixed:
                cube = eng._and(cube, node)
            yield cube

    def leaf(self, table) -> Tuple[int, Optional[int]]:
        holds, raised = table.truth()
        yes: List[int] = []
        err: List[int] = []
        for row, cube in enumerate(self.cubes(table)):
            if raised is not None and raised[row]:
                err.append(cube)
            elif holds[row]:
                yes.append(cube)
        eng = self.eng
        return eng._balanced_or(yes), (eng._balanced_or(err) if err else None)

    def update(self, expr, k: int) -> Tuple[int, int]:
        """``(v_k' = expr, where expr raises or leaves v_k's domain)``, with
        resolved knowledge leaves Shannon-expanded as the compiler does."""
        from ...unity.support import cofactor, support_table

        eng = self.eng
        table, leaf = support_table(self.space, expr, check=self.check)
        if leaf is not None:
            node = self.known(leaf.predicate)
            rel_t, bad_t = self.update(cofactor(expr, leaf, True), k)
            rel_f, bad_f = self.update(cofactor(expr, leaf, False), k)
            neg = eng._neg(node)
            return (
                eng._or(eng._and(node, rel_t), eng._and(neg, rel_f)),
                eng._or(eng._and(node, bad_t), eng._and(neg, bad_f)),
            )
        digits = table.digits(k, eng.space.variables[k].domain)
        parts: List[int] = []
        escapes: List[int] = []
        for row, cube in enumerate(self.cubes(table)):
            if digits[row] < 0:
                escapes.append(cube)
            else:
                parts.append(eng._and(cube, eng.digit_cube(k, int(digits[row]), primed=True)))
        return eng._balanced_or(parts), eng._balanced_or(escapes)


class RobddBackend(PredicateBackend):
    """Predicate kernels over hash-consed ROBDDs (one engine per space)."""

    name = "robdd"
    keeps_handles = True
    symbolic = True
    enumerable = False

    def __init__(self):
        self._engines: Dict[Any, RobddEngine] = {}

    def engine(self, space) -> RobddEngine:
        eng = self._engines.get(space)
        if eng is None:
            eng = RobddEngine(space)
            self._engines[space] = eng
        return eng

    # -- handle conversion ------------------------------------------------

    def from_mask(self, mask: int, size: int) -> Any:
        raise TypeError(
            "the robdd backend derives its encoding from the space's variable "
            "structure; use from_mask_in(space, mask) instead of from_mask"
        )

    def from_mask_in(self, space, mask: int) -> RobddHandle:
        eng = self.engine(space)
        parts = []
        m = mask
        while m:
            low = m & -m
            parts.append(eng.state_cube(low.bit_length() - 1))
            m ^= low
        return RobddHandle(eng, eng._balanced_or(parts))

    def to_mask(self, handle: RobddHandle, size: int) -> int:
        limits.check_explicit_size(size, "materializing an int mask from a ROBDD")
        mask = 0
        for i in handle.engine.iter_indices(handle.node):
            mask |= 1 << i
        return mask

    def fingerprint(self, handle: RobddHandle, size: int) -> bytes:
        if size <= limits.get_limit("explicit"):
            return self.to_mask(handle, size).to_bytes((size + 7) // 8, "little")
        payload = handle.engine.serialize(handle.node)
        h = hashlib.sha256()
        h.update(b"robdd-v1\x00")
        h.update(str(payload["root"]).encode())
        for lvl, lo, hi in payload["nodes"]:
            h.update(b"\x00%d,%d,%d" % (lvl, lo, hi))
        return b"robdd\x00" + h.digest()

    def constant(self, space, value: bool) -> RobddHandle:
        eng = self.engine(space)
        return RobddHandle(eng, eng.domain if value else 0)

    def some_index(self, handle: RobddHandle, size: int) -> Optional[int]:
        return handle.engine.min_index(handle.node)

    # -- boolean algebra --------------------------------------------------

    @staticmethod
    def _pair(a: RobddHandle, b: RobddHandle) -> RobddEngine:
        if a.engine is not b.engine:
            raise ValueError("robdd handles belong to different engines")
        return a.engine

    def and_(self, a, b, size):
        eng = self._pair(a, b)
        return RobddHandle(eng, eng._and(a.node, b.node))

    def or_(self, a, b, size):
        eng = self._pair(a, b)
        return RobddHandle(eng, eng._or(a.node, b.node))

    def xor(self, a, b, size):
        eng = self._pair(a, b)
        return RobddHandle(eng, eng._xor(a.node, b.node))

    def not_(self, a, size):
        eng = a.engine
        return RobddHandle(eng, eng._and(eng.domain, eng._neg(a.node)))

    def diff(self, a, b, size):
        eng = self._pair(a, b)
        return RobddHandle(eng, eng._and(a.node, eng._neg(b.node)))

    # -- queries ----------------------------------------------------------

    def popcount(self, handle, size):
        return handle.engine.count(handle.node)

    def equal(self, a, b, size):
        return self._pair(a, b) is a.engine and a.node == b.node

    def is_false(self, handle, size):
        return handle.node == 0

    def is_full(self, handle, size):
        return handle.node == handle.engine.domain

    def test_bit(self, handle, index):
        return handle.engine.test_index(handle.node, index)

    # -- relational kernels -----------------------------------------------

    def build_table(self, program, stmt) -> RobddRelation:
        return self.stmt_relation(program, stmt)

    def table_from_array(self, succ, size: int) -> Any:
        raise TypeError(
            "the robdd backend derives its encoding from the space's variable "
            "structure; use table_from_array_in(space, succ)"
        )

    def table_from_array_in(self, space, succ) -> RobddRelation:
        eng = self.engine(space)
        return RobddRelation(eng, eng.relation_from_array(succ))

    def image(self, handle, table, size):
        eng = handle.engine
        return RobddHandle(eng, eng.image(handle.node, table.node))

    def preimage(self, handle, table, size):
        eng = handle.engine
        return RobddHandle(eng, eng.preimage(handle.node, table.node))

    # -- relational compilation from expressions --------------------------

    def stmt_relation(self, program, stmt) -> RobddRelation:
        """Compile ``stmt`` to a relation without enumerating the space.

        ``R = (G ∧ ⋀_t t' = E_t ∧ frame) ∨ (¬G ∧ identity)``, intersected
        with both domain copies.  Guard leaves and update values come from
        the expression compiler's tables, one row per assignment of each
        expression's *support*, so cost scales with how much state a
        statement reads, not with the space.  Where the guard raises, or
        holds while an update raises or leaves its domain, the lowest such
        state is re-run per state and raises what the explicit backends do.
        """
        from ...unity import support

        space = program.space
        eng = self.engine(space)
        nodes = _Nodes(self, eng)
        guard, raised = support.compile_bool(nodes, stmt.guard)
        taken = eng._and(guard, eng.domain)
        poison = 0
        for target, expr in zip(stmt.targets, stmt.exprs):
            rel, escapes = nodes.update(expr, space.position(target))
            taken = eng._and(taken, rel)
            poison = eng._or(poison, escapes)
        errors = eng._or(raised or 0, eng._and(guard, poison))
        witness = eng.min_index(eng._and(errors, eng.domain))
        if witness is not None:
            support.reraise_step(space, stmt, witness)
        targets = set(stmt.targets)
        for k, variable in enumerate(space.variables):
            if variable.name not in targets:
                taken = eng._and(taken, eng._var_identity[k])
        skip = eng._and(eng._and(eng._neg(guard), eng.domain), eng.identity_all)
        rel = eng._and(eng._or(taken, skip), eng.domain_p)
        return RobddRelation(eng, rel)

    def expr_handle(self, space, expr, resolution=None) -> RobddHandle:
        """The predicate denoted by a Boolean expression, compiled symbolically.

        Knowledge terms read ``resolution``; where the expression raises,
        the lowest such state is re-run per state and raises.
        """
        from ...unity import support

        eng = self.engine(space)
        value, raised = support.compile_bool(_Nodes(self, eng), expr, resolution)
        if raised is not None:
            witness = eng.min_index(eng._and(raised, eng.domain))
            if witness is not None:
                support.reraise_expr(space, expr, witness, resolution)
        return RobddHandle(eng, eng._and(value, eng.domain))

    def _pred_node(self, eng: RobddEngine, predicate) -> int:
        """A Predicate's node on this engine (reuse its handle when bound here)."""
        if (
            predicate._backend is self
            and predicate._handle is not None
            and predicate._handle.engine is eng
        ):
            return predicate._handle.node
        return self.from_mask_in(predicate.space, predicate.mask).node

    # -- canonical serialization ------------------------------------------

    def serialize(self, handle: RobddHandle) -> Dict[str, Any]:
        """Canonical node-list payload for certificates."""
        return handle.engine.serialize(handle.node)

    def deserialize(self, space, payload) -> RobddHandle:
        eng = self.engine(space)
        return RobddHandle(eng, eng.deserialize(payload))

    # -- cylinder kernels -------------------------------------------------

    def group_table(self, space, names) -> RobddGroupTable:
        eng = self.engine(space)
        kept = space.check_vars(names)
        table = eng._group_tables.get(kept)
        if table is None:
            levels = frozenset(
                2 * s
                for s in range(eng.n_slots)
                if space.variables[eng.slot_var[s]].name not in kept
            )
            table = RobddGroupTable(eng, eng._intern_set(levels), kept)
            eng._group_tables[kept] = table
        return table

    def quantify_groups(self, handle, table, size, universal):
        eng = handle.engine
        if universal:
            # wcyl: ∀ non-observable vars . (domain ⇒ p), back inside domain —
            # eq. (6) as variable forgetting.
            body = eng._or(eng._neg(eng.domain), handle.node)
            q = eng._forall(body, table.set_id)
        else:
            q = eng._exists(handle.node, table.set_id)
        return RobddHandle(eng, eng._and(q, eng.domain))

    def constant_on_groups(self, handle, table, size):
        eng = handle.engine
        forall_q = eng._and(
            eng._forall(eng._or(eng._neg(eng.domain), handle.node), table.set_id),
            eng.domain,
        )
        exists_q = eng._and(eng._exists(handle.node, table.set_id), eng.domain)
        return forall_q == exists_q
