"""The exact Python-int bitmask backend — the reference implementation.

Handles *are* masks: arbitrary-precision integers with bit ``i`` set iff
the predicate holds at state ``i``.  Boolean algebra is single int
operations; the relational kernels iterate **set bits of the smaller side**
rather than ``range(size)``:

* ``image`` walks the set bits of the source mask;
* ``preimage`` ORs cached per-state *predecessor masks* over the set bits
  of the target — or of its complement when that side is smaller, using
  that preimages of total functions commute with complement;
* the cylinder kernels reduce over per-group member masks (one big-int
  test per group) instead of one Python iteration per state.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .base import PredicateBackend


class IntSuccessorTable:
    """A statement's successor map plus lazily built predecessor masks."""

    __slots__ = ("succ", "_pred_masks")

    def __init__(self, succ: List[int]):
        self.succ = succ
        self._pred_masks: Optional[List[int]] = None

    def pred_masks(self) -> List[int]:
        """``pred[j]`` = mask of all states ``i`` with ``succ[i] == j``."""
        masks = self._pred_masks
        if masks is None:
            masks = [0] * len(self.succ)
            bit = 1
            for j in self.succ:
                masks[j] |= bit
                bit <<= 1
            self._pred_masks = masks
        return masks


class IntBitsBackend(PredicateBackend):
    """Exact integer bitmasks (the semantics every other backend must match)."""

    name = "int"
    keeps_handles = False

    # -- handle conversion ------------------------------------------------

    def from_mask(self, mask: int, size: int) -> int:
        return mask

    def to_mask(self, handle: int, size: int) -> int:
        return handle

    def fingerprint(self, handle: int, size: int) -> bytes:
        return handle.to_bytes((size + 7) // 8, "little")

    # -- boolean algebra --------------------------------------------------

    def and_(self, a: int, b: int, size: int) -> int:
        return a & b

    def or_(self, a: int, b: int, size: int) -> int:
        return a | b

    def xor(self, a: int, b: int, size: int) -> int:
        return a ^ b

    def not_(self, a: int, size: int) -> int:
        return ((1 << size) - 1) & ~a

    def diff(self, a: int, b: int, size: int) -> int:
        return a & ~b

    # -- queries ----------------------------------------------------------

    def popcount(self, handle: int, size: int) -> int:
        return handle.bit_count()

    def equal(self, a: int, b: int, size: int) -> bool:
        return a == b

    def is_false(self, handle: int, size: int) -> bool:
        return handle == 0

    def is_full(self, handle: int, size: int) -> bool:
        return handle == (1 << size) - 1

    def test_bit(self, handle: int, index: int) -> bool:
        return bool(handle >> index & 1)

    # -- relational kernels -----------------------------------------------

    def build_table(self, program, stmt) -> IntSuccessorTable:
        return IntSuccessorTable(program.successor_array(stmt))

    def table_from_array(self, succ, size: int) -> IntSuccessorTable:
        return IntSuccessorTable(list(succ))

    def image(self, handle: int, table: IntSuccessorTable, size: int) -> int:
        succ = table.succ
        out = 0
        mask = handle
        while mask:
            low = mask & -mask
            out |= 1 << succ[low.bit_length() - 1]
            mask ^= low
        return out

    def preimage(self, handle: int, table: IntSuccessorTable, size: int) -> int:
        full = (1 << size) - 1
        count = handle.bit_count()
        pred = table.pred_masks()
        # Iterate the smaller of q / ¬q: preimage commutes with complement
        # for total functions, so wp.s.q = ¬ wp.s.(¬q).
        if 2 * count <= size:
            mask = handle
            out = 0
            while mask:
                low = mask & -mask
                out |= pred[low.bit_length() - 1]
                mask ^= low
            return out
        mask = full & ~handle
        out = 0
        while mask:
            low = mask & -mask
            out |= pred[low.bit_length() - 1]
            mask ^= low
        return full & ~out

    # -- cylinder kernels -------------------------------------------------

    def group_table(self, space, names) -> List[int]:
        return space.cylinder_group_masks(names)

    def quantify_groups(
        self, handle: int, table: List[int], size: int, universal: bool
    ) -> int:
        out = 0
        if universal:
            for gm in table:
                if handle & gm == gm:
                    out |= gm
        else:
            for gm in table:
                if handle & gm:
                    out |= gm
        return out

    def constant_on_groups(self, handle: int, table: List[int], size: int) -> bool:
        for gm in table:
            inter = handle & gm
            if inter and inter != gm:
                return False
        return True
