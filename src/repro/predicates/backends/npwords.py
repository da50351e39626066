"""The packed numpy ``uint64``-word backend.

A handle is a read-only ``numpy`` array of ``uint64`` words, ``word w`` bit
``b`` (little-endian) holding state ``64*w + b``.  Boolean algebra and
popcount run word-wise (64 states per element); the relational and
cylinder kernels unpack to a bool vector once per call, gather/scatter
through the successor or group arrays, and repack — no Python-level
per-state loops anywhere.

Handles stay attached to :class:`~repro.predicates.predicate.Predicate`
instances (``keeps_handles = True``), so a Kleene chain of ``sp``/``wp``/
``wcyl`` applications never converts back to Python ints until someone
actually asks for ``.mask``.

Invariant: bits at positions ``>= size`` in the last word are always zero,
which keeps fingerprints canonical and word-wise ``is_full``/``equal``
exact.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from .base import PredicateBackend

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _n_words(size: int) -> int:
    return (size + 63) >> 6


class NumpyWordsBackend(PredicateBackend):
    """Packed 64-bit words; kernels vectorized over whole predicates."""

    name = "numpy"
    keeps_handles = True

    def __init__(self) -> None:
        self._full_cache: Dict[int, "np.ndarray"] = {}

    # -- internal helpers -------------------------------------------------

    def _full(self, size: int) -> "np.ndarray":
        full = self._full_cache.get(size)
        if full is None:
            full = np.full(_n_words(size), ~np.uint64(0), dtype="<u8")
            tail = size & 63
            if tail:
                full[-1] = np.uint64((1 << tail) - 1)
            full.setflags(write=False)
            self._full_cache[size] = full
        return full

    def _bits(self, handle: "np.ndarray", size: int) -> "np.ndarray":
        """Unpack to a bool vector of length ``n_words * 64``.

        The zero-tail invariant means bits at positions ``>= size`` are
        false, so the padded vector can be used directly wherever only set
        positions matter; callers slicing to ``size`` get a free view.
        """
        return np.unpackbits(handle.view(np.uint8), bitorder="little").view(np.bool_)

    def _pack(self, bits: "np.ndarray", size: int) -> "np.ndarray":
        """Pack a bool/uint8 vector (length ``size`` or word-padded) into words."""
        padded = _n_words(size) * 64
        if bits.size != padded:
            buf = np.zeros(padded, dtype=np.bool_)
            buf[: bits.size] = bits
            bits = buf
        words = np.packbits(bits, bitorder="little").view("<u8")
        words.setflags(write=False)
        return words

    # -- handle conversion ------------------------------------------------

    def from_mask(self, mask: int, size: int) -> "np.ndarray":
        raw = mask.to_bytes(_n_words(size) * 8, "little")
        words = np.frombuffer(raw, dtype="<u8")
        return words  # frombuffer is already read-only

    def to_mask(self, handle: "np.ndarray", size: int) -> int:
        return int.from_bytes(handle.tobytes(), "little")

    def fingerprint(self, handle: "np.ndarray", size: int) -> bytes:
        return handle.tobytes()[: (size + 7) // 8]

    # -- boolean algebra --------------------------------------------------

    def and_(self, a, b, size: int):
        return np.bitwise_and(a, b)

    def or_(self, a, b, size: int):
        return np.bitwise_or(a, b)

    def xor(self, a, b, size: int):
        return np.bitwise_xor(a, b)

    def not_(self, a, size: int):
        return np.bitwise_and(np.bitwise_not(a), self._full(size))

    def diff(self, a, b, size: int):
        return np.bitwise_and(a, np.bitwise_not(b))

    # -- queries ----------------------------------------------------------

    def popcount(self, handle, size: int) -> int:
        if _HAS_BITWISE_COUNT:
            return int(np.bitwise_count(handle).sum())
        return int(
            np.unpackbits(handle.view(np.uint8), bitorder="little")[:size].sum()
        )

    def equal(self, a, b, size: int) -> bool:
        return bool(np.array_equal(a, b))

    def is_false(self, handle, size: int) -> bool:
        return not bool(handle.any())

    def is_full(self, handle, size: int) -> bool:
        return bool(np.array_equal(handle, self._full(size)))

    def test_bit(self, handle, index: int) -> bool:
        return bool((int(handle[index >> 6]) >> (index & 63)) & 1)

    # -- relational kernels -----------------------------------------------

    def build_table(self, program, stmt):
        return program.successor_np(stmt)

    def table_from_array(self, succ, size: int):
        arr = np.asarray(succ, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def image(self, handle, table, size: int):
        sources = np.flatnonzero(self._bits(handle, size))
        out = np.zeros(_n_words(size) * 64, dtype=np.bool_)
        out[table[sources]] = True
        return self._pack(out, size)

    def preimage(self, handle, table, size: int):
        return self._pack(self._bits(handle, size)[table], size)

    # -- cylinder kernels -------------------------------------------------

    def group_table(self, space, names) -> Tuple["np.ndarray", int]:
        return space.cylinder_partition_np(names)

    def quantify_groups(self, handle, table, size: int, universal: bool):
        group_of, n_groups = table
        bits = self._bits(handle, size)[:size]
        if universal:
            flags = np.ones(n_groups, dtype=bool)
            flags[group_of[~bits]] = False
        else:
            flags = np.zeros(n_groups, dtype=bool)
            flags[group_of[bits]] = True
        return self._pack(flags[group_of], size)

    def constant_on_groups(self, handle, table, size: int) -> bool:
        group_of, n_groups = table
        bits = self._bits(handle, size)[:size]
        any_true = np.zeros(n_groups, dtype=bool)
        any_true[group_of[bits]] = True
        any_false = np.zeros(n_groups, dtype=bool)
        any_false[group_of[~bits]] = True
        return not bool(np.any(any_true & any_false))

    # -- batched Φ ---------------------------------------------------------
    #
    # The whole candidate batch is one (batch, words) uint64 matrix; every
    # step of eq. (13) and the eq.-(3) Kleene chain runs as 2-D word
    # arithmetic or a single gather/scatter, so the per-candidate Python
    # cost of the exhaustive eq.-(25) sweep collapses to ~B-fold amortized
    # numpy calls.  The scalar kernels above are the row-wise semantics this
    # must reproduce exactly (the differential tests compare both).

    def _bits2d(self, mat: "np.ndarray") -> "np.ndarray":
        """Unpack a (B, W) word matrix to (B, W*64) bools, rows aligned."""
        return np.unpackbits(
            mat.view(np.uint8), axis=1, bitorder="little"
        ).view(np.bool_)

    def _pack2d(self, bits: "np.ndarray") -> "np.ndarray":
        """Pack a (B, W*64) bool matrix back into (B, W) uint64 words."""
        return np.packbits(bits, axis=1, bitorder="little").view("<u8")

    def _image2d(self, mat: "np.ndarray", succ: "np.ndarray", size: int):
        bits = self._bits2d(mat)
        rows, cols = np.nonzero(bits[:, :size])
        out = np.zeros(bits.shape, dtype=np.bool_)
        out[rows, succ[cols]] = True
        return self._pack2d(out)

    def _quantify2d_universal(
        self, mat: "np.ndarray", group_of: "np.ndarray", n_groups: int, size: int
    ):
        bits = self._bits2d(mat)[:, :size]
        flags = np.ones((mat.shape[0], n_groups), dtype=bool)
        rows, cols = np.nonzero(~bits)
        flags[rows, group_of[cols]] = False
        out = np.zeros((mat.shape[0], _n_words(size) * 64), dtype=np.bool_)
        out[:, :size] = flags[:, group_of]
        return self._pack2d(out)

    def batch_resolve(self, plan, masks):
        from .batch import BatchPoisonError, eval_guard_postfix

        batch = len(masks)
        if batch == 0:
            return 0, [], []
        size = plan.space.size
        words = _n_words(size)
        raw = b"".join(mask.to_bytes(words * 8, "little") for mask in masks)
        x = np.frombuffer(raw, dtype="<u8").reshape(batch, words)
        not_x = np.bitwise_and(np.bitwise_not(x), self._full(size))

        # eq. (13): K_V(body) resolves to body ∧ (wcyl.V.(x ⇒ body) ∨ ¬x),
        # one (B, W) matrix per knowledge term.  All plan data arrives
        # through the plan's memoizing accessors, converted once per process.
        terms = []
        for position in range(len(plan.terms)):
            body = plan.term_body(self, position)
            group_of, n_groups = plan.group_table(self, position)
            cylinder = self._quantify2d_universal(
                np.bitwise_or(not_x, body), group_of, n_groups, size
            )
            terms.append(
                np.bitwise_and(body, np.bitwise_or(cylinder, not_x))
            )

        guards = []
        for index, stmt in enumerate(plan.statements):
            if stmt.guard is None:
                guards.append(None)
                continue
            g = eval_guard_postfix(self, plan, stmt.guard, terms, size)
            if g.ndim == 1:  # knowledge-free guard program: same row everywhere
                g = np.broadcast_to(g, (batch, words))
            poison = plan.poison_handle(self, index)
            if poison is not None:
                bad = np.bitwise_and(g, poison).any(axis=1)
                if bad.any():
                    row = int(np.flatnonzero(bad)[0])
                    raise BatchPoisonError(masks[row], stmt.name)
            guards.append(g)
        return batch, terms, guards

    def batch_chain(self, plan, resolved) -> List[int]:
        batch, _, guards = resolved
        if batch == 0:
            return []
        size = plan.space.size
        words = _n_words(size)
        init = plan.init_handle(self)
        init_rows = np.broadcast_to(init, (batch, words))
        current = np.zeros((batch, words), dtype="<u8")
        # Row-wise f.y = init ∨ SP.y is monotone; fixpoint rows stay fixed,
        # so all-rows convergence lands within size + 1 joint steps.
        for _ in range(size + 2):
            acc = init_rows
            for index, g in enumerate(guards):
                succ = plan.succ_table(self, index)
                if g is None:
                    post = self._image2d(current, succ, size)
                else:
                    post = np.bitwise_or(
                        self._image2d(np.bitwise_and(current, g), succ, size),
                        np.bitwise_and(current, np.bitwise_not(g)),
                    )
                acc = np.bitwise_or(acc, post)
            if np.array_equal(acc, current):
                return self._rows(current)
            current = acc
        raise RuntimeError(  # pragma: no cover - monotone chains always stop
            f"batched Φ chain exceeded {size + 2} steps on {size} states"
        )

    def batch_rows(self, plan, resolved):
        batch, terms, guards = resolved
        term_rows = [self._rows(t) for t in terms]
        guard_rows = [None if g is None else self._rows(g) for g in guards]
        return [
            (
                tuple(column[row] for column in term_rows),
                tuple(None if c is None else c[row] for c in guard_rows),
            )
            for row in range(batch)
        ]

    @staticmethod
    def _rows(mat: "np.ndarray") -> List[int]:
        """A (B, W) word matrix as B exact int masks."""
        return [int.from_bytes(row.tobytes(), "little") for row in mat]
