"""Differential tests: the ROBDD backend must agree bit-for-bit with int.

The int-bitmask backend is the exact reference; the ROBDD backend is the
symbolic escape hatch past the explicit-state limit.  Where both can run
— every space below the limit — the results must be *identical*: same
fingerprints on every kernel, same transformer chains, same headline
verdicts, byte-identical certificate artifacts.  Past the limit the
symbolic backend is additionally exercised on operations explicit
backends cannot even represent.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predicates import (
    Predicate,
    get_backend,
    scyl,
    using_backend,
    wcyl,
)
from repro.predicates import limits
from repro.predicates.backends.robdd import RobddHandle
from repro.statespace import BoolDomain, IntRangeDomain, space_of
from repro.transformers import sp_statement, sst, wp_statement

from ..conftest import program_with_predicates

PAIR = ("int", "robdd")


def _space():
    # 48 states: byte-unaligned, multi-radix — non-power-of-two digit groups.
    return space_of(
        a=BoolDomain(), n=IntRangeDomain(0, 5), b=BoolDomain(), c=BoolDomain()
    )


def _random_masks(space, count, seed):
    rng = random.Random(seed)
    full = (1 << space.size) - 1
    edge = [0, 1, full, full - 1, 1 << (space.size - 1)]
    return edge + [rng.randrange(full + 1) for _ in range(count)]


class TestRobddKernelsAgreeWithInt:
    @pytest.mark.parametrize("seed", range(3))
    def test_algebra_agrees(self, seed):
        space = _space()
        size = space.size
        bk_int, bk_bdd = get_backend("int"), get_backend("robdd")
        masks = _random_masks(space, 6, seed)
        for m1 in masks[:6]:
            for m2 in masks[:6]:
                h1i, h2i = bk_int.from_mask(m1, size), bk_int.from_mask(m2, size)
                h1b = bk_bdd.from_mask_in(space, m1)
                h2b = bk_bdd.from_mask_in(space, m2)
                for op in ("and_", "or_", "xor", "diff"):
                    ri = getattr(bk_int, op)(h1i, h2i, size)
                    rb = getattr(bk_bdd, op)(h1b, h2b, size)
                    assert bk_int.fingerprint(ri, size) == bk_bdd.fingerprint(
                        rb, size
                    ), op
                assert bk_int.fingerprint(
                    bk_int.not_(h1i, size), size
                ) == bk_bdd.fingerprint(bk_bdd.not_(h1b, size), size)

    @pytest.mark.parametrize("seed", range(3))
    def test_counting_and_tests_agree(self, seed):
        space = _space()
        size = space.size
        bk_bdd = get_backend("robdd")
        for mask in _random_masks(space, 10, seed):
            hb = bk_bdd.from_mask_in(space, mask)
            assert bk_bdd.popcount(hb, size) == bin(mask).count("1")
            assert bk_bdd.is_false(hb, size) == (mask == 0)
            assert bk_bdd.is_full(hb, size) == (mask == (1 << size) - 1)
            for i in (0, 1, size // 2, size - 1):
                assert bk_bdd.test_bit(hb, i) == bool(mask >> i & 1)
            assert bk_bdd.to_mask(hb, size) == mask

    def test_fingerprint_is_exact_mask_bytes_below_the_limit(self):
        space = _space()
        size = space.size
        bk_bdd = get_backend("robdd")
        for mask in _random_masks(space, 8, seed=5):
            fp = bk_bdd.fingerprint(bk_bdd.from_mask_in(space, mask), size)
            assert fp == Predicate(space, mask).fingerprint()
            assert fp == mask.to_bytes((size + 7) // 8, "little")

    def test_from_mask_without_a_space_is_rejected(self):
        # The encoding is derived from the space's variable structure; a
        # bare (mask, size) pair cannot name one.
        with pytest.raises(TypeError, match="from_mask_in"):
            get_backend("robdd").from_mask(0b1010, 4)

    def test_serialization_is_canonical_and_round_trips(self):
        space = _space()
        bk = get_backend("robdd")
        for mask in _random_masks(space, 6, seed=9):
            h = bk.from_mask_in(space, mask)
            payload = bk.serialize(h)
            # Rebuilding from a mask reached by a different route must
            # serialize identically (dense postorder renumbering).
            again = bk.serialize(
                bk.not_(bk.not_(bk.from_mask_in(space, mask), space.size), space.size)
            )
            assert payload == again
            assert bk.to_mask(bk.deserialize(space, payload), space.size) == mask


class TestRobddTransformersAgreeWithInt:
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_sp_wp_agree(self, data):
        program, p = data.draw(program_with_predicates(1))
        results = {}
        for name in PAIR:
            with using_backend(name):
                program.transformer_cache.clear()
                fresh = Predicate(program.space, p.mask)
                results[name] = [
                    (
                        sp_statement(program, stmt, fresh).fingerprint(),
                        wp_statement(program, stmt, fresh).fingerprint(),
                    )
                    for stmt in program.statements
                ]
        assert results["int"] == results["robdd"]

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_sst_chain_agrees(self, data):
        program, p = data.draw(program_with_predicates(1))
        results = {}
        for name in PAIR:
            with using_backend(name):
                program.transformer_cache.clear()
                result = sst(program, Predicate(program.space, p.mask))
                results[name] = (
                    result.predicate.fingerprint(),
                    result.iterations,
                    tuple(q.fingerprint() for q in result.chain),
                )
        assert results["int"] == results["robdd"]

    @pytest.mark.parametrize("seed", range(3))
    def test_cylinders_agree(self, seed):
        space = _space()
        groups = [("a",), ("n",), ("a", "b"), ("n", "c"), ("a", "n", "b", "c")]
        for mask in _random_masks(space, 5, seed):
            for names in groups:
                results = {}
                for name in PAIR:
                    with using_backend(name):
                        fresh = Predicate(space, mask)
                        results[name] = (
                            wcyl(names, fresh).fingerprint(),
                            scyl(names, fresh).fingerprint(),
                        )
                assert results["int"] == results["robdd"]


class TestHeadlineVerdictsOnRobdd:
    def test_fig1_no_solution_bit_identical(self):
        from repro.core import solve_si, solve_si_iterative
        from repro.figures import fig1_program

        with using_backend("robdd"):
            report = solve_si(fig1_program())
            assert not report.well_posed
            assert report.solutions == ()
            iterative = solve_si_iterative(fig1_program())
            assert not iterative.converged
            assert len(iterative.cycle) == 2

    def test_fig2_sis_bit_identical(self):
        from repro.core import solve_si
        from repro.figures import fig2_program, fig2_strong_init, fig2_weak_init

        fingerprints = {}
        for name in PAIR:
            with using_backend(name):
                program = fig2_program()
                fingerprints[name] = tuple(
                    solve_si(program.with_init(init(program)))
                    .strongest()
                    .fingerprint()
                    for init in (fig2_weak_init, fig2_strong_init)
                )
        assert fingerprints["int"] == fingerprints["robdd"]

    def test_certificate_artifacts_byte_identical(self, tmp_path):
        from repro.certificates.emit import emit_all

        with using_backend("int"):
            int_paths = emit_all(tmp_path / "int", only=["fig1", "fig2"])
        with using_backend("robdd"):
            bdd_paths = emit_all(tmp_path / "robdd", only=["fig1", "fig2"])
        assert [p.name for p in int_paths] == [p.name for p in bdd_paths]
        for a, b in zip(int_paths, bdd_paths):
            assert a.read_bytes() == b.read_bytes()


class TestSymbolicScaleBasics:
    """Operations past the explicit limit, where only the ROBDD backend runs."""

    def _big_space(self):
        # 2^30 states: 30 boolean variables, far past the 2^22 default limit.
        return space_of(**{f"v{i}": BoolDomain() for i in range(30)})

    def test_true_false_and_counting(self):
        space = self._big_space()
        assert space.size > limits.get_limit("explicit")
        top = Predicate.true(space)
        bot = Predicate.false(space)
        assert top.count() == space.size
        assert bot.is_false() and not top.is_false()
        assert (top - top) == bot
        assert (top ^ top).is_false()

    def test_single_state_and_some_index(self):
        space = self._big_space()
        bk = get_backend("robdd")
        index = 123_456_789
        engine = bk.engine(space)
        single = bk.wrap(space, RobddHandle(engine, engine.state_cube(index)))
        assert single.count() == 1
        assert bk.some_index(single.handle(bk), space.size) == index
        assert single.holds_at(index)
        assert not single.holds_at(index + 1)

    def test_structural_fingerprint_is_stable_and_tagged(self):
        space = self._big_space()
        top = Predicate.true(space)
        fp = top.fingerprint()
        assert fp.startswith(b"robdd\x00")
        assert fp == Predicate.true(space).fingerprint()
        assert fp != Predicate.false(space).fingerprint()
