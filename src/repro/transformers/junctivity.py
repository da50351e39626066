"""Junctivity analysis of predicate transformers (paper section 2, [DS90]).

A predicate transformer ``f`` is

* **monotonic** if ``[p ⇒ q] ⇒ [f.p ⇒ f.q]``;
* **universally conjunctive** if ``f.(∀W) = (∀ v ∈ W : f.v)`` for *all* bags
  ``W`` (including the empty bag, so ``f.true = true``);
* **finitely disjunctive** if ``f.(p ∨ q) = f.p ∨ f.q``;
* **or-continuous** if it distributes over limits of monotone chains.

On a finite space every predicate is a finite meet of co-atoms
(complements of singletons), which turns universal conjunctivity into a
checkable condition:  ``f`` is universally conjunctive iff for every ``p``,
``f.p = f.true ∧ (∧ i ∉ p : f.(¬{i}))``.  Likewise every monotone function
on a finite lattice is automatically or-continuous (all chains stabilize).

Exhaustive checks enumerate all ``2^n`` predicates and are meant for the
small counterexample spaces of the paper; sampled checks (seeded RNG) cover
larger spaces probabilistically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from ..predicates import Predicate, limits
from ..statespace import StateSpace

Transformer = Callable[[Predicate], Predicate]


@dataclass(frozen=True)
class Counterexample:
    """Witness predicates refuting a junctivity property."""

    property_name: str
    witnesses: Tuple[Predicate, ...]

    def __repr__(self) -> str:
        return f"Counterexample({self.property_name}, {len(self.witnesses)} witnesses)"


def all_predicates(space: StateSpace) -> Iterator[Predicate]:
    """Every predicate over ``space`` — 2^size of them; guard the size."""
    limits.check_enumeration_size(space.size)
    for mask in range(1 << space.size):
        yield Predicate(space, mask)


def random_predicate(space: StateSpace, rng: random.Random) -> Predicate:
    """A uniformly random predicate."""
    return Predicate(space, rng.getrandbits(space.size))


def _pairs(
    space: StateSpace,
    samples: Optional[int],
    rng: Optional[random.Random],
) -> Iterator[Tuple[Predicate, Predicate]]:
    if samples is None:
        for p in all_predicates(space):
            for q in all_predicates(space):
                yield p, q
    else:
        rng = rng or random.Random(0)
        for _ in range(samples):
            yield random_predicate(space, rng), random_predicate(space, rng)


def check_monotonic(
    f: Transformer,
    space: StateSpace,
    samples: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> Optional[Counterexample]:
    """Refute or (exhaustively/probabilistically) confirm monotonicity.

    Returns None when no counterexample was found.  With ``samples=None``
    the check is exhaustive and therefore a proof on small spaces.
    """
    for p, q in _pairs(space, samples, rng):
        if samples is not None:
            # Random pairs rarely satisfy p ⇒ q; force the inclusion.
            q = p | q
        if p.entails(q) and not f(p).entails(f(q)):
            return Counterexample("monotonic", (p, q))
    return None


def check_finitely_disjunctive(
    f: Transformer,
    space: StateSpace,
    samples: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> Optional[Counterexample]:
    """Refute or confirm ``f.p ∨ f.q = f.(p ∨ q)``."""
    for p, q in _pairs(space, samples, rng):
        if not (f(p) | f(q)) == f(p | q):
            return Counterexample("finitely_disjunctive", (p, q))
    return None


def check_finitely_conjunctive(
    f: Transformer,
    space: StateSpace,
    samples: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> Optional[Counterexample]:
    """Refute or confirm ``f.p ∧ f.q = f.(p ∧ q)``."""
    for p, q in _pairs(space, samples, rng):
        if not (f(p) & f(q)) == f(p & q):
            return Counterexample("finitely_conjunctive", (p, q))
    return None


def check_universally_conjunctive(
    f: Transformer, space: StateSpace
) -> Optional[Counterexample]:
    """Refute or confirm universal conjunctivity exactly.

    Uses the co-atom decomposition: ``p = ∧_{i ∉ p} ¬{i}`` (with the empty
    meet being ``true``), so universal conjunctivity over *all* bags reduces
    to agreement on these canonical meets plus finite conjunctivity.
    """
    ce = check_finitely_conjunctive(f, space)
    if ce is not None:
        return Counterexample("universally_conjunctive", ce.witnesses)
    f_true = f(Predicate.true(space))
    if not f_true == Predicate.true(space):
        # The empty bag: (∀v ∈ ∅ : f.v) = true must equal f.(∀v ∈ ∅ : v) = f.true.
        return Counterexample("universally_conjunctive", (Predicate.true(space),))
    coatom_images: List[Predicate] = [
        f(~Predicate.from_indices(space, [i])) for i in range(space.size)
    ]
    for p in all_predicates(space):
        expected = f_true
        for i in range(space.size):
            if not p.holds_at(i):
                expected = expected & coatom_images[i]
        if not f(p) == expected:
            return Counterexample("universally_conjunctive", (p,))
    return None


def check_universally_disjunctive(
    f: Transformer, space: StateSpace
) -> Optional[Counterexample]:
    """Refute or confirm universal disjunctivity exactly (dual decomposition)."""
    ce = check_finitely_disjunctive(f, space)
    if ce is not None:
        return Counterexample("universally_disjunctive", ce.witnesses)
    f_false = f(Predicate.false(space))
    if not f_false == Predicate.false(space):
        # The empty bag: f.false must be false.
        return Counterexample("universally_disjunctive", (Predicate.false(space),))
    atom_images: List[Predicate] = [
        f(Predicate.from_indices(space, [i])) for i in range(space.size)
    ]
    for p in all_predicates(space):
        expected = f_false
        for i in p.indices():
            expected = expected | atom_images[i]
        if not f(p) == expected:
            return Counterexample("universally_disjunctive", (p,))
    return None


def check_or_continuous(
    f: Transformer,
    space: StateSpace,
    chains: int = 64,
    rng: Optional[random.Random] = None,
) -> Optional[Counterexample]:
    """Check ``f.(∃ chain) = (∃ v in chain : f.v)`` on random ascending chains.

    On a finite space every monotone ``f`` is or-continuous (chains
    stabilize), so this is mainly a sanity check for *non*-monotone
    transformers such as the ``ŜP`` of knowledge-based protocols.
    """
    rng = rng or random.Random(0)
    for _ in range(chains):
        chain: List[Predicate] = []
        current = random_predicate(space, rng)
        for _step in range(4):
            chain.append(current)
            current = current | random_predicate(space, rng)
        chain.append(current)
        limit = chain[-1]
        union_of_images = Predicate.false(space)
        for link in chain:
            union_of_images = union_of_images | f(link)
        if not union_of_images == f(limit):
            return Counterexample("or_continuous", tuple(chain))
    return None


@dataclass(frozen=True)
class JunctivityReport:
    """Full junctivity profile of a transformer on a (small) space."""

    monotonic: Optional[Counterexample]
    finitely_conjunctive: Optional[Counterexample]
    finitely_disjunctive: Optional[Counterexample]
    universally_conjunctive: Optional[Counterexample]
    universally_disjunctive: Optional[Counterexample]
    or_continuous: Optional[Counterexample]

    def summary(self) -> str:
        def mark(ce: Optional[Counterexample]) -> str:
            return "yes" if ce is None else "NO"

        return (
            f"monotonic={mark(self.monotonic)} "
            f"fin-conj={mark(self.finitely_conjunctive)} "
            f"fin-disj={mark(self.finitely_disjunctive)} "
            f"univ-conj={mark(self.universally_conjunctive)} "
            f"univ-disj={mark(self.universally_disjunctive)} "
            f"or-cont={mark(self.or_continuous)}"
        )


def analyze(f: Transformer, space: StateSpace) -> JunctivityReport:
    """Run every exhaustive junctivity check (small spaces only)."""
    return JunctivityReport(
        monotonic=check_monotonic(f, space),
        finitely_conjunctive=check_finitely_conjunctive(f, space),
        finitely_disjunctive=check_finitely_disjunctive(f, space),
        universally_conjunctive=check_universally_conjunctive(f, space),
        universally_disjunctive=check_universally_disjunctive(f, space),
        or_continuous=check_or_continuous(f, space),
    )
