"""The independent replay checker.

This module re-establishes every certified verdict **without** the solvers:
no ``sst``, no ``wlt``, no ``solve_si``, no proof kernel.  Its entire
trusted base is

* primitive :class:`Predicate` operations (``&``, ``|``, ``~``, ``entails``,
  ``holds_at``) and the ``wcyl`` cylinder — pinned to the exact ``int``
  backend for the duration of every replay (models past the explicit-state
  limit pin the ROBDD backend instead — see :func:`replay_artifact`);
* one-step successor lookup (``Program.successor_array``) — the program
  *text*, not a transformer — and the expression compiler behind it
  (:mod:`repro.unity.support`), which also gives each knowledge term's
  body and, for eq.-(25) refutations, ``P_x``'s successor arrays without
  building ``P_x`` (``support.ResolvedView``);
* the model registry, which rebuilds the named program from source and
  compares its digest against what the certificate claims to be about.

Soundness sketches (full argument in DESIGN.md §8):

* **Kleene chains** — a chain starting at ``false`` whose every link is
  exactly ``SP.(previous) ∨ seed`` and whose last element is a fixed point
  is the orbit of ``f.x = SP.x ∨ seed``; its endpoint is therefore the
  *least* fixed point, i.e. ``sst.seed`` (eq. 3).  No monotonicity
  assumption is needed: the orbit is recomputed exactly.
* **eq.-(25) partitions** — the checker enumerates all candidates ``⊇
  init`` itself and demands each be either a verified solution (resolution
  correct per eq. 13, chain endpoint equal to the candidate) or concretely
  refuted (an escape path to a reachable state outside the candidate, or a
  closed superset of init missing a candidate state).  A truncated table
  cannot cover the enumeration; a padded one collides.
* **ranking stages** — each stage ``(a, X)`` with ``X`` carried into the
  accumulated target by ``a`` and confined to ``X ∨ Z`` by every statement
  satisfies ``X ensures Z``; fairness then yields ``X ↦ Z`` and induction
  over stages extends this to everything staged.
* **lassos** — a labeled path from ``init`` to a ``p``-state, a ``¬q``
  continuation into a *trap* (strongly connected, inside ``¬q``, with a
  stay-edge for every statement — a singleton must be fixed by all), which
  supports an infinite fair run avoiding ``q`` by walking to each
  statement's stay-state before firing it.
* **eq.-(13) resolutions** — recomputed innermost-first with the ``wcyl``
  primitive and the compiled term bodies; a certificate's recorded
  resolution must match bit for bit before its resolved program, or
  resolved view, is used.

Why the ``int`` backend: the checker's job is to be a *small, exact*
trusted base.  Replaying on the packed-word backend would re-admit the very
kernels the certificates are meant to guard; integer bitmask arithmetic in
CPython has no such fast path to trust.  Artifacts emitted under any
backend replay identically because predicates serialize by fingerprint.

CLI::

    python -m repro.certificates.replay artifacts/
    python -m repro.certificates.replay artifacts/ --journal solve.journal
    python -m repro.certificates.replay artifacts/ --json

Exit codes (machine contract, stable across releases):

* ``0`` — every artifact (and journal) verified; all verdicts
  re-established.
* ``1`` — at least one artifact or journal was **rejected** (semantic
  failure, tampering, digest mismatch) or no artifacts were found.
* ``2`` — usage error (argparse's convention: bad flags/arguments).
* ``3`` — at least one artifact is **truncated** (partially written);
  truncation dominates rejection because the remedy differs — re-emit,
  don't investigate.  (:data:`EXIT_TRUNCATED`)

``--json`` replaces the human-readable lines with one JSON document on
stdout — ``{"artifacts": [...], "journals": [...], "summary": {...}}`` —
so callers (the service client's untrusting-verify loop among them) can
consume outcomes programmatically.  The exit code is unchanged and also
recorded in ``summary.exit_code``.

Directory scans tolerate strays: a ``*.cert.json`` file that parses as
JSON but is not a certificate envelope is skipped with a warning
(:func:`repro.certificates.store.scan_artifacts`) instead of failing the
whole batch; damaged or tampered envelopes still fail loudly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..predicates import Predicate, limits, using_backend, wcyl
from ..unity import Program
from ..unity.support import ResolvedView, expr_predicate
from .canonical import (
    CertificateError,
    check_program_digest,
    space_signature,
)
from .certs import (
    CandidateRefutation,
    FixpointCertificate,
    InvariantCertificate,
    KbpSolveCertificate,
    KbpSpecCertificate,
    LeadsToCertificate,
    LeadsToRefutationCertificate,
    NonMonotonicityCertificate,
    S5Certificate,
    S5Instance,
    SafetyRefutationCertificate,
    SpHatCertificate,
    SpecCertificate,
    decode_certificate,
)
from .models import Model, build_model
from .store import Artifact, TruncatedArtifactError, load, scan_artifacts

#: Exhaustive enumerations (candidate sweeps, S5 predicate sweeps) refuse
#: to run past these sizes — replay is meant for the paper-scale models.
MAX_CANDIDATE_BITS = 20
MAX_S5_STATES = 8

#: Exit status for artifacts that end mid-document (partial writes).  Kept
#: distinct from 1 (semantic rejection) so callers can tell "this evidence
#: is wrong" from "this evidence never finished being written".
EXIT_TRUNCATED = 3


@dataclass(frozen=True)
class ReplayOutcome:
    """A successfully re-established verdict."""

    kind: str
    model: str
    verdict: str
    details: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# primitive machinery: images, chains, paths, traps, stages
# ----------------------------------------------------------------------


def _iter_bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _arrays(program: Program) -> List[Tuple[str, List[int]]]:
    return [(s.name, program.successor_array(s)) for s in program.statements]


def _image(program: Program, p: Predicate) -> Predicate:
    """One-step strongest postcondition from successor lookups only.

    Past the explicit-state limit the per-state loop is unrepresentable;
    the image is taken through the ROBDD backend's statement relations
    instead (forget the written variables, re-bind them, add the states
    the guard skips).  This grows the symbolic replay's trusted base to
    the BDD kernels — unavoidable, since explicit arithmetic cannot even
    hold one predicate of such a space.
    """
    space = program.space
    if space.size > limits.get_limit("explicit"):
        from ..predicates.backends import get_backend

        bk = get_backend("robdd")
        handle = p.handle(bk)
        acc = bk.constant(space, False)
        for stmt in program.statements:
            table = program.kernel_table(bk, stmt)
            acc = bk.or_(acc, bk.image(handle, table, space.size), space.size)
        return bk.wrap(space, acc)
    return _image_over(_arrays(program), p)


def _image_over(
    arrays: Sequence[Tuple[str, Sequence[int]]], p: Predicate
) -> Predicate:
    """:func:`_image`'s explicit loop over ``(name, successor array)`` pairs."""
    out = 0
    pm = p.mask
    for _, array in arrays:
        for i in _iter_bits(pm):
            out |= 1 << array[i]
    return Predicate(p.space, out)


def _check_chain(
    program: Program, seed: Predicate, chain: Sequence[Predicate], what: str
) -> Predicate:
    """Verify a Kleene chain of ``f.x = SP.x ∨ seed``; return its endpoint.

    The endpoint is then *provably* ``sst.seed``: the chain is the exact
    orbit of ``f`` from false, and an orbit that reaches a fixed point
    reaches the least one.

    Links are verified *incrementally*: since ``SP`` distributes over
    ``∨``, ``SP.xₖ = SP.xₖ₋₁ ∨ SP.(xₖ ∖ xₖ₋₁)`` — each step images only
    the frontier.  That is sound only for ascending chains, so ascension
    is checked first; every genuine orbit of ``f.x = SP.x ∨ seed``
    ascends (by induction from ``false``), so nothing valid is rejected.
    """
    if not chain:
        raise CertificateError(f"{what}: empty chain")
    if not chain[0].is_false():
        raise CertificateError(f"{what}: chain must start at false")
    for k in range(len(chain) - 1):
        if not chain[k].entails(chain[k + 1]):
            raise CertificateError(
                f"{what}: link {k + 1} is not a superset of link {k} — "
                "a genuine Kleene orbit ascends"
            )
    prev = chain[0]
    prev_sp = _image(program, prev)
    for k in range(len(chain) - 1):
        if k > 0:
            prev_sp = prev_sp | _image(program, chain[k] - prev)
            prev = chain[k]
        expected = prev_sp | seed
        if not expected == chain[k + 1]:
            raise CertificateError(
                f"{what}: link {k + 1} is not SP∨seed of link {k} — "
                "chain step dropped or edited"
            )
    last = chain[-1]
    if len(chain) > 1:
        prev_sp = prev_sp | _image(program, last - prev)
    if not (prev_sp | seed) == last:
        raise CertificateError(f"{what}: chain endpoint is not a fixed point")
    return last


def _check_path(
    program: Program,
    states: Sequence[int],
    statements: Sequence[str],
    start_in: Optional[Predicate] = None,
    what: str = "path",
) -> None:
    _check_steps(lambda: _arrays(program), states, statements, start_in, what)


def _check_steps(
    arrays: Callable[[], Sequence[Tuple[str, Sequence[int]]]],
    states: Sequence[int],
    statements: Sequence[str],
    start_in: Optional[Predicate],
    what: str,
) -> None:
    """A labeled path, step by step; ``arrays`` gives the successor arrays
    once the path's shape has passed."""
    if not states:
        raise CertificateError(f"{what}: empty state path")
    if len(statements) != len(states) - 1:
        raise CertificateError(f"{what}: label count does not match path length")
    if start_in is not None and not start_in.holds_at(states[0]):
        raise CertificateError(
            f"{what}: does not start in the required set (state {states[0]})"
        )
    amap = dict(arrays())
    for step, name in enumerate(statements):
        array = amap.get(name)
        if array is None:
            raise CertificateError(f"{what}: unknown statement {name!r}")
        if array[states[step]] != states[step + 1]:
            raise CertificateError(
                f"{what}: step {step} ({name}) does not map state "
                f"{states[step]} to {states[step + 1]}"
            )


def _check_trap(
    program: Program, trap: Sequence[int], q: Predicate, what: str
) -> None:
    """A trap supports an infinite fair run avoiding ``q``.

    For ``|T| ≥ 2``: strongly connected inside ``T`` (union graph) and
    every statement has a stay-edge — the fair run walks to that statement's
    stay-state before firing it.  A singleton must be fixed by *every*
    statement (each firing must stay put).
    """
    members = set(trap)
    if len(members) != len(trap):
        raise CertificateError(f"{what}: duplicate trap states")
    qm = q.mask
    for t in trap:
        if (qm >> t) & 1:
            raise CertificateError(f"{what}: trap state {t} satisfies q")
    arrays = _arrays(program)
    if len(members) == 1:
        t = trap[0]
        for name, array in arrays:
            if array[t] != t:
                raise CertificateError(
                    f"{what}: statement {name} moves the singleton trap"
                )
        return
    for name, array in arrays:
        if not any(array[i] in members for i in members):
            raise CertificateError(
                f"{what}: statement {name} always exits the trap"
            )
    forward: Dict[int, set] = {i: set() for i in members}
    backward: Dict[int, set] = {i: set() for i in members}
    for _, array in arrays:
        for i in members:
            j = array[i]
            if j in members:
                forward[i].add(j)
                backward[j].add(i)
    for graph in (forward, backward):
        seen = {trap[0]}
        stack = [trap[0]]
        while stack:
            for j in graph[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if seen != members:
            raise CertificateError(f"{what}: trap is not strongly connected")


def _check_stages(
    program: Program,
    p: Predicate,
    q: Predicate,
    reach: Predicate,
    stages: Sequence[Tuple[str, Predicate]],
    what: str,
) -> None:
    """Verify ``wlt`` ranking stages and conclude ``(p ∧ reach) ↦ q``."""
    arrays = _arrays(program)
    amap = {name: array for name, array in arrays}
    z = (q & reach).mask
    for idx, (helper_name, x) in enumerate(stages):
        helper = amap.get(helper_name)
        if helper is None:
            raise CertificateError(
                f"{what}: stage {idx} names unknown statement {helper_name!r}"
            )
        xm = x.mask
        x_or_z = xm | z
        for i in _iter_bits(xm):
            if not (z >> helper[i]) & 1:
                raise CertificateError(
                    f"{what}: stage {idx} helper {helper_name} does not carry "
                    f"state {i} into the accumulated target"
                )
            for name, array in arrays:
                if not (x_or_z >> array[i]) & 1:
                    raise CertificateError(
                        f"{what}: stage {idx} statement {name} escapes X∨Z "
                        f"from state {i}"
                    )
        z |= xm
    leftover = p.mask & reach.mask & ~z
    if leftover:
        state = next(_iter_bits(leftover))
        raise CertificateError(
            f"{what}: stages never stage the reachable p-state {state}"
        )


def _supersets(base_mask: int, full_mask: int, what: str) -> Iterable[int]:
    free = full_mask & ~base_mask
    if bin(free).count("1") > MAX_CANDIDATE_BITS:
        raise CertificateError(
            f"{what}: {bin(free).count('1')} free states is too large for "
            "exhaustive replay"
        )
    sub = free
    while True:
        yield base_mask | sub
        if sub == 0:
            return
        sub = (sub - 1) & free


# ----------------------------------------------------------------------
# eq.-(13) resolutions, recomputed from scratch
# ----------------------------------------------------------------------


def _knows(space, variables, si: Predicate, body: Predicate) -> Predicate:
    """Eq. (13) with primitives: ``body ∧ (wcyl.vars.(SI ⇒ body) ∨ ¬SI)``."""
    return body & (wcyl(variables, si.implies(body)) | ~si)


class _Eq13:
    """Eq.-(13) resolutions recomputed for one replay's candidates.

    Terms are resolved innermost-first (ordered by nested-term count), each
    body compiled with the already-resolved subterms, then pushed through
    eq. (13) with the ``wcyl`` primitive.  Any bit of disagreement with a
    certificate's table rejects the artifact.  Bodies are memoized per
    replay, keyed by the term and its resolved subterms' fingerprints: a
    non-nested body is the same for every candidate.
    """

    def __init__(self, program: Program):
        self.space = program.space
        views = {p.name: p.variables for p in program.processes.values()}
        terms = sorted(
            program.knowledge_terms(),
            key=lambda t: (len(t.knowledge_terms()), repr(t)),
        )
        self.terms = [
            (
                term,
                repr(term),
                views.get(term.process),
                sorted(term.formula.knowledge_terms(), key=repr),
            )
            for term in terms
        ]
        self.names = {name for _, name, _, _ in self.terms}
        self.bodies: Dict[Any, Predicate] = {}

    def verify(
        self, si: Predicate, table: Sequence[Tuple[str, Predicate]]
    ) -> Dict[Any, Predicate]:
        """The resolution at ``si``, once it matches the recorded ``table``."""
        recorded = dict(table)
        if len(recorded) != len(table):
            raise CertificateError("resolution table has duplicate terms")
        if set(recorded) != self.names:
            raise CertificateError(
                "resolution table does not cover exactly the program's "
                "knowledge terms"
            )
        not_si = ~si
        resolved: Dict[Any, Predicate] = {}
        for term, name, variables, subterms in self.terms:
            if variables is None:
                raise CertificateError(f"unknown process {term.process!r}")
            key = (name, tuple(
                resolved[t].fingerprint() if t in resolved else None
                for t in subterms
            ))
            body = self.bodies.get(key)
            if body is None:
                body = expr_predicate(self.space, term.formula, resolved)
                self.bodies[key] = body
            value = body & (wcyl(variables, si.implies(body)) | not_si)
            if not recorded[name] == value:
                raise CertificateError(
                    f"recorded resolution of {term!r} disagrees with eq. (13) "
                    "at this candidate SI"
                )
            resolved[term] = value
        return resolved


# ----------------------------------------------------------------------
# per-kind checkers
# ----------------------------------------------------------------------


def _handle_fixpoint(cert: FixpointCertificate, model: Model) -> ReplayOutcome:
    program = model.program
    check_program_digest(cert.program, program)
    if cert.claim not in ("sst", "si"):
        raise CertificateError(f"unknown fixpoint claim {cert.claim!r}")
    if cert.claim == "si" and not cert.seed == program.init:
        raise CertificateError("an SI certificate must be seeded with init")
    value = _check_chain(program, cert.seed, cert.chain, f"{cert.claim} chain")
    return ReplayOutcome(
        kind=cert.kind,
        model=model.key,
        verdict=f"{cert.claim}-fixpoint-verified",
        details={"links": len(cert.chain), "states": value.count()},
    )


def _handle_invariant(cert: InvariantCertificate, model: Model) -> ReplayOutcome:
    program = model.program
    check_program_digest(cert.si.program, program)
    if cert.si.claim != "si" or not cert.si.seed == program.init:
        raise CertificateError("invariant certificate needs an init-seeded chain")
    si = _check_chain(program, program.init, cert.si.chain, "SI chain")
    if not si.entails(cert.predicate):
        raise CertificateError(
            f"[SI ⇒ p] fails for the claimed invariant {cert.label or 'p'!r}"
        )
    return ReplayOutcome(
        kind=cert.kind,
        model=model.key,
        verdict="invariant-holds",
        details={"label": cert.label, "si_states": si.count()},
    )


def _replay_solve(
    cert: KbpSolveCertificate, program: Program
) -> List[Tuple[Predicate, Program]]:
    """Check a full eq.-(25) partition; return the verified solutions.

    Each returned pair is ``(SI, resolved program)`` — the chain check has
    already established that the resolved program's strongest invariant is
    exactly the candidate.
    """
    check_program_digest(cert.program, program)
    if not cert.init == program.init:
        raise CertificateError("certificate init differs from the program's")
    if not program.is_knowledge_based():
        raise CertificateError("kbp-solve certificate for a standard program")
    space = program.space
    free_states = space.size - program.init.count()
    if free_states > MAX_CANDIDATE_BITS:
        # Checked before any mask arithmetic: past the explicit limit even
        # one full_mask would be a 2^size-bit constant.
        raise CertificateError(
            f"kbp-solve replay: {free_states} free states is too large for "
            f"exhaustive replay (limit {MAX_CANDIDATE_BITS})"
        )
    seen: Dict[int, str] = {}
    solutions: List[Tuple[Predicate, Program]] = []
    eq13 = _Eq13(program)
    for entry in cert.solutions:
        m = entry.candidate.mask
        if m in seen:
            raise CertificateError("duplicate candidate in solution table")
        seen[m] = "solution"
        resolved_map = eq13.verify(entry.candidate, entry.resolution)
        resolved = program.resolve(resolved_map)
        si = _check_chain(
            resolved, program.init, entry.chain, "solution chain"
        )
        if not si == entry.candidate:
            raise CertificateError(
                "claimed solution is not a fixed point of Φ: its resolved "
                "program's SI differs from the candidate"
            )
        solutions.append((entry.candidate, resolved))
    # Refutations are checked against P_x's successor arrays from the
    # resolved view; where it has none, P_x itself is built, and its
    # compile raises what it raises.
    view = ResolvedView(space, program.statements)
    for ref in cert.refutations:
        m = ref.candidate.mask
        if m in seen:
            raise CertificateError("candidate appears twice in the partition")
        seen[m] = "refutation"
        if not program.init.entails(ref.candidate):
            raise CertificateError("refuted candidate does not contain init")
        resolved_map = eq13.verify(ref.candidate, ref.resolution)
        if ref.witness_kind == "escape":
            _check_steps(
                lambda: view.arrays(resolved_map)
                or _arrays(program.resolve(resolved_map)),
                ref.path_states,
                ref.path_statements,
                program.init,
                "escape path",
            )
            if ref.candidate.holds_at(ref.path_states[-1]):
                raise CertificateError(
                    "escape path ends inside the candidate — refutes nothing"
                )
        elif ref.witness_kind == "unreached":
            closed = ref.closed
            if closed is None or ref.missing is None:
                raise CertificateError("unreached witness is incomplete")
            if not program.init.entails(closed):
                raise CertificateError("closed set does not contain init")
            arrays = view.arrays(resolved_map)
            image = (
                _image(program.resolve(resolved_map), closed)
                if arrays is None
                else _image_over(arrays, closed)
            )
            if not image.entails(closed):
                raise CertificateError("claimed closed set is not closed")
            if closed.holds_at(ref.missing):
                raise CertificateError("missing state lies inside the closed set")
            if not ref.candidate.holds_at(ref.missing):
                raise CertificateError("missing state lies outside the candidate")
        else:
            raise CertificateError(
                f"unknown refutation witness kind {ref.witness_kind!r}"
            )
    expected = set(_supersets(program.init.mask, space.full_mask, "kbp-solve"))
    if set(seen) != expected:
        raise CertificateError(
            f"partition covers {len(seen)} candidates but init has "
            f"{len(expected)} supersets — refutation table truncated or padded"
        )
    return solutions


def _handle_kbp_solve(cert: KbpSolveCertificate, model: Model) -> ReplayOutcome:
    solutions = _replay_solve(cert, model.program)
    verdict = "no-solution" if not solutions else "well-posed"
    return ReplayOutcome(
        kind=cert.kind,
        model=model.key,
        verdict=verdict,
        details={
            "solutions": len(solutions),
            "candidates": len(cert.solutions) + len(cert.refutations),
        },
    )


def _replay_leads_to(
    cert: LeadsToCertificate,
    program: Program,
    trusted_reach: Optional[Predicate] = None,
) -> None:
    check_program_digest(cert.program, program)
    what = cert.label or "leads-to"
    if cert.si_chain is not None:
        si = _check_chain(program, program.init, cert.si_chain, f"{what} SI chain")
        if not si == cert.reach:
            raise CertificateError(f"{what}: reach differs from its certified SI")
    elif trusted_reach is not None:
        if not cert.reach == trusted_reach:
            raise CertificateError(
                f"{what}: reach differs from the enclosing certificate's SI"
            )
    else:
        raise CertificateError(
            f"{what}: no SI chain and no trusted reachable set"
        )
    _check_stages(program, cert.p, cert.q, cert.reach, cert.stages, what)


def _handle_leads_to(cert: LeadsToCertificate, model: Model) -> ReplayOutcome:
    _replay_leads_to(cert, model.program)
    return ReplayOutcome(
        kind=cert.kind,
        model=model.key,
        verdict="leads-to-holds",
        details={"label": cert.label, "stages": len(cert.stages)},
    )


def _replay_leads_to_refutation(
    cert: LeadsToRefutationCertificate, program: Program
) -> None:
    check_program_digest(cert.program, program)
    what = cert.label or "leads-to refutation"
    _check_path(
        program,
        cert.prefix_states,
        cert.prefix_statements,
        start_in=program.init,
        what=f"{what} prefix",
    )
    start = cert.prefix_states[-1]
    if not cert.p.holds_at(start):
        raise CertificateError(f"{what}: lasso start does not satisfy p")
    if not cert.approach_states or cert.approach_states[0] != start:
        raise CertificateError(f"{what}: approach does not continue the prefix")
    _check_path(
        program,
        cert.approach_states,
        cert.approach_statements,
        what=f"{what} approach",
    )
    qm = cert.q.mask
    for s in cert.approach_states:
        if (qm >> s) & 1:
            raise CertificateError(f"{what}: approach visits a q-state")
    if cert.approach_states[-1] not in set(cert.trap):
        raise CertificateError(f"{what}: approach does not end in the trap")
    _check_trap(program, cert.trap, cert.q, what)


def _handle_leads_to_refutation(
    cert: LeadsToRefutationCertificate, model: Model
) -> ReplayOutcome:
    _replay_leads_to_refutation(cert, model.program)
    return ReplayOutcome(
        kind=cert.kind,
        model=model.key,
        verdict="leads-to-refuted",
        details={"label": cert.label, "trap_states": len(cert.trap)},
    )


def _replay_safety_refutation(
    cert: SafetyRefutationCertificate, program: Program
) -> None:
    check_program_digest(cert.program, program)
    _check_path(
        program,
        cert.path_states,
        cert.path_statements,
        start_in=program.init,
        what="safety counterexample",
    )
    if cert.predicate.holds_at(cert.path_states[-1]):
        raise CertificateError(
            "safety counterexample ends in a state satisfying the predicate"
        )


def _handle_safety_refutation(
    cert: SafetyRefutationCertificate, model: Model
) -> ReplayOutcome:
    _replay_safety_refutation(cert, model.program)
    return ReplayOutcome(
        kind=cert.kind,
        model=model.key,
        verdict="safety-refuted",
        details={"label": cert.label, "path_length": len(cert.path_states)},
    )


def _handle_nonmonotonic(
    cert: NonMonotonicityCertificate, model: Model
) -> ReplayOutcome:
    base = model.program
    space = base.space
    check_program_digest(cert.program, base)
    weak_solutions = _replay_solve(cert.weak, base)

    strong_init = cert.strong.init
    pinned = model.extras.get("strong_init")
    if pinned is not None and not strong_init == pinned:
        raise CertificateError("strong init differs from the model's pinned one")
    if not strong_init.entails(base.init) or strong_init == base.init:
        raise CertificateError("strong init must strictly strengthen the weak one")
    strong_program = base.with_init(strong_init)
    strong_solutions = _replay_solve(cert.strong, strong_program)

    if len(weak_solutions) != 1 or len(strong_solutions) != 1:
        raise CertificateError("non-monotonicity comparison needs unique SIs")
    (si_weak, resolved_weak), = weak_solutions
    (si_strong, resolved_strong), = strong_solutions
    if si_strong.entails(si_weak):
        raise CertificateError(
            "SIs are monotone here — the non-monotonicity claim fails"
        )

    details: Dict[str, Any] = {
        "si_weak_states": si_weak.count(),
        "si_strong_states": si_strong.count(),
    }

    if cert.safety_predicate is not None:
        pinned_safety = model.extras.get("safety")
        if pinned_safety is not None and not cert.safety_predicate == pinned_safety:
            raise CertificateError("safety predicate differs from the model's")
        if not si_weak.entails(cert.safety_predicate):
            raise CertificateError("safety does not even hold under the weak init")
        if cert.safety_refutation is None:
            raise CertificateError("safety flip is missing its counterexample")
        if not cert.safety_refutation.predicate == cert.safety_predicate:
            raise CertificateError("safety counterexample refutes something else")
        _replay_safety_refutation(cert.safety_refutation, resolved_strong)
        details["safety_flips"] = True

    if cert.liveness_target is not None:
        pinned_target = model.extras.get("liveness_target")
        if pinned_target is not None and not cert.liveness_target == pinned_target:
            raise CertificateError("liveness target differs from the model's")
        if cert.liveness_weak is None or cert.liveness_refutation is None:
            raise CertificateError("liveness flip needs both directions certified")
        everywhere = Predicate.true(space)
        lw = cert.liveness_weak
        if not (lw.p == everywhere and lw.q == cert.liveness_target):
            raise CertificateError("weak liveness certificate is off-obligation")
        _replay_leads_to(lw, resolved_weak, trusted_reach=si_weak)
        lr = cert.liveness_refutation
        if not (lr.p == everywhere and lr.q == cert.liveness_target):
            raise CertificateError("liveness refutation is off-obligation")
        _replay_leads_to_refutation(lr, resolved_strong)
        details["liveness_flips"] = True

    return ReplayOutcome(
        kind=cert.kind, model=model.key, verdict="init-nonmonotonic", details=details
    )


def _handle_sp_hat(cert: SpHatCertificate, model: Model) -> ReplayOutcome:
    program = model.program
    check_program_digest(cert.program, program)
    if not cert.p.entails(cert.q):
        raise CertificateError("witness pair must satisfy [p ⇒ q]")
    eq13 = _Eq13(program)
    res_p = eq13.verify(cert.p, cert.resolution_p)
    res_q = eq13.verify(cert.q, cert.resolution_q)
    resolved_p = program.resolve(res_p)
    resolved_q = program.resolve(res_q)
    if not _image(resolved_p, cert.p) == cert.image_p:
        raise CertificateError("recorded ŜP.p differs from the one-step image")
    if not _image(resolved_q, cert.q) == cert.image_q:
        raise CertificateError("recorded ŜP.q differs from the one-step image")
    if not cert.image_p.holds_at(cert.witness):
        raise CertificateError("witness state is not in ŜP.p")
    if cert.image_q.holds_at(cert.witness):
        raise CertificateError("witness state is in ŜP.q — no violation")
    return ReplayOutcome(
        kind=cert.kind,
        model=model.key,
        verdict="sp-hat-nonmonotone",
        details={"witness_state": cert.witness},
    )


# ----------------------------------------------------------------------
# S5 laws, from the eq.-(13) primitive alone
# ----------------------------------------------------------------------


def _s5_violation(law: str, k, p: Predicate, q: Optional[Predicate]) -> Predicate:
    """The set of states violating one law instance (false = law holds)."""
    space = p.space
    if law == "truth":
        return k(p) & ~p
    if law == "distribution":
        assert q is not None
        return (k(p) & k(p.implies(q))) & ~k(q)
    if law == "positive-introspection":
        kp = k(p)
        return kp ^ k(kp)
    if law == "negative-introspection":
        nkp = ~k(p)
        return nkp ^ k(nkp)
    if law == "necessitation":
        return ~k(p) if p.is_everywhere() else Predicate.false(space)
    if law == "disjunctivity":
        assert q is not None
        return (k(p) | k(q)) ^ k(p | q)
    raise CertificateError(f"unknown S5 law {law!r}")


_S5_BINARY = {"distribution", "disjunctivity"}


def _check_s5_instance(space, variables, si: Predicate, inst: S5Instance) -> None:
    binary = inst.law in _S5_BINARY
    if inst.verdict == "fails":
        if inst.mode != "witness":
            raise CertificateError("a failing law must carry witnesses")
        expected = 2 if binary else 1
        if len(inst.witnesses) != expected or inst.witness_state is None:
            raise CertificateError(f"law {inst.law}: malformed witnesses")
        k = lambda x: _knows(space, variables, si, x)
        p = inst.witnesses[0]
        q = inst.witnesses[1] if binary else None
        violation = _s5_violation(inst.law, k, p, q)
        if not violation.holds_at(inst.witness_state):
            raise CertificateError(
                f"law {inst.law}: witness state does not violate the law"
            )
        return
    if inst.verdict != "holds" or inst.mode != "exhaustive":
        raise CertificateError(
            f"law {inst.law}: unsupported verdict/mode "
            f"{inst.verdict!r}/{inst.mode!r}"
        )
    if space.size > MAX_S5_STATES:
        raise CertificateError(
            f"space of {space.size} states too large for exhaustive S5 replay"
        )
    # Precompute K over every predicate once; law sweeps are then mask ops.
    table = {
        m: _knows(space, variables, si, Predicate(space, m))
        for m in range(1 << space.size)
    }
    k = lambda x: table[x.mask]
    every = [Predicate(space, m) for m in range(1 << space.size)]
    if binary:
        for p in every:
            for q in every:
                if not _s5_violation(inst.law, k, p, q).is_false():
                    raise CertificateError(
                        f"law {inst.law} does not hold exhaustively"
                    )
    else:
        for p in every:
            if not _s5_violation(inst.law, k, p, None).is_false():
                raise CertificateError(f"law {inst.law} does not hold exhaustively")


def _handle_s5(cert: S5Certificate, model: Model) -> ReplayOutcome:
    space = model.program.space
    if cert.space_sig != space_signature(space):
        raise CertificateError("S5 certificate is over a different state space")
    model_views = {
        p.name: tuple(sorted(p.variables))
        for p in model.program.processes.values()
    }
    cert_views = {name: tuple(sorted(vs)) for name, vs in cert.views}
    if model_views != cert_views:
        raise CertificateError("S5 certificate views differ from the model's")
    if not cert.instances:
        raise CertificateError("S5 certificate carries no instances")
    views = {name: vs for name, vs in cert.views}
    for inst in cert.instances:
        variables = views.get(inst.process)
        if variables is None:
            raise CertificateError(f"unknown process {inst.process!r}")
        _check_s5_instance(space, variables, cert.si, inst)
    return ReplayOutcome(
        kind=cert.kind,
        model=model.key,
        verdict="s5-verified",
        details={
            "instances": len(cert.instances),
            "holds": sum(1 for i in cert.instances if i.verdict == "holds"),
            "fails": sum(1 for i in cert.instances if i.verdict == "fails"),
        },
    )


# ----------------------------------------------------------------------
# specification bundles
# ----------------------------------------------------------------------


def _check_safety_entries(
    entries: Sequence[Tuple[str, Predicate]],
    obligations: Sequence[Tuple[str, Predicate]],
    si: Predicate,
) -> None:
    recorded = dict(entries)
    if len(recorded) != len(entries):
        raise CertificateError("duplicate safety entries")
    pinned = dict(obligations)
    if set(recorded) != set(pinned):
        raise CertificateError(
            "safety entries do not cover exactly the model's obligations"
        )
    for label, pred in pinned.items():
        if not recorded[label] == pred:
            raise CertificateError(
                f"safety predicate for {label!r} differs from the model's"
            )
        if not si.entails(pred):
            raise CertificateError(f"safety obligation {label!r} fails on SI")


def _check_liveness_entries(
    entries: Sequence[Any],
    obligations: Sequence[Tuple[str, Predicate, Predicate]],
    program: Program,
    si: Predicate,
) -> Dict[str, bool]:
    verdicts: Dict[str, bool] = {}
    remaining = list(entries)
    for label, p, q in obligations:
        match = None
        for entry in remaining:
            if entry.p == p and entry.q == q:
                match = entry
                break
        if match is None:
            raise CertificateError(f"no liveness evidence for obligation {label!r}")
        remaining.remove(match)
        if isinstance(match, LeadsToCertificate):
            _replay_leads_to(match, program, trusted_reach=si)
            verdicts[label] = True
        elif isinstance(match, LeadsToRefutationCertificate):
            _replay_leads_to_refutation(match, program)
            verdicts[label] = False
        else:
            raise CertificateError("unknown liveness entry type")
    if remaining:
        raise CertificateError("liveness entries beyond the model's obligations")
    return verdicts


def _handle_kbp_spec(cert: KbpSpecCertificate, model: Model) -> ReplayOutcome:
    program = model.program
    check_program_digest(cert.program, program)
    sol = cert.solution
    resolved_map = _Eq13(program).verify(sol.candidate, sol.resolution)
    resolved = program.resolve(resolved_map)
    si = _check_chain(resolved, program.init, sol.chain, "KBP solution chain")
    if not si == sol.candidate:
        raise CertificateError("solution chain endpoint differs from the candidate")
    _check_safety_entries(cert.safety, model.safety_obligations, si)
    verdicts = _check_liveness_entries(
        cert.liveness, model.liveness_obligations, resolved, si
    )
    if not all(verdicts.values()):
        raise CertificateError("kbp-spec certificates must certify full liveness")
    return ReplayOutcome(
        kind=cert.kind,
        model=model.key,
        verdict="spec-holds",
        details={
            "si_states": si.count(),
            "safety_holds": True,
            "liveness_holds": [verdicts[label] for label, _, _ in model.liveness_obligations],
        },
    )


def _handle_spec(cert: SpecCertificate, model: Model) -> ReplayOutcome:
    program = model.program
    check_program_digest(cert.program, program)
    si = _check_chain(program, program.init, cert.si_chain, "SI chain")

    pinned = dict(model.safety_obligations)
    positive = dict(cert.safety)
    if len(positive) != len(cert.safety):
        raise CertificateError("duplicate safety entries")
    refutations = {c.label: c for c in cert.safety_refutations}
    if len(refutations) != len(cert.safety_refutations):
        raise CertificateError("duplicate safety refutations")
    if set(positive) | set(refutations) != set(pinned) or set(positive) & set(
        refutations
    ):
        raise CertificateError(
            "safety evidence does not partition the model's obligations"
        )
    safety_verdicts: Dict[str, bool] = {}
    for label, pred in pinned.items():
        if label in positive:
            if not positive[label] == pred:
                raise CertificateError(
                    f"safety predicate for {label!r} differs from the model's"
                )
            if not si.entails(pred):
                raise CertificateError(f"safety obligation {label!r} fails on SI")
            safety_verdicts[label] = True
        else:
            refutation = refutations[label]
            if not refutation.predicate == pred:
                raise CertificateError(
                    f"safety refutation for {label!r} refutes something else"
                )
            _replay_safety_refutation(refutation, program)
            safety_verdicts[label] = False

    liveness_verdicts = _check_liveness_entries(
        cert.liveness, model.liveness_obligations, program, si
    )
    return ReplayOutcome(
        kind=cert.kind,
        model=model.key,
        verdict="spec-verified",
        details={
            "si_states": si.count(),
            "safety_holds": all(safety_verdicts.values()),
            "liveness_holds": [
                liveness_verdicts[label]
                for label, _, _ in model.liveness_obligations
            ],
        },
    )


_HANDLERS = {
    FixpointCertificate.kind: _handle_fixpoint,
    InvariantCertificate.kind: _handle_invariant,
    KbpSolveCertificate.kind: _handle_kbp_solve,
    LeadsToCertificate.kind: _handle_leads_to,
    LeadsToRefutationCertificate.kind: _handle_leads_to_refutation,
    SafetyRefutationCertificate.kind: _handle_safety_refutation,
    NonMonotonicityCertificate.kind: _handle_nonmonotonic,
    SpHatCertificate.kind: _handle_sp_hat,
    S5Certificate.kind: _handle_s5,
    KbpSpecCertificate.kind: _handle_kbp_spec,
    SpecCertificate.kind: _handle_spec,
}


def replay_artifact(artifact: Artifact) -> ReplayOutcome:
    """Re-establish an artifact's verdict; raise :class:`CertificateError`.

    All predicate arithmetic runs on the exact ``int`` backend regardless
    of the ambient selection — the replayer's trusted base stays minimal.
    Models past the explicit-state limit pin the ROBDD backend instead
    (int arithmetic cannot represent even one of their predicates); the
    trusted base then includes the hash-consed BDD kernels.
    """
    with using_backend("auto"):
        # Model construction must see the size-aware policy: symbolic-scale
        # models compile their init expressions to handles during build.
        model = build_model(artifact.model)
    space = model.program.space
    pinned = "robdd" if space.size > limits.get_limit("explicit") else "int"
    with using_backend(pinned):
        cert = decode_certificate(artifact.kind, artifact.payload, space)
        handler = _HANDLERS.get(artifact.kind)
        if handler is None:
            raise CertificateError(f"no replay handler for {artifact.kind!r}")
        try:
            return handler(cert, model)
        except CertificateError:
            raise
        except (ValueError, KeyError) as exc:
            raise CertificateError(f"replay failed: {exc}") from exc


def replay_path(path) -> ReplayOutcome:
    """Load one artifact file (digest-checked) and replay it."""
    return replay_artifact(load(path))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.certificates.replay",
        description=(
            "Independently re-check certificate artifacts. The checker's own "
            "arithmetic is always exact int; --backend only sets the ambient "
            "backend to demonstrate backend-independent acceptance."
        ),
    )
    parser.add_argument(
        "artifacts", help="a directory of *.cert.json files, or one file"
    )
    parser.add_argument(
        "--backend",
        choices=["int", "numpy", "robdd", "auto"],
        default=None,
        help="ambient predicate backend while loading and replaying",
    )
    parser.add_argument(
        "--journal",
        action="append",
        default=[],
        metavar="PATH",
        help=(
            "also verify a shard-checkpoint journal's sha256 chain "
            "(repeatable); rejected journals fail the run"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help=(
            "emit one JSON document on stdout instead of human-readable "
            "lines; exit codes are unchanged (0 verified, 1 rejected, "
            "2 usage, 3 truncated)"
        ),
    )
    args = parser.parse_args(argv)
    target = Path(args.artifacts)
    if target.is_file():
        paths = [target]
    else:
        # Foreign JSON strays are skipped with a warning; damaged or
        # tampered envelopes still reach the loader and fail loudly.
        paths = list(scan_artifacts(target))
    if not paths and not args.journal:
        print(f"no *.cert.json artifacts under {target}", file=sys.stderr)
        return 1

    def tell(line: str) -> None:
        if not args.as_json:
            print(line)

    def run() -> int:
        artifact_records: List[Dict[str, Any]] = []
        journal_records: List[Dict[str, Any]] = []
        failures = 0
        truncated = 0
        for path in paths:
            try:
                artifact = load(path)
                outcome = replay_artifact(artifact)
            except TruncatedArtifactError as exc:
                truncated += 1
                artifact_records.append(
                    {"path": str(path), "status": "truncated", "error": str(exc)}
                )
                tell(f"TRUNCATED {path.name}: {exc}")
                continue
            except CertificateError as exc:
                failures += 1
                artifact_records.append(
                    {"path": str(path), "status": "rejected", "error": str(exc)}
                )
                tell(f"FAIL {path.name}: {exc}")
                continue
            artifact_records.append(
                {
                    "path": str(path),
                    "status": "verified",
                    "kind": artifact.kind,
                    "model": artifact.model,
                    "verdict": outcome.verdict,
                    "details": outcome.details,
                }
            )
            tell(
                f"OK   {path.name}: {artifact.kind} [{artifact.model}] "
                f"— {outcome.verdict}"
            )
        for journal_path in args.journal:
            from .journal import JournalError, verify_journal

            try:
                summary = verify_journal(journal_path)
            except JournalError as exc:
                failures += 1
                journal_records.append(
                    {
                        "path": str(journal_path),
                        "status": "rejected",
                        "error": str(exc),
                    }
                )
                tell(f"FAIL {journal_path}: {exc}")
                continue
            journal_records.append(
                {
                    "path": str(journal_path),
                    "status": "verified",
                    "program": summary["program"],
                    "complete": summary["complete"],
                    "shards_journaled": summary["shards_journaled"],
                    "shard_count": summary["shard_count"],
                    "candidates_checked": summary["candidates_checked"],
                }
            )
            shape = (
                "complete"
                if summary["complete"]
                else f"{summary['shards_journaled']}/{summary['shard_count']} shards"
            )
            tell(
                f"OK   {journal_path}: shard journal [{summary['program']}] "
                f"— chain verified, {shape}, "
                f"{summary['candidates_checked']} candidates"
            )
        checked = len(paths) + len(args.journal)
        bad = failures + truncated
        status = "all verdicts re-established" if not bad else "REJECTED"
        tell(f"{checked - bad}/{checked} artifacts verified — {status}")
        if truncated:
            # Truncation dominates: nothing semantic can be said about a
            # partial file, and the caller's remedy (re-emit) differs.
            code = EXIT_TRUNCATED
        else:
            code = 1 if failures else 0
        if args.as_json:
            print(
                json.dumps(
                    {
                        "artifacts": artifact_records,
                        "journals": journal_records,
                        "summary": {
                            "checked": checked,
                            "verified": checked - bad,
                            "rejected": failures,
                            "truncated": truncated,
                            "exit_code": code,
                        },
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        return code

    if args.backend is not None:
        with using_backend(args.backend):
            return run()
    return run()


if __name__ == "__main__":  # pragma: no cover — exercised via CLI tests
    sys.exit(main())
