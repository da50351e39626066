"""Knowledge-based protocols and the fixed-point equation for their SI.

Section 4 of the paper: when knowledge predicates appear in guards, the
program's strongest postcondition depends on the knowledge predicates,
which depend on ``SI``, which depends on ``SP`` — so ``SI`` is defined by
the *self-referential* equation (25)::

    SI ≡ strongest x : [ŜP.x ⇒ x] ∧ [init ⇒ x]

where ``ŜP.x`` is ``SP`` of the standard program obtained by resolving the
knowledge predicates against the candidate invariant ``x``.  Unlike the
standard case, ``ŜP`` is **not monotonic**, so

* a solution need not exist (the paper's Figure 1), and
* even when solutions exist, ``SI`` need not be monotonic in the initial
  condition (Figure 2) — strengthening ``init`` can destroy both safety and
  liveness properties.

A candidate ``x`` is a **solution** when the standard program ``P_x``
(knowledge resolved at ``x``) has strongest invariant exactly ``x``::

    Φ(x) = sst_{P_x}(init)      —  x solves (25)  iff  Φ(x) = x.

Solvers: :func:`solve_si` enumerates all candidates ``⊇ init`` exhaustively
(complete on small spaces), :func:`solve_si_cubes` prunes whole sub-cubes
of the candidate lattice at once (complete for non-nested knowledge, and
the only complete route on symbolic-scale spaces), and
:func:`solve_si_iterative` runs the Kleene chain ``init, Φ(init), Φ²(init),
…``, which may converge, cycle, or reach a non-solution — all three
outcomes are reported.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..predicates import Predicate, iterate_to_fixpoint, limits
from ..predicates.backends import backend_for_size
from ..transformers import sp_program, sst
from ..unity import Knowledge, Program
from .knowledge import KnowledgeOperator

#: Backward-compatible alias of the unified ``solver`` limit's *default*
#: (``repro.predicates.limits``; override with ``REPRO_MAX_SOLVER_STATES``
#: or ``set_limit('solver', ...)`` — the guards consult the live value).
MAX_EXHAUSTIVE_STATES = limits.get_limit("solver")

#: ``solve_si(parallel="auto")`` sends a program with no Φ plan to the
#: sharded pool from this many free state-bits up, and keeps the serial
#: sweep below it.
PARALLEL_AUTO_FREE_BITS = 12

#: ``solve_si(parallel="auto")`` sweeps a batchable, uncertified program
#: with the batched Φ kernel in-process (``workers=1``) below this many
#: free state-bits, and through the process pool from here up.  Measured
#: on kbp24 with 2 vCPUs (medians, EXPERIMENTS.md E22): a pool costs about
#: 30 ms per solve, so in-process wins every pair at 12 bits (18 vs 48 ms)
#: and 13 (32 vs 60 ms), 14 is a toss-up (4 and 8 wins of 9 in two sets)
#: and the pool wins every pair from 15 up (92 vs 130 ms).  Below 12 bits
#: the batched sweep is 60-110x faster than the serial loop (f10: 5.1 vs
#: 616 ms).
INPROCESS_AUTO_FREE_BITS = 14

#: Per-resolver LRU budget for memoized resolutions / Φ probes.  Exhaustive
#: sweeps visit each candidate once (memoization buys nothing there), but
#: Kleene chains, instantiation checks and Figure-2 comparisons re-probe
#: the same few candidates repeatedly.
_RESOLVER_LRU = 128


class CandidateResolver:
    """Shares work across the many candidate SIs a KBP solver probes.

    Three layers of reuse, from always-valid to per-candidate:

    * the knowledge-term *bodies* (per-state expression evaluation, the
      dominant pure-Python cost) are SI-independent and shared through a
      single :class:`KnowledgeOperator` term cache;
    * successor arrays and kernel tables of knowledge-**free** statements
      are identical in every resolved program ``P_x`` and are adopted from
      a single donor computation;
    * full resolutions, resolved programs and ``Φ`` values are memoized
      per candidate fingerprint in bounded LRUs.
    """

    def __init__(self, program: Program):
        self.program = program
        views = {p.name: p.variables for p in program.processes.values()}
        self._base_operator = KnowledgeOperator(
            program.space, program.init, views
        )
        self._terms = program.knowledge_terms()
        self._resolutions: "OrderedDict[bytes, Dict[Knowledge, Predicate]]" = (
            OrderedDict()
        )
        self._programs: "OrderedDict[bytes, Program]" = OrderedDict()
        self._phi: "OrderedDict[bytes, Predicate]" = OrderedDict()
        #: knowledge-free statements whose semantics are SI-independent
        self._static_statements = [
            s for s in program.statements if not s.is_knowledge_based()
        ]
        self._static_donor: Optional[Program] = None

    def share_term_cache_with(self, other: "CandidateResolver") -> None:
        """Reuse ``other``'s term-body memo (valid across same-space variants,
        e.g. the two initial conditions of a Figure-2 comparison)."""
        self._base_operator._term_cache = other._base_operator._term_cache

    @staticmethod
    def _lookup(store: "OrderedDict", key: bytes):
        found = store.get(key)
        if found is not None:
            store.move_to_end(key)
        return found

    @staticmethod
    def _store(store: "OrderedDict", key: bytes, value) -> None:
        store[key] = value
        while len(store) > _RESOLVER_LRU:
            store.popitem(last=False)

    def operator_at(self, candidate_si: Predicate) -> KnowledgeOperator:
        """A knowledge operator for ``candidate_si`` sharing the body memo."""
        return self._base_operator.with_si(candidate_si)

    def resolution(self, candidate_si: Predicate) -> Dict[Knowledge, Predicate]:
        """The knowledge-term resolution induced by ``candidate_si`` (memoized)."""
        key = candidate_si.fingerprint()
        found = self._lookup(self._resolutions, key)
        if found is None:
            found = self.operator_at(candidate_si).resolve_terms(self._terms)
            self._store(self._resolutions, key, found)
        return found

    def resolved_program(self, candidate_si: Predicate) -> Program:
        """``P_x`` with operational caches of knowledge-free statements shared."""
        key = candidate_si.fingerprint()
        found = self._lookup(self._programs, key)
        if found is None:
            found = self.program.resolve(self.resolution(candidate_si))
            donor = self._static_donor
            if donor is None:
                # First resolution computes the static statements' caches …
                self._static_donor = found
            else:
                # … every later P_x adopts them instead of recomputing.
                for stmt in self._static_statements:
                    found.adopt_operational_caches(donor, stmt)
            self._store(self._programs, key, found)
        return found

    def phi(self, candidate_si: Predicate) -> Predicate:
        """``Φ(x) = sst_{P_x}(init)`` — the induced strongest invariant."""
        key = candidate_si.fingerprint()
        found = self._lookup(self._phi, key)
        if found is None:
            resolved = self.resolved_program(candidate_si)
            found = sst(resolved, resolved.init).predicate
            self._store(self._phi, key, found)
        return found


def resolve_at(program: Program, candidate_si: Predicate) -> Program:
    """The standard program ``P_x``: knowledge terms resolved at ``x``.

    Each knowledge term ``K_i φ`` becomes the concrete predicate of
    eq. (13) computed with ``SI = x`` (nested terms innermost-first).
    One-shot convenience — the solvers share a :class:`CandidateResolver`
    instead.
    """
    return CandidateResolver(program).resolved_program(candidate_si)


def resolution_at(
    program: Program, candidate_si: Predicate
) -> Dict[Knowledge, Predicate]:
    """The knowledge-term resolution induced by a candidate SI."""
    return CandidateResolver(program).resolution(candidate_si)


def phi(program: Program, candidate_si: Predicate) -> Predicate:
    """``Φ(x) = sst_{P_x}(init)`` — the induced strongest invariant."""
    return CandidateResolver(program).phi(candidate_si)


def sp_hat(program: Program) -> Callable[[Predicate], Predicate]:
    """The transformer ``ŜP``: ``x ↦ SP_{P_x}.x`` (eq. 25's body).

    This is the object whose **lack of monotonicity** the paper identifies
    as "the culprit" behind ill-posed knowledge-based protocols; feed it to
    :func:`repro.transformers.check_monotonic` to exhibit that.
    """
    resolver = CandidateResolver(program)

    def transform(x: Predicate) -> Predicate:
        return sp_program(resolver.resolved_program(x), x)

    return transform


def is_solution(program: Program, candidate_si: Predicate) -> bool:
    """Whether ``candidate_si`` solves eq. (25) (i.e. ``Φ(x) = x``)."""
    if not program.init.entails(candidate_si):
        return False
    return phi(program, candidate_si) == candidate_si


@dataclass(frozen=True)
class SolveReport:
    """Result of the exhaustive SI search.

    ``solutions`` are all fixed points of ``Φ`` above ``init``;
    ``candidates_checked`` counts the supersets of ``init`` examined.
    An empty ``solutions`` list certifies (on these finite spaces) that the
    knowledge-based protocol has **no** consistent standard protocol —
    Figure 1's situation.

    With ``solve_si(..., emit_certificate=True)``, ``certificate`` carries a
    :class:`repro.certificates.certs.KbpSolveCertificate` — the per-candidate
    evidence (sst chains for solutions, escape paths or closed-set witnesses
    for refutations) an independent replayer re-checks without this solver.
    """

    solutions: Tuple[Predicate, ...]
    candidates_checked: int
    certificate: Optional[object] = None
    #: :class:`repro.robustness.FaultLog` from sharded sweeps, in-process
    #: ones included (``fault_log.clean`` means no faults fired); ``None``
    #: for the serial loop.
    fault_log: Optional[object] = None
    #: :class:`repro.core.transport.DispatchStats` from multiprocess sweeps —
    #: bytes shipped per shard, the one-time init payload, worker peak RSS;
    #: ``None`` for serial and in-process solves.
    dispatch: Optional[object] = None

    @property
    def well_posed(self) -> bool:
        """At least one solution exists."""
        return bool(self.solutions)

    @property
    def unique(self) -> bool:
        """Exactly one solution exists."""
        return len(self.solutions) == 1

    def strongest(self) -> Predicate:
        """The ⊑-minimum solution; raises if none exists.

        "Strongest" means entailing every other solution — a smallest state
        *count* is not enough (two solutions can be incomparable).  When no
        minimum exists the question "the strongest solution" has no answer,
        and silently picking one would misreport the protocol's SI; the
        error names an incomparable pair so the caller can see why.
        """
        if not self.solutions:
            raise ValueError("knowledge-based protocol has no solution")
        # Solutions are pre-sorted by (count, mask): only the first can be a
        # ⊑-minimum (anything it fails to entail is no larger than it).
        candidate = self.solutions[0]
        for other in self.solutions[1:]:
            if not candidate.entails(other):
                raise ValueError(
                    "no strongest solution: "
                    f"{candidate!r} and {other!r} are ⊑-incomparable "
                    f"({len(self.solutions)} solutions in total)"
                )
        return candidate


def _supersets_of(base_mask: int, full_mask: int) -> Iterator[int]:
    """All masks ``m`` with ``base ⊆ m ⊆ full``, via submask enumeration."""
    free = full_mask & ~base_mask
    sub = free
    while True:
        yield base_mask | sub
        if sub == 0:
            return
        sub = (sub - 1) & free


def _check_exhaustive_size(space) -> None:
    """Refuse exhaustive sweeps beyond the unified ``solver`` limit."""
    limits.check_solver_size(space.size, symbolic_ok=True)


def solve_si(
    program: Program,
    resolver: Optional[CandidateResolver] = None,
    emit_certificate: bool = False,
    parallel: str = "auto",
    workers: Optional[int] = None,
    fault_policy: Optional[object] = None,
    checkpoint: Optional[object] = None,
    method: str = "auto",
    progress: Optional[object] = None,
    remote_workers: Optional[object] = None,
) -> SolveReport:
    """Completely solve eq. (25) over all candidates ``x ⊇ init``.

    ``method`` selects the complete solver for knowledge-based programs:

    * ``"exhaustive"`` — test every candidate individually.  Exponential in
      the number of non-initial states and guarded by the unified
      ``solver`` limit (:mod:`repro.predicates.limits`).
    * ``"cubes"`` — :func:`solve_si_cubes`: evaluate Φ once per sub-cube of
      the ``[init, true]`` lattice and split only undecided cubes.  Not
      size-guarded (it never enumerates candidates one by one), complete
      for programs whose knowledge terms are non-nested.
    * ``"auto"`` — exhaustive within the ``solver`` limit, cubes beyond it.

    Standard (knowledge-free) programs short-circuit to a single ``sst``
    (eq. 25 degenerates to eq. 1) with **no** size guard — on symbolic
    spaces the whole chain runs on ROBDD handles.
    Pass a :class:`CandidateResolver` to share knowledge-term bodies with
    related solves (the Figure-2 comparison does).

    ``parallel`` routes exhaustive sweeps through the sharded, batched
    solver in :mod:`repro.core.parallel` (bit-identical results).
    ``"auto"`` sweeps an uncertified program that compiles to a Φ plan
    in-process with the batched kernel (``workers=1``) below
    :data:`INPROCESS_AUTO_FREE_BITS` free state-bits and through the
    process pool from there up; a program with no plan, or a certified
    solve, keeps the serial sweep below :data:`PARALLEL_AUTO_FREE_BITS`
    and takes the pool from there up.  ``"force"`` always uses the
    sharded solver for knowledge-based programs, ``"never"`` keeps the
    serial sweep.  ``workers`` is forwarded to the sharded solver, except
    on ``"auto"``'s in-process route.

    ``fault_policy`` (a :class:`repro.robustness.FaultPolicy`) and
    ``checkpoint`` (a journal path or :class:`~repro.robustness.ShardJournal`)
    are sharded-solver features (DESIGN.md §10): passing either forces the
    parallel route for knowledge-based programs, and combining them with
    ``parallel="never"`` is an error.  So is ``progress`` — a callback
    receiving :class:`~repro.robustness.SolveProgress` ticks (one per
    resumed batch, one per completed shard, in journal order) from the
    supervised sharded sweep.

    With ``emit_certificate=True`` the report carries a full eq.-(25)
    certificate: each candidate's resolution plus either the sst chain
    (solutions) or a concrete refutation — a labeled escape path when
    ``Φ(x) ⊄ x``, a closed-set witness when ``Φ(x) ⊊ x``.  Only meaningful
    for knowledge-based programs, and only on the exhaustive route (the
    cube solver never visits refuted candidates individually).
    """
    if parallel not in ("auto", "never", "force"):
        raise ValueError(
            f"parallel={parallel!r} is not one of 'auto', 'never', 'force'"
        )
    if method not in ("auto", "exhaustive", "cubes"):
        raise ValueError(
            f"method={method!r} is not one of 'auto', 'exhaustive', 'cubes'"
        )
    wants_robustness = (
        fault_policy is not None
        or checkpoint is not None
        or progress is not None
        or remote_workers is not None
    )
    if wants_robustness and parallel == "never":
        raise ValueError(
            "fault_policy/checkpoint/progress/remote_workers are "
            'sharded-solver features; they cannot be combined with '
            'parallel="never"'
        )
    space = program.space
    if not program.is_knowledge_based():
        if emit_certificate:
            raise ValueError(
                "kbp-solve certificates are for knowledge-based programs; "
                "certify a standard program's SI with a fixpoint certificate"
            )
        # Standard program: eq. (25) degenerates to eq. (1); unique solution.
        solution = sst(program, program.init).predicate
        return SolveReport(solutions=(solution,), candidates_checked=1)
    if method == "auto":
        # Cubes only help (and are only sound) for non-nested knowledge;
        # otherwise stay exhaustive so the size guard can name the
        # remaining escape hatches.
        cubes_apply = not any(
            t.formula.knowledge_terms() for t in program.knowledge_terms()
        )
        method = (
            "cubes"
            if cubes_apply and space.size > limits.get_limit("solver")
            else "exhaustive"
        )
    if method == "cubes":
        if emit_certificate:
            raise ValueError(
                "the cube-pruning solver prunes refuted candidates in bulk "
                "and cannot emit per-candidate evidence; use "
                "method='exhaustive' (within the solver limit) for a "
                "certified sweep"
            )
        if wants_robustness:
            raise ValueError(
                "fault_policy/checkpoint/progress/remote_workers are sharded "
                "exhaustive-solver features; they cannot be combined with "
                "method='cubes'"
            )
        return solve_si_cubes(program, resolver=resolver)
    _check_exhaustive_size(space)
    if parallel != "never":
        from . import parallel as sharded

        free_bits = space.size - program.init.count()
        kwargs = dict(
            workers=workers,
            emit_certificate=emit_certificate,
            resolver=resolver,
            fault_policy=fault_policy,
            checkpoint=checkpoint,
            progress=progress,
            remote_workers=remote_workers,
        )
        if parallel == "force" or wants_robustness:
            return sharded.solve_si_parallel(program, **kwargs)
        if emit_certificate or free_bits >= INPROCESS_AUTO_FREE_BITS:
            if free_bits >= PARALLEL_AUTO_FREE_BITS:
                return sharded.solve_si_parallel(program, **kwargs)
        else:
            # Below the pool crossover a batchable sweep runs in-process.
            # The plan compiled to decide that is handed on, not recompiled.
            plan = sharded.compile_phi_plan(program)
            if plan is not None:
                kwargs["workers"] = 1
                return sharded._solve_routed(program, plan, **kwargs)
            if free_bits >= PARALLEL_AUTO_FREE_BITS:
                return sharded._solve_routed(program, None, **kwargs)
    if resolver is None:
        resolver = CandidateResolver(program)
    if emit_certificate:
        return _solve_si_certified(program, resolver)
    solutions: List[Predicate] = []
    checked = 0
    for mask in _supersets_of(program.init.mask, space.full_mask):
        checked += 1
        candidate = Predicate(space, mask)
        if resolver.phi(candidate) == candidate:
            solutions.append(candidate)
    solutions.sort(key=lambda p: (p.count(), p.mask))
    return SolveReport(solutions=tuple(solutions), candidates_checked=checked)


def _some_free_index(p: Predicate) -> Optional[int]:
    """A satisfying state index of ``p``, or None — mask- and handle-safe."""
    if p._mask is not None:
        m = p._mask
        return (m & -m).bit_length() - 1 if m else None
    return p._backend.some_index(p._handle, p.space.size)


def _single_state(space, index: int) -> Predicate:
    """The singleton predicate ``{index}`` without a 2^index-bit mask."""
    if space.size <= limits.get_limit("explicit"):
        return Predicate(space, 1 << index)
    backend = backend_for_size(space.size)
    return backend.wrap(space, backend.single(space, index))


def solve_si_cubes(
    program: Program, resolver: Optional[CandidateResolver] = None
) -> SolveReport:
    """Solve eq. (25) by pruning sub-cubes of the ``[init, true]`` lattice.

    A *cube* ``[L, U]`` is the set of candidates ``x`` with ``L ⊆ x ⊆ U``.
    For non-nested knowledge terms, eq. (13)'s resolution is **antitone**
    in the candidate SI (a larger ``x`` strengthens ``x ⇒ p`` under the
    ``wcyl`` and shrinks ``¬x``), so if the resolutions at the endpoints
    agree term-for-term they agree on the *whole* cube.  Then ``Φ`` is
    constant ``= c`` on the cube, and the cube's solutions are exactly
    ``{c}`` if ``L ⊆ c ⊆ U`` and ``∅`` otherwise — one ``Φ`` evaluation
    decides ``2^|U∖L|`` candidates.  Undecided cubes split on a single
    free state (preferring one where the endpoint resolutions differ).

    Complete: every candidate lies in exactly one decided cube.  Nested
    knowledge terms are refused — composing antitone resolutions is not
    antitone, so endpoint agreement would not imply constancy.

    Never size-guarded; on symbolic spaces every lattice operation stays
    on ROBDD handles (singleton split predicates included).

    The returned report's ``candidates_checked`` counts *decided cubes*
    (equivalently Φ evaluations plus refuted-cube probes), not individual
    candidates — the latter can exceed 2^(2^40).
    """
    if not program.is_knowledge_based():
        solution = sst(program, program.init).predicate
        return SolveReport(solutions=(solution,), candidates_checked=1)
    nested = sorted(
        (t for t in program.knowledge_terms() if t.formula.knowledge_terms()),
        key=repr,
    )
    if nested:
        raise ValueError(
            f"cube-pruning SI solver requires non-nested knowledge terms "
            f"(resolution is antitone in the candidate SI only then), but "
            f"{nested[0]!r} nests knowledge; use method='exhaustive' within "
            "the solver limit"
        )
    if resolver is None:
        resolver = CandidateResolver(program)
    space = program.space
    terms = sorted(program.knowledge_terms(), key=repr)
    solutions: List[Predicate] = []
    probes = 0
    stack: List[Tuple[Predicate, Predicate]] = [
        (program.init, Predicate.true(space))
    ]
    while stack:
        low, high = stack.pop()
        probes += 1
        res_low = resolver.resolution(low)
        res_high = resolver.resolution(high)
        if all(res_low[t] == res_high[t] for t in terms):
            # Resolution (hence Φ) is constant on [low, high]; the single
            # possible fixed point is its value c, provided c lies inside.
            value = resolver.phi(low)
            if low.entails(value) and value.entails(high):
                solutions.append(value)
            continue
        # Split on a free state, preferring one where the endpoint
        # resolutions disagree (deciding its membership tends to collapse
        # the disagreement fastest).
        free = high - low
        disagree = None
        for t in terms:
            d = (res_low[t] ^ res_high[t]) & free
            if not d.is_false():
                disagree = d
                break
        pick = disagree if disagree is not None else free
        index = _some_free_index(pick)
        assert index is not None  # endpoints differ, so the cube is proper
        single = _single_state(space, index)
        stack.append((low, high - single))
        stack.append((low | single, high))
    solutions.sort(key=lambda p: (p.count(), p.fingerprint()))
    return SolveReport(solutions=tuple(solutions), candidates_checked=probes)


def _candidate_evidence(
    resolver: CandidateResolver, candidate: Predicate
) -> Tuple[str, object]:
    """One candidate's certificate evidence: ``("solution", entry)`` or
    ``("refutation", refutation)``.

    Shared by the serial certified sweep and the sharded solver's per-shard
    walks — both must produce byte-identical evidence for a candidate.
    """
    # Lazy imports: repro.certificates depends on this module's data types.
    from ..certificates.certs import (
        CandidateRefutation,
        KbpSolutionEntry,
        resolution_table,
    )
    from ..proofs.modelcheck import labeled_path

    table = resolution_table(resolver.resolution(candidate))
    resolved = resolver.resolved_program(candidate)
    result = sst(resolved, resolved.init)
    value = result.predicate
    if value == candidate:
        return "solution", KbpSolutionEntry(
            candidate=candidate, resolution=table, chain=result.chain
        )
    if not value.entails(candidate):
        # Φ(x) ⊄ x: some state outside x is reachable in P_x — show it.
        path = labeled_path(resolved, resolved.init.mask, (~candidate).mask)
        assert path is not None  # value ⊄ candidate guarantees one
        return "refutation", CandidateRefutation(
            candidate=candidate,
            resolution=table,
            witness_kind="escape",
            path_states=path[0],
            path_statements=path[1],
        )
    # Φ(x) ⊊ x: reachability confines itself to Φ(x), leaving a candidate
    # state unreached.
    missing = next((candidate & ~value).indices())
    return "refutation", CandidateRefutation(
        candidate=candidate,
        resolution=table,
        witness_kind="unreached",
        closed=value,
        missing=missing,
    )


def _solve_si_certified(
    program: Program, resolver: CandidateResolver
) -> SolveReport:
    """The exhaustive sweep, recording per-candidate evidence as it goes."""
    from ..certificates.canonical import program_digest
    from ..certificates.certs import KbpSolveCertificate

    space = program.space
    solutions: List[Predicate] = []
    entries: List[object] = []
    refutations: List[object] = []
    checked = 0
    for mask in _supersets_of(program.init.mask, space.full_mask):
        checked += 1
        candidate = Predicate(space, mask)
        kind, payload = _candidate_evidence(resolver, candidate)
        if kind == "solution":
            solutions.append(candidate)
            entries.append(payload)
        else:
            refutations.append(payload)
    solutions.sort(key=lambda p: (p.count(), p.mask))
    certificate = KbpSolveCertificate(
        program=program_digest(program),
        init=program.init,
        solutions=tuple(entries),
        refutations=tuple(refutations),
    )
    return SolveReport(
        solutions=tuple(solutions),
        candidates_checked=checked,
        certificate=certificate,
    )


@dataclass(frozen=True)
class IterativeReport:
    """Outcome of the Kleene iteration ``init, Φ(init), Φ²(init), …``.

    ``converged`` means a fixed point of ``Φ`` was reached — i.e. an actual
    solution of (25).  ``cycle`` holds the repeating segment otherwise
    (possible because ``Φ`` inherits ``ŜP``'s non-monotonicity).
    """

    converged: bool
    solution: Optional[Predicate]
    iterations: int
    cycle: Tuple[Predicate, ...] = ()


def solve_si_iterative(
    program: Program, max_iterations: Optional[int] = None
) -> IterativeReport:
    """Iterate ``Φ`` from ``init``; report fixed point or cycle.

    Sound (a reported solution really solves (25)) but incomplete: when
    ``Φ`` cycles, solutions may still exist elsewhere in the lattice —
    the exhaustive solver decides that on small spaces.
    """
    resolver = CandidateResolver(program)
    result = iterate_to_fixpoint(
        resolver.phi,
        program.init,
        max_iterations,
        name=f"Φ of {program.name!r} (eq. 25)",
    )
    if result.converged:
        return IterativeReport(
            converged=True, solution=result.value, iterations=result.iterations
        )
    return IterativeReport(
        converged=False,
        solution=None,
        iterations=result.iterations,
        cycle=tuple(result.cycle),
    )


@dataclass(frozen=True)
class InitMonotonicityReport:
    """Comparison of SIs under a weaker and a stronger initial condition.

    The paper's Figure 2 phenomenon: ``init_strong ⇒ init_weak`` but
    ``si_strong ⇏ si_weak`` — reachability *grows* when fewer states may
    start, so safety/liveness properties are not preserved.
    """

    init_weak: Predicate
    init_strong: Predicate
    si_weak: Predicate
    si_strong: Predicate
    certificate_weak: Optional[object] = None
    certificate_strong: Optional[object] = None

    @property
    def monotonic(self) -> bool:
        """Whether ``si_strong ⇒ si_weak`` (what standard programs guarantee)."""
        return self.si_strong.entails(self.si_weak)


def compare_inits(
    program: Program,
    init_weak: Predicate,
    init_strong: Predicate,
    emit_certificate: bool = False,
) -> InitMonotonicityReport:
    """Solve the protocol under both initial conditions and compare SIs.

    Requires ``[init_strong ⇒ init_weak]`` and a unique solution for each
    variant (which holds for Figure 2); raises otherwise.  With
    ``emit_certificate=True`` both solves record full eq.-(25) certificates
    (one per variant) for the non-monotonicity evidence bundle.
    """
    if not init_strong.entails(init_weak):
        raise ValueError("init_strong must imply init_weak")
    shared: List[CandidateResolver] = []

    def solved_report(init: Predicate) -> SolveReport:
        variant = program.with_init(init)
        resolver = CandidateResolver(variant)
        if shared:
            # Term bodies are init-independent: both variants reuse them.
            resolver.share_term_cache_with(shared[0])
        shared.append(resolver)
        report = solve_si(
            variant, resolver=resolver, emit_certificate=emit_certificate
        )
        if not report.well_posed:
            raise ValueError("protocol variant has no SI solution")
        return report

    report_weak = solved_report(init_weak)
    report_strong = solved_report(init_strong)
    return InitMonotonicityReport(
        init_weak=init_weak,
        init_strong=init_strong,
        si_weak=report_weak.strongest(),
        si_strong=report_strong.strongest(),
        certificate_weak=report_weak.certificate,
        certificate_strong=report_strong.certificate,
    )


def instantiates(
    kb_program: Program,
    standard_program: Program,
    proposed: Dict[Knowledge, Predicate],
) -> bool:
    """Whether a standard protocol *instantiates* the knowledge-based one.

    Checks §6.3's criterion: the proposed predicates must coincide with the
    true knowledge predicates computed from the standard protocol's own
    strongest invariant, on the reachable states.  (Off ``SI`` the value is
    immaterial — no execution visits those states.)
    """
    from ..transformers import strongest_invariant

    si = strongest_invariant(standard_program)
    operator = KnowledgeOperator(
        kb_program.space,
        si,
        {p.name: p.variables for p in kb_program.processes.values()},
    )
    actual = operator.resolve_terms(kb_program.knowledge_terms())
    for term, proposed_pred in proposed.items():
        if term not in actual:
            raise KeyError(f"term {term!r} not in the protocol's knowledge terms")
        if not (proposed_pred & si) == (actual[term] & si):
            return False
    return True
