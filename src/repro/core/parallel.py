"""The sharded, batched exhaustive solver for eq. (25).

The serial sweep in :mod:`repro.core.kbp` probes every candidate
``x ⊇ init`` one at a time; its cost is ``2^(size - |init|)`` full Φ
evaluations of pure-Python kernel calls.  This module keeps the *sweep*
(completeness is non-negotiable — ``ŜP`` is not monotone, so nothing short
of exhaustion decides well-posedness) and attacks the constant factor on
two independent axes:

**Sharding.**  The candidate sublattice ``[init, true]`` is partitioned by
fixing the top ``k`` free state-bits: each of the ``2^k`` assignments names
one shard, and shards are farmed to a ``ProcessPoolExecutor`` (~4 shards
per worker, so the executor queue work-steals around uneven shard costs).
Within a shard the remaining free bits are walked in binary-reflected
Gray-code order — consecutive candidates differ in exactly one state — so
the per-worker :class:`~repro.core.kbp.CandidateResolver` term and
operational caches get maximal reuse on the fallback path.

**Batching.**  When the program is *batchable* — every knowledge term
non-nested, knowledge only in guards, guards Boolean over terms and
knowledge-free leaves — :func:`compile_phi_plan` freezes Φ into a
:class:`~repro.predicates.backends.batch.PhiPlan` of plain masks and
successor arrays, and whole blocks of candidates go through the backend's
``batch_phi`` kernel at once.  On the numpy backend that is a fully
vectorized sweep over a ``(batch, words)`` uint64 matrix; even single-CPU
hosts see a large win because the per-candidate Python interpreter cost
collapses into a handful of array ops per batch.

Exactness: the merged report is bit-identical to the serial sweep — the
same sorted ``solutions``, the same ``candidates_checked``, and (with
``emit_certificate=True``) the same per-candidate evidence in the same
order, so PR-2 certificates replay unchanged.  Certified sweeps skip the
batched kernel and run the per-candidate evidence path inside each shard;
the merge re-sorts evidence into the serial enumeration order (strictly
descending free-bit submask).

``any_solution=True`` turns the sweep into a pure well-posedness query:
workers stop at their shard's first solution, the parent cancels every
not-yet-started shard, and the (partial) report says only whether a
solution exists.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..predicates import Predicate
from ..predicates.backends import (
    PredicateBackend,
    batch_backend_for,
    get_default_backend,
    set_default_backend,
)
from ..predicates.backends.batch import (
    BatchPoisonError,
    PhiPlan,
    StatementPlan,
    TermPlan,
)
from ..statespace import State
from ..unity import Program
from ..unity.expressions import Binary, Ite, Knowledge, Unary
from .transport import (
    DispatchStats,
    LocalPoolTransport,
    SocketTransport,
    SocketTransportError,
    parse_address,
)

#: Default batch size for ``batch_phi`` blocks (candidates per kernel call).
BATCH_SIZE = 1024

#: Environment knob for the default worker count.
WORKERS_ENV_VAR = "REPRO_SOLVER_WORKERS"

#: Environment knob for the pool start method ("fork", "spawn", ...).
START_METHOD_ENV_VAR = "REPRO_SOLVER_START_METHOD"

#: Environment knob: comma-separated ``host:port`` list of
#: ``python -m repro.worker`` daemons to dispatch shards to over TCP.
REMOTE_WORKERS_ENV_VAR = "REPRO_SOLVER_REMOTE_WORKERS"


def _resolve_remote_workers(
    remote_workers: Optional[Sequence[str]],
) -> Optional[List[str]]:
    """The socket worker address list: explicit arg, then the env knob."""
    if remote_workers is None:
        raw = os.environ.get(REMOTE_WORKERS_ENV_VAR, "").strip()
        if not raw:
            return None
        remote_workers = [part for part in raw.split(",") if part.strip()]
    addresses = [str(a).strip() for a in remote_workers if str(a).strip()]
    if not addresses:
        return None
    for address in addresses:
        parse_address(address)
    return addresses


def _resolve_start_method(start_method: Optional[str]) -> str:
    """The pool start method: explicit arg, then env, then fork-if-available.

    Workers are spawn-clean (everything they need arrives in the pool's
    initargs, the Φ plan included), so any method the platform offers is
    valid; fork stays the default for its startup cost.
    """
    if start_method is None:
        start_method = os.environ.get(START_METHOD_ENV_VAR) or None
    methods = mp.get_all_start_methods()
    if start_method is None:
        return "fork" if "fork" in methods else methods[0]
    if start_method not in methods:
        raise ValueError(
            f"start_method {start_method!r} is not available here "
            f"(have {methods})"
        )
    return start_method


def default_workers() -> int:
    """Worker count: ``REPRO_SOLVER_WORKERS`` if set, else ``min(8, cpus)``.

    ``cpus`` counts the CPUs this process may run on (its affinity mask,
    where the platform has one), not the machine's: under ``taskset -c 0``
    a pool of two would share one CPU.
    """
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV_VAR}={raw!r} is not an integer worker count"
            ) from None
        if value < 1:
            raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {value}")
        return value
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(8, cpus)


# ----------------------------------------------------------------------
# Φ-plan compilation
# ----------------------------------------------------------------------


class _Ineligible(Exception):
    """The program cannot be batched; fall back to the per-candidate path."""


def _static_mask(program: Program, expr) -> int:
    """A knowledge-free guard subtree as an exact mask over all states.

    The serial evaluator short-circuits ``and``/``or``/``=>``, so a leaf it
    never reaches may be one we cannot evaluate everywhere; any evaluation
    failure marks the whole program ineligible (conservative — the serial
    path then decides, with identical semantics).
    """
    space = program.space
    mask = 0
    for i in range(space.size):
        try:
            if expr.eval(State(space, i)):
                mask |= 1 << i
        except Exception:
            raise _Ineligible from None
    return mask


def _guard_ops(
    program: Program, expr, term_index: Dict[Knowledge, int]
) -> List[Tuple[Any, ...]]:
    """Compile a guard into postfix ops over knowledge terms and static leaves."""
    if isinstance(expr, Knowledge):
        return [("term", term_index[expr])]
    if not expr.knowledge_terms():
        return [("static", _static_mask(program, expr))]
    if isinstance(expr, Unary) and expr.op == "not":
        return _guard_ops(program, expr.operand, term_index) + [("not",)]
    if isinstance(expr, Binary):
        left = _guard_ops(program, expr.left, term_index)
        right = _guard_ops(program, expr.right, term_index)
        if expr.op == "and":
            return left + right + [("and",)]
        if expr.op == "or":
            return left + right + [("or",)]
        if expr.op == "=>":
            return left + [("not",)] + right + [("or",)]
        if expr.op == "<=>":
            return left + right + [("xor",), ("not",)]
        raise _Ineligible  # knowledge under arithmetic/comparison
    if isinstance(expr, Ite):
        cond = _guard_ops(program, expr.cond, term_index)
        then = _guard_ops(program, expr.then, term_index)
        orelse = _guard_ops(program, expr.orelse, term_index)
        return (
            cond + then + [("and",)] + cond + [("not",)] + orelse
            + [("and",), ("or",)]
        )
    raise _Ineligible


def _unguarded_successors(
    program: Program, stmt
) -> Tuple[Tuple[int, ...], int]:
    """``stmt``'s assignment successor ignoring the guard, plus a poison mask.

    Bit ``i`` of the poison mask is set where some right-hand side cannot be
    evaluated or leaves its domain — states the *guarded* statement may
    never execute, so they only matter for candidates whose resolved guard
    enables them (→ :class:`BatchPoisonError`, then a serial re-run that
    raises the original error).
    """
    space = program.space
    succ = [0] * space.size
    poison = 0
    for i in range(space.size):
        state = State(space, i)
        try:
            changes = {}
            for target, expr in zip(stmt.targets, stmt.exprs):
                value = expr.eval(state)
                if value not in space.var(target).domain:
                    raise _Ineligible  # poison, not a compile failure
                changes[target] = value
            succ[i] = space.reindex(i, changes)
        except Exception:
            poison |= 1 << i
            succ[i] = i
    return tuple(succ), poison


def compile_phi_plan(program: Program) -> Optional[PhiPlan]:
    """Freeze ``Φ`` into a :class:`PhiPlan`, or ``None`` when not batchable.

    Eligibility: every knowledge term is non-nested and owned by a declared
    process, knowledge occurs only in guards, and each knowledge-based
    guard compiles to the postfix Boolean vocabulary with all static leaves
    evaluable everywhere.  Ineligible programs take the per-candidate
    resolver path — still sharded, just not vectorized.
    """
    terms = sorted(program.knowledge_terms(), key=repr)
    try:
        term_plans = []
        term_index: Dict[Knowledge, int] = {}
        for position, term in enumerate(terms):
            if term.formula.knowledge_terms():
                raise _Ineligible  # nested K: body depends on the candidate
            process = program.processes.get(term.process)
            if process is None:
                raise _Ineligible
            term_plans.append(
                TermPlan(
                    body_mask=_static_mask(program, term.formula),
                    variables=tuple(sorted(process.variables)),
                )
            )
            term_index[term] = position
        statement_plans = []
        for stmt in program.statements:
            if not stmt.is_knowledge_based():
                statement_plans.append(
                    StatementPlan(
                        name=stmt.name,
                        succ=tuple(program.successor_array(stmt)),
                    )
                )
                continue
            if any(e.knowledge_terms() for e in stmt.exprs):
                raise _Ineligible  # candidate-dependent successor arrays
            guard = tuple(_guard_ops(program, stmt.guard, term_index))
            succ, poison = _unguarded_successors(program, stmt)
            statement_plans.append(
                StatementPlan(
                    name=stmt.name, succ=succ, guard=guard, poison_mask=poison
                )
            )
    except _Ineligible:
        return None
    except Exception:
        # Anything the serial sweep would raise (e.g. a GuardDomainError in
        # a knowledge-free statement) is its to raise — with its own message.
        return None
    return PhiPlan(
        space=program.space,
        init_mask=program.init.mask,
        statements=tuple(statement_plans),
        terms=tuple(term_plans),
    )


# ----------------------------------------------------------------------
# shard planning and Gray-code enumeration
# ----------------------------------------------------------------------


def _bit_positions(mask: int) -> List[int]:
    out = []
    position = 0
    while mask:
        if mask & 1:
            out.append(position)
        mask >>= 1
        position += 1
    return out


def plan_shards(
    free_bits: Sequence[int], workers: int
) -> Tuple[List[int], List[int]]:
    """Split free bit positions into (low walk bits, high shard bits).

    The top ``k`` free bits are fixed per shard, sized so that there are at
    least ~4 shards per worker (the executor queue then load-balances
    uneven shards); a single worker gets one shard and walks everything.
    """
    free_bits = list(free_bits)
    if workers <= 1:
        return free_bits, []
    target = 4 * workers
    k = 0
    while (1 << k) < target and k < len(free_bits):
        k += 1
    return free_bits[: len(free_bits) - k], free_bits[len(free_bits) - k :]


def gray_masks(positions: Sequence[int]) -> Iterator[int]:
    """All ``2^len(positions)`` masks over ``positions``, Gray-code ordered.

    Consecutive masks differ in exactly one bit (the binary-reflected
    code: step ``j`` flips the bit indexed by ``ctz(j)``), which is what
    lets a shard's walk reuse the resolver's per-candidate caches.
    """
    mask = 0
    yield mask
    for j in range(1, 1 << len(positions)):
        mask ^= 1 << positions[(j & -j).bit_length() - 1]
        yield mask


def assignment_mask(positions: Sequence[int], assignment: int) -> int:
    """The mask fixing ``positions`` to the bits of ``assignment``."""
    mask = 0
    for offset, position in enumerate(positions):
        if assignment >> offset & 1:
            mask |= 1 << position
    return mask


# ----------------------------------------------------------------------
# per-shard sweep
# ----------------------------------------------------------------------


class _ShardSweep:
    """One solve's shard walk: everything a shard's sweep reads.

    The in-process route builds one per solve and keeps it local, so
    nested solves and solves on other threads never see each other's
    state.  A pool worker builds one in :func:`_init_worker` and keeps it
    in :data:`_WORKER`; a ``repro.worker`` session keeps its own.  The
    resolver is built lazily: batched sweeps never need one unless a
    poisoned candidate forces the exact serial re-run.
    """

    def __init__(
        self,
        program: Program,
        base_mask: int,
        low_positions: List[int],
        emit_certificate: bool,
        any_solution: bool,
        batch_size: int,
        plan: Optional[PhiPlan] = None,
        resolver: Optional[Any] = None,
        fault_plan: Optional[Any] = None,
    ):
        self.program = program
        self.base_mask = base_mask
        self.low_positions = low_positions
        self.emit_certificate = emit_certificate
        self.any_solution = any_solution
        self.batch_size = batch_size
        self.plan = plan
        self.backend = (
            batch_backend_for(program.space.size, batch_size)
            if plan is not None
            else None
        )
        self.fault_plan = fault_plan
        self._resolver = resolver

    def resolver(self):
        """The sweep's :class:`~repro.core.kbp.CandidateResolver`."""
        if self._resolver is None:
            from .kbp import CandidateResolver

            self._resolver = CandidateResolver(self.program)
        return self._resolver

    def candidates(self, fixed_mask: int) -> Iterator[int]:
        base = self.base_mask | fixed_mask
        for gray in gray_masks(self.low_positions):
            yield base | gray

    def __call__(
        self, shard_index: int, fixed_mask: int
    ) -> Tuple[List[int], int, List[Tuple[str, Any]]]:
        """One shard's sweep: ``(solution_masks, candidates_checked, evidence)``.

        Evidence is empty unless the sweep emits a certificate; with
        ``any_solution`` the walk stops at the first solution (the
        returned count is then partial, as documented).  A fault plan's
        worker-side clauses fire here — ``crash``/``hang`` before the
        sweep, ``delay`` after it (a valid result arriving late).
        """
        if self.fault_plan is not None:
            self.fault_plan.before_shard(shard_index)
        if self.emit_certificate:
            result = self._sweep_certified(fixed_mask)
        elif self.plan is not None:
            result = self._sweep_batched(fixed_mask)
        else:
            result = self._sweep_resolver(fixed_mask)
        if self.fault_plan is not None:
            self.fault_plan.after_shard(shard_index)
        return result

    def _sweep_batched(self, fixed_mask: int):
        plan = self.plan
        backend = self.backend
        solutions: List[int] = []
        checked = 0
        block: List[int] = []

        def flush(block: List[int]) -> bool:
            try:
                phis = backend.batch_phi(plan, block)
            except BatchPoisonError:
                # Some candidate enables a statement outside its domain; the
                # serial resolver raises the original error for it.
                resolver = self.resolver()
                space = self.program.space
                phis = [resolver.phi(Predicate(space, m)).mask for m in block]
            solutions.extend(m for m, value in zip(block, phis) if value == m)
            return self.any_solution and bool(solutions)

        for mask in self.candidates(fixed_mask):
            block.append(mask)
            checked += 1
            if len(block) >= self.batch_size:
                if flush(block):
                    return solutions, checked, []
                block = []
        if block:
            flush(block)
        return solutions, checked, []

    def _sweep_resolver(self, fixed_mask: int):
        resolver = self.resolver()
        space = self.program.space
        solutions: List[int] = []
        checked = 0
        for mask in self.candidates(fixed_mask):
            checked += 1
            candidate = Predicate(space, mask)
            if resolver.phi(candidate) == candidate:
                solutions.append(mask)
                if self.any_solution:
                    break
        return solutions, checked, []

    def _sweep_certified(self, fixed_mask: int):
        from .kbp import _candidate_evidence

        resolver = self.resolver()
        space = self.program.space
        solutions: List[int] = []
        checked = 0
        evidence: List[Tuple[str, Any]] = []
        for mask in self.candidates(fixed_mask):
            checked += 1
            kind, payload = _candidate_evidence(resolver, Predicate(space, mask))
            evidence.append((kind, payload))
            if kind == "solution":
                solutions.append(mask)
                if self.any_solution:
                    break
        return solutions, checked, evidence


def _worker_sweep(
    program: Program,
    base_mask: int,
    low_positions: List[int],
    emit_certificate: bool,
    any_solution: bool,
    batch_size: int,
    fault_plan: Optional[Any] = None,
    backend_selection: Optional[str] = None,
    plan: Optional[PhiPlan] = None,
) -> _ShardSweep:
    """A worker process's sweep, spawn-start-method clean.

    Everything arrives by value, the parent's compiled Φ ``plan``
    included: a worker never recompiles it, so it computes over exactly
    the coordinator's plan.  ``plan`` is ``None`` when the program is not
    batchable or the solve is certified; the sweep then takes the
    per-candidate resolver path.  ``backend_selection`` replays the
    parent's backend choice, which a spawned child would otherwise lose
    (the selection is process-global state, not environment).
    """
    if backend_selection is not None:
        set_default_backend(backend_selection)
    return _ShardSweep(
        program, base_mask, low_positions, emit_certificate, any_solution,
        batch_size, plan=plan, fault_plan=fault_plan,
    )


#: The pool worker's sweep, set by :func:`_init_worker`.  Process-global
#: state is safe here: a pool process serves exactly one solve.
_WORKER: Optional[_ShardSweep] = None


def _init_worker(*args: Any, **kwargs: Any) -> None:
    """Pool initializer: build this process's sweep (:func:`_worker_sweep`)."""
    global _WORKER
    _WORKER = _worker_sweep(*args, **kwargs)


def _sweep_shard(
    shard_index: int, fixed_mask: int
) -> Tuple[List[int], int, List[Tuple[str, Any]]]:
    """The pool task: one shard of this worker process's sweep."""
    return _WORKER(shard_index, fixed_mask)


# ----------------------------------------------------------------------
# the public solver
# ----------------------------------------------------------------------


def _encode_evidence(evidence: Sequence[Tuple[str, Any]]) -> List[Any]:
    """Evidence (kind, payload-object) pairs → journalable JSON values."""
    return [[kind, payload.to_payload()] for kind, payload in evidence]


def _decode_evidence(items: Sequence[Any], space) -> List[Tuple[str, Any]]:
    """Journaled evidence values → the certificate payload objects."""
    from ..certificates.certs import CandidateRefutation, KbpSolutionEntry

    out: List[Tuple[str, Any]] = []
    for item in items:
        kind, payload = item
        cls = KbpSolutionEntry if kind == "solution" else CandidateRefutation
        out.append((kind, cls.from_payload(payload, space)))
    return out


def _journal_header(
    program: Program,
    base_mask: int,
    low_positions: List[int],
    high_positions: List[int],
    shard_count: int,
    emit_certificate: bool,
    batch_size: int,
) -> Dict[str, Any]:
    """What a checkpoint journal pins about its solve.

    Any difference — another program or init, a different shard layout, a
    different certificate mode — makes resume refuse the journal.
    """
    from ..certificates.canonical import program_digest

    return {
        "program": program_digest(program),
        "base_mask": base_mask,
        "low_positions": list(low_positions),
        "high_positions": list(high_positions),
        "shard_count": shard_count,
        "emit_certificate": bool(emit_certificate),
        "batch_size": batch_size,
    }


#: ``(program, plan)`` compiled by :func:`repro.core.kbp.solve_si` to pick
#: its route, for the :func:`solve_si_parallel` call it then makes — so a
#: routed solve compiles its plan once.  ``plan`` is ``None`` when the
#: program is not batchable.  A context variable, so concurrent solves on
#: other threads never see it.
_ROUTED_PLAN: ContextVar[Optional[Tuple[Program, Optional[PhiPlan]]]] = (
    ContextVar("repro_routed_plan", default=None)
)


def _solve_routed(program: Program, plan: Optional[PhiPlan], **kwargs: Any):
    """:func:`solve_si_parallel` reusing ``plan``, the router's compile."""
    token = _ROUTED_PLAN.set((program, plan))
    try:
        return solve_si_parallel(program, **kwargs)
    finally:
        _ROUTED_PLAN.reset(token)


def solve_si_parallel(
    program: Program,
    workers: Optional[int] = None,
    emit_certificate: bool = False,
    any_solution: bool = False,
    batch_size: int = BATCH_SIZE,
    resolver: Optional[Any] = None,
    fault_policy: Optional[Any] = None,
    checkpoint: Optional[Any] = None,
    fault_plan: Optional[Any] = None,
    progress: Optional[Any] = None,
    start_method: Optional[str] = None,
    collect_stats: bool = False,
    remote_workers: Optional[Sequence[str]] = None,
):
    """Exhaustively solve eq. (25) with sharding and batched Φ.

    Bit-identical to :func:`repro.core.kbp.solve_si` on complete sweeps:
    the same sorted solutions, the same candidate count, and (under
    ``emit_certificate``) the same evidence order, hence the same
    certificate digests.  ``any_solution=True`` answers well-posedness
    only: the sweep stops at the first solution found, outstanding shards
    are cancelled, and ``candidates_checked`` reflects the partial walk.

    ``workers`` defaults to ``REPRO_SOLVER_WORKERS`` or ``min(8, cpus)``;
    ``workers=1`` runs in-process (no executor) but still batches, which
    is where most of the speedup lives on small hosts.  ``resolver`` is
    honored on the in-process path only — worker processes build their own
    (term caches cannot be shared across process boundaries).

    Fault tolerance (DESIGN.md §10): multiprocess sweeps run under a
    :class:`repro.robustness.ShardSupervisor` — shards lost to worker
    crashes or deadlines are re-dispatched (re-spawning the pool), and a
    shard that exhausts its retry budget falls back to the in-process
    sweep.  ``fault_policy`` tunes this (``FaultPolicy.off()`` allows one
    attempt per shard and no fallback, so a broken pool raises
    :class:`~repro.robustness.SolverWorkerError` naming the lost shard);
    the report's ``fault_log`` records every incident.  ``checkpoint``
    names a journal file (or :class:`~repro.robustness.ShardJournal`):
    completed shards are journaled as they land, and a killed solve re-run
    with the same checkpoint resumes from disk — the final report and
    certificate are byte-identical to an uninterrupted run.
    ``fault_plan`` (or the ``REPRO_FAULT_PLAN`` environment variable)
    injects deterministic faults for the chaos suite.

    ``progress`` is an optional callback receiving
    :class:`~repro.robustness.SolveProgress` ticks — one per resumed
    batch and one per completed shard, in journal order.

    ``remote_workers`` (or ``REPRO_SOLVER_REMOTE_WORKERS``) names
    ``host:port`` addresses of ``python -m repro.worker`` daemons; shards
    then dispatch over the TCP transport (DESIGN.md §15) instead of a
    local pool.  Degradation is graceful and logged: unreachable workers
    at attach fall back to the local pool (``degraded-to-local``
    incident), a worker lost mid-shard surrenders only its own lease
    (``worker-lost``), and losing *every* worker respawns through the
    factory — socket again if anything answers, local pool otherwise,
    with the per-shard serial fallback as the last resort.  Reports and
    certificates stay byte-identical to serial throughout.
    """
    from ..robustness import (
        FaultLog,
        FaultPlan,
        FaultPolicy,
        ShardJournal,
        ShardSupervisor,
    )
    from .kbp import SolveReport, _check_exhaustive_size, solve_si

    space = program.space
    _check_exhaustive_size(space)
    if not program.is_knowledge_based():
        if checkpoint is not None:
            raise ValueError(
                "checkpoint journals are for knowledge-based sweeps; a "
                "standard program's SI is a single sst computation"
            )
        return solve_si(
            program, emit_certificate=emit_certificate, parallel="never"
        )
    addresses = _resolve_remote_workers(remote_workers)
    if workers is None:
        workers = max(2, len(addresses)) if addresses else default_workers()
    elif addresses:
        # Socket dispatch needs shard granularity (workers==1 would take
        # the in-process path and never touch the network).
        workers = max(workers, 2)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if fault_policy is None:
        fault_policy = FaultPolicy()
    if checkpoint is not None and any_solution:
        raise ValueError(
            "checkpoint requires a complete sweep; any_solution stops early"
        )
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()

    base_mask = program.init.mask
    free_bits = _bit_positions(space.full_mask & ~base_mask)
    # A single worker normally walks one giant shard, but a checkpoint is
    # only as fine-grained as the shard layout — resuming a one-shard
    # journal would restart from scratch — so checkpointed in-process
    # solves shard as if two workers were sweeping.
    plan_workers = 2 if (workers == 1 and checkpoint is not None) else workers
    low_positions, high_positions = plan_shards(free_bits, plan_workers)
    shard_masks = [
        assignment_mask(high_positions, a)
        for a in range(1 << len(high_positions))
    ]
    if fault_plan is not None:
        fault_plan = fault_plan.bind(
            len(shard_masks), len(addresses) if addresses else 1
        )

    journal = None
    if checkpoint is not None:
        journal = (
            checkpoint
            if isinstance(checkpoint, ShardJournal)
            else ShardJournal(checkpoint)
        )
    header = _journal_header(
        program, base_mask, low_positions, high_positions,
        len(shard_masks), emit_certificate, batch_size,
    )

    resolved_method = _resolve_start_method(start_method)
    # The plan is compiled exactly once, parent-side (or was, by the
    # `solve_si` router).  The in-process sweep uses it directly and every
    # worker receives it by value: inherited under fork, pickled once per
    # worker under spawn, carried in the attach payload over sockets.
    plan = None
    if not emit_certificate:
        routed = _ROUTED_PLAN.get()
        if routed is not None and routed[0] is program:
            plan = routed[1]
        else:
            plan = compile_phi_plan(program)
    backend_selection = get_default_backend()
    if isinstance(backend_selection, PredicateBackend):
        backend_selection = backend_selection.name
    stats = DispatchStats(start_method=resolved_method) if workers > 1 else None
    # One log serves the supervisor *and* the pool factory, so transport
    # degradation (socket → local) is an incident on the report, not a
    # silent change of dispatch mechanism.
    shared_log = FaultLog()

    def pool_factory():
        if addresses:
            try:
                return SocketTransport(
                    addresses,
                    program_digest=header["program"],
                    attach_args=dict(
                        program=program,
                        base_mask=base_mask,
                        low_positions=low_positions,
                        emit_certificate=emit_certificate,
                        any_solution=any_solution,
                        batch_size=batch_size,
                        fault_plan=fault_plan,
                        backend_selection=backend_selection,
                        plan=plan,
                    ),
                    policy=fault_policy,
                    stats=stats,
                    log=shared_log,
                    net_plan=fault_plan
                    if hasattr(fault_plan, "refuses_connect")
                    else None,
                )
            except SocketTransportError as exc:
                shared_log.record(
                    "degraded-to-local",
                    detail=f"socket transport unavailable ({exc}); "
                    "dispatching through a local pool instead",
                )
        return LocalPoolTransport(
            workers=min(workers, len(shard_masks)),
            mp_context=mp.get_context(resolved_method),
            initializer=_init_worker,
            initargs=(
                program, base_mask, low_positions,
                emit_certificate, any_solution, batch_size, fault_plan,
                backend_selection, plan,
            ),
            stats=stats,
        )

    in_process = workers == 1
    # The in-process sweep, also the supervisor's degradation path: this
    # solve's own state, reusing the parent-compiled plan and a
    # caller-supplied resolver.  No fault plan — a crash clause must not
    # kill the parent.
    serial_runner = _ShardSweep(
        program, base_mask, low_positions, emit_certificate,
        any_solution, batch_size, plan=plan, resolver=resolver,
    )

    drain_hook = None
    if collect_stats and not in_process:

        def drain_hook(pool):
            stats.worker_peak_rss_kb = max(
                stats.worker_peak_rss_kb, pool.sample_worker_rss()
            )

    supervisor = ShardSupervisor(
        pool_factory=None if in_process else pool_factory,
        task=_sweep_shard,
        shard_masks=shard_masks,
        policy=fault_policy,
        any_solution=any_solution,
        journal=journal,
        journal_header=header,
        # Parent-side clauses (kill/torn) only; worker clauses travel
        # through _init_worker and fire in pool processes.
        fault_plan=fault_plan,
        serial_runner=serial_runner,
        encode_evidence=_encode_evidence,
        decode_evidence=lambda items: _decode_evidence(items, space),
        progress=progress,
        drain_hook=drain_hook,
        log=shared_log,
    )
    solution_masks, checked, evidence = supervisor.run()

    solutions = [Predicate(space, mask) for mask in solution_masks]
    solutions.sort(key=lambda p: (p.count(), p.mask))
    certificate = None
    if emit_certificate:
        certificate = _merged_certificate(
            program, evidence, space.full_mask & ~base_mask
        )
    return SolveReport(
        solutions=tuple(solutions),
        candidates_checked=checked,
        certificate=certificate,
        fault_log=supervisor.log,
        dispatch=stats,
    )


def _merged_certificate(program: Program, evidence, free_mask: int):
    """Re-assemble shard evidence into the serial sweep's certificate.

    The serial enumeration visits free-bit submasks in strictly decreasing
    numeric order, so sorting merged evidence by descending
    ``candidate & free`` reproduces its entry sequence exactly — byte-for-
    byte equal certificates, digests included.
    """
    from ..certificates.canonical import program_digest
    from ..certificates.certs import KbpSolveCertificate

    ordered = sorted(
        evidence, key=lambda item: -(item[1].candidate.mask & free_mask)
    )
    entries = tuple(p for kind, p in ordered if kind == "solution")
    refutations = tuple(p for kind, p in ordered if kind == "refutation")
    return KbpSolveCertificate(
        program=program_digest(program),
        init=program.init,
        solutions=entries,
        refutations=refutations,
    )
