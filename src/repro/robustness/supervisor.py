"""The shard lease manager: leases, deadlines, retries, fallback.

The PR-3 solver dispatched shards to a fork pool and called
``future.result()`` bare — one OOM-killed or wedged worker aborted the
whole solve and discarded every completed shard.  The supervisor wraps the
same pool with a lease discipline:

* every in-flight shard has an attempt count and (optionally) a deadline;
* a broken pool (worker crash, fork-context death) loses every in-flight
  lease at once: the pool is killed and re-spawned, the lost shards are
  re-dispatched with exponential backoff;
* a shard past its deadline wedges its pool slot (a hung worker cannot be
  preempted through the executor API), so deadline expiry is treated the
  same way — kill, re-spawn, re-dispatch;
* a shard that exhausts its retry budget degrades to the serial in-process
  sweep (guaranteed progress: the same code path ``workers=1`` runs), or
  raises :class:`SolverWorkerError` when the policy forbids fallback;
* every incident is appended to a structured :class:`FaultLog` that rides
  on the final ``SolveReport``.

The supervisor is deliberately generic: it knows nothing about Φ, shards
arrive as opaque ``(index, payload)`` leases and results as opaque tuples,
so :mod:`repro.core.parallel` can hand it closures without a circular
import.  Completed-shard results are merged in shard-index order, which —
together with the ``_merged_certificate`` re-sort — keeps reports and
certificate digests byte-identical to the serial sweep no matter which
faults fired.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .checkpoint import ShardJournal, ShardRecord
from .faults import FaultPlan


class SolverWorkerError(RuntimeError):
    """A shard could not be completed within its retry budget.

    Names the shard's fixed-bit mask and the completed/pending shard
    counts, and points at the two escape hatches: the serial sweep and the
    supervisor's in-process fallback.
    """

    def __init__(
        self,
        shard_mask: int,
        attempts: int,
        completed: int,
        pending: int,
        cause: str,
    ):
        self.shard_mask = shard_mask
        self.attempts = attempts
        self.completed = completed
        self.pending = pending
        super().__init__(
            f"solver worker lost shard (fixed-bit mask {bin(shard_mask)}) "
            f"{attempts} time(s): {cause}; {completed} shard(s) completed, "
            f"{pending} pending — re-run with solve_si(parallel=\"never\") "
            "for the serial sweep, or FaultPolicy(serial_fallback=True) to "
            "let the supervisor finish lost shards in-process"
        )


@dataclass(frozen=True)
class FaultPolicy:
    """How the supervisor reacts to lost shards.

    ``max_retries`` counts *re-dispatches* per shard (0 = one attempt).
    ``shard_deadline`` is seconds per attempt; ``None`` disables deadlines
    (the fault-free wait loop then has zero polling overhead).
    """

    max_retries: int = 2
    shard_deadline: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    serial_fallback: bool = True

    @classmethod
    def off(cls) -> "FaultPolicy":
        """One attempt per shard and no serial fallback.

        A lost shard raises :class:`SolverWorkerError` naming its
        fixed-bit mask instead of being retried or finished in-process.
        """
        return cls(max_retries=0, serial_fallback=False)

    def backoff(self, attempt: int) -> float:
        """Seconds to pause before re-dispatching attempt ``attempt``."""
        if attempt <= 1:
            return 0.0
        delay = self.backoff_base * self.backoff_factor ** (attempt - 2)
        return min(delay, self.backoff_cap)


@dataclass(frozen=True)
class SolveProgress:
    """One progress tick of a supervised sharded solve.

    Emitted through the supervisor's ``progress`` callback — once per
    journal-resumed batch (``kind="resume"``) and once per completed shard
    (``kind="shard-completed"``), in exactly the order shard completions
    reach the journal.  Counts are cumulative, so a consumer can render
    ``shards_completed/shards_total`` without any state of its own.
    """

    kind: str  # "resume" | "shard-completed"
    #: the shard that just completed; ``None`` for resume batches
    shard_index: Optional[int]
    shards_completed: int
    shards_total: int
    #: cumulative candidates examined (journal-resumed ones included)
    candidates_checked: int
    #: candidates loaded from a checkpoint journal instead of re-swept
    candidates_resumed: int


@dataclass(frozen=True)
class FaultIncident:
    """One supervised event: what happened, to which shard, which attempt."""

    kind: str  # worker-crash | shard-timeout | pool-respawn | retry |
    #            serial-fallback | duplicate-result | resume | worker-lost |
    #            worker-unreachable | degraded-to-local | link-retry
    shard_index: Optional[int]
    attempt: int
    detail: str


@dataclass
class FaultLog:
    """Structured incident history attached to ``SolveReport.fault_log``."""

    incidents: List[FaultIncident] = field(default_factory=list)
    #: shards loaded from a checkpoint journal instead of being re-swept
    shards_resumed: int = 0
    #: candidates those journaled shards had already checked
    candidates_resumed: int = 0

    def record(
        self,
        kind: str,
        shard_index: Optional[int] = None,
        attempt: int = 0,
        detail: str = "",
    ) -> None:
        self.incidents.append(
            FaultIncident(
                kind=kind, shard_index=shard_index, attempt=attempt, detail=detail
            )
        )

    def count(self, kind: str) -> int:
        return sum(1 for i in self.incidents if i.kind == kind)

    @property
    def clean(self) -> bool:
        """No incidents and nothing resumed — a fault-free fresh solve."""
        return not self.incidents and not self.shards_resumed


def _kill_pool(pool) -> None:
    """Tear a pool down hard: hung workers would pin their slots forever.

    Transports (:class:`repro.core.transport.ShardTransport`) expose this
    as ``terminate()``; bare executors are dismantled by hand.
    """
    terminate = getattr(pool, "terminate", None)
    if callable(terminate):
        terminate()
        return
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # racing a worker's own exit is fine
            pass


#: One shard's sweep outcome: (solution_masks, checked, evidence).
ShardResult = Tuple[List[int], int, List[Any]]


class ShardSupervisor:
    """Drives one sharded solve to completion through worker failures."""

    def __init__(
        self,
        *,
        pool_factory: Optional[Callable[[], Any]],
        task: Callable[..., ShardResult],
        shard_masks: Sequence[int],
        policy: FaultPolicy,
        any_solution: bool = False,
        journal: Optional[ShardJournal] = None,
        journal_header: Optional[Dict[str, Any]] = None,
        fault_plan: Optional[FaultPlan] = None,
        serial_runner: Optional[Callable[[int, int], ShardResult]] = None,
        encode_evidence: Callable[[List[Any]], List[Any]] = lambda e: [],
        decode_evidence: Callable[[Sequence[Any]], List[Any]] = lambda e: [],
        progress: Optional[Callable[[SolveProgress], None]] = None,
        drain_hook: Optional[Callable[[Any], None]] = None,
        log: Optional[FaultLog] = None,
    ):
        self.pool_factory = pool_factory
        self.task = task
        self.shard_masks = list(shard_masks)
        self.policy = policy
        self.any_solution = any_solution
        self.journal = journal
        self.journal_header = journal_header or {}
        self.fault_plan = fault_plan
        self.serial_runner = serial_runner
        self.encode_evidence = encode_evidence
        self.decode_evidence = decode_evidence
        self.progress = progress
        #: called with the live pool after a clean pool phase, before
        #: teardown — the solver's hook for worker RSS sampling; failures
        #: are swallowed (metrics must never fail a solve).
        self.drain_hook = drain_hook
        #: callers may pass a shared log so transport-level incidents (e.g.
        #: socket-to-local degradation inside the pool factory) land in the
        #: same history the report carries.
        self.log = log if log is not None else FaultLog()
        self._pool: Any = None

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------

    def run(self) -> Tuple[List[int], int, List[Any]]:
        """Sweep every shard; returns merged (solutions, checked, evidence)."""
        results: Dict[int, ShardResult] = self._resume()
        todo = [i for i in range(len(self.shard_masks)) if i not in results]
        attempts: Dict[int, int] = {i: 1 for i in todo}
        fallback: List[int] = []
        stopped = False  # any_solution early exit

        if todo and self.pool_factory is None:
            # In-process mode (workers=1): same lease bookkeeping — journal
            # appends, parent-side faults, early exit — without a pool.
            if self.serial_runner is None:
                raise ValueError("in-process supervision needs a serial_runner")
            for index in todo:
                result = self.serial_runner(index, self.shard_masks[index])
                self._complete(index, result, results)
                if self.any_solution and result[0]:
                    stopped = True
                    break
        elif todo:
            self._pool = self.pool_factory()
            try:
                stopped = self._pool_phase(todo, attempts, results, fallback)
                if not stopped and self.drain_hook is not None:
                    try:
                        self.drain_hook(self._pool)
                    except Exception:  # pragma: no cover - metrics only
                        pass
            finally:
                _kill_pool(self._pool)

        if fallback and not stopped:
            self._serial_phase(fallback, results)

        merged_solutions: List[int] = []
        checked = 0
        evidence: List[Any] = []
        for index in sorted(results):
            masks, shard_checked, shard_evidence = results[index]
            merged_solutions.extend(masks)
            checked += shard_checked
            evidence.extend(shard_evidence)
        return merged_solutions, checked, evidence

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def _resume(self) -> Dict[int, ShardResult]:
        """Load journaled shard completions; open a fresh journal otherwise."""
        if self.journal is None:
            return {}
        completed = self.journal.open(self.journal_header)
        results: Dict[int, ShardResult] = {}
        for index, record in completed.items():
            if not 0 <= index < len(self.shard_masks) or (
                self.shard_masks[index] != record.fixed_mask
            ):
                from .checkpoint import JournalError

                raise JournalError(
                    f"journaled shard {index} does not match the solve's "
                    "shard layout"
                )
            results[index] = (
                list(record.solutions),
                record.checked,
                self.decode_evidence(record.evidence),
            )
        if results:
            self.log.shards_resumed = len(results)
            self.log.candidates_resumed = sum(
                r[1] for r in results.values()
            )
            self.log.record(
                "resume",
                detail=(
                    f"{len(results)} shard(s) / "
                    f"{self.log.candidates_resumed} candidates from "
                    f"{self.journal.path}"
                ),
            )
            self._emit_progress("resume", None, results)
        return results

    def _pool_phase(
        self,
        todo: List[int],
        attempts: Dict[int, int],
        results: Dict[int, ShardResult],
        fallback: List[int],
    ) -> bool:
        """Dispatch ``todo`` through the pool; returns True on early exit."""
        from ..core.transport import ShardLeaseRevoked

        policy = self.policy
        inflight: Dict[Any, Tuple[int, float]] = {}
        for index in todo:
            inflight[
                self._pool.submit(self.task, index, self.shard_masks[index])
            ] = (index, time.monotonic())

        while inflight:
            timeout = (
                None
                if policy.shard_deadline is None
                else max(policy.shard_deadline / 4.0, 0.01)
            )
            done, _ = wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            lost: List[int] = []
            broken = False
            for future in done:
                index, _started = inflight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    broken = True
                    lost.append(index)
                    self.log.record(
                        "worker-crash",
                        shard_index=index,
                        attempt=attempts[index],
                        detail="process pool broke under this shard's lease",
                    )
                except ShardLeaseRevoked as exc:
                    # One socket worker vanished; the pool (and every other
                    # lease) is still healthy, so only this shard re-enters
                    # the retry machinery — no respawn.
                    lost.append(index)
                    self.log.record(
                        "worker-lost",
                        shard_index=index,
                        attempt=attempts[index],
                        detail=str(exc),
                    )
                else:
                    if index in results:
                        # A late duplicate from a pre-respawn lease.
                        self.log.record(
                            "duplicate-result",
                            shard_index=index,
                            detail="stale lease result ignored",
                        )
                        continue
                    self._complete(index, result, results)
                    if self.any_solution and result[0]:
                        return True
            if broken:
                # The pool is unusable: every still-inflight lease is lost.
                for future, (index, _started) in inflight.items():
                    lost.append(index)
                inflight.clear()
                self._respawn("pool broke")
            elif policy.shard_deadline is not None:
                now = time.monotonic()
                expired = [
                    (future, index)
                    for future, (index, started) in inflight.items()
                    if now - started > policy.shard_deadline
                ]
                if expired:
                    for _future, index in expired:
                        self.log.record(
                            "shard-timeout",
                            shard_index=index,
                            attempt=attempts[index],
                            detail=(
                                f"no result within {policy.shard_deadline}s"
                            ),
                        )
                    # Hung workers pin their pool slots; take no chances.
                    lost.extend(index for _f, index in expired)
                    survivors = [
                        index
                        for future, (index, _s) in inflight.items()
                        if all(future is not f for f, _i in expired)
                    ]
                    lost.extend(survivors)
                    inflight.clear()
                    self._respawn("shard deadline expired")

            if lost:
                retry = self._triage(lost, attempts, results, fallback)
                if retry:
                    pause = max(
                        policy.backoff(attempts[index]) for index in retry
                    )
                    if pause:
                        time.sleep(pause)
                    for index in retry:
                        self.log.record(
                            "retry",
                            shard_index=index,
                            attempt=attempts[index],
                            detail=f"re-dispatched after {pause:.3f}s backoff",
                        )
                        inflight[
                            self._pool.submit(
                                self.task, index, self.shard_masks[index]
                            )
                        ] = (index, time.monotonic())
        return False

    def _triage(
        self,
        lost: Sequence[int],
        attempts: Dict[int, int],
        results: Dict[int, ShardResult],
        fallback: List[int],
    ) -> List[int]:
        """Split lost shards into retries and budget-exhausted fallbacks."""
        retry: List[int] = []
        seen = set()
        for index in lost:
            if index in seen or index in results:
                continue
            seen.add(index)
            attempts[index] += 1
            if attempts[index] <= self.policy.max_retries + 1:
                retry.append(index)
                continue
            if not self.policy.serial_fallback:
                raise SolverWorkerError(
                    shard_mask=self.shard_masks[index],
                    attempts=attempts[index] - 1,
                    completed=len(results),
                    pending=len(self.shard_masks) - len(results),
                    cause="retry budget exhausted",
                )
            self.log.record(
                "serial-fallback",
                shard_index=index,
                attempt=attempts[index] - 1,
                detail="retry budget exhausted; shard queued for the "
                "in-process sweep",
            )
            fallback.append(index)
        return retry

    def _respawn(self, why: str) -> None:
        _kill_pool(self._pool)
        self.log.record("pool-respawn", detail=why)
        self._pool = self.pool_factory()

    def _serial_phase(
        self, fallback: List[int], results: Dict[int, ShardResult]
    ) -> None:
        """Graceful degradation: sweep abandoned shards in-process."""
        if self.serial_runner is None:
            raise SolverWorkerError(
                shard_mask=self.shard_masks[fallback[0]],
                attempts=self.policy.max_retries + 1,
                completed=len(results),
                pending=len(self.shard_masks) - len(results),
                cause="no serial runner available",
            )
        for index in sorted(fallback):
            if index in results:
                continue
            result = self.serial_runner(index, self.shard_masks[index])
            self._complete(index, result, results)

    # ------------------------------------------------------------------
    # completion bookkeeping
    # ------------------------------------------------------------------

    def _complete(
        self, index: int, result: ShardResult, results: Dict[int, ShardResult]
    ) -> None:
        results[index] = result
        if self.journal is not None:
            masks, checked, evidence = result
            if self.fault_plan is not None and self.fault_plan.tears_record(
                len([i for i in results]) - self.log.shards_resumed
            ):
                self.journal.tear_next = True
            count = self.journal.append(
                ShardRecord(
                    index=index,
                    fixed_mask=self.shard_masks[index],
                    solutions=tuple(masks),
                    checked=checked,
                    evidence=tuple(self.encode_evidence(evidence)),
                )
            )
            if self.fault_plan is not None:
                self.fault_plan.after_journal_append(count)
        self._emit_progress("shard-completed", index, results)

    def _emit_progress(
        self,
        kind: str,
        index: Optional[int],
        results: Dict[int, ShardResult],
    ) -> None:
        """Tick the progress callback with cumulative counts.

        For ``shard-completed`` this runs *after* the journal append, so a
        consumer that replays the journal sees the same completion order the
        callback reported (torn appends raise before reaching here).
        """
        if self.progress is None:
            return
        self.progress(
            SolveProgress(
                kind=kind,
                shard_index=index,
                shards_completed=len(results),
                shards_total=len(self.shard_masks),
                candidates_checked=sum(r[1] for r in results.values()),
                candidates_resumed=self.log.candidates_resumed,
            )
        )
