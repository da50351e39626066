"""Deterministic, seeded fault injection for the sharded solver.

The chaos suite needs faults that are *reproducible* — the same plan, the
same program, the same shard layout must produce the same incident
sequence on every run — and *bounded* — a one-shot fault must not re-fire
forever once the supervisor re-dispatches the shard it hit.  Both follow
from two decisions:

* faults target **shard indices** (positions in the shard-mask list), not
  workers or wall-clock times, so which sweep gets hit does not depend on
  scheduling; ``chaos``/``netchaos`` clauses draw their targets from a
  seeded PRNG once the shard count is known (:meth:`FaultPlan.bind`);
* each clause fires at most ``times`` times, tracked by marker files under
  a scratch directory (created with ``O_CREAT|O_EXCL``, so the count is
  exact even across re-spawned worker processes that share nothing but the
  filesystem).

Plan grammar (the ``REPRO_FAULT_PLAN`` environment variable)::

    plan    :=  clause (';' clause)*
    clause  :=  kind '@' target (':' key '=' value)*

    crash@2                 worker sweeping shard 2 dies (os._exit) once
    crash@2:times=3         ... on its first three attempts
    hang@0:seconds=1.5      shard 0's first attempt stalls before sweeping
    delay@1:seconds=0.2     shard 1's first result arrives 0.2 s late
    kill@3                  the parent dies after journaling 3 shards
    torn@3                  the parent dies halfway through writing the
                            3rd journal record (a torn tail)
    chaos@7:crash=2:hang=1:seconds=0.5
                            seed 7 picks 2 crash shards and 1 hang shard
    connrefused@0           SocketTransport's connect to worker 0 is
                            refused once
    disconnect@2            the worker daemon drops the connection halfway
                            through writing shard 2's result frame
    stall@1:seconds=30      the daemon goes silent (no heartbeats, no
                            result) for 30 s before delivering shard 1
                            (default 20 s)
    dupresult@3             shard 3's result frame is sent twice
    corruptframe@2          shard 2's result body is sent with one bit
                            flipped under an honest digest
    netchaos@7:refused=1:disconnect=1:stall=1:dup=1:corrupt=1:seconds=20
                            seed 7 picks targets for each count

``crash``/``hang``/``delay`` run inside worker processes — a worker
daemon runs them inside its sweep too, so ``crash@k`` kills the whole
daemon mid-shard; ``kill`` and ``torn`` are parent-side faults that
simulate the whole solve being killed (they raise :class:`SimulatedKill`,
which callers treat like SIGKILL — the checkpoint journal is what
survives).  ``connrefused`` fires in the coordinator's ``SocketTransport``
and targets a *worker index*; ``disconnect``/``stall``/``dupresult``/
``corruptframe`` fire inside the worker daemon around result delivery.
The scratch path travels inside the pickled plan, so a localhost daemon
shares the coordinator's one-shot accounting (cross-host chaos would
need a shared scratch mount).
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

#: Environment knob holding a fault plan for the next solve.
FAULT_PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: Worker exit status used by ``crash`` clauses (visible in pool logs).
CRASH_EXIT_STATUS = 66

#: Network faults the worker daemon applies around result delivery.
_NET_WORKER_KINDS = ("disconnect", "stall", "dupresult", "corruptframe")
_KINDS = (
    ("crash", "hang", "delay", "kill", "torn", "chaos", "connrefused")
    + _NET_WORKER_KINDS
    + ("netchaos",)
)


class FaultPlanError(ValueError):
    """A fault plan failed to parse.

    Subclasses :class:`ValueError` for backward compatibility; the message
    always names the offending clause and the valid fault kinds, so a typo
    in ``REPRO_FAULT_PLAN`` is diagnosable from the error alone.
    """


class SimulatedKill(BaseException):
    """The fault plan killed the parent process (simulated).

    Derives from ``BaseException`` so no solver-level ``except Exception``
    can accidentally "recover" from it — a real SIGKILL would not be
    catchable either.  The chaos tests catch it explicitly and then resume
    from the checkpoint journal.
    """


@dataclass(frozen=True)
class FaultClause:
    """One injection: a kind, a target shard (or count), and parameters.

    ``crashes``/``hangs`` are only meaningful on ``chaos`` clauses and
    ``refused`` … ``corrupts`` only on ``netchaos`` ones, whose ``target``
    is the PRNG seed rather than a shard index.
    """

    kind: str
    target: int
    times: int = 1
    seconds: float = 0.0
    crashes: int = 0
    hangs: int = 0
    #: netchaos-only counts (how many of each network fault the seed picks)
    refused: int = 0
    disconnects: int = 0
    stalls: int = 0
    dups: int = 0
    corrupts: int = 0

    def describe(self) -> str:
        extras = []
        if self.times != 1:
            extras.append(f"times={self.times}")
        if self.seconds:
            extras.append(f"seconds={self.seconds}")
        suffix = (":" + ":".join(extras)) if extras else ""
        return f"{self.kind}@{self.target}{suffix}"


def _parse_clause(text: str) -> Tuple[str, int, Dict[str, float]]:
    head, _, tail = text.partition(":")
    kind, at, target = head.partition("@")
    if not at:
        raise FaultPlanError(
            f"fault clause {text!r} has no '@': expected "
            f"'<kind>@<target>[:k=v...]' with kind one of {', '.join(_KINDS)}"
        )
    if kind not in _KINDS:
        raise FaultPlanError(
            f"fault clause {text!r} names unknown fault kind {kind!r}; "
            f"valid kinds are {', '.join(_KINDS)}"
        )
    try:
        index = int(target)
    except ValueError:
        raise FaultPlanError(
            f"fault clause {text!r} has a non-integer target {target!r}"
        ) from None
    params: Dict[str, float] = {}
    if tail:
        for pair in tail.split(":"):
            key, eq, value = pair.partition("=")
            if not eq:
                raise FaultPlanError(
                    f"fault clause {text!r}: {pair!r} is not k=v"
                )
            try:
                params[key] = float(value)
            except ValueError:
                raise FaultPlanError(
                    f"fault clause {text!r}: {value!r} is not numeric"
                ) from None
    return kind, index, params


def _build_clause(kind: str, target: int, params: Dict[str, float]) -> FaultClause:
    if kind == "chaos":
        return FaultClause(
            kind="chaos",
            target=target,  # the seed
            seconds=params.get("seconds", 0.5),
            crashes=int(params.get("crash", 1)),
            hangs=int(params.get("hang", 0)),
        )
    if kind == "netchaos":
        return FaultClause(
            kind="netchaos",
            target=target,  # the seed
            seconds=params.get("seconds", 20.0),
            refused=int(params.get("refused", 0)),
            disconnects=int(params.get("disconnect", 0)),
            stalls=int(params.get("stall", 0)),
            dups=int(params.get("dup", 0)),
            corrupts=int(params.get("corrupt", 0)),
        )
    seconds = params.get("seconds", 0.0)
    if kind == "stall" and not seconds:
        seconds = 20.0
    return FaultClause(
        kind=kind, target=target, times=int(params.get("times", 1)), seconds=seconds
    )


@dataclass(frozen=True)
class FaultPlan:
    """A parsed fault schedule plus the scratch dir tracking fired clauses."""

    clauses: Tuple[FaultClause, ...]
    scratch: str = field(default_factory=lambda: tempfile.mkdtemp(prefix="repro-faults-"))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, scratch: Optional[str] = None) -> "FaultPlan":
        clauses = []
        for raw in text.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            clauses.append(_build_clause(*_parse_clause(raw)))
        if scratch is None:
            return cls(clauses=tuple(clauses))
        return cls(clauses=tuple(clauses), scratch=scratch)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULT_PLAN``, or ``None`` when unset."""
        raw = os.environ.get(FAULT_PLAN_ENV_VAR)
        return cls.parse(raw) if raw else None

    def bind(self, shard_count: int, worker_count: int = 1) -> "FaultPlan":
        """Resolve seeded ``chaos``/``netchaos`` clauses into concrete targets.

        Deterministic: each clause's own seeded PRNG draws distinct shard
        indices for its shard-level kinds, then worker indices for
        ``connrefused``, so the incident set is a pure function of
        (seed, shard_count, worker_count), independent of scheduling.
        """
        bound = []
        for clause in self.clauses:
            if clause.kind == "chaos":
                kinds = ["crash"] * clause.crashes + ["hang"] * clause.hangs
            elif clause.kind == "netchaos":
                kinds = (
                    ["disconnect"] * clause.disconnects
                    + ["stall"] * clause.stalls
                    + ["dupresult"] * clause.dups
                    + ["corruptframe"] * clause.corrupts
                )
            else:
                bound.append(clause)
                continue
            rng = random.Random(clause.target)
            picks = rng.sample(range(shard_count), min(len(kinds), shard_count))
            for kind, index in zip(kinds, picks):
                bound.append(
                    FaultClause(kind=kind, target=index, seconds=clause.seconds)
                )
            for _ in range(min(clause.refused, worker_count)):
                bound.append(
                    FaultClause(
                        kind="connrefused", target=rng.randrange(worker_count)
                    )
                )
        return replace(self, clauses=tuple(bound))

    # ------------------------------------------------------------------
    # one-shot accounting
    # ------------------------------------------------------------------

    def _fire(self, clause: FaultClause) -> bool:
        """Atomically claim one of the clause's ``times`` firings.

        Marker files make the count exact across processes: a re-spawned
        worker sees the markers its crashed predecessor left behind.
        """
        os.makedirs(self.scratch, exist_ok=True)
        stem = f"{clause.kind}-{clause.target}"
        for attempt in range(clause.times):
            path = os.path.join(self.scratch, f"{stem}.{attempt}")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    # ------------------------------------------------------------------
    # worker-side hooks (threaded through _init_worker)
    # ------------------------------------------------------------------

    def before_shard(self, shard_index: int) -> None:
        """Crash or stall the worker about to sweep ``shard_index``."""
        for clause in self.clauses:
            if clause.target != shard_index:
                continue
            if clause.kind == "crash" and self._fire(clause):
                os._exit(CRASH_EXIT_STATUS)
            if clause.kind == "hang" and self._fire(clause):
                time.sleep(clause.seconds)

    def after_shard(self, shard_index: int) -> None:
        """Delay the completed result of ``shard_index`` (still valid)."""
        for clause in self.clauses:
            if (
                clause.kind == "delay"
                and clause.target == shard_index
                and self._fire(clause)
            ):
                time.sleep(clause.seconds)

    # ------------------------------------------------------------------
    # parent-side hooks (journal writes)
    # ------------------------------------------------------------------

    def tears_record(self, completion_count: int) -> bool:
        """Whether the ``completion_count``-th journal append is torn."""
        for clause in self.clauses:
            if (
                clause.kind == "torn"
                and clause.target == completion_count
                and self._fire(clause)
            ):
                return True
        return False

    def after_journal_append(self, completion_count: int) -> None:
        """Kill the parent once ``completion_count`` shards are journaled."""
        for clause in self.clauses:
            if (
                clause.kind == "kill"
                and clause.target == completion_count
                and self._fire(clause)
            ):
                raise SimulatedKill(
                    f"fault plan killed the solve after {completion_count} "
                    "journaled shards"
                )

    # ------------------------------------------------------------------
    # client-side hook (SocketTransport)
    # ------------------------------------------------------------------

    def refuses_connect(self, worker_index: int) -> bool:
        """Whether this connect attempt to ``worker_index`` is refused."""
        for clause in self.clauses:
            if (
                clause.kind == "connrefused"
                and clause.target == worker_index
                and self._fire(clause)
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # daemon-side hook (repro.worker result delivery)
    # ------------------------------------------------------------------

    def before_result(self, shard_index: int) -> Tuple[FaultClause, ...]:
        """Fired network clauses to apply to ``shard_index``'s result.

        The daemon interprets each returned clause: ``disconnect`` truncates
        the result frame and closes the connection, ``stall`` suppresses
        heartbeats and sleeps, ``dupresult`` sends the frame twice,
        ``corruptframe`` flips a body bit under an honest digest.
        """
        fired = []
        for clause in self.clauses:
            if (
                clause.kind in _NET_WORKER_KINDS
                and clause.target == shard_index
                and self._fire(clause)
            ):
                fired.append(clause)
        return tuple(fired)
