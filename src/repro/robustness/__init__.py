"""Fault tolerance for the sharded eq.-(25) solver.

Three cooperating pieces (DESIGN.md §10):

* :mod:`supervisor` — a shard lease manager that re-dispatches shards lost
  to worker crashes or deadlines, re-spawning the pool when it breaks, and
  degrades to an in-process serial sweep once a shard's retry budget is
  exhausted.  Every incident lands in a structured :class:`FaultLog`.
* :mod:`checkpoint` — an append-only, sha256-chained journal of completed
  shards, so a killed solve resumes from disk and the merged certificate
  is byte-identical to an uninterrupted run.
* :mod:`faults` — a deterministic, seeded fault-injection layer (worker
  crash, shard hang, delayed result, parent kill, torn journal record,
  and the socket faults around a worker daemon's connect and result
  frames) driven by the ``REPRO_FAULT_PLAN`` grammar; the chaos suite
  uses it to assert that solutions, candidate counts, and certificate
  digests are invariant under every injected fault schedule.
"""

from .checkpoint import (
    JOURNAL_FORMAT,
    JournalError,
    ShardJournal,
    ShardRecord,
    verify_journal,
)
from .faults import (
    FAULT_PLAN_ENV_VAR,
    FaultClause,
    FaultPlan,
    FaultPlanError,
    SimulatedKill,
)
from .supervisor import (
    FaultIncident,
    FaultLog,
    FaultPolicy,
    ShardSupervisor,
    SolveProgress,
    SolverWorkerError,
)

__all__ = [
    "FAULT_PLAN_ENV_VAR",
    "FaultClause",
    "FaultIncident",
    "FaultLog",
    "FaultPlan",
    "FaultPlanError",
    "FaultPolicy",
    "JOURNAL_FORMAT",
    "JournalError",
    "ShardJournal",
    "ShardRecord",
    "ShardSupervisor",
    "SimulatedKill",
    "SolveProgress",
    "SolverWorkerError",
    "verify_journal",
]
