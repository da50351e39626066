"""The chaos matrix: solve results must be invariant under every fault.

Each test injects a deterministic fault schedule into a real sharded solve
(real fork workers, real pool breakage) and asserts the *solver-level*
invariants: the same sorted solutions, the same ``candidates_checked``,
and — for certified solves — byte-identical certificate payloads, no
matter which faults fired, which backend ran, or whether the solve was
serial, parallel, or resumed from a checkpoint after being killed.
"""

from __future__ import annotations

import pytest

from repro.certificates.canonical import canonical_dumps
from repro.core.kbp import solve_si
from repro.core.parallel import solve_si_parallel
from repro.predicates import using_backend
from repro.robustness import (
    FaultPlan,
    FaultPolicy,
    JournalError,
    ShardJournal,
    SimulatedKill,
    SolverWorkerError,
    verify_journal,
)

BACKENDS = ["int", "numpy"]


def assert_same_report(reference, report):
    assert report.candidates_checked == reference.candidates_checked
    assert tuple(p.mask for p in report.solutions) == tuple(
        p.mask for p in reference.solutions
    )


# ----------------------------------------------------------------------
# worker crashes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_recovery(kbp, serial_report, backend):
    """A crashed worker loses its lease; the supervisor re-dispatches."""
    with using_backend(backend):
        report = solve_si_parallel(
            kbp, workers=2, fault_plan=FaultPlan.parse("crash@1")
        )
    assert_same_report(serial_report, report)
    log = report.fault_log
    assert log.count("worker-crash") >= 1
    assert log.count("pool-respawn") >= 1
    assert log.count("retry") >= 1


def test_crash_exhaustion_degrades_to_serial(kbp, serial_report):
    """A shard that keeps crashing is finished by the in-process sweep."""
    report = solve_si_parallel(
        kbp,
        workers=2,
        fault_plan=FaultPlan.parse("crash@0:times=50"),
        fault_policy=FaultPolicy(max_retries=1),
    )
    assert_same_report(serial_report, report)
    assert report.fault_log.count("serial-fallback") >= 1


def test_retry_budget_without_fallback_raises(kbp):
    with pytest.raises(SolverWorkerError, match="retry budget exhausted"):
        solve_si_parallel(
            kbp,
            workers=2,
            fault_plan=FaultPlan.parse("crash@0:times=50"),
            fault_policy=FaultPolicy(max_retries=1, serial_fallback=False),
        )


def test_unsupervised_broken_pool_names_the_shard(kbp):
    """Satellite: FaultPolicy.off() keeps the bare loop but a dead worker
    raises SolverWorkerError (shard mask, progress counts) instead of a raw
    BrokenProcessPool traceback."""
    with pytest.raises(SolverWorkerError) as excinfo:
        solve_si_parallel(
            kbp,
            workers=2,
            fault_plan=FaultPlan.parse("crash@0:times=50"),
            fault_policy=FaultPolicy.off(),
        )
    err = excinfo.value
    assert "fixed-bit mask" in str(err)
    assert err.pending >= 1


@pytest.mark.parametrize(
    "policy",
    [FaultPolicy.off(), FaultPolicy(max_retries=0)],
    ids=["off", "no-retries"],
)
def test_no_respawn_unless_a_lost_shard_is_retried(
    kbp, serial_report, policy, monkeypatch
):
    """When every lost shard raises or falls back, the broken pool is not
    replaced: the solve builds exactly one pool."""
    from repro.core import parallel

    built = []

    class CountingPool(parallel.LocalPoolTransport):
        def __init__(self, **kwargs):
            built.append(kwargs["workers"])
            super().__init__(**kwargs)

    monkeypatch.setattr(parallel, "LocalPoolTransport", CountingPool)
    try:
        report = solve_si_parallel(
            kbp,
            workers=2,
            fault_plan=FaultPlan.parse("crash@0:times=50"),
            fault_policy=policy,
        )
    except SolverWorkerError:
        assert not policy.serial_fallback
    else:
        assert policy.serial_fallback
        assert_same_report(serial_report, report)
        assert report.fault_log.count("serial-fallback") >= 1
        assert report.fault_log.count("pool-respawn") == 0
    assert len(built) == 1


# ----------------------------------------------------------------------
# hangs and delays
# ----------------------------------------------------------------------


def test_hung_shard_hits_deadline_and_recovers(kbp, serial_report):
    report = solve_si_parallel(
        kbp,
        workers=2,
        fault_plan=FaultPlan.parse("hang@0:seconds=60"),
        fault_policy=FaultPolicy(shard_deadline=0.75),
    )
    assert_same_report(serial_report, report)
    log = report.fault_log
    assert log.count("shard-timeout") >= 1
    assert log.count("pool-respawn") >= 1


def test_delayed_result_is_still_correct(kbp, serial_report):
    report = solve_si_parallel(
        kbp, workers=2, fault_plan=FaultPlan.parse("delay@1:seconds=0.2")
    )
    assert_same_report(serial_report, report)
    # A late-but-valid result is not an incident.
    assert report.fault_log.clean


def test_fault_plan_from_environment(kbp, serial_report, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_PLAN", "crash@2")
    report = solve_si_parallel(kbp, workers=2)
    assert_same_report(serial_report, report)
    assert report.fault_log.count("worker-crash") >= 1


# ----------------------------------------------------------------------
# checkpoint / kill / resume
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_kill_and_resume_certified(kbp, backend, tmp_path):
    """The acceptance invariant: kill mid-solve, resume from the journal,
    get byte-identical certificates — and provably without re-sweeping the
    journaled shards (candidates_checked accounting)."""
    with using_backend(backend):
        reference = solve_si(kbp, emit_certificate=True, parallel="never")
        journal_path = tmp_path / f"solve-{backend}.journal"
        with pytest.raises(SimulatedKill):
            solve_si_parallel(
                kbp,
                workers=2,
                emit_certificate=True,
                checkpoint=journal_path,
                fault_plan=FaultPlan.parse("kill@2"),
            )
        summary = verify_journal(journal_path)
        assert summary["shards_journaled"] == 2
        assert not summary["complete"]
        journaled_work = summary["candidates_checked"]

        resumed = solve_si_parallel(
            kbp, workers=2, emit_certificate=True, checkpoint=journal_path
        )
    assert_same_report(reference, resumed)
    assert canonical_dumps(resumed.certificate.to_payload()) == canonical_dumps(
        reference.certificate.to_payload()
    )
    log = resumed.fault_log
    assert log.shards_resumed == 2
    # Resume-without-recheck: the journaled candidates were *loaded*, not
    # re-swept — what the resume counts as resumed is exactly what the
    # journal recorded, and the total still tiles the lattice exactly once.
    assert log.candidates_resumed == journaled_work > 0
    assert resumed.candidates_checked == reference.candidates_checked
    assert (
        resumed.candidates_checked - log.candidates_resumed
        < reference.candidates_checked
    )
    # And the finished journal now covers every shard.
    assert verify_journal(journal_path)["complete"]


def test_torn_journal_record_is_reswept(kbp, serial_report, tmp_path):
    """A crash mid-append leaves half a line; resume discards it and
    re-sweeps only that shard."""
    journal_path = tmp_path / "solve.journal"
    with pytest.raises(SimulatedKill):
        solve_si_parallel(
            kbp,
            workers=2,
            checkpoint=journal_path,
            fault_plan=FaultPlan.parse("torn@2"),
        )
    resumed = solve_si_parallel(kbp, workers=2, checkpoint=journal_path)
    assert_same_report(serial_report, resumed)
    assert resumed.fault_log.shards_resumed == 1  # the torn record is gone


def test_corrupted_journal_refuses_resume(kbp, tmp_path):
    journal_path = tmp_path / "solve.journal"
    with pytest.raises(SimulatedKill):
        solve_si_parallel(
            kbp,
            workers=2,
            checkpoint=journal_path,
            fault_plan=FaultPlan.parse("kill@3"),
        )
    lines = journal_path.read_text().rstrip("\n").split("\n")
    assert len(lines) == 4  # header + 3 records
    lines[1] = lines[1][: len(lines[1]) // 2]  # damage a non-final record
    journal_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError):
        solve_si_parallel(kbp, workers=2, checkpoint=journal_path)


def test_resume_with_crash_during_fresh_shards(kbp, serial_report, tmp_path):
    """Faults compose: resume from a checkpoint while a fresh shard crashes."""
    journal_path = tmp_path / "solve.journal"
    with pytest.raises(SimulatedKill):
        solve_si_parallel(
            kbp,
            workers=2,
            checkpoint=journal_path,
            fault_plan=FaultPlan.parse("kill@2"),
        )
    resumed = solve_si_parallel(
        kbp,
        workers=2,
        checkpoint=journal_path,
        fault_plan=FaultPlan.parse("crash@7"),
    )
    assert_same_report(serial_report, resumed)
    assert resumed.fault_log.shards_resumed == 2


def test_workers_one_checkpoints_too(kbp, serial_report, tmp_path):
    """The in-process path runs the same journal bookkeeping."""
    journal_path = tmp_path / "solve.journal"
    with pytest.raises(SimulatedKill):
        solve_si_parallel(
            kbp,
            workers=1,
            checkpoint=journal_path,
            fault_plan=FaultPlan.parse("kill@3"),
        )
    resumed = solve_si_parallel(kbp, workers=1, checkpoint=journal_path)
    assert_same_report(serial_report, resumed)
    assert resumed.fault_log.shards_resumed == 3


# ----------------------------------------------------------------------
# seeded chaos schedules
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 11])
def test_seeded_chaos_schedule(kbp, serial_report, seed):
    report = solve_si_parallel(
        kbp,
        workers=2,
        fault_plan=FaultPlan.parse(f"chaos@{seed}:crash=2:hang=1:seconds=60"),
        fault_policy=FaultPolicy(shard_deadline=0.75),
    )
    assert_same_report(serial_report, report)
    assert not report.fault_log.clean


@pytest.mark.parametrize("backend", BACKENDS)
def test_serial_parallel_resumed_identity(kbp, backend, tmp_path):
    """The three-way identity the whole subsystem promises."""
    with using_backend(backend):
        serial = solve_si(kbp, parallel="never")
        parallel = solve_si_parallel(kbp, workers=2)
        journal_path = tmp_path / f"ident-{backend}.journal"
        with pytest.raises(SimulatedKill):
            solve_si_parallel(
                kbp,
                workers=2,
                checkpoint=journal_path,
                fault_plan=FaultPlan.parse("kill@4"),
            )
        resumed = solve_si_parallel(kbp, workers=2, checkpoint=journal_path)
    assert_same_report(serial, parallel)
    assert_same_report(serial, resumed)


# ----------------------------------------------------------------------
# API guards and plumbing
# ----------------------------------------------------------------------


def test_checkpoint_rejected_for_standard_programs(tmp_path):
    from ..conftest import make_counter_program

    with pytest.raises(ValueError, match="knowledge-based"):
        solve_si_parallel(
            make_counter_program(), checkpoint=tmp_path / "j"
        )


def test_solve_si_rejects_robustness_with_parallel_never(kbp, tmp_path):
    with pytest.raises(ValueError, match='parallel="never"'):
        solve_si(kbp, parallel="never", checkpoint=tmp_path / "j")


def test_solve_si_forwards_fault_options(kbp, serial_report, tmp_path):
    """Passing fault_policy/checkpoint through solve_si forces the sharded
    route (the program is below the auto threshold) and returns a report
    carrying the fault log."""
    report = solve_si(
        kbp,
        workers=2,
        fault_policy=FaultPolicy(max_retries=1),
        checkpoint=tmp_path / "solve.journal",
    )
    assert_same_report(serial_report, report)
    assert report.fault_log is not None
    assert verify_journal(tmp_path / "solve.journal")["complete"]


def test_journal_accepted_by_replay_cli(kbp, tmp_path, capsys):
    from repro.certificates.replay import main

    journal_path = tmp_path / "solve.journal"
    solve_si_parallel(kbp, workers=2, checkpoint=journal_path)
    assert main([str(tmp_path), "--journal", str(journal_path)]) == 0
    out = capsys.readouterr().out
    assert "chain verified" in out

    # A forged journal is rejected through the same CLI.
    lines = journal_path.read_text().rstrip("\n").split("\n")
    lines[1], lines[2] = lines[2], lines[1]
    journal_path.write_text("\n".join(lines) + "\n")
    assert main([str(tmp_path), "--journal", str(journal_path)]) == 1


def test_existing_journal_object_can_be_passed(kbp, serial_report, tmp_path):
    journal = ShardJournal(tmp_path / "solve.journal")
    report = solve_si_parallel(kbp, workers=2, checkpoint=journal)
    assert_same_report(serial_report, report)
