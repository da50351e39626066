"""The supervisor's progress callback: ordering, counts, resume ticks.

The service front-end (repro.service) streams these ticks to clients, but
the contract is standalone: one ``shard-completed`` event per journal
append, in exactly the journal's record order, with cumulative counts —
plus one leading ``resume`` event when a checkpoint restored shards.
"""

from __future__ import annotations

import json

import pytest

from repro.core.kbp import solve_si
from repro.core.parallel import solve_si_parallel
from repro.robustness import (
    FaultPlan,
    FaultPolicy,
    SimulatedKill,
    SolveProgress,
    verify_journal,
)

from .conftest import make_chaos_kbp


def journal_record_order(path):
    """Shard indices in the order their records hit the journal file."""
    order = []
    with open(path) as handle:
        for line in handle:
            entry = json.loads(line)
            if entry.get("type") == "shard":
                order.append(entry["index"])
    return order


class TestOrderingMatchesJournal:
    def test_in_process_checkpointed_solve(self, kbp, tmp_path):
        """workers=1 + checkpoint shards like 2 workers: 8 journal appends,
        8 callback ticks, same order."""
        events = []
        journal_path = tmp_path / "solve.journal"
        report = solve_si(
            kbp, workers=1, checkpoint=journal_path, progress=events.append
        )
        completed = [e for e in events if e.kind == "shard-completed"]
        assert [e.shard_index for e in completed] == journal_record_order(
            journal_path
        )
        assert len(completed) == 8
        # Cumulative counts: strictly increasing completions, the final
        # tick covers the whole sweep.
        assert [e.shards_completed for e in completed] == list(range(1, 9))
        assert all(e.shards_total == 8 for e in completed)
        checked = [e.candidates_checked for e in completed]
        assert checked == sorted(checked)
        assert checked[-1] == report.candidates_checked
        assert all(e.candidates_resumed == 0 for e in completed)
        assert not [e for e in events if e.kind == "resume"]

    def test_multiprocess_solve(self, kbp, tmp_path):
        """With real workers completion order is nondeterministic — but the
        callback order still matches the journal's, tick for tick."""
        events = []
        journal_path = tmp_path / "solve.journal"
        solve_si_parallel(
            kbp, workers=2, checkpoint=journal_path, progress=events.append
        )
        assert [
            e.shard_index for e in events if e.kind == "shard-completed"
        ] == journal_record_order(journal_path)

    def test_checkpoint_and_progress_under_fault_policy_off(
        self, kbp, serial_report, tmp_path
    ):
        """FaultPolicy.off() runs under the supervisor too: it journals
        and ticks like the default policy."""
        events = []
        journal_path = tmp_path / "solve.journal"
        report = solve_si_parallel(
            kbp,
            workers=2,
            checkpoint=journal_path,
            progress=events.append,
            fault_policy=FaultPolicy.off(),
        )
        assert report.solutions == serial_report.solutions
        assert report.fault_log.clean
        assert [
            e.shard_index for e in events if e.kind == "shard-completed"
        ] == journal_record_order(journal_path)

    def test_progress_without_checkpoint(self, kbp, serial_report):
        """No journal needed: progress alone forces the supervised route."""
        events = []
        report = solve_si(kbp, workers=2, progress=events.append)
        assert report.solutions == serial_report.solutions
        completed = [e for e in events if e.kind == "shard-completed"]
        assert len(completed) == len(set(e.shard_index for e in completed))
        assert completed[-1].shards_completed == completed[-1].shards_total
        assert (
            completed[-1].candidates_checked == report.candidates_checked
        )


class TestResumeTick:
    def test_resume_emits_leading_event_with_journal_counts(
        self, kbp, tmp_path
    ):
        journal_path = tmp_path / "solve.journal"
        with pytest.raises(SimulatedKill):
            solve_si_parallel(
                kbp,
                workers=2,
                checkpoint=journal_path,
                fault_plan=FaultPlan.parse("kill@2"),
            )
        journaled = verify_journal(journal_path)
        assert journaled["shards_journaled"] == 2

        events = []
        report = solve_si_parallel(
            kbp, workers=2, checkpoint=journal_path, progress=events.append
        )
        assert events[0].kind == "resume"
        assert events[0].shard_index is None
        assert events[0].shards_completed == 2
        assert events[0].shards_total == 8
        assert events[0].candidates_resumed == journaled["candidates_checked"]
        assert events[0].candidates_checked == journaled["candidates_checked"]
        completed = [e for e in events if e.kind == "shard-completed"]
        assert len(completed) == 6  # only the shards the journal lacked
        assert all(
            e.candidates_resumed == journaled["candidates_checked"]
            for e in completed
        )
        assert completed[-1].shards_completed == 8
        assert completed[-1].candidates_checked == report.candidates_checked


class TestRouting:
    def test_progress_rejects_serial_route(self, kbp):
        with pytest.raises(ValueError, match="progress"):
            solve_si(kbp, parallel="never", progress=lambda e: None)

    def test_progress_is_frozen(self):
        tick = SolveProgress(
            kind="shard-completed",
            shard_index=0,
            shards_completed=1,
            shards_total=8,
            candidates_checked=16,
            candidates_resumed=0,
        )
        with pytest.raises(Exception):
            tick.kind = "other"

    def test_standard_program_ignores_progress(self):
        """A knowledge-free program short-circuits to one sst; there are no
        shards to report, so the callback never fires."""
        program = make_chaos_kbp()
        from repro.predicates import Predicate
        from repro.unity import Const, Program, Statement

        space = program.space
        standard = Program(
            space,
            Predicate(space, 1),
            [
                Statement(
                    name="s0",
                    targets=("a",),
                    exprs=(Const(True),),
                    guard=Const(True),
                )
            ],
            name="standard",
        )
        events = []
        report = solve_si(standard, progress=events.append)
        assert report.candidates_checked == 1
        assert events == []
