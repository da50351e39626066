"""Supervisor policy machinery and the fault-plan grammar, unit-level.

The chaos suite (``test_chaos.py``) drives these through real solves; the
tests here pin the pieces in isolation — backoff arithmetic, incident
accounting, the plan grammar, one-shot firing, seeded chaos binding.
"""

from __future__ import annotations

import pytest

from repro.robustness import (
    FaultLog,
    FaultPlan,
    FaultPolicy,
    SolverWorkerError,
)
from repro.robustness.supervisor import BACKOFF_BASE, BACKOFF_CAP, BACKOFF_FACTOR


class TestFaultPolicy:
    def test_defaults_supervise_with_fallback(self):
        policy = FaultPolicy()
        assert policy.serial_fallback
        assert policy.max_retries == 2

    def test_off_restores_bare_loop(self):
        off = FaultPolicy.off()
        assert not off.serial_fallback
        assert off.max_retries == 0

    def test_backoff_schedule(self):
        assert (BACKOFF_BASE, BACKOFF_FACTOR, BACKOFF_CAP) == (0.05, 2.0, 2.0)
        policy = FaultPolicy()
        assert policy.backoff(1) == 0.0  # first dispatch is immediate
        assert policy.backoff(2) == pytest.approx(0.05)
        assert policy.backoff(3) == pytest.approx(0.1)
        assert policy.backoff(7) == pytest.approx(1.6)
        assert policy.backoff(8) == pytest.approx(2.0)  # capped
        assert policy.backoff(20) == pytest.approx(2.0)


class TestFaultLog:
    def test_record_and_count(self):
        log = FaultLog()
        assert log.clean
        log.record("worker-crash", shard_index=3, attempt=1, detail="x")
        log.record("retry", shard_index=3, attempt=2)
        assert log.count("worker-crash") == 1
        assert log.count("retry") == 1
        assert not log.clean

    def test_resumed_shards_are_not_clean(self):
        log = FaultLog()
        log.shards_resumed = 2
        assert not log.clean


class TestSolverWorkerError:
    def test_message_names_shard_and_progress(self):
        err = SolverWorkerError(
            shard_mask=0b1100, attempts=3, completed=5, pending=3, cause="boom"
        )
        assert "0b1100" in str(err)
        assert "5 shard(s) completed" in str(err)
        assert "3 pending" in str(err)
        assert 'parallel="never"' in str(err)
        assert err.shard_mask == 0b1100
        assert err.attempts == 3


class TestFaultPlanGrammar:
    def test_parse_simple_clauses(self):
        plan = FaultPlan.parse("crash@2;hang@0:seconds=1.5;delay@1:seconds=0.2")
        kinds = [(c.kind, c.target) for c in plan.clauses]
        assert kinds == [("crash", 2), ("hang", 0), ("delay", 1)]
        assert plan.clauses[1].seconds == 1.5

    def test_parse_times(self):
        (clause,) = FaultPlan.parse("crash@4:times=3").clauses
        assert clause.times == 3
        assert clause.describe() == "crash@4:times=3"

    def test_parse_rejects_bad_clauses(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("explode@1")
        with pytest.raises(ValueError):
            FaultPlan.parse("crash@x")
        with pytest.raises(ValueError):
            FaultPlan.parse("crash@1:seconds")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULT_PLAN", "kill@2")
        plan = FaultPlan.from_env()
        assert plan is not None
        assert plan.clauses[0].kind == "kill"

    def test_chaos_binding_is_deterministic(self):
        plan = FaultPlan.parse("chaos@7:crash=2:hang=1:seconds=0.25")
        bound_a = plan.bind(8)
        bound_b = plan.bind(8)
        assert [
            (c.kind, c.target) for c in bound_a.clauses
        ] == [(c.kind, c.target) for c in bound_b.clauses]
        kinds = [c.kind for c in bound_a.clauses]
        assert kinds.count("crash") == 2 and kinds.count("hang") == 1
        targets = [c.target for c in bound_a.clauses]
        assert len(set(targets)) == 3  # distinct shards
        assert all(0 <= t < 8 for t in targets)

    def test_chaos_binding_caps_at_shard_count(self):
        plan = FaultPlan.parse("chaos@1:crash=5:hang=5")
        assert len(plan.bind(4).clauses) == 4

    def test_bind_leaves_concrete_clauses_alone(self):
        plan = FaultPlan.parse("crash@3;kill@1")
        bound = plan.bind(8)
        assert [(c.kind, c.target) for c in bound.clauses] == [
            ("crash", 3),
            ("kill", 1),
        ]


class TestOneShotFiring:
    def test_fire_respects_times_across_instances(self, tmp_path):
        scratch = str(tmp_path / "markers")
        plan = FaultPlan.parse("delay@0:times=2", scratch=scratch)
        (clause,) = plan.clauses
        assert plan._fire(clause)
        # A second plan object sharing the scratch dir (≈ a respawned
        # worker) sees the first firing's marker.
        again = FaultPlan.parse("delay@0:times=2", scratch=scratch)
        (clause2,) = again.clauses
        assert again._fire(clause2)
        assert not plan._fire(clause)
        assert not again._fire(clause2)

    def test_tears_record_fires_once(self, tmp_path):
        plan = FaultPlan.parse("torn@2", scratch=str(tmp_path / "m"))
        assert not plan.tears_record(1)
        assert plan.tears_record(2)
        assert not plan.tears_record(2)  # one-shot
