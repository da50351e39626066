"""Network chaos: socket-transport solves under every injected fault.

The distributed counterpart of ``test_chaos.py``: every test runs real
``python -m repro.worker`` daemons over real TCP and asserts the same
solver-level invariants — identical solutions and counts, byte-identical
certificates — no matter which network faults fire, which workers die,
or whether the coordinator itself is killed and resumed.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.certificates.canonical import canonical_dumps
from repro.core.kbp import solve_si
from repro.core.parallel import solve_si_parallel
from repro.robustness import (
    FaultPlan,
    SimulatedKill,
    verify_journal,
)


def assert_same_report(reference, report):
    assert report.candidates_checked == reference.candidates_checked
    assert tuple(p.mask for p in report.solutions) == tuple(
        p.mask for p in reference.solutions
    )


@pytest.fixture(autouse=True)
def fast_heartbeats(monkeypatch):
    """Tight liveness windows so stall/loss tests finish in seconds."""
    monkeypatch.setenv("REPRO_SOCKET_HEARTBEAT", "0.2")
    monkeypatch.setenv("REPRO_SOCKET_HEARTBEAT_TIMEOUT", "1.5")


# ----------------------------------------------------------------------
# grammar and binding
# ----------------------------------------------------------------------


class TestNetworkGrammar:
    def test_every_network_kind_parses(self):
        plan = FaultPlan.parse(
            "connrefused@0;disconnect@2;stall@1:seconds=30;dupresult@3;"
            "corruptframe@2;netchaos@7:refused=1:disconnect=2"
        )
        assert [c.kind for c in plan.clauses] == [
            "connrefused",
            "disconnect",
            "stall",
            "dupresult",
            "corruptframe",
            "netchaos",
        ]

    def test_base_kinds_still_parse(self):
        plan = FaultPlan.parse("crash@1;delay@0:seconds=0.1")
        assert [c.kind for c in plan.clauses] == ["crash", "delay"]

    def test_one_grammar_parses_all_twelve_kinds(self, monkeypatch):
        kinds = (
            "crash", "hang", "delay", "kill", "torn", "chaos", "connrefused",
            "disconnect", "stall", "dupresult", "corruptframe", "netchaos",
        )
        spec = ";".join(f"{kind}@1" for kind in kinds)
        assert tuple(c.kind for c in FaultPlan.parse(spec).clauses) == kinds
        monkeypatch.setenv("REPRO_FAULT_PLAN", spec)
        assert tuple(c.kind for c in FaultPlan.from_env().clauses) == kinds

    def test_stall_defaults_twenty_seconds(self):
        plan = FaultPlan.parse("stall@1")
        assert plan.clauses[0].seconds == 20.0

    def test_netchaos_binding_is_deterministic(self):
        spec = "netchaos@7:refused=2:disconnect=1:stall=1:dup=1:corrupt=1"
        one = FaultPlan.parse(spec).bind(8, worker_count=3)
        two = FaultPlan.parse(spec).bind(8, worker_count=3)
        assert [
            (c.kind, c.target) for c in one.clauses
        ] == [(c.kind, c.target) for c in two.clauses]
        kinds = [c.kind for c in one.clauses]
        assert kinds.count("connrefused") == 2
        for kind in ("disconnect", "stall", "dupresult", "corruptframe"):
            assert kinds.count(kind) == 1
        # Shard-level targets are distinct draws from the shard range.
        shard_targets = [
            c.target for c in one.clauses if c.kind != "connrefused"
        ]
        assert len(set(shard_targets)) == len(shard_targets)
        assert all(0 <= t < 8 for t in shard_targets)
        assert all(
            0 <= c.target < 3 for c in one.clauses if c.kind == "connrefused"
        )

    def test_netchaos_counts_cap_at_the_shard_count(self):
        plan = FaultPlan.parse("netchaos@1:disconnect=99").bind(4)
        assert sum(1 for c in plan.clauses if c.kind == "disconnect") == 4


# ----------------------------------------------------------------------
# the chaos matrix: one solve per fault kind, always equal to serial
# ----------------------------------------------------------------------


class TestChaosMatrix:
    @pytest.mark.parametrize(
        "spec",
        [
            "connrefused@0",
            "disconnect@2",
            "stall@3:seconds=3",
            "corruptframe@4",
        ],
    )
    def test_retried_faults_converge_to_serial(
        self, kbp, serial_report, spawn_worker, spec
    ):
        addrs = [spawn_worker(f"w{i}")[1] for i in range(2)]
        report = solve_si_parallel(
            kbp, remote_workers=addrs, fault_plan=FaultPlan.parse(spec)
        )
        assert_same_report(serial_report, report)
        log = report.fault_log
        if spec == "connrefused@0":  # the refused daemon is skipped at attach
            assert log.count("worker-unreachable") == 1
        else:  # the faulted link is lost at once; the supervisor retries
            assert log.count("worker-lost") == 1
            assert log.count("retry") == 1

    def test_duplicate_result_is_deduplicated(
        self, kbp, serial_report, spawn_worker
    ):
        addrs = [spawn_worker(f"w{i}")[1] for i in range(2)]
        report = solve_si_parallel(
            kbp,
            remote_workers=addrs,
            fault_plan=FaultPlan.parse("dupresult@1"),
        )
        assert_same_report(serial_report, report)
        assert report.dispatch.duplicate_results == 1
        assert report.fault_log.count("duplicate-result") == 1

    def test_seeded_netchaos_certified(self, kbp, spawn_worker):
        """Everything at once, certified: the artifact must not notice."""
        reference = solve_si(kbp, parallel="never", emit_certificate=True)
        addrs = [spawn_worker(f"w{i}")[1] for i in range(2)]
        plan = FaultPlan.parse(
            "netchaos@7:refused=1:disconnect=1:stall=1:dup=1:corrupt=1"
            ":seconds=3"
        )
        report = solve_si_parallel(
            kbp, remote_workers=addrs, emit_certificate=True, fault_plan=plan
        )
        assert canonical_dumps(report.certificate.to_payload()) == (
            canonical_dumps(reference.certificate.to_payload())
        )
        assert report.fault_log.count("worker-unreachable") == 1
        assert report.fault_log.count("retry") >= 1


# ----------------------------------------------------------------------
# worker loss: leases come home, survivors finish the solve
# ----------------------------------------------------------------------


class TestWorkerLoss:
    def test_daemon_death_fails_over_to_the_survivor(
        self, kbp, serial_report, spawn_worker
    ):
        """``crash@1`` kills the whole daemon process mid-shard (the
        "worker machine died" case); the shard's lease is revoked and the
        surviving daemon re-executes it."""
        addrs = [spawn_worker(f"w{i}")[1] for i in range(2)]
        report = solve_si_parallel(
            kbp,
            remote_workers=addrs,
            fault_plan=FaultPlan.parse("crash@1"),
        )
        assert_same_report(serial_report, report)
        assert report.dispatch.workers_lost == 1
        assert report.fault_log.count("worker-lost") >= 1
        assert report.dispatch.transports == ["socket"]

    def test_external_sigkill_mid_solve(self, kbp, serial_report, spawn_worker):
        """A daemon SIGKILLed from outside (no fault plan involved)."""
        procs = [spawn_worker(f"w{i}") for i in range(2)]
        addrs = [addr for _, addr in procs]
        # Stretch the solve so the kill lands mid-flight.
        plan = FaultPlan.parse(
            ";".join(f"delay@{i}:seconds=0.3" for i in range(8))
        )
        killer = threading.Timer(0.4, procs[0][0].kill)
        killer.start()
        try:
            report = solve_si_parallel(
                kbp, remote_workers=addrs, fault_plan=plan
            )
        finally:
            killer.cancel()
        assert_same_report(serial_report, report)
        assert report.dispatch.transports == ["socket"]

    def test_losing_every_daemon_degrades_to_local(
        self, kbp, serial_report, spawn_worker
    ):
        """One daemon, killed by its first shard: the pool is broken, the
        respawn finds the socket fleet gone and degrades to a local pool —
        with the incident on the log, never silently."""
        _, addr = spawn_worker()
        report = solve_si_parallel(
            kbp,
            remote_workers=[addr],
            fault_plan=FaultPlan.parse("crash@0"),
        )
        assert_same_report(serial_report, report)
        assert report.fault_log.count("degraded-to-local") >= 1
        assert "local" in report.dispatch.transports


# ----------------------------------------------------------------------
# coordinator death: journal resume with workers re-attaching
# ----------------------------------------------------------------------


class TestCoordinatorResume:
    def test_kill_and_resume_with_remote_workers(
        self, kbp, spawn_worker, tmp_path
    ):
        reference = solve_si(kbp, parallel="never", emit_certificate=True)
        addrs = [spawn_worker(f"w{i}")[1] for i in range(2)]
        journal = tmp_path / "solve.journal"
        with pytest.raises(SimulatedKill):
            solve_si_parallel(
                kbp,
                remote_workers=addrs,
                emit_certificate=True,
                checkpoint=journal,
                fault_plan=FaultPlan.parse("kill@2"),
            )
        summary = verify_journal(journal)
        assert summary["shards_journaled"] == 2
        assert not summary["complete"]

        resumed = solve_si_parallel(
            kbp, remote_workers=addrs, emit_certificate=True, checkpoint=journal
        )
        assert canonical_dumps(resumed.certificate.to_payload()) == (
            canonical_dumps(reference.certificate.to_payload())
        )
        assert resumed.fault_log.shards_resumed == 2
        assert resumed.dispatch.transports == ["socket"]
        assert verify_journal(journal)["complete"]
