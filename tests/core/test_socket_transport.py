"""SocketTransport against live worker daemons: attach modes, degradation.

Every test here runs real ``python -m repro.worker`` subprocesses (the
``spawn_worker`` factory in the top-level conftest) — the protocol is
exercised over actual TCP sockets, not mocks, so framing, heartbeats and
attach handshakes are tested as deployed.
"""

from __future__ import annotations

import json
import pickle
import queue
import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import solve_si, solve_si_parallel
from repro.core.netproto import (
    WORKER_PROTOCOL,
    encode_header,
    recv_frame,
    send_frame,
)
from repro.core.transport import (
    CONNECT_TIMEOUT,
    DEFAULT_HEARTBEAT,
    DEFAULT_HEARTBEAT_TIMEOUT,
    ShardLeaseRevoked,
    SocketTransport,
    SocketTransportError,
    _LinkBroken,
    _SocketTask,
    _WorkerLink,
    heartbeat_interval,
    heartbeat_timeout,
    parse_address,
)
from repro.predicates import Predicate
from repro.statespace import BoolDomain, space_of
from repro.unity import Const, Program, Statement, Unary, Var, knows, lnot


def make_kbp() -> Program:
    space = space_of(a=BoolDomain(), b=BoolDomain(), c=BoolDomain())
    statements = [
        Statement(
            name="s0",
            targets=("a",),
            exprs=(Const(True),),
            guard=knows("P", Var("b")),
        ),
        Statement(
            name="s1",
            targets=("b",),
            exprs=(Const(False),),
            guard=lnot(knows("Q", Var("c"))),
        ),
        Statement(
            name="s2",
            targets=("c",),
            exprs=(Const(True),),
            guard=knows("Q", Unary("not", Var("a"))) & Var("a"),
        ),
    ]
    return Program(
        space,
        Predicate(space, 1),
        statements,
        processes={"P": ("a", "b"), "Q": ("c",)},
        name="socket-kbp",
    )


@pytest.fixture(scope="module")
def kbp() -> Program:
    return make_kbp()


@pytest.fixture(scope="module")
def serial_report(kbp):
    return solve_si(kbp, parallel="never")


def assert_same_report(reference, report):
    assert [p.mask for p in report.solutions] == [
        p.mask for p in reference.solutions
    ]
    assert report.candidates_checked == reference.candidates_checked


def dead_address() -> str:
    """A localhost address that refuses connections right now."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.1:9000") == ("10.0.0.1", 9000)

    def test_whitespace_stripped(self):
        assert parse_address(" localhost:1234 ") == ("localhost", 1234)

    @pytest.mark.parametrize("bad", ["", "hostonly", ":123", "host:", "host:x"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


class TestHeartbeatKnobs:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOCKET_HEARTBEAT", raising=False)
        monkeypatch.delenv("REPRO_SOCKET_HEARTBEAT_TIMEOUT", raising=False)
        assert heartbeat_interval() == DEFAULT_HEARTBEAT
        assert heartbeat_timeout() == DEFAULT_HEARTBEAT_TIMEOUT

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOCKET_HEARTBEAT", "0.25")
        monkeypatch.setenv("REPRO_SOCKET_HEARTBEAT_TIMEOUT", "3.5")
        assert heartbeat_interval() == 0.25
        assert heartbeat_timeout() == 3.5

    @pytest.mark.parametrize("raw", ["-1", "0", "nan", "abc"])
    @pytest.mark.parametrize(
        "variable, read",
        [
            ("REPRO_SOCKET_HEARTBEAT", heartbeat_interval),
            ("REPRO_SOCKET_HEARTBEAT_TIMEOUT", heartbeat_timeout),
        ],
    )
    def test_bad_values_name_the_variable(self, monkeypatch, variable, read, raw):
        """A value ``socket.settimeout`` would choke on in a link thread
        (or that loses every link at once) is refused up front."""
        monkeypatch.setenv(variable, raw)
        with pytest.raises(ValueError, match=variable):
            read()


class TestSocketSolve:
    def test_matches_serial_with_two_daemons(
        self, kbp, serial_report, spawn_worker
    ):
        addrs = [spawn_worker(f"w{i}")[1] for i in range(2)]
        report = solve_si_parallel(kbp, remote_workers=addrs)
        assert_same_report(serial_report, report)
        stats = report.dispatch
        assert stats.transports == ["socket"]
        assert stats.frames_sent > 0 and stats.frames_received > 0
        assert stats.net_bytes_sent > 0 and stats.net_bytes_received > 0
        assert report.fault_log.clean

    def test_solve_si_routes_remote_workers(self, kbp, serial_report, spawn_worker):
        _, addr = spawn_worker()
        report = solve_si(kbp, remote_workers=[addr])
        assert_same_report(serial_report, report)
        assert report.dispatch.transports == ["socket"]

    def test_env_var_names_the_fleet(
        self, kbp, serial_report, spawn_worker, monkeypatch
    ):
        _, addr = spawn_worker()
        monkeypatch.setenv("REPRO_SOLVER_REMOTE_WORKERS", f" {addr} ,")
        report = solve_si_parallel(kbp)
        assert_same_report(serial_report, report)
        assert report.dispatch.transports == ["socket"]

    def test_payload_fallback_when_arena_unreachable(
        self, kbp, serial_report, spawn_worker
    ):
        """A batchable program's Φ plan travels by value in the attach
        payload, and the daemon's batched sweep matches serial."""
        from repro.core import compile_phi_plan

        plan = compile_phi_plan(kbp)
        assert plan is not None
        _, addr = spawn_worker()
        report = solve_si_parallel(kbp, remote_workers=[addr])
        assert_same_report(serial_report, report)
        assert report.dispatch.init_bytes > len(pickle.dumps(plan))

    def test_certificates_byte_identical_over_sockets(self, kbp, spawn_worker):
        from repro.certificates.canonical import canonical_dumps

        reference = solve_si(kbp, parallel="never", emit_certificate=True)
        addrs = [spawn_worker(f"w{i}")[1] for i in range(2)]
        report = solve_si_parallel(
            kbp, remote_workers=addrs, emit_certificate=True
        )
        assert canonical_dumps(report.certificate.to_payload()) == (
            canonical_dumps(reference.certificate.to_payload())
        )


class TestDegradation:
    def test_unreachable_worker_is_skipped(
        self, kbp, serial_report, spawn_worker
    ):
        _, live = spawn_worker()
        report = solve_si_parallel(kbp, remote_workers=[dead_address(), live])
        assert_same_report(serial_report, report)
        assert report.dispatch.transports == ["socket"]
        assert report.fault_log.count("worker-unreachable") == 1

    def test_all_unreachable_degrades_to_local_pool(self, kbp, serial_report):
        report = solve_si_parallel(
            kbp, remote_workers=[dead_address(), dead_address()]
        )
        assert_same_report(serial_report, report)
        assert report.dispatch.transports == ["local"]
        assert report.fault_log.count("degraded-to-local") == 1

    def test_bogus_address_rejected_before_any_connect(self, kbp):
        with pytest.raises(ValueError):
            solve_si_parallel(kbp, remote_workers=["no-port-here"])


class TestAuth:
    """The mutual HMAC handshake gating every pickled payload."""

    def test_keyed_solve_matches_serial(
        self, kbp, serial_report, spawn_worker, monkeypatch
    ):
        _, a = spawn_worker("wa", key="sesame")
        _, b = spawn_worker("wb", key="sesame", key_file=True)
        monkeypatch.setenv("REPRO_WORKER_KEY", "sesame")
        report = solve_si_parallel(kbp, remote_workers=[a, b])
        assert_same_report(serial_report, report)
        assert report.dispatch.transports == ["socket"]
        assert report.fault_log.clean

    def test_wrong_key_degrades_to_local(
        self, kbp, serial_report, spawn_worker, monkeypatch
    ):
        _, addr = spawn_worker(key="sesame")
        monkeypatch.setenv("REPRO_WORKER_KEY", "open says me")
        report = solve_si_parallel(kbp, remote_workers=[addr])
        assert_same_report(serial_report, report)
        assert report.dispatch.transports == ["local"]
        assert report.fault_log.count("degraded-to-local") == 1

    def test_keyless_coordinator_refused_by_keyed_worker(
        self, kbp, serial_report, spawn_worker, monkeypatch
    ):
        _, addr = spawn_worker(key="sesame")
        monkeypatch.delenv("REPRO_WORKER_KEY", raising=False)
        report = solve_si_parallel(kbp, remote_workers=[addr])
        assert_same_report(serial_report, report)
        assert report.dispatch.transports == ["local"]

    def test_keyed_coordinator_refuses_keyless_worker(
        self, kbp, serial_report, spawn_worker, monkeypatch
    ):
        """No silent downgrade: holding a key means requiring one."""
        _, addr = spawn_worker()  # keyless daemon
        monkeypatch.setenv("REPRO_WORKER_KEY", "sesame")
        report = solve_si_parallel(kbp, remote_workers=[addr])
        assert_same_report(serial_report, report)
        assert report.dispatch.transports == ["local"]

    def test_nonloopback_bind_refused_without_key(self, monkeypatch):
        from repro.worker import serve

        monkeypatch.delenv("REPRO_WORKER_KEY", raising=False)
        with pytest.raises(SystemExit, match="authentication key"):
            serve(host="0.0.0.0")


class TestSessionHygiene:
    """Raw-socket probes of the daemon's failure answers."""

    def _connect(self, address):
        sock = socket.create_connection(parse_address(address), timeout=10.0)
        sock.settimeout(10.0)
        return sock, sock.makefile("rb"), sock.makefile("wb")

    def test_hello_announces_protocol_and_auth_mode(self, spawn_worker):
        _, addr = spawn_worker()
        sock, rfile, _wfile = self._connect(addr)
        try:
            header, _body, _n = recv_frame(rfile)
            assert header["event"] == "hello"
            assert header["protocol"] == WORKER_PROTOCOL
            assert header["auth"] == "none"
        finally:
            sock.close()

    def test_malformed_attach_payload_earns_error_frame(self, kbp, spawn_worker):
        """A payload of the wrong shape fails fast with an 'error' frame,
        not a silently dead session the coordinator times out on — also
        one for the right program that carries a field no sweep takes."""
        from repro.certificates.canonical import program_digest

        unknown_field = dict(
            program=kbp,
            base_mask=kbp.init.mask,
            low_positions=[1, 2],
            emit_certificate=False,
            batch_size=8,
            plan=None,
            fault_plan=None,
            backend_selection=None,
            unknown=1,
        )
        _, addr = spawn_worker()
        for claimed, payload in (
            ("sha256:feedbeef", ["not", "a", "dict"]),
            (program_digest(kbp), unknown_field),
        ):
            sock, rfile, wfile = self._connect(addr)
            try:
                recv_frame(rfile)  # hello (keyless: no handshake to answer)
                send_frame(
                    wfile,
                    "attach",
                    {"program": claimed, "protocol": WORKER_PROTOCOL},
                    pickle.dumps(payload),
                )
                header, _body, _n = recv_frame(rfile)
                assert header["event"] == "error"
                assert "bad attach payload" in header["message"]
            finally:
                sock.close()


class TestTransportInternals:
    """White-box checks of the lease/queue bookkeeping invariants."""

    def _bare_transport(self) -> SocketTransport:
        transport = SocketTransport.__new__(SocketTransport)
        transport._lock = threading.Lock()
        transport._stopping = threading.Event()
        transport._broken = False
        transport._attempts = {}
        transport._seen = {}
        transport._queue = queue.Queue()
        transport.links = []
        transport.stats = None
        transport.log = None
        return transport

    def test_lose_link_completes_inflight_future_during_shutdown(self):
        """shutdown() mid-shard must not leave the in-flight future
        pending forever — only queued tasks pass the cancelling drain."""
        transport = self._bare_transport()
        transport._stopping.set()
        task = _SocketTask(0, 0b11, 1, Future())
        transport._lose_link(_WorkerLink(0, "127.0.0.1:1"), task, "teardown")
        assert task.future.done()

    def test_broken_transport_fails_submissions_without_queueing(self):
        transport = self._bare_transport()
        transport._broken = True
        future = transport.submit(None, 0, 0b1)
        with pytest.raises(BrokenProcessPool):
            future.result(timeout=1)
        assert transport._queue.empty()

    def test_losing_last_link_fails_the_backlog(self):
        """The drain after _broken is set must reach tasks already
        queued, so nothing sits in a queue no thread serves."""
        transport = self._bare_transport()
        link = _WorkerLink(0, "127.0.0.1:1")
        link.alive = True
        transport.links = [link]
        queued = transport.submit(None, 1, 0b01)
        inflight = _SocketTask(0, 0b10, 1, Future())
        transport._lose_link(link, inflight, "connection reset")
        assert transport._broken
        with pytest.raises(BrokenProcessPool):
            inflight.future.result(timeout=1)
        with pytest.raises(BrokenProcessPool):
            queued.result(timeout=1)

    def _fake_daemon(self, hello: bytes):
        """A listener that answers one connect with ``hello`` and then
        holds the link until the coordinator hangs up."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(1)

        def old_daemon():
            conn, _ = server.accept()
            with conn:
                conn.sendall(hello)
                conn.recv(1)

        thread = threading.Thread(target=old_daemon, daemon=True)
        thread.start()
        return server, thread, f"127.0.0.1:{server.getsockname()[1]}"

    def test_coordinator_refuses_an_older_protocol(self, kbp):
        """A daemon tagged repro-worker/4, whose attach framing this
        coordinator no longer speaks, is refused at hello."""
        hello = encode_header(
            "hello", {"protocol": "repro-worker/4", "auth": "none"}
        )
        server, thread, address = self._fake_daemon(hello)
        try:
            with pytest.raises(SocketTransportError, match="protocol mismatch"):
                SocketTransport([address], {"program": kbp})
        finally:
            server.close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert WORKER_PROTOCOL == "repro-worker/5"

    def test_length_prefixed_hello_fails_fast(self, kbp):
        """A repro-worker/4 daemon's u32-prefixed hello carries no newline;
        the coordinator refuses it at once instead of waiting out its
        attach timeout."""
        blob = json.dumps(
            {"auth": "none", "body": 0, "protocol": "repro-worker/4",
             "type": "hello"},
            sort_keys=True,
        ).encode("ascii")
        server, thread, address = self._fake_daemon(
            len(blob).to_bytes(4, "big") + blob
        )
        start = time.monotonic()
        try:
            with pytest.raises(SocketTransportError, match="u32 length prefix"):
                SocketTransport([address], {"program": kbp})
        finally:
            server.close()
            thread.join(timeout=10)
        assert time.monotonic() - start < CONNECT_TIMEOUT
        assert not thread.is_alive()

    def _linked_transport(self):
        """A bare transport with one attached link over a socket pair."""
        transport = self._bare_transport()
        transport.timeout = 1.0
        near, far = socket.socketpair()
        link = _WorkerLink(0, "127.0.0.1:1")
        link.sock, link.rfile, link.wfile = near, near.makefile("rb"), near.makefile("wb")
        link.alive = True
        transport.links = [link]
        return transport, link, far

    def test_a_link_closed_by_terminate_breaks_its_lease(self):
        """A link thread racing terminate() dispatches on a closed link:
        the lease breaks and its future completes; the thread lives."""
        transport, link, far = self._linked_transport()
        try:
            transport.terminate()
            task = _SocketTask(0, 0b11, 1, Future())
            assert transport._dispatch(link, task) is False
            assert task.future.done()
            if not task.future.cancelled():
                with pytest.raises(ShardLeaseRevoked):
                    task.future.result(timeout=0)
        finally:
            far.close()

    def test_awaiting_a_result_on_a_closed_link_breaks_it(self):
        transport, link, far = self._linked_transport()
        try:
            link.close()
            with pytest.raises(_LinkBroken):
                transport._await_result(link, _SocketTask(0, 0b11, 1, Future()))
        finally:
            far.close()

    def test_revoked_lease_names_the_shard(self):
        transport = self._bare_transport()
        lost = _WorkerLink(0, "127.0.0.1:1")
        survivor = _WorkerLink(1, "127.0.0.1:2")
        survivor.alive = True
        transport.links = [lost, survivor]
        task = _SocketTask(3, 0b101, 2, Future())
        transport._lose_link(lost, task, "no heartbeat")
        with pytest.raises(ShardLeaseRevoked) as excinfo:
            task.future.result(timeout=1)
        assert excinfo.value.shard_index == 3
        assert excinfo.value.fixed_mask == 0b101
