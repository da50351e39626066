"""Connection hardening and client retry: deadlines, line caps, backoff."""

from __future__ import annotations

import hashlib
import json
import socket
import struct
import threading
import time

import pytest

from repro.core.netproto import MAX_FRAME_BYTES, MAX_LINE_BYTES
from repro.service import ServiceError
from repro.service import client as client_mod
from repro.service.client import ServiceClient, _backoff

from .conftest import ServerHandle


def recv_line(sock: socket.socket, timeout: float = 30.0) -> dict:
    sock.settimeout(timeout)
    chunks = b""
    while not chunks.endswith(b"\n"):
        chunk = sock.recv(4096)
        if not chunk:
            break
        chunks += chunk
    return json.loads(chunks)


# ----------------------------------------------------------------------
# server-side limits
# ----------------------------------------------------------------------


class TestReadDeadline:
    def test_silent_connection_is_cut(self, tmp_path):
        handle = ServerHandle(tmp_path / "cache", tmp_path / "port")
        handle.start(extra_args=["--read-deadline", "1"])
        try:
            with socket.create_connection(("127.0.0.1", handle.port)) as sock:
                start = time.monotonic()
                event = recv_line(sock)  # no request sent at all
                elapsed = time.monotonic() - start
                assert event["event"] == "error"
                assert "no request within" in event["error"]
                assert elapsed < 20
                assert sock.recv(4096) == b""  # and the server hangs up
        finally:
            handle.stop()

    def test_deadline_applies_between_requests(self, tmp_path):
        handle = ServerHandle(tmp_path / "cache", tmp_path / "port")
        handle.start(extra_args=["--read-deadline", "1"])
        try:
            with socket.create_connection(("127.0.0.1", handle.port)) as sock:
                sock.sendall(b'{"op": "ping"}\n')
                assert recv_line(sock)["event"] == "pong"
                event = recv_line(sock)  # then fall silent
                assert event["event"] == "error"
                assert "no request within" in event["error"]
        finally:
            handle.stop()


class TestLineLimit:
    def test_overlong_request_line_is_rejected(self, server):
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b"x" * (MAX_LINE_BYTES + 4096))
            event = recv_line(sock)
            assert event["event"] == "error"
            assert f"exceeds {MAX_LINE_BYTES}" in event["error"]
            assert sock.recv(4096) == b""

    def test_normal_sized_requests_unaffected(self, server):
        with ServiceClient(port=server.port) as client:
            assert client.ping()["event"] == "pong"


# ----------------------------------------------------------------------
# client-side limits
# ----------------------------------------------------------------------


def _event(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode("ascii")


_ACCEPTED = _event({"event": "accepted", "key": "k", "query": {}})


class TestClientCaps:
    """A server that answers ``solve`` badly is refused with ServiceError,
    at once: the fake holds its end open, so a client that kept reading
    would time out instead."""

    @pytest.mark.parametrize(
        "reply",
        [
            b"{not json}\n",
            _event({"event": "progress", "pad": "y" * MAX_LINE_BYTES}),
            _event({"bytes": MAX_FRAME_BYTES + 1, "cache": "hit",
                    "digest": "0" * 64, "event": "artifact"}) + b"x" * 1024,
            _event({"bytes": 5, "cache": "hit",
                    "digest": hashlib.sha256(b"other").hexdigest(),
                    "event": "artifact"}) + b"hello",
        ],
        ids=["non-json", "over-line-cap", "over-body-cap", "digest-mismatch"],
    )
    def test_bad_reply_is_a_service_error(self, reply):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.makefile("rb").readline()
                try:
                    conn.sendall(_ACCEPTED + reply)
                    while conn.recv(4096):
                        pass
                except OSError:
                    pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with ServiceClient(port=port, timeout=10.0) as client:
                with pytest.raises(ServiceError):
                    client.solve("kbp24-f4")
        finally:
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# client retry
# ----------------------------------------------------------------------


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestClientRetry:
    def test_backoff_doubles_and_caps(self):
        delays = [_backoff(n, 0.1) for n in range(1, 8)]
        assert delays[:5] == [0.1, 0.2, 0.4, 0.8, 1.6]
        assert all(d == 2.0 for d in delays[5:])

    def test_connect_retries_until_the_server_appears(self):
        port = free_port()
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)

        def bind_late():
            time.sleep(0.4)
            listener.bind(("127.0.0.1", port))
            listener.listen(1)

        thread = threading.Thread(target=bind_late)
        thread.start()
        try:
            client = ServiceClient(port=port, retries=10, retry_backoff=0.1)
            client.close()
        finally:
            thread.join()
            listener.close()

    def test_retries_exhaust_to_the_original_error(self):
        with pytest.raises(ConnectionRefusedError):
            ServiceClient(port=free_port(), retries=2, retry_backoff=0.01)

    def test_zero_retries_fails_immediately(self):
        start = time.monotonic()
        with pytest.raises(ConnectionRefusedError):
            ServiceClient(port=free_port(), retries=0, retry_backoff=5.0)
        assert time.monotonic() - start < 2.0

    def test_cli_reissues_after_a_reset(self, capsys):
        """First connection gets an RST mid-request; the CLI reconnects
        and the re-issued ping is served."""
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]

        def serve():
            first, _ = listener.accept()
            # SO_LINGER 0 + close = RST: the client sees a hard reset,
            # not a clean EOF.
            first.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            first.recv(1024)
            first.close()
            second, _ = listener.accept()
            second.recv(1024)
            second.sendall(b'{"event": "pong", "protocol": "x"}\n')
            second.close()

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            code = client_mod.main(
                [
                    "--port", str(port),
                    "--retries", "3",
                    "--retry-backoff", "0.05",
                    "ping",
                ]
            )
        finally:
            thread.join()
            listener.close()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["event"] == "pong"

    @pytest.mark.parametrize("command", ["status", "shutdown"])
    def test_cli_is_the_only_retry_owner(self, monkeypatch, capsys, command):
        """``--retries 3`` against a refused port connects 4 times: the
        CLI's budget is not multiplied by a client retrying inside it, and
        a refused ``shutdown``, which sent nothing, is retried too."""
        attempts = []
        connect = socket.create_connection

        def counting_connect(*args, **kwargs):
            attempts.append(args[0])
            return connect(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting_connect)
        code = client_mod.main(
            [
                "--port", str(free_port()),
                "--retries", "3",
                "--retry-backoff", "0",
                command,
            ]
        )
        assert code == 1
        assert len(attempts) == 4
        assert "cannot reach the server" in capsys.readouterr().err

    def test_retry_flags_have_defaults(self, server, capsys):
        assert client_mod.main(["--port", str(server.port), "ping"]) == 0
        assert json.loads(capsys.readouterr().out)["event"] == "pong"


# ----------------------------------------------------------------------
# server --workers host:port,... (the full distributed chain)
# ----------------------------------------------------------------------


class TestServerRemoteWorkers:
    def test_solve_fans_out_to_daemons_byte_identically(
        self, tmp_path, spawn_worker
    ):
        from repro.service import QuerySpec, solve_query

        reference = solve_query(
            QuerySpec(model="kbp24-f4", obligation="si-solve")
        )
        addrs = [spawn_worker(f"w{i}")[1] for i in range(2)]
        handle = ServerHandle(tmp_path / "cache", tmp_path / "port")
        handle.start(extra_args=["--workers", ",".join(addrs)])
        try:
            with ServiceClient(port=handle.port) as client:
                result = client.solve("kbp24-f4")
            assert result.text == reference
            assert result.cache == "cold"
        finally:
            handle.stop()
