"""``python -m repro.worker`` — a remote shard worker daemon.

One daemon serves shard sweeps over TCP to any number of coordinating
solves, one at a time (each session keeps its own sweep, but the
backend selection it replays is process-global, so concurrent sessions
serialize on a lock).  The protocol (DESIGN.md §15) is the header-line,
digest-checked frame format of :mod:`repro.core.netproto`:

1. the daemon opens with ``hello``, and — when it holds the shared
   secret (``REPRO_WORKER_KEY`` / ``--key-file``) — a challenge nonce.
   Both sides prove key knowledge by mutual HMAC challenge–response
   *before anything is unpickled*: the attach payload is a pickle, so an
   unauthenticated peer would mean arbitrary code execution (and a rogue
   worker the same on the coordinator, whose result bodies are pickles
   too).  Keyless daemons exist for loopback only — binding a
   non-loopback interface without a key is refused at startup;
2. the coordinator sends ``attach`` — the solve's program digest in the
   header, and in the body the pickled payload a pool worker's
   initializer also receives (program, shard layout, solver flags, and
   the compiled Φ plan by value).  The daemon re-derives the program
   digest from what it unpickled and refuses a mismatch: a worker never
   computes against a program other than the one it claims to serve,
   and never recompiles the coordinator's plan.  A payload missing a
   field or carrying an unknown one is refused too;
3. each ``shard`` frame names ``(index, fixed_mask, attempt)``; the
   daemon sweeps it with the *same* shard sweep a pool worker runs and
   answers a ``result`` frame keyed by that mask and attempt, sending
   ``heartbeat`` frames from a side thread while the sweep computes;
4. ``rss`` answers peak memory, ``bye`` ends the session.

Fault injection: the attach payload carries the solve's fault plan, so
``crash``/``hang``/``delay`` clauses fire inside the sweep exactly as
they do in a pool worker (``crash`` kills the whole daemon — the real
"worker machine died" case), and its network clauses fire around
result delivery: ``stall`` silences heartbeats past the client deadline,
``disconnect`` tears the result frame mid-transfer, ``dupresult`` sends
it twice, ``corruptframe`` flips a body bit under an honest digest.
One-shot accounting rides the plan's marker-file scratch directory, which
localhost daemons share with the coordinator.
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import socket
import sys
import threading
from typing import Any, Optional

from .core import parallel
from .core.netproto import (
    AUTH_KEY_ENV_VAR,
    FrameError,
    READ_DEADLINE,
    WORKER_PROTOCOL,
    auth_digest,
    check_auth_digest,
    encode_header,
    is_loopback_host,
    load_auth_key,
    new_nonce,
    recv_frame,
    send_frame,
)

#: Only one session may own the process-global backend selection at a time.
_SESSION_LOCK = threading.Lock()


class _SessionEnd(Exception):
    """Internal: the session is over (bye, EOF, or a dead connection)."""


def _program_digest(program) -> str:
    from .certificates.canonical import program_digest

    return program_digest(program)


def _peak_rss_kb() -> int:
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class _Heartbeat:
    """Sends ``heartbeat`` frames every ``interval`` s until stopped."""

    def __init__(self, wfile, write_lock: threading.Lock, interval: float):
        self.wfile = wfile
        self.write_lock = write_lock
        self.interval = max(float(interval), 0.05)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "_Heartbeat":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                with self.write_lock:
                    send_frame(self.wfile, "heartbeat")
            except (OSError, FrameError):
                return  # the session reader will notice the dead socket


class Session:
    """One coordinator connection: attach, then serve shards until bye."""

    def __init__(
        self,
        conn: socket.socket,
        peer: str,
        verbose: bool = False,
        key: Optional[bytes] = None,
    ):
        self.conn = conn
        self.peer = peer
        self.verbose = verbose
        self.key = key
        # A peer that connects and goes silent must not hold the session
        # (and the process-global session lock) forever.
        conn.settimeout(READ_DEADLINE)
        self.rfile = conn.makefile("rb")
        self.wfile = conn.makefile("wb")
        self.write_lock = threading.Lock()
        self.heartbeat_interval = 0.5
        #: this session's shard sweep, built at attach
        self.sweep: Optional[Any] = None

    def log(self, message: str) -> None:
        if self.verbose:
            print(f"[worker {os.getpid()}] {self.peer}: {message}", flush=True)

    def send(self, frame_type: str, meta=None, body: bytes = b"") -> None:
        with self.write_lock:
            send_frame(self.wfile, frame_type, meta, body)

    def fail(self, message: str) -> None:
        try:
            self.send("error", {"message": message})
        except (OSError, FrameError):
            pass

    # ------------------------------------------------------------------

    def run(self) -> None:
        try:
            self._hello()
            self._attach()
            while True:
                try:
                    header, body, _n = recv_frame(self.rfile)
                except FrameError:
                    raise _SessionEnd from None
                kind = header["event"]
                if kind == "shard":
                    self._serve_shard(header)
                elif kind == "rss":
                    self.send("rss", {"kb": _peak_rss_kb()})
                elif kind == "bye":
                    raise _SessionEnd
                else:
                    self.fail(f"unexpected frame {kind!r} in session")
                    raise _SessionEnd
        except _SessionEnd:
            pass
        except (OSError, FrameError):
            pass
        except Exception as exc:
            # Any unanticipated bug: answer before dying, so the
            # coordinator fails fast instead of waiting out its deadline.
            self.fail(f"worker internal error: {exc!r}")
        finally:
            for stream in (self.rfile, self.wfile, self.conn):
                try:
                    stream.close()
                except OSError:
                    pass
            self.log("session closed")

    # ------------------------------------------------------------------

    def _hello(self) -> None:
        """Announce the protocol; run the mutual HMAC handshake if keyed.

        Nothing is unpickled before this returns: a coordinator that
        cannot answer the challenge never gets to deliver an ``attach``
        payload, and the ``welcome`` digest proves *this* daemon holds
        the key before the coordinator ships anything either.
        """
        if self.key is None:
            self.send("hello", {"protocol": WORKER_PROTOCOL, "auth": "none"})
            return
        nonce = new_nonce()
        self.send(
            "hello",
            {"protocol": WORKER_PROTOCOL, "auth": "hmac", "nonce": nonce},
        )
        try:
            header, _body, _n = recv_frame(self.rfile)
        except FrameError:
            raise _SessionEnd from None
        if header["event"] != "auth":
            self.fail(f"expected 'auth', got {header['event']!r}")
            raise _SessionEnd
        if not check_auth_digest(self.key, nonce, header.get("digest")):
            self.log("rejected peer: bad auth digest")
            self.fail("authentication failed")
            raise _SessionEnd
        peer_nonce = header.get("nonce")
        if not isinstance(peer_nonce, str) or not peer_nonce:
            self.fail("authentication failed: missing counter-challenge")
            raise _SessionEnd
        self.send("welcome", {"digest": auth_digest(self.key, peer_nonce)})

    def _attach(self) -> None:
        try:
            header, body, _n = recv_frame(self.rfile)
        except FrameError:
            raise _SessionEnd from None
        if header["event"] != "attach":
            self.fail(f"expected 'attach', got {header['event']!r}")
            raise _SessionEnd
        if header.get("protocol") != WORKER_PROTOCOL:
            self.fail(
                f"protocol mismatch: daemon speaks {WORKER_PROTOCOL}, "
                f"coordinator sent {header.get('protocol')!r}"
            )
            raise _SessionEnd
        self.heartbeat_interval = float(
            header.get("heartbeat") or self.heartbeat_interval
        )
        # A payload that decodes but has the wrong shape must earn an
        # 'error' frame just like one that does not decode at all, never
        # a silently dead session thread.
        try:
            args = pickle.loads(body)
            if not isinstance(args, dict):
                raise TypeError(
                    f"attach payload is {type(args).__name__}, expected dict"
                )
            actual = _program_digest(args["program"])
        except Exception as exc:
            self.fail(f"bad attach payload: {exc!r}")
            raise _SessionEnd from None

        claimed = header.get("program")
        if claimed != actual:
            self.fail(
                f"program digest mismatch: attach claims {claimed!r}, "
                f"payload hashes to {actual!r}"
            )
            raise _SessionEnd

        # The pool initializer's payload: a missing or unknown field is a
        # TypeError, answered like any other malformed payload.
        try:
            self.sweep = parallel._worker_sweep(**args)
        except TypeError as exc:
            self.fail(f"bad attach payload: {exc!r}")
            raise _SessionEnd from None
        self.send("attached", {"program": actual, "protocol": WORKER_PROTOCOL})
        self.log(f"attached to {actual}")

    # ------------------------------------------------------------------

    def _serve_shard(self, header) -> None:
        index = int(header["index"])
        fixed_mask = int(header["fixed_mask"])
        attempt = int(header.get("attempt", 1))
        with _Heartbeat(self.wfile, self.write_lock, self.heartbeat_interval):
            try:
                result = self.sweep(index, fixed_mask)
            except Exception as exc:
                self.fail(f"shard {index} failed: {exc!r}")
                return
            body = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        # Heartbeats are stopped here: an injected stall below is genuine
        # silence, exactly what the client-side deadline is probing.
        self._deliver(index, fixed_mask, attempt, body)

    def _deliver(
        self, index: int, fixed_mask: int, attempt: int, body: bytes
    ) -> None:
        plan = self.sweep.fault_plan
        fired = plan.before_result(index) if plan is not None else ()
        kinds = {clause.kind for clause in fired}
        for clause in fired:
            if clause.kind == "stall":
                self.log(f"fault: stalling {clause.seconds}s before shard {index}")
                import time

                time.sleep(clause.seconds)

        # Header line and body as one byte string, so the faults below cut
        # or flip the real frame.
        data = encode_header(
            "result",
            {"index": index, "fixed_mask": fixed_mask, "attempt": attempt},
            body,
        ) + body
        if "corruptframe" in kinds:
            # Flip the last body byte under the honest header digest: the
            # receiver's sha256 check must catch it before pickle does.
            self.log(f"fault: corrupting shard {index}'s result frame")
            data = data[:-1] + bytes([data[-1] ^ 0xFF])
        with self.write_lock:
            if "disconnect" in kinds:
                self.log(f"fault: disconnect mid-frame on shard {index}")
                try:
                    self.wfile.write(data[: max(1, len(data) // 2)])
                    self.wfile.flush()
                finally:
                    try:
                        self.conn.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                raise _SessionEnd
            self.wfile.write(data)
            if "dupresult" in kinds:
                self.log(f"fault: duplicating shard {index}'s result frame")
                self.wfile.write(data)
            self.wfile.flush()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    port_file: Optional[str] = None,
    verbose: bool = False,
    key: Optional[bytes] = None,
) -> None:
    """Bind, announce, and serve coordinator sessions until killed.

    ``key`` (default: :data:`AUTH_KEY_ENV_VAR`) arms the mutual HMAC
    handshake.  A non-loopback bind without a key is refused: the
    protocol carries pickles, so an open unauthenticated port is
    arbitrary code execution for anyone who can reach it.
    """
    if key is None:
        key = load_auth_key()
    if key is None and not is_loopback_host(host):
        raise SystemExit(
            f"refusing to bind {host!r} without an authentication key: the "
            "worker protocol executes pickled payloads, so an open "
            f"unauthenticated port is remote code execution.  Set "
            f"{AUTH_KEY_ENV_VAR} (or pass --key-file) on the worker and "
            "the coordinator; only loopback binds may stay keyless."
        )
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(8)
    bound = server.getsockname()[1]
    if port_file:
        tmp = f"{port_file}.tmp"
        with open(tmp, "w", encoding="ascii") as handle:
            handle.write(str(bound))
        os.replace(tmp, port_file)
    print(f"repro-worker listening on {host}:{bound}", flush=True)

    def _sessions() -> None:
        while True:
            try:
                conn, addr = server.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            peer = f"{addr[0]}:{addr[1]}"

            def _run(conn=conn, peer=peer):
                # Sessions share the process-global backend selection; a
                # second coordinator waits its turn rather than switching
                # the first one's backend mid-sweep.
                with _SESSION_LOCK:
                    Session(conn, peer, verbose=verbose, key=key).run()

            threading.Thread(target=_run, daemon=True).start()

    try:
        _sessions()
    finally:
        server.close()


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.worker",
        description="Remote shard worker daemon for the sharded eq.-(25) "
        "solver (DESIGN.md §15).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port"
    )
    parser.add_argument(
        "--port-file",
        default=None,
        help="write the bound port here (for tests racing ephemeral binds)",
    )
    parser.add_argument(
        "--key-file",
        default=None,
        help="file holding the shared authentication secret (overrides "
        f"{AUTH_KEY_ENV_VAR}); required for non-loopback --host",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    key = None
    if args.key_file:
        try:
            with open(args.key_file, "r", encoding="utf-8") as handle:
                key = load_auth_key(handle.read())
        except OSError as exc:
            parser.error(f"cannot read --key-file {args.key_file}: {exc}")
        if key is None:
            parser.error(f"--key-file {args.key_file} is empty")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        serve(args.host, args.port, args.port_file, args.verbose, key=key)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
