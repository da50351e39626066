"""The untrusting service client: ``python -m repro.service.client``.

A blocking socket client for the protocol in :mod:`repro.service.server`:
JSON request lines out, :mod:`repro.core.netproto` frames back.  Two
layers of distrust are built in:

* every event is read through :func:`~repro.core.netproto.recv_frame`,
  which caps the header line and the body and hashes the artifact
  (sha256 over the exact bytes read) against the digest the server
  advertised — a corrupted, truncated or oversized transfer fails before
  any JSON is parsed;
* ``--replay`` closes the loop: the artifact is replayed *locally*
  through :func:`repro.certificates.replay.replay_artifact`, so the
  verdict printed is the client's own, not the server's word.  The
  server is then just a solve scheduler with a cache — it never joins
  the trusted base.

CLI::

    python -m repro.service.client solve MODEL [--obligation si-solve]
        [--port N | --port-file PATH] [--out cert.json] [--replay]
    python -m repro.service.client status | ping | shutdown [--port ...]

``solve`` streams progress to stderr as shards complete and writes the
artifact to ``--out`` (or reports its size).  Exit codes: 0 served (and,
with ``--replay``, locally verified), 1 service/replay rejection,
2 usage.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.netproto import FrameError, recv_frame
from .specs import ServiceError

#: Default connect/request retry budget (attempts beyond the first).
DEFAULT_RETRIES = 3
#: First retry delay; doubles per attempt, capped at :data:`BACKOFF_CAP`.
DEFAULT_RETRY_BACKOFF = 0.1
BACKOFF_CAP = 2.0

#: Transient transport failures worth a fresh connection.  ``socket.timeout``
#: is deliberately absent: a server that accepted the request but is slow is
#: not one to hammer with duplicates.
_RETRYABLE = (ConnectionRefusedError, ConnectionResetError, BrokenPipeError)


def _backoff(attempt: int, base: float) -> float:
    """Capped exponential delay before retry ``attempt`` (1-based)."""
    return min(base * (2.0 ** (attempt - 1)), BACKOFF_CAP)


@dataclass(frozen=True)
class SolveResult:
    """A served artifact, digest-checked against the advertised hash."""

    key: str
    cache: str  # "hit" | "cold" | "coalesced"
    digest: str
    data: bytes
    progress_events: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def text(self) -> str:
        return self.data.decode("ascii")


class ServiceClient:
    """A blocking JSONL-protocol client; one socket, sequential ops."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 600.0,
        retries: int = DEFAULT_RETRIES,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    ):
        self.retries = max(int(retries), 0)
        self.retry_backoff = max(float(retry_backoff), 0.0)
        self.sock = self._connect(host, port, timeout)
        # Buffered file wrappers: recv_frame reads each event's header line
        # and, for an artifact, its raw body.
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")

    def _connect(self, host: str, port: int, timeout: float) -> socket.socket:
        """Connect with capped exponential backoff on refusal/reset.

        A refused connect usually means the server is restarting or not
        yet listening; retrying a few times with growing delays rides out
        the window without masking a genuinely absent server for long.
        """
        attempt = 0
        while True:
            try:
                return socket.create_connection((host, port), timeout=timeout)
            except _RETRYABLE:
                attempt += 1
                if attempt > self.retries:
                    raise
                time.sleep(_backoff(attempt, self.retry_backoff))

    def close(self) -> None:
        for stream in (self.rfile, self.wfile, self.sock):
            try:
                stream.close()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _send(self, doc: Dict[str, Any]) -> None:
        self.wfile.write((json.dumps(doc) + "\n").encode("ascii"))
        self.wfile.flush()

    def _recv(self) -> Tuple[Dict[str, Any], bytes]:
        """The next event's header and body, or :class:`ServiceError`."""
        try:
            event, body, _n = recv_frame(self.rfile)
        except FrameError as exc:
            raise ServiceError(f"bad reply from the server: {exc}") from None
        return event, body

    # ------------------------------------------------------------------

    def solve(
        self,
        model: str,
        obligation: str = "si-solve",
        flags: Optional[Dict[str, Any]] = None,
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> SolveResult:
        """Submit a query, stream progress, return the verified artifact.

        Raises :class:`ServiceError` on a service-side error event, a
        malformed, oversized or truncated reply, or a digest mismatch.
        """
        self._send(
            {
                "op": "solve",
                "model": model,
                "obligation": obligation,
                "flags": flags or {},
            }
        )
        key = ""
        ticks = 0
        while True:
            event, data = self._recv()
            kind = event["event"]
            if kind == "accepted":
                key = event.get("key", "")
            elif kind == "progress":
                ticks += 1
                if on_progress is not None:
                    on_progress(event)
            elif kind == "artifact":
                if not data:
                    raise ServiceError("artifact event carries no bytes")
                return SolveResult(
                    key=key,
                    cache=event.get("cache", ""),
                    digest=event["digest"],  # verified by recv_frame
                    data=data,
                    progress_events=ticks,
                )
            elif kind == "error":
                raise ServiceError(event.get("error", "unspecified server error"))
            else:
                raise ServiceError(f"unexpected event {kind!r} during solve")

    def status(self) -> Dict[str, Any]:
        self._send({"op": "status"})
        event, _body = self._recv()
        if event["event"] != "status":
            raise ServiceError(f"expected status, got {event!r}")
        return event

    def ping(self) -> Dict[str, Any]:
        self._send({"op": "ping"})
        event, _body = self._recv()
        if event["event"] != "pong":
            raise ServiceError(f"expected pong, got {event!r}")
        return event

    def shutdown(self) -> None:
        self._send({"op": "shutdown"})
        event, _body = self._recv()
        if event["event"] != "bye":
            raise ServiceError(f"expected bye, got {event!r}")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _resolve_port(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.port is not None:
        return args.port
    if args.port_file:
        try:
            return int(Path(args.port_file).read_text(encoding="ascii").strip())
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read port from {args.port_file}: {exc}")
    parser.error("one of --port or --port-file is required")
    raise AssertionError  # parser.error exits


def _progress_printer(event: Dict[str, Any]) -> None:
    print(
        "progress: {kind} {done}/{total} shards, {checked} candidates".format(
            kind=event.get("kind"),
            done=event.get("shards_completed"),
            total=event.get("shards_total"),
            checked=event.get("candidates_checked"),
        ),
        file=sys.stderr,
        flush=True,
    )


def _cmd_solve(client: ServiceClient, args: argparse.Namespace) -> int:
    on_progress = None if args.quiet else _progress_printer
    try:
        result = client.solve(
            args.model, obligation=args.obligation, on_progress=on_progress
        )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_bytes(result.data)
    line = {
        "model": args.model,
        "obligation": args.obligation,
        "cache": result.cache,
        "digest": result.digest,
        "bytes": len(result.data),
        "progress_events": result.progress_events,
    }
    if args.out:
        line["out"] = args.out
    if args.replay:
        from ..certificates.canonical import CertificateError
        from ..certificates.replay import replay_artifact
        from ..certificates.store import loads

        try:
            outcome = replay_artifact(loads(result.text))
        except CertificateError as exc:
            line["replay"] = "rejected"
            line["error"] = str(exc)
            print(json.dumps(line, sort_keys=True))
            return 1
        line["replay"] = "verified"
        line["verdict"] = outcome.verdict
    print(json.dumps(line, sort_keys=True))
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="Query the certificate service; trust only local replays.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument(
        "--port-file", default=None, help="read the port the server wrote here"
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=DEFAULT_RETRIES,
        help="connect/request retries on refused or reset connections "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=DEFAULT_RETRY_BACKOFF,
        help="first retry delay in seconds; doubles per attempt, capped "
        f"at {BACKOFF_CAP}s (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="submit a query and fetch the artifact")
    solve.add_argument("model", help="model registry key (e.g. kbp24-f8)")
    solve.add_argument("--obligation", default="si-solve")
    solve.add_argument("--out", default=None, help="write the artifact here")
    solve.add_argument(
        "--replay",
        action="store_true",
        help="replay the artifact locally; the verdict is then this "
        "machine's, not the server's",
    )
    solve.add_argument(
        "--quiet", action="store_true", help="suppress progress on stderr"
    )

    sub.add_parser("status", help="print cache and queue counters")
    sub.add_parser("ping", help="round-trip a pong")
    sub.add_parser("shutdown", help="ask the server to exit")

    args = parser.parse_args(argv)
    port = _resolve_port(args, parser)
    # This loop is the one retry owner (the client it builds retries
    # nothing, or the budgets would multiply): a refused connect or a
    # connection reset mid-request gets a fresh socket and a re-issued
    # command.  Every op is idempotent server-side (solve is
    # content-addressed; status/ping are reads), so a duplicate submission
    # can only hit the cache, never double-solve.
    attempt = 0
    while True:
        try:
            with ServiceClient(host=args.host, port=port, retries=0) as client:
                if args.command == "solve":
                    return _cmd_solve(client, args)
                if args.command == "status":
                    print(json.dumps(client.status(), indent=2, sort_keys=True))
                    return 0
                if args.command == "ping":
                    print(json.dumps(client.ping(), sort_keys=True))
                    return 0
                client.shutdown()
                print("server shutting down")
                return 0
        except _RETRYABLE as exc:
            attempt += 1
            # A refusal means nothing was sent, so even shutdown may retry
            # it; a reset after shutdown went out is the server leaving.
            sent = not isinstance(exc, ConnectionRefusedError)
            if attempt > args.retries or (sent and args.command == "shutdown"):
                print(f"error: cannot reach the server: {exc}", file=sys.stderr)
                return 1
            print(
                f"retry {attempt}/{args.retries}: {exc}",
                file=sys.stderr,
                flush=True,
            )
            time.sleep(_backoff(attempt, args.retry_backoff))
        except (ConnectionError, socket.timeout) as exc:
            print(f"error: cannot reach the server: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
