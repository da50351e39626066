"""The asyncio certificate server: ``python -m repro.service.server``.

A line-oriented JSON protocol over a plain TCP socket (stdlib only — raw
:func:`asyncio.start_server`, no framework).  Requests are one JSON
object per line::

    {"op": "solve", "model": "kbp24-f8", "obligation": "si-solve"}
    {"op": "ping"} | {"op": "status"} | {"op": "shutdown"}

Responses are :mod:`repro.core.netproto` frames, one JSON event line
each (keys sorted on the wire); a ``solve`` streams::

    {"event": "accepted", "key": "<sha256>", "query": {...}}
    {"event": "progress", "kind": "shard-completed", ...}   (zero or more)
    {"event": "artifact", "cache": "hit"|"cold"|"coalesced",
     "digest": "<sha256>", "bytes": N}
    <N raw artifact bytes>

The artifact is the frame's body and rides *outside* JSON — after its
header line come exactly ``bytes`` raw bytes — so multi-megabyte
certificates are never escaped, re-encoded, or split across lines, and
the client hashes exactly what it received against the advertised digest
before parsing anything.  The digest is the cache's content address, so
the server never hashes an artifact twice.

Solve flow: resolve the spec off-loop (model rebuild + digest), consult
the :class:`~repro.service.cache.CertificateCache` (hits are verified
raw-bytes sha256 — no solver, no JSON), and on a miss join the
:class:`~repro.service.queue.SolveQueue` flight for the key.  The flight
leader runs the cold solve with ``checkpoint=`` pointed at the cache's
journal slot for the key, so a server killed mid-solve resumes completed
shards from disk on the next request for the same query — the final
artifact is byte-identical to an uninterrupted run (PR-4 invariant).
Shard-level progress ticks come straight from the supervisor's
journal-ordered callback and fan out to every coalesced waiter.

The server computes; clients *verify*.  Nothing here extends the trusted
base — an untrusting client replays the artifact locally
(``python -m repro.service.client solve ... --replay``) and accepts the
verdict only from its own replayer.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..certificates.canonical import CertificateError
from ..core.netproto import MAX_LINE_BYTES, READ_DEADLINE, encode_header
from .cache import CertificateCache
from .queue import SolveQueue
from .specs import QuerySpec, cache_key, resolve_model, solve_query

#: Protocol tag announced in ``listening``/``pong``/``status`` events.
PROTOCOL = "repro-service/1"


class CertificateServer:
    """One cache, one solve queue, any number of connections."""

    def __init__(
        self,
        cache: CertificateCache,
        host: str = "127.0.0.1",
        port: int = 0,
        solver_workers: int = 1,
        queue_workers: int = 1,
        read_deadline: float = READ_DEADLINE,
        remote_workers: Optional[list] = None,
    ):
        self.cache = cache
        self.host = host
        self.port = port
        self.solver_workers = solver_workers
        #: seconds a connection may sit idle mid-session before it is cut
        self.read_deadline = read_deadline
        #: optional ``host:port`` shard-worker daemons for cold solves
        self.remote_workers = list(remote_workers) if remote_workers else None
        self.queue = SolveQueue(workers=queue_workers)
        self.started = time.monotonic()
        self.stopping = asyncio.Event()
        self.server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> int:
        # The stream limit is the request-line cap: readline() on a peer
        # that never sends a newline fails at MAX_LINE_BYTES instead of
        # buffering without bound (the worker protocol enforces the same
        # constant on its frame headers).
        self.server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self.server.sockets[0].getsockname()[1]
        return self.port

    async def serve_until_stopped(self) -> None:
        assert self.server is not None
        async with self.server:
            await self.stopping.wait()
        self.queue.shutdown(wait=False)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self.stopping.is_set():
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=self.read_deadline
                    )
                except asyncio.TimeoutError:
                    # A silent peer must not hold a connection task forever.
                    await self._send(
                        writer,
                        "error",
                        {
                            "error": f"no request within {self.read_deadline}s; "
                            "closing",
                        },
                    )
                    break
                except ValueError:
                    # The line outgrew MAX_LINE_BYTES; the stream cannot be
                    # resynchronized mid-line, so the connection ends here.
                    await self._send(
                        writer,
                        "error",
                        {
                            "error": f"request line exceeds {MAX_LINE_BYTES} "
                            "bytes; closing",
                        },
                    )
                    break
                if not line:
                    break
                try:
                    doc = json.loads(line)
                    if not isinstance(doc, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    await self._send(writer, "error", {"error": str(exc)})
                    continue
                op = doc.get("op")
                if op == "solve":
                    await self._handle_solve(doc, writer)
                elif op == "ping":
                    await self._send(writer, "pong", {"protocol": PROTOCOL})
                elif op == "status":
                    await self._send(writer, "status", self._status_event())
                elif op == "shutdown":
                    await self._send(writer, "bye")
                    self.stopping.set()
                    break
                else:
                    await self._send(
                        writer,
                        "error",
                        {
                            "error": f"unknown op {op!r}; know solve, ping, "
                            "status, shutdown",
                        },
                    )
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _status_event(self) -> Dict[str, Any]:
        return {
            "protocol": PROTOCOL,
            "uptime": round(time.monotonic() - self.started, 3),
            "cache": self.cache.stats.snapshot(),
            "queue": self.queue.status(),
        }

    # ------------------------------------------------------------------
    # the solve op
    # ------------------------------------------------------------------

    async def _handle_solve(
        self, doc: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            spec = QuerySpec.from_request(doc)
            # Model rebuild and digest are CPU work — off the loop.
            model = await loop.run_in_executor(None, resolve_model, spec)
            key = cache_key(spec, model=model)
        except CertificateError as exc:  # includes ServiceError
            await self._send(writer, "error", {"error": str(exc)})
            return
        await self._send(
            writer, "accepted", {"key": key, "query": spec.describe()}
        )

        # Pinned for the whole request: a bounded cache must not retire
        # this key between the leader's put and the last follower's read.
        self.cache.pin(key)
        try:
            await self._solve_flight(writer, loop, spec, model, key)
        finally:
            self.cache.unpin(key)

    async def _solve_flight(
        self,
        writer: asyncio.StreamWriter,
        loop: asyncio.AbstractEventLoop,
        spec: QuerySpec,
        model: Any,
        key: str,
    ) -> None:
        hit = await loop.run_in_executor(None, self.cache.get, key)
        if hit is not None:
            data, digest = hit
            await self._send(
                writer, "artifact", {"cache": "hit", "digest": digest}, data
            )
            return

        events: asyncio.Queue = asyncio.Queue()

        def subscriber(event: Any) -> None:
            # Runs on the solver thread; hop onto the loop.
            loop.call_soon_threadsafe(events.put_nowait, event)

        def job(publish: Any) -> Tuple[bytes, str]:
            text = solve_query(
                spec,
                model=model,
                workers=self.solver_workers,
                checkpoint=self.cache.journal_path(key),
                progress=publish,
                remote_workers=self.remote_workers,
            )
            payload = text.encode("ascii")
            digest = self.cache.put(
                key,
                payload,
                meta={"model": spec.model, "obligation": spec.obligation},
            )
            # Only after the artifact is durably cached: the journal is the
            # resume story for exactly as long as there is nothing to serve.
            self.cache.clear_journal(key)
            return payload, digest

        flight, leader = self.queue.submit(key, job, subscriber)
        source = "cold" if leader else "coalesced"
        done = asyncio.ensure_future(asyncio.wrap_future(flight.future))
        while True:
            getter = asyncio.ensure_future(events.get())
            await asyncio.wait({getter, done}, return_when=asyncio.FIRST_COMPLETED)
            if getter.done():
                await self._send(writer, "progress", asdict(getter.result()))
                continue
            getter.cancel()
            # Progress lands on the loop before the future's done-callback
            # (both hop via call_soon_threadsafe, in publish order), but
            # flush anything still queued for good measure.
            while not events.empty():
                await self._send(writer, "progress", asdict(events.get_nowait()))
            break
        try:
            data, digest = done.result()
        except CertificateError as exc:
            await self._send(writer, "error", {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — relay, keep serving
            await self._send(
                writer,
                "error",
                {"error": f"solve failed: {type(exc).__name__}: {exc}"},
            )
        else:
            await self._send(
                writer, "artifact", {"cache": source, "digest": digest}, data
            )

    # ------------------------------------------------------------------
    # wire helpers
    # ------------------------------------------------------------------

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        event: str,
        meta: Optional[Dict[str, Any]] = None,
        body: bytes = b"",
    ) -> None:
        """One frame: the header line, then the body as a second write,
        so a megabyte artifact is never copied into a joined buffer."""
        writer.write(encode_header(event, meta, body))
        if body:
            writer.write(body)
        await writer.drain()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _parse_workers(value: str):
    """``--workers``: an int (local pool size) or ``host:port,...`` daemons.

    Returns ``(solver_workers, remote_workers)``.
    """
    value = value.strip()
    if ":" not in value:
        try:
            return max(1, int(value)), None
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--workers {value!r} is neither an integer nor a "
                "host:port,... list"
            ) from None
    from ..core.transport import parse_address

    addresses = [part.strip() for part in value.split(",") if part.strip()]
    try:
        for address in addresses:
            parse_address(address)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return max(2, len(addresses)), addresses


async def _amain(args: argparse.Namespace) -> int:
    cache = CertificateCache(args.cache_dir, max_bytes=args.cache_max_bytes)
    solver_workers, remote_workers = args.workers
    server = CertificateServer(
        cache,
        host=args.host,
        port=args.port,
        solver_workers=solver_workers,
        queue_workers=args.queue_workers,
        read_deadline=args.read_deadline,
        remote_workers=remote_workers,
    )
    port = await server.start()
    if args.port_file:
        # Written atomically-enough for a watcher: the content is tiny.
        Path(args.port_file).write_text(f"{port}\n", encoding="ascii")
    print(
        json.dumps(
            {
                "event": "listening",
                "protocol": PROTOCOL,
                "host": args.host,
                "port": port,
                "cache_dir": str(cache.root),
            },
            sort_keys=True,
        ),
        flush=True,
    )
    await server.serve_until_stopped()
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.server",
        description="Serve certified verdicts over a JSONL TCP protocol.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks a free port (default)"
    )
    parser.add_argument(
        "--cache-dir",
        required=True,
        help="root of the content-addressed certificate cache",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        help="object-storage budget; least-recently-used entries are "
        "retired past it (default: REPRO_CACHE_MAX_BYTES or unbounded)",
    )
    parser.add_argument(
        "--workers",
        type=_parse_workers,
        default=(1, None),
        help="solver workers per cold solve: an integer (1 = in-process "
        "supervised), or a host:port,... list of python -m repro.worker "
        "daemons to fan shards out to over TCP",
    )
    parser.add_argument(
        "--read-deadline",
        type=float,
        default=READ_DEADLINE,
        help="seconds an idle connection may wait between requests before "
        f"it is closed (default {READ_DEADLINE})",
    )
    parser.add_argument(
        "--queue-workers",
        type=int,
        default=1,
        help="concurrent cold solves (distinct keys; same-key queries coalesce)",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        help="write the bound port here once listening (for test harnesses)",
    )
    args = parser.parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
