"""The shard-dispatch transport seam (ROADMAP item 4).

The supervisor treats shards as leased, journaled, retryable units; what
actually *carries* a shard to a worker is a transport.  Two live behind
the same interface:

* :class:`LocalPoolTransport` — a ``ProcessPoolExecutor`` behind
  ``submit``/``shutdown``/``terminate``; workers receive the solve's
  compiled Φ plan once, in the pool's initargs (DESIGN.md §14), so a
  shard's payload is two pickled ints;
* :class:`SocketTransport` — the TCP worker protocol (DESIGN.md §15):
  every address in ``workers`` names a ``python -m repro.worker`` daemon,
  shards travel as length-prefixed digest-checked frames
  (:mod:`repro.core.netproto`), workers prove liveness with heartbeats,
  and a worker that vanishes mid-shard surrenders its lease back to the
  supervisor as :class:`ShardLeaseRevoked` — the supervisor re-dispatches
  it to a surviving worker, exactly as it re-dispatches a crashed pool
  worker's shard.

The transport is also where dispatch *accounting* lives:
:class:`DispatchStats` measures what each solve actually shipped —
pickled bytes per shard, the one-time attach payload, and (for sockets)
frames, wire bytes, per-worker retries, and lost workers — so
degradation is observable on the report instead of silent.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import queue
import socket
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .netproto import (
    AUTH_KEY_ENV_VAR,
    AuthError,
    FrameError,
    WORKER_PROTOCOL,
    auth_digest,
    check_auth_digest,
    is_loopback_host,
    load_auth_key,
    new_nonce,
    recv_frame,
    send_frame,
)

#: Environment knob: seconds between worker heartbeats while computing.
HEARTBEAT_ENV_VAR = "REPRO_SOCKET_HEARTBEAT"

#: Environment knob: seconds of worker silence before its lease is revoked.
HEARTBEAT_TIMEOUT_ENV_VAR = "REPRO_SOCKET_HEARTBEAT_TIMEOUT"

DEFAULT_HEARTBEAT = 0.5
DEFAULT_HEARTBEAT_TIMEOUT = 10.0


def heartbeat_interval() -> float:
    return float(os.environ.get(HEARTBEAT_ENV_VAR) or DEFAULT_HEARTBEAT)


def heartbeat_timeout() -> float:
    return float(
        os.environ.get(HEARTBEAT_TIMEOUT_ENV_VAR) or DEFAULT_HEARTBEAT_TIMEOUT
    )


@dataclass
class DispatchStats:
    """What one solve shipped across its dispatch boundary.

    Attached to ``SolveReport.dispatch`` by the parallel solver.  Byte
    counts are parent-side pickle sizes of submitted task arguments —
    the per-shard payload the transport actually serializes; the
    one-time worker-initialization payload (initargs for a local pool,
    the attach payload for socket workers) is recorded separately in
    ``init_bytes`` so the two costs cannot be conflated.

    One stats object can serve several transports in sequence — a solve
    that degrades from socket workers to a local pool keeps accumulating
    into the same instance, and ``transports`` records every dispatch
    mechanism that carried shards.  :meth:`as_dict` output survives a
    JSON round-trip through :meth:`from_dict`, and :meth:`merge` combines
    two accounts (e.g. per-transport snapshots) into one; derived values
    like ``bytes_per_shard`` are always recomputed from the counts, never
    trusted from a serialized copy.
    """

    start_method: str = ""
    shards_dispatched: int = 0
    bytes_dispatched: int = 0
    #: pickled size of the worker initializer's arguments, Φ plan included
    #: (once per local pool, once per socket transport's attach payload)
    init_bytes: int = 0
    #: max ``ru_maxrss`` (KiB on Linux) sampled across pool workers
    worker_peak_rss_kb: int = 0
    #: every dispatch mechanism that carried shards, in first-use order
    transports: List[str] = field(default_factory=list)
    #: protocol frames sent to / received from socket workers
    frames_sent: int = 0
    frames_received: int = 0
    #: wire bytes sent to / received from socket workers (frames included)
    net_bytes_sent: int = 0
    net_bytes_received: int = 0
    #: connect/IO retries per worker address
    worker_retries: Dict[str, int] = field(default_factory=dict)
    #: socket workers declared permanently lost during the solve
    workers_lost: int = 0
    #: byte-identical duplicate shard results ignored (keyed mask+attempt)
    duplicate_results: int = 0

    @property
    def bytes_per_shard(self) -> float:
        """Mean per-shard payload; exactly 0.0 when nothing was dispatched.

        Derived — never stored, never rounded internally — so merged and
        round-tripped stats recompute it from the raw counts instead of
        averaging averages.
        """
        if self.shards_dispatched <= 0:
            return 0.0
        return self.bytes_dispatched / self.shards_dispatched

    @property
    def arena_bytes(self) -> int:
        """Always 0: workers receive the Φ plan by value.

        A read-only stand-in for a removed field.  perfbench's traced
        ``sweep`` workload still reads it (``perfbench/workloads.py``,
        ``perfbench/layers.py``); drop it when the harness stops.
        """
        return 0

    def note_transport(self, name: str) -> None:
        if name not in self.transports:
            self.transports.append(name)

    def count_retry(self, address: str) -> None:
        self.worker_retries[address] = self.worker_retries.get(address, 0) + 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "start_method": self.start_method,
            "shards_dispatched": self.shards_dispatched,
            "bytes_dispatched": self.bytes_dispatched,
            "bytes_per_shard": round(self.bytes_per_shard, 2),
            "init_bytes": self.init_bytes,
            "worker_peak_rss_kb": self.worker_peak_rss_kb,
            "transports": list(self.transports),
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "net_bytes_sent": self.net_bytes_sent,
            "net_bytes_received": self.net_bytes_received,
            "worker_retries": dict(self.worker_retries),
            "workers_lost": self.workers_lost,
            "duplicate_results": self.duplicate_results,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "DispatchStats":
        """Rebuild stats from :meth:`as_dict` output (JSON round-trip safe).

        ``bytes_per_shard`` in the input is ignored — it is derived state,
        and the serialized copy is rounded; trusting it would make
        round-tripped stats disagree with their own counts.
        """
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        kwargs = {k: v for k, v in doc.items() if k in known}
        kwargs["transports"] = list(kwargs.get("transports", []))
        kwargs["worker_retries"] = dict(kwargs.get("worker_retries", {}))
        return cls(**kwargs)

    def merge(self, other: "DispatchStats") -> "DispatchStats":
        """Combine two accounts into a new one (counts add, peaks max).

        A degraded solve that dispatched through both a socket transport
        and a local pool merges to one account whose ``bytes_per_shard``
        is the true overall mean — total bytes over total shards — not an
        average of the two per-transport means.
        """
        retries = dict(self.worker_retries)
        for address, count in other.worker_retries.items():
            retries[address] = retries.get(address, 0) + count
        transports = list(self.transports)
        for name in other.transports:
            if name not in transports:
                transports.append(name)
        return DispatchStats(
            start_method=self.start_method or other.start_method,
            shards_dispatched=self.shards_dispatched + other.shards_dispatched,
            bytes_dispatched=self.bytes_dispatched + other.bytes_dispatched,
            init_bytes=self.init_bytes + other.init_bytes,
            worker_peak_rss_kb=max(
                self.worker_peak_rss_kb, other.worker_peak_rss_kb
            ),
            transports=transports,
            frames_sent=self.frames_sent + other.frames_sent,
            frames_received=self.frames_received + other.frames_received,
            net_bytes_sent=self.net_bytes_sent + other.net_bytes_sent,
            net_bytes_received=self.net_bytes_received
            + other.net_bytes_received,
            worker_retries=retries,
            workers_lost=self.workers_lost + other.workers_lost,
            duplicate_results=self.duplicate_results + other.duplicate_results,
        )


def _probe_worker_rss(pause: float) -> Tuple[int, int]:
    """Runs in a worker: (pid, peak RSS in KiB-ish ru_maxrss units).

    The pause spreads probes across pool slots so one idle worker does
    not answer for all of them.
    """
    import resource

    if pause:
        time.sleep(pause)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return os.getpid(), int(usage.ru_maxrss)


class ShardTransport:
    """What the supervisor requires of a dispatch mechanism.

    ``submit`` returns a future; ``shutdown`` mirrors the executor
    protocol; ``terminate`` is the hard teardown the lease machinery
    needs for hung workers (the executor API alone cannot preempt one).
    """

    def submit(self, fn: Callable[..., Any], *args: Any):
        raise NotImplementedError

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        raise NotImplementedError

    def terminate(self) -> None:
        """Kill workers outright; safe on an already-stopped transport."""
        raise NotImplementedError


class LocalPoolTransport(ShardTransport):
    """A process pool behind the transport interface, with accounting."""

    def __init__(
        self,
        *,
        workers: int,
        mp_context,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        stats: Optional[DispatchStats] = None,
    ):
        self.workers = workers
        self.stats = stats
        if stats is not None:
            stats.note_transport("local")
            stats.init_bytes += len(
                pickle.dumps(initargs, protocol=pickle.HIGHEST_PROTOCOL)
            )
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp_context,
            initializer=initializer,
            initargs=initargs,
        )

    def submit(self, fn, *args):
        if self.stats is not None:
            self.stats.shards_dispatched += 1
            self.stats.bytes_dispatched += len(
                pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)
            )
        try:
            return self._pool.submit(fn, *args)
        except BrokenProcessPool as exc:
            # A worker died while shards were still being submitted.  Fail
            # through the future, as SocketTransport does, so the supervisor
            # sees one broken pool instead of an exception mid-dispatch.
            future: Future = Future()
            future.set_exception(exc)
            return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)

    def terminate(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)
        processes = getattr(self._pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # racing a worker's own exit is fine
                pass

    def sample_worker_rss(self, timeout: float = 10.0) -> int:
        """Max peak RSS across pool workers (0 if none answer in time).

        Dispatches one probe per worker slot; probes do not count as
        shard dispatches.  Call while the pool is healthy, before
        teardown.
        """
        futures = [
            self._pool.submit(_probe_worker_rss, 0.02)
            for _ in range(self.workers)
        ]
        peak: Dict[int, int] = {}
        for future in futures:
            try:
                pid, rss = future.result(timeout=timeout)
            except Exception:  # a dying pool just yields no sample
                continue
            peak[pid] = max(peak.get(pid, 0), rss)
        return max(peak.values(), default=0)


# ----------------------------------------------------------------------
# the TCP transport
# ----------------------------------------------------------------------


class SocketTransportError(RuntimeError):
    """No socket worker could be attached; the caller should degrade."""


class ShardLeaseRevoked(Exception):
    """A socket worker vanished mid-shard; its lease is surrendered.

    Raised *through the shard's future* so the supervisor — not the
    transport — decides what happens next: the shard re-enters the lease
    machinery (retry with backoff on a surviving worker, then the serial
    fallback) with the incident on the fault log.  Distinct from
    ``BrokenProcessPool``, which a transport raises only when *every*
    worker is gone and the whole pool must be respawned.
    """

    def __init__(self, shard_index: int, fixed_mask: int, worker: str, cause: str):
        self.shard_index = shard_index
        self.fixed_mask = fixed_mask
        self.worker = worker
        super().__init__(
            f"socket worker {worker} lost shard {shard_index} "
            f"(fixed-bit mask {bin(fixed_mask)}): {cause}"
        )


class _LinkBroken(Exception):
    """Internal: this worker connection can no longer be trusted."""


def parse_address(address: str) -> Tuple[str, int]:
    """``host:port`` → ``(host, port)``; the only address syntax accepted."""
    host, sep, port = address.strip().rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"worker address {address!r} is not host:port (e.g. "
            "127.0.0.1:7421)"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"worker address {address!r} has a non-integer port {port!r}"
        ) from None


@dataclass
class _SocketTask:
    index: int
    fixed_mask: int
    attempt: int
    future: Future


class _WorkerLink:
    """One attached worker connection plus its bookkeeping."""

    def __init__(self, index: int, address: str):
        self.index = index
        self.address = address
        self.sock: Optional[socket.socket] = None
        self.rfile = None
        self.wfile = None
        self.alive = False

    def close(self) -> None:
        for stream in (self.rfile, self.wfile, self.sock):
            if stream is None:
                continue
            try:
                stream.close()
            except OSError:
                pass
        self.sock = self.rfile = self.wfile = None
        self.alive = False


class SocketTransport(ShardTransport):
    """Shards over TCP to ``python -m repro.worker`` daemons.

    Construction connects to and *attaches* every address: the worker
    receives the solve's program digest plus the attach payload (program,
    shard layout, solver flags and the compiled Φ plan, by value).
    A worker none of whose connect attempts succeed (retry with the fault
    policy's exponential backoff) is simply skipped; zero attached
    workers raises :class:`SocketTransportError` so the caller can
    degrade to a local pool.

    Per shard, the owning link sends one ``shard`` frame and waits for a
    ``result`` frame, with worker ``heartbeat`` frames resetting the
    per-worker deadline in between; a worker silent past the heartbeat
    timeout, or one whose connection breaks or frames arrive corrupt, is
    first retried (reconnect + re-attach + re-dispatch under a fresh
    attempt number) and then declared lost — the in-flight shard's future
    raises :class:`ShardLeaseRevoked` and the supervisor re-dispatches.
    Results are keyed by ``(fixed_mask, attempt)``: a duplicate result is
    accepted only if byte-identical to the first (anything else breaks
    the link), so re-executed shards are idempotent by construction.
    """

    def __init__(
        self,
        addresses: Sequence[str],
        *,
        program_digest: str,
        attach_args: Dict[str, Any],
        policy: Optional[Any] = None,
        stats: Optional[DispatchStats] = None,
        log: Optional[Any] = None,
        net_plan: Optional[Any] = None,
        heartbeat: Optional[float] = None,
        timeout: Optional[float] = None,
        connect_timeout: float = 5.0,
        auth_key: Optional[bytes] = None,
    ):
        if not addresses:
            raise SocketTransportError("no worker addresses given")
        for address in addresses:
            parse_address(address)  # fail fast on syntax, not mid-solve
        self.addresses = list(addresses)
        self.program_digest = program_digest
        self.policy = policy
        self.stats = stats
        self.log = log
        self.net_plan = net_plan
        self.heartbeat = heartbeat if heartbeat is not None else heartbeat_interval()
        self.timeout = timeout if timeout is not None else heartbeat_timeout()
        self.connect_timeout = connect_timeout
        #: shared secret for the mutual HMAC handshake (AUTH_KEY_ENV_VAR
        #: when not given); both directions of this protocol carry
        #: pickles, so keyless links are accepted for loopback only.
        self.auth_key = auth_key if auth_key is not None else load_auth_key()
        self._attach_payload = pickle.dumps(
            attach_args, protocol=pickle.HIGHEST_PROTOCOL
        )
        self._queue: "queue.Queue[_SocketTask]" = queue.Queue()
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._broken = False
        self._attempts: Dict[int, int] = {}
        #: (fixed_mask, attempt) → result body sha256, for idempotency
        #: checks; the digest (already computed and verified by the frame
        #: layer) establishes byte identity without retaining a second
        #: copy of every result body for the lifetime of the solve.
        self._seen: Dict[Tuple[int, int], str] = {}
        self._threads: List[threading.Thread] = []
        self.links: List[_WorkerLink] = []

        unreachable: List[str] = []
        for index, address in enumerate(self.addresses):
            link = _WorkerLink(index, address)
            try:
                self._open_link(link)
            except (OSError, FrameError, SocketTransportError) as exc:
                unreachable.append(f"{address} ({exc})")
                continue
            self.links.append(link)
        if not self.links:
            raise SocketTransportError(
                "no socket worker reachable: " + "; ".join(unreachable)
            )
        # Accounted only once at least one worker attached: a transport
        # that never carried a shard must not appear in the stats.
        if stats is not None:
            stats.note_transport("socket")
            stats.init_bytes += len(self._attach_payload)
        if unreachable and self.log is not None:
            self.log.record(
                "worker-unreachable",
                detail=f"{len(unreachable)} of {len(self.addresses)} worker(s) "
                "skipped at attach: " + "; ".join(unreachable),
            )
        for link in self.links:
            thread = threading.Thread(
                target=self._serve_link,
                args=(link,),
                name=f"shard-link-{link.address}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        if self.policy is None:
            return min(0.05 * (2.0 ** (attempt - 1)), 2.0)
        return self.policy.backoff(attempt + 1)

    def _max_retries(self) -> int:
        return 2 if self.policy is None else self.policy.max_retries

    def _open_link(self, link: _WorkerLink) -> None:
        """Connect and attach one worker, retrying with backoff.

        Raises on exhaustion; the caller decides whether that means
        "skip this worker" (construction) or "worker lost" (recovery).
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                if self.net_plan is not None and self.net_plan.refuses_connect(
                    link.index
                ):
                    raise ConnectionRefusedError(
                        "injected conn-refused (fault plan)"
                    )
                sock = socket.create_connection(
                    parse_address(link.address), timeout=self.connect_timeout
                )
                break
            except OSError as exc:
                if attempt > self._max_retries():
                    raise SocketTransportError(
                        f"worker {link.address} unreachable after {attempt} "
                        f"attempt(s): {exc}"
                    ) from exc
                if self.stats is not None:
                    self.stats.count_retry(link.address)
                time.sleep(self._backoff(attempt))
        try:
            self._attach(link, sock)
        except (OSError, FrameError) as exc:
            try:
                sock.close()
            except OSError:
                pass
            raise SocketTransportError(
                f"worker {link.address} failed the attach handshake: {exc}"
            ) from exc

    def _handshake(self, link: _WorkerLink, rfile, wfile) -> None:
        """The daemon's ``hello`` plus the mutual HMAC proof, if keyed.

        Runs before any payload crosses the link in either direction:
        results coming back are pickles, so the worker must prove it
        holds the shared key (``welcome`` over our counter-nonce) just
        as we prove ourselves to it.  Keyless operation is a loopback
        privilege — an unauthenticated non-loopback worker is refused,
        and a keyless worker is refused whenever we hold a key (no
        silent downgrade).
        """
        header, _body, nbytes = recv_frame(rfile)
        self._count_received(nbytes)
        if header.get("type") != "hello":
            raise FrameError(f"expected 'hello', got {header.get('type')!r}")
        if header.get("protocol") != WORKER_PROTOCOL:
            raise FrameError(
                f"protocol mismatch: worker {link.address} speaks "
                f"{header.get('protocol')!r}, this coordinator "
                f"{WORKER_PROTOCOL}"
            )
        mode = header.get("auth")
        if mode == "none":
            if self.auth_key is not None:
                raise AuthError(
                    f"worker {link.address} is unauthenticated but this "
                    "coordinator holds a key; refusing the keyless "
                    "downgrade"
                )
            if not is_loopback_host(parse_address(link.address)[0]):
                raise AuthError(
                    f"refusing keyless non-loopback worker {link.address}: "
                    "shard results are pickled payloads, so both sides "
                    f"must share {AUTH_KEY_ENV_VAR}"
                )
            return
        if mode != "hmac":
            raise AuthError(
                f"worker {link.address} offers unknown auth mode {mode!r}"
            )
        if self.auth_key is None:
            raise AuthError(
                f"worker {link.address} requires authentication; set "
                f"{AUTH_KEY_ENV_VAR} to its shared secret"
            )
        nonce = header.get("nonce")
        if not isinstance(nonce, str) or not nonce:
            raise AuthError(
                f"worker {link.address} sent no challenge nonce"
            )
        counter = new_nonce()
        self._count_sent(
            send_frame(
                wfile,
                "auth",
                {
                    "digest": auth_digest(self.auth_key, nonce),
                    "nonce": counter,
                },
            )
        )
        header, _body, nbytes = recv_frame(rfile)
        self._count_received(nbytes)
        if header.get("type") == "error":
            raise AuthError(
                f"worker {link.address} refused the handshake: "
                f"{header.get('message')}"
            )
        if header.get("type") != "welcome":
            raise FrameError(
                f"expected 'welcome', got {header.get('type')!r}"
            )
        if not check_auth_digest(self.auth_key, counter, header.get("digest")):
            raise AuthError(
                f"worker {link.address} failed the counter-challenge — "
                "wrong key or impostor; refusing to exchange payloads"
            )

    def _attach(self, link: _WorkerLink, sock: socket.socket) -> None:
        sock.settimeout(max(self.timeout, 30.0))
        rfile = sock.makefile("rb")
        wfile = sock.makefile("wb")
        self._handshake(link, rfile, wfile)
        self._count_sent(
            send_frame(
                wfile,
                "attach",
                {
                    "program": self.program_digest,
                    "protocol": WORKER_PROTOCOL,
                    "heartbeat": self.heartbeat,
                },
                self._attach_payload,
            )
        )
        header, _body, nbytes = recv_frame(rfile)
        self._count_received(nbytes)
        if header["type"] == "error":
            raise FrameError(f"worker refused attach: {header.get('message')}")
        if header["type"] != "attached":
            raise FrameError(f"expected 'attached', got {header['type']!r}")
        if header.get("program") != self.program_digest:
            raise FrameError(
                f"worker attached to program {header.get('program')!r}; "
                f"this solve is {self.program_digest!r}"
            )
        link.sock = sock
        link.rfile = rfile
        link.wfile = wfile
        link.alive = True

    def _count_sent(self, nbytes: int) -> None:
        if self.stats is not None:
            self.stats.frames_sent += 1
            self.stats.net_bytes_sent += nbytes

    def _count_received(self, nbytes: int) -> None:
        if self.stats is not None:
            self.stats.frames_received += 1
            self.stats.net_bytes_received += nbytes

    # ------------------------------------------------------------------
    # the transport interface
    # ------------------------------------------------------------------

    def submit(self, fn, *args):
        """Queue one shard; ``fn`` is ignored (workers run their own sweep).

        The signature mirrors the executor protocol so the supervisor can
        treat every transport identically; what actually crosses the wire
        is the shard coordinates plus a fresh attempt number.
        """
        index, fixed_mask = args
        future: Future = Future()
        if self.stats is not None:
            self.stats.shards_dispatched += 1
            self.stats.bytes_dispatched += len(
                pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)
            )
        with self._lock:
            if self._broken or not any(l.alive for l in self.links):
                future.set_exception(
                    BrokenProcessPool("no live socket workers to dispatch to")
                )
                return future
            attempt = self._attempts.get(fixed_mask, 0) + 1
            self._attempts[fixed_mask] = attempt
            # The put must stay under the lock: _lose_link marks the
            # transport broken and then fails the backlog, so a task
            # enqueued after its liveness check but outside the lock
            # could land in a queue no thread will ever serve again.
            self._queue.put(_SocketTask(index, fixed_mask, attempt, future))
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self._stopping.set()
        if cancel_futures:
            self._drain_queue_cancelling()
        for link in self.links:
            if link.alive and link.wfile is not None:
                try:
                    send_frame(link.wfile, "bye")
                except (OSError, FrameError):
                    pass
            link.close()
        if wait:
            for thread in self._threads:
                thread.join(timeout=5.0)

    def terminate(self) -> None:
        self._stopping.set()
        for link in self.links:
            link.close()
        self._drain_queue_cancelling()

    def _drain_queue_cancelling(self) -> None:
        while True:
            try:
                task = self._queue.get_nowait()
            except queue.Empty:
                return
            task.future.cancel()

    def sample_worker_rss(self, timeout: float = 10.0) -> int:
        """Max peak RSS across live workers via ``rss`` probe frames.

        Only safe while no shards are in flight (the solver calls it
        after the pool phase drains) — probe frames share each link's
        socket with shard traffic.
        """
        peak = 0
        for link in self.links:
            if not link.alive:
                continue
            try:
                link.sock.settimeout(timeout)
                self._count_sent(send_frame(link.wfile, "rss"))
                header, _body, nbytes = recv_frame(link.rfile)
                self._count_received(nbytes)
                if header.get("type") == "rss":
                    peak = max(peak, int(header.get("kb", 0)))
            except (OSError, FrameError):
                continue
        return peak

    # ------------------------------------------------------------------
    # per-link service loop
    # ------------------------------------------------------------------

    def _serve_link(self, link: _WorkerLink) -> None:
        while not self._stopping.is_set():
            try:
                task = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            if task.future.cancelled():
                continue
            if not self._dispatch(link, task):
                return  # link is dead; survivors drain the queue

    def _dispatch(self, link: _WorkerLink, task: _SocketTask) -> bool:
        """Run one task on ``link``; returns False once the link is lost."""
        retries = 0
        cause = "unknown"
        while True:
            try:
                self._send_shard(link, task)
                result = self._await_result(link, task)
            except _LinkBroken as exc:
                cause = str(exc)
                link.close()
                retries += 1
                if self._stopping.is_set() or retries > self._max_retries():
                    break
                if self.stats is not None:
                    self.stats.count_retry(link.address)
                if self.log is not None:
                    self.log.record(
                        "link-retry",
                        shard_index=task.index,
                        attempt=retries,
                        detail=f"{link.address}: {cause}",
                    )
                time.sleep(self._backoff(retries))
                try:
                    self._open_link(link)
                except (OSError, FrameError, SocketTransportError) as reopen:
                    cause = f"{cause}; reconnect failed: {reopen}"
                    break
                # Re-dispatch under a fresh attempt number: the old session
                # may have computed (or half-sent) the old attempt's result,
                # and idempotency is keyed per attempt.
                with self._lock:
                    attempt = self._attempts.get(task.fixed_mask, 0) + 1
                    self._attempts[task.fixed_mask] = attempt
                task = _SocketTask(task.index, task.fixed_mask, attempt, task.future)
                continue
            if not task.future.cancelled():
                try:
                    task.future.set_result(result)
                except Exception:  # pragma: no cover - racing cancellation
                    pass
            return True
        self._lose_link(link, task, cause)
        return False

    def _send_shard(self, link: _WorkerLink, task: _SocketTask) -> None:
        try:
            self._count_sent(
                send_frame(
                    link.wfile,
                    "shard",
                    {
                        "index": task.index,
                        "fixed_mask": task.fixed_mask,
                        "attempt": task.attempt,
                    },
                )
            )
        except (OSError, FrameError) as exc:
            raise _LinkBroken(f"send failed: {exc}") from exc

    def _await_result(self, link: _WorkerLink, task: _SocketTask):
        """Read frames until this task's result arrives.

        Heartbeats reset the deadline implicitly (each successful read
        restarts the socket timeout); silence past the heartbeat timeout,
        a torn or corrupt frame, or a worker-side error all break the
        link.  Duplicate results are cross-checked byte-for-byte against
        the first copy and ignored.
        """
        link.sock.settimeout(self.timeout)
        while True:
            try:
                header, body, nbytes = recv_frame(link.rfile)
            except socket.timeout as exc:
                raise _LinkBroken(
                    f"no heartbeat within {self.timeout}s"
                ) from exc
            except (OSError, FrameError) as exc:
                raise _LinkBroken(str(exc)) from exc
            self._count_received(nbytes)
            kind = header.get("type")
            if kind == "heartbeat":
                continue
            if kind == "error":
                raise _LinkBroken(f"worker error: {header.get('message')}")
            if kind != "result":
                raise _LinkBroken(f"unexpected frame {kind!r} awaiting result")
            key = (int(header.get("fixed_mask", -1)), int(header.get("attempt", -1)))
            # The frame layer has already verified body against this
            # digest, so digest equality *is* byte equality — without
            # keeping a second copy of every result body around.
            digest = header.get("sha256") or hashlib.sha256(body).hexdigest()
            with self._lock:
                seen = self._seen.get(key)
                if seen is None:
                    self._seen[key] = digest
            if seen is not None:
                if seen != digest:
                    raise _LinkBroken(
                        f"worker re-sent shard {header.get('index')} attempt "
                        f"{key[1]} with different bytes — refusing the "
                        "non-idempotent duplicate"
                    )
                if self.stats is not None:
                    self.stats.duplicate_results += 1
                if self.log is not None:
                    self.log.record(
                        "duplicate-result",
                        shard_index=header.get("index"),
                        attempt=key[1],
                        detail=f"byte-identical duplicate from {link.address} "
                        "ignored",
                    )
            if key == (task.fixed_mask, task.attempt):
                try:
                    return pickle.loads(body)
                except Exception as exc:
                    raise _LinkBroken(f"undecodable result payload: {exc}") from exc
            # A result for some other attempt (e.g. an injected duplicate):
            # recorded above, not ours to return.

    def _lose_link(self, link: _WorkerLink, task: _SocketTask, cause: str) -> None:
        link.close()
        if self._stopping.is_set():
            # Mid-teardown the link is not "lost" — but the in-flight
            # future must still complete, or a caller that shuts the
            # transport down and then waits on its futures blocks
            # forever (only *queued* tasks pass through the cancelling
            # drain).
            if not task.future.cancel():
                try:
                    task.future.set_exception(
                        ShardLeaseRevoked(
                            task.index, task.fixed_mask, link.address,
                            f"transport shutdown: {cause}",
                        )
                    )
                except Exception:  # pragma: no cover - already completed
                    pass
            return
        with self._lock:
            survivors = any(l.alive for l in self.links)
            if self.stats is not None:
                self.stats.workers_lost += 1
            if not survivors:
                self._broken = True
        if task.future.cancelled():
            pass
        elif survivors:
            try:
                task.future.set_exception(
                    ShardLeaseRevoked(
                        task.index, task.fixed_mask, link.address, cause
                    )
                )
            except Exception:  # pragma: no cover - racing cancellation
                pass
        else:
            error = BrokenProcessPool(
                f"all {len(self.links)} socket worker(s) lost "
                f"(last: {link.address}: {cause})"
            )
            try:
                task.future.set_exception(error)
            except Exception:  # pragma: no cover - racing cancellation
                pass
            # Nobody is left to drain the queue; fail the backlog so the
            # supervisor sees a broken pool instead of a hang.
            while True:
                try:
                    queued = self._queue.get_nowait()
                except queue.Empty:
                    break
                if not queued.future.cancelled():
                    try:
                        queued.future.set_exception(error)
                    except Exception:  # pragma: no cover
                        pass
