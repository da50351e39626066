"""The three closed-loop workloads: ``hot``, ``cold`` and ``sweep``.

One load-generator process drives every workload.  In ``hot`` and
``cold`` it talks to one certificate server over one connection, in the
server's documented JSONL protocol, and waits for each verified reply
before it sends the next request.  In ``sweep`` it calls the public
``solve_si`` in-process, which starts the library's default solver pool
on its own.

Every operation is checked against ``pinned.json``; an operation that
fails a check, times out or meets an error event counts as failed.

``cold`` and ``sweep`` draw from small fixed query sets, so their passes
run in *rounds*: each round sends the whole set once in a seeded order,
and the pass stops at the round boundary nearest ``--seconds`` (at least
two rounds).  Whole rounds keep every run's mix identical, so
``req_per_s`` and the latency percentiles do not depend on where a
timer happened to cut a heavy request in half.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import select
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import (
    BENCH,
    OUT,
    ROOT,
    child_env,
    cpu_steal_s,
    host_probe_ms,
    loadavg,
    percentile,
    proc_cpu_s,
    proc_kb,
)
from spans import Recorder, load

#: Seconds a request may take before it counts as failed (a timeout).
REQUEST_TIMEOUT = 60.0

#: ``hot``: six cached certificates from ~3 KB to ~1 MB, drawn with these
#: weights.  Sorted by hit latency the classes are fig2 < bounded2 < f8 <
#: L10 ≈ f10 < f12; the weights put p50 inside f8 (cumulative 35–60%),
#: p90 inside L10+f10 (60–95%) and p99 inside f12 (95–100%), so no
#: percentile sits on the edge between two size classes.
HOT = (
    ("fig2", "si-solve", 20),
    ("seqtrans-standard-L1-bounded2", "si", 15),
    ("kbp24-f8", "si-solve", 25),
    ("seqtrans-symbolic-L10-reliable", "si", 10),
    ("kbp24-f10", "si-solve", 25),
    ("kbp24-f12", "si-solve", 5),
)


def _cold_queries() -> Tuple[Tuple[str, str], ...]:
    queries = [(f"kbp24-f{k}", "si-solve") for k in range(4, 12)]
    for channel in ("reliable", "lossy", "dup_reorder", "bounded1", "bounded2", "bounded3"):
        for obligation in ("si", "invariant"):
            queries.append((f"seqtrans-standard-L1-{channel}", obligation))
    # Corrupting channels break (34), so only their SI is certified.
    for budget in (1, 2, 3, 4, 6, 8, 12, 16):
        queries.append((f"seqtrans-standard-L1-corrupting{budget}", "si"))
    # L3 is small enough for the size policy to keep it explicit; L5 and
    # up go to ROBDD.
    for length in (3, 5, 6, 8, 10, 12):
        for obligation in ("si", "invariant"):
            queries.append((f"seqtrans-symbolic-L{length}-reliable", obligation))
    queries += [("fig1", "si-solve"), ("fig2", "si-solve"), ("fig2-strong", "si-solve")]
    return tuple(queries)


#: Answered by every fresh ``cold`` server before its round, off the clock,
#: so the server's and the client's one-time imports land on no query.
COLD_WARMUP = (("kbp24-f3", "si-solve"), ("seqtrans-standard-L1-corrupting5", "si"))

#: ``cold``: 43 distinct first-time queries per round.  The count is odd
#: so that p50 falls on one query's samples rather than between two; p90
#: falls inside the ~1-s class of corrupting12/16, bounded3 and kbp24-f10;
#: the heaviest request (the L3 SI: explicit sst plus its replay) holds p99
#: once the pass has two rounds.
COLD = _cold_queries()

#: ``sweep``: solves per round of each kbp24 size.  f8–f11 take the
#: unbatched serial loop, f12 and up the default process pool.  Sorted by
#: latency the classes are f13 < f12 ≈ f14 < f8 < f15 < f9 ≈ f16 < f17 <
#: f10 < f11 < f20; the counts put p50 inside f14 (cumulative 29–59%), p90
#: inside f10 (80–95%) and p99 inside f20 (98–100%).
SWEEP_MIX = (
    (13, 6), (12, 6), (14, 12), (8, 3), (15, 1), (16, 3), (9, 1), (17, 1),
    (10, 6), (11, 1), (20, 1),
)
SWEEP_SIZES = tuple(sorted(k for k, _n in SWEEP_MIX))
SWEEP_ROUND = tuple(k for k, n in SWEEP_MIX for _ in range(n))

#: ``hot`` reports each metric as the median over windows of this length.
HOT_WINDOW_S = 3.0
#: A window is *clean* when the hypervisor stole at most this share of the
#: host's CPU time during it.  ``hot`` keeps running windows until it has
#: ``seconds / HOT_WINDOW_S`` clean ones or has run ``HOT_STRETCH`` times
#: ``seconds``, then reports over the least-stolen ``seconds / HOT_WINDOW_S``.
STEAL_CLEAN = 0.05
HOT_STRETCH = 1.5

#: Server starts per ``cold`` run; its ``setup_s`` is their median.  The
#: multi-second ``hot`` and ``sweep`` set-ups run once.
COLD_STARTS = 5
MIN_ROUNDS = 2


class Failure(Exception):
    """An operation that did not produce a verified result."""


class WireLost(Failure):
    """The connection can no longer be trusted to be in step."""


# ----------------------------------------------------------------------
# the load generator's side of the wire protocol
# ----------------------------------------------------------------------


@dataclass
class Reply:
    key: str
    cache: str
    advertised: str
    data: bytes
    t_accept: float
    t_header: float
    t_body: float


class Wire:
    """One blocking connection speaking ``repro-service/1``."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        for stream in (self.rfile, self.sock):
            try:
                stream.close()
            except OSError:
                pass

    def _event(self) -> Dict[str, Any]:
        line = self.rfile.readline()
        if not line:
            raise WireLost("server closed the connection")
        return json.loads(line)

    def op(self, doc: Dict[str, Any], expect: str) -> Dict[str, Any]:
        self.sock.sendall((json.dumps(doc) + "\n").encode("ascii"))
        event = self._event()
        if event.get("event") != expect:
            raise WireLost(f"expected {expect!r}, got {event!r}")
        return event

    def solve(self, model: str, obligation: str) -> Reply:
        """Send one solve; the caller took the send time just before."""
        self.sock.sendall(
            (json.dumps({"op": "solve", "model": model, "obligation": obligation})
             + "\n").encode("ascii")
        )
        event = self._event()
        if event.get("event") == "error":
            raise Failure(f"error event: {event.get('error')}")
        if event.get("event") != "accepted":
            raise WireLost(f"expected 'accepted', got {event!r}")
        t_accept = time.perf_counter()
        key = event.get("key", "")
        while True:
            event = self._event()
            kind = event.get("event")
            if kind == "progress":
                continue
            if kind == "error":
                raise Failure(f"error event: {event.get('error')}")
            if kind != "artifact":
                raise WireLost(f"unexpected event {kind!r}")
            break
        t_header = time.perf_counter()
        size = int(event["bytes"])
        data = self.rfile.read(size)
        if data is None or len(data) != size:
            raise WireLost("artifact truncated on the wire")
        return Reply(key, event.get("cache", ""), event.get("digest", ""), data,
                     t_accept, t_header, time.perf_counter())


class Server:
    """A certificate server started through ``launcher.py`` on a fresh cache.

    The server's standard input is a pipe the load generator never writes
    to; the launcher ends the server when that pipe closes.
    """

    def __init__(self, ctx: "Context"):
        ctx.servers += 1
        self.index = ctx.servers
        self.workdir = ctx.workdir / f"server-{self.index}"
        self.trace_out = self.workdir / "spans.jsonl" if ctx.trace else None
        self.workdir.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH / "launcher.py")]
        if self.trace_out is not None:
            cmd += ["--trace-out", str(self.trace_out)]
        cmd += ["--", "--cache-dir", str(self.workdir / "cache")]
        self.seq = 0
        self.wire: Optional[Wire] = None
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT)
        ctx.live.append(self)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], REQUEST_TIMEOUT)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise WireLost("server did not report that it is listening")
            self.port = int(json.loads(line)["port"])
            self.wire = Wire(self.port)
            self.wire.op({"op": "ping"}, "pong")
        except BaseException:
            self.kill()
            raise

    def reconnect(self) -> None:
        if self.wire is not None:
            self.wire.close()
        self.wire = Wire(self.port)

    def stop(self) -> Dict[str, float]:
        """Shut the server down; return its peak RSS and CPU seconds."""
        usage = {
            "hwm_kb": proc_kb(self.proc.pid, "VmHWM"),
            "cpu_s": proc_cpu_s(self.proc.pid),
        }
        try:
            if self.wire is not None:
                self.wire.op({"op": "shutdown"}, "bye")
        except (OSError, ValueError, Failure):
            pass
        if self.wire is not None:
            self.wire.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        self.kill()
        return usage

    def kill(self) -> None:
        """Kill the server if it still runs, wait for it and close its pipes."""
        if self.wire is not None:
            self.wire.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def spans(self) -> List[Dict[str, Any]]:
        if self.trace_out is None or not self.trace_out.exists():
            return []
        return load(str(self.trace_out))


# ----------------------------------------------------------------------
# run context: checks, counters, host attribution
# ----------------------------------------------------------------------


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    pinned: Dict[str, Any]
    quick: bool = False
    workdir: Path = OUT / "work"
    servers: int = 0
    #: servers started and not yet stopped
    live: List[Server] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: (window, query, latency) of every verified timed request
    samples: List[Tuple[int, str, float]] = field(default_factory=list)
    #: seconds of each window: a round, or a ``HOT_WINDOW_S`` slice in hot
    windows: List[float] = field(default_factory=list)
    window: int = 0
    #: indices of the windows the metrics are taken over (all when None)
    kept: Optional[List[int]] = None
    #: pass requests: timestamps and facts, for the traced breakdown
    requests: List[Dict[str, Any]] = field(default_factory=list)
    server_spans: Dict[int, List[Dict[str, Any]]] = field(default_factory=dict)
    server_cpu_s: float = 0.0
    peak_rss_kb: int = 0
    setup_times: List[float] = field(default_factory=list)
    pass_s: float = 0.0
    record: Dict[str, Any] = field(default_factory=dict)
    recorder: Optional[Recorder] = None

    def close(self) -> None:
        """Kill every server still running: the way out of a run that failed."""
        while self.live:
            self.live.pop().kill()

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def stop_server(self, server: Server) -> None:
        usage = server.stop()
        self.live.remove(server)
        self.server_cpu_s += usage["cpu_s"]
        self.peak_rss_kb = max(self.peak_rss_kb, usage["hwm_kb"])
        if self.trace:
            self.server_spans[server.index] = server.spans()

    # -- one checked service request ------------------------------------

    def solve(self, server: Server, model: str, obligation: str, expect: str,
              replay: bool, timed: bool) -> None:
        """Send one query and verify it; a timed one is sampled (and traced)."""
        query = f"{model}|{obligation}"
        pin = self.pinned["queries"][query]
        self.attempted += 1
        server.seq += 1
        seq = server.seq
        t0 = time.perf_counter()
        try:
            reply = server.wire.solve(model, obligation)
            digest = hashlib.sha256(reply.data).hexdigest()
            if digest != reply.advertised:
                raise Failure(f"{query}: received bytes do not hash to the advertised digest")
            if digest != pin["sha256"]:
                raise Failure(f"{query}: digest {digest} differs from the pinned {pin['sha256']}")
            t_digest = time.perf_counter()
            if reply.cache != expect:
                raise Failure(f"{query}: served from {reply.cache!r}, expected {expect!r}")
            if replay:
                verdict = _replay(reply.data)
                if verdict != pin["verdict"]:
                    raise Failure(f"{query}: replay verdict {verdict!r}, pinned {pin['verdict']!r}")
        except WireLost as exc:
            self.fail(f"{query}: {exc}")
            server.reconnect()
            return
        except (Failure, OSError, ValueError) as exc:
            self.fail(f"{query}: {type(exc).__name__}: {exc}")
            if isinstance(exc, (OSError, ValueError)):
                server.reconnect()
            return
        t_end = time.perf_counter()
        if not timed:
            return
        self.samples.append((self.window, query, t_end - t0))
        if self.trace:
            self.requests.append({
                "server": server.index, "seq": seq, "query": query, "key": reply.key,
                "bytes": len(reply.data), "t0": t0, "accept": reply.t_accept,
                "header": reply.t_header, "body": reply.t_body, "digest": t_digest,
                "end": t_end, "replay": replay,
            })

    # -- the timed pass ---------------------------------------------------

    def begin_pass(self) -> None:
        self.record["probe_before_ms"] = _probe()
        self.record["loadavg_before"] = loadavg()
        self._steal = cpu_steal_s()
        self._cpu = _self_cpu()
        self._children_cpu = _children_cpu()

    def end_pass(self) -> None:
        self.record["steal_s"] = cpu_steal_s() - self._steal
        self.record["client_cpu_s"] = _self_cpu() - self._cpu
        self.record["children_cpu_s"] = _children_cpu() - self._children_cpu
        self.record["probe_after_ms"] = _probe()
        self.record["loadavg_after"] = loadavg()

    def rounds_pass(self, one_round: Callable[[], None],
                    between: Optional[Callable[[], None]] = None) -> None:
        """Run whole rounds until the boundary nearest ``seconds``.

        ``between`` runs before every round after the first, off the clock.
        """
        need = 1 if self.quick else MIN_ROUNDS
        while True:
            if self.windows and between is not None:
                between()
            self.window = len(self.windows)
            t0 = time.perf_counter()
            one_round()
            last = time.perf_counter() - t0
            self.windows.append(last)
            self.pass_s += last
            if len(self.windows) >= need and self.pass_s + last / 2 >= self.seconds:
                return

    def end_to_end(self) -> Dict[str, float]:
        """``req_per_s`` and latency percentiles of the timed pass.

        ``req_per_s`` is the median over windows of the window's verified
        requests per second.  In ``hot`` each percentile is also the median
        of the windows' percentiles (every 3-s window holds thousands of
        requests); in the round-based workloads it is taken over the whole
        pass, whose mix the round fixes.
        """
        if not self.samples:
            nan = float("nan")
            return {"req_per_s": 0.0, "p50_ms": nan, "p90_ms": nan, "p99_ms": nan}
        kept = range(len(self.windows)) if self.kept is None else self.kept
        by_window: Dict[int, List[float]] = {i: [] for i in kept}
        for window, _query, latency in self.samples:
            if window in by_window:
                by_window[window].append(latency)
        rates = [len(by_window[i]) / self.windows[i] for i in kept]
        out = {"req_per_s": statistics.median(rates)}
        for name, q in (("p50_ms", 0.50), ("p90_ms", 0.90), ("p99_ms", 0.99)):
            if self.workload == "hot":
                value = statistics.median(percentile(v, q) for v in by_window.values() if v)
            else:
                value = percentile([s[2] for s in self.samples], q)
            out[name] = value * 1000
        return out

    def query_medians(self) -> Dict[str, float]:
        """Median latency (ms) of each query over the pass, for the record."""
        by_query: Dict[str, List[float]] = {}
        for _window, query, latency in self.samples:
            by_query.setdefault(query, []).append(latency)
        return {q: statistics.median(v) * 1000 for q, v in sorted(by_query.items())}


def _probe() -> float:
    return statistics.median(host_probe_ms() for _ in range(5))


def _self_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _replay(data: bytes) -> str:
    from repro.certificates import CertificateError, loads, replay_artifact

    try:
        return replay_artifact(loads(data.decode("ascii"))).verdict
    except CertificateError as exc:
        raise Failure(f"replay rejected the artifact: {exc}") from None


def _fresh_client() -> None:
    """Forget every model the load generator built for earlier replays."""
    from repro.certificates import build_model

    build_model.cache_clear()


# ----------------------------------------------------------------------
# hot
# ----------------------------------------------------------------------


def run_hot(ctx: Context) -> None:
    _fresh_client()
    t0 = time.perf_counter()
    server = Server(ctx)
    for model, obligation, _w in HOT:
        ctx.solve(server, model, obligation, "cold", replay=True, timed=False)
    ctx.setup_times.append(time.perf_counter() - t0)
    cpu0 = proc_cpu_s(server.proc.pid)
    rng = random.Random(ctx.seed)
    population = [(m, o) for m, o, _w in HOT]
    weights = [w for _m, _o, w in HOT]
    count = max(1, round(ctx.seconds / HOT_WINDOW_S))
    width = ctx.seconds / count
    cpus = os.cpu_count() or 1
    steal: List[float] = []
    ctx.begin_pass()
    t0 = time.perf_counter()
    while True:
        ctx.window = len(ctx.windows)
        w0, s0 = time.perf_counter(), cpu_steal_s()
        while time.perf_counter() - w0 < width:
            model, obligation = rng.choices(population, weights)[0]
            ctx.solve(server, model, obligation, "hit", replay=False, timed=True)
        ctx.windows.append(time.perf_counter() - w0)
        steal.append((cpu_steal_s() - s0) / (ctx.windows[-1] * cpus))
        clean = sum(share <= STEAL_CLEAN for share in steal)
        elapsed = time.perf_counter() - t0
        if len(steal) >= count and (clean >= count or elapsed >= HOT_STRETCH * ctx.seconds):
            break
    ctx.pass_s = time.perf_counter() - t0
    ctx.kept = sorted(sorted(range(len(steal)), key=lambda i: steal[i])[:count])
    ctx.record["window_steal_share"] = steal
    ctx.record["windows_kept"] = ctx.kept
    ctx.end_pass()
    ctx.stop_server(server)
    ctx.server_cpu_s -= cpu0


# ----------------------------------------------------------------------
# cold
# ----------------------------------------------------------------------


def cold_round(rng: random.Random) -> List[Tuple[str, str]]:
    """The round's queries in seeded order, each model's SI before its invariant.

    Whichever query of a model comes first pays for building it and for
    its sst chain; fixing that order keeps the round's set of latencies the
    same under every seed.
    """
    order = rng.sample(COLD, len(COLD))
    slots: Dict[str, List[int]] = {}
    for i, (model, _obligation) in enumerate(order):
        slots.setdefault(model, []).append(i)
    for model, positions in slots.items():
        obligations = sorted((order[i][1] for i in positions), key=lambda o: o != "si")
        for i, obligation in zip(positions, obligations):
            order[i] = (model, obligation)
    return order


def _cold_server(ctx: Context) -> Server:
    server = Server(ctx)
    for model, obligation in COLD_WARMUP:
        ctx.solve(server, model, obligation, "cold", replay=True, timed=False)
    return server


def run_cold(ctx: Context) -> None:
    server: Optional[Server] = None
    for _ in range(1 if ctx.quick else COLD_STARTS):
        if server is not None:
            ctx.stop_server(server)
        t0 = time.perf_counter()
        server = _cold_server(ctx)
        ctx.setup_times.append(time.perf_counter() - t0)
    ctx.server_cpu_s = 0.0
    ctx.peak_rss_kb = 0
    ctx.server_spans.clear()
    rng = random.Random(ctx.seed)
    current = [server]

    def restart() -> None:
        # A new round needs an empty cache and a client that has built no
        # model yet, so every query of the round is a first-time query.
        ctx.stop_server(current[0])
        current[0] = _cold_server(ctx)
        _fresh_client()

    def one_round() -> None:
        for model, obligation in cold_round(rng):
            ctx.solve(current[0], model, obligation, "cold", replay=True, timed=True)

    _fresh_client()
    ctx.begin_pass()
    ctx.rounds_pass(one_round, restart)
    ctx.end_pass()
    ctx.stop_server(current[0])


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def solutions_digest(report: Any) -> str:
    masks = sorted(p.mask for p in report.solutions)
    return hashlib.sha256(",".join(format(m, "x") for m in masks).encode()).hexdigest()


def run_sweep(ctx: Context) -> None:
    from repro.certificates import build_model
    from repro.core import solve_si

    rec = ctx.recorder
    if rec is not None:
        _instrument_sweep(rec)
    t0 = time.perf_counter()
    build_model.cache_clear()
    programs = {k: build_model(f"kbp24-f{k}").program for k in SWEEP_SIZES}
    for k in SWEEP_SIZES:
        _checked_solve(ctx, solve_si, programs[k], k, timed=False)
    ctx.setup_times.append(time.perf_counter() - t0)
    rng = random.Random(ctx.seed)

    def one_round() -> None:
        for k in rng.sample(SWEEP_ROUND, len(SWEEP_ROUND)):
            _checked_solve(ctx, solve_si, programs[k], k, timed=True)

    ctx.begin_pass()
    ctx.rounds_pass(one_round)
    ctx.end_pass()
    # High-water marks, not samples: the load generator's own peak plus the
    # largest pool worker's.  A forked worker's figure counts the pages it
    # still shares with the load generator.
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ctx.peak_rss_kb = proc_kb(os.getpid(), "VmHWM") + children
    ctx.server_cpu_s = ctx.record["children_cpu_s"]
    if rec is not None:
        ctx.record["forced"] = _forced_runs(rec, solve_si, programs)


def _checked_solve(ctx: Context, solve_si: Callable, program: Any, k: int,
                   timed: bool) -> None:
    pin = ctx.pinned["sweep"][f"kbp24-f{k}"]
    ctx.attempted += 1
    rec = ctx.recorder
    seq = 0
    if rec is not None and timed:
        seq = rec.seq = len(ctx.requests) + 1
    root = span = None
    t0 = time.perf_counter()
    try:
        if rec is not None:
            root = rec.begin("request", seq=seq)
            span = rec.begin("core.kbp.solve_si", seq=seq)
            try:
                report = solve_si(program)
            finally:
                rec.end(span)
        else:
            report = solve_si(program)
        if report.candidates_checked != pin["candidates_checked"]:
            raise Failure(
                f"f{k}: {report.candidates_checked} candidates checked, pinned "
                f"{pin['candidates_checked']}"
            )
        if solutions_digest(report) != pin["solutions_sha256"]:
            raise Failure(f"f{k}: solution set differs from the pinned one")
    except Failure as exc:
        ctx.fail(str(exc))
        return
    finally:
        t_end = time.perf_counter()
        if root is not None:
            rec.end(root)
    if not timed:
        return
    ctx.samples.append((ctx.window, f"kbp24-f{k}", t_end - t0))
    if rec is not None:
        dispatch = report.dispatch
        log = report.fault_log
        ctx.requests.append({
            "seq": seq, "size": k, "t0": t0, "end": t_end, "root": root["id"],
            "solve": span["id"],
            "candidates": report.candidates_checked,
            "dispatch": dispatch is not None,
            "bytes_per_shard": dispatch.bytes_per_shard if dispatch else 0.0,
            "arena_bytes": dispatch.arena_bytes if dispatch else 0,
            "incidents": len(log.incidents) if log is not None else 0,
        })


def _instrument_sweep(rec: Recorder) -> None:
    import repro.core.parallel as parallel
    from repro.robustness import ShardJournal, ShardSupervisor

    rec.wrap(parallel, "solve_si_parallel", "core.parallel.solve_si_parallel")
    rec.wrap(parallel, "compile_phi_plan", "core.parallel.compile_phi_plan")
    rec.wrap(ShardSupervisor, "run", "robustness.supervisor.run")
    rec.wrap(ShardJournal, "append", "robustness.checkpoint.append")


def _forced_runs(rec: Recorder, solve_si: Callable, programs: Dict[int, Any]) -> Dict[str, Any]:
    """Time each size on the batched in-process route, timing ``batch_phi``."""
    from repro.predicates import get_backend

    backend_cls = type(get_backend("numpy"))
    rec.wrap(backend_cls, "batch_phi", "predicates.batch.batch_phi")
    forced: Dict[str, float] = {}
    rec.seq = 0
    for k in SWEEP_SIZES:
        times = []
        for _ in range(3 if k <= 16 else 1):
            t0 = time.perf_counter()
            solve_si(programs[k], parallel="force", workers=1)
            times.append(time.perf_counter() - t0)
        forced[f"f{k}"] = statistics.median(times)
    return forced
