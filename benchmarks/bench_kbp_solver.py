"""E7 — eq. (25): SI-solver ablation on random knowledge-based protocols.

Exhaustive search (complete) vs Φ-iteration (sound, incomplete): how often
random KBPs have 0 / 1 / many solutions, and how often the cheap iteration
finds one.  This quantifies section 4's qualitative message: ill-posedness
is not an exotic corner case.

The parallel-speedup bench measures the sharded, batched solver
(repro.core.parallel) against the serial sweep on a 24-state random KBP,
asserts result identity (report and certificate digests), and appends a
trajectory entry to ``BENCH_kbp_solver.json``.  Its headline
``parallel_speedup`` (serial sweep over an 8-worker pool) mixes two
gains, so the entry also splits it: ``batching_speedup`` (serial sweep
over the batched in-process sweep) and ``process_speedup`` (the batched
in-process sweep over a ``default_workers()`` pool, ``pool_workers``
wide), with the host's ``cpus`` and each ratio's baseline named in
``baselines``.  The certified sweep records its cost as ratios on one
program: ``certified_overhead`` (default certified over default
uncertified ``solve_si``) and ``certified_batching_speedup`` (the
certified per-candidate walk over the default certified solve).  Set
``KBP_SOLVER_BENCH_QUICK=1`` to shrink the candidate count for CI smoke
runs (the speedup floor is only asserted on the full-size run).
"""

import os
import random
import time
from pathlib import Path

from repro.core import solve_si, solve_si_iterative, solve_si_parallel
from repro.core.parallel import default_workers
from repro.predicates import Predicate
from repro.statespace import BoolDomain, IntRangeDomain, space_of
from repro.unity import Program, Statement, Unary, Var, const, knows, lnot, var

from .conftest import append_trajectory, once, record

_RESULTS: dict = {}

_QUICK = os.environ.get("KBP_SOLVER_BENCH_QUICK") == "1"
#: Free state-bits of the speedup sweep: 2^14 candidates full, 2^10 quick.
_SPEEDUP_FREE_BITS = 10 if _QUICK else 14
#: Free state-bits of the certified sweeps: the digest identity and the
#: certified-cost ratios (the per-candidate walk stays the slow arm).
_CERT_FREE_BITS = 6 if _QUICK else 11
_SPEEDUP_FLOOR = 3.0


def _random_kbp(rng: random.Random) -> Program:
    """A random 2–3 statement KBP over three Booleans with K-guards."""
    space = space_of(a=BoolDomain(), b=BoolDomain(), c=BoolDomain())
    names = list(space.names)
    views = {"P": ["a"], "Q": ["b", "c"]}
    statements = []
    for k in range(rng.randint(2, 3)):
        target = rng.choice(names)
        rhs = const(rng.random() < 0.5)
        process = rng.choice(list(views))
        fact_var = rng.choice(names)
        fact = Var(fact_var) if rng.random() < 0.5 else Unary("not", Var(fact_var))
        guard = knows(process, fact)
        if rng.random() < 0.3:
            guard = lnot(guard)
        statements.append(
            Statement(name=f"s{k}", targets=(target,), exprs=(rhs,), guard=guard)
        )
    init = Predicate(space, 1 << rng.randrange(space.size))
    return Program(space, init, statements, processes=views, name="random-kbp")


def test_solver_ablation(benchmark):
    rng = random.Random(1991)
    programs = [_random_kbp(rng) for _ in range(40)]

    def run():
        outcome = {"none": 0, "unique": 0, "multiple": 0, "iterative_found": 0,
                   "iterative_cycled": 0, "iterative_sound": True}
        for program in programs:
            report = solve_si(program)
            if not report.well_posed:
                outcome["none"] += 1
            elif report.unique:
                outcome["unique"] += 1
            else:
                outcome["multiple"] += 1
            iterative = solve_si_iterative(program)
            if iterative.converged:
                outcome["iterative_found"] += 1
                # Soundness: anything the iteration returns is a real solution.
                if not any(iterative.solution == s for s in report.solutions):
                    outcome["iterative_sound"] = False
            else:
                outcome["iterative_cycled"] += 1
        return outcome

    outcome = once(benchmark, run)
    assert outcome["iterative_sound"]
    assert outcome["none"] > 0, "ill-posed KBPs should occur in a random batch"
    assert outcome["iterative_found"] + outcome["iterative_cycled"] == 40
    record(benchmark, **{k: v for k, v in outcome.items()})


def test_exhaustive_solver_cost_vs_free_states(benchmark):
    """Candidate count doubles per non-initial state — the completeness price."""
    from repro.figures import fig1_program

    program = fig1_program()

    def run():
        return solve_si(program).candidates_checked

    checked = benchmark(run)
    assert checked == 2 ** (program.space.size - program.init.count())
    record(benchmark, candidates=checked)


def _speedup_kbp(rng: random.Random, free_bits: int) -> Program:
    """A 24-state KBP (3 Booleans × a 0..2 counter) with K-bearing guards.

    ``init`` covers all but ``free_bits`` randomly chosen states, so the
    exhaustive sweep examines exactly ``2^free_bits`` candidates; every
    guard shape stays inside the batched solver's postfix vocabulary.
    """
    space = space_of(
        a=BoolDomain(), b=BoolDomain(), c=BoolDomain(), n=IntRangeDomain(0, 2)
    )
    assert space.size == 24
    views = {"P": ["a", "n"], "Q": ["b", "c"]}
    statements = [
        Statement(
            name="s0",
            targets=("a",),
            exprs=(const(True),),
            guard=knows("P", Var("b")),
        ),
        Statement(
            name="s1",
            targets=("b",),
            exprs=(const(False),),
            guard=lnot(knows("Q", Unary("not", Var("c")))),
        ),
        Statement(
            name="s2",
            targets=("n",),
            exprs=(var("n") + const(1),),
            guard=knows("Q", Var("a")) & (var("n") < const(2)),
        ),
    ]
    init_mask = space.full_mask
    for position in rng.sample(range(space.size), free_bits):
        init_mask &= ~(1 << position)
    return Program(
        space,
        Predicate(space, init_mask),
        statements,
        processes=views,
        name="kbp-24",
    )


def test_parallel_solver_speedup(benchmark):
    """The sharded/batched sweep vs serial: identical report, ≥3× faster.

    Also splits the speedup: batching (serial sweep → batched in-process
    sweep) and processes (batched in-process sweep → default-sized pool).
    """
    rng = random.Random(2024)
    program = _speedup_kbp(rng, _SPEEDUP_FREE_BITS)
    pool_workers = default_workers()

    def timed(solve):
        start = time.perf_counter()
        report = solve()
        return report, time.perf_counter() - start

    def run():
        serial, serial_s = timed(lambda: solve_si(program, parallel="never"))
        parallel, parallel_s = timed(
            lambda: solve_si_parallel(program, workers=8)
        )
        in_process, in_process_s = timed(
            lambda: solve_si_parallel(program, workers=1)
        )
        pool, pool_s = timed(
            lambda: solve_si_parallel(program, workers=pool_workers)
        )
        identical = all(
            report.candidates_checked == serial.candidates_checked
            and tuple(p.mask for p in report.solutions)
            == tuple(p.mask for p in serial.solutions)
            for report in (parallel, in_process, pool)
        )
        return serial, serial_s, parallel_s, in_process_s, pool_s, identical

    serial, serial_s, parallel_s, in_process_s, pool_s, identical = once(
        benchmark, run
    )
    assert identical
    speedup = serial_s / parallel_s
    batching = serial_s / in_process_s
    processes = in_process_s / pool_s
    if not _QUICK:
        # Quick CI boxes sweep too few candidates to amortize pool startup;
        # the floor is a full-size claim.
        assert speedup >= _SPEEDUP_FLOOR, (
            f"parallel solver only {speedup:.1f}x over serial "
            f"(floor {_SPEEDUP_FLOOR}x on 2^{_SPEEDUP_FREE_BITS} candidates)"
        )
    _RESULTS["solve_si_identical"] = identical
    _RESULTS["parallel_speedup"] = round(speedup, 1)
    _RESULTS["batching_speedup"] = round(batching, 1)
    _RESULTS["process_speedup"] = round(processes, 2)
    _RESULTS["baselines"] = {
        "parallel_speedup": "serial sweep / 8-worker pool",
        "batching_speedup":
            "serial sweep (one unbatched in-process shard) / "
            "batched in-process sweep",
        "process_speedup":
            f"batched in-process sweep / {pool_workers}-worker pool",
    }
    _RESULTS["cpus"] = os.cpu_count()
    _RESULTS["pool_workers"] = pool_workers
    _RESULTS["free_bits"] = _SPEEDUP_FREE_BITS
    _RESULTS["workers"] = 8
    _RESULTS["quick"] = _QUICK
    record(
        benchmark,
        candidates=serial.candidates_checked,
        serial_s=round(serial_s, 3),
        parallel_s=round(parallel_s, 3),
        in_process_s=round(in_process_s, 3),
        pool_s=round(pool_s, 3),
        parallel_speedup=round(speedup, 1),
        batching_speedup=round(batching, 1),
        process_speedup=round(processes, 2),
        cpus=_RESULTS["cpus"],
        pool_workers=pool_workers,
        solve_si_identical=identical,
    )


def test_zero_copy_dispatch_scaling(benchmark):
    """Speedup vs worker count, plus what dispatch actually ships.

    Bytes-per-shard stays at the descriptor size (two pickled ints) at
    every worker count — the Φ plan travels once, in the pool's initargs
    (``init_bytes``) — and worker peak RSS is sampled through the
    transport; all three land in the trajectory file.
    """
    rng = random.Random(2025)
    program = _speedup_kbp(rng, _SPEEDUP_FREE_BITS)
    worker_counts = [1, 2] if _QUICK else [1, 2, 4, 8]

    def run():
        timings = {}
        reports = {}
        for count in worker_counts:
            start = time.perf_counter()
            reports[count] = solve_si_parallel(
                program, workers=count, collect_stats=True
            )
            timings[count] = time.perf_counter() - start
        return timings, reports

    timings, reports = once(benchmark, run)
    reference = reports[worker_counts[0]]
    for count in worker_counts[1:]:
        assert reports[count].candidates_checked == reference.candidates_checked
        assert tuple(p.mask for p in reports[count].solutions) == tuple(
            p.mask for p in reference.solutions
        )

    multi = reports[max(worker_counts)].dispatch.as_dict()
    assert multi["bytes_per_shard"] < 100, multi
    scaling = {
        str(count): round(timings[count], 3) for count in worker_counts
    }
    speedups = {
        str(count): round(timings[worker_counts[0]] / timings[count], 2)
        for count in worker_counts
    }
    _RESULTS["scaling_seconds"] = scaling
    _RESULTS["scaling_speedup"] = speedups
    _RESULTS["dispatch_bytes_per_shard"] = multi["bytes_per_shard"]
    _RESULTS["peak_worker_rss_kb"] = multi["worker_peak_rss_kb"]
    _RESULTS["init_bytes"] = multi["init_bytes"]
    record(
        benchmark,
        scaling_seconds=scaling,
        scaling_speedup=speedups,
        dispatch_bytes_per_shard=multi["bytes_per_shard"],
        peak_worker_rss_kb=multi["worker_peak_rss_kb"],
        init_bytes=multi["init_bytes"],
    )


def _spawn_worker_daemons(count, scratch: Path):
    """Launch ``count`` localhost worker daemons; returns (procs, addrs)."""
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    procs, addrs = [], []
    for i in range(count):
        port_file = scratch / f"bench-worker-{i}.port"
        if port_file.exists():
            port_file.unlink()
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.worker", "--port-file", str(port_file)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        procs.append(proc)
        deadline = time.monotonic() + 30.0
        while not port_file.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("worker daemon never announced a port")
            time.sleep(0.02)
        addrs.append(f"127.0.0.1:{port_file.read_text().strip()}")
    return procs, addrs


def test_socket_transport_scaling(benchmark, tmp_path):
    """The TCP transport vs the local pool on the same sweep (DESIGN.md §15).

    Two localhost worker daemons against a two-worker local pool: identical
    reports, and the wire accounting (frames, bytes, per-shard payload)
    lands in the trajectory so transport overhead is tracked over time.
    """
    rng = random.Random(2025)
    program = _speedup_kbp(rng, _SPEEDUP_FREE_BITS)

    def run():
        start = time.perf_counter()
        local = solve_si_parallel(program, workers=2, collect_stats=True)
        local_s = time.perf_counter() - start
        procs, addrs = _spawn_worker_daemons(2, tmp_path)
        try:
            start = time.perf_counter()
            remote = solve_si_parallel(program, remote_workers=addrs)
            socket_s = time.perf_counter() - start
        finally:
            for proc in procs:
                proc.kill()
        return local, local_s, remote, socket_s

    local, local_s, remote, socket_s = once(benchmark, run)
    assert tuple(p.mask for p in remote.solutions) == tuple(
        p.mask for p in local.solutions
    )
    assert remote.candidates_checked == local.candidates_checked
    stats = remote.dispatch.as_dict()
    assert stats["transports"] == ["socket"]
    _RESULTS["socket_seconds"] = round(socket_s, 3)
    _RESULTS["socket_vs_local_pool"] = round(socket_s / local_s, 2)
    _RESULTS["socket_frames_sent"] = stats["frames_sent"]
    _RESULTS["socket_net_bytes_sent"] = stats["net_bytes_sent"]
    _RESULTS["socket_net_bytes_received"] = stats["net_bytes_received"]
    record(
        benchmark,
        local_pool_s=round(local_s, 3),
        socket_s=round(socket_s, 3),
        socket_frames_sent=stats["frames_sent"],
        socket_net_bytes_received=stats["net_bytes_received"],
        socket_identical=True,
    )


def test_parallel_certificates_match_serial(benchmark):
    """The batched certified sweep must reproduce the per-candidate
    walk's digests exactly; it also times what certification costs.

    The per-candidate walk is ``parallel="never"``; the batched one is a
    two-worker pool on the kernel.  Medians of three fresh-program solves
    time the default certified ``solve_si`` against the default
    uncertified one and against the certified per-candidate walk.
    """
    from repro.certificates.canonical import canonical_dumps, payload_digest

    def fresh():
        return _speedup_kbp(random.Random(1991), _CERT_FREE_BITS)

    def median_s(solve):
        times = []
        for _ in range(3):
            program = fresh()
            start = time.perf_counter()
            solve(program)
            times.append(time.perf_counter() - start)
        return sorted(times)[1]

    def run():
        program = fresh()
        serial = solve_si(program, emit_certificate=True, parallel="never")
        parallel = solve_si_parallel(program, workers=2, emit_certificate=True)
        serial_payload = serial.certificate.to_payload()
        parallel_payload = parallel.certificate.to_payload()
        timings = {
            "certified_s": median_s(
                lambda p: solve_si(p, emit_certificate=True)
            ),
            "uncertified_s": median_s(solve_si),
            "certified_never_s": median_s(
                lambda p: solve_si(p, emit_certificate=True, parallel="never")
            ),
        }
        return (
            canonical_dumps(serial_payload) == canonical_dumps(parallel_payload),
            payload_digest(serial_payload),
            timings,
        )

    digests_match, digest, timings = once(benchmark, run)
    assert digests_match
    overhead = timings["certified_s"] / timings["uncertified_s"]
    batching = timings["certified_never_s"] / timings["certified_s"]
    _RESULTS["certificate_digests_match"] = digests_match
    _RESULTS["certified_overhead"] = round(overhead, 1)
    _RESULTS["certified_batching_speedup"] = round(batching, 1)
    _RESULTS["certified_free_bits"] = _CERT_FREE_BITS
    _RESULTS.setdefault("baselines", {}).update(
        certified_overhead=(
            "default certified solve_si / default uncertified solve_si"
        ),
        certified_batching_speedup=(
            'certified parallel="never" (per-candidate walk) / '
            "default certified solve_si"
        ),
    )
    record(
        benchmark,
        certificate_digests_match=digests_match,
        digest=digest[:16],
        certified_overhead=round(overhead, 1),
        certified_batching_speedup=round(batching, 1),
        **{k: round(v, 4) for k, v in timings.items()},
    )
    _write_trajectory()


def _write_trajectory() -> None:
    entry = {
        "bench": "kbp_solver",
        "timestamp": round(time.time()),
        "space": 24,
        **_RESULTS,
    }
    append_trajectory("BENCH_kbp_solver.json", entry)
