"""Knowledge as a service: hot-cache vs cold-solve query throughput.

The claim behind DESIGN.md §13's content-addressed store: a repeated
query costs O(artifact bytes) — a raw-bytes sha256 and a socket write —
not O(candidate sweep).  Measured end to end through a real server
subprocess and the JSONL client: one cold query of ``kbp24-f14`` (2^14
candidates, certified), then a burst of hot queries for the same key.

Asserted full-size: the hot path serves the *byte-identical* artifact at
≥50× the cold rate, with zero solver progress ticks.  Set
``SERVICE_BENCH_QUICK=1`` for CI smoke runs (2^8 candidates; byte
identity and cache discipline still asserted, the 50× floor only
full-size where the sweep dominates startup noise).

Results append to ``BENCH_service.json``.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service.client import ServiceClient

from .conftest import append_trajectory, once, record

_SRC = str(Path(__file__).resolve().parent.parent / "src")

_QUICK = os.environ.get("SERVICE_BENCH_QUICK") == "1"
#: 2^14 candidates full-size (the acceptance scale), 2^8 quick.
_MODEL = "kbp24-f8" if _QUICK else "kbp24-f14"
_HOT_QUERIES = 5
_SPEEDUP_FLOOR = 50.0


class _Server:
    """A service subprocess on a throwaway cache dir."""

    def __init__(self, tmp_path: Path):
        self.port_file = tmp_path / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.server",
             "--cache-dir", str(tmp_path / "cache"),
             "--port-file", str(self.port_file)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30
        while not (self.port_file.exists() and self.port_file.read_text().strip()):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("service did not come up")
            time.sleep(0.02)
        self.port = int(self.port_file.read_text().strip())

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()


def test_hot_vs_cold_queries(benchmark, tmp_path):
    server = _Server(tmp_path)
    try:
        def run():
            with ServiceClient(port=server.port, timeout=1200.0) as client:
                start = time.perf_counter()
                cold = client.solve(_MODEL)
                cold_s = time.perf_counter() - start
                hots = []
                start = time.perf_counter()
                for _ in range(_HOT_QUERIES):
                    hots.append(client.solve(_MODEL))
                hot_s = (time.perf_counter() - start) / _HOT_QUERIES
            return cold, cold_s, hots, hot_s

        cold, cold_s, hots, hot_s = once(benchmark, run)
    finally:
        server.stop()

    assert cold.cache == "cold" and cold.progress_events > 0
    for hot in hots:
        # The acceptance triple: a hit, byte-identical, no solver ticks.
        assert hot.cache == "hit"
        assert hot.data == cold.data
        assert hot.progress_events == 0
    speedup = cold_s / hot_s
    if not _QUICK:
        assert speedup >= _SPEEDUP_FLOOR, (
            f"hot queries only {speedup:.1f}x faster than cold on {_MODEL} "
            f"(floor {_SPEEDUP_FLOOR:.0f}x)"
        )
    record(
        benchmark,
        model=_MODEL,
        quick=_QUICK,
        artifact_bytes=len(cold.data),
        cold_s=round(cold_s, 4),
        hot_s=round(hot_s, 5),
        hot_qps=round(1.0 / hot_s, 1),
        cold_qps=round(1.0 / cold_s, 3),
        speedup=round(speedup, 1),
    )
    _write_trajectory(
        model=_MODEL,
        quick=_QUICK,
        artifact_bytes=len(cold.data),
        cold_s=round(cold_s, 4),
        hot_s=round(hot_s, 5),
        speedup=round(speedup, 1),
    )


def _write_trajectory(**results) -> None:
    entry = {
        "bench": "service",
        "timestamp": round(time.time()),
        **results,
    }
    append_trajectory("BENCH_service.json", entry)
