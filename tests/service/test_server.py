"""The served-verdict loop end to end, against a real server subprocess.

These are the PR's acceptance scenarios: hot hits byte-identical to cold
solves without touching the solver, tampered cache entries evicted and
re-solved (never served), concurrent identical queries coalesced onto
one solve, and a SIGKILLed server resuming mid-solve from its shard
journal with a byte-identical final certificate.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading

import pytest

from repro.certificates.replay import replay_artifact
from repro.certificates.store import loads
from repro.service import QuerySpec, ServiceError, solve_query
from repro.service.cache import CertificateCache
from repro.service.client import ServiceClient
from repro.service.specs import cache_key

#: 2^8 candidates: sharded into 8 journaled shards, still sub-second.
MODEL = "kbp24-f8"


def solve(server, model=MODEL, **kwargs):
    with ServiceClient(port=server.port) as client:
        return client.solve(model, **kwargs)


class TestHotAndCold:
    def test_hit_is_byte_identical_and_skips_the_solver(self, server):
        cold = solve(server)
        hot = solve(server)
        assert cold.cache == "cold"
        assert hot.cache == "hit"
        assert hot.data == cold.data
        assert hot.digest == cold.digest
        # No solver run ⇒ no shard ticks on the hot path.
        assert cold.progress_events > 0
        assert hot.progress_events == 0

    def test_cold_progress_is_journal_ordered_and_complete(self, server):
        ticks = []
        with ServiceClient(port=server.port) as client:
            client.solve(MODEL, on_progress=ticks.append)
        assert [t["kind"] for t in ticks] == ["shard-completed"] * 8
        assert [t["shards_completed"] for t in ticks] == list(range(1, 9))
        assert ticks[-1]["candidates_checked"] == 256

    def test_served_artifact_replays_locally(self, server):
        result = solve(server)
        outcome = replay_artifact(loads(result.text))
        assert outcome.verdict == "well-posed"

    def test_hot_artifact_matches_a_local_solve(self, server):
        """The cache serves exactly what a direct in-process solve emits."""
        reference = solve_query(QuerySpec(model=MODEL, obligation="si-solve"))
        assert solve(server).text == reference
        assert solve(server).text == reference  # and again from the cache

    def test_distinct_queries_get_distinct_entries(self, server):
        a = solve(server, model="kbp24-f4")
        b = solve(server, model="kbp24-f5")
        assert a.key != b.key
        assert a.data != b.data

    def test_errors_are_events_not_disconnects(self, server):
        with ServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError, match="unknown model key"):
                client.solve("no-such-model")
            # The connection survives the error; the next op works.
            assert client.ping()["event"] == "pong"


def wire_line(doc) -> bytes:
    """An event exactly as the documented wire carries it."""
    return (json.dumps(doc, sort_keys=True) + "\n").encode("ascii")


class TestWire:
    """The raw bytes a server sends, which other clients parse directly
    (one sorted-key JSON line per event, the artifact's bytes after its
    header line)."""

    PROGRESS_FIELDS = {
        "event", "kind", "shard_index", "shards_completed", "shards_total",
        "candidates_checked", "candidates_resumed",
    }

    def _solve(self, sock, rfile, spec):
        sock.sendall(wire_line({"op": "solve", "model": spec.model,
                                "obligation": spec.obligation}))
        accepted = rfile.readline()
        progress = []
        line = rfile.readline()
        while json.loads(line)["event"] == "progress":
            progress.append(line)
            line = rfile.readline()
        header = json.loads(line)
        return accepted, progress, line, rfile.read(header["bytes"])

    def test_event_lines_are_sorted_json_lines(self, server):
        spec = QuerySpec(model=MODEL, obligation="si-solve")
        reference = solve_query(spec).encode("ascii")
        digest = hashlib.sha256(reference).hexdigest()
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.settimeout(120)
            rfile = sock.makefile("rb")
            sock.sendall(b'{"op": "ping"}\n')
            assert rfile.readline() == wire_line(
                {"event": "pong", "protocol": "repro-service/1"}
            )
            for cache in ("cold", "hit"):
                accepted, progress, artifact, data = self._solve(
                    sock, rfile, spec
                )
                assert accepted == wire_line(
                    {"event": "accepted", "key": cache_key(spec),
                     "query": spec.describe()}
                )
                assert len(progress) == (8 if cache == "cold" else 0)
                for line in progress:
                    doc = json.loads(line)
                    assert line == wire_line(doc)
                    assert set(doc) == self.PROGRESS_FIELDS
                assert artifact == wire_line(
                    {"bytes": len(reference), "cache": cache,
                     "digest": digest, "event": "artifact"}
                )
                assert data == reference
            rfile.close()


class TestTamperedCache:
    def test_tampered_entry_is_evicted_and_resolved(self, server):
        cold = solve(server)
        # Corrupt the cached object on disk behind the server's back.
        cache = CertificateCache(server.cache_dir)
        path = cache.object_path(cold.digest)
        original = path.read_bytes()
        flipped = bytes([original[0] ^ 0x01]) + original[1:]
        path.write_bytes(flipped)
        again = solve(server)
        # Never the tampered bytes: the entry was evicted, the query
        # re-solved, and the fresh artifact served (and re-cached).
        assert again.cache == "cold"
        assert again.data == cold.data
        assert solve(server).cache == "hit"

    def test_deleted_object_is_resolved(self, server):
        cold = solve(server)
        CertificateCache(server.cache_dir).object_path(cold.digest).unlink()
        again = solve(server)
        assert again.cache == "cold"
        assert again.data == cold.data


class TestSingleFlight:
    def test_concurrent_identical_queries_run_one_solve(self, server):
        results = [None, None]
        barrier = threading.Barrier(2)

        def query(slot):
            barrier.wait()
            results[slot] = solve(server, model="kbp24-f11")

        threads = [
            threading.Thread(target=query, args=(slot,)) for slot in (0, 1)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        a, b = results
        assert a is not None and b is not None
        assert {a.cache, b.cache} == {"cold", "coalesced"}
        assert a.data == b.data
        with ServiceClient(port=server.port) as client:
            status = client.status()
        # Exactly one solve: one put, one coalesced follower.
        assert status["cache"]["puts"] == 1
        assert status["queue"]["coalesced"] == 1


class TestKillAndResume:
    def test_sigkilled_solve_resumes_from_the_journal(self, server):
        """Kill the server (SIGKILL) mid-solve; a restart on the same cache
        dir resumes from the shard journal and the final certificate is
        byte-identical to an uninterrupted solve."""
        model = "kbp24-f12"  # 8 shards x 512 candidates ≈ 0.2 s per shard
        seen = threading.Event()

        def on_progress(event):
            if event["shards_completed"] >= 2:
                seen.set()

        def killer():
            assert seen.wait(timeout=60)
            server.kill()

        thread = threading.Thread(target=killer)
        thread.start()
        with pytest.raises(ServiceError):
            with ServiceClient(port=server.port) as client:
                client.solve(model, on_progress=on_progress)
        thread.join(timeout=60)

        # The journal survived the kill with at least the acked shards.
        journals = list((server.cache_dir / "journals").glob("*.journal"))
        assert len(journals) == 1

        server.start()
        ticks = []
        with ServiceClient(port=server.port) as client:
            resumed = client.solve(model, on_progress=ticks.append)
        assert resumed.cache == "cold"
        # The first tick is the resume batch: completed shards came from
        # disk, not from re-running the solver.
        assert ticks[0]["kind"] == "resume"
        assert ticks[0]["shards_completed"] >= 2
        assert ticks[0]["candidates_resumed"] == ticks[0]["candidates_checked"]
        assert all(t["kind"] == "shard-completed" for t in ticks[1:])

        reference = solve_query(QuerySpec(model=model, obligation="si-solve"))
        assert resumed.text == reference
        # The journal is cleared once the artifact is cached, and the
        # next query is a pure cache hit.
        assert not journals[0].exists()
        assert solve(server, model=model).cache == "hit"
