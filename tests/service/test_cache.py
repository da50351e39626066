"""Cache correctness: byte-identity, tamper eviction, dedup, single-flight."""

from __future__ import annotations

import hashlib
import threading

import pytest

from repro.service import CertificateCache, SolveQueue


@pytest.fixture
def cache(tmp_path):
    return CertificateCache(tmp_path / "cache")


KEY = "a" * 64
OTHER = "b" * 64
DATA = b'{"format": "x"}\n'


class TestCacheRoundTrip:
    def test_put_get_byte_identical(self, cache):
        digest = cache.put(KEY, DATA)
        assert cache.get(KEY)[0] == DATA
        assert cache.object_path(digest).read_bytes() == DATA
        assert cache.stats.snapshot()["hits"] == 1

    def test_get_returns_the_verified_digest(self, cache):
        digest = cache.put(KEY, DATA)
        data, got = cache.get(KEY)
        assert data == DATA
        assert got == digest == hashlib.sha256(DATA).hexdigest()

    def test_unknown_key_is_a_miss(self, cache):
        assert cache.get(KEY) is None
        assert cache.stats.snapshot() == {
            "hits": 0, "misses": 1, "puts": 0, "deduped_puts": 0,
            "evictions": 0, "lru_evictions": 0,
        }

    def test_journal_paths_are_per_key(self, cache):
        assert cache.journal_path(KEY) != cache.journal_path(OTHER)
        assert cache.journal_path(KEY).parent == cache.journals_dir


class TestTamperEviction:
    def test_flipped_byte_evicts_and_misses(self, cache):
        digest = cache.put(KEY, DATA)
        path = cache.object_path(digest)
        path.write_bytes(DATA.replace(b"x", b"y"))
        assert cache.get(KEY) is None
        # Both the object and the reference are gone; the next get is a
        # plain miss, never the tampered bytes.
        assert not path.exists()
        assert not cache.key_path(KEY).exists()
        assert cache.stats.snapshot()["evictions"] == 1

    def test_truncated_object_evicts(self, cache):
        digest = cache.put(KEY, DATA)
        cache.object_path(digest).write_bytes(DATA[:4])
        assert cache.get(KEY) is None
        assert cache.stats.snapshot()["evictions"] == 1

    def test_missing_object_evicts_the_reference(self, cache):
        digest = cache.put(KEY, DATA)
        cache.object_path(digest).unlink()
        assert cache.get(KEY) is None
        assert not cache.key_path(KEY).exists()

    def test_resolve_after_eviction_serves_fresh_bytes(self, cache):
        digest = cache.put(KEY, DATA)
        cache.object_path(digest).write_bytes(b"garbage")
        assert cache.get(KEY) is None
        cache.put(KEY, DATA)  # the re-solve
        assert cache.get(KEY)[0] == DATA


class TestDedup:
    def test_identical_bytes_share_one_object(self, cache):
        first = cache.put(KEY, DATA)
        second = cache.put(OTHER, DATA)
        assert first == second
        objects = list(cache.objects_dir.glob("*.cert.json"))
        assert len(objects) == 1
        assert cache.stats.snapshot()["deduped_puts"] == 1
        assert cache.get(KEY)[0] == cache.get(OTHER)[0] == DATA


def _payload(tag: str, size: int = 100) -> bytes:
    return (tag * size)[:size].encode("ascii")


def _age(cache, key, seconds_ago):
    """Pin a key file's recency record to a deterministic past instant."""
    import os
    import time

    stamp = time.time() - seconds_ago
    os.utime(cache.key_path(key), (stamp, stamp))


class TestBoundedCache:
    K1, K2, K3 = "1" * 64, "2" * 64, "3" * 64

    def test_unbounded_by_default(self, cache):
        assert cache.max_bytes is None
        for i in range(20):
            cache.put(f"{i:064d}", _payload(str(i)))
        assert cache.stats.snapshot()["lru_evictions"] == 0

    def test_env_var_sets_the_budget(self, tmp_path, monkeypatch):
        from repro.service.cache import CACHE_MAX_BYTES_ENV_VAR

        monkeypatch.setenv(CACHE_MAX_BYTES_ENV_VAR, "1234")
        assert CertificateCache(tmp_path / "c").max_bytes == 1234
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV_VAR, "lots")
        with pytest.raises(ValueError):
            CertificateCache(tmp_path / "c2")

    def test_least_recently_used_reference_goes_first(self, tmp_path):
        cache = CertificateCache(tmp_path / "c", max_bytes=250)
        cache.put(self.K1, _payload("a"))
        _age(cache, self.K1, 30)
        cache.put(self.K2, _payload("b"))
        _age(cache, self.K2, 20)
        cache.put(self.K3, _payload("c"))  # 300 bytes total > 250
        assert cache.get(self.K1) is None  # oldest retired
        assert cache.get(self.K2)[0] == _payload("b")
        assert cache.get(self.K3)[0] == _payload("c")
        assert cache.stats.snapshot()["lru_evictions"] == 1
        assert cache.object_bytes() <= 250

    def test_a_hit_refreshes_recency(self, tmp_path):
        cache = CertificateCache(tmp_path / "c", max_bytes=250)
        cache.put(self.K1, _payload("a"))
        _age(cache, self.K1, 30)
        cache.put(self.K2, _payload("b"))
        _age(cache, self.K2, 20)
        assert cache.get(self.K1)[0] == _payload("a")  # bumps K1 past K2
        cache.put(self.K3, _payload("c"))
        assert cache.get(self.K1)[0] == _payload("a")
        assert cache.get(self.K2) is None

    def test_the_fresh_put_is_never_its_own_victim(self, tmp_path):
        cache = CertificateCache(tmp_path / "c", max_bytes=50)
        cache.put(self.K1, _payload("a"))  # alone over budget
        assert cache.get(self.K1)[0] == _payload("a")
        assert cache.stats.snapshot()["lru_evictions"] == 0

    def test_pinned_keys_are_never_retired(self, tmp_path):
        cache = CertificateCache(tmp_path / "c", max_bytes=250)
        cache.put(self.K1, _payload("a"))
        _age(cache, self.K1, 30)
        cache.pin(self.K1)
        cache.put(self.K2, _payload("b"))
        _age(cache, self.K2, 20)
        cache.put(self.K3, _payload("c"))
        assert cache.get(self.K1)[0] == _payload("a")  # pinned oldest survives
        assert cache.get(self.K2) is None  # next-oldest paid instead
        cache.unpin(self.K1)
        assert self.K1 not in cache._pinned()

    def test_pins_are_refcounted(self, tmp_path):
        cache = CertificateCache(tmp_path / "c", max_bytes=250)
        cache.pin(self.K1)
        cache.pin(self.K1)
        cache.unpin(self.K1)
        assert self.K1 in cache._pinned()
        cache.unpin(self.K1)
        assert self.K1 not in cache._pinned()

    def test_shared_object_survives_a_living_reference(self, tmp_path):
        cache = CertificateCache(tmp_path / "c", max_bytes=150)
        shared = _payload("s")
        digest = cache.put(self.K1, shared)
        _age(cache, self.K1, 30)
        assert cache.put(self.K2, shared) == digest  # dedup: one object
        _age(cache, self.K2, 20)
        cache.pin(self.K2)
        cache.put(self.K3, _payload("c"))  # 200 bytes of objects > 150
        # K1's reference went (freeing nothing — the object is shared),
        # K2 is pinned, K3 is the fresh put: everything evictable is gone
        # and the cache runs over budget rather than touch a pinned key
        # or unlink an object a living reference still needs.
        assert cache.get(self.K1) is None
        assert cache.get(self.K2)[0] == shared
        assert cache.object_path(digest).exists()

    def test_evicting_a_shared_reference_frees_no_bytes_so_lru_continues(
        self, tmp_path
    ):
        cache = CertificateCache(tmp_path / "c", max_bytes=150)
        shared = _payload("s")
        cache.put(self.K1, shared)
        _age(cache, self.K1, 30)
        cache.put(self.K2, shared)
        _age(cache, self.K2, 20)
        cache.put(self.K3, _payload("c"))
        # Retiring K1 alone frees nothing (K2 still holds the object), so
        # the budget walk continues through K2; only then do the shared
        # bytes actually leave disk.
        assert cache.get(self.K1) is None
        assert cache.get(self.K2) is None
        assert cache.get(self.K3)[0] == _payload("c")
        assert cache.object_bytes() <= 150

    def test_tamper_eviction_semantics_survive_the_budget(self, tmp_path):
        cache = CertificateCache(tmp_path / "c", max_bytes=10_000)
        digest = cache.put(self.K1, _payload("a"))
        cache.object_path(digest).write_bytes(b"garbage")
        assert cache.get(self.K1) is None
        snap = cache.stats.snapshot()
        assert snap["evictions"] == 1 and snap["lru_evictions"] == 0


class TestSingleFlight:
    def test_concurrent_submits_run_the_job_once(self):
        queue = SolveQueue(workers=2)
        release = threading.Event()
        runs = []

        def job(publish):
            runs.append(True)
            publish("tick")
            release.wait(timeout=10)
            return b"result"

        seen_a, seen_b = [], []
        flight_a, leader_a = queue.submit(KEY, job, seen_a.append)
        # The leader's job is now blocked on `release`; a second submit
        # must coalesce instead of starting another run.
        flight_b, leader_b = queue.submit(KEY, job, seen_b.append)
        assert leader_a and not leader_b
        assert flight_a is flight_b
        release.set()
        assert flight_a.future.result(timeout=10) == b"result"
        assert runs == [True]
        assert queue.status()["coalesced"] == 1
        queue.shutdown()

    def test_late_joiner_receives_the_latest_progress(self):
        queue = SolveQueue(workers=1)
        published = threading.Event()
        release = threading.Event()

        def job(publish):
            publish("first")
            publish("second")
            published.set()
            release.wait(timeout=10)
            return b"ok"

        queue.submit(KEY, job)
        assert published.wait(timeout=10)
        late = []
        _, leader = queue.submit(KEY, job, late.append)
        assert not leader
        assert late == ["second"]  # stale ticks are not replayed, only the last
        release.set()
        queue.shutdown()

    def test_flight_closes_before_the_future_resolves(self):
        queue = SolveQueue(workers=1)
        flight, _ = queue.submit(KEY, lambda publish: b"one")
        flight.future.result(timeout=10)
        # A fresh submit after completion opens a fresh flight: the queue
        # caches nothing (that is the CertificateCache's job).
        flight2, leader2 = queue.submit(KEY, lambda publish: b"two")
        assert leader2 and flight2 is not flight
        assert flight2.future.result(timeout=10) == b"two"
        queue.shutdown()

    def test_job_failure_reaches_every_waiter_and_clears(self):
        queue = SolveQueue(workers=1)
        release = threading.Event()

        def bad(publish):
            release.wait(timeout=10)
            raise RuntimeError("solver exploded")

        flight_a, _ = queue.submit(KEY, bad)
        flight_b, leader_b = queue.submit(KEY, bad)
        assert not leader_b and flight_b is flight_a
        release.set()
        with pytest.raises(RuntimeError, match="solver exploded"):
            flight_a.future.result(timeout=10)
        assert queue.status()["in_flight"] == 0
        queue.shutdown()
