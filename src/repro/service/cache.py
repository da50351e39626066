"""The content-addressed certificate cache.

Layout under one root directory::

    keys/<query key>.json        → {"object": "<hex>", ...} reference
    objects/<hex>.cert.json      → raw artifact bytes (hex = sha256(bytes))
    journals/<query key>.journal → in-flight solve checkpoint (cold path)

Two-level addressing separates *naming* from *content*: a query key
(sha256 of the resolved spec — :func:`repro.service.specs.cache_key`)
points at an object named by the sha256 of its exact bytes.  The split
buys three properties the flat layout cannot give:

* **O(bytes) hot hits.**  Serving a hit verifies the object by hashing
  its raw bytes against its own name — ~15 ms for a 4 MB artifact —
  instead of re-canonicalizing the JSON payload (~0.7 s on the same
  artifact, which would cap the hot/cold speedup at ~10×).  Full
  envelope verification stays the *client's* job: the replay loop is the
  trust story, the cache only promises bytes-in = bytes-out.
* **Dedup by construction.**  Identical artifacts reached through
  different query keys (or re-solved after an eviction) share one object
  file; :meth:`CertificateCache.put` never rewrites an object that
  already exists under its digest.
* **Tamper containment.**  A mismatched object is *evicted* — reference
  and object both deleted, the miss re-solves — so a corrupted cache
  degrades to cold performance, never to wrong bytes.

Writes are atomic (same-directory temp file + ``os.replace``) so a
killed server can leave at worst a stale temp file, never a torn
reference; in-flight solve state lives in the ``journals/`` shard
checkpoints, which resume across restarts (PR-4 machinery) and are
removed once their artifact is cached.

**Bounded mode.**  With ``max_bytes`` set (or ``REPRO_CACHE_MAX_BYTES``
in the environment) the cache enforces a size budget over its object
bytes after every put: references are retired least-recently-*used*
first — a hit refreshes its key file's mtime, which is the recency
record, so recency survives restarts — and an object file is unlinked
only when its last reference goes (dedup means one object can serve
many keys).  Keys *pinned* by an in-flight solve (the server pins for
the duration of its single-flight) are never retired, so a leader's
freshly ``put`` artifact cannot be evicted before its followers read
it.  Budget evictions count separately (``lru_evictions``) from
integrity evictions, which keep their semantics untouched.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

_KEY_SUFFIX = ".json"
_OBJECT_SUFFIX = ".cert.json"

#: Environment knob for the cache size budget (bytes of object storage).
CACHE_MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"


@dataclass
class CacheStats:
    """Counters a server exposes through its ``status`` op."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    deduped_puts: int = 0
    evictions: int = 0
    lru_evictions: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def snapshot(self) -> Dict[str, int]:
        with self.lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "deduped_puts": self.deduped_puts,
                "evictions": self.evictions,
                "lru_evictions": self.lru_evictions,
            }

    def bump(self, name: str) -> None:
        with self.lock:
            setattr(self, name, getattr(self, name) + 1)


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class CertificateCache:
    """Content-addressed artifact storage with eviction on mismatch."""

    def __init__(
        self, root: Union[str, Path], max_bytes: Optional[int] = None
    ):
        self.root = Path(root)
        self.keys_dir = self.root / "keys"
        self.objects_dir = self.root / "objects"
        self.journals_dir = self.root / "journals"
        for directory in (self.keys_dir, self.objects_dir, self.journals_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        if max_bytes is None:
            raw = os.environ.get(CACHE_MAX_BYTES_ENV_VAR)
            if raw:
                try:
                    max_bytes = int(raw)
                except ValueError:
                    raise ValueError(
                        f"{CACHE_MAX_BYTES_ENV_VAR}={raw!r} is not a byte count"
                    ) from None
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self._pins: Dict[str, int] = {}
        self._pin_lock = threading.Lock()

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def key_path(self, key: str) -> Path:
        return self.keys_dir / f"{key}{_KEY_SUFFIX}"

    def object_path(self, digest: str) -> Path:
        return self.objects_dir / f"{digest}{_OBJECT_SUFFIX}"

    def journal_path(self, key: str) -> Path:
        """Where the cold path checkpoints its solve for this key."""
        return self.journals_dir / f"{key}.journal"

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Tuple[bytes, str]]:
        """The cached artifact bytes and their sha256, verified — or ``None``.

        The verification is sha256 over the object's raw bytes against
        its content address, which is the digest returned (the server
        frames the artifact with it instead of hashing it again).  Any
        mismatch — bit rot, manual edit, a truncated object — evicts both
        the object and the reference and reports a miss, so the caller
        re-solves; a tampered cache can cost time, never correctness.
        """
        ref = self._read_ref(key)
        if ref is None:
            self.stats.bump("misses")
            return None
        digest = ref.get("object")
        path = self.object_path(digest) if isinstance(digest, str) else None
        if path is None or not path.exists():
            self._evict(key, ref)
            self.stats.bump("misses")
            return None
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            self._evict(key, ref)
            self.stats.bump("misses")
            return None
        self.stats.bump("hits")
        self._touch(key)
        return data, digest

    def _touch(self, key: str) -> None:
        """Refresh a key's recency record (its reference file mtime)."""
        try:
            os.utime(self.key_path(key))
        except OSError:  # pragma: no cover - racing an eviction is a miss later
            pass

    # ------------------------------------------------------------------
    # pinning (in-flight protection)
    # ------------------------------------------------------------------

    def pin(self, key: str) -> None:
        """Exempt a key from budget eviction while a solve is in flight.

        Refcounted: the single-flight leader and every follower pin the
        same key, and it stays pinned until the last one unpins.
        """
        with self._pin_lock:
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: str) -> None:
        with self._pin_lock:
            count = self._pins.get(key, 0) - 1
            if count > 0:
                self._pins[key] = count
            else:
                self._pins.pop(key, None)

    def _pinned(self) -> set:
        with self._pin_lock:
            return set(self._pins)

    def _read_ref(self, key: str) -> Optional[Dict[str, Any]]:
        path = self.key_path(key)
        try:
            doc = json.loads(path.read_text(encoding="ascii"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        return doc if isinstance(doc, dict) else None

    def _evict(self, key: str, ref: Dict[str, Any]) -> None:
        self.stats.bump("evictions")
        digest = ref.get("object")
        if isinstance(digest, str):
            try:
                self.object_path(digest).unlink()
            except OSError:
                pass
        try:
            self.key_path(key).unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # the cold path
    # ------------------------------------------------------------------

    def put(self, key: str, data: bytes, meta: Optional[Dict[str, Any]] = None) -> str:
        """Store artifact bytes under a query key; returns the object digest.

        The object write is skipped when its digest already exists
        (dedup); the reference write is atomic, so readers see either the
        old complete reference or the new one.
        """
        digest = hashlib.sha256(data).hexdigest()
        obj = self.object_path(digest)
        if obj.exists():
            self.stats.bump("deduped_puts")
        else:
            _atomic_write(obj, data)
        ref = {"object": digest, "bytes": len(data)}
        if meta:
            ref.update(meta)
        _atomic_write(
            self.key_path(key),
            (json.dumps(ref, sort_keys=True) + "\n").encode("ascii"),
        )
        self.stats.bump("puts")
        self._enforce_budget(exclude={key})
        return digest

    # ------------------------------------------------------------------
    # the size budget
    # ------------------------------------------------------------------

    def object_bytes(self) -> int:
        """Total bytes of object storage currently on disk."""
        total = 0
        for path in self.objects_dir.glob(f"*{_OBJECT_SUFFIX}"):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def _enforce_budget(self, exclude: Optional[set] = None) -> None:
        """Retire least-recently-used references until under ``max_bytes``.

        ``exclude`` keys (the one just put) and pinned keys are never
        retired; an object file goes only with its *last* reference.  If
        everything over budget is pinned or excluded the cache simply
        runs over budget — correctness beats the bound.
        """
        if self.max_bytes is None:
            return
        protected = self._pinned() | (exclude or set())
        refs = []  # (mtime, key, digest)
        ref_count: Dict[str, int] = {}
        for path in self.keys_dir.glob(f"*{_KEY_SUFFIX}"):
            key = path.name[: -len(_KEY_SUFFIX)]
            ref = self._read_ref(key)
            digest = ref.get("object") if ref else None
            if not isinstance(digest, str):
                continue
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            ref_count[digest] = ref_count.get(digest, 0) + 1
            refs.append((mtime, key, digest))
        sizes: Dict[str, int] = {}
        for digest in ref_count:
            try:
                sizes[digest] = self.object_path(digest).stat().st_size
            except OSError:
                sizes[digest] = 0
        total = sum(sizes.values())
        if total <= self.max_bytes:
            return
        refs.sort()  # oldest mtime first = least recently used
        for _, key, digest in refs:
            if total <= self.max_bytes:
                break
            if key in protected:
                continue
            try:
                self.key_path(key).unlink()
            except OSError:
                continue
            self.stats.bump("lru_evictions")
            ref_count[digest] -= 1
            if ref_count[digest] == 0:
                try:
                    self.object_path(digest).unlink()
                except OSError:
                    pass
                total -= sizes.get(digest, 0)

    def clear_journal(self, key: str) -> None:
        """Drop a key's solve checkpoint (called once its artifact cached)."""
        try:
            self.journal_path(key).unlink()
        except OSError:
            pass
