"""The append-only shard-completion journal behind checkpoint/resume.

:class:`ShardJournal` writes and resumes the sha256-chained JSONL format
that :mod:`repro.certificates.journal` defines and verifies: one
canonical-JSON record per line, a header pinning the program digest and
the exact shard layout, and a torn final line discarded on load while
any earlier damage raises :class:`JournalError`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..certificates.canonical import canonical_dumps
from ..certificates.journal import (
    JOURNAL_FORMAT,
    JournalError,
    ShardRecord,
    _chain_digest,
    _load_records,
    verify_journal,
)

__all__ = [
    "JOURNAL_FORMAT",
    "JournalError",
    "ShardJournal",
    "ShardRecord",
    "verify_journal",
]


class ShardJournal:
    """Appendable, resumable journal of one solve's shard completions.

    ``record_cls`` makes the journal reusable beyond solver shards (the
    soak harness journals its cells through the same chain format): any
    class with ``index``, ``body()`` and ``from_body()`` in
    :class:`ShardRecord`'s shape plugs in.
    """

    def __init__(self, path: Union[str, Path], record_cls: type = ShardRecord):
        self.path = Path(path)
        self.record_cls = record_cls
        self._chain = ""
        self._header: Optional[Dict[str, Any]] = None
        self._count = 0
        #: set by the fault plan to tear the next append mid-write
        self.tear_next = False

    # ------------------------------------------------------------------
    # open / resume
    # ------------------------------------------------------------------

    def open(self, header: Dict[str, Any]) -> Dict[int, Any]:
        """Start (or resume) a journal for the solve described by ``header``.

        Returns the already-completed shards, empty for a fresh journal.
        A journal written for any *different* solve — another program,
        init, shard layout, batch size, or certificate mode — raises
        :class:`JournalError` instead of silently mixing results.
        """
        header = {"format": JOURNAL_FORMAT, **header}
        if self.path.exists() and self.path.stat().st_size > 0:
            recorded, records = _load_records(self.path)
            if recorded != header:
                raise JournalError(
                    f"journal {self.path} was written for a different solve "
                    "(program, shard layout, or solver options differ); "
                    "refusing to resume from it"
                )
            self._header = recorded
            self._chain = _chain_digest("", recorded)
            completed: Dict[int, Any] = {}
            for body in records:
                record = self.record_cls.from_body(body)
                if record.index in completed:
                    raise JournalError(
                        f"journal records shard {record.index} twice"
                    )
                completed[record.index] = record
                self._chain = _chain_digest(self._chain, body)
                self._count += 1
            return completed
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._header = header
        self._chain = _chain_digest("", header)
        self._write_line(header, self._chain)
        # The header line is fsynced, but the *directory entry* for a fresh
        # journal file is not until its parent is — a crash right here could
        # otherwise lose the whole file while the solve believes it is
        # journaling.
        self._fsync_parent()
        return {}

    def _fsync_parent(self) -> None:
        try:
            fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # append
    # ------------------------------------------------------------------

    def append(self, record: Any) -> int:
        """Journal one completed shard; returns the completion count.

        When the fault plan armed :attr:`tear_next`, only half the line is
        written (no newline) and :class:`SimulatedKill` is raised — the
        exact artifact a mid-write crash leaves on disk.
        """
        if self._header is None:
            raise JournalError("journal is not open")
        body = record.body()
        self._chain = _chain_digest(self._chain, body)
        if self.tear_next:
            from .faults import SimulatedKill

            line = self._encode_line(body, self._chain)
            with open(self.path, "a", encoding="ascii") as handle:
                handle.write(line[: max(1, len(line) // 2)])
                handle.flush()
                os.fsync(handle.fileno())
            raise SimulatedKill(
                f"fault plan tore the journal record for shard {record.index}"
            )
        self._write_line(body, self._chain)
        self._count += 1
        return self._count

    def _encode_line(self, body: Dict[str, Any], chain: str) -> str:
        return canonical_dumps({**body, "chain": chain}) + "\n"

    def _write_line(self, body: Dict[str, Any], chain: str) -> None:
        with open(self.path, "a", encoding="ascii") as handle:
            handle.write(self._encode_line(body, chain))
            handle.flush()
            os.fsync(handle.fileno())
