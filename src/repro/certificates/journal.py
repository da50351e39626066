"""The shard-completion journal format, and its independent verifier.

A journal is a JSONL file: one canonical-JSON record per line, each
carrying a ``chain`` digest that sha256-links it to everything before it::

    {"chain": c0, ...header: format, program digest, shard layout...}
    {"chain": c1, "type": "shard", "index": 3, "solutions": [...], ...}
    {"chain": c2, "type": "shard", "index": 0, ...}

where ``c0 = sha256(canonical(header body))`` and
``c_{n} = sha256(c_{n-1} + canonical(body_n))`` (the ``chain`` key itself
is excluded from the hashed body).  The chain gives the same tamper
evidence as the certificate envelopes: editing or reordering any
journaled shard invalidates every later digest.

Failure semantics on load distinguish the two ways a journal goes bad:

* a **torn tail** — the final line is unparsable or its chain digest does
  not verify — is what a crash mid-append legitimately leaves behind; the
  record is discarded and the resume simply re-sweeps that shard;
* anything wrong **before** the final line (bad JSON, a broken chain link,
  a malformed record) cannot be produced by a crash and raises
  :class:`JournalError` — resuming from a tampered journal would forfeit
  the byte-identical-certificate guarantee.

The header pins the program digest (via ``certificates.canonical``) and
the exact shard layout.  The writer,
:class:`repro.robustness.checkpoint.ShardJournal`, refuses to resume a
solve whose parameters differ in any way from the journaled ones.  The
format and :func:`verify_journal` live here, beside the certificate
replayer that checks journals (``replay --journal``), so that checking
one imports nothing from the solver or its supervisor.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from .canonical import canonical_dumps

#: Journal line format tag; bump on incompatible record changes.
JOURNAL_FORMAT = "repro-shard-journal/v1"


class JournalError(Exception):
    """A journal failed to parse, verify its chain, or match its solve."""


@dataclass(frozen=True)
class ShardRecord:
    """One journaled shard completion."""

    index: int
    fixed_mask: int
    solutions: Tuple[int, ...]
    checked: int
    #: encoded per-candidate evidence ([kind, payload] pairs), certified only
    evidence: Tuple[Any, ...] = ()

    def body(self) -> Dict[str, Any]:
        return {
            "type": "shard",
            "index": self.index,
            "fixed_mask": self.fixed_mask,
            "solutions": list(self.solutions),
            "checked": self.checked,
            "evidence": list(self.evidence),
        }

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "ShardRecord":
        for key in ("index", "fixed_mask", "solutions", "checked"):
            if key not in body:
                raise JournalError(f"shard record missing {key!r}")
        return cls(
            index=body["index"],
            fixed_mask=body["fixed_mask"],
            solutions=tuple(body["solutions"]),
            checked=body["checked"],
            evidence=tuple(body.get("evidence", [])),
        )


def _chain_digest(previous: str, body: Dict[str, Any]) -> str:
    text = previous + canonical_dumps(body)
    return "sha256:" + hashlib.sha256(text.encode("ascii")).hexdigest()


def _parse_line(line: str) -> Tuple[Dict[str, Any], str]:
    """One journal line → (body without chain, recorded chain digest)."""
    record = json.loads(line)
    if not isinstance(record, dict) or "chain" not in record:
        raise ValueError("journal record has no chain digest")
    chain = record.pop("chain")
    return record, chain


def _load_records(
    path: Path,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Parse and chain-verify a journal; returns (header, shard bodies).

    The final line is allowed to be torn (unparsable or chain-broken) and
    is then discarded; any earlier damage raises :class:`JournalError`.
    """
    text = path.read_text(encoding="ascii", errors="replace")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise JournalError(f"journal {path} is empty")

    parsed: List[Tuple[Dict[str, Any], str]] = []
    for position, line in enumerate(lines):
        last = position == len(lines) - 1
        try:
            parsed.append(_parse_line(line))
        except ValueError as exc:
            if last:
                break  # torn tail: discard the partial record
            raise JournalError(
                f"journal {path} is corrupt at line {position + 1}: {exc}"
            ) from None
    if not parsed:
        raise JournalError(f"journal {path} has no intact header line")

    header, header_chain = parsed[0]
    if header.get("format") != JOURNAL_FORMAT:
        raise JournalError(
            f"journal {path} has format {header.get('format')!r}; "
            f"expected {JOURNAL_FORMAT!r}"
        )
    chain = _chain_digest("", header)
    if chain != header_chain:
        raise JournalError(f"journal {path}: header chain digest mismatch")

    bodies: List[Dict[str, Any]] = []
    for position, (body, recorded) in enumerate(parsed[1:], start=1):
        last = position == len(parsed) - 1
        chained = _chain_digest(chain, body)
        if chained != recorded:
            if last:
                break  # torn tail: valid JSON but written over a stale chain
            raise JournalError(
                f"journal {path}: chain digest broken at record {position} — "
                "a journaled shard was edited, reordered, or dropped"
            )
        chain = chained
        bodies.append(body)
    return header, bodies


def verify_journal(path: Union[str, Path]) -> Dict[str, Any]:
    """Independently verify a journal's chain; returns a summary dict.

    Used by ``python -m repro.certificates.replay --journal`` so that the
    evidence toolchain can vouch for resume artifacts, not just final
    certificates.  Raises :class:`JournalError` on any non-tail damage.
    """
    path = Path(path)
    if not path.is_file():
        raise JournalError(f"{path} is not a file")
    header, bodies = _load_records(path)
    records = [ShardRecord.from_body(b) for b in bodies]
    indices = [r.index for r in records]
    if len(set(indices)) != len(indices):
        raise JournalError(f"journal {path} records a shard twice")
    shard_count = header.get("shard_count")
    complete = (
        isinstance(shard_count, int) and len(records) == shard_count
    )
    return {
        "path": str(path),
        "program": header.get("program", {}).get("name"),
        "shards_journaled": len(records),
        "shard_count": shard_count,
        "complete": complete,
        "candidates_checked": sum(r.checked for r in records),
        "solutions": sorted(m for r in records for m in r.solutions),
        "emit_certificate": bool(header.get("emit_certificate")),
    }
