"""Shared helpers for the experiment benchmarks.

Each benchmark regenerates one paper result (DESIGN.md §4).  Besides the
timing, every bench *asserts* the reproduced claim and records the
reproduced numbers in ``benchmark.extra_info`` so they land in the
pytest-benchmark JSON/console output.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

_ROOT = Path(__file__).resolve().parent.parent


def record(benchmark, **facts: Any) -> None:
    """Attach reproduced facts to the benchmark record and echo them."""
    for key, value in facts.items():
        benchmark.extra_info[key] = value
    summary = ", ".join(f"{k}={v}" for k, v in facts.items())
    print(f"\n  [reproduced] {summary}")


def once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, iterations=1, rounds=1)


def append_trajectory(name: str, entry: Dict[str, Any]) -> None:
    """Append ``entry`` to the trajectory file ``name`` at the repo root.

    The file is a JSON list written with indent 2 and a trailing newline.
    A missing or unparseable file starts a new list, and a lone object
    becomes the list's first entry.
    """
    path = _ROOT / name
    try:
        existing = json.loads(path.read_text())
        if not isinstance(existing, list):
            existing = [existing]
    except (FileNotFoundError, json.JSONDecodeError):
        existing = []
    existing.append(entry)
    path.write_text(json.dumps(existing, indent=2) + "\n")
