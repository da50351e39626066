"""The replayer's trusted base (DESIGN.md §8), pinned by its import graph.

``replay.py`` must re-establish verdicts without the solvers, so it may
import nothing from ``repro.core``, ``repro.transformers``,
``repro.proofs``, ``repro.robustness`` or ``repro.service``.  The check
reads the module's source: a live import's ``sys.modules`` cannot show
it, because ``replay`` imports ``models``, which loads nearly the whole
package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.certificates.replay as replay

FORBIDDEN = (
    "repro.core",
    "repro.transformers",
    "repro.proofs",
    "repro.robustness",
    "repro.service",
)


def _imported_modules(tree: ast.AST, package: str):
    """Absolute names of every module an ``import`` in ``tree`` names,
    relative imports resolved against ``package``, lazy ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_replay_imports_nothing_from_the_solvers():
    source = Path(replay.__file__).read_text(encoding="utf-8")
    modules = set(_imported_modules(ast.parse(source), "repro.certificates"))
    assert "repro.unity.support" in modules  # the resolver is read, not run
    offending = sorted(
        m for m in modules
        if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)
    )
    assert offending == []


def test_the_import_scan_resolves_relative_imports():
    tree = ast.parse(
        "from ..core.kbp import solve_si\n"
        "def lazy():\n"
        "    from .. import proofs\n"
        "    import repro.service.server\n"
    )
    modules = set(_imported_modules(tree, "repro.certificates"))
    assert {"repro.core.kbp", "repro.proofs", "repro.service.server"} <= modules
