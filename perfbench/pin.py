"""Regenerate ``pinned.json``: the outputs every benchmark operation must match.

Usage::

    python3 perfbench/pin.py

For each ``hot`` and ``cold`` query it records the artifact's sha256,
size and locally replayed verdict, as served by a fresh server; for each
``sweep`` size, ``candidates_checked`` and a sha256 of the sorted
solution masks from a default ``solve_si``.  Run it only on a commit
whose outputs are known good: every later run is checked against it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH,
    OUT,
    commit,
    require_source,
    scrub_repro_env,
    stop_resource_tracker,
)


def main() -> int:
    require_source()
    scrub_repro_env()
    import workloads
    from repro.certificates import build_model
    from repro.core import solve_si

    workdir = OUT / "work" / "pin"
    shutil.rmtree(workdir, ignore_errors=True)
    ctx = workloads.Context(workload="cold", seed=0, seconds=0, trace=False,
                            pinned={}, workdir=workdir)
    queries = {}
    wanted = [(m, o) for m, o, _w in workloads.HOT] + list(workloads.COLD)
    wanted += list(workloads.COLD_WARMUP)
    server = workloads.Server(ctx)
    try:
        for model, obligation in wanted:
            name = f"{model}|{obligation}"
            if name in queries:
                continue
            reply = server.wire.solve(model, obligation)
            digest = hashlib.sha256(reply.data).hexdigest()
            assert digest == reply.advertised, name
            queries[name] = {
                "sha256": digest,
                "bytes": len(reply.data),
                "verdict": workloads._replay(reply.data),
            }
            print(name, queries[name]["verdict"], len(reply.data), flush=True)
    finally:
        server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    sweep = {}
    for k in workloads.SWEEP_SIZES:
        report = solve_si(build_model(f"kbp24-f{k}").program)
        sweep[f"kbp24-f{k}"] = {
            "candidates_checked": report.candidates_checked,
            "solutions": len(report.solutions),
            "solutions_sha256": workloads.solutions_digest(report),
        }
        print(f"kbp24-f{k}", sweep[f"kbp24-f{k}"], flush=True)
    stop_resource_tracker()
    pinned = {"commit": commit(), "queries": queries, "sweep": sweep}
    with open(BENCH / "pinned.json", "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
