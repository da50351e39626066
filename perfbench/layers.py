"""Per-layer numbers and exact counts from a traced run.

Layer metrics are means per occurrence of the span that bounds the layer
(durations, not self times), counts, or ratios, under the names of
BENCHMARK.json's ``per_layer`` list.  Each request's self times
(``spans.self_times``: a span's duration minus its children's) give
``trace.unattributed_ms``; every request whose self times do not add up
to its latency, or whose spans do not nest, is reported as a problem.

Exact counts are facts a run of the same code must repeat byte for byte
whatever the seed: artifact bytes, route and backend choices, candidates,
journal records, ROBDD node counts and fault incidents.
"""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from common import mean
from spans import self_times

SWEEP_ROUTES = ("serial", "inproc", "pool")
BACKENDS = ("int", "numpy", "robdd")


class Exact(dict):
    """Exact counts; a fact seen twice with two values becomes a conflict."""

    def note(self, name: str, value: Any) -> None:
        if name in self and self[name] != value:
            self[name] = f"conflict: {self[name]!r} vs {value!r}"
        elif name not in self:
            self[name] = value


def _durations(spans: List[Dict[str, Any]], name: str) -> List[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name and s["end"] is not None]


def _note_problems(problems: List[str], request: str, found: List[str]) -> int:
    """Add a request's self-time problems (the first ten in all); count them."""
    for line in found:
        if sum(p.startswith("request ") for p in problems) < 10:
            problems.append(f"request {request}: {line}")
    return len(found)


def service_layers(ctx) -> Tuple[Dict[str, float], Exact, List[str]]:
    """Layers of ``hot`` and ``cold``: client wire steps plus server spans."""
    problems: List[str] = []
    exact = Exact()
    by_request: Dict[Tuple[int, int], List[Dict[str, Any]]] = defaultdict(list)
    for server, spans in ctx.server_spans.items():
        for span in spans:
            by_request[(server, span["seq"])].append(span)
    acc: Dict[str, List[float]] = defaultdict(list)
    counts: Dict[str, float] = defaultdict(float)
    nodes: Dict[Tuple[int, str], int] = {}
    broken = 0
    for r in ctx.requests:
        spans = by_request.get((r["server"], r["seq"]), [])
        keys = {s["attrs"].get("key") for s in spans if s["name"] == "service.specs.cache_key"}
        if keys != {r["key"]}:
            problems.append(f"request {r['server']}/{r['seq']}: server spans carry keys {keys}")
            continue
        acc["accept"].append(r["accept"] - r["t0"])
        acc["transfer"].append(r["body"] - r["header"])
        acc["digest"].append(r["digest"] - r["body"])
        acc["kb"].append(r["bytes"] / 1024)
        exact.note(f"bytes:{r['query']}", r["bytes"])
        if r["replay"]:
            acc["replay"].append(r["end"] - r["digest"])
        acc["resolve"].append(
            sum(_durations(spans, "service.specs.resolve_model"))
            + sum(_durations(spans, "service.specs.cache_key"))
        )
        for s in spans:
            name, attrs = s["name"], s["attrs"]
            duration = s["end"] - s["start"]
            if name == "service.cache.get":
                acc["get"].append(duration)
                counts["lookups"] += 1
                counts["hits"] += bool(attrs.get("hit"))
            elif name == "service.cache.put":
                acc["put"].append(duration)
            elif name == "service.queue.job":
                acc["wait"].append(attrs["wait"])
            elif name == "certificates.models.build_model" and attrs.get("first"):
                acc["build"].append(duration)
            elif name == "core.kbp.solve_si":
                acc["solve"].append(duration)
                counts["candidates"] += attrs.get("candidates", 0)
            elif name == "robustness.supervisor.run":
                acc["supervisor"].append(duration)
                counts["incidents"] += attrs.get("incidents", 0)
            elif name == "robustness.checkpoint.append":
                acc["append"].append(duration)
            elif name == "transformers.sst":
                acc["sst"].append(duration)
                counts["iterations"] += attrs.get("iterations", 0)
            elif name == "service.specs.solve_query" and "backend" in attrs:
                counts[f"choice.{attrs['backend']}"] += 1
                exact.note(f"backend:{r['query']}", attrs["backend"])
                if "nodes" in attrs:
                    acc["nodes"].append(attrs["nodes"])
                    slot = (r["server"], attrs["model"])
                    nodes[slot] = max(nodes.get(slot, 0), attrs["nodes"])
        encode = _durations(spans, "certificates.store.wrap") + _durations(spans, "certificates.store.dumps")
        if encode:
            acc["encode"].append(sum(encode))
        if any(s["name"] == "service.specs.solve_query" for s in spans):
            exact.note(f"journal:{r['query']}", len(_durations(spans, "robustness.checkpoint.append")))
            exact.note(f"candidates:{r['query']}", sum(
                s["attrs"].get("candidates", 0) for s in spans if s["name"] == "core.kbp.solve_si"))
            exact.note(f"sst_iterations:{r['query']}", sum(
                s["attrs"].get("iterations", 0) for s in spans if s["name"] == "transformers.sst"))
        # The client's steps tile the request.  The server works while the
        # client waits for the artifact header, so the server's outermost
        # spans hang under that wait (c0); ``accepted`` arrives within it.
        root = {"id": "root", "parent": None, "name": "request", "start": r["t0"], "end": r["end"]}
        steps = [("service.wire.wait", r["t0"], r["header"]),
                 ("service.wire.transfer", r["header"], r["body"]),
                 ("service.client.digest", r["body"], r["digest"])]
        if r["replay"]:
            steps.append(("certificates.replay.replay", r["digest"], r["end"]))
        client = [{"id": f"c{i}", "parent": "root", "name": n, "start": a, "end": b,
                   "attrs": {}} for i, (n, a, b) in enumerate(steps)]
        times, found = self_times(root, client + spans, hang="c0")
        acc["unattributed"].append(times["unattributed"])
        broken += bool(_note_problems(problems, f"{r['server']}/{r['seq']}", found))
    for (_server, model), count in sorted(nodes.items()):
        exact.note(f"robdd_nodes:{model}", count)
    if counts["incidents"] or ctx.workload == "cold":
        exact.note("fault_incidents", int(counts["incidents"]))
    if broken:
        problems.append(f"{broken} of {len(ctx.requests)} requests fail the self-time checks")
    ms = lambda key: mean(acc[key]) * 1000  # noqa: E731
    total_solve = sum(acc["solve"])
    metrics = {
        "service.wire.accept_ms": ms("accept"),
        "service.wire.transfer_ms": ms("transfer"),
        "service.client.digest_ms": ms("digest"),
        "service.wire.artifact_kb": mean(acc["kb"]),
        "service.specs.resolve_ms": ms("resolve"),
        "service.cache.get_ms": ms("get"),
        "service.cache.hit_ratio": counts["hits"] / counts["lookups"] if counts["lookups"] else 0.0,
        "service.cache.put_ms": ms("put"),
        "service.queue.wait_ms": ms("wait"),
        "certificates.models.build_ms": ms("build"),
        "certificates.store.encode_ms": ms("encode"),
        "certificates.replay.replay_ms": ms("replay"),
        "core.kbp.solve_ms": ms("solve"),
        "core.kbp.candidates": counts["candidates"],
        "core.kbp.cand_per_s": counts["candidates"] / total_solve if total_solve else 0.0,
        "robustness.supervisor.run_ms": ms("supervisor"),
        "robustness.checkpoint.append_ms": ms("append"),
        "robustness.checkpoint.records": float(len(acc["append"])),
        "robustness.faults.incidents": counts["incidents"],
        "transformers.sst.sst_ms": ms("sst"),
        "transformers.sst.iterations": counts["iterations"],
        "predicates.robdd.nodes": mean(acc["nodes"]),
        "trace.unattributed_ms": ms("unattributed"),
    }
    for backend in BACKENDS:
        metrics[f"predicates.backends.choice.{backend}"] = counts[f"choice.{backend}"]
    return metrics, exact, problems


def sweep_layers(ctx, spans: List[Dict[str, Any]]) -> Tuple[Dict[str, float], Exact, List[str]]:
    """Layers of ``sweep``: the in-process solver spans and the forced runs."""
    problems: List[str] = []
    exact = Exact()
    by_seq: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        by_seq[span["seq"]].append(span)
    acc: Dict[str, List[float]] = defaultdict(list)
    routes = dict.fromkeys(SWEEP_ROUTES, 0)
    per_size: Dict[int, List[float]] = defaultdict(list)
    broken = 0
    for r in ctx.requests:
        mine = by_seq[r["seq"]]
        root = next(s for s in mine if s["id"] == r["root"])
        rest = [s for s in mine if s["id"] != r["root"]]
        solve = _durations(rest, "core.kbp.solve_si")
        acc["solve"] += solve
        per_size[r["size"]] += solve
        if not _durations(rest, "core.parallel.solve_si_parallel"):
            route = "serial"
        elif r["dispatch"]:
            route = "pool"
            acc["bytes_per_shard"].append(r["bytes_per_shard"])
            acc["arena"].append(r["arena_bytes"])
        else:
            route = "inproc"
        routes[route] += 1
        acc["plan"] += _durations(rest, "core.parallel.compile_phi_plan")
        acc["supervisor"] += _durations(rest, "robustness.supervisor.run")
        acc["append"] += _durations(rest, "robustness.checkpoint.append")
        acc["incidents"].append(r["incidents"])
        exact.note(f"route:f{r['size']}", route)
        exact.note(f"candidates:f{r['size']}", r["candidates"])
        exact.note(f"bytes_per_shard:f{r['size']}", r["bytes_per_shard"])
        exact.note(f"arena_bytes:f{r['size']}", r["arena_bytes"])
        # A span the solver records on a thread of its own hangs under the
        # request's solve_si call.
        times, found = self_times(root, rest, hang=r["solve"])
        acc["unattributed"].append(times["unattributed"])
        broken += bool(_note_problems(problems, str(r["seq"]), found))
    exact.note("fault_incidents", int(sum(acc["incidents"])))
    if broken:
        problems.append(f"{broken} of {len(ctx.requests)} requests fail the self-time checks")
    ms = lambda key: mean(acc[key]) * 1000  # noqa: E731
    candidates = float(sum(r["candidates"] for r in ctx.requests))
    total_solve = sum(acc["solve"])
    forced = ctx.record.get("forced", {})
    metrics = {
        "core.kbp.solve_ms": ms("solve"),
        "core.kbp.candidates": candidates,
        "core.kbp.cand_per_s": candidates / total_solve if total_solve else 0.0,
        "core.parallel.plan_ms": ms("plan"),
        "core.transport.bytes_per_shard": mean(acc["bytes_per_shard"]),
        "predicates.arena.bytes": mean(acc["arena"]),
        "core.transport.worker_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "robustness.supervisor.run_ms": ms("supervisor"),
        "robustness.checkpoint.append_ms": ms("append"),
        "robustness.checkpoint.records": float(len(acc["append"])),
        "robustness.faults.incidents": float(sum(acc["incidents"])),
        "predicates.batch.batch_phi_ms":
            mean(_durations([s for s in spans if s["seq"] == 0],
                            "predicates.batch.batch_phi")) * 1000,
        "trace.unattributed_ms": ms("unattributed"),
    }
    for route in SWEEP_ROUTES:
        metrics[f"core.parallel.route.{route}"] = float(routes[route])
    for size, durations in per_size.items():
        if forced.get(f"f{size}"):
            metrics[f"core.parallel.route_ratio.f{size}"] = (
                statistics.median(durations) / forced[f"f{size}"]
            )
    return metrics, exact, problems
