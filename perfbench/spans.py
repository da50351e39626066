"""In-memory spans for the traced run, and their attribution to layers.

A span is ``(id, parent, name, start, end, seq, attrs)``.  ``seq`` is the
request id: the number of the solve request on one server connection,
which the load generator and the server count the same way (one
connection, closed loop), plus the cache key both sides learn.  Times
come from ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so client and server spans share one time axis.

Spans stay in memory and are written once, when the process ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Recorder:
    """Collects spans; nesting follows the call stack of each thread."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.seq = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, seq: Optional[int] = None) -> Dict[str, Any]:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span = {
                "id": self._next_id,
                "parent": stack[-1] if stack else None,
                "name": name,
                "seq": self.seq if seq is None else seq,
                "start": time.perf_counter(),
                "end": None,
                "attrs": {},
            }
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()

    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``after(span, result, args, kwargs)`` may add attributes.  The
        original is called unchanged; exceptions propagate.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(span, result, args, kwargs)
            return result

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def load(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


#: Seconds of slack in the self-time checks: float rounding only.  Every
#: span is timed on one monotonic clock, and a server span starts after the
#: client's send and ends before the reply it leads to is written.
EPS = 1e-9


def self_times(root: Dict[str, Any], spans: Iterable[Dict[str, Any]],
               hang: Any) -> Tuple[Dict[str, float], List[str]]:
    """Self time per span name of one request (seconds), and what is wrong.

    ``root`` spans the request as the client saw it; ``spans`` are the
    request's other spans, client and server.  A span's children are the
    spans that record it as their parent; a span that records none (the
    outermost span of a server thread) is a child of the span whose id is
    ``hang``.  A span's self time is its duration minus its children's
    durations; the root's own is reported as ``unattributed``.

    The self times add up to the latency only if every span hangs in the
    request's tree and no parent's children overlap.  The problems name
    every span that never ended, records a parent outside the request, or
    runs outside its parent; every negative self time; and the sum when it
    misses the latency.
    """
    spans = list(spans)
    nodes = {s["id"]: s for s in spans}
    nodes[root["id"]] = root
    covered: Dict[Any, float] = defaultdict(float)
    problems: List[str] = []
    ended = []
    for span in spans:
        if span["end"] is None:
            problems.append(f"span {span['name']} never ended")
            continue
        ended.append(span)
        parent = nodes.get(hang if span["parent"] is None else span["parent"])
        if parent is None:
            problems.append(f"span {span['name']} records parent {span['parent']!r} "
                            "outside the request")
            continue
        if span["start"] < parent["start"] - EPS or span["end"] > parent["end"] + EPS:
            problems.append(f"span {span['name']} runs outside its parent {parent['name']}")
        covered[parent["id"]] += span["end"] - span["start"]
    times: Dict[str, float] = {}
    for node in [root] + ended:
        own = node["end"] - node["start"] - covered[node["id"]]
        if own < -EPS:
            problems.append(f"the children of {node['name']} overlap by {-own * 1000:.6f} ms")
        name = "unattributed" if node is root else node["name"]
        times[name] = times.get(name, 0.0) + own
    latency = root["end"] - root["start"]
    total = sum(times.values())
    if abs(total - latency) > EPS:
        problems.append(f"self times add up to {total * 1000:.6f} ms "
                        f"against a latency of {latency * 1000:.6f} ms")
    return times, problems
