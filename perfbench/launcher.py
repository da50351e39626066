"""Start the certificate server, optionally wrapping its layers in spans.

Usage::

    python perfbench/launcher.py [--trace-out SPANS.jsonl] -- SERVER-ARGS...

Without ``--trace-out`` this is ``python -m repro.service.server``.
With it, each public entry point the server reaches is replaced, where
its caller looks the name up, by a wrapper that records a span; the
spans are written to ``SPANS.jsonl`` when the server exits.  Nothing
under ``src/`` is edited.  The server ends as soon as its standard input
closes: the load generator keeps that pipe open, so a server never
outlives the process that started it, not even one that was killed.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_source  # noqa: E402
from spans import Recorder  # noqa: E402


def instrument(rec: Recorder) -> None:
    import repro.core.kbp as kbp
    import repro.service.server as server
    import repro.service.specs as specs
    import repro.transformers as transformers
    from repro.certificates.store import Artifact
    from repro.predicates import get_backend, using_backend
    from repro.predicates.backends import backend_for_size
    from repro.robustness import ShardJournal, ShardSupervisor
    from repro.service.cache import CertificateCache
    from repro.service.queue import SolveQueue

    built = set()

    # resolve_model opens a request: the server sees solve requests one at
    # a time on the benchmark's single connection, so counting them gives
    # the same sequence number the load generator assigns.
    original_resolve = server.resolve_model

    def resolve_model(spec):
        rec.seq += 1
        span = rec.begin("service.specs.resolve_model")
        try:
            return original_resolve(spec)
        finally:
            rec.end(span)

    server.resolve_model = resolve_model

    def keyed(span, key, args, kwargs):
        span["attrs"]["key"] = key

    rec.wrap(server, "cache_key", "service.specs.cache_key", keyed)

    def first_build(span, model, args, kwargs):
        key = args[0] if args else kwargs.get("key")
        span["attrs"]["first"] = key not in built
        built.add(key)

    rec.wrap(specs, "build_model", "certificates.models.build_model", first_build)

    def looked_up(span, data, args, kwargs):
        span["attrs"]["hit"] = data is not None

    rec.wrap(CertificateCache, "get", "service.cache.get", looked_up)
    rec.wrap(CertificateCache, "put", "service.cache.put")

    original_submit = SolveQueue.submit

    # The job may start on the queue's thread before ``submit`` returns on
    # the loop's, so ``submit`` gets no span of its own (the two would
    # overlap under one parent); the job's span carries the wait.
    def submit(self, key, job, subscriber=None):
        submitted = time.perf_counter()
        seq = rec.seq

        def timed_job(publish):
            run = rec.begin("service.queue.job", seq=seq)
            run["attrs"]["wait"] = run["start"] - submitted
            try:
                return job(publish)
            finally:
                rec.end(run)

        return original_submit(self, key, timed_job, subscriber)

    SolveQueue.submit = submit

    def chosen(span, text, args, kwargs):
        model = kwargs.get("model")
        if model is None:
            return
        size = model.program.space.size
        with using_backend("auto"):
            backend = backend_for_size(size).name
        span["attrs"]["backend"] = backend
        span["attrs"]["model"] = model.key
        span["attrs"]["bytes"] = len(text)
        if backend == "robdd":
            span["attrs"]["nodes"] = get_backend("robdd").engine(
                model.program.space
            ).node_count()

    rec.wrap(server, "solve_query", "service.specs.solve_query", chosen)

    def solved(span, report, args, kwargs):
        span["attrs"]["candidates"] = report.candidates_checked
        log = report.fault_log
        span["attrs"]["incidents"] = len(log.incidents) if log is not None else 0

    rec.wrap(kbp, "solve_si", "core.kbp.solve_si", solved)

    def supervised(span, result, args, kwargs):
        span["attrs"]["incidents"] = len(args[0].log.incidents)

    rec.wrap(ShardSupervisor, "run", "robustness.supervisor.run", supervised)
    rec.wrap(ShardJournal, "append", "robustness.checkpoint.append")

    def iterated(span, result, args, kwargs):
        span["attrs"]["iterations"] = result.iterations

    rec.wrap(transformers, "sst", "transformers.sst", iterated)
    rec.wrap(specs, "wrap", "certificates.store.wrap")
    rec.wrap(Artifact, "dumps", "certificates.store.dumps")


def exit_on_stdin_eof() -> None:
    """End this process, from a daemon thread, once standard input closes.

    The thread reads the raw descriptor: a read through ``sys.stdin`` would
    hold its buffer's lock, which the interpreter needs at a normal exit.
    """

    def watch() -> None:
        while os.read(0, 4096):
            pass
        os._exit(1)

    threading.Thread(target=watch, name="stdin-eof", daemon=True).start()


def main(argv: list) -> int:
    require_source()
    exit_on_stdin_eof()
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.service import server

    if trace_out is None:
        return server.main(argv)
    rec = Recorder()
    instrument(rec)
    try:
        return server.main(argv)
    finally:
        rec.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
