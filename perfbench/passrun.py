"""One pass over the corpus from a fresh process: ``cold-corpus`` and
``warm-reverify`` run every pass through this script.

The process starts and imports the pipeline and every builder (set-up),
then verifies each module in a child forked from that state, so every
module starts from the same fresh process, whatever was verified before
it.  A shared process would not: the term, sort and type intern tables
live for the life of a process, so a module verified after others is
measurably warmer than a real first run, its heap is larger, and
``distlock.default`` even takes a different solver path (its conflicts
and instantiations depend on the modules verified before it).

Prints one JSON line when imports are done (``ready``), one per module,
and a final summary line with the largest peak RSS of the children.
Each line with a time also carries ``ref_ms``, the time of the
reference workload (``reference.py``) run in the same process right
after set-up, or right before and after the module (their mean).

With ``--error-root DIR`` each module expected to fail is verified once
more after every module of the pass, each time into a new empty cache
directory under DIR, so the time to a failed verdict rests on many
samples spread over the pass; those records carry ``"repeat": true``.
An empty ``--order`` verifies nothing: the process only starts up,
which times set-up alone.  Usage (from the checkout root, with ``src``
on ``PYTHONPATH``)::

    python3 perfbench/passrun.py --cache DIR --order 3,0,1,... \
        [--error-root DIR] [--spans F]
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback


#: Modules the verification pipeline imports inside functions.
PRELOAD = ("repro.vc.wp", "repro.vc.scheduler", "repro.vc.delta",
           "repro.vc.prune", "repro.analysis", "repro.analysis.absint",
           "repro.diag", "repro.diag.split", "repro.cache.store",
           "repro.profiles", "repro.profiles.portfolio")


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cache", required=True)
    ap.add_argument("--order", required=True)
    ap.add_argument("--spans", default="")
    ap.add_argument("--error-root", default="")
    args = ap.parse_args(argv)

    from repro.api import Session, VerifyConfig
    from repro.epr import verify_epr_module
    from repro.smt.solver import solver_constructions
    from reference import reference_ms
    from table import CORPUS, FAILED

    # Imports belong to set-up: load the modules the pipeline imports
    # lazily, and every builder, so the first module timed in a pass
    # does not pay for them.
    for name in PRELOAD:
        importlib.import_module(name)
    builders = {}
    for name, dotted, _entry, _verdict, _failing in CORPUS:
        module_path, func = dotted.split(":")
        builders[name] = getattr(importlib.import_module(module_path), func)

    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.monotonic()
    _emit({"ready": ready, "ref_ms": reference_ms()})

    def span(name, fn, *a):
        return tracer.span(name, fn, *a) if tracer is not None else fn(*a)

    def verify_one(index, cache, repeat=False):
        name, _dotted, entry, _verdict, _failing = CORPUS[index]
        builder = builders[name]
        built0 = solver_constructions()

        def verify():
            mod = span("build", builder)
            if entry == "epr":
                return verify_epr_module(mod)
            with Session(VerifyConfig(cache_dir=cache)) as session:
                return session.verify_module(mod)

        if tracer is not None:
            tracer.set_request(name)
        ref0 = reference_ms()
        t0 = time.perf_counter()
        result = span("request", verify)
        ms = (time.perf_counter() - t0) * 1000.0
        ref1 = reference_ms()
        stats = result.stats or {}
        obligations = [(f.name, o) for f in result.functions
                       for o in f.obligations]
        _emit({
            "module": name,
            "repeat": repeat,
            "ms": ms,
            # The reference workload just before and after (reference.py).
            "ref_ms": (ref0 + ref1) / 2.0,
            "ok": result.ok,
            "failed_functions": sorted({f.name for f in result.functions
                                        if not f.ok}),
            "obligations": len(obligations),
            "functions": len(result.functions),
            "counters": {
                "conflicts": stats.get("conflicts", 0),
                "instantiations": stats.get("instantiations", 0),
                "query_bytes": result.query_bytes,
                "static_proved": stats.get("static_proved", 0),
                "solver_constructions": solver_constructions() - built0,
            },
            # The program's own counters, for the per-layer metrics.
            "stats": {key: stats.get(key, 0) for key in
                      ("cache_hits", "cache_misses", "pruned_axioms",
                       "delta_skips")},
            "not_from_cache": [f"{fn}:{o.label}" for fn, o in obligations
                               if not o.stats.get("cache_hit")],
        })

    children: list = []

    def in_child(index, cache, repeat=False):
        # This process has no threads, so forking it is safe.  The child
        # verifies one module, writes its record (and spans) and exits.
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                verify_one(index, cache, repeat)
                if tracer is not None:
                    tracer.dump(f"{args.spans}.{len(children)}")
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        children.append(pid)
        _pid, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise SystemExit(f"verifying {CORPUS[index][0]} failed")

    failing = [i for i, (*_, verdict, _f) in enumerate(CORPUS)
               if verdict == FAILED] if args.error_root else []
    for k, index in enumerate(int(i) for i in args.order.split(",") if i):
        in_child(index, args.cache)
        for again in failing:
            cache = os.path.join(args.error_root, f"error{again}-{k}")
            os.makedirs(cache)
            in_child(again, cache, repeat=True)
    if tracer is not None:
        tracing.merge([f"{args.spans}.{i}" for i in range(len(children))],
                      args.spans)
    _emit({"peak_rss_mb":
           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
