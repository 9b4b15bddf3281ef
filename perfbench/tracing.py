"""Span tracing for the traced benchmark run.

Wrappers are installed from the benchmark's own files around the public
entry points of each layer (no code under ``src/`` records spans).  A
span records its layer name, start, end, parent span and request id;
spans stay in memory and are written out as JSONL when the run ends.

Only entry points called at most ~1e5 times per run are wrapped, so the
tracing overhead stays a small, measured share of the run (the traced
run reports it).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict

class Tracer:
    """In-memory span recorder plus the two per-layer counters the
    program does not report itself: triage checks and claims, and the
    clauses each solver check solved."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.enabled = True
        self._local = threading.local()

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        idx = len(self.spans)
        self.spans.append(None)
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans[idx] = (name, t0, t1, parent,
                               getattr(self._local, "request", None))

    def set_request(self, request_id) -> None:
        self._local.request = request_id

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper.  ``after(tracer,
        args, result)`` runs once the call returns, to read counters."""
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.span(name, orig, *args, **kwargs)
            if after is not None and tracer.enabled:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", attr)
        setattr(owner, attr, wrapper)

    # ----------------------------------------------------------- output

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, t0, t1, parent, req = span
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "request": req}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def merge(paths: list, out: str) -> None:
    """Concatenate span files written by :meth:`Tracer.dump` into one,
    renumbering span ids and parents and summing the counts; the inputs
    are removed."""
    counts: dict = defaultdict(int)
    base = 0
    with open(out, "w") as dst:
        for path in paths:
            top = -1
            with open(path) as src:
                for line in src:
                    rec = json.loads(line)
                    if "counts" in rec:
                        for key, value in rec["counts"].items():
                            counts[key] += value
                        continue
                    top = max(top, rec["id"])
                    rec["id"] += base
                    if rec["parent"] is not None:
                        rec["parent"] += base
                    dst.write(json.dumps(rec) + "\n")
            base += top + 1
            os.remove(path)
        dst.write(json.dumps({"counts": dict(counts)}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; call once per process.  The
    caller records the root ``request`` span of each module verification
    or daemon request."""
    from repro.analysis.absint import Triage
    from repro.cache.store import ProofCache
    from repro import diag
    from repro.smt import fingerprint
    from repro.smt.lia import LiaSolver
    from repro.smt.sat import SatSolver
    from repro.smt.solver import SmtSolver
    from repro.vc import delta, prune, scheduler, wp

    def triage_after(tr, args, result):
        tr.counts["absint_checks"] += 1
        tr.counts["absint_claims"] += int(bool(result[0]))

    def check_after(tr, args, result):
        # Every clause the check solved, read off the SAT core once the
        # check returns (the scheduler pops a task's clauses afterwards).
        tr.counts["sat_clauses"] += len(args[0]._sat._clauses)

    tracer.wrap(scheduler.Scheduler, "run_module", "vc.scheduler")
    tracer.wrap(wp.VcGen, "plan_function", "vc.wp")
    # The idiom engines run eagerly during planning; wp resolves them
    # as module globals at call time.
    tracer.wrap(wp, "bv_check_sat", "smt.bitvec")
    tracer.wrap(wp, "prove_by_compute", "smt.compute")
    tracer.wrap(prune, "prune_axioms", "vc.prune")
    tracer.wrap(Triage, "check", "analysis.absint", triage_after)
    tracer.wrap(scheduler, "obligation_digest", "smt.fingerprint")
    tracer.wrap(fingerprint, "idiom_digest", "smt.fingerprint")
    tracer.wrap(ProofCache, "lookup", "cache.lookup")
    tracer.wrap(ProofCache, "store", "cache.store")
    tracer.wrap(delta, "function_dependency_digest", "vc.delta")
    tracer.wrap(delta.DeltaCache, "lookup", "vc.delta")
    tracer.wrap(delta, "replay_function", "vc.delta")
    tracer.wrap(delta.DeltaCache, "store", "vc.delta")
    tracer.wrap(SmtSolver, "check", "smt.solver", check_after)
    tracer.wrap(SatSolver, "solve", "smt.sat")
    tracer.wrap(LiaSolver, "check", "smt.lia")
    # E-matching and MBQI rounds: the quantifier engine's entry points
    # inside the solver's check loop.
    tracer.wrap(SmtSolver, "_ematch_round", "smt.quant")
    tracer.wrap(SmtSolver, "_mbqi_round", "smt.quant")
    tracer.wrap(diag, "diagnose_obligation", "diag")


def self_times(spans) -> tuple[dict, int]:
    """Aggregate spans into ``({layer: self ms}, n_spans)``.  Self time
    is a span's duration minus its direct children's; a root span's self
    time is the unattributed ``other``."""
    child = defaultdict(float)
    for span in spans:
        if span is not None and span[3] is not None:
            child[span[3]] += span[2] - span[1]
    self_ms: dict = defaultdict(float)
    n = 0
    for i, span in enumerate(spans):
        if span is None:
            continue
        n += 1
        name, t0, t1, parent, _request = span
        layer = "other" if parent is None else name
        self_ms[layer] += ((t1 - t0) - child.get(i, 0.0)) * 1000.0
    return dict(self_ms), n
