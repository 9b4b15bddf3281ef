#!/usr/bin/env python3
"""PyVerus end-to-end benchmark: three workloads, known verdicts.

Run from the checkout root::

    python3 perfbench/run.py --workload cold-corpus --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` is the separate traced run: it installs the layer
wrappers of ``perfbench/tracing.py`` and reports the per-layer metrics,
the unattributed ``other`` time and the tracing overhead.
``--steady N`` runs the workload N times (seeds ``seed .. seed+N-1``)
and prints each metric's median, quartiles and quartile spread.

Every verdict is checked against ``perfbench/table.py``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from statistics import fmean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

from reference import normalised, reference_ms  # noqa: E402
from table import CORPUS, EDIT_SOURCES, FAILED, PROVED  # noqa: E402

WORKLOADS = ("cold-corpus", "warm-reverify", "edit-loop")
#: Each workload's latency limit on one request's time to verdict.
LIMIT_MS = {"cold-corpus": 30000.0, "warm-reverify": 5000.0,
            "edit-loop": 5000.0}
#: A run ends by this many seconds after it starts, whatever happens.
HARD_LIMIT_S = 170.0
#: Every run of a workload does the same amount of work, sized from
#: --seconds by these nominal costs, so the mix of requests behind each
#: statistic does not shift with the speed of the host.  Cold-corpus
#: runs at least three passes, so per-module medians shrug off one slow
#: sample; warm-reverify at least 100 requests; edit-loop at least 100
#: edits.
COLD_PASS_S = 9.0
WARM_PASS_S = 1.0
EDIT_S = 0.05
#: Set-up-only process starts after each cold-corpus pass, so setup_s
#: rests on more samples than the passes alone give.
SETUP_PROBES = 1
#: The edit loop runs the reference workload in the daemon after every
#: this many requests; a request's time is normalised by the mean of the
#: reference times just before and after its block.
REF_EVERY = 4
#: Edit-loop set-ups per run (daemon start and warm-up); setup_s is
#: their median.
EDIT_SETUPS = 3
#: Percentiles need at least this many samples beyond them.
TAIL_BEYOND = 10

END_TO_END = {  # name -> unit
    "obligations_per_s": "1/s", "requests_per_s": "1/s",
    "module_geomean_ms": "ms", "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms", "error_p50_ms": "ms",
    "within_limit_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER = {  # name -> unit
    "smt.solver.check_ms": "ms", "smt.sat.solve_ms": "ms",
    "smt.lia.check_ms": "ms", "smt.quant.match_ms": "ms",
    "smt.bitvec.ms": "ms", "smt.compute.ms": "ms",
    "smt.solver.constructions": "count", "smt.solver.conflicts": "count",
    "smt.solver.instantiations": "count", "smt.solver.query_bytes": "bytes",
    "smt.sat.clauses": "count",
    "analysis.absint.ms": "ms", "analysis.absint.claim_ratio": "ratio",
    "vc.prune.ms": "ms", "vc.prune.dropped_axioms": "count",
    "vc.wp.plan_ms": "ms", "smt.fingerprint.ms": "ms",
    "cache.lookup_ms": "ms", "cache.hit_ratio": "ratio",
    "vc.scheduler.self_ms": "ms", "build.ms": "ms", "cache.store_ms": "ms",
    "vc.delta.ms": "ms", "vc.delta.skip_ratio": "ratio",
    "server.overhead_ms": "ms", "server.queued_ms": "ms",
    "server.warm.hit_ratio": "ratio", "server.solvers_built": "count",
    "diag.diagnose_ms": "ms", "other.ms": "ms", "trace.overhead_ms": "ms",
}
#: Per-layer time metric -> span name in perfbench/tracing.py.
LAYER_SPANS = {
    "smt.solver.check_ms": "smt.solver", "smt.sat.solve_ms": "smt.sat",
    "smt.lia.check_ms": "smt.lia", "smt.quant.match_ms": "smt.quant",
    "smt.bitvec.ms": "smt.bitvec", "smt.compute.ms": "smt.compute",
    "analysis.absint.ms": "analysis.absint", "vc.prune.ms": "vc.prune",
    "vc.wp.plan_ms": "vc.wp", "smt.fingerprint.ms": "smt.fingerprint",
    "cache.lookup_ms": "cache.lookup", "cache.store_ms": "cache.store",
    "vc.scheduler.self_ms": "vc.scheduler", "build.ms": "build",
    "vc.delta.ms": "vc.delta", "diag.diagnose_ms": "diag",
    "other.ms": "other",
}
COUNTER_KEYS = ("conflicts", "instantiations", "query_bytes",
                "static_proved", "solver_constructions")


class BenchError(Exception):
    """The run cannot produce a result (missing program, crashed child,
    broken edit table, hard time limit)."""


def say(obj) -> None:
    """One JSON record line on standard output."""
    print(json.dumps(obj, sort_keys=True), flush=True)


# ------------------------------------------------------------- statistics

def geomean(values):
    return math.exp(sum(math.log(max(v, 1e-9)) for v in values)
                    / len(values))


def tail(values):
    """(value, percentile, samples) of the highest nearest-rank
    percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} samples cannot support a tail percentile")
    k = n - TAIL_BEYOND - 1
    return ordered[k], round(100.0 * (k + 1) / n, 2), n


# ------------------------------------------------------------- processes

class Run:
    """Per-run state: deadline, work directory, child environment and
    the verdict/counter bookkeeping shared by all workloads."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t0 = time.monotonic()
        self.work = os.path.join(WORK, f"{workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.mismatches: list = []
        self.findings: list = []
        self.procs: list = []
        #: Every reference-workload time taken during the run.
        self.refs: list = []

    def remaining(self) -> float:
        left = HARD_LIMIT_S - (time.monotonic() - self.t0)
        if left <= 0:
            raise BenchError("hard time limit reached")
        return left

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def spawn(self, script: str, *args, stderr=subprocess.PIPE):
        # stdin is a pipe that closes when this process ends, however it
        # ends: the daemon shuts down on that EOF.
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args],
            cwd=ROOT, env=self.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=stderr, text=True)
        self.procs.append(proc)
        return proc

    def close(self) -> None:
        """Stop every child, keep the traced run's span files (under
        ``perfbench/.work/trace-<workload>``) and remove the rest."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            try:
                proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        if self.trace:
            keep = os.path.join(WORK, f"trace-{self.workload}")
            shutil.rmtree(keep, ignore_errors=True)
            os.makedirs(keep)
            for name in os.listdir(self.work):
                if name.endswith(".jsonl"):
                    shutil.move(os.path.join(self.work, name), keep)
        shutil.rmtree(self.work, ignore_errors=True)

    def judge(self, what: str, ok: bool, detail) -> bool:
        """Count one verification request against the oracle."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append({"request": what, "detail": detail})
        return ok


def corpus_verdict_ok(index: int, record: dict) -> bool:
    _name, _dotted, _entry, verdict, failing = CORPUS[index]
    return (record["ok"] == (verdict == PROVED)
            and record["failed_functions"] == sorted(failing))


def run_pass(run: Run, order: list, cache: str, spans: str = "",
             error_root: str = "") -> dict:
    """One corpus pass in a fresh child process.  With ``error_root``
    the expected failure is verified again after every module, each time
    into a new empty cache under it (the ``repeats`` of the returned
    pass), so its time rests on samples spread over the whole pass."""
    spawned = time.monotonic()
    args = ["--cache", cache, "--order", ",".join(map(str, order))]
    if spans:
        args += ["--spans", spans]
    if error_root:
        args += ["--error-root", error_root]
    proc = run.spawn("passrun.py", *args)
    try:
        out, err = proc.communicate(timeout=run.remaining())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("corpus pass exceeded the hard time limit")
    if proc.returncode != 0:
        raise BenchError(f"corpus pass failed:\n{err[-2000:]}")
    lines = [json.loads(line) for line in out.splitlines() if line]
    ready = lines[0]["ready"]
    run.refs.append(lines[0]["ref_ms"])
    by_name = {name: i for i, (name, *_rest) in enumerate(CORPUS)}
    for rec in lines[1:-1]:
        run.refs.append(rec["ref_ms"])
        rec["raw_ms"] = rec["ms"]
        rec["ms"] = normalised(rec["ms"], rec["ref_ms"])
        index = by_name[rec["module"]]
        rec["verdict_ok"] = run.judge(
            rec["module"], corpus_verdict_ok(index, rec),
            {"ok": rec["ok"], "failed": rec["failed_functions"]})
    return {"setup_s": normalised(ready - spawned, lines[0]["ref_ms"]),
            "modules": [rec for rec in lines[1:-1] if not rec["repeat"]],
            "repeats": [rec for rec in lines[1:-1] if rec["repeat"]],
            "peak_rss_mb": lines[-1]["peak_rss_mb"]}


def counter_findings(run: Run, passes: list) -> dict:
    """Per-module deterministic counters must repeat exactly across
    passes; returns the module -> counters table and records any
    mismatch as a finding."""
    table: dict = {}
    for i, p in enumerate(passes):
        for rec in p["modules"]:
            key = {k: rec["counters"][k] for k in COUNTER_KEYS
                   if run.workload == "cold-corpus"
                   or k != "solver_constructions"}
            seen = table.setdefault(rec["module"], key)
            if seen != key:
                run.findings.append({"finding": "counter mismatch",
                                     "module": rec["module"], "pass": i,
                                     "first": seen, "now": key})
    return table


def module_medians(samples) -> dict:
    """key -> (median obligations, median ms) over its requests; the key
    is the module, or in the edit loop the kind of request."""
    per_module: dict = {}
    for module, obligations, ms in samples:
        per_module.setdefault(module, []).append((obligations, ms))
    return {m: (median([o for o, _ in v]), median([t for _, t in v]))
            for m, v in sorted(per_module.items())}


def throughput(medians: dict) -> float:
    """Obligations decided per second of time to verdict, over one
    request per module at its median: robust to a slow phase of the
    host hitting a few requests."""
    return (sum(o for o, _ in medians.values())
            / (sum(t for _, t in medians.values()) / 1000.0))


def say_samples(pct, n, errors, medians, measured) -> None:
    """Record what the percentile metrics rest on, and each module's or
    kind's median time both normalised and as measured."""
    say({"tail": {"metric": "verdict_tail_ms", "percentile": pct,
                  "samples": n}, "error_samples": len(errors),
         "median_ms": {m: round(t, 3) for m, (_, t) in medians.items()},
         "measured_median_ms": {m: round(t, 3)
                                for m, (_, t) in measured.items()}})
    if not errors:
        raise BenchError("no correctly failed request to time")


def corpus_metrics(run: Run, passes: list) -> dict:
    records = [rec for p in passes for rec in p["modules"]]
    ms = [rec["ms"] for rec in records]
    limit = LIMIT_MS[run.workload]
    medians = module_medians((rec["module"], rec["obligations"], rec["ms"])
                             for rec in records)
    # Cold-corpus adds the repeated expected-failure verifications.
    requests = records + [rec for p in passes for rec in p["repeats"]]
    errors = [rec["ms"] for rec in requests
              if not rec["ok"] and rec["verdict_ok"]]
    if run.workload == "cold-corpus":
        # 3 samples per module, over modules from 15 ms to 3 s: any
        # per-request percentile would jump between modules.  A request
        # here is one verus run over the corpus (its median pass, summed
        # from per-module medians) and the tail is the slowest quarter
        # of the corpus: the geometric mean of its three slowest
        # modules' medians, nine samples rather than three.
        p50 = sum(t for _, t in medians.values())
        value = geomean(sorted(t for _, t in medians.values())[-3:])
        pct, n = "three slowest module medians", 3 * len(passes)
    else:
        p50 = median(ms)
        value, pct, n = tail(ms)
    say_samples(pct, n, errors, medians, module_medians(
        (rec["module"], 0, rec["raw_ms"]) for rec in records))
    return {
        "obligations_per_s": throughput(medians),
        "requests_per_s": len(CORPUS) / (
            median([p["setup_s"] for p in passes])
            + sum(t for _, t in medians.values()) / 1000.0),
        "module_geomean_ms": geomean([t for _, t in medians.values()]),
        "verdict_p50_ms": p50,
        "verdict_tail_ms": value,
        "error_p50_ms": median(errors),
        "within_limit_ratio": sum(1 for rec in requests
                                  if rec["verdict_ok"] and rec["ms"] <= limit)
        / len(requests),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        # Process start and imports, one sample per pass and probe.
        "setup_s": median([t for p in passes
                           for t in [p["setup_s"], *p["probes"]]]),
    }


def fresh_cache(run: Run, label: str) -> str:
    """A new, empty proof-cache directory."""
    path = os.path.join(run.work, label)
    os.makedirs(path)
    return path


# ------------------------------------------------------------- workloads

def corpus_passes(run: Run, rng: random.Random, n: int, cache_of,
                  error_root_of=lambda i: "", probes: int = 0):
    """``n`` corpus passes in seeded module orders, pass ``i`` using the
    proof-cache directory ``cache_of(i)``; in a traced run every other
    pass is traced.  After each pass, ``probes`` processes only start up
    (their set-up times go to the pass's ``probes``).  Returns (untraced
    passes, traced passes)."""
    passes, traced = [], []
    for i in range(n):
        order = rng.sample(range(len(CORPUS)), len(CORPUS))
        spans = (os.path.join(run.work, f"spans{i}.jsonl")
                 if run.trace and i % 2 == 1 else "")
        p = run_pass(run, order, cache_of(i), spans, error_root_of(i))
        p["spans"] = spans
        p["probes"] = [run_pass(run, [], run.work)["setup_s"]
                       for _ in range(probes)]
        (traced if spans else passes).append(p)
    return passes, traced


def cold_corpus(run: Run, rng: random.Random) -> dict:
    """Each pass: a fresh process verifying the corpus into an empty
    proof-cache directory (the cache's write path runs; no hit can come
    from an earlier pass)."""
    passes, traced = corpus_passes(
        run, rng, max(3, int(run.seconds / COLD_PASS_S)),
        lambda i: fresh_cache(run, f"cold{i}"),
        lambda i: fresh_cache(run, f"errors{i}"), SETUP_PROBES)
    for i, p in enumerate(passes + traced):
        dup = {rec["module"]: rec["stats"]["cache_hits"]
               for rec in p["modules"]
               if rec["stats"]["cache_hits"]}
        if dup:
            run.findings.append({"finding": "within-pass duplicate hits",
                                 "pass": i, "hits": dup})
    say({"counters": counter_findings(run, passes + traced)})
    if run.trace:
        return corpus_layers(run, passes, traced)
    return corpus_metrics(run, passes)


def warm_reverify(run: Run, rng: random.Random) -> dict:
    """Setup fills the cache with one cold pass; each timed pass is a
    fresh process over the same corpus and cache, delta off."""
    cache = fresh_cache(run, "warm")
    t0 = time.monotonic()
    fill = run_pass(run, rng.sample(range(len(CORPUS)), len(CORPUS)), cache)
    say({"cache_fill_s": time.monotonic() - t0})
    passes, traced = corpus_passes(
        run, rng,
        max(-(-100 // len(CORPUS)), int(run.seconds / WARM_PASS_S)),
        lambda i: cache)
    table = counter_findings(run, [fill] + passes + traced)
    say({"counters": table})
    built = {}
    for p in passes:
        for rec in p["modules"]:
            built.setdefault(rec["module"], set()).add(
                rec["counters"]["solver_constructions"])
    say({"warm_purpose": {
        "solver_constructions": {m: sorted(v) for m, v in built.items()},
        "not_from_cache": {rec["module"]: rec["not_from_cache"]
                           for rec in passes[0]["modules"]
                           if rec["not_from_cache"]},
        "modules": len(table)}})
    if run.trace:
        return corpus_layers(run, passes, traced)
    return corpus_metrics(run, passes)


def edit_loop(run: Run, rng: random.Random) -> dict:
    """An IDE session against the resident daemon: seeded single-function
    edits of corpus modules, submitted as source, closed loop."""
    import edits
    sources = edits.load_sources(SRC)
    try:
        for e in edits.EDITS:
            edits.apply_edit(sources[e["module"]], e)
        witnesses = edits.check_witnesses(sources)
    except edits.EditError as exc:
        raise BenchError(f"the edit table no longer matches: {exc}")
    steps = edits.edit_sequence(run.seed,
                                max(100, int(run.seconds / EDIT_S)))

    spans = os.path.join(run.work, "spans.jsonl") if run.trace else ""
    # Set-up is repeated EDIT_SETUPS times and setup_s is the median; the
    # last daemon serves the edit loop.
    setups = []
    for i in range(EDIT_SETUPS):
        last = i == EDIT_SETUPS - 1
        daemon, client, seconds = start_daemon(
            run, sources, f"daemon{i}", spans if last else "")
        setups.append(seconds)
        if not last:
            stop_daemon(run, daemon, client)
    try:
        warm0 = client.status()["result"]["warm"]
        samples = []
        ref0 = daemon_reference(run, daemon)
        for first in range(0, len(steps), REF_EVERY):
            block = []
            for step in range(first, min(first + REF_EVERY, len(steps))):
                module, edit = steps[step]
                traced = run.trace and step % 2 == 1
                client.client = "bench+trace" if traced else "bench"
                block.append(submit(run, client, sources, module, edit,
                                    step + 2))
                block[-1]["traced"] = traced
            ref1 = daemon_reference(run, daemon)
            for sample in block:
                sample["ms"] = normalised(sample["raw_ms"],
                                          (ref0 + ref1) / 2.0)
            samples += block
            ref0 = ref1
        warm1 = client.status()["result"]["warm"]
        client.client = "bench"
    finally:
        rss = stop_daemon(run, daemon, client)

    skips = skip_ratio(samples)
    say({"edit_purpose": {
        "edits": len(samples), "witnesses_checked": witnesses,
        "breaking": sum(1 for s in samples if s["expect"] == FAILED),
        "delta_skip_ratio": skips, "exercises_delta": skips > 0}})
    if skips == 0:
        run.findings.append({"finding": "edit-loop no longer exercises "
                                        "vc.delta (zero delta skips)"})
    if run.trace:
        return edit_layers(run, samples, spans, warm0, warm1)
    return edit_metrics(run, samples, median(setups), rss)


def start_daemon(run: Run, sources: dict, label: str, spans: str):
    """Start the daemon (``daemon.py``) with an empty cache root and warm
    it with one cold request per edited module, in source form as the
    edits will be, in a fixed order.  Returns (process, connected client,
    set-up seconds)."""
    t0 = time.monotonic()
    args = ["--cache", fresh_cache(run, label)]
    if spans:
        args += ["--spans", spans]
    # The daemon's stderr goes to a file: an undrained pipe could fill
    # and stall it mid-run.
    log_path = os.path.join(run.work, f"{label}.log")
    with open(log_path, "w") as log:
        daemon = run.spawn("daemon.py", *args, stderr=log)
    daemon.log_path = log_path
    ready, _, _ = select.select([daemon.stdout], [], [], 60)
    first = daemon.stdout.readline() if ready else ""
    if not first:
        raise BenchError("daemon did not start:\n" + daemon_log(daemon))
    from repro.server import ServerClient
    client = ServerClient(port=json.loads(first)["port"], client="bench",
                          timeout=run.remaining())
    client.connect()
    try:
        for name, (_file, builder) in sorted(EDIT_SOURCES.items()):
            index = [row[0] for row in CORPUS].index(name)
            _name, _dotted, _entry, verdict, failing = CORPUS[index]
            reply = client.verify(source=sources[name], builder=builder)
            check_reply(run, f"warm-up {name}", reply, verdict, failing,
                        want_diag=False)
        seconds = time.monotonic() - t0
        seconds = normalised(seconds, daemon_reference(run, daemon))
    except BaseException:
        client.close()
        raise
    return daemon, client, seconds


def daemon_reference(run: Run, daemon) -> float:
    """Run the reference workload in the idle daemon (``daemon.py``
    reads ``ref`` on its standard input) and return its time in ms."""
    daemon.stdin.write("ref\n")
    daemon.stdin.flush()
    line = daemon.stdout.readline()
    if not line:
        raise BenchError("daemon ended:\n" + daemon_log(daemon))
    ref = json.loads(line)["ref_ms"]
    run.refs.append(ref)
    return ref


def daemon_log(daemon) -> str:
    with open(daemon.log_path) as fh:
        return fh.read()[-2000:]


def stop_daemon(run: Run, daemon, client) -> float:
    """Shut the daemon down through its protocol and wait for it; returns
    its peak RSS in MB."""
    try:
        client.shutdown()
    finally:
        client.close()
    out, _ = daemon.communicate(timeout=run.remaining())
    if daemon.returncode != 0:
        raise BenchError("daemon failed:\n" + daemon_log(daemon))
    return json.loads(out.splitlines()[-1])["peak_rss_mb"]


def submit(run: Run, client, sources: dict, module: str, edit, k: int):
    """Send one edit (``None``: the original source) and judge the
    reply; returns the request's sample."""
    import edits
    run.remaining()
    text = sources[module]
    if edit is not None:
        text = edits.apply_edit(text, edit, k)
    verdict, failing = edits.expected(edit)
    config = {"diagnostics": True} if verdict == FAILED else None
    t = time.perf_counter()
    reply = client.verify(source=text, builder=EDIT_SOURCES[module][1],
                          config=config)
    ms = (time.perf_counter() - t) * 1000.0
    what = f"{module}:{edit['id'] if edit else 'revert'}"
    ok = check_reply(run, what, reply, verdict, failing,
                     want_diag=verdict == FAILED)
    return edit_sample(what, module, verdict, ok, ms, reply)


def check_reply(run: Run, what: str, reply: dict, verdict: str,
                failing, want_diag: bool) -> bool:
    """A reply matches the oracle: status ok, the expected verdict, the
    expected failing functions, and a diagnostic on every failure."""
    if reply.get("status") != "ok":
        return run.judge(what, False, {"status": reply.get("status"),
                                       "error": reply.get("error"),
                                       "reason": reply.get("reason")})
    result = reply["result"]
    failed = sorted({f["function"] for f in result["failures"]})
    ok = (result["ok"] == (verdict == PROVED) and failed == sorted(failing))
    if ok and want_diag:
        ok = all(f.get("diag") for f in result["failures"])
    return run.judge(what, ok, {"ok": result["ok"], "failed": failed})


def edit_sample(what, module, verdict, ok, ms, reply) -> dict:
    result = reply.get("result") or {}
    server = reply.get("server") or {}
    stats = result.get("stats") or {}
    functions = result.get("functions") or []
    return {
        "edit": what, "module": module, "expect": verdict, "ok": ok,
        "raw_ms": ms,
        "server_ms": (result.get("seconds") or 0.0) * 1000.0,
        "obligations": sum(len(f["obligations"]) for f in functions),
        "functions": len(functions),
        "stats": {"delta_skips": int(server.get("delta_skips", 0)),
                  "cache_hits": int(server.get("cache_hits", 0)),
                  "cache_misses": int(server.get("cache_misses", 0)),
                  "pruned_axioms": int(stats.get("pruned_axioms", 0))},
        "queued_ms": float(server.get("queued_ms", 0.0)),
        "solvers_built": int(server.get("solvers_built", 0)),
        "conflicts": int(stats.get("conflicts", 0)),
        "instantiations": int(stats.get("instantiations", 0)),
        "query_bytes": int(result.get("query_bytes", 0)),
    }


def edit_metrics(run, samples, setup_s, rss) -> dict:
    ms = [s["ms"] for s in samples]
    errors = [s["ms"] for s in samples if s["expect"] == FAILED and s["ok"]]
    # Per kind of request (each edit of the table, each module's revert):
    # a kind's requests are alike, so its median does not move with how
    # the seed's sequence happened to mix kinds within a module.
    medians = module_medians((s["edit"], s["obligations"], s["ms"])
                             for s in samples)
    value, pct, n = tail(ms)
    say_samples(pct, n, errors, medians, module_medians(
        (s["edit"], 0, s["raw_ms"]) for s in samples))
    limit = LIMIT_MS[run.workload]
    return {
        "obligations_per_s": throughput(medians),
        # Closed loop, one client: completed requests per second of
        # (normalised) time to verdict.
        "requests_per_s": len(samples) / (sum(ms) / 1000.0),
        "module_geomean_ms": geomean([t for _, t in medians.values()]),
        "verdict_p50_ms": median(ms),
        "verdict_tail_ms": value,
        "error_p50_ms": median(errors),
        "within_limit_ratio": sum(1 for s in samples
                                  if s["ok"] and s["ms"] <= limit)
        / len(samples),
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }


# ---------------------------------------------------------------- layers

def load_spans(path: str):
    spans, counts = [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                counts = rec["counts"]
                continue
            while len(spans) < rec["id"]:
                spans.append(None)
            spans.append((rec["name"], rec["start"], rec["end"],
                          rec["parent"], rec["request"]))
    return spans, counts


def ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def skip_ratio(records) -> float:
    """Functions the delta cache replayed ÷ functions verified, from the
    program's own ``delta_skips`` stat."""
    return ratio(sum(r["stats"]["delta_skips"] for r in records),
                 sum(r["functions"] for r in records))


def layer_table(run: Run, spans, counts, records, overhead_ms) -> dict:
    """Per-layer metrics common to every workload (zero where the
    workload does not run the layer) over the traced requests
    ``records``; prints the self-time table."""
    import tracing
    requests = len(records)
    self_ms, n_spans = tracing.self_times(spans)
    out = {metric: self_ms.get(span, 0.0) / requests
           for metric, span in LAYER_SPANS.items()}
    total = {key: sum(r["stats"][key] for r in records)
             for key in ("cache_hits", "cache_misses", "pruned_axioms")}
    out.update({
        "analysis.absint.claim_ratio": ratio(counts.get("absint_claims", 0),
                                             counts.get("absint_checks", 0)),
        "vc.prune.dropped_axioms": total["pruned_axioms"],
        "cache.hit_ratio": ratio(total["cache_hits"],
                                 total["cache_hits"] + total["cache_misses"]),
        "vc.delta.skip_ratio": skip_ratio(records),
        "smt.sat.clauses": counts.get("sat_clauses", 0),
        "trace.overhead_ms": overhead_ms,
    })
    total = sum(self_ms.values()) / requests
    say({"self_time_ms_per_request": {
        "workload": run.workload, "requests": requests, "spans": n_spans,
        "layers": {k: round(v / requests, 4)
                   for k, v in sorted(self_ms.items(),
                                      key=lambda kv: -kv[1])},
        "total": round(total, 4), "tracing_overhead": round(overhead_ms, 4)}})
    return out


def corpus_layers(run: Run, passes: list, traced: list) -> dict:
    spans, counts = [], {}
    for p in traced:
        s, c = load_spans(p["spans"])
        base = len(spans)
        spans += [None if x is None else
                  (x[0], x[1], x[2], None if x[3] is None else x[3] + base,
                   x[4]) for x in s]
        for k, v in c.items():
            counts[k] = counts.get(k, 0) + v

    def medians(ps):
        return module_medians((r["module"], 0, r["ms"])
                              for p in ps for r in p["modules"])
    on, off = medians(traced), medians(passes)
    overhead = sum(on[m][1] - off[m][1] for m in on) / len(on)
    records = [r for p in traced for r in p["modules"] + p["repeats"]]
    out = layer_table(run, spans, counts, records, overhead)
    out.update({
        "smt.solver.constructions": sum(
            r["counters"]["solver_constructions"] for r in records),
        "smt.solver.conflicts": sum(r["counters"]["conflicts"]
                                    for r in records),
        "smt.solver.instantiations": sum(r["counters"]["instantiations"]
                                         for r in records),
        "smt.solver.query_bytes": sum(r["counters"]["query_bytes"]
                                      for r in records),
        "server.overhead_ms": 0.0, "server.queued_ms": 0.0,
        "server.warm.hit_ratio": 0.0, "server.solvers_built": 0,
    })
    return out


def edit_layers(run: Run, samples, spans_path, warm0, warm1) -> dict:
    spans, counts = load_spans(spans_path)
    traced = [s for s in samples if s["traced"]]
    # Tracing overhead per kind of request (the edit, or a module's
    # revert): traced minus untraced median, then the median over the
    # kinds that ran both ways, so the seeded mix of each half cancels
    # out and a kind with a few erratic requests does not decide it.
    on = module_medians((s["edit"], 0, s["ms"]) for s in traced)
    off = module_medians((s["edit"], 0, s["ms"])
                         for s in samples if not s["traced"])
    both = [k for k in on if k in off]
    out = layer_table(run, spans, counts, traced,
                      median([on[k][1] - off[k][1] for k in both]))
    hits = warm1["hits"] - warm0["hits"]
    misses = warm1["misses"] - warm0["misses"]
    out.update({
        "smt.solver.constructions": sum(s["solvers_built"] for s in traced),
        "smt.solver.conflicts": sum(s["conflicts"] for s in traced),
        "smt.solver.instantiations": sum(s["instantiations"]
                                         for s in traced),
        "smt.solver.query_bytes": sum(s["query_bytes"] for s in traced),
        "server.overhead_ms": fmean([s["raw_ms"] - s["server_ms"]
                                     for s in traced]),
        "server.queued_ms": fmean([s["queued_ms"] for s in traced]),
        "server.warm.hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "server.solvers_built": sum(s["solvers_built"] for s in traced),
    })
    return out


# ------------------------------------------------------------------ main

def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to benchmark: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    load0 = os.getloadavg()
    host0 = reference_ms()
    run = Run(workload, seed, seconds, trace)
    rng = random.Random(seed)
    try:
        body = {"cold-corpus": cold_corpus, "warm-reverify": warm_reverify,
                "edit-loop": edit_loop}[workload]
        values = body(run, rng)
    finally:
        run.close()
        for finding in run.findings:
            say(finding)
        if run.mismatches:
            say({"verdict_mismatches": run.mismatches[:20]})
    say({"env": {"workload": workload, "seed": seed, "seconds": seconds,
                 "trace": int(trace), "nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "loadavg_before": load0, "loadavg_after": os.getloadavg(),
                 # The reference workload in this process before and
                 # after the run, and the median of those paired with
                 # the requests: how fast the host ran.
                 "reference_ms_before": host0,
                 "reference_ms_after": reference_ms(),
                 "reference_ms_median": median(run.refs) if run.refs
                 else None,
                 "wall_s": round(run.elapsed(), 3)}})
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def steady(args) -> int:
    """Run the workload N times with consecutive seeds and print each
    metric's median, quartiles and quartile spread / median."""
    values: dict = {}
    counters: dict = {}
    for i in range(args.steady):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed + i),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=HARD_LIMIT_S + 30)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return 1
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        result = lines[-1]
        env = [rec["env"] for rec in lines if "env" in rec]
        for rec in lines:
            for module, key in rec.get("counters", {}).items():
                seen = counters.setdefault(module, [])
                if key not in seen:
                    seen.append(key)
        say({"seed": args.seed + i, "correct": result["correct"],
             "failed": result["failed"],
             "wall_s": env[0]["wall_s"] if env else None,
             "reference_ms": env[0]["reference_ms_median"] if env else None,
             "metrics": {k: v["value"]
                         for k, v in result["metrics"].items()}})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    if counters:
        say({"counter_check": {
            "repeat_exactly": sorted(m for m, v in counters.items()
                                     if len(v) == 1),
            "vary": {m: v for m, v in counters.items() if len(v) > 1}}})
    for name, vs in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        say({"metric": name, "median": q2, "q1": q1, "q3": q3,
             "spread": (q3 - q1) / q2 if q2 else 0.0, "runs": len(vs)})
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0,
                    help="run N times and print per-metric spread")
    args = ap.parse_args(argv)
    # A terminated run still stops its children (Run.close runs).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.steady:
        return steady(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    say(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
