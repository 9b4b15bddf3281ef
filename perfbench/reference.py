"""A fixed reference workload that measures how fast the host runs
interpreter-bound code right now.

The host this benchmark was built on changes speed by 20% up to 2× for
minutes at a time (other tenants of the machine), which no statistic
inside a run of tens of seconds can average away.  Every timed request is
therefore paired with this workload, run in the same process just before
and just after it, and reported in *reference-normalised* time: its
measured time scaled by ``NOMINAL_MS`` ÷ the reference's time.  The
workload is benchmark code and never changes with the program, so a
change to the program moves normalised times exactly as it moves
measured ones; what cancels is the host's speed at that moment.

The work resembles a solver's: build and intern random terms in a dict,
walk their DAGs, and unit-propagate random clauses.  A tight arithmetic
loop tracked the verifier's slowdowns poorly, and this workload tracked
them well (see README "Steadiness measured").  The cyclic garbage
collector is off while it runs, so its time does not depend on the size
of the heap the program built before it.
"""

from __future__ import annotations

import gc
import random
import time

#: The reference's time on the host the benchmark was built on, when
#: quiet; normalised times are measured times at this reference speed.
NOMINAL_MS = 20.0


class _Term:
    __slots__ = ("op", "args", "h")

    def __init__(self, op, args):
        self.op = op
        self.args = args
        self.h = hash((op, args))

    def __hash__(self):
        return self.h

    def __eq__(self, other):
        return self.op == other.op and self.args == other.args


def _work(rng: random.Random) -> int:
    table: dict = {}

    def make(op, args):
        term = _Term(op, args)
        return table.setdefault(term, term)

    terms = [make(f"x{i}", ()) for i in range(40)]
    for _ in range(1500):
        terms.append(make(rng.choice("+*<="),
                          (rng.choice(terms), rng.choice(terms))))
    visited = 0
    for root in terms[-200:]:
        stack, seen = [root], set()
        while stack:
            term = stack.pop()
            if term not in seen:
                seen.add(term)
                visited += 1
                stack.extend(term.args)
    clauses = [[rng.choice((1, -1)) * rng.randrange(1, 60) for _ in range(3)]
               for _ in range(250)]
    for _ in range(10):
        assign = {v: rng.random() < 0.5 for v in range(1, 60, 7)}
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                free = [lit for lit in clause if abs(lit) not in assign]
                sat = any(assign[abs(lit)] == (lit > 0) for lit in clause
                          if abs(lit) in assign)
                if not sat and len(free) == 1:
                    assign[abs(free[0])] = free[0] > 0
                    changed = True
    return visited + len(assign)


def reference_ms() -> float:
    """Time one run of the reference workload, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work(random.Random(7))
        return (time.perf_counter() - t0) * 1000.0
    finally:
        if enabled:
            gc.enable()


def normalised(ms: float, ref_ms: float) -> float:
    """``ms`` measured while the reference took ``ref_ms``, expressed at
    the nominal reference speed."""
    return ms * NOMINAL_MS / ref_ms
