#!/usr/bin/env python3
"""Compare two sets of ``run.py --steady`` runs of the same workload.

For every metric the two sets report, prints both medians, the change of
the second median against the first (signed so that positive is worse,
as a share of the first median), each set's quartile spread ÷ median,
and whether both stay within the metric's bound in ``BENCHMARK.json``:
each spread (except ``setup_s``'s) at most the bound, and the second
median no worse than the first by more than the bound.  Exits 1 if any
metric does not.  Usage, from the checkout root::

    python3 perfbench/run.py --workload W --seed 1 --seconds 20 \\
        --steady 10 > a.jsonl
    python3 perfbench/run.py --workload W --seed 11 --seconds 20 \\
        --steady 10 > b.jsonl
    python3 perfbench/compare.py a.jsonl b.jsonl
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summary(path: str) -> dict:
    """metric -> its ``--steady`` summary record."""
    out = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "metric" in rec and "spread" in rec:
                out[rec["metric"]] = rec
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    first, second = summary(argv[0]), summary(argv[1])
    ok = True
    for name in sorted(set(first) & set(second)):
        a, b = first[name], second[name]
        bound = spec[name].get("bound")
        sign = 1.0 if spec[name]["better"] == "lower" else -1.0
        change = (sign * (b["median"] - a["median"]) / a["median"]
                  if a["median"] else 0.0)
        row = {"metric": name, "median_1": a["median"],
               "median_2": b["median"], "worse_by": round(change, 4),
               "spread_1": round(a["spread"], 4),
               "spread_2": round(b["spread"], 4), "bound": bound}
        if bound is not None:
            spread_ok = (name == "setup_s"
                         or max(a["spread"], b["spread"]) <= bound)
            row["within_bound"] = spread_ok and change <= bound
            ok = ok and row["within_bound"]
        print(json.dumps(row))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
