"""Summarise one result set, or compare two, from ``run.py --record`` files.

    python3 bench/compare.py BASE.jsonl            # spread of each metric
    python3 bench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

One row per workload and metric: median and quartiles of each side, the
spread (quartile distance over median), and for two sets the ratio NEW/BASE
with BASE as its base.  A metric is "unresolved" when a side's spread
exceeds its bound, unless every NEW run beats every BASE run.  Output
digests of runs with the same workload and seed are compared; a changed
digest is flagged, not failed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# bounds of the figures reported beside the BENCHMARK.json end-to-end metrics
EXTRA = {
    "job_p50_ms": ("lower", 0.25),
    "job_tail_ms": ("lower", 0.25),
    "peak_rss_mb": ("lower", 0.2),
    "points_per_s": ("higher", 0.15),
    "triangles_per_s": ("higher", 0.15),
    "fail_ratio": ("lower", 0.0),
}


def load(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def _groups(records: list) -> dict:
    out = defaultdict(lambda: defaultdict(list))
    for rec in records:
        for name, m in rec["metrics"].items():
            out[(rec["workload"], rec["trace"])][name].append(m["value"])
    return out


def _rules() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    rules = dict(EXTRA)
    rules.update({m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]})
    rules.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})
    return rules


def _fmt(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}]"


def summarise(records: list) -> list:
    rules = _rules()
    rows = []
    for (workload, trace), metrics in sorted(_groups(records).items()):
        for name, values in metrics.items():
            better, bound = rules.get(name, ("lower", None))
            s = spread(values)
            if not bound:
                status = "-"
            elif s > bound:
                status = "unresolved"
            else:
                status = "steady" if s < bound / 3 else "within bound"
            bound_txt = "-" if not bound else f"{bound:g}"
            rows.append(f"{workload:16s} {name:30s} n={len(values):<3d} {_fmt(values)} "
                        f"spread {s:.4f} bound {bound_txt:5s} {status}")
    return rows


def compare(base: list, new: list) -> list:
    rules = _rules()
    gb, gn = _groups(base), _groups(new)
    rows = []
    for key in sorted(set(gb) & set(gn)):
        workload, trace = key
        for name in gb[key]:
            a, b = gb[key][name], gn[key].get(name)
            if not b:
                rows.append(f"{workload:16s} {name:30s} missing in NEW")
                continue
            better, bound = rules.get(name, ("lower", None))
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = mb / ma if ma else float("nan")
            sign = 1.0 if better == "lower" else -1.0
            if bound is None:
                status = "-"
            elif all(sign * y < sign * x for x in a for y in b):
                status = "better in every run"
            elif max(spread(a), spread(b)) > bound:
                status = "unresolved"
            elif bound == 0.0:
                status = "worse" if sign * (mb - ma) > 0 else "same"
            elif sign * (mb - ma) > bound * abs(ma):
                status = "worse"
            elif sign * (ma - mb) > bound * abs(ma):
                status = "better"
            else:
                status = "same"
            rows.append(f"{workload:16s} {name:30s} base {_fmt(a)}  new {_fmt(b)}  "
                        f"new/base {ratio:.4f} (base {ma:.5g})  {status}")
    digests = defaultdict(dict)
    for side, recs in (("base", base), ("new", new)):
        for rec in recs:
            digests[(rec["workload"], rec["seed"])].setdefault(side, set()).add(rec["digest"])
    for (workload, seed), d in sorted(digests.items()):
        if len(d) == 2 and d["base"] != d["new"]:
            rows.append(f"{workload:16s} seed {seed}: output digest changed")
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    rows = summarise(load(argv[0])) if len(argv) == 1 else compare(load(argv[0]), load(argv[1]))
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
