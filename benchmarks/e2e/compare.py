#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

Usage, from the repository root::

    python benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json ...

Each file is a ``run.py --out`` result.  Side A is the reference (the
parent commit), side B the candidate.  For every workload x end-to-end
metric the tool prints both sides' median and quartiles, the metric's
regression bound, and a verdict:

* ``unresolved``: either side's spread (quartile distance over median)
  is wider than the bound, unless every B run beats every A run;
* ``worse`` / ``better``: B's median differs from A's by more than the
  bound, in the metric's bad / good direction;
* ``within bound``: otherwise.

It also prints each side's share of failed operations.  The metrics
``metrics.json`` adds are compared the same way and marked as reported;
the exit status is 0 only when every gated (``BENCHMARK.json``) verdict
is ``within bound``, which is how two sets of runs of one commit are
checked to agree.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def bounds() -> Dict[str, dict]:
    """Direction, bound and gating of every end-to-end metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    extra = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    out = {m["name"]: {**m, "gated": False} for m in extra["workload_metrics"]}
    out.update({m["name"]: {**m, "gated": True} for m in spec["end_to_end"]})
    return out


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    """Judge candidate runs ``b`` against reference runs ``a``."""
    sign = 1.0 if better == "lower" else -1.0
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    # A zero bound (error rates) compares the medians exactly.
    if bound > 0 and (spread(a) > bound or spread(b) > bound):
        return "better" if all_better else "unresolved"
    med_a, med_b = statistics.median(a), statistics.median(b)
    # Positive change = worse, in units of the reference median.
    change = sign * (med_b - med_a) / abs(med_a) if med_a else \
        sign * (med_b - med_a)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def load(paths: Sequence[str]) -> List[dict]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def collect(docs: List[dict]):
    """``{workload: {metric: [values]}}`` and failed/attempted totals."""
    values: Dict[str, Dict[str, List[float]]] = {}
    ops: Dict[str, List[int]] = {}
    for doc in docs:
        for workload, record in doc["workloads"].items():
            per = values.setdefault(workload, {})
            for name, entry in record["metrics"].items():
                if entry["value"] is not None:
                    per.setdefault(name, []).append(entry["value"])
            totals = ops.setdefault(workload, [0, 0])
            totals[0] += record["failed"]
            totals[1] += record["attempted"]
    return values, ops


def compare(side_a: List[dict], side_b: List[dict]) -> List[dict]:
    spec = bounds()
    values_a, _ = collect(side_a)
    values_b, _ = collect(side_b)
    rows = []
    for workload in values_a:
        for metric, a in values_a[workload].items():
            b = values_b.get(workload, {}).get(metric)
            if not b or metric not in spec:
                continue
            entry = spec[metric]
            rows.append({
                "workload": workload, "metric": metric,
                "unit": entry["unit"], "bound": entry["bound"],
                "gated": entry["gated"],
                "a": quartiles(a), "b": quartiles(b),
                "verdict": verdict(a, b, entry["better"], entry["bound"]),
            })
    return rows


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    side_a, side_b = load(argv[:split]), load(argv[split + 1:])
    if not side_a or not side_b:
        print("need at least one result file on each side", file=sys.stderr)
        return 2
    rows = compare(side_a, side_b)
    print(f"A: {len(side_a)} run(s)   B: {len(side_b)} run(s)   "
          f"(median [q1, q3] spread)")
    print(f"{'workload':<14} {'metric':<17} {'A':>38} {'B':>38} "
          f"{'bound':>6}  verdict")
    for row in sorted(rows, key=lambda r: not r["gated"]):
        a, b = row["a"], row["b"]
        kind = "" if row["gated"] else " (reported)"
        print(f"{row['workload']:<14} {row['metric']:<17} "
              f"{_cell(a, row['unit']):>38} {_cell(b, row['unit']):>38} "
              f"{row['bound']:>6.0%}  {row['verdict']}{kind}")
    _, ops_a = collect(side_a)
    _, ops_b = collect(side_b)
    for workload in ops_a:
        fa, na = ops_a[workload]
        fb, nb = ops_b.get(workload, (0, 0))
        print(f"{workload:<14} failed operations: A {fa}/{na}   "
              f"B {fb}/{nb}")
    agree = all(row["verdict"] == "within bound" for row in rows
                if row["gated"])
    print("all gated metrics within bound" if agree
          else "not all gated metrics within bound")
    return 0 if agree else 1


def _cell(q, unit: str) -> str:
    q1, median, q3 = q
    share = (q3 - q1) / abs(median) if median else 0.0
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] {unit} {share:4.0%}"


if __name__ == "__main__":
    sys.exit(main())
