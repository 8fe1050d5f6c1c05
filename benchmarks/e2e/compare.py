#!/usr/bin/env python3
"""Compare two bench_e2e reports: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload): both medians with their
quartiles, the ratio B/A, and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``same`` — B's median is within the bound of A's, either way;
* ``worse`` / ``better`` — it moved by more than the bound;
* ``unresolved`` — the spread between the quartiles of either report is
  wider than the bound, so a move of that size cannot be told from noise
  (unless every sample of B lies on one side of every sample of A).

A is the base of every ratio.  Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """Classify summary ``b`` against base ``a`` (see module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if spread > bound:
        gaps = [sign * (y - x) for x in a["samples"] for y in b["samples"]]
        if all(g < 0 for g in gaps):
            return "better"
        if all(g > 0 for g in gaps) and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(rep_a: dict, rep_b: dict, spec: dict) -> list[dict]:
    """Rows for every workload present in both reports."""
    rows = []
    for w in spec["workloads"]:
        wa = rep_a["workloads"].get(w["name"])
        wb = rep_b["workloads"].get(w["name"])
        if wa is None or wb is None:
            continue
        for m in spec["end_to_end"]:
            a = wa["end_to_end"].get(m["name"])
            b = wb["end_to_end"].get(m["name"])
            if a is None or b is None:
                status = "missing"
            else:
                status = verdict(a, b, m["bound"], m["better"])
            rows.append({"workload": w["name"], "metric": m["name"],
                         "unit": m["unit"], "a": a, "b": b,
                         "verdict": status})
        # Failures have no tolerance: any difference is a verdict.
        fa, fb = wa["failed_ops_frac"], wb["failed_ops_frac"]
        rows.append({
            "workload": w["name"], "metric": "failed_ops_frac",
            "unit": "ratio",
            "a": {"median": fa, "q1": fa, "q3": fa},
            "b": {"median": fb, "q1": fb, "q3": fb},
            "verdict": "same" if fa == fb else
                       "worse" if fb > fa else "better",
        })
    return rows


def _cell(s: dict | None) -> str:
    if s is None:
        return f"{'-':>34}"
    return f"{s['median']:>12.5g} [{s['q1']:>9.4g},{s['q3']:>9.4g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        rep_a = json.load(fh)
    with open(argv[2]) as fh:
        rep_b = json.load(fh)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if rep_a.get("seed") != rep_b.get("seed"):
        print(f"note: seeds differ (A {rep_a.get('seed')}, "
              f"B {rep_b.get('seed')})")
    rows = compare(rep_a, rep_b, spec)
    print(f"{'workload':<24}{'metric':<22}{'unit':<9}"
          f"{'A median [q1,q3]':>34}{'B median [q1,q3]':>34}"
          f"{'B/A':>8}  verdict")
    for r in rows:
        a, b = r["a"], r["b"]
        ratio = (f"{b['median'] / a['median']:>8.3f}"
                 if a and b and a["median"] else f"{'-':>8}")
        print(f"{r['workload']:<24}{r['metric']:<22}{r['unit']:<9}"
              f"{_cell(a)}{_cell(b)}{ratio}  {r['verdict']}")
    counts: dict[str, int] = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
