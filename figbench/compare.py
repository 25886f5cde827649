"""Compare two benchmark result files (``run.py --out``) metric by metric.

    python3 figbench/compare.py BASE.json NEW.json
    python3 figbench/compare.py a1.json,a2.json,... b1.json,b2.json,...

A side given as one result file has one sample per round.  A side given
as a comma-separated list of result files has one sample per file, the
file's median, in order: runs are compared as the benchmark's bounds
define them, and alternating one-round runs of two commits form pairs.

For each workload and end-to-end metric it prints both sides' median,
quartiles and sample count, the change of the medians, and a verdict
against the metric's bound in BENCHMARK.json:

* ``regressed``: NEW's median is worse than BASE's by more than the bound;
* ``unresolved``: a side's spread (quartile distance over median) is
  wider than the bound, unless every run of one side beats every run of
  the other;
* ``improved``: NEW's median is better by more than BASE's own spread,
  and NEW won at least nine in ten pairs (or, unpaired, every run);
* ``slower``: the mirror of ``improved`` for a worsening within the
  bound.  The bound is as wide as run-to-run noise on a shared host
  requires, so a smaller slowdown that shows in nearly every pair is
  reported, though it does not fail the comparison;
* ``ok``: otherwise.

When both sides hold the same number of rounds, rounds are taken as
alternating pairs and the pairs NEW won are reported.  Per-layer metrics
print side by side; the exact ones (units ``count`` and ``ratio``) must
match, and any difference is reported.  Exits 1 on a regression or a
differing exact metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from run import EXACT_UNITS, load_benchmark, quartiles


def _spread(summary: Dict[str, float]) -> float:
    return ((summary["q3"] - summary["q1"]) / summary["median"]
            if summary["median"] else 0.0)


def verdict(base: Sequence[float], new: Sequence[float], bound: float,
            lower_is_better: bool) -> Tuple[str, float, Optional[str]]:
    """``(verdict, relative change, pairs won)`` of one metric; a
    positive change is a worsening."""
    sign = 1.0 if lower_is_better else -1.0
    a, b = quartiles(base), quartiles(new)
    change = sign * (b["median"] - a["median"]) / a["median"]
    # Signed so that lower is better on both sides.
    cost_a = [sign * v for v in base]
    cost_b = [sign * v for v in new]
    beats = [y < x for x, y in zip(cost_a, cost_b)]
    pairs = (f"{sum(beats)}/{len(beats)}" if len(base) == len(new)
             else None)
    new_all_better = max(cost_b) < min(cost_a)
    new_all_worse = min(cost_b) > max(cost_a)
    if (max(_spread(a), _spread(b)) > bound
            and not (new_all_better or new_all_worse)):
        return "unresolved", change, pairs
    if change > bound:
        return "regressed", change, pairs
    won = (sum(beats) >= 0.9 * len(beats) if pairs is not None
           else new_all_better)
    if -change > _spread(a) and won:
        return "improved", change, pairs
    lost = (sum(y > x for x, y in zip(cost_a, cost_b)) >= 0.9 * len(beats)
            if pairs is not None else new_all_worse)
    if change > _spread(a) and lost:
        return "slower", change, pairs
    return "ok", change, pairs


def load_side(paths: str) -> dict:
    """One side of the comparison from the result files in ``paths``
    (comma-separated): the rounds of a single file, or each file's
    median."""
    side: dict = {"workloads": {}}
    files = paths.split(",")
    for path in files:
        with open(path, encoding="utf-8") as handle:
            results = json.load(handle)
        for name, entry in results["workloads"].items():
            merged = side["workloads"].setdefault(
                name, {"samples": {}, "attempted": 0, "failed": 0})
            for metric, values in entry["samples"].items():
                merged["samples"].setdefault(metric, []).extend(
                    values if len(files) == 1
                    else [statistics.median(values)])
            merged["attempted"] += entry["attempted"]
            merged["failed"] += entry["failed"]
            if "per_layer" in entry:
                merged.setdefault("per_layer", entry["per_layer"])
    return side


def _fmt(summary: Dict[str, float]) -> str:
    return (f"{summary['median']:.4g} [{summary['q1']:.4g}, "
            f"{summary['q3']:.4g}] n={summary['n']}")


def compare(base: dict, new: dict, spec: Dict[str, Dict[str, dict]]
            ) -> Tuple[List[List[str]], bool]:
    """Table rows and whether anything regressed or differs."""
    rows: List[List[str]] = []
    bad = False
    for name in sorted(set(base["workloads"]) & set(new["workloads"])):
        a, b = base["workloads"][name], new["workloads"][name]
        for metric, m in spec["end_to_end"].items():
            result, change, pairs = verdict(
                a["samples"][metric], b["samples"][metric], m["bound"],
                m["better"] == "lower")
            bad |= result == "regressed"
            rows.append([name, metric, _fmt(quartiles(a["samples"][metric])),
                         _fmt(quartiles(b["samples"][metric])),
                         f"{100 * change:+.1f}%", result, pairs or "-"])
        fa = a["failed"] / a["attempted"] if a["attempted"] else 1.0
        fb = b["failed"] / b["attempted"] if b["attempted"] else 1.0
        result = "regressed" if fb > fa else "ok"
        bad |= result == "regressed"
        rows.append([name, "ops_failed_frac", f"{fa:.4g}", f"{fb:.4g}", "-",
                     result, "-"])
        if "per_layer" not in a or "per_layer" not in b:
            continue
        for metric, m in spec["per_layer"].items():
            if metric not in a["per_layer"] or metric not in b["per_layer"]:
                continue
            va, vb = a["per_layer"][metric], b["per_layer"][metric]
            if m["unit"] in EXACT_UNITS:
                result = "ok" if va == vb else "differs"
                bad |= result == "differs"
            else:
                result = "-"
            rows.append([name, metric, f"{va:.6g}", f"{vb:.6g}", "-",
                         result, "-"])
    return rows, bad


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two figbench result files.")
    parser.add_argument("base", help="result file(s) of the parent commit")
    parser.add_argument("new", help="result file(s) of the change")
    args = parser.parse_args(argv)
    rows, bad = compare(load_side(args.base), load_side(args.new),
                        load_benchmark())
    header = ["workload", "metric", "base median [q1, q3] n",
              "new median [q1, q3] n", "change", "verdict", "pairs won"]
    widths = [max(len(row[i]) for row in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
