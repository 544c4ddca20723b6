"""Read benchmark result sets (JSON lines written by ``sweep.py``) and print
one row per workload x end-to-end metric.

    python3 perfbench/compare.py BASE.jsonl            # spread of one set
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

Each side shows the median and quartiles (``statistics.quantiles(n=4)``)
of its runs. ``spread`` is the quartile distance as a share of the median.
The verdict follows the bound BENCHMARK.json fixes for the metric:

* ``unresolved``: a side's spread is wider than the bound, and NEW's runs
  do not all read better than all of BASE's;
* ``worse``: NEW's median is worse than BASE's by more than the bound;
* ``better``: every NEW run reads better than every BASE run;
* ``within bound`` otherwise.

With one set the verdict is ``steady`` when the spread is below a third of
the bound, ``ok`` when below the bound and ``too wide`` otherwise. Every
metric, ``setup_s`` included, is judged the same way.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values of the untraced runs in a result set."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, metric in record["result"]["metrics"].items():
                values[(record["workload"], name)].append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def end_to_end_metrics() -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)["end_to_end"]


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` reads than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return change if better == "lower" else -change


def verdict(base: list[float], new: list[float], metric: dict) -> str:
    bound, better = metric["bound"], metric["better"]
    reads_better = (lambda n, b: n < b) if better == "lower" else (lambda n, b: n > b)
    if all(reads_better(n, b) for n in new for b in base):
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    if worse_by(statistics.median(base), statistics.median(new), better) > bound:
        return "worse"
    return "within bound"


def steadiness(values: list[float], metric: dict) -> str:
    share = spread(values)
    if share < metric["bound"] / 3:
        return "steady"
    return "ok" if share <= metric["bound"] else "too wide"


def side(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:12.5g} [{q1:.5g}, {q3:.5g}] n={len(values)} spread={spread(values):.3f}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(path) for path in argv]
    workloads = sorted({workload for workload, _name in sets[0]})
    failed = 0
    for workload in workloads:
        for metric in end_to_end_metrics():
            key = (workload, metric["name"])
            if any(key not in values for values in sets):
                continue
            if len(sets) == 1:
                mark = steadiness(sets[0][key], metric)
                row = side(sets[0][key])
            else:
                mark = verdict(sets[0][key], sets[1][key], metric)
                change = worse_by(statistics.median(sets[0][key]), statistics.median(sets[1][key]), metric["better"])
                row = f"{side(sets[0][key])} | {side(sets[1][key])} | worse by {change:+.3f}"
            failed += mark in ("too wide", "worse", "unresolved")
            print(f"{workload:12s} {metric['name']:18s} bound {metric['bound']:.2f} {mark:12s} {row}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
