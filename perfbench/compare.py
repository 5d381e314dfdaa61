"""Compare two sets of benchmark run records, or summarise one.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RECORDS_DIR

Each directory holds run records written by run.py (searched
recursively; traced runs are ignored). Run parent and change alternately,
with the same --seconds, so that the i-th parent run and the i-th change
run of a workload form a pair.

For each workload and end-to-end metric of BENCHMARK.json the verdict is:
  improved    the change wins at least 9 of 10 pairs (ties count for
              neither side), and the medians differ, in its favour, by more
              than the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound (a regression), or the rule for improved
              holds with the sides swapped (a loss within the bound)
  unchanged   none of these, with at least 10 pairs, and the parent's
              interquartile range within the bound
  unresolved  fewer than 10 pairs, or the parent's spread is wider than
              the bound and not every change run beats every parent run
With one directory it prints each metric's median, quartiles and spread
(interquartile range over median) per workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[str, list[dict]]:
    """Untraced run records by workload, in the order they were started."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started_unix"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    enough = len(pairs) >= MIN_PAIRS
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    q1, med_p, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - med_p)
    if enough and wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "improved"
    if -gain > bound * abs(med_p):
        return "worse (beyond bound)"
    if enough and losses >= WIN_SHARE * len(pairs) and -gain > q3 - q1:
        return "worse (within bound)"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if not enough or ((q3 - q1) > bound * abs(med_p) and not all_better):
        return "unresolved"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    metrics = spec["end_to_end"]
    sets = [load(Path(a)) for a in argv]
    workloads = [w["name"] for w in spec["workloads"] if all(w["name"] in s for s in sets)]
    if not workloads:
        print("error: no workload has untraced records in every directory", file=sys.stderr)
        return 1
    for name in workloads:
        for m in metrics:
            series = [[r["metrics"][m["name"]] for r in s[name]] for s in sets]
            cells = []
            for values in series:
                q1, med, q3 = quartiles(values)
                cells.append(f"median {med:.6g} [{q1:.6g}, {q3:.6g}] spread "
                             f"{(q3 - q1) / abs(med):.1%} n={len(values)}")
            line = f"{name:18s} {m['name']:12s} {m['unit']:4s} " + " | ".join(cells)
            if len(series) == 2:
                line += f" -> {verdict(series[0], series[1], m['better'], m['bound'])}" \
                        f" (bound {m['bound']:.0%})"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
