"""Compare two benchmark result files, one row per workload and metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result file holds the JSON lines that ``run.py --out`` (or sweep.py)
appends, one per run. Each row shows both sides' median and quartiles
over their runs, the ratio new/base with its base, and a verdict:

- ``better``: every new run beats every base run, or the new median is
  better by more than the base runs' own spread (quartile distance over
  median) and wins at least 90% of all base/new pairs;
- ``unresolved``: either side's spread exceeds the metric's bound;
- ``worse``: the new median is worse by more than the bound;
- ``unchanged``: otherwise.

Bounds and directions come from BENCHMARK.json; metrics it does not list
(the per-command breakdown) use the loosest end-to-end bound and count as
better when lower. Counts (unit ``count``) are exact: any difference is
better or worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load_spec() -> dict[str, dict]:
    """Metric name -> {unit, better, bound} from BENCHMARK.json."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    loosest = max(m["bound"] for m in spec["end_to_end"])
    metrics = {m["name"]: dict(m) for m in spec["per_layer"]}
    metrics.update({m["name"]: dict(m) for m in spec["end_to_end"]})
    for m in metrics.values():
        m.setdefault("bound", loosest)
    metrics["_default"] = {"better": "lower", "bound": loosest}
    return metrics


def load_results(path: Path) -> dict[tuple[str, str, str], list[float]]:
    """(workload, metric, unit) -> values over the file's runs."""
    values: dict[tuple[str, str, str], list[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            for group in ("metrics", "extra"):
                for name, entry in run.get(group, {}).items():
                    values[(run["workload"], name, entry["unit"])].append(entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 when the median is 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: list[float], new: list[float], unit: str, lower_better: bool, bound: float) -> str:
    sign = 1.0 if lower_better else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    if unit == "count":
        if mb == mn:
            return "unchanged"
        return "better" if sign * (mn - mb) < 0 else "worse"
    if all(sign * n < sign * b for n in new for b in base):
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    if mb == 0:
        return "unchanged" if mn == 0 else ("better" if sign * mn < 0 else "worse")
    worse_by = sign * (mn - mb) / abs(mb)
    if worse_by > bound:
        return "worse"
    wins = sum(sign * n < sign * b for n in new for b in base) / (len(new) * len(base))
    if -worse_by > spread(base) and wins >= 0.9:
        return "better"
    return "unchanged"


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def compare(base_path: Path, new_path: Path, out=sys.stdout) -> int:
    spec = load_spec()
    base, new = load_results(base_path), load_results(new_path)
    row = "{:10s} {:30s} {:6s} {:>28s} {:>28s} {:>20s}  {}"
    print(row.format("workload", "metric", "unit", "base median [q1, q3]",
                     "new median [q1, q3]", "new/base", "verdict (runs)"), file=out)
    for key in sorted(set(base) & set(new)):
        workload, name, unit = key
        m = spec.get(name, spec["_default"])
        b, n = base[key], new[key]
        qb, qn = quartiles(b), quartiles(n)
        ratio = f"{qn[1] / qb[1]:.3f} of {qb[1]:.4g}" if qb[1] else "base is 0"
        result = verdict(b, n, unit, m["better"] == "lower", m["bound"])
        print(row.format(workload, name, unit, _cell(qb), _cell(qn), ratio,
                         f"{result} ({len(b)}/{len(n)})"), file=out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
