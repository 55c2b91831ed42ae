"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/results/base.jsonl
    python3 perfbench/sweep.py --seeds 1 --trace 1 --out perfbench/results/trace.jsonl

Each run is a fresh ``run.py`` process, for every workload of
BENCHMARK.json and every seed. Results are appended to
``--out`` (compare two such files with compare.py). The summary covers
every run in that file and prints, per workload and metric, the median,
the spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) and how it
sits against the metric's bound in BENCHMARK.json, plus the share of
commands that failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.compare import BENCHMARK, load_results, load_spec, spread  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 3,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    args.out.parent.mkdir(parents=True, exist_ok=True)

    failed = attempted = 0
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace), "--out", str(args.out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)

    spec = load_spec()
    print(f"\n{'workload':10s} {'metric':32s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for (workload, name, unit), values in sorted(load_results(args.out).items()):
        if workload not in workloads:
            continue
        bound = spec[name]["bound"] if name in spec else None
        flag = ""
        if bound is not None and name in {m["name"] for m in bench["end_to_end"]}:
            s = spread(values)
            flag = "ok" if s < bound / 3 else ("over 1/3 bound" if s < bound else "OVER BOUND")
        print(f"{workload:10s} {name:32s} {statistics.median(values):12.5g} "
              f"{spread(values):8.3f} {bound if bound is not None else '':>6} "
              f"{unit:6s} {flag} (n={len(values)})")
    print(f"\nerror_rate {failed / max(attempted, 1):.6g} ({failed} of {attempted} commands failed a check)")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
