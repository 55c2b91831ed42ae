"""Regenerate expected.json from the program in src/.

    python3 perfbench/record.py

Run it at the commit whose outputs are the reference (the records in the
repository were taken at the seed commit). For every pool instance and
every one of its workload's LABELINGS relabelings it stores the canonical output
digest and the relabeling-invariant values (k*, optima count, kappa),
stops if those invariants differ between labelings, and re-checks every
output with checks.py before writing anything.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.checks import EXPECTED_PATH, block_digest, check, digest, invariants  # noqa: E402
from perfbench.run import WORK, run_in_process  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402


def record_workload(name: str, tmp: Path, records: dict) -> list:
    """Add one workload's records; return its (job, stdout) pairs."""
    workload = Workload(name, seed=0)
    outputs = []
    for labeling in range(workload.labelings):
        jobs = workload.write([labeling] * workload.pool_size, tmp / f"{name}-{labeling}")
        for job in jobs:
            code, stdout, _ = run_in_process(job)
            if code != 0:
                raise SystemExit(f"{job.record_keys[0]}: exit code {code}")
            payload = json.loads(stdout)
            if job.weights is not None:
                records[job.record_keys[0]] = {
                    "sha256": digest(stdout), **invariants(job.command, payload)
                }
            else:
                for key, block in zip(job.record_keys, payload["seasons"]):
                    records[key] = {
                        "sha256": block_digest(block), **invariants(job.command, block)
                    }
            outputs.append((job, stdout))
    # Invariants must agree across labelings; enumerate records borrow lop's k*.
    by_instance: dict[str, dict] = {}
    for key, record in records.items():
        if not key.startswith(name + "/"):
            continue
        _, pool_id, _, command = key.split("/")
        values = {k: v for k, v in record.items() if k != "sha256"}
        seen = by_instance.setdefault(f"{pool_id}/{command}", values)
        if seen != values:
            raise SystemExit(f"{key}: {values} differs from another labeling's {seen}")
    for key, record in records.items():
        if key.startswith(name + "/") and key.endswith("/enumerate"):
            _, pool_id, _, _ = key.split("/")
            record["k_star"] = by_instance[f"{pool_id}/lop"]["k_star"]
    return outputs


def main() -> int:
    records: dict = {}
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="record-", dir=WORK) as tmpdir:
        for name in WORKLOADS:
            outputs = record_workload(name, Path(tmpdir), records)
            for job, stdout in outputs:
                problems = check(job, 0, stdout, records)
                if problems:
                    raise SystemExit("; ".join(problems))
            print(f"{name}: {len(outputs)} outputs recorded and re-checked", flush=True)
    EXPECTED_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
