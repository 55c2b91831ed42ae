"""Tests of the benchmark itself: inputs, names, checks and trace counts.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.checks import check, load_records  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = load_records()


def written_bytes(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    jobs = Workload(workload, seed).write_round(0, directory)
    return {job.path.name: job.path.read_bytes() for job in jobs}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    first = written_bytes(workload, 7, tmp_path / "a")
    again = written_bytes(workload, 7, tmp_path / "b")
    other = written_bytes(workload, 8, tmp_path / "c")
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_full_run_reads_every_input_once(workload, tmp_path):
    """A run covers each labeling once; no two instance sets share a file's
    bytes, and in-process commands of one set never share an input."""
    w = Workload(workload, 7)
    rounds = w.rounds(BENCH["run_seconds"])
    assert rounds == w.labelings == w.rounds(10 * BENCH["run_seconds"])
    seen = set()
    for r in range(rounds):
        inputs = {job.path.read_bytes() for job in w.write_round(r, tmp_path / f"r{r}")}
        assert not inputs & seen
        seen |= inputs
    per_set = len(w.write_round(0, tmp_path / "again"))
    assert len(seen) == rounds * (1 if workload == "seasons" else per_set)


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    layer = [(name, unit) for name, unit, *_ in run.LAYER_METRICS]
    assert layer == [(m["name"], m["unit"]) for m in BENCH["per_layer"]]
    assert {m["name"] for m in BENCH["end_to_end"]} == {"total_s", "setup_s", "peak_rss_mb"}


def test_untraced_run_emits_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "seasons", "--seed", "3", "--seconds", "0.01", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # One instance set: the season and ratings commands.
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def traced_metrics(capsys, workload: str, seed: int) -> dict:
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"]
    assert [k for k in result["metrics"]] == [m["name"] for m in BENCH["per_layer"]]
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_traced_counts_repeat_exactly(capsys):
    first = traced_metrics(capsys, "seasons", 5)
    second = traced_metrics(capsys, "seasons", 5)
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["lop.solve_lop.nodes"] > 0 and first["lop.optima"] > 0
    # season_report solves once directly and once inside enumerate_optima.
    assert first["sports.lop_calls_per_season"] == 2
    assert first["sports.season_report.calls"] == 10


def matrix_job(tmp_path, command: str):
    jobs = Workload("tables", 0).write([0] * 6, tmp_path)
    return next(j for j in jobs if j.command == command and j.record_keys[0].startswith("tables/0/"))


@pytest.mark.parametrize("command", ["lop", "enumerate", "kappa"])
def test_recorded_output_passes(tmp_path, command):
    job = matrix_job(tmp_path, command)
    code, stdout, _ = run.run_in_process(job)
    assert check(job, code, stdout, RECORDS) == []


@pytest.mark.parametrize(
    "command, corrupt",
    [
        ("lop", lambda p: p.update(k_star=p["k_star"] + 1)),
        ("lop", lambda p: p.update(ranking=p["ranking"][::-1])),
        ("enumerate", lambda p: p["rankings"].insert(0, p["rankings"].pop())),
        ("enumerate", lambda p: p.update(rankings=p["rankings"][:-1], count=p["count"] - 1)),
        ("kappa", lambda p: p.update(kappa=p["kappa"] + 1)),
        ("kappa", lambda p: p.update(proven=False)),
        ("kappa", lambda p: p.pop("pair")),
    ],
)
def test_corrupted_output_fails_its_check(tmp_path, command, corrupt):
    job = matrix_job(tmp_path, command)
    code, stdout, _ = run.run_in_process(job)
    payload = json.loads(stdout)
    corrupt(payload)
    problems = check(job, code, json.dumps(payload, indent=2) + "\n", RECORDS)
    # Caught by a value check, not only by the changed digest.
    assert any("digest" not in p for p in problems)
    assert check(job, 1, stdout, RECORDS)


def test_corrupted_season_fails_its_check(tmp_path):
    job = Workload("seasons", 0).write([0] * 10, tmp_path)[0]
    code, stdout, _ = run.run_in_process(job)
    assert check(job, code, stdout, RECORDS) == []
    payload = json.loads(stdout)
    payload["seasons"][3]["k_star"] += 0.5
    assert check(job, code, json.dumps(payload, indent=2) + "\n", RECORDS)


def test_missing_program_fails_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "tables", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
