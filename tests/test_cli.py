"""Tests for the command-line frontend.

Most tests drive main() in process and capture stdout; subprocess tests
check the module entry point end to end.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rankability import (
    OptimaSet,
    WeightMatrix,
    cli,
    kt_solution_from_rankings,
    lop,
    ranking_from_order,
    read_feature_table,
    read_matrix_csv,
    sports,
    validate_kt_solution,
    write_matrix_csv,
)
from rankability.cli import main
from rankability.errors import UndefinedMetricError

from tests.conftest import (
    COLLEGE_K_STAR,
    COLLEGE_LABELS,
    COLLEGE_OPTIMA_ORDERS,
    COLLEGE_TOTAL,
    DATA_DIR,
    DIGRAPH_KAPPA,
    DIGRAPH_LAMBDA,
    DIGRAPH_OPTIMA_COUNT,
    DIGRAPH_WEIGHTS,
)
from tests.test_lop import _league, _league_season_csv, _tenths_tournament

COLLEGE = str(DATA_DIR / "college_features.csv")


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    capsys.readouterr()
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def write_digraph_csv(tmp_path, which: int) -> str:
    path = tmp_path / f"digraph{which}.csv"
    rows = "\n".join(",".join(map(str, row)) for row in DIGRAPH_WEIGHTS[which])
    path.write_text(rows + "\n", encoding="utf-8")
    return str(path)


class TestLopCommand:
    def test_college_features_json(self, capsys):
        code, payload = run_json(
            capsys, "lop", "--input", COLLEGE, "--kind", "features"
        )
        assert code == 0
        assert payload["command"] == "lop"
        assert payload["k_star"] == COLLEGE_K_STAR
        assert payload["lambda"] == pytest.approx(COLLEGE_K_STAR / COLLEGE_TOTAL)
        assert payload["ranking"] == list(min(COLLEGE_OPTIMA_ORDERS))
        assert payload["labels"] == COLLEGE_LABELS
        assert payload["proven"] is True

    def test_lambda_uses_shortest_round_trip_float(self, capsys):
        code, out = run_cli(capsys, "lop", "--input", COLLEGE, "--kind", "features")
        assert code == 0
        assert '"lambda": 0.7511111111111111' in out

    @pytest.mark.parametrize("which", [1, 2, 3, 4])
    def test_digraphs_matrix_kind(self, capsys, tmp_path, which):
        path = write_digraph_csv(tmp_path, which)
        code, payload = run_json(capsys, "lop", "--input", path)
        assert code == 0
        assert payload["lambda"] == pytest.approx(DIGRAPH_LAMBDA[which])
        assert payload["labels"] is None
        assert sorted(payload["ranking"]) == [1, 2, 3]

    def test_csv_projection(self, capsys, tmp_path):
        path = write_digraph_csv(tmp_path, 3)
        code, out = run_cli(capsys, "lop", "--input", path, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["k_star", "lambda", "proven", "ranking"]
        assert rows[1][0] == "2.0"
        assert rows[1][2] == "true"
        assert rows[1][3].split() == ["1", "2", "3"]

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        code, out = run_cli(capsys, "lop", "--input", COLLEGE, "--kind", "features")
        target = tmp_path / "report.json"
        code2, out2 = run_cli(
            capsys, "lop", "--input", COLLEGE, "--kind", "features",
            "--output", str(target),
        )
        assert code == code2 == 0
        assert out2 == ""
        assert target.read_text(encoding="utf-8") == out


class TestKappaCommand:
    def test_college_with_cap_1(self, capsys):
        # The cap truncates the six optima, so the joint search finds the pair.
        code, payload = run_json(
            capsys, "kappa", "--input", COLLEGE, "--kind", "features", "--cap", "1"
        )
        assert code == 0
        assert payload["kappa"] == 3
        assert payload["concordant_count"] == 42
        assert payload["k_star"] == COLLEGE_K_STAR
        first, second = payload["pair"]
        assert tuple(first) in COLLEGE_OPTIMA_ORDERS
        assert tuple(second) in COLLEGE_OPTIMA_ORDERS
        assert first <= second

    @pytest.mark.parametrize("which", [1, 2, 3, 4])
    def test_digraph_kappa(self, capsys, tmp_path, which):
        path = write_digraph_csv(tmp_path, which)
        code, payload = run_json(capsys, "kappa", "--input", path)
        assert code == 0
        assert payload["kappa"] == DIGRAPH_KAPPA[which]

    def test_report_round_trips_through_validation(self, capsys, tmp_path):
        path = write_digraph_csv(tmp_path, 4)
        code, payload = run_json(capsys, "kappa", "--input", path)
        assert code == 0
        matrix = read_matrix_csv(path)
        pair = tuple(
            ranking_from_order(order) for order in payload["pair"]
        )
        solution = kt_solution_from_rankings(*pair)
        report = validate_kt_solution(matrix, payload["k_star"], solution)
        assert report.feasible
        assert report.passes_optimality_cuts

    def test_unproven_exits_2(self, capsys, tmp_path, hard_matrix_csv):
        code, _ = run_cli(
            capsys, "kappa", "--input", hard_matrix_csv, "--time-limit", "0.05"
        )
        assert code == 2

    def test_one_deadline_covers_the_whole_command(
        self, capsys, clock_jumps_after_solve
    ):
        code, out = run_cli(
            capsys, "kappa", "--input", COLLEGE, "--kind", "features",
            "--time-limit", str(clock_jumps_after_solve),
        )
        assert code == 2
        assert out == ""


def enumerate_stdout(matrix, optima) -> str:
    """enumerate's JSON output, as json.dumps renders its whole payload."""
    payload = {
        "command": "enumerate",
        "n": matrix.n,
        "labels": list(matrix.labels) if matrix.labels else None,
        "count": optima.count,
        "truncated": optima.truncated,
        "rankings": [[int(v) for v in r.order] for r in optima.rankings],
    }
    return json.dumps(payload, indent=2) + "\n"


class TestEnumerateCommand:
    def test_college_six_rankings_sorted(self, capsys):
        code, payload = run_json(
            capsys, "enumerate", "--input", COLLEGE, "--kind", "features"
        )
        assert code == 0
        assert payload["count"] == 6
        assert payload["truncated"] is False
        orders = [tuple(r) for r in payload["rankings"]]
        assert orders == sorted(COLLEGE_OPTIMA_ORDERS)

    @pytest.mark.parametrize("which", [1, 2, 3, 4])
    def test_digraph_counts(self, capsys, tmp_path, which):
        path = write_digraph_csv(tmp_path, which)
        code, payload = run_json(capsys, "enumerate", "--input", path)
        assert code == 0
        assert payload["count"] == DIGRAPH_OPTIMA_COUNT[which]

    def test_cap_truncates(self, capsys, tmp_path):
        path = write_digraph_csv(tmp_path, 4)
        code, payload = run_json(
            capsys, "enumerate", "--input", path, "--cap", "2"
        )
        assert code == 0
        assert payload["count"] == 2
        assert payload["truncated"] is True

    @pytest.mark.parametrize(("cap", "truncated"), [(6, False), (5, True)])
    def test_truncated_only_when_more_optima_than_the_cap(
        self, capsys, tmp_path, cap, truncated
    ):
        # digraph 4, all ones off the diagonal, has exactly six optima.
        path = write_digraph_csv(tmp_path, 4)
        code, payload = run_json(
            capsys, "enumerate", "--input", path, "--cap", str(cap)
        )
        assert code == 0
        assert payload["count"] == cap
        assert payload["truncated"] is truncated

    def test_time_limit_cut_exits_2(self, capsys, clock_jumps_after_solve):
        code, payload = run_json(
            capsys, "enumerate", "--input", COLLEGE, "--kind", "features",
            "--time-limit", str(clock_jumps_after_solve),
        )
        assert code == 2
        assert payload["count"] == 0
        assert payload["truncated"] is True

    @pytest.mark.parametrize(
        "fixture, count",
        [
            ("features", 6),  # labelled
            ("digraph1", 1),
            ("hidden20.csv", 15),  # two-digit items
        ],
    )
    def test_json_is_the_whole_payload_dumped(self, capsys, tmp_path, fixture, count):
        # The rankings are written as text; the bytes must be those of
        # json.dumps(payload, indent=2).
        if fixture == "features":
            argv, matrix = ["--kind", "features"], read_feature_table(COLLEGE)
            path = COLLEGE
        elif fixture == "digraph1":
            path = write_digraph_csv(tmp_path, 1)
            argv, matrix = [], read_matrix_csv(path)
        else:
            path = str(DATA_DIR / fixture)
            argv, matrix = [], read_matrix_csv(path)
        optima = lop.enumerate_optima(matrix)
        assert optima.count == count
        code, out = run_cli(capsys, "enumerate", "--input", path, *argv)
        assert code == 0
        assert out == enumerate_stdout(matrix, optima)

    def test_json_without_optima_is_the_whole_payload_dumped(
        self, capsys, clock_jumps_after_solve
    ):
        code, out = run_cli(
            capsys, "enumerate", "--input", COLLEGE, "--kind", "features",
            "--time-limit", str(clock_jumps_after_solve),
        )
        assert code == 2
        none = OptimaSet(rankings=(), truncated=True)
        assert out == enumerate_stdout(read_feature_table(COLLEGE), none)

    def test_output_file_holds_the_whole_payload_dumped(self, capsys, tmp_path):
        path = write_digraph_csv(tmp_path, 3)
        target = tmp_path / "optima.json"
        code, out = run_cli(
            capsys, "enumerate", "--input", path, "--output", str(target)
        )
        assert code == 0
        assert out == ""
        matrix = read_matrix_csv(path)
        expected = enumerate_stdout(matrix, lop.enumerate_optima(matrix))
        assert target.read_text(encoding="utf-8") == expected

    def test_csv_rows_are_the_orders(self, capsys):
        path = str(DATA_DIR / "hidden20.csv")
        code, out = run_cli(capsys, "enumerate", "--input", path, "--format", "csv")
        assert code == 0
        optima = lop.enumerate_optima(read_matrix_csv(path))
        expected = "index,ranking\n" + "".join(
            f"{k},{' '.join(map(str, r.order))}\n"
            for k, r in enumerate(optima.rankings, start=1)
        )
        assert out == expected

    def test_csv_projection(self, capsys, tmp_path):
        path = write_digraph_csv(tmp_path, 3)
        code, out = run_cli(
            capsys, "enumerate", "--input", path, "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "ranking"]
        assert len(rows) == 1 + DIGRAPH_OPTIMA_COUNT[3]
        assert rows[1] == ["1", "1 2 3"]


    @pytest.mark.parametrize(
        "count",
        [0, 1, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1, 2 * cli._BLOCK_ROWS + 1],
    )
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_blocks_of_orders_write_the_whole_output(
        self, capsys, tmp_path, monkeypatch, count, to_file
    ):
        # enumerate formats and writes its orders a block of rows at a
        # time; the bytes must be json.dumps(payload, indent=2) and the CSV
        # rows of the whole list, at the block's edges and on both sides.
        path = str(DATA_DIR / "hidden20.csv")
        matrix = read_matrix_csv(path)
        rng = np.random.default_rng(count)
        orders = np.array(
            [rng.permutation(matrix.n) + 1 for _ in range(count)], np.int8
        ).reshape(count, matrix.n)
        monkeypatch.setattr(cli, "_enumerate_orders", lambda a, cfg: (orders.copy(), False))
        rows = orders.tolist()
        payload = {
            "command": "enumerate",
            "n": matrix.n,
            "labels": None,
            "count": count,
            "truncated": False,
            "rankings": rows,
        }
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(
            [["index", "ranking"]]
            + [[k + 1, " ".join(map(str, order))] for k, order in enumerate(rows)]
        )
        expected = {"json": json.dumps(payload, indent=2) + "\n", "csv": buffer.getvalue()}
        for fmt, text in expected.items():
            target = tmp_path / f"optima.{fmt}"
            argv = ["--output", str(target)] if to_file else []
            code, out = run_cli(
                capsys, "enumerate", "--input", path, "--format", fmt, *argv
            )
            assert code == 0
            got = target.read_text(encoding="utf-8") if to_file else out
            # As lines, which pytest reports by the first that differs.
            assert got.splitlines(keepends=True) == text.splitlines(keepends=True)


class TestSeasonCommand:
    def test_digraph3_season_json(self, capsys):
        code, payload = run_json(
            capsys, "season", "--input", str(DATA_DIR / "digraph3_season.csv")
        )
        assert code == 0
        (report,) = payload["seasons"]
        assert report["season"] == 2001
        assert report["lambda"] == pytest.approx(2 / 3)
        assert report["kappa"] == 2
        assert report["optima_count"] == 3
        assert report["foresight"] == {}
        assert report["foresight_divergence"] is None
        assert report["hindsight"]["optimal"] == pytest.approx(2 / 3)
        assert report["proven"] is True

    def test_divergence4_csv_projection(self, capsys):
        code, out = run_cli(
            capsys, "season",
            "--input", str(DATA_DIR / "divergence4.csv"),
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "season", "lambda", "kappa", "k_star",
            "hind_opt", "hind_colley", "hind_massey",
            "fore_opt", "fore_colley", "fore_massey",
            "fore_opt_a", "fore_opt_b", "fore_abs_diff",
            "optima_count", "proven", "truncated",
        ]
        row = dict(zip(rows[0], rows[1]))
        assert row["season"] == "2002"
        assert float(row["lambda"]) == pytest.approx(6 / 7)
        assert row["kappa"] == "1"
        assert row["fore_abs_diff"] == "0.5"
        assert sorted([row["fore_opt_a"], row["fore_opt_b"]]) == ["0.5", "1.0"]
        assert row["proven"] == "true"

    def test_empty_foresight_cells_without_playoffs(self, capsys):
        code, out = run_cli(
            capsys, "season",
            "--input", str(DATA_DIR / "digraph3_season.csv"),
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        row = dict(zip(rows[0], rows[1]))
        for column in ("fore_opt", "fore_colley", "fore_massey",
                       "fore_opt_a", "fore_opt_b", "fore_abs_diff"):
            assert row[column] == ""

    def test_multi_season_with_aliases_and_strict_ties(self, capsys):
        code, payload = run_json(
            capsys, "season",
            "--input", str(DATA_DIR / "multi_season.csv"),
            "--aliases", str(DATA_DIR / "aliases.csv"),
            "--tie-mode", "strict",
        )
        assert code == 0
        seasons = payload["seasons"]
        assert [s["season"] for s in seasons] == [2010, 2011]
        assert payload["tie_mode"] == "strict"
        assert seasons[0]["teams"] == ["Bears", "Lions", "Owls", "St. Cats"]
        assert seasons[0]["lambda"] == pytest.approx(5.5 / 6)
        assert seasons[0]["hindsight"]["optimal"] == pytest.approx(5 / 6)
        assert seasons[1]["kappa"] == 2

    def test_one_deadline_covers_every_season(
        self, capsys, clock_creeps_after_solve
    ):
        # Each solve takes 0.6 limits: one season fits, two do not.
        limit = str(clock_creeps_after_solve)
        code, _ = run_cli(
            capsys, "season", "--input", str(DATA_DIR / "digraph3_season.csv"),
            "--time-limit", limit,
        )
        assert code == 0
        code, out = run_cli(
            capsys, "season", "--input", str(DATA_DIR / "multi_season.csv"),
            "--time-limit", limit,
        )
        assert code == 2
        assert out == ""

    def test_no_season_starts_after_the_deadline(self, capsys, monkeypatch):
        limit = 10.0
        offset = [0.0]
        monkeypatch.setattr(
            lop, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + offset[0])
        )
        reports = []

        def slow_report(gs, cfg, tie_mode):
            assert cfg.time_limit <= limit
            reports.append(sports.season_report(gs, cfg, tie_mode=tie_mode))
            offset[0] += 1.5 * limit
            return reports[-1]

        monkeypatch.setattr(cli, "season_report", slow_report)
        code, out = run_cli(
            capsys, "season", "--input", str(DATA_DIR / "multi_season.csv"),
            "--time-limit", str(limit),
        )
        assert code == 2
        assert out == ""
        assert len(reports) == 1

    def test_matrix_kind_rejected(self, capsys, tmp_path):
        path = write_digraph_csv(tmp_path, 3)
        with pytest.raises(SystemExit) as excinfo:
            main(["season", "--input", path, "--kind", "matrix"])
        assert excinfo.value.code == 1


class TestRatingsCommand:
    def test_multi_season_json(self, capsys):
        code, payload = run_json(
            capsys, "ratings",
            "--input", str(DATA_DIR / "multi_season.csv"),
            "--aliases", str(DATA_DIR / "aliases.csv"),
        )
        assert code == 0
        for block in payload["seasons"]:
            values = block["colley"]["values"]
            assert sum(values) / len(values) == pytest.approx(0.5)
            assert sum(block["massey"]["values"]) == pytest.approx(0.0, abs=1e-9)
            assert sorted(block["colley"]["ranking"]) == [1, 2, 3, 4]
            assert block["massey"]["connected"] is True

    def test_csv_rows_per_team(self, capsys):
        code, out = run_cli(
            capsys, "ratings",
            "--input", str(DATA_DIR / "digraph3_season.csv"),
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "season", "team", "colley_rating", "massey_rating",
            "colley_rank", "massey_rank",
        ]
        assert len(rows) == 4
        assert [r[1] for r in rows[1:]] == ["T1", "T2", "T3"]


COMMON_FLAGS = ("--input", "--format", "--output")
SOLVER_FLAGS = ("--time-limit",)

# The flags each subcommand reads; every other flag is a usage error.
COMMAND_FLAGS = {
    "lop": (*COMMON_FLAGS, "--kind", *SOLVER_FLAGS),
    "enumerate": (*COMMON_FLAGS, "--kind", *SOLVER_FLAGS, "--cap"),
    "kappa": (*COMMON_FLAGS, "--kind", *SOLVER_FLAGS, "--cap"),
    "season": (*COMMON_FLAGS, "--aliases", *SOLVER_FLAGS, "--cap", "--tie-mode"),
    "ratings": (*COMMON_FLAGS, "--aliases"),
}

# A value for every flag, the deleted --tolerance, --seed and --oracle
# too: each command rejects them (exit 1).
FLAG_VALUES = {
    "--input": ["y.csv"],
    "--format": ["csv"],
    "--output": ["out.json"],
    "--kind": ["features"],
    "--aliases": ["aliases.csv"],
    "--time-limit": ["5"],
    "--tolerance": ["1e-6"],
    "--seed": ["3"],
    "--cap": ["7"],
    "--oracle": [],
    "--tie-mode": ["strict"],
}


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "lop", "--input", "/no/such/file.csv")
        assert code == 1

    def test_empty_games_file(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "season,stage,team_a,team_b,score_a,score_b\n", encoding="utf-8"
        )
        code, _ = run_cli(capsys, "season", "--input", str(path))
        assert code == 1

    @pytest.mark.parametrize("command", ["season", "ratings"])
    def test_a_season_without_regular_games_is_named(self, capsys, tmp_path, command):
        # Season 2002 has a playoff game only.
        path = tmp_path / "no_regular_2002.csv"
        path.write_text(
            "season,stage,team_a,team_b,score_a,score_b\n"
            "2001,regular,A,B,3,1\n"
            "2001,regular,B,C,2,1\n"
            "2001,regular,C,A,0,1\n"
            "2002,playoff,A,B,1,0\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        code = main([command, "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"rankability {command}: season 2002 has no regular games\n"

    def test_malformed_matrix(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1,1\n0,0\n1,0,0\n", encoding="utf-8")
        code, _ = run_cli(capsys, "lop", "--input", str(path))
        assert code == 1

    def test_all_zero_matrix_is_an_undefined_metric(self, capsys, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("0,0,0\n0,0,0\n0,0,0\n", encoding="utf-8")
        args = cli._build_parser().parse_args(["lop", "--input", str(path)])
        message = "the degree of linearity is undefined for an all-zero matrix"
        with pytest.raises(UndefinedMetricError, match=message):
            cli.cmd_lop(args)
        capsys.readouterr()
        assert main(["lop", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rankability lop: {message}\n"

    def test_games_kind_rejected_for_lop(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "lop", "--input", str(DATA_DIR / "digraph3_season.csv"),
                "--kind", "games",
            ])
        assert excinfo.value.code == 1

    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lop", "--input", "x.csv", "--frobnicate"])
        assert excinfo.value.code == 1

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    @pytest.mark.parametrize("flag", list(FLAG_VALUES))
    def test_each_command_takes_only_its_flags(self, capsys, command, flag):
        argv = [command, "--input", "x.csv", flag, *FLAG_VALUES[flag]]
        parser = cli._build_parser()
        if flag in COMMAND_FLAGS[command]:
            parser.parse_args(argv)
            return
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv)
        assert excinfo.value.code == 1
        assert flag in capsys.readouterr().err

    def test_missing_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    @pytest.mark.parametrize("command", ["lop", "enumerate", "kappa"])
    def test_more_items_than_the_exact_searches_take_exits_1(
        self, capsys, tmp_path, command
    ):
        # A 0/1 tournament on 64 items, exact sums: its split row sums would
        # take 64 * 2^32 doubles a half, which once ended in a MemoryError.
        n = 64
        path = tmp_path / "big64.csv"
        rows = (",".join("1" if j > i else "0" for j in range(n)) for i in range(n))
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        capsys.readouterr()
        argv = [command, "--input", str(path), "--kind", "matrix", "--time-limit", "5"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"rankability {command}: the exact searches take at most "
            f"{lop._MAX_ITEMS} items, got n=64\n"
        )

    @pytest.mark.parametrize("command", ["lop", "enumerate", "kappa"])
    def test_large_finite_weights_are_solved(self, capsys, tmp_path, command):
        # total * n * n overflows here; an infinite slack once made the
        # heuristic's comparisons NaN.
        path = tmp_path / "large.csv"
        path.write_text("0,4e307\n4e307,0\n", encoding="utf-8")
        code, payload = run_json(capsys, command, "--input", str(path))
        assert code == 0
        if command == "lop":
            assert payload["k_star"] == 4e307
            assert payload["ranking"] == [1, 2]
        elif command == "enumerate":
            assert payload["rankings"] == [[1, 2], [2, 1]]
        else:
            assert payload["kappa"] == 1

    @pytest.mark.parametrize("command", ["lop", "enumerate", "kappa"])
    def test_weights_whose_total_overflows_exit_1(self, capsys, tmp_path, command):
        path = tmp_path / "huge.csv"
        path.write_text("0,8e307,8e307\n8e307,0,8e307\n8e307,8e307,0\n", encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"rankability {command}: {path}: weights too large: "
            "twice their total overflows\n"
        )

    def test_time_limit_unproven_exits_2(self, capsys, hard_matrix_csv):
        code, payload = run_json(
            capsys, "lop", "--input", hard_matrix_csv, "--time-limit", "0.05"
        )
        assert code == 2
        assert payload["proven"] is False


@pytest.fixture(scope="module")
def hard_matrix_csv(tmp_path_factory):
    """A p = 0.5 random tournament on 24 items, above the completion-table
    budget: its branch and bound cannot finish within 0.05 seconds."""
    import numpy as np

    rng = np.random.default_rng(5)
    n = 24
    wins = np.triu(rng.random((n, n)) < 0.5, 1).astype(int)
    a = wins + np.triu(1 - wins, 1).T
    path = tmp_path_factory.mktemp("hard") / "hard24.csv"
    rows = "\n".join(",".join(str(int(v)) for v in row) for row in a)
    path.write_text(rows + "\n", encoding="utf-8")
    return str(path)


class TestDeterminism:
    def test_byte_identical_across_runs(self, capsys):
        outputs = []
        for _ in range(4):
            code, out = run_cli(
                capsys, "kappa", "--input", COLLEGE, "--kind", "features"
            )
            assert code == 0
            outputs.append(out)
        assert all(o == outputs[0] for o in outputs[1:])

    def test_season_byte_identical(self, capsys):
        argv = ["season", "--input", str(DATA_DIR / "multi_season.csv"),
                "--aliases", str(DATA_DIR / "aliases.csv")]
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "rankability.cli", "lop",
             "--input", COLLEGE, "--kind", "features"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["k_star"] == COLLEGE_K_STAR

    def test_rounding_ties_end_the_heuristic(self):
        # Weights in tenths: many orders tie up to rounding, and a local
        # search that took moves gaining rounding alone never ended, time
        # limit or not.
        result = subprocess.run(
            [sys.executable, "-m", "rankability.cli", "lop",
             "--input", str(DATA_DIR / "tenths7.csv"), "--time-limit", "5"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["proven"] is True


# Runs the command line's main() on its arguments in a fresh interpreter
# and writes, as JSON on its last stderr line, the exit code,
# OPENBLAS_NUM_THREADS, the frozen object count, the thread count (None
# off Linux) and whether the environment is as it was before the import.
# The command's own output goes to stdout.
_RULES_PROBE = """\
import gc, json, os, sys
{before}
environ = dict(os.environ)
from rankability.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
tasks = "/proc/self/task"
sys.stderr.write(json.dumps({{
    "code": code,
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "frozen": gc.get_freeze_count(),
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    "environ_kept": dict(os.environ) == environ,
}}) + "\\n")
"""


def _run_probe(argv, before: str = "", **env: str) -> tuple[dict, bytes]:
    """The probe's report and the command's stdout bytes."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    child_env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    probe = _RULES_PROBE.format(before=before)
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env={**child_env, **env}, capture_output=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr.decode()
    report = json.loads(result.stderr.decode().splitlines()[-1])
    return report, result.stdout


def _probe_process_rules(before: str = "", **env: str) -> dict:
    argv = ("ratings", "--input", str(DATA_DIR / "multi_season.csv"), "--output", os.devnull)
    probe, _ = _run_probe(argv, before, **env)
    assert probe["code"] == 0
    return probe


def _input(name: str) -> tuple[str, ...]:
    return ("--input", str(DATA_DIR / name))


# (arguments, golden file) of runs whose stdout, in a process the command
# line owns, must equal the golden file.
OWNED_GOLDEN_RUNS = [
    (("season", *_input("multi_season.csv")), "season-multi_season.json"),
    (("ratings", *_input("multi_season.csv")), "ratings-multi_season.json"),
    (("ratings", *_input("multi_season.csv"), "--format", "csv"), "ratings-multi_season.csv"),
    (("kappa", *_input("tenths7.csv"), "--kind", "matrix", "--time-limit", "5"),
     "kappa-tenths7.json"),
]


class TestProcessRules:
    """A process the CLI owns (it imported the CLI before numpy) starts and
    exits lean; one that imported numpy first is left as it was."""

    def test_a_cli_owned_run_has_one_blas_thread_and_a_frozen_heap(self):
        probe = _probe_process_rules()
        assert probe["blas"] == "1"
        assert probe["frozen"] > 0
        if probe["threads"] is not None:
            assert probe["threads"] == 1

    def test_the_users_blas_setting_is_kept(self):
        probe = _probe_process_rules(OPENBLAS_NUM_THREADS="2")
        assert probe["blas"] == "2"
        assert probe["environ_kept"]
        assert probe["frozen"] > 0

    def test_the_users_omp_setting_is_kept_too(self):
        probe = _probe_process_rules(OMP_NUM_THREADS="2")
        assert probe["blas"] is None
        assert probe["environ_kept"]
        assert probe["frozen"] > 0

    def test_imported_after_numpy_it_changes_nothing(self):
        probe = _probe_process_rules(before="import numpy")
        assert probe["blas"] is None
        assert probe["environ_kept"]
        assert probe["frozen"] == 0

    @pytest.mark.parametrize(
        "argv, golden", OWNED_GOLDEN_RUNS, ids=[golden for _, golden in OWNED_GOLDEN_RUNS]
    )
    def test_a_cli_owned_run_prints_the_golden_bytes(self, argv, golden):
        probe, out = _run_probe(argv)
        assert probe["code"] == 0
        assert out == (DATA_DIR / "golden" / golden).read_bytes()


def test_tenths16_is_written_by_its_generator(tmp_path):
    # A p = 0.5 tournament at n = 16 in tenths (rng seed 1): float sums on
    # the completion table's route, pinned by the lop, enumerate and kappa
    # golden files below.
    path = tmp_path / "tenths16.csv"
    write_matrix_csv(WeightMatrix(_tenths_tournament(np.random.default_rng(1), 16)), path)
    assert path.read_bytes() == (DATA_DIR / "tenths16.csv").read_bytes()


def test_league20_games_is_written_by_its_generator():
    # A 20-team double round robin of goals (tests/test_lop.py::
    # _league_games, rng seed 1) and 4 playoff games among its 4 strongest
    # teams: the season golden file below, above the table budget.
    text = _league_season_csv(np.random.default_rng(1), 20)
    assert text.encode() == (DATA_DIR / "league20_games.csv").read_bytes()


def test_league32_is_written_by_its_generator(tmp_path):
    # League 32/1 (tests/test_lop.py::_league), whose lop golden file the
    # slow job compares.
    path = tmp_path / "league32.csv"
    write_matrix_csv(WeightMatrix(_league(np.random.default_rng(1), 32)), path)
    assert path.read_bytes() == (DATA_DIR / "league32.csv").read_bytes()


# (command, fixture, extra arguments) of each run pinned by a golden file:
# lop, enumerate and kappa read tests/data/<fixture>.csv as a matrix, and
# season as games. The console job of the CI replays them through the
# installed rankability script (python -m tests.test_cli lists them).
PINNED_RUNS = [
    ("lop", "tenths7", ()),
    ("lop", "tenths16", ()),
    ("lop", "points16", ()),
    ("enumerate", "tenths7", ()),
    ("enumerate", "tenths16", ()),
    ("enumerate", "points16", ()),
    ("enumerate", "tournament18", ()),
    ("enumerate", "hidden20", ()),
    ("enumerate", "fractional19", ()),
    ("kappa", "tenths7", ()),
    ("kappa", "tenths16", ()),
    ("kappa", "points16", ()),
    ("kappa", "tournament18", ()),
    ("kappa", "hidden20", ()),
    ("kappa", "tournament18", ("--cap", "10")),
    ("lop", "fractional19", ()),
    ("lop", "coin19", ()),
    ("lop", "hidden20", ()),
    ("lop", "hidden32", ()),
    ("lop", "hidden22", ()),
    ("lop", "tiers24", ()),
    ("lop", "tournament18", ()),
    ("lop", "tenths22", ()),
    ("lop", "tenths17", ()),
    ("enumerate", "tenths17", ()),
    ("kappa", "tenths17", ()),
    ("lop", "halves16", ()),
    ("enumerate", "halves16", ()),
    ("kappa", "halves16", ()),
    ("enumerate", "tournament18", ("--format", "csv")),
    ("kappa", "halves16", ("--cap", "1")),
    ("season", "multi_season", ()),
    ("season", "multi_season", ("--format", "csv")),
    ("season", "league20_games", ()),
]


def golden_name(command: str, fixture: str, extra: tuple[str, ...]) -> str:
    """lop-tenths7, or kappa-tournament18-cap10 with extra ("--cap", "10")."""
    return f"{command}-{fixture}" + "".join(extra).replace("--", "-")


def golden_file(command: str, fixture: str, extra: tuple[str, ...]) -> Path:
    """The golden file of a pinned run: .csv under --format csv, else .json."""
    suffix = ".csv" if "csv" in extra else ".json"
    return DATA_DIR / "golden" / (golden_name(command, fixture, extra) + suffix)


def pinned_argv(command: str, fixture: str, extra: tuple[str, ...]) -> list[str]:
    """The arguments of a pinned run after the program's name."""
    kind = () if command == "season" else ("--kind", "matrix")
    return [command, "--input", str(DATA_DIR / f"{fixture}.csv"), *kind, *extra]


@pytest.mark.parametrize(
    "command, fixture, extra", PINNED_RUNS, ids=[golden_name(*run) for run in PINNED_RUNS]
)
def test_fixture_stdout_is_pinned_byte_for_byte(capsys, command, fixture, extra):
    # tenths7, tenths16 and fractional19 hold weights whose sums are not
    # exact: the last bits of k_star and of the statistics depend on the
    # order of every addition, so every Python and numpy version must print
    # the same bytes. tenths16 (4 optima) takes them through a completion
    # table of 2^16 entries. points16 (5 optima) has exact sums, but twice
    # its total is too large for int16: it pins the float64 table route on
    # exact sums. coin19 (a p = 0.5 tournament, rng seed 1016),
    # hidden20 and tiers24 are exact and above the table budget: their files
    # pin the table-free witness and its nodes and pruned, from the witness
    # pass for coin19 and hidden20 and from the memoized search for
    # fractional19 and tiers24. hidden32 (a hidden-order tournament, rng
    # seed 1) pins the heuristic's whole-order steps at n = 32, with the
    # value passes and the witness pass; hidden22 (rng seed 2) the same
    # steps on exact sums at n = 22. tiers24 has
    # over a million optima,
    # so only its lop output is pinned. tournament18's lop file pins the
    # value passes' nodes and pruned and the table-side witness at n = 18.
    # tenths22 (a hidden-order tournament weighted in tenths) pins the
    # witness pass on float sums, whose states are complex keys.
    # tenths17 pins the float64 table route at the uneven split (8 low and
    # 9 high items) on float sums. halves16 pins the int16 table route
    # where doubled drop sums of -1 lie beside its least value.
    # The enumerate files pin the optima of a p = 0.5 tournament at n = 18
    # (77, walked with the largest table), of hidden20 (15, walked without
    # one) and of fractional19 (1, walked without one on float sums); the
    # kappa files pin the pair scan over those optima, and with a cap of 10
    # on tournament18's 77 optima the joint branch and bound's pair; with a
    # cap of 1 on halves16 the joint search reads an int16 table whose
    # doubled entries are odd. enumerate-tournament18-formatcsv pins the
    # CSV rows of the walk's orders. The season files pin the season flow
    # over several seasons, in JSON and as CSV rows (each season's
    # completion table, optima walk and kappa), and a 20-team season above
    # the table budget (value passes, table-free witness and optima walk;
    # 5,994 optima, kappa 32). The expected files were recorded once and
    # must not change.
    code, out = run_cli(capsys, *pinned_argv(command, fixture, extra))
    assert code == 0
    assert out.encode() == golden_file(command, fixture, extra).read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_ratings_stdout_is_pinned_byte_for_byte(capsys, fmt):
    # Colley and Massey over several seasons, one of them with a tie: the
    # shared schedule matrix and both solves. Recorded once and must not
    # change.
    code, out = run_cli(
        capsys, "ratings", "--input", str(DATA_DIR / "multi_season.csv"), "--format", fmt
    )
    assert code == 0
    expected = DATA_DIR / "golden" / f"ratings-multi_season.{fmt}"
    assert out.encode() == expected.read_bytes()


@pytest.mark.slow
def test_league30_lop_matches_its_proven_golden(capsys):
    # League 30/1 (tests/test_lop.py::_league, rng seed 1): the witness
    # pass holds 1,022,076 states and 4,343,941 edges to its cut at depth
    # 20, 63 MB, within lop._HELD_BYTES. The golden file was recorded at
    # commit 0262550, where lop proves it with nodes 7,084,511,036; a cap
    # below that pass once ended lop unproven here although k* was proven.
    code, out = run_cli(
        capsys, "lop", "--input", str(DATA_DIR / "league30.csv"), "--kind", "matrix"
    )
    assert code == 0
    assert out.encode() == (DATA_DIR / "golden" / "lop-league30.json").read_bytes()


@pytest.mark.slow
def test_league32_lop_matches_its_proven_golden(capsys):
    # League 32/1 (tests/test_lop.py::_league, rng seed 1): k* 749.5 with
    # nodes 69,554,109,397, and the largest witness pass of the league
    # checks, 2,931,511 states and 13,345,609 edges to its cut at depth
    # 25, whose keys the pass sorts and merges.
    code, out = run_cli(
        capsys, "lop", "--input", str(DATA_DIR / "league32.csv"), "--kind", "matrix"
    )
    assert code == 0
    assert out.encode() == (DATA_DIR / "golden" / "lop-league32.json").read_bytes()


if __name__ == "__main__":
    # One line per pinned run: its golden file, then its arguments.
    for run in PINNED_RUNS:
        print(golden_file(*run), *pinned_argv(*run))
