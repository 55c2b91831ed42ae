"""Command-line frontend: ingest CSVs, run solvers, emit reports.

JSON is the canonical output (stable key order, shortest round-trip
floats, no wall-clock fields), so identical inputs and configuration
produce byte-identical bytes. CSV output is a flattened projection of the
same data. Each subcommand defines only the flags it reads; the solver
flags default to DEFAULT_CONFIG.

Exit codes: 0 proven/ok, 1 input or usage error, 2 unproven result
(time limit; for enumerate, a list the time limit cut short).

When this module is imported before numpy, the command line owns the
process: the console script, ``python -m rankability.cli``, or any
script whose first numpy-loading import is this module. Such a process
starts and exits lean, with every printed byte the same:

- numpy's OpenBLAS gets one thread (OPENBLAS_NUM_THREADS=1, unless one
  of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is
  already set), so no worker thread spins while the interpreter imports;
  the commands' matrices are small. The variable stays in os.environ,
  so child processes inherit it.
- gc.freeze() takes the objects made so far out of every later
  collection, the last one at interpreter exit included: the imports'
  objects, and whatever a script built before importing this module.

Imported after numpy (tests, notebooks, a script that calls main), it
changes neither the environment nor the collector. Every solver module
is imported here, not per command, so that no command's first call
pays for compiling one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import os
import sys
from dataclasses import fields, replace

# The variables OpenBLAS reads for its thread count; any one of them set
# is the user's choice.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_OWNS_PROCESS = "numpy" not in sys.modules
if _OWNS_PROCESS and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    # Read when numpy first loads OpenBLAS, so it must be set before that.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .core import WeightMatrix, read_matrix_csv  # noqa: E402
from .errors import (  # noqa: E402
    EmptyDataError,
    RankabilityError,
    UndefinedMetricError,
    UnprovenOptimumError,
)
from .ktdiam import _solve_with_kappa  # noqa: E402
from .lop import (  # noqa: E402
    DEFAULT_CONFIG,
    SolverConfig,
    _deadline,
    _enumerate_orders,
    _remaining,
    solve_lop,
)
from .rating import colley_ratings, massey_ratings, ranking_from_ratings  # noqa: E402
from .sports import (  # noqa: E402
    Stage,
    read_alias_csv,
    read_feature_table,
    read_games_csv,
    season_report,
)

if _OWNS_PROCESS:
    gc.freeze()

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNPROVEN = 2


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


# Every flag beyond --input, --format and --output, in --help order. The
# solver flags store into the SolverConfig field of the same name.
_FLAGS = {
    "--kind": dict(
        choices=("matrix", "features"), default="matrix",
        help="how to interpret the input file (default: %(default)s)",
    ),
    "--time-limit": dict(
        dest="time_limit", type=float, default=DEFAULT_CONFIG.time_limit,
        metavar="SEC",
        help="wall-clock budget for the whole command; exceeding it returns "
        "unproven results (default: %(default)s)",
    ),
    "--cap": dict(
        dest="enumeration_cap", type=int, default=DEFAULT_CONFIG.enumeration_cap,
        metavar="N",
        help="enumeration cap on the number of optimal rankings "
        "(default: %(default)s)",
    ),
    "--tie-mode": dict(
        choices=("half", "strict"), default="half",
        help="tie credit in accuracy metrics (default: %(default)s)",
    ),
    "--aliases": dict(
        default=None, metavar="PATH",
        help="team alias CSV (raw_name,canonical_name) for game data",
    ),
}

_SOLVER = ("--time-limit",)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process.

    argparse measures the terminal on every add_argument, so building it
    costs more than many small commands; nothing mutates it after.
    """
    parser = _Parser(prog="rankability", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=run.__doc__)
        p.set_defaults(run=run)
        p.add_argument("--input", required=True, help="input CSV path")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json",
            help="output format (JSON is canonical)",
        )
        p.add_argument("--output", default=None, help="output path (default stdout)")
        for flag, spec in _FLAGS.items():
            if flag in flags:
                p.add_argument(flag, **spec)
    return parser


def _solver_config(args) -> SolverConfig:
    """DEFAULT_CONFIG with the solver flags the command defines."""
    parsed = vars(args)
    return replace(
        DEFAULT_CONFIG,
        **{f.name: parsed[f.name] for f in fields(SolverConfig) if f.name in parsed},
    )


def _load_matrix(args) -> WeightMatrix:
    if args.kind == "features":
        return read_feature_table(args.input)
    return read_matrix_csv(args.input)


def _load_seasons(args):
    """The file's seasons; EmptyDataError names the first without regular
    games, which both game commands need."""
    aliases = read_alias_csv(args.aliases) if args.aliases else None
    seasons = read_games_csv(args.input, aliases)
    for gs in seasons:
        if not gs.game_count(Stage.REGULAR):
            raise EmptyDataError(f"season {gs.seasons[0]} has no regular games")
    return seasons


def _ranking_payload(ranking) -> list[int]:
    return [int(v) for v in ranking.order]


# enumerate formats and writes its orders this many rows at a time, so
# that only one block of them is ever held as Python lists and text: at
# the default cap of 1,000,000 orders the whole list and its string took
# about 1 GB.
_BLOCK_ROWS = 8192


def _item_texts(n: int):
    """The text of each item 1..n, by item: formatting the ints costs more than the rest."""
    return [str(v) for v in range(n + 1)].__getitem__


def _order_blocks(orders):
    """The rows of an array of orders as lists of ints, _BLOCK_ROWS rows at a time."""
    for start in range(0, len(orders), _BLOCK_ROWS):
        yield orders[start : start + _BLOCK_ROWS].tolist()


def _enumerate_json(head: dict, orders, n: int):
    """json.dumps(payload, indent=2) + "\\n" in parts, a block of orders at a time.

    payload is head with the orders of the items 1..n, as lists, under the
    last key "rankings". With indent set, json.dumps runs its pure-Python
    encoder, several times slower on many orders.
    """
    item = _item_texts(n)
    yield json.dumps(head, indent=2)[:-2] + ',\n  "rankings": ['
    between = "\n    ],\n    [\n      "
    for start, block in enumerate(_order_blocks(orders)):
        yield between if start else "\n    [\n      "
        yield between.join([",\n      ".join(map(item, order)) for order in block])
    yield "\n    ]\n  ]\n}\n" if len(orders) else "]\n}\n"


def _ranking_rows(orders, n: int):
    """Each block of enumerate's CSV rows: the 1-based index and the order's items."""
    item = _item_texts(n)
    for start, block in enumerate(_order_blocks(orders)):
        first = start * _BLOCK_ROWS + 1
        yield [[i, " ".join(map(item, order))] for i, order in enumerate(block, first)]


def _emit(args, parts) -> None:
    """Write each text of parts in turn, to stdout or to the --output file."""
    if args.output is None:
        sys.stdout.writelines(parts)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(parts)


def _emit_json(args, payload) -> None:
    _emit(args, [json.dumps(payload, indent=2) + "\n"])


def _csv_text(header, blocks):
    """The CSV text of header, then of each block of rows, block by block."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for rows in blocks:
        writer.writerows(rows)
        yield buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
    yield buffer.getvalue()


def _emit_csv(args, header, rows) -> None:
    _emit(args, _csv_text(header, [rows]))


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


def cmd_lop(args) -> int:
    """solve for an optimal ranking and the degree of linearity"""
    solver = _solver_config(args)
    matrix = _load_matrix(args)
    total = matrix.total_sum()
    if total == 0.0:
        raise UndefinedMetricError(
            "the degree of linearity is undefined for an all-zero matrix"
        )
    result = solve_lop(matrix, solver)
    lambda_ = float(result.optimal_value / total)
    payload = {
        "command": "lop",
        "n": matrix.n,
        "labels": list(matrix.labels) if matrix.labels else None,
        "k_star": float(result.optimal_value),
        "lambda": lambda_,
        "ranking": _ranking_payload(result.ranking),
        "proven": result.proven,
        "stats": {
            "nodes": result.stats.nodes,
            "pruned": result.stats.pruned,
            "heuristic_value": float(result.stats.heuristic_value),
        },
    }
    if args.format == "json":
        _emit_json(args, payload)
    else:
        _emit_csv(
            args,
            ["k_star", "lambda", "proven", "ranking"],
            [[
                _csv_cell(payload["k_star"]),
                _csv_cell(payload["lambda"]),
                _csv_cell(payload["proven"]),
                " ".join(map(str, payload["ranking"])),
            ]],
        )
    return EXIT_OK if result.proven else EXIT_UNPROVEN


def cmd_kappa(args) -> int:
    """maximal Kendall tau distance between optimal rankings"""
    solver = _solver_config(args)
    matrix = _load_matrix(args)
    k_star, _, _, kt = _solve_with_kappa(matrix, solver)
    payload = {
        "command": "kappa",
        "n": matrix.n,
        "labels": list(matrix.labels) if matrix.labels else None,
        "k_star": float(k_star),
        "kappa": int(kt.kappa),
        "concordant_count": int(kt.concordant_count),
        "pair": [
            _ranking_payload(kt.pair[0]),
            _ranking_payload(kt.pair[1]),
        ],
        "proven": kt.proven,
    }
    if args.format == "json":
        _emit_json(args, payload)
    else:
        _emit_csv(
            args,
            ["kappa", "concordant_count", "proven", "first", "second"],
            [[
                payload["kappa"],
                payload["concordant_count"],
                _csv_cell(payload["proven"]),
                " ".join(map(str, payload["pair"][0])),
                " ".join(map(str, payload["pair"][1])),
            ]],
        )
    return EXIT_OK if kt.proven else EXIT_UNPROVEN


def cmd_enumerate(args) -> int:
    """list every optimal ranking"""
    solver = _solver_config(args)
    matrix = _load_matrix(args)
    # The orders as rows of ints, without a Ranking each, written only once
    # the walk has returned.
    orders, truncated = _enumerate_orders(matrix, solver)
    if args.format == "json":
        head = {
            "command": "enumerate",
            "n": matrix.n,
            "labels": list(matrix.labels) if matrix.labels else None,
            "count": len(orders),
            "truncated": truncated,
        }
        _emit(args, _enumerate_json(head, orders, matrix.n))
    else:
        _emit(args, _csv_text(["index", "ranking"], _ranking_rows(orders, matrix.n)))
    # A list cut by the cap holds exactly cap orders, so a truncated list
    # shorter than that was cut by the time limit.
    if truncated and len(orders) < solver.enumeration_cap:
        return EXIT_UNPROVEN
    return EXIT_OK


def _season_payload(report) -> dict:
    return {
        "season": report.season,
        "teams": list(report.teams),
        "lambda": float(report.lambda_),
        "kappa": int(report.kappa),
        "k_star": float(report.k_star),
        "hindsight": {k: float(v) for k, v in report.hindsight.items()},
        "foresight": {k: float(v) for k, v in report.foresight.items()},
        "foresight_divergence": (
            None
            if report.foresight_divergence is None
            else float(report.foresight_divergence)
        ),
        "optimal_ranking": _ranking_payload(report.optimal_ranking),
        "colley_ranking": _ranking_payload(report.colley_ranking),
        "massey_ranking": _ranking_payload(report.massey_ranking),
        "witness_pair": [
            _ranking_payload(report.witness_pair[0]),
            _ranking_payload(report.witness_pair[1]),
        ],
        "optima_count": report.optima_count,
        "proven": report.proven,
        "truncated": report.truncated,
    }


def cmd_season(args) -> int:
    """per-season rankability report from game data"""
    solver = _solver_config(args)
    seasons = _load_seasons(args)
    # One deadline for the whole file: each report gets the time left.
    deadline = _deadline(solver)
    reports = [
        season_report(gs, _remaining(solver, deadline), tie_mode=args.tie_mode)
        for gs in seasons
    ]
    if args.format == "json":
        _emit_json(
            args,
            {
                "command": "season",
                "tie_mode": args.tie_mode,
                "seasons": [_season_payload(r) for r in reports],
            },
        )
    else:
        header = [
            "season", "lambda", "kappa", "k_star",
            "hind_opt", "hind_colley", "hind_massey",
            "fore_opt", "fore_colley", "fore_massey",
            "fore_opt_a", "fore_opt_b", "fore_abs_diff",
            "optima_count", "proven", "truncated",
        ]
        rows = []
        for report in reports:
            if report.witness_foresight is not None:
                fore_a, fore_b = report.witness_foresight
                rows_fore = [
                    _csv_cell(report.foresight["optimal"]),
                    _csv_cell(report.foresight["colley"]),
                    _csv_cell(report.foresight["massey"]),
                    _csv_cell(fore_a),
                    _csv_cell(fore_b),
                    _csv_cell(report.foresight_divergence),
                ]
            else:
                rows_fore = ["", "", "", "", "", ""]
            rows.append(
                [
                    report.season,
                    _csv_cell(report.lambda_),
                    report.kappa,
                    _csv_cell(report.k_star),
                    _csv_cell(report.hindsight["optimal"]),
                    _csv_cell(report.hindsight["colley"]),
                    _csv_cell(report.hindsight["massey"]),
                    *rows_fore,
                    _csv_cell(report.optima_count),
                    _csv_cell(report.proven),
                    _csv_cell(report.truncated),
                ]
            )
        _emit_csv(args, header, rows)
    return EXIT_OK if all(r.proven for r in reports) else EXIT_UNPROVEN


def cmd_ratings(args) -> int:
    """Colley and Massey ratings from game data"""
    seasons = _load_seasons(args)
    blocks = []
    for gs in seasons:
        regular = gs.filter_stage(Stage.REGULAR)
        colley = colley_ratings(regular)
        massey = massey_ratings(regular)
        blocks.append(
            {
                "season": gs.seasons[0],
                "teams": list(gs.teams),
                "colley": {
                    "values": [float(v) for v in colley.values],
                    "ranking": _ranking_payload(ranking_from_ratings(colley)),
                },
                "massey": {
                    "values": [float(v) for v in massey.values],
                    "ranking": _ranking_payload(ranking_from_ratings(massey)),
                    "connected": massey.connected,
                },
            }
        )
    if args.format == "json":
        _emit_json(args, {"command": "ratings", "seasons": blocks})
    else:
        rows = []
        for block in blocks:
            colley_rank = {team: pos for pos, team in enumerate(block["colley"]["ranking"], 1)}
            massey_rank = {team: pos for pos, team in enumerate(block["massey"]["ranking"], 1)}
            for idx, team in enumerate(block["teams"], 1):
                rows.append(
                    [
                        block["season"],
                        team,
                        _csv_cell(block["colley"]["values"][idx - 1]),
                        _csv_cell(block["massey"]["values"][idx - 1]),
                        colley_rank[idx],
                        massey_rank[idx],
                    ]
                )
        _emit_csv(
            args,
            ["season", "team", "colley_rating", "massey_rating",
             "colley_rank", "massey_rank"],
            rows,
        )
    return EXIT_OK


# Each command and the _FLAGS it reads; its docstring is its --help line.
_COMMANDS = {
    "lop": (cmd_lop, ("--kind", *_SOLVER)),
    "kappa": (cmd_kappa, ("--kind", *_SOLVER, "--cap")),
    "enumerate": (cmd_enumerate, ("--kind", *_SOLVER, "--cap")),
    "season": (cmd_season, ("--aliases", *_SOLVER, "--cap", "--tie-mode")),
    "ratings": (cmd_ratings, ("--aliases",)),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except UnprovenOptimumError as exc:
        sys.stderr.write(f"rankability {args.command}: {exc}\n")
        return EXIT_UNPROVEN
    except (RankabilityError, ValueError, OSError) as exc:
        sys.stderr.write(f"rankability {args.command}: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
