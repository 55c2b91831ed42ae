"""Exact rankability toolkit: linear ordering solver, optima diversity, ratings.

The public names resolve on first access (PEP 562 module __getattr__), so
``import rankability`` loads no submodule and no numpy; each name imports
its submodule the first time it is read.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "core": (
        "WeightMatrix",
        "Ranking",
        "LinearOrder",
        "PairSet",
        "ranking_from_order",
        "ranking_from_position",
        "reverse_ranking",
        "objective_value",
        "upper_triangular_sum",
        "permute_matrix",
        "kendall_tau_distance",
        "concordant_discordant",
        "linear_order_from_ranking",
        "ranking_from_linear_order",
        "validate_linear_order",
        "read_matrix_csv",
        "write_matrix_csv",
    ),
    "lop": (
        "SolverConfig",
        "DEFAULT_CONFIG",
        "SearchStats",
        "LopResult",
        "OptimaSet",
        "solve_lop",
        "enumerate_optima",
        "degree_of_linearity",
        "heuristic_ranking",
        "prefix_upper_bound",
    ),
    "ktdiam": (
        "KtResult",
        "KtSolution",
        "KtValidationReport",
        "solve_kt",
        "kt_solution_from_rankings",
        "validate_kt_solution",
    ),
    "rating": (
        "RatingMethod",
        "RatingVector",
        "colley_ratings",
        "massey_ratings",
        "ranking_from_ratings",
    ),
    "sports": (
        "Stage",
        "GameRecord",
        "GameSet",
        "SeasonReport",
        "game_set_from_records",
        "read_games_csv",
        "read_alias_csv",
        "read_feature_table",
        "build_win_matrix",
        "hindsight_accuracy",
        "foresight_accuracy",
        "foresight_divergence",
        "pearson_correlation",
        "season_report",
    ),
    "errors": (
        "RankabilityError",
        "InvalidArgumentError",
        "DimensionMismatchError",
        "MalformedPermutationError",
        "InfeasibleSolutionError",
        "UndefinedMetricError",
        "MalformedInputError",
        "EmptyDataError",
        "InvalidKStarError",
        "TooManyItemsError",
        "UnprovenOptimumError",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
