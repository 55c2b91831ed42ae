"""Shared fixtures: worked-example matrices and their known optima."""

from __future__ import annotations

import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rankability import cli, ktdiam, lop, sports
from rankability.core import Ranking, WeightMatrix, ranking_from_order

# 10 liberal arts colleges, a_ij = number of feature rankings where college i
# beats college j, ties worth 0.5 each. Total sum 225, optimal value 169.
COLLEGE_WEIGHTS = [
    [0, 5, 4.5, 3.5, 2, 3.5, 1.5, 2.5, 3.5, 0.5],
    [0, 0, 3, 3, 1.5, 2, 1, 0, 2, 0],
    [0.5, 2, 0, 2.5, 1, 2.5, 1, 0.5, 1.5, 0],
    [1.5, 2, 2.5, 0, 1, 2, 1, 1, 2, 0],
    [3, 3.5, 4, 4, 0, 4, 2, 2.5, 3.5, 1],
    [1.5, 3, 2.5, 3, 1, 0, 1, 1.5, 3, 0],
    [3.5, 4, 4, 4, 3, 4, 0, 3.5, 3.5, 2],
    [2.5, 5, 4.5, 4, 2.5, 3.5, 1.5, 0, 4.5, 0],
    [1.5, 3, 3.5, 3, 1.5, 2, 1.5, 0.5, 0, 0],
    [4.5, 5, 5, 5, 4, 5, 3, 5, 5, 0],
]

COLLEGE_LABELS = [
    "Amherst",
    "Bowdoin",
    "Carleton",
    "Claremont",
    "Haveford",
    "Middlebury",
    "Pomona",
    "Swarthmore",
    "Wellesley",
    "Williams",
]

# All six optimal rankings of the college instance, best-to-worst item lists.
COLLEGE_OPTIMA_ORDERS = [
    (10, 7, 8, 5, 1, 6, 9, 2, 4, 3),
    (10, 7, 5, 8, 1, 6, 9, 2, 4, 3),
    (10, 7, 5, 1, 8, 6, 9, 2, 4, 3),
    (10, 7, 8, 5, 1, 6, 9, 2, 3, 4),
    (10, 7, 5, 8, 1, 6, 9, 2, 3, 4),
    (10, 7, 5, 1, 8, 6, 9, 2, 3, 4),
]

COLLEGE_K_STAR = 169.0
COLLEGE_TOTAL = 225.0

# Three-item digraphs with 1, 2, 3, and 6 optimal rankings respectively.
DIGRAPH_WEIGHTS = {
    1: [[0, 1, 1], [0, 0, 1], [0, 0, 0]],
    2: [[0, 1, 1], [0, 0, 1], [0, 1, 0]],
    3: [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    4: [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
}

DIGRAPH_LAMBDA = {1: 1.0, 2: 3 / 4, 3: 2 / 3, 4: 1 / 2}
DIGRAPH_OPTIMA_COUNT = {1: 1, 2: 2, 3: 3, 4: 6}
DIGRAPH_KAPPA = {1: 0, 2: 1, 3: 2, 4: 3}


@pytest.fixture(scope="session")
def college_matrix() -> WeightMatrix:
    return WeightMatrix(COLLEGE_WEIGHTS, COLLEGE_LABELS)


@pytest.fixture(scope="session")
def college_optima() -> list[Ranking]:
    return [ranking_from_order(o) for o in COLLEGE_OPTIMA_ORDERS]


@pytest.fixture(scope="session")
def digraphs() -> dict[int, WeightMatrix]:
    return {k: WeightMatrix(v) for k, v in DIGRAPH_WEIGHTS.items()}


def random_half_integer_matrix(rng: np.random.Generator, n: int) -> WeightMatrix:
    """Random instance with entries in {0, 0.5, ..., 5} and zero diagonal."""
    a = rng.integers(0, 11, size=(n, n)).astype(float) / 2.0
    np.fill_diagonal(a, 0.0)
    return WeightMatrix(a)


DATA_DIR = Path(__file__).parent / "data"


def random_game_set(
    rng: np.random.Generator,
    team_count: int,
    game_count: int,
    tie_chance: float = 0.1,
    playoff_chance: float = 0.0,
    season: int = 2000,
):
    """Random schedule over T01..Tnn; only teams that play are kept."""
    from rankability.sports import GameRecord, game_set_from_records

    records = []
    for _ in range(game_count):
        a, b = (int(x) for x in rng.choice(team_count, size=2, replace=False))
        stage = "playoff" if rng.random() < playoff_chance else "regular"
        if rng.random() < tie_chance:
            score_a = score_b = int(rng.integers(0, 30))
        else:
            score_a = int(rng.integers(0, 30))
            score_b = int(rng.integers(0, 30))
            if score_a == score_b:
                score_b += 1
        records.append(
            GameRecord(
                season=season,
                stage=stage,
                team_a=f"T{a + 1:02d}",
                team_b=f"T{b + 1:02d}",
                score_a=score_a,
                score_b=score_b,
            )
        )
    return game_set_from_records(records)


def advance_clock_after(monkeypatch, real, limits: float) -> float:
    """Advance the solvers' clock by `limits` time limits after each call of `real`.

    Returns the time limit to configure. `real` is replaced in every module
    that binds it.
    """
    limit = 10.0
    offset = [0.0]
    clock = SimpleNamespace(monotonic=lambda: time.monotonic() + offset[0])
    monkeypatch.setattr(lop, "time", clock)
    monkeypatch.setattr(ktdiam, "time", clock)

    def jumping(*args, **kwargs):
        value = real(*args, **kwargs)
        offset[0] += limits * limit
        return value

    for module in (lop, ktdiam, sports, cli):
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, jumping)
    return limit


@pytest.fixture
def clock_jumps_after_solve(monkeypatch) -> float:
    """The clock jumps 1.5 time limits whenever k* is proven.

    After the jump a deadline taken before the solve has passed, but a
    limit restarted after it has not. The value step lop._proven_value,
    which enumerate_optima, degree_of_linearity and every kappa and season
    call run first, is the call that advances it.
    """
    return advance_clock_after(monkeypatch, lop._proven_value, 1.5)


@pytest.fixture
def clock_creeps_after_solve(monkeypatch) -> float:
    """The clock advances 0.6 time limits whenever k* is proven.

    One solve stays inside the limit; two solves under one deadline do not.
    """
    return advance_clock_after(monkeypatch, lop._proven_value, 0.6)
