"""Colley and Massey baseline rating systems.

Both methods rate teams by solving a small dense linear system on one
schedule matrix, read from the game set's outcome table: Colley adds 2I
and solves for win-loss records, Massey solves for point differentials.
They serve as reference rankings to compare against the optimal rankings
of the win matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .core import Ranking, ranking_from_order
from .errors import InvalidArgumentError

if TYPE_CHECKING:
    from .sports import GameSet

__all__ = [
    "RatingMethod",
    "RatingVector",
    "colley_ratings",
    "massey_ratings",
    "ranking_from_ratings",
]


class RatingMethod(str, Enum):
    COLLEY = "colley"
    MASSEY = "massey"


@dataclass(frozen=True)
class RatingVector:
    """Per-team ratings, aligned with the GameSet's team order.

    Colley vectors average 1/2; Massey vectors sum to zero within each
    connected component of the schedule graph. connected is False when
    the schedule graph has more than one component, in which case Massey
    ratings are only comparable within a component.
    """

    values: np.ndarray
    method: RatingMethod
    connected: bool = True

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).copy()
        if values.ndim != 1 or values.size == 0:
            raise InvalidArgumentError("ratings must form a nonempty vector")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "method", RatingMethod(self.method))

    @property
    def n(self) -> int:
        return int(self.values.size)


def _schedule(games: GameSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The schedule matrix and each team's net wins and net points.

    The matrix holds the games each team played on its diagonal and minus
    the games between each pair off it. A team's net counts its games as
    team_a minus its games as team_b, of the winner's sign (+1, 0 for a
    tie, -1) for net wins and of score_a - score_b for net points.

    Raises:
        EmptyDataError: when the schedule holds no games.
    """
    a, b, margin = games._outcomes()
    n = games.team_count
    matrix = np.zeros((n, n))
    np.add.at(matrix, (a, b), -1.0)
    matrix += matrix.T
    np.add.at(matrix, (np.r_[a, b], np.r_[a, b]), 1.0)
    wins, points = (
        np.bincount(a, net, n) - np.bincount(b, net, n) for net in (np.sign(margin), margin)
    )
    return matrix, wins, points


def colley_ratings(games: GameSet) -> RatingVector:
    """Ratings from win-loss records via the Colley system.

    Solves C r = b with C = 2I + the schedule matrix, that is C_ii = 2 +
    games played by i and C_ij = -(games between i and j), and
    b_i = 1 + (wins_i - losses_i)/2, a tie counting as half a win and
    half a loss. C is strictly diagonally dominant, so the system is
    always solvable and the ratings always average exactly 1/2.

    Raises:
        EmptyDataError: when the schedule holds no games.
    """
    matrix, wins, _ = _schedule(games)
    c = 2.0 * np.eye(games.team_count) + matrix
    return RatingVector(
        values=np.linalg.solve(c, 1.0 + 0.5 * wins), method=RatingMethod.COLLEY
    )


def _components(adjacent: np.ndarray) -> np.ndarray:
    """Connected components of the schedule graph, one mask per row."""
    reach = adjacent | np.eye(len(adjacent), dtype=bool)
    while True:
        # Every team reaches what the teams it reaches reach.
        grown = (reach.astype(float) @ reach) > 0
        if (grown == reach).all():
            # One row per component: its smallest team's, the first it reaches.
            return reach[reach.argmax(axis=1) == np.arange(len(reach))]
        reach = grown


def massey_ratings(games: GameSet) -> RatingVector:
    """Ratings from point differentials via the Massey system.

    Solves M r = p with M the schedule matrix (M_ii = games played,
    M_ij = -(games between i and j)) and p_i = cumulative point
    differential of i. M is singular by construction, so within each
    connected component of the schedule graph the last equation is
    replaced by "ratings sum to zero". With a disconnected schedule every
    component gets its own zero-sum solve and the result is flagged
    connected=False.

    Raises:
        EmptyDataError: when the schedule holds no games.
    """
    m, _, p = _schedule(games)
    values = np.zeros(games.team_count)
    components = _components(m != 0.0)
    for component in components:
        idx = np.flatnonzero(component)
        system = m[np.ix_(idx, idx)]
        rhs = p[idx]
        system[-1, :] = 1.0
        rhs[-1] = 0.0
        values[idx] = np.linalg.solve(system, rhs)
    return RatingVector(values, RatingMethod.MASSEY, connected=len(components) == 1)


def ranking_from_ratings(r: RatingVector) -> Ranking:
    """Ranking by descending rating, ties broken by ascending team index."""
    order = sorted(range(1, r.n + 1), key=lambda team: (-r.values[team - 1], team))
    return ranking_from_order(tuple(order))
