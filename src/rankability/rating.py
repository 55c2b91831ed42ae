"""Colley and Massey baseline rating systems.

Both methods rate teams by solving a small dense linear system assembled
from the schedule: Colley from win-loss records, Massey from point
differentials. They serve as reference rankings to compare against the
optimal rankings of the win matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .core import Ranking, ranking_from_order
from .errors import EmptyDataError, InvalidArgumentError

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


def _team_indices(games: GameSet, record) -> tuple[int, int]:
    return games.index(record.team_a) - 1, games.index(record.team_b) - 1


def colley_ratings(games: GameSet) -> RatingVector:
    """Ratings from win-loss records via the Colley system.

    Solves C r = b with C_ii = 2 + games played by i,
    C_ij = -(games between i and j), and b_i = 1 + (wins_i - losses_i)/2,
    a tie counting as half a win and half a loss. C is strictly
    diagonally dominant, so the system is always solvable and the
    ratings always average exactly 1/2.

    Raises:
        EmptyDataError: when the schedule holds no games.
    """
    if not games.games:
        raise EmptyDataError("rating a schedule needs at least one game")
    n = games.team_count
    c = 2.0 * np.eye(n)
    b = np.ones(n)
    for record in games.games:
        i, j = _team_indices(games, record)
        c[i, i] += 1.0
        c[j, j] += 1.0
        c[i, j] -= 1.0
        c[j, i] -= 1.0
        if record.score_a > record.score_b:
            b[i] += 0.5
            b[j] -= 0.5
        elif record.score_b > record.score_a:
            b[j] += 0.5
            b[i] -= 0.5
    return RatingVector(values=np.linalg.solve(c, b), method=RatingMethod.COLLEY)


def _components(n: int, adjacent: np.ndarray) -> list[list[int]]:
    """Connected components of the schedule graph, ascending order."""
    seen = [False] * n
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        component = []
        while stack:
            v = stack.pop()
            component.append(v)
            for u in range(n):
                if not seen[u] and adjacent[v, u]:
                    seen[u] = True
                    stack.append(u)
        components.append(sorted(component))
    return components


def massey_ratings(games: GameSet) -> RatingVector:
    """Ratings from point differentials via the Massey system.

    Solves M r = p with M_ii = games played, M_ij = -(games between i
    and j), p_i = cumulative point differential of i. M is singular by
    construction, so within each connected component of the schedule
    graph the last equation is replaced by "ratings sum to zero". With a
    disconnected schedule every component gets its own zero-sum solve
    and the result is flagged connected=False.

    Raises:
        EmptyDataError: when the schedule holds no games.
    """
    if not games.games:
        raise EmptyDataError("rating a schedule needs at least one game")
    n = games.team_count
    m = np.zeros((n, n))
    p = np.zeros(n)
    for record in games.games:
        i, j = _team_indices(games, record)
        m[i, i] += 1.0
        m[j, j] += 1.0
        m[i, j] -= 1.0
        m[j, i] -= 1.0
        diff = float(record.score_a - record.score_b)
        p[i] += diff
        p[j] -= diff
    values = np.zeros(n)
    components = _components(n, m != 0.0)
    for component in components:
        idx = np.asarray(component)
        system = m[np.ix_(idx, idx)].copy()
        rhs = p[idx].copy()
        system[-1, :] = 1.0
        rhs[-1] = 0.0
        values[idx] = np.linalg.solve(system, rhs)
    return RatingVector(
        values=values,
        method=RatingMethod.MASSEY,
        connected=len(components) == 1,
    )


def ranking_from_ratings(r: RatingVector) -> Ranking:
    """Ranking by descending rating, ties broken by ascending team index."""
    order = sorted(range(1, r.n + 1), key=lambda team: (-r.values[team - 1], team))
    return ranking_from_order(tuple(order))
