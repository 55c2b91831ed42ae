"""Game-data ingestion, win matrices, and season rankability reports.

Bridges raw game results and the solvers: builds the win matrix with the
half-point tie convention, measures how well a ranking explains played
games (hindsight) or predicts playoff games (foresight), and assembles
per-season reports with optimal, Colley, and Massey rankings side by
side. A GameSet scores its games once, into an outcome table of team
indexes, score margins and stages; the win matrix, the accuracies and
the rating systems all read that table. A report proves its win
matrix's k* once, enumerates the optima once and takes kappa from them,
all under one time limit.
"""

from __future__ import annotations

import csv
from dataclasses import InitVar, dataclass, field
from enum import Enum
from itertools import compress

import numpy as np

from .core import Ranking, WeightMatrix, _integral, ranking_from_order
from .errors import (
    DimensionMismatchError,
    EmptyDataError,
    InvalidArgumentError,
    MalformedInputError,
    UndefinedMetricError,
)
from .ktdiam import KtResult, _solve_with_kappa
from .lop import DEFAULT_CONFIG, SolverConfig
from .rating import colley_ratings, massey_ratings, ranking_from_ratings

__all__ = [
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
]

_TIE_MODES = ("half", "strict")


class Stage(str, Enum):
    REGULAR = "regular"
    PLAYOFF = "playoff"


# Each stage by its value; a lookup here costs a fraction of Stage(value).
_STAGES = {s.value: s for s in Stage}


def _stage(stage: Stage | str) -> Stage:
    """stage as a Stage; InvalidArgumentError, naming the stages, if it is none."""
    try:
        return _STAGES[stage]
    except (KeyError, TypeError):  # not a stage's value, or unhashable
        names = ", ".join(repr(s.value) for s in Stage)
        raise InvalidArgumentError(f"stage must be one of {names}, got {stage!r}") from None


@dataclass(frozen=True)
class GameRecord:
    """One played game; scores are final, equal scores mean a tie."""

    season: int
    stage: Stage
    team_a: str
    team_b: str
    score_a: int
    score_b: int
    date: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "stage", _stage(self.stage))
        if self.team_a == self.team_b:
            raise MalformedInputError(
                f"a game needs two distinct teams, got {self.team_a!r} twice"
            )
        given = (self.season, self.score_a, self.score_b)
        # Python ints pass as they are, other integral values are stored as
        # ints. A bool passes as an integer, and True would count as 1.
        if not type(self.season) is type(self.score_a) is type(self.score_b) is int:
            values = _integral(given)
            if values is None or not {bool, np.bool_}.isdisjoint(map(type, given)):
                raise MalformedInputError(
                    f"season and scores must be integers, got {given}"
                )
            for name, value in zip(("season", "score_a", "score_b"), values):
                object.__setattr__(self, name, value)
        if self.score_a < 0 or self.score_b < 0:
            raise MalformedInputError(
                f"scores must be nonnegative, got {self.score_a}:{self.score_b}"
            )

    @property
    def tied(self) -> bool:
        return self.score_a == self.score_b


@dataclass(frozen=True)
class GameSet:
    """A schedule: unique team identifiers plus the games between them.

    Teams are kept in lexicographic order and indexed 1..n; rankings and
    rating vectors produced from a GameSet refer to teams through that
    index. The team list may include teams without games, but every
    game's teams must be listed.
    """

    teams: tuple[str, ...]
    games: tuple[GameRecord, ...]
    # The games' rows of a checked set's outcome table (filter_stage), or
    # None to check and score the games.
    _rows: InitVar[np.ndarray | None] = None
    _index: dict[str, int] = field(
        init=False, repr=False, compare=False, hash=False
    )
    # The outcome table: one row per game, in game order, of team_a's and
    # team_b's 0-based index, score_a - score_b and 1 for a playoff game.
    _table: np.ndarray = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self, _rows: np.ndarray | None):
        teams = tuple(self.teams)
        games = tuple(self.games)
        if not teams:
            raise EmptyDataError("a game set needs at least one team")
        if list(teams) != sorted(set(teams)):
            raise MalformedInputError(
                "teams must be unique and in lexicographic order"
            )
        index = {team: pos for pos, team in enumerate(teams)}
        outcomes = _rows
        if outcomes is None:
            try:
                outcomes = np.array(
                    [(index[g.team_a], index[g.team_b], g.score_a - g.score_b,
                      g.stage is Stage.PLAYOFF) for g in games],
                    dtype=np.int64,
                ).reshape(-1, 4)
            except KeyError as exc:
                team = exc.args[0]
                raise MalformedInputError(f"game references unknown team {team!r}") from None
            except OverflowError:
                raise MalformedInputError("score margins must fit in 64-bit integers") from None
        object.__setattr__(self, "teams", teams)
        object.__setattr__(self, "games", games)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_table", outcomes)

    @property
    def team_count(self) -> int:
        return len(self.teams)

    def index(self, team: str) -> int:
        """1-based index of a team in the lexicographic team order."""
        try:
            return self._index[team] + 1
        except KeyError:
            raise MalformedInputError(f"unknown team {team!r}") from None

    def _outcomes(self, stage: Stage | str | None = None) -> tuple[np.ndarray, ...]:
        """team_a's and team_b's 0-based index and score_a - score_b of each
        game at a stage (by default every game), in game order; EmptyDataError
        if there is none, InvalidArgumentError if stage names no Stage."""
        rows, name = self._table, ""
        if stage is not None:
            stage = _stage(stage)
            rows, name = rows[rows[:, 3] == (stage is Stage.PLAYOFF)], f"{stage.value} "
        if not len(rows):
            raise EmptyDataError(f"no {name}games in the schedule")
        return rows[:, 0], rows[:, 1], rows[:, 2]

    def games_at(self, stage: Stage | str) -> tuple[GameRecord, ...]:
        stage = _stage(stage)
        return tuple(g for g in self.games if g.stage is stage)

    def filter_stage(self, stage: Stage | str) -> GameSet:
        """Same teams and indices, games restricted to one stage.

        This set's games were checked when it was built, so the stage's set
        takes the stage's rows of its outcome table instead of checking and
        scoring the games again.
        """
        keep = self._table[:, 3] == (_stage(stage) is Stage.PLAYOFF)
        games = tuple(compress(self.games, keep.tolist()))
        return GameSet(self.teams, games, self._table[keep])

    def game_count(self, stage: Stage | str | None = None) -> int:
        return len(self.games if stage is None else self.games_at(stage))

    def tie_count(self, stage: Stage | str | None = None) -> int:
        games = self.games if stage is None else self.games_at(stage)
        return sum(1 for g in games if g.tied)

    @property
    def seasons(self) -> tuple[int, ...]:
        return tuple(sorted({g.season for g in self.games}))


def game_set_from_records(records) -> GameSet:
    """GameSet over exactly the teams appearing in the records."""
    records = tuple(records)
    if not records:
        raise EmptyDataError("no game records supplied")
    teams = sorted({t for r in records for t in (r.team_a, r.team_b)})
    return GameSet(teams=tuple(teams), games=records)


_REQUIRED_GAME_COLUMNS = (
    "season",
    "stage",
    "team_a",
    "team_b",
    "score_a",
    "score_b",
)


def read_games_csv(path, aliases: dict[str, str] | None = None) -> tuple[GameSet, ...]:
    """Parse a games CSV into one GameSet per season, ascending.

    Expected header: season,stage,team_a,team_b,score_a,score_b[,date];
    stage is regular or playoff; unknown columns are ignored. Team names
    are passed through the alias map before teams are collected, so a
    renamed franchise can be folded into one identifier.

    Raises:
        MalformedInputError: missing columns or an unparsable row, with
            the line number.
        EmptyDataError: no data rows.
    """
    aliases = aliases or {}
    by_season: dict[int, list[GameRecord]] = {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise EmptyDataError(f"{path}: empty file")
        # Each name's cell index, as a dict per row keyed by the header reads
        # it: a repeated name reads its last column, and of names equal once
        # stripped, the last distinct name wins.
        last = {name: pos for pos, name in enumerate(header)}
        column = {name.strip(): pos for name, pos in last.items()}
        missing = [c for c in _REQUIRED_GAME_COLUMNS if c not in column]
        if missing:
            raise MalformedInputError(
                f"{path}: header is missing columns {', '.join(missing)}"
            )
        season, stage, team_a, team_b, score_a, score_b = (
            column[c] for c in _REQUIRED_GAME_COLUMNS
        )
        date = column.get("date")
        named = tuple(column.values())
        width = len(header)
        for row in reader:
            # Missing cells read as empty; cells past the header are ignored.
            row += [""] * (width - len(row))
            if not any(row[pos].strip() for pos in named):
                continue
            try:
                name_a = row[team_a].strip()
                name_b = row[team_b].strip()
                record = GameRecord(
                    season=int(row[season].strip()),
                    stage=row[stage].strip().lower(),
                    team_a=aliases.get(name_a, name_a),
                    team_b=aliases.get(name_b, name_b),
                    score_a=int(row[score_a].strip()),
                    score_b=int(row[score_b].strip()),
                    date=None if date is None else row[date].strip() or None,
                )
            except (ValueError, MalformedInputError) as exc:
                raise MalformedInputError(
                    f"{path}: line {reader.line_num}: {exc}"
                ) from exc
            by_season.setdefault(record.season, []).append(record)
    if not by_season:
        raise EmptyDataError(f"{path}: no game rows")
    return tuple(
        game_set_from_records(by_season[season]) for season in sorted(by_season)
    )


def read_alias_csv(path) -> dict[str, str]:
    """Parse a raw_name,canonical_name alias map.

    Raises:
        MalformedInputError: bad header, short row, or two rows mapping
            the same raw name to different canonical names.
    """
    aliases: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise EmptyDataError(f"{path}: empty file")
        names = [cell.strip().lower() for cell in header[:2]]
        if names != ["raw_name", "canonical_name"]:
            raise MalformedInputError(
                f"{path}: expected header raw_name,canonical_name"
            )
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise MalformedInputError(
                    f"{path}: line {reader.line_num}: expected two columns"
                )
            raw, canonical = row[0].strip(), row[1].strip()
            if raw in aliases and aliases[raw] != canonical:
                raise MalformedInputError(
                    f"{path}: line {reader.line_num}: {raw!r} mapped to both "
                    f"{aliases[raw]!r} and {canonical!r}"
                )
            aliases[raw] = canonical
    return aliases


def read_feature_table(path) -> WeightMatrix:
    """Build a win matrix from per-item feature ranks.

    Expected header: item,<feature1>,...; each feature cell holds a rank
    as an integer or a ratio like 9/1, lower meaning better. Items keep
    their file order. Entry (i, j) counts the features where item i
    outranks item j, plus 0.5 per tied feature.

    Raises:
        MalformedInputError: bad header, duplicate item, ragged row, or
            an unparsable rank, with the line number.
        EmptyDataError: fewer than two items.
    """
    # Only feature tables read fractions, so only they import the module.
    from fractions import Fraction

    names: list[str] = []
    rows: list[list[Fraction]] = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise EmptyDataError(f"{path}: empty file")
        if not header or header[0].strip().lower() != "item" or len(header) < 2:
            raise MalformedInputError(
                f"{path}: expected header item,<feature>,..."
            )
        width = len(header)
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            line = reader.line_num
            if len(row) != width:
                raise MalformedInputError(
                    f"{path}: line {line}: expected {width} cells, got {len(row)}"
                )
            name = row[0].strip()
            if name in names:
                raise MalformedInputError(
                    f"{path}: line {line}: duplicate item {name!r}"
                )
            try:
                ranks = [Fraction(cell.strip()) for cell in row[1:]]
            except (ValueError, ZeroDivisionError) as exc:
                raise MalformedInputError(
                    f"{path}: line {line}: {exc}"
                ) from exc
            names.append(name)
            rows.append(ranks)
    if len(names) < 2:
        raise EmptyDataError(f"{path}: a feature table needs at least two items")
    n = len(names)
    weights = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for mine, theirs in zip(rows[i], rows[j]):
                if mine < theirs:
                    weights[i, j] += 1.0
                elif mine == theirs:
                    weights[i, j] += 0.5
    return WeightMatrix(weights, labels=tuple(names))


def build_win_matrix(gs: GameSet, stage: Stage | str) -> WeightMatrix:
    """Win matrix over one stage: wins plus half a point per tie.

    The total sum equals the stage's game count, teams keep the
    GameSet's lexicographic index, and labels carry the team names.

    Raises:
        EmptyDataError: no games at the stage.
        InvalidArgumentError: stage names no Stage.
    """
    a, b, margin = gs._outcomes(stage)
    n = gs.team_count
    weights = np.zeros((n, n))
    # team_a's credit: 1 for a win, 1/2 for a tie and 0 for a loss.
    credit = 0.5 + 0.5 * np.sign(margin)
    np.add.at(weights, (a, b), credit)
    np.add.at(weights, (b, a), 1.0 - credit)
    return WeightMatrix(weights, labels=gs.teams)


def _ranking_accuracy(
    gs: GameSet, stage: Stage | str, sigma: Ranking, tie_mode: str
) -> float:
    """Share of the stage's games that sigma ranks the winner of first,
    plus half of its ties under tie_mode "half"."""
    a, b, margin = gs._outcomes(stage)
    if tie_mode not in _TIE_MODES:
        raise InvalidArgumentError(
            f"tie_mode must be one of {_TIE_MODES}, got {tie_mode!r}"
        )
    if sigma.n != gs.team_count:
        raise DimensionMismatchError(
            f"ranking covers {sigma.n} items, schedule has {gs.team_count} teams"
        )
    rank = np.array(sigma.position)
    explained = np.count_nonzero(np.sign(margin) * (rank[b] - rank[a]) > 0)
    ties = np.count_nonzero(margin == 0) if tie_mode == "half" else 0
    return float(explained + 0.5 * ties) / margin.size


def hindsight_accuracy(
    gs: GameSet, stage: Stage | str, sigma: Ranking, tie_mode: str = "half"
) -> float:
    """Fraction of a stage's games explained by a ranking.

    A game counts when the higher-ranked team won. With tie_mode "half",
    ties add half a point — under that convention the hindsight accuracy
    of any optimal ranking equals the degree of linearity exactly; with
    "strict" they count as misses.

    Raises:
        EmptyDataError: no games at the stage.
        DimensionMismatchError: ranking size differs from team count.
        InvalidArgumentError: stage names no Stage.
    """
    return _ranking_accuracy(gs, stage, sigma, tie_mode)


def foresight_accuracy(
    gs: GameSet, sigma: Ranking, tie_mode: str = "half"
) -> float:
    """Fraction of playoff games predicted by a (regular-season) ranking.

    Raises:
        EmptyDataError: no playoff games.
        DimensionMismatchError: ranking size differs from team count.
    """
    return _ranking_accuracy(gs, Stage.PLAYOFF, sigma, tie_mode)


def _pair_foresight(
    gs: GameSet, kt: KtResult, tie_mode: str
) -> tuple[tuple[float, float], float]:
    """Playoff accuracies of the witness pair, and their absolute gap."""
    first, second = (foresight_accuracy(gs, sigma, tie_mode) for sigma in kt.pair)
    return (first, second), abs(first - second)


def foresight_divergence(
    gs: GameSet, cfg: SolverConfig | None = None, tie_mode: str = "half"
) -> tuple[float, KtResult]:
    """Foresight gap between two maximally distant optimal rankings.

    Solves the regular-season win matrix, finds the optimal pair at
    maximal Kendall tau distance, and returns the absolute difference of
    their playoff prediction accuracies together with the distance
    certificate. Note the returned pair maximizes rank distance, not
    necessarily the accuracy difference itself. The time limit bounds
    the whole call.

    Raises:
        EmptyDataError: no regular or no playoff games.
        UnprovenOptimumError: the optimal value was not proven, or no
            optimal ranking recovered, within the time limit.
    """
    cfg = cfg or DEFAULT_CONFIG
    matrix = build_win_matrix(gs, Stage.REGULAR)
    kt = _solve_with_kappa(matrix, cfg)[3]
    return _pair_foresight(gs, kt, tie_mode)[1], kt


def pearson_correlation(xs, ys) -> float:
    """Pearson correlation coefficient of two equal-length series.

    Raises:
        DimensionMismatchError: unequal lengths.
        UndefinedMetricError: fewer than two points, or a series with
            zero variance.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatchError(
            f"series differ in shape: {x.shape} vs {y.shape}"
        )
    if x.size < 2:
        raise UndefinedMetricError("correlation needs at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedMetricError(
            "correlation is undefined for a zero-variance series"
        )
    return float(np.clip((dx * dy).sum() / (sx * sy), -1.0, 1.0))


@dataclass(frozen=True)
class SeasonReport:
    """Season-level rankability summary.

    hindsight and foresight map ranking names (optimal, colley, massey)
    to accuracies; foresight entries exist only when playoff games do.
    Every hindsight accuracy is bounded above by lambda_, with equality
    for the optimal ranking under the half tie credit. witness_foresight
    holds the foresight accuracies of the two witness_pair rankings, whose
    gap is foresight_divergence; both are None without playoff games.
    optima_count is None when enumeration was truncated.
    """

    season: int
    teams: tuple[str, ...]
    lambda_: float
    kappa: int
    k_star: float
    hindsight: dict[str, float]
    foresight: dict[str, float]
    foresight_divergence: float | None
    witness_foresight: tuple[float, float] | None
    optimal_ranking: Ranking
    colley_ranking: Ranking
    massey_ranking: Ranking
    witness_pair: tuple[Ranking, Ranking]
    optima_count: int | None
    proven: bool
    truncated: bool


def season_report(
    gs: GameSet, cfg: SolverConfig | None = None, tie_mode: str = "half"
) -> SeasonReport:
    """Full rankability analysis of one season.

    Solves the regular-season win matrix for k*, the degree of
    linearity, the optima count, and the maximally distant optimal pair,
    then scores optimal, Colley, and Massey rankings in hindsight and —
    when playoff games exist — foresight. k* is proven once and the
    optima enumerated once; the first optimum in lexicographic order is
    the optimal ranking. The time limit bounds the whole call. Win
    matrices count halves, so up to the table budget k* is read from the
    completion table and no heuristic runs.

    Raises:
        EmptyDataError: no regular-season games.
        MalformedInputError: games from more than one season.
        UnprovenOptimumError: the optimal value was not proven, or no
            optimal ranking recovered, within the time limit.
    """
    cfg = cfg or DEFAULT_CONFIG
    seasons = gs.seasons
    if len(seasons) > 1:
        raise MalformedInputError(
            f"one season per report, got seasons {', '.join(map(str, seasons))}"
        )
    matrix = build_win_matrix(gs, Stage.REGULAR)
    regular = gs.filter_stage(Stage.REGULAR)

    k_star, orders, truncated, kt = _solve_with_kappa(matrix, cfg)
    # Enumeration yields optima in lexicographic order, so the first is
    # the canonical witness solve_lop reports.
    optimal = ranking_from_order(orders[0])

    rankings = {
        "optimal": optimal,
        "colley": ranking_from_ratings(colley_ratings(regular)),
        "massey": ranking_from_ratings(massey_ratings(regular)),
    }
    hindsight = {
        name: hindsight_accuracy(gs, Stage.REGULAR, sigma, tie_mode)
        for name, sigma in rankings.items()
    }
    if gs.game_count(Stage.PLAYOFF):
        foresight = {
            name: foresight_accuracy(gs, sigma, tie_mode)
            for name, sigma in rankings.items()
        }
        witness_foresight, divergence = _pair_foresight(gs, kt, tie_mode)
    else:
        foresight = {}
        witness_foresight = divergence = None

    return SeasonReport(
        season=seasons[0],
        teams=gs.teams,
        lambda_=k_star / matrix.total_sum(),
        kappa=kt.kappa,
        k_star=k_star,
        hindsight=hindsight,
        foresight=foresight,
        foresight_divergence=divergence,
        witness_foresight=witness_foresight,
        optimal_ranking=optimal,
        colley_ranking=rankings["colley"],
        massey_ranking=rankings["massey"],
        witness_pair=kt.pair,
        optima_count=None if truncated else len(orders),
        proven=kt.proven,
        truncated=truncated,
    )
