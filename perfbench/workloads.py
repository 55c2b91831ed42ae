"""Seeded workload inputs: instance pools, labelings and command lists.

Each workload has a fixed pool of instance structures, generated from a
constant family seed, so that every run measures the same family and
every output can be checked against a record taken from the seed commit.
A relabeling permutes item indices (or renames teams): it leaves ``k*``,
the optima count and ``kappa`` unchanged but changes the bytes the
program reads, its search order and its canonical output. Each pool
instance has LABELINGS[workload] recorded relabelings per command. The run seed
picks a starting labeling per instance; instance set (round) r uses the
one r places further on. A full run measures one round per labeling, so
it covers every labeling of every instance exactly once: the seed
changes what each round holds, not the work a whole run measures, and
no input file is read twice in one process, so a cache kept across
calls cannot stand in for solving. That matters because search time
depends strongly on labels (the table-free witness search tries items in
index order; one n = 21 tournament took 3.2 s under one labeling and
5.1 s under another), and otherwise the seed, not the program, would set
much of the spread.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Relabelings recorded per pool instance in expected.json; a full run
# measures one round per labeling.
LABELINGS = {"tables": 3, "bnb-large": 10, "seasons": 5}
# Typical seconds of one round on the host this was tuned on. A run with
# --seconds S measures S // SECONDS_PER_ROUND rounds (at least one, at most
# one per labeling): a constant count for a given S, whatever the speed.
SECONDS_PER_ROUND = {"tables": 8.0, "bnb-large": 2.2, "seasons": 5.0}

# Family seeds: the pools below are a pure function of these constants.
_TABLES_FAMILY = 18_014
_BNB_FAMILY = 22_019
_SEASONS_FAMILY = 16_008

# (n, games per pair, commands). Every n is inside the completion-table
# budget (n <= 18), so the pure-Python table dominates; n = 18 runs lop only
# because one n = 18 enumerate + kappa pair costs more than a whole round.
TABLES_SPECS = (
    (14, 1, ("lop", "enumerate", "kappa")),
    (14, 4, ("lop", "enumerate", "kappa")),
    (15, 1, ("lop", "enumerate", "kappa")),
    (15, 4, ("lop", "enumerate", "kappa")),
    (16, 4, ("lop", "enumerate", "kappa")),
    (18, 4, ("lop",)),
)

# Above the table budget: value branch and bound plus the table-free
# lex-min witness search. One game per pair, better item wins w.p. 0.93.
# At 0.9 single instances take 5 to 15 s, so a run could time each input
# only once and the host's speed swings would set the spread.
BNB_SPECS = tuple((n, 1, ("lop",)) for n in (19, 20, 21, 22) for _ in range(4))
BNB_WIN_PROB = 0.93

# Teams per season of the synthetic multi-season games file.
SEASON_TEAMS = (8, 9, 10, 11, 12, 13, 14, 14, 15, 16)
SEASON_FIRST_YEAR = 2001
# Playoff games between the four strongest teams, by strength rank.
PLAYOFF_PAIRS = ((0, 3), (1, 2), (0, 1), (2, 3))

WORKLOADS = ("tables", "bnb-large", "seasons")
GAME_COMMANDS = ("season", "ratings")


@dataclass(frozen=True)
class MatrixInstance:
    """One weight matrix of a pool, in its base labeling."""

    pool_id: int
    weights: np.ndarray
    commands: tuple[str, ...]


@dataclass(frozen=True)
class Season:
    """One season: its team count and games between base team indices."""

    year: int
    teams: int
    games: tuple[tuple[str, int, int, int, int], ...]  # stage, a, b, sa, sb


@dataclass(frozen=True)
class Job:
    """One command on one written input file.

    record_keys name the expected records the output is checked against:
    one per matrix, or one per season block of a games file.
    """

    command: str
    path: Path
    record_keys: tuple[str, ...]
    # Inputs as the program sees them, for the independent re-checks.
    weights: np.ndarray | None = None
    seasons: tuple[Season, ...] | None = None
    team_names: tuple[tuple[str, ...], ...] | None = None


def tournament(rng: np.random.Generator, n: int, games: int) -> np.ndarray:
    """Random tournament: each pair splits ``games`` games at p = 0.5."""
    a = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        wins = rng.binomial(games, 0.5)
        a[i, j] = wins
        a[j, i] = games - wins
    return a


def hidden_order_tournament(
    rng: np.random.Generator, n: int, games: int, p: float
) -> np.ndarray:
    """Strongly rankable tournament: the better item wins w.p. ``p``."""
    order = rng.permutation(n)
    a = np.zeros((n, n))
    for x, y in itertools.combinations(range(n), 2):
        better, worse = order[x], order[y]
        wins = rng.binomial(games, p)
        a[better, worse] = wins
        a[worse, better] = games - wins
    return a


def matrix_pool(workload: str) -> tuple[MatrixInstance, ...]:
    if workload == "tables":
        rng = np.random.default_rng(_TABLES_FAMILY)
        return tuple(
            MatrixInstance(idx, tournament(rng, n, g), cmds)
            for idx, (n, g, cmds) in enumerate(TABLES_SPECS)
        )
    if workload == "bnb-large":
        rng = np.random.default_rng(_BNB_FAMILY)
        return tuple(
            MatrixInstance(
                idx, hidden_order_tournament(rng, n, g, BNB_WIN_PROB), cmds
            )
            for idx, (n, g, cmds) in enumerate(BNB_SPECS)
        )
    raise ValueError(f"not a matrix workload: {workload}")


def season_pool() -> tuple[Season, ...]:
    """Seasons with Poisson scores driven by team strength.

    Every pair meets twice in the regular season; ties are kept. The four
    strongest teams play the PLAYOFF_PAIRS games.
    """
    rng = np.random.default_rng(_SEASONS_FAMILY)
    seasons = []
    for offset, n in enumerate(SEASON_TEAMS):
        strength = rng.normal(0.0, 0.6, size=n)
        games = []
        for i, j in itertools.combinations(range(n), 2):
            for home, away in ((i, j), (j, i)):
                games.append(("regular", home, away) + _score(rng, strength, home, away))
        top = [int(t) for t in np.argsort(-strength)[:4]]
        for a, b in PLAYOFF_PAIRS:
            games.append(("playoff", top[a], top[b]) + _score(rng, strength, top[a], top[b]))
        seasons.append(Season(SEASON_FIRST_YEAR + offset, n, tuple(games)))
    return tuple(seasons)


def _score(rng, strength, a: int, b: int) -> tuple[int, int]:
    edge = strength[a] - strength[b]
    return int(rng.poisson(2.6 * np.exp(edge / 2))), int(rng.poisson(2.6 * np.exp(-edge / 2)))


def labeling_permutation(pool_id: int, labeling: int, n: int) -> np.ndarray:
    """perm[i] = index that base item i carries in the given labeling."""
    return np.random.default_rng([pool_id, labeling, n]).permutation(n)


def relabel(weights: np.ndarray, perm: np.ndarray) -> np.ndarray:
    out = np.empty_like(weights)
    out[np.ix_(perm, perm)] = weights
    return out


def team_names(season: Season, labeling: int) -> tuple[str, ...]:
    """Name of each base team under a labeling; names sort as the labels."""
    perm = labeling_permutation(season.year, labeling, season.teams)
    return tuple(f"Team{int(p) + 1:02d}" for p in perm)


def round_labelings(seed: int, round_index: int, count: int, labelings: int) -> list[int]:
    """Labeling index of each pool instance for one instance set."""
    start = np.random.default_rng(seed & (2**64 - 1)).integers(labelings, size=count)
    return [int(x) for x in (start + round_index) % labelings]


def write_matrix(path: Path, weights: np.ndarray) -> None:
    path.write_text(
        "".join(",".join(format(v, "g") for v in row) + "\n" for row in weights),
        encoding="utf-8",
    )


def write_games(path: Path, seasons, names_by_season) -> None:
    lines = ["season,stage,team_a,team_b,score_a,score_b\n"]
    for season, names in zip(seasons, names_by_season):
        for stage, a, b, sa, sb in season.games:
            lines.append(f"{season.year},{stage},{names[a]},{names[b]},{sa},{sb}\n")
    path.write_text("".join(lines), encoding="utf-8")


class Workload:
    """Inputs of one workload for one run seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.labelings = LABELINGS[name]
        if name == "seasons":
            self.seasons = season_pool()
            self.pool_size = len(self.seasons)
        else:
            self.pool = matrix_pool(name)
            self.pool_size = len(self.pool)

    def rounds(self, seconds: float) -> int:
        """Instance sets a run of ``seconds`` measures."""
        return max(1, min(self.labelings, int(seconds // SECONDS_PER_ROUND[self.name])))

    def write_round(self, round_index: int, directory: Path) -> list[Job]:
        """Write one instance set's input files and list its commands."""
        labelings = round_labelings(self.seed, round_index, self.pool_size, self.labelings)
        return self.write(labelings, directory)

    def write(self, labelings: list[int], directory: Path) -> list[Job]:
        """Write the pool under the given labeling of each pool instance.

        A matrix instance's k-th command reads labeling
        ``labelings[i] + k * LABELINGS``, so no two commands of a run (one
        process) read the same bytes.
        """
        directory.mkdir(parents=True, exist_ok=True)
        if self.name == "seasons":
            names = tuple(team_names(s, lab) for s, lab in zip(self.seasons, labelings))
            path = directory / "games.csv"
            write_games(path, self.seasons, names)
            return [
                Job(command, path,
                    tuple(f"seasons/{idx}/{lab}/{command}" for idx, lab in enumerate(labelings)),
                    seasons=self.seasons, team_names=names)
                for command in GAME_COMMANDS
            ]
        jobs: list[Job] = []
        for inst, first in zip(self.pool, labelings):
            n = inst.weights.shape[0]
            for k, command in enumerate(inst.commands):
                labeling = first + k * self.labelings
                weights = relabel(inst.weights, labeling_permutation(inst.pool_id, labeling, n))
                path = directory / f"m{inst.pool_id:02d}-{command}.csv"
                write_matrix(path, weights)
                key = f"{self.name}/{inst.pool_id}/{labeling}/{command}"
                jobs.append(Job(command, path, (key,), weights=weights))
        return jobs
