"""Tests for game ingestion, win matrices, and season reports."""

from __future__ import annotations

import csv
import io
import itertools
import random
import time

import numpy as np
import pytest

from rankability import lop
from rankability.core import (
    WeightMatrix,
    ranking_from_order,
    reverse_ranking,
)
from rankability.errors import (
    DimensionMismatchError,
    EmptyDataError,
    MalformedInputError,
    UndefinedMetricError,
    UnprovenOptimumError,
)
from rankability.lop import SolverConfig, solve_lop
from rankability.rating import colley_ratings, massey_ratings
from rankability.sports import (
    _REQUIRED_GAME_COLUMNS,
    GameRecord,
    GameSet,
    Stage,
    build_win_matrix,
    foresight_accuracy,
    foresight_divergence,
    game_set_from_records,
    hindsight_accuracy,
    pearson_correlation,
    read_alias_csv,
    read_feature_table,
    read_games_csv,
    season_report,
)

from tests.conftest import (
    COLLEGE_K_STAR,
    COLLEGE_LABELS,
    COLLEGE_WEIGHTS,
    DATA_DIR,
    DIGRAPH_WEIGHTS,
    random_game_set,
)
from tests.oracles import (
    colley_loop,
    massey_loop,
    max_hindsight,
    ranking_accuracy_loop,
    read_games_csv_dict,
    win_matrix_loop,
)


def _game(team_a, team_b, score_a, score_b, stage="regular", season=2000):
    return GameRecord(
        season=season,
        stage=stage,
        team_a=team_a,
        team_b=team_b,
        score_a=score_a,
        score_b=score_b,
    )


class TestGameRecord:
    def test_same_team_twice_is_rejected(self):
        with pytest.raises(MalformedInputError):
            _game("A", "A", 1, 0)

    def test_negative_score_is_rejected(self):
        with pytest.raises(MalformedInputError):
            _game("A", "B", -1, 0)

    def test_bad_stage_is_rejected(self):
        with pytest.raises(ValueError):
            _game("A", "B", 1, 0, stage="friendly")

    def test_tie_detection(self):
        assert _game("A", "B", 7, 7).tied
        assert not _game("A", "B", 7, 8).tied


class TestGameSet:
    def test_index_is_one_based_lexicographic(self):
        games = game_set_from_records([_game("C", "A", 1, 0)])
        assert games.teams == ("A", "C")
        assert games.index("A") == 1 and games.index("C") == 2

    def test_unknown_team_lookup(self):
        games = game_set_from_records([_game("A", "B", 1, 0)])
        with pytest.raises(MalformedInputError):
            games.index("Z")

    def test_unsorted_teams_rejected(self):
        with pytest.raises(MalformedInputError):
            GameSet(teams=("B", "A"), games=())

    def test_no_teams_rejected(self):
        with pytest.raises(EmptyDataError, match="at least one team"):
            GameSet(teams=(), games=())

    def test_game_with_unlisted_team_rejected(self):
        with pytest.raises(MalformedInputError):
            GameSet(teams=("A", "B"), games=(_game("A", "C", 1, 0),))

    def test_filter_stage_keeps_team_indices(self):
        games = game_set_from_records(
            [_game("A", "B", 1, 0), _game("A", "B", 3, 4, stage="playoff")]
        )
        regular = games.filter_stage("regular")
        assert regular.teams == games.teams
        assert regular.game_count() == 1
        assert games.game_count(Stage.PLAYOFF) == 1

    @pytest.mark.parametrize("stage", list(Stage))
    def test_filter_stage_equals_a_set_built_from_the_stage_games(self, stage):
        seasons = read_games_csv(DATA_DIR / "multi_season.csv")
        assert any(gs.game_count(Stage.PLAYOFF) for gs in seasons)
        for gs in seasons:
            stage_set = gs.filter_stage(stage.value)
            built = GameSet(gs.teams, gs.games_at(stage))
            for name in ("teams", "games", "_index"):
                assert getattr(stage_set, name) == getattr(built, name)
            assert stage_set._table.dtype == built._table.dtype
            assert stage_set._table.shape == built._table.shape
            assert np.array_equal(stage_set._table, built._table)

    def test_tie_count(self):
        games = game_set_from_records(
            [_game("A", "B", 1, 1), _game("A", "B", 2, 0)]
        )
        assert games.tie_count() == 1
        assert games.tie_count(Stage.PLAYOFF) == 0

    def test_empty_records_rejected(self):
        with pytest.raises(EmptyDataError):
            game_set_from_records([])

    def test_margin_beyond_64_bits_rejected(self):
        # The outcome table holds score_a - score_b as a 64-bit integer.
        game_set_from_records([_game("A", "B", 2**63 - 1, 0)])
        with pytest.raises(MalformedInputError, match="64-bit"):
            game_set_from_records([_game("A", "B", 2**63, 0)])


class TestReadGamesCsv:
    def test_digraph_season(self):
        (games,) = read_games_csv(DATA_DIR / "digraph3_season.csv")
        assert games.teams == ("T1", "T2", "T3")
        assert games.seasons == (2001,)
        matrix = build_win_matrix(games, Stage.REGULAR)
        assert np.array_equal(
            np.asarray(matrix.weights), np.asarray(DIGRAPH_WEIGHTS[3], dtype=float)
        )

    def test_unknown_columns_ignored_and_seasons_split(self):
        seasons = read_games_csv(DATA_DIR / "multi_season.csv")
        assert [gs.seasons[0] for gs in seasons] == [2010, 2011]

    def test_aliases_fold_team_names(self):
        aliases = read_alias_csv(DATA_DIR / "aliases.csv")
        seasons = read_games_csv(DATA_DIR / "multi_season.csv", aliases)
        assert seasons[1].teams == ("Bears", "Lions", "Owls", "St. Cats")

    def test_date_column_is_optional(self):
        (games,) = read_games_csv(DATA_DIR / "divergence4.csv")
        assert games.games[0].date == "2002-09-01"
        (no_dates,) = read_games_csv(DATA_DIR / "digraph3_season.csv")
        assert no_dates.games[0].date is None

    def test_missing_column_is_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("season,stage,team_a,team_b,score_a\n")
        with pytest.raises(MalformedInputError, match="score_b"):
            read_games_csv(bad)

    def test_bad_row_reports_line_number(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "season,stage,team_a,team_b,score_a,score_b\n"
            "2000,regular,A,B,10,3\n"
            "2000,exhibition,A,B,1,2\n"
        )
        with pytest.raises(MalformedInputError, match="line 3: stage must be one of"):
            read_games_csv(bad)

    def test_unparsable_score_reports_line_number(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "season,stage,team_a,team_b,score_a,score_b\n"
            "2000,regular,A,B,ten,3\n"
        )
        with pytest.raises(MalformedInputError, match="line 2"):
            read_games_csv(bad)

    def test_an_empty_file_is_empty(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(EmptyDataError, match="empty file"):
            read_games_csv(empty)

    def test_header_only_is_empty(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("season,stage,team_a,team_b,score_a,score_b\n")
        with pytest.raises(EmptyDataError):
            read_games_csv(empty)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(
            "season,stage,team_a,team_b,score_a,score_b\n"
            "\n"
            "2000,regular,A,B,10,3\n"
            "\n"
        )
        (games,) = read_games_csv(path)
        assert games.game_count() == 1


def _plain_and_marked(tmp_path, text: str) -> tuple:
    """text written to two files, the second led by a byte-order mark."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    # Excel's "CSV UTF-8" files start with U+FEFF.
    marked.write_text("\ufeff" + text, encoding="utf-8")
    return plain, marked


def _records(seasons) -> list[tuple]:
    return [
        (g.season, g.stage, g.team_a, g.team_b, g.score_a, g.score_b, g.date)
        for gs in seasons
        for g in gs.games
    ]


class TestReadGamesCsvRows:
    """How rows map to records, as a csv.DictReader over the header reads them."""

    @staticmethod
    def _read(tmp_path, text: str):
        path = tmp_path / "games.csv"
        path.write_text(text, encoding="utf-8")
        return read_games_csv(path)

    def test_a_repeated_header_name_reads_its_last_column(self, tmp_path):
        seasons = self._read(
            tmp_path,
            "season,stage,team_a,team_b,score_a,score_b,score_a\n"
            "2000,regular,A,B,9,3,1\n",
        )
        assert _records(seasons) == [(2000, Stage.REGULAR, "A", "B", 1, 3, None)]

    def test_names_equal_after_padding_read_the_last_name(self, tmp_path):
        seasons = self._read(
            tmp_path,
            "season,stage,team_a,team_b,score_a,score_b, score_a,score_a\n"
            "2000,regular,A,B,9,3,5,1\n",
        )
        assert _records(seasons) == [(2000, Stage.REGULAR, "A", "B", 5, 3, None)]

    def test_cells_past_the_header_are_ignored(self, tmp_path):
        seasons = self._read(
            tmp_path,
            "season,stage,team_a,team_b,score_a,score_b\n"
            "2000,regular,A,B,1,0,extra,cells\n"
            ",,,,,,only,extras\n",
        )
        assert _records(seasons) == [(2000, Stage.REGULAR, "A", "B", 1, 0, None)]

    def test_missing_cells_read_as_empty(self, tmp_path):
        seasons = self._read(
            tmp_path,
            "season,stage,team_a,team_b,score_a,score_b,date\n"
            "2000,regular,A,B,1,0\n",
        )
        assert _records(seasons) == [(2000, Stage.REGULAR, "A", "B", 1, 0, None)]
        with pytest.raises(
            MalformedInputError,
            match=r"line 3: invalid literal for int\(\) with base 10: ''$",
        ):
            self._read(
                tmp_path,
                "season,stage,team_a,team_b,score_a,score_b\n"
                "2000,regular,A,B,1,0\n"
                "2000,regular,A,B,1\n",
            )

    def test_padded_header_names_and_cells_are_stripped(self, tmp_path):
        seasons = self._read(
            tmp_path,
            " season , stage,team_a ,\tteam_b,score_a,score_b , date\n"
            " 2000 , PLAYOFF ,  A , B\t,1 , 0, 2000-01-02 \n",
        )
        assert _records(seasons) == [(2000, Stage.PLAYOFF, "A", "B", 1, 0, "2000-01-02")]
        # Names are stripped, not folded to lower case.
        with pytest.raises(MalformedInputError, match="missing columns stage$"):
            self._read(
                tmp_path,
                "season,Stage,team_a,team_b,score_a,score_b\n2000,regular,A,B,1,0\n",
            )

    def test_rows_of_commas_or_spaces_are_skipped(self, tmp_path):
        seasons = self._read(
            tmp_path,
            "season,stage,team_a,team_b,score_a,score_b,note\n"
            ",,,,,,\n"
            "  , ,\t,,  ,,  \n"
            "2000,regular,A,B,1,0,\n"
            ",\n"
            "2000,regular,B,A,2,2,x\n",
        )
        assert _records(seasons) == [
            (2000, Stage.REGULAR, "A", "B", 1, 0, None),
            (2000, Stage.REGULAR, "B", "A", 2, 2, None),
        ]

    def test_a_row_with_only_an_unknown_column_is_read(self, tmp_path):
        with pytest.raises(MalformedInputError, match="line 2: invalid literal"):
            self._read(
                tmp_path,
                "season,stage,team_a,team_b,score_a,score_b,note\n"
                ",,,,,,remark\n",
            )

    def test_a_quoted_cell_over_two_lines_ends_on_the_second(self, tmp_path):
        text = (
            "season,stage,team_a,team_b,score_a,score_b\n"
            '2000,regular,"A\nB",C,1,0\n'
            "2000,regular,A,C,x,0\n"
        )
        with pytest.raises(MalformedInputError, match="line 4: invalid literal"):
            self._read(tmp_path, text)
        text = (
            "season,stage,team_a,team_b,score_a,score_b\n"
            '2000,regular,"A\nB",C,one,0\n'
        )
        with pytest.raises(MalformedInputError, match="line 3: invalid literal"):
            self._read(tmp_path, text)
        seasons = self._read(
            tmp_path,
            "season,stage,team_a,team_b,score_a,score_b\n"
            '2000,regular,"A\nB",C,1,0\n',
        )
        assert _records(seasons) == [(2000, Stage.REGULAR, "A\nB", "C", 1, 0, None)]

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = _plain_and_marked(
            tmp_path, "season,stage,team_a,team_b,score_a,score_b\n2000,regular,A,B,1,0\n"
        )
        records = _records(read_games_csv(plain))
        assert records == [(2000, Stage.REGULAR, "A", "B", 1, 0, None)]
        assert _records(read_games_csv(marked)) == records

    def test_with_and_without_a_date_column(self, tmp_path):
        rows = "2001,regular,B,A,3,1,2001-09-02\n2000,playoff,A,B,2,0,\n"
        seasons = self._read(
            tmp_path, "season,stage,team_a,team_b,score_a,score_b,date\n" + rows
        )
        assert _records(seasons) == [
            (2000, Stage.PLAYOFF, "A", "B", 2, 0, None),
            (2001, Stage.REGULAR, "B", "A", 3, 1, "2001-09-02"),
        ]
        seasons = self._read(
            tmp_path, "season,stage,team_a,team_b,score_a,score_b,day\n" + rows
        )
        assert _records(seasons) == [
            (2000, Stage.PLAYOFF, "A", "B", 2, 0, None),
            (2001, Stage.REGULAR, "B", "A", 3, 1, None),
        ]


# Each games-CSV column's good cells, then cells that are bad or odd in it.
_GOOD_AND_ODD_CELLS = {
    "season": (("2001", "2002", " 2003 "), ("", "x", "1.5", "1_0", "-4")),
    "stage": (("regular", "playoff", " Playoff", "REGULAR "), ("", "final")),
    "score_a": (("0", "1", "2", "3", " 4 "), ("", "-1", "x", "2.0")),
    "score_b": (("0", "1", "2", "5", "7 "), ("", "-2", "y")),
    "date": (("", "2001-05-06", " 2001-05-07 "), ("d\ne",)),
    "venue": (("", "Home", "x\ny"), (" ",)),
}
_TEAMS = ("A", "B", "C", " D ", "E\nF", "G,H")


def _games_csv_text(rng: random.Random) -> str:
    """A games file with a shuffled header, some names repeated, padded or
    left out, and rows that are full, short, long, blank, one cell only,
    quoted over lines or with bad cells."""
    names = [n for n in (*_REQUIRED_GAME_COLUMNS, "date", "venue") if rng.random() < 0.98]
    names += rng.choices(names or ["venue"], k=rng.choice((0, 0, 1, 2)))
    rng.shuffle(names)
    header = [f" {n}" if rng.random() < 0.1 else n for n in names]
    rows = [header]
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if kind < 0.08:
            row = []
        elif kind < 0.16:
            row = [rng.choice(("", " ", "\t")) for _ in header]
        elif kind < 0.19:
            row = [""] * len(header)
            if row:
                row[rng.randrange(len(row))] = "1"
        else:
            teams = dict(zip(("team_a", "team_b"), rng.sample(_TEAMS, 2)))
            row = []
            for name in names:
                if name in teams:
                    cell = teams[name] if rng.random() > 0.02 else rng.choice(("", "A"))
                else:
                    good, odd = _GOOD_AND_ODD_CELLS[name]
                    cell = rng.choice(good if rng.random() > 0.02 else odd)
                row.append(cell)
            if rng.random() < 0.1:
                row = row[: rng.randrange(len(row) + 1)]
            if rng.random() < 0.1:
                row += ["9", "x\ny"][: rng.randint(1, 2)]
        rows.append(row)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=rng.choice(("\n", "\r\n"))).writerows(rows)
    return ("\ufeff" if rng.random() < 0.1 else "") + buffer.getvalue()


def test_read_games_csv_reads_as_the_dict_reader(tmp_path):
    # 200 seeded files: the same GameSets as tests/oracles.py's
    # csv.DictReader reading, or the same error, line number included.
    rng = random.Random(20_011)
    path = tmp_path / "games.csv"
    outcomes = []
    for _ in range(200):
        path.write_text(_games_csv_text(rng), encoding="utf-8", newline="")
        aliases = rng.choice((None, None, {"A": "B"}, {"C": "Z", "G,H": "A"}))
        results = []
        for reader in (read_games_csv, read_games_csv_dict):
            try:
                results.append(reader(path, aliases))
            except Exception as exc:  # the exception itself is compared
                results.append((type(exc), str(exc)))
        assert results[0] == results[1], path.read_text(encoding="utf-8")
        outcomes.append(isinstance(results[0][0], GameSet))
    # Files read and files refused are both common enough to compare.
    assert 40 <= sum(outcomes) <= 160


class TestReadAliasCsv:
    def test_round_trip(self):
        aliases = read_alias_csv(DATA_DIR / "aliases.csv")
        assert aliases == {"Saint Cats": "St. Cats"}

    def test_bad_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("from,to\nA,B\n")
        with pytest.raises(MalformedInputError):
            read_alias_csv(bad)

    def test_conflicting_duplicate(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("raw_name,canonical_name\nA,B\nA,C\n")
        with pytest.raises(MalformedInputError):
            read_alias_csv(bad)

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = _plain_and_marked(tmp_path, "raw_name,canonical_name\nA,B\n")
        assert read_alias_csv(plain) == {"A": "B"}
        assert read_alias_csv(marked) == {"A": "B"}

    def test_an_empty_file_is_empty(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(EmptyDataError, match="empty file"):
            read_alias_csv(empty)

    def test_a_row_of_one_cell_is_refused(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("raw_name,canonical_name\nA,B\nC\n")
        with pytest.raises(MalformedInputError, match="line 3: expected two columns"):
            read_alias_csv(bad)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "aliases.csv"
        path.write_text("raw_name,canonical_name\n\nA,B\n , \n,\nC,D\n")
        assert read_alias_csv(path) == {"A": "B", "C": "D"}


class TestReadFeatureTable:
    def test_college_matrix_reproduced(self):
        matrix = read_feature_table(DATA_DIR / "college_features.csv")
        assert matrix.labels == tuple(COLLEGE_LABELS)
        assert np.array_equal(
            np.asarray(matrix.weights), np.asarray(COLLEGE_WEIGHTS)
        )

    def test_college_objective(self):
        matrix = read_feature_table(DATA_DIR / "college_features.csv")
        result = solve_lop(matrix)
        assert result.optimal_value == pytest.approx(COLLEGE_K_STAR)
        assert result.optimal_value / matrix.total_sum() == pytest.approx(169 / 225)

    def test_rank_ties_credit_half(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("item,f1,f2\nA,1,2\nB,1,5\n")
        matrix = read_feature_table(path)
        assert matrix[1, 2] == pytest.approx(1.5)
        assert matrix[2, 1] == pytest.approx(0.5)

    def test_ratio_cells_parse_as_fractions(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("item,f1\nA,9/1\nB,10/1\n")
        matrix = read_feature_table(path)
        assert matrix[1, 2] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "body",
        [
            "college,f1\nA,1\nB,2\n",
            "item,f1\nA,1\nB,1,2\n",
            "item,f1\nA,1\nA,2\n",
            "item,f1\nA,one\nB,2\n",
        ],
        ids=["header", "ragged", "duplicate", "unparsable"],
    )
    def test_malformed_tables(self, tmp_path, body):
        path = tmp_path / "features.csv"
        path.write_text(body)
        with pytest.raises(MalformedInputError):
            read_feature_table(path)

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = _plain_and_marked(tmp_path, "item,f1,f2\nA,1,2\nB,1,5\n")
        matrix = read_feature_table(plain)
        assert matrix.labels == ("A", "B")
        assert read_feature_table(marked) == matrix

    def test_single_item_is_empty(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("item,f1\nA,1\n")
        with pytest.raises(EmptyDataError):
            read_feature_table(path)

    def test_an_empty_file_is_empty(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("")
        with pytest.raises(EmptyDataError, match="empty file"):
            read_feature_table(path)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("item,f1,f2\n\nA,1,2\n , ,\n,,\nB,1,5\n\n")
        expected = tmp_path / "plain.csv"
        expected.write_text("item,f1,f2\nA,1,2\nB,1,5\n")
        assert read_feature_table(path) == read_feature_table(expected)


def _random_schedule(rng: np.random.Generator) -> tuple[GameSet, bool]:
    """A random schedule over T01..Tnn and whether it holds idle teams.

    Teams fall into one to three groups that never meet, so the schedule
    is often disconnected, and a team alone in its group or drawn idle
    plays no game. A quarter of the games are ties and a third are
    playoff games.
    """
    n = int(rng.integers(2, 12))
    group = rng.integers(0, rng.integers(1, 4), size=n)
    group[rng.random(n) < 0.15] = -1
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j and group[i] == group[j] >= 0]
    if not pairs:
        group[:2], pairs = 0, [(0, 1)]
    records = []
    for k in rng.integers(0, len(pairs), size=int(rng.integers(1, 40))):
        i, j = pairs[k]
        score_a = int(rng.integers(0, 30))
        score_b = score_a if rng.random() < 0.25 else int(rng.integers(0, 30))
        stage = "playoff" if rng.random() < 1 / 3 else "regular"
        records.append(_game(f"T{i + 1:02d}", f"T{j + 1:02d}", score_a, score_b, stage))
    played = {t for r in records for t in (r.team_a, r.team_b)}
    teams = tuple(f"T{t + 1:02d}" for t in range(n))
    return GameSet(teams=teams, games=tuple(records)), len(played) < n


class TestOutcomeTableAgainstLoops:
    """The outcome table's consumers equal the per-game reference loops
    bit for bit: every sum is of integers or halves, so the order of the
    additions cannot change a bit."""

    def test_random_schedules(self):
        rng = np.random.default_rng(24)
        seen = {"tie": 0, "idle": 0, "disconnected": 0, "playoff": 0}
        for _ in range(300):
            gs, idle = _random_schedule(rng)
            seen["idle"] += idle
            seen["tie"] += gs.tie_count() > 0
            seen["playoff"] += gs.game_count(Stage.PLAYOFF) > 0
            for stage in Stage:
                if not gs.game_count(stage):
                    continue
                weights = build_win_matrix(gs, stage).weights
                assert weights.tobytes() == win_matrix_loop(gs, stage).tobytes()
                sigma = ranking_from_order(rng.permutation(gs.team_count) + 1)
                for tie_mode in ("half", "strict"):
                    accuracy = hindsight_accuracy(gs, stage, sigma, tie_mode)
                    assert type(accuracy) is float
                    assert accuracy == ranking_accuracy_loop(gs, stage, sigma, tie_mode)
                    if stage is Stage.PLAYOFF:
                        assert foresight_accuracy(gs, sigma, tie_mode) == accuracy
            colley = colley_ratings(gs)
            assert colley.values.tobytes() == colley_loop(gs).tobytes()
            assert colley.connected
            massey = massey_ratings(gs)
            values, connected = massey_loop(gs)
            assert massey.values.tobytes() == values.tobytes()
            assert massey.connected is connected
            seen["disconnected"] += not connected
        assert min(seen.values()) >= 30 and seen["disconnected"] <= 270, seen


class TestBuildWinMatrix:
    def test_total_equals_game_count(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            games = random_game_set(rng, 6, int(rng.integers(1, 25)))
            matrix = build_win_matrix(games, Stage.REGULAR)
            assert matrix.total_sum() == pytest.approx(
                games.game_count(Stage.REGULAR)
            )

    def test_tie_awards_half_to_both(self):
        games = game_set_from_records([_game("A", "B", 7, 7)])
        matrix = build_win_matrix(games, Stage.REGULAR)
        assert matrix[1, 2] == 0.5 and matrix[2, 1] == 0.5

    def test_labels_are_teams(self):
        (games,) = read_games_csv(DATA_DIR / "digraph3_season.csv")
        assert build_win_matrix(games, "regular").labels == games.teams

    def test_missing_stage_is_rejected(self):
        games = game_set_from_records([_game("A", "B", 1, 0)])
        with pytest.raises(EmptyDataError):
            build_win_matrix(games, Stage.PLAYOFF)


class TestHindsightAccuracy:
    def test_optimal_ranking_attains_lambda(self):
        (games,) = read_games_csv(DATA_DIR / "digraph3_season.csv")
        matrix = build_win_matrix(games, Stage.REGULAR)
        result = solve_lop(matrix)
        accuracy = hindsight_accuracy(games, Stage.REGULAR, result.ranking)
        assert accuracy == pytest.approx(result.optimal_value / matrix.total_sum())

    def test_reversed_perfect_ranking_scores_zero(self):
        games = game_set_from_records(
            [_game("A", "B", 2, 0), _game("A", "C", 2, 0), _game("B", "C", 2, 0)]
        )
        assert hindsight_accuracy(
            games, Stage.REGULAR, ranking_from_order((3, 2, 1))
        ) == pytest.approx(0.0)

    def test_tie_modes(self):
        games = game_set_from_records(
            [_game("A", "B", 7, 7), _game("A", "B", 10, 0)]
        )
        sigma = ranking_from_order((1, 2))
        assert hindsight_accuracy(games, "regular", sigma) == pytest.approx(0.75)
        assert hindsight_accuracy(
            games, "regular", sigma, tie_mode="strict"
        ) == pytest.approx(0.5)

    def test_bad_tie_mode(self):
        games = game_set_from_records([_game("A", "B", 1, 0)])
        with pytest.raises(ValueError):
            hindsight_accuracy(games, "regular", ranking_from_order((1, 2)), "both")

    def test_wrong_ranking_size(self):
        games = game_set_from_records([_game("A", "B", 1, 0)])
        with pytest.raises(DimensionMismatchError):
            hindsight_accuracy(games, "regular", ranking_from_order((1, 2, 3)))

    def test_no_games_at_stage(self):
        games = game_set_from_records([_game("A", "B", 1, 0)])
        with pytest.raises(EmptyDataError):
            hindsight_accuracy(games, "playoff", ranking_from_order((1, 2)))

    def test_brute_force_maximum_is_lambda(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            games = random_game_set(rng, 5, 12, tie_chance=0.2)
            matrix = build_win_matrix(games, Stage.REGULAR)
            n = matrix.n
            best = max(
                hindsight_accuracy(games, "regular", ranking_from_order(p))
                for p in itertools.permutations(range(1, n + 1))
            )
            assert best == pytest.approx(max_hindsight(np.asarray(matrix.weights)))


class TestForesight:
    def test_perfect_and_complementary(self):
        (games,) = read_games_csv(DATA_DIR / "divergence4.csv")
        sigma = ranking_from_order((1, 2, 3, 4))
        assert foresight_accuracy(games, sigma) == pytest.approx(1.0)
        assert foresight_accuracy(games, reverse_ranking(sigma)) == pytest.approx(0.0)

    def test_reverse_sums_to_one_without_ties(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            games = random_game_set(rng, 5, 14, tie_chance=0.0, playoff_chance=0.4)
            if not games.games_at(Stage.PLAYOFF):
                continue
            sigma = ranking_from_order(tuple(range(1, games.team_count + 1)))
            total = foresight_accuracy(games, sigma) + foresight_accuracy(
                games, reverse_ranking(sigma)
            )
            assert total == pytest.approx(1.0)

    def test_no_playoffs_is_rejected(self):
        games = game_set_from_records([_game("A", "B", 1, 0)])
        with pytest.raises(EmptyDataError):
            foresight_accuracy(games, ranking_from_order((1, 2)))


class TestForesightDivergence:
    def test_two_optima_split_one_playoff_game(self):
        (games,) = read_games_csv(DATA_DIR / "divergence4.csv")
        divergence, kt = foresight_divergence(games)
        assert kt.kappa == 1
        assert divergence == pytest.approx(0.5)
        assert {kt.pair[0].order, kt.pair[1].order} == {
            (1, 2, 3, 4),
            (1, 3, 2, 4),
        }

    def test_unique_optimum_diverges_zero(self):
        games = game_set_from_records(
            [
                _game("A", "B", 2, 0),
                _game("A", "C", 2, 0),
                _game("B", "C", 2, 0),
                _game("A", "B", 2, 0, stage="playoff"),
            ]
        )
        divergence, kt = foresight_divergence(games)
        assert kt.kappa == 0
        assert divergence == 0.0

    def test_unproven_solve_is_refused(self, monkeypatch):
        # A 19-team round robin, above the table budget, whose heuristic
        # incumbent (153) falls short of k* (154); a value search stopped at
        # once leaves that incumbent unproven, and no pair of rankings worth
        # 153 may be reported.
        rng = np.random.default_rng(3)
        records = []
        for i in range(1, 20):
            for j in range(i + 1, 20):
                score = (1, 0) if rng.random() < 0.85 else (0, 1)
                records.append(_game(f"T{i:02d}", f"T{j:02d}", *score))
        records.append(_game("T01", "T02", 1, 0, stage="playoff"))
        games = game_set_from_records(records)
        assert games.team_count > lop._TABLE_MAX_N
        monkeypatch.setattr(lop, "_HEURISTIC_RESTARTS", 0)
        cfg = SolverConfig(time_limit=60)
        k_star = solve_lop(build_win_matrix(games, Stage.REGULAR), cfg).optimal_value
        monkeypatch.setattr(
            lop._Search, "run_value", lambda self, start_order, start_value: True
        )
        unproven = solve_lop(build_win_matrix(games, Stage.REGULAR), cfg)
        assert not unproven.proven and unproven.optimal_value < k_star
        with pytest.raises(UnprovenOptimumError):
            foresight_divergence(games, cfg)

    def test_deadline_inside_the_table_build_is_refused(self, monkeypatch):
        # Inside the table budget k* is the table's; a build that runs into
        # its deadline leaves no proven value.
        (games,) = read_games_csv(DATA_DIR / "divergence4.csv")
        real = lop._build_completion_table
        monkeypatch.setattr(
            lop,
            "_build_completion_table",
            lambda w, deadline, narrow: real(w, time.monotonic() - 1.0, narrow),
        )
        with pytest.raises(UnprovenOptimumError):
            foresight_divergence(games, SolverConfig(time_limit=60))

    def test_one_deadline_covers_the_whole_call(self, clock_jumps_after_solve):
        (games,) = read_games_csv(DATA_DIR / "divergence4.csv")
        with pytest.raises(UnprovenOptimumError):
            foresight_divergence(
                games, SolverConfig(time_limit=clock_jumps_after_solve)
            )


class TestPearsonCorrelation:
    def test_identical_series(self):
        assert pearson_correlation([1.0, 2.0, 4.0], [1.0, 2.0, 4.0]) == 1.0

    def test_affine_series(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson_correlation([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_stays_in_range(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            xs = rng.normal(size=8)
            ys = rng.normal(size=8)
            assert -1.0 <= pearson_correlation(xs, ys) <= 1.0

    def test_zero_variance_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pearson_correlation([1.0], [2.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pearson_correlation([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSeasonReport:
    def test_digraph_three_cycle_season(self):
        (games,) = read_games_csv(DATA_DIR / "digraph3_season.csv")
        report = season_report(games)
        assert report.season == 2001
        assert report.lambda_ == pytest.approx(2 / 3)
        assert report.kappa == 2
        assert report.k_star == pytest.approx(2.0)
        assert report.optima_count == 3
        assert report.proven and not report.truncated
        assert report.hindsight["optimal"] == pytest.approx(report.lambda_)
        assert report.foresight == {} and report.foresight_divergence is None

    def test_divergence_fixture_report(self):
        (games,) = read_games_csv(DATA_DIR / "divergence4.csv")
        report = season_report(games)
        assert report.lambda_ == pytest.approx(6 / 7)
        assert report.kappa == 1
        assert report.optima_count == 2
        assert report.foresight_divergence == pytest.approx(0.5)
        assert set(report.foresight) == {"optimal", "colley", "massey"}
        assert report.witness_pair[0].order <= report.witness_pair[1].order

    def test_witness_foresight_scores_the_witness_pair(self):
        (games,) = read_games_csv(DATA_DIR / "divergence4.csv")
        report = season_report(games)
        assert report.witness_foresight == tuple(
            foresight_accuracy(games, sigma) for sigma in report.witness_pair
        )
        first, second = report.witness_foresight
        assert report.foresight_divergence == abs(first - second)

    def test_no_witness_foresight_without_playoffs(self):
        (games,) = read_games_csv(DATA_DIR / "digraph3_season.csv")
        assert season_report(games).witness_foresight is None

    def test_one_deadline_covers_the_whole_call(self, clock_jumps_after_solve):
        (games,) = read_games_csv(DATA_DIR / "divergence4.csv")
        with pytest.raises(UnprovenOptimumError):
            season_report(games, SolverConfig(time_limit=clock_jumps_after_solve))

    def test_multi_season_file(self):
        aliases = read_alias_csv(DATA_DIR / "aliases.csv")
        reports = [
            season_report(gs)
            for gs in read_games_csv(DATA_DIR / "multi_season.csv", aliases)
        ]
        assert [r.season for r in reports] == [2010, 2011]
        assert reports[0].lambda_ == pytest.approx(5.5 / 6)
        assert reports[0].kappa == 1
        assert reports[1].lambda_ == pytest.approx(5 / 6)
        assert reports[1].kappa == 2

    def test_mixed_seasons_rejected(self):
        games = game_set_from_records(
            [_game("A", "B", 1, 0, season=2000), _game("A", "B", 1, 0, season=2001)]
        )
        with pytest.raises(MalformedInputError):
            season_report(games)

    def test_no_regular_games_rejected(self):
        games = game_set_from_records([_game("A", "B", 1, 0, stage="playoff")])
        with pytest.raises(EmptyDataError):
            season_report(games)

    def test_hindsight_bounded_by_lambda_on_random_seasons(self):
        rng = np.random.default_rng(43)
        for _ in range(8):
            games = random_game_set(
                rng, int(rng.integers(3, 7)), 12, tie_chance=0.2, playoff_chance=0.2
            )
            if not games.games_at(Stage.REGULAR):
                continue
            report = season_report(games)
            for accuracy in report.hindsight.values():
                assert accuracy <= report.lambda_ + 1e-12
            assert report.hindsight["optimal"] == pytest.approx(report.lambda_)
            for _ in range(20):
                sigma = ranking_from_order(
                    tuple(
                        int(x) + 1
                        for x in rng.permutation(games.team_count)
                    )
                )
                assert (
                    hindsight_accuracy(games, "regular", sigma)
                    <= report.lambda_ + 1e-12
                )

    def test_all_optima_share_hindsight(self):
        from rankability.lop import enumerate_optima

        (games,) = read_games_csv(DATA_DIR / "digraph3_season.csv")
        matrix = build_win_matrix(games, Stage.REGULAR)
        optima = enumerate_optima(matrix)
        accuracies = {
            hindsight_accuracy(games, "regular", sigma)
            for sigma in optima.rankings
        }
        assert len(accuracies) == 1
