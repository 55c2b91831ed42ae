"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import rankability
from rankability import InvalidArgumentError, RankabilityError
from rankability.core import ranking_from_order
from rankability.lop import SolverConfig
from rankability.rating import RatingVector
from rankability.sports import GameRecord, game_set_from_records, hindsight_accuracy

SOURCES = sorted(Path(rankability.__file__).parent.rglob("*.py"))


def test_sources_are_found():
    assert any(path.name == "lop.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # Library code raises typed RankabilityErrors; an assert vanishes
    # under python -O.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_absolute_tolerances(path):
    # Which objective values tie depends on the weights' scale, so every
    # comparison goes through lop._slack, never a tiny float literal.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-6
    ]
    assert lines == [], f"{path.name}: float literals below 1e-6 at lines {lines}"


def test_bad_arguments_raise_one_typed_error():
    # A RankabilityError that is also a ValueError, so callers that catch
    # ValueError keep working.
    record = GameRecord(
        season=2000, stage="regular", team_a="A", team_b="B", score_a=1, score_b=0
    )
    games = game_set_from_records([record])
    sigma = ranking_from_order((1, 2))
    calls = [
        lambda: SolverConfig(time_limit=0),
        lambda: SolverConfig(enumeration_cap=0),
        # A cap that slices would fail on, and values that do not compare
        # with numbers.
        lambda: SolverConfig(enumeration_cap=1.5),
        lambda: SolverConfig(enumeration_cap=2.0),
        lambda: SolverConfig(enumeration_cap="5"),
        lambda: SolverConfig(time_limit="5"),
        # bool passes the number checks: True would run as 1.
        lambda: SolverConfig(time_limit=True),
        lambda: SolverConfig(enumeration_cap=True),
        lambda: RatingVector(values=[], method="massey"),
        lambda: hindsight_accuracy(games, "regular", sigma, tie_mode="both"),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError) as info:
            call()
        assert isinstance(info.value, RankabilityError)
        assert isinstance(info.value, ValueError)
