"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import rankability

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
