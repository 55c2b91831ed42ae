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
