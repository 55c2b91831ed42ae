"""Checks on the package source itself."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankability
from rankability import InvalidArgumentError, MalformedInputError, RankabilityError
from rankability.core import WeightMatrix, ranking_from_order
from rankability.ktdiam import kt_solution_from_rankings, solve_kt, validate_kt_solution
from rankability.lop import SolverConfig
from rankability.rating import RatingVector
from rankability.sports import (
    GameRecord,
    build_win_matrix,
    game_set_from_records,
    hindsight_accuracy,
)

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


# The builders of what every exact search of a matrix shares, which only
# lop._Core calls.
_CORE_BUILDERS = {"_exact_sums", "_build_completion_table", "_split_row_sums"}


def _calls(node: ast.AST, scope: tuple[str, ...], names):
    """(name, scope) of each call below node of a function or method in names.

    scope names the classes and functions that enclose the call, outermost
    first.
    """
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (*scope, child.name)
        elif isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                yield name, scope
        yield from _calls(child, inner, names)


def test_only_the_core_builds_the_shared_structures():
    # One exact core per matrix: a search that built its own slack, drop
    # rows or completion table would hold a second copy of them.
    stray = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, scope in _calls(tree, (), _CORE_BUILDERS):
            if (path.name, scope[:1]) != ("lop.py", ("_Core",)):
                stray.append(f"{path.name}: {name} in {'.'.join(scope) or 'module'}")
    assert stray == []


def test_one_kernel_forms_the_layered_children():
    # The value passes, the witness pass and the optima walk form their
    # children through lop._LayerKernel: a second caller of
    # _SplitRows.children would be a second chunk rule.
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        callers += [(path.name, scope) for _, scope in _calls(tree, (), {"children"})]
    assert callers == [("lop.py", ("_LayerKernel", "kept"))]


def _scoped_attributes(node: ast.AST, scope: tuple[str, ...], names):
    """(attribute node, scope) of each read of an attribute in names below node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (*scope, child.name)
        elif isinstance(child, ast.Attribute) and child.attr in names:
            yield child, scope
        yield from _scoped_attributes(child, inner, names)


def test_only_the_core_knows_the_completion_table_format():
    # _Core.narrow picks the table's format and _Core.unit reads its
    # entries in drop-sum units. A reader that looked at narrow, or at a
    # typecode other than to view the table's own buffer, would be a second
    # owner of the format.
    stray = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        views = {
            id(arg)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "frombuffer"
            for arg in node.args
        }
        for node, scope in _scoped_attributes(tree, (), {"narrow", "typecode"}):
            core = (path.name, scope[:1]) == ("lop.py", ("_Core",))
            if node.attr == "narrow" and not core or node.attr == "typecode" and id(node) not in views:
                stray.append(f"{path.name}:{node.lineno} {node.attr} in {'.'.join(scope)}")
    assert stray == []


@pytest.mark.parametrize("name", ["value.py", "witness.py"])
def test_only_the_packed_key_reads_its_layout(name):
    # lop._PackedKey packs and reads the int64 keys; the passes call its
    # methods rather than shift and mask by its fields.
    (path,) = [path for path in SOURCES if path.name == name]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    fields = {"code_bits", "low_bits", "shift"}
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in fields)
        or (isinstance(node, ast.Name) and node.id in fields)
    ]
    assert reads == [], f"{name}: key layout read at lines {reads}"


# lop._Search's depth-first state: only its value search without exact
# sums, and the oracles in the tests, walk it.
_DEPTH_FIRST_FIELDS = {
    "f", "u", "rem_mask", "prefix", "in_rem", "s_a", "s_m", "apply", "undo", "reset"
}


@pytest.mark.parametrize("name", ["value.py", "witness.py"])
def test_the_passes_start_from_the_core(name):
    # The value passes, the witness pass and its descent start from the
    # core's root bound at the full set. A read of the depth-first fields
    # would be a second start state, which lex_min_witness once reset.
    (path,) = [path for path in SOURCES if path.name == name]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = [node.lineno for node, _ in _scoped_attributes(tree, (), _DEPTH_FIRST_FIELDS)]
    assert reads == [], f"{name}: depth-first fields read at lines {reads}"


# The layer loops call ndarray methods, not numpy's Python-level wrappers
# of them: np.flatnonzero runs 7 Python frames around the same C call, and
# np.cumsum 3, a fixed cost on every small layer. None stands for the whole
# module.
_LAYER_LOOPS = {
    "value.py": None,
    "witness.py": None,
    "lop.py": {"_LayerKernel.kept", "_walk_optima", "_step_gains", "_order_values"},
}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for inner in node.body:
                if isinstance(inner, ast.FunctionDef):
                    yield f"{node.name}.{inner.name}", inner


@pytest.mark.parametrize("name", sorted(_LAYER_LOOPS))
def test_the_layer_loops_call_array_methods(name):
    (path,) = [path for path in SOURCES if path.name == name]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = _LAYER_LOOPS[name]
    if functions is None:
        scopes = [tree]
    else:
        scopes = [node for qualname, node in _definitions(tree) if qualname in functions]
        assert len(scopes) == len(functions)
    calls = [
        node.lineno
        for scope in scopes
        for node in ast.walk(scope)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"flatnonzero", "cumsum"}
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
    ]
    assert calls == [], f"{name}: np.flatnonzero or np.cumsum at lines {calls}"


def test_bad_arguments_raise_one_typed_error():
    # A RankabilityError that is also a ValueError, so callers that catch
    # ValueError keep working.
    record = GameRecord(
        season=2000, stage="regular", team_a="A", team_b="B", score_a=1, score_b=0
    )
    games = game_set_from_records([record])
    sigma = ranking_from_order((1, 2))
    cyclic = WeightMatrix([[0, 2, 1], [0, 0, 3], [1, 0, 0]])
    solution = kt_solution_from_rankings(
        ranking_from_order((1, 2, 3)), ranking_from_order((1, 2, 3))
    )
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
        # A stage string that names no Stage.
        lambda: GameRecord(
            season=2000, stage="bogus", team_a="A", team_b="B", score_a=1, score_b=0
        ),
        lambda: games.games_at("bogus"),
        lambda: build_win_matrix(games, "bogus"),
        lambda: hindsight_accuracy(games, "bogus", sigma),
        # 1-based accessors outside 1..n: index 0 would read entry (2, 1)
        # and item 2's rank, and -1 the last row or item.
        lambda: WeightMatrix([[0, 1], [2, 0]])[0, 1],
        lambda: WeightMatrix([[0, 1], [2, 0]])[1, -1],
        lambda: WeightMatrix([[0, 1], [2, 0]])[3, 1],
        lambda: WeightMatrix([[0, 1], [2, 0]])[1.0, 2],
        lambda: sigma.rank_of(0),
        lambda: sigma.rank_of(-1),
        lambda: sigma.rank_of(3),
        # A k* that is not a real number: NaN once passed every objective
        # check, "5" and None raised a bare TypeError, and True ran as 1.
        lambda: validate_kt_solution(cyclic, float("nan"), solution),
        lambda: solve_kt(cyclic, "5"),
        lambda: solve_kt(cyclic, None),
        lambda: solve_kt(cyclic, True),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError) as info:
            call()
        assert isinstance(info.value, RankabilityError)
        assert isinstance(info.value, ValueError)
    # A game's season and scores must be integers, as its other fields are
    # checked, with MalformedInputError: a string score once raised a bare
    # TypeError, and a string season, a fractional score and a bool were
    # accepted.
    cases = (("x", 1), (2000, "3"), (2000, 1.5), (2000, True), (True, 1), (2000, np.True_))
    for season, score_a in cases:
        with pytest.raises(MalformedInputError):
            GameRecord(season, "regular", "A", "B", score_a, 1)
    record = GameRecord(2000.0, "regular", "A", "B", np.int64(3), 1.0)
    assert (record.season, record.score_a, record.score_b) == (2000, 3, 1)
    assert all(type(v) is int for v in (record.season, record.score_a, record.score_b))


class TestLazyNamespace:
    """The package resolves its public names on first access (PEP 562)."""

    def test_names_resolve_to_their_submodules_objects_on_first_access(self):
        # A fresh interpreter: this one has read every name already.
        code = """\
import importlib, json, sys
import rankability
loaded = sorted(m for m in sys.modules
                if m.partition(".")[0] == "numpy" or m.startswith("rankability."))
wrong = []
for name in rankability.__all__:
    if name == "__version__":
        continue
    module = importlib.import_module(f"rankability.{rankability._SUBMODULE[name]}")
    value = getattr(module, name)
    # Defined or exported there, not merely imported from elsewhere.
    home = name in getattr(module, "__all__", ()) or (
        getattr(value, "__module__", None) == module.__name__
    )
    if getattr(rankability, name) is not value or not home:
        wrong.append(name)
missing = sorted(set(rankability.__all__) - set(dir(rankability)))
print(json.dumps([loaded, wrong, missing]))
"""
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        loaded, wrong, missing = json.loads(result.stdout)
        # import rankability loads neither numpy nor any solver module.
        assert loaded == []
        assert wrong == [] and missing == []

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'solve_lp'"):
            rankability.solve_lp
        with pytest.raises(ImportError):
            from rankability import solve_lp  # noqa: F401
