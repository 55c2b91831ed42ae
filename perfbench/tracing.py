"""Spans around the program's public functions, recorded from outside.

Each traced function is replaced at every module attribute that holds
it, which is where its callers look it up (``solve_lop`` is bound in
``rankability.lop``, ``rankability.sports`` and ``rankability.cli``).
Spans stay in memory; the benchmark writes them out when it ends. The
process is single-threaded, so spans nest and a span's self time is its
duration minus that of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

# (span name, module, function). Both accuracy functions share one span name.
TRACED = (
    ("cli.main", "rankability.cli", "main"),
    ("core.read_matrix_csv", "rankability.core", "read_matrix_csv"),
    ("lop.heuristic_ranking", "rankability.lop", "heuristic_ranking"),
    ("lop.solve_lop", "rankability.lop", "solve_lop"),
    ("lop.enumerate_optima", "rankability.lop", "enumerate_optima"),
    ("ktdiam.solve_kt", "rankability.ktdiam", "solve_kt"),
    ("rating.colley_ratings", "rankability.rating", "colley_ratings"),
    ("rating.massey_ratings", "rankability.rating", "massey_ratings"),
    ("sports.read_games_csv", "rankability.sports", "read_games_csv"),
    ("sports.build_win_matrix", "rankability.sports", "build_win_matrix"),
    ("sports.accuracy", "rankability.sports", "hindsight_accuracy"),
    ("sports.accuracy", "rankability.sports", "foresight_accuracy"),
    ("sports.season_report", "rankability.sports", "season_report"),
)
_MODULES = ("cli", "core", "ktdiam", "lop", "rating", "sports")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    counts: dict = field(default_factory=dict)


def _counts(name: str, result) -> dict:
    """Work counters a span's return value carries."""
    if name == "lop.solve_lop":
        return {"nodes": result.stats.nodes, "pruned": result.stats.pruned}
    if name == "lop.enumerate_optima":
        return {"optima": result.count}
    return {}


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else None, self.run_id))
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx].start, spans[idx].end = start, end
            spans[idx].counts = _counts(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"rankability.{m}") for m in _MODULES]
        for span_name, module_name, attr in TRACED:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._patches):
            setattr(module, key, value)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def summarize(spans: list[Span], run_id: int) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed counts."""
    mine = [(idx, s) for idx, s in enumerate(spans) if s.run_id == run_id]
    child_time = defaultdict(float)
    for _, span in mine:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for idx, span in mine:
        entry = out[span.name]
        duration = span.end - span.start
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time[idx]
        for key, value in span.counts.items():
            entry[key] += value
    return {name: dict(entry) for name, entry in out.items()}


def calls_under(spans: list[Span], run_id: int, name: str, ancestor: str) -> int:
    """Calls of ``name`` made, at any depth, inside an ``ancestor`` span."""
    count = 0
    for span in spans:
        if span.run_id != run_id or span.name != name:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name != ancestor:
            parent = spans[parent].parent
        count += parent is not None
    return count
