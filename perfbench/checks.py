"""Output checks: expected records plus re-checks independent of the program.

A command fails its check on a non-zero exit, an unproven or truncated
result, a canonical-JSON digest that differs from the expected record
taken at the seed commit, or a failed re-check. The re-checks recompute
objectives, Kendall tau distances and win matrices from the benchmark's
own copy of the inputs with plain numpy; they import nothing from the
program.
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from pathlib import Path

import numpy as np

from .workloads import Job

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
_EPS = 1e-9


def load_records() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def block_digest(block) -> str:
    """Digest of one season block of a games command's canonical JSON."""
    return digest(json.dumps(block, indent=2))


def objective(weights: np.ndarray, order) -> float:
    """Weight ranked in agreement by a best-first list of 1-based items."""
    idx = np.asarray(order, dtype=int) - 1
    return float(np.triu(weights[np.ix_(idx, idx)], 1).sum())


def kendall_distance(order1, order2) -> int:
    """Item pairs that two best-first orders rank differently."""
    n = len(order1)
    pos1 = np.empty(n, dtype=int)
    pos2 = np.empty(n, dtype=int)
    pos1[np.asarray(order1) - 1] = np.arange(n)
    pos2[np.asarray(order2) - 1] = np.arange(n)
    d1 = np.sign(pos1[:, None] - pos1[None, :])
    d2 = np.sign(pos2[:, None] - pos2[None, :])
    return int((d1 * d2 < 0).sum() // 2)


def _is_permutation(order, n: int) -> bool:
    return sorted(order) == list(range(1, n + 1))


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= _EPS * max(1.0, abs(y))


def invariants(command: str, payload: dict) -> dict:
    """The relabeling-invariant part of one output (or one season block)."""
    if command == "lop":
        return {"k_star": payload["k_star"]}
    if command == "enumerate":
        return {"optima": payload["count"]}
    if command == "kappa":
        return {"k_star": payload["k_star"], "kappa": payload["kappa"]}
    if command == "season":
        return {
            "k_star": payload["k_star"],
            "optima": payload["optima_count"],
            "kappa": payload["kappa"],
        }
    return {}


def recheck_matrix(command: str, payload: dict, weights: np.ndarray, expected: dict) -> list[str]:
    """Independent checks of a lop, enumerate or kappa payload."""
    n = weights.shape[0]
    problems = []
    if payload.get("command") != command or payload.get("n") != n:
        return [f"payload is not a {command} result for n={n}"]
    if command == "lop":
        order = payload["ranking"]
        if not payload["proven"]:
            problems.append("proven=false")
        if not _is_permutation(order, n):
            problems.append("witness is not a permutation")
        elif not _close(objective(weights, order), payload["k_star"]):
            problems.append("witness objective differs from k_star")
        total = float(weights.sum())
        if not _close(payload["lambda"], payload["k_star"] / total):
            problems.append("lambda differs from k_star / total")
    elif command == "enumerate":
        rankings = [tuple(r) for r in payload["rankings"]]
        if payload["truncated"]:
            problems.append("enumeration truncated")
        if payload["count"] != len(rankings) or not rankings:
            problems.append("count does not match the listed optima")
        if any(a >= b for a, b in zip(rankings, rankings[1:])):
            problems.append("optima are not distinct and sorted")
        k_star = expected.get("k_star")
        if k_star is None or any(
            not _is_permutation(r, n) or not _close(objective(weights, r), k_star)
            for r in rankings
        ):
            problems.append("an optimum does not attain k_star")
    elif command == "kappa":
        first, second = payload["pair"]
        if not payload["proven"]:
            problems.append("proven=false")
        if not (_is_permutation(first, n) and _is_permutation(second, n)):
            problems.append("pair member is not a permutation")
            return problems
        for order in (first, second):
            if not _close(objective(weights, order), payload["k_star"]):
                problems.append("pair member does not attain k_star")
        if kendall_distance(first, second) != payload["kappa"]:
            problems.append("pair distance differs from kappa")
        if payload["concordant_count"] != comb(n, 2) - payload["kappa"]:
            problems.append("concordant_count differs from C(n,2) - kappa")
    return problems


def win_matrix(season, names: tuple[str, ...]) -> np.ndarray:
    """Regular-season wins plus half per tie, in lexicographic name order."""
    index = {name: pos for pos, name in enumerate(sorted(names))}
    w = np.zeros((season.teams, season.teams))
    for stage, a, b, sa, sb in season.games:
        if stage != "regular":
            continue
        i, j = index[names[a]], index[names[b]]
        if sa > sb:
            w[i, j] += 1.0
        elif sb > sa:
            w[j, i] += 1.0
        else:
            w[i, j] += 0.5
            w[j, i] += 0.5
    return w


def recheck_season(block: dict, season, names: tuple[str, ...]) -> list[str]:
    """Independent checks of one season block of the season command."""
    problems = []
    if block["season"] != season.year or block["teams"] != sorted(names):
        return [f"season block does not match season {season.year}"]
    w = win_matrix(season, names)
    n = season.teams
    k_star = block["k_star"]
    if not block["proven"] or block["truncated"]:
        problems.append(f"{season.year}: unproven or truncated")
    if not _close(block["lambda"], k_star / float(w.sum())):
        problems.append(f"{season.year}: lambda differs from k_star / games")
    if not _close(block["hindsight"]["optimal"], block["lambda"]):
        problems.append(f"{season.year}: optimal hindsight accuracy differs from lambda")
    orders = [block["optimal_ranking"], *block["witness_pair"]]
    if not all(_is_permutation(o, n) for o in orders):
        return problems + [f"{season.year}: a ranking is not a permutation"]
    if any(not _close(objective(w, o), k_star) for o in orders):
        problems.append(f"{season.year}: an optimal ranking does not attain k_star")
    if kendall_distance(*block["witness_pair"]) != block["kappa"]:
        problems.append(f"{season.year}: witness pair distance differs from kappa")
    return problems


def recheck_ratings(block: dict, season, names: tuple[str, ...]) -> list[str]:
    """Colley ratings average 1/2; both rankings are permutations."""
    n = season.teams
    if block["season"] != season.year or block["teams"] != sorted(names):
        return [f"ratings block does not match season {season.year}"]
    problems = []
    if abs(float(np.mean(block["colley"]["values"])) - 0.5) > 1e-9:
        problems.append(f"{season.year}: Colley ratings do not average 1/2")
    for method in ("colley", "massey"):
        if not _is_permutation(block[method]["ranking"], n):
            problems.append(f"{season.year}: {method} ranking is not a permutation")
    return problems


def _compare_record(key: str, got: str, derived: dict, records: dict) -> list[str]:
    record = records.get(key)
    if record is None:
        return [f"{key}: no expected record"]
    problems = [
        f"{key}: {name}={derived[name]!r}, expected {value!r}"
        for name, value in record.items()
        if name != "sha256" and name in derived and derived[name] != value
    ]
    if got != record["sha256"]:
        problems.append(f"{key}: canonical output digest differs from the record")
    return problems


def check(job: Job, returncode: int, stdout: str, records: dict) -> list[str]:
    """Every problem found in one command's result; empty means it passed."""
    if returncode != 0:
        return [f"{job.record_keys[0]}: exit code {returncode}"]
    try:
        return _check_output(job, stdout, json.loads(stdout), records)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{job.record_keys[0]}: malformed output ({exc!r})"]


def _check_output(job: Job, stdout: str, payload: dict, records: dict) -> list[str]:
    if job.weights is not None:
        key = job.record_keys[0]
        expected = records.get(key, {})
        problems = _compare_record(key, digest(stdout), invariants(job.command, payload), records)
        return problems + recheck_matrix(job.command, payload, job.weights, expected)
    if stdout != json.dumps(payload, indent=2) + "\n":
        return [f"{job.command}: stdout is not canonical JSON"]
    blocks = payload["seasons"]
    if payload["command"] != job.command or len(blocks) != len(job.seasons):
        return [f"{job.command}: expected {len(job.seasons)} season blocks"]
    problems = []
    recheck = recheck_season if job.command == "season" else recheck_ratings
    for key, block, season, names in zip(job.record_keys, blocks, job.seasons, job.team_names):
        problems += _compare_record(key, block_digest(block), invariants(job.command, block), records)
        problems += recheck(block, season, names)
    return problems
