"""Acceptance gate: ten criteria, one test (one pass/fail line) each.

Run with `pytest -v tests/test_acceptance.py` to get exactly one
PASSED/FAILED line per criterion. Each test also prints a one-line
summary with the measured values and runtime.
"""

from __future__ import annotations

import itertools
import json
import time

import numpy as np
import pytest

from rankability import (
    enumerate_optima,
    hindsight_accuracy,
    kendall_tau_distance,
    kt_solution_from_rankings,
    massey_ratings,
    colley_ratings,
    build_win_matrix,
    game_set_from_records,
    ranking_from_order,
    read_alias_csv,
    read_feature_table,
    read_games_csv,
    season_report,
    solve_kt,
    solve_lop,
    validate_kt_solution,
    GameRecord,
    Stage,
)
from rankability import ktdiam
from rankability.cli import main as cli_main

from tests.conftest import (
    COLLEGE_K_STAR,
    COLLEGE_OPTIMA_ORDERS,
    COLLEGE_TOTAL,
    DATA_DIR,
    DIGRAPH_KAPPA,
    DIGRAPH_LAMBDA,
    DIGRAPH_OPTIMA_COUNT,
    DIGRAPH_WEIGHTS,
    random_game_set,
    random_half_integer_matrix,
)
from tests.oracles import brute_force_kappa, brute_force_lop, order_objective

TOL = 1e-9


def random_ranking(rng, n):
    return ranking_from_order(int(v) for v in rng.permutation(n) + 1)


@pytest.fixture(scope="module")
def college():
    return read_feature_table(DATA_DIR / "college_features.csv")


def test_criterion_01_college_k_star_and_lambda(college):
    start = time.perf_counter()
    result = solve_lop(college)
    elapsed = time.perf_counter() - start
    lambda_ = result.optimal_value / college.total_sum()
    assert result.proven
    assert abs(result.optimal_value - COLLEGE_K_STAR) <= TOL
    assert abs(lambda_ - COLLEGE_K_STAR / COLLEGE_TOTAL) <= TOL
    assert elapsed < 5.0
    print(f"criterion 1: PASS - k*=169, lambda=169/225, {elapsed:.3f}s")


def test_criterion_02_college_six_optima(college):
    start = time.perf_counter()
    optima = enumerate_optima(college)
    elapsed = time.perf_counter() - start
    assert not optima.truncated
    found = {r.order for r in optima.rankings}
    assert found == set(COLLEGE_OPTIMA_ORDERS)
    assert elapsed < 10.0
    print(f"criterion 2: PASS - exactly the six optimal rankings, {elapsed:.3f}s")


def test_criterion_03_college_kappa(college):
    start = time.perf_counter()
    kt = solve_kt(college, COLLEGE_K_STAR)
    elapsed = time.perf_counter() - start
    assert kt.proven
    assert kt.kappa == 3
    first, second = kt.pair
    assert first.order in set(COLLEGE_OPTIMA_ORDERS)
    assert second.order in set(COLLEGE_OPTIMA_ORDERS)
    assert kendall_tau_distance(first, second) == 3
    assert elapsed < 30.0
    print(f"criterion 3: PASS - kappa=3 with optimal witness pair, {elapsed:.3f}s")


def test_criterion_04_digraph_fixtures():
    start = time.perf_counter()
    from rankability import WeightMatrix

    for which, weights in DIGRAPH_WEIGHTS.items():
        matrix = WeightMatrix(weights)
        result = solve_lop(matrix)
        assert result.proven
        assert result.optimal_value / matrix.total_sum() == DIGRAPH_LAMBDA[which]
        optima = enumerate_optima(matrix)
        assert optima.count == DIGRAPH_OPTIMA_COUNT[which]
        kt = solve_kt(matrix, result.optimal_value)
        assert kt.proven
        assert kt.kappa == DIGRAPH_KAPPA[which]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 4: PASS - all digraph lambda/count/kappa exact, {elapsed:.3f}s")


def test_criterion_05_oracle_equivalence_200_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(20260813)
    for trial in range(200):
        n = int(rng.integers(3, 9))
        matrix = random_half_integer_matrix(rng, n)
        weights = matrix.weights

        k_star, optimal_orders = brute_force_lop(weights)
        result = solve_lop(matrix)
        assert result.proven, f"trial {trial}: unproven"
        assert abs(result.optimal_value - k_star) <= TOL, f"trial {trial}: value"
        witness_value = order_objective(weights, result.ranking.order)
        assert abs(witness_value - k_star) <= TOL, f"trial {trial}: witness"

        optima = enumerate_optima(matrix)
        assert not optima.truncated
        found = sorted(r.order for r in optima.rankings)
        assert found == optimal_orders, f"trial {trial}: optima set"

        kt = solve_kt(matrix, result.optimal_value)
        _, _, expected_kappa, _ = brute_force_kappa(weights, orders=optimal_orders)
        assert kt.proven
        assert kt.kappa == expected_kappa, f"trial {trial}: kappa"
        joint = ktdiam._kappa_by_pair_search(matrix, result.optimal_value)
        assert joint.proven
        assert joint.kappa == expected_kappa, f"trial {trial}: joint kappa"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 5: PASS - 200/200 instances match brute force, {elapsed:.1f}s")


def test_criterion_06_property_suite():
    rng = np.random.default_rng(64)
    pair_total = lambda n: n * (n - 1) // 2
    instances = 0
    for trial in range(40):
        teams = int(rng.integers(4, 9))
        games = int(rng.integers(10, 31))
        gs = random_game_set(rng, teams, games, tie_chance=0.15)
        matrix = build_win_matrix(gs, Stage.REGULAR)
        n = matrix.n
        result = solve_lop(matrix)
        assert result.proven
        lambda_ = result.optimal_value / matrix.total_sum()

        # lambda is always in [1/2, 1]
        assert 0.5 - 1e-12 <= lambda_ <= 1.0 + 1e-12

        # hindsight(sigma) <= lambda for random rankings, equality at optima
        for _ in range(50):
            sigma = random_ranking(rng, n)
            assert hindsight_accuracy(gs, Stage.REGULAR, sigma) <= lambda_ + 1e-12
        optima = enumerate_optima(matrix)
        for optimum in optima.rankings:
            accuracy = hindsight_accuracy(gs, Stage.REGULAR, optimum)
            assert abs(accuracy - lambda_) <= 1e-12

        # witness pair satisfies both optimally valid inequality families,
        # and concordant + discordant pairs partition all pairs
        kt = solve_kt(matrix, result.optimal_value)
        assert kt.proven
        solution = kt_solution_from_rankings(*kt.pair)
        report = validate_kt_solution(matrix, result.optimal_value, solution)
        assert report.feasible and report.passes_optimality_cuts
        assert kt.concordant_count + kt.kappa == pair_total(n)

        # Kendall tau metric axioms on random triples
        r1, r2, r3 = (random_ranking(rng, n) for _ in range(3))
        assert kendall_tau_distance(r1, r1) == 0
        assert kendall_tau_distance(r1, r2) == kendall_tau_distance(r2, r1)
        assert (kendall_tau_distance(r1, r3)
                <= kendall_tau_distance(r1, r2) + kendall_tau_distance(r2, r3))
        assert (kendall_tau_distance(r1, r2) == 0) == (r1.order == r2.order)
        instances += 1
    print(f"criterion 6: PASS - properties hold on {instances} instances")


def test_criterion_07_rating_invariants():
    rng = np.random.default_rng(77)
    for trial in range(100):
        teams = int(rng.integers(2, 13))
        games = int(rng.integers(max(1, teams // 2), 40))
        gs = random_game_set(rng, teams, games, tie_chance=0.1)
        n = gs.team_count

        colley = colley_ratings(gs)
        assert abs(colley.values.mean() - 0.5) <= 1e-8, f"trial {trial}: Colley mean"

        massey = massey_ratings(gs)
        played = np.zeros((n, n), dtype=bool)
        for game in gs.games:
            i, j = gs.index(game.team_a) - 1, gs.index(game.team_b) - 1
            played[i, j] = played[j, i] = True
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            stack, component = [start], []
            seen[start] = True
            while stack:
                u = stack.pop()
                component.append(u)
                for v in range(n):
                    if played[u, v] and not seen[v]:
                        seen[v] = True
                        stack.append(v)
            component_sum = float(massey.values[component].sum())
            assert abs(component_sum) <= 1e-8, f"trial {trial}: Massey component"

        # permutation equivariance: reverse the lexicographic team order
        renames = {team: f"Z{n - idx:02d}" for idx, team in enumerate(gs.teams)}
        renamed = game_set_from_records(
            GameRecord(
                season=g.season, stage=g.stage,
                team_a=renames[g.team_a], team_b=renames[g.team_b],
                score_a=g.score_a, score_b=g.score_b,
            )
            for g in gs.games
        )
        for original, shuffled in ((colley, colley_ratings(renamed)),
                                   (massey, massey_ratings(renamed))):
            for team in gs.teams:
                a = original.values[gs.index(team) - 1]
                b = shuffled.values[renamed.index(renames[team]) - 1]
                assert abs(a - b) <= 1e-8, f"trial {trial}: equivariance"
    print("criterion 7: PASS - Colley/Massey invariants on 100 schedules")


def test_criterion_08_scalability_floor_n16():
    from rankability import WeightMatrix

    rng = np.random.default_rng(1016)
    n = 16
    for games_per_pair in (1, 4):
        a = np.zeros((n, n))
        for i, j in itertools.combinations(range(n), 2):
            wins = rng.binomial(games_per_pair, 0.5)
            a[i, j] = wins
            a[j, i] = games_per_pair - wins
        matrix = WeightMatrix(a)

        start = time.perf_counter()
        result = solve_lop(matrix)
        lop_elapsed = time.perf_counter() - start
        assert result.proven
        assert lop_elapsed < 600.0

        start = time.perf_counter()
        kt = solve_kt(matrix, result.optimal_value)
        kt_elapsed = time.perf_counter() - start
        assert kt.proven
        assert kt_elapsed < 600.0
        print(
            f"criterion 8: n=16 g={games_per_pair} proven "
            f"(lop {lop_elapsed:.2f}s, kt {kt_elapsed:.2f}s)"
        )
    print("criterion 8: PASS - n=16 instances proven within limits")


def test_criterion_09_games_file_substitute_checks():
    aliases = read_alias_csv(DATA_DIR / "aliases.csv")
    seasons = read_games_csv(DATA_DIR / "multi_season.csv", aliases)
    checked = 0
    for gs in seasons:
        report = season_report(gs)
        if not report.proven:
            continue
        for series, accuracy in report.hindsight.items():
            assert accuracy <= report.lambda_ + 1e-12, series
        if report.kappa == 0:
            assert report.foresight_divergence in (None, 0.0)
        checked += 1
    assert checked > 0

    # a unique-optimum season must have zero foresight divergence
    records = [
        GameRecord(2020, Stage.REGULAR, "A", "B", 20, 10),
        GameRecord(2020, Stage.REGULAR, "A", "C", 17, 3),
        GameRecord(2020, Stage.REGULAR, "B", "C", 28, 21),
        GameRecord(2020, Stage.PLAYOFF, "A", "B", 14, 7),
    ]
    report = season_report(game_set_from_records(records))
    assert report.proven
    assert report.kappa == 0
    assert report.foresight_divergence == 0.0
    assert all(v <= report.lambda_ + 1e-12 for v in report.hindsight.values())
    print(f"criterion 9: PASS - lambda bounds hindsight on {checked + 1} seasons, "
          "divergence 0 at kappa=0")


def test_criterion_10_byte_identical_json(capsys, tmp_path):
    college_path = str(DATA_DIR / "college_features.csv")
    commands = [
        ["lop", "--input", college_path, "--kind", "features"],
        ["enumerate", "--input", college_path, "--kind", "features"],
        ["kappa", "--input", college_path, "--kind", "features"],
    ]
    for which, weights in DIGRAPH_WEIGHTS.items():
        path = tmp_path / f"digraph{which}.csv"
        path.write_text(
            "\n".join(",".join(map(str, row)) for row in weights) + "\n",
            encoding="utf-8",
        )
        for command in ("lop", "enumerate", "kappa"):
            commands.append([command, "--input", str(path)])

    for argv in commands:
        outputs = []
        for _ in range(4):
            capsys.readouterr()
            code = cli_main(argv)
            captured = capsys.readouterr()
            assert code == 0, argv
            json.loads(captured.out)  # well-formed JSON
            outputs.append(captured.out)
        assert all(o == outputs[0] for o in outputs[1:]), argv
    print(f"criterion 10: PASS - {len(commands)} commands byte-identical "
          "across 4 runs")
