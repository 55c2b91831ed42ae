"""Tests for the maximal-distance search over optimal rankings."""

from __future__ import annotations

import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankability.ktdiam as ktdiam

from rankability.core import (
    WeightMatrix,
    kendall_tau_distance,
    objective_value,
    ranking_from_order,
    read_matrix_csv,
    write_matrix_csv,
)
from rankability.cli import main
from rankability.errors import InvalidKStarError, UnprovenOptimumError
from rankability.ktdiam import (
    KtResult,
    KtSolution,
    kt_solution_from_rankings,
    solve_kt,
    validate_kt_solution,
)
from rankability import lop
from rankability.lop import (
    DEFAULT_CONFIG,
    SolverConfig,
    enumerate_optima,
    solve_lop,
)
from rankability.sports import (
    GameRecord,
    Stage,
    build_win_matrix,
    game_set_from_records,
    season_report,
)

from tests.conftest import (
    COLLEGE_K_STAR,
    COLLEGE_OPTIMA_ORDERS,
    DATA_DIR,
    DIGRAPH_KAPPA,
    COLLEGE_WEIGHTS,
    random_game_set,
    random_half_integer_matrix,
)
from tests.oracles import (
    brute_force_kappa,
    kendall_distance,
    kt_milp,
    lop_milp,
    pack_pair_masks_loop,
    solve_with_kappa_via_solve_lop,
)
from tests.test_lop import _coin_tournament, _league


class TestSolveKt:
    def test_digraph_kappa_values(self, digraphs):
        for num, a in digraphs.items():
            k_star = solve_lop(a).optimal_value
            result = solve_kt(a, k_star)
            assert result.proven
            assert result.kappa == DIGRAPH_KAPPA[num]

    def test_unique_optimum_has_identical_pair(self, digraphs):
        result = solve_kt(digraphs[1], 3.0)
        assert result.kappa == 0
        assert result.pair[0] == result.pair[1]
        assert result.pair[0].order == (1, 2, 3)

    def test_symmetric_three_cycle_witness(self, digraphs):
        result = solve_kt(digraphs[3], 2.0)
        assert result.kappa == 2
        assert (result.pair[0].order, result.pair[1].order) == (
            (1, 2, 3),
            (2, 3, 1),
        )

    def test_college_kappa(self, college_matrix, college_optima):
        result = solve_kt(college_matrix, COLLEGE_K_STAR)
        assert result.proven
        assert result.kappa == 3
        assert result.concordant_count == 45 - 3
        first, second = result.pair
        assert first in college_optima and second in college_optima
        assert kendall_tau_distance(first, second) == 3

    def test_college_pair_is_lex_smallest(self, college_matrix):
        _, _, _, oracle_pair = brute_force_kappa(
            np.asarray(college_matrix.weights), orders=list(COLLEGE_OPTIMA_ORDERS)
        )
        result = solve_kt(college_matrix, COLLEGE_K_STAR)
        assert (result.pair[0].order, result.pair[1].order) == oracle_pair

    def test_pair_is_ordered_and_counts_are_complementary(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            a = random_half_integer_matrix(rng, n)
            k_star = solve_lop(a).optimal_value
            result = solve_kt(a, k_star)
            assert result.pair[0].order <= result.pair[1].order
            assert result.kappa + result.concordant_count == n * (n - 1) // 2

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            a = random_half_integer_matrix(rng, n)
            k_star, _, kappa, pair = brute_force_kappa(np.asarray(a.weights))
            result = solve_kt(a, k_star)
            assert result.proven
            assert result.kappa == kappa
            assert (result.pair[0].order, result.pair[1].order) == pair
            # The joint branch and bound's pair need not be canonical.
            joint = ktdiam._kappa_by_pair_search(a, k_star)
            assert joint.proven
            assert joint.kappa == kappa

    def test_pair_members_attain_optimum(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = random_half_integer_matrix(rng, 6)
            k_star = solve_lop(a).optimal_value
            result = solve_kt(a, k_star)
            for ranking in result.pair:
                assert objective_value(a, ranking) == pytest.approx(k_star)
            assert (
                kendall_tau_distance(*result.pair) == result.kappa
            )

    def test_kappa_zero_iff_unique_optimum(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            a = random_half_integer_matrix(rng, n)
            k_star = solve_lop(a).optimal_value
            result = solve_kt(a, k_star)
            count = enumerate_optima(a).count
            assert (result.kappa == 0) == (count == 1)

    def test_infeasible_k_star_is_rejected(self, college_matrix):
        with pytest.raises(InvalidKStarError):
            solve_kt(college_matrix, 1000.0)

    def test_timeout_yields_unproven_incumbent(self):
        # The joint search takes seconds on this instance even with the
        # shared completion table.
        rng = np.random.default_rng(5)
        n = 16
        wins = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                w = int(rng.binomial(4, 0.5))
                wins[i, j] = w
                wins[j, i] = 4 - w
        a = WeightMatrix(wins)
        k_star = solve_lop(a).optimal_value
        try:
            result = ktdiam._kappa_by_pair_search(
                a, k_star, SolverConfig(time_limit=0.1)
            )
        except UnprovenOptimumError:
            pytest.skip("host too slow to recover even one optimum in the limit")
        if result.proven:
            pytest.skip("instance solved within the tiny limit on this host")
        assert result.kappa >= 0
        for ranking in result.pair:
            assert objective_value(a, ranking) == pytest.approx(k_star)

    def test_no_time_for_any_optimum_raises(self, college_matrix):
        with pytest.raises(UnprovenOptimumError):
            solve_kt(college_matrix, COLLEGE_K_STAR, SolverConfig(time_limit=1e-9))

    @pytest.mark.parametrize(
        ("cfg", "route"),
        [
            (SolverConfig(), "_max_distance_pair"),
            (SolverConfig(enumeration_cap=2), "_pair_search"),
            (SolverConfig(enumeration_cap=3), "_max_distance_pair"),
        ],
    )
    def test_pair_search_runs_only_when_enumeration_is_truncated(
        self, digraphs, monkeypatch, cfg, route
    ):
        calls = []

        def recording(name):
            real = getattr(ktdiam, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            return wrapper

        for name in ("_max_distance_pair", "_pair_search"):
            monkeypatch.setattr(ktdiam, name, recording(name))
        # digraph 3 has three optimal rankings, so a cap of 2 truncates
        # and a cap of 3 does not.
        result = solve_kt(digraphs[3], 2.0, cfg)
        assert calls == [route]
        assert result.proven and result.kappa == 2

    def test_scan_past_its_deadline_reports_the_best_pair_so_far(
        self, monkeypatch
    ):
        def expire_after_two_rows():
            clock = itertools.chain([0.0, 0.0], itertools.repeat(np.inf))
            monkeypatch.setattr(
                ktdiam, "time", SimpleNamespace(monotonic=lambda: next(clock))
            )

        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(20):
            a = random_half_integer_matrix(rng, 6)
            k_star, orders, kappa, _ = brute_force_kappa(np.asarray(a.weights))
            if len(orders) < 3:
                continue
            expire_after_two_rows()
            best, first, second, complete = ktdiam._max_distance_pair(
                orders, a.n, 1.0
            )
            monkeypatch.undo()
            assert not complete
            assert best == max(
                kendall_distance(orders[i], o) for i in (0, 1) for o in orders
            )
            assert kendall_distance(first, second) == best <= kappa

            expire_after_two_rows()
            result = solve_kt(a, k_star, SolverConfig(time_limit=60.0))
            monkeypatch.undo()
            assert not result.proven
            assert result.kappa == best
            assert kendall_tau_distance(*result.pair) == best
            for ranking in result.pair:
                assert objective_value(a, ranking) == pytest.approx(k_star)
            checked += 1
        assert checked > 0

    def test_pair_search_past_its_deadline_reports_the_best_pair_so_far(
        self, monkeypatch
    ):
        rng = np.random.default_rng(2)
        n = 8
        wins = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                w = int(rng.binomial(4, 0.5))
                wins[i, j] = w
                wins[j, i] = 4 - w
        a = WeightMatrix(wins)
        k_star = solve_lop(a).optimal_value
        kappa = solve_kt(a, k_star).kappa
        sigma0 = enumerate_optima(a).rankings[0].order
        # The clock passes the deadline after the table check, so the first
        # tick, at 256 nodes, stops a joint search that needs about 1,000.
        clock = itertools.chain([0.0], itertools.repeat(np.inf))
        monkeypatch.setattr(lop, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        result = ktdiam._pair_search(a, k_star, sigma0, 1.0)
        assert not result.proven
        assert 0 < result.kappa < kappa
        assert kendall_tau_distance(*result.pair) == result.kappa
        for ranking in result.pair:
            assert objective_value(a, ranking) == k_star


class TestPairMasks:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 18, 24])
    def test_packing_matches_the_scalar_loop(self, n):
        rng = np.random.default_rng(n)
        orders = [tuple(int(v) + 1 for v in rng.permutation(n)) for _ in range(50)]
        packed = ktdiam._pack_pair_masks(orders, n)
        assert packed.dtype == np.uint8
        assert np.array_equal(packed, pack_pair_masks_loop(orders, n))

    # Blocks of one row each, and of a few rows each; the default block
    # holds every row of these sets.
    @pytest.mark.parametrize("block_bytes", [1, 200])
    def test_scan_blocks_keep_the_canonical_pair(self, monkeypatch, block_bytes):
        monkeypatch.setattr(ktdiam, "_SCAN_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            a = random_half_integer_matrix(rng, n)
            k_star, _, kappa, pair = brute_force_kappa(np.asarray(a.weights))
            result = solve_kt(a, k_star)
            assert result.proven
            assert result.kappa == kappa
            assert (result.pair[0].order, result.pair[1].order) == pair

    def test_scan_counts_past_255_discordant_pairs(self):
        # C(24, 2) = 276 does not fit the 8-bit counts of smaller n.
        n = 24
        rng = np.random.default_rng(3)
        identity = tuple(range(1, n + 1))
        others = [tuple(int(v) + 1 for v in rng.permutation(n)) for _ in range(5)]
        orders = sorted([identity, identity[::-1], *others])
        best, first, second, complete = ktdiam._max_distance_pair(orders, n, None)
        assert complete
        assert (best, first, second) == (276, identity, identity[::-1])


class TestKappaByEnumeration:
    """solve_kt's scan of the complete optima set against the joint search.

    ktdiam._kappa_by_pair_search decides kappa by the joint branch and
    bound alone, whose pair need not be canonical.
    """

    def test_matches_solve_kt_on_random_instances(self, monkeypatch):
        # Weights in halves, whose sums are exact, and in tenths, whose sums
        # are not; with the completion table and, at a budget of 0 items,
        # without it, where the joint search bounds by the drop rows.
        for table_max_n in (lop._TABLE_MAX_N, 0):
            monkeypatch.setattr(lop, "_TABLE_MAX_N", table_max_n)
            for step in (2.0, 10.0):
                rng = np.random.default_rng(17)
                for _ in range(30):
                    n = int(rng.integers(3, 8))
                    weights = rng.integers(0, 11, size=(n, n)) / step
                    np.fill_diagonal(weights, 0.0)
                    a = WeightMatrix(weights)
                    k_star = solve_lop(a).optimal_value
                    direct = solve_kt(a, k_star)
                    joint = ktdiam._kappa_by_pair_search(a, k_star)
                    assert direct.proven and joint.proven
                    assert direct.kappa == joint.kappa
                    assert kendall_tau_distance(*joint.pair) == joint.kappa
                    for ranking in joint.pair:
                        assert objective_value(a, ranking) == pytest.approx(k_star)

    def test_college(self, college_matrix):
        direct = solve_kt(college_matrix, COLLEGE_K_STAR)
        joint = ktdiam._kappa_by_pair_search(college_matrix, COLLEGE_K_STAR)
        assert direct.kappa == joint.kappa == 3
        assert direct.proven and joint.proven


class TestKtSolution:
    def test_z_is_elementwise_and(self):
        sigma1 = ranking_from_order((1, 2, 3))
        sigma2 = ranking_from_order((2, 3, 1))
        solution = kt_solution_from_rankings(sigma1, sigma2)
        expected = solution.x.x & solution.y.x
        assert (solution.z == expected).all()
        assert not solution.z.flags.writeable

    def test_z_diagonal_zeroed(self):
        sigma = ranking_from_order((1, 2))
        solution = KtSolution(
            x=kt_solution_from_rankings(sigma, sigma).x,
            y=kt_solution_from_rankings(sigma, sigma).y,
            z=np.ones((2, 2), dtype=np.int8),
        )
        assert solution.z[0, 0] == 0 and solution.z[1, 1] == 0


class TestValidateKtSolution:
    def test_optimal_pair_passes_everything(self, college_matrix, college_optima):
        solution = kt_solution_from_rankings(college_optima[0], college_optima[5])
        report = validate_kt_solution(college_matrix, COLLEGE_K_STAR, solution)
        assert report.feasible
        assert report.passes_optimality_cuts
        assert report.constraint_violations == ()
        assert report.optimality_violations == ()

    def test_every_solver_witness_validates(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            a = random_half_integer_matrix(rng, 6)
            k_star = solve_lop(a).optimal_value
            result = solve_kt(a, k_star)
            solution = kt_solution_from_rankings(*result.pair)
            report = validate_kt_solution(a, k_star, solution)
            assert report.feasible and report.passes_optimality_cuts
            assert int(solution.z.sum()) == result.concordant_count

    def test_suboptimal_side_is_a_constraint_violation(
        self, college_matrix, college_optima
    ):
        bad = ranking_from_order(tuple(reversed(college_optima[0].order)))
        solution = kt_solution_from_rankings(college_optima[0], bad)
        report = validate_kt_solution(college_matrix, COLLEGE_K_STAR, solution)
        assert not report.feasible
        assert any("optimal value" in v for v in report.constraint_violations)

    def test_double_set_z_breaks_optimality_cut_only(
        self, college_matrix, college_optima
    ):
        base = kt_solution_from_rankings(college_optima[0], college_optima[1])
        z = np.array(base.z)
        z[0, 1] = 1
        z[1, 0] = 1
        solution = KtSolution(x=base.x, y=base.y, z=z)
        report = validate_kt_solution(college_matrix, COLLEGE_K_STAR, solution)
        assert any(
            "z[1,2] + z[2,1]" in v for v in report.optimality_violations
        )

    def test_z_exceeding_orientations_breaks_linking(
        self, college_matrix, college_optima
    ):
        base = kt_solution_from_rankings(college_optima[0], college_optima[1])
        z = np.zeros_like(np.array(base.z))
        mask = (base.x.x + base.y.x) == 0
        z[mask] = 1
        np.fill_diagonal(z, 0)
        solution = KtSolution(x=base.x, y=base.y, z=z)
        report = validate_kt_solution(college_matrix, COLLEGE_K_STAR, solution)
        assert not report.feasible
        assert any("linking" in v for v in report.constraint_violations)

    def test_shape_mismatch_is_reported(self, college_matrix, digraphs):
        solution = kt_solution_from_rankings(
            ranking_from_order((1, 2, 3)), ranking_from_order((1, 2, 3))
        )
        report = validate_kt_solution(college_matrix, COLLEGE_K_STAR, solution)
        assert not report.feasible
        assert "shape mismatch" in report.constraint_violations[0]


class TestMediumInstances:
    def test_bernoulli_wins_upper_size(self):
        rng = np.random.default_rng(1001)
        n = 12
        wins = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                w = int(rng.binomial(4, 0.5))
                wins[i, j] = w
                wins[j, i] = 4 - w
        a = WeightMatrix(wins)
        k_star = solve_lop(a).optimal_value
        direct = solve_kt(a, k_star)
        joint = ktdiam._kappa_by_pair_search(a, k_star)
        assert direct.proven and joint.proven
        assert direct.kappa == joint.kappa
        assert kendall_tau_distance(*joint.pair) == joint.kappa


def _round_robin(rng: np.random.Generator, n: int, upset: float):
    """One game per pair; the lower-numbered team loses w.p. upset."""
    records = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        upset_won = rng.random() < upset
        records.append(
            GameRecord(
                season=2000,
                stage="regular",
                team_a=f"T{i:02d}",
                team_b=f"T{j:02d}",
                score_a=int(not upset_won),
                score_b=int(upset_won),
            )
        )
    return game_set_from_records(records)


def _half_integral_seasons():
    rng = np.random.default_rng(61)
    for n in range(3, 11):
        yield random_game_set(rng, n, 3 * n, tie_chance=0.2)


def _tournament_seasons():
    rng = np.random.default_rng(67)
    for n in (12, 14, 16):
        yield _round_robin(rng, n, 0.5)


def _fractional_matrices():
    rng = np.random.default_rng(71)
    yield WeightMatrix(np.asarray(COLLEGE_WEIGHTS) * rng.uniform(0.5, 1.5, (10, 10)))
    for n in (4, 6, 8):
        w = rng.random((n, n))
        np.fill_diagonal(w, 0.0)
        yield WeightMatrix(w)


class TestTableFirstValue:
    """The table-first value step against k* from solve_lop.

    Inside the table budget with exact sums, _proven_value reads k* from
    the completion table; every other input takes solve_lop's value
    phase. Either way, the value, the optima, kappa and the season's
    canonical witness must equal the solve_lop composition bit for bit.
    """

    @staticmethod
    def _assert_matches(a: WeightMatrix):
        reference = solve_with_kappa_via_solve_lop(a, DEFAULT_CONFIG)
        result, orders, truncated, kt = reference
        assert lop._proven_value(a, None) == result.optimal_value
        k_star, found, flag, kappa = ktdiam._solve_with_kappa(a, DEFAULT_CONFIG)
        assert (k_star, found.tolist(), flag, kappa) == (
            result.optimal_value,
            orders.tolist(),
            truncated,
            kt,
        )
        optima = enumerate_optima(a)
        assert optima.truncated == truncated
        assert [list(r.order) for r in optima.rankings] == orders.tolist()
        assert tuple(orders[0].tolist()) == result.ranking.order
        return reference

    def _assert_season_matches(self, gs):
        a = build_win_matrix(gs, Stage.REGULAR)
        result, orders, truncated, kt = self._assert_matches(a)
        report = season_report(gs)
        assert report.k_star == result.optimal_value
        assert report.lambda_ == result.optimal_value / a.total_sum()
        assert report.optimal_ranking == result.ranking
        assert report.optima_count == len(orders)
        assert report.truncated == truncated
        assert (report.kappa, report.witness_pair, report.proven) == (
            kt.kappa,
            kt.pair,
            kt.proven,
        )

    def test_random_half_integral_matrices(self):
        rng = np.random.default_rng(59)
        for n in range(3, 11):
            a = random_half_integer_matrix(rng, n)
            assert lop._exact_sums(a)
            self._assert_matches(a)

    @pytest.mark.parametrize(
        "seasons",
        [_half_integral_seasons, _tournament_seasons],
        ids=["half_integral", "tournaments"],
    )
    def test_seasons(self, seasons):
        for gs in seasons():
            self._assert_season_matches(gs)

    def test_fractional_weights(self):
        for a in _fractional_matrices():
            assert not lop._exact_sums(a)
            self._assert_matches(a)

    def test_above_the_table_budget(self):
        gs = _round_robin(np.random.default_rng(5), lop._TABLE_MAX_N + 1, 0.07)
        self._assert_season_matches(gs)


class TestAgainstBinaryPrograms:
    """k* and kappa equal those of the paper's binary programs, by HiGHS."""

    def test_hidden20_above_the_table_budget(self):
        a = read_matrix_csv(DATA_DIR / "hidden20.csv")
        assert a.n > lop._TABLE_MAX_N
        w = np.asarray(a.weights)
        k_star = lop_milp(w)
        assert solve_lop(a).optimal_value == k_star
        kt = solve_kt(a, k_star)
        assert kt.proven
        assert kt.kappa == kt_milp(w, k_star)

    # The kappa command above the table budget, where it walks thousands
    # of optima without a table: about 11 s on league 24/2 and 5 s on coin
    # 19/0 with 2 games a pair, and kt_milp about 1 s and 10 s.
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "w, k_star, kappa",
        [
            (_league(np.random.default_rng(2), 24), 415.5, 51),
            (_coin_tournament(np.random.default_rng(0), 19, 2), 224.0, 83),
        ],
        ids=["league24-2", "coin19-0-g2"],
    )
    def test_kappa_command_at_league_size(self, capsys, tmp_path, w, k_star, kappa):
        path = tmp_path / "weights.csv"
        write_matrix_csv(WeightMatrix(w), path)
        code = main(["kappa", "--input", str(path), "--kind", "matrix"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["proven"]
        assert payload["k_star"] == lop_milp(w) == k_star
        assert payload["kappa"] == kt_milp(w, payload["k_star"]) == kappa

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 12),
        top=st.sampled_from((1, 10)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_half_integral_matrices(self, n, top, seed):
        # Weights in halves up to 5, or only 0 and 1/2, whose many ties
        # give large optima sets.
        rng = np.random.default_rng(seed)
        w = rng.integers(0, top + 1, size=(n, n)) / 2.0
        np.fill_diagonal(w, 0.0)
        k_star = lop_milp(w)
        res = solve_lop(WeightMatrix(w))
        assert res.optimal_value == k_star
        assert solve_kt(WeightMatrix(w), k_star).kappa == kt_milp(w, k_star)
