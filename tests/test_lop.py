"""Tests for the exact linear ordering solver."""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankability.core import (
    WeightMatrix,
    objective_value,
    ranking_from_order,
    read_matrix_csv,
    reverse_ranking,
)
from rankability.errors import (
    MalformedPermutationError,
    RankabilityError,
    UndefinedMetricError,
    UnprovenOptimumError,
)
from rankability import ktdiam, lop, witness
from rankability.cli import main
from rankability.ktdiam import solve_kt
from rankability.lop import (
    DEFAULT_CONFIG,
    OptimaSet,
    SolverConfig,
    degree_of_linearity,
    enumerate_optima,
    heuristic_ranking,
    prefix_upper_bound,
    solve_lop,
)

from rankability.sports import (
    GameRecord,
    Stage,
    build_win_matrix,
    game_set_from_records,
    read_feature_table,
    read_games_csv,
    season_report,
)

from tests.conftest import (
    COLLEGE_K_STAR,
    COLLEGE_OPTIMA_ORDERS,
    COLLEGE_WEIGHTS,
    DATA_DIR,
    DIGRAPH_LAMBDA,
    DIGRAPH_OPTIMA_COUNT,
    random_half_integer_matrix,
)
from tests.oracles import (
    all_objectives,
    brute_force_lop,
    completion_table_by_layers,
    completion_table_loop,
    heuristic_ranking_loop,
    lex_min_witness_loop,
    lop_milp,
    order_value_loop,
)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.enumeration_cap == 1_000_000
        assert cfg.time_limit is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"time_limit": 0},
            {"time_limit": -1.0},
            {"enumeration_cap": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSolveLop:
    def test_college_value(self, college_matrix):
        res = solve_lop(college_matrix)
        assert res.proven
        assert res.optimal_value == COLLEGE_K_STAR
        assert objective_value(college_matrix, res.ranking) == COLLEGE_K_STAR

    def test_college_witness_is_lex_smallest_optimum(self, college_matrix):
        res = solve_lop(college_matrix)
        assert res.ranking.order == min(COLLEGE_OPTIMA_ORDERS)

    def test_acyclic_digraph_unique_optimum(self, digraphs):
        res = solve_lop(digraphs[1])
        assert res.proven
        assert res.optimal_value == 3
        assert res.ranking.order == (1, 2, 3)

    def test_stats_are_populated(self, digraphs):
        res = solve_lop(digraphs[3])
        assert res.stats.nodes >= 1
        assert res.stats.wall_time >= 0
        assert res.stats.heuristic_value <= res.optimal_value

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(3, 8))
            a = random_half_integer_matrix(rng, n)
            res = solve_lop(a)
            k_star, orders = brute_force_lop(np.asarray(a.weights))
            assert res.proven
            assert res.optimal_value == pytest.approx(k_star, abs=1e-9)
            assert res.ranking.order == orders[0]

    def test_timeout_returns_valid_incumbent(self):
        rng = np.random.default_rng(3)
        n = 16
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                win = float(rng.integers(0, 2))
                w[i, j] = win
                w[j, i] = 1.0 - win
        a = WeightMatrix(w)
        cfg = SolverConfig(time_limit=0.001)
        res = solve_lop(a, cfg)
        assert not res.proven
        assert objective_value(a, res.ranking) == pytest.approx(res.optimal_value)
        assert res.optimal_value >= a.total_sum() / 2

    def test_scaling_invariance(self):
        rng = np.random.default_rng(11)
        a = random_half_integer_matrix(rng, 6)
        scaled = WeightMatrix(np.asarray(a.weights) * 2.5)
        res = solve_lop(a)
        res_scaled = solve_lop(scaled)
        assert res_scaled.optimal_value == pytest.approx(2.5 * res.optimal_value)
        assert res_scaled.ranking == res.ranking
        assert degree_of_linearity(scaled) == pytest.approx(degree_of_linearity(a))

    def test_optimal_value_at_least_half_total(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = random_half_integer_matrix(rng, 6)
            res = solve_lop(a)
            assert res.optimal_value >= a.total_sum() / 2 - 1e-9


class TestHeuristic:
    def test_acyclic_input_is_solved_exactly(self, digraphs):
        sigma = heuristic_ranking(digraphs[1])
        assert objective_value(digraphs[1], sigma) == 3

    def test_never_exceeds_optimum_and_never_below_half(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_half_integer_matrix(rng, int(rng.integers(3, 9)))
            val = objective_value(a, heuristic_ranking(a))
            assert val <= solve_lop(a).optimal_value + 1e-9
            assert val >= a.total_sum() / 2 - 1e-9

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(9)
        a = random_half_integer_matrix(rng, 8)
        assert heuristic_ranking(a) == heuristic_ranking(a)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 25),
        seed=st.integers(0, 2**32 - 1),
        restarts=st.sampled_from((0, lop._HEURISTIC_RESTARTS)),
    )
    def test_batched_passes_match_the_loops_on_half_integral_weights(
        self, n, seed, restarts
    ):
        w = random_half_integer_matrix(np.random.default_rng(seed), n).weights
        _assert_heuristic_matches_loops(w, restarts)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(("uniform", "noisy-integer", "tenths")),
        n=st.integers(2, 25),
        exponent=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        restarts=st.sampled_from((0, lop._HEURISTIC_RESTARTS)),
    )
    def test_batched_passes_match_the_loops_at_every_weight_scale(
        self, family, n, exponent, seed, restarts
    ):
        _assert_heuristic_matches_loops(
            _scaled_weights(family, n, 10.0**exponent, seed), restarts
        )

    @pytest.mark.parametrize("restarts", [0, lop._HEURISTIC_RESTARTS])
    @pytest.mark.parametrize("weight", [0.0, 1.0, 0.1])
    @pytest.mark.parametrize("n", [2, 7, 20])
    def test_batched_passes_match_the_loops_on_constant_weights(
        self, n, weight, restarts
    ):
        # Every order of an all-equal matrix ties; the all-zero matrix has
        # nothing to gain, so no item ever moves.
        w = np.full((n, n), weight)
        np.fill_diagonal(w, 0.0)
        _assert_heuristic_matches_loops(w, restarts)

    def test_traced_peak_stays_within_the_chunk_bytes_at_n_200(self):
        # At n = 200 the 17 starts run in chunks of 8, 8 and 1. Outside the
        # chunks the call holds the weights stacked with their transpose
        # and the pair indices of the objective fold, 3 n^2 entries of 8
        # bytes (0.92 MiB here), and arrays of n entries per start.
        a = random_half_integer_matrix(np.random.default_rng(1), 200)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            ranking = heuristic_ranking(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= lop._HEURISTIC_CHUNK_BYTES + (1 << 20)
        assert ranking == heuristic_ranking_loop(a)


def _assert_heuristic_matches_loops(w: np.ndarray, restarts: int) -> None:
    """heuristic_ranking equals the scalar loops' ranking, its value their bits.

    The value is the one _value_search gives the branch and bound and
    reports as heuristic_value.
    """
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lop, "_HEURISTIC_RESTARTS", restarts)
        a = WeightMatrix(w)
        ranking = heuristic_ranking(a)
        assert ranking == heuristic_ranking_loop(a)
    order = [v - 1 for v in ranking.order]
    value = float(lop._order_values(a.weights, np.array([order]))[0])
    assert value.hex() == order_value_loop(a.weights.tolist(), order).hex()


class TestSearchSums:
    def test_state_sums_are_left_folds_on_every_python_version(self):
        # Ten weights of 0.1 per row: added left to right they make
        # 0.9999999999999999, while sum() from Python 3.12 compensates and
        # makes 1.0. The value search's apply/undo state starts from these.
        n = 11
        w = np.full((n, n), 0.1)
        np.fill_diagonal(w, 0.0)
        rows = w.tolist()
        folds = [
            functools.reduce(operator.add, (rows[v][r] for r in range(n) if r != v))
            for v in range(n)
        ]
        assert folds[0] != math.fsum(rows[0])
        search = lop._Search(WeightMatrix(w))
        assert search.s_a == folds
        assert search.s_m == folds
        assert search.u == functools.reduce(operator.add, folds) / 2.0


class TestPrefixUpperBound:
    def test_empty_prefix_sums_pair_maxima(self, digraphs, college_matrix):
        assert prefix_upper_bound(digraphs[3], []) == 3
        assert prefix_upper_bound(college_matrix, []) >= COLLEGE_K_STAR

    def test_full_prefix_equals_objective(self, college_matrix):
        order = COLLEGE_OPTIMA_ORDERS[0]
        sigma = ranking_from_order(order)
        assert prefix_upper_bound(college_matrix, order) == objective_value(
            college_matrix, sigma
        )

    def test_monotone_and_admissible_along_paths(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = 6
            a = random_half_integer_matrix(rng, n)
            order = [int(x) + 1 for x in rng.permutation(n)]
            w = np.asarray(a.weights)
            previous = prefix_upper_bound(a, [])
            for depth in range(1, n + 1):
                bound = prefix_upper_bound(a, order[:depth])
                assert bound <= previous + 1e-9
                # best completion fixing this prefix, by brute force
                rest = [v for v in order[depth:]]
                best = -1.0
                for tail in itertools.permutations(rest):
                    sigma = ranking_from_order(order[:depth] + list(tail))
                    best = max(best, objective_value(a, sigma))
                assert bound >= best - 1e-9
                previous = bound

    def test_rejects_duplicate_or_out_of_range(self, digraphs):
        with pytest.raises(MalformedPermutationError):
            prefix_upper_bound(digraphs[1], [1, 1])
        with pytest.raises(MalformedPermutationError):
            prefix_upper_bound(digraphs[1], [4])


class TestEnumerateOptima:
    def test_college_six_optima(self, college_matrix):
        optima = enumerate_optima(college_matrix)
        assert not optima.truncated
        assert [r.order for r in optima.rankings] == sorted(COLLEGE_OPTIMA_ORDERS)

    def test_three_cycle_has_three_rotations(self, digraphs):
        optima = enumerate_optima(digraphs[3])
        assert {r.order for r in optima.rankings} == {
            (1, 2, 3),
            (2, 3, 1),
            (3, 1, 2),
        }

    def test_symmetric_instance_has_all_permutations(self, digraphs):
        optima = enumerate_optima(digraphs[4])
        assert optima.count == 6
        assert not optima.truncated

    def test_cap_truncates(self, digraphs):
        optima = enumerate_optima(digraphs[4], SolverConfig(enumeration_cap=2))
        assert optima.truncated
        assert optima.count == 2

    def test_digraph_optima_counts(self, digraphs):
        for idx, expected in DIGRAPH_OPTIMA_COUNT.items():
            assert enumerate_optima(digraphs[idx]).count == expected

    def test_contains_solver_witness_and_is_sorted(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            a = random_half_integer_matrix(rng, int(rng.integers(3, 8)))
            res = solve_lop(a)
            optima = enumerate_optima(a)
            orders = [r.order for r in optima.rankings]
            assert res.ranking.order in orders
            assert orders == sorted(orders)
            k_star, expected = brute_force_lop(np.asarray(a.weights))
            assert orders == expected
            for r in optima.rankings:
                assert objective_value(a, r) == pytest.approx(k_star, abs=1e-9)

    def test_unproven_optimum_is_refused(self):
        rng = np.random.default_rng(3)
        n = 16
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                win = float(rng.integers(0, 2))
                w[i, j] = win
                w[j, i] = 1.0 - win
        with pytest.raises(UnprovenOptimumError):
            enumerate_optima(WeightMatrix(w), SolverConfig(time_limit=0.001))

    def test_one_deadline_covers_the_value_proof_and_the_enumeration(
        self, monkeypatch
    ):
        # The solver's clock jumps 1.5 time limits while the value is being
        # proven: past the deadline of the whole call, but inside a limit
        # restarted after the proof.
        limit = 10.0
        offset = [0.0]
        monkeypatch.setattr(
            lop, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + offset[0])
        )
        real_proven_value = lop._proven_value

        def slow_proven_value(a, deadline):
            value = real_proven_value(a, deadline)
            offset[0] += 1.5 * limit
            return value

        monkeypatch.setattr(lop, "_proven_value", slow_proven_value)
        optima = enumerate_optima(
            WeightMatrix(COLLEGE_WEIGHTS), SolverConfig(time_limit=limit)
        )
        assert optima.truncated
        assert optima.count == 0


class TestDegreeOfLinearity:
    def test_digraph_values(self, digraphs):
        for idx, expected in DIGRAPH_LAMBDA.items():
            assert degree_of_linearity(digraphs[idx]) == pytest.approx(
                expected, abs=1e-12
            )

    def test_college_value(self, college_matrix):
        assert degree_of_linearity(college_matrix) == pytest.approx(
            169 / 225, abs=1e-12
        )

    def test_single_arc(self):
        assert degree_of_linearity(WeightMatrix([[0, 1], [0, 0]])) == 1

    def test_all_zero_matrix_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            degree_of_linearity(WeightMatrix(np.zeros((3, 3))))

    def test_bounds_on_random_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            a = random_half_integer_matrix(rng, int(rng.integers(3, 9)))
            if a.total_sum() == 0:
                continue
            lam = degree_of_linearity(a)
            assert 0.5 - 1e-12 <= lam <= 1.0 + 1e-12


def _random_weights(rng: np.random.Generator, n: int, integral: bool) -> np.ndarray:
    if integral:
        w = rng.integers(0, 5, size=(n, n)).astype(float)
    else:
        w = rng.random((n, n)) * rng.choice([1e-3, 1.0, 1e3])
    np.fill_diagonal(w, 0.0)
    return w


def _tournament_with_ties(rng: np.random.Generator, n: int, games: int) -> np.ndarray:
    """games per pair, each won by either side w.p. 0.4 or tied (1/2 each)."""
    w = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        for r in rng.random(games):
            if r < 0.2:
                w[i, j] += 0.5
                w[j, i] += 0.5
            elif r < 0.6:
                w[i, j] += 1.0
            else:
                w[j, i] += 1.0
    return w


@pytest.fixture
def table_builds(monkeypatch):
    """Count completion-table builds; the list grows by one per build."""
    builds: list[int] = []
    real = lop._build_completion_table

    def counting(w, deadline):
        builds.append(w.shape[0])
        return real(w, deadline)

    monkeypatch.setattr(lop, "_build_completion_table", counting)
    return builds


class TestCompletionTable:
    @pytest.mark.parametrize("integral", [True, False])
    def test_every_entry_is_the_best_ordering_of_its_set(self, integral):
        rng = np.random.default_rng(31 if integral else 37)
        for n in (2, 3, 5, 6, 7, 8):
            w = _random_weights(rng, n, integral)
            table = lop._build_completion_table(w, None).table
            assert len(table) == 1 << n
            for s in range(1 << n):
                items = [v for v in range(n) if s >> v & 1]
                _, values = all_objectives(w[np.ix_(items, items)])
                best = float(values.max())
                if integral:
                    assert table[s] == best
                else:
                    assert table[s] == pytest.approx(best, rel=1e-12, abs=1e-12)

    def test_equals_the_scalar_recurrence_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for n in (2, 4, 9, 11):
            w = _random_weights(rng, n, integral=False)
            table = lop._build_completion_table(w, None).table
            assert table == completion_table_loop(w)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_exact_build_equals_the_scalar_recurrence(self, n):
        # Exact sums take the split row sums: an odd n splits unevenly, and
        # n = 1 leaves the low half empty.
        rng = np.random.default_rng(43 + n)
        matrices = [_tournament_with_ties(rng, n, games) for games in (1, 4)]
        if n >= 2:
            matrices.append(_hidden_order_games(rng, n))
        for w in matrices:
            assert lop._exact_weights(w)
            table = lop._build_completion_table(w, None).table
            assert table == completion_table_loop(w)

    @pytest.mark.parametrize("n", range(13, 19))
    def test_exact_build_equals_the_layered_build(self, n):
        # Above n = 12 the scalar recurrence takes too long; the layered
        # build equals it bit for bit, so it stands in.
        rng = np.random.default_rng(59 + n)
        matrices = [_tournament_with_ties(rng, n, games) for games in (1, 4)]
        matrices.append(_hidden_order_games(rng, n))
        for w in matrices:
            assert lop._exact_weights(w)
            table = lop._build_completion_table(w, None).table
            assert table == completion_table_by_layers(w)

    @pytest.mark.parametrize("n", range(12, 17))
    def test_fractional_build_equals_the_layered_build(self, n):
        w = _random_weights(np.random.default_rng(61 + n), n, integral=False)
        assert not lop._exact_weights(w)
        table = lop._build_completion_table(w, None).table
        assert table == completion_table_by_layers(w)

    @pytest.mark.parametrize("integral", [True, False])
    def test_deadline_stops_the_build_at_the_next_grid_step(self, integral, monkeypatch):
        # At n = 14 the grid is 2^7 x 2^7: each of its 8 row layers takes a
        # high-item step and 7 low-layer steps, and each step reads the
        # clock once before it starts.
        n = 14
        steps = 8 + 8 * 7
        rng = np.random.default_rng(67)
        if integral:
            w = _tournament_with_ties(rng, n, 1)
        else:
            w = _random_weights(rng, n, integral=False)
        assert lop._exact_weights(w) == integral
        for passed_after in (0, 1, 8, 9, steps // 2, steps - 1, None):
            reads = []

            def monotonic():
                reads.append(None)
                return 0.0 if passed_after is None or len(reads) <= passed_after else 2.0

            monkeypatch.setattr(lop, "time", SimpleNamespace(monotonic=monotonic))
            if passed_after is None:
                lop._build_completion_table(w, 1.0)
                assert len(reads) == steps
            else:
                # The deadline passes after step passed_after; the check
                # before the next step raises, and no further step runs.
                with pytest.raises(lop._Timeout):
                    lop._build_completion_table(w, 1.0)
                assert len(reads) == passed_after + 1

    def test_fractional_build_traces_no_more_than_the_layered_build(self):
        # The layered build traced just over 137 bytes per set here: the
        # row sums over all n items take 8 n of them and the table 8.
        n = 14
        w = _random_weights(np.random.default_rng(47), n, integral=False)
        assert not lop._exact_weights(w)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            lop._build_completion_table(w, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 137 << n

    def test_exact_build_traces_at_most_64_bytes_per_set(self):
        n = 16
        w = _tournament_with_ties(np.random.default_rng(47), n, 1)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            lop._build_completion_table(w, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 64 << n


class TestOneTablePerMatrix:
    def test_solve_lop_builds_one(self, table_builds):
        solve_lop(WeightMatrix(COLLEGE_WEIGHTS))
        assert table_builds == [10]

    def test_enumerate_optima_builds_one(self, table_builds):
        enumerate_optima(WeightMatrix(COLLEGE_WEIGHTS))
        assert table_builds == [10]

    def test_solve_lop_then_solve_kt_build_one(self, table_builds):
        a = WeightMatrix(COLLEGE_WEIGHTS)
        solve_kt(a, solve_lop(a).optimal_value)
        assert table_builds == [10]

    def test_season_report_builds_one_per_season(self, table_builds):
        seasons = read_games_csv(DATA_DIR / "multi_season.csv")
        for gs in seasons:
            season_report(gs)
        assert table_builds == [gs.team_count for gs in seasons]

    @pytest.mark.parametrize(
        "argv",
        [
            ["lop"],
            ["enumerate"],
            ["kappa"],
            ["kappa", "--oracle"],
        ],
    )
    def test_each_matrix_command_builds_one(self, table_builds, capsys, argv):
        path = str(DATA_DIR / "college_features.csv")
        code = main([*argv, "--input", path, "--kind", "features"])
        capsys.readouterr()
        assert code == 0
        assert table_builds == [10]

    def test_season_command_builds_one_per_season(self, table_builds, capsys):
        path = DATA_DIR / "multi_season.csv"
        code = main(["season", "--input", str(path)])
        capsys.readouterr()
        assert code == 0
        assert table_builds == [gs.team_count for gs in read_games_csv(path)]

    def test_no_table_above_the_budget(self, table_builds):
        n = lop._TABLE_MAX_N + 1
        a = WeightMatrix(np.triu(np.ones((n, n)), 1))
        res = solve_lop(a)
        assert res.proven
        assert res.ranking.order == tuple(range(1, n + 1))
        assert table_builds == []


@pytest.fixture
def search_calls(monkeypatch):
    """Count each phase of the exact core as it runs.

    Heuristic incumbents (heuristic_ranking), value proofs (run_value),
    canonical witness searches (lex_min_witness), completion table builds
    (_build_completion_table) and enumerations (enumerate_leaves).
    """
    calls: dict[str, int] = {}
    for owner, name in (
        (lop, "heuristic_ranking"),
        (lop._Search, "run_value"),
        (lop._Search, "lex_min_witness"),
        (lop, "_build_completion_table"),
        (lop._Search, "enumerate_leaves"),
    ):
        calls[name] = 0
        real = getattr(owner, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counting)
    return calls


# Inside the table budget with exact sums, k* is the table's last entry: one
# table build and one enumeration, and no heuristic, value search or witness.
_TABLE_ROUTE = {
    "heuristic_ranking": 0,
    "run_value": 0,
    "lex_min_witness": 0,
    "_build_completion_table": 1,
    "enumerate_leaves": 1,
}


def _search_route(tables: int) -> dict[str, int]:
    """Counts when k* comes from the heuristic and the value branch and bound."""
    return {
        "heuristic_ranking": 1,
        "run_value": 1,
        "lex_min_witness": 0,
        "_build_completion_table": tables,
        "enumerate_leaves": 1,
    }


def _fractional_college() -> WeightMatrix:
    rng = np.random.default_rng(5)
    a = WeightMatrix(np.asarray(COLLEGE_WEIGHTS) * rng.uniform(0.5, 1.5, (10, 10)))
    assert not lop._exact_sums(a)
    return a


class TestOneSolvePerMatrix:
    def test_season_report_solves_and_enumerates_once(self, search_calls):
        for gs in read_games_csv(DATA_DIR / "multi_season.csv"):
            for name in search_calls:
                search_calls[name] = 0
            season_report(gs)
            assert search_calls == _TABLE_ROUTE

    def test_season_command_solves_and_enumerates_once_per_season(
        self, search_calls, capsys
    ):
        path = DATA_DIR / "multi_season.csv"
        code = main(["season", "--input", str(path)])
        capsys.readouterr()
        assert code == 0
        seasons = len(read_games_csv(path))
        assert search_calls == {k: v * seasons for k, v in _TABLE_ROUTE.items()}

    def test_kappa_command_solves_and_enumerates_once(self, search_calls, capsys):
        path = str(DATA_DIR / "college_features.csv")
        code = main(["kappa", "--input", path, "--kind", "features"])
        capsys.readouterr()
        assert code == 0
        assert search_calls == _TABLE_ROUTE

    @pytest.mark.parametrize(
        "call",
        [
            enumerate_optima,
            lambda a: ktdiam._solve_with_kappa(a, DEFAULT_CONFIG),
        ],
        ids=["enumerate_optima", "solve_with_kappa"],
    )
    def test_routes(self, search_calls, call):
        call(WeightMatrix(COLLEGE_WEIGHTS))
        assert search_calls == _TABLE_ROUTE
        for name in search_calls:
            search_calls[name] = 0
        call(_fractional_college())
        assert search_calls == _search_route(tables=1)
        for name in search_calls:
            search_calls[name] = 0
        n = lop._TABLE_MAX_N + 1
        call(WeightMatrix(_hidden_order_tournament(np.random.default_rng(3), n)))
        assert search_calls == _search_route(tables=0)

    def test_degree_of_linearity_reads_the_table(self, search_calls):
        degree_of_linearity(WeightMatrix(COLLEGE_WEIGHTS))
        assert search_calls == {**_TABLE_ROUTE, "enumerate_leaves": 0}
        for name in search_calls:
            search_calls[name] = 0
        degree_of_linearity(_fractional_college())
        assert search_calls == {
            **_search_route(tables=0),
            "enumerate_leaves": 0,
        }


@pytest.fixture
def expiring_table_build(monkeypatch):
    """Make every table build run into a deadline that has already passed."""
    real = lop._build_completion_table

    def expired(w, deadline):
        return real(w, time.monotonic() - 1.0)

    monkeypatch.setattr(lop, "_build_completion_table", expired)


class TestDeadlineInsideTableBuild:
    def test_lop_reports_unproven_incumbent(self, expiring_table_build):
        a = WeightMatrix(COLLEGE_WEIGHTS)
        res = solve_lop(a)
        assert not res.proven
        assert objective_value(a, res.ranking) == res.optimal_value
        assert a._completion is None

    def test_enumerate_refuses(self, expiring_table_build):
        with pytest.raises(UnprovenOptimumError):
            enumerate_optima(WeightMatrix(COLLEGE_WEIGHTS))

    def test_kappa_is_unproven(self, expiring_table_build, capsys):
        with pytest.raises(UnprovenOptimumError):
            solve_kt(WeightMatrix(COLLEGE_WEIGHTS), COLLEGE_K_STAR)
        path = str(DATA_DIR / "college_features.csv")
        code = main(["kappa", "--input", path, "--kind", "features"])
        capsys.readouterr()
        assert code == 2


def _hidden_order_tournament(rng: np.random.Generator, n: int) -> np.ndarray:
    """One game per pair; the better item of a hidden order wins w.p. 0.93."""
    order = rng.permutation(n)
    a = np.zeros((n, n))
    for x, y in itertools.combinations(range(n), 2):
        better, worse = order[x], order[y]
        if rng.random() < 0.93:
            a[better, worse] = 1.0
        else:
            a[worse, better] = 1.0
    return a


def _hidden_order_games(rng: np.random.Generator, n: int) -> np.ndarray:
    """Win matrix of one round robin with ties (half a point each way)."""
    order = rng.permutation(n)
    records = []
    for x, y in itertools.combinations(range(n), 2):
        if rng.random() < 0.15:
            scores = (1, 1)
        elif rng.random() < 0.9:
            scores = (2, 1)
        else:
            scores = (1, 2)
        records.append(
            GameRecord(
                season=2000,
                stage="regular",
                team_a=f"T{int(order[x]):02d}",
                team_b=f"T{int(order[y]):02d}",
                score_a=scores[0],
                score_b=scores[1],
            )
        )
    return build_win_matrix(game_set_from_records(records), Stage.REGULAR).weights


@pytest.fixture
def witness_passes(monkeypatch):
    """Record every table-free witness pass (witness.WitnessLayers) as it starts."""
    passes: list[witness.WitnessLayers] = []
    real = witness.WitnessLayers.__init__

    def recording(self, search, target):
        passes.append(self)
        real(self, search, target)

    monkeypatch.setattr(witness.WitnessLayers, "__init__", recording)
    return passes


def _solve_with_witness_oracle(monkeypatch, a: WeightMatrix):
    """solve_lop with the memo-free depth-first witness search.

    lex_min_witness runs tests/oracles.py::lex_min_witness_loop, which
    searches the apply/undo state with exists_completion_loop.
    """
    with monkeypatch.context() as m:
        m.setattr(lop._Search, "lex_min_witness", lex_min_witness_loop)
        return solve_lop(a)


def _fractional_hidden_order(n: int) -> np.ndarray:
    """A hidden-order tournament with each game's weight drawn from [0.5, 1.5)."""
    rng = np.random.default_rng(0)
    return _hidden_order_tournament(rng, n) * rng.uniform(0.5, 1.5, size=(n, n))


class TestWitnessMemo:
    """Above the table budget the layered witness pass equals the memo-free search.

    The witness, nodes and pruned must be those of the depth-first search
    without memo, for exact and for float weights.
    """

    @pytest.mark.parametrize(
        "n,seed", [(19, 0), (19, 2), (20, 0), (20, 2), (21, 0), (21, 2)]
    )
    def test_hidden_order_tournaments(self, monkeypatch, witness_passes, n, seed):
        a = WeightMatrix(_hidden_order_tournament(np.random.default_rng(seed), n))
        self._assert_equals_oracle(monkeypatch, witness_passes, a)

    @pytest.mark.parametrize("n,seed", [(19, 0), (19, 2), (20, 2), (21, 2)])
    def test_games_with_ties(self, monkeypatch, witness_passes, n, seed):
        w = _hidden_order_games(np.random.default_rng(seed), n)
        assert np.any(w % 1.0 == 0.5)
        self._assert_equals_oracle(monkeypatch, witness_passes, WeightMatrix(w))

    def test_fractional_weights_take_the_memo_free_route(
        self, monkeypatch, witness_passes
    ):
        w = _fractional_hidden_order(19)
        # The same matrix, written with repr, is the CI's float input above
        # the table budget.
        assert np.array_equal(read_matrix_csv(DATA_DIR / "fractional19.csv").weights, w)
        assert not lop._exact_sums(WeightMatrix(w))
        self._assert_equals_oracle(monkeypatch, witness_passes, WeightMatrix(w))

    @pytest.mark.parametrize("family", ["uniform", "noisy-integer", "tenths"])
    def test_fractional_weights_without_a_table(
        self, monkeypatch, witness_passes, family
    ):
        monkeypatch.setattr(lop, "_TABLE_MAX_N", 0)
        a = WeightMatrix(_scaled_weights(family, 11, 1.0, 7))
        assert not lop._exact_sums(a)
        self._assert_equals_oracle(monkeypatch, witness_passes, a)

    @staticmethod
    def _assert_equals_oracle(monkeypatch, witness_passes, a: WeightMatrix):
        res = solve_lop(a)
        assert res.proven
        # One pass, which reached states beyond the root's children.
        (witness,) = witness_passes
        assert any(layer.size for layer in witness.layers[1:])
        plain = _solve_with_witness_oracle(monkeypatch, a)
        assert plain.proven
        assert (res.ranking, res.stats.nodes, res.stats.pruned) == (
            plain.ranking,
            plain.stats.nodes,
            plain.stats.pruned,
        )

    def test_deadline_after_the_value_proof_stops_the_witness_search(
        self, monkeypatch, witness_passes
    ):
        a = WeightMatrix(_hidden_order_tournament(np.random.default_rng(0), 19))
        limit = 10.0
        offset = [0.0]
        monkeypatch.setattr(
            lop, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + offset[0])
        )
        real_run_value = lop._Search.run_value

        def run_value(self, *args):
            result = real_run_value(self, *args)
            offset[0] += 2 * limit
            return result

        monkeypatch.setattr(lop._Search, "run_value", run_value)
        res = solve_lop(a, SolverConfig(time_limit=limit))
        assert not res.proven
        assert objective_value(a, res.ranking) == res.optimal_value
        # The witness pass started and stopped at its first deadline check,
        # before it finished a layer.
        (witness,) = witness_passes
        assert witness.layers == []


def _tiered(n: int, seed: int) -> np.ndarray:
    """Items in three tiers: 2 against a lower tier, 1 against the own tier.

    Every order of the tiers from the top down is optimal, so many prefixes
    tie at the optimum.
    """
    tier = np.random.default_rng(seed).integers(0, 3, n)
    w = np.where(tier[:, None] > tier[None, :], 2.0, 1.0)
    np.fill_diagonal(w, 0.0)
    return w


class TestNarrowWitnessPasses:
    """Past its budget the witness pass holds about the states the
    depth-first search visits, with the same witness, nodes and pruned.
    """

    def test_every_weight_equal_at_n_24(self, monkeypatch, witness_passes):
        # All 2^24 sets reach the optimum; one pass over them held about
        # 0.55 GB. The depth-first search visits about n states per child.
        n = 24
        a = WeightMatrix(np.ones((n, n)) - np.eye(n))
        tracemalloc.start()
        try:
            res = solve_lop(a, SolverConfig(time_limit=60.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.proven
        assert peak < 4 << 20
        (witness,) = witness_passes
        assert sum(layer.size for layer in witness.layers) < n**3
        plain = _solve_with_witness_oracle(monkeypatch, a)
        assert (res.ranking, res.stats.nodes, res.stats.pruned) == (
            plain.ranking,
            plain.stats.nodes,
            plain.stats.pruned,
        )

    @pytest.mark.parametrize(
        "family,n,seed",
        [
            ("hidden", 19, 0),
            ("hidden", 20, 2),
            ("games", 19, 2),
            ("tiered", 19, 1),
            ("tiered", 21, 4),
            ("fractional", 19, 0),
        ],
    )
    def test_narrow_passes_equal_the_oracle(
        self, monkeypatch, witness_passes, family, n, seed
    ):
        rng = np.random.default_rng(seed)
        w = {
            "hidden": lambda: _hidden_order_tournament(rng, n),
            "games": lambda: _hidden_order_games(rng, n),
            "tiered": lambda: _tiered(n, seed),
            "fractional": lambda: _fractional_hidden_order(n),
        }[family]()
        a = WeightMatrix(w)
        monkeypatch.setattr(witness, "_STATES_PER_NODE", 0)
        runs = []
        real_run = witness.WitnessLayers._run

        def recording(self, roots, width, cap):
            runs.append(width)
            return real_run(self, roots, width, cap)

        monkeypatch.setattr(witness.WitnessLayers, "_run", recording)
        res = solve_lop(a)
        assert res.proven
        # The first pass stopped at its budget and narrow passes followed.
        # With tiers one narrow pass decides every state the walk reads;
        # the others leave some undecided and widen.
        assert runs[:2] == [n, 1]
        if family != "tiered":
            assert max(runs[1:]) > 1
        plain = _solve_with_witness_oracle(monkeypatch, a)
        assert (res.ranking, res.stats.nodes, res.stats.pruned) == (
            plain.ranking,
            plain.stats.nodes,
            plain.stats.pruned,
        )

    def test_a_pass_over_the_state_cap_leaves_the_witness_unproven(
        self, monkeypatch
    ):
        a = WeightMatrix(_hidden_order_tournament(np.random.default_rng(0), 19))
        expected = solve_lop(a)
        monkeypatch.setattr(witness, "_MAX_STATES", 50)
        res = solve_lop(a)
        assert not res.proven
        assert res.optimal_value == expected.optimal_value
        assert objective_value(a, res.ranking) == res.optimal_value


class TestWitnessCounts:
    """The witness pass keeps each state's nodes and pruned exact, or raises."""

    def test_a_layer_whose_counts_could_pass_the_limit_raises(
        self, monkeypatch, witness_passes
    ):
        a = WeightMatrix(_hidden_order_tournament(np.random.default_rng(2), 20))

        def solve():
            res = solve_lop(WeightMatrix(a.weights))
            return res.ranking, res.stats.nodes, res.stats.pruned, res.proven

        expected = solve()
        # The backward pass checks the counts of each layer below the
        # first before it adds up to n of them.
        top = max(int(counts.max()) for *_, counts in witness_passes[0].results[1:])
        monkeypatch.setattr(witness, "_COUNT_MAX", top * a.n + 1)
        assert solve() == expected
        monkeypatch.setattr(witness, "_COUNT_MAX", top * a.n)
        with pytest.raises(RankabilityError, match="int64"):
            solve()


def _value_witness_optima(a: WeightMatrix, exact: bool, cap: int = 100_000):
    """solve_lop's phases with _Search.exact forced.

    The value search's best value, best order, nodes and pruned; the
    lex-min witness with the nodes and pruned it adds; and every optimum,
    with truncated. exact picks the value search's state form.
    """
    heur = [v - 1 for v in heuristic_ranking(a).order]
    search = lop._Search(a)
    search.exact = exact
    assert not search.run_value(heur, order_value_loop(search.w, heur))
    value = (search.best_val, search.best_order, search.nodes, search.pruned)
    nodes, pruned = search.nodes, search.pruned
    witness = search.lex_min_witness(search.best_val)
    witness = (witness, search.nodes - nodes, search.pruned - pruned)
    search = lop._Search(a)
    search.exact = exact
    optima = search.enumerate_leaves(value[0], cap)
    return value, witness, optima


class TestExactRoute:
    """With exact sums the value search's two state forms agree, and the
    witness and the optima agree with and without a table.
    """

    @staticmethod
    def _assert_routes_agree(w: np.ndarray) -> None:
        a = WeightMatrix(w)
        assert lop._exact_sums(a)
        result = _value_witness_optima(a, exact=True)
        # Both value-search forms.
        assert result == _value_witness_optima(WeightMatrix(w), exact=False)
        (k_star, *_), (witness, _, _), (optima, truncated) = result
        assert witness is not None and tuple(witness) == optima[0]
        assert not truncated
        if a.n <= lop._TABLE_MAX_N:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(lop, "_TABLE_MAX_N", 0)
                free = _value_witness_optima(WeightMatrix(w), exact=True)
            # The table-side witness expands no search nodes, so only the
            # orders compare.
            assert (free[1][0], free[2]) == (witness, result[2])
        if a.n <= 8:
            brute_k_star, orders = brute_force_lop(w, tol=0.0)
            assert k_star == brute_k_star
            assert [tuple(v + 1 for v in order) for order in optima] == orders

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 12), seed=st.integers(0, 2**32 - 1))
    def test_half_integral_matrices(self, n, seed):
        w = random_half_integer_matrix(np.random.default_rng(seed), n).weights
        self._assert_routes_agree(w)

    # Seeds above the table budget are ones where the witness search
    # without memo takes well under a second.
    @pytest.mark.parametrize(
        "n,seed", [(14, 0), (15, 1), (16, 2), (19, 0), (20, 1), (21, 1)]
    )
    def test_hidden_order_tournaments(self, n, seed):
        w = _hidden_order_tournament(np.random.default_rng(seed), n)
        self._assert_routes_agree(w)

    @pytest.mark.parametrize(
        "n,seed", [(14, 0), (15, 1), (16, 2), (19, 5), (20, 3), (21, 3)]
    )
    def test_games_with_ties(self, n, seed):
        w = _hidden_order_games(np.random.default_rng(seed), n)
        assert np.any(w % 1.0 == 0.5)
        self._assert_routes_agree(w)


def _coin_tournament(rng: np.random.Generator, n: int, games: int) -> np.ndarray:
    """games per pair, each won by either side w.p. 1/2 (acceptance criterion 8)."""
    w = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        wins = rng.binomial(games, 0.5)
        w[i, j] = wins
        w[j, i] = games - wins
    return w


class TestKStarAgainstMilp:
    """k* above the table budget equals the paper's binary program's, by HiGHS."""

    @staticmethod
    def _assert_k_star(w: np.ndarray) -> None:
        assert w.shape[0] > lop._TABLE_MAX_N
        res = solve_lop(WeightMatrix(w))
        assert res.proven
        assert res.optimal_value == lop_milp(w)

    @pytest.mark.parametrize("n", range(19, 23))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_hidden_order_tournaments(self, n, seed):
        self._assert_k_star(_hidden_order_tournament(np.random.default_rng(seed), n))

    def test_games_with_ties(self):
        w = _hidden_order_games(np.random.default_rng(3), 20)
        assert np.any(w % 1.0 == 0.5)
        self._assert_k_star(w)

    # Four games per pair: solve_lop proves these in well under a second,
    # where one-game p = 1/2 tournaments at n = 19 take it seconds.
    @pytest.mark.parametrize("seed", [4, 8])
    def test_p_half_tournaments(self, seed):
        self._assert_k_star(_coin_tournament(np.random.default_rng(seed), 19, 4))


class TestExactSums:
    def test_accepts_integer_and_half_integer_matrices(self, college_matrix):
        rng = np.random.default_rng(4)
        assert lop._exact_sums(WeightMatrix(_hidden_order_tournament(rng, 19)))
        assert lop._exact_sums(random_half_integer_matrix(rng, 12))
        assert lop._exact_sums(college_matrix)

    def test_accepts_the_data_game_and_feature_matrices(self):
        for name in ("multi_season.csv", "divergence4.csv", "digraph3_season.csv"):
            for gs in read_games_csv(DATA_DIR / name):
                for stage in (Stage.REGULAR, Stage.PLAYOFF):
                    if gs.games_at(stage):
                        assert lop._exact_sums(build_win_matrix(gs, stage))
        assert lop._exact_sums(read_feature_table(DATA_DIR / "college_features.csv"))

    def test_rejects_a_fractional_weight(self):
        assert not lop._exact_sums(WeightMatrix([[0, 0.1], [1, 0]]))
        assert not lop._exact_sums(WeightMatrix([[0, 0.25, 1], [1, 0, 0], [0, 1, 0]]))

    def test_rejects_a_total_reaching_two_to_the_52(self):
        assert not lop._exact_sums(WeightMatrix([[0, 2.0**52], [0, 0]]))
        assert not lop._exact_sums(WeightMatrix([[0, 2.0**51], [2.0**51, 0]]))

    def test_threshold(self):
        below = lop._EXACT_TOTAL - 0.5
        assert lop._exact_sums(WeightMatrix([[0, below], [0, 0]]))
        assert not lop._exact_sums(WeightMatrix([[0, lop._EXACT_TOTAL], [0, 0]]))


def _scaled_weights(family: str, n: int, scale: float, seed: int) -> np.ndarray:
    """Seeded weights of one family, times scale.

    The families are uniform reals, integers 0-4 plus noise up to 1e-3,
    and tenths 0, 0.1 and 0.2, whose sums tie up to rounding.
    """
    rng = np.random.default_rng(seed)
    if family == "uniform":
        w = rng.uniform(0.0, 1.0, (n, n))
    elif family == "noisy-integer":
        w = rng.integers(0, 5, (n, n)) + rng.uniform(0.0, 1e-3, (n, n))
    else:
        w = rng.integers(0, 3, (n, n)) * 0.1
    w = w * scale
    np.fill_diagonal(w, 0.0)
    return w


class TestWeightScale:
    """Ties are decided alike at every weight scale."""

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(("uniform", "noisy-integer", "tenths")),
        n=st.integers(3, 7),
        exponent=st.integers(-12, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_optima_equal_brute_force_at_the_slack(self, family, n, exponent, seed):
        w = _scaled_weights(family, n, 10.0**exponent, seed)
        expected = brute_force_lop(w, tol=lop._slack(WeightMatrix(w)))[1]
        # With the completion table, then with none: the witness and the
        # enumeration take their table-free sides.
        for table_max_n in (lop._TABLE_MAX_N, 0):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(lop, "_TABLE_MAX_N", table_max_n)
                a = WeightMatrix(w)
                orders = [r.order for r in enumerate_optima(a).rankings]
                assert orders == expected
                assert solve_lop(a).ranking.order == orders[0]

    def test_slack_is_zero_for_exact_sums_and_scales_otherwise(self, college_matrix):
        assert lop._slack(college_matrix) == 0.0
        w = _scaled_weights("uniform", 6, 1.0, 0)
        small, large = WeightMatrix(w * 2.0**-30), WeightMatrix(w * 2.0**30)
        assert 0.0 < lop._slack(small) < 1e-6 * small.total_sum()
        assert lop._slack(large) == 2.0**60 * lop._slack(small)
