"""Tests for the exact linear ordering solver."""

from __future__ import annotations

import functools
import itertools
import math
import operator
import subprocess
import sys
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
    InvalidArgumentError,
    MalformedPermutationError,
    RankabilityError,
    TooManyItemsError,
    UndefinedMetricError,
    UnprovenOptimumError,
)
from rankability import ktdiam, lop, value, witness
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
    enumerate_leaves_loop,
    heuristic_ranking_loop,
    lex_min_witness_loop,
    lop_milp,
    order_value_loop,
    value_search_loop,
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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"time_limit": True},
            {"time_limit": False},
            {"enumeration_cap": True},
            {"enumeration_cap": False},
        ],
    )
    def test_rejects_bools(self, kwargs):
        # bool is a numbers.Integral: True would run as a 1-second limit or
        # a cap of 1.
        with pytest.raises(InvalidArgumentError):
            SolverConfig(**kwargs)

    def test_accepts_numpy_numbers(self):
        cfg = SolverConfig(time_limit=np.float64(60.0), enumeration_cap=np.int64(2))
        optima = enumerate_optima(WeightMatrix(COLLEGE_WEIGHTS), cfg)
        assert optima.count == 2 and optima.truncated


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

    @pytest.mark.parametrize("n", [2, 5, 11, 23])
    def test_root_sums_are_the_moves_folds_after_any_moves(self, n):
        # The root's u is folded in numpy, s_a and s_m in Python on first
        # use: the bits must agree, and reset restores the root exactly.
        rng = np.random.default_rng(31 + n)
        w = _random_weights(rng, n, integral=False) * 10.0 ** rng.uniform(-8, 8)
        search = lop._Search(WeightMatrix(w))
        assert "s_a" not in vars(search) and "s_m" not in vars(search)
        rows, pair_max = w.tolist(), np.maximum(w, w.T).tolist()
        assert search.u == lop._fold(search.s_m) / 2.0
        assert search.s_a == [
            lop._fold(rows[v][r] for r in range(n) if r != v) for v in range(n)
        ]
        assert search.s_m == [
            lop._fold(pair_max[v][r] for r in range(n) if r != v) for v in range(n)
        ]
        root = (search.u, list(search.s_a), list(search.s_m))
        for v in rng.permutation(n)[: n - 1]:
            search.apply(int(v))
        for _ in range(n - 1):
            search.undo()
        search.reset()
        assert (search.f, search.rem_mask, search.prefix) == (0.0, (1 << n) - 1, [])
        assert (search.u, search.s_a, search.s_m) == root


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

    def test_rejects_non_integral_items(self, digraphs):
        for partial in ([1.7], [1, 2.5], ["1"], [float("nan")], [np.float64(1.5)]):
            with pytest.raises(MalformedPermutationError):
                prefix_upper_bound(digraphs[1], partial)
        expected = prefix_upper_bound(digraphs[1], [1, 2])
        assert prefix_upper_bound(digraphs[1], [1.0, np.int64(2)]) == expected

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


def _walk_and_loop(w: np.ndarray, cap: int, table_free: bool):
    """lop._optimal_orders' orders and flag, then the depth-first loop's.

    table_free makes both take the drop rows instead of the table.
    """
    k_star = lop._proven_value(WeightMatrix(w), None)
    with pytest.MonkeyPatch.context() as m:
        if table_free:
            m.setattr(lop, "_TABLE_MAX_N", 0)
        orders, truncated = lop._optimal_orders(WeightMatrix(w), k_star, cap, None)
        search = lop._Search(WeightMatrix(w))
        loop, loop_truncated = enumerate_leaves_loop(search, k_star, cap + 1)
    expected = [[v + 1 for v in order] for order in loop[:cap]]
    return (orders.tolist(), truncated), (expected, loop_truncated)


def _every_weight_equal(n: int) -> np.ndarray:
    w = np.ones((n, n))
    np.fill_diagonal(w, 0.0)
    return w


class TestOptimaWalk:
    """The chunked walk against the depth-first search over one prefix at a
    time (tests/oracles.py::enumerate_leaves_loop): the same orders, in the
    same sequence, and the same truncated flag.
    """

    @pytest.mark.parametrize("cap", [1, 5, 10**6])
    @pytest.mark.parametrize("table_free", [False, True], ids=["table", "drop_rows"])
    def test_equals_the_loop_on_random_matrices(self, cap, table_free):
        rng = np.random.default_rng(61)
        for family in ("integer", "tenths", "equal") * 8:
            n = int(rng.integers(3, 9))
            if family == "integer":
                w = rng.integers(0, 4, (n, n)).astype(float)
            elif family == "tenths":
                w = rng.integers(0, 3, (n, n)) * 0.1
            else:
                w = _every_weight_equal(n)
            np.fill_diagonal(w, 0.0)
            assert lop._exact_sums(WeightMatrix(w)) == (family != "tenths")
            walk, loop = _walk_and_loop(w, cap, table_free)
            assert walk == loop

    # hidden20.csv and fractional19.csv lie above the table budget; the
    # loop takes minutes on tournament18.csv without the table.
    @pytest.mark.parametrize("cap", [1, 5, 10**6])
    @pytest.mark.parametrize(
        "name,table_free",
        [
            ("hidden20", False),
            ("fractional19", False),
            ("tournament18", False),
            ("equal8", False),
            ("equal8", True),
        ],
    )
    def test_equals_the_loop_on_the_data_files(self, name, table_free, cap):
        if name == "equal8":
            w = _every_weight_equal(8)
        else:
            w = read_matrix_csv(DATA_DIR / f"{name}.csv").weights
        walk, loop = _walk_and_loop(w, cap, table_free)
        assert walk == loop

    def test_a_deadline_keeps_the_leaves_found_before_it(self, monkeypatch):
        a = WeightMatrix(_coin_tournament(np.random.default_rng(1), 7, 2))
        k_star = lop._proven_value(a, None)
        full, truncated = lop._optimal_orders(a, k_star, 10**6, None)
        assert not truncated and len(full) > 3
        # One prefix per chunk. The table is built, so _completion reads the
        # clock once before the walk, which reads it before every chunk.
        monkeypatch.setattr(lop, "_WALK_CHUNK_BYTES", 1)
        counts = []
        for chunks in range(1, 200):
            clock = itertools.chain([0.0] * (1 + chunks), itertools.repeat(np.inf))
            monkeypatch.setattr(
                lop, "time", SimpleNamespace(monotonic=lambda: next(clock))
            )
            orders, truncated = lop._optimal_orders(a, k_star, 10**6, 1.0)
            if not truncated:
                break
            assert orders.tolist() == full[: len(orders)].tolist()
            counts.append(len(orders))
        # After the first chunk, the empty prefix, no leaf is found yet.
        assert counts[0] == 0
        assert counts == sorted(counts)
        assert 0 < counts[len(counts) // 2] < len(full)
        assert orders.tolist() == full.tolist()

    def test_the_walk_to_the_cap_traces_under_64_mib(self):
        n = 12
        a = WeightMatrix(_every_weight_equal(n))
        k_star = lop._proven_value(a, None)
        cap = DEFAULT_CONFIG.enumeration_cap
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            orders, truncated = lop._optimal_orders(a, k_star, cap, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert truncated and orders.shape == (cap, n)
        first = list(range(1, n + 1))
        assert orders[:2].tolist() == [first, first[:-2] + first[:-3:-1]]
        assert peak - before < 64 << 20


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

    @pytest.mark.parametrize("n", range(1, 13))
    def test_exact_build_equals_the_scalar_recurrence(self, n):
        # Exact sums take the split row sums: an odd n splits unevenly, and
        # n = 1 leaves the low half empty.
        rng = np.random.default_rng(43 + n)
        matrices = [_tournament_with_ties(rng, n, games) for games in (1, 4)]
        if n >= 2:
            matrices.append(_hidden_order_games(rng, n))
        for w in matrices:
            # WeightMatrix takes at least two items; one item's sums are 0.
            assert n == 1 or lop._exact_sums(WeightMatrix(w))
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
            assert lop._exact_sums(WeightMatrix(w))
            table = lop._build_completion_table(w, None).table
            assert table == completion_table_by_layers(w)

    @pytest.mark.parametrize("n", [2, 4, 9, 11, 12, 13, 14, 15, 16])
    def test_fractional_build_is_within_the_slack_of_the_references(self, n):
        # The build adds split row sums, the references row sums over all n
        # items, so the last bits may differ; every reader of the table
        # compares its entries within _slack. Up to n = 11 the reference is
        # the scalar recurrence, above it the layered build.
        w = _random_weights(np.random.default_rng(61 + n), n, integral=False)
        a = WeightMatrix(w)
        assert not lop._exact_sums(a)
        reference = completion_table_loop(w) if n <= 11 else completion_table_by_layers(w)
        table = lop._build_completion_table(w, None).table
        assert np.max(np.abs(np.subtract(table, reference))) <= lop._slack(a)

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
        assert lop._exact_sums(WeightMatrix(w)) == integral
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

    @pytest.mark.parametrize("integral", [True, False])
    def test_build_traces_at_most_64_bytes_per_set(self, integral):
        # Every weight type takes the split row sums: no table of row sums
        # over all n items, which alone would take 8 n bytes per set.
        n = 16
        rng = np.random.default_rng(47)
        if integral:
            w = _tournament_with_ties(rng, n, 1)
        else:
            w = _random_weights(rng, n, integral=False)
        assert lop._exact_sums(WeightMatrix(w)) == integral
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            lop._build_completion_table(w, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 64 << n


class TestSplitRows:
    """The one numpy child kernel of the value passes, the walk and the witness pass."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_children_have_the_bits_of_the_scalar_sums(self, n):
        rng = np.random.default_rng(83 + n)
        rows = lop._split_row_sums(_random_weights(rng, n, integral=False))
        count = 40
        rem = rng.integers(0, 1 << n, count)
        x = rng.uniform(-100.0, 100.0, count)
        order = rng.permutation(n)
        state = np.arange(count)[:, None]
        # (items, the state of each child, rem and x as the caller passes them)
        shapes = [
            # Value passes: one row of items for all states, (state, position).
            (order, np.broadcast_to(state, (count, n)), rem[:, None], x[:, None]),
            # Walk: a row of items per state.
            (rng.integers(0, n, (count, 3)), np.broadcast_to(state, (count, 3)),
             rem[:, None], x[:, None]),
            # Witness pass: a column of items, (position, state).
            (order[:, None], np.broadcast_to(state.T, (n, count)), rem, x),
        ]
        for items, states, r, xs in shapes:
            child = rows.children(r, xs, rows.at_lo.take(items), rows.at_hi.take(items))
            assert child.shape == states.shape
            items = np.broadcast_to(items, states.shape)
            expected = []
            for s, v in zip(states.ravel().tolist(), items.ravel().tolist()):
                _, _, at_lo, at_hi = rows.items[v]
                low, high = int(rem[s]) & rows.low, int(rem[s]) >> rows.h
                expected.append(float(x[s]) + (rows.lo[at_lo + low] + rows.hi[at_hi + high]))
            assert child.tobytes() == np.reshape(expected, states.shape).tobytes()
            # An item placed already gives -inf; every other child is finite.
            placed = (rem[states] >> items) & 1 == 0
            assert placed.any() and (child[placed] == -np.inf).all()
            assert np.isfinite(child[~placed]).all()


class TestTableRouteImports:
    def test_solve_lop_with_a_table_loads_no_witness_passes(self):
        # Only the table-free witness search needs witness.py; the exact
        # value passes (value.py) run here and must not load it either. A
        # fresh interpreter, since this module imports both.
        code = "\n".join([
            "import sys",
            "from rankability.core import read_matrix_csv",
            "from rankability.lop import solve_lop",
            f"solve_lop(read_matrix_csv({str(DATA_DIR / 'tournament18.csv')!r}))",
            "print(*(f'rankability.{m}' in sys.modules for m in ('value', 'witness')))",
        ])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True", "False"]


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
    (_build_completion_table) and enumerations (_walk_optima).
    """
    calls: dict[str, int] = {}
    for owner, name in (
        (lop, "heuristic_ranking"),
        (lop._Search, "run_value"),
        (lop._Search, "lex_min_witness"),
        (lop, "_build_completion_table"),
        (lop, "_walk_optima"),
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
    "_walk_optima": 1,
}


def _search_route(tables: int) -> dict[str, int]:
    """Counts when k* comes from the heuristic and the value branch and bound."""
    return {
        "heuristic_ranking": 1,
        "run_value": 1,
        "lex_min_witness": 0,
        "_build_completion_table": tables,
        "_walk_optima": 1,
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
        assert search_calls == {**_TABLE_ROUTE, "_walk_optima": 0}
        for name in search_calls:
            search_calls[name] = 0
        degree_of_linearity(_fractional_college())
        assert search_calls == {
            **_search_route(tables=0),
            "_walk_optima": 0,
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
    """Above the table budget the witness pass and the memoized search
    equal the memo-free search.

    The witness, nodes and pruned must be those of the depth-first search
    without memo, for exact and for float weights, on either route.
    """

    @pytest.mark.parametrize(
        "n,seed", [(19, 0), (19, 2), (20, 0), (20, 2), (21, 0), (21, 2)]
    )
    def test_hidden_order_tournaments(self, monkeypatch, witness_passes, n, seed):
        a = WeightMatrix(_hidden_order_tournament(np.random.default_rng(seed), n))
        self._assert_equals_oracle(monkeypatch, witness_passes, a, "pass")

    @pytest.mark.parametrize("n,seed", [(19, 0), (19, 2), (20, 2), (21, 2)])
    def test_games_with_ties(self, monkeypatch, witness_passes, n, seed):
        w = _hidden_order_games(np.random.default_rng(seed), n)
        assert np.any(w % 1.0 == 0.5)
        self._assert_equals_oracle(monkeypatch, witness_passes, WeightMatrix(w), "pass")

    def test_fractional_weights_take_the_memo_route(self, monkeypatch, witness_passes):
        w = _fractional_hidden_order(19)
        # The same matrix, written with repr, is the CI's float input above
        # the table budget.
        assert np.array_equal(read_matrix_csv(DATA_DIR / "fractional19.csv").weights, w)
        assert not lop._exact_sums(WeightMatrix(w))
        self._assert_equals_oracle(monkeypatch, witness_passes, WeightMatrix(w), "memo")

    def test_tiers_with_upsets_take_the_memo_route(self, monkeypatch, witness_passes):
        w = _tiered(24, [24, 3, 5, 1], upsets=0.05)
        # The CI's exact-sum input for the memo route.
        assert np.array_equal(read_matrix_csv(DATA_DIR / "tiers24.csv").weights, w)
        assert lop._exact_sums(WeightMatrix(w))
        self._assert_equals_oracle(monkeypatch, witness_passes, WeightMatrix(w), "memo")

    @pytest.mark.parametrize("family", ["uniform", "noisy-integer", "tenths"])
    def test_fractional_weights_without_a_table(
        self, monkeypatch, witness_passes, family
    ):
        monkeypatch.setattr(lop, "_TABLE_MAX_N", 0)
        a = WeightMatrix(_scaled_weights(family, 11, 1.0, 7))
        assert not lop._exact_sums(a)
        self._assert_equals_oracle(monkeypatch, witness_passes, a, "pass")

    @staticmethod
    def _assert_equals_oracle(monkeypatch, witness_passes, a: WeightMatrix, route):
        res = solve_lop(a)
        assert res.proven
        (witness,) = witness_passes
        if route == "pass":
            # One pass, which reached states beyond the root's children.
            assert any(layer.size for layer in witness.layers[1:])
            assert not witness.memo
        else:
            # The pass stopped at its budget and the memo answered.
            assert witness.layers == [] and witness.memo
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


def _coin19() -> WeightMatrix:
    """A coin tournament with 2 games per pair at n = 19, rng seed 0.

    Many prefixes tie at its optimum: the witness pass holds 68,315 states,
    up to 17,167 in one layer, over many chunks of states.
    """
    return WeightMatrix(_coin_tournament(np.random.default_rng(0), 19, 2))


class TestWitnessLinks:
    """The forward pass links each child once; the backward pass only
    gathers over the links, with the depth-first search's witness, nodes
    and pruned.
    """

    def test_tens_of_thousands_of_states_equal_the_oracle(
        self, monkeypatch, witness_passes
    ):
        a = _coin19()
        TestWitnessMemo._assert_equals_oracle(monkeypatch, witness_passes, a, "pass")
        (descent,) = witness_passes
        assert sum(layer.size for layer in descent.layers) == 68_315
        assert max(layer.size for layer in descent.layers) > 100 * descent.chunk
        # Each layer's links: one int32 per item and state.
        assert [link.shape for link in descent.links] == [
            (a.n, layer.size) for layer in descent.layers
        ]
        assert all(link.dtype == np.int32 for link in descent.links)

    def test_links_carried_over_many_merges_are_the_same(
        self, monkeypatch, witness_passes
    ):
        # With no floor on a merge, a large layer merges many times, and the
        # links made before its last merge are carried to its final keys.
        a = _coin19()
        expected = solve_lop(a)
        merges = []
        real_distinct = witness._distinct
        monkeypatch.setattr(witness, "_MERGE_KEYS", 0)
        monkeypatch.setattr(
            witness, "_distinct", lambda x: merges.append(x.size) or real_distinct(x)
        )
        res = solve_lop(a)
        first, second = witness_passes
        assert len(merges) > 5 * len(second.layers)
        assert (res.ranking, res.stats.nodes, res.stats.pruned) == (
            expected.ranking,
            expected.stats.nodes,
            expected.stats.pruned,
        )
        for old, new in zip(first.layers + first.links, second.layers + second.links):
            assert np.array_equal(old, new)

    def test_the_byte_cap_gives_way_to_the_memo(self, monkeypatch, witness_passes):
        # The pass may hold _MAX_STATES * 33 bytes, at 33 + 4n bytes a state.
        a = _coin19()

        def solve():
            res = solve_lop(a)
            return res.ranking, res.stats.nodes, res.stats.pruned, res.proven

        expected = solve()
        states = sum(layer.size for layer in witness_passes[-1].layers)
        bytes_per_state = 33 + 4 * a.n
        cap = -(-states * bytes_per_state // 33)
        monkeypatch.setattr(witness, "_MAX_STATES", cap)
        assert solve() == expected
        descent = witness_passes[-1]
        assert descent.layers and not descent.memo
        # Keys, links and results; past its states, each layer's results
        # hold two entries more.
        held = [*descent.layers, *descent.links, *itertools.chain(*descent.results)]
        assert sum(x.nbytes for x in held) == states * bytes_per_state + 34 * (a.n - 1)
        monkeypatch.setattr(witness, "_MAX_STATES", cap - 1)
        assert solve() == expected
        descent = witness_passes[-1]
        assert descent.layers == [] and descent.links == [] and descent.memo

    def test_traced_peak_at_the_cap_stays_near_the_cap(self, monkeypatch):
        a = _coin19()
        search, _, timed_out = lop._value_search(a, None)
        assert not timed_out
        nodes, pruned = search.nodes, search.pruned
        cap = -(-68_315 * (33 + 4 * a.n) // 33)
        monkeypatch.setattr(witness, "_MAX_STATES", cap)
        tracemalloc.start()
        try:
            order = search.lex_min_witness(search.best_val)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert order is not None and search.nodes > nodes and search.pruned > pruned
        # 7.45 MB held at the cap; the work arrays and merges add about 5%.
        assert peak < 1.1 * cap * 33

    def test_a_deadline_inside_the_backward_pass_leaves_the_witness_unproven(
        self, monkeypatch, witness_passes
    ):
        a = WeightMatrix(_hidden_order_tournament(np.random.default_rng(0), 19))
        expected = solve_lop(a)
        limit = 10.0
        offset = [0.0]
        monkeypatch.setattr(
            lop, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + offset[0])
        )
        real_backward = witness.WitnessLayers._backward

        def backward(self):
            offset[0] = 2 * limit
            return real_backward(self)

        monkeypatch.setattr(witness.WitnessLayers, "_backward", backward)
        res = solve_lop(a, SolverConfig(time_limit=limit))
        assert not res.proven
        assert res.optimal_value == expected.optimal_value
        assert objective_value(a, res.ranking) == res.optimal_value
        # The forward pass finished; the backward pass stopped at its first
        # deadline check, and the memo did not start.
        descent = witness_passes[-1]
        assert descent.layers and descent.links
        assert descent.results == [] and not descent.memo


def _tiered(n: int, seed, upsets: float = 0.0) -> np.ndarray:
    """Items in three tiers: 2 against a lower tier, 1 against the own tier.

    Without upsets every order of the tiers from the top down is optimal,
    so many prefixes tie at the optimum. Each pair is upset, its two
    weights swapped, with probability upsets.
    """
    rng = np.random.default_rng(seed)
    tier = rng.integers(0, 3, n)
    w = np.where(tier[:, None] > tier[None, :], 2.0, 1.0)
    np.fill_diagonal(w, 0.0)
    if upsets:
        upset = np.triu(rng.random((n, n)) < upsets, 1)
        upset |= upset.T
        w = np.where(upset, w.T, w)
    return w


def _forced_memo_result(a: WeightMatrix):
    """solve_lop's ranking, nodes, pruned and proven, forced onto the memo route."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(witness, "_STATES_PER_NODE", 0)
        res = solve_lop(a)
    return res.ranking, res.stats.nodes, res.stats.pruned, res.proven


class TestNarrowWitnessPasses:
    """Past its budget the witness pass gives way to the depth-first search
    memoized on its states, which holds only the states it visits, with the
    same witness, nodes and pruned.
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
        assert witness.layers == []
        assert 0 < len(witness.memo) < n * n
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
        ranking, nodes, pruned, proven = _forced_memo_result(a)
        assert proven
        # The pass stopped at its budget and the memo answered.
        (descent,) = witness_passes
        assert descent.layers == [] and descent.memo
        plain = _solve_with_witness_oracle(monkeypatch, a)
        assert (ranking, nodes, pruned) == (
            plain.ranking,
            plain.stats.nodes,
            plain.stats.pruned,
        )

    @pytest.mark.parametrize("family", ["integer", "halves", "float", "tenths"])
    def test_both_routes_agree_on_seeded_matrices(self, monkeypatch, family):
        monkeypatch.setattr(lop, "_TABLE_MAX_N", 0)
        rng = np.random.default_rng(23)
        for _ in range(12):
            n = int(rng.integers(4, 12))
            w = {
                "integer": lambda: _random_weights(rng, n, integral=True),
                "halves": lambda: _tournament_with_ties(rng, n, 2),
                "float": lambda: _random_weights(rng, n, integral=False),
                "tenths": lambda: _scaled_weights(
                    "tenths", n, 1.0, int(rng.integers(2**32))
                ),
            }[family]()
            assert lop._exact_sums(WeightMatrix(w)) == (family in ("integer", "halves"))
            res = solve_lop(WeightMatrix(w))
            assert res.proven
            assert _forced_memo_result(WeightMatrix(w)) == (
                res.ranking,
                res.stats.nodes,
                res.stats.pruned,
                res.proven,
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

    def test_the_memo_over_its_entry_cap_leaves_the_witness_unproven(
        self, monkeypatch, witness_passes
    ):
        a = WeightMatrix(_hidden_order_tournament(np.random.default_rng(0), 19))
        expected = solve_lop(a)
        forced = _forced_memo_result(a)
        states = len(witness_passes[-1].memo)
        monkeypatch.setattr(witness, "_STATES_PER_NODE", 0)
        # The memo may hold _MAX_STATES >> 3 states.
        monkeypatch.setattr(witness, "_MAX_STATES", states << 3)
        assert _forced_memo_result(a) == forced
        monkeypatch.setattr(witness, "_MAX_STATES", (states - 1) << 3)
        res = solve_lop(a)
        assert not res.proven
        assert len(witness_passes[-1].memo) == states - 1
        assert res.optimal_value == expected.optimal_value
        assert objective_value(a, res.ranking) == res.optimal_value

    def test_a_deadline_inside_the_memo_leaves_the_witness_unproven(
        self, monkeypatch, witness_passes
    ):
        a = WeightMatrix(_hidden_order_tournament(np.random.default_rng(0), 19))
        expected = solve_lop(a)
        monkeypatch.setattr(witness, "_STATES_PER_NODE", 0)
        limit = 10.0
        offset = [0.0]
        monkeypatch.setattr(
            lop, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + offset[0])
        )
        real_exists = witness.WitnessLayers._exists

        def exists(self, rem, g):
            if len(self.memo) >= 512:
                offset[0] = 2 * limit
            return real_exists(self, rem, g)

        monkeypatch.setattr(witness.WitnessLayers, "_exists", exists)
        res = solve_lop(a, SolverConfig(time_limit=limit))
        assert not res.proven
        # The memo read the clock at 0 states and stopped at 1024.
        assert len(witness_passes[-1].memo) == 1024
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
    lex-min witness with the nodes and pruned it adds; and every optimum
    from the walk, 0-based, with truncated. exact picks the value search's
    state form.
    """
    heur = [v - 1 for v in heuristic_ranking(a).order]
    search = lop._Search(a)
    search.exact = exact
    assert not search.run_value(heur, order_value_loop(search.w, heur))
    value = (search.best_val, search.best_order, search.nodes, search.pruned)
    nodes, pruned = search.nodes, search.pruned
    witness = search.lex_min_witness(search.best_val)
    witness = (witness, search.nodes - nodes, search.pruned - pruned)
    orders, truncated = lop._optimal_orders(a, value[0], cap, None)
    optima = [tuple(order) for order in (orders - 1).tolist()], truncated
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


def _value_runs(w: np.ndarray, start: list[int] | None = None):
    """run_value and the depth-first value search from one incumbent.

    start is the incumbent's 0-based order, the heuristic's by default;
    each side returns (best_val, best_order, nodes, pruned, timed_out).
    """
    a = WeightMatrix(w)
    if start is None:
        start = [v - 1 for v in heuristic_ranking(a).order]
    runs = []
    for run in (lop._Search.run_value, value_search_loop):
        search = lop._Search(WeightMatrix(w))
        assert search.exact
        timed_out = run(search, start, order_value_loop(search.w, start))
        runs.append(
            (search.best_val, search.best_order, search.nodes, search.pruned, timed_out)
        )
    return runs


class TestValuePasses:
    """With exact sums run_value's layered passes (rankability.value) are
    the depth-first value search with its memo (tests/oracles.py::
    value_search_loop): the same best value and order, nodes and pruned.
    """

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "family", ["integer", "halves", "equal", "tiered", "hidden"]
    )
    def test_seeded_matrices(self, family, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 15))
        w = {
            "integer": lambda: _random_weights(rng, n, integral=True),
            "halves": lambda: _tournament_with_ties(rng, n, 3),
            "equal": lambda: _every_weight_equal(n),
            "tiered": lambda: _tiered(n, seed),
            "hidden": lambda: _hidden_order_tournament(rng, n),
        }[family]()
        # The heuristic's incumbent, then a random order's, which the
        # search improves on several times where orders differ in value.
        passes, loop = _value_runs(w)
        assert passes == loop
        passes, loop = _value_runs(w, rng.permutation(n).tolist())
        assert passes == loop
        assert not passes[-1]

    @pytest.mark.parametrize("name", ["coin19", "hidden20", "tournament18"])
    def test_data_files(self, name):
        # coin19's incumbent (126) is one below k* = 127, so a second pass
        # runs after the first finds the improving leaf.
        passes, loop = _value_runs(read_matrix_csv(DATA_DIR / f"{name}.csv").weights)
        assert passes == loop

    def test_the_first_pass_finds_every_improvement(self, monkeypatch):
        w = _random_weights(np.random.default_rng(5), 12, integral=True)
        found = []
        real = value._Passes.run

        def run(self):
            new = real(self)
            found.append(list(self.leaves))
            return new

        monkeypatch.setattr(value._Passes, "run", run)
        (best_val, best_order, *_), loop = _value_runs(w, list(range(12)))
        # The second pass only counts the search's nodes and pruned.
        first, second = found
        assert len(first) > 2 and second == first
        values = [leaf_value for leaf_value, _ in first]
        assert values == sorted(set(values))
        assert first[-1] == (best_val, best_order) == tuple(loop[:2])

    @staticmethod
    def _clocked_search(monkeypatch, a: WeightMatrix, limit: float):
        """A search under a clock that moves only when the test moves it."""
        clock = [0.0]
        monkeypatch.setattr(lop, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        return lop._Search(a, lop._deadline(SolverConfig(time_limit=limit))), clock

    def test_a_past_deadline_stops_before_the_first_layer(self, monkeypatch):
        a = read_matrix_csv(DATA_DIR / "coin19.csv")
        search, clock = self._clocked_search(monkeypatch, a, 10.0)
        start = [v - 1 for v in heuristic_ranking(a).order]
        start_value = order_value_loop(search.w, start)
        clock[0] = 10.5
        assert search.run_value(start, start_value)
        assert (search.best_val, search.best_order) == (start_value, start)
        assert (search.nodes, search.pruned) == (0, 0)

    def test_a_deadline_between_passes_keeps_the_improvements(self, monkeypatch):
        w = _random_weights(np.random.default_rng(5), 12, integral=True)
        start = list(range(12))
        search, clock = self._clocked_search(monkeypatch, WeightMatrix(w), 10.0)
        real = value._Passes.run

        def run(self):
            new = real(self)
            clock[0] = 10.5
            return new

        monkeypatch.setattr(value._Passes, "run", run)
        start_value = order_value_loop(search.w, start)
        assert search.run_value(start, start_value)
        # The first pass found every improvement, up to k*; the second
        # stopped at its first deadline check.
        assert search.best_val > start_value
        assert search.best_val == lop._proven_value(WeightMatrix(w), None)
        assert order_value_loop(search.w, search.best_order) == search.best_val

    def test_a_layer_over_the_state_cap_stops_the_search(self, monkeypatch):
        a = read_matrix_csv(DATA_DIR / "coin19.csv")
        monkeypatch.setattr(value, "_MAX_STATES", 1000)
        res = solve_lop(a)
        assert not res.proven
        assert res.optimal_value == res.stats.heuristic_value
        assert objective_value(a, res.ranking) == res.optimal_value


class TestItemLimit:
    """Above lop._MAX_ITEMS the exact searches refuse a matrix before they
    allocate its split row sums."""

    def test_the_limit_is_exact(self, monkeypatch):
        w = _hidden_order_tournament(np.random.default_rng(0), 12)
        monkeypatch.setattr(lop, "_MAX_ITEMS", 12)
        assert solve_lop(WeightMatrix(w)).proven
        monkeypatch.setattr(lop, "_MAX_ITEMS", 11)
        with pytest.raises(TooManyItemsError, match="at most 11 items, got n=12"):
            solve_lop(WeightMatrix(w))

    def test_64_items_are_refused(self):
        # The split row sums would take 64 * 2^32 doubles a half; asking
        # for them once raised a bare MemoryError.
        n = 64
        a = WeightMatrix(np.triu(np.ones((n, n)), 1))
        for call in (solve_lop, enumerate_optima, degree_of_linearity):
            with pytest.raises(TooManyItemsError, match="got n=64"):
                call(a)


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

    @pytest.mark.parametrize(
        "family, scale",
        [
            ("uniform", 1e-6),
            ("uniform", 1.0),
            ("uniform", 1e6),
            ("noisy-integer", 1.0),
            ("noisy-integer", 1e3),
            ("tenths", 1e-3),
            ("tenths", 1.0),
        ],
    )
    def test_results_equal_those_with_the_scalar_recurrence_table(self, family, scale):
        # Without exact sums the table's last bits differ from the scalar
        # recurrence's; its readers compare within the slack, so the value,
        # ranking, stats, optima and kappa pair come out the same.
        cfg = SolverConfig(enumeration_cap=2000)
        for n, seed in itertools.product(range(3, 12), range(2)):
            w = _scaled_weights(family, n, scale, 100 * seed + n)
            results = []
            for recurrence in (False, True):
                a = WeightMatrix(w)
                assert not lop._exact_sums(a)
                if recurrence:
                    completion = lop._completion(a, None)
                    a._completion = completion._replace(table=completion_table_loop(w))
                found = solve_lop(a)
                results.append((
                    found.optimal_value,
                    found.ranking,
                    found.proven,
                    found.stats.nodes,
                    found.stats.pruned,
                    enumerate_optima(a, cfg),
                    solve_kt(a, found.optimal_value, cfg),
                ))
            assert results[0] == results[1]

    def test_slack_is_finite_where_total_times_n_squared_overflows(self):
        a = WeightMatrix(np.array([[0.0, 4e307], [4e307, 0.0]]))
        assert a.total_sum() * a.n * a.n == math.inf
        assert lop._slack(a) == a.total_sum() * 2.0**-40 * a.n * a.n
        assert math.isfinite(lop._slack(a))

    @pytest.mark.parametrize("n, total", [(2, 8e307), (3, 1e300), (6, 1e300), (8, 8.98e307)])
    def test_results_at_the_largest_scales_equal_those_at_scale_one(self, n, total):
        # Up to the largest total WeightMatrix takes, ties and orders are
        # decided as at scale one.
        cfg = SolverConfig(enumeration_cap=2000)
        w = _scaled_weights("noisy-integer", n, 1.0, n)
        results = []
        for scale in (1.0, total / w.sum()):
            a = WeightMatrix(w * scale)
            found = solve_lop(a)
            kt = solve_kt(a, found.optimal_value, cfg)
            results.append((
                found.ranking,
                found.proven,
                enumerate_optima(a, cfg),
                kt.kappa,
                kt.proven,
                kt.pair,
            ))
        assert results[0] == results[1]

    def test_slack_is_zero_for_exact_sums_and_scales_otherwise(self, college_matrix):
        assert lop._slack(college_matrix) == 0.0
        w = _scaled_weights("uniform", 6, 1.0, 0)
        small, large = WeightMatrix(w * 2.0**-30), WeightMatrix(w * 2.0**30)
        assert 0.0 < lop._slack(small) < 1e-6 * small.total_sum()
        assert lop._slack(large) == 2.0**60 * lop._slack(small)
