"""Tests for the exact linear ordering solver."""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rankability.core import (
    WeightMatrix,
    objective_value,
    ranking_from_order,
    read_matrix_csv,
    reverse_ranking,
    write_matrix_csv,
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
    completion_table_split_loop,
    enumerate_leaves_loop,
    expanded_lexsort,
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

    # n = 27 and 28 are league sizes; 40 and 41 lie on either side of
    # lop._MAX_ITEMS, which the heuristic does not enforce, and 60 past
    # every size the exact searches take.
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
        restarts=st.sampled_from((0, lop._HEURISTIC_RESTARTS)),
    )
    @example(n=27, seed=1, restarts=lop._HEURISTIC_RESTARTS)
    @example(n=28, seed=1, restarts=lop._HEURISTIC_RESTARTS)
    @example(n=40, seed=1, restarts=lop._HEURISTIC_RESTARTS)
    @example(n=41, seed=1, restarts=lop._HEURISTIC_RESTARTS)
    @example(n=60, seed=1, restarts=lop._HEURISTIC_RESTARTS)
    def test_batched_passes_match_the_loops_on_half_integral_weights(
        self, n, seed, restarts
    ):
        w = random_half_integer_matrix(np.random.default_rng(seed), n).weights
        _assert_heuristic_matches_loops(w, restarts)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(("uniform", "noisy-integer", "tenths")),
        n=st.integers(2, 30),
        exponent=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        restarts=st.sampled_from((0, lop._HEURISTIC_RESTARTS)),
    )
    @example(family="uniform", n=27, exponent=0, seed=2, restarts=16)
    @example(family="tenths", n=28, exponent=9, seed=5, restarts=16)
    @example(family="uniform", n=40, exponent=0, seed=2, restarts=16)
    @example(family="uniform", n=41, exponent=0, seed=2, restarts=16)
    @example(family="noisy-integer", n=40, exponent=6, seed=3, restarts=16)
    @example(family="tenths", n=41, exponent=12, seed=4, restarts=16)
    def test_batched_passes_match_the_loops_at_every_weight_scale(
        self, family, n, exponent, seed, restarts
    ):
        _assert_heuristic_matches_loops(
            _scaled_weights(family, n, 10.0**exponent, seed), restarts
        )

    @pytest.mark.parametrize("restarts", [0, lop._HEURISTIC_RESTARTS])
    @pytest.mark.parametrize("weight", [0.0, 1.0, 0.1])
    @pytest.mark.parametrize("n", [2, 7, 20, 22, 23, 27, 28, 40, 41])
    def test_batched_passes_match_the_loops_on_constant_weights(
        self, n, weight, restarts
    ):
        # Every order of an all-equal matrix ties; the all-zero matrix has
        # nothing to gain, so no item ever moves.
        w = np.full((n, n), weight)
        np.fill_diagonal(w, 0.0)
        _assert_heuristic_matches_loops(w, restarts)

    @pytest.mark.parametrize(
        "n, count, seed", [(2, 1, 2), (9, 3, 9), (22, 17, 22), (23, 4, 16), (41, 3, 16)]
    )
    def test_step_sums_are_the_loops_sums_bit_for_bit(self, n, count, seed):
        # Float sums: weights of 17 orders of magnitude make a fold in any
        # other order than the scalar loop's round differently.
        rng = np.random.default_rng(seed)
        w = rng.random((n, n)) * 10.0 ** rng.integers(-8, 9, (n, n))
        np.fill_diagonal(w, 0.0)
        a = WeightMatrix(w)
        assert not lop._core(a).exact
        _assert_step_sums_are_the_loops(a, rng, count)

    @pytest.mark.parametrize(
        "n, count, seed", [(2, 1, 2), (9, 3, 9), (22, 17, 22), (23, 4, 16), (41, 3, 16)]
    )
    def test_exact_step_sums_are_the_loops_sums_bit_for_bit(self, n, count, seed):
        # Exact sums: halves with -0.0 entries, the diagonal among them,
        # and a total near 2^50, below the exact route's bound of 2^51.
        rng = np.random.default_rng(seed)
        w = rng.integers(0, 2**52 // (n * (n - 1)), (n, n)) / 2.0
        w[rng.random((n, n)) < 0.2] = -0.0
        np.fill_diagonal(w, -0.0)
        a = WeightMatrix(w)
        assert lop._core(a).exact and a.total_sum() > 2.0**48
        _assert_step_sums_are_the_loops(a, rng, count)

    @pytest.mark.parametrize("weight", [1.0, 0.1])
    def test_a_start_with_no_mover_left_ends_in_that_step(self, monkeypatch, weight):
        # The transitive tournament 0 > 1 > ... > 4 from 0 1 3 2 4: the only
        # mover is item 3, mid-pass, which moves below 2. The next step reads
        # the rest of that pass and the positions before the move, which the
        # next pass would read first; none moves, so the search ends there,
        # in 2 steps, without a third that reads the same order again. A
        # weight of 0.1 takes the float route, 1.0 the exact one.
        n = 5
        w = np.triu(np.full((n, n), weight), 1)
        a = WeightMatrix(w)
        assert lop._core(a).exact == (weight == 1.0)
        steps = []
        real = lop._step_gains
        monkeypatch.setattr(
            lop, "_step_gains", lambda *args: steps.append(1) or real(*args)
        )
        orders = np.array([[0, 1, 3, 2, 4]])
        lop._local_search_batch(lop._pass_rows(a), orders, lop._slack(a))
        assert orders.tolist() == [[0, 1, 2, 3, 4]]
        assert len(steps) == 2

    @pytest.mark.parametrize("restarts", [0, lop._HEURISTIC_RESTARTS])
    def test_random_starts_are_the_seeded_draws(self, restarts):
        for n in range(2, 61):
            rng = np.random.default_rng(lop._HEURISTIC_SEED)
            expected = [rng.permutation(n) for _ in range(restarts)]
            starts = lop._random_starts(n, restarts)
            assert starts.shape == (restarts, n) and starts.dtype == np.int64
            assert np.array_equal(starts, np.reshape(expected, (restarts, n)))
            assert not starts.flags.writeable

    def test_random_starts_follow_the_restarts_at_call_time(self, monkeypatch):
        # The starts are cached per (n, restarts), so a count patched after
        # an earlier call with another count must still be read.
        a = random_half_integer_matrix(np.random.default_rng(4), 9)
        seen = []
        real = lop._greedy_batch
        monkeypatch.setattr(
            lop,
            "_greedy_batch",
            lambda rows, items: seen.append(items) or real(rows, items),
        )
        for restarts in (3, lop._HEURISTIC_RESTARTS, 0, 3):
            monkeypatch.setattr(lop, "_HEURISTIC_RESTARTS", restarts)
            heuristic_ranking(a)
            starts = seen.pop()
            assert not seen and len(starts) == 1 + restarts
            assert np.array_equal(starts[1:], lop._random_starts(a.n, restarts))

    def test_traced_peak_stays_within_the_chunk_bytes_at_n_200(self):
        # At n = 200 the 17 starts run in 9 chunks of at most 2. Outside the
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


def _assert_step_sums_are_the_loops(
    a: WeightMatrix, rng: np.random.Generator, count: int
) -> None:
    """Each position's gains and current gain in one step are the scalar loop's sums.

    One step reads every position of count random orders in place
    (lop._step_gains). A gain or current gain must have the bits of the
    loop's sum, and with exact sums each position's own entry must be its
    current gain.
    """
    n = a.n
    rows = lop._pass_rows(a)
    orders = np.array([rng.permutation(n) for _ in range(count)])
    w = a.weights.tolist()
    gains, current = lop._step_gains(rows, orders)
    assert gains.shape == (n + 1, count, n)
    assert current.shape == (count, n)
    for r, order in enumerate(orders.tolist()):
        for i, v in enumerate(order):
            rest = order[:i] + order[i + 1 :]
            cur = lop._fold(w[u][v] for u in order[:i]) + lop._fold(
                w[v][u] for u in order[i + 1 :]
            )
            delta = lop._fold(w[v][u] for u in rest)
            loop = [delta]
            for u in rest:
                delta += w[u][v] - w[v][u]
                loop.append(delta)
            # The step also reads v's own position, adding 0.0 there.
            loop.insert(i + 1, loop[i])
            # Adding 0.0 only turns -0.0 into 0.0, so compare x + 0.0.
            assert (current[r, i] + 0.0).hex() == (cur + 0.0).hex()
            assert [(x + 0.0).hex() for x in gains[:, r, i].tolist()] == [
                (x + 0.0).hex() for x in loop
            ]
            if rows.d is not None:
                assert current[r, i] == gains[i, r, i]


def _assert_heuristic_matches_loops(w: np.ndarray, restarts: int) -> None:
    """heuristic_ranking equals the scalar loops' ranking, its value their bits.

    The value is the one _heuristic gives _value_search, for the branch and
    bound and to report as heuristic_value.
    """
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lop, "_HEURISTIC_RESTARTS", restarts)
        a = WeightMatrix(w)
        ranking = heuristic_ranking(a)
        assert ranking == heuristic_ranking_loop(a)
        order, value = lop._heuristic(a)
    assert order == [v - 1 for v in ranking.order]
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
        # One prefix per chunk. The table is built, so completion reads the
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

    @pytest.mark.parametrize("table_free", [False, True], ids=["table", "drop_rows"])
    def test_one_row_chunks_equal_the_loop(self, table_free, monkeypatch):
        # The layer kernel's least chunk, one prefix, on both routes.
        monkeypatch.setattr(lop, "_WALK_CHUNK_BYTES", 1)
        rng = np.random.default_rng(67)
        for family in ("integer", "tenths", "equal") * 3:
            n = int(rng.integers(3, 8))
            if family == "equal":
                w = _every_weight_equal(n)
            else:
                w = rng.integers(0, 4, (n, n)) * (0.1 if family == "tenths" else 1.0)
                np.fill_diagonal(w, 0.0)
            for cap in (1, 5, 10**6):
                walk, loop = _walk_and_loop(w, cap, table_free)
                assert walk == loop

    @pytest.mark.parametrize("table_free", [False, True], ids=["table", "drop_rows"])
    def test_a_deadline_after_the_first_chunk_of_leaves_keeps_its_orders(
        self, table_free, monkeypatch
    ):
        # Every order of 6 items is optimal. Chunks of 360 prefixes put each
        # depth up to 4 in one chunk and the 720 prefixes of depth 5 in two,
        # so the walk reads the clock once per depth before the first chunk
        # of leaves, and once more, past the deadline, after it; the table,
        # built already, reads it once before the walk.
        n = 6
        a = WeightMatrix(_every_weight_equal(n))
        k_star = lop._proven_value(a, None)
        full, _ = lop._optimal_orders(a, k_star, 10**6, None)
        monkeypatch.setattr(lop, "_WALK_CHUNK_BYTES", 360 * lop._WALK_ARRAYS * 8 * n)
        if table_free:
            monkeypatch.setattr(lop, "_TABLE_MAX_N", 0)
        reads = n + (0 if table_free else 1)
        clock = itertools.chain([0.0] * reads, itertools.repeat(np.inf))
        monkeypatch.setattr(lop, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        orders, truncated = lop._optimal_orders(a, k_star, 10**6, 1.0)
        assert truncated
        assert orders.tolist() == full[:360].tolist()

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

    def counting(drops, deadline, narrow):
        builds.append(len(drops.items))
        return real(drops, deadline, narrow)

    monkeypatch.setattr(lop, "_build_completion_table", counting)
    return builds


def _narrow(w: np.ndarray) -> bool:
    """Whether the core builds w's completion table in int16."""
    return lop._core(WeightMatrix(w)).narrow


def _drops(w: np.ndarray) -> np.ndarray:
    """The drop rows w - max(w, w.T), the matrix the completion table sums over."""
    return w - np.maximum(w, w.T)


def _entries(table, unit: float) -> np.ndarray:
    """A completion table's entries in drop-sum units, each stored entry times unit."""
    return np.frombuffer(table, table.typecode) * unit


def _table(w: np.ndarray, narrow: bool, deadline: float | None = None) -> np.ndarray:
    """w's completion table, built on its drop rows, in int16 when narrow.

    Read in drop-sum units: the int16 route stores each entry doubled.
    """
    table = lop._build_completion_table(lop._split_row_sums(_drops(w)), deadline, narrow)
    return _entries(table, 0.5 if narrow else 1.0)


def _pair_maxima(w: np.ndarray) -> np.ndarray:
    """M[S]: the sum of max(w[i, j], w[j, i]) over the pairs inside each set S.

    A set whose highest item is v holds the pairs of the set without v and
    v's pairs with the items below it. An exact table plus M is the table
    of best objectives (tests/oracles.py::completion_table_loop).
    """
    pair_max = np.maximum(w, w.T)
    m = np.zeros(1)
    for v in range(w.shape[0]):
        below = (np.arange(m.size)[:, None] >> np.arange(v)) & 1
        m = np.concatenate([m, m + (below * pair_max[v, :v]).sum(axis=1)])
    return m


def _same_bits(table, expected) -> bool:
    """Whether two tables are equal bit for bit, compared as int64."""
    return np.array_equal(
        np.frombuffer(table, dtype=np.int64), np.frombuffer(expected, dtype=np.int64)
    )


class TestCompletionTable:
    @pytest.mark.parametrize("integral", [True, False])
    def test_every_entry_is_the_best_ordering_of_its_set(self, integral):
        rng = np.random.default_rng(31 if integral else 37)
        for n in (2, 3, 5, 6, 7, 8):
            w = _random_weights(rng, n, integral)
            assert _narrow(w) == integral
            table = _table(w, integral)
            assert len(table) == 1 << n
            # Each entry is the best objective less the pair maxima inside the set.
            objectives = np.add(table, _pair_maxima(w))
            for s in range(1 << n):
                items = [v for v in range(n) if s >> v & 1]
                _, values = all_objectives(w[np.ix_(items, items)])
                best = float(values.max())
                if integral:
                    assert objectives[s] == best
                else:
                    assert objectives[s] == pytest.approx(best, rel=1e-12, abs=1e-12)

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
            # The core builds these in int16; the float64 route gives the
            # same bits.
            assert n == 1 or _narrow(w)
            for narrow in (True, False):
                objectives = np.add(_table(w, narrow), _pair_maxima(w))
                assert np.array_equal(objectives, completion_table_loop(w))

    @pytest.mark.parametrize("n", range(13, 19))
    def test_exact_build_equals_the_layered_build(self, n):
        # Above n = 12 the scalar recurrence takes too long; the layered
        # build equals it bit for bit, so it stands in.
        rng = np.random.default_rng(59 + n)
        matrices = [_tournament_with_ties(rng, n, games) for games in (1, 4)]
        matrices.append(_hidden_order_games(rng, n))
        for w in matrices:
            assert lop._exact_sums(WeightMatrix(w))
            assert _narrow(w)
            for narrow in (True, False):
                objectives = np.add(_table(w, narrow), _pair_maxima(w))
                assert np.array_equal(objectives, completion_table_by_layers(w))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_fractional_build_equals_the_split_recurrence(self, n):
        # Sums that are not exact keep the bits of their order of addition:
        # the build adds each split row sum's halves, then table[rest], as
        # the scalar recurrence over the same split drop rows does. Compared
        # as int64 so that every bit counts.
        rng = np.random.default_rng(71 + n)
        for _ in range(3):
            w = _random_weights(rng, n, integral=False)
            assert n == 1 or not lop._exact_sums(WeightMatrix(w))
            assert _same_bits(_table(w, False), completion_table_split_loop(_drops(w)))

    @pytest.mark.parametrize("n", [2, 4, 9, 11, 12, 13, 14, 15, 16])
    def test_fractional_build_is_within_the_slack_of_the_references(self, n):
        # The build adds split drop row sums, the references row sums of w
        # over all n items, so the last bits may differ; every reader of
        # the table compares its entries within _slack. Up to n = 11 the
        # reference is the scalar recurrence, above it the layered build.
        w = _random_weights(np.random.default_rng(61 + n), n, integral=False)
        a = WeightMatrix(w)
        assert not lop._exact_sums(a)
        reference = completion_table_loop(w) if n <= 11 else completion_table_by_layers(w)
        objectives = np.add(_table(w, False), _pair_maxima(w))
        assert np.max(np.abs(objectives - reference)) <= lop._slack(a)

    @pytest.mark.parametrize(
        "integral, scale", [(True, 1.0), (False, 1.0), (True, 2500.0)],
        ids=["True", "False", "wide"],
    )
    def test_deadline_stops_the_build_at_the_next_grid_step(
        self, integral, scale, monkeypatch
    ):
        # At n = 14 the grid is 2^7 x 2^7: each of its 8 row layers takes a
        # high-item step and 7 low-layer steps, and each step reads the
        # clock once before it starts. At n = 17 the grid is 2^9 x 2^8, 10
        # row layers of a high-item step and 8 low-layer steps, and the
        # steps take their members and sizes of A in groups. So on all
        # three routes: exact sums in int16, float sums, and exact sums
        # whose total is too large for int16 ("wide"), in float64.
        for n in (14, 17):
            h = n // 2
            layers = n - h + 1
            steps = layers + layers * h
            rng = np.random.default_rng(67)
            if integral:
                w = _tournament_with_ties(rng, n, 1) * scale
            else:
                w = _random_weights(rng, n, integral=False)
            assert lop._exact_sums(WeightMatrix(w)) == integral
            narrow = _narrow(w)
            assert narrow == (integral and scale == 1.0)
            for passed_after in (0, 1, h + 1, h + 2, steps // 2, steps - 1, None):
                reads = []

                def monotonic():
                    reads.append(None)
                    return 0.0 if passed_after is None or len(reads) <= passed_after else 2.0

                monkeypatch.setattr(lop, "time", SimpleNamespace(monotonic=monotonic))
                if passed_after is None:
                    _table(w, narrow, 1.0)
                    assert len(reads) == steps, n
                else:
                    # The deadline passes after step passed_after; the check
                    # before the next step raises, and no further step runs.
                    with pytest.raises(lop._Timeout):
                        _table(w, narrow, 1.0)
                    assert len(reads) == passed_after + 1, n

    @pytest.mark.parametrize("integral", [True, False])
    def test_build_traces_at_most_64_bytes_per_set(self, integral):
        # Every weight type takes the split row sums: no table of row sums
        # over all n items, which alone would take 8 n bytes per set. n = 17
        # splits unevenly, and n = 18 is the table budget. On the float64
        # route each traces about 16.8-19.5 bytes per set: the table's 8 and
        # work arrays of at most a quarter of _WALK_CHUNK_BYTES each, where
        # one of 1 MiB would take it past 24 at n = 16 and 17.
        for n in (16, 17, 18):
            rng = np.random.default_rng(47)
            if integral:
                w = _tournament_with_ties(rng, n, 1)
            else:
                w = _random_weights(rng, n, integral=False)
            assert lop._exact_sums(WeightMatrix(w)) == integral
            peak = _traced_build_peak(w, False)
            assert peak <= 64 << n, n
            assert peak <= 24 << n, n

    def test_narrow_build_traces_at_most_8_bytes_per_set(self):
        # The int16 grid is the table, and it and the work arrays take a
        # quarter of the float64 route's: exact tournaments trace about
        # 4.9-7.8 bytes per set, the float64 route 16.8-19.5.
        for n in (16, 17, 18):
            w = _tournament_with_ties(np.random.default_rng(47), n, 1)
            assert _narrow(w)
            assert _traced_build_peak(w, True) <= 8 << n, n

    @pytest.mark.parametrize(
        "case, narrow",
        [("at the limit", True), ("half above it", False), ("all zero", True)],
    )
    def test_the_core_builds_in_int16_while_twice_the_total_fits(
        self, case, narrow, monkeypatch
    ):
        # Twice the total 16383.5 is 32767, the int16 maximum. Item 1 loses
        # every game, so placing it first drops the whole total: doubled,
        # -32767, one above int16's least value, which stands for -inf.
        # Ranked last it agrees with every game, so k* is the total.
        w = np.zeros((4, 4))
        w[1:, 0] = (8000.0, 4000.5, 4383.0)
        if case == "half above it":
            w[3, 0] += 0.5
        elif case == "all zero":
            w[:] = 0.0
        a = WeightMatrix(w)
        assert lop._exact_sums(a)
        routes = []
        real = lop._build_completion_table

        def recording(drops, deadline, narrow):
            routes.append(narrow)
            return real(drops, deadline, narrow)

        monkeypatch.setattr(lop, "_build_completion_table", recording)
        core = lop._core(a)
        table = _entries(core.completion(None), core.unit)
        assert routes == [narrow]
        assert np.array_equal(np.add(table, _pair_maxima(w)), completion_table_loop(w))
        assert core.root + table[-1] == a.total_sum()
        if case == "half above it":
            # Doubled, that first placement drops 32768, int16's least value
            # itself; 1/2 more would wrap to 32767 in int16, a sum that then
            # wins the full set's maximum.
            w[3, 0] += 0.5
            wrapped = real(lop._split_row_sums(_drops(w)), None, True)
            assert _entries(wrapped, 0.5)[-1] > 0.0 == _table(w, False)[-1]

    def test_one_item_builds_alike_on_both_routes(self):
        # WeightMatrix takes at least two items, so no core picks a route
        # for one; its table, [0, 0], comes out of both.
        w = np.zeros((1, 1))
        for narrow in (True, False):
            assert _same_bits(_table(w, narrow), completion_table_loop(w))

    @pytest.mark.parametrize("n", [4, 5, 8, 11, 14, 17])
    def test_drop_sums_of_minus_a_half_build_alike_on_both_routes(self, n):
        # Pairs whose weights differ by 1/2 drop -1 doubled, an entry the
        # int16 route must keep apart from its least value, which stands for
        # -inf; the float64 route gives the same bits, and up to n = 11 the
        # split recurrence does too.
        for seed in range(3):
            w = _halves_tournament(np.random.default_rng(seed), n)
            assert _narrow(w) and (_drops(w) == -0.5).any()
            table = _table(w, True)
            assert _same_bits(table, _table(w, False))
            if n <= 11:
                assert _same_bits(table, completion_table_split_loop(_drops(w)))


def _traced_build_peak(w: np.ndarray, narrow: bool) -> int:
    """Bytes the build's traced heap peaks at above where it started.

    The drop rows, which the core keeps, are built before the trace.
    """
    drops = lop._split_row_sums(_drops(w))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        lop._build_completion_table(drops, None, narrow)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


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


    @pytest.mark.parametrize("n", [2, 3, 8, 11])
    def test_signed_zero_weights_give_the_sums_without_v(self, n):
        # WeightMatrix takes -0.0 weights and a -0.0 diagonal. Every partial
        # sum starts from +0.0 and adds terms of one sign, so none is -0.0,
        # and adding w[v, v], +0.0 or -0.0, changes no bit: at a set with v,
        # v's own-half row holds the sum over the set, which has the bits of
        # the sum over the set without v. Checked against sums that skip v,
        # on the weights and on their drop rows, and through the table on
        # the int16 and float64 routes.
        rng = np.random.default_rng(97 + n)
        for scale in (2.0, 10.0):
            w = rng.integers(0, 4, size=(n, n)) / scale
            w[rng.random((n, n)) < 0.3] = -0.0
            np.fill_diagonal(w, -0.0)
            a = WeightMatrix(w)
            assert np.signbit(a.weights.diagonal()).all()
            for rows in (a.weights, a.weights - np.maximum(a.weights, a.weights.T)):
                split = lop._split_row_sums(rows)
                lo, hi = _split_reference(rows)
                assert np.frombuffer(split.lo).tobytes() == lo.tobytes()
                assert np.frombuffer(split.hi).tobytes() == hi.tobytes()
            routes = [True, False] if scale == 2.0 else [False]
            assert _narrow(a.weights) == (scale == 2.0)
            for narrow in routes:
                table = _table(a.weights, narrow)
                assert _same_bits(table, completion_table_split_loop(_drops(a.weights)))


def _split_reference(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lo and hi of lop._split_row_sums(rows), one set at a time.

    Each sum adds rows[v, u] over the set's items u other than v, from the
    highest down, as _row_sums does; -inf in v's own half at a set without v.
    """
    n = rows.shape[0]
    halves = []
    for first, k in ((0, n // 2), (n // 2, n - n // 2)):
        half = np.empty((n, 1 << k))
        for v in range(n):
            for s in range(1 << k):
                items = [first + u for u in range(k) if s >> u & 1]
                total = 0.0
                for u in reversed(items):
                    if u != v:
                        total += float(rows[v, u])
                own = first <= v < first + k
                half[v, s] = -np.inf if own and v not in items else total
        halves.append(half)
    return halves[0], halves[1]


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
            ["kappa", "--cap", "1"],
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

    Heuristic incumbents (_heuristic), value proofs (run_value),
    canonical witness searches (lex_min_witness), completion table builds
    (_build_completion_table) and enumerations (_optimal_orders, which
    ktdiam calls by its own name).
    """
    calls: dict[str, int] = {}
    for owner, name in (
        (lop, "_heuristic"),
        (lop._Search, "run_value"),
        (lop._Search, "lex_min_witness"),
        (lop, "_build_completion_table"),
        (lop, "_optimal_orders"),
        (ktdiam, "_optimal_orders"),
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
    "_heuristic": 0,
    "run_value": 0,
    "lex_min_witness": 0,
    "_build_completion_table": 1,
    "_optimal_orders": 1,
}


def _search_route(tables: int) -> dict[str, int]:
    """Counts when k* comes from the heuristic and the value branch and bound."""
    return {
        "_heuristic": 1,
        "run_value": 1,
        "lex_min_witness": 0,
        "_build_completion_table": tables,
        "_optimal_orders": 1,
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

    def test_each_structure_is_built_once(self, monkeypatch, capsys):
        # Builds of split row sums (the drop rows) and tests of _exact_sums,
        # per command: each matrix's core makes each once. lop on
        # tournament18 reads the same drop rows in the value passes, the
        # table build and the witness.
        calls = {"_split_row_sums": 0, "_exact_sums": 0}
        for name in calls:
            real = getattr(lop, name)

            def counting(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(lop, name, counting)
        hidden = ["--input", str(DATA_DIR / "hidden20.csv"), "--kind", "matrix"]
        tournament = ["--input", str(DATA_DIR / "tournament18.csv"), "--kind", "matrix"]
        path = DATA_DIR / "multi_season.csv"
        seasons = len(read_games_csv(path))
        # argv, exit code, then the rows and _exact_sums calls expected.
        cases = [
            (["lop", *hidden], 0, 1, 1),
            (["enumerate", *hidden], 0, 1, 1),
            (["kappa", *hidden], 0, 1, 1),
            # The joint search, which a cap of 1 sends the set to, does not
            # finish: exit 2.
            (["kappa", *hidden, "--cap", "1", "--time-limit", "5"], 2, 1, 1),
            (["lop", *tournament], 0, 1, 1),
            (["enumerate", *tournament], 0, 1, 1),
            (["kappa", *tournament], 0, 1, 1),
            (["kappa", *tournament, "--cap", "10"], 0, 1, 1),
            (["season", "--input", str(path)], 0, seasons, seasons),
        ]
        for argv, code, rows, exact in cases:
            for name in calls:
                calls[name] = 0
            got = main(argv)
            capsys.readouterr()
            assert (got, calls) == (code, {"_split_row_sums": rows, "_exact_sums": exact})

    def test_degree_of_linearity_reads_the_table(self, search_calls):
        degree_of_linearity(WeightMatrix(COLLEGE_WEIGHTS))
        assert search_calls == {**_TABLE_ROUTE, "_optimal_orders": 0}
        for name in search_calls:
            search_calls[name] = 0
        degree_of_linearity(_fractional_college())
        assert search_calls == {
            **_search_route(tables=0),
            "_optimal_orders": 0,
        }


@pytest.fixture
def expiring_table_build(monkeypatch):
    """Make every table build run into a deadline that has already passed."""
    real = lop._build_completion_table

    def expired(w, deadline, narrow):
        return real(w, time.monotonic() - 1.0, narrow)

    monkeypatch.setattr(lop, "_build_completion_table", expired)


class TestDeadlineInsideTableBuild:
    def test_lop_reports_unproven_incumbent(self, expiring_table_build):
        a = WeightMatrix(COLLEGE_WEIGHTS)
        res = solve_lop(a)
        assert not res.proven
        assert objective_value(a, res.ranking) == res.optimal_value
        assert a._core.table is None

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


def test_hidden32_is_the_seeded_hidden_order_tournament():
    # tests/data/hidden32.csv, whose lop stdout a golden file pins: n = 32
    # lies between the sizes of the other golden files and lop._MAX_ITEMS:
    # the largest n at which a golden file pins the heuristic's whole-order
    # steps.
    w = _hidden_order_tournament(np.random.default_rng(1), 32)
    assert np.array_equal(read_matrix_csv(DATA_DIR / "hidden32.csv").weights, w)


def test_hidden22_is_the_seeded_hidden_order_tournament():
    # tests/data/hidden22.csv, whose lop stdout a golden file pins: exact
    # sums at n = 22, where the heuristic's local search reads whole
    # orders.
    w = _hidden_order_tournament(np.random.default_rng(2), 22)
    assert np.array_equal(read_matrix_csv(DATA_DIR / "hidden22.csv").weights, w)


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

    def test_tiers_with_upsets_take_the_memo_past_the_cut(
        self, monkeypatch, witness_passes
    ):
        w = _tiered(24, [24, 3, 5, 1], upsets=0.05)
        # The CI's exact-sum input for the memo past the pass's cut: the pass
        # holds 448 states to depth 9, and the memo the 79 states past it.
        assert np.array_equal(read_matrix_csv(DATA_DIR / "tiers24.csv").weights, w)
        assert lop._exact_sums(WeightMatrix(w))
        self._assert_equals_oracle(monkeypatch, witness_passes, WeightMatrix(w), "pass")
        (descent,) = witness_passes
        assert (descent.cut, len(descent.memo), descent.states) == (9, 79, 448)

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
        (descent,) = witness_passes
        if route == "pass":
            # One pass, which reached states beyond the root's children and
            # ended at its cut; the memo answered the layers past it, in the
            # bytes the pass left.
            assert any(layer.size for layer in descent.layers[1:])
            assert descent.cut < a.n and len(descent.layers) == descent.cut + 1
            room = lop._HELD_BYTES - descent.held
            assert descent.memo and descent.memo_cap == room // witness._MEMO_STATE_BYTES
        else:
            # The pass stopped at its budget and the memo answered.
            assert descent.layers == [] and descent.memo
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
        # before it finished a layer's edges.
        (witness,) = witness_passes
        assert witness.edges == [] and not witness.memo


def _coin19() -> WeightMatrix:
    """A coin tournament with 2 games per pair at n = 19, rng seed 0.

    Many prefixes tie at its optimum: the witness pass holds 68,310 states
    to its cut at depth 17, up to 17,167 in one layer, over many chunks of
    states, and 68,316 without the cut.
    """
    return WeightMatrix(_coin_tournament(np.random.default_rng(0), 19, 2))


def _blocks(descent: witness.WitnessLayers) -> list[tuple[np.ndarray, ...]]:
    """A witness pass's edge blocks, one per chunk of each layer's states."""
    return list(itertools.chain(*descent.edges))


def _edge_count(descent: witness.WitnessLayers) -> int:
    """A witness pass's edges: each block's rows but the one before and the one past."""
    return sum(index.size - 2 for _, index, _ in _blocks(descent))


class TestWitnessLinks:
    """The forward pass links each child that reaches the target once, as an
    edge of its state; the backward pass only gathers over the edges, with
    the depth-first search's witness, nodes and pruned.
    """

    def test_tens_of_thousands_of_states_equal_the_oracle(
        self, monkeypatch, witness_passes
    ):
        # Chunks of 2^11 / n states, 16 KiB of one entry per state and item,
        # so that the largest layer spans over 100 of them.
        monkeypatch.setattr(lop, "_WALK_CHUNK_BYTES", 12 << 14)
        a = _coin19()
        TestWitnessMemo._assert_equals_oracle(monkeypatch, witness_passes, a, "pass")
        (descent,) = witness_passes
        chunk = descent.search.kernel.chunk
        assert chunk == (1 << 11) // a.n
        # The memo answers the 19 states past the cut.
        assert (descent.cut, len(descent.memo)) == (17, 19)
        assert sum(layer.size for layer in descent.layers) == 68_310
        assert max(layer.size for layer in descent.layers) > 100 * chunk
        # 222,376 edges, about 3.3 a state, where an (n, states) grid of
        # links held 19. Per chunk of states: an int64 offset per state and
        # one more, and an int32 index and a uint8 position per edge and for
        # the rows before and past them.
        assert _edge_count(descent) == 222_376
        assert len(descent.edges) == descent.cut
        for keys, blocks in zip(descent.layers, descent.edges):
            assert len(blocks) == -(-keys.size // chunk)
            assert sum(offsets.size - 1 for offsets, _, _ in blocks) == keys.size
            for offsets, index, position in blocks:
                assert offsets.dtype == np.int64 and offsets[-1] + 2 == index.size
                assert index.dtype == np.int32 and position.dtype == np.uint8
                assert index.size == position.size and position.max() == a.n

    def test_links_carried_over_many_merges_are_the_same(
        self, monkeypatch, witness_passes
    ):
        # With no floor on a merge and chunks of 2^11 / n states, a large
        # layer merges many times, and the edges found before its last merge
        # are carried to its final keys.
        monkeypatch.setattr(lop, "_WALK_CHUNK_BYTES", 12 << 14)
        a = _coin19()
        expected = solve_lop(a)
        merges = []
        real_ranked = witness._ranked
        monkeypatch.setattr(witness, "_MERGE_KEYS", 0)
        monkeypatch.setattr(
            witness, "_ranked", lambda parts: merges.append(len(parts)) or real_ranked(parts)
        )
        res = solve_lop(a)
        first, second = witness_passes
        assert len(merges) > 5 * len(second.layers)
        assert (res.ranking, res.stats.nodes, res.stats.pruned) == (
            expected.ranking,
            expected.stats.nodes,
            expected.stats.pruned,
        )
        assert len(first.edges) == len(second.edges)
        held = zip(first.layers + first.results[1:], second.layers + second.results[1:])
        for old, new in held:
            assert np.array_equal(old, new)
        for old, new in zip(_blocks(first), _blocks(second)):
            assert all(map(np.array_equal, old, new))

    def test_the_byte_cap_gives_way_to_the_memo(self, monkeypatch, witness_passes):
        # The memo past the cut gets the bytes of lop._HELD_BYTES the pass
        # left, and past the pass's own bytes the pass gives way to the memo
        # alone: for this exact input, whose keys pack into int64, 8 + 24 +
        # 8 bytes a state, 5 an edge and _MEMO_STATE_BYTES a memo state. Here
        # the value layers and the memo alone fit in fewer bytes than the pass.
        monkeypatch.setattr(lop, "_TABLE_MAX_N", 0)
        a = WeightMatrix(_coin_tournament(np.random.default_rng(2), 16, 2))
        expected = solve_lop(a)
        assert expected.proven
        proven = expected.ranking, expected.stats.nodes, expected.stats.pruned, True
        descent = witness_passes[-1]
        assert descent.form is not None and descent.cut < a.n and descent.memo
        assert witness._pass_state_bytes(True) == 8 + 24 + 8
        assert witness._PASS_EDGE_BYTES == 5
        states = sum(layer.size for layer in descent.layers)
        assert descent.held == states * 40 + _edge_count(descent) * 5
        # Keys, edges and results; past each chunk's edges two rows more and
        # an offset more, and past each layer's states a result row more.
        # The cut layer's states have no offsets and the root no result.
        held = [*descent.layers, *itertools.chain(*_blocks(descent)), *descent.results[1:]]
        extra = 18 * len(_blocks(descent)) + 24 * descent.cut
        spare = 8 * descent.layers[-1].size + 24
        assert sum(x.nbytes for x in held) == descent.held + extra - spare

        def solve():
            res = solve_lop(a)
            return res.ranking, res.stats.nodes, res.stats.pruned, res.proven

        # The pass's bytes and exactly the memo's states prove the witness.
        fit = descent.held + len(descent.memo) * witness._MEMO_STATE_BYTES
        monkeypatch.setattr(lop, "_HELD_BYTES", fit)
        assert solve() == proven
        assert (witness_passes[-1].cut, witness_passes[-1].memo) == (descent.cut, descent.memo)
        # One byte under, the memo past the cut overruns at its last state:
        # the result is unproven, with k* kept and attained by its ranking.
        monkeypatch.setattr(lop, "_HELD_BYTES", fit - 1)
        res = solve_lop(a)
        assert not res.proven
        assert res.optimal_value == expected.optimal_value
        assert objective_value(a, res.ranking) == res.optimal_value
        over = witness_passes[-1]
        assert over.cut == descent.cut and len(over.layers) == len(descent.layers)
        assert len(over.memo) == over.memo_cap == len(descent.memo) - 1
        # One byte under the pass, the memo alone answers in all the bytes.
        monkeypatch.setattr(lop, "_HELD_BYTES", descent.held - 1)
        assert solve() == proven
        alone = witness_passes[-1]
        assert alone.layers == [] and alone.edges == [] and alone.memo
        assert alone.memo_cap == (descent.held - 1) // witness._MEMO_STATE_BYTES

    def test_traced_peak_at_the_cap_stays_near_the_cap(self, monkeypatch):
        a = _coin19()
        search, _, timed_out = lop._value_search(a, None)
        assert not timed_out
        nodes, pruned = search.nodes, search.pruned
        # The pass's 68,310 states and 222,376 edges to its cut, and the
        # memo's 19 states past it.
        budget = 68_310 * witness._pass_state_bytes(True) + 222_376 * 5 + 19 * 256
        monkeypatch.setattr(lop, "_HELD_BYTES", budget)
        tracemalloc.start()
        try:
            order = search.lex_min_witness(search.best_val)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert order is not None and search.nodes > nodes and search.pruned > pruned
        # 3.85 MB held at the cap, 1.02 times that with the rows past each
        # chunk's edges and layer's states; one backward chunk's gathered
        # results, 24 bytes an edge, bring the peak to 4.29 MB.
        assert peak < budget + (1 << 19)

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

        def backward(self, below):
            offset[0] = 2 * limit
            return real_backward(self, below)

        monkeypatch.setattr(witness.WitnessLayers, "_backward", backward)
        res = solve_lop(a, SolverConfig(time_limit=limit))
        assert not res.proven
        assert res.optimal_value == expected.optimal_value
        assert objective_value(a, res.ranking) == res.optimal_value
        # The forward pass and the memo past its cut finished; the backward
        # pass stopped at its first deadline check, and the memo alone did
        # not start.
        descent = witness_passes[-1]
        assert descent.layers and descent.edges and descent.cut < a.n
        assert descent.results == [] and descent.memo


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

    def test_the_memo_over_its_entry_cap_leaves_the_witness_unproven(
        self, monkeypatch, witness_passes
    ):
        a = WeightMatrix(_hidden_order_tournament(np.random.default_rng(0), 19))
        expected = solve_lop(a)
        forced = _forced_memo_result(a)
        states = len(witness_passes[-1].memo)
        monkeypatch.setattr(witness, "_STATES_PER_NODE", 0)
        # The memo may hold lop._HELD_BYTES, at _MEMO_STATE_BYTES a state.
        fit = states * witness._MEMO_STATE_BYTES
        monkeypatch.setattr(lop, "_HELD_BYTES", fit)
        assert _forced_memo_result(a) == forced
        monkeypatch.setattr(lop, "_HELD_BYTES", fit - 1)
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
        # first, the memo's past the cut among them, before it adds up to n
        # of them.
        top = max(int(result.max()) for result in witness_passes[0].results[2:])
        monkeypatch.setattr(witness, "_COUNT_MAX", top * a.n + 1)
        assert solve() == expected
        monkeypatch.setattr(witness, "_COUNT_MAX", top * a.n)
        with pytest.raises(RankabilityError, match="int64"):
            solve()


class TestWitnessTail:
    """From the pass's cut on, the memoized search answers the layers left,
    with the memo-free search's witness, nodes and pruned at every cut.
    """

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(5, 11), seed=st.integers(0, 2**32 - 1), exact=st.booleans())
    def test_every_cut_equals_the_oracle(self, n, seed, exact):
        rng = np.random.default_rng(seed)
        if exact:
            w = _tournament_with_ties(rng, n, 2)
        else:
            w = _random_weights(rng, n, integral=False)
        a = WeightMatrix(w)
        assert lop._exact_sums(a) == exact
        descents = []
        real_init = witness.WitnessLayers.__init__
        real_cuts = witness.WitnessLayers._cuts

        def recording(self, search, target):
            descents.append(self)
            real_init(self, search, target)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(lop, "_TABLE_MAX_N", 0)
            plain = _solve_with_witness_oracle(m, a)
            expected = (plain.ranking, plain.stats.nodes, plain.stats.pruned)
            m.setattr(witness.WitnessLayers, "__init__", recording)
            # The pass's budget does not take a turn.
            m.setattr(witness, "_STATES_PER_NODE", 2**n)
            for cut in [*range(1, n), None]:
                if cut is None:
                    m.setattr(witness.WitnessLayers, "_cuts", real_cuts)
                else:
                    m.setattr(
                        witness.WitnessLayers,
                        "_cuts",
                        lambda self, depth, size, cut=cut: depth == cut,
                    )
                res = solve_lop(a)
                assert res.proven
                assert (res.ranking, res.stats.nodes, res.stats.pruned) == expected
                descent = descents[-1]
                # Unforced, the pass stops by depth n - 1 all the same.
                assert descent.cut == (cut or descent.cut) and 1 <= descent.cut <= n - 1
                assert len(descent.edges) == descent.cut and descent.memo

    def test_a_deadline_inside_the_memo_past_the_cut_leaves_the_witness_unproven(
        self, monkeypatch, witness_passes
    ):
        a = WeightMatrix(_hidden_order_tournament(np.random.default_rng(0), 19))
        expected = solve_lop(a)
        limit = 10.0
        offset = [0.0]
        monkeypatch.setattr(
            lop, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + offset[0])
        )
        real_answer_cut = witness.WitnessLayers._answer_cut

        def answer_cut(self):
            offset[0] = 2 * limit
            return real_answer_cut(self)

        monkeypatch.setattr(witness.WitnessLayers, "_answer_cut", answer_cut)
        res = solve_lop(a, SolverConfig(time_limit=limit))
        assert not res.proven
        assert res.optimal_value == expected.optimal_value
        assert objective_value(a, res.ranking) == res.optimal_value
        # The forward pass stopped at its cut; the memo read the clock before
        # its first state and stopped, and the backward pass did not start.
        descent = witness_passes[-1]
        assert descent.cut < a.n and len(descent.layers) == descent.cut + 1
        assert not descent.memo and descent.results == []

    def test_a_count_past_the_limit_in_the_memo_raises(self, monkeypatch, witness_passes):
        a = WeightMatrix(_hidden_order_tournament(np.random.default_rng(2), 20))

        def solve():
            res = solve_lop(WeightMatrix(a.weights))
            return res.ranking, res.stats.nodes, res.stats.pruned, res.proven

        expected = solve()
        descent = witness_passes[0]
        assert descent.cut < a.n
        # The memo's answers at the cut are checked before they are stored
        # as int64, as the backward pass checks each layer's.
        top = int(descent.results[descent.cut].max())
        monkeypatch.setattr(witness, "_COUNT_MAX", top * a.n)
        with pytest.raises(RankabilityError, match="int64") as raised:
            solve()
        assert raised.traceback[-2].name == "_answer_cut"
        monkeypatch.setattr(witness, "_COUNT_MAX", 2**63 - 1)
        assert solve() == expected
        # A count past the int64 range raises the same error, where storing
        # it would raise OverflowError.
        real_exists = witness.WitnessLayers._exists

        def exists(self, rem, g):
            ok, nodes, pruned = real_exists(self, rem, g)
            return ok, nodes + 2**63, pruned

        monkeypatch.setattr(witness.WitnessLayers, "_exists", exists)
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

    @staticmethod
    def _value_phase(a: WeightMatrix):
        """solve_lop's value phase: best value and order, nodes, pruned, timed out."""
        search, _, timed_out = lop._value_search(a, None)
        return search.best_val, search.best_order, search.nodes, search.pruned, timed_out

    @staticmethod
    def _largest_layer(monkeypatch, a: WeightMatrix) -> int:
        """The most visits that one layer of a's value passes holds."""
        sizes = []
        real = value._expanded
        with monkeypatch.context() as m:
            m.setattr(
                value, "_expanded", lambda rem, g, n: sizes.append(rem.size) or real(rem, g, n)
            )
            lop._value_search(a, None)
        return max(sizes)

    def test_a_layer_over_the_state_cap_stops_the_search(self, monkeypatch):
        # A layer may hold lop._HELD_BYTES, at _VISIT_BYTES a visit.
        a = read_matrix_csv(DATA_DIR / "coin19.csv")
        expected = self._value_phase(a)
        assert not expected[-1]
        fit = self._largest_layer(monkeypatch, a) * value._VISIT_BYTES
        monkeypatch.setattr(lop, "_HELD_BYTES", fit)
        assert self._value_phase(a) == expected
        monkeypatch.setattr(lop, "_HELD_BYTES", fit - 1)
        assert self._value_phase(a)[-1]
        res = solve_lop(a)
        assert not res.proven
        assert res.optimal_value == res.stats.heuristic_value
        assert objective_value(a, res.ranking) == res.optimal_value

    def test_traced_peak_at_the_cap_stays_near_the_cap(self, monkeypatch):
        a = read_matrix_csv(DATA_DIR / "coin19.csv")
        # This first search also builds the drop rows, which the core keeps
        # outside the budget.
        budget = self._largest_layer(monkeypatch, a) * value._VISIT_BYTES
        monkeypatch.setattr(lop, "_HELD_BYTES", budget)
        tracemalloc.start()
        try:
            _, _, timed_out = lop._value_search(a, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not timed_out
        # 209,269 visits in the largest layer: 16.7 MB held at the cap.
        assert peak < 1.1 * budget


class TestOneStateChunks:
    """With lop._WALK_CHUNK_BYTES = 1 the layer kernel (lop._LayerKernel)
    takes one state a chunk, so every state of a layer but the first starts
    a chunk: the value passes check each child against the thresholds from
    the flat index of its chunk's first child, the witness pass reads its
    edge offsets and merges its keys across the chunks, and the descent
    finds its path state's edges in the block of its row.
    """

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(5, 11), seed=st.integers(0, 2**32 - 1), exact=st.booleans())
    def test_the_passes_equal_the_loops(self, n, seed, exact):
        rng = np.random.default_rng(seed)
        if exact:
            w = _tournament_with_ties(rng, n, 2)
        else:
            w = _random_weights(rng, n, integral=False)
        a = WeightMatrix(w)
        assert lop._exact_sums(a) == exact
        heur = [v - 1 for v in heuristic_ranking(a).order]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(lop, "_WALK_CHUNK_BYTES", 1)
            m.setattr(lop, "_TABLE_MAX_N", 0)
            if exact:
                # The value passes run on exact sums only.
                passes, loop = _value_runs(w)
                assert passes == loop
                passes, loop = _value_runs(w, rng.permutation(n).tolist())
                assert passes == loop
            m.setattr(witness, "_STATES_PER_NODE", 2**n)
            loop = _witness_run(a, heur, lex_min_witness_loop)
            assert loop[0] is not None
            # With the cut rule as it is, the descent reads the pass's edges,
            # one state's edges a block, down to the cut and the memo past it.
            assert _witness_run(a, heur, lop._Search.lex_min_witness) == loop
            # Without a narrow layer, the pass answers every state to depth
            # n - 1, and the memo the states there.
            m.setattr(witness.WitnessLayers, "_cuts", lambda self, depth, size: False)
            assert _witness_run(a, heur, lop._Search.lex_min_witness) == loop
            assert lop._Search(a).kernel.chunk == 1


def _witness_run(a: WeightMatrix, heur: list[int], descend):
    """descend's witness after the value search from heur, and its nodes and pruned."""
    search = lop._Search(a)
    assert not search.run_value(heur, order_value_loop(search.w, heur))
    nodes, pruned = search.nodes, search.pruned
    order = descend(search, search.best_val)
    return order, search.nodes - nodes, search.pruned - pruned


class TestPackedKeys:
    """The exact route's searches sort and search states as one int64 key
    (lop._packed_key), with the results of the lexsort and complex keys
    that remain their fallbacks. Here value layers of any size pack where
    their keys fit, unless a test says otherwise.
    """

    @pytest.fixture(autouse=True)
    def _every_layer_packs(self, monkeypatch):
        monkeypatch.setattr(value, "_PACKED_VISITS", 2)

    @staticmethod
    def _expanded_and_lexsorts(rem: np.ndarray, g: np.ndarray, n: int, expanded=None):
        """value._expanded's positions, and how many np.lexsort calls it made."""
        expanded = expanded or value._expanded
        calls = []
        real = np.lexsort
        with pytest.MonkeyPatch.context() as m:
            m.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
            got = expanded(rem, g, n)
        return got, len(calls)

    @pytest.mark.parametrize("packs", [False, True])
    def test_layers_below_the_packed_size_take_lexsort(self, monkeypatch, packs):
        # The module's own size rule, not this class's.
        monkeypatch.undo()
        rng = np.random.default_rng(packs)
        size = value._PACKED_VISITS - 1 + packs
        rem = rng.integers(0, 64, size).astype(np.int64) << 14
        g = rng.integers(0, 40, size) / 2
        got, lexsorts = self._expanded_and_lexsorts(rem, g, 20)
        assert lexsorts == (not packs)
        assert np.array_equal(got, expanded_lexsort(rem, g))

    @staticmethod
    def _repeats_and_ties(data) -> tuple[int, np.ndarray, np.ndarray]:
        """A layer (n, rem, g) of few distinct sets and bounds.

        Repeated sets, tied bounds, and layers of a single visit.
        """
        n = data.draw(st.integers(1, lop._MAX_ITEMS), label="n")
        size = data.draw(st.integers(1, 64), label="size")
        pool = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=6))
        rem = np.array(
            data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)),
            dtype=np.int64,
        )
        halves = data.draw(st.lists(st.integers(0, 12), min_size=size, max_size=size))
        base = data.draw(st.integers(0, 2**40), label="base")
        return n, rem, (np.array(halves) + base) / 2

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_layers_with_repeats_and_ties_equal_the_reference(self, data):
        n, rem, g = self._repeats_and_ties(data)
        got, lexsorts = self._expanded_and_lexsorts(rem, g, n)
        assert lexsorts == 0
        assert np.array_equal(got, expanded_lexsort(rem, g))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_set_and_code_keys_keep_tied_visits_in_order(self, data):
        # Keys without the position, as where it would not fit: visits of
        # one set and tied bounds must stay in position order.
        n, rem, g = self._repeats_and_ties(data)

        def without_positions(n, span, low_bits=0):
            return None if low_bits else lop._packed_key(n, span)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(value, "_packed_key", without_positions)
            got, lexsorts = self._expanded_and_lexsorts(rem, g, n)
        assert lexsorts == 0
        assert np.array_equal(got, expanded_lexsort(rem, g))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(10, lop._MAX_ITEMS),
        size=st.integers(2, 64),
        over=st.integers(0, 2),
        data=st.data(),
    )
    def test_keys_of_63_bits_pack_and_one_bit_more_falls_back(self, n, size, over, data):
        # The set's n bits, the position's and the code's add up to 63 +
        # over, where over 1 leaves the set's and the code's within 63 bits,
        # a key without the position; with over 2 those alone take 64 bits,
        # and np.lexsort sorts. The widest code is 2^(code_bits - 1), twice
        # the widest bound drop.
        position_bits = (size - 1).bit_length()
        code_bits = 63 + min(over, 1) - n - (position_bits if over < 2 else 0)
        assume(1 <= code_bits <= 52)
        widest = 2 ** (code_bits - 1)
        codes = data.draw(
            st.lists(
                st.sampled_from([0, widest, 1, widest - 1, widest // 2]),
                min_size=size - 2,
                max_size=size - 2,
            )
        )
        codes = np.array([0, widest, *codes])[data.draw(st.permutations(range(size)))]
        rem = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)),
            dtype=np.int64,
        ) << (n - 2)
        g = (2.0**51 - codes) / 2
        span = 2 * (g.max() - g.min())
        assert (lop._packed_key(n, span, position_bits) is None) == (over > 0)
        assert (lop._packed_key(n, span) is None) == (over == 2)
        got, lexsorts = self._expanded_and_lexsorts(rem, g, n)
        assert lexsorts == (over == 2)
        assert np.array_equal(got, expanded_lexsort(rem, g))

    def test_codes_too_wide_for_63_bits_take_the_fallbacks(self, witness_passes):
        # hidden20.csv scaled by 2^40: its total stays below _EXACT_TOTAL, so
        # the exact route runs, but its bound codes need about 2^40 times the
        # room. Scaling by a power of two decides every comparison alike.
        a = read_matrix_csv(DATA_DIR / "hidden20.csv")
        scaled = WeightMatrix(a.weights * 2.0**40)
        assert lop._core(scaled).exact and scaled.total_sum() < lop._EXACT_TOTAL
        # Each value layer of two or more visits: whether a key fits, with
        # the position or without, and how many np.lexsort calls it made.
        layers = []
        real = value._expanded

        def expanded(rem, g, n):
            got, lexsorts = self._expanded_and_lexsorts(rem, g, n, real)
            if rem.size > 1:
                span = 2 * (g.max() - g.min())
                fits = lop._packed_key(n, span, (rem.size - 1).bit_length()) is not None
                layers.append((fits or lop._packed_key(n, span) is not None, lexsorts))
            assert np.array_equal(got, expanded_lexsort(rem, g))
            return got

        with pytest.MonkeyPatch.context() as m:
            m.setattr(value, "_expanded", expanded)
            res = solve_lop(scaled)
        wide = [lexsorts for fits, lexsorts in layers if not fits]
        assert len(wide) > len(layers) // 2 and wide == [1] * len(wide)
        assert all(lexsorts == 0 for fits, lexsorts in layers if fits)
        (descent,) = witness_passes
        assert descent.form is None
        assert descent.layers and all(keys.dtype == complex for keys in descent.layers)
        golden = json.loads((DATA_DIR / "golden" / "lop-hidden20.json").read_text())
        assert res.proven and res.optimal_value == golden["k_star"] * 2.0**40
        assert list(res.ranking.order) == golden["ranking"]
        assert res.stats.nodes == golden["stats"]["nodes"]
        assert res.stats.pruned == golden["stats"]["pruned"]

    def test_the_unscaled_input_packs_every_key(self, witness_passes):
        a = read_matrix_csv(DATA_DIR / "hidden20.csv")
        calls = []
        real = np.lexsort
        with pytest.MonkeyPatch.context() as m:
            m.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
            res = solve_lop(a)
        assert res.proven and calls == []
        (descent,) = witness_passes
        assert descent.form is not None
        assert all(keys.dtype == np.int64 for keys in descent.layers)


def test_no_state_cap_is_below_the_caps_it_replaced():
    # Every state cap derives from lop._HELD_BYTES. The three caps before it
    # were 2^22 visits a value layer, 2^22 * 33 bytes of witness pass at
    # 33 + 4n bytes a state, and 2^19 memo entries.
    # The pass holds 48 bytes a state with complex keys and 40 with packed
    # ones, and 5 an edge; with every child linked, n edges a state.
    assert lop._state_cap(value._VISIT_BYTES) >= 1 << 22
    assert lop._state_cap(witness._MEMO_STATE_BYTES) >= 1 << 19
    assert (witness._pass_state_bytes(False), witness._pass_state_bytes(True)) == (48, 40)
    assert witness._PASS_EDGE_BYTES == 5
    for n in range(19, lop._MAX_ITEMS + 1):
        for packed in (False, True):
            linked = witness._pass_state_bytes(packed) + n * witness._PASS_EDGE_BYTES
            assert lop._state_cap(linked) >= (1 << 22) * 33 // (33 + 4 * n)


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

    def test_41_float_items_are_refused_before_any_search(self):
        # Weights whose sums are not exact once ran the value search until
        # the time limit, and with none set kept running.
        w = np.random.default_rng(0).random((41, 41))
        np.fill_diagonal(w, 0.0)
        a = WeightMatrix(w)
        assert not lop._exact_sums(a)
        for call in (solve_lop, enumerate_optima, degree_of_linearity):
            start = time.perf_counter()
            with pytest.raises(TooManyItemsError, match="at most 40 items, got n=41"):
                call(a)
            assert time.perf_counter() - start < 1.0
        # The heuristic and the prefix bound take any n.
        assert heuristic_ranking(a).n == 41
        assert prefix_upper_bound(a, [1]) > 0

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


def _drawn_tournament(
    rng: np.random.Generator, n: int, draw: Callable[[], float]
) -> np.ndarray:
    """One game per pair, weighted draw(), won by either side w.p. 1/2.

    Pairs come in itertools.combinations order; each draws its weight, then
    random() < 0.5 gives it to w[i, j], else to w[j, i].
    """
    w = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        weight = draw()
        if rng.random() < 0.5:
            w[i, j] = weight
        else:
            w[j, i] = weight
    return w


def _tenths_tournament(rng: np.random.Generator, n: int) -> np.ndarray:
    """A _drawn_tournament weighted integers(1, 4) / 10.

    Sums of tenths are not exact, so these take the float route.
    """
    return _drawn_tournament(rng, n, lambda: rng.integers(1, 4) / 10)


def _points_tournament(rng: np.random.Generator, n: int) -> np.ndarray:
    """A _drawn_tournament weighted integers(1, 5) * 2500.

    Sums are exact, but twice the total is far above the int16 limit, so
    the completion table takes the float64 route.
    """
    return _drawn_tournament(rng, n, lambda: rng.integers(1, 5) * 2500.0)


def test_points16_is_written_by_its_generator(tmp_path):
    # A p = 0.5 tournament at n = 16 in points (rng seed 1), total 742,500:
    # exact sums on the float64 table route, pinned by the lop, enumerate
    # and kappa golden files (tests/test_cli.py::PINNED_RUNS).
    w = _points_tournament(np.random.default_rng(1), 16)
    a = WeightMatrix(w)
    assert lop._exact_sums(a) and not _narrow(w)
    path = tmp_path / "points16.csv"
    write_matrix_csv(a, path)
    assert path.read_bytes() == (DATA_DIR / "points16.csv").read_bytes()


def _halves_tournament(rng: np.random.Generator, n: int) -> np.ndarray:
    """Each pair weighted integers(0, 4, 2) / 2, w[i, j] then w[j, i].

    Pairs come in itertools.combinations order. Sums are exact, and many
    pairs differ by 1/2, whose doubled drop row entry is -1.
    """
    w = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        w[i, j], w[j, i] = rng.integers(0, 4, 2) / 2
    return w


def _table_readers(w: np.ndarray, narrow: bool) -> tuple:
    """What the four table readers give on w, from a table built as narrow says.

    narrow is set on a fresh core before it builds its table, so False
    forces the float64 route on sums the core would take in int16. Returns
    the table's typecode, k* (_proven_value), the walk's orders and flag,
    the table-descent witness (lex_min_witness) and the joint search's
    kappa and pair (ktdiam._pair_search, from the first order).
    """
    a = WeightMatrix(w)
    core = lop._core(a)
    core.narrow = narrow
    k_star = lop._proven_value(a, None)
    # The value passes read no table; checked first, since the joint search
    # from a k* below the optimum can run for very long.
    assert k_star == solve_lop(WeightMatrix(w)).optimal_value
    orders, truncated = lop._optimal_orders(a, k_star, 2000, None)
    witness = lop._Search(a).lex_min_witness(k_star)
    kt = ktdiam._pair_search(a, k_star, tuple(orders[0].tolist()), None)
    return core.table.typecode, k_star, orders.tobytes(), truncated, witness, kt


class TestNarrowTable:
    """The int16 table: what the core keeps, and what its readers make of it."""

    @pytest.mark.parametrize("n", [2, 9, 16, 18])
    def test_a_narrow_core_keeps_two_bytes_a_set_and_a_float_core_eight(self, n):
        w = _halves_tournament(np.random.default_rng(n), n)
        narrow = WeightMatrix(w)
        # Twice this total is past int16's maximum.
        w[1, 0] += 16384.0
        wide = WeightMatrix(w)
        for a, typecode, size in ((narrow, "h", 2), (wide, "d", 8)):
            core = lop._core(a)
            assert core.narrow == (typecode == "h")
            table = core.completion(None)
            assert (table.typecode, table.itemsize, len(table)) == (typecode, size, 1 << n)

    @pytest.mark.parametrize("n", range(4, 18))
    def test_every_reader_gives_the_same_from_int16_and_float64(self, n):
        # Every int16 entry is twice an exact drop sum, so each reader's
        # entry times the core's unit has the float64 entry's bits: k*, the
        # walk's orders, the witness and the joint search's pair agree.
        for seed in range(2):
            w = _halves_tournament(np.random.default_rng(100 * n + seed), n)
            assert _narrow(w) and (_drops(w) == -0.5).any()
            narrow, wide = _table_readers(w, True), _table_readers(w, False)
            assert (narrow[0], wide[0]) == ("h", "d")
            assert narrow[1:] == wide[1:]
            k_star, orders, truncated, witness, kt = narrow[1:]
            assert kt.proven and not truncated
            assert witness == (np.frombuffer(orders, np.int8)[:n] - 1).tolist()


def test_halves16_is_written_by_its_generator(tmp_path):
    # Halves at n = 16 (rng seed 1), total 191, 45 pairs differing by 1/2:
    # the int16 table route on doubled drop sums of -1, pinned by the lop,
    # enumerate and kappa golden files (tests/test_cli.py::PINNED_RUNS).
    w = _halves_tournament(np.random.default_rng(1), 16)
    a = WeightMatrix(w)
    assert lop._exact_sums(a) and _narrow(w)
    assert (np.abs(w - w.T) == 0.5).sum() == 2 * 45
    path = tmp_path / "halves16.csv"
    write_matrix_csv(a, path)
    assert path.read_bytes() == (DATA_DIR / "halves16.csv").read_bytes()


def test_tenths22_is_written_by_its_generator(tmp_path):
    # A hidden-order tournament at n = 22 (rng seed 0) whose games weigh
    # 0.1 to 0.9, drawn from the same rng: float sums above the table
    # budget, so the witness pass keys its states as complex numbers. Pinned
    # by the lop golden file (tests/test_cli.py::PINNED_RUNS).
    rng = np.random.default_rng(0)
    w = _hidden_order_tournament(rng, 22) * (rng.integers(1, 10, size=(22, 22)) / 10)
    a = WeightMatrix(w)
    assert not lop._exact_sums(a)
    path = tmp_path / "tenths22.csv"
    write_matrix_csv(a, path)
    assert path.read_bytes() == (DATA_DIR / "tenths22.csv").read_bytes()
    assert np.array_equal(read_matrix_csv(path).weights, w)


def test_tenths17_is_written_by_its_generator(tmp_path):
    # A p = 0.5 tournament at n = 17 (rng seed 17) whose games weigh 0.1 to
    # 0.9, drawn from the same rng: float sums inside the table budget, so
    # the completion table takes the float64 route at the uneven split,
    # h = 8 low and m = 9 high items. Pinned by the lop, enumerate and kappa
    # golden files (tests/test_cli.py::PINNED_RUNS).
    rng = np.random.default_rng(17)
    w = _coin_tournament(rng, 17, 1) * (rng.integers(1, 10, size=(17, 17)) / 10)
    a = WeightMatrix(w)
    assert not lop._exact_sums(a)
    path = tmp_path / "tenths17.csv"
    write_matrix_csv(a, path)
    assert path.read_bytes() == (DATA_DIR / "tenths17.csv").read_bytes()
    assert np.array_equal(read_matrix_csv(path).weights, w)


def _goals(rng: np.random.Generator, edge: float) -> tuple[int, int]:
    """One game's goals, home then away: poisson(2.6 * exp(edge / 2)) and
    poisson(2.6 * exp(-edge / 2)), edge the home strength less the away's.
    """
    return int(rng.poisson(2.6 * np.exp(edge / 2))), int(rng.poisson(2.6 * np.exp(-edge / 2)))


def _league_games(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, list[tuple[int, int, int, int]]]:
    """A double round robin's team strengths and games (home, away, home goals, away goals).

    Team strengths are normal(0, 0.6); then each ordered (home, away) pair,
    home outer and away inner, plays one game (_goals).
    """
    strength = rng.normal(0.0, 0.6, size=n)
    games = [
        (home, away, *_goals(rng, strength[home] - strength[away]))
        for home, away in itertools.permutations(range(n), 2)
    ]
    return strength, games


def _league(rng: np.random.Generator, n: int) -> np.ndarray:
    """_league_games as weights: a win scores 1, a tie 1/2 to each side."""
    w = np.zeros((n, n))
    for home, away, home_goals, away_goals in _league_games(rng, n)[1]:
        if home_goals > away_goals:
            w[home, away] += 1.0
        elif away_goals > home_goals:
            w[away, home] += 1.0
        else:
            w[home, away] += 0.5
            w[away, home] += 0.5
    return w


def _league_season_csv(rng: np.random.Generator, n: int) -> str:
    """_league_games as one season's games CSV, then 4 playoff games.

    Team i is T01, T02, ..., so the teams sort in index order and the
    regular season's win matrix is _league's from the same draws. The
    playoffs pair the 4 strongest teams, strongest first, as 1-4, 2-3, 1-2
    and 3-4, the first team at home.
    """
    strength, games = _league_games(rng, n)
    top = np.argsort(-strength, kind="stable")[:4].tolist()
    playoffs = [
        (top[a], top[b], *_goals(rng, strength[top[a]] - strength[top[b]]))
        for a, b in ((0, 3), (1, 2), (0, 1), (2, 3))
    ]
    lines = ["season,stage,team_a,team_b,score_a,score_b"]
    for stage, rows in (("regular", games), ("playoff", playoffs)):
        for home, away, home_goals, away_goals in rows:
            lines.append(f"2020,{stage},T{home + 1:02d},T{away + 1:02d},{home_goals},{away_goals}")
    return "\n".join(lines) + "\n"


class TestKStarAgainstMilp:
    """k* above the table budget equals the paper's binary program's, by HiGHS."""

    @staticmethod
    def _assert_k_star(w: np.ndarray) -> float:
        assert w.shape[0] > lop._TABLE_MAX_N
        res = solve_lop(WeightMatrix(w))
        assert res.proven
        assert res.optimal_value == lop_milp(w)
        return res.optimal_value

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

    # League size, with ties: solve_lop proves each in about a second at most.
    @pytest.mark.parametrize(
        "n, seed, k_star", [(24, 2, 415.5), (28, 1, 579.5), (32, 2, 792.0)]
    )
    def test_leagues(self, n, seed, k_star):
        w = _league(np.random.default_rng(seed), n)
        assert np.any(w % 1.0 == 0.5)
        assert self._assert_k_star(w) == k_star

    # League 30/1 and 32/1, whose witness passes hold 1,022,099 and
    # 2,931,525 states, 156 and 472 MB, within lop._HELD_BYTES: about 3 and
    # 11 s on a 2-vCPU host, so left to the slow job.
    @pytest.mark.slow
    @pytest.mark.parametrize("n, k_star", [(30, 660.5), (32, 749.5)])
    def test_leagues_whose_witness_pass_is_largest(self, n, k_star):
        w = _league(np.random.default_rng(1), n)
        assert self._assert_k_star(w) == k_star


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
        # recurrence's over unsplit drop rows; its readers compare within
        # the slack, so the value, ranking, stats, optima and kappa pair
        # come out the same.
        cfg = SolverConfig(enumeration_cap=2000)
        for n, seed in itertools.product(range(3, 12), range(2)):
            w = _scaled_weights(family, n, scale, 100 * seed + n)
            results = []
            for recurrence in (False, True):
                a = WeightMatrix(w)
                assert not lop._exact_sums(a)
                if recurrence:
                    core = lop._core(a)
                    core.completion(None)
                    core.table = completion_table_loop(_drops(w))
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
