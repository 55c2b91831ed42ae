"""Unit and property tests for the combinatorial primitives."""

from __future__ import annotations

import itertools
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankability.core import (
    LinearOrder,
    PairSet,
    Ranking,
    WeightMatrix,
    concordant_discordant,
    kendall_tau_distance,
    linear_order_from_ranking,
    objective_value,
    permute_matrix,
    ranking_from_linear_order,
    ranking_from_order,
    ranking_from_position,
    read_matrix_csv,
    reverse_ranking,
    upper_triangular_sum,
    validate_linear_order,
    write_matrix_csv,
)
from rankability.errors import (
    DimensionMismatchError,
    InfeasibleSolutionError,
    InvalidArgumentError,
    MalformedInputError,
    MalformedPermutationError,
)

from tests.conftest import COLLEGE_OPTIMA_ORDERS, COLLEGE_K_STAR, COLLEGE_TOTAL


def rankings(max_n: int = 8) -> st.SearchStrategy[Ranking]:
    return st.integers(2, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    ).map(ranking_from_order)


def ranking_triples(max_n: int = 8) -> st.SearchStrategy[tuple[Ranking, Ranking, Ranking]]:
    def triple(n: int):
        perm = st.permutations(list(range(1, n + 1)))
        return st.tuples(perm, perm, perm)

    return (
        st.integers(2, max_n)
        .flatmap(triple)
        .map(lambda t: tuple(ranking_from_order(o) for o in t))
    )


class TestWeightMatrix:
    def test_valid_construction(self):
        a = WeightMatrix([[0, 1], [2, 0]], ["x", "y"])
        assert a.n == 2
        assert a.total_sum() == 3
        assert a[1, 2] == 1
        assert a[2, 1] == 2
        assert a.labels == ("x", "y")

    def test_array_is_read_only(self):
        a = WeightMatrix([[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            a.weights[0, 1] = 5

    def test_rejects_negative(self):
        with pytest.raises(MalformedInputError, match=r"negative"):
            WeightMatrix([[0, -1], [2, 0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(MalformedInputError, match=r"diagonal"):
            WeightMatrix([[1, 1], [2, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            WeightMatrix([[0, 1, 2], [2, 0, 1]])

    def test_rejects_single_item(self):
        with pytest.raises(DimensionMismatchError):
            WeightMatrix([[0]])

    def test_rejects_nan(self):
        with pytest.raises(MalformedInputError):
            WeightMatrix([[0, float("nan")], [2, 0]])

    @pytest.mark.parametrize("n, weight", [(2, 4.5e307), (3, 3e307), (3, 8e307)])
    def test_rejects_weights_whose_doubled_total_overflows(self, n, weight):
        # The searches sum every pair's larger weight twice.
        w = np.full((n, n), weight)
        np.fill_diagonal(w, 0.0)
        with pytest.raises(MalformedInputError, match=r"overflows"):
            WeightMatrix(w)

    @pytest.mark.parametrize("n, weight", [(2, 4.49e307), (3, 1.49e307), (4, 1e300)])
    def test_accepts_weights_whose_doubled_total_is_finite(self, n, weight):
        w = np.full((n, n), weight)
        np.fill_diagonal(w, 0.0)
        assert math.isfinite(2.0 * WeightMatrix(w).total_sum())

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            WeightMatrix([[0, 1], [2, 0]], ["only-one"])


class TestRanking:
    def test_identity_order(self):
        r = ranking_from_order((1, 2, 3))
        assert r.position == (1, 2, 3)
        assert r.order == (1, 2, 3)

    def test_swap_order(self):
        r = ranking_from_order((2, 1))
        assert r.position == (2, 1)

    def test_worked_example_order(self):
        r = ranking_from_order((10, 7, 8, 5, 1, 6, 9, 2, 4, 3))
        assert r.rank_of(10) == 1
        assert r.rank_of(3) == 10
        assert r.rank_of(7) == 2

    def test_position_order_round_trip(self):
        for order in itertools.permutations(range(1, 5)):
            r = ranking_from_order(order)
            assert ranking_from_position(r.position).order == order

    def test_rejects_duplicates(self):
        with pytest.raises(MalformedPermutationError):
            ranking_from_order((1, 1, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(MalformedPermutationError):
            ranking_from_order((0, 1, 2))
        with pytest.raises(MalformedPermutationError):
            ranking_from_position((1, 2, 4))

    @pytest.mark.parametrize(
        "items",
        [
            (1.7, 2.2),
            (2.9, 1.0),
            (np.float64(1.5), 2),
            np.array([2.5, 1.0]),
            "21",
            ("1", "2"),
            (1, float("nan")),
            (float("inf"), 1),
        ],
    )
    def test_rejects_non_integral_items(self, items):
        # int() would truncate (1.7, 2.2) to (1, 2) and read "21" as (2, 1).
        with pytest.raises(MalformedPermutationError):
            ranking_from_order(items)
        with pytest.raises(MalformedPermutationError):
            ranking_from_position(items)

    def test_accepts_integral_values_of_any_numeric_type(self):
        for items in ((2.0, 1.0), (np.float64(2.0), np.int8(1)), np.array([2.0, 1.0])):
            assert ranking_from_order(items).order == (2, 1)
            r = ranking_from_position(items)
            assert r.position == (2, 1)
            assert all(type(p) is int for p in r.position + r.order)

    def test_rejects_items_past_n_and_repeats(self):
        with pytest.raises(MalformedPermutationError):
            ranking_from_order((1, 2, 4))
        with pytest.raises(MalformedPermutationError):
            ranking_from_order(np.array([2, 1, 2]))
        with pytest.raises(MalformedPermutationError):
            ranking_from_order((1, 2, 3, -1))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    def test_order_form_equals_the_position_form(self, order):
        # ranking_from_order checks the order once and sets both forms
        # itself; the result must be the Ranking the checked constructor
        # builds from the position form.
        position = [0] * len(order)
        for k, item in enumerate(order, start=1):
            position[item - 1] = k
        expected = Ranking(position)
        for given_order in (order, np.array(order)):
            built = ranking_from_order(given_order)
            assert built == expected
            assert hash(built) == hash(expected)
            assert built.position == expected.position
            assert built.order == expected.order == tuple(order)
            assert {type(x) for x in built.position + built.order} == {int}

    def test_reverse(self):
        r = ranking_from_order((3, 1, 2))
        rev = reverse_ranking(r)
        assert rev.order == (2, 1, 3)
        assert reverse_ranking(rev) == r

    def test_lexicographic_comparison_uses_order_form(self):
        a = ranking_from_order((1, 3, 2))
        b = ranking_from_order((2, 1, 3))
        assert a < b
        assert a <= a


class TestObjectiveValue:
    def test_three_cycle_free_digraph(self, digraphs):
        sigma = ranking_from_order((1, 2, 3))
        assert objective_value(digraphs[2], sigma) == 3

    def test_college_value_for_all_six_optima(self, college_matrix, college_optima):
        for sigma in college_optima:
            assert objective_value(college_matrix, sigma) == COLLEGE_K_STAR

    def test_complementary_sum(self, college_matrix):
        sigma = ranking_from_order((3, 1, 4, 2, 10, 9, 8, 7, 6, 5))
        total = objective_value(college_matrix, sigma) + objective_value(
            college_matrix, reverse_ranking(sigma)
        )
        assert total == pytest.approx(COLLEGE_TOTAL)

    def test_dimension_mismatch(self, college_matrix):
        with pytest.raises(DimensionMismatchError):
            objective_value(college_matrix, ranking_from_order((1, 2)))


class TestPermuteMatrix:
    def test_identity(self, college_matrix):
        sigma = ranking_from_order(tuple(range(1, 11)))
        assert permute_matrix(college_matrix, sigma) == college_matrix

    def test_two_by_two_swap(self):
        a = WeightMatrix([[0, 1], [2, 0]])
        b = permute_matrix(a, ranking_from_order((2, 1)))
        assert b.weights.tolist() == [[0, 2], [1, 0]]

    def test_college_reordering_first_row(self, college_matrix):
        # Reordering by the last listed optimum; its top row collects the
        # first-ranked college's weights against the rest in rank order.
        sigma = ranking_from_order((10, 7, 5, 1, 8, 6, 9, 2, 3, 4))
        b = permute_matrix(college_matrix, sigma)
        assert b.weights[0].tolist() == [0, 3, 4, 4.5, 5, 5, 5, 5, 5, 5]
        assert b.labels is not None
        assert b.labels[0] == "Williams"

    def test_defining_entry_relation(self, college_matrix, college_optima):
        sigma = college_optima[0]
        b = permute_matrix(college_matrix, sigma)
        for i in range(1, 11):
            for j in range(1, 11):
                if i != j:
                    assert b[sigma.rank_of(i), sigma.rank_of(j)] == college_matrix[i, j]

    def test_upper_triangular_sum_matches_objective(self, college_matrix, college_optima):
        for sigma in college_optima:
            b = permute_matrix(college_matrix, sigma)
            assert upper_triangular_sum(b) == objective_value(college_matrix, sigma)


class TestKendallTau:
    def test_identity_distance_zero(self):
        r = ranking_from_order((4, 2, 1, 3))
        assert kendall_tau_distance(r, r) == 0

    def test_reversal_gives_all_pairs(self):
        r = ranking_from_order((4, 2, 1, 3, 5))
        assert kendall_tau_distance(r, reverse_ranking(r)) == math.comb(5, 2)

    def test_adjacent_swap_in_worked_example(self):
        s1 = ranking_from_order(COLLEGE_OPTIMA_ORDERS[0])
        s4 = ranking_from_order(COLLEGE_OPTIMA_ORDERS[3])
        assert kendall_tau_distance(s1, s4) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kendall_tau_distance(ranking_from_order((1, 2)), ranking_from_order((1, 2, 3)))


class TestConcordantDiscordant:
    def test_equal_rankings(self):
        r = ranking_from_order((2, 3, 1))
        conc, disc = concordant_discordant(r, r)
        assert disc.count == 0
        assert conc.pairs == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_three_item_example(self):
        s1 = ranking_from_order((1, 2, 3))
        s2 = ranking_from_order((2, 3, 1))
        conc, disc = concordant_discordant(s1, s2)
        assert disc.pairs == frozenset({(1, 2), (1, 3)})
        assert conc.pairs == frozenset({(2, 3)})

    def test_reversal_empties_concordant(self):
        r = ranking_from_order((3, 1, 4, 2))
        conc, disc = concordant_discordant(r, reverse_ranking(r))
        assert conc.count == 0
        assert disc.count == math.comb(4, 2)

    def test_pairset_rejects_unordered_pair(self):
        with pytest.raises(MalformedPermutationError):
            PairSet([(2, 1)])


class TestLinearOrder:
    def test_identity_encoding(self):
        lo = linear_order_from_ranking(ranking_from_order((1, 2, 3)))
        assert lo.x[0, 1] == lo.x[0, 2] == lo.x[1, 2] == 1
        assert lo.x[1, 0] == lo.x[2, 0] == lo.x[2, 1] == 0

    def test_three_dicycle_rejected(self):
        lo = LinearOrder([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        with pytest.raises(InfeasibleSolutionError, match=r"3-dicycle"):
            ranking_from_linear_order(lo)

    def test_tournament_violation_rejected(self):
        lo = LinearOrder([[0, 1, 1], [1, 0, 1], [0, 0, 0]])
        with pytest.raises(InfeasibleSolutionError, match=r"tournament"):
            ranking_from_linear_order(lo)

    def test_round_trip_all_three_item_permutations(self):
        for order in itertools.permutations((1, 2, 3)):
            r = ranking_from_order(order)
            assert ranking_from_linear_order(linear_order_from_ranking(r)) == r

    def test_validate_reports_no_violations_for_valid_order(self):
        lo = linear_order_from_ranking(ranking_from_order((2, 4, 1, 3)))
        assert validate_linear_order(lo) == []

    @pytest.mark.parametrize("x", [[[0, 1, 0], [0, 0, 1]], [0, 1], [[[0]]]])
    def test_a_matrix_that_is_not_square_is_refused(self, x):
        with pytest.raises(DimensionMismatchError, match=r"square"):
            LinearOrder(x)

    @pytest.mark.parametrize("entry", [2, -1])
    def test_an_entry_other_than_0_or_1_is_refused(self, entry):
        with pytest.raises(InfeasibleSolutionError, match=r"0 or 1"):
            LinearOrder([[0, entry], [0, 0]])


class TestMatrixCsv:
    def test_round_trip_with_labels(self, tmp_path, college_matrix):
        path = tmp_path / "m.csv"
        write_matrix_csv(college_matrix, path)
        assert read_matrix_csv(path) == college_matrix

    @pytest.mark.parametrize("text", ["labels:A,B\n0,1\n2,0\n", "0,1.5\n0.5,0\n"])
    def test_a_byte_order_mark_is_skipped(self, tmp_path, text):
        # Excel's "CSV UTF-8" files start with U+FEFF.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        a = read_matrix_csv(plain)
        assert read_matrix_csv(marked) == a
        assert a.labels == (("A", "B") if text.startswith("labels:") else None)

    def test_round_trip_without_labels(self, tmp_path):
        a = WeightMatrix([[0, 1.5], [0.5, 0]])
        path = tmp_path / "m.csv"
        write_matrix_csv(a, path)
        assert read_matrix_csv(path) == a

    @pytest.mark.parametrize(
        "labels, bad",
        [
            (("y", "a,b"), 2),
            (("y", "a\nb"), 2),
            (("y", "a\rb"), 2),
            (("y", " x"), 2),
            (("y", "x\t"), 2),
            (("y", "\ud800"), 2),
            (("", "y"), 1),
        ],
    )
    def test_a_label_that_would_not_read_back_is_refused(self, tmp_path, labels, bad):
        path = tmp_path / "m.csv"
        a = WeightMatrix([[0, 1], [2, 0]], labels)
        named = re.escape(f"label {bad} ({labels[bad - 1]!r})")
        with pytest.raises(InvalidArgumentError, match=named):
            write_matrix_csv(a, path)
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.text(
                        st.one_of(
                            st.characters(),
                            st.sampled_from(",\n\r \t\x0b\x1c\x85\u2028\ufeff\ud800"),
                        ),
                        max_size=4,
                    ),
                    min_size=n,
                    max_size=n,
                ),
                st.lists(
                    st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                ),
            )
        )
    )
    def test_written_labels_and_weights_read_back_or_the_writer_raises(self, case):
        labels, rows = case
        w = np.array(rows)
        np.fill_diagonal(w, 0.0)
        # Divided by the entry count, twice the total stays finite.
        a = WeightMatrix(w / w.size, labels)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            try:
                write_matrix_csv(a, path)
            except InvalidArgumentError:
                assert not path.exists()
                return
            back = read_matrix_csv(path)
        assert back.labels == a.labels
        assert np.array_equal(back.weights, a.weights)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n2,0,9\n")
        with pytest.raises(MalformedInputError, match=r"line 2"):
            read_matrix_csv(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,x\n2,0\n")
        with pytest.raises(MalformedInputError, match=r"line 1"):
            read_matrix_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MalformedInputError):
            read_matrix_csv(path)

    @pytest.mark.parametrize("names", ["A,B,C", "A", ",A,B,C"])
    def test_rejects_a_labels_line_with_another_count_than_the_rows(self, tmp_path, names):
        path = tmp_path / "bad.csv"
        path.write_text(f"labels:{names}\n0,1\n2,0\n")
        count = len(names.lstrip(",").split(","))
        with pytest.raises(MalformedInputError, match=rf"{count} names for 2 rows"):
            read_matrix_csv(path)

    def test_a_leading_empty_name_is_dropped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("labels:,A,B\n0,1\n2,0\n")
        a = read_matrix_csv(path)
        assert a.labels == ("A", "B")
        assert np.array_equal(a.weights, [[0, 1], [2, 0]])


class TestProperties:
    @given(ranking_triples())
    def test_kendall_tau_is_a_metric(self, trio):
        a, b, c = trio
        assert kendall_tau_distance(a, b) == kendall_tau_distance(b, a)
        assert (kendall_tau_distance(a, b) == 0) == (a.order == b.order)
        assert kendall_tau_distance(a, c) <= kendall_tau_distance(
            a, b
        ) + kendall_tau_distance(b, c)

    @given(rankings())
    def test_encoded_orders_satisfy_constraints(self, sigma):
        assert validate_linear_order(linear_order_from_ranking(sigma)) == []

    @given(rankings())
    def test_distance_matches_linear_order_disagreements(self, sigma):
        other = reverse_ranking(sigma)
        x1 = linear_order_from_ranking(sigma).x
        x2 = linear_order_from_ranking(other).x
        upper = np.triu_indices(sigma.n, k=1)
        assert kendall_tau_distance(sigma, other) == int(
            (x1[upper] != x2[upper]).sum()
        )

    @settings(max_examples=40)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(0, 10).map(lambda v: v / 2), min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                ),
                st.permutations(list(range(1, n + 1))),
            )
        )
    )
    def test_objective_complement_and_permute_invariants(self, case):
        rows, order = case
        n = len(order)
        arr = np.array(rows, dtype=float)
        np.fill_diagonal(arr, 0.0)
        a = WeightMatrix(arr)
        sigma = ranking_from_order(order)
        forward = objective_value(a, sigma)
        backward = objective_value(a, reverse_ranking(sigma))
        assert forward + backward == pytest.approx(a.total_sum())
        b = permute_matrix(a, sigma)
        assert sorted(b.weights.flatten()) == sorted(a.weights.flatten())
        assert upper_triangular_sum(b) == pytest.approx(forward)
