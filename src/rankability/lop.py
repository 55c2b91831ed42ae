"""Exact solver for the linear ordering problem.

solve_lop finds a permutation maximizing the sum of pairwise weights
ranked in agreement, by branch and bound over ranking prefixes with an
admissible pairwise bound and dominance on the set of unplaced items,
started from an insertion heuristic's incumbent. Also provides the exact
subset completion table that the witness, enumeration and pair searches
share, the table-free witness search above the table budget, enumeration
of all optimal rankings, and the degree of linearity. The witness search
and the enumeration keep a prefix as its unplaced set and one scalar, and
read each child's bound from split row sums in two lookups, for every
weight type. So does the value proof when every sum of the weights is
exact, as layered numpy passes over the visits of a depth-first search
with a dominance memo, with that search's value, order and counts
(value.prove_value). Only _SplitRows knows how those sums are laid out:
its one kernel forms the children of numpy arrays of states, and one
scalar descent (_descend) places the canonical witness's items. For other
weights the value search is that depth-first search itself, and keeps
the incremental state with O(n) apply/undo per move, since the value it
reports is that state's (_Search).

Above the table budget, the canonical witness reads, for each child it
tries, the answer of the search for a completion and the nodes and
pruned that search counts without a memo, which depend on the child's
state (unplaced set, bound) alone (witness.WitnessLayers). Where few
prefixes tie at the optimum one layered numpy pass finds them for every
state that reaches the target: forward over those states, linking each
child to its state in the next layer once, then backward along those
links for each state's answer and counts. Where many do, the pass stops
at its budget and that search itself answers, memoized on the state.

The heuristic (heuristic_ranking) runs its 17 starts together as numpy
arrays: one greedy insertion pass, then insertion local search steps that
each read a window of every start's positions and move each start's first
gaining item. Every sum it compares is a cumsum over the terms the scalar
loops add, in their order, with masked terms exactly 0.0, so its orders
and values are those loops' bit for bit.

The completion table is a subset dynamic program read as a grid, a set's
high items picking the row and its low items the column; it is filled one
layer of rows at a time, each item's term one numpy operation over whole
rows or over every row of the layer, from the split row sums the searches
read (_build_completion_table).

The optima come from one walk for both routes, with the table and above
its budget without (_walk_optima): depth first over chunks of prefixes of
one depth, every child of a chunk formed, bounded and kept by numpy
operations over the whole chunk, with the additions of a search over one
prefix at a time, so the orders and the truncated flag are that search's
for every weight type. The kept children come out in lexicographic order
and are walked before the rest of their parents' chunk, so the optima
arrive sorted, held as one small-integer array rather than a tuple each.

enumerate_optima, degree_of_linearity and the kappa and season routines
need only the proven value k*, not a witness. Inside the table budget
with exact sums they read it from the completion table, and run neither
the heuristic nor the branch and bound; elsewhere they run solve_lop's
value phase without its witness search.
"""

from __future__ import annotations

import functools
import numbers
import time
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .core import Ranking, WeightMatrix, _integral, ranking_from_order
from .errors import (
    InvalidArgumentError,
    MalformedPermutationError,
    RankabilityError,
    TooManyItemsError,
    UndefinedMetricError,
    UnprovenOptimumError,
)

__all__ = [
    "SolverConfig",
    "SearchStats",
    "LopResult",
    "OptimaSet",
    "DEFAULT_CONFIG",
    "solve_lop",
    "heuristic_ranking",
    "prefix_upper_bound",
    "enumerate_optima",
    "degree_of_linearity",
]

# Building a completion table holds 2^n * 8 bytes of table, the split row
# sums (2 * n * 2^ceil(n/2) * 8 bytes) and work arrays the size of a few of
# the table's row layers. At n = 18 the build's traced peak is about
# 4.5 MiB for every weight type; afterwards the matrix keeps the table, an
# array of 2 MiB, and the split row sums as gain rows for the table-side
# searches, 144 KiB.
_TABLE_MAX_N = 18

# The most items the searches on split row sums take (_split_row_sums):
# those hold 8 n (2^floor(n/2) + 2^ceil(n/2)) bytes, 0.67 GB at n = 40 and
# about twice as much for every two items more, and keep unplaced sets as
# int64 (value.py) and in complex keys, exact below 2^53 (witness.py).
_MAX_ITEMS = 40

# Dominance memo entries of the depth-first value search for weights whose
# sums are not exact are dropped beyond this to bound its memory on large n.
_MEMO_CAP = 1 << 22

# The bound's starting sum counts every pair's larger weight twice, so
# with weights in halves and a total below 2^51 every sum the search forms
# is a multiple of 1/2 below 2^52 and exact in a double.
_EXACT_TOTAL = 2.0**51

# The heuristic's randomized restarts and their seed. They shape only the
# branch and bound's incumbent, so only solve_lop's stats and the run
# time: never k*, the canonical ranking or the optima.
_HEURISTIC_RESTARTS = 16
_HEURISTIC_SEED = 0

# Positions of each start that one batched step of the heuristic reads
# (_local_search_batch); at n <= 16 a step reads a whole pass. A
# smaller window reads fewer positions after a move and a larger one takes
# fewer steps: on a 2-vCPU x86-64 host 16 ran about as fast as whole passes
# at n = 14 to 22, and on a uniform n = 200 matrix took 0.8 s of CPU where
# whole passes took 7.3 s and the scalar loops 3.2 s.
_HEURISTIC_WINDOW = 16

# The heuristic runs its starts in chunks, at least one start each, whose
# arrays stay within this many bytes: a local search step holds about
# _STEP_ARRAYS arrays of n * window entries per start, and the fold of the
# objectives _VALUE_ARRAYS arrays of n(n-1)/2, 8 bytes an entry. All 17
# starts fit one chunk up to n = 143.
_HEURISTIC_CHUNK_BYTES = 1 << 22
_STEP_ARRAYS = 5
_VALUE_ARRAYS = 3

# The optima walk expands one chunk of prefixes at a time, at most as many
# as keep its children's work arrays, about _WALK_ARRAYS arrays of 8 bytes
# a child, within this many bytes (_walk_optima). Besides, each depth holds
# the rest of at most one chunk's children, a row each of n + 8 (k - 1) + 16
# bytes with k items left. On a 2-vCPU x86-64 host, 2^18 and 2^22 bytes
# were no faster on inputs with many optima, and up to 1.4 times slower.
# The value passes form children in blocks within the same bytes (value.py).
_WALK_CHUNK_BYTES = 1 << 20
_WALK_ARRAYS = 12

# No layer of the value proof (value.py) holds more states than this, and
# the table-free witness pass (witness.py) holds at most this many times
# 33 bytes, 138 MB, at 33 + 4n bytes a state, its key, results and links.
# Past that the witness's memoized search answers, which holds an eighth
# as many states, at about 215 bytes a state. A value layer or a memo
# that would hold more raises _Timeout, and solve_lop reports its
# incumbent with proven=False.
_MAX_STATES = 1 << 22


@dataclass(frozen=True)
class SolverConfig:
    """Limits shared by every exact search in the package.

    The search is single-threaded and its heuristic restarts from a fixed
    seed, so reported witnesses and statistics are reproducible by
    construction. Which objective values count as equal is not set here:
    the comparison slack is worked out from the matrix (_slack).
    """

    time_limit: float | None = None
    enumeration_cap: int = 1_000_000

    def __post_init__(self):
        limit, cap = self.time_limit, self.enumeration_cap
        # bool passes both number checks, and True would run as 1.
        if limit is not None and (
            isinstance(limit, bool) or not (isinstance(limit, numbers.Real) and limit > 0)
        ):
            raise InvalidArgumentError("time_limit must be a positive number when set")
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise InvalidArgumentError("enumeration_cap must be an integer of at least 1")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class SearchStats:
    """Search effort counters; wall_time covers the whole public call."""

    nodes: int
    pruned: int
    wall_time: float
    heuristic_value: float


@dataclass(frozen=True)
class LopResult:
    optimal_value: float
    ranking: Ranking
    proven: bool
    stats: SearchStats


@dataclass(frozen=True)
class OptimaSet:
    """All optimal rankings, sorted lexicographically by order form.

    truncated is set when more optima exist than the enumeration cap, or
    when the time limit stopped the search before it was exhausted; a
    complete set of exactly cap rankings is not truncated.
    """

    rankings: tuple[Ranking, ...]
    truncated: bool

    @property
    def count(self) -> int:
        return len(self.rankings)


class _Timeout(Exception):
    pass


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise _Timeout


def _deadline(cfg: SolverConfig) -> float | None:
    """When a call starting now must stop under cfg.time_limit."""
    return None if cfg.time_limit is None else time.monotonic() + cfg.time_limit


def _remaining(cfg: SolverConfig, deadline: float | None) -> SolverConfig:
    """cfg with its time limit cut to the time left before deadline.

    Raises:
        UnprovenOptimumError: once the deadline has passed.
    """
    if deadline is None:
        return cfg
    left = deadline - time.monotonic()
    if not left > 0:
        raise UnprovenOptimumError("the time limit passed before the call finished")
    return replace(cfg, time_limit=left)


def _exact_sums(a: WeightMatrix) -> bool:
    """Whether every sum of the matrix's weights is exact in floating point.

    True when every weight is a multiple of 1/2 and the total stays below
    _EXACT_TOTAL. Then the search state after placing a set of items does
    not depend on the order they were placed in, or on apply/undo cycles.
    """
    doubled = 2.0 * a.weights
    # With every weight in halves, sums below 2^52 are exact in any order.
    return np.array_equal(doubled, np.round(doubled)) and a.total_sum() < _EXACT_TOTAL


def _slack(a: WeightMatrix) -> float:
    """How far apart two objective sums of the matrix may be and still tie.

    Every search, the heuristic and the validator compare through this one
    value. It is 0 when _exact_sums holds, since then every sum is exact.
    """
    if _exact_sums(a):
        return 0.0
    # Every sum or bound the searches compare is built from about 4 n^2
    # roundings, each of a value below twice the total in magnitude and off
    # by at most 2^-53 of it, so two computations of one objective differ
    # by less than about n^2 * 2^-49 of the total; a bound from split row
    # sums adds n row sums of at most n terms each to a start or table
    # entry of as many. The slack is 2^9 times that, room for the rounding
    # that the value search's apply/undo cycles accumulate. It scales
    # with the weights, so ties are decided alike at every scale.
    total = a.total_sum()
    slack = total * a.n * a.n * 2.0**-40
    if slack == np.inf:
        # total * n * n overflowed. Scaling by the power of two first keeps
        # the product finite for every finite total; where both orders are
        # finite and normal they give the same bits.
        slack = total * 2.0**-40 * a.n * a.n
    return slack


def _float_rows(a: WeightMatrix) -> list[list[float]]:
    return [[float(x) for x in row] for row in a.weights]


def _fold(values: Iterable[float]) -> float:
    """The sum of values, added left to right from 0.0.

    Builtin sum() adds so before Python 3.12; from 3.12 it compensates its
    rounding, so the last bits of a sum of floats would depend on the
    Python version.
    """
    total = 0.0
    for x in values:
        total += x
    return total


class _Search:
    """Prefix DFS over rankings, in one of two state forms.

    f is the weight already decided (prefix-prefix plus prefix-remaining
    pairs), u is the sum of max(a_ij, a_ji) over remaining pairs; f + u is
    an admissible upper bound on any completion of the current prefix.

    The unplaced-set form keeps a search state as the unplaced set and one
    scalar, and reads a child's term in two lookups in split row sums, at
    the halves of the parent's unplaced set (_SplitRows). Bound-side
    searches keep g = f + u; placing v next adds the row sum of v's drop
    row, w - max(w, w.T), over the items left after it (self.drops), and
    g == f at a leaf. Table-side searches keep f; placing v next adds v's
    gain row sum, the split row sums of w kept with the table
    (_Completion.gains).

    The witness search takes this form for every weight type, as does the
    optima walk (_walk_optima) over whole chunks of prefixes, since they
    report only orders, chosen within the slack. The value
    search takes it when _exact_sums holds (self.exact), where every such
    sum is exact, as the layered passes of value.prove_value. Otherwise it
    keeps apply/undo with O(n) updates of per-item sums per move (s_a and
    s_m, built on first use): the last bits of f depend on the order of
    the additions and subtractions that led to it, and solve_lop reports
    f, so only that sequence reproduces it.

    Every search stops early one way, by raising _Timeout: the depth-first
    value search (_rec_value) checks the deadline every 256 expanded nodes
    (_tick), the layered passes (value.prove_value and
    witness.WitnessLayers) before every block of states, the value passes
    also when a layer would hold more than _MAX_STATES states, and the
    witness's memoized search every 1024 states and past _MAX_STATES >> 3
    of them.
    """

    def __init__(self, a: WeightMatrix, deadline: float | None = None):
        n = a.n
        self.matrix = a
        self.n = n
        self.eps = _slack(a)
        self.exact = _exact_sums(a)
        self.deadline = deadline
        self.nodes = 0
        self.pruned = 0
        self._expanded = 0
        # The order the value search tries children in.
        self.child_order = list(range(n))
        self.memo: dict[int, float] = {}
        self.best_val = float("-inf")
        self.best_order: list[int] = []
        # u at the root: half the fold of s_m. cumsum adds each row of pair
        # maxima left to right from a leading 0.0, as _fold does; the
        # diagonal's zero leaves every partial sum of nonnegative weights as
        # it is.
        w = a.weights
        pair_max = np.concatenate([np.zeros((n, 1)), np.maximum(w, w.T)], axis=1)
        self._root_u = _fold(pair_max.cumsum(axis=1)[:, -1].tolist()) / 2.0
        self.reset()

    @functools.cached_property
    def drops(self) -> _SplitRows:
        """Split row sums of w - max(w, w.T), built for the first bound-side search."""
        w = self.matrix.weights
        return _split_row_sums(w - np.maximum(w, w.T))

    def reset(self) -> None:
        """Back to the root, with no item placed and s_a and s_m unbuilt."""
        self.in_rem = [True] * self.n
        self.rem_mask = (1 << self.n) - 1
        self.prefix: list[int] = []
        self.f, self.u = 0.0, self._root_u
        self.__dict__.pop("s_a", None)
        self.__dict__.pop("s_m", None)

    # The per-item sums and weight lists of the apply/undo moves, built at
    # the root on first use: only the value search without exact sums,
    # prefix_upper_bound and the kappa pair search read them.

    @functools.cached_property
    def w(self) -> list[list[float]]:
        return _float_rows(self.matrix)

    @functools.cached_property
    def pair_max(self) -> list[list[float]]:
        w, n = self.w, self.n
        return [
            [w[i][j] if w[i][j] >= w[j][i] else w[j][i] for j in range(n)]
            for i in range(n)
        ]

    @functools.cached_property
    def s_a(self) -> list[float]:
        """Each unplaced item's weight over the other unplaced items, as folds."""
        w, n = self.w, self.n
        return [_fold(w[v][r] for r in range(n) if r != v) for v in range(n)]

    @functools.cached_property
    def s_m(self) -> list[float]:
        """Each unplaced item's pair maxima over the other unplaced items, as folds."""
        pm, n = self.pair_max, self.n
        return [_fold(pm[v][r] for r in range(n) if r != v) for v in range(n)]

    def apply(self, v: int) -> None:
        w = self.w
        pm = self.pair_max
        in_rem = self.in_rem
        s_a = self.s_a
        s_m = self.s_m
        self.f += s_a[v]
        self.u -= s_m[v]
        in_rem[v] = False
        self.rem_mask ^= 1 << v
        for r in range(self.n):
            if in_rem[r]:
                s_a[r] -= w[r][v]
                s_m[r] -= pm[r][v]
        self.prefix.append(v)

    def undo(self) -> None:
        v = self.prefix.pop()
        w = self.w
        pm = self.pair_max
        in_rem = self.in_rem
        s_a = self.s_a
        s_m = self.s_m
        for r in range(self.n):
            if in_rem[r]:
                s_a[r] += w[r][v]
                s_m[r] += pm[r][v]
        in_rem[v] = True
        self.rem_mask |= 1 << v
        self.f -= s_a[v]
        self.u += s_m[v]

    def _tick(self) -> None:
        self._expanded += 1
        if (
            self.deadline is not None
            and (self._expanded & 255) == 0
            and time.monotonic() > self.deadline
        ):
            raise _Timeout

    # -- optimal value ---------------------------------------------------

    def run_value(self, start_order: list[int], start_value: float) -> bool:
        """Prove the maximum objective from a known incumbent; True on timeout.

        Tries children in the incumbent's order. With exact sums the
        layered passes of value.prove_value run the search.
        """
        self.best_val = start_value
        self.best_order = list(start_order)
        self.child_order = list(start_order)
        try:
            if self.exact:
                # Imported here, so that only a value search with exact
                # sums compiles and loads the passes.
                from .value import prove_value

                prove_value(self)
            else:
                self._rec_value()
            return False
        except _Timeout:
            return True
        finally:
            # Nothing reads the dominance memo after the value search: free
            # it before the witness search.
            self.memo = {}

    def _rec_value(self) -> None:
        self.nodes += 1
        self._tick()
        if self.rem_mask == 0:
            if self.f > self.best_val + self.eps:
                self.best_val = self.f
                self.best_order = self.prefix.copy()
            return
        # Dominance: an earlier visit of the same remaining set with at
        # least this much decided weight already covered every completion.
        seen = self.memo.get(self.rem_mask)
        if seen is not None and self.f <= seen + self.eps:
            self.pruned += 1
            return
        if len(self.memo) < _MEMO_CAP:
            self.memo[self.rem_mask] = self.f
        for v in self.child_order:
            if self.in_rem[v]:
                bound = self.f + self.s_a[v] + self.u - self.s_m[v]
                if bound <= self.best_val + self.eps:
                    self.pruned += 1
                else:
                    self.apply(v)
                    self._rec_value()
                    self.undo()

    # -- canonical witness -------------------------------------------------

    def lex_min_witness(self, k_star: float) -> list[int] | None:
        """Lexicographically smallest order attaining k_star, or None if none does.

        Places, position by position, the smallest item whose child still
        reaches k_star within the slack: by the completion table when there
        is one, else by the search for a completion, read from one layered
        pass over its states or from that search memoized on its state
        (witness.WitnessLayers), whose nodes and pruned it adds for every
        child it tries. Every weight type takes this route. Raises
        _Timeout when the deadline passes first or the pass or the memo
        would hold more states than its cap.
        """
        self.reset()
        target = k_star - self.eps
        completion = _completion(self.matrix, self.deadline)
        if completion is None:
            # Imported here, so that only a witness search without a table
            # loads it. Without cached bytecode Python compiles a module on
            # import, and the heap that takes stays in use: with the passes
            # inside lop.py the bnb-large runs peaked 0.3-0.5 MB higher.
            from .witness import WitnessLayers

            return WitnessLayers(self, target).descend()

        def reaches(t: int, child: float) -> bool:
            return child + completion.table[t] >= target

        return _descend(completion.gains, self.rem_mask, self.f, self.prefix, reaches)


def _descend(
    rows: _SplitRows, rem: int, x: float, prefix: list[int], reaches: Callable
) -> list[int] | None:
    """prefix completed by the smallest items that reach, from unplaced set rem.

    Each position takes the smallest unplaced item v whose child, scalar x
    plus v's row sum, passes reaches(rem without v, child). Returns a copy
    of the full prefix, or None where no child passes.
    """
    lo, hi = rows.lo, rows.hi
    while rem:
        low, high = rem & rows.low, rem >> rows.h
        for v, bit, at_lo, at_hi in rows.items:
            if rem & bit:
                t = rem ^ bit
                child = x + (lo[at_lo + low] + hi[at_hi + high])
                if reaches(t, child):
                    break
        else:
            return None
        prefix.append(v)
        rem, x = t, child
    return prefix.copy()


def _row_sums(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    r"""rowsum[v, T]: the weight row v gains over T, for each set T of w's columns.

    Adds the weights of T from its highest item down, so the sums equal the
    scalar recurrence rowsum[v, T] = rowsum[v, T \ low(T)] + w[v, low(T)]
    bit for bit. Fills and returns out when given, which must hold zeros.
    """
    n, m = w.shape
    size = 1 << m
    rowsum = np.zeros((n, size)) if out is None else out
    for b in range(m - 1, -1, -1):
        # Sets whose lowest item is b: the same set without b, plus w[:, b].
        blocks = rowsum.reshape(n, size >> (b + 1), 2 << b)
        np.add(blocks[:, :, 0], w[:, b, None], out=blocks[:, :, 1 << b])
    return rowsum


class _SplitRows(NamedTuple):
    r"""A matrix w's row sums split at h = floor(n/2), and the one owner of their layout.

    lo[v, S] is row v's sum over each set S of the low h items, hi[v, S]
    over each set S of the others, flat in lo and hi and the same memory in
    numpy as lo_view and hi_view. A search placing v from unplaced set rem
    reads v's sum over rem \ v as lo[at_lo[v] + (rem & low)] + hi[at_hi[v]
    + (rem >> h)], with at_lo[v] = v << h, at_hi[v] = v << (n - h) and
    low = 2^h - 1: each half is read at its part of rem, which holds v in
    v's own half. items holds each (v, 1 << v, at_lo[v], at_hi[v]) in
    ascending v for the scalar loops; the numpy searches call children().
    """

    lo: array[float]
    hi: array[float]
    lo_view: np.ndarray
    hi_view: np.ndarray
    h: int
    low: int
    items: list[tuple[int, int, int, int]]
    at_lo: np.ndarray
    at_hi: np.ndarray

    def children(
        self, rem: np.ndarray, x: np.ndarray, at_lo: np.ndarray, at_hi: np.ndarray
    ) -> np.ndarray:
        """x plus each item's row sum over rem without it; -inf if it is not in rem.

        rem and x broadcast against the items' starts at_lo and at_hi, taken
        from self.at_lo and self.at_hi. The halves are added first and x
        after them, as in the scalar loops, so every child has their bits.
        """
        # Every index is in range, so mode="wrap" changes no entry; with
        # numpy 2.4 on a 2-vCPU x86-64 host it took about a tenth faster
        # than the default bounds check.
        at = at_lo + (rem & self.low)
        child = self.lo_view.take(at, mode="wrap")
        np.add(at_hi, rem >> self.h, out=at)
        child += self.hi_view.take(at, mode="wrap")
        child += x
        return child


def _split_row_sums(w: np.ndarray) -> _SplitRows:
    r"""w's row sums split at h = floor(n/2), as _SplitRows.

    A search reads each half at its part of rem, which holds v in v's own
    half (_SplitRows). So in v's own half row v is shifted to hold at a set
    with v the sum over that set without v, and -inf at a set without v;
    every other row is unshifted, and the sum has the bits of
    lo[v, T & low] + hi[v, T >> h] at T = rem \ v.

    The searches index them one entry at a time, as fast as a list of
    Python floats in 8 bytes an entry instead of about 32, and numpy reads
    them without a copy. Only when _exact_sums holds does the sum of the
    two halves equal, bit for bit, the same sum added in any other order;
    otherwise it is within the rounding that _slack allows for, which is
    all the completion table, the witness search and the enumeration need
    of it.

    Raises:
        TooManyItemsError: above _MAX_ITEMS items, before any allocation.
    """
    n = w.shape[0]
    if n > _MAX_ITEMS:
        raise TooManyItemsError(
            f"the exact searches take at most {_MAX_ITEMS} items, got n={n}"
        )
    h = n // 2
    halves = []
    for first, part in ((0, w[:, :h]), (h, w[:, h:])):
        flat = array("d", [0.0]) * (n << part.shape[1])
        sums = np.frombuffer(flat).reshape(n, -1)
        _row_sums(part, sums)
        for bit in range(part.shape[1]):
            pairs = sums[first + bit].reshape(-1, 2, 1 << bit)
            pairs[:, 1] = pairs[:, 0]
            pairs[:, 0] = -np.inf
        halves.append((flat, sums.ravel()))
    (lo, lo_view), (hi, hi_view) = halves
    v = np.arange(n)
    at_lo, at_hi = v << h, v << (n - h)
    items = list(zip(range(n), (1 << v).tolist(), at_lo.tolist(), at_hi.tolist()))
    return _SplitRows(lo, hi, lo_view, hi_view, h, (1 << h) - 1, items, at_lo, at_hi)


class _Completion(NamedTuple):
    """A matrix's exact completion table and its gain rows.

    gains are the split row sums of w (_split_row_sums) that the table was
    built from, kept for the table-side witness search and enumeration.
    """

    table: array[float]
    gains: _SplitRows


class _Subsets(NamedTuple):
    """The subsets of m items by size, with each (set, member) pair.

    layers[k] is (sets, items, rests, owners): the C(m, k) sets of size k
    in increasing order, and for every pair of a set and one of its
    members, the member, the set without it and the set itself. Pairs run
    member position first: pair t * C(m, k) + s is sets[s] with its t-th
    lowest member, so a max over members is a max over axis 0 of shape
    (k, C(m, k)).

    order lists all 2^m sets by size, layer after layer, and position is
    its inverse: position[S] is S's index in order. Layer k's sets are
    order[starts[k]:starts[k + 1]].
    """

    layers: tuple[tuple[np.ndarray, ...], ...]
    order: np.ndarray
    position: np.ndarray
    starts: tuple[int, ...]


@functools.lru_cache(maxsize=None)
def _subsets(m: int) -> _Subsets:
    """_Subsets of m items, m <= 9: weight-free, shared by every build."""
    sets = np.arange(1 << m)
    sizes = np.bitwise_count(sets)
    layers = []
    for k in range(m + 1):
        layer = sets[sizes == k]
        items = np.nonzero((layer[:, None] >> np.arange(m)) & 1)[1].reshape(layer.size, k)
        layers.append((
            layer,
            items.T.ravel(),
            (layer[:, None] ^ (1 << items)).T.ravel(),
            np.tile(layer, k),
        ))
    order = np.concatenate([arrays[0] for arrays in layers])
    position = np.empty_like(order)
    position[order] = sets
    for x in (order, position, *(x for arrays in layers for x in arrays)):
        x.flags.writeable = False
    starts = np.cumsum([0] + [arrays[0].size for arrays in layers]).tolist()
    return _Subsets(tuple(layers), order, position, tuple(starts))


def _build_completion_table(w: np.ndarray, deadline: float | None) -> _Completion:
    r"""table[S] = best objective an ordering of item set S can add.

    Subset dynamic program: table[S] is the best over v in S of placing v
    above the rest of S, worth rowsum[v, S \ v] + table[S \ v], where
    rowsum[v, T] is the weight v gains over the items of T.

    The table is read as a grid T[B, A] of 2^(n-h) rows by 2^h columns,
    h = floor(n/2): S = B * 2^h + A, with A the set's low items and B its
    high ones. The grid is filled one row layer, the rows B of one size,
    at a time, in two terms:

    - High items: placing j in B leaves row B \ j of the layer before, so
      the term covers every A in whole-row operations, one per member
      position of B over all rows of the layer. Their best starts the
      layer.
    - Low items: for each size of A in turn, placing i in A leaves column
      A \ i of the same rows, filled one size earlier, so one gather over
      all (A, i) pairs and all rows of the layer adds the term. For this
      term the layer's columns are held by size (_Subsets.order), so each
      size is one slice. i's gain over the row's high items is a gather
      from the layer's small block of low items' row sums; its gain over
      A \ i is the same for every row and is gathered once per build.

    The (set, member) pairs come from _subsets. The row sums are the split
    row sums of w (_split_row_sums), built once and returned as the gain
    rows: rowsum[v, S \ v] = lo[v, A] + hi[v, B], read at the parent set,
    since v's own half holds there its sum without v. Each step adds the
    row sum first and table[rest] after it, as the scalar recurrence does.
    When every sum of the weights is exact (_exact_sums), any order of
    adding them gives the same bits, so the table equals
    tests/oracles.py::completion_table_loop bit for bit; otherwise its
    entries are within the rounding that _slack allows for, and every
    reader compares them within it.

    Returns the table as an array('d'), which the searches index one entry
    at a time. Raises _Timeout before any step of the grid, the high term
    of a layer or one size of A, once the deadline has passed.
    """
    n = w.shape[0]
    gains = _split_row_sums(w)
    h = gains.h
    m = n - h
    # The DP fills the returned array in place, through a numpy view of it.
    out = array("d", [0.0]) * (1 << n)
    grid = np.frombuffer(out).reshape(1 << m, 1 << h)
    lo = gains.lo_view.reshape(n, 1 << h)
    hi = gains.hi_view.reshape(n, 1 << m)
    low = _subsets(h)
    # For each size a of A: its columns by size; for each (A, i) pair, i,
    # the column of A \ i, and i's gain over A \ i.
    low_steps = [
        (
            slice(low.starts[a], low.starts[a + 1]),
            items,
            low.position[rests],
            lo[items, owners],
        )
        for a, (_, items, rests, owners) in enumerate(low.layers)
        if a
    ]
    # Layer 0 is the row of the empty high set: the empty set adds 0, and
    # the low-item steps fill the rest of the row.
    layer = np.full((1, 1 << h), -np.inf)
    layer[0, 0] = 0.0
    for b, (rows, items, rests, _) in enumerate(_subsets(m).layers):
        _check_deadline(deadline)
        count = rows.size
        for t in range(b):
            pairs = slice(t * count, (t + 1) * count)
            v = h + items[pairs]
            # v's gains over every A, then over B \ v at each row B.
            gain = lo.take(v, axis=0)
            gain += hi[v, rows][:, None]
            gain += grid.take(rests[pairs], axis=0)
            if t == 0:
                layer = gain
            else:
                np.maximum(layer, gain, out=layer)
        # Columns by size for the low-item steps, each size one slice; the
        # store puts them back in set order.
        layer = layer.take(low.order, axis=1)
        # Each low item's gain over the high items of each row B.
        high_part = hi[:h, rows].T
        for a, (cols, low_items, low_rests, low_gain) in enumerate(low_steps, 1):
            _check_deadline(deadline)
            # i's gain over each row B of the layer (axis 0), then over
            # A \ i at each pair (axis 1).
            gain = high_part.take(low_items, axis=1)
            gain += low_gain
            gain += layer.take(low_rests, axis=1)
            best = layer[:, cols]
            np.maximum(best, gain.reshape(count, a, -1).max(axis=1), out=best)
        grid[rows] = layer.take(low.position, axis=1)
    return _Completion(out, gains)


def _completion(a: WeightMatrix, deadline: float | None) -> _Completion | None:
    """The matrix's exact completion table, or None above _TABLE_MAX_N.

    Built on first use and kept on the matrix, so every solve of one
    matrix shares a single table, which callers only read. Raises
    _Timeout once the deadline has passed, also when the table already
    exists, so that a search phase starting after its deadline does no
    work.
    """
    if a.n > _TABLE_MAX_N:
        return None
    _check_deadline(deadline)
    if a._completion is None:
        a._completion = _build_completion_table(a.weights, deadline)
    return a._completion


@functools.lru_cache(maxsize=16)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs p < q of n positions in row-major order, as two index arrays."""
    above, below = np.triu_indices(n, 1)
    above.flags.writeable = False
    below.flags.writeable = False
    return above, below


def _order_values(w: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """The objective of each row of orders, bit for bit as a scalar loop adds it.

    The loop starts from 0.0 and adds w[o_p, o_q] for every p < q in
    row-major pair order; one cumsum over the same terms makes the same
    additions in the same order. Adding 0.0 at the end turns the -0.0 that
    a -0.0 weight can leave into the loop's 0.0 and changes nothing else.
    """
    n = w.shape[0]
    above, below = _pairs(n)
    index = orders[:, above]
    index *= n
    index += orders[:, below]
    pairs = w.ravel().take(index, mode="clip")
    del index
    return np.cumsum(pairs, axis=1)[:, -1] + 0.0


def _greedy_batch(ww: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Greedy insertion of each row of items, all rows in one pass; the orders.

    ww stacks the weights and their transpose, flattened: ww[:, v * n + u]
    is (w[v, u], w[u, v]). Step k places each row's k-th item v before
    position p of its order where that gains most: v gains w[v, u] over
    every placed u, and each u it moves below adds w[u, v] - w[v, u]. One
    cumsum over those 2k terms gives every position's gain (position p at
    entry k - 1 + p), added in the order of the scalar loop, whose strict
    test keeps the first best position, as argmax does.
    """
    count, n = items.shape
    orders = np.empty_like(items)
    orders[:, 0] = items[:, 0]
    gains = np.empty((count, 2 * n))
    rows = np.arange(count)
    cols = np.arange(1, n)
    for k in range(1, n):
        placed = orders[:, :k]
        pair = ww.take(items[:, k, None] * n + placed, axis=1, mode="clip")
        seq = gains[:, : 2 * k]
        seq[:, :k] = pair[0]
        np.subtract(pair[1], pair[0], out=seq[:, k:])
        np.cumsum(seq, axis=1, out=seq)
        at = seq[:, k - 1 :].argmax(axis=1)
        np.copyto(orders[:, 1 : k + 1], placed, where=cols[:k] > at[:, None])
        orders[rows, at] = items[:, k]
    return orders


def _first_move(
    gains: np.ndarray,
    current: list[float],
    flags: list[bool],
    slots: range,
    top: int,
    slack: float,
) -> tuple[int, int] | None:
    """The first flagged slot in slots whose item moves, and the position it moves to.

    Slot b holds the item at position top + b of its order; gains[:, b] are
    its n + 1 insertion gains, the gain at position p at entry p up to its
    own position and at entry p + 1 after it (entry top + b + 1 repeats the
    gain of staying). The scalar record rule runs on them: the item moves
    to the last position that beats the best so far, starting from
    current[b], by more than slack.
    """
    b = slots.start
    while True in flags[b : slots.stop]:
        b = flags.index(True, b, slots.stop)
        at = top + b
        best = current[b]
        best_j = -1
        for j, gain in enumerate(gains[:, b].tolist()):
            if gain > best + slack:
                best = gain
                best_j = j
        if best_j >= 0:
            target = best_j if best_j <= at else best_j - 1
            if target != at:
                return b, target
        b += 1
    return None


def _local_search_batch(
    ww: np.ndarray, orders: np.ndarray, slack: float, window: int
) -> None:
    """Insertion local search on every row of orders at once, in place.

    Each order is scanned position by position, as the scalar loop does:
    the item there moves to its best position when that gains more than
    slack over its current contribution (a gain within slack may be
    rounding alone, and taking it can cycle); the scan goes on after that
    position; a pass that moved an item starts another from the top, and
    a pass that moved none ends the search.

    A step reads the window positions after each active order's scan
    pointer (wrapping into the next pass) as arrays of shape (n, orders,
    window), item v at position i reading u = order[q] for every q:

    - current, the weight v gains in place: w[u, v] over q < i plus
      w[v, u] over q > i, each folded from 0 by its own cumsum over the
      terms with the others masked to 0.0;
    - the insertion gains: one cumsum over w[v, u] for every q (0.0 at
      q = i), then w[u, v] - w[v, u] for every q (0.0 at q = i).

    cumsum adds left to right and adding 0.0 changes no sum (-0.0 aside,
    which compares equal), so these are the scalar loop's sums bit for bit
    and every comparison decides alike. A slot is a mover when some gain
    beats current by more than slack; the first mover of each order is
    checked by the record rule (_first_move) and moved, and positions
    after it are read again from the changed order in the next step.
    """
    count, n = orders.shape
    scan = [0] * count
    improved = [False] * count
    active = list(range(count))
    q = np.arange(n)
    # The positions a step reads from each scan pointer, and sides[0][q, i]
    # 1.0 where q < i, sides[1][q, i] where q > i.
    windows = (q[:, None] + np.arange(window)) % n
    sides = np.array([q[:, None] < q, q[:, None] > q], dtype=float)
    while active:
        size = len(active)
        view = orders[active]
        at = windows[[scan[r] for r in active]]
        items = view.ravel().take(at + (np.arange(size) * n)[:, None])
        # seq[:n] = w[v, u] and seq[n:] = w[u, v] for u = order[q] at row q.
        # Every index is in range, so mode="clip" only spares take the
        # bounds check and the copy it makes of out.
        seq = np.empty((2 * n, size, window))
        index = view.T[:, :, None] + items * n
        ww.take(index, axis=1, out=seq.reshape(2, n, size, window), mode="clip")
        del index
        # parts[0] = w[u, v] above v and parts[1] = w[v, u] below it.
        parts = sides.take(at, axis=2, mode="clip")
        parts *= seq.reshape(2, n, size, window)[::-1]
        np.cumsum(parts, axis=1, out=parts)
        current = parts[0, -1] + parts[1, -1]
        np.subtract(seq[n:], seq[:n], out=seq[n:])
        np.cumsum(seq, axis=0, out=seq)
        deltas = seq[n - 1 :]
        movers = (deltas.max(axis=0) > current + slack).tolist()
        current = current.tolist()
        still = []
        for column, r in enumerate(active):
            top = scan[r]
            gains, cur, flags = deltas[:, column], current[column], movers[column]
            # Slots up to the end of the pass; the rest wrap into the next.
            tail = min(window, n - top)
            move = _first_move(gains, cur, flags, range(tail), top, slack)
            if move is None and top + tail == n:
                if not improved[r]:
                    continue
                improved[r] = False
                wrapped = range(tail, window)
                move = _first_move(gains, cur, flags, wrapped, top - n, slack)
            if move is None:
                scan[r] = (top + window) % n
                still.append(r)
                continue
            b, target = move
            at_b = (top + b) % n
            order = orders[r].tolist()
            order.insert(target, order.pop(at_b))
            orders[r] = order
            # The scan goes on after the moved position; past the last
            # position the pass ends, having moved an item.
            scan[r] = (at_b + 1) % n
            improved[r] = at_b + 1 < n
            still.append(r)
        active = still


def heuristic_ranking(a: WeightMatrix) -> Ranking:
    """Strong feasible ranking: greedy insertion plus insertion local search.

    Runs from the net-wins order and _HEURISTIC_RESTARTS random orders from
    a fixed seed, so it is deterministic. The returned ranking's objective
    is at least total_sum(a) / 2, by taking the better of the final order
    and its reverse.

    All starts run together as numpy arrays, in chunks whose arrays stay
    within _HEURISTIC_CHUNK_BYTES: one greedy pass (_greedy_batch),
    one batched local search (_local_search_batch) and one fold of
    their objectives (_order_values). Every sum is formed by cumsum from
    the same terms, in the same order, as the scalar loops of
    tests/oracles.py::heuristic_ranking_loop form it, so the orders and
    their values are those loops' bit for bit, at every weight scale.
    """
    n = a.n
    w = a.weights
    slack = _slack(a)
    # Row and column sums, folded left to right.
    net = (np.cumsum(w, axis=1)[:, -1] - np.cumsum(w, axis=0)[-1]).tolist()
    rng = np.random.default_rng(_HEURISTIC_SEED)
    starts = np.array(
        [sorted(range(n), key=lambda v: (-net[v], v))]
        + [rng.permutation(n) for _ in range(_HEURISTIC_RESTARTS)]
    )
    ww = np.stack([w.ravel(), w.T.ravel()])
    window = min(n, _HEURISTIC_WINDOW)
    per_start = 8 * max(_STEP_ARRAYS * n * window, _VALUE_ARRAYS * n * (n - 1) // 2)
    chunk = max(1, _HEURISTIC_CHUNK_BYTES // per_start)
    # Every order is worth at least 0, so the first start always replaces
    # this placeholder.
    best_order: list[int] = []
    best_val = float("-inf")
    for first in range(0, len(starts), chunk):
        orders = _greedy_batch(ww, starts[first : first + chunk])
        _local_search_batch(ww, orders, slack, window)
        for order, val in zip(orders.tolist(), _order_values(w, orders).tolist()):
            if val > best_val + slack or (
                abs(val - best_val) <= slack and order < best_order
            ):
                best_val = val
                best_order = order
    reverse = best_order[::-1]
    if _order_values(w, np.array([reverse]))[0] > best_val:
        best_order = reverse
    return ranking_from_order([v + 1 for v in best_order])


def prefix_upper_bound(a: WeightMatrix, partial: Sequence[int]) -> float:
    """Admissible bound on any ranking starting with the given items.

    partial lists 1-based items occupying the top positions in order.
    The bound is the search's own f + u after placing the prefix: the
    weight the prefix already decides plus max(a_ij, a_ji) for every
    still-undecided pair, so it never falls below the best completion and
    never increases as the prefix grows.
    """
    n, partial = a.n, tuple(partial)
    items = _integral(partial)
    if items is None or len(set(items)) != len(items) or not all(0 < v <= n for v in items):
        raise MalformedPermutationError(
            f"prefix must list distinct items in 1..{n}, got {partial}"
        )
    prefix = [v - 1 for v in items]
    search = _Search(a)
    for v in prefix:
        search.apply(v)
    return search.f + search.u


def _value_search(a: WeightMatrix, deadline: float | None) -> tuple[_Search, float, bool]:
    """Value phase of solve_lop: the heuristic incumbent, then branch and bound.

    The incumbent's value is the heuristic's own fold (_order_values), the
    bits it ranked its starts by, read again for the one order that
    heuristic_ranking returns. Returns the search, whose best_val and
    best_order hold the best value and order found, the heuristic's value,
    and whether the deadline stopped the search before it was exhausted.
    """
    heur = heuristic_ranking(a)
    search = _Search(a, deadline)
    heur_order = [v - 1 for v in heur.order]
    heur_val = float(_order_values(a.weights, np.array([heur_order]))[0])
    timed_out = search.run_value(heur_order, heur_val)
    return search, heur_val, timed_out


def _proven_value(a: WeightMatrix, deadline: float | None) -> float:
    """The optimal objective value k*, proven before deadline, without a witness.

    Inside the table budget with exact sums, k* is the completion table's
    entry for the full set; no heuristic and no branch and bound run.
    There any summation order gives the same bits, so the value equals
    solve_lop's. Otherwise it comes from solve_lop's value phase.

    Raises:
        UnprovenOptimumError: when the deadline passes first.
    """
    if a.n <= _TABLE_MAX_N and _exact_sums(a):
        try:
            return _completion(a, deadline).table[-1]
        except _Timeout:
            pass
    else:
        search, _, timed_out = _value_search(a, deadline)
        if not timed_out:
            return search.best_val
    raise UnprovenOptimumError("the optimal value was not proven within the time limit")


def solve_lop(a: WeightMatrix, cfg: SolverConfig | None = None) -> LopResult:
    """Maximize the decided pairwise weight over all rankings, exactly.

    Proves optimality by exhausting the branch-and-bound tree, then
    reports the lexicographically smallest optimal order. When the
    configured time limit expires before both are done, the best
    incumbent is returned with proven=False; the reported value is always
    attained by the reported ranking.
    """
    cfg = cfg or DEFAULT_CONFIG
    start = time.monotonic()
    search, heur_val, timed_out = _value_search(a, _deadline(cfg))
    best_val, best_order = search.best_val, search.best_order
    proven = not timed_out
    if proven:
        try:
            witness = search.lex_min_witness(best_val)
        except _Timeout:
            # The value is proven, but the incumbent need not be canonical.
            proven = False
        else:
            if witness is not None:
                best_order = witness
    ranking = ranking_from_order([v + 1 for v in best_order])
    stats = SearchStats(
        nodes=search.nodes,
        pruned=search.pruned,
        wall_time=time.monotonic() - start,
        heuristic_value=heur_val,
    )
    return LopResult(
        optimal_value=best_val, ranking=ranking, proven=proven, stats=stats
    )


@functools.lru_cache(maxsize=None)
def _other_columns(k: int) -> np.ndarray:
    """others[j]: the columns 0..k-1 other than j, ascending, for each j < k."""
    cols = np.arange(k - 1)
    others = cols + (cols >= np.arange(k)[:, None])
    others.flags.writeable = False
    return others


def _walk_optima(
    root: float,
    rows: _SplitRows,
    table: array[float] | None,
    k_star: float,
    eps: float,
    limit: int,
    deadline: float | None,
) -> tuple[np.ndarray, bool]:
    """Optimal 0-based orders in lexicographic sequence, up to limit of them.

    A depth-first walk over chunks of prefixes of one depth, in
    lexicographic order, each prefix a row of its order, its unplaced items
    in ascending order, its unplaced set and its scalar. root and rows are
    the empty prefix's scalar and rows in the unplaced-set form (_Search):
    with a table, f and the gain rows, and a child's bound adds the table's
    entry for the items left after it; without, g = f + u and the drop
    rows, and a child's scalar is its bound. For the first rows of the top
    chunk, every child's scalar is its parent's plus two lookups, in numpy
    operations over a (rows, unplaced items) grid: the additions of the
    depth-first search over one prefix at a time
    (tests/oracles.py::enumerate_leaves_loop), in the same order, so the
    same bits. Children whose bound reaches k_star - eps are kept, at the
    last position those within eps of k_star; the grid lists them parent
    first, item second, which is lexicographic order, and they are pushed
    above the rest of their parents' chunk, which they all precede.

    Returns the orders as an (count, n) int8 array and whether the walk
    stopped early: on reaching limit orders, or when the deadline, checked
    before each chunk, has passed, with the orders found so far.
    """
    completions = None if table is None else np.frombuffer(table)
    n = len(rows.items)
    items = np.arange(n)
    bits = 1 << items
    target = k_star - eps
    # A chunk's orders are full width; positions from its depth on are unset.
    full = np.array([(1 << n) - 1])
    stack = [(0, np.zeros((1, n), np.int8), items[None], full, np.array([root]))]
    leaves = [np.empty((0, n), np.int8)]
    found = 0
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            return np.concatenate(leaves), True
        depth, orders, item, rem, x = stack.pop()
        k = n - depth
        chunk = max(1, _WALK_CHUNK_BYTES // (_WALK_ARRAYS * 8 * k))
        if rem.size > chunk:
            stack.append((depth, orders[chunk:], item[chunk:], rem[chunk:], x[chunk:]))
            orders, item, rem, x = orders[:chunk], item[:chunk], rem[:chunk], x[:chunk]
        # child[r, j]: row r's scalar after placing its j-th unplaced item.
        child = rows.children(
            rem[:, None], x[:, None], rows.at_lo.take(item), rows.at_hi.take(item)
        )
        depth += 1
        if depth == n:
            # The bound at a leaf adds table[0] = 0.0: its scalar alone.
            keep = (child >= target) & (np.abs(child - k_star) <= eps)
        elif completions is None:
            keep = child >= target
        else:
            keep = child + completions[rem[:, None] ^ bits[item]] >= target
        kept = np.flatnonzero(keep)
        if not kept.size:
            continue
        parent, col = np.divmod(kept, k)
        placed = item.ravel()[kept]
        kids = orders.take(parent, axis=0)
        kids[:, depth - 1] = placed
        if depth < n:
            left = item[parent[:, None], _other_columns(k)[col]]
            stack.append(
                (depth, kids, left, rem[parent] ^ bits[placed], child.ravel()[kept])
            )
            continue
        leaves.append(kids)
        found += kept.size
        if found >= limit:
            return np.concatenate(leaves)[:limit], True
    return np.concatenate(leaves), False


def _optimal_orders(
    a: WeightMatrix, k_star: float, cap: int, deadline: float | None
) -> tuple[np.ndarray, bool]:
    """Optimal 1-based order forms in lexicographic sequence, up to cap.

    Returns the orders as an (count, n) int8 array, one order per row, and
    truncated: whether more than cap optima exist (the walk looks for one
    past the cap) or the deadline stopped it. Raises nothing, so a
    deadline that has already passed gives no orders and truncated=True.
    """
    try:
        completion = _completion(a, deadline)
    except _Timeout:
        return np.empty((0, a.n), np.int8), True
    if completion is None:
        search = _Search(a)
        root, rows, table = search.f + search.u, search.drops, None
    else:
        root, rows, table = 0.0, completion.gains, completion.table
    orders, truncated = _walk_optima(
        root, rows, table, k_star, _slack(a), cap + 1, deadline
    )
    orders = orders[:cap]
    orders += 1
    return orders, truncated


def enumerate_optima(a: WeightMatrix, cfg: SolverConfig | None = None) -> OptimaSet:
    """Collect every ranking whose objective equals the proven optimum.

    A depth-first walk over chunks of prefixes (_walk_optima) keeps a
    prefix only while its upper bound stays within the comparison slack of
    the optimal value: 0 when every weight is a multiple of 1/2, else
    n^2 * 2^-40 of the total weight. Each chunk's children are kept in
    ascending item order below each prefix, and walked before the rest of
    the chunk, so the output arrives already sorted lexicographically.
    truncated is set when more than
    cfg.enumeration_cap optima exist, of which the first cap are
    returned, or when the time limit stopped the search; the time limit
    covers the whole call, value proof included. The optimal value comes
    from the completion table inside the table budget when every weight
    is a multiple of 1/2; otherwise from the branch and bound.

    Raises:
        UnprovenOptimumError: when the optimal value itself could not be
            proven within the time limit.
    """
    orders, truncated = _enumerate_orders(a, cfg)
    rankings = tuple(ranking_from_order(order) for order in orders.tolist())
    return OptimaSet(rankings=rankings, truncated=truncated)


def _enumerate_orders(a: WeightMatrix, cfg: SolverConfig | None) -> tuple[np.ndarray, bool]:
    """enumerate_optima's orders and truncated flag, as _optimal_orders gives them.

    Raises:
        UnprovenOptimumError: as enumerate_optima.
    """
    cfg = cfg or DEFAULT_CONFIG
    deadline = _deadline(cfg)
    k_star = _proven_value(a, deadline)
    return _optimal_orders(a, k_star, cfg.enumeration_cap, deadline)


def degree_of_linearity(a: WeightMatrix, cfg: SolverConfig | None = None) -> float:
    """Fraction of total pairwise weight a best ranking agrees with.

    Always in [1/2, 1]: at least half by the reversal argument, at most 1
    because the optimum counts a subset of the nonnegative weights. The
    optimum is proven as in enumerate_optima.

    Raises:
        UndefinedMetricError: when all weights are zero.
        UnprovenOptimumError: when the optimum is not proven in time.
    """
    total = a.total_sum()
    if total <= 0.0:
        raise UndefinedMetricError(
            "degree of linearity is undefined for an all-zero matrix"
        )
    cfg = cfg or DEFAULT_CONFIG
    return _proven_value(a, _deadline(cfg)) / total
