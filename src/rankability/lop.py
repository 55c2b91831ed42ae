"""Exact solver for the linear ordering problem.

solve_lop finds a permutation maximizing the sum of pairwise weights
ranked in agreement, by depth-first branch and bound over ranking
prefixes with an admissible pairwise bound and dominance memoization on
the set of unplaced items, started from an insertion heuristic's
incumbent. Also provides the exact subset completion table that the
witness, enumeration and pair searches share, the table-free witness
search above the table budget (memoized on the unplaced set and the
decided weight when the arithmetic is exact), enumeration of all optimal
rankings, and the degree of linearity.

enumerate_optima, degree_of_linearity and the kappa and season routines
need only the proven value k*, not a witness. Inside the table budget
with exact sums they read it from the completion table, and run neither
the heuristic nor the branch and bound; elsewhere they run solve_lop's
value phase without its witness search.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import Ranking, WeightMatrix, ranking_from_order
from .errors import (
    MalformedPermutationError,
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

# Building a completion table holds 2^n * 8 bytes of table, 2^n * 8 bytes of
# sets sorted by size and the row sums: 2 * n * 2^ceil(n/2) * 8 bytes when
# _exact_sums holds, n * 2^n * 8 bytes otherwise. At n = 18 the build's
# traced peak is about 6.4 MiB in the first case and 42 MiB in the second;
# afterwards the matrix keeps only the table, an array of 2 MiB.
_TABLE_MAX_N = 18

# Dominance and witness memo entries are dropped beyond this to bound
# memory on large n.
_MEMO_CAP = 1 << 22

# A witness memo entry packs a subtree's answer, nodes and pruned into one
# int, pruned << (_NODE_BITS + 1) | nodes << 1 | answer, which takes about
# half the memory of a tuple; a subtree would need 2^48 nodes, years of
# search, to overflow its field.
_NODE_BITS = 48
_NODE_MASK = (1 << _NODE_BITS) - 1

# The bound's starting sum counts every pair's larger weight twice, so
# with weights in halves and a total below 2^51 every sum the search forms
# is a multiple of 1/2 below 2^52 and exact in a double.
_EXACT_TOTAL = 2.0**51

# The heuristic's randomized restarts and their seed. They shape only the
# branch and bound's incumbent, so only solve_lop's stats and the run
# time: never k*, the canonical ranking or the optima.
_HEURISTIC_RESTARTS = 16
_HEURISTIC_SEED = 0


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
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive when set")
        if self.enumeration_cap < 1:
            raise ValueError("enumeration_cap must be at least 1")


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


class _CapReached(Exception):
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
    return _exact_weights(a.weights)


def _exact_weights(w: np.ndarray) -> bool:
    """_exact_sums of a bare weight array."""
    doubled = 2.0 * w
    # With every weight in halves, sums below 2^52 are exact in any order.
    return np.array_equal(doubled, np.round(doubled)) and float(w.sum()) < _EXACT_TOTAL


def _slack(a: WeightMatrix) -> float:
    """How far apart two objective sums of the matrix may be and still tie.

    Every search, the heuristic and the validator compare through this one
    value. It is 0 when _exact_sums holds, since then every sum is exact.
    """
    if _exact_sums(a):
        return 0.0
    # Every sum or bound the searches compare is built from about 4 n^2
    # roundings, each of a nonnegative value below twice the total and off
    # by at most 2^-53 of it, so two computations of one objective differ
    # by less than about n^2 * 2^-49 of the total. The slack is 2^9 times
    # that, room for the rounding that apply/undo cycles accumulate. It
    # scales with the weights, so ties are decided alike at every scale.
    return a.total_sum() * a.n * a.n * 2.0**-40


def _float_rows(a: WeightMatrix) -> list[list[float]]:
    return [[float(x) for x in row] for row in a.weights]


def _order_value(w: list[list[float]], order: Sequence[int]) -> float:
    total = 0.0
    n = len(order)
    for p in range(n):
        wrow = w[order[p]]
        for q in range(p + 1, n):
            total += wrow[order[q]]
    return total


class _Search:
    """Prefix DFS state with O(n) incremental bound updates per move.

    f is the weight already decided (prefix-prefix plus prefix-remaining
    pairs), u is the sum of max(a_ij, a_ji) over remaining pairs; f + u is
    an admissible upper bound on any completion of the current prefix.
    Every search stops early one way: _tick raises _Timeout once the
    deadline has passed, checked every 256 expanded nodes, counted apart
    from nodes, which also counts the subtrees a memo hit replays.
    """

    def __init__(self, a: WeightMatrix, deadline: float | None = None):
        n = a.n
        w = _float_rows(a)
        self.matrix = a
        self.n = n
        self.w = w
        self.eps = _slack(a)
        self.deadline = deadline
        self.nodes = 0
        self.pruned = 0
        self._expanded = 0
        self.pair_max = [
            [w[i][j] if w[i][j] >= w[j][i] else w[j][i] for j in range(n)]
            for i in range(n)
        ]
        self.child_order = list(range(n))
        self.memo: dict[int, float] = {}
        self.best_val = float("-inf")
        self.best_order: list[int] = []
        self.reset()

    def reset(self) -> None:
        n = self.n
        self.in_rem = [True] * n
        self.rem_mask = (1 << n) - 1
        self.prefix: list[int] = []
        self.s_a = [
            sum(self.w[v][r] for r in range(n) if r != v) for v in range(n)
        ]
        self.s_m = [
            sum(self.pair_max[v][r] for r in range(n) if r != v) for v in range(n)
        ]
        self.u = sum(self.s_m) / 2.0
        self.f = 0.0

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
        """Prove the maximum objective from a known incumbent; True on timeout."""
        self.best_val = start_value
        self.best_order = list(start_order)
        self.child_order = list(start_order)
        try:
            self._rec_value()
            return False
        except _Timeout:
            return True

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

        Reads the completion table when there is one. Otherwise each
        candidate item is kept when _exists_completion finds a completion
        reaching k_star; with exact sums that search shares one memo over
        the whole call. Raises _Timeout when the deadline passes first.
        """
        self.reset()
        target = k_star - self.eps
        table = _completion_table(self.matrix, self.deadline)
        memo: dict[int, int] | None = (
            {} if table is None and _exact_sums(self.matrix) else None
        )
        for _ in range(self.n):
            placed = False
            for v in range(self.n):
                if not self.in_rem[v]:
                    continue
                if table is not None:
                    bound = self.f + self.s_a[v] + table[self.rem_mask ^ (1 << v)]
                    if bound >= target:
                        self.apply(v)
                        placed = True
                        break
                    continue
                bound = self.f + self.s_a[v] + self.u - self.s_m[v]
                if bound < target:
                    continue
                if self.rem_mask == 1 << v or self._child_completes(v, target, memo):
                    self.apply(v)
                    placed = True
                    break
            if not placed:
                return None
        return self.prefix.copy()

    def _exists_completion(self, target: float, memo: dict[int, int] | None) -> bool:
        """Whether some completion of the prefix reaches target.

        With exact sums the subtree below a node depends only on the
        unplaced set and f, so memo maps (rem_mask, f) to the answer and
        the nodes and pruned the subtree added. _child_completes reads it
        before placing a child; a hit adds those counts back, and the
        statistics equal those of the search without memo.
        f is then a nonnegative multiple of 1/2, so the key is the int
        2f << n | rem_mask.
        """
        nodes, pruned = self.nodes, self.pruned
        self.nodes += 1
        self._tick()
        ok = False
        if self.rem_mask == 0:
            ok = self.f >= target
        else:
            for v in self.child_order:
                if self.in_rem[v]:
                    if self.f + self.s_a[v] + self.u - self.s_m[v] < target:
                        self.pruned += 1
                        continue
                    if self._child_completes(v, target, memo):
                        ok = True
                        break
        if memo is not None and len(memo) < _MEMO_CAP:
            memo[int(2.0 * self.f) << self.n | self.rem_mask] = (
                (self.pruned - pruned) << (_NODE_BITS + 1)
                | (self.nodes - nodes) << 1
                | ok
            )
        return ok

    def _child_completes(
        self, v: int, target: float, memo: dict[int, int] | None
    ) -> bool:
        """_exists_completion with v placed next, the state left unchanged.

        Looks the child's key up before placing v, so a memo hit costs no
        apply and no undo.
        """
        if memo is not None:
            f = self.f + self.s_a[v]
            hit = memo.get(int(2.0 * f) << self.n | self.rem_mask ^ (1 << v))
            if hit is not None:
                self.nodes += (hit >> 1) & _NODE_MASK
                self.pruned += hit >> (_NODE_BITS + 1)
                return bool(hit & 1)
        self.apply(v)
        ok = self._exists_completion(target, memo)
        self.undo()
        return ok

    # -- enumeration -------------------------------------------------------

    def enumerate_leaves(
        self, k_star: float, cap: int
    ) -> tuple[list[tuple[int, ...]], bool]:
        """All optimal orders in lexicographic sequence, up to cap."""
        self.reset()
        found: list[tuple[int, ...]] = []
        try:
            table = _completion_table(self.matrix, self.deadline)
            self._rec_enum(k_star, k_star - self.eps, cap, found, table)
            return found, False
        except (_CapReached, _Timeout):
            return found, True

    def _rec_enum(
        self,
        k_star: float,
        target: float,
        cap: int,
        found: list[tuple[int, ...]],
        table: array[float] | None,
    ) -> None:
        self._tick()
        if self.rem_mask == 0:
            if abs(self.f - k_star) <= self.eps:
                found.append(tuple(self.prefix))
                if len(found) >= cap:
                    raise _CapReached
            return
        for v in range(self.n):
            if self.in_rem[v]:
                decided = self.f + self.s_a[v]
                if table is not None:
                    bound = decided + table[self.rem_mask ^ (1 << v)]
                else:
                    bound = decided + self.u - self.s_m[v]
                if bound >= target:
                    self.apply(v)
                    self._rec_enum(k_star, target, cap, found, table)
                    self.undo()


def _row_sums(w: np.ndarray) -> np.ndarray:
    r"""rowsum[v, T]: the weight row v gains over T, for each set T of w's columns.

    Adds the weights of T from its highest item down, so the sums equal the
    scalar recurrence rowsum[v, T] = rowsum[v, T \ low(T)] + w[v, low(T)]
    bit for bit.
    """
    n, m = w.shape
    size = 1 << m
    rowsum = np.zeros((n, size))
    for b in range(m - 1, -1, -1):
        # Sets whose lowest item is b: the same set without b, plus w[:, b].
        blocks = rowsum.reshape(n, size >> (b + 1), 2 << b)
        np.add(blocks[:, :, 0], w[:, b, None], out=blocks[:, :, 1 << b])
    return rowsum


def _build_completion_table(w: np.ndarray, deadline: float | None) -> array[float]:
    r"""table[S] = best objective an ordering of item set S can add.

    Subset dynamic program over layers of equal-size sets, taken in turn
    from one stable sort of the sets by size: table[S] is the best over v
    in S of placing v above the rest of S, worth rowsum[v, S \ v] +
    table[S \ v], where rowsum[v, T] is the weight v gains over the items
    of T. The row sums come from one of two sources:

    - When every sum of the weights is exact (_exact_weights), any order of
      adding them gives the same bits, so a row sum is split at the low
      h = floor(n/2) items: rowsum[v, T] = lo[v, T & low] + hi[v, T >> h],
      from two tables of n * 2^ceil(n/2) entries instead of n * 2^n.
    - Otherwise the order of adding decides the last bits, so the row sums
      over all n items are kept, built so that the table equals the scalar
      recurrence of tests/oracles.py::completion_table_loop bit for bit.

    Returns the table as an array('d'): the searches index it one entry at
    a time, which an array serves as fast as a list of Python floats, in
    8 bytes per entry instead of about 32. Raises _Timeout between layers
    once the deadline has passed.
    """
    n = w.shape[0]
    size = 1 << n
    # With h = n, hi holds only the empty set's zeros, and adding 0.0 to a
    # nonnegative sum leaves its bits as they are.
    h = n // 2 if _exact_weights(w) else n
    lo = _row_sums(w[:, :h])
    hi = _row_sums(w[:, h:])
    low = (1 << h) - 1
    # The DP fills the returned array in place, through a numpy view of it.
    out = array("d", [0.0]) * size
    table = np.frombuffer(out)
    set_sizes = np.bitwise_count(np.arange(size))
    by_size = np.argsort(set_sizes, kind="stable")
    ends = np.cumsum(np.bincount(set_sizes, minlength=n + 1))
    for k in range(1, n + 1):
        _check_deadline(deadline)
        layer = by_size[ends[k - 1] : ends[k]]
        best = np.full(layer.size, -np.inf)
        for v in range(n):
            bit = 1 << v
            has_v = np.flatnonzero(layer & bit)
            rest = layer[has_v] ^ bit
            gain = lo[v, rest & low] + hi[v, rest >> h] + table[rest]
            best[has_v] = np.maximum(best[has_v], gain)
        table[layer] = best
    return out


def _completion_table(
    a: WeightMatrix, deadline: float | None
) -> array[float] | None:
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


def _greedy_insertion(w: list[list[float]], items: Sequence[int]) -> list[int]:
    order: list[int] = []
    for v in items:
        delta = sum(w[v][u] for u in order)
        best_delta = delta
        best_p = 0
        for p, u in enumerate(order):
            delta += w[u][v] - w[v][u]
            if delta > best_delta:
                best_delta = delta
                best_p = p + 1
        order.insert(best_p, v)
    return order


def _insertion_local_search(
    w: list[list[float]], order: list[int], slack: float
) -> list[int]:
    """Move single items while a move gains more than slack.

    A gain within slack may be rounding alone, and taking it can cycle.
    """
    n = len(order)
    improved = True
    while improved:
        improved = False
        for idx in range(n):
            v = order[idx]
            rest = order[:idx] + order[idx + 1 :]
            current = sum(w[u][v] for u in order[:idx]) + sum(
                w[v][u] for u in order[idx + 1 :]
            )
            delta = sum(w[v][u] for u in rest)
            best_delta = current
            best_p = idx
            if delta > best_delta + slack:
                best_delta = delta
                best_p = 0
            for p, u in enumerate(rest):
                delta += w[u][v] - w[v][u]
                if delta > best_delta + slack:
                    best_delta = delta
                    best_p = p + 1
            if best_p != idx:
                rest.insert(best_p, v)
                order = rest
                improved = True
    return order


def heuristic_ranking(a: WeightMatrix) -> Ranking:
    """Strong feasible ranking: greedy insertion plus insertion local search.

    Runs from the net-wins order and 16 random orders from a fixed seed, so
    it is deterministic. The returned ranking's objective is at least
    total_sum(a) / 2, by taking the better of the final order and its
    reverse.
    """
    n = a.n
    w = _float_rows(a)
    slack = _slack(a)
    rng = np.random.default_rng(_HEURISTIC_SEED)
    net_wins = sorted(
        range(n),
        key=lambda v: (-(sum(w[v]) - sum(w[r][v] for r in range(n))), v),
    )
    starts: list[list[int]] = [net_wins]
    for _ in range(_HEURISTIC_RESTARTS):
        starts.append([int(x) for x in rng.permutation(n)])
    # Every order is worth at least 0, so the first start always replaces
    # this placeholder.
    best_order: list[int] = []
    best_val = float("-inf")
    for start in starts:
        order = _insertion_local_search(w, _greedy_insertion(w, start), slack)
        val = _order_value(w, order)
        if val > best_val + slack or (
            abs(val - best_val) <= slack and order < best_order
        ):
            best_val = val
            best_order = order
    reverse = best_order[::-1]
    if _order_value(w, reverse) > best_val:
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
    n = a.n
    prefix = [int(p) - 1 for p in partial]
    if len(set(prefix)) != len(prefix) or any(v < 0 or v >= n for v in prefix):
        raise MalformedPermutationError(
            f"prefix must list distinct items in 1..{n}, got {tuple(partial)}"
        )
    search = _Search(a)
    for v in prefix:
        search.apply(v)
    return search.f + search.u


def _value_search(a: WeightMatrix, deadline: float | None) -> tuple[_Search, float, bool]:
    """Value phase of solve_lop: the heuristic incumbent, then branch and bound.

    Returns the search, whose best_val and best_order hold the best value
    and order found, the heuristic's value, and whether the deadline
    stopped the search before it was exhausted.
    """
    heur = heuristic_ranking(a)
    search = _Search(a, deadline)
    heur_order = [v - 1 for v in heur.order]
    heur_val = _order_value(search.w, heur_order)
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
            return _completion_table(a, deadline)[-1]
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


def _optimal_orders(
    a: WeightMatrix, k_star: float, cap: int, deadline: float | None
) -> tuple[list[tuple[int, ...]], bool]:
    """Optimal 1-based order forms in lexicographic sequence, up to cap.

    Returns the orders and truncated: whether more than cap optima exist
    (the search looks for one past the cap) or the deadline stopped it.
    Raises nothing, so a deadline that has already passed gives no orders
    and truncated=True.
    """
    search = _Search(a, deadline)
    orders, truncated = search.enumerate_leaves(k_star, cap + 1)
    return [tuple(v + 1 for v in order) for order in orders[:cap]], truncated


def enumerate_optima(a: WeightMatrix, cfg: SolverConfig | None = None) -> OptimaSet:
    """Collect every ranking whose objective equals the proven optimum.

    Depth-first search keeps a branch only while its upper bound stays
    within the comparison slack of the optimal value: 0 when every weight
    is a multiple of 1/2, else n^2 * 2^-40 of the total weight. Children
    are tried in ascending item order, so the output arrives already
    sorted lexicographically. truncated is set when more than
    cfg.enumeration_cap optima exist, of which the first cap are
    returned, or when the time limit stopped the search; the time limit
    covers the whole call, value proof included. The optimal value comes
    from the completion table inside the table budget when every weight
    is a multiple of 1/2; otherwise from the branch and bound.

    Raises:
        UnprovenOptimumError: when the optimal value itself could not be
            proven within the time limit.
    """
    cfg = cfg or DEFAULT_CONFIG
    deadline = _deadline(cfg)
    k_star = _proven_value(a, deadline)
    orders, truncated = _optimal_orders(a, k_star, cfg.enumeration_cap, deadline)
    rankings = tuple(ranking_from_order(order) for order in orders)
    return OptimaSet(rankings=rankings, truncated=truncated)


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
