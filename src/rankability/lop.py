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

# Building an exact completion table holds n * 2^n * 8 bytes of row sums plus
# 2^n * 8 bytes of table, about 40 MB at n = 18; afterwards the matrix keeps
# only the table, as a Python list of about 8 MB at n = 18.
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


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by every exact search in the package.

    rng_seed fully determines heuristic randomization; the search is
    single-threaded, which makes reported witnesses and statistics
    reproducible by construction. heuristic_restarts and rng_seed shape
    only the branch and bound's incumbent: they matter to solve_lop, and
    to the other routines only above the table budget or for weights
    that are not all multiples of 1/2, where those run the same value
    search.
    """

    time_limit: float | None = None
    enumeration_cap: int = 1_000_000
    tolerance: float = 1e-9
    heuristic_restarts: int = 16
    rng_seed: int = 0

    def __post_init__(self):
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive when set")
        if self.enumeration_cap < 1:
            raise ValueError("enumeration_cap must be at least 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.heuristic_restarts < 0:
            raise ValueError("heuristic_restarts must be nonnegative")


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
    doubled = 2.0 * a.weights
    # With every weight in halves, sums below 2^52 are exact in any order.
    return np.array_equal(doubled, np.round(doubled)) and a.total_sum() < _EXACT_TOTAL


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

    def __init__(
        self, a: WeightMatrix, cfg: SolverConfig, deadline: float | None = None
    ):
        n = a.n
        w = _float_rows(a)
        self.matrix = a
        self.n = n
        self.w = w
        self.eps = cfg.tolerance
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
        if seen is not None and self.f <= seen + 1e-12:
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
                self.apply(v)
                if self.rem_mask == 0 or self._exists_completion(target, memo):
                    placed = True
                    break
                self.undo()
            if not placed:
                return None
        return self.prefix.copy()

    def _exists_completion(self, target: float, memo: dict[int, int] | None) -> bool:
        """Whether some completion of the prefix reaches target.

        With exact sums the subtree below a node depends only on the
        unplaced set and f, so memo maps (rem_mask, f) to the answer and
        the nodes and pruned the subtree added; a hit adds those counts
        back, and the statistics equal those of the search without memo.
        f is then a nonnegative multiple of 1/2, so the key is the int
        2f << n | rem_mask.
        """
        if memo is not None:
            key = int(2.0 * self.f) << self.n | self.rem_mask
            hit = memo.get(key)
            if hit is not None:
                self.nodes += (hit >> 1) & _NODE_MASK
                self.pruned += hit >> (_NODE_BITS + 1)
                return bool(hit & 1)
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
                    self.apply(v)
                    ok = self._exists_completion(target, memo)
                    self.undo()
                    if ok:
                        break
        if memo is not None and len(memo) < _MEMO_CAP:
            memo[key] = (
                (self.pruned - pruned) << (_NODE_BITS + 1)
                | (self.nodes - nodes) << 1
                | ok
            )
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
        table: list[float] | None,
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


def _build_completion_table(w: np.ndarray, deadline: float | None) -> list[float]:
    r"""table[S] = best objective an ordering of item set S can add.

    Subset dynamic program over layers of equal-size sets: table[S] is the
    best over v in S of placing v above the rest of S, worth
    rowsum[v, S \ v] + table[S \ v], where rowsum[v, T] is the weight v
    gains over the items of T. Row sums add the weights of T from its
    highest item down, so they equal the scalar recurrence
    rowsum[v, T] = rowsum[v, T \ low(T)] + w[v, low(T)] bit for bit.
    Raises _Timeout between layers once the deadline has passed.
    """
    n = w.shape[0]
    size = 1 << n
    rowsum = np.zeros((n, size))
    for b in range(n - 1, -1, -1):
        # Sets whose lowest item is b: the same set without b, plus w[:, b].
        blocks = rowsum.reshape(n, size >> (b + 1), 2 << b)
        np.add(blocks[:, :, 0], w[:, b, None], out=blocks[:, :, 1 << b])
    table = np.zeros(size)
    set_sizes = np.bitwise_count(np.arange(size))
    for k in range(1, n + 1):
        _check_deadline(deadline)
        layer = np.flatnonzero(set_sizes == k)
        best = np.full(layer.size, -np.inf)
        for v in range(n):
            bit = 1 << v
            has_v = np.flatnonzero(layer & bit)
            rest = layer[has_v] ^ bit
            best[has_v] = np.maximum(best[has_v], rowsum[v, rest] + table[rest])
        table[layer] = best
    # The searches index the table one entry at a time, which is faster
    # on a list of Python floats than on an array.
    return table.tolist()


def _completion_table(a: WeightMatrix, deadline: float | None) -> list[float] | None:
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


def _insertion_local_search(w: list[list[float]], order: list[int]) -> list[int]:
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
            if delta > best_delta:
                best_delta = delta
                best_p = 0
            for p, u in enumerate(rest):
                delta += w[u][v] - w[v][u]
                if delta > best_delta:
                    best_delta = delta
                    best_p = p + 1
            if best_p != idx:
                rest.insert(best_p, v)
                order = rest
                improved = True
    return order


def heuristic_ranking(a: WeightMatrix, cfg: SolverConfig | None = None) -> Ranking:
    """Strong feasible ranking: greedy insertion plus insertion local search.

    Deterministic for a fixed cfg.rng_seed. The returned ranking's
    objective is at least total_sum(a) / 2, by taking the better of the
    final order and its reverse.
    """
    cfg = cfg or DEFAULT_CONFIG
    n = a.n
    w = _float_rows(a)
    rng = np.random.default_rng(cfg.rng_seed)
    net_wins = sorted(
        range(n),
        key=lambda v: (-(sum(w[v]) - sum(w[r][v] for r in range(n))), v),
    )
    starts: list[list[int]] = [net_wins]
    for _ in range(cfg.heuristic_restarts):
        starts.append([int(x) for x in rng.permutation(n)])
    # Every order is worth at least 0, so the first start always replaces
    # this placeholder.
    best_order: list[int] = []
    best_val = float("-inf")
    for start in starts:
        order = _insertion_local_search(w, _greedy_insertion(w, start))
        val = _order_value(w, order)
        if val > best_val + 1e-12 or (
            abs(val - best_val) <= 1e-12 and order < best_order
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
    search = _Search(a, DEFAULT_CONFIG)
    for v in prefix:
        search.apply(v)
    return search.f + search.u


def _value_search(
    a: WeightMatrix, cfg: SolverConfig, deadline: float | None
) -> tuple[_Search, float, bool]:
    """Value phase of solve_lop: the heuristic incumbent, then branch and bound.

    Returns the search, whose best_val and best_order hold the best value
    and order found, the heuristic's value, and whether the deadline
    stopped the search before it was exhausted.
    """
    heur = heuristic_ranking(a, cfg)
    search = _Search(a, cfg, deadline)
    heur_order = [v - 1 for v in heur.order]
    heur_val = _order_value(search.w, heur_order)
    timed_out = search.run_value(heur_order, heur_val)
    return search, heur_val, timed_out


def _proven_value(a: WeightMatrix, cfg: SolverConfig, deadline: float | None) -> float:
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
        search, _, timed_out = _value_search(a, cfg, deadline)
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
    search, heur_val, timed_out = _value_search(a, cfg, _deadline(cfg))
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
    a: WeightMatrix, k_star: float, cap: int, cfg: SolverConfig, deadline: float | None
) -> tuple[list[tuple[int, ...]], bool]:
    """Optimal 1-based order forms in lexicographic sequence, up to cap.

    Returns the orders and truncated: whether more than cap optima exist
    (the search looks for one past the cap) or the deadline stopped it.
    Raises nothing, so a deadline that has already passed gives no orders
    and truncated=True.
    """
    search = _Search(a, cfg, deadline)
    orders, truncated = search.enumerate_leaves(k_star, cap + 1)
    return [tuple(v + 1 for v in order) for order in orders[:cap]], truncated


def enumerate_optima(a: WeightMatrix, cfg: SolverConfig | None = None) -> OptimaSet:
    """Collect every ranking whose objective equals the proven optimum.

    Depth-first search keeps a branch only while its upper bound stays
    within tolerance of the optimal value; children are tried in
    ascending item order, so the output arrives already sorted
    lexicographically. truncated is set when more than cfg.enumeration_cap
    optima exist, of which the first cap are returned, or when the time
    limit stopped the search; the time limit covers the whole call, value
    proof included. The optimal value comes from the completion table
    inside the table budget when every weight is a multiple of 1/2;
    otherwise from the branch and bound, the only case where cfg's
    heuristic settings are used.

    Raises:
        UnprovenOptimumError: when the optimal value itself could not be
            proven within the time limit.
    """
    cfg = cfg or DEFAULT_CONFIG
    deadline = _deadline(cfg)
    k_star = _proven_value(a, cfg, deadline)
    orders, truncated = _optimal_orders(a, k_star, cfg.enumeration_cap, cfg, deadline)
    rankings = tuple(ranking_from_order(order) for order in orders)
    return OptimaSet(rankings=rankings, truncated=truncated)


def degree_of_linearity(a: WeightMatrix, cfg: SolverConfig | None = None) -> float:
    """Fraction of total pairwise weight a best ranking agrees with.

    Always in [1/2, 1]: at least half by the reversal argument, at most 1
    because the optimum counts a subset of the nonnegative weights. The
    optimum is proven as in enumerate_optima, so cfg's heuristic settings
    matter only above the table budget or for weights not in halves.

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
    return _proven_value(a, cfg, _deadline(cfg)) / total
