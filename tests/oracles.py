"""Reference implementations used to validate the exact solvers.

The brute-force oracles enumerate all n! permutations, so they are only
usable for small n (the acceptance suite stays at n <= 8). lop_milp and
kt_milp solve the paper's binary programs with an outside solver, so they
check k* and kappa above that. The loop and composition references
restate a solver route in its plain form; the per-game loops restate the
win matrix, the accuracies and the Colley and Massey systems that the
sports and rating modules read from a game set's outcome table, and
read_games_csv_dict reads a games file as a csv.DictReader does.
"""

from __future__ import annotations

import csv
import functools
import itertools
import operator
from array import array

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from rankability import lop
from rankability.core import LinearOrder, Ranking, WeightMatrix, ranking_from_order
from rankability.errors import EmptyDataError, MalformedInputError, UnprovenOptimumError
from rankability.ktdiam import (
    KtSolution,
    _kappa_from_orders,
    _pair_search,
    validate_kt_solution,
)
from rankability.lop import (
    _deadline,
    _exact_sums,
    _optimal_orders,
    _row_sums,
    _split_row_sums,
    solve_lop,
)
from rankability.sports import _REQUIRED_GAME_COLUMNS, GameRecord, game_set_from_records


@functools.lru_cache(maxsize=None)
def _perm_array(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def all_objectives(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Objective value of every permutation, order-form rows in perms."""
    n = weights.shape[0]
    perms = _perm_array(n)
    values = np.zeros(len(perms))
    for a in range(n):
        for b in range(a + 1, n):
            values += weights[perms[:, a], perms[:, b]]
    return perms, values


def brute_force_lop(weights: np.ndarray, tol: float = 1e-9) -> tuple[float, list[tuple[int, ...]]]:
    """Optimal value and the sorted list of all optimal order forms (1-based)."""
    perms, values = all_objectives(weights)
    k_star = float(values.max())
    optima = perms[values >= k_star - tol]
    orders = sorted(tuple(int(x) + 1 for x in row) for row in optima)
    return k_star, orders


class _BinaryProgram:
    """Sparse rows lower <= A x <= upper over 0/1 columns, solved by HiGHS."""

    def __init__(self):
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.lower: list[float] = []
        self.upper: list[float] = []

    def add(self, cols, lo, hi, vals=None):
        self.rows.extend([len(self.lower)] * len(cols))
        self.cols.extend(cols)
        self.vals.extend([1.0] * len(cols) if vals is None else vals)
        self.lower.append(lo)
        self.upper.append(hi)

    def add_linear_order(self, index: np.ndarray) -> None:
        """Make columns index[i, j] a linear order: x_ij + x_ji = 1, no 3-dicycle."""
        n = index.shape[0]
        for i, j in itertools.combinations(range(n), 2):
            self.add([index[i, j], index[j, i]], 1, 1)
        for i, j, k in itertools.combinations(range(n), 3):
            self.add([index[i, j], index[j, k], index[k, i]], -np.inf, 2)
            self.add([index[i, k], index[k, j], index[j, i]], -np.inf, 2)

    def minimize(self, c: np.ndarray) -> np.ndarray:
        """The optimal 0/1 assignment, proven with mip_rel_gap 0, as bools."""
        shape = (len(self.lower), len(c))
        matrix = coo_array((self.vals, (self.rows, self.cols)), shape=shape)
        result = milp(
            c=c,
            constraints=LinearConstraint(matrix.tocsr(), self.lower, self.upper),
            integrality=np.ones(len(c)),
            bounds=Bounds(0, 1),
            options={"mip_rel_gap": 0},
        )
        if not result.success:
            raise RuntimeError(f"milp failed: {result.message}")
        return result.x > 0.5


def _pair_columns(n: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The ordered pairs i != j, and index[i, j], the column of pair (i, j)."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    index = -np.ones((n, n), dtype=int)
    for col, (i, j) in enumerate(pairs):
        index[i, j] = col
    return pairs, index


def _order_matrix(
    chosen: np.ndarray, pairs: list[tuple[int, int]], n: int
) -> np.ndarray:
    """above[i, j] from one order's columns, checked to be a transitive tournament."""
    above = np.zeros((n, n), dtype=bool)
    for col, (i, j) in enumerate(pairs):
        above[i, j] = chosen[col]
    # A transitive tournament: the item with w wins ranks w-th from the
    # bottom, so the win counts are 0, 1, ..., n - 1.
    assert sorted(above.sum(axis=1)) == list(range(n))
    return above


def lop_milp(weights: np.ndarray) -> float:
    """k* from the paper's LOP binary program, solved by HiGHS.

    One binary x_ij per ordered pair i != j, 1 when i ranks above j;
    maximize sum w_ij x_ij subject to x_ij + x_ji = 1 and, for every
    directed 3-cycle, x_ij + x_jk + x_ki <= 2. The solution is rounded to
    0/1, checked to be a transitive tournament, and its objective summed
    exactly from the weights. Use only where k* is exact (weights in
    halves), since it is compared with ==.
    """
    n = weights.shape[0]
    pairs, index = _pair_columns(n)
    program = _BinaryProgram()
    program.add_linear_order(index)
    chosen = program.minimize(-np.array([weights[i, j] for i, j in pairs]))
    return float(weights[_order_matrix(chosen, pairs, n)].sum())


def kt_milp(weights: np.ndarray, k_star: float) -> int:
    """kappa from the paper's binary program over x, y and z, solved by HiGHS.

    x and y are two linear orders as in lop_milp, each held at k_star; z_ij
    is 1 when both rank i above j, through the linking x_ij + y_ij - z_ij
    <= 1. Minimizing sum z, the concordant pairs, gives kappa = C(n, 2) -
    sum z. Weights must be in halves: then an order worth at least
    k_star - 1/4 is worth k_star exactly, which is how the program holds
    both orders there. Every solution is audited by
    ktdiam.validate_kt_solution, optimality cuts included.
    """
    n = weights.shape[0]
    pairs, index = _pair_columns(n)
    m = len(pairs)
    gains = [float(weights[i, j]) for i, j in pairs]
    program = _BinaryProgram()
    for side in (0, 1):
        program.add_linear_order(index + side * m)
        program.add(list(range(side * m, (side + 1) * m)), k_star - 0.25, np.inf, gains)
    for col in range(m):
        program.add([col, m + col, 2 * m + col], -np.inf, 1, [1.0, 1.0, -1.0])
    chosen = program.minimize(np.concatenate([np.zeros(2 * m), np.ones(m)]))
    x, y = (_order_matrix(chosen[s * m : (s + 1) * m], pairs, n) for s in (0, 1))
    z = np.zeros((n, n), dtype=np.int8)
    for col, (i, j) in enumerate(pairs):
        z[i, j] = chosen[2 * m + col]
    solution = KtSolution(x=LinearOrder(x), y=LinearOrder(y), z=z)
    report = validate_kt_solution(WeightMatrix(weights), k_star, solution)
    assert report.feasible and report.passes_optimality_cuts, report
    return n * (n - 1) // 2 - int(z.sum())


def _pair_mask(order: tuple[int, ...]) -> int:
    """Bit per unordered pair (i<j), set iff i is ranked above j."""
    n = len(order)
    pos = [0] * n
    for idx, item in enumerate(order):
        pos[item - 1] = idx
    mask = 0
    bit = 0
    for i in range(n):
        for j in range(i + 1, n):
            if pos[i] < pos[j]:
                mask |= 1 << bit
            bit += 1
    return mask


def pack_pair_masks_loop(orders: list[tuple[int, ...]], n: int) -> np.ndarray:
    """Pair bits of every order, packed per row, by the scalar double loop.

    Reference for the solver's vectorized packing: bit (i, j) for i < j,
    in row-major pair order, is set iff i is ranked above j.
    """
    bits = np.zeros((len(orders), n * (n - 1) // 2), dtype=np.uint8)
    for row, order in enumerate(orders):
        pos = [0] * n
        for idx, item in enumerate(order):
            pos[item - 1] = idx
        bit = 0
        for i in range(n):
            for j in range(i + 1, n):
                if pos[i] < pos[j]:
                    bits[row, bit] = 1
                bit += 1
    return np.packbits(bits, axis=1)


def kendall_distance(order1: tuple[int, ...], order2: tuple[int, ...]) -> int:
    return (_pair_mask(order1) ^ _pair_mask(order2)).bit_count()


def order_objective(weights: np.ndarray, order: tuple[int, ...]) -> float:
    """Objective value of a single 1-based order form."""
    idx = [item - 1 for item in order]
    return float(np.triu(weights[np.ix_(idx, idx)], 1).sum())


def brute_force_kappa(
    weights: np.ndarray,
    tol: float = 1e-9,
    orders: list[tuple[int, ...]] | None = None,
) -> tuple[float, list[tuple[int, ...]], int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """k*, all optima, kappa, and the lexicographically smallest witness pair.

    Pass orders to skip the permutation scan when the full optima set is
    already known (the scan is infeasible beyond n = 8).
    """
    if orders is not None:
        orders = sorted(orders)
        k_star = order_objective(weights, orders[0])
    else:
        k_star, orders = brute_force_lop(weights, tol)
    masks = [_pair_mask(o) for o in orders]
    kappa = 0
    best = (orders[0], orders[0])
    for a in range(len(orders)):
        for b in range(a, len(orders)):
            d = (masks[a] ^ masks[b]).bit_count()
            if d > kappa:
                kappa = d
                best = (orders[a], orders[b])
    return k_star, orders, kappa, best


def max_hindsight(weights: np.ndarray) -> float:
    """Best achievable hindsight accuracy over all rankings (half tie credit)."""
    _, values = all_objectives(weights)
    return float(values.max() / weights.sum())


def completion_table_loop(weights: np.ndarray) -> array[float]:
    """Exact completion table by the scalar subset recurrence.

    table[S] is the best objective an ordering of the item set S (a
    bitmask) can add. rowsum[v][S] adds w[v, low(S)] to the row sum over S
    without its lowest item. Reference for the solver's vectorized table;
    returned as an array('d') like the solver's, so that == compares the
    two entry by entry.
    """
    n = weights.shape[0]
    w = weights.tolist()
    size = 1 << n
    rowsum = [[0.0] * size for _ in range(n)]
    table = [0.0] * size
    for s in range(1, size):
        low = s & -s
        b = low.bit_length() - 1
        for v in range(n):
            rowsum[v][s] = rowsum[v][s ^ low] + w[v][b]
        table[s] = max(
            rowsum[v][s ^ (1 << v)] + table[s ^ (1 << v)]
            for v in range(n)
            if s >> v & 1
        )
    return array("d", table)


def completion_table_split_loop(rows: np.ndarray) -> array[float]:
    r"""Completion table by the scalar recurrence over the split row sums of rows.

    table[S] = max over v in S of (lo[v, S & low] + hi[v, S >> h]) +
    table[S \ v], with lo and hi from lop._split_row_sums(rows), read at
    the parent set S as the searches read them. The solver's build, on the
    drop rows w - max(w, w.T), adds these terms in this order for every
    weight type, so the two are equal bit for bit also where the sums are
    not exact. Returned as an array('d') like the solver's.
    """
    split = _split_row_sums(rows)
    table = [0.0] * (1 << rows.shape[0])
    for s in range(1, len(table)):
        low, high = s & split.low, s >> split.h
        table[s] = max(
            split.lo[at_lo + low] + split.hi[at_hi + high] + table[s ^ bit]
            for _, bit, at_lo, at_hi in split.items
            if s & bit
        )
    return array("d", table)


def completion_table_by_layers(w: np.ndarray) -> array[float]:
    r"""Exact completion table by layers of equal-size sets, one item at a time.

    Reference for the solver's grid build at n where the scalar recurrence
    of completion_table_loop is too slow. Each layer comes from one stable
    sort of the sets by size; for each item v, the layer's sets holding v
    take rowsum[v, S \ v] + table[S \ v]. With exact sums
    (lop._exact_sums) the row sums are split at h = floor(n/2),
    otherwise they are kept over all n items, so the table equals
    completion_table_loop bit for bit.
    """
    n = w.shape[0]
    size = 1 << n
    exact = _exact_sums(WeightMatrix(w))
    # With h = n, hi holds only the empty set's zeros, and adding 0.0 to a
    # nonnegative sum leaves its bits as they are.
    h = n // 2 if exact else n
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


def value_search_loop(search, start_order: list[int], start_value: float) -> bool:
    """lop._Search.run_value on the exact path, by depth-first branch and bound.

    The solver's exact-sum value search before the layered passes of
    rankability.value replaced it: from the incumbent, it tries children
    in the incumbent's order, keeps the bound g = f + u in the unplaced-set
    form, and skips a state whose unplaced set an earlier visit reached
    with a bound at least as high (a dict memo of up to lop._MEMO_CAP
    sets). Sets best_val, best_order, nodes and pruned on the search and
    returns whether the deadline (checked every 256 expanded nodes)
    stopped it. Reference for rankability.value.prove_value.
    """
    search.best_val = start_value
    search.best_order = list(start_order)
    search.child_order = list(start_order)
    rows = search.core.drops
    children = [rows.items[v] for v in start_order]
    try:
        _rec_value_exact(search, children, {}, search.rem_mask, search.f + search.u)
        return False
    except lop._Timeout:
        return True


def _rec_value_exact(search, children, memo: dict[int, float], rem: int, g: float) -> None:
    """The value search at unplaced set rem with bound g = f + u.

    children lists each item's bit and where its rows start in the drop
    rows (lop._SplitRows.items), in the order the search tries them. The memo
    holds g instead of f: u depends only on rem, so comparing
    g values decides dominance exactly as comparing f values does.
    """
    search.nodes += 1
    search._tick()
    if rem == 0:
        if g > search.best_val:
            search.best_val = g
            search.best_order = search.prefix.copy()
        return
    seen = memo.get(rem)
    if seen is not None and g <= seen:
        search.pruned += 1
        return
    if len(memo) < lop._MEMO_CAP:
        memo[rem] = g
    rows = search.core.drops
    lo, hi = rows.lo, rows.hi
    low, high = rem & rows.low, rem >> rows.h
    prefix = search.prefix
    for v, bit, at_lo, at_hi in children:
        if rem & bit:
            bound = g + (lo[at_lo + low] + hi[at_hi + high])
            if bound <= search.best_val:
                search.pruned += 1
            else:
                prefix.append(v)
                _rec_value_exact(search, children, memo, rem ^ bit, bound)
                prefix.pop()


def expanded_lexsort(rem: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The positions of a layer's visits that the value memo expands, ascending.

    rankability.value._expanded with np.lexsort on every layer, as before
    its packed int64 keys: a visit is expanded when its bound is above the
    bound of every earlier visit to the same set. Sorted stably by set and
    bound descending, it comes before every earlier visit of its set.
    Reference for value._expanded on both its routes.
    """
    size = rem.size
    if size == 1:
        return np.zeros(1, dtype=np.int64)
    by = np.lexsort((-g, rem))
    sets = rem[by]
    first = np.empty(size, dtype=bool)
    first[0] = True
    np.not_equal(sets[1:], sets[:-1], out=first[1:])
    # Each position less size times its set's rank: every set's values lie
    # below those of the sets before it, so a running minimum restarts at
    # each set.
    at = np.cumsum(first)
    at *= -size
    at += by
    np.equal(np.minimum.accumulate(at), at, out=first)
    keep = np.zeros(size, dtype=bool)
    keep[by[first]] = True
    return np.flatnonzero(keep)


def exists_completion_loop(search, target: float) -> bool:
    """Whether some completion of the search's prefix reaches target, with no memo.

    The solver's table-free witness search without its memo, run on a
    lop._Search state; it counts nodes and pruned the same way. Reference
    for the counts that witness.WitnessLayers reads per state from its
    pass or its memo.
    """
    search.nodes += 1
    search._tick()
    if search.rem_mask == 0:
        return search.f >= target
    for v in search.child_order:
        if search.in_rem[v]:
            if search.f + search.s_a[v] + search.u - search.s_m[v] < target:
                search.pruned += 1
                continue
            search.apply(v)
            ok = exists_completion_loop(search, target)
            search.undo()
            if ok:
                return True
    return False


def lex_min_witness_loop(search, k_star: float) -> list[int] | None:
    """The table-free canonical witness by depth-first search, with no memo.

    lop._Search.lex_min_witness above the table budget as a plain descent:
    place, position by position, the smallest item whose child reaches
    k_star within the slack and, unless it is the last item, has a
    completion that does (exists_completion_loop), whose nodes and pruned
    count for every child tried. Runs on the search's apply/undo state and
    returns the order, or None when no order attains k_star.
    """
    search.reset()
    target = k_star - search.eps
    while search.rem_mask:
        for v in range(search.n):
            if not search.in_rem[v]:
                continue
            if search.f + search.s_a[v] + search.u - search.s_m[v] < target:
                continue
            search.apply(v)
            if search.rem_mask == 0 or exists_completion_loop(search, target):
                break
            search.undo()
        else:
            return None
    return search.prefix.copy()


class _CapReached(Exception):
    pass


def enumerate_leaves_loop(
    search, k_star: float, cap: int
) -> tuple[list[tuple[int, ...]], bool]:
    """All optimal 0-based orders in lexicographic sequence, up to cap.

    lop._optimal_orders as a depth-first search over one prefix at a time, on
    a lop._Search's unplaced-set form, from the core's empty prefix
    (lop._Core): g = f + u = root, the drop rows and, inside its budget,
    the completion table. Returns the orders and whether the cap or the
    deadline (checked every 256 nodes) stopped it. Reference for the
    walk's orders and flags.
    """
    search.reset()
    found: list[tuple[int, ...]] = []
    try:
        core = search.core
        x, rows, table = core.root, core.drops, core.completion(search.deadline)
        _rec_enum(search, search.rem_mask, x, k_star, cap, found, rows, table)
        return found, False
    except (_CapReached, lop._Timeout):
        return found, True


def _rec_enum(search, rem, x, k_star, cap, found, rows, table) -> None:
    """Collect the optimal leaves below unplaced set rem and bound g = x.

    With a table, a child's bound adds the table's entry for the items left
    after it; without, a child's x is its bound. A child is kept while its
    bound is within the slack of k_star.
    """
    search._tick()
    if rem == 0:
        if abs(x - k_star) <= search.eps:
            found.append(tuple(search.prefix))
            if len(found) >= cap:
                raise _CapReached
        return
    target = k_star - search.eps
    lo, hi = rows.lo, rows.hi
    low, high = rem & rows.low, rem >> rows.h
    for v, bit, at_lo, at_hi in rows.items:
        if rem & bit:
            t = rem ^ bit
            child = x + (lo[at_lo + low] + hi[at_hi + high])
            bound = child if table is None else child + table[t] * search.core.unit
            if bound >= target:
                search.prefix.append(v)
                _rec_enum(search, t, child, k_star, cap, found, rows, table)
                search.prefix.pop()


def solve_with_kappa_via_solve_lop(a, cfg):
    """k* from solve_lop, then the optima and kappa under one deadline.

    The composition ktdiam._solve_with_kappa replaces with a value step
    that reads k* from the completion table where it can: solve_lop's
    value and canonical witness, lop._optimal_orders and
    ktdiam._kappa_from_orders. Returns the LopResult, the optimal orders,
    whether enumeration was truncated, and the KtResult.
    """
    deadline = _deadline(cfg)
    result = solve_lop(a, cfg)
    if not result.proven:
        raise UnprovenOptimumError("the reference solve did not finish in time")
    k_star = result.optimal_value
    orders, truncated = _optimal_orders(a, k_star, cfg.enumeration_cap, deadline)
    kt = _kappa_from_orders(a, k_star, orders, truncated, deadline)
    return result, orders, truncated, kt


def joint_kappa(a, k_star, deadline=None):
    """kappa from ktdiam's joint branch and bound alone, on any optima set.

    The route solve_kt takes when the enumeration is truncated, run here
    from the first optimum whether or not the set fits a cap. Raises
    UnprovenOptimumError when the deadline passes before that optimum is
    found.
    """
    orders, _ = _optimal_orders(a, k_star, 1, deadline)
    if not len(orders):
        raise UnprovenOptimumError("no optimal ranking was found in time")
    return _pair_search(a, k_star, tuple(orders[0].tolist()), deadline)


def _fold(values) -> float:
    """Sum left to right from 0.0, as builtin sum() does before Python 3.12."""
    return functools.reduce(operator.add, values, 0.0)


def order_value_loop(w: list[list[float]], order: list[int]) -> float:
    """Objective of a 0-based order, added pair by pair in row-major order."""
    total = 0.0
    n = len(order)
    for p in range(n):
        wrow = w[order[p]]
        for q in range(p + 1, n):
            total += wrow[order[q]]
    return total


def _greedy_insertion_loop(w: list[list[float]], items: list[int]) -> list[int]:
    order: list[int] = []
    for v in items:
        delta = _fold(w[v][u] for u in order)
        best_delta = delta
        best_p = 0
        for p, u in enumerate(order):
            delta += w[u][v] - w[v][u]
            if delta > best_delta:
                best_delta = delta
                best_p = p + 1
        order.insert(best_p, v)
    return order


def _insertion_local_search_loop(
    w: list[list[float]], order: list[int], slack: float
) -> list[int]:
    """Move single items while a move gains more than slack."""
    n = len(order)
    improved = True
    while improved:
        improved = False
        for idx in range(n):
            v = order[idx]
            rest = order[:idx] + order[idx + 1 :]
            current = _fold(w[u][v] for u in order[:idx]) + _fold(
                w[v][u] for u in order[idx + 1 :]
            )
            delta = _fold(w[v][u] for u in rest)
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


def heuristic_ranking_loop(a: WeightMatrix) -> Ranking:
    """lop.heuristic_ranking by scalar loops, one start at a time.

    Greedy insertion, then insertion local search, from the net-wins order
    and lop._HEURISTIC_RESTARTS random orders (both read at call time);
    the best final order within the slack, ties to the lexicographically
    smaller, or its reverse when that is worth more. Every sum is a left
    fold from 0.0, so the result does not depend on the Python version.
    Reference for the solver's batched passes, which must match it order
    for order.
    """
    n = a.n
    w = a.weights.tolist()
    slack = lop._slack(a)
    rng = np.random.default_rng(lop._HEURISTIC_SEED)
    net_wins = sorted(
        range(n),
        key=lambda v: (-(_fold(w[v]) - _fold(w[r][v] for r in range(n))), v),
    )
    starts: list[list[int]] = [net_wins]
    for _ in range(lop._HEURISTIC_RESTARTS):
        starts.append([int(x) for x in rng.permutation(n)])
    best_order: list[int] = []
    best_val = float("-inf")
    for start in starts:
        order = _insertion_local_search_loop(w, _greedy_insertion_loop(w, start), slack)
        val = order_value_loop(w, order)
        if val > best_val + slack or (
            abs(val - best_val) <= slack and order < best_order
        ):
            best_val = val
            best_order = order
    reverse = best_order[::-1]
    if order_value_loop(w, reverse) > best_val:
        best_order = reverse
    return ranking_from_order([v + 1 for v in best_order])


def _team_indices(gs, record) -> tuple[int, int]:
    return gs.index(record.team_a) - 1, gs.index(record.team_b) - 1


def win_matrix_loop(gs, stage) -> np.ndarray:
    """sports.build_win_matrix's weights, one game at a time."""
    n = gs.team_count
    weights = np.zeros((n, n))
    for record in gs.games_at(stage):
        i, j = _team_indices(gs, record)
        if record.score_a > record.score_b:
            weights[i, j] += 1.0
        elif record.score_b > record.score_a:
            weights[j, i] += 1.0
        else:
            weights[i, j] += 0.5
            weights[j, i] += 0.5
    return weights


def ranking_accuracy_loop(gs, stage, sigma: Ranking, tie_mode: str) -> float:
    """sports.hindsight_accuracy at a stage, one game at a time."""
    games = gs.games_at(stage)
    credit = 0.0
    for record in games:
        i = gs.index(record.team_a)
        j = gs.index(record.team_b)
        if record.tied:
            if tie_mode == "half":
                credit += 0.5
        else:
            winner, loser = (i, j) if record.score_a > record.score_b else (j, i)
            if sigma.rank_of(winner) < sigma.rank_of(loser):
                credit += 1.0
    return credit / len(games)


def colley_loop(gs) -> np.ndarray:
    """rating.colley_ratings' values, the system assembled one game at a time."""
    n = gs.team_count
    c = 2.0 * np.eye(n)
    b = np.ones(n)
    for record in gs.games:
        i, j = _team_indices(gs, record)
        c[i, i] += 1.0
        c[j, j] += 1.0
        c[i, j] -= 1.0
        c[j, i] -= 1.0
        if record.score_a > record.score_b:
            b[i] += 0.5
            b[j] -= 0.5
        elif record.score_b > record.score_a:
            b[j] += 0.5
            b[i] -= 0.5
    return np.linalg.solve(c, b)


def _components_loop(n: int, adjacent: np.ndarray) -> list[list[int]]:
    """Connected components by depth-first search, each in ascending order."""
    seen = [False] * n
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        component = []
        while stack:
            v = stack.pop()
            component.append(v)
            for u in range(n):
                if not seen[u] and adjacent[v, u]:
                    seen[u] = True
                    stack.append(u)
        components.append(sorted(component))
    return components


def massey_loop(gs) -> tuple[np.ndarray, bool]:
    """rating.massey_ratings' values and connected flag, the system
    assembled one game at a time and split by depth-first search."""
    n = gs.team_count
    m = np.zeros((n, n))
    p = np.zeros(n)
    for record in gs.games:
        i, j = _team_indices(gs, record)
        m[i, i] += 1.0
        m[j, j] += 1.0
        m[i, j] -= 1.0
        m[j, i] -= 1.0
        diff = float(record.score_a - record.score_b)
        p[i] += diff
        p[j] -= diff
    values = np.zeros(n)
    components = _components_loop(n, m != 0.0)
    for component in components:
        idx = np.asarray(component)
        system = m[np.ix_(idx, idx)].copy()
        rhs = p[idx].copy()
        system[-1, :] = 1.0
        rhs[-1] = 0.0
        values[idx] = np.linalg.solve(system, rhs)
    return values, len(components) == 1


def read_games_csv_dict(path, aliases=None):
    """sports.read_games_csv over a csv.DictReader: a dict per row keyed by
    the header, with its keys and cells stripped and cells past the header
    dropped; a row whose cells are all blank is skipped."""
    aliases = aliases or {}
    by_season = {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise EmptyDataError(f"{path}: empty file")
        fields = [name.strip() for name in reader.fieldnames]
        missing = [c for c in _REQUIRED_GAME_COLUMNS if c not in fields]
        if missing:
            raise MalformedInputError(f"{path}: header is missing columns {', '.join(missing)}")
        for row in reader:
            values = {k.strip(): (v or "").strip() for k, v in row.items() if k is not None}
            if not any(values.values()):
                continue
            try:
                name_a, name_b = values["team_a"], values["team_b"]
                record = GameRecord(
                    season=int(values["season"]),
                    stage=values["stage"].lower(),
                    team_a=aliases.get(name_a, name_a),
                    team_b=aliases.get(name_b, name_b),
                    score_a=int(values["score_a"]),
                    score_b=int(values["score_b"]),
                    date=values.get("date") or None,
                )
            except (ValueError, MalformedInputError) as exc:
                raise MalformedInputError(f"{path}: line {reader.line_num}: {exc}") from exc
            by_season.setdefault(record.season, []).append(record)
    if not by_season:
        raise EmptyDataError(f"{path}: no game rows")
    return tuple(game_set_from_records(by_season[season]) for season in sorted(by_season))
