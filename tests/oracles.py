"""Reference implementations used to validate the exact solvers.

The brute-force oracles enumerate all n! permutations, so they are only
usable for small n (the acceptance suite stays at n <= 8). The loop and
composition references restate a solver route in its plain form.
"""

from __future__ import annotations

import functools
import itertools
from array import array

import numpy as np

from rankability.errors import UnprovenOptimumError
from rankability.ktdiam import _kappa_from_orders
from rankability.lop import _deadline, _optimal_orders, solve_lop


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


def exists_completion_loop(search, target: float) -> bool:
    """Whether some completion of the search's prefix reaches target, with no memo.

    The solver's table-free witness search before it was memoized, run on a
    lop._Search state; it counts nodes and pruned the same way. Reference
    for the counts the memo replays.
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
