"""Maximal Kendall tau distance between optimal rankings.

When the optima set fits the enumeration cap, kappa comes from scanning
every pair of the enumerated optima, a block of rows of the order array at
a time (_max_distance_pair). When the cap or the time limit truncates the
set (the kappa command's --cap 1 does on any input with two or more
optima), it comes from the coupled binary program over two linear orders
x and y that must both attain the optimal objective value, with the
concordance indicators z implied by the orientation pair rather than
branched on. Its joint branch and bound grows both orders position by
position, so every generated orientation set is transitively closed and
the 3-dicycle constraints hold by construction. Each side is a prefix in
the optima walk's form, from the core's root bound, drop rows and table
(lop._Core), its children bounded by two lookups in split row sums. A
node is pruned when the prefix bound of either side drops below the
optimal value, or when the pairs not yet ordered by both sides cannot
lift the discordance past the best distance found. The joint search reads the deadline every 256 nodes. Season
reports and the kappa command prove k*, enumerate once and take kappa
from those same orders, all under one deadline (_solve_with_kappa).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import lop
from .core import (
    LinearOrder,
    Ranking,
    WeightMatrix,
    _check_same_n,
    linear_order_from_ranking,
    ranking_from_order,
    validate_linear_order,
)
from .errors import InvalidArgumentError, InvalidKStarError, UnprovenOptimumError
from .lop import (
    DEFAULT_CONFIG,
    SolverConfig,
    _check_deadline,
    _core,
    _deadline,
    _optimal_orders,
    _proven_value,
    _slack,
    _Timeout as _LopTimeout,
)

__all__ = [
    "KtResult",
    "KtSolution",
    "KtValidationReport",
    "solve_kt",
    "kt_solution_from_rankings",
    "validate_kt_solution",
]


@dataclass(frozen=True)
class KtResult:
    """Maximal-distance certificate over the optimal rankings.

    kappa + concordant_count = C(n, 2); both witnesses attain the
    optimal objective value; their distance equals kappa.
    """

    kappa: int
    pair: tuple[Ranking, Ranking]
    concordant_count: int
    proven: bool


@dataclass(frozen=True)
class KtSolution:
    """A full assignment of the coupled program's decision variables."""

    x: LinearOrder
    y: LinearOrder
    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.int8).copy()
        np.fill_diagonal(z, 0)
        z.flags.writeable = False
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class KtValidationReport:
    """Constraint-by-constraint audit of a claimed solution.

    constraint_violations covers the program's own constraints;
    optimality_violations covers the two optimally valid inequalities,
    which every optimal solution satisfies but feasible ones may not.
    """

    constraint_violations: tuple[str, ...]
    optimality_violations: tuple[str, ...]

    @property
    def feasible(self) -> bool:
        return not self.constraint_violations

    @property
    def passes_optimality_cuts(self) -> bool:
        return not self.optimality_violations


def kt_solution_from_rankings(sigma1: Ranking, sigma2: Ranking) -> KtSolution:
    """Assemble (x, y, z) from two rankings, with z_ij = x_ij * y_ij."""
    _check_same_n(sigma1.n, sigma2.n, "kt_solution_from_rankings")
    x = linear_order_from_ranking(sigma1)
    y = linear_order_from_ranking(sigma2)
    z = (x.x & y.x).astype(np.int8)
    return KtSolution(x=x, y=y, z=z)


class _PairSearch:
    """Joint search for two maximally distant optimal rankings.

    Both rankings are built position by position in lockstep, so the
    3-dicycle constraints hold by construction. Each side is a prefix in
    the optima walk's form, from the core's root bound, drop rows and table
    (lop._Core): its unplaced set, its g = f + u and its items. A child is
    kept while its bound reaches k* minus the slack, and a leaf counts when
    its scalar is within the slack of k*. A pair is pruned when its reach, C(n, 2) less the pairs both sides have
    ordered alike, counted by popcounts of item masks, cannot pass the
    incumbent; at a leaf the reach is the distance. The search starts from
    (sigma0, sigma0) at distance 0 and reads the deadline every 256 nodes,
    raising lop._Timeout out of run once it has passed.
    """

    def __init__(
        self,
        a: WeightMatrix,
        k_star: float,
        sigma0: tuple[int, ...],
        deadline: float | None,
    ):
        self.core = _core(a)
        self.eps = self.core.eps
        self.k_star = float(k_star)
        self.deadline = deadline
        self.nodes = 0
        self.best_kappa = 0
        self.best_pair = (sigma0, sigma0)

    def run(self) -> None:
        core = self.core
        root, self.rows, self.table = core.root, core.drops, core.completion(self.deadline)
        self.unit = core.unit
        n = len(self.rows.items)
        # below[s][v]: the items side s ranks below v, set as it places v.
        self.below = ([0] * n, [0] * n)
        self.prefixes: tuple[list[int], list[int]] = ([], [])
        # The first side tries its items in ascending order, the second in
        # descending order.
        self.descending = self.rows.items[::-1]
        full = (1 << n) - 1
        self._rec(full, root, full, root, n * (n - 1) // 2, True)

    def _children(self, rem: int, x: float, items: list) -> list:
        """(v, bit, rem without v, scalar) of each child kept, in the order of items."""
        rows, table, unit = self.rows, self.table, self.unit
        target = self.k_star - self.eps
        lo, hi = rows.lo, rows.hi
        low, high = rem & rows.low, rem >> rows.h
        kept = []
        for v, bit, at_lo, at_hi in items:
            if rem & bit:
                t = rem ^ bit
                child = x + (lo[at_lo + low] + hi[at_hi + high])
                if (child if table is None else child + table[t] * unit) >= target:
                    kept.append((v, bit, t, child))
        return kept

    def _rec(
        self, rem1: int, x1: float, rem2: int, x2: float, reach: int, symmetric: bool
    ) -> None:
        self.nodes += 1
        if not self.nodes & 255:
            _check_deadline(self.deadline)
        if not rem1:
            k, eps = self.k_star, self.eps
            if reach > self.best_kappa and abs(x1 - k) <= eps and abs(x2 - k) <= eps:
                self.best_kappa = reach
                self.best_pair = tuple(tuple(v + 1 for v in p) for p in self.prefixes)
            return
        if reach <= self.best_kappa:
            return
        prefix1, prefix2 = self.prefixes
        below1, below2 = self.below
        seconds = self._children(rem2, x2, self.descending)
        for v1, bit1, t1, y1 in self._children(rem1, x1, self.rows.items):
            # Once both sides have placed v1, it makes a concordant pair
            # with each item that both rank below it.
            below1[v1] = t1
            reach1 = reach if rem2 & bit1 else reach - (t1 & below2[v1]).bit_count()
            prefix1.append(v1)
            for v2, bit2, t2, y2 in seconds:
                if symmetric and v2 < v1:
                    break
                below2[v2] = t2
                reach2 = reach1 if t1 & bit2 else reach1 - (t2 & below1[v2]).bit_count()
                prefix2.append(v2)
                self._rec(t1, y1, t2, y2, reach2, symmetric and v2 == v1)
                prefix2.pop()
            prefix1.pop()


def _pack_pair_masks(orders: np.ndarray, n: int) -> np.ndarray:
    """One bit per unordered pair i < j, set when i ranks above j.

    orders holds one order form per row. Pairs run in np.triu_indices
    order; each row is packed by np.packbits.
    """
    # argsort of an order form gives every item's position.
    pos = np.argsort(orders, axis=1).astype(np.min_scalar_type(n))
    i, j = np.triu_indices(n, 1)
    return np.packbits(pos[:, i] < pos[:, j], axis=1)


def _max_distance_pair(
    orders: np.ndarray | list[tuple[int, ...]], n: int, deadline: float | None
) -> tuple[int, tuple[int, ...], tuple[int, ...], bool]:
    """Maximal Kendall tau distance, its lexicographically first pair, completeness.

    orders holds one order form per row, sorted ascending; the scan keeps
    the first pair that attains each strictly larger distance, which makes
    the returned pair the smallest (first, second) witness under tuple
    comparison. Distances are counted for a block of rows against every
    later row at once, blocks within lop._WALK_CHUNK_BYTES of work arrays,
    about 10 bytes per pair of a row and a later optimum. The deadline is
    checked before each row is read; once it has passed, the best pair so
    far is returned with completeness False.
    """
    orders = np.asarray(orders)
    count = len(orders)
    packed = _pack_pair_masks(orders, n)
    # Popcounts over 64-bit words, one contiguous array per word, are far
    # cheaper than over bytes.
    padded = np.zeros((count, -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    words = [np.ascontiguousarray(col) for col in padded.view(np.uint64).T]
    ceiling = n * (n - 1) // 2
    # A block's work arrays: the 8-byte words XORed and their counts.
    block = max(1, lop._WALK_CHUNK_BYTES // (10 * count))
    best = 0
    best_a = best_b = 0

    def scanned(complete: bool) -> tuple[int, tuple[int, ...], tuple[int, ...], bool]:
        first, second = orders[best_a].tolist(), orders[best_b].tolist()
        return best, tuple(first), tuple(second), complete

    for start in range(0, count, block):
        stop = min(start + block, count)
        dist = np.zeros((stop - start, count - start), dtype=np.min_scalar_type(ceiling))
        for col in words:
            dist += np.bitwise_count(col[start:] ^ col[start:stop, None])
        # Row a also holds its distances to the rows of the block before it.
        # Those are at most best once those rows are scanned, so a row that
        # beats best does so at a partner b >= a, and argmax returns the
        # first such b, the lex-smallest partner.
        partners = dist.argmax(axis=1).tolist()
        reach = dist.max(axis=1).tolist()
        for a in range(start, stop):
            if deadline is not None and time.monotonic() > deadline:
                return scanned(False)
            if reach[a - start] > best:
                # Scanning a ascending makes the overall pair lex-smallest.
                best, best_a, best_b = reach[a - start], a, start + partners[a - start]
            if best == ceiling:
                return scanned(True)
    return scanned(True)


def _kt_result(
    n: int, kappa: int, first: tuple[int, ...], second: tuple[int, ...], proven: bool
) -> KtResult:
    return KtResult(
        kappa=kappa,
        pair=(ranking_from_order(first), ranking_from_order(second)),
        concordant_count=n * (n - 1) // 2 - kappa,
        proven=proven,
    )


def _pair_search(
    a: WeightMatrix, k_star: float, sigma0: tuple[int, ...], deadline: float | None
) -> KtResult:
    """Joint branch and bound from sigma0; the best pair so far on timeout."""
    search = _PairSearch(a, k_star, sigma0, deadline)
    try:
        search.run()
        proven = True
    except _LopTimeout:
        proven = False
    first, second = search.best_pair
    return _kt_result(a.n, search.best_kappa, first, second, proven)


def _kappa_from_orders(
    a: WeightMatrix,
    k_star: float,
    orders: np.ndarray,
    truncated: bool,
    deadline: float | None,
) -> KtResult:
    """kappa over the optima that lop._optimal_orders returned for k_star.

    A complete set is scanned pair by pair; a truncated one seeds the
    joint branch and bound with its first order.

    Raises:
        UnprovenOptimumError: when the deadline passed before any optimal
            ranking was found.
        InvalidKStarError: when no ranking attains k_star.
    """
    if not len(orders):
        if truncated:
            raise UnprovenOptimumError(
                "time limit expired before any optimal ranking was recovered"
            )
        raise InvalidKStarError(f"no ranking attains the objective value {k_star!r}")
    if truncated:
        return _pair_search(a, k_star, tuple(orders[0].tolist()), deadline)
    return _kt_result(a.n, *_max_distance_pair(orders, a.n, deadline))


def _check_k_star(k_star) -> None:
    """InvalidArgumentError unless k_star is a real number other than a bool or NaN."""
    # True would run as 1, and NaN differs from no objective by more than the slack.
    if isinstance(k_star, bool) or not isinstance(k_star, numbers.Real) or math.isnan(k_star):
        raise InvalidArgumentError(f"k_star must be a real number, got {k_star!r}")


def solve_kt(
    a: WeightMatrix, k_star: float, cfg: SolverConfig | None = None
) -> KtResult:
    """Two optimal rankings as far apart as possible in Kendall tau.

    Enumerates the optima from the matrix's exact core. When the
    whole set fits the enumeration cap, kappa and the canonical pair, the
    lexicographically smallest (first, second) pair among all
    maximal-distance pairs, come from a scan over all pairs of optima.
    When the cap or the time limit truncates the enumeration, the joint
    branch and bound runs from the first optimum instead, and its pair
    need not be canonical. On timeout the best pair found so far is
    returned with proven=False.

    Raises:
        InvalidArgumentError: when k_star is not a real number (_check_k_star).
        InvalidKStarError: when no ranking attains k_star.
        UnprovenOptimumError: when the time limit expires before even one
            ranking attaining k_star is found, so no pair can be reported.
    """
    _check_k_star(k_star)
    cfg = cfg or DEFAULT_CONFIG
    deadline = _deadline(cfg)
    orders, truncated = _optimal_orders(a, k_star, cfg.enumeration_cap, deadline)
    return _kappa_from_orders(a, k_star, orders, truncated, deadline)


def _solve_with_kappa(
    a: WeightMatrix, cfg: SolverConfig
) -> tuple[float, np.ndarray, bool, KtResult]:
    """Prove k*, enumerate the optima once and take kappa from them.

    The deadline is taken before the value step, so cfg.time_limit bounds
    all three phases. Returns k*, the optimal orders in lexicographic
    sequence as lop._optimal_orders gives them, one per row (the first is
    solve_lop's canonical witness), whether the
    enumeration was truncated, and the kappa certificate.

    Raises:
        UnprovenOptimumError: when the optimal value is not proven, or no
            optimal ranking is recovered, within the time limit.
    """
    deadline = _deadline(cfg)
    k_star = _proven_value(a, deadline)
    orders, truncated = _optimal_orders(a, k_star, cfg.enumeration_cap, deadline)
    kt = _kappa_from_orders(a, k_star, orders, truncated, deadline)
    return k_star, orders, truncated, kt


def _check_side(name: str, lo: LinearOrder, a: WeightMatrix, k_star: float) -> list[str]:
    issues = [f"{name}: {v}" for v in validate_linear_order(lo)]
    value = float((a.weights * lo.x).sum())
    if abs(value - k_star) > _slack(a):
        issues.append(
            f"{name}: objective {value!r} differs from the optimal value {k_star!r}"
        )
    return issues


def validate_kt_solution(
    a: WeightMatrix, k_star: float, s: KtSolution
) -> KtValidationReport:
    """Audit every constraint family of a claimed solution.

    Reports violations instead of raising, save InvalidArgumentError for a
    k_star that is not a real number (_check_k_star). Each side's objective
    must equal k_star within the solvers' comparison slack (lop._slack).
    The two optimally valid inequalities are listed separately: a merely
    feasible solution may break them, an optimal one never does.
    """
    _check_k_star(k_star)
    n = a.n
    violations: list[str] = []
    if s.x.n != n or s.y.n != n or s.z.shape != (n, n):
        return KtValidationReport(
            constraint_violations=(
                f"shape mismatch: matrix has n={n}, solution has "
                f"x:{s.x.n} y:{s.y.n} z:{s.z.shape}",
            ),
            optimality_violations=(),
        )
    violations.extend(_check_side("x", s.x, a, k_star))
    violations.extend(_check_side("y", s.y, a, k_star))
    x, y, z = s.x.x, s.y.x, s.z
    for i in range(n):
        for j in range(n):
            if i != j and x[i, j] + y[i, j] - z[i, j] > 1:
                violations.append(
                    f"linking constraint x[{i + 1},{j + 1}] + y[{i + 1},{j + 1}]"
                    f" - z[{i + 1},{j + 1}] <= 1 violated"
                )
    optimality: list[str] = []
    for i in range(n):
        for j in range(i + 1, n):
            if z[i, j] + z[j, i] > 1:
                optimality.append(
                    f"optimally valid inequality z[{i + 1},{j + 1}]"
                    f" + z[{j + 1},{i + 1}] <= 1 violated"
                )
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                if j != k and z[i, j] + z[j, k] + z[k, i] > 2:
                    optimality.append(
                        f"optimally valid inequality z[{i + 1},{j + 1}]"
                        f" + z[{j + 1},{k + 1}] + z[{k + 1},{i + 1}] <= 2 violated"
                    )
    return KtValidationReport(
        constraint_violations=tuple(violations),
        optimality_violations=tuple(optimality),
    )
