"""Maximal Kendall tau distance between optimal rankings.

When the optima set fits the enumeration cap, kappa comes from scanning
every pair of optima enumerated with the shared completion table. Otherwise
it comes from the coupled binary program over two linear orders x and y
that must both attain the optimal objective value, with the concordance
indicators z implied by the orientation pair rather than branched on. Its
joint branch and bound grows both orders position by position, so every
generated orientation set is transitively closed and the 3-dicycle
constraints hold by construction. A node is pruned when the prefix bound of
either side drops below the optimal value, or when the pairs not yet ordered
by both sides cannot lift the discordance past the best distance found.
The joint search stops through its first side's _Search deadline tick.
Season reports and the kappa command prove k*, enumerate once and take
kappa from those same orders, all under one deadline (_solve_with_kappa).
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass

import numpy as np

from .core import (
    LinearOrder,
    Ranking,
    WeightMatrix,
    kendall_tau_distance,
    linear_order_from_ranking,
    ranking_from_order,
    validate_linear_order,
)
from .errors import InvalidKStarError, UnprovenOptimumError
from .lop import (
    DEFAULT_CONFIG,
    SolverConfig,
    _completion_table,
    _deadline,
    _optimal_orders,
    _proven_value,
    _Search,
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
    x = linear_order_from_ranking(sigma1)
    y = linear_order_from_ranking(sigma2)
    z = (x.x & y.x).astype(np.int8)
    return KtSolution(x=x, y=y, z=z)


class _PairSearch:
    """Joint search for two maximally distant optimal rankings.

    Both rankings are built position by position in lockstep, so each
    side's partial solution is a prefix of a linear order and the
    3-dicycle constraints hold by construction. A side is pruned as soon
    as its prefix bound falls below the optimal value; the pair is pruned
    when the not-yet-doubly-decided pairs cannot lift the discordance
    past the incumbent. Discordance is counted exactly: an item pair is
    scored at the first moment both rankings have decided its order.
    The search starts from the pair (sigma0, sigma0) at distance 0. Its
    one stop signal is the first side's _Search._tick, which raises
    lop._Timeout out of run once the deadline has passed.
    """

    def __init__(
        self,
        a: WeightMatrix,
        k_star: float,
        sigma0: tuple[int, ...],
        deadline: float | None,
    ):
        n = a.n
        self.matrix = a
        self.n = n
        self.eps = _slack(a)
        self.k_star = float(k_star)
        self.sides = (_Search(a, deadline), _Search(a, deadline))
        self.pos = ([-1] * n, [-1] * n)
        self.table: array[float] | None = None
        self.total_pairs = n * (n - 1) // 2
        self.counted = 0
        self.discordant = 0
        self.best_kappa = 0
        self.best_pair = (sigma0, sigma0)
        self.order1 = list(range(n))
        self.order2 = list(range(n - 1, -1, -1))

    def _bound_ok(self, side_idx: int, v: int) -> bool:
        s = self.sides[side_idx]
        target = self.k_star - self.eps
        if self.table is not None:
            return s.f + s.s_a[v] + self.table[s.rem_mask ^ (1 << v)] >= target
        return s.f + s.s_a[v] + s.u - s.s_m[v] >= target

    def _place(self, side_idx: int, v: int) -> tuple[int, int]:
        """Extend one prefix and score pairs now decided on both sides."""
        s = self.sides[side_idx]
        s.apply(v)
        self.pos[side_idx][v] = len(s.prefix) - 1
        pos_o = self.pos[1 - side_idx]
        in_rem_s = s.in_rem
        o_in_rem = self.sides[1 - side_idx].in_rem
        cd = 0
        dd = 0
        v_placed_other = not o_in_rem[v]
        pos_ov = pos_o[v]
        for r in range(self.n):
            if in_rem_s[r]:
                if v_placed_other:
                    cd += 1
                    if not o_in_rem[r] and pos_o[r] < pos_ov:
                        dd += 1
                elif not o_in_rem[r]:
                    cd += 1
                    dd += 1
        self.counted += cd
        self.discordant += dd
        return cd, dd

    def _unplace(self, side_idx: int, delta: tuple[int, int]) -> None:
        self.counted -= delta[0]
        self.discordant -= delta[1]
        s = self.sides[side_idx]
        self.pos[side_idx][s.prefix[-1]] = -1
        s.undo()

    def run(self) -> None:
        self.table = _completion_table(self.matrix, self.sides[0].deadline)
        self._rec(True)

    def _rec(self, symmetric: bool) -> None:
        s1, s2 = self.sides
        s1._tick()
        if s1.rem_mask == 0:
            if (
                self.discordant > self.best_kappa
                and abs(s1.f - self.k_star) <= self.eps
                and abs(s2.f - self.k_star) <= self.eps
            ):
                self.best_kappa = self.discordant
                self.best_pair = (
                    tuple(v + 1 for v in s1.prefix),
                    tuple(v + 1 for v in s2.prefix),
                )
            return
        if self.discordant + (self.total_pairs - self.counted) <= self.best_kappa:
            return
        for v1 in self.order1:
            if not s1.in_rem[v1] or not self._bound_ok(0, v1):
                continue
            d1 = self._place(0, v1)
            for v2 in self.order2:
                if (
                    not s2.in_rem[v2]
                    or (symmetric and v2 < v1)
                    or not self._bound_ok(1, v2)
                ):
                    continue
                d2 = self._place(1, v2)
                self._rec(symmetric and v2 == v1)
                self._unplace(1, d2)
            self._unplace(0, d1)


def _pack_pair_masks(orders: list[tuple[int, ...]], n: int) -> np.ndarray:
    """One bit per unordered pair i < j, set when i ranks above j.

    Pairs run in np.triu_indices order; each row is packed by np.packbits.
    """
    # argsort of an order form gives every item's position.
    pos = np.argsort(np.asarray(orders), axis=1).astype(np.min_scalar_type(n))
    i, j = np.triu_indices(n, 1)
    return np.packbits(pos[:, i] < pos[:, j], axis=1)


def _max_distance_pair(
    orders: list[tuple[int, ...]], n: int, deadline: float | None
) -> tuple[int, tuple[int, ...], tuple[int, ...], bool]:
    """Maximal Kendall tau distance, its lexicographically first pair, completeness.

    orders must be sorted ascending; the scan keeps the first pair that
    attains each strictly larger distance, which makes the returned pair
    the smallest (first, second) witness under tuple comparison. The
    deadline is checked between rows; once it has passed, the best pair
    so far is returned with completeness False.
    """
    packed = _pack_pair_masks(orders, n)
    # Popcounts over 64-bit words, one contiguous array per word, are far
    # cheaper than over bytes.
    padded = np.zeros((len(orders), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    words = [np.ascontiguousarray(col) for col in padded.view(np.uint64).T]
    ceiling = n * (n - 1) // 2
    best = 0
    best_pair = (orders[0], orders[0])
    for a in range(len(orders)):
        if deadline is not None and time.monotonic() > deadline:
            return best, best_pair[0], best_pair[1], False
        dist = np.zeros(len(orders) - a, dtype=np.min_scalar_type(ceiling))
        for col in words:
            dist += np.bitwise_count(col[a:] ^ col[a])
        b_rel = int(np.argmax(dist))
        d = int(dist[b_rel])
        if d > best:
            # argmax returns the first maximizer, the lex-smallest partner;
            # scanning a ascending makes the overall pair lex-smallest.
            best = d
            best_pair = (orders[a], orders[a + b_rel])
        if best == ceiling:
            break
    return best, best_pair[0], best_pair[1], True


def _kt_result(
    n: int, kappa: int, first: tuple[int, ...], second: tuple[int, ...], proven: bool
) -> KtResult:
    if first > second:
        first, second = second, first
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


def _first_optimum(
    k_star: float, orders: list[tuple[int, ...]], truncated: bool
) -> tuple[int, ...]:
    """The first of the optima that lop._optimal_orders returned for k_star.

    Raises:
        UnprovenOptimumError: when the deadline passed before any optimal
            ranking was found.
        InvalidKStarError: when no ranking attains k_star.
    """
    if orders:
        return orders[0]
    if truncated:
        raise UnprovenOptimumError(
            "time limit expired before any optimal ranking was recovered"
        )
    raise InvalidKStarError(f"no ranking attains the objective value {k_star!r}")


def _kappa_from_orders(
    a: WeightMatrix,
    k_star: float,
    orders: list[tuple[int, ...]],
    truncated: bool,
    deadline: float | None,
) -> KtResult:
    """kappa over the optima that lop._optimal_orders returned for k_star.

    A complete set is scanned pair by pair; a truncated one seeds the
    joint branch and bound with its first order. Raises as _first_optimum.
    """
    sigma0 = _first_optimum(k_star, orders, truncated)
    if truncated:
        return _pair_search(a, k_star, sigma0, deadline)
    return _kt_result(a.n, *_max_distance_pair(orders, a.n, deadline))


def solve_kt(
    a: WeightMatrix, k_star: float, cfg: SolverConfig | None = None
) -> KtResult:
    """Two optimal rankings as far apart as possible in Kendall tau.

    Enumerates the optima with the shared completion table. When the
    whole set fits the enumeration cap, kappa and the canonical pair, the
    lexicographically smallest (first, second) pair among all
    maximal-distance pairs, come from a scan over all pairs of optima.
    When the cap or the time limit truncates the enumeration, the joint
    branch and bound runs from the first optimum instead, and its pair
    need not be canonical. On timeout the best pair found so far is
    returned with proven=False.

    Raises:
        InvalidKStarError: when no ranking attains k_star.
        UnprovenOptimumError: when the time limit expires before even one
            ranking attaining k_star is found, so no pair can be reported.
    """
    cfg = cfg or DEFAULT_CONFIG
    deadline = _deadline(cfg)
    orders, truncated = _optimal_orders(a, k_star, cfg.enumeration_cap, deadline)
    return _kappa_from_orders(a, k_star, orders, truncated, deadline)


def _kappa_by_pair_search(
    a: WeightMatrix, k_star: float, cfg: SolverConfig | None = None
) -> KtResult:
    """kappa from the joint branch and bound alone, run from the first optimum.

    Enumerates one optimum and searches from it under cfg.time_limit, on
    any optima set; the CLI's --oracle check compares this route with the
    scan of the complete set. Raises as _first_optimum.
    """
    cfg = cfg or DEFAULT_CONFIG
    deadline = _deadline(cfg)
    orders, truncated = _optimal_orders(a, k_star, 1, deadline)
    sigma0 = _first_optimum(k_star, orders, truncated)
    return _pair_search(a, k_star, sigma0, deadline)


def _solve_with_kappa(
    a: WeightMatrix, cfg: SolverConfig
) -> tuple[float, list[tuple[int, ...]], bool, KtResult]:
    """Prove k*, enumerate the optima once and take kappa from them.

    The deadline is taken before the value step, so cfg.time_limit bounds
    all three phases. Returns k*, the optimal orders in lexicographic
    sequence (the first is solve_lop's canonical witness), whether the
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

    Reports violations instead of raising. Each side's objective must
    equal k_star within the solvers' comparison slack (lop._slack). The
    two optimally valid inequalities are listed separately: a merely
    feasible solution may break them, an optimal one never does.
    """
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
