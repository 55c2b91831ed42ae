"""Domain types and pure combinatorial primitives.

Weight matrices, rankings, linear-order encodings, Kendall tau distance,
symmetric reordering, and objective evaluation. Everything here is
immutable after construction and free of solver state, except that a
weight matrix keeps the solver's exact core, which depends on its weights
alone.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasibleSolutionError,
    InvalidArgumentError,
    MalformedInputError,
    MalformedPermutationError,
)

__all__ = [
    "WeightMatrix",
    "Ranking",
    "LinearOrder",
    "PairSet",
    "ranking_from_order",
    "ranking_from_position",
    "reverse_ranking",
    "objective_value",
    "upper_triangular_sum",
    "permute_matrix",
    "kendall_tau_distance",
    "concordant_discordant",
    "linear_order_from_ranking",
    "ranking_from_linear_order",
    "validate_linear_order",
    "read_matrix_csv",
    "write_matrix_csv",
]


class WeightMatrix:
    """An n x n matrix of nonnegative pairwise weights with zero diagonal.

    Entry (i, j) is the weight of evidence that item i should be ranked
    above item j. Instances are immutable; the underlying array is
    write-protected.
    """

    __slots__ = ("_weights", "_labels", "_core")

    def __init__(self, weights, labels: Sequence[str] | None = None):
        arr = np.asarray(weights, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatchError(f"weights must be square, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 2:
            raise DimensionMismatchError(f"need at least 2 items, got n={n}")
        if not np.isfinite(arr).all():
            raise MalformedInputError("weights must be finite")
        if (arr < 0).any():
            i, j = np.argwhere(arr < 0)[0]
            raise MalformedInputError(f"negative weight at ({i + 1}, {j + 1})")
        if np.diagonal(arr).any():
            raise MalformedInputError("diagonal entries must be 0")
        # The searches add up to twice the total weight (the bound of the
        # empty prefix sums every pair's larger weight twice).
        with np.errstate(over="ignore"):
            if not np.isfinite(2.0 * arr.sum()):
                raise MalformedInputError(
                    "weights too large: twice their total overflows"
                )
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise DimensionMismatchError(
                    f"{len(labels)} labels for {n} items"
                )
        arr = arr.copy()
        arr.flags.writeable = False
        self._weights = arr
        self._labels = labels
        # The exact searches' shared structures (a lop._Core), a pure
        # function of the weights, made the first time a search needs them.
        self._core = None

    @property
    def n(self) -> int:
        return self._weights.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def labels(self) -> tuple[str, ...] | None:
        return self._labels

    def total_sum(self) -> float:
        """Sum of all off-diagonal entries."""
        return float(self._weights.sum())

    def __getitem__(self, ij: tuple[int, int]) -> float:
        """1-based entry access: A[i, j] with i, j in 1..n.

        Raises:
            InvalidArgumentError: when i or j is not an integer in 1..n.
        """
        i, j = ij
        return float(self._weights[_offset(i, self.n), _offset(j, self.n)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightMatrix):
            return NotImplemented
        return (
            self._weights.shape == other._weights.shape
            and bool((self._weights == other._weights).all())
            and self._labels == other._labels
        )

    def __repr__(self) -> str:
        return f"WeightMatrix(n={self.n}, total={self.total_sum()})"


@dataclass(frozen=True)
class Ranking:
    """A permutation of n items.

    ``position[i-1]`` is the 1-based rank of item i (1 = best). ``order``
    lists items from best to worst; the two forms round-trip exactly.
    """

    position: tuple[int, ...]
    order: tuple[int, ...] = field(compare=False)

    def __init__(self, position: Sequence[int]):
        pos = _permutation(position, "positions")
        n = len(pos)
        order = [0] * n
        for item, p in enumerate(pos, start=1):
            order[p - 1] = item
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "order", tuple(order))

    @property
    def n(self) -> int:
        return len(self.position)

    def rank_of(self, item: int) -> int:
        """1-based rank of a 1-based item.

        Raises:
            InvalidArgumentError: when item is not an integer in 1..n.
        """
        return self.position[_offset(item, len(self.position))]

    def __lt__(self, other: "Ranking") -> bool:
        # Lexicographic on the order form; used to canonicalize witnesses.
        return self.order < other.order

    def __le__(self, other: "Ranking") -> bool:
        return self.order <= other.order


def _offset(index: int, n: int) -> int:
    """A 1-based index as a 0-based one; InvalidArgumentError unless it is in 1..n.

    Python and numpy would read 0 and negative indexes from the end.
    """
    if isinstance(index, numbers.Integral) and 0 < index <= n:
        return int(index) - 1
    raise InvalidArgumentError(f"index must be an integer in 1..{n}, got {index!r}")


def _integral(values: tuple) -> tuple[int, ...] | None:
    """values as Python ints, or None unless every one is integral.

    One comparison with their int() images rejects non-integral values,
    strings included, and accepts integral values of any numeric type.
    """
    try:
        items = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        return None
    return items if items == values else None


def _permutation(values: Iterable[int], form: str) -> tuple[int, ...]:
    """values as Python ints; MalformedPermutationError unless they are 1..n."""
    values = tuple(values)
    items = _integral(values)
    if items is None or sorted(items) != list(range(1, len(items) + 1)):
        raise MalformedPermutationError(
            f"{form} must be a permutation of 1..{len(values)}, got {values}"
        )
    return items


def ranking_from_order(order: Iterable[int]) -> Ranking:
    """Build a Ranking from a best-to-worst item list.

    Args:
        order: n distinct 1-based item indices, best first.

    Raises:
        MalformedPermutationError: on duplicates, out-of-range or
            non-integral items.
    """
    items = _permutation(order, "order")
    n = len(items)
    position = [0] * n
    for k, item in enumerate(items, start=1):
        position[item - 1] = k
    # Both forms are known to be permutations: set them without
    # Ranking.__init__ checking the position form again.
    ranking = object.__new__(Ranking)
    object.__setattr__(ranking, "position", tuple(position))
    object.__setattr__(ranking, "order", items)
    return ranking


def ranking_from_position(position: Iterable[int]) -> Ranking:
    """Build a Ranking from the position form (position[i-1] = rank of item i)."""
    return Ranking(tuple(position))


def reverse_ranking(sigma: Ranking) -> Ranking:
    """The reversed ranking: position'[i] = n + 1 - position[i]."""
    n = sigma.n
    return Ranking(tuple(n + 1 - p for p in sigma.position))


@dataclass(frozen=True)
class LinearOrder:
    """Binary decision matrix of a feasible solution: x[i,j] = 1 iff i is ranked above j."""

    x: np.ndarray

    def __init__(self, x):
        arr = np.asarray(x, dtype=np.int8).copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatchError(f"x must be square, got shape {arr.shape}")
        if not np.isin(arr, (0, 1)).all():
            raise InfeasibleSolutionError("entries must be 0 or 1")
        np.fill_diagonal(arr, 0)
        arr.flags.writeable = False
        object.__setattr__(self, "x", arr)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearOrder):
            return NotImplemented
        return self.x.shape == other.x.shape and bool((self.x == other.x).all())


@dataclass(frozen=True)
class PairSet:
    """A set of unordered 1-based index pairs (i, j) with i < j."""

    pairs: frozenset[tuple[int, int]]

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        normalized = frozenset((int(i), int(j)) for i, j in pairs)
        for i, j in normalized:
            if not i < j:
                raise MalformedPermutationError(f"pair ({i}, {j}) must have i < j")
        object.__setattr__(self, "pairs", normalized)

    @property
    def count(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return tuple(pair) in self.pairs

    def __iter__(self):
        return iter(sorted(self.pairs))


def _check_same_n(n1: int, n2: int, what: str) -> None:
    if n1 != n2:
        raise DimensionMismatchError(f"{what}: sizes {n1} and {n2} differ")


def objective_value(a: WeightMatrix, sigma: Ranking) -> float:
    """Weight of all pairs the ranking orders consistently.

    Returns the sum of a[i, j] over ordered pairs (i, j) where i is ranked
    above j. Maximizing this over all rankings is the linear ordering
    problem; for a fixed ranking it equals the upper-triangular sum of the
    symmetrically reordered matrix.
    """
    _check_same_n(a.n, sigma.n, "objective_value")
    ord0 = np.asarray(sigma.order) - 1
    reordered = a.weights[np.ix_(ord0, ord0)]
    return float(np.triu(reordered, k=1).sum())


def upper_triangular_sum(a: WeightMatrix) -> float:
    """Sum of entries strictly above the diagonal."""
    return float(np.triu(a.weights, k=1).sum())


def permute_matrix(a: WeightMatrix, sigma: Ranking) -> WeightMatrix:
    """Symmetric reordering of a matrix by a ranking.

    Row/column k of the result belongs to the item ranked k-th, so the
    upper-triangular sum of the result equals ``objective_value(a, sigma)``.
    Labels, when present, are reordered the same way.
    """
    _check_same_n(a.n, sigma.n, "permute_matrix")
    ord0 = np.asarray(sigma.order) - 1
    reordered = a.weights[np.ix_(ord0, ord0)]
    labels = None
    if a.labels is not None:
        labels = tuple(a.labels[i] for i in ord0)
    return WeightMatrix(reordered, labels)


def kendall_tau_distance(sigma1: Ranking, sigma2: Ranking) -> int:
    """Number of unordered pairs the two rankings order differently."""
    _check_same_n(sigma1.n, sigma2.n, "kendall_tau_distance")
    p1 = np.asarray(sigma1.position)
    p2 = np.asarray(sigma2.position)
    d1 = np.subtract.outer(p1, p1)
    d2 = np.subtract.outer(p2, p2)
    discordant = (d1 * d2) < 0
    return int(np.triu(discordant, k=1).sum())


def concordant_discordant(sigma1: Ranking, sigma2: Ranking) -> tuple[PairSet, PairSet]:
    """Split all pairs (i < j) into those ranked the same way and those not.

    Returns (concordant, discordant); the two sets partition the
    C(n, 2) unordered pairs.
    """
    _check_same_n(sigma1.n, sigma2.n, "concordant_discordant")
    n = sigma1.n
    conc, disc = [], []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            s1 = sigma1.position[i - 1] - sigma1.position[j - 1]
            s2 = sigma2.position[i - 1] - sigma2.position[j - 1]
            (disc if s1 * s2 < 0 else conc).append((i, j))
    return PairSet(conc), PairSet(disc)


def linear_order_from_ranking(sigma: Ranking) -> LinearOrder:
    """Encode a ranking as its binary decision matrix."""
    pos = np.asarray(sigma.position)
    x = (pos[:, None] < pos[None, :]).astype(np.int8)
    return LinearOrder(x)


def validate_linear_order(lo: LinearOrder) -> list[str]:
    """Check the tournament and 3-dicycle constraints.

    Returns a list of human-readable violation descriptions (1-based
    indices); empty when the matrix encodes a linear order.
    """
    x = lo.x
    n = lo.n
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            if x[i, j] + x[j, i] != 1:
                violations.append(
                    f"tournament constraint x[{i + 1},{j + 1}] + x[{j + 1},{i + 1}] = 1 violated"
                )
    # Constraint family: i < j, i < k, j != k covers both dicycle orientations.
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                if j == k:
                    continue
                if x[i, j] + x[j, k] + x[k, i] > 2:
                    violations.append(
                        f"3-dicycle constraint x[{i + 1},{j + 1}] + x[{j + 1},{k + 1}]"
                        f" + x[{k + 1},{i + 1}] <= 2 violated"
                    )
    return violations


def ranking_from_linear_order(lo: LinearOrder) -> Ranking:
    """Decode a binary decision matrix back into a ranking.

    Raises:
        InfeasibleSolutionError: naming the violated constraint if the
            matrix is not a complete acyclic tournament.
    """
    violations = validate_linear_order(lo)
    if violations:
        raise InfeasibleSolutionError(violations[0])
    beats = lo.x.sum(axis=1)
    position = lo.n - beats
    return Ranking(tuple(int(p) for p in position))


def read_matrix_csv(path) -> WeightMatrix:
    """Read a weight matrix from CSV.

    The first line may be ``labels:`` followed by n comma-separated names;
    the remaining n lines hold n comma-separated nonnegative reals each.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [(idx + 1, ln) for idx, ln in enumerate(lines) if ln]
    if not lines:
        raise MalformedInputError(f"{path}: empty file")
    labels = None
    if lines[0][1].startswith("labels:"):
        raw = lines[0][1][len("labels:"):]
        parts = [p.strip() for p in raw.split(",")]
        if parts and parts[0] == "":
            parts = parts[1:]
        labels = parts
        lines = lines[1:]
    rows = []
    for lineno, ln in lines:
        try:
            rows.append([float(tok) for tok in ln.split(",")])
        except ValueError as exc:
            raise MalformedInputError(f"{path}: line {lineno}: {exc}") from None
    n = len(rows)
    for (lineno, _), row in zip(lines, rows):
        if len(row) != n:
            raise MalformedInputError(
                f"{path}: line {lineno}: expected {n} columns, got {len(row)}"
            )
    if labels is not None and len(labels) != n:
        raise MalformedInputError(
            f"{path}: labels line has {len(labels)} names for {n} rows"
        )
    try:
        return WeightMatrix(rows, labels)
    except (MalformedInputError, DimensionMismatchError) as exc:
        raise MalformedInputError(f"{path}: {exc}") from None


def _label_reads_back(label: str, first: bool) -> bool:
    """Whether read_matrix_csv reads label back as it is from a labels line.

    The reader splits the line at commas, strips each name and drops an
    empty first one; a line break would end the line, and a lone surrogate
    has no UTF-8 encoding.
    """
    return (
        label == label.strip()
        and not any(c in ",\n\r" or "\ud800" <= c <= "\udfff" for c in label)
        and not (first and label == "")
    )


def write_matrix_csv(a: WeightMatrix, path) -> None:
    """Write a weight matrix in the CSV format accepted by read_matrix_csv.

    Raises:
        InvalidArgumentError: naming the first label that read_matrix_csv
            would not read back as it is, before the file is opened.
    """
    for pos, label in enumerate(a.labels or ()):
        if not _label_reads_back(label, pos == 0):
            raise InvalidArgumentError(
                f"label {pos + 1} ({label!r}) would not read back from a matrix"
                " CSV: a label holds no comma, line break or lone surrogate and"
                " does not start or end with whitespace, and the first is not"
                " empty"
            )
    with open(path, "w", encoding="utf-8") as fh:
        if a.labels is not None:
            fh.write("labels:" + ",".join(a.labels) + "\n")
        for row in a.weights:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@dataclass(frozen=True)
class SolverConfig:
    """Limits shared by every exact search in the package.

    The search is single-threaded and its heuristic restarts from a fixed
    seed, so reported witnesses and statistics are reproducible by
    construction. Which objective values count as equal is not set here:
    the comparison slack is worked out from the matrix (lop._slack).
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
