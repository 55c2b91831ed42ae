"""Exact solver for the linear ordering problem.

solve_lop finds a permutation maximizing the sum of pairwise weights
ranked in agreement, by branch and bound over ranking prefixes with an
admissible pairwise bound and dominance on the set of unplaced items,
started from an insertion heuristic's incumbent. Also provides the exact
core that every search of one matrix shares (_Core), its completion table,
the table-free witness search above the table budget, enumeration of all
optimal rankings, and the degree of linearity. The witness search, the
enumeration and the kappa pair search keep a prefix as its unplaced set
and one scalar, g = f + u, and read each child's bound from one row set,
the core's drop rows, in two lookups, plus the completion table's entry
inside its budget, for every weight type. So does the value proof when
every sum of the weights is exact, as layered numpy passes over the visits
of a depth-first search with a dominance memo, with that search's value,
order and counts (value.prove_value). Only _SplitRows knows how those sums
are laid out: its one kernel forms the children of numpy arrays of states,
in _LayerKernel's chunks for the layered passes and the optima walk, and
one scalar descent (_descend) places the canonical witness's items. For
other weights the value search is that depth-first search itself, and
keeps the incremental state with O(n) apply/undo per move, since the value
it reports is that state's (_Search).

Above the table budget, the canonical witness reads, for each child it
tries, the answer of the search for a completion and the nodes and
pruned that search counts without a memo, which depend on the child's
state (unplaced set, bound) alone (witness.WitnessLayers). Where few
prefixes tie at the optimum one layered numpy pass finds them for every
state that reaches the target: forward over those states, keeping for
each state the list of its edges, its children in the next layer that
reach the target, then backward along those edges for each state's
answer and counts. The forward pass stops at the first narrow layer, or
else at the one before the last, from which that search itself answers,
memoized on the state. Where many prefixes tie, the pass stops at its
budget and the memoized search answers for the whole descent. The pass,
the memo and each layer of the value passes hold at most _HELD_BYTES of
states, one budget that every state cap derives from.

The heuristic (heuristic_ranking) runs its 17 starts together as numpy
arrays: one greedy insertion pass, then insertion local search steps that
each read every position of every active start's order in place, n^2
entries a start, and move each start's first gaining item from its scan
pointer to where the scalar record rule ends on that item's gains; a
start ends in the step that finds no item left to move.
With exact sums every sum it compares is exact in any order, so it reads
one row of differences per item and each item's row sum (_PassRows), and
takes the first best position. Otherwise every sum it compares is a cumsum
or a fold over the terms the scalar loops add, in their order, with masked
terms exactly 0.0. On both routes its orders and values are those loops'
bit for bit.

The completion table is a subset dynamic program read as a grid, a set's
high items picking the row and its low items the column; it is filled one
layer of rows at a time from the drop rows the searches read, each entry
the best drop sum of an ordering of its set (_build_completion_table).
The high items' term is one gather over every (row, member) pair of the
layer and one max over members; the low items' row sums are formed once
per layer for every size of the low set, so each size takes one gather,
one add and the max, on the layer held transposed, a column per row, so
that each gathered index copies one contiguous run of the layer's rows.
Every work array holds at most a quarter of _WALK_CHUNK_BYTES, members or
sizes taken in groups where a term holds more. With exact sums and twice
the total within int16 (_Core.narrow), the same steps run in int16 on
doubled drop rows, whose every sum is then an exact integer, and the grid
stays the table: a quarter the size, each entry times _Core.unit (1/2)
the float64 route's bits.

The optima come from one walk for both routes, with the table and above
its budget without (_optimal_orders): depth first over chunks of prefixes of
one depth, every child of a chunk formed by the layer kernel and bounded
and kept by numpy operations over the whole chunk, with the additions of
a search over one prefix at a time, so the orders and the truncated flag
are that search's for every weight type. The kept children come out in
lexicographic order and are walked before the rest of their parents'
chunk, so the optima arrive sorted, held as one small-integer array
rather than a tuple each.

enumerate_optima, degree_of_linearity and the kappa and season routines
need only the proven value k*, not a witness, which inside the table
budget with exact sums is the root bound plus the core's table entry for
the full set (_proven_value).
"""

from __future__ import annotations

import bisect
import functools
import time
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

# SolverConfig and DEFAULT_CONFIG are core's, so the CLI parser needs no solver.
from .core import (
    DEFAULT_CONFIG, Ranking, SolverConfig, WeightMatrix, _integral, ranking_from_order,
)
from .errors import (
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

# Building a completion table holds its table, 2^n entries of 8 bytes on
# the float64 route and 2 on the int16 one, two of the table's row layers
# and work arrays of at most a quarter of _WALK_CHUNK_BYTES each, beside
# the core's drop rows (2 * n * 2^ceil(n/2) * 8 bytes, 144 KiB at n = 18).
# At n = 18 the build's traced peak is about 4.3 MiB on the float64 route
# and 1.2 MiB on the int16 one; afterwards the matrix's core keeps the
# table, 2 MiB or 0.5 MiB.
_TABLE_MAX_N = 18

# The most items the searches on split row sums take (_split_row_sums):
# those hold 8 n (2^floor(n/2) + 2^ceil(n/2)) bytes, 0.3 MiB at n = 20,
# 32 MiB at n = 32, 0.67 GB at n = 40 and about twice as much for every two
# items more, and keep unplaced sets as int64, packed with a bound code into
# one int64 key where it fits 63 bits (_packed_key), else in complex keys,
# exact below 2^53 (witness.py).
_MAX_ITEMS = 40

# Dominance memo entries of the depth-first value search for weights whose
# sums are not exact are dropped beyond this to bound its memory on large n.
# It is not drawn from _HELD_BYTES: which entries the memo keeps decides
# which visits it prunes, and so the nodes and pruned that solve_lop prints.
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

# The heuristic runs its starts in chunks, at least one start each, whose
# arrays stay within this many bytes: a local search step holds about
# _STEP_ARRAYS arrays of n * n entries per start on float sums (two with
# exact sums: the gains, summed in place, and their index), and the fold
# of the objectives _VALUE_ARRAYS arrays of n(n-1)/2, 8 bytes an entry.
# All 17 starts share one chunk up to n = 78; n = 200 runs 9 chunks of at
# most 2.
_HEURISTIC_CHUNK_BYTES = 1 << 22
_STEP_ARRAYS = 5
_VALUE_ARRAYS = 3

# The layer kernel expands one chunk of states at a time, at most as many
# as keep their children's work arrays, about _WALK_ARRAYS arrays of 8
# bytes a child and n children a state, within this many bytes
# (_LayerKernel): for the value and witness passes and the optima walk,
# each of whose depths besides holds the kept children of at most one
# chunk, a row each of n + 16 bytes (_optimal_orders). On a 2-vCPU x86-64
# host, 2^18 and 2^22 bytes were no faster for the walk on inputs with
# many optima, and up to 1.4 times slower. The kappa pair scan counts
# distances for blocks of rows within them (ktdiam._max_distance_pair),
# and the completion table's build keeps each work array within a quarter
# of it (_build_completion_table).
_WALK_CHUNK_BYTES = 1 << 20
_WALK_ARRAYS = 12

# No phase of one call holds more than this many bytes of search states:
# a layer of the value proof (value.py), the table-free witness pass or
# the witness's memoized search (witness.py). Each phase states the bytes
# it holds per state where it builds them, and its state cap is this
# budget over those bytes (_state_cap), read at call time; the witness's
# memo gets the budget less the bytes its pass holds. A phase that
# would hold more raises _Timeout, and solve_lop reports its incumbent
# with proven=False. The drop rows and the completion table are the
# core's, and the work arrays of a layer's chunk (_LayerKernel) stay within
# _WALK_CHUNK_BYTES, both outside the budget. 512 MiB is the least budget tried that lets
# the witness pass prove league 30/1 and 32/1 (tests/test_lop.py::_league,
# 156 and 472 MB of pass states when it kept an int32 link per item and
# state); at 256 and 320 MiB 32/1 still ended unproven, later and larger.
_HELD_BYTES = 1 << 29


def _state_cap(state_bytes: int) -> int:
    """The most states of state_bytes bytes each that one phase may hold."""
    return _HELD_BYTES // state_bytes


class _PackedKey(NamedTuple):
    """A search state as one int64 key: unplaced set, bound code, low bits.

    The set takes the high bits, an integer code of the state's bound the
    code_bits below them, and the low_bits at the bottom are left for a
    field of the caller's, such as a position. So the keys sort as (set,
    code, field), and numpy's int64 sort and binary search serve where a
    lexsort or complex keys would. Only the exact route (_Core.exact)
    packs: there every bound is a multiple of 1/2 below 2^52, so twice the
    difference of two bounds is an exact integer, the code. Only its
    methods write or read the layout.
    """

    code_bits: int
    low_bits: int

    def pack(self, rem, code, low=0):
        """The keys of sets rem, codes code and low fields low.

        An int64 array code becomes the keys, so that a layer's keys take
        one temporary beside them.
        """
        code <<= self.low_bits
        code |= rem << (self.code_bits + self.low_bits)
        code |= low
        return code

    def sets(self, keys: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The unplaced sets of keys, written to out when given, which may be keys."""
        return np.right_shift(keys, self.code_bits + self.low_bits, out=out)

    def codes(self, keys: np.ndarray) -> np.ndarray:
        """The bound codes of keys packed without a low field, in one pass."""
        return keys & ((1 << self.code_bits) - 1)

    def lows(self, keys: np.ndarray) -> np.ndarray:
        """The low fields of keys."""
        return keys & ((1 << self.low_bits) - 1)


def _packed_key(n: int, span: float, low_bits: int = 0) -> _PackedKey | None:
    """The key form for sets of n items, codes 0 to span and low_bits more bits.

    None when the key would not fit in 63 bits, so that it stays a
    nonnegative int64, or when span is negative.
    """
    if not span >= 0:
        return None
    code_bits = int(span).bit_length()
    if n + code_bits + low_bits > 63:
        return None
    return _PackedKey(code_bits, low_bits)


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


class _Core:
    """What every exact search of one matrix shares, each part built once.

    Kept on the matrix (_core), as a pure function of its weights: exact,
    whether _exact_sums holds; narrow, whether the completion table is
    built in int16 (_build_completion_table); eps, the slack through which
    every search, the heuristic and the validator compare objective sums
    (_slack); and, built on first use, the root bound and the drop rows,
    which live as long as the matrix (their bytes are at _MAX_ITEMS), and
    the completion table on those drop rows. Every search of unplaced sets
    reads the one row set, and starts from its one scalar g = f + u = root
    at the full set.

    The table is in the format narrow picks, an array('h') of doubled drop
    sums, 2 bytes a set, or an array('d') of drop sums; its readers take an
    entry times unit, and none of them looks at the format itself.
    """

    def __init__(self, a: WeightMatrix):
        # The weights, not the matrix, which keeps the core.
        self.weights = a.weights
        self.exact = _exact_sums(a)
        self.table: array | None = None
        # With exact sums every sum is exact and ties are equal. Otherwise
        # every sum or bound the searches compare is built from about 4 n^2
        # roundings, each of a value below twice the total in magnitude and
        # off by at most 2^-53 of it, so two computations of one objective
        # differ by less than about n^2 * 2^-49 of the total; a bound from
        # split row sums adds n row sums of at most n terms each to a start
        # or table entry of as many. The slack is 2^9 times that, room for
        # the rounding that the value search's apply/undo cycles accumulate.
        # It scales with the weights, so ties are decided alike at every
        # scale.
        total = a.total_sum()
        # With exact sums every sum the table build forms is a multiple of
        # 1/2 of at least minus the total, so doubled it is exact in int16,
        # above its least value, up to this total (_build_completion_table).
        self.narrow = self.exact and 2.0 * total <= np.iinfo(np.int16).max
        self.eps = 0.0 if self.exact else total * a.n * a.n * 2.0**-40
        if self.eps == np.inf:
            # total * n * n overflowed. Scaling by the power of two first
            # keeps the product finite for every finite total; where both
            # orders are finite and normal they give the same bits.
            self.eps = total * 2.0**-40 * a.n * a.n

    @property
    def unit(self) -> float:
        """A table entry's worth in drop sums: 0.5, exactly, for a doubled int16 entry."""
        return 0.5 if self.narrow else 1.0

    @functools.cached_property
    def root(self) -> float:
        """u at the empty prefix: half the fold of the pair maxima, added as _fold adds.

        cumsum adds each row left to right from a leading 0.0; the diagonal's
        zero leaves every partial sum of nonnegative weights as it is.
        """
        w = self.weights
        pair_max = np.concatenate([np.zeros((len(w), 1)), np.maximum(w, w.T)], axis=1)
        return _fold(pair_max.cumsum(axis=1)[:, -1].tolist()) / 2.0

    @functools.cached_property
    def drops(self) -> _SplitRows:
        """Split row sums of w - max(w, w.T), which every unplaced-set search reads."""
        w = self.weights
        return _split_row_sums(w - np.maximum(w, w.T))

    def completion(self, deadline: float | None) -> array | None:
        """The completion table on the drop rows, or None above _TABLE_MAX_N.

        A build that the deadline stops keeps none. Raises _Timeout once the
        deadline has passed, also when the table exists, so that a search
        phase starting after its deadline does no work.
        """
        if len(self.weights) > _TABLE_MAX_N:
            return None
        _check_deadline(deadline)
        if self.table is None:
            self.table = _build_completion_table(self.drops, deadline, self.narrow)
        return self.table


def _core(a: WeightMatrix) -> _Core:
    """The matrix's _Core, made on first use."""
    if a._core is None:
        a._core = _Core(a)
    return a._core


def _slack(a: WeightMatrix) -> float:
    """How far apart two objective sums of the matrix may be and still tie (_Core)."""
    return _core(a).eps


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
    scalar, g = f + u, and reads a child's term in two lookups in the
    core's drop rows, split row sums of w - max(w, w.T), at the halves of
    the parent's unplaced set (_SplitRows): placing v next adds v's drop
    row sum over the items left after it, and g == f at a leaf. With the
    completion table a child's bound adds the table's entry, the best drop
    sum of an ordering of the items left after it; without, its g is its
    bound.

    The witness search takes this form for every weight type, as do the
    optima walk (_optimal_orders) over whole chunks of prefixes and the kappa
    joint search (ktdiam._PairSearch), since they report only orders,
    chosen within the slack. The value search takes it when _exact_sums
    holds (self.exact), where every such sum is exact, as the layered
    passes of value.prove_value. Each of these starts from the core's root
    bound at the full set. Otherwise the value search is depth-first over
    the fields f, u, rem_mask and prefix (reset), and keeps apply/undo with
    O(n) updates of per-item sums per move (s_a and s_m, built on first
    use): the last bits of f depend on the order of the additions and
    subtractions that led to it, and solve_lop reports f, so only that
    sequence reproduces it.

    Every search stops early one way, by raising _Timeout: the depth-first
    value search (_rec_value) checks the deadline every 256 expanded nodes
    (_tick), the layered passes (value.prove_value and
    witness.WitnessLayers) before every chunk of states (self.kernel), and
    the witness's memoized search every 1024 states. The value passes and the
    witness's memo also raise it when their states would fill more than
    _HELD_BYTES, the memo's less the bytes the witness pass holds; the
    witness pass past it gives way to the memo.
    """

    def __init__(self, a: WeightMatrix, deadline: float | None = None):
        n = a.n
        self.n = n
        # Plain attributes, which the scalar loops read faster than the core's.
        self.core = core = _core(a)
        self.eps, self.exact, self.root = core.eps, core.exact, core.root
        self.deadline = deadline
        self.nodes = 0
        self.pruned = 0
        self._expanded = 0
        # The order the value search tries children in.
        self.child_order = list(range(n))
        self.memo: dict[int, float] = {}
        self.best_val = float("-inf")
        self.best_order: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Back to the root, with no item placed and s_a and s_m unbuilt."""
        self.in_rem = [True] * self.n
        self.rem_mask = (1 << self.n) - 1
        self.prefix: list[int] = []
        self.f, self.u = 0.0, self.root
        self.__dict__.pop("s_a", None)
        self.__dict__.pop("s_m", None)

    # The per-item sums and weight lists of the apply/undo moves, built at
    # the root on first use: only the value search without exact sums and
    # prefix_upper_bound read them.

    @functools.cached_property
    def w(self) -> list[list[float]]:
        return self.core.weights.tolist()

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

    @functools.cached_property
    def kernel(self) -> _LayerKernel:
        return _LayerKernel(self.core.drops, self.child_order, self.deadline)

    def _tick(self) -> None:
        self._expanded += 1
        if not self._expanded & 255:
            _check_deadline(self.deadline)

    # -- optimal value ---------------------------------------------------

    def run_value(self, start_order: list[int], start_value: float) -> bool:
        """Prove the maximum objective from a known incumbent; True on timeout.

        Tries children in the incumbent's order. With exact sums the
        layered passes of value.prove_value run the search.
        """
        self.best_val = start_value
        self.best_order = list(start_order)
        self.child_order = list(start_order)
        self.__dict__.pop("kernel", None)
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
        pass over its states and, past the pass's cut, from that search
        memoized on its state, or from the memoized search alone
        (witness.WitnessLayers), whose nodes and pruned it adds for every
        child it tries. Every weight type takes this route. Raises
        _Timeout when the deadline passes first or the memo would hold
        more states than the bytes the pass left.
        """
        target = k_star - self.eps
        table = self.core.completion(self.deadline)
        if table is None:
            # Imported here, so that only a witness search without a table
            # loads it. Without cached bytecode Python compiles a module on
            # import, and the heap that takes stays in use: with the passes
            # inside lop.py the bnb-large runs peaked 0.3-0.5 MB higher.
            from .witness import WitnessLayers

            return WitnessLayers(self, target).descend()

        unit = self.core.unit

        def reaches(t: int, child: float) -> bool:
            return child + table[t] * unit >= target

        return _descend(self.core.drops, self.root, reaches)


def _descend(rows: _SplitRows, x: float, reaches: Callable) -> list[int] | None:
    """The order of the smallest items that reach, from the empty prefix at scalar x.

    Each position takes the smallest unplaced item v whose child, the
    scalar so far plus v's row sum over the unplaced set rem, passes
    reaches(rem without v, child). Returns the order, or None where no
    child passes.
    """
    lo, hi = rows.lo, rows.hi
    rem, prefix = (1 << len(rows.items)) - 1, []
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
    return prefix


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


def _item_count(n: int) -> int:
    """n; TooManyItemsError above _MAX_ITEMS, the most the exact searches take."""
    if n > _MAX_ITEMS:
        raise TooManyItemsError(
            f"the exact searches take at most {_MAX_ITEMS} items, got n={n}"
        )
    return n


@functools.lru_cache(maxsize=4)
def _without_own_item(k: int) -> np.ndarray:
    """mask[bit, S]: set S of k items lacks item bit; weight-free, read-only."""
    mask = (np.arange(1 << k) >> np.arange(k)[:, None]) & 1 == 0
    mask.flags.writeable = False
    return mask


def _split_row_sums(w: np.ndarray) -> _SplitRows:
    r"""w's row sums split at h = floor(n/2), as _SplitRows.

    A search reads each half at its part of rem, which holds v in v's own
    half (_SplitRows). So in v's own half row v holds at a set with v the
    sum over that set without v, and -inf at a set without v; every other
    row is as _row_sums adds it, and the sum has the bits of
    lo[v, T & low] + hi[v, T >> h] at T = rem \ v. The sum over a set with
    v already has the bits of the sum without v, so the -inf entries are
    one masked store (_without_own_item): the sum adds w[v, v], +0.0 or
    -0.0, to a partial sum that starts from +0.0 and adds terms of one
    sign (nonnegative weights, nonpositive drop rows), so is never -0.0,
    and adding a zero to a sum that is not -0.0 changes no bit.

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
    n = _item_count(w.shape[0])
    h = n // 2
    halves = []
    for first, part in ((0, w[:, :h]), (h, w[:, h:])):
        flat = array("d", [0.0]) * (n << part.shape[1])
        sums = np.frombuffer(flat).reshape(n, -1)
        _row_sums(part, sums)
        k = part.shape[1]
        np.copyto(sums[first : first + k], -np.inf, where=_without_own_item(k))
        halves.append((flat, sums.ravel()))
    (lo, lo_view), (hi, hi_view) = halves
    v = np.arange(n)
    at_lo, at_hi = v << h, v << (n - h)
    items = list(zip(range(n), (1 << v).tolist(), at_lo.tolist(), at_hi.tolist()))
    return _SplitRows(lo, hi, lo_view, hi_view, h, (1 << h) - 1, items, at_lo, at_hi)


class _LayerKernel:
    """The children of states (unplaced set, bound) for the layered passes and the walk.

    kept forms them in a (state, position) grid, position j placing
    order[j], from split row sums rows, a chunk of states at a time: as
    many as keep _WALK_ARRAYS work arrays of 8 bytes a child within
    _WALK_CHUNK_BYTES. A placed item's child is -inf (_SplitRows.children),
    so order may list every item.
    """

    def __init__(self, rows: _SplitRows, order: Sequence[int], deadline: float | None):
        self.rows, self.deadline = rows, deadline
        self.order = order = np.array(order, dtype=np.int64)
        self.bits = np.left_shift(1, order)
        self.at_lo, self.at_hi = rows.at_lo.take(order), rows.at_hi.take(order)
        self.chunk = max(1, _WALK_CHUNK_BYTES // (_WALK_ARRAYS * 8 * order.size))

    def kept(self, rem: np.ndarray, x: np.ndarray, keep: Callable):
        """Per chunk of the states (rem, x), the children keep takes.

        keep(child, first) says which of the chunk's grid to keep, its first
        entry at flat index first in the layer's. Yields the chunk's slice
        of the states and each kept child's flat index in the chunk's grid,
        ascending, set and bound; raises _Timeout past the deadline.
        """
        n = self.order.size
        for start in range(0, rem.size, self.chunk):
            _check_deadline(self.deadline)
            part = slice(start, min(start + self.chunk, rem.size))
            child = self.rows.children(rem[part, None], x[part, None], self.at_lo, self.at_hi)
            at = keep(child, start * n).ravel().nonzero()[0]
            parent, position = np.divmod(at, n)
            sets = rem[part].take(parent)
            sets ^= self.bits.take(position)
            child = child.ravel().take(at)
            yield part, at, sets, child


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


def _build_completion_table(
    drops: _SplitRows, deadline: float | None, narrow: bool
) -> array:
    r"""table[S] = best sum of drop rows an ordering of item set S can add.

    drops are the core's drop rows (_Core.drops), split row sums of
    w - max(w, w.T): an ordering's drop sum is its objective over S less
    the pair maxima inside S, so a search's bound g plus the entry for the
    items left is the bound f plus the best completion, and k* is the
    root bound plus the full set's entry. Subset dynamic program: table[S]
    is the best over v in S of placing v above the rest of S, worth
    rowsum[v, S \ v] + table[S \ v], where rowsum[v, T] is v's drop row
    sum over the items of T.

    The table is read as a grid T[B, A] of 2^(n-h) rows by 2^h columns,
    h = floor(n/2): S = B * 2^h + A, with A the set's low items and B its
    high ones. The grid is filled one row layer, the rows B of one size,
    at a time, in two terms:

    - High items: placing j in B leaves row B \ j of the layer before. One
      gather over every (B, j) pair of the layer (_subsets' member-major
      pairs) forms j's row sums over every A, one add puts row B \ j of
      the grid on them, and one max over the members' axis gives the layer.
    - Low items: for each size of A in turn, placing i in A leaves column
      A \ i of the same rows, filled one size earlier. For this term the
      layer is transposed once, with its columns held by size
      (_Subsets.order) as its rows: each size is one slice, each gathered
      index copies the contiguous run of that column's entries over every
      row of the layer, and the max over members reduces the leading axis.
      i's row sum over the row's high items plus its row sum over A \ i is
      formed once per layer for every (A, i) pair of every size, so each
      size takes one gather of columns A \ i, one add and the max. The
      layer goes back into the grid, in set order, once at the end.

    Every work array of a term holds at most a quarter of
    _WALK_CHUNK_BYTES: a term whose pairs hold more takes its members, or
    its sizes of A, in groups that fit. On a 2-vCPU x86-64 host, float64
    builds at n = 16 and 17 took 1.3 to 1.7 times as long with work arrays
    of 512 KiB or 1 MiB as with 256 KiB, and int16 builds at n = 14-18
    the same time within 4%.

    The (set, member) pairs come from _subsets. rowsum[v, S \ v] =
    lo[v, A] + hi[v, B], read at the parent set, since v's own half holds
    there its sum without v. Each entry forms the row sum first and then
    adds it and table[rest], as the scalar recurrence does; one addition
    has the same bits in either operand order, and max is exact in any
    grouping. So for every weight type the table equals the scalar
    recurrence over the same split row sums
    (tests/oracles.py::completion_table_split_loop) bit for bit. When
    every sum of the weights is exact (_exact_sums), any order of adding
    them gives the same bits, so the table plus the pair maxima inside
    each set also equals tests/oracles.py::completion_table_loop; otherwise
    its entries are within the rounding that _slack allows for of that
    recurrence, and every reader compares them within it.

    narrow, which only the core decides (_Core.narrow), takes the same
    steps in int16 on doubled rows. Every sum a step forms is the drop sum
    of an ordering of a subset, a row sum or a row sum plus a table entry,
    between minus the total and 0. With exact sums each is a multiple of
    1/2, so when twice the total fits in int16 each doubled sum is an
    exact integer above int16's least value, and the halved grid has the
    bits of the float64 one. No step reads the split rows' -inf entries,
    and layer 0's initial entries never win a maximum, so the least value
    stands for both.

    Returns the grid's own storage, filled in place through its numpy
    view: on the int16 route an array('h') of the doubled entries, 2 bytes
    a set, whose every entry halved is the float64 route's entry bit for
    bit, else an array('d'). The searches index it one entry at a time
    and read an entry times _Core.unit. Raises _Timeout before any step
    of the grid, the high term of a layer or one size of A, once the
    deadline has passed.
    """
    n = len(drops.items)
    h = drops.h
    m = n - h
    lo = drops.lo_view.reshape(n, 1 << h)
    hi = drops.hi_view.reshape(n, 1 << m)
    least = -np.inf
    if narrow:
        # Doubled, with the -inf entries as int16's least value.
        least = np.iinfo(np.int16).min
        lo, hi = (np.maximum(2.0 * x, least).astype(np.int16) for x in (lo, hi))
        out = array("h", [0]) * (1 << n)
    else:
        out = array("d", [0.0]) * (1 << n)
    # The DP fills the returned array in place, through a numpy view of it.
    grid = np.frombuffer(out, out.typecode).reshape(1 << m, 1 << h)
    most = _WALK_CHUNK_BYTES // 4 // grid.itemsize
    low = _subsets(h)
    # Every (A, i) pair, size of A after size: i, the column of A \ i and
    # i's row sum over A \ i. Size a's pairs run from ends[a] to ends[a + 1].
    _, low_items, low_rests, low_owners = (np.concatenate(x) for x in zip(*low.layers))
    low_gain = lo[low_items, low_owners][:, None]
    low_rests = low.position[low_rests]
    ends = np.cumsum([0] + [x.size for _, x, _, _ in low.layers]).tolist()
    for b, (rows, items, rests, owners) in enumerate(_subsets(m).layers):
        _check_deadline(deadline)
        count = rows.size
        if b == 0:
            # The row of the empty high set: the empty set adds 0, and the
            # low-item steps fill the rest of the row.
            layer = np.full((1, 1 << h), least, grid.dtype)
            layer[0, 0] = 0.0
        # j's row sums over every A, then over B \ j at each row B, for a
        # group of members at a time; a group of one member is its own best.
        step = count * max(1, most // (count << h))
        for start in range(0, b * count, step):
            pairs = slice(start, start + step)
            v = h + items[pairs]
            gain = lo.take(v, axis=0)
            gain += hi[v, owners[pairs]][:, None]
            gain += grid.take(rests[pairs], axis=0)
            if step > count:
                gain = np.maximum.reduce(gain.reshape(-1, count, 1 << h))
            layer = gain if start == 0 else np.maximum(layer, gain, out=layer)
        # Transposed for the low-item steps, columns by size as rows, so
        # each size is one slice and each (A, i) pair reads a contiguous
        # run of the layer's rows; the store puts it back in set order.
        layer = layer.T.take(low.order, axis=0)
        # i's row sum over each row B (axis 1) and over A \ i at each pair
        # (axis 0), for a run of sizes at a time.
        high = hi[:h].take(rows, axis=1)
        first = last = 0
        span = max(1, most // count)
        for a in range(1, h + 1):
            _check_deadline(deadline)
            if ends[a + 1] > last:
                first = ends[a]
                last = max(ends[bisect.bisect_right(ends, first + span) - 1], ends[a + 1])
                part = high.take(low_items[first:last], axis=0)
                part += low_gain[first:last]
            gain = layer.take(low_rests[ends[a] : ends[a + 1]], axis=0)
            gain += part[ends[a] - first : ends[a + 1] - first]
            best = layer[low.starts[a] : low.starts[a + 1]]
            np.maximum(best, np.maximum.reduce(gain.reshape(a, -1, count)), out=best)
        grid[rows] = layer.take(low.position, axis=0).T
        # Freed before the next layer's high-item term.
        layer = part = gain = best = None
    return out


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
    return pairs.cumsum(axis=1)[:, -1] + 0.0


class _PassRows(NamedTuple):
    """The weights as the heuristic's batched passes read them (_pass_rows).

    With exact sums (_Core.exact): d[v * n + u] = w[u, v] - w[v, u], what v
    gains by moving below u, and sums[v], the sum of row v, what v gains
    placed first; ww is None. Otherwise ww[:, v * n + u] = (w[v, u],
    w[u, v]), the terms that the scalar loops add, and d and sums are None.
    """

    ww: np.ndarray | None
    d: np.ndarray | None
    sums: np.ndarray | None


def _pass_rows(a: WeightMatrix) -> _PassRows:
    """The matrix's rows for the heuristic's passes, on its route (_PassRows)."""
    w = a.weights
    if _core(a).exact:
        return _PassRows(None, (w.T - w).ravel(), w.sum(axis=1))
    return _PassRows(np.stack([w.ravel(), w.T.ravel()]), None, None)


def _greedy_batch(rows: _PassRows, items: np.ndarray) -> np.ndarray:
    """Greedy insertion of each row of items, all rows in one pass; the orders.

    Step k places each row's k-th item v before position p of its order
    where that gains most: v gains w[v, u] over every placed u, and each u
    it moves below adds w[u, v] - w[v, u]. The scalar loop's strict test
    keeps the first best position, as argmax does. With exact sums every
    partial sum is exact, so the w[v, u] over every placed u, the same at
    every p, can be left out: one cumsum of d over the placed order from a
    leading 0.0 ranks the positions. Otherwise one cumsum over the loop's
    2k terms gives every position's gain (position p at entry k - 1 + p),
    added in the loop's order.
    """
    count, n = items.shape
    orders = np.empty_like(items)
    orders[:, 0] = items[:, 0]
    gains = np.zeros((count, 2 * n if rows.d is None else n + 1))
    # index[:, :k] = v * n + u for each row's k-th item v and placed u.
    offsets = items * n
    index = np.empty_like(items)
    at_rows = np.arange(count)
    cols = np.arange(1, n)
    for k in range(1, n):
        placed = orders[:, :k]
        pairs = np.add(offsets[:, k, None], placed, out=index[:, :k])
        if rows.d is None:
            pair = rows.ww.take(pairs, axis=1, mode="clip")
            seq = gains[:, : 2 * k]
            seq[:, :k] = pair[0]
            np.subtract(pair[1], pair[0], out=seq[:, k:])
            seq.cumsum(axis=1, out=seq)
            at = seq[:, k - 1 :].argmax(axis=1)
        else:
            seq = gains[:, 1 : k + 1]
            rows.d.take(pairs, out=seq, mode="clip")
            seq.cumsum(axis=1, out=seq)
            at = gains[:, : k + 1].argmax(axis=1)
        np.copyto(orders[:, 1 : k + 1], placed, where=cols[:k] > at[:, None])
        orders[at_rows, at] = items[:, k]
    return orders


@functools.lru_cache(maxsize=16)
def _sides(n: int) -> np.ndarray:
    """sides[0][q, i] = 1.0 where q < i and sides[1][q, i] where q > i, read-only."""
    q = np.arange(n)
    sides = np.array([q[:, None] < q, q[:, None] > q], dtype=float)
    sides.flags.writeable = False
    return sides


def _step_gains(rows: _PassRows, view: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One local search step's insertion gains and current gains.

    view holds the step's orders, one a row. Gains come as an array of shape
    (n + 1, orders, n): for the item v at position i of an order, its gain
    at position p at entry p up to i and at entry p + 1 after it, entries i
    and i + 1 both the gain of staying. Current comes as an array of shape
    (orders, n): the weight v gains in place, w[u, v] over u above it plus
    w[v, u] over u below.

    With exact sums, the gains are one cumsum of v's row sum and its d row
    along the order, and current is v's own entry: every partial sum is a
    multiple of 1/2 below twice the total, exact in any order. Otherwise
    each sum is the scalar loop's, bit for bit, from arrays of shape (n,
    orders, n) that read u = order[q] at row q:

    - current folds w[u, v] over q < i and w[v, u] over q > i, each with
      the other terms masked to 0.0;
    - the gains are the fold of w[v, u] over every q (0.0 at q = i), then
      its prefix sums with w[u, v] - w[v, u] for every q (0.0 at q = i).

    Each fold is np.add.reduce over an axis other than the last of a
    C-contiguous array, which adds the terms in index order, and each
    prefix sum a cumsum, which adds left to right; adding 0.0 changes no
    sum (-0.0 aside, which compares equal).
    """
    size, n = view.shape
    # index[q, r, i] = v * n + u for v = order[i] and u = order[q] of order
    # r. Every index is in range, so mode="clip" only spares take the
    # bounds check and the copy it makes of out.
    index = view.T[:, :, None] + view * n
    if rows.d is not None:
        gains = np.empty((n + 1, size, n))
        rows.sums.take(view, out=gains[0], mode="clip")
        rows.d.take(index, out=gains[1:], mode="clip")
        gains.cumsum(axis=0, out=gains)
        # The own entry of position i of order r is gains[i, r, i].
        return gains, gains.diagonal(axis1=0, axis2=2)
    # seq[:n] = w[v, u] and seq[n:] = w[u, v] for u = order[q] at row q.
    seq = np.empty((2 * n, size, n))
    pairs = seq.reshape(2, n, size, n)
    rows.ww.take(index, axis=1, out=pairs, mode="clip")
    del index
    # parts[0] = w[u, v] above v and parts[1] = w[v, u] below it.
    parts = pairs[::-1] * _sides(n)[:, :, None, :]
    folds = np.add.reduce(parts, axis=1)
    current = folds[0] + folds[1]
    # gains[0] is the fold of seq[:n], and gains[p] adds the first p
    # differences to it.
    fold = np.add.reduce(seq[:n], axis=0)
    np.subtract(seq[n:], seq[:n], out=seq[n:])
    gains = seq[n - 1 :]
    gains[0] = fold
    gains.cumsum(axis=0, out=gains)
    return gains, current


def _record(gains: np.ndarray, current: float | None, slack: float) -> int:
    """The entry where the scalar record rule ends on one position's gains.

    gains are the n + 1 insertion gains of the item at one position i
    (_step_gains). The rule takes the last entry that beats the best so
    far, starting from current, by more than slack. With exact sums current
    is None: the slack is 0, so the rule ends at the first maximum. On a
    mover (_local_search_batch) it ends at neither entry i nor i + 1, so
    the item moves: both are the gain of staying, equal to current on the
    exact route and within rounding far below slack of it otherwise.
    """
    if current is None:
        return int(gains.argmax())
    best, best_j = current, -1
    for j, gain in enumerate(gains.tolist()):
        if gain > best + slack:
            best, best_j = gain, j
    return best_j


def _local_search_batch(rows: _PassRows, orders: np.ndarray, slack: float) -> None:
    """Insertion local search on every row of orders at once, in place.

    Each order is scanned position by position, as the scalar loop does:
    the item there moves to its best position when that gains more than
    slack over its current contribution (a gain within slack may be
    rounding alone, and taking it can cycle); the scan goes on after that
    position; a pass that moved an item starts another from the top, and
    a pass that moved none ends the search.

    A step forms the gains of every position of every active order in
    place (_step_gains), and checks them from the scan pointer to the end,
    then, if the pass has moved an item, the positions before it, which the
    next pass reads first: an order with no mover in either ends in that
    step. A position is a mover when some gain beats current by more than
    slack. The first mover of each order, from the scan pointer and then
    from the top, moves where the record rule ends on its gains (_record),
    which is never its own place, and positions after it are read again
    from the changed order in the next step.
    """
    count, n = orders.shape
    scan = [0] * count
    improved = [False] * count
    active = list(range(count))
    while active:
        gains, current = _step_gains(rows, orders[active])
        movers = (gains.max(axis=0) > current + slack).tolist()
        still = []
        for column, r in enumerate(active):
            flags, top = movers[column], scan[r]
            if True in flags[top:]:
                at = flags.index(True, top)
            elif improved[r] and True in flags:
                at = flags.index(True)
            else:
                # The pass ends; one that moved no item ends the search, and
                # with no mover before the pointer either the next pass
                # would read the order unchanged and end it.
                continue
            best = None if rows.d is not None else float(current[column, at])
            j = _record(gains[:, column, at], best, slack)
            order = orders[r].tolist()
            order.insert(j if j <= at else j - 1, order.pop(at))
            orders[r] = order
            # The scan goes on after the moved position; past the last
            # position the pass ends, having moved an item.
            scan[r] = (at + 1) % n
            improved[r] = at + 1 < n
            still.append(r)
        active = still


@functools.lru_cache(maxsize=16)
def _random_starts(n: int, restarts: int) -> np.ndarray:
    """The heuristic's random orders of 0..n-1, read-only, one row each.

    The rows are the first restarts permutation(n) draws of a generator
    seeded with _HEURISTIC_SEED, drawn once per n and restarts.
    """
    rng = np.random.default_rng(_HEURISTIC_SEED)
    starts = np.array([rng.permutation(n) for _ in range(restarts)], dtype=np.int64)
    starts = starts.reshape(restarts, n)
    starts.flags.writeable = False
    return starts


def heuristic_ranking(a: WeightMatrix) -> Ranking:
    """Strong feasible ranking: greedy insertion plus insertion local search.

    Runs from the net-wins order and _HEURISTIC_RESTARTS random orders from
    a fixed seed (_random_starts), so it is deterministic. The returned
    ranking's objective is at least total_sum(a) / 2, by taking the better
    of the final order and its reverse.

    All starts run together as numpy arrays, in chunks whose arrays stay
    within _HEURISTIC_CHUNK_BYTES: one greedy pass (_greedy_batch),
    one batched local search (_local_search_batch), whose steps read n^2
    entries a start at any n, and one fold of their objectives
    (_order_values). With exact sums the passes read the matrix's
    difference rows (_pass_rows), where every sum is exact in any order;
    otherwise every sum they compare is formed by cumsum or by a fold in
    index order from the same terms, in the same order, as the
    scalar loops of tests/oracles.py::heuristic_ranking_loop form it. The
    objectives are always so formed. So the orders and their values are
    those loops' bit for bit, at every weight scale.
    """
    order, _ = _heuristic(a)
    return ranking_from_order([v + 1 for v in order])


def _heuristic(a: WeightMatrix) -> tuple[list[int], float]:
    """heuristic_ranking's order, of items 0 to n - 1, and its objective.

    The objective is the fold (_order_values) that ranked the starts.
    """
    n = a.n
    w = a.weights
    slack = _slack(a)
    # Row and column sums, folded left to right.
    net = (np.cumsum(w, axis=1)[:, -1] - np.cumsum(w, axis=0)[-1]).tolist()
    net_wins = sorted(range(n), key=lambda v: (-net[v], v))
    starts = np.vstack([net_wins, _random_starts(n, _HEURISTIC_RESTARTS)])
    rows = _pass_rows(a)
    per_start = 8 * max(_STEP_ARRAYS * n * n, _VALUE_ARRAYS * n * (n - 1) // 2)
    chunk = max(1, _HEURISTIC_CHUNK_BYTES // per_start)
    # Every order is worth at least 0, so the first start always replaces
    # this placeholder.
    best_order: list[int] = []
    best_val = float("-inf")
    for first in range(0, len(starts), chunk):
        orders = _greedy_batch(rows, starts[first : first + chunk])
        _local_search_batch(rows, orders, slack)
        for order, val in zip(orders.tolist(), _order_values(w, orders).tolist()):
            if val > best_val + slack or (
                abs(val - best_val) <= slack and order < best_order
            ):
                best_val = val
                best_order = order
    reverse = best_order[::-1]
    reverse_val = float(_order_values(w, np.array([reverse]))[0])
    if reverse_val > best_val:
        return reverse, reverse_val
    return best_order, best_val


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

    The incumbent and its value come from _heuristic, the value as the
    fold (_order_values) that ranked the starts. Returns the search, whose
    best_val and best_order hold the best value and order found, the
    heuristic's value, and whether the deadline stopped the search before
    it was exhausted.

    Raises:
        TooManyItemsError: above _MAX_ITEMS items, before the heuristic.
    """
    _item_count(a.n)
    heur_order, heur_val = _heuristic(a)
    search = _Search(a, deadline)
    timed_out = search.run_value(heur_order, heur_val)
    return search, heur_val, timed_out


def _proven_value(a: WeightMatrix, deadline: float | None) -> float:
    """The optimal objective value k*, proven before deadline, without a witness.

    Inside the table budget with exact sums, k* is the root bound plus the
    completion table's entry for the full set; no heuristic and no branch
    and bound run. There any summation order gives the same bits, so the
    value equals solve_lop's. Otherwise it comes from solve_lop's value
    phase.

    Raises:
        UnprovenOptimumError: when the deadline passes first.
    """
    core = _core(a)
    if a.n <= _TABLE_MAX_N and core.exact:
        try:
            return core.root + core.completion(deadline)[-1] * core.unit
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
    configured time limit expires before both are done, or the witness
    search finds no order, the best incumbent is returned with
    proven=False; the reported value is always attained by the reported
    ranking.
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
            witness = None
        if witness is None:
            # The value is proven, but the incumbent need not be canonical.
            proven = False
        else:
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
) -> tuple[np.ndarray, bool]:
    """Optimal 1-based order forms in lexicographic sequence, up to cap.

    A depth-first walk over chunks of prefixes of one depth, each a row of
    its order, its unplaced set and its g = f + u, from the core's empty
    prefix: its root bound, drop rows and table. The layer kernel forms
    each chunk's children over all n items in ascending order, a placed
    item's -inf, with the additions of the depth-first search over one
    prefix at a time (tests/oracles.py::enumerate_leaves_loop), so the
    same bits. A child is kept when its bound, g plus the table's entry
    for the items left after it where there is a table, reaches
    k_star - eps, and at the last position when its g is within eps of
    k_star. They come parent first, item second, which is lexicographic
    order, and are walked before the rest of their parents' chunk, which
    they all precede.

    Returns the orders as an (count, n) int8 array, one order per row, and
    truncated: whether more than cap optima exist (the walk looks for one
    past the cap) or the deadline, checked before each chunk, stopped it,
    with the orders found so far. Raises nothing, so a deadline that has
    already passed gives no orders and truncated=True.
    """
    core = _core(a)
    n = a.n
    try:
        table = core.completion(deadline)
    except _Timeout:
        return np.empty((0, n), np.int8), True
    root, rows = core.root, core.drops
    kernel = _LayerKernel(rows, range(n), deadline)
    completions = None if table is None else np.frombuffer(table, table.typecode)
    unit = core.unit
    target = k_star - core.eps

    def layer(depth: int, rem: np.ndarray, g: np.ndarray):
        """The kernel's chunks of the kept children of the prefixes (rem, g) of depth."""

        def keep(child: np.ndarray, first: int) -> np.ndarray:
            if depth == n - 1:
                # The bound at a leaf adds table[0] = 0.0: its g alone.
                return (child >= target) & (np.abs(child - k_star) <= core.eps)
            if completions is not None:
                first //= n
                rest = rem[first : first + len(child), None] ^ kernel.bits
                child = child + completions.take(rest) * unit
            return child >= target

        return kernel.kept(rem, g, keep)

    # Each entry holds the prefixes of one depth, full width with positions
    # from the depth on unset, and their children's chunks still to walk.
    full = np.array([(1 << n) - 1])
    stack = [(np.zeros((1, n), np.int8), layer(0, full, np.array([root])))]
    leaves = [np.empty((0, n), np.int8)]
    found = 0
    truncated = False
    try:
        while stack:
            orders, chunks = stack[-1]
            step = next(chunks, None)
            if step is None:
                stack.pop()
                continue
            part, at, sets, child = step
            depth = len(stack)
            parent, item = np.divmod(at, n)
            kids = orders[part].take(parent, axis=0)
            kids[:, depth - 1] = item
            if depth < n:
                stack.append((kids, layer(depth, sets, child)))
                continue
            leaves.append(kids)
            found += at.size
            if found > cap:
                truncated = True
                break
    except _Timeout:
        truncated = True
    orders = np.concatenate(leaves)[:cap]
    orders += 1
    return orders, truncated


def enumerate_optima(a: WeightMatrix, cfg: SolverConfig | None = None) -> OptimaSet:
    """Collect every ranking whose objective equals the proven optimum.

    A depth-first walk over chunks of prefixes (_optimal_orders) keeps a
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
