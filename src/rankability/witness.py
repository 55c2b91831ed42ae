"""The table-free canonical witness, from one layered numpy pass or a memo.

Above the completion-table budget, lop._Search.lex_min_witness places,
position by position, the smallest item that some completion still takes
to k*, and counts the nodes and pruned children of a depth-first search
for that completion. WitnessLayers reads the same answers and counts
from one pass over that search's states, forward to form and link them
and backward over the links, or from that search memoized on its state.
"""

from __future__ import annotations

import numpy as np

from .errors import RankabilityError
from .lop import _MAX_STATES, _check_deadline, _descend, _Search, _Timeout

# The witness pass takes a layer's states a chunk at a time, so that each
# work array of one entry per state and item stays within this many bytes,
# at 8 bytes an entry; a chunk holds about three such arrays at once. On the
# benchmark's bnb-large inputs (n = 19-22), 64 KiB chunks ran about 5%
# faster but raised the run's peak RSS by 0.2-0.3 MB.
_CHUNK_BYTES = 1 << 14

# The forward pass merges a layer's new children into its keys once they
# outnumber both the keys so far and this many (1 MiB): each key is sorted
# a bounded number of times, and only larger layers carry links forward.
_MERGE_KEYS = 1 << 16

# The witness pass holds every state that reaches the target, while they
# number at most this many per node of the value search: 0.6 to 2.2 on the
# benchmark's 160 bnb-large inputs and a p = 0.5 tournament at n = 19. With
# every weight equal all 2^n sets reach it, and the value search expands a
# handful of nodes; there the memoized search answers.
_STATES_PER_NODE = 4

# The witness pass keeps its nodes and pruned per state as int64. A layer
# whose states could add up more than this raises rather than wraps.
_COUNT_MAX = 2**63 - 1

# The links of a child below target (1 pruned) and, one more, of one whose
# item is placed already (nothing): the two entries past a layer's states.
_BELOW, _PLACED = -2, -1


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, ascending; sorts x in place.

    np.unique would do, but its first call imports numpy.ma, about 1.5 MB.
    """
    x.sort()
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


class WitnessLayers:
    """The table-free witness search, read from one pass or from a memo.

    Above the table budget, lex_min_witness asks for each child of the
    canonical prefix whether some completion of it reaches target. A
    depth-first search for one (tests/oracles.py::exists_completion_loop)
    forms each child of a state with unplaced set rem and bound g = f + u
    as g plus v's drop row sum over rem without v (_Search.drops), so its
    answer, nodes and pruned depend on (rem, g) alone. It takes children
    in child order up to the first ok one and counts 1 node for the state,
    1 pruned for each child below target, and the nodes and pruned of each
    other child; a child with rem empty is ok with 1 node.

    descend reads them from one pass over every state that reaches
    target, a subset DP (Held and Karp) bounded by target, while those
    number at most _STATES_PER_NODE per node of the value search and fill
    at most _MAX_STATES * 33 bytes, at 33 + 4n bytes a state: a sorted
    complex key rem + g i (16), answer and counts (17), an int32 link per
    child. Forward (_forward), each layer holds the distinct children of
    the layer before that reach target, each linked to its index there or
    to _BELOW or _PLACED; backward (_backward), each state's answer, nodes
    and pruned are gathered over its links. Past that budget the search
    itself answers (_exists), memoized on (rem, g), which holds only the
    states it visits. descend places the smallest item whose child
    reaches target and is ok, adding the nodes and pruned of every child
    it tries that reaches target but not of a last one.

    Children are formed with the same additions, so the witness, nodes
    and pruned are the depth-first search's for every weight type. rem <
    2^53 is exact as a double and g is never -0.0 or NaN, so equal keys
    are equal states, found by binary search. Both passes check the
    deadline before each chunk of states (_Timeout), the memo every 1024
    states; past _MAX_STATES >> 3 states, about 215 bytes each, it raises.

    Raises:
        RankabilityError: when a count of the pass could pass _COUNT_MAX.
    """

    def __init__(self, search: _Search, target: float):
        self.search = search
        self.target = target
        # The drop rows; their -inf entries put the child of an item placed
        # already below any target.
        self.rows = rows = search.drops
        order = np.array(search.child_order, dtype=np.int64)
        self.bits = np.left_shift(1, order)
        # Arrays over a chunk's children are (position, state): position j
        # of the child order places order[j].
        self.at_lo, self.at_hi = rows.at_lo[order, None], rows.at_hi[order, None]
        self.children = [rows.items[v] for v in search.child_order]
        self.chunk = max(1, _CHUNK_BYTES // (8 * search.n))
        self.layers: list[np.ndarray] = []
        self.links: list[np.ndarray] = []
        self.results: list[tuple[np.ndarray, np.ndarray]] = []
        self.memo: dict[tuple[int, float], tuple[bool, int, int]] = {}

    def descend(self) -> list[int] | None:
        """lex_min_witness's placements, read from the pass or past its budget the memo."""
        search, target, n = self.search, self.target, self.search.n
        budget = _STATES_PER_NODE * (search.nodes + n)
        state = self._exists
        if self._forward(min(budget, _MAX_STATES * 33 // (33 + 4 * n))):
            self.results = self._backward()
            state = self._lookup

        def reaches(t: int, child: float) -> bool:
            if child < target:
                return False
            if t == 0:
                return True
            ok, nodes, pruned = state(t, child)
            search.nodes += nodes
            search.pruned += pruned
            return ok

        return _descend(self.rows, search.rem_mask, search.f + search.u, search.prefix, reaches)

    def _lookup(self, rem: int, g: float) -> tuple[bool, int, int]:
        """The pass's answer, nodes and pruned at a state that reaches target."""
        k = self.search.n - 1 - rem.bit_count()
        keys, (ok, counts) = self.layers[k], self.results[k]
        i = int(keys.searchsorted(complex(rem, g)))
        return bool(ok[i]), int(counts[0, i]), int(counts[1, i])

    def _exists(self, rem: int, g: float) -> tuple[bool, int, int]:
        """The depth-first search's answer, nodes and pruned at (rem, g), memoized."""
        if rem == 0:
            return True, 1, 0
        memo = self.memo
        hit = memo.get((rem, g))
        if hit is not None:
            return hit
        rows = self.rows
        lo, hi = rows.lo, rows.hi
        low, high = rem & rows.low, rem >> rows.h
        ok, nodes, pruned = False, 1, 0
        for v, bit, at_lo, at_hi in self.children:
            if rem & bit:
                child = g + (lo[at_lo + low] + hi[at_hi + high])
                if child < self.target:
                    pruned += 1
                    continue
                ok, below, below_pruned = self._exists(rem ^ bit, child)
                nodes += below
                pruned += below_pruned
                if ok:
                    break
        # States enter the memo one at a time, each after its children, so
        # its size takes every value here: the cap holds exactly, and the
        # clock is read every 1024 states.
        if len(memo) >= _MAX_STATES >> 3:
            raise _Timeout
        if not len(memo) & 1023:
            _check_deadline(self.search.deadline)
        memo[rem, g] = result = ok, nodes, pruned
        return result

    def _children(self, rem: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, ...]:
        """The bounds of the states' children, which reach target, and their keys."""
        child = self.rows.children(rem, g, self.at_lo, self.at_hi)
        kept = child >= self.target
        item, state = kept.nonzero()
        keys = np.empty(item.size, dtype=complex)
        keys.real = rem[state] ^ self.bits[item]
        keys.imag = child[kept]
        return child, kept, keys

    def _forward(self, cap: int) -> bool:
        """Layers 1 to n - 1, the states after placing that many items, and their links.

        links[k][j, i]: child j (in child order) of state i of layers[k].
        False, keeping neither, past cap states.
        """
        search, n = self.search, self.search.n
        keys = np.array([complex(search.rem_mask, search.f + search.u)])
        total, layers, links = 0, [], []
        for k in range(1, n + 1):
            rem, g = keys.real.astype(np.int64), keys.imag
            link = np.empty((n, rem.size), dtype=np.int32)
            # Per merge: its first column, and where the keys before it went.
            keys, found, merges, done = np.empty(0, dtype=complex), [], [], 0
            for start in range(0, rem.size, self.chunk):
                _check_deadline(search.deadline)
                part = slice(start, start + self.chunk)
                child, kept, new = self._children(rem[part], g[part])
                at = link[:, part]
                np.add(child == -np.inf, _BELOW, out=at, casting="unsafe")
                if k == n:
                    # Each such child has rem empty: ok with 1 node, entry 0.
                    at[kept] = 0
                    continue
                found.append((at, kept, new))
                pending = sum(x[2].size for x in found)
                if pending > max(keys.size, _MERGE_KEYS) or part.stop >= rem.size:
                    old = keys
                    keys = _distinct(np.concatenate([keys, *(x[2] for x in found)]))
                    for at, kept, new in found:
                        at[kept] = keys.searchsorted(new)
                    merges.append((done, keys.searchsorted(old)))
                    found, done = [], part.stop
                    if total + keys.size > cap:
                        return False
            # Carry the links of earlier merges to the last merge's keys.
            ahead = None
            for (begin, _), (end, moved) in reversed(list(zip(merges, merges[1:]))):
                ahead = moved if ahead is None else ahead.take(moved)
                cols = link[:, begin:end]
                cols[...] = np.append(ahead, (_BELOW, _PLACED)).take(cols, mode="wrap")
            # The root's links are not read, nor the empty keys past layer n - 1.
            total += keys.size
            layers.append(keys)
            links.append(link)
        self.layers, self.links = layers[:-1], links[1:]
        return True

    def _backward(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each layer's answers and (nodes, pruned) per state, in key order.

        Past a layer's states two entries more hold what a child at _BELOW
        (1 pruned) and at _PLACED (nothing) adds to its parent.
        """
        search, n = self.search, self.search.n
        # Entry 0 below the last layer: rem empty, ok with 1 node.
        ok_next = np.array([True, False, False])
        counts_next = np.array([[1, 0, 0], [0, 1, 0]])
        results = [None] * len(self.links)
        for k in range(len(self.links) - 1, -1, -1):
            # A state adds the counts of at most n children, and 1.
            if counts_next.max() > (_COUNT_MAX - 1) // n:
                raise RankabilityError("a witness search count could pass the int64 range")
            link = self.links[k]
            size = link.shape[1]
            ok = np.zeros(size + 2, dtype=bool)
            counts = np.zeros((2, size + 2), dtype=np.int64)
            counts[1, size] = 1
            for start in range(0, size, self.chunk):
                _check_deadline(search.deadline)
                part = slice(start, min(start + self.chunk, size))
                at = link[:, part]
                # The search takes children up to the first ok one.
                # scanning[j]: no child up to j was ok.
                scanning = ok_next.take(at, mode="wrap")
                np.logical_or.accumulate(scanning, axis=0, out=scanning)
                ok[part] = scanning[-1]
                np.logical_not(scanning, out=scanning)
                got = counts_next.take(at, axis=1, mode="wrap")
                got[:, 1:] *= scanning[:-1]
                total = got.sum(axis=1)
                total[0] += 1
                counts[:, part] = total
            results[k] = ok, counts
            ok_next, counts_next = ok, counts
        return results
