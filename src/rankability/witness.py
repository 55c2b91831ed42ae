"""The table-free canonical witness, as layered numpy passes over search states.

Above the completion-table budget, lop._Search.lex_min_witness places,
position by position, the smallest item that some completion still takes
to k*, and counts the nodes and pruned children of a depth-first search
for that completion. WitnessLayers computes the same answers and counts
bottom-up over the states of that search (WitnessLayers.descend).
"""

from __future__ import annotations

import numpy as np

from .errors import RankabilityError
from .lop import _MAX_STATES, _check_deadline, _Search, _Timeout

# The witness pass forms the children of a
# layer's states a chunk at a time, so that each work array of one entry
# per state and item stays within this many bytes, at 8 bytes an entry;
# a chunk holds about three such arrays at once. On the benchmark's
# bnb-large inputs (n = 19-22), 64 KiB chunks ran about 5% faster but
# raised the run's peak RSS by 0.2-0.3 MB.
_CHUNK_BYTES = 1 << 14

# The witness pass first holds every state that reaches the target, while
# they number at most this many per node of the value search. Where the
# optimum is near unique they are few: 0.6 to 2.2 per value node on the
# benchmark's 160 bnb-large inputs and on a p = 0.5 tournament at n = 19.
# Where many prefixes tie at the optimum they are not: with every weight
# equal all 2^n sets reach it, and the value search expands a handful of
# nodes. Past the budget the pass holds only the states the depth-first
# search visits (WitnessLayers.descend).
_STATES_PER_NODE = 4

# The witness pass keeps its nodes and pruned per state as int64. A layer
# whose states could add up more than this raises rather than wraps.
_COUNT_MAX = 2**63 - 1


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
    """The table-free witness search as layered passes over its states.

    Above the table budget, lex_min_witness asks for each child of the
    canonical prefix whether some completion of it reaches target. A
    depth-first search for one (tests/oracles.py::exists_completion_loop)
    forms each child of a state with unplaced set rem and bound g = f + u
    as g plus v's drop row sum over rem without v (_Search._drop_rows), so
    its answer and the nodes and pruned it counts depend on (rem, g)
    alone. A pass (_run) computes them for a set of these states, one
    layer of placed items at a time, a subset DP (Held and Karp) bounded
    by target:

    - forward: each layer holds the pass's root states with that many
      items placed and the distinct children with child >= target of the
      layer before, up to width of them per state in the search's child
      order;
    - backward: from the last layer up, each state's answer, nodes and
      pruned as the depth-first search counts them, its children taken
      in the search's child order up to the first ok one: 1 node for the
      state, 1 pruned for each child below target, and the nodes and
      pruned of each other child; a child with rem empty is ok with 1
      node. The answer is undecided when the scan meets a child that the
      pass does not hold, or holds undecided, before an ok one;
    - the walk (_walk): lex_min_witness places the smallest item whose
      child reaches target and is ok, adding the nodes and pruned of every
      child it tries that reaches target but not of a last one.

    descend runs one pass from the root with every child, which decides
    every state, while it holds at most _STATES_PER_NODE states per node
    of the value search. Past that it runs passes that hold
    about the states the depth-first search visits: rooted at each child
    reaching target of the walk's state and of the states the walk would
    reach if the smallest such child were ok at every step (_chain), with
    width 1 first and doubled whenever the walk meets an undecided state.
    Each such pass either moves the walk on or widens, and at width n
    decides every state it holds. With every weight equal the first pass
    would hold all 2^n sets and one narrow pass holds under n^3 states.

    Children are formed with the same additions, so every comparison
    decides as in the depth-first search, and the witness, nodes and
    pruned are its own for every weight type. A layer keeps its states as
    sorted complex keys rem + g i, 16 bytes a state, and its results 18
    more; rem < 2^53 is exact as a double and g is never -0.0 or NaN, so
    equal keys are equal states. The backward pass finds a child in the
    next layer by binary search. Children are formed a chunk of states at
    a time, each work array within _CHUNK_BYTES, after a deadline check
    (_Timeout). A pass that would hold more than _MAX_STATES states
    raises _Timeout as well.

    Raises:
        RankabilityError: when a count could pass _COUNT_MAX.
    """

    def __init__(self, search: _Search, target: float):
        n, h = search.n, search.h
        self.search = search
        self.target = target
        # Arrays over a chunk's children are (position, state): position j
        # of the child order places order[j].
        order = np.array(search.child_order, dtype=np.int64)
        self.bits = np.left_shift(1, order)
        self.starts = (order << h)[:, None], (order << (n - h))[:, None]
        # The drop rows, and the same memory as numpy arrays; their -inf
        # entries put the child of an item placed already below any target.
        self.rows = search._drop_rows()
        self.lo, self.hi = (np.frombuffer(half) for half in self.rows)
        self.chunk = max(1, _CHUNK_BYTES // (8 * n))
        # The walk's unplaced set and bound, and the position in
        # search.item_bits of the next item it tries there.
        self.rem, self.x, self.next = search.rem_mask, search.f + search.u, 0
        self.witness: list[int] | None = None
        self.layers: list[np.ndarray] = []
        self.results: list[tuple[np.ndarray, ...]] = []

    def descend(self) -> list[int] | None:
        """lex_min_witness's placements, reading each child's state from a pass."""
        search = self.search
        n = search.n
        roots = [np.empty(0, dtype=complex)] * n
        roots[0] = np.array([complex(self.rem, self.x)])
        budget = _STATES_PER_NODE * (search.nodes + n)
        if self._run(roots, n, min(budget, _MAX_STATES)):
            self._walk()
            return self.witness
        width = 1
        while True:
            if not self._run(self._chain(), width, _MAX_STATES):
                raise _Timeout
            stop = self._walk()
            if stop == "done":
                return self.witness
            if stop == "undecided":
                width *= 2

    def _run(self, roots: list[np.ndarray], width: int, cap: int) -> bool:
        """One pass; False, holding no layers, if it would hold more than cap states."""
        self.layers, self.results = [], []
        layers = self._forward(roots, width, cap)
        if layers is None:
            return False
        self.layers = layers
        self.results = self._backward(width)
        return True

    def _chain(self) -> list[np.ndarray]:
        """Root states for a narrow pass, by number of items placed.

        Every child reaching target of the walk's state, then of its
        smallest such child, and so on to the last layer.
        """
        search = self.search
        lo, hi = self.rows
        roots = [np.empty(0, dtype=complex)] * search.n
        rem, x = self.rem, self.x
        for k in range(len(search.prefix) + 1, search.n):
            low, high = rem & search.low, rem >> search.h
            children = [
                complex(rem ^ bit, child)
                for v, bit, at_lo, at_hi in search.item_bits
                if rem & bit
                and (child := x + (lo[at_lo + low] + hi[at_hi + high])) >= self.target
            ]
            if not children:
                break
            roots[k] = np.sort(np.array(children))
            rem, x = int(children[0].real), children[0].imag
        return roots

    def _children(
        self, rem: np.ndarray, g: np.ndarray, width: int | None = None
    ) -> tuple[np.ndarray, ...]:
        """The bounds of the states' children, which are kept, and their keys.

        A child is kept when it reaches target and, given width, is one of
        its state's first width such children in the child order.
        """
        search = self.search
        at = self.starts[0] + (rem & search.low)
        child = self.lo.take(at)
        np.add(self.starts[1], rem >> search.h, out=at)
        child += self.hi.take(at)
        child += g
        kept = child >= self.target
        if width is not None and width < search.n:
            kept &= kept.cumsum(axis=0) <= width
        item, state = kept.nonzero()
        keys = np.empty(item.size, dtype=complex)
        keys.real = rem[state] ^ self.bits[item]
        keys.imag = child[kept]
        return child, kept, keys

    def _forward(
        self, roots: list[np.ndarray], width: int, cap: int
    ) -> list[np.ndarray] | None:
        """Layers 1 to n - 1: the states after placing that many items.

        roots[k] holds distinct root states with k items placed, sorted.
        None when the layers would hold more than cap states.
        """
        search = self.search
        keys, total, layers = roots[0], 0, []
        for k in range(1, search.n):
            rem, g = keys.real.astype(np.int64), keys.imag
            keys, found = roots[k], []
            for start in range(0, rem.size, self.chunk):
                _check_deadline(search.deadline)
                part = slice(start, start + self.chunk)
                found.append(self._children(rem[part], g[part], width)[2])
                # Merged once they outnumber the layer's keys so far, so
                # that each key is sorted a bounded number of times.
                if sum(x.size for x in found) > keys.size or part.stop >= rem.size:
                    keys = _distinct(np.concatenate([keys, *found]))
                    found = []
                    if total + keys.size > cap:
                        return None
            total += keys.size
            layers.append(keys)
        return layers

    def _backward(self, width: int) -> list[tuple[np.ndarray, ...]]:
        """Each layer's stops, undecided and (nodes, pruned) per state, in key order.

        A state stops its parent's scan when it is ok or undecided. Past a
        layer's states each array holds three entries more, what a child
        adds to its parent when it is below target (1 pruned), when its
        item is placed already (nothing) and when the pass does not hold it
        (undecided). A pass of width n holds every child reaching target of
        every state it holds, so it leaves no state undecided.
        """
        search = self.search
        n = search.n
        # Below the last layer every child reaching target has rem empty:
        # ok, with 1 node.
        below = None
        stops_next = np.array([True, False, False, True])
        undecided_next = np.array([False, False, False, True])
        counts_next = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
        results = [None] * len(self.layers)
        for k in range(len(self.layers) - 1, -1, -1):
            # A state adds the counts of at most n children, and 1.
            if counts_next.max() > (_COUNT_MAX - 1) // n:
                raise RankabilityError(
                    "a witness search count could pass the int64 range"
                )
            keys = self.layers[k]
            size = keys.size
            rem, g = keys.real.astype(np.int64), keys.imag
            stops = np.zeros(size + 3, dtype=bool)
            undecided = np.zeros(size + 3, dtype=bool)
            stops[size + 2] = undecided[size + 2] = True
            counts = np.zeros((2, size + 3), dtype=np.int64)
            counts[1, size] = 1
            missing = stops_next.size - 1
            for start in range(0, size, self.chunk):
                _check_deadline(search.deadline)
                part = slice(start, min(start + self.chunk, size))
                child, kept, found = self._children(rem[part], g[part])
                # Each child's entry in the next layer's arrays.
                at = (child == -np.inf) + (missing - 2)
                if below is None:
                    at[kept] = 0
                elif width >= n:
                    at[kept] = below.searchsorted(found)
                elif below.size:
                    i = below.searchsorted(found)
                    i[below.take(i, mode="clip") != found] = missing
                    at[kept] = i
                else:
                    at[kept] = missing
                # The search takes children up to the first ok one; the pass
                # cannot tell past an undecided one. scanning[j]: no child
                # up to j stopped the scan.
                scanning = stops_next.take(at)
                np.logical_or.accumulate(scanning, axis=0, out=scanning)
                stops[part] = scanning[-1]
                np.logical_not(scanning, out=scanning)
                if width < n:
                    first = undecided_next.take(at)
                    first[1:] &= scanning[:-1]
                    undecided[part] = first.any(axis=0)
                got = counts_next.take(at, axis=1)
                got[:, 1:] *= scanning[:-1]
                total = got.sum(axis=1)
                total[0] += 1
                counts[:, part] = total
            results[k] = stops, undecided, counts
            below, stops_next, undecided_next, counts_next = (
                keys, stops, undecided, counts
            )
        return results

    def _walk(self) -> str:
        """Place items while the pass decides the walk's next child.

        Returns "done", with the witness or None in self.witness, or why
        it stopped first: the child's state is "missing" from the pass or
        "undecided" in it. The walk resumes there after the next pass.
        """
        search = self.search
        lo, hi = self.rows
        rem, x = self.rem, self.x
        while rem:
            k = len(search.prefix)
            low, high = rem & search.low, rem >> search.h
            for j in range(self.next, search.n):
                v, bit, at_lo, at_hi = search.item_bits[j]
                if not rem & bit:
                    continue
                child = x + (lo[at_lo + low] + hi[at_hi + high])
                if child < self.target:
                    continue
                t = rem ^ bit
                if t == 0:
                    break
                keys, (stops, undecided, counts) = self.layers[k], self.results[k]
                key = complex(t, child)
                i = int(keys.searchsorted(key))
                stop = "missing" if i == keys.size or keys[i] != key else None
                if stop is None and undecided[i]:
                    stop = "undecided"
                if stop is not None:
                    self.rem, self.x, self.next = rem, x, j
                    return stop
                search.nodes += int(counts[0, i])
                search.pruned += int(counts[1, i])
                if stops[i]:
                    break
            else:
                return "done"
            search.prefix.append(v)
            rem, x, self.next = t, child, 0
        self.witness = search.prefix.copy()
        return "done"
