"""The table-free canonical witness, from one layered numpy pass and a memo.

Above the completion-table budget, lop._Search.lex_min_witness places,
position by position, the smallest item that some completion still takes
to k*, and counts the nodes and pruned children of a depth-first search
for that completion. WitnessLayers reads the same answers and counts
from one pass over that search's states: forward, each layer's states
with an edge list per state to its children in the next layer, and
backward over those edges; the descent then reads each answer at the
edge to it from the state its path stands on. The narrow layers past a
cut, and the inputs whose pass would hold too much, are answered by that
search itself, memoized on its state. The pass sorts and ranks its states
as int64 keys packed and read by lop._PackedKey where the weights' sums
are exact and the key fits, and as complex keys otherwise. The search's
layer kernel (lop._LayerKernel) forms each layer's children, as for the
value passes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import lop
from .errors import RankabilityError
from .lop import _check_deadline, _descend, _packed_key, _Search, _state_cap, _Timeout

# The forward pass merges a layer's new children into its keys once they
# outnumber both the keys so far and this many (1 MiB), ranking all the
# merged keys with one argsort (_ranked): each key is ranked a bounded
# number of times, and only larger layers carry edges forward.
_MERGE_KEYS = 1 << 16

# The witness pass holds every state that reaches the target, while they
# number at most this many per node of the value search: 0.6 to 2.2 on the
# benchmark's 160 bnb-large inputs and a p = 0.5 tournament at n = 19. With
# every weight equal all 2^n sets reach it, and the value search expands a
# handful of nodes; there the memoized search answers. This is a rule on
# work, not on memory, so it is not drawn from lop._HELD_BYTES: it sends
# inputs rich in ties to the memo, which visits only the states it needs,
# long before the pass would fill the budget.
_STATES_PER_NODE = 4

# The memo answers the layers past the pass's cut while it holds at most
# _TAIL_FACTOR n^2 states at n items; past that it gives way and the pass
# resumes from the cut, so a tail that widens again costs at most that
# many memo states. A narrow layer costs the pass about 80 us, forward and
# backward, whatever its size, and the memo about 4 us a state: over the
# benchmark's 160 bnb-large inputs the cut took 1,680 layers from the pass
# and gave the memo 7,258 states, 45 an input (median; at most 68, where
# n^2 >= 361), and the witness phase went from 450 to 338 ms (2-vCPU
# x86-64 host). League 30/1 and 32/1, coin19.csv and hidden32.csv leave
# the memo 9 to 43 states.
_TAIL_FACTOR = 1

# The bytes the memoized search holds per state: a dict entry keyed by the
# tuple (rem, g), whose value is the tuple of its answer and counts. Its
# traced peak over its states was 214.7 bytes on coin19.csv (313,295
# states), 220.8 on hidden32.csv (72,069), 234.2 on league 28/1 (52,269)
# and 241.4 on league 30/1 (856,813), as the dict's spare slots vary.
_MEMO_STATE_BYTES = 256

# The bytes the witness pass holds per edge, a child that reaches target:
# its index in the next layer (int32) and its position in the child order
# (uint8).
_PASS_EDGE_BYTES = 5

# The witness pass keeps its nodes and pruned per state as int64. A layer
# whose states could add up more than this raises rather than wraps.
_COUNT_MAX = 2**63 - 1


class _GiveWay(Exception):
    """The memo past the cut passed its bound: the pass resumes from the cut."""


def _ranked(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of parts, ascending, and each key's row among them.

    The rows follow the keys of parts in order. parts is emptied once its
    keys are joined, so that no array outlives its last read. One argsort
    ranks every key: in sorted order a key takes a new row where it
    differs from the key before it, and one scatter writes each row back
    to the key's own place. The rows are int32, as the edges hold them.
    np.unique would do, but its first call imports numpy.ma, about 1.5 MB.
    """
    keys = np.concatenate(parts)
    parts.clear()
    by = keys.argsort()
    keys = keys.take(by)
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys = keys[new]
    # The first key takes row 0: count the new rows after it.
    new[:1] = False
    rows = np.empty(new.size, dtype=np.int32)
    rows[by] = new.cumsum(dtype=np.int32)
    return keys, rows


def _pass_state_bytes(packed: bool) -> int:
    """The bytes the witness pass holds per state, besides its edges.

    A sorted key, int64 when packed (8) and else complex rem + g i (16),
    the answer and two counts as three int64 (24) and the int64 offset of
    its first edge (8). Each edge adds _PASS_EDGE_BYTES.
    """
    return (8 if packed else 16) + 24 + 8


def _check_counts(top: int, n: int) -> None:
    """Raise unless a state adding n counts of at most top, and 1, fits _COUNT_MAX."""
    if top > (_COUNT_MAX - 1) // n:
        raise RankabilityError("a witness search count could pass the int64 range")


class WitnessLayers:
    """The table-free witness search, read from one pass and a memo.

    Above the table budget, lex_min_witness asks for each child of the
    canonical prefix whether some completion of it reaches target. A
    depth-first search for one (tests/oracles.py::exists_completion_loop)
    forms each child of a state with unplaced set rem and bound g = f + u
    as g plus v's drop row sum over rem without v (_Core.drops), so its
    answer, nodes and pruned depend on (rem, g) alone. It takes children
    in child order up to the first ok one and counts 1 node for the state,
    1 pruned for each child below target, and the nodes and pruned of each
    other child; a child with rem empty is ok with 1 node.

    descend reads them from one pass over the states that reach target, a
    subset DP (Held and Karp) bounded by target, while those number at
    most _STATES_PER_NODE per node of the value search and, with the memo
    below, fill at most lop._HELD_BYTES: _pass_state_bytes a state, a
    sorted key, answer and counts and an edge offset, and _PASS_EDGE_BYTES
    an edge. With exact sums, where rem and the code 2 (g - target) fit 63
    bits (lop._packed_key, form), the key is that one int64; otherwise it
    is complex, rem + g i. Forward (_forward), each layer holds the
    distinct children of the layer before that reach target, and each of
    its states a list of edges, the children that reach target in child
    order, each with its position and its index in the next layer, the
    rank of its key among that layer's (_ranked). The
    forward pass stops at the first layer from depth 2 on that holds at
    most n states (_cuts): the search memoized on (rem, g) (_exists)
    answers that layer's states and everything below them, while it
    holds at most _TAIL_FACTOR n^2 states; past that it gives way
    (_GiveWay) and the pass resumes from the cut. Backward (_backward),
    each state's answer, nodes and pruned come from its first ok edge,
    the edges up to it and the unplaced items before it.
    Past lop._HELD_BYTES the pass gives way to the memo alone, which holds
    only the states it visits. descend places the smallest item whose
    child reaches target and is ok, adding the nodes and pruned of every
    child it tries that reaches target but not of a last one. Each such
    child is an edge of the state its path stands on, so it reads the
    answer at that edge's index (_path), and from the cut on the memo's.

    Children are formed with the same additions, so the witness, nodes
    and pruned are the depth-first search's for every weight type. Both
    key forms sort as (rem, g) do: the code is exact, and in a complex key
    rem < 2^53 is exact as a double and g is never -0.0 or NaN. So equal
    keys are equal states, and a key's rank is its state's row. Both
    passes check the deadline before each chunk of states (_Timeout;
    forward, in search.kernel), the memo every 1024 states; past
    lop._HELD_BYTES at _MEMO_STATE_BYTES a state, the memo alone raises it.

    Raises:
        RankabilityError: when a count of the pass could pass _COUNT_MAX.
    """

    def __init__(self, search: _Search, target: float):
        self.search = search
        self.target = target
        # The drop rows; their -inf entries put the child of an item placed
        # already below any target.
        self.rows = rows = search.core.drops
        n = search.n
        # before[p]: the set of the first p items in child order.
        self.before = np.zeros(n + 1, dtype=np.int64)
        search.kernel.bits.cumsum(out=self.before[1:])
        self.children = [rows.items[v] for v in search.child_order]
        # Every state the pass keeps has target <= g <= the root's bound, so
        # with exact sums its key packs rem and 2 (g - target) when they fit.
        root = search.f + search.u
        self.form = _packed_key(n, 2 * (root - target)) if search.exact else None
        self.state_bytes = _pass_state_bytes(self.form is not None)
        self.layers: list[np.ndarray] = []
        self.edges: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = []
        self.results: list[np.ndarray | None] = []
        self.states = self.held = 0
        # The first depth the memo answers; n while the pass runs to the end.
        self.cut = n
        self.may_cut = True
        self.memo: dict[tuple[int, float], tuple[bool, int, int]] = {}
        self.memo_cap = _state_cap(_MEMO_STATE_BYTES)
        self.overrun: type[Exception] = _Timeout

    def descend(self) -> list[int] | None:
        """lex_min_witness's placements, from the pass and its memo, or the memo alone."""
        search = self.search
        budget = _STATES_PER_NODE * (search.nodes + search.n)
        nodes, pruned, placed = search.nodes, search.pruned, len(search.prefix)
        while self._forward(budget):
            try:
                self._backward(self._answer_cut())
                return self._place(self._path())
            except _GiveWay:
                # Forget what the memo found and its placements, and resume
                # the pass from the cut to the last layer.
                search.nodes, search.pruned = nodes, pruned
                del search.prefix[placed:]
                self.memo, self.results, self.may_cut = {}, [], False
        self.memo_cap, self.overrun = _state_cap(_MEMO_STATE_BYTES), _Timeout
        return self._place(self._exists)

    def _place(self, state) -> list[int] | None:
        """The descent, with state(rem, g) the answer and counts at a child that reaches."""
        search, target = self.search, self.target

        def reaches(t: int, child: float) -> bool:
            if child < target:
                return False
            if t == 0:
                return True
            ok, nodes, pruned = state(t, child)
            search.nodes += nodes
            search.pruned += pruned
            return ok

        root = search.f + search.u
        return _descend(self.rows, search.rem_mask, root, search.prefix, reaches)

    def _path(self) -> Callable[[int, float], tuple[bool, int, int]]:
        """The descent's answers: the pass's, and from the cut on the memo's.

        The descent asks only about children that reach target of the state
        its path stands on, and moves to the first that is ok. Each is one
        of that state's edges: the first question at a depth maps its at
        most n edges, by position in the child order, to their rows in the
        next layer, where the results hold the answer.
        """
        n, kernel = self.search.n, self.search.kernel
        slot = {bit: p for p, bit in enumerate(kernel.bits.tolist())}
        # The row and unplaced set of the path state, and its edges' rows.
        path = [0, self.search.rem_mask]
        rows: dict[int, int] = {}

        def state(rem: int, g: float) -> tuple[bool, int, int]:
            depth = n - rem.bit_count()
            if depth >= self.cut:
                return self._exists(rem, g)
            row, parent = path
            if not rows:
                block, i = divmod(row, kernel.chunk)
                offsets, index, position = self.edges[depth - 1][block]
                first, last = offsets[i : i + 2].tolist()
                edges = slice(first + 1, last + 1)
                rows.update(zip(position[edges].tolist(), index[edges].tolist()))
            at = rows[slot[parent ^ rem]]
            ok, nodes, pruned = self.results[depth][at].tolist()
            if ok:
                path[:] = at, rem
                rows.clear()
            return bool(ok), nodes, pruned

        return state

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
        if len(memo) >= self.memo_cap:
            raise self.overrun
        if not len(memo) & 1023:
            _check_deadline(self.search.deadline)
        memo[rem, g] = result = ok, nodes, pruned
        return result

    def _keys(self, rem: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The keys of the states (rem, g), packed or complex."""
        if self.form is not None:
            g = g - self.target
            g *= 2
            return self.form.pack(rem, g.astype(np.int64))
        keys = np.empty(rem.size, dtype=complex)
        keys.real = rem
        keys.imag = g
        return keys

    def _sets(self, keys: np.ndarray) -> np.ndarray:
        """The unplaced sets of the keys."""
        if self.form is None:
            return keys.real.astype(np.int64)
        return self.form.sets(keys)

    def _states(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The states (rem, g) of the keys."""
        if self.form is None:
            return self._sets(keys), keys.imag
        g = self.form.codes(keys) * 0.5
        g += self.target
        return self._sets(keys), g

    def _cuts(self, depth: int, size: int) -> bool:
        """Whether the memo answers a new layer of size states at depth, and all below."""
        return depth >= 2 and size <= self.search.n

    def _forward(self, budget: int) -> bool:
        """The layers after the last one kept, and their edges, to the cut or the end.

        layers[d] holds the sorted keys of the states after placing d
        items, and edges[d] their edges, a block (offsets, index, position)
        per chunk of states: a chunk's state i has the edges at rows
        offsets[i] + 1 to offsets[i + 1] of index and position, its
        children that reach target in child order, each with its index in
        layers[d + 1], or 0 for rem empty below layer n - 1, and its
        position in the child order. Rows 0 and -1 stand before and past
        the chunk's edges, at index the row past the next layer's states
        and at position n. Stops at the first new layer that _cuts while
        may_cut, and sets cut to its depth. False, keeping nothing, past
        budget states or lop._HELD_BYTES with the edges.
        """
        search, n, kernel = self.search, self.search.n, self.search.kernel
        layers, edges, target = self.layers, self.edges, self.target
        if not layers:
            root = np.array([search.f + search.u])
            layers.append(self._keys(np.array([search.rem_mask]), root))
            self.states, self.held = 1, self.state_bytes
        while len(edges) < n:
            depth = len(edges) + 1
            rem, g = self._states(layers[-1])
            size = rem.size
            # Per merge: its first block and where the keys before it went.
            keys, found, blocks, merges = layers[-1][:0], [], [], []
            linked = 0
            # The edges, state by state, each state's in child order.
            for part, at, sets, child in kernel.kept(rem, g, lambda x, _: x >= target):
                offsets = at.searchsorted(np.arange(0, (part.stop - part.start + 1) * n, n))
                index = np.empty(at.size + 2, dtype=np.int32)
                position = np.empty(at.size + 2, dtype=np.uint8)
                np.remainder(at, n, out=position[1:-1], casting="unsafe")
                position[0] = position[-1] = n
                blocks.append((offsets, index, position))
                linked += at.size
                if depth == n:
                    index[1:-1] = 0
                    continue
                found.append(self._keys(sets, child))
                pending = sum(new.size for new in found)
                if pending > max(keys.size, _MERGE_KEYS) or part.stop == size:
                    start, sizes = keys.size, [new.size for new in found]
                    # Only parts holds the keys, so _ranked drops them once joined.
                    parts, keys, found = [keys, *found], None, []
                    keys, rows = _ranked(parts)
                    moved = rows[:start].copy() if merges else None
                    merges.append((len(blocks) - len(sizes), moved))
                    for (_, index, _), count in zip(blocks[-len(sizes) :], sizes):
                        index[1:-1] = rows[start : start + count]
                        start += count
                    del rows
                    if self._over(keys.size, linked, budget):
                        return self._drop()
            # Carry the indices of earlier merges to the last merge's keys.
            ahead = None
            for (begin, _), (end, moved) in reversed(list(zip(merges, merges[1:]))):
                ahead = moved if ahead is None else ahead.take(moved)
                for _, index, _ in blocks[begin:end]:
                    index[1:-1] = ahead.take(index[1:-1])
            past = 1 if depth == n else keys.size
            for _, index, _ in blocks:
                index[0] = index[-1] = past
            if depth == n:
                keys = keys[:0]
            if self._over(keys.size, linked, budget):
                return self._drop()
            self.states += keys.size
            self.held += keys.size * self.state_bytes + linked * _PASS_EDGE_BYTES
            edges.append(blocks)
            if depth == n:
                break
            layers.append(keys)
            if self.may_cut and self._cuts(depth, keys.size):
                self.cut = depth
                return True
        self.cut = n
        return True

    def _over(self, states: int, linked: int, budget: int) -> bool:
        """Whether states and linked edges more than those kept pass budget or the bytes."""
        held = self.held + states * self.state_bytes + linked * _PASS_EDGE_BYTES
        return self.states + states > budget or held > lop._HELD_BYTES

    def _drop(self) -> bool:
        """Keep no layer: False."""
        self.layers, self.edges = [], []
        self.states = self.held = 0
        return False

    def _answer_cut(self) -> np.ndarray:
        """The results of the cut layer, from the memo, or of rem empty below the last.

        One row per state, (ok, nodes, pruned), and one row more, (1, 0, 0),
        past the last, which every backward step reads past a chunk's edges.
        """
        n = self.search.n
        if self.cut == n:
            return np.array([[1, 1, 0], [1, 0, 0]], dtype=np.int64)
        # The memo's states count against the bytes the pass left.
        room = (lop._HELD_BYTES - self.held) // _MEMO_STATE_BYTES
        self.memo_cap = min(_TAIL_FACTOR * n * n, room)
        self.overrun = _GiveWay
        rem, g = self._states(self.layers[self.cut])
        answers = [self._exists(r, x) for r, x in zip(rem.tolist(), g.tolist())]
        _check_counts(max((max(c[1:]) for c in answers), default=0), n)
        return np.array([*answers, (1, 0, 0)], dtype=np.int64)

    def _backward(self, below: np.ndarray) -> None:
        """Each layer's results, from below, those of the layer after the last edges.

        results[d] holds (ok, nodes, pruned) for each state of layers[d]
        and one row more, (1, 0, 0), as below does, for d from 1 to the
        cut, or n; results[0] is not read.
        """
        search, n = self.search, self.search.n
        results: list[np.ndarray | None] = [None] * len(self.edges) + [below]
        for depth in range(len(self.edges) - 1, 0, -1):
            # Each state counts 1 node or more: below's largest entry is a count.
            _check_counts(int(below.max()), n)
            keys = self.layers[depth]
            result = np.empty((keys.size + 1, 3), dtype=np.int64)
            result[-1] = 1, 0, 0
            start = 0
            for offsets, index, position in self.edges[depth]:
                _check_deadline(search.deadline)
                heads, tails = offsets[:-1], offsets[1:]
                stop = start + heads.size
                # The children's results by row; the rows before and past
                # the edges read below's last row, which is ok.
                got = below.take(index, axis=0)
                # The search takes children up to the first ok one, row
                # first, or to tails where none is ok.
                hit = got[:, 0].nonzero()[0]
                first = hit[hit.searchsorted(heads, side="right")]
                ok = first <= tails
                end = np.where(ok, first, tails)
                # Rows heads + 1 to end: their nodes and pruned, and ok in
                # column 0. The running sums may wrap in int64, but each
                # state's difference is exact, as its sum fits
                # (_check_counts).
                sums = got.cumsum(axis=0, out=got)
                out = result[start:stop]
                np.subtract(sums.take(end, axis=0), sums.take(heads, axis=0), out=out)
                out[:, 1] += 1
                # Pruned: the unplaced items before the first ok position,
                # less the edges there.
                at = np.where(ok, position[first], n)
                sets = self._sets(keys[start:stop])
                out[:, 2] += np.bitwise_count(sets & self.before[at])
                out[:, 2] -= end - heads
                out[:, 2] += ok
                start = stop
            results[depth] = below = result
        self.results = results
