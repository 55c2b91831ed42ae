"""The exact-sum value proof, as layered numpy passes over the search's visits.

lop._Search.run_value proves k* from an incumbent. Where every sum of the
weights is exact, prove_value finds the best value and order, and the
nodes and pruned, of a depth-first branch and bound with a dominance memo
on the unplaced set (tests/oracles.py::value_search_loop), one layer of
placed items at a time: a bounded dynamic program over unplaced sets, in
the manner of Morin and Marsten, "Branch-and-Bound Strategies for Dynamic
Programming", Operations Research 24(4), 1976. The search's layer kernel
(lop._LayerKernel) forms each layer's children, as for the witness pass.
"""

from __future__ import annotations

import numpy as np

from .lop import _check_deadline, _packed_key, _Search, _state_cap, _Timeout

# The bytes a pass holds per visit of its largest layer: its 24 bytes of
# key, set and bound, and the sort and concatenation temporaries beside
# them. The traced peak of the value search (tracemalloc, drop rows built
# beforehand) over its largest layer's visits was 52.0 to 56.3 bytes on
# coin19.csv and on league 28/1, 30/1, 31/1 and 32/1, with 75,737 to
# 1,072,323 visits in that layer; on league 29/1, whose largest layer holds
# 17,341 visits, the fixed costs brought it to 73.6.
_VISIT_BYTES = 60

# Layers of fewer visits take np.lexsort even where their keys would pack
# (_expanded): the packed sort's dozen numpy calls cost more than they save
# there. On a 2-vCPU x86-64 host (numpy 2.4.6, best of 15 timings), one
# layer took 9.5-16 us with np.lexsort against 18-20 us packed at 15 visits,
# 14-15 against 21-22 at 128, 34-51 against 30-44 at 512, 70-104 against
# 33-54 at 768, 462 against 85 at 4096 and 0.19 s against 0.029 s at 2^20.
# Over the value passes of the benchmark's tables inputs, 512 took 38.6 ms
# and 128, 256 and 1024 38.1-39.9 ms, against 49.6 ms with no layer packed.
_PACKED_VISITS = 512


def prove_value(search: _Search) -> None:
    """search's exact-sum value search, from its incumbent best_val and best_order.

    The depth-first search visits a state (unplaced set rem, bound g) and,
    unless an earlier visit to rem had a bound at least g, forms each child
    as g plus the item's drop row sum over rem without it, in
    search.child_order; it visits a child whose bound is above the
    incumbent, and counts one pruned for every other child and for every
    state it does not expand. A leaf it visits raises the incumbent to its
    bound. A pass (_Passes.run) finds all of that by layers:

    - A layer holds the visits of one depth in the search's order, parent
      first and the child's position in child_order second. Sets of
      different depths differ in size, so the memo acts within a layer: a
      visit is expanded when its bound is above that of every earlier
      visit to the same set.
    - A pass checks each child against the value of the last known leaf
      before it in the search's order, or the start value before the
      first. The incumbent only rises, so no check is stricter than the
      search's: the pass holds every state the search visits, with the
      same bound, and expands every one whose children the search visits.
      So each leaf of the search is a record of the pass, a leaf whose
      bound is above the start value and every leaf before it. And each
      record is a leaf of the search: every check on its path compares
      its bound or more with an incumbent no higher than the record before
      it. The first pass thus finds every leaf, and a second, run only
      when there is one, checks every child as the search does.

    A visit's key is its parent's position among the expanded visits of
    its layer times n plus its own position in child_order. A pass keeps
    the keys of the expanded visits, to read a leaf's order, and forms
    children a chunk of visits at a time (search.kernel), after a deadline
    check. It raises _Timeout when the deadline has passed or a layer's
    visits, at _VISIT_BYTES each, would fill more than lop._HELD_BYTES.
    The leaves of the passes that finished are kept in best_val and
    best_order; nodes and pruned count every visit of the last pass,
    finished or not.
    """
    nodes, pruned = search.nodes, search.pruned
    passes = _Passes(search)
    while True:
        search.nodes, search.pruned = nodes, pruned
        if not passes.run():
            return
        search.best_val, search.best_order = passes.leaves[-1]


class _Passes:
    """The passes of one value search, and the leaves they found."""

    def __init__(self, search: _Search):
        self.search = search
        self.rank = np.argsort(search.kernel.order)
        self.start = search.best_val
        # The search's leaves found so far, as (value, order), in its order.
        self.leaves: list[tuple[float, list[int]]] = []

    def run(self) -> bool:
        """One pass; whether it found leaves that were not known before."""
        search = self.search
        n, kernel = search.n, search.kernel
        leaves = self.leaves
        thresholds = np.array([self.start] + [value for value, _ in leaves])
        # ranks[d, i]: the position in child_order of leaf i's item at depth
        # d + 1; keys[i]: the key of leaf i's visit at the current depth.
        ranks = self.rank[np.array([o for _, o in leaves], dtype=np.int64)]
        ranks = ranks.reshape(-1, n).T
        keys = np.zeros(len(leaves), dtype=np.int64)
        rem = np.array([(1 << n) - 1], dtype=np.int64)
        g = np.array([search.root])
        key = np.zeros(1, dtype=np.int64)
        # layers[d]: the keys of the visits expanded at depth d.
        layers = []
        cap = _state_cap(_VISIT_BYTES)
        for d in range(n):
            _check_deadline(search.deadline)
            search.nodes += rem.size
            if not rem.size:
                return False
            expanded = _expanded(rem, g, n)
            layers.append(key[expanded])
            search.pruned += rem.size - expanded.size + expanded.size * (n - d)
            if leaves:
                # Each known leaf's visit here is expanded: the search visits
                # its child on the leaf's path.
                keys = layers[d].searchsorted(keys) * n + ranks[d]
            rem, g = rem[expanded], g[expanded]

            def visited(child: np.ndarray, first: int) -> np.ndarray:
                # The child of key i is checked against thresholds[j], j the
                # found leaves whose visit at its depth has a key below i.
                if not keys.size:
                    return child > thresholds[0]
                j = keys.searchsorted(np.arange(first, first + child.size))
                return child > thresholds.take(j).reshape(child.shape)

            found, rems, bounds, held = [], [], [], 0
            for part, at, sets, child in kernel.kept(rem, g, visited):
                held += at.size
                if held > cap:
                    raise _Timeout
                at += part.start * n
                found.append(at)
                rems.append(sets)
                bounds.append(child)
            search.pruned -= held
            del rem, g, key
            if len(found) == 1:
                (key,), (rem,), (g,) = found, rems, bounds
            else:
                key, rem, g = (np.concatenate(x) for x in (found, rems, bounds))
            # The blocks would stay beside the layer through its sort.
            del found, rems, bounds
        search.nodes += rem.size
        # The records among the leaves, from the start value on.
        best = np.maximum.accumulate(np.concatenate(([self.start], g)))
        records = (g > best[:-1]).nonzero()[0][len(leaves) :]
        for leaf in records.tolist():
            path = [0] * n
            at = int(key[leaf])
            for d in range(n - 1, -1, -1):
                path[d] = int(kernel.order[at % n])
                at = int(layers[d][at // n])
            leaves.append((float(g[leaf]), path))
        return bool(records.size)


def _expanded(rem: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """The positions of the visits the memo expands, ascending.

    A visit is expanded when its bound is above the bound of every earlier
    visit to the same set: sorted by set, bound descending and position,
    it comes before every earlier visit of its set. From _PACKED_VISITS
    visits, where the set, twice the bound's drop below the layer's
    largest and the position fit one key (lop._packed_key), the keys are
    unique and one np.sort orders them; where only the set and that code
    fit, as on the widest layers at n = 36, a stable argsort of those keys
    does; otherwise np.lexsort does.
    """
    size = rem.size
    if size == 1:
        return np.zeros(1, dtype=np.int64)
    form = unique = None
    if size >= _PACKED_VISITS:
        top = g.max()
        span = 2 * (top - g.min())
        # With the position the keys are unique; without, a stable sort
        # keeps the positions' order among equal keys.
        unique = _packed_key(n, span, (size - 1).bit_length())
        form = unique or _packed_key(n, span)
    if form is None:
        by = np.lexsort((-g, rem))
        sets = rem[by]
    else:
        code = np.subtract(top, g)
        code *= 2
        code = code.astype(np.int64)
        sets = form.pack(rem, code, np.arange(size) if unique else 0)
        del code
        if unique:
            # The sorted keys, read as positions and then in place as sets.
            sets.sort()
            by = form.lows(sets)
        else:
            by = sets.argsort(kind="stable")
            sets = sets[by]
        form.sets(sets, out=sets)
    first = np.empty(size, dtype=bool)
    first[0] = True
    np.not_equal(sets[1:], sets[:-1], out=first[1:])
    del sets
    # Each position less size times its set's rank: every set's values lie
    # below those of the sets before it, so a running minimum restarts at
    # each set.
    at = first.cumsum()
    at *= -size
    at += by
    np.equal(np.minimum.accumulate(at), at, out=first)
    keep = np.zeros(size, dtype=bool)
    keep[by[first]] = True
    return keep.nonzero()[0]
