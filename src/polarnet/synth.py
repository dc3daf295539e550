"""Synthetic graph families with known structure, for verification.

Each generator either has closed-form expected behavior (star, cycle,
cliques, planted blocks) or preserves a chosen property of a real graph
(degree-preserving rewire), so downstream measurements can be checked
against ground truth. All randomness flows through numpy's seeded
default_rng, making every family reproducible bit for bit.

``FAMILIES`` is the one table of families: each
name maps to its builder and its required and optional parameters, the
configuration model's observed edge set ``base`` among them. ``generate``
and the ``synth`` command both check their arguments against it with
``check_parameters``, and ``generate``
returns what ``synth`` writes: the arcs as a ``TemporalEdgeSet`` over labels
``v{i}``, and the ground-truth partition (or None), which covers exactly the
vertices that the arcs name.
"""

from __future__ import annotations

import heapq
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .community import Partition, check_seed
from .graph import (
    DirectedGraph,
    TemporalEdgeSet,
    UndirectedView,
    _check_integer,
    _csr_rows,
    _distinct_keys,
    _pair_keys,
    _run_firsts,
    _undirected,
    directed_from_arcs,
    undirected_from_edges,
)

_INT = np.int64
# a key's fate before a slow swap of the rewire: present (_TAKEN), absent
# (_FREE), or absent until the later swap decided up front whose row the
# fate is adds it
_TAKEN, _FREE = -2, -1
# the low half of an int64 word that packs a value and a tag
_LOW = 2**32 - 1
# the most days whose seconds an int64 timestamp still holds
MAX_DAYS = np.iinfo(_INT).max // 86400
# the most vertices a family built from sizes has: planted-partition, and
# disjoint-cliques through it, draw a number for each of the n² ordered
# pairs of their n vertices and make at most n² − n arcs (one 8,192-clique
# makes 67.1M); star and directed-cycle make one arc per vertex
MAX_VERTICES = 2**13

# three groups of four: a clique plus two cycles, lightly tied together
_FIG2_EDGES = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (4, 5), (5, 6), (6, 7), (4, 7),
    (8, 9), (9, 10), (10, 11), (8, 11),
    (0, 4), (1, 8), (5, 9), (6, 10), (7, 11),
)


def figure2_instance() -> tuple[UndirectedView, Partition]:
    """Fixed 12-vertex, 19-edge instance with three planted groups.

    Group 0 ("black", vertices 0-3) is a clique carrying two of the five
    cross-group edges; groups 1 ("red", 4-7) and 2 ("blue", 8-11) are
    4-cycles whose members carry exactly one cross edge each. The clique
    group contributes visibly more to modularity than either cycle.
    """
    und = undirected_from_edges(12, _FIG2_EDGES)
    assignment = [0] * 4 + [1] * 4 + [2] * 4
    part = Partition.from_assignment(assignment, {0: "black", 1: "red", 2: "blue"})
    return und, part


def check_sizes(sizes: Sequence[int], name: str) -> list[int]:
    """``sizes``, the vertex counts of a family's parts (``name`` names
    them), as ints. Raise ValueError unless there is at least one, each is
    a positive integer, and they total at most ``MAX_VERTICES``: every
    family checks this before it allocates anything."""
    bad = next((s for s in sizes if not (isinstance(s, numbers.Integral) and s > 0)), None)
    if bad is not None or not len(sizes):
        raise ValueError(f"{name} must be positive integers, got {'none' if bad is None else bad}")
    sizes = list(map(int, sizes))
    if sum(sizes) > MAX_VERTICES:
        raise ValueError(f"a family has at most {MAX_VERTICES} vertices, got {sum(sizes)}")
    return sizes


def planted_partition(
    block_sizes: Sequence[int], p_in: float, p_out: float, seed: int = 0
) -> tuple[DirectedGraph, Partition]:
    """Directed blocks: each ordered pair gets an arc independently, with
    probability p_in inside a block and p_out across blocks. Raises
    ValueError unless ``seed`` is a non-negative integer (``check_seed``)
    and the block sizes pass ``check_sizes``."""
    check_seed(seed)
    sizes = check_sizes(block_sizes, "block sizes")
    for name, prob in (("p_in", p_in), ("p_out", p_out)):
        if not (0.0 <= prob <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {prob}")
    n = sum(sizes)
    assignment = np.repeat(np.arange(len(sizes), dtype=_INT), sizes)
    rng = np.random.default_rng(seed)

    # row-chunked so the dense draw stays within a modest memory budget;
    # draws are consecutive, so the chunk size never changes the output
    chunk = max(1, 4_000_000 // n)
    counts = np.zeros(n, dtype=_INT)
    parts: list[np.ndarray] = []
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        draws = rng.random((stop - start, n))
        thresholds = np.where(assignment[start:stop, None] == assignment[None, :], p_in, p_out)
        hit = draws < thresholds
        hit[np.arange(stop - start), np.arange(start, stop)] = False
        ri, ci = np.nonzero(hit)
        parts.append(ci.astype(_INT))
        counts[start:stop] = np.bincount(ri, minlength=stop - start)
    indices = np.concatenate(parts) if parts else np.zeros(0, dtype=_INT)
    indptr = np.zeros(n + 1, dtype=_INT)
    np.cumsum(counts, out=indptr[1:])
    g = DirectedGraph(n=n, indptr=indptr, indices=indices)
    meta = {i: f"block{i}" for i in range(len(sizes))}
    return g, Partition.from_assignment(assignment, meta)


def _batch_size(m: int) -> int:
    """Proposals per batch of the rewire, and per block of its stream.

    Sized so that about one proposal in eight is slow, mostly because it
    shares an edge with an earlier one of its batch: 11-13 % on graphs of
    35k-254k edges. Of the slow ones, 74-84 % share no edge or key with
    another and are decided in the batch's second vectorised round; the
    rest run in Python, in order, and 8-9 % of all slow ones read an edge
    that an earlier slow swap changed and are searched for again there.
    Batches twice this size were slower on those graphs, and so were
    batches half this size but for 30k swaps on 254k edges (5 % faster
    there, 11 % slower over its 10·m swaps). At least 256: below that, a
    batch's fixed numpy cost outweighs the Python re-checks it saves.
    """
    return max(256, m // 16)


def _proposals(m: int, seed: int) -> Iterator[np.ndarray]:
    """The rewire's proposal stream, in (3, ``_batch_size(m)``) blocks.

    Each column is a proposal: two edge indices ``i``, ``j`` and a coin
    that, when 1, reverses edge ``j`` before the swap.
    """
    rng = np.random.default_rng(seed)
    size = _batch_size(m)
    while True:
        yield np.stack([rng.integers(0, m, size), rng.integers(0, m, size), rng.integers(0, 2, size)])


def _ended(keys: np.ndarray) -> np.ndarray:
    """Sorted ``keys``, then their dtype's largest value: no search runs off the end."""
    ended = np.resize(keys, len(keys) + 1)
    ended[-1] = np.iinfo(keys.dtype).max
    return ended


def _swapped(ke: np.ndarray, kf: np.ndarray, flip: np.ndarray,
             n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The keys that swapping edges ``ke``, ``kf`` makes, and whether its
    shape allows it: no self-loop, and two distinct new edges."""
    a, b = np.divmod(ke, n)
    c, d = np.divmod(kf, n)
    c, d = np.where(flip, d, c), np.where(flip, c, d)
    x = _pair_keys(n, np.minimum(a, d), np.maximum(a, d))
    y = _pair_keys(n, np.minimum(c, b), np.maximum(c, b))
    return x, y, (a != d) & (c != b) & (x != y)


def _sort_tagged(values: np.ndarray, tags: np.ndarray, packed: bool) -> tuple[np.ndarray, np.ndarray]:
    """``values`` sorted, and ``tags``, ints from 0 to 2³² − 1, in the same
    order. ``packed`` says the values fit int32: then this is one ``np.sort``
    of ``value << 32 | tag`` words, equal values in tag order, and the values
    come back as int32 (69 µs against 119 µs for an ``np.argsort`` and its
    gathers at 8k keys, 139 against 263 µs at 16k, on a 2-core x86-64 VM
    with numpy 2.4). Otherwise it is one ``np.argsort``."""
    if packed:
        words = values.astype(_INT)
        words <<= 32
        words |= tags
        words.sort()
        return (words >> 32).astype(np.int32), words & _LOW
    order = np.argsort(values)
    return values[order], tags[order]


def _changes(ke: np.ndarray, kf: np.ndarray, x: np.ndarray, y: np.ndarray, rows: np.ndarray,
             packed: bool) -> tuple[np.ndarray, np.ndarray]:
    """The key changes of swaps ``rows`` from ``ke``, ``kf`` to ``x``, ``y``:
    the keys sorted (see ``_ended``), and their codes ``2 * row + added``."""
    changed, codes = _sort_tagged(np.concatenate([ke, kf, x, y]),
                                  np.concatenate([np.tile(2 * rows, 2), np.tile(2 * rows + 1, 2)]), packed)
    return _ended(changed), codes


def _independent_rows(keys: np.ndarray, fates: np.ndarray, packed: bool) -> np.ndarray:
    """Which slow rows of a batch their fates alone decide, as a mask.

    ``keys`` is (4, s): each slow row's two keys as it reads them after the
    fast swaps, and the two it would make (-1 when its shape rejects it).
    ``fates`` is (2, s), those of the keys it would make. A row is
    independent when none of its keys is a key of another slow row (two rows
    that read one edge read one key) and neither fate is a later fast swap's
    row: no other slow row can then change what it reads or what it finds.
    """
    s = keys.shape[1]
    values, rows = _sort_tagged(keys.ravel(), np.tile(np.arange(s), 4), packed)
    clash = (values[1:] == values[:-1]) & (rows[1:] != rows[:-1]) & (values[1:] >= 0)
    alone = (fates < 0).all(axis=0)
    alone[rows[1:][clash]] = alone[rows[:-1][clash]] = False
    return alone


def _decided_from(row: int, changed: tuple, slow_rows: np.ndarray, slow_keys: np.ndarray,
                  alone: np.ndarray) -> list[int]:
    """The slow rows after fast swap ``row`` that the second round decided
    from what it did: those with a key among ``changed``, the keys ``row``
    removed and made. Such a row read an edge ``row`` changed or took a
    fate from it. ``slow_keys`` and ``alone`` are as ``_independent_rows``
    takes and gives them."""
    return slow_rows[alone & (slow_rows > row) & np.isin(slow_keys, changed).any(axis=0)].tolist()


def _swap_batch(keys: np.ndarray, present: np.ndarray, n: int, i: np.ndarray,
                j: np.ndarray, flip: np.ndarray, wanted: int) -> tuple[int, int]:
    """Run proposals ``(i, j, flip)`` of the swap chain in order, up to the
    ``wanted``-th accepted one.

    ``keys[e]`` is edge e as ``lo * n + hi`` and is updated in place;
    ``present`` holds the same keys sorted, then their dtype's largest value
    (see ``_ended``). A proposal is "slow" when its outcome may depend on an
    earlier one of the batch: it shares an edge with an earlier one, a new
    key with another one, or its new key is the old key of an edge an
    earlier one touched. Every other one is "fast", decided from the
    batch-start state.

    The fast swaps are applied first. Then every slow proposal's keys, from
    its edges after the fast swaps, and their fates (present, absent, or
    added by a later fast swap) are looked up in one pass. A slow proposal
    that shares no edge and no key with another slow one, and whose fates
    claim no later fast swap, is decided from its fates in the same pass
    (``_independent_rows``): 74-84 % of them on graphs of 35k-254k edges.
    Those accepted are applied up front as a second round of fast swaps.
    Only the other slow proposals run in Python, in order. The loop takes a
    fate as given unless an earlier slow swap changed one of the proposal's
    edges or that key, or demoted the swap the fate comes from; only then
    does it search for the key again, in a table of the changes both rounds
    made. A slow swap whose edge changed earlier in the batch makes a key
    nobody foresaw; a later swap of either round that makes the same key is
    demoted to run in the loop after it, from the keys it read, and so is
    every row decided in bulk from a demoted fast swap's edges or keys.

    When more than ``wanted`` proposals were accepted, the chain is cut at
    the ``wanted``-th: a proposal's fate depends only on earlier rows, so
    undoing every later accepted row gives the state at the cut. Each edge
    those rows changed gets back the key it had before the first of them.

    Returns how many proposals were accepted and how many were run: all of
    them, or those up to and including the cut.
    """
    k = len(i)
    t = np.arange(k)
    packed = keys.dtype == np.int32
    ki, kj = keys[i], keys[j]
    p, q, shaped = _swapped(ki, kj, flip, n)
    live = i != j  # i == j is rejected whatever the state

    # new keys in sorted order: membership is one cache-friendly search,
    # and equal neighbours are keys that two proposals would make
    ordered, order = _sort_tagged(np.concatenate([p, q]), np.arange(2 * k), packed)
    found = np.empty(2 * k, dtype=bool)
    found[order] = present[np.searchsorted(present, ordered)] == ordered
    in_p, in_q = found[:k], found[k:]
    twice = np.zeros(2 * k, dtype=bool)
    same = ordered[1:] == ordered[:-1]
    twice[order[1:][same]] = twice[order[:-1][same]] = True
    shares_key = twice[:k] | twice[k:]
    ok = live & shaped & ~in_p & ~in_q

    # the batch-start key of each edge a live proposal touches, and the
    # first proposal touching it: the least row of its run of equal keys
    touches, by_row = _sort_tagged(np.concatenate([ki[live], kj[live]]), np.tile(t[live], 2), packed)
    heads = _run_firsts(touches)
    toucher = np.minimum.reduceat(by_row, np.flatnonzero(heads))
    shares_edge = np.zeros(k, dtype=bool)
    shares_edge[by_row[toucher[np.cumsum(heads) - 1] < by_row]] = True
    touched, toucher = _ended(touches[heads]), np.append(toucher, k)
    # a new key that is the batch-start key of an edge touched earlier
    freed = np.zeros(k, dtype=bool)
    for new_key, hit in ((p, in_p), (q, in_q)):
        at = np.searchsorted(touched, new_key[hit])
        freed[hit] |= (touched[at] == new_key[hit]) & (toucher[at] < t[hit])
    slow = live & (shares_edge | shares_key | freed)
    fast = np.flatnonzero(ok & ~slow)

    # apply every fast swap now: a slow proposal reads an edge only after
    # the fast swap that first touched it
    keys[i[fast]] = p[fast]
    keys[j[fast]] = q[fast]
    # each key changes at most once through fast swaps; code = 2 * row + added
    change_keys, change_codes = _changes(ki[fast], kj[fast], p[fast], q[fast], fast, packed)

    # every slow proposal from its edges after the fast swaps: its new keys
    # x, y (both -1 when its shape rejects it) and their fates, which hold
    # unless the loop below changes one of its edges or keys, or demotes the
    # fast swap a fate comes from
    slow_rows = np.flatnonzero(slow)
    e, f = i[slow_rows], j[slow_rows]
    ke, kf, flipped = keys[e], keys[f], flip[slow_rows]
    x, y, shaped = _swapped(ke, kf, flipped, n)
    x[~shaped] = y[~shaped] = -1
    # sorted, the needles search about three times faster
    sought, order = _sort_tagged(np.concatenate([x, y]), np.arange(2 * len(slow_rows)), packed)
    at = change_keys.searchsorted(sought)
    hit = change_keys[at] == sought
    found = np.where(present[present.searchsorted(sought)] == sought, _TAKEN, _FREE)
    when, added = np.divmod(change_codes[at[hit]], 2)
    earlier = when < np.tile(slow_rows, 2)[order[hit]]
    # added earlier: taken; added later: claimed by that swap; removed
    # earlier: free; removed later: still taken
    found[hit] = np.where(added == 1, np.where(earlier, _TAKEN, when), np.where(earlier, _FREE, _TAKEN))
    fate = np.empty_like(found)
    fate[order] = found
    by = np.full(len(sought), -1)  # the fast swap a fate comes from
    by[order[hit]] = when
    fate, by = fate.reshape(2, -1), by.reshape(2, -1)

    # the second round: independent slow rows, decided from their fates
    slow_keys = np.stack([ke, kf, x, y])
    alone = _independent_rows(slow_keys, fate, packed)
    won = alone & shaped & (fate == _FREE).all(axis=0)
    rows = slow_rows[won]
    keys[i[rows]] = x[won]
    keys[j[rows]] = y[won]
    accepts = np.zeros(k, dtype=bool)  # accepted up front, in either round
    accepts[fast] = accepts[rows] = True
    # the changes of each round, a table each: a key changes at most once in
    # each, and in the fast round first
    tables = ((change_keys, change_codes), _changes(ke[won], kf[won], x[won], y[won], rows, packed))

    state: dict[int, bool] = {}  # keys changed by loop swaps: present or not
    current: dict[int, int] = {}  # edges changed by loop swaps or taken back: their key
    demoted: set[int] = set()  # rows decided up front and taken back
    waiting: list[int] = []  # demoted rows not yet run, a heap
    done: list[tuple[int, int, int]] = []  # rows accepted below, and the keys they read

    # a Python int needle would make searchsorted copy int32 keys to int64
    needle = keys.dtype.type

    def lookup(key: int, row: int) -> int:
        """The fate of ``key`` before proposal ``row``."""
        if key in state:
            return _TAKEN if state[key] else _FREE
        fate = None
        for changed, codes in tables:
            at = changed.searchsorted(needle(key))
            if changed[at] == key:
                when, added = divmod(int(codes[at]), 2)
                if when not in demoted:
                    if when > row:
                        return when if added else _TAKEN
                    fate = _TAKEN if added else _FREE
        if fate is None:
            return _TAKEN if present[present.searchsorted(needle(key))] == key else _FREE
        return fate

    def demote(row: int) -> None:
        """Take back the up-front decision of ``row`` and of every row
        decided in bulk from it: they run below, in order, from the keys
        they read."""
        nonlocal accepted
        if row in demoted:
            return
        if slow[row]:  # decided in the second round, from its keys after the fast swaps
            read = slow_keys[:2, slow_rows.searchsorted(row)]
        else:
            read = ki[row], kj[row]
            for later in _decided_from(row, (*read, p[row], q[row]), slow_rows, slow_keys, alone):
                demote(later)
        demoted.add(row)
        heapq.heappush(waiting, row)
        accepted -= int(accepts[row])
        current[int(i[row])], current[int(j[row])] = map(int, read)

    accepted = len(fast) + len(rows)
    loop = ~alone
    columns = (slow_rows[loop], e[loop], f[loop], flipped[loop], ke[loop], kf[loop], x[loop], y[loop],
               *by[:, loop], *fate[:, loop])
    queue = list(zip(*(col.tolist() for col in columns)))
    queue.reverse()  # popped from the end, in row order
    while queue or waiting:
        if waiting and (not queue or waiting[0] < queue[-1][0]):
            row = heapq.heappop(waiting)
            e, f, flipped = int(i[row]), int(j[row]), bool(flip[row])
            ke, kf = current[e], current[f]
            stale = True
        else:
            row, e, f, flipped, ke, kf, x, y, by_x, by_y, fate_x, fate_y = queue.pop()
            stale = e in current or f in current
            if stale:
                ke, kf = current.get(e, ke), current.get(f, kf)
        if stale:
            a, b = divmod(ke, n)
            c, d = divmod(kf, n)
            if flipped:
                c, d = d, c
            x = a * n + d if a < d else d * n + a
            y = c * n + b if c < b else b * n + c
            if a == d or c == b or x == y:
                continue
        elif x < 0:
            continue
        if stale or x in state or by_x in demoted:
            fate_x = lookup(x, row)
        if fate_x == _TAKEN:
            continue
        if stale or y in state or by_y in demoted:
            fate_y = lookup(y, row)
        if fate_y == _TAKEN:
            continue
        state[ke] = state[kf] = False
        state[x] = state[y] = True
        current[e], current[f] = x, y
        done.append((row, ke, kf))
        accepted += 1
        for later in {fate_x, fate_y} - {_FREE}:
            # a later swap decided up front makes this key: it runs after this one
            demote(later)

    if current:
        keys[np.fromiter(current, dtype=_INT, count=len(current))] = list(current.values())
    if accepted <= wanted:
        return accepted, k

    # the keys each accepted row read: at batch start for a fast swap, after
    # the fast swaps for a row of the second round, and as it ran for a loop row
    read = np.stack([ki, kj])
    read[:, slow_rows] = slow_keys[:2]
    if demoted:
        accepts[np.fromiter(demoted, dtype=_INT, count=len(demoted))] = False
    if done:
        rows, ke, kf = np.array(done, dtype=_INT).T
        accepts[rows] = True
        read[:, rows] = ke, kf
    rows = np.flatnonzero(accepts)
    later = rows[wanted:]
    # every edge of a later row, ordered by edge, then by row: one sort of
    # edge << 32 | row words, as edge indices and rows stay below 2³¹
    words = np.concatenate([i[later], j[later]])
    words <<= 32
    words |= np.tile(later, 2)
    words.sort()
    first = words[_run_firsts(words >> 32)]
    edge, row = first >> 32, first & _LOW
    keys[edge] = np.where(i[row] == edge, read[0, row], read[1, row])
    return wanted, int(rows[wanted - 1]) + 1


# the most accepted swaps per edge a rewire takes: a hundred times the
# ``synth`` default of 10·m, and a bound on the chain's run time
MAX_SWAPS_PER_EDGE = 1000


def check_swaps(swaps: int, edges: int | None = None) -> None:
    """Raise ValueError unless ``swaps``, a count of accepted swaps, is a
    non-negative integer and, over a graph of ``edges`` edges when given,
    either 0 or at most ``MAX_SWAPS_PER_EDGE * edges`` with at least two
    edges to swap."""
    if not swaps >= 0:
        raise ValueError(f"swaps must be non-negative, got {swaps}")
    _check_integer(swaps, "swaps")
    if edges is None or swaps == 0:
        return
    if edges < 2:
        raise ValueError("rewiring needs at least two edges")
    if swaps > MAX_SWAPS_PER_EDGE * edges:
        raise ValueError(f"swaps must be at most {MAX_SWAPS_PER_EDGE * edges} "
                         f"({MAX_SWAPS_PER_EDGE} per edge of {edges}), got {swaps}")


def _rewire_keys(keys: np.ndarray, n: int, swaps: int, seed: int) -> np.ndarray:
    """The double-edge swap chain over edge keys ``lo * n + hi``, sorted and
    distinct as ``graph._distinct_keys`` gives them; ``keys[e]`` is edge e
    and is rewired in place. Returns ``keys``.

    The proposals run in batches, checked against the sorted keys all at
    once (see ``_swap_batch``). A batch holds ``_batch_size(m)`` proposals
    until the acceptance rate seen so far says fewer will do: then it holds
    about an eighth more than that rate needs to finish, and is cut at the
    ``swaps``-th acceptance, so the chain ends in one short batch rather
    than a tail of shrinking ones. The keys are sorted afresh before each
    batch after the first. See ``configuration_rewire`` for the rules.
    """
    m = len(keys)
    check_swaps(swaps, m)
    check_seed(seed)
    if swaps == 0:
        return keys
    present = _ended(keys)
    stream = _proposals(m, seed)
    pending = np.zeros((3, 0), dtype=_INT)
    accepted = 0
    attempts = 0
    budget = max(1000, 200 * swaps)
    while accepted < swaps:
        if attempts == budget:
            raise ValueError(
                f"degree-preserving rewire stalled: {accepted}/{swaps} swaps "
                f"accepted after {budget} attempts"
            )
        left = swaps - accepted
        size = min(_batch_size(m), budget - attempts)
        if accepted:
            # the proposals the rate so far needs to finish, and an eighth more
            need = left * attempts // accepted
            size = min(size, need + need // 8 + 16)
        while pending.shape[1] < size:
            pending = np.concatenate([pending, next(stream)], axis=1)
        if attempts:
            # a fresh sort costs less than merging the last batch's changes
            # into present: fewer passes over m, and no searches
            present[:-1] = keys
            present[:-1].sort()
        took, ran = _swap_batch(keys, present, n, *pending[:, :size], left)
        accepted += took
        pending = pending[:, size:]
        attempts += ran
    return keys


def configuration_rewire(g: UndirectedView, swaps: int, seed: int = 0) -> UndirectedView:
    """Degree-preserving randomization by repeated double-edge swaps.

    A proposal picks two edge indices ``i``, ``j`` and a coin; with edges
    ``(a, b)`` and ``(c, d)`` (reversed to ``(d, c)`` when the coin is set)
    it swaps them to ``(a, d)`` and ``(c, b)``. Edge e is the e-th of
    ``g.edge_pairs()``. Proposals with ``i == j``, or that would create a
    self-loop or a duplicate edge, are rejected; ``swaps`` counts accepted
    ones. The proposals come from a stream seeded by ``seed``, so a seed
    always gives the same graph. Zero swaps returns the graph unchanged.
    Raises ValueError if ``max(1000, 200 * swaps)`` proposals leave the
    swaps unfinished (e.g. on a complete graph, where no legal swap exists).

    The chain is ``_rewire_keys``, which ``generate`` runs on an edge set's
    keys too. A batch decides most proposals in two vectorised rounds; only
    those that share an edge or a key with another slow one of their batch
    are decided in order, in Python, most of them from one lookup made for
    all of them (see ``_swap_batch``). The result equals the sequential
    chain fed the same proposals (see ``_proposals``). That stream is new
    with the batched chain, so a seed gives a different graph than it did
    in earlier versions. Cost, on a shared 2-core x86-64 VM (AVX-512, numpy
    2.4) with a 254k-edge graph on 3,000 vertices: about 0.8 µs per
    proposal, so 27 ms for 30k swaps in 3 batches and 2.4–2.9 s in a fresh
    ``synth`` process for the 10·m swaps ``generate`` defaults to.
    Memory is a few arrays of m keys, int32 whenever n² < 2³¹ − 1 (the
    dtype ``graph._pair_keys`` chooses). A negative or non-integral
    ``swaps`` (infinity too), or more than ``MAX_SWAPS_PER_EDGE`` per edge,
    raises ValueError (``check_swaps``), and so does such a ``seed``
    (``check_seed``).
    """
    pairs = g.edge_pairs()
    keys = _rewire_keys(_pair_keys(g.n, pairs[:, 0], pairs[:, 1]), g.n, swaps, seed)
    if swaps == 0:
        return g
    lo, hi = np.divmod(keys, g.n)
    return _undirected(g.n, lo, hi)


def _configuration_model(parameters: Mapping, seed: int) -> tuple[UndirectedView, None]:
    """``configuration_rewire`` of the undirected edges of ``parameters["base"]``,
    taken from its arcs in one sort: ``10·m`` swaps unless ``parameters``
    give ``swaps``."""
    base: TemporalEdgeSet = parameters["base"]
    n = base.n_vertices
    # an arc's edge key lo * n + hi is the smaller of its two pair keys: no
    # arc-length int64 columns of minima and maxima to fill
    keys = _pair_keys(n, base.sources, base.targets)
    np.minimum(keys, _pair_keys(n, base.targets, base.sources), out=keys)
    keys = _distinct_keys(keys)
    keys = _rewire_keys(keys, n, parameters.get("swaps", 10 * len(keys)), seed)
    lo, hi = np.divmod(keys, n)
    return _undirected(n, lo, hi), None


def star(n_leaves: int) -> DirectedGraph:
    """Hub vertex 0 with an arc to each of n_leaves leaves."""
    check_sizes([1, n_leaves], "leaf counts")  # the hub and its leaves
    arcs = [(0, i) for i in range(1, n_leaves + 1)]
    return directed_from_arcs(n_leaves + 1, arcs)


def directed_cycle(n: int) -> DirectedGraph:
    """Arcs i -> (i+1) mod n; every vertex spans exactly itself plus one."""
    check_sizes([n], "cycle lengths")
    if n < 2:
        raise ValueError("a directed cycle needs at least two vertices")
    arcs = [(i, (i + 1) % n) for i in range(n)]
    return directed_from_arcs(n, arcs)


def disjoint_cliques(sizes: Sequence[int]) -> tuple[DirectedGraph, Partition]:
    """Bidirectional cliques with no arcs between them, one group each: the
    planted blocks with every arc inside a block and none across."""
    g, blocks = planted_partition(check_sizes(sizes, "clique sizes"), 1.0, 0.0)
    return g, Partition(blocks.assignment, {i: f"clique{i}" for i in range(blocks.k)})


@dataclass(frozen=True)
class Family:
    """How to build one family: ``build(parameters, seed)`` gives the graph
    and its ground-truth partition (or None)."""

    build: Callable[[Mapping, int], tuple[DirectedGraph | UndirectedView, Partition | None]]
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()


FAMILIES: dict[str, Family] = {
    "figure2": Family(lambda p, seed: figure2_instance()),
    "planted-partition": Family(
        lambda p, seed: planted_partition(p["block_sizes"], p["p_in"], p["p_out"], seed=seed),
        required=("block_sizes", "p_in", "p_out"),
    ),
    "configuration-model": Family(_configuration_model, required=("base",), optional=("swaps",)),
    "star": Family(lambda p, seed: (star(p["n_leaves"]), None), required=("n_leaves",)),
    "directed-cycle": Family(lambda p, seed: (directed_cycle(p["n"]), None), required=("n",)),
    "disjoint-cliques": Family(lambda p, seed: disjoint_cliques(p["sizes"]), required=("sizes",)),
}


def check_parameters(family: str, given: Iterable[str], spell: Callable[[str], str] = repr) -> None:
    """Raise ValueError unless ``family`` is in ``FAMILIES`` and takes the
    ``given`` parameter names. ``spell`` renders each name in the message."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    entry = FAMILIES[family]
    unknown = sorted(set(given) - {*entry.required, *entry.optional})
    if unknown:
        raise ValueError(f"{family} does not take {', '.join(map(spell, unknown))}")
    missing = [name for name in entry.required if name not in given]
    if missing:
        raise ValueError(f"{family} requires {', '.join(map(spell, missing))}")


def check_days(days: int) -> None:
    """Raise ValueError unless ``days`` is an integer from 0 to ``MAX_DAYS``:
    the stamps of a longer spread would not fit an int64."""
    if not days >= 0:
        raise ValueError(f"days must be non-negative, got {days}")
    if days > MAX_DAYS:
        raise ValueError(f"days must be at most {MAX_DAYS}, got {days}")
    _check_integer(days, "days")


def generate(family: str, parameters: Mapping, seed: int = 0,
             days: int = 0) -> tuple[TemporalEdgeSet, Partition | None]:
    """Build a family into the arcs ``synth`` writes and its ground-truth
    partition, or None when it has none.

    An undirected graph gives one arc per direction. Vertex i is labelled
    ``v{i}``; a vertex without arcs is left out, and so is its partition
    row. A group this empties is dropped and the others are renumbered in
    order, keeping their names, so the partition covers exactly the edge
    set's vertices. The arcs are stamped uniformly over ``days`` days by
    ``default_rng([seed, 1])``, or all at 0 for 0 days (``check_days``).
    The configuration-model family takes the parameter ``base``: the
    observed edge set, whose undirected edges it rewires over the same
    vertex ids.
    Raises ValueError for an unknown family, parameters it does not take
    (``check_parameters``), a seed that is not a non-negative integer
    (``check_seed``), or a graph without arcs.
    """
    check_parameters(family, parameters)
    check_days(days)
    check_seed(seed)
    g, part = FAMILIES[family].build(parameters, seed)
    if g.indices.size == 0:
        raise ValueError(f"{family} made no arcs, so the edge list would have no vertices")
    # a CSR row per vertex: an undirected view holds each edge in both rows
    sources, targets = _csr_rows(g.indptr), g.indices
    kept = np.diff(g.indptr) > 0
    kept[targets] = True
    ids = np.flatnonzero(kept)
    if len(ids) < g.n:
        new_id = np.cumsum(kept) - 1
        sources, targets = new_id[sources], new_id[targets]
        if part is not None:
            groups, assignment = np.unique(part.assignment[ids], return_inverse=True)
            names = part.group_meta
            part = Partition.from_assignment(
                assignment, {new: names[old] for new, old in enumerate(groups.tolist()) if old in names})
    if days > 0:
        stamps = np.random.default_rng([seed, 1]).integers(0, days * 86400, size=len(targets))
    else:
        stamps = np.zeros(len(targets), dtype=_INT)
    labels = tuple(f"v{i}" for i in ids.tolist())
    return TemporalEdgeSet(sources=sources, targets=targets, timestamps=stamps, labels=labels), part
