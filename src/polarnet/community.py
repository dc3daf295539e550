"""Community detection and partition handling.

Detection is the two-phase multilevel scheme: local moving of vertices
between groups, then aggregation of groups into supervertices, repeated until
nothing changes. Local moving follows the fast local-move queue of Traag,
Waltman & van Eck ("From Louvain to Leiden", 2019): after a first visit of
every vertex, only the neighbours of vertices that moved are visited again.
Determinism is pinned down by a seeded visit order and a lowest-index
tie-break, so identical (graph, resolution, seed, min_improvement) inputs
always produce identical partitions.

Each level keeps, for every vertex, a Python list of its neighbours in
adjacency order, each neighbour repeated once per original edge that the
level's weighted edge stands for. A visit counts its neighbours' groups
into a dict in C (``collections._count_elements``), one increment per
list entry, then scans the distinct groups in Python. Level weights are
int64 multiplicities of original edges, so these counts equal the float
weight sums of a weighted adjacency exactly; with the visit order and the
tie-break unchanged, the partitions and per-level modularities are those
of a float weighted implementation bit for bit
(``tests/oracles.louvain_reference``). Off-diagonal weight sums to at most
2m, so no level's lists hold more entries than level 0's.

The lists and group labels of every level are gathered from one object
array of Python ints, built once per run, so they share one int object
per vertex id: no level allocates or frees an int per list entry.
Aggregation counts each level edge key once per original edge it stands
for, so the supervertex multiplicities are run lengths of sorted keys and
stay int64. A level's modularity needs the weight inside its groups:
twice its loop weights plus its edges between two members of a group,
which are the diagonal of that aggregation, so no further pass over the
level is made. A level without a move, always the last, leaves every
vertex alone and has no such edge. Every term is an integer below 2⁵³,
so these sums are exact in any order.

Measured with Python 3.11 and numpy 2.4 on one core of a shared 2-core
VM, on the benchmark's 10,000-vertex sparse-blocks graph (seed 1, four
Louvain seeds): level 0's lists (128,572 entries) take 6-10 ms to build,
its local moving 140-175 ms; level 1 (3,000-3,800 supervertices, 83k-105k
entries) 6-17 ms and 60-115 ms; the last level about 1.5 ms; all other
work, aggregation included, 11-26 ms per run. On the 3,000-vertex
dense-daily graph, level 0's 508,166 entries take 19-30 ms (building and
freeing a fresh int per entry took about 59 ms) and its local moving
150-195 ms.
"""

from __future__ import annotations

import math
import re
from collections import _count_elements, deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import FormatError
from .graph import UndirectedView, _check_integer, _distinct_keys, _key_counts, _key_csr, _pair_keys

_INT = np.int64


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of every vertex to exactly one group, with optional names.

    Group indices run 0..k-1 and each is used; ``group_meta`` names existing
    groups. The constructor alone judges these rules, raising ValueError that
    names the group, and counts each group's members once into the read-only
    ``group_sizes``. ``check_group`` is the one range check of an index and
    ``check_cover`` the one check that a partition fits a graph.
    """

    assignment: np.ndarray
    group_meta: dict[int, str] = field(default_factory=dict)
    group_sizes: np.ndarray = field(init=False)

    def __post_init__(self):
        if len(self.assignment) == 0:
            raise ValueError("partition must cover at least one vertex")
        lowest = int(self.assignment.min())
        if lowest < 0:
            raise ValueError(f"group index {lowest} is negative")
        sizes = np.bincount(self.assignment)
        if not sizes.all():
            raise ValueError(f"group index {sizes.argmin()} has no members")
        for i in self.group_meta:
            if not (0 <= i < len(sizes)):
                raise ValueError(f"meta names unknown group {i}")
        for a in (self.assignment, sizes):
            a.setflags(write=False)
        object.__setattr__(self, "group_sizes", sizes)

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def k(self) -> int:
        return len(self.group_sizes)

    @classmethod
    def from_assignment(cls, assignment: Iterable[int], group_meta: dict[int, str] | None = None) -> "Partition":
        a = np.asarray(list(assignment) if not isinstance(assignment, np.ndarray) else assignment, dtype=_INT).copy()
        return cls(assignment=a, group_meta=dict(group_meta or {}))

    def check_cover(self, n: int) -> None:
        """Raise ValueError unless the partition assigns exactly the ``n`` vertices of a graph."""
        if self.n != n:
            raise ValueError(f"partition covers {self.n} vertices, graph has {n}")

    def check_group(self, i: int) -> int:
        """``i`` as an int, or ValueError when no group has that index."""
        i = int(i)
        if not (0 <= i < self.k):
            raise ValueError(f"group index {i} out of range (k={self.k})")
        return i

    def members(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == self.check_group(i))


def relabel_by_size(p: Partition) -> Partition:
    """Permute group indices so group 0 is the largest (ties keep old order)."""
    order = np.lexsort((np.arange(p.k), -p.group_sizes))
    perm = np.empty(p.k, dtype=_INT)
    perm[order] = np.arange(p.k, dtype=_INT)
    meta = {int(perm[i]): name for i, name in p.group_meta.items()}
    return Partition(assignment=perm[p.assignment], group_meta=meta)


def check_resolution(value: float, name: str = "resolution") -> None:
    """Raise ValueError unless ``value`` is positive and finite: the rule of
    ``resolution`` and of ``min_improvement``, named by ``name``. With NaN
    or infinity every vertex would end alone, without an error."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed``, the seed of a numpy generator, is a
    non-negative integer: numpy refuses a negative one only when it draws
    from it, and with its own message."""
    if not seed >= 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _check_integer(seed, "seed")


def _local_move(
    nbrs: list[list[int]],
    strength: list[float],
    comm: list[int],
    sigma_tot: list[float],
    two_m: float,
    resolution: float,
    order_source: np.random.Generator,
    min_improvement: float,
) -> int:
    """One level of queue-driven local moving, as detect_communities
    describes it; returns the number of moves.

    ``nbrs[v]`` lists v's neighbours in adjacency order, each repeated by
    its edge weight, so counting their groups gives the weight from v into
    each group.
    """
    n = len(strength)
    queue = deque(order_source.permutation(n).tolist())
    queued = [True] * n
    n_moves = 0
    while queue:
        v = queue.popleft()
        queued[v] = False
        c_old = comm[v]
        kv = strength[v]
        sigma_tot[c_old] -= kv
        acc: dict[int, int] = {}
        # Counter's C counting loop; Counter(...) itself adds about 1.5 us
        # per call, as much as a whole count at degree 13
        _count_elements(acc, map(comm.__getitem__, nbrs[v]))
        coef = resolution * kv / two_m
        stay = acc.get(c_old, 0) - coef * sigma_tot[c_old]
        best_c = c_old
        best = stay
        for c, w in acc.items():
            if c == c_old:
                continue
            score = w - coef * sigma_tot[c]
            if score > best or (score == best and c < best_c):
                best, best_c = score, c
        if 2.0 * (best - stay) / two_m > min_improvement:
            comm[v] = best_c
            n_moves += 1
            # first occurrences keep adjacency order
            fresh = dict.fromkeys([u for u in nbrs[v] if not queued[u] and comm[u] != best_c])
            for u in fresh:
                queued[u] = True
            queue.extend(fresh)
        sigma_tot[comm[v]] += kv
    return n_moves


def _neighbour_lists(
    indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray | None, ids: np.ndarray
) -> list[list[int]]:
    """Per-vertex neighbour lists, each neighbour repeated by its int64
    weight, or listed once where ``weights`` is None (level 0).

    The entries are gathered from ``ids``, an object array of one Python int
    per vertex id, so every list shares those ints: building or freeing the
    lists allocates no int object per entry.
    """
    if weights is None:
        flat, bounds = ids[indices].tolist(), indptr.tolist()
    else:
        ends = np.zeros(len(weights) + 1, dtype=_INT)
        np.cumsum(weights, out=ends[1:])
        flat, bounds = ids[np.repeat(indices, weights)].tolist(), ends[indptr].tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def _louvain(
    g: UndirectedView, resolution: float, seed: int, min_improvement: float
) -> tuple[np.ndarray, list[float]]:
    """Multilevel optimization; returns (dense assignment, per-level modularity).

    A level is a symmetric CSR without self-loops, its int64 edge
    multiplicities ``weights`` (None at level 0, where each is 1), and float
    loop weights ``self_w`` and strengths. Each of these holds integers below
    2⁵³, so every sum of them is exact in any order.
    """
    rng = np.random.default_rng(seed)
    ids = np.arange(g.n).astype(object)

    indptr = np.asarray(g.indptr, dtype=_INT)
    indices = np.asarray(g.indices, dtype=_INT)
    weights = None
    self_w = np.zeros(g.n, dtype=np.float64)
    strength = np.asarray(np.diff(indptr), dtype=np.float64)
    two_m = float(strength.sum())

    assignment = np.arange(g.n, dtype=_INT)
    q_history: list[float] = []

    while True:
        comm = ids[: len(self_w)].tolist()
        n_moves = _local_move(
            _neighbour_lists(indptr, indices, weights, ids),
            strength.tolist(),
            comm,
            strength.tolist(),
            two_m,
            resolution,
            rng,
            min_improvement,
        )
        comm_arr = np.asarray(comm, dtype=_INT)
        used = _distinct_keys(comm_arr)
        dense = np.searchsorted(used, comm_arr)
        assignment = dense[assignment]
        tot = np.bincount(dense, weights=strength)
        # weight inside groups: the loops, plus the CSR entries joining two
        # members, which aggregation sums on its diagonal. A move always
        # lands in a non-empty group, so without one every vertex is alone
        w_in = 2.0 * float(self_w.sum())
        if n_moves:
            # aggregate groups into supervertices; group u's own edges are
            # the keys u * (k_new + 1), each key once per original edge
            k_new = len(used)
            keys = _pair_keys(k_new, np.repeat(dense, np.diff(indptr)), dense[indices])
            uk, wsum = _key_counts(keys if weights is None else np.repeat(keys, weights))
            group, rest = np.divmod(uk, k_new + 1)
            diag = rest == 0
            w_in += float(wsum[diag].sum())
        q_history.append(w_in / two_m - resolution * float(np.sum((tot / two_m) ** 2)))
        if not n_moves:
            break

        self_w = np.bincount(dense, weights=self_w, minlength=k_new)
        self_w[group[diag]] += wsum[diag] / 2.0
        indptr, indices = _key_csr(k_new, uk[~diag])
        weights = wsum[~diag]
        # a supervertex's strength is the total of its members'
        strength = tot

    return assignment, q_history


def detect_communities(
    g: UndirectedView,
    resolution: float = 1.0,
    seed: int = 0,
    min_improvement: float = 1e-7,
) -> Partition:
    """Multilevel modularity-maximization partition of an undirected view.

    Each level queues every vertex once, in an order drawn from ``seed``.
    A popped vertex moves to the neighbouring group that raises modularity
    most, ties going to the lowest group index, but only when that gain
    exceeds ``min_improvement``; then each of its neighbours outside its new
    group is queued again unless already queued. The level ends when the
    queue is empty. Every move raises modularity, which lies within
    [-resolution, 1], by more than ``min_improvement``, so a run makes fewer
    than (1 + resolution) / min_improvement moves.

    A visit costs one C-level dict increment per original edge leaving the
    (super)vertex, plus one Python score per distinct neighbouring group.
    The result is exact: level weights are integer multiplicities of
    original edges, so counting repeated neighbours gives each group's
    weight as a float sum would, and the visit order, the scores and the
    tie-break are those of the plain weighted algorithm.

    Deterministic for fixed (graph, resolution, seed, min_improvement).
    Isolated vertices end up in singleton groups. Raises ValueError unless
    ``resolution`` and ``min_improvement`` are positive and finite
    (``check_resolution``) and ``seed`` is a non-negative integer
    (``check_seed``), all checked first, and on an empty graph (no vertices
    or no edges), where modularity optimization is undefined.
    """
    check_resolution(resolution)
    check_resolution(min_improvement, "min_improvement")
    check_seed(seed)
    if g.n == 0 or g.m == 0:
        raise ValueError("community detection requires a graph with at least one edge")
    assignment, _ = _louvain(g, resolution, seed, min_improvement)
    return Partition.from_assignment(assignment)


_META_PREFIX = "#meta"
# A label that would read as a comment (leading "#"), or as an escaped one,
# is saved with one more leading backslash, which loading takes off again.
_ESCAPED = re.compile(r"\\*#")
_ESCAPED_LINE = re.compile(r"^\\*#", re.MULTILINE)
# Rows that the per-line rules take as they stand: a label without a comma,
# starting with neither whitespace, which loading strips, nor "#", "\" or ",";
# one comma; then 1 to 18 ASCII digits, which int64 holds.
_PLAIN_ROWS = re.compile(r"(?:[^\s#\\,][^,\n]*,[0-9]{1,18}(?:\n|\Z))*")


def save_partition(p: Partition, stream: TextIO, labels: Sequence[str]) -> None:
    """Write ``vertex-label,group-index`` lines plus ``#meta`` group names.

    Every label ingest can produce from a file (non-empty, no surrounding
    whitespace, no line break) round-trips through load_partition: the group
    index follows the last comma, and a label matching ``\\*#`` is written
    with one extra leading backslash. A label or group name holding ``\\n``
    or ``\\r``, either of which ends a line under universal newlines, or a
    group name ending in whitespace, which loading strips, raises ValueError
    before anything is written. The file is written in one call.
    """
    if len(labels) != p.n:
        raise ValueError(f"expected {p.n} labels, got {len(labels)}")
    names = sorted(p.group_meta.items())
    for _, name in names:
        if "," in name or "\n" in name or "\r" in name:
            raise ValueError(f"group name {name!r} contains reserved characters")
        if name != name.rstrip():
            raise ValueError(f"group name {name!r} ends in whitespace, which loading strips")
    joined = "\n".join(labels)
    if "\r" in joined or joined.count("\n") != p.n - 1:
        bad = next(label for label in labels if "\n" in label or "\r" in label)
        raise ValueError(f"vertex label {bad!r} contains a line break")
    if _ESCAPED_LINE.search(joined):
        labels = ["\\" + label if _ESCAPED.match(label) else label for label in labels]
    rows = [f"{_META_PREFIX},{i},{name}\n" for i, name in names]
    rows += [f"{label},{group}\n" for label, group in zip(labels, p.assignment.tolist())]
    stream.write("".join(rows))


def _ascii_index(text: str) -> int | None:
    """``text`` as an index if it is ASCII decimal digits int() can read, else None."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return None


def _meta_entry(line: str) -> tuple[int, str] | None:
    """(group index, name) of a stripped ``#meta,index,name`` line, else None."""
    parts = line.split(",", 2)
    index = _ascii_index(parts[1]) if len(parts) == 3 else None
    return None if index is None else (index, parts[2])


def _bulk_rows(text: str, ids: dict[str, int], n: int) -> tuple[np.ndarray, dict[int, str]] | None:
    """The assignment and group names of ``text`` read as whole columns, or
    None where some line is not a leading ``#meta`` line or a plain row, or
    the rows do not name each vertex once with a group below ``n``."""
    meta: dict[int, str] = {}
    start = 0
    while text.startswith(_META_PREFIX + ",", start):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        entry = _meta_entry(text[start:end].strip())
        if entry is None:
            return None
        meta[entry[0]] = entry[1]
        start = end + 1
    if not _PLAIN_ROWS.fullmatch(text, start):
        return None
    # one comma per row, so the cells alternate label, group, label, group
    cells = text[start:].replace("\n", ",").split(",")
    if text.endswith("\n"):
        cells.pop()
    heads = cells[0::2]
    if len(heads) != n:
        return None
    vertices = np.fromiter(map(ids.get, heads, repeat(-1)), dtype=_INT, count=n)
    groups = np.fromstring(",".join(cells[1::2]), dtype=_INT, sep=",")
    if vertices.min() < 0 or groups.max() >= n:
        return None
    assignment = np.full(n, -1, dtype=_INT)
    assignment[vertices] = groups
    if assignment.min() < 0:  # a vertex named twice leaves another unnamed
        return None
    return assignment, meta


def _line_rows(
    lines: list[str], ids: dict[str, int], labels: Sequence[str]
) -> tuple[np.ndarray, dict[int, str]]:
    """The assignment and group names of ``lines``, read one line at a time;
    raises FormatError at the first line that breaks a rule."""
    assignment = [-1] * len(labels)
    meta: dict[int, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(_META_PREFIX + ","):
            entry = _meta_entry(line)
            if entry is None:
                raise FormatError(f"bad meta line {lineno}: {line!r}")
            meta[entry[0]] = entry[1]
            continue
        if line.startswith("#"):
            continue
        head, _, tail = line.rpartition(",")
        if not head or not tail:
            raise FormatError(f"bad partition line {lineno}: {line!r}")
        if head.startswith("\\") and _ESCAPED.match(head, 1):
            head = head[1:]
        group = _ascii_index(tail)
        if group is None:
            raise FormatError(f"bad group index at line {lineno}: {tail!r}")
        if group >= len(labels):
            # n vertices fill at most n non-empty groups
            raise FormatError(f"group index {group} at line {lineno} exceeds the {len(labels)} vertices")
        if head not in ids:
            raise FormatError(f"unknown vertex label {head!r} at line {lineno}")
        v = ids[head]
        if assignment[v] != -1:
            raise FormatError(f"vertex {head!r} assigned twice (line {lineno})")
        assignment[v] = group
    if -1 in assignment:
        raise FormatError(f"vertex {labels[assignment.index(-1)]!r} missing from partition file")
    return np.array(assignment, dtype=_INT), meta


def load_partition(stream: TextIO, labels: Sequence[str]) -> Partition:
    """Read a partition file back against a known vertex universe.

    Every vertex in ``labels`` must be assigned exactly once; unknown or
    missing vertices raise :class:`FormatError` naming the offender, as does
    an empty ``labels``. A group or meta index that is not ASCII decimal
    digits, or a group index of ``len(labels)`` or more, raises it naming the
    line; a grouping that :class:`Partition` refuses, naming the group.

    The stream is read once and split into lines at ``\\n``. A file of
    leading ``#meta`` lines followed by rows ``label,digits``, each label
    free of commas and starting with neither whitespace, ``#``, ``\\`` nor
    ``,``, each group 1 to 18 ASCII digits below ``len(labels)``, and each
    vertex named once, is read as whole columns: one regular-expression
    match, one split, a dict lookup per label in C and one numpy parse of
    the groups. Any other file (comments, blank lines, CRLF kept by the
    stream, escaped labels, labels with commas, or an error) is read again
    one line at a time, which yields the same partition or the same
    FormatError with the same line number. On a 10,000-row file (Python
    3.11, one core of a shared Xeon VM) the column read took 0.5 to 0.6 µs
    per line and the per-line read 1.1 to 2.2 µs.
    """
    if not labels:
        raise FormatError("the edge list has no vertices to assign to groups")
    text = stream.read()
    ids = dict(zip(labels, range(len(labels))))
    rows = _bulk_rows(text, ids, len(labels))
    if rows is None:
        rows = _line_rows(text.split("\n"), ids, labels)
    assigned, meta = rows
    try:
        return Partition(assignment=assigned, group_meta=meta)
    except ValueError as err:
        raise FormatError(str(err)) from None
