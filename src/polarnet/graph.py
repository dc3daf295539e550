"""Interaction-graph core: edge-list ingestion, temporal windowing, graph views.

Arcs are directed along information flow (content author -> resharing user).
All graph types are immutable after construction (their numpy buffers are
marked read-only), so they can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import ParseError

_INT = np.int64


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class IngestOptions:
    """Knobs for :func:`ingest_edge_list`."""

    delimiter: str = ","
    skip_header: bool = False
    strict: bool = False
    comment_prefix: str = "#"


@dataclass(frozen=True)
class TimeWindow:
    """Half-open interval [start, end) of integer epoch seconds."""

    start: int
    end: int
    label: str = ""

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"window start {self.start} must precede end {self.end}")

    def contains(self, t: int) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True, eq=False)
class TemporalEdgeSet:
    """Raw timestamped arcs plus a dense label <-> id index.

    ``sources``/``targets`` hold dense vertex ids; ``labels[i]`` is the
    external label of vertex ``i`` and ``label_ids`` is the inverse map.
    ``dropped_self_loops`` and ``malformed_lines`` carry ingestion counters.
    """

    sources: np.ndarray
    targets: np.ndarray
    timestamps: np.ndarray
    labels: tuple[str, ...]
    label_ids: dict[str, int]
    dropped_self_loops: int = 0
    malformed_lines: int = 0

    def __post_init__(self):
        n = len(self.labels)
        if not (len(self.sources) == len(self.targets) == len(self.timestamps)):
            raise ValueError("sources, targets and timestamps must have equal length")
        if len(self.label_ids) != n:
            raise ValueError("label index is not a bijection")
        if len(self.sources) > 0:
            ids = np.concatenate([self.sources, self.targets])
            if ids.min() < 0 or ids.max() >= n:
                raise ValueError("arc endpoint outside the vertex index")
            if self.timestamps.min() < 0:
                raise ValueError("timestamps must be non-negative")
        for a in (self.sources, self.targets, self.timestamps):
            _readonly(a)

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_arcs(self) -> int:
        return len(self.sources)

    def time_span(self) -> tuple[int, int] | None:
        """(min, max) timestamp over all arcs, or None when empty."""
        if self.n_arcs == 0:
            return None
        return int(self.timestamps.min()), int(self.timestamps.max())

    @classmethod
    def from_arcs(cls, arcs: Iterable[tuple[str, str, int]]) -> "TemporalEdgeSet":
        """Build from (source label, target label, timestamp) triples.

        Self-loop records are dropped and counted; labels are indexed in
        first-seen order over the surviving arcs.
        """
        label_ids: dict[str, int] = {}
        src, tgt, ts = [], [], []
        dropped = 0
        for s, t, stamp in arcs:
            if s == t:
                dropped += 1
                continue
            if s not in label_ids:
                label_ids[s] = len(label_ids)
            if t not in label_ids:
                label_ids[t] = len(label_ids)
            src.append(label_ids[s])
            tgt.append(label_ids[t])
            ts.append(stamp)
        return cls(
            sources=np.asarray(src, dtype=_INT),
            targets=np.asarray(tgt, dtype=_INT),
            timestamps=np.asarray(ts, dtype=_INT),
            labels=tuple(label_ids),
            label_ids=label_ids,
            dropped_self_loops=dropped,
        )


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Simple directed graph in CSR form (sorted, deduplicated out-neighbor rows).

    ``multiplicity[j]`` counts how many raw interactions collapsed into arc j.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    multiplicity: np.ndarray

    def __post_init__(self):
        if len(self.indptr) != self.n + 1:
            raise ValueError("indptr length must be n + 1")
        if len(self.indices) != len(self.multiplicity):
            raise ValueError("indices and multiplicity must have equal length")
        for a in (self.indptr, self.indices, self.multiplicity):
            _readonly(a)

    @property
    def m(self) -> int:
        """Arc count (after deduplication)."""
        return len(self.indices)

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def arc_sources(self) -> np.ndarray:
        """Source id of every arc, aligned with ``indices``."""
        return np.repeat(np.arange(self.n, dtype=_INT), self.out_degrees)


@dataclass(frozen=True, eq=False)
class UndirectedView:
    """Symmetric adjacency (CSR, each edge stored in both rows) of a digraph.

    A reciprocal arc pair collapses to a single undirected edge, so the
    adjacency indicator is 0/1 and ``degrees`` sum to ``2 * m``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    m: int

    def __post_init__(self):
        if len(self.indptr) != self.n + 1:
            raise ValueError("indptr length must be n + 1")
        if len(self.indices) != 2 * self.m:
            raise ValueError("edge count inconsistent with adjacency size")
        for a in (self.indptr, self.indices):
            _readonly(a)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_pairs(self) -> np.ndarray:
        """(m, 2) array of edges as (u, v) with u < v, sorted."""
        rows = np.repeat(np.arange(self.n, dtype=_INT), self.degrees)
        keep = rows < self.indices
        return np.column_stack([rows[keep], self.indices[keep]])


def ingest_edge_list(stream: Iterable[str], options: IngestOptions | None = None) -> TemporalEdgeSet:
    """Parse a delimited ``source,target,timestamp`` stream into a TemporalEdgeSet.

    Lines starting with the comment prefix and blank lines are ignored.
    Self-loop records are dropped and counted. Malformed lines (wrong field
    count, empty labels, non-integer or negative timestamps) are counted, or
    raise :class:`ParseError` naming the first bad line when ``strict``.
    """
    opts = options or IngestOptions()
    label_ids: dict[str, int] = {}
    src: list[int] = []
    tgt: list[int] = []
    ts: list[int] = []
    dropped = 0
    malformed = 0
    header_pending = opts.skip_header

    for lineno, raw in enumerate(stream, start=1):
        if header_pending:
            header_pending = False
            continue
        line = raw.strip()
        if not line or line.startswith(opts.comment_prefix):
            continue
        parts = [p.strip() for p in line.split(opts.delimiter)]
        bad = len(parts) != 3 or not parts[0] or not parts[1]
        stamp = -1
        if not bad:
            try:
                stamp = int(parts[2])
            except ValueError:
                bad = True
            bad = bad or stamp < 0
        if bad:
            if opts.strict:
                raise ParseError(
                    f"malformed record at line {lineno}: {line!r}", line_number=lineno, line=line
                )
            malformed += 1
            continue
        s, t = parts[0], parts[1]
        if s == t:
            dropped += 1
            continue
        if s not in label_ids:
            label_ids[s] = len(label_ids)
        if t not in label_ids:
            label_ids[t] = len(label_ids)
        src.append(label_ids[s])
        tgt.append(label_ids[t])
        ts.append(stamp)

    return TemporalEdgeSet(
        sources=np.asarray(src, dtype=_INT),
        targets=np.asarray(tgt, dtype=_INT),
        timestamps=np.asarray(ts, dtype=_INT),
        labels=tuple(label_ids),
        label_ids=label_ids,
        dropped_self_loops=dropped,
        malformed_lines=malformed,
    )


def write_edge_list(stream: TextIO, edges: TemporalEdgeSet, delimiter: str = ",") -> None:
    """Serialize arcs as ``source,target,timestamp`` lines (inverse of ingest)."""
    labels = edges.labels
    for s, t, stamp in zip(edges.sources, edges.targets, edges.timestamps):
        stream.write(f"{labels[s]}{delimiter}{labels[t]}{delimiter}{stamp}\n")


def exclude_interval(edges: TemporalEdgeSet, start: int, end: int) -> TemporalEdgeSet:
    """Drop arcs with timestamp in [start, end), keeping the vertex universe intact."""
    if start >= end:
        raise ValueError(f"exclusion start {start} must precede end {end}")
    keep = (edges.timestamps < start) | (edges.timestamps >= end)
    return TemporalEdgeSet(
        sources=edges.sources[keep].copy(),
        targets=edges.targets[keep].copy(),
        timestamps=edges.timestamps[keep].copy(),
        labels=edges.labels,
        label_ids=edges.label_ids,
        dropped_self_loops=edges.dropped_self_loops,
        malformed_lines=edges.malformed_lines,
    )


def _distinct_keys(keys: np.ndarray, return_counts: bool = False):
    """Sorted distinct values of an int64 array, like ``np.unique``.

    For edge keys ``u * n + v`` the sorted order is CSR row order. ``np.sort``
    plus a ``not_equal`` pass is used because plain ``np.unique`` on int64
    takes a hash-based path that is tens of times slower. With
    ``return_counts`` it also returns how often each distinct key occurs.
    """
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if not return_counts:
        return keys[first]
    return keys[first], np.diff(np.flatnonzero(first), append=len(keys))


def _indptr(n: int, rows: np.ndarray) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=_INT)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _directed(n: int, src: np.ndarray, dst: np.ndarray) -> DirectedGraph:
    uniq, counts = _distinct_keys(src * np.int64(n) + dst, return_counts=True)
    return DirectedGraph(n=n, indptr=_indptr(n, uniq // n), indices=uniq % n, multiplicity=counts)


def _undirected(n: int, u: np.ndarray, v: np.ndarray) -> UndirectedView:
    # both orientations of every pair: once deduplicated, each edge is one
    # key per CSR row it belongs to, so the view needs no second sort
    n64 = np.int64(n)
    uniq = _distinct_keys(np.concatenate([u * n64 + v, v * n64 + u]))
    return UndirectedView(n=n, indptr=_indptr(n, uniq // n), indices=uniq % n, m=len(uniq) // 2)


def _checked_pairs(n: int, pairs: Iterable[tuple[int, int]], what: str) -> np.ndarray:
    a = np.asarray(list(pairs), dtype=_INT).reshape(-1, 2)
    if len(a) and (a.min() < 0 or a.max() >= n):
        raise ValueError(f"{what} endpoint out of range")
    if np.any(a[:, 0] == a[:, 1]):
        raise ValueError("self-loops are not allowed")
    return a


def build_directed_graph(edges: TemporalEdgeSet, window: TimeWindow | None = None) -> DirectedGraph:
    """Deduplicated directed graph over the arcs inside ``window`` (all if None).

    The vertex universe always stays the full label index, so vertices with
    no in-window activity remain as isolated vertices and ids are stable
    across windows.
    """
    s, t = edges.sources, edges.targets
    if window is not None:
        mask = (edges.timestamps >= window.start) & (edges.timestamps < window.end)
        s, t = s[mask], t[mask]
    return _directed(edges.n_vertices, s, t)


def directed_from_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> DirectedGraph:
    """Directed graph from (source, target) id pairs; duplicates collapse."""
    a = _checked_pairs(n, arcs, "arc")
    return _directed(n, a[:, 0], a[:, 1])


def undirected_from_edges(n: int, edge_list: Iterable[tuple[int, int]]) -> UndirectedView:
    """Undirected view from unordered vertex-id pairs; duplicates collapse."""
    a = _checked_pairs(n, edge_list, "edge")
    return _undirected(n, a[:, 0], a[:, 1])


def underlying_undirected(g: DirectedGraph) -> UndirectedView:
    """Collapse arcs to undirected edges: one edge per unordered adjacent pair."""
    return _undirected(g.n, g.arc_sources(), g.indices)


def window_label(start: int, granularity: int) -> str:
    """Human label for a window: UTC date for day-multiple granularities."""
    dt = datetime.fromtimestamp(start, tz=timezone.utc)
    if granularity % 86400 == 0:
        return dt.strftime("%Y-%m-%d")
    return dt.strftime("%Y-%m-%dT%H:%M:%S")


def slice_windows(edges: TemporalEdgeSet, granularity: int, origin: int = 0) -> list[TimeWindow]:
    """Consecutive equal-length windows aligned to ``origin`` covering all arcs.

    Returns an empty list for an empty edge set. The origin lets "day"
    boundaries match any timezone convention.
    """
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    span = edges.time_span()
    if span is None:
        return []
    tmin, tmax = span
    first = origin + ((tmin - origin) // granularity) * granularity
    windows = []
    start = first
    while start <= tmax:
        windows.append(TimeWindow(start=start, end=start + granularity, label=window_label(start, granularity)))
        start += granularity
    return windows


def induced_subgraph(g: DirectedGraph, vertices: Iterable[int]) -> tuple[DirectedGraph, np.ndarray]:
    """Subgraph on ``vertices`` with arcs whose endpoints both lie in the set.

    Ids are re-indexed densely; the second return value maps local id ->
    original id (sorted ascending), making the re-indexing recoverable.
    """
    ids = _distinct_keys(np.asarray(list(vertices), dtype=_INT))
    if len(ids) and (ids[0] < 0 or ids[-1] >= g.n):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise ValueError(f"vertex id {bad} out of range for graph with n={g.n}")
    lookup = np.full(g.n, -1, dtype=_INT)
    lookup[ids] = np.arange(len(ids), dtype=_INT)
    src = lookup[g.arc_sources()]
    dst = lookup[g.indices]
    keep = (src >= 0) & (dst >= 0)
    k = len(ids)
    # lookup is increasing, so the kept arcs stay in (source, target) order
    # and their keys are already distinct: no sort, and multiplicities carry over
    src, dst = src[keep], dst[keep]
    sub = DirectedGraph(n=k, indptr=_indptr(k, src), indices=dst, multiplicity=g.multiplicity[keep])
    return sub, ids
