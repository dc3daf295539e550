"""Community detection and partition handling.

Detection is the two-phase multilevel scheme: local moving of vertices
between groups, then aggregation of groups into supervertices, repeated until
nothing changes. Local moving follows the fast local-move queue of Traag,
Waltman & van Eck ("From Louvain to Leiden", 2019): after a first visit of
every vertex, only the neighbours of vertices that moved are visited again.
Determinism is pinned down by a seeded visit order and a lowest-index
tie-break, so identical (graph, resolution, seed, min_improvement) inputs
always produce identical partitions.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import FormatError
from .graph import UndirectedView

_INT = np.int64


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of every vertex to exactly one group, with optional labels."""

    assignment: np.ndarray
    k: int
    group_sizes: np.ndarray
    group_meta: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("partition must have at least one group")
        if len(self.group_sizes) != self.k:
            raise ValueError("group_sizes length must equal k")
        if len(self.assignment) == 0:
            raise ValueError("partition must cover at least one vertex")
        counts = np.bincount(self.assignment, minlength=self.k)
        if len(counts) != self.k:
            raise ValueError("group index out of range")
        if self.assignment.min() < 0:
            raise ValueError("group index out of range")
        if np.any(counts == 0):
            raise ValueError("every group index in [0, k) must be used")
        if not np.array_equal(counts, self.group_sizes):
            raise ValueError("group_sizes inconsistent with assignment")
        for i in self.group_meta:
            if not (0 <= i < self.k):
                raise ValueError(f"meta refers to unknown group {i}")
        for a in (self.assignment, self.group_sizes):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.assignment)

    @classmethod
    def from_assignment(cls, assignment: Iterable[int], group_meta: dict[int, str] | None = None) -> "Partition":
        a = np.asarray(list(assignment) if not isinstance(assignment, np.ndarray) else assignment, dtype=_INT).copy()
        if len(a) == 0:
            raise ValueError("partition must cover at least one vertex")
        k = int(a.max()) + 1 if len(a) else 0
        sizes = np.bincount(a, minlength=k)
        return cls(assignment=a, k=k, group_sizes=sizes, group_meta=dict(group_meta or {}))

    def members(self, i: int) -> np.ndarray:
        if not (0 <= i < self.k):
            raise ValueError(f"group index {i} out of range (k={self.k})")
        return np.flatnonzero(self.assignment == i)


def relabel_by_size(p: Partition) -> Partition:
    """Permute group indices so group 0 is the largest (ties keep old order)."""
    order = np.lexsort((np.arange(p.k), -p.group_sizes))
    perm = np.empty(p.k, dtype=_INT)
    perm[order] = np.arange(p.k, dtype=_INT)
    meta = {int(perm[i]): name for i, name in p.group_meta.items()}
    return Partition(
        assignment=perm[p.assignment],
        k=p.k,
        group_sizes=p.group_sizes[order].copy(),
        group_meta=meta,
    )


def _local_move(
    adj_ptr: list[int],
    adj_idx: list[int],
    adj_w: list[float],
    strength: list[float],
    comm: list[int],
    sigma_tot: list[float],
    two_m: float,
    resolution: float,
    order_source: np.random.Generator,
    min_improvement: float,
) -> int:
    """One level of queue-driven local moving, as detect_communities
    describes it; returns the number of moves."""
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
        acc: dict[int, float] = {}
        for j in range(adj_ptr[v], adj_ptr[v + 1]):
            c = comm[adj_idx[j]]
            acc[c] = acc.get(c, 0.0) + adj_w[j]
        coef = resolution * kv / two_m
        stay = acc.get(c_old, 0.0) - coef * sigma_tot[c_old]
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
            for j in range(adj_ptr[v], adj_ptr[v + 1]):
                u = adj_idx[j]
                if not queued[u] and comm[u] != best_c:
                    queued[u] = True
                    queue.append(u)
        sigma_tot[comm[v]] += kv
    return n_moves


def _level_modularity(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    self_w: np.ndarray,
    strength: np.ndarray,
    comm: np.ndarray,
    two_m: float,
    resolution: float,
) -> float:
    rows = np.repeat(np.arange(len(self_w)), np.diff(indptr))
    same = comm[rows] == comm[indices]
    w_in = float(weights[same].sum()) + 2.0 * float(self_w.sum())
    k_groups = int(comm.max()) + 1
    tot = np.bincount(comm, weights=strength, minlength=k_groups)
    return w_in / two_m - resolution * float(np.sum((tot / two_m) ** 2))


def _louvain(
    g: UndirectedView, resolution: float, seed: int, min_improvement: float
) -> tuple[np.ndarray, list[float]]:
    """Multilevel optimization; returns (dense assignment, per-level modularity)."""
    rng = np.random.default_rng(seed)

    # level graph: symmetric CSR without self-loops + separate loop weights
    indptr = g.indptr.astype(_INT)
    indices = g.indices.astype(_INT)
    weights = np.ones(len(indices), dtype=np.float64)
    self_w = np.zeros(g.n, dtype=np.float64)
    strength = np.asarray(np.diff(indptr), dtype=np.float64)
    two_m = float(strength.sum())

    assignment = np.arange(g.n, dtype=_INT)
    q_history: list[float] = []

    while True:
        n_l = len(self_w)
        comm = list(range(n_l))
        sigma_tot = strength.tolist()
        n_moves = _local_move(
            indptr.tolist(),
            indices.tolist(),
            weights.tolist(),
            strength.tolist(),
            comm,
            sigma_tot,
            two_m,
            resolution,
            rng,
            min_improvement,
        )
        comm_arr = np.asarray(comm, dtype=_INT)
        used, dense = np.unique(comm_arr, return_inverse=True)
        assignment = dense[assignment]
        q_history.append(
            _level_modularity(indptr, indices, weights, self_w, strength, dense, two_m, resolution)
        )
        k_new = len(used)
        if n_moves == 0 or k_new == n_l:
            break

        # aggregate groups into supervertices
        rows = dense[np.repeat(np.arange(n_l, dtype=_INT), np.diff(indptr))]
        cols = dense[indices]
        keys = rows * _INT(k_new) + cols
        uk, inv = np.unique(keys, return_inverse=True)
        wsum = np.bincount(inv, weights=weights)
        ru, cu = uk // k_new, uk % k_new
        diag = ru == cu
        new_self = np.zeros(k_new, dtype=np.float64)
        new_self[ru[diag]] = wsum[diag] / 2.0
        new_self += np.bincount(dense, weights=self_w, minlength=k_new)
        off = ~diag
        ru_o, cu_o, w_o = ru[off], cu[off], wsum[off]
        indptr = np.zeros(k_new + 1, dtype=_INT)
        np.cumsum(np.bincount(ru_o, minlength=k_new), out=indptr[1:])
        indices = cu_o.astype(_INT)
        weights = w_o
        self_w = new_self
        strength = np.bincount(ru_o, weights=w_o, minlength=k_new) + 2.0 * self_w

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

    Deterministic for fixed (graph, resolution, seed, min_improvement).
    Isolated vertices end up in singleton groups. Raises ValueError on an
    empty graph (no vertices or no edges), where modularity optimization is
    undefined.
    """
    if g.n == 0 or g.m == 0:
        raise ValueError("community detection requires a graph with at least one edge")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if min_improvement <= 0:
        raise ValueError("min_improvement must be positive")
    assignment, _ = _louvain(g, resolution, seed, min_improvement)
    return Partition.from_assignment(assignment)


_META_PREFIX = "#meta"
# A label that would read as a comment (leading "#"), or as an escaped one,
# is saved with one more leading backslash, which loading takes off again.
_ESCAPED = re.compile(r"\\*#")


def save_partition(p: Partition, stream: TextIO, labels: Sequence[str]) -> None:
    """Write ``vertex-label,group-index`` lines plus ``#meta`` group names.

    Every label ingest can produce from a file (non-empty, no surrounding
    whitespace, no line break) round-trips through load_partition: the group
    index follows the last comma, and a label matching ``\\*#`` is written
    with one extra leading backslash. A label or group name holding ``\\n``
    or ``\\r``, either of which ends a line under universal newlines, raises
    ValueError before anything is written.
    """
    if len(labels) != p.n:
        raise ValueError(f"expected {p.n} labels, got {len(labels)}")
    names = sorted(p.group_meta.items())
    for _, name in names:
        if "," in name or "\n" in name or "\r" in name:
            raise ValueError(f"group name {name!r} contains reserved characters")
    for label in labels:
        if "\n" in label or "\r" in label:
            raise ValueError(f"vertex label {label!r} contains a line break")
    for i, name in names:
        stream.write(f"{_META_PREFIX},{i},{name}\n")
    for v, label in enumerate(labels):
        if _ESCAPED.match(label):
            label = "\\" + label
        stream.write(f"{label},{p.assignment[v]}\n")


def load_partition(stream: Iterable[str], labels: Sequence[str]) -> Partition:
    """Read a partition file back against a known vertex universe.

    Every vertex in ``labels`` must be assigned exactly once; unknown or
    missing vertices raise :class:`FormatError` naming the offender.
    """
    ids = {label: v for v, label in enumerate(labels)}
    assignment = np.full(len(labels), -1, dtype=_INT)
    meta: dict[int, str] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(_META_PREFIX + ","):
            parts = line.split(",", 2)
            if len(parts) != 3 or not parts[1].isdigit():
                raise FormatError(f"bad meta line {lineno}: {line!r}")
            meta[int(parts[1])] = parts[2]
            continue
        if line.startswith("#"):
            continue
        head, _, tail = line.rpartition(",")
        if not head or not tail:
            raise FormatError(f"bad partition line {lineno}: {line!r}")
        if head.startswith("\\") and _ESCAPED.match(head, 1):
            head = head[1:]
        try:
            group = int(tail)
        except ValueError:
            raise FormatError(f"bad group index at line {lineno}: {tail!r}") from None
        if group < 0:
            raise FormatError(f"negative group index at line {lineno}")
        if head not in ids:
            raise FormatError(f"unknown vertex label {head!r} at line {lineno}")
        v = ids[head]
        if assignment[v] != -1:
            raise FormatError(f"vertex {head!r} assigned twice (line {lineno})")
        assignment[v] = group
    missing = np.flatnonzero(assignment == -1)
    if len(missing):
        raise FormatError(f"vertex {labels[missing[0]]!r} missing from partition file")
    k = int(assignment.max()) + 1
    sizes = np.bincount(assignment, minlength=k)
    empty = np.flatnonzero(sizes == 0)
    if len(empty):
        raise FormatError(f"group index {int(empty[0])} has no members")
    for i in meta:
        if i >= k:
            raise FormatError(f"meta names unknown group {i}")
    return Partition(assignment=assignment, k=k, group_sizes=sizes, group_meta=meta)
