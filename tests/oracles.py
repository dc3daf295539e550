"""Independent reference implementations the tests check the library against.

Everything here is written for clarity over speed: literal double sums,
full-rescan greedy, exhaustive partition enumeration. None of it imports
from the library's internals beyond the public graph containers.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np

from polarnet.graph import DirectedGraph, UndirectedView


def parse_edge_lines(lines, delimiter=","):
    """Line-by-line reference parser.

    Returns (arcs, malformed, self_loops) where arcs is a list of
    (source, target, timestamp) triples in input order.
    """
    arcs = []
    malformed = 0
    self_loops = 0
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(delimiter)
        if len(parts) != 3 or not parts[0] or not parts[1]:
            malformed += 1
            continue
        try:
            stamp = int(parts[2])
        except ValueError:
            malformed += 1
            continue
        if stamp < 0:
            malformed += 1
            continue
        if parts[0] == parts[1]:
            self_loops += 1
            continue
        arcs.append((parts[0], parts[1], stamp))
    return arcs, malformed, self_loops


def ingest_reference(text, delimiter=",", skip_header=False, strict=False, comment_prefix="#"):
    """Per-line reader of the documented edge-list rules, over a whole text.

    Lines end at "\\n". Each line and each of its fields is stripped; blank
    lines, comment lines and (with ``skip_header``) line 1 are ignored; a
    record has two non-empty labels and an int() timestamp in [0, 2**63).
    Returns a dict with the TemporalEdgeSet fields (ids in first-seen order
    over the kept arcs), or ``{"error_line": n}`` naming the first malformed
    line under ``strict``.
    """
    pieces = text.split("\n")
    if pieces[-1] == "":
        pieces.pop()
    ids = {}
    sources, targets, stamps = [], [], []
    loops = bad = 0
    for number, raw in enumerate(pieces, start=1):
        line = raw.strip()
        if (skip_header and number == 1) or not line or line.startswith(comment_prefix):
            continue
        fields = [f.strip() for f in line.split(delimiter)]
        stamp = None
        if len(fields) == 3 and fields[0] and fields[1]:
            try:
                stamp = int(fields[2])
            except ValueError:
                pass
        if stamp is None or not 0 <= stamp < 2**63:
            if strict:
                return {"error_line": number}
            bad += 1
            continue
        source, target = fields[0], fields[1]
        if source == target:
            loops += 1
            continue
        for label in (source, target):
            ids.setdefault(label, len(ids))
        sources.append(ids[source])
        targets.append(ids[target])
        stamps.append(stamp)
    return {
        "sources": sources,
        "targets": targets,
        "timestamps": stamps,
        "labels": tuple(ids),
        "label_ids": ids,
        "dropped_self_loops": loops,
        "malformed_lines": bad,
    }


def csr_reference(n, arcs):
    """(indptr, indices, multiplicity) of (source, target) id pairs.

    Duplicates are counted with a Counter and rows are ordered with
    np.lexsort, independently of the library's key sort.
    """
    counts = Counter((int(u), int(v)) for u, v in arcs)
    rows = np.asarray([u for u, _ in counts], dtype=np.int64)
    cols = np.asarray([v for _, v in counts], dtype=np.int64)
    mult = np.asarray(list(counts.values()), dtype=np.int64)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order], mult[order]


def window_reference(arcs, assignment, k, start, end):
    """(m, e, D, Q) of one window from the set of unordered pairs inside it.

    ``arcs`` are (source id, target id, timestamp) triples; the window is
    [start, end). e[i] counts internal edges of group i, D[i] its total
    degree and Q[i] = e_i/m - (D_i/2m)^2; Q is None when m == 0.
    """
    pairs = {(min(u, v), max(u, v)) for u, v, t in arcs if start <= t < end}
    m = len(pairs)
    e = [0] * k
    d = [0] * k
    for u, v in pairs:
        d[assignment[u]] += 1
        d[assignment[v]] += 1
        if assignment[u] == assignment[v]:
            e[assignment[u]] += 1
    if m == 0:
        return 0, e, d, None
    return m, e, d, [e[i] / m - (d[i] / (2 * m)) ** 2 for i in range(k)]


def adjacency_matrix(und: UndirectedView) -> np.ndarray:
    a = np.zeros((und.n, und.n), dtype=np.float64)
    for v in range(und.n):
        for u in und.neighbors(v):
            a[v, u] = 1.0
    return a


def modularity_double_sum(und: UndirectedView, assignment) -> float:
    """Literal double sum over all ordered vertex pairs, diagonal included."""
    a = adjacency_matrix(und)
    d = und.degrees.astype(np.float64)
    two_m = 2.0 * und.m
    terms = []
    for u in range(und.n):
        for v in range(und.n):
            if assignment[u] == assignment[v]:
                terms.append(a[u, v] - d[u] * d[v] / two_m)
    return math.fsum(terms) / two_m


def group_double_sum(und: UndirectedView, assignment, i) -> float:
    """Double sum of the same addends restricted to one group."""
    a = adjacency_matrix(und)
    d = und.degrees.astype(np.float64)
    two_m = 2.0 * und.m
    members = [v for v in range(und.n) if assignment[v] == i]
    terms = []
    for u in members:
        for v in members:
            terms.append(a[u, v] - d[u] * d[v] / two_m)
    return math.fsum(terms) / two_m


def induced_is_connected(und: UndirectedView, members) -> bool:
    """Whether ``members`` induce a connected subgraph, by graph search."""
    inside = {int(v) for v in members}
    start = next(iter(inside))
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for u in und.indices[und.indptr[v]:und.indptr[v + 1]].tolist():
            if u in inside and u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen == inside


def planted_agreement(detected, truth) -> float:
    """Fraction of vertices matched under the best one-to-one alignment of
    detected groups to planted blocks (Hungarian method)."""
    from scipy.optimize import linear_sum_assignment

    confusion = np.zeros((detected.k, truth.k), dtype=np.int64)
    np.add.at(confusion, (detected.assignment, truth.assignment), 1)
    rows, cols = linear_sum_assignment(-confusion)
    return confusion[rows, cols].sum() / detected.n


def set_partitions(items):
    """All partitions of a list into nonempty blocks (Bell-number many)."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for j in range(len(smaller)):
            yield smaller[:j] + [smaller[j] + [head]] + smaller[j + 1:]
        yield [[head]] + smaller


def max_modularity(und: UndirectedView) -> float:
    """Exhaustive best modularity over every partition; n <= 8 or so."""
    best = -math.inf
    for blocks in set_partitions(list(range(und.n))):
        assignment = [0] * und.n
        for g, block in enumerate(blocks):
            for v in block:
                assignment[v] = g
        best = max(best, modularity_double_sum(und, assignment))
    return best


def rewire_reference(und: UndirectedView, swaps, proposals):
    """Sequential double-edge swap chain over a given proposal stream.

    Each proposal ``(i, j, flip)`` names two edges by their index in
    ``und.edge_pairs()`` order (as the chain has updated them) and whether
    to reverse the second: edges (a, b) and (c, d), or (d, c), become
    (a, d) and (c, b). It is rejected when i == j, when it would make a
    self-loop, or when a new edge equals the other or is already present.
    Every proposal counts against ``max(1000, 200 * swaps)``; exhausting it
    before ``swaps`` acceptances raises RuntimeError. Returns the sorted
    edge list.
    """
    edges = [tuple(e) for e in und.edge_pairs().tolist()]
    present = set(edges)
    budget = max(1000, 200 * swaps)
    stream = iter(proposals)
    accepted = attempts = 0
    while accepted < swaps:
        if attempts == budget:
            raise RuntimeError(
                f"degree-preserving rewire stalled: {accepted}/{swaps} swaps "
                f"accepted after {budget} attempts"
            )
        i, j, flip = next(stream)
        attempts += 1
        if i == j:
            continue
        (a, b), (c, d) = edges[i], edges[j]
        if flip:
            c, d = d, c
        if a == d or c == b:
            continue
        p, q = tuple(sorted((a, d))), tuple(sorted((c, b)))
        if p == q or p in present or q in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {p, q}
        edges[i], edges[j] = p, q
        accepted += 1
    return sorted(edges)


def edge_list_text(labels, arcs, delimiter=","):
    """The edge-list file text of (source id, target id, stamp) triples,
    one f-string per arc."""
    return "".join(f"{labels[s]}{delimiter}{labels[t]}{delimiter}{stamp}\n" for s, t, stamp in arcs)


def closed_out_neighborhood(g: DirectedGraph, v) -> set:
    return set(g.out_neighbors(v).tolist()) | {v}


def greedy_reference(g: DirectedGraph, rho, candidates, cover_targets=None):
    """Greedy cover with spans recomputed from scratch every iteration.

    Mirrors the intended selection semantics exactly: pick the candidate
    whose remaining span is largest, lowest vertex id on ties, stop once
    ceil-adjusted rho * |targets| vertices are covered. Returns
    (selected, covered_after, feasible); an infeasible run stops when no
    remaining candidate adds coverage and reports the picks it made.
    """
    targets = set(range(g.n)) if cover_targets is None else set(cover_targets)
    n_target = len(targets)
    scaled = rho * n_target
    nearest = round(scaled)
    target = int(nearest) if abs(scaled - nearest) < 1e-9 else math.ceil(scaled)
    covered = set()
    remaining = sorted(set(candidates))
    selected = []
    covered_after = []
    while len(covered) < target:
        best_v, best_span = None, -1
        for v in remaining:
            span = len((closed_out_neighborhood(g, v) & targets) - covered)
            if span > best_span:
                best_v, best_span = v, span
        if best_v is None or best_span == 0:
            return selected, covered_after, False
        remaining.remove(best_v)
        covered |= closed_out_neighborhood(g, best_v) & targets
        selected.append(best_v)
        covered_after.append(len(covered))
    return selected, covered_after, True


def brute_minimum_cover(g: DirectedGraph, rho, candidates, cover_targets=None):
    """Smallest candidate subset reaching the target, by raw enumeration."""
    targets = set(range(g.n)) if cover_targets is None else set(cover_targets)
    n_target = len(targets)
    scaled = rho * n_target
    nearest = round(scaled)
    target = int(nearest) if abs(scaled - nearest) < 1e-9 else math.ceil(scaled)
    if target == 0:
        return 0
    pool = sorted(set(candidates))
    spans = {v: closed_out_neighborhood(g, v) & targets for v in pool}
    for r in range(1, len(pool) + 1):
        for combo in combinations(pool, r):
            union = set()
            for v in combo:
                union |= spans[v]
            if len(union) >= target:
                return r
    return None


def harmonic(x: int) -> float:
    return sum(1.0 / i for i in range(1, x + 1))


def ols_fit(points):
    """Least squares via numpy's solver, independent of the closed form."""
    xs = np.asarray([p[0] for p in points], dtype=np.float64)
    ys = np.asarray([p[1] for p in points], dtype=np.float64)
    design = np.column_stack([xs, np.ones_like(xs)])
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    return float(slope), float(intercept)


def random_digraph(n, p, rng) -> DirectedGraph:
    """Independent Bernoulli arcs over ordered pairs; test input helper."""
    from polarnet.graph import directed_from_arcs

    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return directed_from_arcs(n, arcs)


def random_grouping(n, k, rng):
    """Assignment using every index in [0, k); k <= n."""
    assignment = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(assignment)
    return assignment.astype(np.int64)
