"""Independent reference implementations the tests check the library against.

Everything here is written for clarity over speed: literal double sums,
full-rescan greedy, exhaustive partition enumeration. None of it imports
from the library's internals beyond the public graph containers.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from itertools import combinations

import numpy as np

from polarnet.graph import DirectedGraph, UndirectedView
from polarnet.polarization import DEFAULT_D_TOLERANCE, PolarizationReport, TrendFit


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


def ingest_reference(text, delimiter=",", skip_header=False, strict=False):
    """Per-line reader of the documented edge-list rules, over a whole text.

    Lines end at "\\n". Each line and each of its fields is stripped; blank
    lines, comment lines and (with ``skip_header``) line 1 are ignored; a
    record has two non-empty labels and an int() timestamp in [0, 2**63).
    Returns a dict with the TemporalEdgeSet fields (ids are the labels of
    the kept arcs in Python's string order, which is code-point order), or
    ``{"error_line": n}`` naming the first malformed line under ``strict``.
    """
    pieces = text.split("\n")
    if pieces[-1] == "":
        pieces.pop()
    arcs = []
    loops = bad = 0
    for number, raw in enumerate(pieces, start=1):
        line = raw.strip()
        if (skip_header and number == 1) or not line or line.startswith("#"):
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
        arcs.append((source, target, stamp))
    labels = tuple(sorted({label for arc in arcs for label in arc[:2]}))
    ids = {label: i for i, label in enumerate(labels)}
    return {
        "sources": [ids[s] for s, _, _ in arcs],
        "targets": [ids[t] for _, t, _ in arcs],
        "timestamps": [stamp for _, _, stamp in arcs],
        "labels": labels,
        "dropped_self_loops": loops,
        "malformed_lines": bad,
    }


def csr_reference(n, arcs):
    """(indptr, indices) of the distinct (source, target) id pairs.

    Duplicates collapse in a Python set and rows are ordered with
    np.lexsort, independently of the library's key sort.
    """
    pairs = {(int(u), int(v)) for u, v in arcs}
    rows = np.asarray([u for u, _ in pairs], dtype=np.int64)
    cols = np.asarray([v for _, v in pairs], dtype=np.int64)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order]


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


def _contributions_reference(gu, gv, k, m):
    e = np.bincount(gu[gu == gv], minlength=k)
    d = np.bincount(gu, minlength=k) + np.bincount(gv, minlength=k)
    return e / m - (d / (2.0 * m)) ** 2


def _trend_reference(points):
    pts = list(points)
    xs = np.asarray([p[0] for p in pts], dtype=np.float64)
    ys = np.asarray([p[1] for p in pts], dtype=np.float64)
    xbar = xs.mean()
    sxx = float(np.sum((xs - xbar) ** 2))
    ybar = ys.mean()
    slope = float(np.sum((xs - xbar) * (ys - ybar))) / sxx
    return TrendFit(slope=slope, intercept=float(ybar - slope * xbar))


def window_series_reference(edges, p, windows, tracked_groups=()):
    """The per-window series as it was computed one window at a time.

    A stable time sort, then for each window j of the grid ``windows``,
    [first + j·length, first + (j + 1)·length), the distinct pairs of its
    slice and its Q_i as one float array, q as that array's sum, and trends
    fitted from Python lists of points. ``np.unique`` stands in for the
    library's sort-based dedup (the same sorted values) and the two helpers
    above are the library's modularity and least-squares arithmetic of the
    time. The rows are then packed into a report's columns, as its
    docstring lays them out, so the result can be compared with ``==``,
    float for float. Each slice is found by ``bisect`` over the stamps as
    Python ints, so a window ending past the int64 range needs no care. A
    group tracked twice is tracked at its first place.
    """
    tracked = tuple(dict.fromkeys(int(i) for i in tracked_groups))
    n = np.int64(edges.n_vertices)
    order = np.argsort(edges.timestamps, kind="stable")
    times = edges.timestamps[order]
    s, t = edges.sources[order], edges.targets[order]
    keys = np.minimum(s, t) * n + np.maximum(s, t)
    stamps = times.tolist()
    a = p.assignment

    rows, ms, qs, group_qs, defined, group_ds = [], [], [], [], [], []
    for j in range(len(windows)):
        start = windows.first + j * windows.length
        begin, end = bisect_left(stamps, start), bisect_left(stamps, start + windows.length)
        pairs = np.unique(keys[begin:end])
        if len(pairs) == 0:
            rows.append(-1)
            continue
        rows.append(len(ms))
        contributions = _contributions_reference(a[pairs // n], a[pairs % n], p.k, float(len(pairs)))
        q = float(contributions.sum())
        shared = abs(q) > DEFAULT_D_TOLERANCE
        ms.append(len(pairs))
        qs.append(q)
        group_qs.append([float(x) for x in contributions])
        defined.append(shared)
        group_ds.append([float(contributions[i]) / q if shared else 0.0 for i in tracked])

    trends = {}

    def fit(name, pts):
        if len(pts) >= 2:
            trends[name] = _trend_reference(pts)

    filled = [(j, r) for j, r in enumerate(rows) if r >= 0]
    fit("q", [(j, qs[r]) for j, r in filled])
    for c, i in enumerate(tracked):
        fit(f"group_q_{i}", [(j, group_qs[r][i]) for j, r in filled])
        fit(f"group_d_{i}", [(j, group_ds[r][c]) for j, r in filled if defined[r]])

    return PolarizationReport(
        labels=windows.labels,
        rows=np.asarray(rows, dtype=np.int64),
        m=np.asarray(ms, dtype=np.int64),
        q=np.asarray(qs, dtype=np.float64),
        group_q=np.asarray(group_qs, dtype=np.float64).reshape(len(ms), p.k),
        defined=np.asarray(defined, dtype=bool),
        group_d=np.asarray(group_ds, dtype=np.float64).reshape(len(ms), len(tracked)),
        tracked_groups=tracked,
        trends=trends,
    )


def report_payload(report):
    """The JSON object a polarization report stands for, as plain values."""
    return {
        "k": report.k,
        "tracked_groups": list(report.tracked_groups),
        "windows": [
            {
                "label": s.label,
                "m": s.m,
                "q": s.q,
                "group_q": None if s.group_q is None else list(s.group_q),
                "group_d": {str(i): v for i, v in s.group_d.items()},
            }
            for s in report.windows
        ],
        "trends": {
            name: {"slope": t.slope, "intercept": t.intercept}
            for name, t in report.trends.items()
        },
    }


def report_csv(report):
    """The CSV text of a report, one window row at a time: f-strings of six
    decimals, empty fields for None values."""

    def fmt(x):
        return "" if x is None else f"{x:.6f}"

    q_cols = list(report.tracked_groups) if report.tracked_groups else list(range(report.k))
    header = ["label", "m", "q"] + [f"q_{i}" for i in q_cols] + [f"d_{i}" for i in report.tracked_groups]
    lines = [",".join(header)]
    for s in report.windows:
        row = [s.label, str(s.m), fmt(s.q)]
        row += [fmt(None if s.group_q is None else s.group_q[i]) for i in q_cols]
        row += [fmt(s.group_d.get(i)) for i in report.tracked_groups]
        lines.append(",".join(row))
    return "".join(line + "\n" for line in lines)


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


def _reference_local_move(
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
    """One level of queue-driven local moving; returns the number of moves."""
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


def _reference_level_modularity(
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


def louvain_reference(
    g: UndirectedView, resolution: float, seed: int, min_improvement: float
) -> tuple[np.ndarray, list[float]]:
    """Multilevel optimization; returns (dense assignment, per-level modularity).

    The float-weight local moving that preceded per-level neighbour lists,
    kept as it was: each visit sums adjacency weights per neighbouring group
    in a Python loop over a CSR triple, and aggregation deduplicates keys
    with ``np.unique``. ``community._louvain`` must return the same
    assignment and the same ``q_history``, bit for bit.
    """
    rng = np.random.default_rng(seed)

    # level graph: symmetric CSR without self-loops + separate loop weights
    indptr = g.indptr.astype(np.int64)
    indices = g.indices.astype(np.int64)
    weights = np.ones(len(indices), dtype=np.float64)
    self_w = np.zeros(g.n, dtype=np.float64)
    strength = np.asarray(np.diff(indptr), dtype=np.float64)
    two_m = float(strength.sum())

    assignment = np.arange(g.n, dtype=np.int64)
    q_history: list[float] = []

    while True:
        n_l = len(self_w)
        comm = list(range(n_l))
        sigma_tot = strength.tolist()
        n_moves = _reference_local_move(
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
        comm_arr = np.asarray(comm, dtype=np.int64)
        used, dense = np.unique(comm_arr, return_inverse=True)
        assignment = dense[assignment]
        q_history.append(
            _reference_level_modularity(indptr, indices, weights, self_w, strength, dense, two_m, resolution)
        )
        k_new = len(used)
        if n_moves == 0 or k_new == n_l:
            break

        # aggregate groups into supervertices
        rows = dense[np.repeat(np.arange(n_l, dtype=np.int64), np.diff(indptr))]
        cols = dense[indices]
        keys = rows * np.int64(k_new) + cols
        uk, inv = np.unique(keys, return_inverse=True)
        wsum = np.bincount(inv, weights=weights)
        ru, cu = uk // k_new, uk % k_new
        diag = ru == cu
        new_self = np.zeros(k_new, dtype=np.float64)
        new_self[ru[diag]] = wsum[diag] / 2.0
        new_self += np.bincount(dense, weights=self_w, minlength=k_new)
        off = ~diag
        ru_o, cu_o, w_o = ru[off], cu[off], wsum[off]
        indptr = np.zeros(k_new + 1, dtype=np.int64)
        np.cumsum(np.bincount(ru_o, minlength=k_new), out=indptr[1:])
        indices = cu_o.astype(np.int64)
        weights = w_o
        self_w = new_self
        strength = np.bincount(ru_o, weights=w_o, minlength=k_new) + 2.0 * self_w

    return assignment, q_history


def rewire_reference(und: UndirectedView, swaps, proposals):
    """Sequential double-edge swap chain over a given proposal stream.

    Each proposal ``(i, j, flip)`` names two edges by their index in
    ``und.edge_pairs()`` order (as the chain has updated them) and whether
    to reverse the second: edges (a, b) and (c, d), or (d, c), become
    (a, d) and (c, b). It is rejected when i == j, when it would make a
    self-loop, or when a new edge equals the other or is already present.
    Every proposal counts against ``max(1000, 200 * swaps)``; exhausting it
    before ``swaps`` acceptances raises ValueError. Returns the sorted
    edge list.
    """
    edges = [tuple(e) for e in und.edge_pairs().tolist()]
    present = set(edges)
    budget = max(1000, 200 * swaps)
    stream = iter(proposals)
    accepted = attempts = 0
    while accepted < swaps:
        if attempts == budget:
            raise ValueError(
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


def edge_list_text(labels, arcs):
    """The edge-list file text of (source id, target id, stamp) triples,
    one f-string per arc."""
    return "".join(f"{labels[s]},{labels[t]},{stamp}\n" for s, t, stamp in arcs)


def unwritable_label(labels, arcs):
    """The first label an edge-list file of (source id, target id, stamp)
    triples cannot carry back to ingest, or None.

    A line is stripped and split at commas, and a field is stripped, so a
    label must be non-empty, unpadded and free of ``,``; a line ends at
    ``\\n``, or at ``\\r`` under universal newlines; and a line starting with
    ``#`` is a comment. Labels that break the first three rules come first,
    then sources breaking the last, each in label order.
    """
    for label in labels:
        if not label or label != label.strip() or "," in label or "\n" in label or "\r" in label:
            return label
    sources = {s for s, _, _ in arcs}
    return next((label for i, label in enumerate(labels) if i in sources and label.startswith("#")), None)


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


def induced_reference(g: DirectedGraph, members):
    """The subgraph on ``members`` (sorted ids) and its local -> global ids,
    built from the arcs with both ends inside; test oracle for in-group runs."""
    from polarnet.graph import directed_from_arcs

    gids = sorted(int(v) for v in members)
    local = {v: i for i, v in enumerate(gids)}
    arcs = [(local[u], local[int(v)]) for u in gids for v in g.out_neighbors(u) if int(v) in local]
    return directed_from_arcs(len(gids), arcs), gids


def random_grouping(n, k, rng):
    """Assignment using every index in [0, k); k <= n."""
    assignment = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(assignment)
    return assignment.astype(np.int64)
