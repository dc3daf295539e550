"""Modularity, per-group contributions, and their evolution over time windows.

For an undirected view with m edges, group i with D_i total degree and e_i
internal edges contributes Q_i = e_i/m - (D_i/(2m))^2, and the contributions
sum to the usual modularity Q of the partition. The share d_i = Q_i/Q says
how much of the overall separation a single group accounts for; it is only
meaningful when Q is safely away from zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence, TextIO

import numpy as np

from .community import Partition
from .errors import DegenerateModularityError, UndefinedModularityError
from .graph import TemporalEdgeSet, TimeWindow, UndirectedView

DEFAULT_D_TOLERANCE = 1e-12


def _check_cover(g: UndirectedView, p: Partition) -> None:
    if p.n != g.n:
        raise ValueError(f"partition covers {p.n} vertices, graph has {g.n}")


def _contributions(cu: np.ndarray, cv: np.ndarray, m: np.ndarray, k: int) -> np.ndarray:
    """Q_i for len(m) rows of k groups each, as an (len(m), k) array: edge j
    joins the cells cu[j] and cv[j] (row·k + the endpoint's group) and row r
    has m[r] > 0 edges."""
    cells = len(m) * k
    e = np.bincount(cu[cu == cv], minlength=cells).reshape(-1, k)
    d = (np.bincount(cu, minlength=cells) + np.bincount(cv, minlength=cells)).reshape(-1, k)
    mf = m.astype(np.float64)[:, None]
    return e / mf - (d / (2.0 * mf)) ** 2


def modularity(g: UndirectedView, p: Partition) -> float:
    """Modularity Q of the partition on the undirected view.

    Raises UndefinedModularityError when the view has no edges (m = 0).
    """
    return float(group_contributions(g, p).sum())


def group_contributions(g: UndirectedView, p: Partition) -> np.ndarray:
    """All Q_i at once; Q_i = e_i/m - (D_i/(2m))^2."""
    _check_cover(g, p)
    if g.m == 0:
        raise UndefinedModularityError("modularity is undefined on a graph with no edges")
    pairs = g.edge_pairs()
    return _contributions(p.assignment[pairs[:, 0]], p.assignment[pairs[:, 1]], np.array([g.m]), p.k)[0]


def d_modularity(g: UndirectedView, p: Partition, i: int) -> float:
    """Share d_i = Q_i/Q of group i in the overall modularity.

    Raises DegenerateModularityError when |Q| <= ``DEFAULT_D_TOLERANCE``,
    where the ratio would be noise rather than a signal.
    """
    if not (0 <= i < p.k):
        raise ValueError(f"group index {i} out of range (k={p.k})")
    contributions = group_contributions(g, p)
    q = float(contributions.sum())
    if abs(q) <= DEFAULT_D_TOLERANCE:
        raise DegenerateModularityError(
            f"total modularity {q:.3e} is within tolerance {DEFAULT_D_TOLERANCE:.1e} of zero"
        )
    return float(contributions[i]) / q


@dataclass(frozen=True)
class TrendFit:
    """Least-squares line y = slope*x + intercept."""

    slope: float
    intercept: float


def linear_trend(points: Iterable[tuple[float, float]]) -> TrendFit:
    """Ordinary least-squares fit; needs two or more distinct x values."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("trend fit needs at least two points")
    xs = np.asarray([p[0] for p in pts], dtype=np.float64)
    ys = np.asarray([p[1] for p in pts], dtype=np.float64)
    return _ols_fit(xs, ys)


def _ols_fit(xs: np.ndarray, ys: np.ndarray) -> TrendFit:
    xbar = xs.mean()
    sxx = float(np.sum((xs - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("trend fit needs at least two distinct x values")
    ybar = ys.mean()
    slope = float(np.sum((xs - xbar) * (ys - ybar))) / sxx
    return TrendFit(slope=slope, intercept=float(ybar - slope * xbar))


@dataclass(frozen=True)
class WindowStats:
    """Per-window modularity figures; all None when the window has no edges."""

    label: str
    m: int
    q: float | None
    group_q: tuple[float, ...] | None
    group_d: dict[int, float | None] = field(default_factory=dict)


@dataclass(frozen=True)
class PolarizationReport:
    windows: tuple[WindowStats, ...]
    k: int
    tracked_groups: tuple[int, ...]
    trends: dict[str, TrendFit]


def window_series(
    edges: TemporalEdgeSet,
    p: Partition,
    windows: Sequence[TimeWindow],
    tracked_groups: Sequence[int] = (),
) -> PolarizationReport:
    """Per-window Q, Q_i, and tracked d_i, plus least-squares trends.

    Windows may come in any order and may overlap or lie outside the arcs'
    time span; each row is computed from the arcs inside its own window.
    Windows with no arcs produce a row of None values and are excluded from
    trend fits; a tracked d_i is None wherever |Q| <= ``DEFAULT_D_TOLERANCE``.
    Trend x coordinates are window ordinals (0, 1, ...), so slopes read as
    change per window.

    Arcs are sorted by time once with an argsort. A window's edges are the
    *set* of distinct unordered pairs in its slice, so the order of arcs with
    equal timestamps cannot matter and the sort need not be stable. A
    window's own work is one in-place sort of its slice's pair keys; the
    dedup, group lookups, e_i and D_i (bincounts over row·k + group), every
    Q_i and q as the row sums of a rows×k array are whole-array passes over
    all windows that hold arcs. With A arcs, F windows holding arcs and k
    groups, that is O(A log A) plus the slice sorts and O(F·k) for the rows,
    with no graph built per window; a window without arcs costs only its
    row of None values. Windows are taken in runs whose slices hold at most
    2A arcs, so temporaries stay O(A + F·k) even when windows overlap.
    """
    if p.n != edges.n_vertices:
        raise ValueError(f"partition covers {p.n} vertices, edge set has {edges.n_vertices}")
    tracked = tuple(int(i) for i in tracked_groups)
    for i in tracked:
        if not (0 <= i < p.k):
            raise ValueError(f"group index {i} out of range (k={p.k})")

    n, k = np.int64(edges.n_vertices), p.k
    s, t, stamps = edges.sources, edges.targets, edges.timestamps
    # fresh arrays cost page faults comparable to the arithmetic, so the
    # arc-length temporaries below are updated in place where they can be
    keys = np.minimum(s, t)
    keys *= n
    keys += np.maximum(s, t)
    order = np.argsort(stamps)
    times, keys = stamps[order], keys[order]
    begins = np.searchsorted(times, [w.start for w in windows])
    ends = np.searchsorted(times, [w.end for w in windows])
    filled = np.flatnonzero(ends > begins)  # the windows that get a row
    begins, ends = begins[filled], ends[filled]
    lens = ends - begins
    # rows are taken in runs whose slices hold about A arcs together, so
    # overlapping windows never hold more than O(A) arcs at once
    before = np.cumsum(lens) - lens
    runs = np.flatnonzero(np.diff(before // max(len(keys), 1), prepend=-1)).tolist()

    a = p.assignment
    rows = len(filled)
    m = np.zeros(rows, dtype=np.int64)
    group_q = np.zeros((rows, k))
    for lo, hi in zip(runs, runs[1:] + [rows]):
        cat = np.concatenate([keys[b:c] for b, c in zip(begins[lo:hi].tolist(), ends[lo:hi].tolist())])
        at = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(lens[lo:hi], out=at[1:])
        for b, c in zip(at[:-1].tolist(), at[1:].tolist()):
            cat[b:c].sort()
        # a pair is new where its key differs from the previous one or where
        # its window's slice begins
        first = np.ones(len(cat), dtype=bool)
        np.not_equal(cat[1:], cat[:-1], out=first[1:])
        first[at[:-1]] = True
        keep = np.flatnonzero(first)
        m[lo:hi] = np.diff(np.searchsorted(keep, at))
        pairs = cat[keep]
        u = pairs // n
        row = np.repeat(np.arange(0, (hi - lo) * k, k, dtype=np.int64), m[lo:hi])
        cu = a[u]
        cu += row
        cv = a[pairs - u * n]
        cv += row
        group_q[lo:hi] = _contributions(cu, cv, m[lo:hi], k)
    qs = group_q.sum(axis=1)
    shared = np.abs(qs) > DEFAULT_D_TOLERANCE  # rows whose d_i are defined
    shares = np.divide(group_q[:, list(tracked)], qs[:, None], where=shared[:, None],
                       out=np.zeros((rows, len(tracked))))

    stats: list[WindowStats] = []
    empty = dict.fromkeys(tracked)
    values = iter(zip(m.tolist(), qs.tolist(), group_q.tolist(), shares.tolist(), shared.tolist()))
    has_row = np.zeros(len(windows), dtype=bool)
    has_row[filled] = True
    for w, has in zip(windows, has_row.tolist()):
        if not has:
            stats.append(WindowStats(label=w.label, m=0, q=None, group_q=None, group_d=dict(empty)))
            continue
        size, q, row_q, row_d, has_d = next(values)
        group_d = dict(zip(tracked, row_d)) if has_d else dict(empty)
        stats.append(WindowStats(label=w.label, m=size, q=q, group_q=tuple(row_q), group_d=group_d))

    trends: dict[str, TrendFit] = {}
    every = np.ones(rows, dtype=bool)

    def fit(name: str, taken: np.ndarray, ys: np.ndarray) -> None:
        if taken.sum() >= 2:
            trends[name] = _ols_fit(filled[taken].astype(np.float64), ys[taken])

    fit("q", every, qs)
    for j, i in enumerate(tracked):
        fit(f"group_q_{i}", every, group_q[:, i])
        fit(f"group_d_{i}", shared, shares[:, j])

    return PolarizationReport(
        windows=tuple(stats), k=p.k, tracked_groups=tracked, trends=trends
    )


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.6f}"


def write_report_csv(report: PolarizationReport, stream: TextIO) -> None:
    """One row per window. With tracked groups the Q_i and d_i columns are
    restricted to those groups; otherwise every group's Q_i is emitted and
    the d_i columns are omitted."""
    q_cols = list(report.tracked_groups) if report.tracked_groups else list(range(report.k))
    header = ["label", "m", "q"]
    header += [f"q_{i}" for i in q_cols]
    header += [f"d_{i}" for i in report.tracked_groups]
    stream.write(",".join(header) + "\n")
    for s in report.windows:
        row = [s.label, str(s.m), _fmt(s.q)]
        for i in q_cols:
            row.append(_fmt(None if s.group_q is None else s.group_q[i]))
        for i in report.tracked_groups:
            row.append(_fmt(s.group_d.get(i)))
        stream.write(",".join(row) + "\n")


# json spells the non-finite floats that float.__repr__ writes as nan and inf
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_ITEM = ",\n        "


def _json_number(x: float | None) -> str:
    if x is None:
        return "null"
    text = float.__repr__(x)
    return _JSON_FLOAT.get(text, text)


def _json_windows(windows: Sequence[WindowStats]) -> str:
    """The ``windows`` array as ``json.dumps(..., indent=2, sort_keys=True)``
    writes it one level down, from its opening bracket to its closing one."""
    items = []
    for s in windows:
        d, q = s.group_d, s.group_q
        group_d = _JSON_ITEM.join([f'"{i}": {_json_number(d[i])}' for i in sorted(d, key=str)])
        group_d = f"{{\n        {group_d}\n      }}" if d else "{}"
        if q is None:
            group_q = "null"
        else:
            group_q = f"[\n        {_JSON_ITEM.join(map(_json_number, q))}\n      ]" if q else "[]"
        items.append(f'    {{\n      "group_d": {group_d},\n      "group_q": {group_q},'
                     f'\n      "label": {encode_basestring_ascii(s.label)},'
                     f'\n      "m": {int.__repr__(s.m)},\n      "q": {_json_number(s.q)}\n    }}')
    return ("[\n" + ",\n".join(items) + "\n  ]") if items else "[]"


def write_report_json(report: PolarizationReport, stream: TextIO, extra: dict | None = None) -> None:
    """Write the report, with the keys of ``extra`` added or overriding, as
    one JSON object in a single write.

    The bytes are exactly ``json.dumps(payload, indent=2, sort_keys=True)``
    plus a newline, where ``payload`` holds ``k``, ``tracked_groups``,
    ``windows`` (one object per window with ``label``, ``m``, ``q``,
    ``group_q`` and ``group_d`` keyed by the group index as a string) and
    ``trends`` (``slope`` and ``intercept`` by name). The windows array,
    most of the report, is rendered directly: ``json.dumps`` with an indent
    runs the pure-Python encoder, which took about 2.5 times as long over
    a report of 1440 windows.
    """
    windows: list = []
    payload = {
        "k": report.k,
        "tracked_groups": list(report.tracked_groups),
        "windows": windows,
        "trends": {
            name: {"slope": t.slope, "intercept": t.intercept}
            for name, t in report.trends.items()
        },
    }
    if extra:
        payload.update(extra)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if payload["windows"] is windows and report.windows:
        # top-level keys alone sit two spaces in, and no JSON string holds a
        # raw line break, so this text is the placeholder's and nothing else's
        head, _, tail = text.partition('\n  "windows": []')
        text = f'{head}\n  "windows": {_json_windows(report.windows)}{tail}'
    stream.write(text + "\n")
