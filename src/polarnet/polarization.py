"""Modularity, per-group contributions, and their evolution over time windows.

For an undirected view with m edges, group i with D_i total degree and e_i
internal edges contributes Q_i = e_i/m - (D_i/(2m))^2, and the contributions
sum to the usual modularity Q of the partition. The share d_i = Q_i/Q says
how much of the overall separation a single group accounts for; it is only
meaningful when Q is safely away from zero.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import TextIO

import numpy as np

from .community import Partition
from .errors import DegenerateModularityError, UndefinedModularityError
from .graph import TemporalEdgeSet, UndirectedView, WindowGrid, _pair_keys

DEFAULT_D_TOLERANCE = 1e-12


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
    p.check_cover(g.n)
    if g.m == 0:
        raise UndefinedModularityError("modularity is undefined on a graph with no edges")
    pairs = g.edge_pairs()
    return _contributions(p.assignment[pairs[:, 0]], p.assignment[pairs[:, 1]], np.array([g.m]), p.k)[0]


def d_modularity(g: UndirectedView, p: Partition, i: int) -> float:
    """Share d_i = Q_i/Q of group i in the overall modularity.

    Raises DegenerateModularityError when |Q| <= ``DEFAULT_D_TOLERANCE``,
    where the ratio would be noise rather than a signal.
    """
    i = p.check_group(i)
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
    """One window's row of a :class:`PolarizationReport`, built when it is
    read; ``q``, ``group_q`` and every ``group_d`` value are None when the
    window has no edges, and the ``group_d`` values also where |Q| is
    within ``DEFAULT_D_TOLERANCE`` of zero."""

    label: str
    m: int
    q: float | None
    group_q: tuple[float, ...] | None
    group_d: dict[int, float | None] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class PolarizationReport:
    """A window series stored as read-only columns, plus its trends.

    One entry per window of the grid, in time order: ``labels``,
    and ``rows``, the window's row in the columns or -1 when the window
    holds no arcs. One row per window that holds arcs, in window order:
    ``m`` (distinct pairs), ``q``, ``group_q`` (rows × k, Q_i), ``defined``
    (|q| > ``DEFAULT_D_TOLERANCE``) and ``group_d`` (rows × tracked, d_i in
    the order of ``tracked_groups``, 0 where not ``defined``). An empty
    window costs no row, so memory grows with the windows that hold arcs
    times k, not with all windows times k. Each tracked group appears once.

    ``windows`` is every window as a :class:`WindowStats`, built on first
    access.
    """

    labels: tuple[str, ...]
    rows: np.ndarray
    m: np.ndarray
    q: np.ndarray
    group_q: np.ndarray
    defined: np.ndarray
    group_d: np.ndarray
    tracked_groups: tuple[int, ...]
    trends: dict[str, TrendFit]

    def __post_init__(self):
        if len(set(self.tracked_groups)) < len(self.tracked_groups):
            raise ValueError(f"tracked groups repeat: {list(self.tracked_groups)}")
        for a in self._columns():
            a.setflags(write=False)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.rows, self.m, self.q, self.group_q, self.defined, self.group_d

    def __eq__(self, other) -> bool:
        """Equal labels, groups and trends, and equal columns value for value."""
        if not isinstance(other, PolarizationReport):
            return NotImplemented
        return (
            (self.labels, self.k, self.tracked_groups, self.trends)
            == (other.labels, other.k, other.tracked_groups, other.trends)
            and all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns()))
        )

    @property
    def k(self) -> int:
        return self.group_q.shape[1]

    @functools.cached_property
    def windows(self) -> tuple[WindowStats, ...]:
        tracked = self.tracked_groups
        m, q, group_q = self.m.tolist(), self.q.tolist(), self.group_q.tolist()
        defined, group_d = self.defined.tolist(), self.group_d.tolist()
        stats = []
        for label, row in zip(self.labels, self.rows.tolist()):
            if row < 0:
                stats.append(WindowStats(label, 0, None, None, dict.fromkeys(tracked)))
            else:
                shares = dict(zip(tracked, group_d[row])) if defined[row] else dict.fromkeys(tracked)
                stats.append(WindowStats(label, m[row], q[row], tuple(group_q[row]), shares))
        return tuple(stats)


def window_series(
    edges: TemporalEdgeSet,
    p: Partition,
    windows: WindowGrid,
    tracked_groups: Sequence[int] = (),
) -> PolarizationReport:
    """Per-window Q, Q_i, and tracked d_i over a grid's windows, plus least-squares trends.

    Each row is computed from the arcs inside its own window; arcs outside
    the grid count in none. Windows with no arcs get no row (their
    ``windows[j]`` reads as None values) and are excluded from trend fits;
    a tracked d_i is undefined wherever |Q| <= ``DEFAULT_D_TOLERANCE``.
    Trend x coordinates are window ordinals, so slopes are per window. A
    group tracked more than once is tracked at its first place.

    Arcs are put in time order once: by an argsort, skipped when the stamps
    are already nondecreasing, as in a log-like file. A window's edges are
    the *set* of distinct unordered pairs in its slice, so the order of arcs
    with equal timestamps cannot matter and the sort need not be stable.
    Pairs are int32 keys ``min·n + max`` when they fit (see
    ``graph._pair_keys``). One ``searchsorted`` of the grid's boundaries
    finds every window's slice, each right after the one before. A window's
    own work is one in-place sort of its slice's keys; the dedup, group
    lookups, e_i and D_i (bincounts over row·k + group), every Q_i and q as
    the row sums of a rows×k array are whole-array passes over the grid's
    arcs, written straight into the report's columns. With A arcs, W
    windows, F of them holding arcs, and k groups, that is O(A log A) plus
    the slice sorts and O(W + F·k), with no object built per window.
    """
    p.check_cover(edges.n_vertices)
    tracked = tuple(dict.fromkeys(p.check_group(i) for i in tracked_groups))

    n, k = edges.n_vertices, p.k
    s, t, times = edges.sources, edges.targets, edges.timestamps
    # of the keys of (s, t) and (t, s), the smaller one is min(s, t)·n + max(s, t)
    keys = _pair_keys(n, s, t)
    np.minimum(keys, _pair_keys(n, t, s), out=keys)
    if len(times) > 1 and (times[1:] < times[:-1]).any():
        order = np.argsort(times)
        times, keys = times[order], keys[order]
    # boundary j is first + j·length. Those outside int64, which a grid of
    # few long windows reaches, lie before or past every stamp: the ones
    # below j = low (0 unless first < -2**63) and the ones past 2**63 - 1
    first, length = windows.first, windows.length
    low = max(0, -((first + 2**63) // length))
    held = range(first + low * length, min(first + (len(windows) + 1) * length, 2**63), length)
    bounds = np.full(len(windows) + 1, len(times))
    bounds[:low] = 0
    bounds[low : low + len(held)] = np.searchsorted(times, np.fromiter(held, dtype=np.int64, count=len(held)))
    filled = np.flatnonzero(np.diff(bounds))  # the windows that get a row
    begins = bounds[filled]
    for b, c in zip(begins.tolist(), bounds[filled + 1].tolist()):
        keys[b:c].sort()
    inside = keys[bounds[0]:bounds[-1]]
    begins -= bounds[0]
    # a pair is new where its key differs from the previous one or where
    # its window's slice begins
    new = np.ones(len(inside), dtype=bool)
    np.not_equal(inside[1:], inside[:-1], out=new[1:])
    new[begins] = True
    m = np.add.reduceat(new, begins, dtype=np.int64)
    # split the pairs in the keys' dtype: numpy gathers by int32 as fast
    pairs = inside[new]
    u = pairs // n
    rows = len(filled)
    row = np.repeat(np.arange(0, rows * k, k, dtype=np.int64), m)
    cu = p.assignment[u]
    cu += row
    u *= n
    pairs -= u
    cv = p.assignment[pairs]
    cv += row
    group_q = _contributions(cu, cv, m, k)
    qs = group_q.sum(axis=1)
    defined = np.abs(qs) > DEFAULT_D_TOLERANCE
    shares = np.divide(group_q[:, list(tracked)], qs[:, None], where=defined[:, None],
                       out=np.zeros((rows, len(tracked))))

    trends: dict[str, TrendFit] = {}
    every = np.ones(rows, dtype=bool)

    def fit(name: str, taken: np.ndarray, ys: np.ndarray) -> None:
        if taken.sum() >= 2:
            trends[name] = _ols_fit(filled[taken].astype(np.float64), ys[taken])

    fit("q", every, qs)
    for j, i in enumerate(tracked):
        fit(f"group_q_{i}", every, group_q[:, i])
        fit(f"group_d_{i}", defined, shares[:, j])

    row_of = np.full(len(windows), -1, dtype=np.int64)
    row_of[filled] = np.arange(rows)
    return PolarizationReport(
        labels=windows.labels, rows=row_of, m=m, q=qs, group_q=group_q,
        defined=defined, group_d=shares, tracked_groups=tracked, trends=trends,
    )


def write_report_csv(report: PolarizationReport, stream: TextIO) -> None:
    """One row per window, rendered from the report's columns. With tracked
    groups the Q_i and d_i columns are restricted to those groups;
    otherwise every group's Q_i is emitted and the d_i columns are omitted.
    Values are written with six decimals; None values as empty fields."""
    tracked = list(report.tracked_groups)
    q_cols = tracked or list(range(report.k))
    header = ["label", "m", "q"]
    header += [f"q_{i}" for i in q_cols]
    header += [f"d_{i}" for i in tracked]
    # one template per row shape: shares defined, shares undefined, no arcs
    numbers = 1 + len(q_cols)
    full = "%s,%d" + ",%.6f" * (numbers + len(tracked)) + "\n"
    no_d = "%s,%d" + ",%.6f" * numbers + "," * len(tracked) + "\n"
    empty = "%s,0" + "," * (numbers + len(tracked)) + "\n"
    values = np.column_stack([report.q, report.group_q[:, q_cols], report.group_d]).tolist()
    m, defined = report.m.tolist(), report.defined.tolist()
    lines = [",".join(header) + "\n"]
    for label, row in zip(report.labels, report.rows.tolist()):
        if row < 0:
            lines.append(empty % label)
        elif defined[row]:
            lines.append(full % (label, m[row], *values[row]))
        else:
            lines.append(no_d % (label, m[row], *values[row][:numbers]))
    stream.write("".join(lines))


# json spells the non-finite floats that float.__repr__ writes as nan and inf
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_ITEM = ",\n        "


def _json_numbers(values: np.ndarray) -> list[str]:
    """``float.__repr__`` of every value, as json spells it: one ``repr``
    of the whole list renders them all."""
    if values.size == 0:
        return []
    text = repr(values.ravel().tolist())[1:-1].split(", ")
    if not np.isfinite(values).all():
        text = [_JSON_FLOAT.get(x, x) for x in text]
    return text


def _json_window(keys: Sequence[int], group_d: Sequence[str], group_q: Sequence[str] | None,
                 label: str, m: str, q: str) -> str:
    """One object of the ``windows`` array, from its rendered values."""
    items = _JSON_ITEM.join([f'"{i}": {x}' for i, x in zip(keys, group_d)])
    d_text = f"{{\n        {items}\n      }}" if keys else "{}"
    if group_q is None:
        q_text = "null"
    else:
        q_text = f"[\n        {_JSON_ITEM.join(group_q)}\n      ]" if group_q else "[]"
    return (f'    {{\n      "group_d": {d_text},\n      "group_q": {q_text},'
            f'\n      "label": {label},\n      "m": {m},\n      "q": {q}\n    }}')


def _json_windows(report: PolarizationReport) -> str:
    """The ``windows`` array as ``json.dumps(..., indent=2, sort_keys=True)``
    writes it one level down, from its opening bracket to its closing one.

    Rows with arcs fill one ``%`` template, empty rows another. Their
    numbers are rendered in bulk, one ``repr`` for all, and rows whose
    shares are undefined get ``null`` in their share slots."""
    # group_d keys are the tracked groups, in the order json sorts them
    tracked = report.tracked_groups
    keys = sorted(tracked, key=str)
    nd, k = len(keys), report.k
    empty = _json_window(keys, ["null"] * nd, None, "%s", "0", "null")
    filled = _json_window(keys, ["%s"] * nd, ["%s"] * k, "%s", "%s", "%s")
    width = nd + k + 1
    text = _json_numbers(np.column_stack([report.group_d[:, [tracked.index(i) for i in keys]],
                                          report.group_q, report.q]))
    for row in np.flatnonzero(~report.defined).tolist():
        text[row * width:row * width + nd] = ["null"] * nd
    m = report.m.tolist()
    items = []
    for label, row in zip(report.labels, report.rows.tolist()):
        label = encode_basestring_ascii(label)
        if row < 0:
            items.append(empty % label)
        else:
            b = row * width
            items.append(filled % (*text[b:b + width - 1], label, m[row], text[b + width - 1]))
    return ("[\n" + ",\n".join(items) + "\n  ]") if items else "[]"


def write_report_json(report: PolarizationReport, stream: TextIO, config: dict | None = None) -> None:
    """Write the report, with ``config`` under ``"config"`` when given, as
    one JSON object in a single write.

    The bytes are exactly ``json.dumps(payload, indent=2, sort_keys=True)``
    plus a newline, where ``payload`` holds ``k``, ``tracked_groups``,
    ``windows`` (one object per window with ``label``, ``m``, ``q``,
    ``group_q`` and ``group_d`` keyed by the group index as a string) and
    ``trends`` (``slope`` and ``intercept`` by name). The windows array,
    most of the report, is rendered from the columns directly:
    ``json.dumps`` with an indent runs the pure-Python encoder, which took
    about 2.5 times as long over a report of 1440 windows.
    """
    payload = {
        "k": report.k,
        "tracked_groups": list(report.tracked_groups),
        "windows": [],
        "trends": {
            name: {"slope": t.slope, "intercept": t.intercept}
            for name, t in report.trends.items()
        },
    }
    if config is not None:
        payload["config"] = config
    text = json.dumps(payload, indent=2, sort_keys=True)
    if report.labels:
        # top-level keys alone sit two spaces in, and no JSON string holds a
        # raw line break, so this text is the placeholder's and nothing else's
        head, _, tail = text.partition('\n  "windows": []')
        text = f'{head}\n  "windows": {_json_windows(report)}{tail}'
    stream.write(text + "\n")
