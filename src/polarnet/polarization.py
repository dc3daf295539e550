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
from typing import Iterable, Sequence, TextIO

import numpy as np

from .community import Partition
from .errors import DegenerateModularityError, UndefinedModularityError
from .graph import TemporalEdgeSet, TimeWindow, UndirectedView, _distinct_keys

DEFAULT_D_TOLERANCE = 1e-12


def _check_cover(g: UndirectedView, p: Partition) -> None:
    if p.n != g.n:
        raise ValueError(f"partition covers {p.n} vertices, graph has {g.n}")


def _contributions(gu: np.ndarray, gv: np.ndarray, k: int, m: float) -> np.ndarray:
    """Q_i from the group ids (gu[j], gv[j]) of the endpoints of each of m edges."""
    e = np.bincount(gu[gu == gv], minlength=k)
    d = np.bincount(gu, minlength=k) + np.bincount(gv, minlength=k)
    return e / m - (d / (2.0 * m)) ** 2


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
    return _contributions(p.assignment[pairs[:, 0]], p.assignment[pairs[:, 1]], p.k, float(g.m))


def d_modularity(
    g: UndirectedView, p: Partition, i: int, tolerance: float = DEFAULT_D_TOLERANCE
) -> float:
    """Share d_i = Q_i/Q of group i in the overall modularity.

    Raises DegenerateModularityError when |Q| <= tolerance, where the ratio
    would be noise rather than a signal.
    """
    if not (0 <= i < p.k):
        raise ValueError(f"group index {i} out of range (k={p.k})")
    contributions = group_contributions(g, p)
    q = float(contributions.sum())
    if abs(q) <= tolerance:
        raise DegenerateModularityError(
            f"total modularity {q:.3e} is within tolerance {tolerance:.1e} of zero"
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
    d_tolerance: float = DEFAULT_D_TOLERANCE,
) -> PolarizationReport:
    """Per-window Q, Q_i, and tracked d_i, plus least-squares trends.

    Windows may come in any order and may overlap or lie outside the arcs'
    time span; each row is computed from the arcs inside its own window.
    Windows with no arcs produce a row of None values and are excluded from
    trend fits; a tracked d_i is None wherever |Q| falls inside d_tolerance.
    Trend x coordinates are window ordinals (0, 1, ...), so slopes read as
    change per window.

    Arcs are sorted by time once; each window's edges are the distinct
    unordered pairs in its slice, so A arcs cost O(A log A) plus the sort of
    each slice, with no graph built per window.
    """
    if p.n != edges.n_vertices:
        raise ValueError(f"partition covers {p.n} vertices, edge set has {edges.n_vertices}")
    tracked = tuple(int(i) for i in tracked_groups)
    for i in tracked:
        if not (0 <= i < p.k):
            raise ValueError(f"group index {i} out of range (k={p.k})")

    n = np.int64(edges.n_vertices)
    order = np.argsort(edges.timestamps, kind="stable")
    times = edges.timestamps[order]
    s, t = edges.sources[order], edges.targets[order]
    keys = np.minimum(s, t) * n + np.maximum(s, t)
    begins = np.searchsorted(times, [w.start for w in windows])
    ends = np.searchsorted(times, [w.end for w in windows])
    a = p.assignment

    stats: list[WindowStats] = []
    for w, begin, end in zip(windows, begins, ends):
        pairs = _distinct_keys(keys[begin:end])
        if len(pairs) == 0:
            stats.append(
                WindowStats(label=w.label, m=0, q=None, group_q=None,
                            group_d={i: None for i in tracked})
            )
            continue
        contributions = _contributions(a[pairs // n], a[pairs % n], p.k, float(len(pairs)))
        q = float(contributions.sum())
        group_d: dict[int, float | None] = {}
        for i in tracked:
            group_d[i] = None if abs(q) <= d_tolerance else float(contributions[i]) / q
        stats.append(
            WindowStats(
                label=w.label,
                m=len(pairs),
                q=q,
                group_q=tuple(float(x) for x in contributions),
                group_d=group_d,
            )
        )

    trends: dict[str, TrendFit] = {}

    def fit(name: str, pts: list[tuple[float, float]]) -> None:
        if len(pts) >= 2:
            trends[name] = linear_trend(pts)

    fit("q", [(t, s.q) for t, s in enumerate(stats) if s.q is not None])
    for i in tracked:
        fit(f"group_q_{i}", [(t, s.group_q[i]) for t, s in enumerate(stats) if s.group_q is not None])
        fit(
            f"group_d_{i}",
            [(t, s.group_d[i]) for t, s in enumerate(stats) if s.group_d.get(i) is not None],
        )

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


def report_to_dict(report: PolarizationReport) -> dict:
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


def write_report_json(report: PolarizationReport, stream: TextIO, extra: dict | None = None) -> None:
    payload = report_to_dict(report)
    if extra:
        payload.update(extra)
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")
