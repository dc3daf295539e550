"""Modularity arithmetic, the group decomposition, windows, and trends."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from polarnet.community import Partition
from polarnet.errors import DegenerateModularityError, UndefinedModularityError
from polarnet.graph import (
    TemporalEdgeSet,
    TimeWindow,
    slice_windows,
    underlying_undirected,
    undirected_from_edges,
)
from polarnet.polarization import (
    d_modularity,
    group_contributions,
    linear_trend,
    modularity,
    window_series,
    write_report_csv,
    write_report_json,
)
from polarnet.synth import figure2_instance

TWO_TRIANGLES = undirected_from_edges(
    6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
)
COMPONENTS = Partition.from_assignment([0, 0, 0, 1, 1, 1])


def test_two_triangles_modularity_half():
    # hand arithmetic: per group e_i/m = 3/6 and (D_i/2m)^2 = (6/12)^2
    assert modularity(TWO_TRIANGLES, COMPONENTS) == pytest.approx(0.5, abs=1e-12)
    assert oracles.modularity_double_sum(TWO_TRIANGLES, COMPONENTS.assignment) == pytest.approx(
        0.5, abs=1e-12
    )


def test_single_group_partition_has_zero_modularity():
    part = Partition.from_assignment([0] * 6)
    assert modularity(TWO_TRIANGLES, part) == pytest.approx(0.0, abs=1e-12)


def test_figure2_reference_values():
    und, part = figure2_instance()
    assert modularity(und, part) == pytest.approx(0.402, abs=0.001)
    assert group_contributions(und, part)[0] == pytest.approx(0.180, abs=0.001)
    assert group_contributions(und, part)[1] == pytest.approx(0.111, abs=0.001)
    assert group_contributions(und, part)[2] == pytest.approx(0.111, abs=0.001)
    assert d_modularity(und, part, 0) == pytest.approx(0.448, abs=0.002)
    assert d_modularity(und, part, 1) == pytest.approx(0.276, abs=0.002)
    assert d_modularity(und, part, 2) == pytest.approx(0.276, abs=0.002)


def test_figure2_aggregate_form_exact_arithmetic():
    und, part = figure2_instance()
    assert und.m == 19
    d_black = int(und.degrees[part.members(0)].sum())
    assert d_black == 14
    expected = 6 / 19 - (14 / 38) ** 2
    assert group_contributions(und, part)[0] == pytest.approx(expected, abs=1e-12)


def test_zero_degree_group_contributes_nothing():
    und = undirected_from_edges(5, [(0, 1), (1, 2), (0, 2)])
    part = Partition.from_assignment([0, 0, 0, 1, 1])
    assert group_contributions(und, part)[1] == pytest.approx(0.0, abs=1e-15)


def test_modularity_requires_edges():
    with pytest.raises(UndefinedModularityError):
        modularity(undirected_from_edges(3, []), Partition.from_assignment([0, 0, 1]))


def test_modularity_rejects_vertex_mismatch():
    with pytest.raises(ValueError):
        modularity(TWO_TRIANGLES, Partition.from_assignment([0, 0, 1]))


def test_d_modularity_degenerate_when_q_is_zero():
    part = Partition.from_assignment([0] * 6)
    with pytest.raises(DegenerateModularityError):
        d_modularity(TWO_TRIANGLES, part, 0)


def test_decomposition_identity_on_random_pairs():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        g = oracles.random_digraph(n, 0.1, rng)
        und = underlying_undirected(g)
        if und.m == 0:
            continue
        part = Partition.from_assignment(oracles.random_grouping(n, int(rng.integers(2, 6)), rng))
        contributions = group_contributions(und, part)
        assert abs(contributions.sum() - modularity(und, part)) <= 1e-9


def test_aggregate_form_matches_double_sum_oracle():
    rng = np.random.default_rng(55)
    for _ in range(25):
        n = int(rng.integers(4, 40))
        g = oracles.random_digraph(n, 0.15, rng)
        und = underlying_undirected(g)
        if und.m == 0:
            continue
        assignment = oracles.random_grouping(n, int(rng.integers(2, 5)), rng)
        part = Partition.from_assignment(assignment)
        assert modularity(und, part) == pytest.approx(
            oracles.modularity_double_sum(und, assignment), abs=1e-12
        )
        for i in range(part.k):
            assert group_contributions(und, part)[i] == pytest.approx(
                oracles.group_double_sum(und, assignment, i), abs=1e-12
            )


def test_group_permutation_invariance():
    rng = np.random.default_rng(77)
    g = oracles.random_digraph(40, 0.1, rng)
    und = underlying_undirected(g)
    assignment = oracles.random_grouping(40, 4, rng)
    part = Partition.from_assignment(assignment)
    perm = rng.permutation(4)
    permuted = Partition.from_assignment(perm[assignment])
    q_a = group_contributions(und, part)
    q_b = group_contributions(und, permuted)
    assert modularity(und, part) == pytest.approx(modularity(und, permuted), abs=1e-12)
    for i in range(4):
        assert q_b[perm[i]] == pytest.approx(q_a[i], abs=1e-12)


def test_all_cross_group_edges_give_negative_contributions():
    # complete bipartite between the two groups: heterophily regime
    und = undirected_from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    part = Partition.from_assignment([0, 0, 0, 1, 1, 1])
    contributions = group_contributions(und, part)
    assert np.all(contributions < 0)


def test_modularity_stays_in_range():
    rng = np.random.default_rng(19)
    for _ in range(30):
        n = int(rng.integers(4, 50))
        g = oracles.random_digraph(n, 0.2, rng)
        und = underlying_undirected(g)
        if und.m == 0:
            continue
        part = Partition.from_assignment(oracles.random_grouping(n, int(rng.integers(1, 5)), rng))
        q = modularity(und, part)
        assert -0.5 <= q <= 1.0


def test_linear_trend_exact_fit():
    fit = linear_trend([(0, 1), (1, 3)])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)


def test_linear_trend_constant_series():
    fit = linear_trend([(0, 2.5), (1, 2.5), (2, 2.5)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_linear_trend_matches_lstsq_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        pts = [(float(x), float(rng.normal())) for x in range(int(rng.integers(3, 30)))]
        fit = linear_trend(pts)
        slope, intercept = oracles.ols_fit(pts)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)


def test_linear_trend_recovers_noisy_slope():
    rng = np.random.default_rng(12)
    pts = [(t, 0.5 - 0.01 * t + float(rng.uniform(-0.001, 0.001))) for t in range(44)]
    fit = linear_trend(pts)
    assert fit.slope == pytest.approx(-0.01, abs=0.001)


def test_linear_trend_needs_two_distinct_x():
    with pytest.raises(ValueError):
        linear_trend([(0, 1)])
    with pytest.raises(ValueError):
        linear_trend([(1, 1), (1, 2)])


def _five_day_edge_set():
    """Two 6-cliques; day t adds t extra cross arcs, so Q decreases daily."""
    arcs = []
    for day in range(5):
        base = day * 86400
        for u in range(6):
            for v in range(u + 1, 6):
                arcs.append((f"a{u}", f"a{v}", base))
                arcs.append((f"b{u}", f"b{v}", base + 1))
        for j in range(day):
            arcs.append((f"a{j}", f"b{j}", base + 2))
    return TemporalEdgeSet.from_arcs(arcs)


def test_window_series_single_window_matches_global_call():
    und, part = figure2_instance()
    arcs = [(f"v{u}", f"v{v}", 10) for u, v in und.edge_pairs().tolist()]
    edges = TemporalEdgeSet.from_arcs(arcs)
    # labels arrive in first-seen order, so remap the partition to match
    remap = [int(lbl[1:]) for lbl in edges.labels]
    part_aligned = Partition.from_assignment(part.assignment[remap])
    windows = slice_windows(edges, 86400)
    report = window_series(edges, part_aligned, windows, tracked_groups=[0, 1, 2])
    assert len(report.windows) == 1
    row = report.windows[0]
    assert row.q == pytest.approx(0.402, abs=0.001)
    assert sum(row.group_q) == pytest.approx(row.q, abs=1e-9)


def test_window_series_decreasing_q_and_negative_trend():
    edges = _five_day_edge_set()
    part = Partition.from_assignment(
        [0 if lbl.startswith("a") else 1 for lbl in edges.labels]
    )
    windows = slice_windows(edges, 86400)
    report = window_series(edges, part, windows, tracked_groups=[0])
    qs = [w.q for w in report.windows]
    assert len(qs) == 5
    assert all(b < a for a, b in zip(qs, qs[1:]))
    assert report.trends["q"].slope < 0


def test_window_series_decomposition_holds_per_window():
    edges = _five_day_edge_set()
    part = Partition.from_assignment(
        [0 if lbl.startswith("a") else 1 for lbl in edges.labels]
    )
    report = window_series(edges, part, slice_windows(edges, 86400))
    for w in report.windows:
        assert abs(sum(w.group_q) - w.q) <= 1e-9


def test_window_series_empty_window_reported_not_fitted():
    arcs = [("a", "b", 0), ("b", "c", 0), ("a", "c", 1), ("a", "b", 3 * 86400)]
    edges = TemporalEdgeSet.from_arcs(arcs)
    part = Partition.from_assignment([0, 0, 1])
    report = window_series(edges, part, slice_windows(edges, 86400), tracked_groups=[0])
    assert len(report.windows) == 4
    assert report.windows[1].q is None
    assert report.windows[1].m == 0
    assert report.windows[1].group_d[0] is None
    fitted_points = [w for w in report.windows if w.q is not None]
    assert len(fitted_points) == 2


def test_report_csv_tracked_columns():
    edges = _five_day_edge_set()
    part = Partition.from_assignment(
        [0 if lbl.startswith("a") else 1 for lbl in edges.labels]
    )
    report = window_series(edges, part, slice_windows(edges, 86400), tracked_groups=[1])
    buf = io.StringIO()
    write_report_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "label,m,q,q_1,d_1"
    assert len(lines) == 6


def test_report_csv_default_emits_all_groups_no_d():
    edges = _five_day_edge_set()
    part = Partition.from_assignment(
        [0 if lbl.startswith("a") else 1 for lbl in edges.labels]
    )
    report = window_series(edges, part, slice_windows(edges, 86400))
    buf = io.StringIO()
    write_report_csv(report, buf)
    assert buf.getvalue().splitlines()[0] == "label,m,q,q_0,q_1"


def test_report_json_shape():
    edges = _five_day_edge_set()
    part = Partition.from_assignment(
        [0 if lbl.startswith("a") else 1 for lbl in edges.labels]
    )
    report = window_series(edges, part, slice_windows(edges, 86400), tracked_groups=[0])
    buf = io.StringIO()
    write_report_json(report, buf, extra={"config": {"seed": 0}})
    doc = json.loads(buf.getvalue())
    assert doc["k"] == 2
    assert doc["tracked_groups"] == [0]
    assert len(doc["windows"]) == 5
    assert "q" in doc["trends"]
    assert doc["config"] == {"seed": 0}


@st.composite
def windowed_inputs(draw):
    """Unsorted timed arcs with duplicates and reciprocals, a grouping, and
    windows that may be empty, overlap, come out of order or miss the arcs."""
    n = draw(st.integers(2, 12))
    vertex = st.integers(0, n - 1)
    stamp = st.integers(0, 40)
    base = draw(
        st.lists(st.tuples(vertex, vertex, stamp).filter(lambda a: a[0] != a[1]), max_size=40)
    )
    if base:
        again = draw(st.lists(st.tuples(st.sampled_from(base), st.booleans(), stamp), max_size=20))
        base += [((v, u) if flip else (u, v)) + (t,) for (u, v, _), flip, t in again]
    arcs = draw(st.permutations(base))
    k = draw(st.integers(1, n))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    assignment = draw(st.permutations(list(range(k)) + extra))
    spans = draw(st.lists(st.tuples(st.integers(-10, 60), st.integers(1, 25)), max_size=8))
    return n, arcs, assignment, [TimeWindow(s, s + w, label=str(j)) for j, (s, w) in enumerate(spans)]


@given(windowed_inputs())
def test_window_series_matches_per_window_pair_oracle(inputs):
    n, arcs, assignment, windows = inputs
    edges = TemporalEdgeSet(
        sources=np.asarray([a[0] for a in arcs], dtype=np.int64),
        targets=np.asarray([a[1] for a in arcs], dtype=np.int64),
        timestamps=np.asarray([a[2] for a in arcs], dtype=np.int64),
        labels=tuple(str(v) for v in range(n)),
        label_ids={str(v): v for v in range(n)},
    )
    part = Partition.from_assignment(assignment)
    report = window_series(edges, part, windows, tracked_groups=range(part.k))
    assert [row.label for row in report.windows] == [w.label for w in windows]
    for w, row in zip(windows, report.windows):
        m, _, _, contributions = oracles.window_reference(arcs, assignment, part.k, w.start, w.end)
        assert row.m == m
        if m == 0:
            assert row.q is None and row.group_q is None
            assert all(d is None for d in row.group_d.values())
            continue
        assert row.q == pytest.approx(sum(contributions), abs=1e-12)
        assert row.group_q == pytest.approx(contributions, abs=1e-12)
        assert sum(row.group_q) == pytest.approx(row.q, abs=1e-12)
