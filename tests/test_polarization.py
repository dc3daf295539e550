"""Modularity arithmetic, the group decomposition, windows, and trends."""

from __future__ import annotations

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from polarnet.community import Partition
from polarnet.domination import group_spreaders
from polarnet.errors import DegenerateModularityError, UndefinedModularityError
from polarnet.graph import (
    TemporalEdgeSet,
    TimeWindow,
    directed_from_arcs,
    slice_windows,
    underlying_undirected,
    undirected_from_edges,
)
from polarnet.polarization import (
    PolarizationReport,
    TrendFit,
    WindowStats,
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


@pytest.mark.parametrize("call", [
    lambda: COMPONENTS.members(2),
    lambda: d_modularity(TWO_TRIANGLES, COMPONENTS, 2),
    lambda: window_series(
        TemporalEdgeSet.from_arcs([(str(v), str(v + 1), 0) for v in range(5)]),
        COMPONENTS, [TimeWindow(0, 1)], tracked_groups=[2],
    ),
], ids=["members", "d_modularity", "window_series"])
def test_group_index_k_is_out_of_range_everywhere(call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == "group index 2 out of range (k=2)"


@pytest.mark.parametrize("call", [
    lambda: modularity(TWO_TRIANGLES, Partition.from_assignment([0, 0, 1])),
    lambda: window_series(
        TemporalEdgeSet.from_arcs([(str(v), str(v + 1), 0) for v in range(5)]),
        Partition.from_assignment([0, 0, 1]), [TimeWindow(0, 1)],
    ),
    lambda: group_spreaders(directed_from_arcs(6, [(0, 1)]), Partition.from_assignment([0, 0, 1]), 0),
], ids=["modularity", "window_series", "group_spreaders"])
def test_a_partition_that_does_not_cover_the_graph_is_refused_everywhere(call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == "partition covers 3 vertices, graph has 6"


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


@st.composite
def graphs_with_isolated_vertices(draw):
    """(n, edges, assignment): edges may repeat either way round, vertices
    may have none, and every group index in [0, k) is used."""
    n = draw(st.integers(2, 40))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), min_size=1, max_size=60))
    k = draw(st.integers(1, n))
    rest = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    return n, edges, draw(st.permutations(list(range(k)) + rest))


@settings(max_examples=200)
@given(graphs_with_isolated_vertices())
def test_modularity_and_group_sum_match_networkx(graph):
    # networkx computes Q on its own graph type, independent of this code
    nx = pytest.importorskip("networkx")
    n, edges, assignment = graph
    und = undirected_from_edges(n, edges)
    part = Partition.from_assignment(assignment)
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(edges)
    want = nx.community.modularity(reference, [set(part.members(i).tolist()) for i in range(part.k)])
    assert abs(modularity(und, part) - want) <= 1e-12
    assert abs(float(group_contributions(und, part).sum()) - want) <= 1e-12


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
    # ids are the sorted labels (v0, v1, v10, v11, v2, ...), so remap the partition to match
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
    """Unsorted timed arcs with duplicates and reciprocals, a grouping,
    windows that may be empty, overlap, come out of order or miss the arcs,
    and an ordered subset of groups to track.

    Stamps and windows are sometimes scaled by 2^56, so times near the int64
    limit are covered too."""
    n = draw(st.integers(2, 12))
    vertex = st.integers(0, n - 1)
    stamp = st.integers(0, 40)
    scale = draw(st.sampled_from([1, 1 << 56]))
    base = draw(
        st.lists(st.tuples(vertex, vertex, stamp).filter(lambda a: a[0] != a[1]), max_size=40)
    )
    if base:
        again = draw(st.lists(st.tuples(st.sampled_from(base), st.booleans(), stamp), max_size=20))
        base += [((v, u) if flip else (u, v)) + (t,) for (u, v, _), flip, t in again]
    arcs = [(u, v, t * scale) for u, v, t in draw(st.permutations(base))]
    k = draw(st.integers(1, n))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    assignment = draw(st.permutations(list(range(k)) + extra))
    spans = draw(st.lists(st.tuples(st.integers(-10, 60), st.integers(1, 25)), max_size=8))
    windows = [TimeWindow(s * scale, (s + w) * scale, label=str(j)) for j, (s, w) in enumerate(spans)]
    tracked = draw(st.lists(st.integers(0, k - 1), unique=True))
    return n, arcs, assignment, windows, tracked


def _edge_set(n, arcs):
    return TemporalEdgeSet(
        sources=np.asarray([a[0] for a in arcs], dtype=np.int64),
        targets=np.asarray([a[1] for a in arcs], dtype=np.int64),
        timestamps=np.asarray([a[2] for a in arcs], dtype=np.int64),
        labels=tuple(str(v) for v in range(n)),
    )


@given(windowed_inputs())
def test_window_series_matches_per_window_pair_oracle(inputs):
    n, arcs, assignment, windows, _ = inputs
    edges = _edge_set(n, arcs)
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


@given(windowed_inputs())
def test_window_series_equals_per_window_reference(inputs):
    # dataclass equality: every float, None row, share and trend bit for bit
    n, arcs, assignment, windows, tracked = inputs
    edges = _edge_set(n, arcs)
    part = Partition.from_assignment(assignment)
    report = window_series(edges, part, windows, tracked_groups=tracked)
    assert report == oracles.window_series_reference(edges, part, windows, tracked_groups=tracked)


@given(windowed_inputs())
@example((3, [(0, 1, 5)], [0, 1, 1], [TimeWindow(0, 10, "0"), TimeWindow(5, 6, "1"), TimeWindow(0, 3, "2")], [1]))
def test_time_ordered_arcs_give_the_report_of_shuffled_ones(inputs):
    # stamps already in order skip the time sort; ties, overlapping and
    # out-of-order windows must not notice
    n, arcs, assignment, windows, tracked = inputs
    part = Partition.from_assignment(assignment)
    in_order = _edge_set(n, sorted(arcs, key=lambda arc: arc[2]))
    report = window_series(in_order, part, windows, tracked_groups=tracked)
    assert report == window_series(_edge_set(n, arcs), part, windows, tracked_groups=tracked)
    assert report == oracles.window_series_reference(in_order, part, windows, tracked_groups=tracked)


@pytest.mark.parametrize("n", [46340, 46341])
def test_window_series_equals_reference_on_either_side_of_int32_keys(n):
    # keys are int32 up to n = 46,340 and int64 above; pairs at n − 1 make
    # the largest keys
    rng = np.random.default_rng(n)
    top = n - 1
    pairs = np.vstack([rng.integers(0, n, size=(300, 2)), [(top, top - 1), (top - 1, top), (0, top), (top, 0)]])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    stamps = rng.integers(0, 50, len(pairs))
    edges = _edge_set(n, [(int(u), int(v), int(t)) for (u, v), t in zip(pairs, stamps)])
    part = Partition.from_assignment(rng.permutation(np.arange(n) % 4))
    windows = slice_windows(edges, 10) + [TimeWindow(5, 35, label="overlap")]
    report = window_series(edges, part, windows, tracked_groups=[3, 0])
    assert report == oracles.window_series_reference(edges, part, windows, tracked_groups=[3, 0])


def test_window_series_equals_reference_with_many_groups():
    # 200 groups: numpy's pairwise summation splits a row of more than 128
    # values, and q, a row sum of the all-window array, must still equal the
    # sum of that window's own array
    rng = np.random.default_rng(41)
    n, k = 600, 200
    pairs = rng.integers(0, n, size=(20000, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    arcs = [(int(u), int(v), int(t)) for (u, v), t in zip(pairs, rng.integers(0, 6 * 3600, len(pairs)))]
    edges = _edge_set(n, arcs)
    part = Partition.from_assignment(rng.permutation(np.arange(n) % k))
    windows = slice_windows(edges, 3600) + [TimeWindow(1800, 9000, label="overlap")]
    tracked = [0, 199, 57]
    report = window_series(edges, part, windows, tracked_groups=tracked)
    assert [row.m > 0 for row in report.windows] == [True] * 7
    assert report == oracles.window_series_reference(edges, part, windows, tracked_groups=tracked)


def test_window_series_sparse_windows_cost_only_their_rows():
    # 10,000 one-minute windows, 3 of them holding arcs, and 150 groups: the
    # rows and their temporaries exist for the 3 windows only, so memory
    # does not grow with windows × groups (1.5M cells here)
    rng = np.random.default_rng(5)
    n, k = 450, 150
    pairs = rng.integers(0, n, size=(3000, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    stamps = rng.choice([60 * 7, 60 * 4000, 60 * 9999], len(pairs)) + rng.integers(0, 60, len(pairs))
    edges = _edge_set(n, [(int(u), int(v), int(t)) for (u, v), t in zip(pairs, stamps)])
    part = Partition.from_assignment(rng.permutation(np.arange(n) % k))
    windows = [TimeWindow(60 * j, 60 * (j + 1), label=str(j)) for j in range(10000)]
    tracemalloc.start()
    try:
        report = window_series(edges, part, windows, tracked_groups=[0, 149])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [j for j, row in enumerate(report.windows) if row.m > 0] == [7, 4000, 9999]
    assert peak < 16 * 2**20
    assert report == oracles.window_series_reference(edges, part, windows, tracked_groups=[0, 149])


_floats = st.floats(allow_nan=True, allow_infinity=True)
_labels = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.sampled_from(['"quoted"', "back\\slash", "\x00\x1f\n\t", "é€😀", "nan", "-inf", "info"]),
)


def _column_report(labels, rows, m, q, group_q, defined, group_d, k, tracked, trends=None):
    """A report from plain per-window and per-row lists."""
    count = len(m)
    return PolarizationReport(
        labels=tuple(labels), rows=np.asarray(rows, dtype=np.int64), m=np.asarray(m, dtype=np.int64),
        q=np.asarray(q, dtype=np.float64), group_q=np.asarray(group_q, dtype=np.float64).reshape(count, k),
        defined=np.asarray(defined, dtype=bool),
        group_d=np.asarray(group_d, dtype=np.float64).reshape(count, len(tracked)),
        k=k, tracked_groups=tuple(tracked), trends=trends or {},
    )


@st.composite
def reports(draw):
    """Random column-shaped reports: no windows or many, empty rows, rows
    whose shares are undefined, up to 16 groups and up to 13 tracked ones,
    repeats allowed, non-finite and signed-zero floats, any labels."""
    k = draw(st.integers(0, 16))
    tracked = draw(st.lists(st.integers(0, k - 1), max_size=13)) if k else []
    has_row = draw(st.lists(st.booleans(), max_size=6))
    count = sum(has_row)

    def values(size, element):
        return draw(st.lists(element, min_size=size, max_size=size))

    rows = np.cumsum(has_row, dtype=np.int64) - 1
    rows[~np.asarray(has_row, dtype=bool)] = -1
    # a group tracked twice has one share column, as window_series fills it
    distinct = sorted(set(tracked))
    shares = np.asarray(values(count * len(distinct), _floats)).reshape(count, len(distinct))
    return _column_report(
        labels=values(len(has_row), _labels),
        rows=rows,
        m=values(count, st.integers(0, 10**6)),
        q=values(count, _floats),
        group_q=values(count * k, _floats),
        defined=values(count, st.booleans()),
        group_d=shares[:, [distinct.index(i) for i in tracked]],
        k=k,
        tracked=tracked,
        trends=draw(st.dictionaries(
            st.sampled_from(["q", "group_q_0", "group_d_10", "group_d_2"]),
            st.builds(TrendFit, slope=_floats, intercept=_floats),
        )),
    )


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _floats | _labels,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_labels, inner, max_size=3),
    max_leaves=8,
)


@given(reports(), st.dictionaries(
    st.sampled_from(["a", "config", "k", "trends", "tracked_groups", "w", "windows", "zz"]),
    _json_values,
    max_size=3,
))
def test_report_json_bytes_equal_json_dumps(report, extra):
    buf = io.StringIO()
    write_report_json(report, buf, extra=extra)
    payload = oracles.report_payload(report)
    payload.update(extra)
    assert buf.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_report_json_special_floats_and_wide_shares():
    # eleven tracked keys put "10" before "2"; NaN and infinities are spelled as json spells them
    report = _column_report(labels=["nan\u00e9"], rows=[0], m=[3], q=[float("nan")],
                            group_q=[-0.0, float("inf")], defined=[True],
                            group_d=[float("-inf") if i == 2 else i / 3 for i in range(11)],
                            k=2, tracked=range(11))
    buf = io.StringIO()
    write_report_json(report, buf)
    text = buf.getvalue()
    assert text == json.dumps(oracles.report_payload(report), indent=2, sort_keys=True) + "\n"
    assert text.index('"10":') < text.index('"2":')
    assert '"q": NaN' in text and "-Infinity" in text and "-0.0" in text


@given(reports())
def test_report_csv_renders_every_row_shape_as_row_by_row(report):
    # empty rows, rows without defined shares and non-finite values, in
    # the six-decimal f-string format of a row-at-a-time writer
    buf = io.StringIO()
    write_report_csv(report, buf)
    assert buf.getvalue() == oracles.report_csv(report)


def test_report_windows_view_reads_each_row_shape():
    report = _column_report(labels=["a", "b", "c"], rows=[0, -1, 1], m=[4, 2], q=[0.5, 1e-13],
                            group_q=[[0.25, 0.25], [1e-13, 0.0]], defined=[True, False],
                            group_d=[[0.5], [0.0]], k=2, tracked=[1])
    assert list(report.windows) == [
        WindowStats(label="a", m=4, q=0.5, group_q=(0.25, 0.25), group_d={1: 0.5}),
        WindowStats(label="b", m=0, q=None, group_q=None, group_d={1: None}),
        WindowStats(label="c", m=2, q=1e-13, group_q=(1e-13, 0.0), group_d={1: None}),
    ]
    assert report.windows[-1] == report.windows[2] and report.windows[1:] == list(report.windows)[1:]
    assert len(report.windows) == 3
    with pytest.raises(ValueError):
        report.q[0] = 1.0
