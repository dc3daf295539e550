"""Synthetic generators: planted structure, rewiring nulls, reference fixture."""

from __future__ import annotations

import heapq
import io
import re
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from polarnet import graph, synth
from polarnet.community import load_partition, save_partition
from polarnet.graph import (
    TemporalEdgeSet,
    build_directed_graph,
    ingest_edge_list,
    underlying_undirected,
    undirected_from_edges,
    write_edge_list,
)
from polarnet.polarization import group_contributions, modularity
from polarnet.synth import (
    FAMILIES,
    MAX_DAYS,
    MAX_VERTICES,
    _batch_size,
    _proposals,
    configuration_rewire,
    directed_cycle,
    disjoint_cliques,
    figure2_instance,
    generate,
    planted_partition,
    star,
)


def test_reference_fixture_shape():
    g, part = figure2_instance()
    assert g.n == 12
    assert g.m == 19
    assert part.k == 3
    assert part.group_sizes.tolist() == [4, 4, 4]
    assert part.group_meta == {0: "black", 1: "red", 2: "blue"}


def test_reference_fixture_degree_structure():
    g, part = figure2_instance()
    members = [part.members(i) for i in range(3)]
    same = {i: set(map(tuple, g.edge_pairs()[np.isin(g.edge_pairs()[:, 0], members[i])
                                             & np.isin(g.edge_pairs()[:, 1], members[i])]))
            for i in range(3)}

    def in_group_degree(v, i):
        return sum(1 for u in g.neighbors(v) if part.assignment[u] == i)

    def cross_degree(v, i):
        return sum(1 for u in g.neighbors(v) if part.assignment[u] != i)

    # group 0: everyone has 3 in-group neighbours, at most 1 cross edge,
    # and exactly 2 members carry a cross edge
    assert all(in_group_degree(v, 0) == 3 for v in members[0])
    cross0 = [cross_degree(v, 0) for v in members[0]]
    assert max(cross0) <= 1
    assert sum(cross0) == 2
    # groups 1 and 2: everyone has 2 in-group neighbours and exactly 1 cross
    for i in (1, 2):
        assert all(in_group_degree(v, i) == 2 for v in members[i])
        assert all(cross_degree(v, i) == 1 for v in members[i])
    assert len(same[0]) == 6  # 4-clique
    assert len(same[1]) == len(same[2]) == 4  # 4-cycles


def test_reference_fixture_cross_edge_composition():
    g, part = figure2_instance()
    labels = part.assignment
    cross = [(int(labels[u]), int(labels[v])) for u, v in g.edge_pairs()
             if labels[u] != labels[v]]
    counts = {}
    for a, b in cross:
        key = tuple(sorted((a, b)))
        counts[key] = counts.get(key, 0) + 1
    assert counts == {(0, 1): 1, (0, 2): 1, (1, 2): 3}


def test_planted_extremes_form_directed_cliques():
    edges, _ = generate("planted-partition", {"block_sizes": [3, 3], "p_in": 1.0, "p_out": 0.0})
    pairs = set(zip(edges.sources.tolist(), edges.targets.tolist()))
    expected = {(u, v) for u in range(3) for v in range(3) if u != v}
    expected |= {(u, v) for u in range(3, 6) for v in range(3, 6) if u != v}
    assert pairs == expected


def test_planted_uniform_density_has_no_structure():
    qs = []
    for seed in range(20):
        g, part = planted_partition([100, 100, 100], 0.05, 0.05, seed=seed)
        und = underlying_undirected(g)
        qs.append(modularity(und, part))
    assert max(abs(q) for q in qs) < 0.05


def test_planted_separation_is_strong():
    g, part = planted_partition([100, 100, 100], 0.3, 0.01, seed=0)
    und = underlying_undirected(g)
    assert modularity(und, part) > 0.5


def test_planted_determinism():
    a, _ = planted_partition([40, 40], 0.2, 0.05, seed=9)
    b, _ = planted_partition([40, 40], 0.2, 0.05, seed=9)
    c, _ = planted_partition([40, 40], 0.2, 0.05, seed=10)
    assert np.array_equal(a.indices, b.indices)
    assert not np.array_equal(a.indices, c.indices) or a.m != c.m


@pytest.mark.parametrize("sizes", [[], [3, 0], [-2]])
def test_disjoint_cliques_refuses_a_size_that_is_not_positive(sizes):
    with pytest.raises(ValueError, match="clique sizes must be positive integers"):
        disjoint_cliques(sizes)


def test_planted_rejects_bad_parameters():
    with pytest.raises(ValueError):
        planted_partition([], 0.5, 0.1)
    with pytest.raises(ValueError):
        planted_partition([5, 5], 1.2, 0.1)
    with pytest.raises(ValueError):
        planted_partition([5, 0], 0.5, 0.1)


def _past_bound(n):
    return f"a family has at most {MAX_VERTICES} vertices, got {n}"


@pytest.mark.parametrize("build, message", [
    (lambda: planted_partition([2.5, 3], 0.5, 0.1), "block sizes must be positive integers, got 2.5"),
    (lambda: disjoint_cliques([2.5]), "clique sizes must be positive integers, got 2.5"),
    (lambda: star(2.5), "leaf counts must be positive integers, got 2.5"),
    (lambda: directed_cycle(np.float64(3.0)), "cycle lengths must be positive integers, got 3.0"),
    (lambda: planted_partition([MAX_VERTICES, 1], 0.5, 0.1), _past_bound(MAX_VERTICES + 1)),
    (lambda: disjoint_cliques([MAX_VERTICES // 2 + 1] * 2), _past_bound(MAX_VERTICES + 2)),
    (lambda: star(MAX_VERTICES), _past_bound(MAX_VERTICES + 1)),
    (lambda: directed_cycle(MAX_VERTICES + 1), _past_bound(MAX_VERTICES + 1)),
], ids=["fractional block", "fractional clique", "fractional star", "float cycle", "blocks past the bound",
        "cliques past the bound", "star past the bound", "cycle past the bound"])
def test_families_refuse_sizes_that_are_not_integers_or_pass_the_vertex_bound(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_families_take_sizes_up_to_the_vertex_bound():
    assert star(MAX_VERTICES - 1).n == directed_cycle(MAX_VERTICES).n == MAX_VERTICES
    g, part = planted_partition([MAX_VERTICES - 1, np.int64(1)], 0.0, 0.0)
    assert (g.n, g.m, part.group_sizes.tolist()) == (MAX_VERTICES, 0, [MAX_VERTICES - 1, 1])


def test_rewire_zero_swaps_is_identity():
    g, _ = figure2_instance()
    assert configuration_rewire(g, 0) is g


def test_rewire_preserves_degree_sequence():
    g, _ = figure2_instance()
    for seed in range(10):
        shuffled = configuration_rewire(g, 10 * g.m, seed=seed)
        assert shuffled.m == g.m
        assert np.array_equal(shuffled.degrees, g.degrees)


def test_rewire_determinism_and_seed_sensitivity():
    g, _ = figure2_instance()
    a = configuration_rewire(g, 50, seed=3)
    b = configuration_rewire(g, 50, seed=3)
    c = configuration_rewire(g, 50, seed=4)
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert not (np.array_equal(a.indptr, c.indptr) and np.array_equal(a.indices, c.indices))


def test_rewire_produces_simple_graphs():
    g, _ = figure2_instance()
    for seed in range(5):
        shuffled = configuration_rewire(g, 200, seed=seed)
        pairs = shuffled.edge_pairs()
        assert not np.any(pairs[:, 0] == pairs[:, 1])
        keys = pairs[:, 0].astype(np.int64) * shuffled.n + pairs[:, 1]
        assert len(np.unique(keys)) == len(keys)


def test_rewire_null_destroys_group_structure():
    g, part = figure2_instance()
    sums = np.zeros(3)
    n_seeds = 40
    for seed in range(n_seeds):
        shuffled = configuration_rewire(g, 10 * g.m, seed=seed)
        sums += np.array(group_contributions(shuffled, part))
    means = sums / n_seeds
    assert np.all(np.abs(means) < 0.05)


def test_rewire_rejects_tiny_graphs():
    g = undirected_from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        configuration_rewire(g, 5)


def test_rewire_stall_reports_progress_and_budget():
    k5 = undirected_from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    with pytest.raises(ValueError, match=r"stalled: 0/5 swaps accepted after 1000 attempts"):
        configuration_rewire(k5, 5)


def _proposal_stream(m, seed):
    """The proposals configuration_rewire draws, one (i, j, flip) at a time."""
    for block in _proposals(m, seed):
        yield from zip(*(col.tolist() for col in block))


@st.composite
def random_graphs(draw):
    """4-60 vertices, from sparse to complete: near-complete graphs make
    almost every proposal of a batch depend on an earlier one."""
    n = draw(st.integers(4, 60))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9, 0.97, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    assume(len(pairs) >= 2)
    return undirected_from_edges(n, pairs)


# small graphs: the first batch holds 256 proposals, each later one is sized
# from the acceptance rate so far, and the last, often the first itself, is
# cut at the final acceptance or ends at the stall budget
@settings(max_examples=100)
@given(random_graphs(), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_rewire_equals_sequential_chain_over_its_proposals(g, swaps, seed):
    try:
        expected = oracles.rewire_reference(g, swaps, _proposal_stream(g.m, seed))
    except ValueError as stalled:
        with pytest.raises(ValueError) as err:
            configuration_rewire(g, swaps, seed=seed)
        assert str(err.value) == str(stalled)
        return
    shuffled = configuration_rewire(g, swaps, seed=seed)
    assert shuffled.edge_pairs().tolist() == [list(e) for e in expected]
    assert shuffled.m == g.m  # duplicates would have collapsed
    assert np.array_equal(shuffled.degrees, g.degrees)
    rows = np.repeat(np.arange(g.n), shuffled.degrees)
    assert not np.any(rows == shuffled.indices)


# 12k edges on 300 vertices in two planted blocks
_LARGER = underlying_undirected(planted_partition([150, 150], 0.3, 0.02, seed=4)[0])


def test_rewire_equals_sequential_chain_on_a_larger_graph():
    # batches of m // 16 proposals, with fast and slow ones
    g = _LARGER
    expected = oracles.rewire_reference(g, 5000, _proposal_stream(g.m, 9))
    assert configuration_rewire(g, 5000, seed=9).edge_pairs().tolist() == [list(e) for e in expected]


def _assert_sequential(g, swaps, seed):
    """``configuration_rewire`` gives the sequential chain's edges, or its stall message."""
    try:
        expected = oracles.rewire_reference(g, swaps, _proposal_stream(g.m, seed))
    except ValueError as stalled:
        with pytest.raises(ValueError) as err:
            configuration_rewire(g, swaps, seed=seed)
        assert str(err.value) == str(stalled)
        return
    assert configuration_rewire(g, swaps, seed=seed).edge_pairs().tolist() == [list(e) for e in expected]


# batches of m // 2 proposals: most are slow and many share an edge or a key
# with another slow one, so rows decided in bulk meet loop rows that demote
# them or the fast swaps they came from, and cuts fall among them
@settings(max_examples=100, deadline=None)
@given(st.one_of(st.tuples(random_graphs(), st.integers(1, 200)), st.tuples(st.just(_LARGER), st.integers(1, 20_000))),
       st.integers(0, 2**32 - 1))
def test_rewire_equals_sequential_chain_when_most_proposals_are_slow(graph_and_swaps, seed):
    g, swaps = graph_and_swaps
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "_batch_size", lambda m: max(256, m // 2))
        _assert_sequential(g, swaps, seed)


def test_rewire_equals_sequential_chain_when_a_batch_mixes_every_kind_of_slow_row():
    # 397 edges on 40 vertices: batch 10 of these 1000 swaps decides slow
    # proposals from fates computed before its in-order loop, re-reads others
    # whose edge an earlier slow swap changed, demotes a fast swap, and so
    # overturns one precomputed fate that came from that swap
    rng = np.random.default_rng(1)
    g = undirected_from_edges(40, [(u, v) for u in range(40) for v in range(u + 1, 40) if rng.random() < 0.5])
    expected = oracles.rewire_reference(g, 1000, _proposal_stream(g.m, 0))
    assert configuration_rewire(g, 1000, seed=0).edge_pairs().tolist() == [list(e) for e in expected]


def _batches(monkeypatch):
    """(proposals, swaps wanted, (accepted, run)) of every ``_swap_batch`` call."""
    calls = []
    inner = synth._swap_batch

    def recorded(keys, present, n, i, j, flip, wanted):
        result = inner(keys, present, n, i, j, flip, wanted)
        calls.append((len(i), wanted, result))
        return result

    monkeypatch.setattr(synth, "_swap_batch", recorded)
    return calls


# 40-vertex graphs whose last batch is cut. At graph seed 1818, 124
# proposals for the last 23 swaps: the 23rd acceptance is row 102, and past
# it six slow rows, a fast row and a demoted fast row run again are
# accepted, then undone. At graph seed 6 a demoted row lies before the cut,
# so it must not count as a fast acceptance
@pytest.mark.parametrize("graph_seed, last_batch", [(1818, (124, 23, (23, 103))), (6, (167, 32, (32, 109)))])
def test_rewire_equals_sequential_chain_when_its_last_batch_is_cut(monkeypatch, graph_seed, last_batch):
    calls = _batches(monkeypatch)
    rng = np.random.default_rng(graph_seed)
    g = undirected_from_edges(40, [(u, v) for u in range(40) for v in range(u + 1, 40) if rng.random() < 0.5])
    expected = oracles.rewire_reference(g, 1000, _proposal_stream(g.m, 1))
    assert configuration_rewire(g, 1000, seed=1).edge_pairs().tolist() == [list(e) for e in expected]
    assert calls[-1] == last_batch


def _second_round(monkeypatch):
    """Per ``_swap_batch`` call: its proposals' edges, the rows of each
    change table it builds (the fast swaps', then the second round's), the
    rows demoted to run in order, the rows decided in bulk from each demoted
    fast swap, and its result."""
    batches = []
    inner_batch, inner_changes, inner_decided = synth._swap_batch, synth._changes, synth._decided_from

    def batch(keys, present, n, i, j, flip, wanted):
        batches.append({"edges": (i.tolist(), j.tolist()), "tables": [], "demoted": [], "decided_from": {}})
        batches[-1]["result"] = result = inner_batch(keys, present, n, i, j, flip, wanted)
        return result

    def changes(ke, kf, x, y, rows, packed):
        batches[-1]["tables"].append(set(rows.tolist()))
        return inner_changes(ke, kf, x, y, rows, packed)

    def decided_from(row, *rest):
        batches[-1]["decided_from"][row] = rows = inner_decided(row, *rest)
        return rows

    def heappush(waiting, row):
        batches[-1]["demoted"].append(row)
        heapq.heappush(waiting, row)

    monkeypatch.setattr(synth, "_swap_batch", batch)
    monkeypatch.setattr(synth, "_changes", changes)
    monkeypatch.setattr(synth, "_decided_from", decided_from)
    monkeypatch.setattr(synth, "heapq", types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
    return batches


# 40-vertex graphs, 1000 swaps, found by a seed search over graph and chain
# seeds. (17, 1): in batch 0 the stale loop row 137 makes key 302, which row
# 180, accepted in the second round, makes too; 180 runs again after it and
# is rejected. (169, 0): in batch 3 loop row 124 makes key 661, which fast
# swap 224 makes; 224 runs again, and so does row 233, accepted in the
# second round because 224 removed a key 233 makes (they share no edge).
# (16, 0): the last batch, batch 16, is cut at row 64, before row 77, which
# the second round accepted
@pytest.mark.parametrize("graph_seed, chain_seed, batch, claimed, fated, after_cut", [
    (17, 1, 0, [180], [], []),
    (169, 0, 3, [], [(224, 233)], []),
    (16, 0, 16, [], [], [77]),
])
def test_rewire_equals_sequential_chain_on_each_path_of_the_second_round(
        monkeypatch, graph_seed, chain_seed, batch, claimed, fated, after_cut):
    batches = _second_round(monkeypatch)
    rng = np.random.default_rng(graph_seed)
    g = undirected_from_edges(40, [(u, v) for u in range(40) for v in range(u + 1, 40) if rng.random() < 0.5])
    _assert_sequential(g, 1000, chain_seed)
    seen = batches[batch]
    (_, bulk), decided_from = seen["tables"], seen["decided_from"]
    i, j = seen["edges"]
    # demoted by a loop row, not with the fast swap they came from
    by_loop = set(seen["demoted"]) - {row for rows in decided_from.values() for row in rows}
    assert sorted(by_loop & bulk) == claimed
    # a fast swap demoted by a loop row, and the rows decided from its fates, not its edges
    assert [(f, s) for f in sorted(by_loop & set(decided_from)) for s in decided_from[f]
            if not {i[s], j[s]} & {i[f], j[f]}] == fated
    _, ran = seen["result"]
    assert sorted(row for row in bulk - set(seen["demoted"]) if row >= ran) == after_cut


def test_rewire_stall_in_a_batch_sized_from_the_rate_matches_the_sequential_chain(monkeypatch):
    # K9 without three edges: legal swaps are rare. After the first batches,
    # the rate sizes two batches below the 256 of _batch_size, and the stall
    # budget cuts the last one shorter still
    calls = _batches(monkeypatch)
    gone = {(0, 4), (2, 5), (6, 7)}
    g = undirected_from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if (u, v) not in gone])
    with pytest.raises(ValueError) as stalled:
        oracles.rewire_reference(g, 8, _proposal_stream(g.m, 41))
    with pytest.raises(ValueError) as err:
        configuration_rewire(g, 8, seed=41)
    assert str(err.value) == str(stalled.value)
    assert str(err.value) == "degree-preserving rewire stalled: 7/8 swaps accepted after 1600 attempts"
    assert [size for size, _, _ in calls] == [256, 256, 256, 256, 180, 209, 187]


@pytest.fixture(scope="module")
def dense_graph():
    """dense-daily's shape: 3,000 vertices in three planted blocks, about 254k edges."""
    return underlying_undirected(planted_partition([1000] * 3, 0.08, 0.004, seed=1)[0])


def test_rewire_ends_in_one_short_batch_on_a_dense_graph(monkeypatch, dense_graph):
    # 30k swaps take two full batches and one rate-sized batch
    calls = _batches(monkeypatch)
    g = dense_graph
    shuffled = configuration_rewire(g, 30_000, seed=1)
    assert np.array_equal(shuffled.degrees, g.degrees)
    sizes = [size for size, _, _ in calls]
    assert sum(size < _batch_size(g.m) for size in sizes) <= 1
    assert len(sizes) == 3
    assert sum(accepted for _, _, (accepted, _) in calls) == 30_000


def test_rewire_runs_only_interacting_slow_rows_in_order_on_a_dense_graph(monkeypatch, dense_graph):
    # of the three batches' 4,397 slow rows, 1,178 share an edge or a key
    # with another slow row or claim a later fast swap's key and are queued
    # for the in-order loop; it runs them and 14 rows demoted to it
    slow, queued = [], []
    inner = synth._independent_rows

    def independent_rows(keys, fates, packed):
        alone = inner(keys, fates, packed)
        slow.append(len(alone))
        queued.append(int(np.count_nonzero(~alone)))
        return alone

    monkeypatch.setattr(synth, "_independent_rows", independent_rows)
    batches = _second_round(monkeypatch)
    configuration_rewire(dense_graph, 30_000, seed=1)
    ran = sum(queued) + sum(len(seen["demoted"]) for seen in batches)
    assert (sum(slow), sum(queued), ran) == (4397, 1178, 1192)
    assert 3 * ran < sum(slow)


@pytest.mark.parametrize("n, key_dtype", [(46340, np.int32), (46342, np.int64)])
def test_rewire_equals_sequential_chain_on_either_side_of_int32_keys(n, key_dtype):
    # edge keys lo * n + hi are int64 from n = 46,341, but with lo < hi they
    # reach at most n² − n − 1, which passes 2³¹ − 1 only from n = 46,342,
    # at the edge (n − 2, n − 1). Edges among the top 40 vertices make that
    # edge, and the keys near it, over and over
    rng = np.random.default_rng(n)
    top = range(n - 40, n)
    pairs = [(u, v) for u in top for v in top if u < v and rng.random() < 0.3]
    pairs += [(u, v) for u, v in rng.integers(0, n, size=(100, 2)).tolist() if u != v]
    g = undirected_from_edges(n, pairs + [(n - 2, n - 1)])
    lo, hi = g.edge_pairs().T
    assert graph._pair_keys(n, lo, hi).dtype == key_dtype
    expected = oracles.rewire_reference(g, 2000, _proposal_stream(g.m, 3))
    assert configuration_rewire(g, 2000, seed=3).edge_pairs().tolist() == [list(e) for e in expected]


def test_star_shape():
    g = star(4)
    assert g.n == 5
    assert g.m == 4
    assert g.out_degrees.tolist() == [4, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        star(0)


def test_directed_cycle_shape():
    g = directed_cycle(4)
    assert g.out_degrees.tolist() == [1, 1, 1, 1]
    assert [g.out_neighbors(v).tolist() for v in range(4)] == [[1], [2], [3], [0]]
    with pytest.raises(ValueError):
        directed_cycle(1)


def test_disjoint_cliques_shape():
    g, part = disjoint_cliques([3, 4])
    assert g.n == 7
    assert g.m == 6 + 12  # bidirectional arcs
    assert part.group_sizes.tolist() == [3, 4]
    assert part.group_meta == {0: "clique0", 1: "clique1"}
    assert g.out_degrees.tolist() == [2, 2, 2, 3, 3, 3, 3]


def test_two_triangles_hit_known_optimum():
    g, part = disjoint_cliques([3, 3])
    und = underlying_undirected(g)
    assert modularity(und, part) == pytest.approx(0.5, abs=1e-12)
    assert oracles.max_modularity(und) == pytest.approx(0.5, abs=1e-12)


def test_generate_is_reproducible_bytewise():
    params = {"block_sizes": [30, 30], "p_in": 0.4, "p_out": 0.02}
    first, first_part = generate("planted-partition", params, seed=7, days=2)
    second, second_part = generate("planted-partition", params, seed=7, days=2)
    for a, b in ((first.sources, second.sources), (first.targets, second.targets),
                 (first.timestamps, second.timestamps)):
        assert a.tobytes() == b.tobytes()
    assert first.labels == second.labels
    assert first_part.assignment.tolist() == second_part.assignment.tolist()


def test_generate_figure2_and_vertex_labels():
    edges, part = generate("figure2", {})
    assert edges.n_vertices == part.n == 12
    assert edges.n_arcs == 38  # both directions of 19 edges
    labels = edges.labels
    assert labels[0] == "v0"
    assert labels[-1] == "v11"


def test_generate_rejects_unknown_family_and_params():
    expected = "unknown family 'erdos'; expected one of " + ", ".join(FAMILIES)
    with pytest.raises(ValueError, match=re.escape(expected)):
        generate("erdos", {})
    with pytest.raises(ValueError):
        generate("star", {"n_leaves": 3, "extra": 1})
    with pytest.raises(ValueError):
        generate("configuration-model", {})  # needs a base graph


def _arcs(g):
    """The edges of ``g`` as one arc each, low id to high, over labels ``v{i}``."""
    lo, hi = g.edge_pairs().T
    return TemporalEdgeSet(sources=lo, targets=hi, timestamps=np.zeros(len(lo), dtype=np.int64),
                           labels=tuple(f"v{i}" for i in range(g.n)))


# parameters each family with required ones accepts
VALID_PARAMETERS = {
    "planted-partition": {"block_sizes": [3, 3], "p_in": 0.5, "p_out": 0.1},
    "configuration-model": {"base": _arcs(figure2_instance()[0])},
    "star": {"n_leaves": 3},
    "directed-cycle": {"n": 4},
    "disjoint-cliques": {"sizes": [3, 3]},
}


@pytest.mark.parametrize("family, missing", [
    (family, name) for family, entry in FAMILIES.items() for name in entry.required
])
def test_generate_names_each_missing_parameter(family, missing):
    params = VALID_PARAMETERS[family]
    generate(family, params)
    absent = {name: value for name, value in params.items() if name != missing}
    with pytest.raises(ValueError, match=re.escape(f"{family} requires {missing!r}")):
        generate(family, absent)


def test_generate_refuses_another_familys_parameters_and_base():
    base = _arcs(figure2_instance()[0])
    with pytest.raises(ValueError, match=re.escape("star does not take 'n'")):
        generate("star", {"n_leaves": 3, "n": 9})
    with pytest.raises(ValueError, match=re.escape("figure2 does not take 'base'")):
        generate("figure2", {"base": base})
    with pytest.raises(ValueError, match=re.escape("configuration-model requires 'base'")):
        generate("configuration-model", {"swaps": 2})


def test_temporal_edges_stamps_and_labels():
    flat, _ = generate("directed-cycle", {"n": 50})
    assert flat.labels == tuple(f"v{i}" for i in range(50))
    assert flat.timestamps.tolist() == [0] * 50
    spread, _ = generate("directed-cycle", {"n": 50}, seed=3, days=2)
    expected = np.random.default_rng([3, 1]).integers(0, 2 * 86400, size=50)
    assert spread.timestamps.tolist() == expected.tolist()
    assert spread.sources.tolist() == flat.sources.tolist() == list(range(50))
    with pytest.raises(ValueError, match="days must be non-negative"):
        generate("directed-cycle", {"n": 50}, days=-1)


def test_temporal_edges_days_stop_at_the_int64_seconds_limit():
    # one arc, so the largest span stamps a single value
    edges, _ = generate("star", {"n_leaves": 1}, days=MAX_DAYS)
    (stamp,) = edges.timestamps.tolist()
    assert 0 <= stamp < MAX_DAYS * 86400 <= 2**63 - 1 < (MAX_DAYS + 1) * 86400
    with pytest.raises(ValueError, match=f"days must be at most {MAX_DAYS}, got {MAX_DAYS + 1}"):
        generate("star", {"n_leaves": 1}, days=MAX_DAYS + 1)


def test_generate_configuration_model_from_base():
    g, _ = figure2_instance()
    edges, part = generate("configuration-model", {"swaps": 40, "base": _arcs(g)}, seed=2)
    assert edges.n_vertices == 12
    assert edges.n_arcs == 38
    assert part is None


def test_generate_leaves_out_vertices_without_arcs():
    # 1-cliques have no arcs: their vertices and groups go, the rest keep
    # their v{i} labels and their groups' names, renumbered in order
    edges, part = generate("disjoint-cliques", {"sizes": [1, 3, 1, 2]})
    assert edges.labels == ("v1", "v2", "v3", "v5", "v6")
    assert part.assignment.tolist() == [0, 0, 0, 1, 1]
    assert part.group_meta == {0: "clique1", 1: "clique3"}
    assert sorted({*edges.sources.tolist(), *edges.targets.tolist()}) == [0, 1, 2, 3, 4]


def test_generate_refuses_a_graph_without_arcs():
    with pytest.raises(ValueError, match="planted-partition made no arcs"):
        generate("planted-partition", {"block_sizes": [3], "p_in": 0.0, "p_out": 0.0})
    with pytest.raises(ValueError, match="disjoint-cliques made no arcs"):
        generate("disjoint-cliques", {"sizes": [1, 1]})


_SIZES = st.lists(st.integers(1, 5), min_size=1, max_size=4)


@st.composite
def _edge_sets(draw, fewest, most, arcs):
    """An edge set on ``fewest`` to ``most`` distinct labels in any order,
    with up to ``arcs`` arcs, then a few of them again, as they are or reversed."""
    labels = draw(st.lists(st.text(max_size=3), min_size=fewest, max_size=most, unique=True))
    n = len(labels)
    # the target is the source moved on by 1 to n - 1: no self-loop
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.integers(0, 10)),
                          max_size=arcs))
    drawn = [(s, (s + step) % n, stamp) for s, step, stamp in steps]
    if drawn:
        for s, t, stamp in draw(st.lists(st.sampled_from(drawn), max_size=4)):
            drawn.append((t, s, stamp) if draw(st.booleans()) else (s, t, stamp + 1))
    src, tgt, stamps = (np.array([arc[k] for arc in drawn], dtype=np.int64) for k in range(3))
    return TemporalEdgeSet(sources=src, targets=tgt, timestamps=stamps, labels=tuple(labels))


@st.composite
def _family_calls(draw):
    """A family, parameters it takes at small values (for the rewire, a
    small base edge set, possibly with vertices without arcs) and a seed."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    params = {}
    if family == "planted-partition":
        probability = st.sampled_from([0.0, 0.05, 0.3, 1.0])
        params = {"block_sizes": draw(_SIZES), "p_in": draw(probability), "p_out": draw(probability)}
    elif family == "configuration-model":
        base = draw(_edge_sets(4, 9, 12))
        assume(underlying_undirected(build_directed_graph(base)).m >= 2)
        params = {"base": base, "swaps": draw(st.integers(0, 6))}
    elif family == "star":
        params = {"n_leaves": draw(st.integers(1, 6))}
    elif family == "directed-cycle":
        params = {"n": draw(st.integers(2, 7))}
    elif family == "disjoint-cliques":
        params = {"sizes": draw(_SIZES)}
    return family, params, draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(_family_calls())
def test_generated_partition_covers_the_edge_list_and_loads_back(call):
    family, params, seed = call
    try:
        edges, part = generate(family, params, seed, days=1)
    except ValueError as err:
        # the only refusals of valid parameters: no arc, or no legal swap
        assert re.search("made no arcs|rewire stalled", str(err))
        assume(False)
    labels = np.array(edges.labels)
    assert set(labels[edges.sources]) | set(labels[edges.targets]) == set(edges.labels)
    text = io.StringIO()
    write_edge_list(text, edges)
    read = ingest_edge_list(io.StringIO(text.getvalue()))
    assert read.n_vertices == edges.n_vertices
    if part is None:
        return
    part.check_cover(edges.n_vertices)
    rows = io.StringIO()
    save_partition(part, rows, edges.labels)
    loaded = load_partition(io.StringIO(rows.getvalue()), read.labels)
    groups = dict(zip(edges.labels, part.assignment.tolist()))
    assert dict(zip(read.labels, loaded.assignment.tolist())) == groups
    assert loaded.group_meta == part.group_meta


@settings(max_examples=100, deadline=None)
@given(_edge_sets(2, 12, 40), st.integers(0, 60), st.integers(0, 3))
def test_generate_rewires_the_undirected_view_of_its_base(edges, swaps, seed):
    und = underlying_undirected(build_directed_graph(edges))
    try:
        expected = configuration_rewire(und, swaps, seed)
    except ValueError as refused:
        with pytest.raises(ValueError) as err:
            generate("configuration-model", {"swaps": swaps, "base": edges}, seed)
        assert str(err.value) == str(refused)
        return
    if expected.m == 0:
        with pytest.raises(ValueError, match="configuration-model made no arcs"):
            generate("configuration-model", {"swaps": swaps, "base": edges}, seed)
        return
    arcs, part = generate("configuration-model", {"swaps": swaps, "base": edges}, seed)
    assert part is None
    ids = np.array([int(label[1:]) for label in arcs.labels])
    assert ids.tolist() == np.flatnonzero(expected.degrees).tolist()
    pairs = sorted(zip(ids[arcs.sources].tolist(), ids[arcs.targets].tolist()))
    assert pairs == sorted(zip(graph._csr_rows(expected.indptr).tolist(), expected.indices.tolist()))
