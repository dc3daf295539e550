"""Synthetic generators: planted structure, rewiring nulls, reference fixture."""

from __future__ import annotations

import io
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from polarnet import graph
from polarnet.community import load_partition, save_partition
from polarnet.graph import ingest_edge_list, underlying_undirected, undirected_from_edges, write_edge_list
from polarnet.polarization import group_contributions, modularity
from polarnet.synth import (
    FAMILIES,
    MAX_DAYS,
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


def test_planted_rejects_bad_parameters():
    with pytest.raises(ValueError):
        planted_partition([], 0.5, 0.1)
    with pytest.raises(ValueError):
        planted_partition([5, 5], 1.2, 0.1)
    with pytest.raises(ValueError):
        planted_partition([5, 0], 0.5, 0.1)


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


# a batch never holds more proposals than swaps are left to accept, so any
# rejection starts another batch
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


def test_rewire_equals_sequential_chain_on_a_larger_graph():
    # 12k edges: batches of m // 16 proposals, with fast and slow ones
    g = underlying_undirected(planted_partition([150, 150], 0.3, 0.02, seed=4)[0])
    expected = oracles.rewire_reference(g, 5000, _proposal_stream(g.m, 9))
    assert configuration_rewire(g, 5000, seed=9).edge_pairs().tolist() == [list(e) for e in expected]


def test_rewire_equals_sequential_chain_when_a_batch_mixes_every_kind_of_slow_row():
    # 397 edges on 40 vertices: batch 10 of these 1000 swaps decides slow
    # proposals from fates computed before its in-order loop, re-reads others
    # whose edge an earlier slow swap changed, demotes a fast swap, and so
    # overturns one precomputed fate that came from that swap
    rng = np.random.default_rng(1)
    g = undirected_from_edges(40, [(u, v) for u in range(40) for v in range(u + 1, 40) if rng.random() < 0.5])
    expected = oracles.rewire_reference(g, 1000, _proposal_stream(g.m, 0))
    assert configuration_rewire(g, 1000, seed=0).edge_pairs().tolist() == [list(e) for e in expected]


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


# parameters each family with required ones accepts
VALID_PARAMETERS = {
    "planted-partition": {"block_sizes": [3, 3], "p_in": 0.5, "p_out": 0.1},
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
    base, _ = figure2_instance()
    with pytest.raises(ValueError, match=re.escape("star does not take 'n'")):
        generate("star", {"n_leaves": 3, "n": 9})
    with pytest.raises(ValueError, match=re.escape("figure2 does not take 'base'")):
        generate("figure2", {}, base=base)
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
    edges, part = generate("configuration-model", {"swaps": 40}, seed=2, base=g)
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
def _family_calls(draw):
    """A family, parameters it takes at small values, a seed and, for the
    rewire, a small base graph, possibly with vertices without edges."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    params, base = {}, None
    if family == "planted-partition":
        probability = st.sampled_from([0.0, 0.05, 0.3, 1.0])
        params = {"block_sizes": draw(_SIZES), "p_in": draw(probability), "p_out": draw(probability)}
    elif family == "configuration-model":
        n = draw(st.integers(4, 9))
        pairs = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(lambda e: e[0] < e[1])
        base = undirected_from_edges(n, draw(st.lists(pairs, min_size=2, max_size=12, unique=True)))
        params = {"swaps": draw(st.integers(0, 6))}
    elif family == "star":
        params = {"n_leaves": draw(st.integers(1, 6))}
    elif family == "directed-cycle":
        params = {"n": draw(st.integers(2, 7))}
    elif family == "disjoint-cliques":
        params = {"sizes": draw(_SIZES)}
    return family, params, draw(st.integers(0, 3)), base


@settings(max_examples=150, deadline=None)
@given(_family_calls())
def test_generated_partition_covers_the_edge_list_and_loads_back(call):
    family, params, seed, base = call
    try:
        edges, part = generate(family, params, seed, base, days=1)
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
