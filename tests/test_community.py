"""Community detection determinism, quality, and partition file handling."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from polarnet.community import (
    Partition,
    _louvain,
    detect_communities,
    load_partition,
    relabel_by_size,
    save_partition,
)
from polarnet.errors import FormatError
from polarnet.graph import underlying_undirected, undirected_from_edges
from polarnet.polarization import modularity
from polarnet.synth import disjoint_cliques, planted_partition

TWO_TRIANGLES = undirected_from_edges(
    6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
)


def test_two_triangles_split_is_the_exhaustive_optimum():
    # oracle first: enumerate every partition of the 6 vertices
    assert oracles.max_modularity(TWO_TRIANGLES) == pytest.approx(0.5, abs=1e-12)
    part = detect_communities(TWO_TRIANGLES, seed=0)
    assert part.k == 2
    assert sorted(part.group_sizes.tolist()) == [3, 3]
    assert modularity(TWO_TRIANGLES, part) == pytest.approx(0.5, abs=1e-12)
    # the two triangles land in different groups
    assert len({part.assignment[v] for v in (0, 1, 2)}) == 1
    assert part.assignment[0] != part.assignment[3]


def test_complete_graph_collapses_to_one_group():
    k5 = undirected_from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    part = detect_communities(k5, seed=0)
    assert part.k == 1


def test_planted_blocks_recovered():
    g, planted = planted_partition([100, 100, 100], 0.3, 0.01, seed=5)
    und = underlying_undirected(g)
    detected = detect_communities(und, seed=5)
    assert detected.k == 3
    # best label matching: with k=3 just count the dominant block per group
    agree = 0
    for i in range(3):
        members = detected.members(i)
        counts = np.bincount(planted.assignment[members], minlength=3)
        agree += int(counts.max())
    assert agree >= 285  # 95% of 300


def test_sparse_planted_blocks_recovered():
    # the sparse-blocks benchmark shape at test scale: 10 blocks of 300 with
    # about 6 in-block and 0.4 cross-block arcs per vertex
    g, planted = planted_partition([300] * 10, 6 / 299, 0.4 / 2700, seed=1)
    und = underlying_undirected(g)
    for seed in range(4):
        detected = detect_communities(und, seed=seed)
        assert oracles.planted_agreement(detected, planted) >= 0.95


def test_detection_is_deterministic_per_seed():
    g, _ = planted_partition([40, 40], 0.25, 0.03, seed=1)
    und = underlying_undirected(g)
    a = detect_communities(und, seed=7)
    b = detect_communities(und, seed=7)
    assert np.array_equal(a.assignment, b.assignment)


def test_detected_beats_singleton_partition():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = oracles.random_digraph(30, 0.12, rng)
        und = underlying_undirected(g)
        if und.m == 0:
            continue
        part = detect_communities(und, seed=0)
        singleton = Partition.from_assignment(np.arange(und.n))
        assert modularity(und, part) >= modularity(und, singleton)


def test_min_improvement_is_a_per_move_threshold():
    # no single move raises modularity by 1, so every vertex stays alone
    part = detect_communities(TWO_TRIANGLES, seed=0, min_improvement=1.0)
    assert part.k == 6


@st.composite
def _graph_and_seed(draw):
    n = draw(st.integers(2, 24))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    edges = [(u, v) for u, v in pairs if u != v] or [(0, 1)]
    return undirected_from_edges(n, edges), draw(st.integers(0, 2**16))


@settings(max_examples=300)
@given(_graph_and_seed())
def test_every_detected_group_induces_a_connected_subgraph(case):
    und, seed = case
    part = detect_communities(und, seed=seed)
    for i in range(part.k):
        assert oracles.induced_is_connected(und, part.members(i))


def test_level_modularity_history_is_non_decreasing():
    rng = np.random.default_rng(29)
    for _ in range(10):
        g = oracles.random_digraph(50, 0.08, rng)
        und = underlying_undirected(g)
        if und.m == 0:
            continue
        _, history = _louvain(und, resolution=1.0, seed=3, min_improvement=1e-7)
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-12


def test_empty_graph_is_rejected():
    with pytest.raises(ValueError):
        detect_communities(undirected_from_edges(4, []))


def test_isolated_vertices_become_singletons():
    # one edge plus two isolated vertices
    und = undirected_from_edges(4, [(0, 1)])
    part = detect_communities(und, seed=0)
    assert part.assignment[0] == part.assignment[1]
    assert part.assignment[2] != part.assignment[3]
    assert part.assignment[2] != part.assignment[0]


def test_relabel_by_size_sorts_groups():
    part = Partition.from_assignment(
        [0, 0, 1, 1, 1, 1, 1, 2, 2, 2], {0: "small", 1: "big", 2: "mid"}
    )
    ordered = relabel_by_size(part)
    assert ordered.group_sizes.tolist() == [5, 3, 2]
    assert ordered.group_meta == {0: "big", 1: "mid", 2: "small"}
    # same blocks, new names
    assert ordered.assignment[2] == 0
    assert ordered.assignment[7] == 1
    assert ordered.assignment[0] == 2


def test_relabel_by_size_identity_when_sorted():
    part = Partition.from_assignment([0, 0, 0, 1, 1, 2])
    ordered = relabel_by_size(part)
    assert np.array_equal(ordered.assignment, part.assignment)


def test_relabel_by_size_preserves_size_multiset():
    rng = np.random.default_rng(41)
    for _ in range(20):
        assignment = oracles.random_grouping(30, int(rng.integers(2, 8)), rng)
        part = Partition.from_assignment(assignment)
        ordered = relabel_by_size(part)
        assert sorted(ordered.group_sizes.tolist()) == sorted(part.group_sizes.tolist())
        # group membership pattern is unchanged
        for v in range(30):
            for u in range(30):
                same_before = part.assignment[v] == part.assignment[u]
                same_after = ordered.assignment[v] == ordered.assignment[u]
                assert same_before == same_after


def test_partition_file_basic_load():
    part = load_partition(io.StringIO("a,0\nb,0\nc,1\n"), ["a", "b", "c"])
    assert part.k == 2
    assert part.assignment.tolist() == [0, 0, 1]


def test_partition_file_round_trip():
    rng = np.random.default_rng(3)
    labels = [f"user{i}" for i in range(25)]
    part = Partition.from_assignment(
        oracles.random_grouping(25, 4, rng), {0: "left", 3: "media"}
    )
    buf = io.StringIO()
    save_partition(part, buf, labels)
    loaded = load_partition(io.StringIO(buf.getvalue()), labels)
    assert np.array_equal(loaded.assignment, part.assignment)
    assert loaded.group_meta == part.group_meta


# "\x1f" is the delimiter of the generated edge lists below; "\r" cannot
# reach a label read from a file with universal newlines, and saving one is
# refused (test_partition_file_refuses_line_breaks_before_writing)
_RAW_LABELS = st.lists(
    st.text(st.characters(blacklist_characters="\n\r\x1f"), min_size=1, max_size=6)
    | st.sampled_from(["#", "#b", "#meta", "\\", "\\#", "\\\\#x", "\\a", "a,b", ",", "x,0"]),
    max_size=10,
)


@given(_RAW_LABELS, st.lists(st.integers(0, 3), min_size=20, max_size=20))
@example(["#b", "\\#b", "\\\\#b", "a,b", "#meta,0,x"], [0] * 20)
def test_partition_file_round_trips_every_ingest_label(raw, groups):
    # each drawn label is a target, so a leading "#" cannot turn its line
    # into a comment; ingest strips it and may reject or loop it
    text = "s\x1ft\x1f0\n" + "".join(f"s\x1f{label}\x1f0\n" for label in raw)
    labels = list(oracles.ingest_reference(text, delimiter="\x1f")["labels"])
    assignment = np.unique([groups[v % len(groups)] for v in range(len(labels))], return_inverse=True)[1]
    part = Partition.from_assignment(assignment, {0: "left"})
    buf = io.StringIO()
    save_partition(part, buf, labels)
    loaded = load_partition(io.StringIO(buf.getvalue()), labels)
    assert loaded.assignment.tolist() == part.assignment.tolist()
    assert loaded.group_meta == part.group_meta
    # only labels that would read as a comment, or as an escaped one, change
    written = buf.getvalue().split("\n")[1:-1]
    assert len(written) == len(labels)
    for label, line, group in zip(labels, written, assignment.tolist()):
        escaped = label.lstrip("\\").startswith("#")
        assert line == ("\\" if escaped else "") + f"{label},{group}"


@pytest.mark.parametrize("labels, bad", [(["a\rb", "c", "d"], "a\rb"), (["a", "b", "x\ny"], "x\ny")])
def test_partition_file_refuses_line_breaks_before_writing(labels, bad):
    part = Partition.from_assignment([0, 1, 1], {0: "left"})
    buf = io.StringIO()
    with pytest.raises(ValueError) as info:
        save_partition(part, buf, labels)
    assert repr(bad) in str(info.value)
    assert buf.getvalue() == ""


def test_partition_file_missing_vertex_is_named():
    with pytest.raises(FormatError) as info:
        load_partition(io.StringIO("a,0\nb,1\n"), ["a", "b", "c"])
    assert "'c'" in str(info.value)


def test_partition_file_unknown_vertex_is_named():
    with pytest.raises(FormatError) as info:
        load_partition(io.StringIO("a,0\nb,1\nzz,1\n"), ["a", "b"])
    assert "'zz'" in str(info.value)


def test_partition_file_duplicate_vertex():
    with pytest.raises(FormatError):
        load_partition(io.StringIO("a,0\na,1\nb,1\n"), ["a", "b"])


def test_partition_file_gap_in_group_indices():
    with pytest.raises(FormatError, match="group index 1 has no members"):
        load_partition(io.StringIO("a,0\nb,2\nc,2\n"), ["a", "b", "c"])


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("a,0\nb,99999999999999999999\n", 2),  # beyond int64
        ("a,0\nb,1000000000000\n", 2),  # would size a 1e12-group count
        ("a,0\nb,2\n", 2),  # two vertices fill at most groups 0 and 1
        ("#meta,\u00b2,x\na,0\nb,0\n", 1),  # a digit to str.isdigit, not to int
        ("a,0\n#meta,\u0663,x\nb,0\n", 2),  # an Arabic-Indic three
    ],
)
def test_partition_file_bad_group_index_names_its_line(text, lineno):
    with pytest.raises(FormatError) as info:
        load_partition(io.StringIO(text), ["a", "b"])
    assert f"line {lineno}" in str(info.value)


def test_partition_validation_rejects_unused_group():
    with pytest.raises(ValueError):
        Partition(
            assignment=np.array([0, 0, 2]),
            k=3,
            group_sizes=np.array([2, 0, 1]),
        )


def test_disjoint_cliques_ground_truth_is_detected():
    g, planted = disjoint_cliques([4, 4, 4])
    und = underlying_undirected(g)
    detected = detect_communities(und, seed=0)
    assert detected.k == 3
    assert modularity(und, detected) == pytest.approx(modularity(und, planted), abs=1e-12)
