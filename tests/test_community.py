"""Community detection determinism, quality, and partition file handling."""

from __future__ import annotations

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from polarnet import community
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


def _block_graph_corpus(count, rng):
    """(n, edges) of ``count`` graphs of 5-60 vertices in 1-5 random blocks,
    from sparse to dense and from sharply split to no split at all."""
    corpus = []
    while len(corpus) < count:
        n = int(rng.integers(5, 61))
        block = rng.integers(0, int(rng.integers(1, 6)), size=n)
        p_in = rng.choice([0.1, 0.3, 0.6])
        p_out = p_in * rng.choice([0.05, 0.2, 0.6, 1.0])
        u, v = np.triu_indices(n, 1)
        keep = rng.random(len(u)) < np.where(block[u] == block[v], p_in, p_out)
        if keep.any():
            corpus.append((n, list(zip(u[keep].tolist(), v[keep].tolist()))))
    return corpus


def test_mean_modularity_reaches_networkx_louvain():
    # networkx's Louvain is an independent implementation of the same method
    nx = pytest.importorskip("networkx")
    ours, theirs = [], []
    for n, edges in _block_graph_corpus(150, np.random.default_rng(2024)):
        und = undirected_from_edges(n, edges)
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(edges)
        for seed in range(4):
            ours.append(modularity(und, detect_communities(und, seed=seed)))
            found = nx.community.louvain_communities(reference, seed=seed)
            theirs.append(nx.community.modularity(reference, found))
    assert np.mean(ours) >= np.mean(theirs) - 0.005


@st.composite
def _clique_ring(draw):
    """A ring of small cliques, consecutive ones joined by one to three
    edges, plus random chords: level 0 gathers the cliques, so later levels
    move weighted supervertices."""
    k, size = draw(st.integers(3, 10)), draw(st.integers(2, 5))
    n = k * size
    edges = [(c * size + i, c * size + j) for c in range(k) for i in range(size) for j in range(i + 1, size)]
    member = st.integers(0, size - 1)
    for c in range(k):
        for a, b in draw(st.lists(st.tuples(member, member), min_size=1, max_size=3)):
            edges.append((c * size + a, (c + 1) % k * size + b))
    vertex = st.integers(0, n - 1)
    edges += [(u, v) for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=n // 2)) if u != v]
    return undirected_from_edges(n, edges)


@settings(max_examples=200, deadline=None)
@given(
    _clique_ring(),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from([1e-7, 1e-3]),
    st.integers(0, 2**16),
)
def test_louvain_equals_float_weight_reference(und, resolution, min_improvement, seed):
    expected, expected_q = oracles.louvain_reference(und, resolution, seed, min_improvement)
    # a third level runs only when level 1 moved a supervertex
    assume(len(expected_q) >= 3)
    assignment, q_history = _louvain(und, resolution, seed, min_improvement)
    assert assignment.tolist() == expected.tolist()
    assert q_history == expected_q


def _top_clique_ring(n: int) -> list[tuple[int, int]]:
    """40 five-cliques in a ring, consecutive ones joined by two edges, on
    the top 200 vertices (480 edges); the other vertices are isolated."""
    k, size = 40, 5
    edges = [(c * size + i, c * size + j) for c in range(k) for i in range(size) for j in range(i + 1, size)]
    edges += [(c * size + a, (c + 1) % k * size + b) for c in range(k) for a, b in ((0, 1), (2, 3))]
    return [(n - k * size + u, n - k * size + v) for u, v in edges]


@pytest.mark.parametrize("n", [46340, 46341 + 480])
def test_louvain_equals_reference_on_either_side_of_int32_keys(n):
    # a level's supervertex keys are int32 while its group count is at most
    # 46,340. Level 0 merges at most one vertex per edge, so with
    # n = 46,341 + m every level keeps at least 46,341 groups and int64
    # keys; the cliques hold the highest groups, whose keys pass 2³¹ − 1
    und = undirected_from_edges(n, _top_clique_ring(n))
    expected, expected_q = oracles.louvain_reference(und, 1.0, 7, 1e-7)
    assert len(expected_q) == 3
    assert (int(expected.max()) + 1 > 46340) == (n > 46340)
    assignment, q_history = _louvain(und, 1.0, 7, 1e-7)
    assert assignment.tolist() == expected.tolist()
    assert q_history == expected_q


def _ring_with_isolated_vertices() -> tuple[int, list[tuple[int, int]]]:
    """Five 4-cliques in a ring on the odd vertices 1..39; the even ones
    and 40-42 have no edge."""
    k, size = 5, 4
    edges = [(c * size + i, c * size + j) for c in range(k) for i in range(size) for j in range(i + 1, size)]
    edges += [(c * size, (c + 1) % k * size + 1) for c in range(k)]
    return 2 * k * size + 3, [(2 * u + 1, 2 * v + 1) for u, v in edges]


@pytest.mark.parametrize("n, edges, resolution, levels", [
    # at resolution 8 every vertex is best alone, so level 0 makes no move
    pytest.param(6, [(i, i + 1) for i in range(5)], 8.0, 1, id="path"),
    pytest.param(7, [(0, i) for i in range(1, 7)], 8.0, 1, id="star"),
    # level 0 gathers each triangle; merging the two would lower modularity
    pytest.param(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)], 1.0, 2, id="bridged-triangles"),
    pytest.param(*_ring_with_isolated_vertices(), 1.0, 2, id="isolated-vertices"),
])
def test_louvain_runs_of_one_or_two_levels_equal_the_reference(n, edges, resolution, levels):
    und = undirected_from_edges(n, edges)
    expected, expected_q = oracles.louvain_reference(und, resolution, 3, 1e-7)
    assert len(expected_q) == levels
    assignment, q_history = _louvain(und, resolution, 3, 1e-7)
    assert assignment.tolist() == expected.tolist()
    assert q_history == expected_q


@settings(max_examples=200, deadline=None)
@given(_graph_and_seed(), st.sampled_from([0.5, 1.0, 8.0]))
def test_a_level_keeps_all_its_groups_exactly_when_it_makes_no_move(case, resolution):
    # a move lands in a non-empty group, so the first one empties a group;
    # _louvain takes a level without moves to have no edge inside a group
    und, seed = case
    core, levels = community._local_move, []

    def recording(nbrs, strength, comm, *rest):
        moves = core(nbrs, strength, comm, *rest)
        levels.append((len(comm), moves, len(set(comm))))
        return moves

    with mock.patch.object(community, "_local_move", recording):
        _, q_history = _louvain(und, resolution, seed, 1e-7)
    assert len(levels) == len(q_history)
    assert levels[-1][1] == 0
    for n_l, moves, groups in levels:
        assert (groups < n_l) == (moves > 0)


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


@pytest.mark.parametrize("name", ["left ", "left\t", "left\u00a0", " "])
def test_partition_file_refuses_group_names_ending_in_whitespace(name):
    # loading strips each line, so such a name would not come back as written
    part = Partition.from_assignment([0, 1, 1], {0: name})
    buf = io.StringIO()
    with pytest.raises(ValueError, match="ends in whitespace") as info:
        save_partition(part, buf, ["a", "b", "c"])
    assert repr(name) in str(info.value)
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
        # group indices int() reads but save_partition never writes
        ("a,0\nb,\u0661\n", 2),  # an Arabic-Indic one
        ("a,0\nb,0_1\n", 2),  # a digit-group separator
        ("a,0\nb, +1\n", 2),  # a sign after a space
        ("a,0\nb,-1\n", 2),
    ],
)
def test_partition_file_bad_group_index_names_its_line(text, lineno):
    with pytest.raises(FormatError) as info:
        load_partition(io.StringIO(text), ["a", "b"])
    assert f"line {lineno}" in str(info.value)


@pytest.mark.parametrize("text", ["a,0\n#meta,{},x\nb,0\n", "a,0\nb,{}\n"])
def test_partition_file_index_beyond_int_digit_limit_names_its_line(text):
    # 5000 digits: more than int() converts from a string
    with pytest.raises(FormatError) as info:
        load_partition(io.StringIO(text.format("1" * 5000)), ["a", "b"])
    assert "line 2" in str(info.value)


_FILE_LABELS = ["a", "b7", "#b", "\\#b", "a,b", "é", "1", " a"]
_GROUP_TEXTS = ["00", "0" * 18 + "1", "7", "9" * 18, "9" * 19, "1" * 5000, "١", "1_0", "+1", "-1", "", "x"]


@st.composite
def _partition_texts(draw):
    """Random partition file text and its label universe: the rows of a
    saved partition, shuffled, with odd group indices, header, comments,
    blank lines, line ends, unescaped labels and unknown, duplicate or
    missing vertices."""
    labels = sorted(draw(st.lists(st.sampled_from(_FILE_LABELS), min_size=1, max_size=6, unique=True)))
    k = draw(st.integers(1, len(labels)))
    named = draw(st.permutations(labels))
    fault = draw(st.sampled_from(["none"] * 4 + ["missing", "duplicate", "unknown", "replaced", "unescaped"]))
    if fault == "missing":
        named = named[1:]
    elif fault == "duplicate":
        named = named + named[:1]
    elif fault == "unknown":
        named = named + ["zz"]
    elif fault == "replaced":  # the count stays right
        named = named[:-1] + [draw(st.sampled_from(["zz"] + named[:1]))]
    if fault != "unescaped":
        named = ["\\" + label if community._ESCAPED.match(label) else label for label in named]
    groups = [str(draw(st.integers(0, k - 1))) for _ in named]
    if named and draw(st.integers(0, 2)) == 2:
        groups[draw(st.integers(0, len(named) - 1))] = draw(st.sampled_from(_GROUP_TEXTS))
    rows = [f"{label},{group}" for label, group in zip(named, groups)]
    meta = [f"#meta,{i},g{i}" for i in draw(st.lists(st.integers(0, k), max_size=2))]
    if draw(st.integers(0, 5)) == 5:
        meta.append(draw(st.sampled_from(["#meta,x,y", "#meta,٣,y", "#meta,1"])))
    rows = meta + rows
    for extra in draw(st.lists(st.sampled_from(["", "  ", "# note", "#meta,0,late"]), max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), extra)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(row + end for row in rows)[: None if draw(st.booleans()) else -len(end)], labels


def _loaded(text: str, labels: list[str]):
    try:
        part = load_partition(io.StringIO(text), labels)
    except FormatError as err:
        return str(err)
    return part.assignment.tolist(), part.k, part.group_meta


@settings(max_examples=300)
@given(_partition_texts())
@example(("#meta,0,x\nb7,0\na,0\n", ["a", "b7"]))
@example(("a,0\r\nb7,0\r\n", ["a", "b7"]))
@example(("a,0\nb7," + "0" * 18 + "1\n", ["a", "b7"]))
# a bulk read without its whitespace, escape, duplicate or unknown-label
# check would accept the first four of these; the last group passes int64
@example((" a,0\n", [" a"]))
@example(("\\#b,0\n", ["\\#b"]))
@example(("a,0\na,0\n", ["a", "b"]))
@example(("a,0\nzz,0\n", ["a", "b"]))
@example(("a,0\nb," + "9" * 19 + "\n", ["a", "b"]))
def test_partition_file_bulk_read_equals_the_per_line_read(case):
    text, labels = case
    with mock.patch.object(community, "_bulk_rows", return_value=None):
        per_line = _loaded(text, labels)
    assert _loaded(text, labels) == per_line


def test_partition_file_in_save_order_or_shuffled_takes_the_bulk_read():
    rng = np.random.default_rng(7)
    labels = [f"user{i}" for i in range(40)]
    part = Partition.from_assignment(oracles.random_grouping(40, 3, rng), {0: "left", 2: "media"})
    buf = io.StringIO()
    save_partition(part, buf, labels)
    lines = buf.getvalue().split("\n")[:-1]
    header, rows = lines[:2], lines[2:]
    shuffled = "\n".join(header + [rows[i] for i in rng.permutation(len(rows))]) + "\n"
    with mock.patch.object(community, "_line_rows", side_effect=AssertionError("per-line read")):
        for text in (buf.getvalue(), shuffled):
            loaded = load_partition(io.StringIO(text), labels)
            assert loaded.assignment.tolist() == part.assignment.tolist()
            assert loaded.group_meta == part.group_meta


def test_partition_validation_rejects_unused_group():
    with pytest.raises(ValueError):
        Partition(assignment=np.array([0, 0, 2]))


def test_partition_counts_its_groups_once_from_the_assignment():
    part = Partition(assignment=np.array([1, 0, 1, 2, 1]), group_meta={0: "left"})
    assert part.k == 3
    assert part.group_sizes.tolist() == [1, 3, 1]
    assert not part.group_sizes.flags.writeable and not part.assignment.flags.writeable
    ordered = relabel_by_size(part)
    assert (ordered.k, ordered.group_sizes.tolist(), ordered.group_meta) == (3, [3, 1, 1], {1: "left"})


@pytest.mark.parametrize("assignment, meta, message", [
    ([0, 2], None, "group index 1 has no members"),
    ([1, 1, 3, 0], None, "group index 2 has no members"),
    ([0, -1, 1], None, "group index -1 is negative"),
    ([], None, "partition must cover at least one vertex"),
    ([0, 1], {0: "left", 7: "x"}, "meta names unknown group 7"),
    ([0, 1], {-1: "x"}, "meta names unknown group -1"),
])
def test_partition_names_the_group_that_breaks_a_rule(assignment, meta, message):
    with pytest.raises(ValueError) as info:
        Partition.from_assignment(assignment, meta)
    assert str(info.value) == message


def test_disjoint_cliques_ground_truth_is_detected():
    g, planted = disjoint_cliques([4, 4, 4])
    und = underlying_undirected(g)
    detected = detect_communities(und, seed=0)
    assert detected.k == 3
    assert modularity(und, detected) == pytest.approx(modularity(und, planted), abs=1e-12)
