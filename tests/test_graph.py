"""Ingestion, graph construction, and windowing."""

from __future__ import annotations

import io
import re
import tracemalloc
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from polarnet import graph
from polarnet.errors import ParseError
from polarnet.graph import (
    IngestOptions,
    TemporalEdgeSet,
    WindowGrid,
    _distinct_keys,
    build_directed_graph,
    directed_from_arcs,
    exclude_interval,
    ingest_edge_list,
    slice_windows,
    underlying_undirected,
    undirected_from_edges,
    write_edge_list,
)


def _ingest(text, **kwargs):
    return ingest_edge_list(io.StringIO(text), IngestOptions(**kwargs))


def _in_window(edges, start, end):
    """The arcs at ``start <= t < end``, over the same universe."""
    keep = (start <= edges.timestamps) & (edges.timestamps < end)
    return TemporalEdgeSet(
        sources=edges.sources[keep],
        targets=edges.targets[keep],
        timestamps=edges.timestamps[keep],
        labels=edges.labels,
    )


def test_ingest_drops_and_counts_self_loops():
    edges = _ingest("a,b,100\nb,a,150\na,a,200\n")
    assert edges.n_arcs == 2
    assert edges.n_vertices == 2
    assert edges.dropped_self_loops == 1
    assert edges.malformed_lines == 0


def test_ingest_empty_stream():
    edges = _ingest("")
    assert edges.n_arcs == 0
    assert edges.n_vertices == 0
    assert edges.time_span() is None


def test_ingest_counts_malformed_lines():
    edges = _ingest("a,b,100\nbroken\nc,d,nan\ne,f,-5\ng,h,7\n")
    assert edges.n_arcs == 2
    assert edges.malformed_lines == 3


def test_ingest_strict_names_first_bad_line():
    with pytest.raises(ParseError) as info:
        _ingest("a,b,100\nbroken line\n", strict=True)
    assert info.value.line_number == 2
    assert "broken line" in str(info.value)


def test_ingest_skips_comments_and_blank_lines():
    edges = _ingest("# a comment\n\na,b,5\n   \n# another\nb,c,6\n")
    assert edges.n_arcs == 2
    assert edges.malformed_lines == 0


def test_ingest_header_and_delimiter_options():
    edges = _ingest("src\tdst\tts\na\tb\t10\n", delimiter="\t", skip_header=True)
    assert edges.n_arcs == 1
    assert edges.labels == ("a", "b")


def test_ingest_counts_out_of_range_timestamps_as_malformed():
    edges = _ingest(f"a,b,1\nb,c,{2**63 - 1}\nc,d,{2**63}\nd,e,99999999999999999999\n")
    assert edges.timestamps.tolist() == [1, 2**63 - 1]
    assert edges.malformed_lines == 2


def test_ingest_strict_rejects_out_of_range_timestamp():
    with pytest.raises(ParseError) as info:
        _ingest("a,b,1\nb,c,99999999999999999999\n", strict=True)
    assert info.value.line_number == 2


_PADS = (" ", "\t", "\r", "\xa0", "\x85")
# a label of the most bytes a fast line carries, and one byte more
_LONGEST_FAST = "w" * (8 * graph._FAST_WORDS)
_TOO_LONG = _LONGEST_FAST + "w"
# labels a fast line can carry, and labels only the per-line rules accept
_PLAIN_LABELS = ("a", "b", "bb", "#a", "a#", "abcdefghi", "abcdefgXi", "a-label-longer-than-16-bytes",
                 _LONGEST_FAST)
_ODD_LABELS = ("a,b", "a b", "a\x00", "é", "日本", "", _TOO_LONG)
_ODD_STAMPS = ("-0", "-3", "+4", "1_0", "٣", "", "x", "1.5", "9" * 18, str(2**63 - 1), str(2**63),
               "9" * 19, "9" * 20)
_DELIMITERS = (",", ";", "\t", " ", "::", "5", "\x00", "\x7f", "\x0b", "#")


@st.composite
def edge_list_texts(draw):
    """(text, delimiter): clean records mixed with every kind of line the
    per-line rules treat specially, and sometimes no final newline."""
    # choices are weighted by repetition: integer draws lean to their bounds
    delimiter = draw(st.sampled_from(_DELIMITERS[:2] * 2 + _DELIMITERS))
    plain = st.sampled_from(_PLAIN_LABELS)
    label = plain | st.sampled_from(_ODD_LABELS)
    stamp = st.integers(0, 10**6).map(str) | st.sampled_from(_ODD_STAMPS)
    kinds = ("clean",) * 6 + ("record",) * 3 + ("gap", "fields", "comment", "blank", "header")
    lines = []
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("clean", "gap"):
            fields = [draw(plain), draw(plain), str(draw(st.integers(0, 10**6)))]
            if kind == "gap":
                fields[draw(st.sampled_from((0, 1, 2)))] = ""
            lines.append(delimiter.join(fields))
            continue
        if kind == "record":
            fields = [draw(label), draw(label), draw(stamp)]
        elif kind == "fields":
            fields = draw(st.lists(label | stamp, max_size=5))
        elif kind == "comment":
            fields = ["#" + draw(label)]
        elif kind == "blank":
            fields = [""]
        else:
            fields = ["src", "dst", "ts"]
        if draw(st.booleans()):
            pad = st.sampled_from(_PADS)
            fields = [draw(pad) + f + draw(pad) for f in fields]
        lines.append(draw(st.sampled_from((delimiter,) * 3 + _DELIMITERS)).join(fields))
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else ""), delimiter


@given(
    case=edge_list_texts(),
    skip_header=st.booleans(),
    strict=st.sampled_from((False, False, True)),
    block=st.sampled_from((1, 2, 3, 5, 16, 1 << 20)),
)
@example(case=("a,b,1\nb,c,2", ","), skip_header=True, strict=False, block=3)
@example(case=("a,,5\n,b,6\na,b,\n b,c,7\nc,a,8\n", ","), skip_header=False, strict=False, block=1 << 20)
# blocks of 6 characters hold one record each: x is named only by a
# self-loop in one block and by a kept arc in a later one, or the reverse
@example(case=("x,x,1\na,b,2\nx,a,3\n", ","), skip_header=False, strict=False, block=6)
@example(case=("x,a,1\na,b,2\nx,x,3\n", ","), skip_header=False, strict=False, block=6)
# the middle block of 12 characters is self-loops only, and c and d no vertices
@example(case=("a,b,1\nb,a,2\nc,c,3\nd,d,4\na,b,5\n", ","), skip_header=False, strict=False, block=12)
# every record a self-loop, fast or by the per-line rules
@example(case=("a,a,1\nb,b,2\n", ","), skip_header=False, strict=False, block=6)
@example(case=("a,a,1\n b,b ,2\né,é,3\n", ","), skip_header=False, strict=False, block=1 << 20)
# a label too long for the fast lines in the first block, in a later one,
# and as the only label of its block; and a 10-byte label read into the
# table before a block whose 8-byte label is its first word and hashes to
# its slot
@example(case=(f"{_TOO_LONG},a,1\na,{_LONGEST_FAST},2\n", ","), skip_header=False, strict=False, block=16)
@example(case=(f"a,b,1\nb,{_TOO_LONG},2\nc,a,3\n", ","), skip_header=False, strict=False, block=6)
@example(case=(f"a,b,1\n{_TOO_LONG},{_TOO_LONG},2\n{_TOO_LONG},a,3\n", ","), skip_header=False, strict=False,
         block=6)
@example(case=("abcdefghah,a,1\nabcdefgh,a,2\n", ","), skip_header=False, strict=False, block=16)
def test_ingest_matches_per_line_reference(case, skip_header, strict, block):
    text, delimiter = case
    opts = dict(delimiter=delimiter, skip_header=skip_header, strict=strict)
    want = oracles.ingest_reference(text, **opts)
    with pytest.MonkeyPatch.context() as mp:
        # blocks of a few characters split records across block boundaries
        mp.setattr("polarnet.graph._BLOCK_CHARS", block)
        if "error_line" in want:
            with pytest.raises(ParseError) as info:
                _ingest(text, **opts)
            assert info.value.line_number == want["error_line"]
            return
        edges = _ingest(text, **opts)
    for name in ("sources", "targets", "timestamps"):
        got = getattr(edges, name)
        assert got.dtype == np.int64
        assert got.tolist() == want[name]
    for name in ("labels", "dropped_self_loops", "malformed_lines"):
        assert getattr(edges, name) == want[name]


# "ba" sorts after "ab" though its little-endian word is the smaller; the
# 9-byte labels tie in their first word; "loop" is named only by a
# self-loop, so it is no vertex. The per-line records add " ab" padded and
# the non-ASCII "é".
_FAST_RECORDS = [("ba", "ab", 1), ("abcdefgh2", "abcdefgh1", 2), ("loop", "loop", 4), ("b", "abcdefgh", 5),
                 ("abcdefgh1", "b", 7)]
_PER_LINE_RECORDS = [(" é ", "ab", 3), (" ab", "ba", 6)]


@pytest.mark.parametrize("per_line", (False, True))
@pytest.mark.parametrize("block", (1, 3, 9, 16, 1 << 20))
def test_ingest_ids_are_labels_in_byte_order(per_line, block):
    records = sorted(_FAST_RECORDS + (_PER_LINE_RECORDS if per_line else []), key=lambda r: r[2])
    text = "".join(f"{s},{t},{ts}\n" for s, t, ts in records)
    with pytest.MonkeyPatch.context() as mp:
        # small blocks put equal labels in different blocks
        mp.setattr("polarnet.graph._BLOCK_CHARS", block)
        edges = _ingest(text)
    kept = [(s.strip(), t.strip(), ts) for s, t, ts in records if s != t]
    assert edges.labels == tuple(sorted({label for s, t, _ in kept for label in (s, t)}))
    assert edges.labels[:4] == ("ab", "abcdefgh", "abcdefgh1", "abcdefgh2")
    arcs = [(edges.labels[s], edges.labels[t], ts)
            for s, t, ts in zip(edges.sources.tolist(), edges.targets.tolist(), edges.timestamps.tolist())]
    assert arcs == kept
    assert edges.dropped_self_loops == 1
    want = oracles.ingest_reference(text)
    assert (edges.labels, edges.sources.tolist(), edges.targets.tolist()) == (
        want["labels"], want["sources"], want["targets"])
    from_arcs = TemporalEdgeSet.from_arcs([(s.strip(), t.strip(), ts) for s, t, ts in records])
    assert from_arcs.labels == edges.labels
    assert from_arcs.sources.tolist() == edges.sources.tolist()
    assert from_arcs.dropped_self_loops == 1
    for built in (edges, from_arcs):
        # an id is the label's place in the sorted, distinct labels
        assert built.labels == tuple(sorted(set(built.labels)))


def test_one_long_label_leaves_the_fast_lines_and_their_memory_alone():
    # before the per-line rules took it, a 20,000-byte label gave its block
    # and every later one 2,500 rows of label words: 1.2 GB at its peak
    rng = np.random.default_rng(3)
    lines = [f"v{a},w{b},{t}\n" for a, b, t in rng.integers(0, 500, size=(10000, 3)).tolist()]
    lines[5] = f"{'y' * 20000},v3,7\n"
    text = "".join(lines)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        edges = _ingest(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 16 * 2**20
    want = oracles.ingest_reference(text)
    for name in ("sources", "targets", "timestamps"):
        assert getattr(edges, name).tolist() == want[name]
    for name in ("labels", "dropped_self_loops", "malformed_lines"):
        assert getattr(edges, name) == want[name]


@pytest.mark.parametrize("delimiter", ("\t", " "))
def test_clean_tab_or_space_separated_lines_take_the_vector_path(delimiter):
    records = _FAST_RECORDS + [("ab", "b", 10**15 + 8), ("a-label-longer-than-16-bytes", "ab", 9)]
    text = "".join(f"{s}{delimiter}{t}{delimiter}{ts}\n" for s, t, ts in records)
    want = oracles.ingest_reference(text, delimiter=delimiter)
    with mock.patch.object(graph, "_parse_line", side_effect=AssertionError("per-line path")):
        edges = _ingest(text, delimiter=delimiter)
    for name in ("sources", "targets", "timestamps"):
        assert getattr(edges, name).tolist() == want[name]
    for name in ("labels", "dropped_self_loops", "malformed_lines"):
        assert getattr(edges, name) == want[name]


def _assert_ingest_matches_reference(text, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("polarnet.graph._BLOCK_CHARS", block)
        edges = _ingest(text)
    want = oracles.ingest_reference(text)
    for name in ("sources", "targets", "timestamps"):
        assert getattr(edges, name).tolist() == want[name], name
    for name in ("labels", "dropped_self_loops", "malformed_lines"):
        assert getattr(edges, name) == want[name], name


_STAMP_DIGITS = (1, 7, 8, 9, 15, 16, 17, 18, 19)
# below "0", above "9", a letter, and three that int() treats specially
_NON_DIGITS = "/:a_+-"


@pytest.mark.parametrize("digits", _STAMP_DIGITS)
@pytest.mark.parametrize("block", (1, 3, 16, 1 << 20))
def test_ingest_timestamp_boundaries(digits, block):
    # the first record's stamp ends 5 bytes into its block, and with blocks
    # of a few characters every record starts a block of its own
    stamps = ["7", "9" * digits, "1" + "0" * (digits - 1), "0" * (digits - 1) + "5", "0" * digits,
              "1234567890123456789"[:digits]]
    for position in range(digits):
        for byte in _NON_DIGITS:
            stamp = list("9876543210987654321"[:digits])
            stamp[position] = byte
            stamps.append("".join(stamp))
    text = "".join(f"{'ab'[i % 2]},{'ba'[i % 2]},{stamp}\n" for i, stamp in enumerate(stamps))
    _assert_ingest_matches_reference(text, block)


@pytest.mark.parametrize("block", (1, 3, 16, 1 << 20))
def test_ingest_label_table_growth(block):
    # labels of 1 to 3 words, many tied in their first word or two, most of
    # them first named late in the file; a few thousand short labels in all
    rng = np.random.default_rng(5)
    prefixes = ("", "abcdefgh", "abcdefghabcdefgh")
    lines = []
    for i in range(3000):
        source = f"{prefixes[i % 3]}{i}"
        target = f"{prefixes[rng.integers(3)]}{rng.integers(i + 1)}"
        lines.append(f"{source},{target},{rng.integers(10**9)}")
        if i % 97 == 0:
            lines.append(f"{source},{source},{i}")
        if i % 89 == 0:
            lines.append(f"{source},{target}")
    _assert_ingest_matches_reference("\n".join(lines) + "\n", block)


def test_ingest_matches_reference_parser_on_synthetic_file():
    rng = np.random.default_rng(11)
    lines = []
    for _ in range(10_000):
        roll = rng.random()
        u, v = rng.integers(0, 120, size=2)
        if roll < 0.02:
            lines.append(f"u{u},u{v}")  # missing field
        elif roll < 0.04:
            lines.append(f"u{u},u{v},not-a-number")
        elif roll < 0.07:
            lines.append(f"u{u},u{u},{rng.integers(0, 1000)}")  # self loop
        elif roll < 0.09:
            lines.append(f"# comment {u}")
        else:
            lines.append(f"u{u},u{v},{rng.integers(0, 1000)}")
    text = "\n".join(lines) + "\n"

    ref_arcs, ref_malformed, ref_loops = oracles.parse_edge_lines(text.splitlines())
    edges = _ingest(text)
    assert edges.malformed_lines == ref_malformed
    assert edges.dropped_self_loops == ref_loops
    assert edges.n_arcs == len(ref_arcs)
    got = [
        (edges.labels[s], edges.labels[t], ts)
        for s, t, ts in zip(edges.sources, edges.targets, edges.timestamps)
    ]
    assert got == ref_arcs


def test_edge_list_round_trip():
    edges = TemporalEdgeSet.from_arcs([("a", "b", 5), ("b", "c", 9), ("c", "a", 12)])
    buf = io.StringIO()
    write_edge_list(buf, edges)
    again = _ingest(buf.getvalue())
    assert again.labels == edges.labels
    assert np.array_equal(again.sources, edges.sources)
    assert np.array_equal(again.targets, edges.targets)
    assert np.array_equal(again.timestamps, edges.timestamps)


def _edge_set(labels, arcs):
    """A TemporalEdgeSet of (source id, target id, stamp) triples as given."""
    src, tgt, stamps = (np.array([arc[k] for arc in arcs], dtype=np.int64) for k in range(3))
    return TemporalEdgeSet(sources=src, targets=tgt, timestamps=stamps, labels=tuple(labels))


def test_edge_set_refuses_duplicate_labels():
    arcs = np.array([0], dtype=np.int64)
    with pytest.raises(ValueError, match="vertex labels must be distinct"):
        TemporalEdgeSet(sources=arcs, targets=arcs + 1, timestamps=arcs, labels=("a", "b", "a"))


def _ints(*values):
    return np.array(values, dtype=np.int64)


@pytest.mark.parametrize("build, message", [
    (lambda: TemporalEdgeSet(sources=_ints(0, 1), targets=_ints(1), timestamps=_ints(0, 0), labels=("a", "b")),
     "must have equal length"),
    (lambda: _edge_set("ab", [(0, 2, 0)]), "arc endpoint outside the vertex index"),
    (lambda: _edge_set("ab", [(-1, 1, 0)]), "arc endpoint outside the vertex index"),
    (lambda: _edge_set("ab", [(0, 1, -1)]), "timestamps must be non-negative"),
    (lambda: _edge_set("abc", [(0, 1, 1), (2, 2, 1)]), "arc 1 is a self-loop on 'c'"),
    (lambda: graph.DirectedGraph(2, _ints(0, 0), _ints()), "indptr length must be n [+] 1"),
    (lambda: graph.UndirectedView(2, _ints(0, 0), _ints(), 0), "indptr length must be n [+] 1"),
    (lambda: graph.UndirectedView(2, _ints(0, 1, 2), _ints(1, 0), 2), "edge count inconsistent"),
    (lambda: directed_from_arcs(3, [(0, 3)]), "arc endpoint out of range"),
    (lambda: undirected_from_edges(3, [(-1, 2)]), "edge endpoint out of range"),
], ids=["unequal lengths", "endpoint past n", "negative endpoint", "negative stamp", "self-loop arc", "directed indptr",
        "undirected indptr", "undirected edge count", "arc out of range", "edge out of range"])
def test_graph_containers_refuse_inconsistent_arrays(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@given(
    st.lists(st.text(st.characters() | st.sampled_from(["\ud800", ",", "\n", "\r", "#", " ", "é"]), max_size=6),
             min_size=1, max_size=8, unique=True),
    st.data(),
)
def test_edge_list_writer_equals_per_arc_text(labels, data):
    # the target is the source moved on by 1 to len(labels) - 1: no self-loop
    arc = st.tuples(st.integers(0, len(labels) - 1), st.integers(1, max(1, len(labels) - 1)),
                    st.integers(0, 2**63 - 1) | st.integers(0, 1000))
    arcs = [(s, (s + step) % len(labels), stamp)
            for s, step, stamp in data.draw(st.lists(arc, max_size=40 if len(labels) > 1 else 0))]
    edges = _edge_set(labels, arcs)
    buf = io.StringIO()
    bad = oracles.unwritable_label(labels, arcs)
    if bad is None:
        write_edge_list(buf, edges)
        assert buf.getvalue() == oracles.edge_list_text(labels, arcs)
    else:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_edge_list(buf, edges)
        assert buf.getvalue() == ""


def test_edge_list_writer_cuts_chunks_of_long_rows():
    # rows through the 50k-byte hub are far longer than the average label
    # suggests, so the writer must cut its chunks by their actual bytes
    labels = ["h" * 50_000] + [f"v{i}" for i in range(100)]
    arcs = [(0, 1 + i % 100, i) for i in range(30)] + [(1 + i, 2 + i, 7) for i in range(99)]
    buf = io.StringIO()
    write_edge_list(buf, _edge_set(labels, arcs))
    assert buf.getvalue() == oracles.edge_list_text(labels, arcs)


@pytest.mark.parametrize("edges, bad", [
    # a label holding the comma, read with another delimiter
    (_ingest("a,b;c;1\nc;a,b;2\n", delimiter=";"), "a,b"),
    # a source starting with "#" would start a comment line
    (TemporalEdgeSet.from_arcs([("#a", "b", 1), ("b", "#a", 2)]), "#a"),
    # "\r" ends a line when the file is read with universal newlines
    (TemporalEdgeSet.from_arcs([("a\rb", "c", 1), ("c", "a\rb", 2)]), "a\rb"),
    # ingest strips " a" to "a": a distinct arc would become a self-loop
    (TemporalEdgeSet.from_arcs([(" a", "a", 1)]), " a"),
])
def test_edge_list_writer_refuses_labels_ingest_reads_differently(edges, bad):
    buf = io.StringIO()
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        write_edge_list(buf, edges)
    assert buf.getvalue() == ""


def test_edge_list_writer_accepts_a_hash_label_as_target_only():
    edges = TemporalEdgeSet.from_arcs([("b", "#a", 1)])
    buf = io.StringIO()
    write_edge_list(buf, edges)
    assert buf.getvalue() == "b,#a,1\n"
    assert _ingest(buf.getvalue()).labels == edges.labels


# characters of 1 to 4 UTF-8 bytes, lone surrogates (3 bytes under
# "surrogatepass") and characters ingest keeps inside a label but strips
# from its ends
_LABEL_CHARS = ("a", "Z", "7", "_", "#", "\x00", "é", "ß", "日", "本", "😀", "𝄞", "\ud800", "\udfff")
_INNER_CHARS = (" ", "\t", "\x85", "\u2028")


def _random_labels(rng, count, chars=_LABEL_CHARS):
    """``count`` distinct labels of 1 to 40 UTF-8 bytes, none padded."""
    labels = set()
    while len(labels) < count:
        budget = int(rng.integers(1, 41))
        label = ""
        while True:
            inner = 0 < len(label) and rng.random() < 0.1
            char = str(rng.choice(_INNER_CHARS if inner else chars))
            if len(f"{label}{char}".encode("utf-8", "surrogatepass")) > budget:
                break
            label += char
        labels.add(label.rstrip() or "a")
    return sorted(labels)


def _random_stamps(rng, count):
    """0, 2**63 - 1 and one stamp of each length from 1 to 19 digits first,
    then stamps of random lengths."""
    def of_length(digits):
        low = 0 if digits == 1 else 10 ** (digits - 1)
        return int(rng.integers(low, min(10**digits, 2**63), dtype=np.int64))
    lengths = rng.integers(1, 20, count)
    return [0, 2**63 - 1] + [of_length(d) for d in range(1, 20)] + [of_length(int(d)) for d in lengths]


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from((1 << 18, 1 << 12)))
def test_edge_list_writer_equals_per_arc_text_at_scale(seed, chunk):
    rng = np.random.default_rng(seed)
    labels = _random_labels(rng, 300)
    stamps = _random_stamps(rng, 3000)
    hashed = np.array([label.startswith("#") for label in labels])
    sources = rng.choice(np.flatnonzero(~hashed), len(stamps))
    targets = (sources + rng.integers(1, len(labels), len(stamps))) % len(labels)
    arcs = list(zip(sources.tolist(), targets.tolist(), stamps))
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("polarnet.graph._WRITE_CHUNK", chunk)
        write_edge_list(buf, _edge_set(labels, arcs))
    assert buf.getvalue() == oracles.edge_list_text(labels, arcs)


@pytest.mark.parametrize("labels", [(), ("a", "b")])
def test_edge_list_writer_writes_nothing_without_arcs(labels):
    buf = io.StringIO()
    write_edge_list(buf, _edge_set(labels, []))
    assert buf.getvalue() == ""


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_edge_list_file_reads_back_as_the_same_arcs(tmp_path_factory, seed):
    # a UTF-8 file holds no lone surrogate, so ingest cannot produce one;
    # "#" labels stay targets
    rng = np.random.default_rng(seed)
    labels = _random_labels(rng, 200, [c for c in _LABEL_CHARS if not "\ud800" <= c <= "\udfff"])
    stamps = _random_stamps(rng, 1000)
    sources = [label for label in labels if not label.startswith("#")]
    arcs = [(sources[i], labels[j], stamp) for i, j, stamp in
            zip(rng.integers(0, len(sources), len(stamps)), rng.integers(0, len(labels), len(stamps)), stamps)]
    edges = TemporalEdgeSet.from_arcs(arcs)
    path = tmp_path_factory.mktemp("edges") / "edges.csv"
    with open(path, "w", encoding="utf-8") as fh:
        write_edge_list(fh, edges)
    with open(path, encoding="utf-8") as fh:
        again = ingest_edge_list(fh)
    assert again.labels == edges.labels
    assert (again.malformed_lines, again.dropped_self_loops) == (0, 0)
    for a, b in ((again.sources, edges.sources), (again.targets, edges.targets),
                 (again.timestamps, edges.timestamps)):
        assert np.array_equal(a, b)


def test_edge_list_writer_peak_memory_stays_below_huge_pages():
    # tracemalloc sees numpy's buffers too. 4 MiB is where arrays start to
    # pick up transparent-huge-page RSS (see graph._WRITE_CHUNK); a writer
    # holding the whole 200k-arc text at once would need about 10 MiB.
    rng = np.random.default_rng(0)
    n = 200_000
    labels = tuple(f"user{i:06d}" for i in range(5000))
    sources = rng.integers(0, 5000, n)
    edges = TemporalEdgeSet(sources=sources, targets=(sources + rng.integers(1, 5000, n)) % 5000,
                            timestamps=rng.integers(10**9, 2 * 10**9, n), labels=labels)

    class Discard:
        def write(self, text):
            pass

    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_edge_list(Discard(), edges)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 4 << 20


def test_build_directed_graph_collapses_duplicates():
    edges = TemporalEdgeSet.from_arcs([("a", "b", 100), ("a", "b", 120), ("b", "c", 130)])
    g = build_directed_graph(edges)
    assert g.m == 2
    a, b = edges.labels.index("a"), edges.labels.index("b")
    assert g.out_neighbors(a).tolist() == [b]


def test_build_directed_graph_window_filter():
    edges = TemporalEdgeSet.from_arcs([("a", "b", 100), ("a", "b", 120), ("b", "c", 130)])
    inside = _in_window(edges, 110, 125)
    assert inside.n_arcs == 1
    g = build_directed_graph(inside)
    assert g.m == 1
    # vertex universe is preserved even when vertices fall silent
    assert g.n == 3


def test_build_directed_graph_matches_distinct_pair_count():
    rng = np.random.default_rng(3)
    arcs = [
        (f"u{rng.integers(0, 40)}", f"u{rng.integers(0, 40)}", int(rng.integers(0, 500)))
        for _ in range(1000)
    ]
    arcs = [(s, t, ts) for s, t, ts in arcs if s != t]
    edges = TemporalEdgeSet.from_arcs(arcs)
    inside = _in_window(edges, 100, 400)
    distinct = {(s, t) for s, t, ts in arcs if 100 <= ts < 400}
    in_window = sum(1 for _, _, ts in arcs if 100 <= ts < 400)
    assert build_directed_graph(inside).m == len(distinct)
    assert inside.n_arcs == in_window


def test_in_csr_is_the_reversed_graph_built_once():
    rng = np.random.default_rng(17)
    for n in (1, 5, 40):
        g = oracles.random_digraph(n, 0.2, rng)
        sources = g.arc_sources().tolist()
        reversed_g = directed_from_arcs(n, zip(g.indices.tolist(), sources))
        indptr, indices = g.in_csr
        assert indptr.tolist() == reversed_g.indptr.tolist()
        assert indices.tolist() == reversed_g.indices.tolist()
        assert not indptr.flags.writeable and not indices.flags.writeable
        assert g.in_csr is g.in_csr


def test_underlying_undirected_collapses_reciprocal_arcs():
    g = directed_from_arcs(2, [(0, 1), (1, 0)])
    und = underlying_undirected(g)
    assert und.m == 1
    assert und.degrees.tolist() == [1, 1]


def test_underlying_undirected_path():
    g = directed_from_arcs(3, [(0, 1), (1, 2)])
    und = underlying_undirected(g)
    assert und.m == 2
    assert und.degrees.tolist() == [1, 2, 1]


def test_underlying_undirected_symmetry_and_degree_sum():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = oracles.random_digraph(30, 0.1, rng)
        und = underlying_undirected(g)
        assert int(und.degrees.sum()) == 2 * und.m
        for v in range(und.n):
            for u in und.neighbors(v):
                assert v in und.neighbors(u)


def test_symmetric_arc_set_halves_on_undirected_view():
    rng = np.random.default_rng(23)
    pairs = {(int(u), int(v)) for u, v in rng.integers(0, 20, size=(60, 2)) if u != v}
    arcs = list(pairs) + [(v, u) for u, v in pairs]
    g = directed_from_arcs(20, arcs)
    und = underlying_undirected(g)
    assert und.m == g.m // 2


def test_slice_windows_day_arithmetic():
    edges = TemporalEdgeSet.from_arcs([("a", "b", 0), ("b", "c", 90000)])
    assert slice_windows(edges, 86400, origin=0) == WindowGrid(0, 86400, ("1970-01-01", "1970-01-02"))


def test_slice_windows_single_timestamp():
    edges = TemporalEdgeSet.from_arcs([("a", "b", 50)])
    windows = slice_windows(edges, 86400)
    assert len(windows) == 1
    assert windows.first <= 50 < windows.first + windows.length


def test_slice_windows_empty_edge_set():
    assert slice_windows(TemporalEdgeSet.from_arcs([]), 86400, origin=-10800) == WindowGrid(-10800, 86400, ())


def test_slice_windows_rejects_bad_granularity():
    edges = TemporalEdgeSet.from_arcs([("a", "b", 50)])
    with pytest.raises(ValueError):
        slice_windows(edges, 0)


def test_slice_windows_bound_counts_windows_from_first_to_last_start(monkeypatch):
    monkeypatch.setattr(graph, "MAX_WINDOWS", 3)
    # stamps 5 and 33 at length 10 with origin 0: windows start at 0, 10, 20, 30
    edges = TemporalEdgeSet.from_arcs([("a", "b", 5), ("b", "a", 33)])
    with pytest.raises(ValueError, match="span 4 windows of 10 s, more than 3"):
        slice_windows(edges, 10)
    # origin 4 aligns them to 4, 14, 24: three windows, at the bound
    windows = slice_windows(edges, 10, origin=4)
    assert (windows.first, len(windows)) == (4, 3)


def test_slice_windows_partition_all_arcs():
    rng = np.random.default_rng(9)
    arcs = [
        (f"u{rng.integers(0, 50)}", f"v{rng.integers(0, 50)}", int(rng.integers(0, 44 * 86400)))
        for _ in range(2000)
    ]
    edges = TemporalEdgeSet.from_arcs(arcs)
    windows = slice_windows(edges, 86400)
    assert len(windows) == 44
    starts = [windows.first + j * windows.length for j in range(len(windows))]
    membership = [sum(1 for s in starts if s <= ts < s + windows.length) for ts in edges.timestamps]
    assert all(count == 1 for count in membership)
    assert sum(_in_window(edges, s, s + windows.length).n_arcs for s in starts) == edges.n_arcs


def _window_label(start, granularity):
    return graph._window_labels(np.array([start], dtype=np.int64), granularity)[0]


def test_window_label_sub_day_granularity():
    assert _window_label(3600, 3600) == "1970-01-01T01:00:00"


def test_window_label_first_labelled_day_has_an_unpadded_year():
    assert _window_label(graph.FIRST_LABELLED_SECOND, 86400) == "1-01-01"


def _strftime_label(start, granularity):
    """The label ``strftime`` writes, but with the year as ``str(year)``:
    glibc writes years below 1000 unpadded, some platforms pad them."""
    dt = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(seconds=start)
    return str(dt.year) + dt.strftime("-%m-%d" if granularity % 86400 == 0 else "-%m-%dT%H:%M:%S")


_BOUNDS = [graph.FIRST_LABELLED_SECOND, graph.LAST_LABELLED_SECOND]
# the first second of years 10, 100 and 1000 and the last second before each
_YEAR_DIGITS = [-59926608000, -59926608001, -59042995200, -59042995201, -30610224000, -30610224001]


@given(
    st.lists(st.integers(*_BOUNDS) | st.integers(_BOUNDS[0], _YEAR_DIGITS[4]), max_size=40),
    st.sampled_from([7, 3600, 86400, 604800]),
)
@example(_BOUNDS + _YEAR_DIGITS, 7)
@example(_BOUNDS + _YEAR_DIGITS, 86400)
def test_window_labels_match_strftime_over_the_labelled_range(starts, granularity):
    # one vectorised call for many starts, and one call for each, from
    # year 1 (unpadded, as glibc writes it) to the last second of year 9999
    starts = sorted(starts)
    want = [_strftime_label(start, granularity) for start in starts]
    assert graph._window_labels(np.asarray(starts, dtype=np.int64), granularity) == want
    assert [_window_label(start, granularity) for start in starts] == want


@pytest.mark.parametrize("granularity, origin, stamps, message", [
    (10**11, -99999999999, [0, 5], "can start at the earliest at -62135596800"),
    (1, 0, [253402300800], "can start at most at 253402300799"),
    (1, 0, [0, 2_000_000], "span 2000001 windows of 1 s, more than 1000000"),
])
def test_slice_windows_checks_its_bounds_before_any_label(monkeypatch, granularity, origin, stamps, message):
    def no_labels(*args):
        raise AssertionError("labels were built")

    monkeypatch.setattr(graph, "_window_labels", no_labels)
    edges = TemporalEdgeSet.from_arcs([("a", "b", t) for t in stamps])
    with pytest.raises(ValueError, match=message):
        slice_windows(edges, granularity, origin=origin)


def test_exclude_interval_drops_arcs_keeps_universe():
    edges = TemporalEdgeSet.from_arcs([("a", "b", 10), ("b", "c", 20), ("c", "a", 30)])
    trimmed = exclude_interval(edges, 15, 25)
    assert trimmed.n_arcs == 2
    assert trimmed.labels == edges.labels
    assert 20 not in trimmed.timestamps.tolist()


def test_directed_graph_rejects_self_loops():
    with pytest.raises(ValueError):
        directed_from_arcs(3, [(0, 0)])


@given(
    keys=st.lists(st.integers(0, 5), max_size=60)
    | st.lists(st.integers(-(2**63), 2**63 - 1), max_size=60)
)
@example(keys=[])
@example(keys=[7])
@example(keys=[3, 3, 3, 3])
def test_distinct_keys_matches_np_unique(keys):
    a = np.asarray(keys, dtype=np.int64)
    want, got = np.unique(a), _distinct_keys(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@st.composite
def small_arc_lists(draw):
    """(n, arcs) with repeated and reciprocal (source, target) id pairs."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    base = draw(st.lists(st.tuples(vertex, vertex).filter(lambda a: a[0] != a[1]), max_size=30))
    if base:
        again = draw(st.lists(st.tuples(st.sampled_from(base), st.booleans()), max_size=20))
        base += [(v, u) if flip else (u, v) for (u, v), flip in again]
    return n, draw(st.permutations(base))


def _same_csr(got, want):
    for x, y in zip(got, want):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


@given(graph=small_arc_lists(), data=st.data())
def test_builders_match_lexsort_reference(graph, data):
    n, arcs = graph
    g = directed_from_arcs(n, arcs)
    _same_csr((g.indptr, g.indices), oracles.csr_reference(n, arcs))

    times = data.draw(st.lists(st.integers(0, 9), min_size=len(arcs), max_size=len(arcs)))
    edges = TemporalEdgeSet(
        sources=np.asarray([u for u, _ in arcs], dtype=np.int64),
        targets=np.asarray([v for _, v in arcs], dtype=np.int64),
        timestamps=np.asarray(times, dtype=np.int64),
        labels=tuple(str(v) for v in range(n)),
    )
    inside = [a for a, t in zip(arcs, times) if 3 <= t < 7]
    built_inside = build_directed_graph(_in_window(edges, 3, 7))
    for built, want in ((build_directed_graph(edges), arcs), (built_inside, inside)):
        _same_csr((built.indptr, built.indices), oracles.csr_reference(n, want))

    pairs = {(min(u, v), max(u, v)) for u, v in arcs}
    indptr, indices = oracles.csr_reference(n, [*pairs, *((v, u) for u, v in pairs)])
    for und in (underlying_undirected(g), undirected_from_edges(n, arcs)):
        assert und.m == len(pairs)
        _same_csr((und.indptr, und.indices), (indptr, indices))


@pytest.mark.parametrize("n, key_dtype", [(46340, np.int32), (46341, np.int64)])
def test_builders_match_reference_on_either_side_of_int32_keys(n, key_dtype):
    # n = 46,340 is the largest n with n² < 2³¹ − 1, so keys are int32 up to
    # it and int64 above; arcs at n − 1 build keys up to n² − 2
    rng = np.random.default_rng(n)
    top = n - 1
    pairs = np.vstack([rng.integers(0, n, size=(300, 2)),
                       [(top, top - 1), (top - 1, top), (0, top), (top, 0), (top, 5), (top, 5)]])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    assert graph._pair_keys(n, pairs[:, 0], pairs[:, 1]).dtype == key_dtype
    arcs = [tuple(p) for p in pairs.tolist()]
    edges = TemporalEdgeSet(
        sources=pairs[:, 0].copy(), targets=pairs[:, 1].copy(),
        timestamps=rng.integers(0, 100, len(pairs)), labels=tuple(str(v) for v in range(n)),
    )
    g = build_directed_graph(edges)
    _same_csr((g.indptr, g.indices), oracles.csr_reference(n, arcs))
    _same_csr(g.in_csr, oracles.csr_reference(n, [(v, u) for u, v in arcs]))
    und = underlying_undirected(g)
    _same_csr((und.indptr, und.indices), oracles.csr_reference(n, arcs + [(v, u) for u, v in arcs]))
