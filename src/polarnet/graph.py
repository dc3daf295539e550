"""Interaction-graph core: edge-list ingestion, temporal windowing, graph views.

Arcs are directed along information flow (content author -> resharing user).
All graph types are immutable after construction (their numpy buffers are
marked read-only), so they can be shared freely across threads.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import ParseError

_INT = np.int64


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class IngestOptions:
    """Knobs for :func:`ingest_edge_list`."""

    delimiter: str = ","
    skip_header: bool = False
    strict: bool = False
    comment_prefix: str = "#"


@dataclass(frozen=True)
class TimeWindow:
    """Half-open interval [start, end) of integer epoch seconds."""

    start: int
    end: int
    label: str = ""

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"window start {self.start} must precede end {self.end}")


@dataclass(frozen=True, eq=False)
class TemporalEdgeSet:
    """Raw timestamped arcs plus a dense label <-> id index.

    ``sources``/``targets`` hold dense vertex ids; ``labels[i]`` is the
    external label of vertex ``i`` and ``label_ids`` is the inverse map.
    ``dropped_self_loops`` and ``malformed_lines`` carry ingestion counters.
    """

    sources: np.ndarray
    targets: np.ndarray
    timestamps: np.ndarray
    labels: tuple[str, ...]
    label_ids: dict[str, int]
    dropped_self_loops: int = 0
    malformed_lines: int = 0

    def __post_init__(self):
        n = len(self.labels)
        if not (len(self.sources) == len(self.targets) == len(self.timestamps)):
            raise ValueError("sources, targets and timestamps must have equal length")
        if len(self.label_ids) != n:
            raise ValueError("label index is not a bijection")
        if len(self.sources) > 0:
            ids = np.concatenate([self.sources, self.targets])
            if ids.min() < 0 or ids.max() >= n:
                raise ValueError("arc endpoint outside the vertex index")
            if self.timestamps.min() < 0:
                raise ValueError("timestamps must be non-negative")
        for a in (self.sources, self.targets, self.timestamps):
            _readonly(a)

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_arcs(self) -> int:
        return len(self.sources)

    def time_span(self) -> tuple[int, int] | None:
        """(min, max) timestamp over all arcs, or None when empty."""
        if self.n_arcs == 0:
            return None
        return int(self.timestamps.min()), int(self.timestamps.max())

    @classmethod
    def from_arcs(cls, arcs: Iterable[tuple[str, str, int]]) -> "TemporalEdgeSet":
        """Build from (source label, target label, timestamp) triples.

        Ids, self-loops and labels follow the rules of :func:`ingest_edge_list`.
        """
        sources, targets, stamps = tuple(zip(*arcs)) or ((), (), ())
        names, _, (src, tgt) = _merge_labels([], sources, targets)
        return _edge_set(names, src, tgt, np.asarray(stamps, dtype=_INT))


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Simple directed graph in CSR form (sorted, deduplicated out-neighbor rows).

    ``multiplicity[j]`` counts how many raw interactions collapsed into arc j.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    multiplicity: np.ndarray

    def __post_init__(self):
        if len(self.indptr) != self.n + 1:
            raise ValueError("indptr length must be n + 1")
        if len(self.indices) != len(self.multiplicity):
            raise ValueError("indices and multiplicity must have equal length")
        for a in (self.indptr, self.indices, self.multiplicity):
            _readonly(a)

    @property
    def m(self) -> int:
        """Arc count (after deduplication)."""
        return len(self.indices)

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def arc_sources(self) -> np.ndarray:
        """Source id of every arc, aligned with ``indices``."""
        return np.repeat(np.arange(self.n, dtype=_INT), self.out_degrees)


@dataclass(frozen=True, eq=False)
class UndirectedView:
    """Symmetric adjacency (CSR, each edge stored in both rows) of a digraph.

    A reciprocal arc pair collapses to a single undirected edge, so the
    adjacency indicator is 0/1 and ``degrees`` sum to ``2 * m``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    m: int

    def __post_init__(self):
        if len(self.indptr) != self.n + 1:
            raise ValueError("indptr length must be n + 1")
        if len(self.indices) != 2 * self.m:
            raise ValueError("edge count inconsistent with adjacency size")
        for a in (self.indptr, self.indices):
            _readonly(a)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_pairs(self) -> np.ndarray:
        """(m, 2) array of edges as (u, v) with u < v, sorted."""
        rows = np.repeat(np.arange(self.n, dtype=_INT), self.degrees)
        keep = rows < self.indices
        return np.column_stack([rows[keep], self.indices[keep]])


# Text characters ingest reads per block: about 256 KiB of ASCII. Blocks of
# 1 MiB page-faulted twice as much fresh memory per call for their numpy
# temporaries, and spent twice the system time doing it.
_BLOCK_CHARS = 1 << 18
# 18 digits stay below 2**63, so a fast timestamp never overflows int64.
_FAST_DIGITS = 18
_INT64_MAX = int(np.iinfo(_INT).max)
# _WORD_MASKS[k] keeps the low k bytes of a little-endian uint64 word
_WORD_MASKS = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)
_NEWLINE = ord("\n")


def _parse_line(raw: str, opts: IngestOptions) -> tuple[str, str, int] | tuple[()] | None:
    """The record rules for one line, as ingest applies them.

    Returns ``()`` for a blank or comment line, ``None`` for a malformed
    line, else the record's (source, target, timestamp).
    """
    line = raw.strip()
    if not line or line.startswith(opts.comment_prefix):
        return ()
    parts = line.split(opts.delimiter)
    if len(parts) != 3:
        return None
    source, target, stamp = parts
    source, target = source.strip(), target.strip()
    if not (source and target):
        return None
    try:
        stamp = int(stamp)  # int() strips the same whitespace as str.strip()
    except ValueError:
        return None
    return (source, target, stamp) if 0 <= stamp <= _INT64_MAX else None


def _blocks(stream: TextIO | Iterable[str]) -> Iterator[str]:
    """The stream's text in blocks of whole ``\\n``-terminated lines.

    A missing final newline is supplied, so every block ends with one.
    """
    if not hasattr(stream, "read"):
        # an iterable of lines, as iterating a text file yields them
        stream = io.StringIO("".join(line if line.endswith("\n") else line + "\n" for line in stream))
    pending: list[str] = []
    while chunk := stream.read(_BLOCK_CHARS):
        cut = chunk.rfind("\n") + 1
        if cut == 0:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        yield "".join(pending)
        pending = [chunk[cut:]]
    tail = "".join(pending)
    if tail:
        yield tail + "\n"


class _FastLines:
    """Vector parse of the lines of a block that need none of the per-line rules.

    A line is fast when its only bytes that are a delimiter, ASCII
    whitespace or control (<= 0x20, 0x7F) or non-ASCII (>= 0x80) are
    delimiter, delimiter, newline; both labels are non-empty; it does not
    start with the comment prefix; and its timestamp is 1 to 18 ASCII
    digits. Such a line is a valid record as it stands, with no stripping.
    """

    def __init__(self, opts: IngestOptions):
        d = opts.delimiter
        # a digit delimiter could split a timestamp, and a multi-byte or
        # whitespace one is not a single special byte: per-line path only
        single = len(d) == 1 and 0x21 <= ord(d) <= 0x7E and not d.isdigit()
        self.delimiter = ord(d) if single else -1
        self.prefix = opts.comment_prefix.encode("utf-8")
        # an empty prefix makes every line a comment
        self.enabled = single and bool(self.prefix)

    def scan(self, b: np.ndarray):
        """Split a block of whole lines and parse its fast lines.

        Returns the lines' start and end (newline) offsets, the indices of
        the fast lines, their label words (sources, then targets) and their
        timestamps.
        """
        if not self.enabled:
            ends = np.flatnonzero(b == _NEWLINE)
            none = np.empty(0, dtype=_INT)
            return _starts(ends), ends, none, np.empty((0, 1), dtype=np.uint64), none
        # bytes <= 0x20 or >= 0x7F wrap to >= 0x5E after subtracting 0x21
        special = np.flatnonzero((b - np.uint8(0x21) >= 0x5E) | (b == self.delimiter))
        kinds = b[special]
        k = np.flatnonzero(kinds == _NEWLINE)  # one per line, in line order
        ends = special[k]
        starts = _starts(ends)
        rows = np.flatnonzero(np.diff(k, prepend=-1) == 3)
        k = k[rows]
        d1, d2 = special[k - 2], special[k - 1]
        s, e = starts[rows], ends[rows]
        digits = e - d2 - 1
        ok = (
            (kinds[k - 2] == self.delimiter) & (kinds[k - 1] == self.delimiter)
            & (d1 > s) & (d2 > d1 + 1) & (digits >= 1) & (digits <= _FAST_DIGITS)
        )
        comment = np.ones(len(rows), dtype=bool)
        for j, byte in enumerate(self.prefix):
            comment &= (s + j < e) & (b[np.minimum(s + j, e)] == byte)
        ok &= ~comment
        rows, s, d1, d2, e, digits = rows[ok], s[ok], d1[ok], d2[ok], e[ok], digits[ok]

        stamps = np.zeros(len(rows), dtype=_INT)
        ok = np.ones(len(rows), dtype=bool)
        for j in range(int(digits.max(initial=0))):
            # column j counts from the last digit; shorter stamps skip it
            here = digits > j
            digit = b[np.maximum(e - 1 - j, 0)] - np.uint8(ord("0"))
            ok &= (digit < 10) | ~here
            stamps += np.where(here, digit, 0).astype(_INT) * (10 ** j)
        rows, s, d1, d2, stamps = rows[ok], s[ok], d1[ok], d2[ok], stamps[ok]
        words = _label_words(b, np.concatenate([s, d1 + 1]), np.concatenate([d1 - s, d2 - d1 - 1]))
        return starts, ends, rows, words, stamps


def _starts(ends: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], ends + 1])[:-1]


def _label_words(b: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Byte strings ``b[start:start + length]`` as rows of big-endian uint64
    words, zero-padded to the longest. Rows compare word by word, word 0
    first, as the byte strings compare.

    The words are read little-endian and byteswapped in place: a gather
    through a big-endian view measured about 7 % slower over a whole ingest.
    """
    width = max(1, -(-int(length.max(initial=0)) // 8))
    # a uint64 at every byte offset; 7 zero bytes pad the last ones
    padded = np.concatenate([b, np.zeros(7, dtype=np.uint8)])
    view = np.ndarray((len(b),), dtype="<u8", buffer=padded, strides=(1,))
    words = np.empty((len(start), width), dtype=np.uint64)
    for j in range(width):
        rest = np.clip(length - 8 * j, 0, 8)
        words[:, j] = view[np.minimum(start + 8 * j, len(b) - 1)] & _WORD_MASKS[rest]
    return words.byteswap(inplace=True)


def _distinct_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense id of every row of label words (equal rows, equal ids), and the
    distinct rows in id order, which is the byte order of their labels."""
    # lexsort's last key is its primary one
    order = np.argsort(words[:, 0]) if words.shape[1] == 1 else np.lexsort(words.T[::-1])
    ordered = words[order]
    new = np.ones(len(words), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    ids = np.empty(len(words), dtype=_INT)
    ids[order] = np.cumsum(new) - 1
    return ids, ordered[new]


def _merge_labels(names: list[str], *columns: Iterable[str]
                  ) -> tuple[list[str], np.ndarray, list[np.ndarray]]:
    """Merge the labels of ``columns`` into ``names`` (sorted, distinct).

    Returns the merged labels, sorted by code point; the new id of each of
    ``names``; and each column as new ids.
    """
    merged = sorted(set(names).union(*columns))
    index = dict(zip(merged, range(len(merged))))
    remap, *ids = (np.fromiter(map(index.__getitem__, c), dtype=_INT) for c in (names, *columns))
    return merged, remap, ids


def _edge_set(names: list[str], src: np.ndarray, tgt: np.ndarray, ts: np.ndarray,
              malformed: int = 0) -> TemporalEdgeSet:
    """The arcs ``src[i] -> tgt[i]`` over ids into ``names`` (sorted), with
    self-loops dropped and counted and the labels no kept arc touches dropped."""
    kept = src != tgt
    src, tgt, ts = src[kept], tgt[kept], ts[kept]
    used = np.zeros(len(names), dtype=bool)
    used[src] = True
    used[tgt] = True
    remap = np.cumsum(used) - 1
    labels = tuple(itertools.compress(names, used.tolist()))
    return TemporalEdgeSet(
        sources=remap[src],
        targets=remap[tgt],
        timestamps=ts,
        labels=labels,
        label_ids=dict(zip(labels, range(len(labels)))),
        dropped_self_loops=len(kept) - len(src),
        malformed_lines=malformed,
    )


def ingest_edge_list(
    stream: TextIO | Iterable[str], options: IngestOptions | None = None
) -> TemporalEdgeSet:
    """Parse a delimited ``source,target,timestamp`` stream into a TemporalEdgeSet.

    ``stream`` is a text stream with ``.read()``, such as an open file or
    ``io.StringIO``; a line ends at each ``\\n`` in the text it returns. An
    iterable of lines without ``.read()`` is joined into one text first.
    Each line is stripped of surrounding whitespace. Blank lines, lines
    starting with the comment prefix and, with ``skip_header``, the first
    line are ignored. A record is three fields split at the delimiter and
    stripped: two non-empty labels and a timestamp that ``int()`` accepts,
    from 0 to 2**63 - 1. Other lines are malformed and counted, or raise
    :class:`ParseError` naming the first one when ``strict``. Self-loop
    records are dropped and counted, and a label only they name is dropped.
    Vertex ids are the kept labels sorted by code point; arcs stay in line
    order.

    The stream is read in blocks of about 256 KiB. Lines that are records as
    they stand (no padding, ASCII, two single-byte delimiters, a timestamp
    of at most 18 digits) are parsed as whole numpy columns; a multi-byte,
    whitespace or digit delimiter turns this off. Every other line (blank,
    comment, padded, non-ASCII or malformed) goes through the per-line
    rules of ``_parse_line``. On a 2-core x86-64 VM that is about 0.6 µs
    per fast line and 2.5 µs per other line. Each block's labels are
    deduplicated by one sort of their big-endian 8-byte words, and the
    blocks' distinct labels by one more, which leaves them in byte order:
    code-point order, for UTF-8. Labels from the per-line rules are merged
    in by a string sort. Besides one block and the distinct labels, ingest
    holds 32 bytes per fast record line (two label ids, a line number and a
    timestamp) and four Python objects per other record line.
    """
    opts = options or IngestOptions()
    fast = _FastLines(opts)
    # per block: fast line numbers, label ids (sources, then targets) into
    # the block's distinct label words, and timestamps
    lines, label_ids, label_words, stamps = [], [], [], []
    # records from the per-line rules, kept as flat columns: a tuple per
    # record would be tracked by the garbage collector and rescanned
    slow_lines: list[int] = []
    slow_src: list[str] = []
    slow_tgt: list[str] = []
    slow_ts: list[int] = []
    malformed = 0
    base = 0  # lines before the current block
    for text in _blocks(stream):
        if opts.skip_header and base == 0:
            text = text[text.index("\n") + 1 :]
            base = 1
        buf = text.encode("utf-8", "surrogatepass")
        b = np.frombuffer(buf, dtype=np.uint8)
        starts, ends, rows, words, ts = fast.scan(b)
        rest = np.ones(len(ends), dtype=bool)
        rest[rows] = False
        ascii_block = len(buf) == len(text)  # byte offsets are then text offsets
        for i, lo, hi in zip(*(a[rest].tolist() for a in (np.arange(len(ends)), starts, ends))):
            raw = text[lo:hi] if ascii_block else buf[lo:hi].decode("utf-8", "surrogatepass")
            record = _parse_line(raw, opts)
            if record is None:
                if opts.strict:
                    line = raw.strip()
                    lineno = base + i + 1
                    raise ParseError(
                        f"malformed record at line {lineno}: {line!r}", line_number=lineno, line=line
                    )
                malformed += 1
            elif record:
                source, target, stamp = record
                slow_lines.append(base + i + 1)
                slow_src.append(source)
                slow_tgt.append(target)
                slow_ts.append(stamp)
        ids, distinct = _distinct_rows(words)
        lines.append(base + 1 + rows)
        label_ids.append(ids)
        label_words.append(distinct)
        stamps.append(ts)
        base += len(ends)

    # one id space over the blocks' distinct labels, in byte order
    width = max((w.shape[1] for w in label_words), default=1)
    merged, distinct = _distinct_rows(
        np.concatenate([np.zeros((0, width), dtype=np.uint64)]
                       + [np.pad(w, ((0, 0), (0, width - w.shape[1]))) for w in label_words])
    )
    # fast labels are ASCII without NUL bytes, so zero padding ends each one
    names = np.ascontiguousarray(distinct, dtype=">u8").view(f"S{8 * width}").ravel().astype(str).tolist()
    offsets = np.cumsum([0] + [len(w) for w in label_words])
    ids = [merged[offset + block] for offset, block in zip(offsets.tolist(), label_ids)]
    src = np.concatenate([np.zeros(0, dtype=_INT)] + [a[: len(a) // 2] for a in ids])
    tgt = np.concatenate([np.zeros(0, dtype=_INT)] + [a[len(a) // 2 :] for a in ids])
    ts = np.concatenate([np.zeros(0, dtype=_INT)] + stamps)
    if slow_lines:
        names, remap, (src_ids, tgt_ids) = _merge_labels(names, slow_src, slow_tgt)
        line_no = np.concatenate(lines + [np.asarray(slow_lines, dtype=_INT)])
        src = np.concatenate([remap[src], src_ids])
        tgt = np.concatenate([remap[tgt], tgt_ids])
        ts = np.concatenate([ts, np.asarray(slow_ts, dtype=_INT)])
        # back to line order
        order = np.argsort(line_no, kind="stable")
        src, tgt, ts = src[order], tgt[order], ts[order]
    return _edge_set(names, src, tgt, ts, malformed)


# Output bytes write_edge_list assembles at a time. Its largest temporaries
# are int64 byte offsets, eight per output byte: 2 MiB, below the 4 MiB at
# which arrays start to pick up transparent-huge-page RSS.
_WRITE_CHUNK = 1 << 18
# 10**1 .. 10**18: a timestamp has one digit more than the powers it reaches
_POW10 = 10 ** np.arange(1, 19, dtype=_INT)


def write_edge_list(stream: TextIO, edges: TemporalEdgeSet, delimiter: str = ",") -> None:
    """Serialize arcs as ``source,target,timestamp`` lines (inverse of ingest).

    The text is exactly ``f"{source}{delimiter}{target}{delimiter}{stamp}\\n"``
    per arc, in arc order. It is assembled as UTF-8 bytes in numpy about
    256 KiB at a time (label bytes copied from a per-id table, decimal
    digits from the timestamps) and written as text, so any label or
    delimiter, lone surrogates included, comes out as that f-string would
    give it.
    """
    encoded = [label.encode("utf-8", "surrogatepass") for label in edges.labels]
    lengths = np.fromiter(map(len, encoded), dtype=_INT, count=len(encoded))
    table = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    offsets = np.cumsum(lengths) - lengths
    delim = delimiter.encode("utf-8", "surrogatepass")
    fixed = 2 * len(delim) + 1  # two delimiters and the newline
    # rows per chunk: as many as fit if labels are of average length and
    # stamps have all 19 digits; a chunk of longer rows is cut to fit
    rows = max(1, _WRITE_CHUNK // (2 * len(table) // max(1, len(lengths)) + fixed + 19))
    start = 0
    while start < edges.n_arcs:
        s = edges.sources[start : start + rows]
        t = edges.targets[start : start + rows]
        stamps = edges.timestamps[start : start + rows]
        ls, lt = lengths[s], lengths[t]
        digits = 1 + np.searchsorted(_POW10, stamps, side="right")
        ends = np.cumsum(ls + lt + digits + fixed)
        take = max(1, int(np.searchsorted(ends, _WRITE_CHUNK, side="right")))
        if take < len(s):
            s, t, stamps, ls, lt, digits, ends = (a[:take] for a in (s, t, stamps, ls, lt, digits, ends))
        start += len(s)

        out = np.empty(int(ends[-1]), dtype=np.uint8)
        first = ends - (ls + lt + digits + fixed)
        second = first + ls + len(delim)
        _copy_segments(out, np.concatenate([first, second]), table,
                       np.concatenate([offsets[s], offsets[t]]), np.concatenate([ls, lt]))
        for k, byte in enumerate(delim):
            out[second - len(delim) + k] = byte
            out[second + lt + k] = byte
        last = ends - 2  # the timestamp's last digit
        rest = stamps.copy()
        for power in range(int(digits.max())):
            here = np.flatnonzero(digits > power)
            out[last[here] - power] = ord("0") + rest[here] % 10
            rest //= 10
        out[ends - 1] = _NEWLINE
        stream.write(out.tobytes().decode("utf-8", "surrogatepass"))


def _copy_segments(out: np.ndarray, at: np.ndarray, source: np.ndarray,
                   start: np.ndarray, length: np.ndarray) -> None:
    """``out[at[r]:at[r] + length[r]] = source[start[r]:start[r] + length[r]]`` for every r."""
    total = int(length.sum())
    base = np.cumsum(length) - length  # each segment's place in the flat copy
    flat = np.arange(total, dtype=_INT)
    out[np.repeat(at - base, length) + flat] = source[np.repeat(start - base, length) + flat]


def exclude_interval(edges: TemporalEdgeSet, start: int, end: int) -> TemporalEdgeSet:
    """Drop arcs with timestamp in [start, end), keeping the vertex universe intact."""
    if start >= end:
        raise ValueError(f"exclusion start {start} must precede end {end}")
    keep = (edges.timestamps < start) | (edges.timestamps >= end)
    return TemporalEdgeSet(
        sources=edges.sources[keep].copy(),
        targets=edges.targets[keep].copy(),
        timestamps=edges.timestamps[keep].copy(),
        labels=edges.labels,
        label_ids=edges.label_ids,
        dropped_self_loops=edges.dropped_self_loops,
        malformed_lines=edges.malformed_lines,
    )


def _distinct_keys(keys: np.ndarray, return_counts: bool = False):
    """Sorted distinct values of an int64 array, like ``np.unique``.

    For edge keys ``u * n + v`` the sorted order is CSR row order. ``np.sort``
    plus a ``not_equal`` pass is used because plain ``np.unique`` on int64
    takes a hash-based path that is tens of times slower. With
    ``return_counts`` it also returns how often each distinct key occurs.
    """
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if not return_counts:
        return keys[first]
    return keys[first], np.diff(np.flatnonzero(first), append=len(keys))


def _indptr(n: int, rows: np.ndarray) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=_INT)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _directed(n: int, src: np.ndarray, dst: np.ndarray) -> DirectedGraph:
    uniq, counts = _distinct_keys(src * np.int64(n) + dst, return_counts=True)
    return DirectedGraph(n=n, indptr=_indptr(n, uniq // n), indices=uniq % n, multiplicity=counts)


def _undirected(n: int, u: np.ndarray, v: np.ndarray) -> UndirectedView:
    # both orientations of every pair: once deduplicated, each edge is one
    # key per CSR row it belongs to, so the view needs no second sort
    n64 = np.int64(n)
    uniq = _distinct_keys(np.concatenate([u * n64 + v, v * n64 + u]))
    return UndirectedView(n=n, indptr=_indptr(n, uniq // n), indices=uniq % n, m=len(uniq) // 2)


def _checked_pairs(n: int, pairs: Iterable[tuple[int, int]], what: str) -> np.ndarray:
    a = np.asarray(list(pairs), dtype=_INT).reshape(-1, 2)
    if len(a) and (a.min() < 0 or a.max() >= n):
        raise ValueError(f"{what} endpoint out of range")
    if np.any(a[:, 0] == a[:, 1]):
        raise ValueError("self-loops are not allowed")
    return a


def build_directed_graph(edges: TemporalEdgeSet) -> DirectedGraph:
    """Deduplicated directed graph over all arcs.

    The vertex universe is the full label index, so a vertex without arcs
    stays as an isolated vertex and ids match the edge set's.
    """
    return _directed(edges.n_vertices, edges.sources, edges.targets)


def directed_from_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> DirectedGraph:
    """Directed graph from (source, target) id pairs; duplicates collapse."""
    a = _checked_pairs(n, arcs, "arc")
    return _directed(n, a[:, 0], a[:, 1])


def undirected_from_edges(n: int, edge_list: Iterable[tuple[int, int]]) -> UndirectedView:
    """Undirected view from unordered vertex-id pairs; duplicates collapse."""
    a = _checked_pairs(n, edge_list, "edge")
    return _undirected(n, a[:, 0], a[:, 1])


def underlying_undirected(g: DirectedGraph) -> UndirectedView:
    """Collapse arcs to undirected edges: one edge per unordered adjacent pair."""
    return _undirected(g.n, g.arc_sources(), g.indices)


def window_label(start: int, granularity: int) -> str:
    """Human label for a window: UTC date for day-multiple granularities."""
    dt = datetime.fromtimestamp(start, tz=timezone.utc)
    if granularity % 86400 == 0:
        return dt.strftime("%Y-%m-%d")
    return dt.strftime("%Y-%m-%dT%H:%M:%S")


def slice_windows(edges: TemporalEdgeSet, granularity: int, origin: int = 0) -> list[TimeWindow]:
    """Consecutive equal-length windows aligned to ``origin`` covering all arcs.

    Returns an empty list for an empty edge set. The origin lets "day"
    boundaries match any timezone convention.
    """
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    span = edges.time_span()
    if span is None:
        return []
    tmin, tmax = span
    first = origin + ((tmin - origin) // granularity) * granularity
    windows = []
    start = first
    while start <= tmax:
        windows.append(TimeWindow(start=start, end=start + granularity, label=window_label(start, granularity)))
        start += granularity
    return windows


def induced_subgraph(g: DirectedGraph, vertices: Iterable[int]) -> tuple[DirectedGraph, np.ndarray]:
    """Subgraph on ``vertices`` with arcs whose endpoints both lie in the set.

    Ids are re-indexed densely; the second return value maps local id ->
    original id (sorted ascending), making the re-indexing recoverable.
    """
    ids = _distinct_keys(np.asarray(list(vertices), dtype=_INT))
    if len(ids) and (ids[0] < 0 or ids[-1] >= g.n):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise ValueError(f"vertex id {bad} out of range for graph with n={g.n}")
    lookup = np.full(g.n, -1, dtype=_INT)
    lookup[ids] = np.arange(len(ids), dtype=_INT)
    src = lookup[g.arc_sources()]
    dst = lookup[g.indices]
    keep = (src >= 0) & (dst >= 0)
    k = len(ids)
    # lookup is increasing, so the kept arcs stay in (source, target) order
    # and their keys are already distinct: no sort, and multiplicities carry over
    src, dst = src[keep], dst[keep]
    sub = DirectedGraph(n=k, indptr=_indptr(k, src), indices=dst, multiplicity=g.multiplicity[keep])
    return sub, ids
