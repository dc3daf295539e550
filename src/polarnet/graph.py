"""Interaction-graph core: edge-list ingestion, temporal windowing, graph views.

Arcs are directed along information flow (content author -> resharing user).
All graph types are immutable after construction (their numpy buffers are
marked read-only), so they can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import ParseError

_INT = np.int64


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class IngestOptions:
    """How :func:`ingest_edge_list` reads a file: the CLI's ``--delimiter``,
    ``--header`` and ``--strict`` flags.

    Raises ValueError for an empty delimiter, which cannot split a line, or
    one holding a line break, which ends the line before any field does.
    """

    delimiter: str = ","
    skip_header: bool = False
    strict: bool = False

    def __post_init__(self):
        if not self.delimiter:
            raise ValueError("delimiter must not be empty")
        if "\n" in self.delimiter or "\r" in self.delimiter:
            raise ValueError(f"delimiter {self.delimiter!r} holds a line break")


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
    """Raw timestamped arcs over dense vertex ids.

    ``sources``/``targets`` hold dense vertex ids and ``labels[i]`` is the
    distinct external label of vertex ``i``. Ingest and :meth:`from_arcs`
    sort the labels by code point, so there a label's id is its place in
    ``labels``. ``dropped_self_loops`` and ``malformed_lines`` carry
    ingestion counters.
    """

    sources: np.ndarray
    targets: np.ndarray
    timestamps: np.ndarray
    labels: tuple[str, ...]
    dropped_self_loops: int = 0
    malformed_lines: int = 0

    def __post_init__(self):
        n = len(self.labels)
        if not (len(self.sources) == len(self.targets) == len(self.timestamps)):
            raise ValueError("sources, targets and timestamps must have equal length")
        if len(set(self.labels)) != n:
            raise ValueError("vertex labels must be distinct")
        if len(self.sources) > 0:
            lowest = min(self.sources.min(), self.targets.min())
            if lowest < 0 or max(self.sources.max(), self.targets.max()) >= n:
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

    Repeated interactions of one ordered pair are one arc: no measure here
    weights arcs.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        if len(self.indptr) != self.n + 1:
            raise ValueError("indptr length must be n + 1")
        for a in (self.indptr, self.indices):
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
        return _csr_rows(self.indptr)

    @cached_property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR ``(indptr, indices)`` of the reversed arcs, built once.

        Row w lists the sources of the arcs into w in ascending order. The
        arcs are already distinct, so one sort of the keys ``w * n + u``
        (int32 when they fit, see ``_pair_keys``) orders them and no dedup
        or count pass is needed.
        """
        keys = _pair_keys(self.n, self.indices, self.arc_sources())
        keys.sort()
        indptr, indices = _key_csr(self.n, keys)
        return _readonly(indptr), _readonly(indices)


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
        rows = _csr_rows(self.indptr)
        keep = rows < self.indices
        return np.column_stack([rows[keep], self.indices[keep]])


# Text characters ingest reads per block: about 256 KiB of ASCII. Blocks of
# 1 MiB page-faulted twice as much fresh memory per call for their numpy
# temporaries, and spent twice the system time doing it.
_BLOCK_CHARS = 1 << 18
# A fast timestamp is read from two 8-byte words, and 16 digits stay below
# 2**63, so it never overflows int64.
_FAST_DIGITS = 16
_INT64_MAX = int(np.iinfo(_INT).max)
# _WORD_MASKS[k] keeps the low k bytes of a little-endian uint64 word, and
# _TOP_MASKS[k] its high k bytes
_WORD_MASKS = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)
_TOP_MASKS = ~_WORD_MASKS[::-1]
_NEWLINE = ord("\n")
# a line whose stripped text starts with this is a comment
_COMMENT = "#"
# The zero bytes around a block's text in its padded copy: a timestamp's
# two words start up to 16 bytes before its newline, and a label word may
# start at any byte of the text.
_FRONT = bytes(16)
_BACK = bytes(7)
# "0", 0x76 and 0x80 in every byte of a word
_ZERO_DIGITS, _PLUS_118, _HIGH_BITS = (np.uint64(byte * 0x0101010101010101) for byte in (0x30, 0x76, 0x80))
# (multiplier, shift, mask) of each step that merges pairs of decimal fields
_MERGES = tuple((np.uint64(10**k), np.uint64(8 * k), np.uint64(mask)) for k, mask in (
    (1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0x00000000FFFFFFFF)))


def _parse_line(raw: str, opts: IngestOptions) -> tuple[str, str, int] | tuple[()] | None:
    """The record rules for one line, as ingest applies them.

    Returns ``()`` for a blank or comment line, ``None`` for a malformed
    line, else the record's (source, target, timestamp).
    """
    line = raw.strip()
    if not line or line.startswith(_COMMENT):
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


def _blocks(stream: TextIO) -> Iterator[str]:
    """The stream's text in blocks of whole ``\\n``-terminated lines.

    A missing final newline is supplied, so every block ends with one.
    """
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


def _decimal_words(words: np.ndarray, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The number that the last ``digits[i]`` (0 to 8) bytes of little-endian
    word ``words[i]`` spell in decimal, all eight at once; and a mask that is
    nonzero where one of those bytes is not an ASCII digit.

    The caller passes bytes below 0x80, so adding 0x76 to a byte sets its
    high bit exactly when it is 10 or more and never carries.
    """
    v = words ^ _ZERO_DIGITS
    v &= _TOP_MASKS[digits]
    bad = v + _PLUS_118
    bad |= v
    bad &= _HIGH_BITS
    # the lower byte holds the higher digit: merge digits into pairs, pairs
    # into fours, fours into eights
    for multiplier, shift, mask in _MERGES:
        high = v >> shift
        v *= multiplier
        v += high
        v &= mask
    return v, bad


class _FastLines:
    """Vector parse of the lines of a block that need none of the per-line rules.

    A line is fast when its only bytes that are a delimiter, ASCII
    whitespace or control (<= 0x20, 0x7F) or non-ASCII (>= 0x80) are
    delimiter, delimiter, newline; both labels are non-empty; it does not
    start with ``#``; and its timestamp is 1 to 16 ASCII digits. Such a
    line is a valid record as it stands, with no stripping.
    """

    def __init__(self, opts: IngestOptions):
        d = opts.delimiter
        # a digit delimiter could split a timestamp, and a multi-byte or
        # whitespace one is not a single special byte: per-line path only
        single = len(d) == 1 and 0x21 <= ord(d) <= 0x7E and not d.isdigit()
        self.delimiter = ord(d) if single else -1
        self.enabled = single

    def scan(self, padded: np.ndarray, width: int):
        """Split a block of whole lines and parse its fast lines.

        ``padded`` is the block's bytes between ``_FRONT`` and ``_BACK``.
        Returns the lines' start and end (newline) offsets in the block,
        the indices of the fast lines, their label words (sources, then
        targets; at least ``width`` words each) and their timestamps.
        """
        front = len(_FRONT)
        b = padded[front : len(padded) - len(_BACK)]
        if not self.enabled:
            ends = np.flatnonzero(b == _NEWLINE)
            none = np.empty(0, dtype=_INT)
            return _starts(ends), ends, none, np.zeros((width, 0), dtype=np.uint64), none
        # bytes <= 0x20 or >= 0x7F wrap to >= 0x5E after subtracting 0x21
        special = np.flatnonzero((b - np.uint8(0x21) >= 0x5E) | (b == self.delimiter))
        kinds = b[special]
        k = np.flatnonzero(kinds == _NEWLINE)  # one per line, in line order
        ends = special[k]
        starts = _starts(ends)
        rows = np.flatnonzero(np.diff(k, prepend=-1) == 3)
        k = k[rows]
        s, d1, d2, e = starts[rows], special[k - 2], special[k - 1], ends[rows]
        # the lengths of the two labels and of the timestamp
        n1, n2, digits = d1 - s, d2 - d1 - 1, e - d2 - 1

        # the little-endian uint64 that starts at each byte of the padded block
        view = np.ndarray((len(padded) - len(_BACK),), dtype="<u8", buffer=padded, strides=(1,))
        # the 8 bytes that end at the newline hold the last 8 digits
        stamps, bad = _decimal_words(view[e + (front - 8)], np.minimum(digits, 8))
        # the 8 bytes before them hold digits 9 to 16, on the lines that have them
        long = np.flatnonzero(digits > 8)
        if len(long):
            high, high_bad = _decimal_words(view[e[long] + (front - 16)], np.minimum(digits[long] - 8, 8))
            stamps[long] += high * np.uint64(10**8)
            bad[long] |= high_bad
        ok = (
            (kinds[k - 2] == self.delimiter) & (kinds[k - 1] == self.delimiter)
            & (n1 > 0) & (n2 > 0) & (digits > 0) & (digits <= _FAST_DIGITS) & (bad == 0)
        )
        ok &= b[s] != ord(_COMMENT)
        rows, s, d1, n1, n2, stamps = rows[ok], s[ok], d1[ok], n1[ok], n2[ok], stamps[ok]
        words = _label_words(view, np.concatenate([s + front, d1 + (front + 1)]),
                             np.concatenate([n1, n2]), width)
        return starts, ends, rows, words, stamps.view(_INT)


def _starts(ends: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], ends + 1])[:-1]


def _label_words(view: np.ndarray, start: np.ndarray, length: np.ndarray, width: int) -> np.ndarray:
    """The byte strings ``length[i]`` bytes long at ``start[i]`` in the buffer
    of ``view`` (the uint64 at every byte offset, see ``_FastLines.scan``)
    as columns of little-endian uint64 words, zero-padded: row ``j`` holds
    bytes ``8j`` to ``8j + 7`` of every string. There are ``width`` rows, or
    more if the longest string needs them.
    """
    needed = -(-int(length.max(initial=0)) // 8)
    words = np.zeros((max(width, needed), len(start)), dtype=np.uint64)
    if needed:
        np.bitwise_and(view[start], _WORD_MASKS[np.minimum(length, 8)], out=words[0])
    last = len(view) - 1
    for j in range(1, needed):
        rest = np.clip(length - 8 * j, 0, 8)
        np.bitwise_and(view[np.minimum(start + 8 * j, last)], _WORD_MASKS[rest], out=words[j])
    return words


def _distinct_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense id of every column of label words (equal columns, equal ids),
    and the distinct columns in id order."""
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words)
    ordered = words[:, order]
    new = np.ones(len(order), dtype=bool)
    if len(words) == 1:
        np.not_equal(ordered[0, 1:], ordered[0, :-1], out=new[1:])
    else:
        new[1:] = np.any(ordered[:, 1:] != ordered[:, :-1], axis=0)
    ids = np.empty(len(order), dtype=_INT)
    ids[order] = np.cumsum(new) - 1
    return ids, ordered[:, new]


class _LabelTable:
    """The distinct labels of the fast lines read so far, as columns of label
    words (see :func:`_label_words`), found through an open-addressing hash
    table with linear probing. A label's id is its column, in order of
    insertion; :meth:`in_byte_order` ranks the ids.
    """

    def __init__(self):
        self.words = np.zeros((1, 64), dtype=np.uint64)
        self.count = 0
        self.slots = np.full(64, -1, dtype=np.int32)  # id per slot, -1 when empty

    @property
    def width(self) -> int:
        return len(self.words)

    def _home(self, words: np.ndarray) -> np.ndarray:
        """The first slot each column of label words probes: the top bits of
        a multiplicative hash. A zero word adds nothing to the hash, so a
        label keeps its slot when the table widens."""
        h = np.zeros(words.shape[1], dtype=np.uint64)
        for j, word in enumerate(words):
            h += word * np.uint64(((2 * j + 1) * 0x9E3779B97F4A7C15) & (2**64 - 1))
        # fold the high half into the low one and multiply again, so that
        # labels that differ only in a few bits of a few bytes still spread
        h ^= h >> np.uint64(32)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        return (h >> np.uint64(65 - len(self.slots).bit_length())).astype(np.intp)

    def _holds(self, found: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Whether each of the ids ``found`` in slots (-1: empty) is the
        label in that column of ``words``."""
        same = found >= 0
        for j, word in enumerate(words):
            same &= self.words[j][found] == word
        return same

    def ids(self, words: np.ndarray) -> np.ndarray:
        """The id of every column of ``words`` (label words, at least as many
        rows as the table has), adding the labels the table does not hold."""
        if len(words) > self.width:
            pad = np.zeros((len(words) - self.width, self.words.shape[1]), dtype=np.uint64)
            self.words = np.concatenate([self.words, pad])
        mask = len(self.slots) - 1
        at = self._home(words)
        found = self.slots[at]
        same = self._holds(found, words)
        ids = np.where(same, found, -1)
        # the columns whose home slot holds another label walk on from there
        todo = np.flatnonzero((found >= 0) ^ same)
        at = at[todo]
        while len(todo):
            at = (at + 1) & mask
            found = self.slots[at]
            same = self._holds(found, words[:, todo])
            ids[todo[same]] = found[same]
            step = (found >= 0) ^ same
            todo, at = todo[step], at[step]
        new = np.flatnonzero(ids < 0)
        if len(new):
            fresh, distinct = _distinct_rows(words[:, new])
            ids[new] = self.count + fresh
            self._add(distinct)
        return ids

    def _add(self, distinct: np.ndarray) -> None:
        """Insert labels that the table does not hold, as the next ids."""
        old, self.count = self.count, self.count + distinct.shape[1]
        if self.count > self.words.shape[1]:
            grown = np.zeros((self.width, 1 << (self.count - 1).bit_length()), dtype=np.uint64)
            grown[:, :old] = self.words[:, :old]
            self.words = grown
        self.words[:, old : self.count] = distinct
        if 8 * self.count <= len(self.slots):
            self._place(np.arange(old, self.count, dtype=_INT))
            return
        # keep at most an eighth of the slots full, so that most labels sit
        # in their first slot: rehash every label into a larger table
        self.slots = np.full(8 << self.count.bit_length(), -1, dtype=np.int32)
        self._place(np.arange(self.count, dtype=_INT))

    def _place(self, ids: np.ndarray) -> None:
        """Put the ids of labels that no slot holds yet into free slots."""
        at = self._home(self.words[:, ids])
        while len(ids):
            free = self.slots[at] < 0
            # of the labels that reach one free slot, one write lands there
            self.slots[at[free]] = ids[free]
            lost = self.slots[at] != ids
            ids, at = ids[lost], (at[lost] + 1) & (len(self.slots) - 1)

    def in_byte_order(self) -> tuple[list[str], np.ndarray]:
        """The labels sorted by their bytes, and each id's place among them."""
        words = self.words[:, : self.count]
        # big-endian words compare as the bytes do; lexsort's last key is its primary one
        order = np.lexsort(words.byteswap()[::-1])
        rank = np.empty(self.count, dtype=_INT)
        rank[order] = np.arange(self.count, dtype=_INT)
        # fast labels are ASCII without NUL bytes, so zero padding ends each one
        names = np.ascontiguousarray(words[:, order].T).view(f"S{8 * self.width}").ravel()
        return names.astype(str).tolist(), rank


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
              malformed: int = 0, loops: int = 0) -> TemporalEdgeSet:
    """The arcs ``src[i] -> tgt[i]`` over ids into ``names`` (sorted), with
    self-loops dropped and counted on top of ``loops`` dropped before, and
    the labels no kept arc touches dropped.

    The arrays become the edge set's own when nothing is dropped."""
    kept = src != tgt
    if not kept.all():
        loops += len(kept) - int(np.count_nonzero(kept))
        src, tgt, ts = src[kept], tgt[kept], ts[kept]
    used = np.zeros(len(names), dtype=bool)
    used[src] = True
    used[tgt] = True
    if used.all():
        labels = tuple(names)
    else:
        remap = np.cumsum(used) - 1
        labels = tuple(itertools.compress(names, used.tolist()))
        src, tgt = remap[src], remap[tgt]
    return TemporalEdgeSet(
        sources=src,
        targets=tgt,
        timestamps=ts,
        labels=labels,
        dropped_self_loops=loops,
        malformed_lines=malformed,
    )


def ingest_edge_list(stream: TextIO, options: IngestOptions | None = None) -> TemporalEdgeSet:
    """Parse a delimited ``source,target,timestamp`` stream into a TemporalEdgeSet.

    ``stream`` is a text stream with ``.read()``, such as an open file or
    ``io.StringIO``; a line ends at each ``\\n`` in the text it returns.
    Each line is stripped of surrounding whitespace. Blank lines, lines
    starting with ``#`` and, with ``skip_header``, the first line are
    ignored. A record is three fields split at the delimiter and
    stripped: two non-empty labels and a timestamp that ``int()`` accepts,
    from 0 to 2**63 - 1. Other lines are malformed and counted, or raise
    :class:`ParseError` naming the first one when ``strict``. Self-loop
    records are dropped and counted, and a label only they name is dropped.
    Vertex ids are the kept labels sorted by code point; arcs stay in line
    order.

    The stream is read in blocks of about 256 KiB. Lines that are records as
    they stand (no padding, ASCII, two single-byte delimiters, a timestamp
    of at most 16 digits) are parsed as whole numpy columns, a timestamp
    from the one or two 8-byte words that end at its newline; a multi-byte,
    whitespace or digit delimiter turns this off. Every other line (blank,
    comment, padded, non-ASCII, malformed, or with a longer timestamp) goes
    through the per-line rules of ``_parse_line``. On a 2-core x86-64 VM
    that is about 0.3 µs per fast line and 2.5 µs per other line. Fast
    labels are looked up by their 8-byte words in a hash table of the
    distinct labels read so far, and only the block's new labels are
    sorted; one sort of the table by its big-endian words at the end puts
    the labels in byte order: code-point order, for UTF-8. Labels from the
    per-line rules are merged in by a string sort. Besides one block,
    ingest holds while it reads: for each distinct fast label, 8 to 16
    bytes per 8-byte word of the longest one and 32 to 64 bytes of hash
    slots; 24 bytes per fast record line (two 4-byte label ids, a line
    number and a timestamp); and four Python objects per other record line.
    """
    opts = options or IngestOptions()
    fast = _FastLines(opts)
    table = _LabelTable()
    # per block: the line numbers, source and target label ids (in the
    # table's order of insertion) and timestamps of the fast records that
    # are no self-loops
    lines, sources, targets, stamps = [], [], [], []
    loops = 0
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
        starts, ends, rows, words, ts = fast.scan(
            np.frombuffer(b"".join((_FRONT, buf, _BACK)), dtype=np.uint8), table.width)
        rest = np.ones(len(ends), dtype=bool)
        rest[rows] = False
        rest = np.flatnonzero(rest)
        ascii_block = len(buf) == len(text)  # byte offsets are then text offsets
        for i, lo, hi in zip(rest.tolist(), starts[rest].tolist(), ends[rest].tolist()):
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
        ids = table.ids(words)
        src, tgt = ids[: len(rows)], ids[len(rows) :]
        kept = src != tgt
        if not kept.all():
            loops += len(kept) - int(np.count_nonzero(kept))
            rows, src, tgt, ts = rows[kept], src[kept], tgt[kept], ts[kept]
        lines.append(base + 1 + rows)
        sources.append(src)
        targets.append(tgt)
        stamps.append(ts)
        base += len(ends)

    names, rank = table.in_byte_order()
    none = [np.zeros(0, dtype=_INT)]
    src = np.concatenate(none + [rank[a] for a in sources])
    tgt = np.concatenate(none + [rank[a] for a in targets])
    ts = np.concatenate(none + stamps)
    if slow_lines:
        names, remap, (src_ids, tgt_ids) = _merge_labels(names, slow_src, slow_tgt)
        line_no = np.concatenate(lines + [np.asarray(slow_lines, dtype=_INT)])
        src = np.concatenate([remap[src], src_ids])
        tgt = np.concatenate([remap[tgt], tgt_ids])
        ts = np.concatenate([ts, np.asarray(slow_ts, dtype=_INT)])
        # back to line order
        order = np.argsort(line_no, kind="stable")
        src, tgt, ts = src[order], tgt[order], ts[order]
    return _edge_set(names, src, tgt, ts, malformed, loops)


# Padded bytes write_edge_list assembles at a time. Its block, the block's
# bytes and the compacted bytes are each at most this size, their text at
# most four times it (four bytes a character once one needs them), and its
# per-row columns a third of it: all below the 4 MiB at which arrays start
# to pick up transparent-huge-page RSS. 128 KiB to 512 KiB wrote the
# dense-daily null-model file equally fast; 2 MiB was slower.
_WRITE_CHUNK = 1 << 18
# the byte that pads label fields and leads short timestamps; UTF-8 never
# emits it, lone surrogates under "surrogatepass" included
_PAD = 0xFF


def _digit_cells(digits: int, tail: bytes = b"", keep_last: bool = False) -> np.ndarray:
    """Each v below 10**digits as a little-endian uint32 cell: its decimal
    digits, then ``tail``. Entry v leads the digits with 0xFF in place of
    zeros (0 is all 0xFF unless ``keep_last``); entry 10**digits + v keeps
    the zeros."""
    count = 10**digits
    padded = np.indices((10,) * digits, dtype=np.uint8).reshape(digits, count) + np.uint8(ord("0"))
    places = 10 ** np.arange(digits - 1, -1, -1)
    if keep_last:
        places[-1] = 0
    led = np.where(np.arange(count) < places[:, None], np.uint8(_PAD), padded)
    ways = np.stack([led, padded])  # way, byte, value
    ends = np.broadcast_to(np.frombuffer(tail, dtype=np.uint8)[:, None], (2, len(tail), count))
    return np.concatenate([ways, ends], axis=1).transpose(0, 2, 1).copy().view("<u4").ravel()


# the four digits of a stamp's every cell but the last; the last holds
# three digits and the newline
_FOURS = _digit_cells(4)
_LAST = _digit_cells(3, b"\n", keep_last=True)
_COMMA = ord(",")
_PAD_BYTE = bytes([_PAD])


def write_edge_list(stream: TextIO, edges: TemporalEdgeSet) -> None:
    """Serialize arcs as ``source,target,timestamp`` lines that ingest reads
    back as the same labels, arcs and timestamps.

    The text is exactly ``f"{source},{target},{stamp}\\n"`` per arc, in arc
    order, written in chunks. A label ingest would not read back as the
    same field is refused with ValueError before anything is written: an
    empty label, one with surrounding whitespace (which ingest strips), one
    holding ``\\n`` or ``\\r`` (which end a line when the file is read with
    universal newlines) or ``,`` (which splits a field), and, as a source,
    one starting with ``#`` (which makes the line a comment).

    Each label is encoded once, as its UTF-8 bytes (lone surrogates
    included) and a comma, padded with 0xFF to W 8-byte words, where W
    fits the longest label. A chunk of arcs is a block of fixed-width rows:
    the source's W words and the target's W words, each taken from that
    table by one ``np.take`` per chunk, then S words holding the
    timestamp's digits right-aligned before a newline, led by 0xFF (S is 1
    up to 7 digits, 2 up to 15 and 3 beyond, for the largest stamp). UTF-8
    never emits 0xFF, so dropping every 0xFF byte of the block in one pass
    leaves the chunk's text. A chunk holds about 256 KiB of block.

    So each arc costs 8·(2W + S) bytes of block: on a 2-core x86-64 VM,
    about 30 ns per arc plus 1 ns per block byte. Labels of up to 15 bytes
    (Twitter handles) give W ≤ 2 and 19-digit numeric ids W = 3. The
    longest label sets W for every row, which limits the layout to short
    labels. A 508k-arc file of labels ``v0`` .. ``v2999`` (W = S = 1) took
    23 ms, a third of the time of copying each arc's label bytes one by
    one; with one label renamed to 16, 24, 64 or 200 bytes it took 0.8,
    0.8, 1.5 and 4 times as long as that copy. Besides a chunk, the writer
    holds 8·W bytes per label.
    """
    table = _field_table(edges)
    words = table.shape[1]
    stamp_words = (len(str(edges.timestamps.max(initial=0))) + 8) // 8
    rows = max(1, _WRITE_CHUNK // (8 * (2 * words + stamp_words)))
    for start in range(0, edges.n_arcs, rows):
        s = edges.sources[start : start + rows]
        block = np.empty((len(s), 2 * words + stamp_words), dtype="<u8")
        np.take(table, s, axis=0, out=block[:, :words])
        np.take(table, edges.targets[start : start + rows], axis=0, out=block[:, words : 2 * words])
        _stamp_words(edges.timestamps[start : start + rows], block[:, 2 * words :])
        text = block.tobytes().translate(None, _PAD_BYTE)
        stream.write(text.decode("utf-8", "surrogatepass"))


def _field_table(edges: TemporalEdgeSet) -> np.ndarray:
    """Each label's UTF-8 bytes and a comma, padded with 0xFF to the words
    of the longest: one row of little-endian uint64 words per label.

    Raises ValueError naming a label ingest would not read back (see
    :func:`write_edge_list`).
    """
    labels = edges.labels
    text = ",".join([*labels, ""])  # each label and its comma
    if ("\n" in text or "\r" in text or text.count(",") != len(labels) or "" in labels
            or list(map(str.strip, labels)) != list(labels)):
        bad = next(label for label in labels
                   if not label or label != label.strip() or any(c in label for c in ",\n\r"))
        raise ValueError(f"vertex label {bad!r} cannot be read back from an edge list: "
                         "it is empty, has surrounding whitespace, or holds ',', '\\n' or '\\r'")
    fields = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    lengths = np.diff(np.flatnonzero(fields == _COMMA), prepend=-1)
    width = 8 * -(-int(lengths.max(initial=1)) // 8)
    table = np.full((len(labels), width), _PAD, dtype=np.uint8)
    table[np.arange(width) < lengths[:, None]] = fields
    if text.startswith(_COMMENT) or "," + _COMMENT in text:
        sources = np.zeros(len(labels), dtype=bool)
        sources[edges.sources] = True
        hashed = np.flatnonzero(sources & (table[:, 0] == ord(_COMMENT)))
        if len(hashed):
            raise ValueError(f"source label {labels[hashed[0]]!r} would start a comment line in an edge list")
    return table.view("<u8")


def _stamp_words(stamps: np.ndarray, out: np.ndarray) -> None:
    """Write each stamp's decimal digits, right-aligned before a newline and
    led by 0xFF bytes, into its row of ``out`` (little-endian uint64 words).

    Each word is two four-byte cells: the last cell holds a stamp's lowest
    three digits and the newline, each cell before it four digits. A cell
    keeps its leading zeros only where digits stand left of it.
    """
    cells = out.view("<u4")
    left = stamps // 1000
    cells[:, -1] = _LAST[stamps - left * 1000 + (stamps >= 1000) * 1000]
    rest = left
    for c in reversed(range(cells.shape[1] - 1)):
        left = rest // 10_000 if c else 0
        cells[:, c] = _FOURS[rest - left * 10_000 + (rest >= 10_000) * 10_000]
        rest = left


def check_interval(start: int, end: int) -> None:
    """Raise ValueError unless ``start`` precedes ``end``."""
    if start >= end:
        raise ValueError(f"exclusion start {start} must precede end {end}")


def exclude_interval(edges: TemporalEdgeSet, start: int, end: int) -> TemporalEdgeSet:
    """Drop arcs with timestamp in [start, end), keeping the vertex universe intact."""
    check_interval(start, end)
    keep = (edges.timestamps < start) | (edges.timestamps >= end)
    return TemporalEdgeSet(
        sources=edges.sources[keep],
        targets=edges.targets[keep],
        timestamps=edges.timestamps[keep],
        labels=edges.labels,
        dropped_self_loops=edges.dropped_self_loops,
        malformed_lines=edges.malformed_lines,
    )


def _csr_rows(indptr: np.ndarray) -> np.ndarray:
    """Row id (int64) of every entry of a CSR with row pointers ``indptr``."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=_INT), np.diff(indptr))


def _pair_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Keys ``u * n + v`` of vertex-id pairs, as int32 when every key of n
    vertices fits (n² < 2³¹ − 1), else as int64.

    Sorted keys are the pairs in (u, v) order. int32 keys halve the memory
    each pass over them touches: ``np.sort`` of int32 took half the time of
    int64 at 0.26M–1M keys. Every pair key is made here: the arc and edge
    keys of ``_directed`` and ``_undirected``, ``DirectedGraph.in_csr``,
    ``polarization.window_series``, the supervertex keys of
    ``community._louvain`` (n is the level's group count) and the edge keys
    of ``synth.configuration_rewire`` and ``synth._swapped``.
    """
    keys = u.astype(np.int32 if n * n < 2**31 - 1 else _INT)
    keys *= n
    keys += v
    return keys


def _key_csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)``, both int64, of sorted distinct keys
    ``u * n + v``: row u lists its v in ascending order.

    One binary search per row finds the row bounds, so no row id is
    materialised per key. The bounds ``0, n, ..., n * n`` are searched in
    the keys' own dtype, where ``n * n`` still fits, so the keys are not
    copied to a wider one.
    """
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * n)
    rows = keys // n
    rows *= n
    return indptr.astype(_INT, copy=False), np.subtract(keys, rows, dtype=_INT)


def _distinct_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, like ``np.unique``.

    For edge keys ``u * n + v`` the sorted order is CSR row order. ``np.sort``
    plus a ``not_equal`` pass is used because plain ``np.unique`` on int64
    takes a hash-based path that is tens of times slower.
    """
    keys = np.sort(keys)
    return keys[_run_firsts(keys)]


def _key_counts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of an integer array and how many times each
    occurs (int64), like ``np.unique(keys, return_counts=True)``.

    The counts are the lengths of the runs of the sorted keys, so no key is
    looked up again: ``community._louvain`` sums its level multiplicities
    this way, each edge key repeated by its multiplicity.
    """
    keys = np.sort(keys)
    starts = np.flatnonzero(_run_firsts(keys))
    return keys[starts], np.diff(starts, append=len(keys))


def _run_firsts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    first = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def _directed(n: int, src: np.ndarray, dst: np.ndarray) -> DirectedGraph:
    indptr, indices = _key_csr(n, _distinct_keys(_pair_keys(n, src, dst)))
    return DirectedGraph(n=n, indptr=indptr, indices=indices)


def _undirected(n: int, u: np.ndarray, v: np.ndarray) -> UndirectedView:
    # both orientations of every pair: once deduplicated, each edge is one
    # key per CSR row it belongs to, so the view needs no second sort
    uniq = _distinct_keys(np.concatenate([_pair_keys(n, u, v), _pair_keys(n, v, u)]))
    indptr, indices = _key_csr(n, uniq)
    return UndirectedView(n=n, indptr=indptr, indices=indices, m=len(uniq) // 2)


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


# 0001-01-01T00:00:00 UTC and 9999-12-31T23:59:59 UTC, the first and the
# last second a window label can name
FIRST_LABELLED_SECOND = -62135596800
LAST_LABELLED_SECOND = 253402300799
# 1000-01-01T00:00:00 UTC: labels of earlier seconds have years of 1-3 digits
_FIRST_FOUR_DIGIT_SECOND = -30610224000

# the most windows slice_windows builds; one TimeWindow and its label each
MAX_WINDOWS = 1_000_000


def _window_labels(starts: np.ndarray, granularity: int) -> list[str]:
    """Labels of windows starting at the ascending int64 ``starts``, all in
    one ``np.datetime_as_string`` call.

    Years keep no leading zeros, as glibc's ``strftime("%Y")`` writes them:
    numpy pads year 276 to ``0276``, so labels before year 1000 lose those
    zeros again. Labels therefore do not depend on the platform's
    ``strftime``, which pads such years on some platforms.
    """
    unit = "D" if granularity % 86400 == 0 else "s"
    labels = np.datetime_as_string(starts.astype("datetime64[s]"), unit=unit).tolist()
    early = int(np.searchsorted(starts, _FIRST_FOUR_DIGIT_SECOND))
    labels[:early] = [label.lstrip("0") for label in labels[:early]]
    return labels


def window_label(start: int, granularity: int) -> str:
    """Human label for a window: its UTC start as ``YYYY-MM-DD`` for
    day-multiple granularities, else as ``YYYY-MM-DDTHH:MM:SS``, with years
    before 1000 unpadded (``1-01-01``)."""
    return _window_labels(np.array([start], dtype=_INT), granularity)[0]


def _check_integer(value: int, name: str) -> None:
    """Raise ValueError unless ``value``, a count named ``name``, is an
    integer (a numpy one too): the rule every count check ends with, so
    that a float, infinity included, is refused once in range."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value}")


def check_granularity(granularity: int) -> None:
    """Raise ValueError unless ``granularity``, a window length in seconds, is a positive integer."""
    if not granularity > 0:
        raise ValueError(f"window length must be positive, got {granularity}")
    _check_integer(granularity, "window length")


def slice_windows(edges: TemporalEdgeSet, granularity: int, origin: int = 0) -> list[TimeWindow]:
    """Consecutive equal-length windows aligned to ``origin`` covering all arcs.

    Returns an empty list for an empty edge set. The origin lets "day"
    boundaries match any timezone convention. Raises ValueError unless
    ``granularity`` is a positive integer (``check_granularity``), when a window
    would start before ``FIRST_LABELLED_SECOND`` or past
    ``LAST_LABELLED_SECOND``, which no label can name, or when the stamps
    span more than ``MAX_WINDOWS`` windows; all three are checked before
    any window or label is built. Every label comes from one vectorised
    call (see ``window_label`` for the format).
    """
    check_granularity(granularity)
    span = edges.time_span()
    if span is None:
        return []
    tmin, tmax = span
    first = origin + ((tmin - origin) // granularity) * granularity
    last = first + ((tmax - first) // granularity) * granularity
    if first < FIRST_LABELLED_SECOND:
        raise ValueError(
            f"the window starting at {first} holds the smallest stamp {tmin}, but windows "
            f"can start at the earliest at {FIRST_LABELLED_SECOND} (0001-01-01T00:00:00 UTC)"
        )
    if last > LAST_LABELLED_SECOND:
        raise ValueError(
            f"the window starting at {last} holds the largest stamp {tmax}, but windows "
            f"can start at most at {LAST_LABELLED_SECOND} (9999-12-31T23:59:59 UTC)"
        )
    count = (last - first) // granularity + 1
    if count > MAX_WINDOWS:
        raise ValueError(
            f"stamps {tmin} .. {tmax} span {count} windows of {granularity} s, more than "
            f"{MAX_WINDOWS}; use a larger window length (--window-seconds)"
        )
    # a range of Python ints: with one window, granularity may exceed int64
    starts = np.fromiter(range(first, last + 1, granularity), dtype=_INT, count=count)
    labels = _window_labels(starts, granularity)
    return [TimeWindow(start, start + granularity, label) for start, label in zip(starts.tolist(), labels)]
