"""Results depend on the graph, not on how its edge file is written.

Vertex ids are the sorted labels, so the whole pipeline (ingest,
`communities`, `polarization` over the partition `communities` wrote, and
`dominate`) gives the same bytes whatever the line order, and an
order-preserving rename of the labels changes only the labels it prints.
Reversing every arc leaves the undirected view, and so `communities` and
`polarization`, unchanged. Writing every line twice changes only the counts
`ingest-check` prints, and shifting every timestamp and the window origin by
whole windows moves only the times and window labels the pipeline prints.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polarnet.cli import main
from polarnet.graph import ingest_edge_list

# ASCII labels take the vector path, "é" the per-line one; labels hold no
# delimiter, whitespace or "#", so they are written as they stand
_LABEL = st.text(st.sampled_from("abAB09_é"), min_size=1, max_size=10)

DOMINATE_RUNS = (
    ["--mode", "unrestricted", "--rho", "0.5", "--rho", "1.0"],
    ["--mode", "network-by-group", "--groups", "0", "--rho", "0.9"],
    ["--mode", "in-group", "--groups", "0", "--rho", "0.7"],
    ["--mode", "unrestricted", "--curve", "--max-spreaders", "4"],
    ["--mode", "in-group", "--groups", "0", "--curve", "--max-spreaders", "4"],
)
_HOUR = 3600


@st.composite
def edge_files(draw):
    """(labels, records): records are (source, target, stamp) index triples,
    self-loops and repeated arcs included, over five hours."""
    labels = draw(st.lists(_LABEL, min_size=2, max_size=14, unique=True))
    vertex = st.integers(0, len(labels) - 1)
    records = draw(st.lists(st.tuples(vertex, vertex, st.integers(0, 5 * 3600 - 1)), min_size=1, max_size=40))
    assume(any(s != t for s, t, _ in records))
    return labels, records


def _text(labels, records) -> str:
    return "".join(f"{labels[s]},{labels[t]},{stamp}\n" for s, t, stamp in records)


def _run(work: Path, argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


def _pipeline(work: Path, text: str, dominate: bool = True, origin: int = 0) -> dict[str, object]:
    """Every output of the pipeline over ``text``, run in ``work``: the same
    paths every time, so the configuration the reports echo is the same.
    Windows are hours from ``origin``."""
    edges, partition = work / "edges.csv", work / "partition.csv"
    edges.write_text(text, encoding="utf-8")
    if partition.exists():
        partition.unlink()
    out = {"ingest": _run(work, ["ingest-check", "--input", str(edges)]),
           "communities": _run(work, ["communities", "--input", str(edges), "--out", str(partition),
                                      "--seed", "3"])}
    out["partition"] = partition.read_text(encoding="utf-8")
    out["polarization"] = _run(work, ["polarization", "--input", str(edges), "--partition", str(partition),
                                      "--window-seconds", str(_HOUR), "--window-origin", str(origin),
                                      "--groups", "0", "--format", "json"])
    if dominate:
        for n, args in enumerate(DOMINATE_RUNS):
            out[f"dominate {n}"] = _run(work, ["dominate", "--input", str(edges),
                                               "--partition", str(partition), *args, "--format", "csv"])
    return out


def _groups(partition_text: str) -> set[frozenset[str]]:
    """A partition file's groups, as sets of labels."""
    groups: dict[str, set[str]] = {}
    for line in partition_text.splitlines():
        label, group = line.rsplit(",", 1)
        groups.setdefault(group, set()).add(label)
    return {frozenset(members) for members in groups.values()}


def _run_both(first: str, second: str, dominate: bool = True, origins: tuple[int, int] = (0, 0)):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        return _pipeline(work, first, dominate, origins[0]), _pipeline(work, second, dominate, origins[1])


@settings(max_examples=60)
@given(edge_files(), st.data())
def test_line_order_changes_no_result(graph, data):
    labels, records = graph
    shuffled = data.draw(st.permutations(records))
    edges, again = (ingest_edge_list(io.StringIO(_text(labels, r))) for r in (records, shuffled))
    assert (again.labels, again.dropped_self_loops) == (edges.labels, edges.dropped_self_loops)
    assert sorted(zip(again.sources.tolist(), again.targets.tolist(), again.timestamps.tolist())) == sorted(
        zip(edges.sources.tolist(), edges.targets.tolist(), edges.timestamps.tolist()))
    before, after = _run_both(_text(labels, records), _text(labels, shuffled))
    assert _groups(after.pop("partition")) == _groups(before.pop("partition"))
    assert after == before


@settings(max_examples=40)
@given(edge_files())
def test_reversed_arcs_keep_communities_and_report(graph):
    labels, records = graph
    reversed_records = [(t, s, stamp) for s, t, stamp in records]
    before, after = _run_both(_text(labels, records), _text(labels, reversed_records), dominate=False)
    assert _groups(after["partition"]) == _groups(before["partition"])
    assert after["communities"] == before["communities"]
    assert after["polarization"] == before["polarization"]


@settings(max_examples=40)
@given(edge_files(), st.data())
def test_order_preserving_rename_changes_only_labels(graph, data):
    labels, records = graph
    renamed = sorted(data.draw(st.lists(_LABEL, min_size=len(labels), max_size=len(labels), unique=True)))
    rename = dict(zip(sorted(labels), renamed))
    new_labels = [rename[label] for label in labels]
    before, after = _run_both(_text(labels, records), _text(new_labels, records))
    # partition rows and dominate CSV rows name vertices in their first and
    # second fields; everything else is the same bytes
    expected = dict(before)
    expected["partition"] = "".join(
        f"{rename[label]},{group}\n"
        for label, group in (line.rsplit(",", 1) for line in before["partition"].splitlines()))
    for name in [name for name in before if name.startswith("dominate")]:
        code, text = before[name]
        rows = [line.split(",") for line in text.splitlines()]
        expected[name] = (code, "".join(
            ",".join([row[0], rename[row[1]], *row[2:]] if len(row) == 4 and row[0].isdigit() else row) + "\n"
            for row in rows))
    assert after == expected


@settings(max_examples=40)
@given(edge_files(), st.lists(st.sampled_from(["broken\n", "p,q,soon\n", "a,b,c,d\n"]), max_size=3))
def test_duplicated_lines_change_only_ingest_counts(graph, malformed):
    labels, records = graph
    text = _text(labels, records) + "".join(malformed)
    doubled = "".join(line * 2 for line in text.splitlines(keepends=True))
    before, after = _run_both(text, doubled)
    # arcs are deduplicated before every analysis; ingest-check counts lines
    code, report = before.pop("ingest")
    counted = ("arcs", "self-loops dropped", "malformed lines")
    assert after.pop("ingest") == (code, "".join(
        f"{name}: {2 * int(value)}\n" if name in counted else f"{name}: {value}\n"
        for name, value in (line.split(": ", 1) for line in report.splitlines())))
    assert after == before


@settings(max_examples=40)
@given(edge_files(), st.integers(0, _HOUR - 1), st.integers(0, 2_000_000))
def test_time_shift_by_whole_windows_moves_only_times_and_labels(graph, origin, hours):
    # up to about 7.2e9 s, so stamps take one or two ten-digit words
    labels, records = graph
    shift = hours * _HOUR
    shifted = [(s, t, stamp + shift) for s, t, stamp in records]
    before, after = _run_both(_text(labels, records), _text(labels, shifted), origins=(origin, origin + shift))

    code, report = before.pop("ingest")
    first, _, last = report.splitlines()[-1].removeprefix("time span: ").partition(" .. ")
    report = report.replace(f"time span: {first} .. {last}", f"time span: {int(first) + shift} .. {int(last) + shift}")
    assert after.pop("ingest") == (code, report)

    code, text = before.pop("polarization")
    doc = json.loads(text)
    doc["config"]["window_origin"] = origin + shift
    for window in doc["windows"]:
        start = datetime.fromisoformat(window["label"]) + timedelta(seconds=shift)
        window["label"] = start.strftime("%Y-%m-%dT%H:%M:%S")
    after_code, after_text = after.pop("polarization")
    assert (after_code, json.loads(after_text)) == (code, doc)
    assert after == before
