"""Command-line interface, driven in-process through main(argv), and end to
end by the dry-run script in a shell."""

from __future__ import annotations

import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polarnet import community, domination, graph, synth
from polarnet.cli import main
from polarnet.community import load_partition
from polarnet.synth import MAX_DAYS, MAX_VERTICES

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv: str) -> int:
    """main's exit code, also for an argument the parser itself refuses."""
    try:
        return main(list(argv))
    except SystemExit as stop:
        return stop.code


# the address space and the time a child run of the CLI may take
_CHILD_MEMORY = 2 << 30
_CHILD_SECONDS = 20


def run_cli_child(cwd, *argv: str) -> tuple[int, str]:
    """The exit code and stderr of ``python -m polarnet argv`` run in ``cwd``,
    in a child process capped at 2 GiB of address space and 20 s: a run that
    would allocate without a bound fails there, not in the test process."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_MEMORY, _CHILD_MEMORY))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "polarnet", *argv], cwd=cwd, env=env, preexec_fn=cap,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=_CHILD_SECONDS)
    return run.returncode, run.stderr


def write_two_triangles(path) -> None:
    """Two bidirectional triangles {a,b,c} and {d,e,f}, one arc per line."""
    rows = []
    for grp in (("a", "b", "c"), ("d", "e", "f")):
        for u in grp:
            for v in grp:
                if u != v:
                    rows.append(f"{u},{v},0")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_partition(path, mapping: dict[str, int], meta: dict[int, str] | None = None) -> None:
    lines = [f"#meta,{i},{name}" for i, name in (meta or {}).items()]
    lines += [f"{label},{i}" for label, i in mapping.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ingest-check


def test_ingest_check_summary(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    src.write_text("a,b,10\nb,a,20\na,a,30\nbroken\n", encoding="utf-8")
    assert run_cli("ingest-check", "--input", str(src)) == 0
    out = capsys.readouterr().out
    assert "vertices: 2" in out
    assert "arcs: 2" in out
    assert "self-loops dropped: 1" in out
    assert "malformed lines: 1" in out
    assert "time span: 10 .. 20" in out


def test_ingest_check_missing_file_is_io_error(tmp_path, capsys):
    assert run_cli("ingest-check", "--input", str(tmp_path / "absent.csv")) == 3
    assert "error:" in capsys.readouterr().err


def test_ingest_check_strict_rejects_malformed(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    src.write_text("a,b,10\nbroken\n", encoding="utf-8")
    assert run_cli("ingest-check", "--input", str(src), "--strict") == 3
    assert "line 2" in capsys.readouterr().err


def test_ingest_check_counts_out_of_range_timestamp(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    src.write_text("a,b,1\nb,c,99999999999999999999\n", encoding="utf-8")
    assert run_cli("ingest-check", "--input", str(src)) == 0
    out = capsys.readouterr().out
    assert "arcs: 1" in out
    assert "malformed lines: 1" in out
    assert run_cli("ingest-check", "--input", str(src), "--strict") == 3
    assert "line 2" in capsys.readouterr().err


def test_ingest_check_header_and_delimiter(tmp_path, capsys):
    src = tmp_path / "edges.tsv"
    src.write_text("src\ttgt\tts\na\tb\t5\n", encoding="utf-8")
    assert run_cli("ingest-check", "--input", str(src),
                   "--delimiter", "\t", "--header") == 0
    assert "arcs: 1" in capsys.readouterr().out


def test_ingest_check_skips_a_byte_order_mark(tmp_path, capsys):
    # spreadsheet "CSV UTF-8" exports start with one
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("a,b,1\nb,a,2\n", encoding="utf-8")
    marked.write_text("\ufeffa,b,1\nb,a,2\n", encoding="utf-8")
    assert run_cli("ingest-check", "--input", str(plain)) == 0
    want = capsys.readouterr().out
    assert run_cli("ingest-check", "--input", str(marked)) == 0
    assert capsys.readouterr().out == want
    assert "vertices: 2" in want


def test_polarization_skips_a_byte_order_mark_in_the_partition_file(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_partition(plain, {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1})
    marked.write_text("\ufeff" + plain.read_text(encoding="utf-8"), encoding="utf-8")
    assert run_cli("polarization", "--input", str(src), "--partition", str(plain)) == 0
    want = capsys.readouterr().out
    assert run_cli("polarization", "--input", str(src), "--partition", str(marked)) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("flag", ["--input", "--partition"])
def test_a_file_that_is_not_utf8_is_a_format_error_naming_it(tmp_path, capsys, flag):
    src = tmp_path / "edges.csv"
    src.write_text("a,b,1\nb,c,2\n", encoding="utf-8")
    part_file = tmp_path / "part.csv"
    part_file.write_text("a,0\nb,0\nc,1\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"a,b,1\nb,caf\xe9,2\n" if flag == "--input" else b"a,0\nb,0\ncaf\xe9,1\n")
    paths = {"--input": src, "--partition": part_file, flag: latin1}
    assert run_cli("polarization", "--input", str(paths["--input"]), "--partition", str(paths["--partition"])) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"error: {latin1} is not UTF-8 text" in err


# communities


def test_communities_two_triangles(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    out_file = tmp_path / "part.csv"
    assert run_cli("communities", "--input", str(src), "--out", str(out_file)) == 0
    out = capsys.readouterr().out
    assert "groups: 2" in out
    assert "modularity: 0.500000" in out
    assert out.count(": 3 vertices") == 2

    with open(out_file, encoding="utf-8") as fh:
        part = load_partition(fh, sorted("abcdef"))
    assert part.k == 2
    groups = [set("abc"), set("def")]
    labels = sorted("abcdef")
    found = [
        {labels[v] for v in part.members(0)},
        {labels[v] for v in part.members(1)},
    ]
    assert groups == found or groups == found[::-1]


def test_communities_file_loads_without_the_per_line_read(tmp_path, monkeypatch):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    part_file = tmp_path / "part.csv"
    assert run_cli("communities", "--input", str(src), "--out", str(part_file)) == 0

    def per_line_read(*args):
        raise AssertionError("partition file read line by line")

    monkeypatch.setattr(community, "_line_rows", per_line_read)
    common = ["--input", str(src), "--partition", str(part_file)]
    assert run_cli("polarization", *common) == 0
    assert run_cli("dominate", *common, "--mode", "in-group", "--groups", "0") == 0


def test_communities_excluding_everything_fails_cleanly(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    code = run_cli("communities", "--input", str(src),
                   "--exclude-from", "0", "--exclude-to", "1")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_communities_exclusion_flags_must_pair(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    assert run_cli("communities", "--input", str(src), "--exclude-from", "0") == 2


@pytest.mark.parametrize("flags, message", [
    (("--exclude-from", "5"), "--exclude-from and --exclude-to must be given together"),
    (("--exclude-to", "5"), "--exclude-from and --exclude-to must be given together"),
    (("--exclude-from", "5", "--exclude-to", "3"), "exclusion start 5 must precede end 3"),
])
def test_exclusion_flags_are_checked_before_the_input_is_read(tmp_path, capsys, flags, message):
    # a missing file would exit 3 if it were opened first
    assert run_cli("communities", "--input", str(tmp_path / "missing.csv"), *flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# synth


def test_synth_figure2_files(tmp_path, capsys):
    out_dir = tmp_path / "fig2"
    assert run_cli("synth", "--family", "figure2", "--out", str(out_dir)) == 0
    edge_lines = (out_dir / "edges.csv").read_text().strip().split("\n")
    assert len(edge_lines) == 38  # 19 undirected edges, one arc per direction
    part_lines = (out_dir / "partition.csv").read_text().strip().split("\n")
    meta = [ln for ln in part_lines if ln.startswith("#meta,")]
    body = [ln for ln in part_lines if not ln.startswith("#")]
    assert len(meta) == 3
    assert len(body) == 12
    assert "#meta,0,black" in meta
    out = capsys.readouterr().out
    assert "vertices: 12" in out
    assert "arcs: 38" in out


def test_synth_reruns_are_byte_identical(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for d in (dir_a, dir_b):
        run_cli("synth", "--family", "planted-partition", "--blocks", "20,20",
                "--p-in", "0.4", "--p-out", "0.05", "--seed", "5",
                "--days", "3", "--out", str(d))
    assert (dir_a / "edges.csv").read_bytes() == (dir_b / "edges.csv").read_bytes()
    assert (dir_a / "partition.csv").read_bytes() == (dir_b / "partition.csv").read_bytes()


def test_synth_star(tmp_path):
    out_dir = tmp_path / "star"
    assert run_cli("synth", "--family", "star", "--leaves", "5",
                   "--out", str(out_dir)) == 0
    lines = (out_dir / "edges.csv").read_text().strip().split("\n")
    assert len(lines) == 5
    assert all(ln.startswith("v0,") for ln in lines)
    assert not (out_dir / "partition.csv").exists()


@pytest.mark.parametrize("family, given, flag", [
    pytest.param("star", [], "--leaves", id="star"),
    pytest.param("directed-cycle", [], "--n", id="directed-cycle"),
    pytest.param("disjoint-cliques", [], "--sizes", id="disjoint-cliques"),
    pytest.param("planted-partition", ["--p-in", "0.5", "--p-out", "0.1"], "--blocks", id="planted-blocks"),
    pytest.param("planted-partition", ["--blocks", "3,3", "--p-out", "0.1"], "--p-in", id="planted-p-in"),
    pytest.param("planted-partition", ["--blocks", "3,3", "--p-in", "0.5"], "--p-out", id="planted-p-out"),
    pytest.param("configuration-model", ["--swaps", "2"], "--input", id="configuration-model"),
])
def test_synth_missing_family_params(tmp_path, capsys, family, given, flag):
    out_dir = tmp_path / "x"
    assert run_cli("synth", "--family", family, *given, "--out", str(out_dir)) == 2
    assert capsys.readouterr().err == f"error: {family} requires {flag}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("family, given, flag", [
    ("star", ["--leaves", "3", "--n", "9"], "--n"),
    ("figure2", ["--input", "base.csv"], "--input"),
], ids=["star-n", "figure2-input"])
def test_synth_refuses_another_familys_flags(tmp_path, capsys, monkeypatch, family, given, flag):
    write_two_triangles(tmp_path / "base.csv")
    monkeypatch.chdir(tmp_path)
    assert run_cli("synth", "--family", family, *given, "--out", "x") == 2
    assert capsys.readouterr().err == f"error: {family} does not take {flag}\n"
    assert not (tmp_path / "x").exists()


def test_synth_rejects_negative_days(tmp_path, capsys):
    out_dir = tmp_path / "x"
    assert run_cli("synth", "--family", "star", "--leaves", "3", "--days", "-2",
                   "--out", str(out_dir)) == 2
    assert "error: days must be non-negative, got -2" in capsys.readouterr().err
    assert not out_dir.exists()


def test_synth_refuses_days_past_the_int64_seconds_limit(tmp_path, capsys):
    out_dir = tmp_path / "x"
    assert run_cli("synth", "--family", "star", "--leaves", "1", "--days", str(MAX_DAYS + 1),
                   "--out", str(out_dir)) == 2
    assert f"error: days must be at most {MAX_DAYS}, got {MAX_DAYS + 1}" in capsys.readouterr().err
    assert not out_dir.exists()
    assert run_cli("synth", "--family", "star", "--leaves", "1", "--days", str(MAX_DAYS),
                   "--out", str(out_dir)) == 0
    (line,) = (out_dir / "edges.csv").read_text().splitlines()
    assert 0 <= int(line.split(",")[2]) < MAX_DAYS * 86400


@pytest.mark.parametrize("given, message", [
    (["--delimiter", ";"], "--delimiter needs --input"),
    (["--header"], "--header needs --input"),
    (["--strict", "--delimiter", ";"], "--delimiter, --strict need --input"),
], ids=["delimiter", "header", "two"])
def test_synth_refuses_ingest_flags_without_input(tmp_path, capsys, given, message):
    out_dir = tmp_path / "x"
    assert run_cli("synth", "--family", "star", "--leaves", "3", *given, "--out", str(out_dir)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def test_synth_reads_its_input_with_the_ingest_flags(tmp_path, capsys):
    # a 12-ring with chords, as a comma file and as a tab-separated one with
    # a header and a malformed line; read as a comma file, the latter holds no arc
    rows = [f"u{i},u{(i + step) % 12},{i}" for step in (1, 3, 5) for i in range(12)]
    (tmp_path / "base.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    tab_rows = ["src\tdst\tts", "broken"] + [row.replace(",", "\t") for row in rows]
    (tmp_path / "base.tsv").write_text("\n".join(tab_rows) + "\n", encoding="utf-8")
    flags = ["--delimiter", "\t", "--header"]
    assert run_cli("ingest-check", "--input", str(tmp_path / "base.tsv"), *flags) == 0
    assert "arcs: 36" in capsys.readouterr().out

    def synth(base, out, *extra):
        return run_cli("synth", "--family", "configuration-model", "--input", str(tmp_path / base),
                       "--seed", "5", "--out", str(tmp_path / out), *extra)

    assert synth("base.tsv", "bare", "--swaps", "1") == 2
    assert capsys.readouterr().err == "error: rewiring needs at least two edges\n"
    assert synth("base.csv", "comma") == 0
    comma = capsys.readouterr().out
    assert synth("base.tsv", "tab", *flags) == 0
    assert capsys.readouterr().out == comma.replace("comma", "tab")
    assert (tmp_path / "tab" / "edges.csv").read_bytes() == (tmp_path / "comma" / "edges.csv").read_bytes()
    assert synth("base.tsv", "strict", *flags, "--strict") == 3
    assert "malformed record at line 2" in capsys.readouterr().err
    assert not (tmp_path / "strict").exists()


def test_synth_configuration_model_without_a_legal_swap_is_an_argument_error(tmp_path, capsys):
    # a 4-cycle with one chord: every double-edge swap makes a duplicate edge
    base = tmp_path / "base.csv"
    base.write_text("a,b,1\nb,c,2\nc,d,3\nd,a,4\na,c,5\n", encoding="utf-8")
    out_dir = tmp_path / "x"
    assert run_cli("synth", "--family", "configuration-model", "--input", str(base), "--out", str(out_dir)) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: degree-preserving rewire stalled: 0/50 swaps accepted after 10000 attempts\n"
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("swaps", [2**63 - 1, 2**63, 10**30])
def test_synth_refuses_more_swaps_than_its_bound_per_edge(tmp_path, capsys, swaps):
    # two triangles and a bridge, 7 edges with legal swaps: a count this
    # large would keep the chain running for ages, so it is refused up front
    base = tmp_path / "base.csv"
    base.write_text("a,b,1\nb,c,1\nc,a,1\nd,e,1\ne,f,1\nf,d,1\nc,d,1\n", encoding="utf-8")
    message = f"swaps must be at most 7000 (1000 per edge of 7), got {swaps}"
    edges = graph.TemporalEdgeSet.from_arcs([line.split(",") for line in base.read_text().split()])
    for call in (lambda: synth.generate("configuration-model", {"swaps": swaps, "base": edges}),
                 lambda: synth.configuration_rewire(graph.underlying_undirected(graph.build_directed_graph(edges)),
                                                    swaps)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
    out_dir = tmp_path / "null"
    assert run_cli("synth", "--family", "configuration-model", "--input", str(base), "--out", str(out_dir),
                   "--swaps", str(swaps)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()
    assert run_cli("synth", "--family", "configuration-model", "--input", str(base), "--out", str(out_dir),
                   "--swaps", "7000") == 0


# sizes past the vertex bound, each refused before anything is allocated;
# run in a child process, so that a size rule that went missing could not
# exhaust this one
_HUGE = (2**63 - 1, 2**63, 10**30)
# (family, its size flags, the vertex count they ask for): a star adds its hub
_OVERSIZED = [
    *[("star", ["--leaves", str(v)], v + 1) for v in _HUGE],
    *[("directed-cycle", ["--n", str(v)], v) for v in _HUGE],
    *[("disjoint-cliques", ["--sizes", str(v)], v) for v in _HUGE],
    *[("planted-partition", ["--blocks", f"{v},3", "--p-in", "0.5", "--p-out", "0.1"], v + 3) for v in _HUGE[1:]],
]


@pytest.mark.parametrize("family, given, total", _OVERSIZED, ids=[" ".join(given[:2]) for _, given, _ in _OVERSIZED])
def test_synth_refuses_sizes_past_the_vertex_bound(tmp_path, family, given, total):
    code, err = run_cli_child(tmp_path, "synth", "--family", family, *given, "--out", "out")
    assert (code, err) == (2, f"error: a family has at most {MAX_VERTICES} vertices, got {total}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("family, given, flag, text", [
    ("planted-partition", ["--blocks", "3,x", "--p-in", "0.5", "--p-out", "0.1"], "--blocks", "3,x"),
    ("disjoint-cliques", ["--sizes", "4,,y"], "--sizes", "4,,y"),
], ids=["blocks", "sizes"])
def test_synth_malformed_list_names_its_flag(tmp_path, capsys, family, given, flag, text):
    out_dir = tmp_path / "x"
    assert run_cli("synth", "--family", family, *given, "--out", str(out_dir)) == 2
    assert f"argument {flag}: expected comma-separated integers, got {text!r}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_synth_days_spread_timestamps(tmp_path):
    out_dir = tmp_path / "cyc"
    run_cli("synth", "--family", "directed-cycle", "--n", "200",
            "--days", "4", "--out", str(out_dir))
    stamps = [int(ln.split(",")[2])
              for ln in (out_dir / "edges.csv").read_text().strip().split("\n")]
    assert min(stamps) >= 0
    assert max(stamps) < 4 * 86400
    assert len({t // 86400 for t in stamps}) == 4


def test_synth_pipes_into_ingest_check(tmp_path, capsys):
    out_dir = tmp_path / "pp"
    run_cli("synth", "--family", "disjoint-cliques", "--sizes", "4,4",
            "--out", str(out_dir))
    capsys.readouterr()
    assert run_cli("ingest-check", "--input", str(out_dir / "edges.csv")) == 0
    out = capsys.readouterr().out
    assert "vertices: 8" in out
    assert "arcs: 24" in out


def test_sparse_synth_partition_names_only_vertices_with_arcs(tmp_path, capsys):
    out_dir = tmp_path / "iso"
    assert run_cli("synth", "--family", "planted-partition", "--blocks", "50,50", "--p-in", "0.01",
                   "--p-out", "0", "--seed", "1", "--out", str(out_dir)) == 0
    assert "vertices: 65\n" in capsys.readouterr().out
    assert run_cli("ingest-check", "--input", str(out_dir / "edges.csv")) == 0
    assert "vertices: 65\n" in capsys.readouterr().out
    inputs = ["--input", str(out_dir / "edges.csv"), "--partition", str(out_dir / "partition.csv")]
    assert run_cli("polarization", *inputs) == 0
    assert run_cli("dominate", *inputs, "--mode", "in-group", "--groups", "0") == 0
    # many equal spans, which the greedy takes in rounds
    runs = tmp_path / "runs"
    assert run_cli("dominate", "--input", str(out_dir / "edges.csv"), "--format", "json",
                   "--out", str(runs)) == 0
    assert [p.name for p in runs.iterdir()] == ["dominate_unrestricted_all_rho1.json"]
    assert capsys.readouterr().err == ""


def test_synth_without_arcs_is_an_argument_error(tmp_path, capsys):
    out_dir = tmp_path / "empty"
    assert run_cli("synth", "--family", "planted-partition", "--blocks", "3", "--p-in", "0",
                   "--p-out", "0", "--out", str(out_dir)) == 2
    assert capsys.readouterr().err == (
        "error: planted-partition made no arcs, so the edge list would have no vertices\n")
    assert not out_dir.exists()


# polarization


def test_polarization_single_window_matches_reference(tmp_path, capsys):
    out_dir = tmp_path / "fig2"
    run_cli("synth", "--family", "figure2", "--out", str(out_dir))
    capsys.readouterr()
    assert run_cli("polarization", "--input", str(out_dir / "edges.csv"),
                   "--partition", str(out_dir / "partition.csv")) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "label,m,q,q_0,q_1,q_2"
    fields = lines[1].split(",")
    assert fields[1] == "19"
    assert abs(float(fields[2]) - 0.401662) < 1e-3
    assert abs(float(fields[3]) - 0.180055) < 2e-3
    assert abs(float(fields[4]) - 0.110803) < 2e-3


def test_polarization_tracked_group_columns(tmp_path, capsys):
    out_dir = tmp_path / "fig2"
    run_cli("synth", "--family", "figure2", "--out", str(out_dir))
    capsys.readouterr()
    assert run_cli("polarization", "--input", str(out_dir / "edges.csv"),
                   "--partition", str(out_dir / "partition.csv"),
                   "--groups", "black") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "label,m,q,q_0,d_0"
    d_black = float(lines[1].split(",")[4])
    assert abs(d_black - 0.448276) < 2e-3


def test_polarization_groups_skip_empty_selectors_and_refuse_none(tmp_path, capsys):
    write_two_triangles(tmp_path / "edges.csv")
    write_partition(tmp_path / "part.csv", {c: int(c > "c") for c in "abcdef"})
    inputs = ["polarization", "--input", str(tmp_path / "edges.csv"), "--partition", str(tmp_path / "part.csv")]
    assert run_cli(*inputs, "--groups", "0,,1") == 0
    assert capsys.readouterr().out.splitlines()[0] == "label,m,q,q_0,q_1,d_0,d_1"
    assert run_cli(*inputs, "--groups", ",") == 2
    assert capsys.readouterr().err == "error: no groups selected\n"


@pytest.mark.parametrize("stamp, start", [
    (1_000_000_000_000, 999_999_993_600),
    (9_200_000_000_000_000_000, 9_199_999_999_999_958_400),
])
def test_polarization_refuses_windows_past_year_9999(tmp_path, capsys, stamp, start):
    src = tmp_path / "edges.csv"
    src.write_text(f"a,b,{stamp}\n", encoding="utf-8")
    part = tmp_path / "partition.csv"
    write_partition(part, {"a": 0, "b": 0})
    assert run_cli("polarization", "--input", str(src), "--partition", str(part)) == 2
    err = capsys.readouterr().err
    assert err == (f"error: the window starting at {start} holds the largest stamp {stamp}, but windows "
                   "can start at most at 253402300799 (9999-12-31T23:59:59 UTC)\n")


def test_polarization_refuses_more_windows_than_the_bound(tmp_path, capsys, monkeypatch):
    # 2.5e11 one-second windows would exhaust memory: the count is checked
    # before a single window (or its label) is built
    def no_window(*args):
        raise AssertionError("a window was built")

    monkeypatch.setattr(graph, "_window_labels", no_window)
    src = tmp_path / "edges.csv"
    src.write_text("a,b,0\nb,a,253402300799\n", encoding="utf-8")
    part = tmp_path / "partition.csv"
    write_partition(part, {"a": 0, "b": 0})
    assert run_cli("polarization", "--input", str(src), "--partition", str(part),
                   "--window-seconds", "1") == 2
    err = capsys.readouterr().err
    assert err == ("error: stamps 0 .. 253402300799 span 253402300800 windows of 1 s, more than "
                   "1000000; use a larger window length (--window-seconds)\n")


def test_polarization_labels_the_last_second_of_year_9999(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    src.write_text("a,b,253402300799\n", encoding="utf-8")
    part = tmp_path / "partition.csv"
    write_partition(part, {"a": 0, "b": 0})
    assert run_cli("polarization", "--input", str(src), "--partition", str(part),
                   "--window-seconds", "1") == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("9999-12-31T23:59:59,1,")


def test_polarization_refuses_a_first_window_before_year_1(tmp_path, capsys, monkeypatch):
    def no_window(*args):
        raise AssertionError("a window was built")

    monkeypatch.setattr(graph, "_window_labels", no_window)
    src = tmp_path / "edges.csv"
    src.write_text("a,b,0\nb,a,5\n", encoding="utf-8")
    part = tmp_path / "partition.csv"
    write_partition(part, {"a": 0, "b": 1})
    assert run_cli("polarization", "--input", str(src), "--partition", str(part),
                   "--window-seconds", "100000000000", "--window-origin", "-99999999999") == 2
    err = capsys.readouterr().err
    assert err == ("error: the window starting at -99999999999 holds the smallest stamp 0, but windows "
                   "can start at the earliest at -62135596800 (0001-01-01T00:00:00 UTC)\n")


def test_polarization_labels_the_first_second_of_year_1(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    src.write_text("a,b,0\nb,a,5\n", encoding="utf-8")
    part = tmp_path / "partition.csv"
    write_partition(part, {"a": 0, "b": 1})
    # the first window starts at -62135596800, the bound itself
    assert run_cli("polarization", "--input", str(src), "--partition", str(part),
                   "--window-seconds", "62135596801", "--window-origin", "1") == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("1-01-01T00:00:00,1,")


def test_polarization_one_window_longer_than_int64_counts_every_arc(tmp_path, capsys):
    # one window from 0 of 10^20 s: its end passes 2^63 − 1, and every arc,
    # the last one too, is in it
    src = tmp_path / "edges.csv"
    src.write_text("a,b,0\nb,c,5\nc,a,253402300799\n", encoding="utf-8")
    part = tmp_path / "partition.csv"
    write_partition(part, {"a": 0, "b": 0, "c": 1})
    assert run_cli("polarization", "--input", str(src), "--partition", str(part),
                   "--window-seconds", "100000000000000000000") == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["1970-01-01T00:00:00,3,-0.222222,-0.111111,-0.111111"]


def test_polarization_unknown_group_lists_known_names(tmp_path, capsys):
    out_dir = tmp_path / "fig2"
    run_cli("synth", "--family", "figure2", "--out", str(out_dir))
    capsys.readouterr()
    code = run_cli("polarization", "--input", str(out_dir / "edges.csv"),
                   "--partition", str(out_dir / "partition.csv"),
                   "--groups", "purple")
    assert code == 2
    err = capsys.readouterr().err
    assert "purple" in err and "black" in err and "blue" in err and "red" in err


def _write_depolarizing_days(edge_path) -> None:
    """Two 4-cliques; day t gains t extra cross arcs, diluting the split."""
    rows = []
    groups = (["a0", "a1", "a2", "a3"], ["b0", "b1", "b2", "b3"])
    for day in range(5):
        stamp = day * 86400 + 100
        for grp in groups:
            for i, u in enumerate(grp):
                for v in grp[i + 1:]:
                    rows.append(f"{u},{v},{stamp}")
        for j in range(day):
            rows.append(f"a{j},b{j},{stamp}")
    edge_path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_polarization_negative_trend_json(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    _write_depolarizing_days(src)
    part_file = tmp_path / "part.csv"
    mapping = {f"a{i}": 0 for i in range(4)}
    mapping.update({f"b{i}": 1 for i in range(4)})
    write_partition(part_file, mapping)
    assert run_cli("polarization", "--input", str(src), "--partition", str(part_file),
                   "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["windows"]) == 5
    qs = [w["q"] for w in doc["windows"]]
    assert all(b < a for a, b in zip(qs, qs[1:]))
    assert doc["trends"]["q"]["slope"] < 0
    assert doc["config"]["window_seconds"] == 86400


def test_polarization_report_file_and_trend_summary(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    _write_depolarizing_days(src)
    part_file = tmp_path / "part.csv"
    mapping = {f"a{i}": 0 for i in range(4)}
    mapping.update({f"b{i}": 1 for i in range(4)})
    write_partition(part_file, mapping)
    report = tmp_path / "report.csv"
    assert run_cli("polarization", "--input", str(src), "--partition", str(part_file),
                   "--out", str(report)) == 0
    out = capsys.readouterr().out
    assert "windows: 5" in out
    assert "trend q: slope -" in out
    lines = report.read_text().strip().split("\n")
    assert len(lines) == 6


def test_polarization_partition_vertex_mismatch(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    part_file = tmp_path / "part.csv"
    write_partition(part_file, {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "zz": 1})
    assert run_cli("polarization", "--input", str(src),
                   "--partition", str(part_file)) == 3
    assert "zz" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["polarization", "dominate"])
@pytest.mark.parametrize(
    "partition, lineno",
    [
        ("a,0\nb,0\nc,99999999999999999999\n", 3),
        ("a,0\nb,0\nc,1000000000000\n", 3),
        ("#meta,\u00b2,x\na,0\nb,0\nc,1\n", 1),
        ("a,0\nb,0\nc,\u0661\n", 3),
        ("a,0\nb,0\nc,0_1\n", 3),
        ("a,0\nb,0\nc, +1\n", 3),
        ("a,0\nb,0\nc,-1\n", 3),
    ],
)
def test_partition_bad_group_index_is_a_format_error(tmp_path, capsys, command, partition, lineno):
    src = tmp_path / "edges.csv"
    src.write_text("a,b,1\nb,c,2\nc,a,3\n", encoding="utf-8")
    part_file = tmp_path / "part.csv"
    part_file.write_text(partition, encoding="utf-8")
    assert run_cli(command, "--input", str(src), "--partition", str(part_file)) == 3
    assert f"line {lineno}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["polarization"], ["dominate", "--mode", "in-group", "--groups", "0"]])
def test_partition_of_an_edge_list_without_vertices_is_a_format_error(tmp_path, capsys, command):
    # every line is malformed, so ingest keeps no vertex for a partition to cover
    src = tmp_path / "edges.csv"
    src.write_text("not a record\na,b\n", encoding="utf-8")
    part_file = tmp_path / "part.csv"
    part_file.write_text("", encoding="utf-8")
    assert run_cli(command[0], "--input", str(src), "--partition", str(part_file), *command[1:]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "no vertices to assign" in err


# dominate


def test_dominate_star_selects_hub(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    src.write_text("".join(f"hub,leaf{i},0\n" for i in range(5)), encoding="utf-8")
    assert run_cli("dominate", "--input", str(src), "--rho", "1.0") == 0
    out = capsys.readouterr().out
    assert "# dominate_unrestricted_all_rho1" in out
    assert "1,hub,6,1.000000" in out


def test_dominate_infeasible_exit_code_and_report(tmp_path, capsys):
    # the only spreader reaches 3 of 6 vertices
    src = tmp_path / "edges.csv"
    src.write_text("a,b,0\na,c,0\nd,e,0\n", encoding="utf-8")
    (tmp_path / "part.csv").write_text(
        "a,0\nb,0\nc,0\nd,1\ne,1\nf,1\n", encoding="utf-8")
    # vertex f exists only in the partition file, so add an arc touching it
    src.write_text("a,b,0\na,c,0\nd,e,0\ne,f,0\n", encoding="utf-8")
    code = run_cli("dominate", "--input", str(src),
                   "--partition", str(tmp_path / "part.csv"),
                   "--mode", "network-by-group", "--groups", "0",
                   "--rho", "1.0", "--format", "json")
    assert code == 4
    doc = json.loads(capsys.readouterr().out)
    task = doc["tasks"][0]
    assert task["feasible"] is False
    assert task["max_coverable"] == 3
    assert task["max_fraction"] == pytest.approx(0.5)
    assert task["selected"] == ["a"]


def test_dominate_unknown_group_is_argument_error(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    part_file = tmp_path / "part.csv"
    mapping = {c: 0 for c in "abc"}
    mapping.update({c: 1 for c in "def"})
    write_partition(part_file, mapping, meta={0: "left", 1: "right"})
    code = run_cli("dominate", "--input", str(src), "--partition", str(part_file),
                   "--mode", "in-group", "--groups", "middle")
    assert code == 2
    err = capsys.readouterr().err
    assert "middle" in err and "left" in err and "right" in err


def test_dominate_group_mode_requires_partition(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    assert run_cli("dominate", "--input", str(src), "--mode", "in-group",
                   "--groups", "0") == 2


def test_dominate_curve_is_monotone(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    src.write_text("".join(f"h{i},x{i}{j},0\n" for i in range(3) for j in range(4 - i)),
                   encoding="utf-8")
    assert run_cli("dominate", "--input", str(src), "--curve",
                   "--max-spreaders", "3") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1] == "spreaders,fraction"
    fractions = [float(ln.split(",")[1]) for ln in lines[2:]]
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))


def test_dominate_writes_task_files(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    part_file = tmp_path / "part.csv"
    mapping = {c: 0 for c in "abc"}
    mapping.update({c: 1 for c in "def"})
    write_partition(part_file, mapping)
    out_dir = tmp_path / "runs"
    code = run_cli("dominate", "--input", str(src), "--partition", str(part_file),
                   "--mode", "in-group", "--groups", "0,1",
                   "--rho", "1.0", "--out", str(out_dir))
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["dominate_in-group_g0_rho1.csv", "dominate_in-group_g1_rho1.csv"]
    body = (out_dir / files[0]).read_text().strip().split("\n")
    assert body[0] == "step,vertex,covered,fraction"
    assert len(body) == 2  # any one triangle member dominates its group
    out = capsys.readouterr().out
    assert "1 spreaders cover 3/3" in out


def test_dominate_json_embeds_config(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    assert run_cli("dominate", "--input", str(src), "--rho", "0.5",
                   "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["rho"] == [0.5]
    assert doc["config"]["mode"] == "unrestricted"
    assert doc["tasks"][0]["feasible"] is True
    assert doc["tasks"][0]["fraction"] >= 0.5


@pytest.mark.parametrize("command, flags, message", [
    ("dominate", ("--curve", "--max-spreaders", "0"), "curve length must be at least 1, got 0"),
    ("dominate", ("--mode", "in-group"), "--mode in-group requires --partition"),
    ("dominate", ("--mode", "network-by-group", "--partition", "p.csv"),
     "--mode network-by-group requires --groups"),
    ("polarization", ("--partition", "p.csv", "--window-seconds", "0"),
     "window length must be positive, got 0"),
    # flags that would be accepted and then ignored
    ("dominate", ("--curve", "--rho", "0.5"), "--curve takes no --rho: a curve runs to --max-spreaders picks"),
    ("dominate", ("--max-spreaders", "5"), "--max-spreaders needs --curve"),
    ("dominate", ("--groups", "0", "--rho", "0.5"), "--mode unrestricted takes no --groups"),
    ("communities", ("--resolution", "0"), "resolution must be positive and finite, got 0.0"),
    ("synth", ("--family", "configuration-model", "--swaps", "-1", "--out", "refused"),
     "swaps must be non-negative, got -1"),
    ("ingest-check", ("--delimiter", ""), "delimiter must not be empty"),
])
def test_cheap_flags_are_checked_before_the_input_is_read(tmp_path, capsys, command, flags, message):
    # a missing file would exit 3 if it were opened first
    assert run_cli(command, "--input", str(tmp_path / "missing.csv"), *flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("group, message", [
    ("nosuch", "unknown group 'nosuch'; known names: none; indices run 0..1"),
    ("2", "group index 2 out of range (k=2)"),
])
def test_dominate_with_a_refused_group_creates_no_out_directory(tmp_path, capsys, group, message):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    part_file = tmp_path / "part.csv"
    write_partition(part_file, {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1})
    out = tmp_path / "o1"
    assert run_cli("dominate", "--input", str(src), "--partition", str(part_file), "--mode", "in-group",
                   "--groups", group, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_dominate_runs_the_greedy_once_per_task(tmp_path, monkeypatch):
    # group 1 is {c, d, e, f}: d and e reach 3 of its 4 members, so rho 0.5
    # is feasible there and 0.9 and 1.0 are not
    src = tmp_path / "edges.csv"
    src.write_text("a,b,0\na,c,0\nd,e,0\ne,f,0\n", encoding="utf-8")
    part_file = tmp_path / "part.csv"
    write_partition(part_file, {"a": 0, "b": 0, "c": 1, "d": 1, "e": 1, "f": 1})
    calls = []
    core = domination._greedy_run
    monkeypatch.setattr(domination, "_greedy_run", lambda *a: calls.append(a) or core(*a))
    common = ["dominate", "--input", str(src), "--partition", str(part_file), "--mode", "in-group",
              "--groups", "0,1"]
    slugs = {"0.5": "0.5", "0.9": "0.9", "1.0": "1"}
    flags = [arg for rho in slugs for arg in ("--rho", rho)]
    assert run_cli(*common, *flags, "--out", str(tmp_path / "all")) == 4
    assert len(calls) == 2
    assert len(list((tmp_path / "all").iterdir())) == 6
    for rho, slug in slugs.items():
        alone = tmp_path / slug
        assert run_cli(*common, "--rho", rho, "--out", str(alone)) == (0 if rho == "0.5" else 4)
        for name in (f"dominate_in-group_g{i}_rho{slug}.csv" for i in (0, 1)):
            assert (tmp_path / "all" / name).read_bytes() == (alone / name).read_bytes(), name
    assert "# infeasible: " not in (tmp_path / "all" / "dominate_in-group_g1_rho0.5.csv").read_text()
    assert "# infeasible: " in (tmp_path / "all" / "dominate_in-group_g1_rho0.9.csv").read_text()


@pytest.mark.parametrize("rhos, message", [
    (("0.5", "0.5000001"), "--rho 0.5 and --rho 0.5000001 both name their task rho0.5"),
    (("0.5", "0.9", "0.5"), "--rho 0.5 and --rho 0.5 both name their task rho0.5"),
])
def test_dominate_refuses_rhos_that_share_a_task_name(tmp_path, capsys, rhos, message):
    # a missing file would exit 3 if it were opened first
    flags = [arg for rho in rhos for arg in ("--rho", rho)]
    assert run_cli("dominate", "--input", str(tmp_path / "missing.csv"), *flags,
                   "--out", str(tmp_path / "runs")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", [
    ["polarization", "--groups", "2"],
    ["dominate", "--mode", "in-group", "--groups", "2"],
])
def test_group_index_k_is_out_of_range_in_the_cli(tmp_path, capsys, command):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    part_file = tmp_path / "part.csv"
    write_partition(part_file, {c: int(c > "c") for c in "abcdef"})
    assert run_cli(command[0], "--input", str(src), "--partition", str(part_file), *command[1:]) == 2
    assert capsys.readouterr().err == "error: group index 2 out of range (k=2)\n"


@pytest.mark.parametrize("command", [["polarization"], ["dominate", "--mode", "in-group", "--groups", "0"]])
def test_partition_file_naming_an_unknown_group_is_a_format_error(tmp_path, capsys, command):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    part_file = tmp_path / "part.csv"
    write_partition(part_file, {c: int(c > "c") for c in "abcdef"}, meta={7: "x"})
    assert run_cli(command[0], "--input", str(src), "--partition", str(part_file), *command[1:]) == 3
    assert capsys.readouterr().err == "error: meta names unknown group 7\n"


@pytest.mark.parametrize("meta, message", [
    ("#meta,0,red\n#meta,1,red\n", "groups 0 and 1 are both named 'red'"),
    ("#meta,1,x\n#meta,1,y\n", "group 1 named twice (line 2)"),
], ids=["one name, two groups", "two names, one group"])
def test_partition_file_naming_a_group_twice_is_a_format_error(tmp_path, capsys, meta, message):
    # either file once tracked one group silently: the last named red, or y
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    part_file = tmp_path / "part.csv"
    part_file.write_text(meta + "".join(f"{c},{int(c > 'c')}\n" for c in "abcdef"), encoding="utf-8")
    assert run_cli("polarization", "--input", str(src), "--partition", str(part_file),
                   "--groups", "red,x") == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_dominate_rejects_bad_rho(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    assert run_cli("dominate", "--input", str(src), "--rho", "1.5") == 2


# every value rule, owned by one library check: the library calls that apply
# it to a value, then each CLI run passing the value through a flag. IN, PART
# and OUT stand for the input, partition and output paths; the value follows
# the last argument as "--flag=value".
_TRIANGLES = graph.undirected_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
_ARCS = graph.directed_from_arcs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
_GROUPS = community.Partition.from_assignment([0, 0, 0, 1, 1, 1])
_STAMPED = graph.TemporalEdgeSet.from_arcs([("a", "b", 0), ("b", "c", 7)])
_TRIANGLE_ARCS = graph.TemporalEdgeSet.from_arcs([(u, v, 0) for u, v in ("ab", "bc", "ca", "de", "ef", "fd")])

VALUE_RULES = {
    "resolution": (float, [lambda v: community.detect_communities(_TRIANGLES, resolution=v)],
                   ["communities", "--input", "IN", "--resolution"]),
    "window-length": (int, [lambda v: graph.slice_windows(_STAMPED, v), lambda v: graph.WindowGrid(0, v, ())],
                      ["polarization", "--input", "IN", "--partition", "PART", "--window-seconds"]),
    "rho": (float, [lambda v: domination.coverage_target(v, 10),
                    lambda v: domination.greedy_pdds(_ARCS, v),
                    lambda v: domination.solve_task(_ARCS, "in-group", _GROUPS, 1, rhos=[v])],
            ["dominate", "--input", "IN", "--rho"]),
    "curve-length": (int, [lambda v: domination.coverage_curve(_ARCS, max_spreaders=v),
                           lambda v: domination.solve_task(_ARCS, "unrestricted", max_picks=v),
                           lambda v: domination.solve_task(_ARCS, "network-by-group", _GROUPS, 0, max_picks=v)],
                     ["dominate", "--input", "IN", "--curve", "--max-spreaders"]),
    "swaps": (int, [lambda v: synth.configuration_rewire(_TRIANGLES, v),
                    lambda v: synth.generate("configuration-model", {"swaps": v, "base": _TRIANGLE_ARCS})],
              ["synth", "--family", "configuration-model", "--input", "IN", "--out", "OUT", "--swaps"]),
    "days": (int, [lambda v: synth.generate("star", {"n_leaves": 1}, days=v)],
             ["synth", "--family", "configuration-model", "--input", "IN", "--swaps", "0", "--out", "OUT", "--days"]),
    "delimiter": (str, [lambda v: graph.IngestOptions(delimiter=v)],
                  ["ingest-check", "--input", "IN", "--delimiter"]),
    "seed": (int, [lambda v: community.detect_communities(_TRIANGLES, seed=v),
                   lambda v: synth.planted_partition([2], 0.5, 0.5, seed=v),
                   lambda v: synth.configuration_rewire(_TRIANGLES, 1, seed=v),
                   lambda v: synth.generate("star", {"n_leaves": 1}, seed=v)],
             ["communities", "--input", "IN", "--seed"],
             ["synth", "--family", "configuration-model", "--input", "IN", "--swaps", "0", "--out", "OUT", "--seed"]),
}
_NOT_POSITIVE_FLOATS = ("0", "-1", "nan", "inf", "-inf")
REFUSED = [
    *[("resolution", text) for text in _NOT_POSITIVE_FLOATS],
    ("window-length", "0"), ("window-length", "-1"),
    *[("rho", text) for text in ("0", "-0.5", "1.5", "nan", "inf", "-inf")],
    ("curve-length", "0"), ("curve-length", "-1"),
    ("swaps", "-1"),
    ("days", "-1"), ("days", str(MAX_DAYS + 1)),
    ("delimiter", ""), ("delimiter", "\n"), ("delimiter", ";\r"),
    ("seed", "-1"),
]
ACCEPTED = [
    ("resolution", "5e-324"), ("window-length", "1"), ("rho", "1.0"), ("curve-length", "1"),
    ("swaps", "0"), ("days", "0"), ("days", str(MAX_DAYS)), ("delimiter", ";"), ("seed", "0"),
]


def _rule_argv(tmp_path, cli: list[str], text: str, input_path) -> list[str]:
    paths = {"IN": str(input_path), "PART": str(tmp_path / "part.csv"), "OUT": str(tmp_path / "out")}
    *argv, flag = cli
    return [paths.get(arg, arg) for arg in argv] + [f"{flag}={text}"]


@pytest.mark.parametrize("rule, text", REFUSED, ids=[f"{rule}={text}" for rule, text in REFUSED])
def test_each_value_rule_refuses_alike_in_the_library_and_the_cli(tmp_path, capsys, rule, text):
    kind, calls, *clis = VALUE_RULES[rule]
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as info:
            call(kind(text))
        messages.add(str(info.value))
    (message,) = messages
    for cli in clis:
        # a missing input would exit 3 if it were opened first
        assert run_cli(*_rule_argv(tmp_path, cli, text, tmp_path / "missing.csv")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rule, text", ACCEPTED, ids=[f"{rule}={text}" for rule, text in ACCEPTED])
def test_each_value_rule_accepts_its_boundary_in_the_library_and_the_cli(tmp_path, rule, text):
    kind, calls, *clis = VALUE_RULES[rule]
    for call in calls:
        call(kind(text))
    write_two_triangles(tmp_path / "edges.csv")
    write_partition(tmp_path / "part.csv", {c: int(c > "c") for c in "abcdef"})
    for cli in clis:
        assert run_cli(*_rule_argv(tmp_path, cli, text, tmp_path / "edges.csv")) == 0


# the count rules, and the seed's, refuse what no int flag can pass:
# infinity, fractions and floats (an infinite swap count would make the
# rewire's stall budget infinite too); numpy integers pass
COUNT_CHECKS = {
    "swaps": synth.check_swaps,
    "days": synth.check_days,
    "curve length": domination.check_max_picks,
    "window length": graph.check_granularity,
    "seed": community.check_seed,
}


@pytest.mark.parametrize("name", COUNT_CHECKS)
@pytest.mark.parametrize("value", [float("inf"), 2.5, 2.0])
def test_count_checks_refuse_infinite_and_fractional_values(name, value):
    check = COUNT_CHECKS[name]
    expected = f"{name} must be an integer, got {value}"
    if (name, value) == ("days", float("inf")):
        expected = f"days must be at most {MAX_DAYS}, got inf"  # the range message comes first
    with pytest.raises(ValueError, match=re.escape(expected)):
        check(value)
    check(np.int64(2))


@pytest.mark.parametrize("max_picks", [1.5, float("inf")])
def test_solve_task_refuses_a_curve_length_that_is_not_an_integer(max_picks):
    with pytest.raises(ValueError, match=re.escape(f"curve length must be an integer, got {max_picks}")):
        domination.solve_task(synth.star(3), "unrestricted", max_picks=max_picks)
    (curve,) = domination.solve_task(synth.star(3), "unrestricted", max_picks=np.int64(2))
    assert curve.feasible


# the console-script dry run


def test_dry_run_script_exits_0(tmp_path):
    # the same file CI runs with the installed entry point; here `polarnet`
    # is a shim over this interpreter, and src comes first on PYTHONPATH,
    # so the checkout is tested whether or not it is installed
    tests = Path(__file__).resolve().parent
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "polarnet"
    shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m polarnet "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=os.pathsep.join(filter(None, [str(tests.parent / "src"), os.environ.get("PYTHONPATH")])))
    work = tmp_path / "work"
    work.mkdir()
    run = subprocess.run(["sh", str(tests / "dry_run.sh")], cwd=work, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600)
    assert run.returncode == 0, run.stdout
