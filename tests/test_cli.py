"""Command-line interface, driven in-process through main(argv)."""

from __future__ import annotations

import json

import pytest

from polarnet.cli import main
from polarnet.community import load_partition


def run_cli(*argv: str) -> int:
    return main(list(argv))


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


def test_synth_missing_family_params(tmp_path, capsys):
    assert run_cli("synth", "--family", "star", "--out", str(tmp_path / "x")) == 2
    assert "--leaves" in capsys.readouterr().err


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
    ],
)
def test_partition_bad_group_index_is_a_format_error(tmp_path, capsys, command, partition, lineno):
    src = tmp_path / "edges.csv"
    src.write_text("a,b,1\nb,c,2\nc,a,3\n", encoding="utf-8")
    part_file = tmp_path / "part.csv"
    part_file.write_text(partition, encoding="utf-8")
    assert run_cli(command, "--input", str(src), "--partition", str(part_file)) == 3
    assert f"line {lineno}" in capsys.readouterr().err


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


def test_dominate_rejects_bad_rho(tmp_path, capsys):
    src = tmp_path / "edges.csv"
    write_two_triangles(src)
    assert run_cli("dominate", "--input", str(src), "--rho", "1.5") == 2
