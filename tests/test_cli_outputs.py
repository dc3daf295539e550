"""Byte-pinned `dominate`, `polarization`, `synth` and `communities` outputs.

Every combination of dominate mode, run kind, format and destination is run
on one small graph, every synth family is run at fixed seeds, `communities`
is run at four seeds and one lower resolution, and every byte the CLI
produces (exit code, stdout, each written file) is compared with
`cli_outputs.json`. The expected bytes were captured from the CLI before its
output path was consolidated, so any change to them is a change of the file
formats. The configuration-model bytes are those of the batched swap chain.
The `communities` bytes were first captured from the float-weight local moving
that preceded the per-level neighbour lists, which reproduced them. They were
recaptured when vertex ids became the sorted labels (`r0, r1, r10, r11, ...,
r2, ...` on the ring graph) instead of first-seen ones: the seeded visit order
and the lowest-id tie-breaks then run over other vertices, and all five
partitions moved. The ring graph makes Louvain move supervertices at level 1,
so the aggregated levels are pinned too. The
`polarization windows` cases run five hourly windows (one of them empty) over
three groups, tracked by name and by index; their bytes were captured from the
per-window series and the `json.dump` writer that preceded the all-window
series and the direct report writer. The two `synth configuration-model tab`
cases read the same base as a tab-separated file with a header line, through
`--delimiter` and `--header`, and must equal their comma twins byte for byte.
The two `synth planted-partition` cases were recaptured when `synth` stopped
writing a partition row for a vertex without arcs: `v7` is in no arc, so
its row went and `vertices:` reads 8, not 9; `edges.csv` is unchanged.

``PYTHONPATH=src python tests/test_cli_outputs.py`` captures the cases that
`cli_outputs.json` does not hold yet and leaves every pinned case as it is. If
a pinned case's bytes differ, it writes nothing, lists the differing cases and
exits non-zero. To recapture an intended format change, delete the case's
entry from `cli_outputs.json` first, then run the script.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from polarnet.cli import main
from polarnet.synth import FAMILIES

EXPECTED = Path(__file__).with_name("cli_outputs.json")

# Vertex c sits in group 1 but only a (group 0) points at it, so group 1
# cannot cover itself; each group's spreaders reach 3 of the 6 vertices.
# Unrestricted runs are always feasible: every ingested vertex is a
# spreader or the target of one.
EDGES = "a,b,0\na,c,0\nd,e,0\ne,f,0\n"
PARTITION = "#meta,0,left\na,0\nb,0\nc,1\nd,1\ne,1\nf,1\n"
# base graph for configuration-model: a 12-ring with chords to i + 3 and i + 5
BASE = "".join(f"u{i},u{(i + step) % 12},{i}\n" for step in (1, 3, 5) for i in range(12))
# the same base as a tab-separated file with a header line: its synth cases
# read it with --delimiter and --header and must equal their comma twins
BASE_TAB = "source\ttarget\ttime\n" + BASE.replace(",", "\t")
# communities graph: a ring of ten triangles, each joined to the next by one
# edge, plus four chords; Louvain merges neighbouring triangles at level 1
RING = "".join(
    f"r{3 * c + i},r{3 * c + j},0\n" for c in range(10) for i, j in ((0, 1), (0, 2), (1, 2))
) + "".join(f"r{3 * c + 2},r{3 * (c + 1) % 30},0\n" for c in range(10)) + (
    "r4,r17,0\nr9,r25,0\nr1,r22,0\nr13,r28,0\n"
)
# polarization over hourly windows: lines out of time order, repeated and
# reciprocal arcs, hour 2 empty, hour 3 mostly across groups
WINDOWS = (
    "a,b,30\nb,c,100\ng,a,3700\na,c,200\nd,e,300\nb,a,3599\ne,f,400\n"
    "g,h,500\nc,d,600\na,b,900\na,b,3600\nd,e,3650\ne,f,4000\nf,d,4100\n"
    "g,h,4200\nh,i,4300\ng,i,4400\nb,h,5000\na,d,10800\nb,e,11000\n"
    "c,f,11500\nh,b,12000\ng,h,12500\na,b,14400\na,c,15000\ng,h,15500\n"
    "h,i,16000\nd,f,17000\n"
)
PARTITION3 = "#meta,0,left\n#meta,2,right\na,0\nb,0\nc,0\nd,1\ne,1\nf,1\ng,2\nh,2\ni,2\n"

DOMINATE_RUNS = {
    "rho": ["--rho", "0.5", "--rho", "1.0"],  # 1.0 is out of reach for some groups
    "curve": ["--curve", "--max-spreaders", "3"],
}


SYNTH_RUNS = {
    "figure2": [],
    "planted-partition": ["--blocks", "5,4", "--p-in", "0.6", "--p-out", "0.1", "--seed", "3"],
    "configuration-model": ["--input", "base.csv", "--seed", "5"],  # 10·m swaps
    "star": ["--leaves", "5"],
    "directed-cycle": ["--n", "7"],
    "disjoint-cliques": ["--sizes", "3,4", "--seed", "2"],
}

COMMUNITIES_RUNS = {
    **{f"seed {s}": ["--seed", str(s)] for s in range(4)},
    "resolution 0.5": ["--resolution", "0.5", "--seed", "1"],
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for mode in ("unrestricted", "network-by-group", "in-group"):
        groups = [] if mode == "unrestricted" else ["--groups", "0,1"]
        for run, run_args in DOMINATE_RUNS.items():
            for fmt in ("csv", "json"):
                for dest in ("stdout", "out"):
                    argv = ["dominate", "--input", "edges.csv", "--partition", "part.csv",
                            "--mode", mode, *groups, *run_args, "--format", fmt]
                    if dest == "out":
                        argv += ["--out", "out"]
                    cases[f"dominate {mode} {run} {fmt} {dest}"] = argv
    for fmt in ("csv", "json"):
        for dest in ("stdout", "out"):
            argv = ["polarization", "--input", "edges.csv", "--partition", "part.csv",
                    "--groups", "left,1", "--format", fmt]
            if dest == "out":
                argv += ["--out", f"out/report.{fmt}"]
            cases[f"polarization {fmt} {dest}"] = argv
            argv = ["polarization", "--input", "windows.csv", "--partition", "part3.csv",
                    "--groups", "right,1", "--window-seconds", "3600", "--format", fmt]
            if dest == "out":
                argv += ["--out", f"out/report.{fmt}"]
            cases[f"polarization windows {fmt} {dest}"] = argv
    for family, args in SYNTH_RUNS.items():
        for days in ("0", "3"):
            cases[f"synth {family} days {days}"] = [
                "synth", "--family", family, *args, "--days", days, "--out", "out"]
    for days in ("0", "3"):
        cases[f"synth configuration-model tab days {days}"] = [
            "synth", "--family", "configuration-model", "--input", "base.tsv", "--delimiter", "\t",
            "--header", *SYNTH_RUNS["configuration-model"][2:], "--days", days, "--out", "out"]
    for run, args in COMMUNITIES_RUNS.items():
        cases[f"communities {run}"] = [
            "communities", "--input", "ring.csv", "--out", "out/partition.csv", *args]
    return cases


def run_matrix(work: Path) -> dict[str, dict]:
    """Run every case in a fresh directory under ``work``; return its bytes."""
    results = {}
    for n, (name, argv) in enumerate(_cases().items()):
        case_dir = work / str(n)
        case_dir.mkdir()
        (case_dir / "edges.csv").write_text(EDGES, encoding="utf-8")
        (case_dir / "part.csv").write_text(PARTITION, encoding="utf-8")
        (case_dir / "base.csv").write_text(BASE, encoding="utf-8")
        (case_dir / "base.tsv").write_text(BASE_TAB, encoding="utf-8")
        (case_dir / "ring.csv").write_text(RING, encoding="utf-8")
        (case_dir / "windows.csv").write_text(WINDOWS, encoding="utf-8")
        (case_dir / "part3.csv").write_text(PARTITION3, encoding="utf-8")
        out = case_dir / "out"
        out.mkdir()
        stdout = io.StringIO()
        cwd = os.getcwd()
        os.chdir(case_dir)
        try:
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
        finally:
            os.chdir(cwd)
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(out.iterdir())}
        results[name] = {"exit": code, "stdout": stdout.getvalue(), "files": files}
    return results


def test_output_matrix_is_byte_identical(tmp_path):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    actual = run_matrix(tmp_path)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


def test_tab_delimited_base_gives_its_comma_twins_bytes():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    for days in ("0", "3"):
        tab = expected[f"synth configuration-model tab days {days}"]
        assert tab == expected[f"synth configuration-model days {days}"]
        assert tab["exit"] == 0 and tab["files"]["edges.csv"]


def test_synth_runs_pin_every_family():
    assert set(SYNTH_RUNS) == set(FAMILIES)


def test_output_matrix_covers_both_outcomes_in_every_group_mode():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    for mode in ("network-by-group", "in-group"):
        case = expected[f"dominate {mode} rho csv out"]
        assert case["exit"] == 4
        trailers = ["# infeasible: " in body for body in case["files"].values()]
        assert any(trailers) and not all(trailers)
        doc = json.loads(expected[f"dominate {mode} rho json stdout"]["stdout"])
        assert [t["feasible"] for t in doc["tasks"]] == [not t for t in trailers]
        assert all(t["candidates"] is None for t in doc["tasks"] if not t["feasible"])
    assert expected["dominate unrestricted rho json out"]["exit"] == 0


if __name__ == "__main__":
    pinned = json.loads(EXPECTED.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        actual = run_matrix(Path(tmp))
    changed = sorted(name for name in pinned if name in actual and actual[name] != pinned[name])
    if changed:
        print("pinned cases whose bytes differ (delete an entry to recapture it):", file=sys.stderr)
        for name in changed:
            print(f"  {name}", file=sys.stderr)
        sys.exit(1)
    added = sorted(set(actual) - set(pinned))
    pinned.update((name, actual[name]) for name in added)
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"added {len(added)} cases to {EXPECTED}; {len(pinned)} pinned", file=sys.stderr)
