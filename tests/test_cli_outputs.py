"""Byte-pinned `dominate`, `polarization`, `synth` and `communities` outputs.

Every combination of dominate mode, run kind, format and destination is run
on one small graph, every synth family is run at fixed seeds, `communities`
is run at four seeds and one lower resolution, and every byte the CLI
produces (exit code, stdout, each written file) is compared with
`cli_outputs.json`. The expected bytes were captured from the CLI before its
output path was consolidated, so any change to them is a change of the file
formats. The configuration-model bytes are those of the batched swap chain.
The `communities` bytes were captured from the float-weight local moving that
preceded the per-level neighbour lists; the ring graph makes Louvain move
supervertices at level 1, so the aggregated levels are pinned too.

Regenerate the expected file (only for an intended format change) with
``PYTHONPATH=src python tests/test_cli_outputs.py``.
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

EXPECTED = Path(__file__).with_name("cli_outputs.json")

# Vertex c sits in group 1 but only a (group 0) points at it, so group 1
# cannot cover itself; each group's spreaders reach 3 of the 6 vertices.
# Unrestricted runs are always feasible: every ingested vertex is a
# spreader or the target of one.
EDGES = "a,b,0\na,c,0\nd,e,0\ne,f,0\n"
PARTITION = "#meta,0,left\na,0\nb,0\nc,1\nd,1\ne,1\nf,1\n"
# base graph for configuration-model: a 12-ring with chords to i + 3 and i + 5
BASE = "".join(f"u{i},u{(i + step) % 12},{i}\n" for step in (1, 3, 5) for i in range(12))
# communities graph: a ring of ten triangles, each joined to the next by one
# edge, plus four chords; Louvain merges neighbouring triangles at level 1
RING = "".join(
    f"r{3 * c + i},r{3 * c + j},0\n" for c in range(10) for i, j in ((0, 1), (0, 2), (1, 2))
) + "".join(f"r{3 * c + 2},r{3 * (c + 1) % 30},0\n" for c in range(10)) + (
    "r4,r17,0\nr9,r25,0\nr1,r22,0\nr13,r28,0\n"
)

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
    for family, args in SYNTH_RUNS.items():
        for days in ("0", "3"):
            cases[f"synth {family} days {days}"] = [
                "synth", "--family", family, *args, "--days", days, "--out", "out"]
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
        (case_dir / "ring.csv").write_text(RING, encoding="utf-8")
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
    with tempfile.TemporaryDirectory() as tmp:
        pinned = run_matrix(Path(tmp))
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} cases to {EXPECTED}", file=sys.stderr)
