"""Tests of the benchmark's own parts: generators, checks and span arithmetic.

Run from the repository root with ``python -m pytest perfbench``. They use
small versions of the workloads, so they finish in seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, commands, generate  # noqa: E402

SMALL = {
    "dense-daily": replace(
        WORKLOADS["dense-daily"], block_sizes=(40, 40, 40), p_in=0.3, p_out=0.01,
        self_loops=5, malformed=9, swaps=50,
    ),
    "sparse-blocks": replace(
        WORKLOADS["sparse-blocks"], block_sizes=(40,) * 5, p_in=0.2, p_out=0.005,
        self_loops=3, malformed=8, swaps=50,
    ),
    "hourly-repeats": replace(
        WORKLOADS["hourly-repeats"], block_sizes=(40, 40, 40), p_in=0.3, p_out=0.01,
        days=2, quiet_hours=(10, 13), self_loops=11, malformed=14, swaps=50,
    ),
}


def _cli(argv: list[str], cwd: Path) -> tuple[int, str]:
    from polarnet.cli import main

    (cwd / "out").mkdir(exist_ok=True)
    out = io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(old)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    w = SMALL[name]
    a = generate(w, 3, tmp_path / "a")
    b = generate(w, 3, tmp_path / "b")
    c = generate(w, 4, tmp_path / "c")
    assert a == b
    assert (tmp_path / "a" / "edges.csv").read_bytes() == (tmp_path / "b" / "edges.csv").read_bytes()
    assert a["sha256"] != c["sha256"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_planted_counts_match_ingest_check(name, tmp_path):
    facts = generate(SMALL[name], 5, tmp_path)
    code, stdout = _cli(["ingest-check", "--input", "edges.csv"], tmp_path)
    assert code == 0
    assert checks.check_ingest(stdout, facts) == []
    counts = checks.ingest_counts(stdout)
    assert counts["self-loops dropped"] == SMALL[name].self_loops
    assert counts["malformed lines"] == SMALL[name].malformed


@pytest.mark.parametrize("name", sorted(SMALL))
def test_full_pass_passes_every_check(name, tmp_path):
    facts = generate(SMALL[name], 7, tmp_path)
    for argv in commands(SMALL[name]):
        assert _cli(argv, tmp_path)[0] == 0, argv
    out = tmp_path / "out"
    assert checks.check_communities(out / "partition.csv", tmp_path / "planted.csv") == []
    assert checks.check_report(out / "report.json", facts) == []
    assert checks.check_dominate(out / "dominate", facts) == []
    assert checks.check_null_model(out / "null" / "edges.csv", facts) == []


def test_checks_catch_broken_outputs(tmp_path):
    facts = generate(SMALL["dense-daily"], 7, tmp_path)
    for argv in commands(SMALL["dense-daily"]):
        _cli(argv, tmp_path)
    out = tmp_path / "out"

    null = out / "null" / "edges.csv"
    lines = null.read_text().splitlines(keepends=True)
    null.write_text("".join(lines[:-1]))
    assert checks.check_null_model(null, facts)

    report = json.loads((out / "report.json").read_text())
    report["windows"][0]["q"] += 1e-6
    (out / "report.json").write_text(json.dumps(report))
    assert checks.check_report(out / "report.json", facts)

    (task,) = (out / "dominate").glob("*.json")
    doc = json.loads(task.read_text())
    doc["selected"].append(doc["selected"][0])
    task.write_text(json.dumps(doc))
    assert checks.check_dominate(out / "dominate", facts)

    planted = (tmp_path / "planted.csv").read_text().splitlines()
    shuffled = [f"{line.rpartition(',')[0]},{i % 3}" for i, line in enumerate(planted)]
    (out / "partition.csv").write_text("\n".join(shuffled) + "\n")
    assert checks.check_communities(out / "partition.csv", tmp_path / "planted.csv")

    assert checks.check_ingest("vertices: 1\narcs: 2\n", facts)


def _span(name, start, end, parent, run=1):
    return spans.Span(name, float(start), float(end), parent, run)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("cli.dominate", 0, 10, None),
        _span("graph.ingest", 1, 3, 0),
        _span("graph.build_directed", 1.5, 2, 1),
        _span("domination.solve", 2, 5, 0),  # overlaps its sibling: counted once
        _span("synth.rewire", 9, 12, 0),  # overruns its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 1.5, 0.5, 3.0, 3.0])


def test_span_metrics_by_name_layer_and_share():
    tree = [
        _span("cli.communities", 0, 10, None),
        _span("graph.ingest", 0, 4, 0),
        _span("community.detect", 4, 9, 0),
        _span("cli.synth", 10, 12, None),
        _span("graph.ingest", 10, 11, 3),
    ]
    m = run._span_metrics(tree)
    assert m["graph.ingest_s"] == pytest.approx(5.0)
    assert m["graph.ingest_calls"] == 2
    assert m["cli.communities.self_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["trace.pass_s"] == pytest.approx(12.0)
    assert m["graph.share"] == pytest.approx(5 / 12)
    assert m["graph.induced_subgraph_s"] == 0.0


def test_span_metrics_cover_every_declared_layer_timing():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    produced = run._span_metrics([_span("cli.synth", 0, 1, None)])
    timings = [m["name"] for m in declared if m["name"].endswith(("_s", ".share", "_calls"))]
    assert timings and all(name in produced for name in timings)


def test_wrappers_record_nested_spans_and_restore_originals():
    import polarnet.cli
    import polarnet.synth

    original = polarnet.cli.ingest_edge_list
    recorder = spans.Recorder()
    installed = spans.Installed(recorder)
    try:
        assert installed.absent == []
        polarnet.cli.ingest_edge_list(["a,b,1\n", "b,c,2\n"])
        und = polarnet.cli.underlying_undirected(
            polarnet.cli.build_directed_graph(polarnet.cli.ingest_edge_list(["a,b,1\n", "c,d,1\n"]))
        )
        polarnet.cli.generate(polarnet.synth.GeneratorSpec("configuration-model", {"swaps": 1}), und)
    finally:
        installed.remove()
    assert polarnet.cli.ingest_edge_list is original
    names = [s.name for s in recorder.spans]
    assert names.count("graph.ingest") == 2
    rewire = names.index("synth.rewire")
    assert recorder.spans[rewire].parent == names.index("synth.generate")


def test_harness_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-daily", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_command_time_scales_by_reference_and_averages_argument_lists():
    def one(seconds, reference):
        return {"commands": [{"seconds": seconds, "reference_s": [reference, reference]}]}

    ref = run.REFERENCE_S
    passes = [one(2.0, 2 * ref), one(3.0, ref), one(1.0, ref), one(1.0, ref)] * 2
    assert run.LOUVAIN_SEEDS == 4
    assert run._command_time(passes, 0) == pytest.approx((1.0 + 3.0 + 1.0 + 1.0) / 4)


def test_worker_keeps_first_runs_and_compares_reruns(tmp_path):
    w = SMALL["sparse-blocks"]
    generate(w, 2, tmp_path)
    job = {"mode": "measure", "passes": [commands(w, s) for s in range(2)], "seconds": 0, "min_passes": 4}
    (tmp_path / "job.json").write_text(json.dumps(job))
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "job.json", "result.json"],
        cwd=tmp_path, env=run._child_env(), check=True, timeout=120,
    )
    passes = json.loads((tmp_path / "result.json").read_text())["passes"]
    assert len(passes) == 4
    kept = [[c.get("kept") for c in p["commands"]] for p in passes]
    assert kept[0] == ["first/0"] * 5
    assert kept[1] == [None, "first/1", None, None, None]  # only the Louvain seed differs
    assert kept[2] == kept[3] == [None] * 5
    assert all(c.get("reproduced", True) for p in passes for c in p["commands"])
    assert (tmp_path / "first" / "1" / "partition.csv").is_file()
    assert (tmp_path / "first" / "0" / "null" / "edges.csv").is_file()
