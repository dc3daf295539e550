"""One fresh, single-threaded process that runs CLI commands and times them.

Usage: ``python3 worker.py JOB.json RESULT.json``, started by ``run.py`` with
the workload's directory as working directory and ``src`` on PYTHONPATH.
The job names a mode:

* ``setup``: import polarnet, run one command, and report the time both took;
* ``measure``: repeat the full pass in a closed loop (each command starts
  when the previous one returns) until the job's seconds have passed;
* ``trace``: the same loop, alternating untraced passes with passes in which
  the library functions the CLI calls are wrapped by timing spans.

Pass ``k`` runs the argument lists ``job["passes"][k % len(job["passes"])]``.
Every command writes its outputs under ``out/``. The outputs of the first
run of each distinct argument list are moved to ``first/<k>/`` for
``run.py`` to check; every later run of the same list must reproduce its
standard output and files byte for byte.

Right before and right after each command the worker times a fixed
reference kernel that does not touch polarnet, so ``run.py`` can tell how
fast the machine ran while the command did. The worker imports nothing
beyond the standard library before the setup clock starts.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

# a loop whose minimum passes run slow still ends well inside run.py's deadline
MAX_LOOP_SECONDS = 120.0


class Reference:
    """Fixed work of the kinds the pipeline does, independent of polarnet.

    It parses text lines into a label index, sorts and deduplicates integer
    keys with numpy, and accumulates into a dict, as ingest, arc dedup and
    Louvain do.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        a, b = rng.integers(0, 3000, size=(2, 8000)).tolist()
        self.lines = [f"u{x},u{y},{x * y}\n" for x, y in zip(a, b)]
        self.keys = rng.integers(0, 1 << 40, size=100_000)

    def run(self) -> float:
        np = self.np
        gc.collect()
        start = time.perf_counter()
        ids: dict[str, int] = {}
        src, tgt, stamps = [], [], []
        for line in self.lines:
            s, t, stamp = line.strip().split(",")
            src.append(ids.setdefault(s, len(ids)))
            tgt.append(ids.setdefault(t, len(ids)))
            stamps.append(int(stamp))
        keys = np.asarray(src) * len(ids) + np.asarray(tgt)
        np.unique(np.concatenate([keys, self.keys]))
        acc: dict[int, float] = {}
        for v in src:
            acc[v % 97] = acc.get(v % 97, 0.0) + 1.0
        return time.perf_counter() - start


def run_command(cli, argv: list[str], recorder=None) -> dict:
    """Run one CLI command in this process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    span = recorder.open(f"cli.{argv[0]}") if recorder else None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception:  # a crash is a failed command, not a failed benchmark
            code = None
            traceback.print_exc()
    elapsed = time.perf_counter() - start
    if recorder:
        recorder.close(span)
    return {"code": code, "seconds": elapsed, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _outputs() -> set[Path]:
    return {p for p in Path("out").rglob("*") if p.is_file()}


def _digest(stdout: str, paths: list[Path]) -> str:
    digest = hashlib.sha256(stdout.encode())
    for path in paths:
        digest.update(str(path).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _loop(cli, job: dict) -> dict:
    recorder = installed = None
    if job["mode"] == "trace":
        import spans

        recorder = spans.Recorder()
    reference = Reference()
    first_digests: dict[tuple[str, ...], str] = {}
    shutil.rmtree("first", ignore_errors=True)
    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_SECONDS or (
            len(passes) >= job["min_passes"] and elapsed >= job["seconds"]
        ):
            break
        k = len(passes)
        traced = recorder is not None and k % 2 == 1
        if traced:
            recorder.run = k
            installed = spans.Installed(recorder)
        shutil.rmtree("out", ignore_errors=True)
        os.mkdir("out")
        results = []
        reference_s = reference.run()
        for argv in job["passes"][k % len(job["passes"])]:
            before = _outputs()
            result = run_command(cli, argv, recorder if traced else None)
            result["reference_s"] = [reference_s, reference.run()]
            reference_s = result["reference_s"][1]
            written = sorted(_outputs() - before)
            result["digest"] = _digest(result["stdout"], written)
            key = tuple(argv)
            if key in first_digests:
                result["reproduced"] = result["digest"] == first_digests[key]
                del result["stdout"]
            else:  # the first run of these arguments is the one checked
                first_digests[key] = result["digest"]
                result["kept"] = f"first/{k}"
                for path in written:
                    kept = Path(result["kept"]) / path.relative_to("out")
                    kept.parent.mkdir(parents=True, exist_ok=True)
                    path.rename(kept)
            results.append(result)
        if traced:
            installed.remove()
        passes.append({"traced": traced, "commands": results})
    report = {"passes": passes}
    if recorder is not None:
        report["spans"] = [vars(s) for s in recorder.spans]
        report["absent"] = installed.absent if installed else []
    return report


def main() -> int:
    job_path, result_path = sys.argv[1:3]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    start = time.perf_counter()
    import polarnet.cli as cli

    if job["mode"] == "setup":
        result = run_command(cli, job["passes"][0][0])
        report = {"setup_s": time.perf_counter() - start, "command": result}
        reference = Reference()
        report["reference_s"] = [reference.run() for _ in range(5)]
    else:
        report = _loop(cli, job)
    report["polarnet"] = str(Path(cli.__file__).resolve())
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
