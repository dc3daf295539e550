"""Output checks for one pass of the CLI over a workload.

Every check returns a list of failure messages; an empty list means the
output is correct. The expected values come from the workload's facts,
which the generator computed without polarnet.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

AGREEMENT_MIN = 0.95  # the planted-recovery rule of acceptance criteria 06 and 10
SUM_TOLERANCE = 1e-9


def _read_labels(path: Path) -> dict[str, int]:
    groups = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                label, _, group = line.strip().rpartition(",")
                groups[label] = int(group)
    return groups


def ingest_counts(stdout: str) -> dict[str, int]:
    """The counts ``ingest-check`` prints, keyed by their printed names."""
    return {m[1]: int(m[2]) for m in re.finditer(r"^([a-z -]+): (\d+)$", stdout, re.M)}


def check_ingest(stdout: str, facts: dict) -> list[str]:
    counts = ingest_counts(stdout)
    expected = {
        "vertices": facts["vertices"],
        "arcs": facts["arcs"],
        "self-loops dropped": facts["self_loops"],
        "malformed lines": facts["malformed"],
    }
    return [
        f"ingest-check reports {key} {counts.get(key)}, planted {want}"
        for key, want in expected.items()
        if counts.get(key) != want
    ]


def agreement(detected: dict[str, int], truth: dict[str, int]) -> float:
    """Fraction of vertices matched under the best one-to-one group alignment."""
    from scipy.optimize import linear_sum_assignment

    labels = sorted(truth)
    d = np.array([detected[x] for x in labels])
    t = np.array([truth[x] for x in labels])
    confusion = np.zeros((d.max() + 1, t.max() + 1), dtype=np.int64)
    np.add.at(confusion, (d, t), 1)
    rows, cols = linear_sum_assignment(-confusion)
    return confusion[rows, cols].sum() / len(labels)


def check_communities(partition: Path, planted: Path) -> list[str]:
    detected, truth = _read_labels(partition), _read_labels(planted)
    if detected.keys() != truth.keys():
        return [f"partition covers {len(detected)} vertices, planted {len(truth)}"]
    score = agreement(detected, truth)
    if score < AGREEMENT_MIN:
        return [f"detected communities agree with planted blocks at {score:.4f} < {AGREEMENT_MIN}"]
    return []


def check_report(report: Path, facts: dict) -> list[str]:
    with open(report, encoding="utf-8") as fh:
        windows = json.load(fh)["windows"]
    errors = []
    if len(windows) != facts["windows"]:
        errors.append(f"report has {len(windows)} windows, expected {facts['windows']}")
    empty = sum(1 for w in windows if w["q"] is None)
    if empty != facts["empty_windows"]:
        errors.append(f"report has {empty} empty windows, expected {facts['empty_windows']}")
    bad = [w for w in windows if w["q"] is not None and abs(sum(w["group_q"]) - w["q"]) > SUM_TOLERANCE]
    if bad:
        w = bad[0]
        errors.append(f"{len(bad)} windows where the sum of q_i is not q, first {w['label']}: "
                      f"{sum(w['group_q'])!r} != {w['q']!r}")
    return errors


def check_dominate(out_dir: Path, facts: dict) -> list[str]:
    files = sorted(out_dir.glob("*.json"))
    errors = []
    if len(files) != facts["dominate_tasks"]:
        errors.append(f"dominate wrote {len(files)} tasks, expected {facts['dominate_tasks']}")
    for path in files:
        with open(path, encoding="utf-8") as fh:
            task = json.load(fh)
        picks, covered = task["selected"], task["covered_after_step"]
        if not task["feasible"]:
            errors.append(f"{path.name}: infeasible")
        if len(set(picks)) != len(picks):
            errors.append(f"{path.name}: repeated picks")
        if any(b <= a for a, b in zip(covered, covered[1:])):
            errors.append(f"{path.name}: covered_after_step not strictly increasing")
        if not covered or covered[-1] < task["target"]:
            errors.append(f"{path.name}: final coverage below target {task['target']}")
    return errors


def check_null_model(edges: Path, facts: dict) -> list[str]:
    """A degree-preserving rewire keeps every degree and stays a simple graph.

    The file lists each undirected edge once in each direction.
    """
    with open(edges, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    ids = {}
    pairs = np.array([[ids.setdefault(s, len(ids)), ids.setdefault(t, len(ids))] for s, t, _ in rows])
    if len(pairs) == 0:
        return ["null model is empty"]
    if np.any(pairs[:, 0] == pairs[:, 1]):
        return ["null model has a self-loop"]
    n = len(ids)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    keys, counts = np.unique(lo * n + hi, return_counts=True)
    errors = []
    if np.any(counts != 2):
        errors.append("null model repeats an edge or lists it in one direction only")
    if len(keys) != facts["undirected_edges"]:
        errors.append(f"null model has {len(keys)} edges, base graph {facts['undirected_edges']}")
    degrees = np.sort(np.bincount(np.concatenate([keys // n, keys % n]), minlength=n))
    if degrees.tolist() != facts["degree_sequence"]:
        errors.append("null model changed the degree sequence")
    return errors
