"""Seeded synthetic edge files for the benchmark workloads.

The generators use numpy only and never import polarnet, so a change to the
program cannot change the benchmark's inputs. Each workload writes

* ``edges.csv``: planted-block arcs with timestamps, plus planted self-loop
  and malformed lines and a leading comment line;
* ``planted.csv``: the ground-truth partition of every vertex that survives
  ingest, which ``polarization`` and ``dominate`` read so that a change to
  community detection cannot move their numbers;
* ``facts.json``: every count the output checks compare against, and a
  sha256 digest of both files, so that two runs can be shown to have used
  identical inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DAY = 86400
HOUR = 3600


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape and the CLI arguments its pass uses."""

    name: str
    block_sizes: tuple[int, ...]
    p_in: float
    p_out: float
    days: int
    window_seconds: int
    repeat_mean: float  # mean geometric repeat count of each distinct arc; 1 = none
    self_loops: int
    malformed: int
    quiet_hours: tuple[int, int] | None  # [first, last) hour with no arcs at all
    time_ordered: bool  # log-like file sorted by timestamp, else shuffled lines
    polarization_args: tuple[str, ...]
    dominate_args: tuple[str, ...]
    swaps: int

    @property
    def windows(self) -> int:
        return self.days * DAY // self.window_seconds

    @property
    def dominate_tasks(self) -> int:
        args = self.dominate_args
        return len(args[args.index("--groups") + 1].split(",")) if "--groups" in args else 1


WORKLOADS = {
    w.name: w
    for w in (
        # Ingest, arc dedup and the undirected view dominate; few vertices keep
        # Louvain light, and few greedy picks scan wide rows.
        Workload(
            name="dense-daily",
            block_sizes=(1000, 1000, 1000),
            p_in=0.08,
            p_out=0.004,
            days=10,
            window_seconds=DAY,
            repeat_mean=1.0,
            self_loops=200,
            malformed=200,
            quiet_hours=None,
            time_ordered=False,
            polarization_args=(),
            dominate_args=("--rho", "1.0"),
            swaps=30000,
        ),
        # The ROADMAP's sparse 200 x 1000 block graph scaled down 20x: Louvain
        # on many vertices is most of the run; the greedy makes many cheap picks.
        # Six in-block and 0.4 cross-block arcs per vertex: at 4.5 and 0.5 the
        # low-degree vertices leave planted recovery near 0.945, below the
        # 0.95 the communities check asks for.
        Workload(
            name="sparse-blocks",
            block_sizes=(1000,) * 10,
            p_in=6 / 999,
            p_out=0.4 / 9000,
            days=10,
            window_seconds=DAY,
            repeat_mean=1.0,
            self_loops=100,
            malformed=100,
            quiet_hours=None,
            time_ordered=False,
            polarization_args=(),
            dominate_args=("--rho", "0.9"),
            swaps=30000,
        ),
        # Heavy arc repetition over many hourly windows: the window series,
        # the dedup ratio, malformed/self-loop counting and in-group
        # subgraphs carry the run, while Louvain stays light.
        Workload(
            name="hourly-repeats",
            block_sizes=(700, 700, 700),
            p_in=0.02,
            p_out=0.002,
            days=60,
            window_seconds=HOUR,
            repeat_mean=8.0,
            self_loops=1500,
            malformed=1500,
            quiet_hours=(300, 306),
            time_ordered=True,
            polarization_args=("--window-seconds", str(HOUR), "--groups", "0,1"),
            dominate_args=("--mode", "in-group", "--groups", "0,1,2", "--rho", "0.5"),
            swaps=30000,
        ),
    )
}

# Line shapes ingest must count as malformed: wrong field count, an empty
# label, a non-integer or a negative timestamp.
_MALFORMED = (
    "{a},{b}",
    "{a},{b},{t},extra",
    "{a},,{t}",
    ",{b},{t}",
    "{a},{b},t{t}",
    "{a},{b},-{t}",
    "{a},{b},{t}.5",
)


def _block_arcs(rng, lo_a, na, lo_b, nb, p, same):
    """Distinct arcs between two blocks, each ordered pair with probability p."""
    total = na * (na - 1) if same else na * nb
    k = int(rng.binomial(total, p))
    flat = rng.choice(total, size=k, replace=False)
    if same:
        i, j = np.divmod(flat, na - 1)
        j += j >= i
    else:
        i, j = np.divmod(flat, nb)
    return lo_a + i, lo_b + j


def _planted_arcs(rng, w: Workload):
    """Distinct planted arcs as (sources, targets), plus each vertex's block."""
    sizes = np.asarray(w.block_sizes, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    src, tgt = [], []
    for a, (lo_a, na) in enumerate(zip(starts, sizes)):
        for b, (lo_b, nb) in enumerate(zip(starts, sizes)):
            s, t = _block_arcs(rng, lo_a, na, lo_b, nb, w.p_in if a == b else w.p_out, a == b)
            src.append(s)
            tgt.append(t)
    block = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    return np.concatenate(src), np.concatenate(tgt), block


def _timestamps(rng, w: Workload, count: int) -> np.ndarray:
    if w.quiet_hours is None:
        stamps = rng.integers(0, w.days * DAY, size=count)
    else:
        hours = np.arange(w.days * 24, dtype=np.int64)
        lo, hi = w.quiet_hours
        hours = hours[(hours < lo) | (hours >= hi)]
        stamps = hours[rng.integers(0, len(hours), size=count)] * HOUR
        stamps += rng.integers(0, HOUR, size=count)
    return stamps


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def generate(w: Workload, seed: int, out_dir: Path) -> dict:
    """Write the workload's files for ``seed`` into ``out_dir``; return its facts."""
    rng = np.random.default_rng([seed, sum(w.name.encode())])
    src, tgt, block = _planted_arcs(rng, w)
    n = len(block)
    # labels hide the block layout: first-seen, sorted and block order all differ
    labels = [f"u{x}" for x in rng.permutation(n).tolist()]

    repeats = rng.geometric(1.0 / w.repeat_mean, size=len(src)) if w.repeat_mean > 1 else 1
    arc_src = np.repeat(src, repeats)
    arc_tgt = np.repeat(tgt, repeats)
    present = np.unique(np.concatenate([src, tgt]))
    loop_v = present[rng.integers(0, len(present), size=w.self_loops)]
    rec_src = np.concatenate([arc_src, loop_v])
    rec_tgt = np.concatenate([arc_tgt, loop_v])
    stamps = _timestamps(rng, w, len(rec_src))
    # pin the first and last second on arcs so the window count is exactly w.windows
    stamps[[0, len(arc_src) - 1]] = 0, w.days * DAY - 1
    order = np.argsort(stamps, kind="stable") if w.time_ordered else rng.permutation(len(rec_src))

    valid = [
        f"{labels[s]},{labels[t]},{ts}\n"
        for s, t, ts in zip(rec_src[order].tolist(), rec_tgt[order].tolist(), stamps[order].tolist())
    ]
    bad_a = rng.integers(0, n, size=w.malformed).tolist()
    bad_b = rng.integers(0, n, size=w.malformed).tolist()
    bad_t = rng.integers(1, w.days * DAY, size=w.malformed).tolist()
    malformed = [
        _MALFORMED[j % len(_MALFORMED)].format(a=labels[a], b=labels[b], t=t) + "\n"
        for j, (a, b, t) in enumerate(zip(bad_a, bad_b, bad_t))
    ]
    lines = np.empty(len(valid) + len(malformed), dtype=object)
    bad_slot = np.zeros(len(lines), dtype=bool)
    bad_slot[rng.choice(len(lines), size=len(malformed), replace=False)] = True
    lines[bad_slot] = malformed
    lines[~bad_slot] = valid

    out_dir.mkdir(parents=True, exist_ok=True)
    edges_path = out_dir / "edges.csv"
    with open(edges_path, "w", encoding="utf-8") as fh:
        fh.write(f"# perfbench workload {w.name} seed {seed}\n")
        fh.writelines(lines.tolist())
    planted_path = out_dir / "planted.csv"
    with open(planted_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{labels[v]},{block[v]}\n" for v in present.tolist())

    lo, hi = np.minimum(src, tgt), np.maximum(src, tgt)
    und = np.unique(lo * n + hi)
    degrees = np.bincount(np.concatenate([und // n, und % n]), minlength=n)[present]
    facts = {
        "workload": w.name,
        "seed": seed,
        "record_lines": len(lines),
        "arcs": len(arc_src),
        "distinct_arcs": len(src),
        "self_loops": w.self_loops,
        "malformed": w.malformed,
        "vertices": len(present),
        "windows": w.windows,
        "empty_windows": w.windows - len(np.unique(stamps[: len(arc_src)] // w.window_seconds)),
        "dominate_tasks": w.dominate_tasks,
        "undirected_edges": len(und),
        "degree_sequence": np.sort(degrees).tolist(),
        "sha256": {"edges.csv": _sha256(edges_path), "planted.csv": _sha256(planted_path)},
    }
    with open(out_dir / "facts.json", "w", encoding="utf-8") as fh:
        json.dump(facts, fh)
    return facts


def commands(w: Workload, louvain_seed: int = 0) -> list[list[str]]:
    """The README full pass over the workload, as ``polarnet`` argument lists.

    Paths are relative to the workload's directory; outputs go under ``out/``.
    """
    return [
        ["ingest-check", "--input", "edges.csv"],
        ["communities", "--input", "edges.csv", "--out", "out/partition.csv",
         "--seed", str(louvain_seed)],
        ["polarization", "--input", "edges.csv", "--partition", "planted.csv",
         "--format", "json", "--out", "out/report.json", *w.polarization_args],
        ["dominate", "--input", "edges.csv", "--partition", "planted.csv",
         "--format", "json", "--out", "out/dominate", *w.dominate_args],
        ["synth", "--family", "configuration-model", "--input", "edges.csv",
         "--swaps", str(w.swaps), "--out", "out/null"],
    ]
