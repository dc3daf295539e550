"""Greedy partial dominating-set solving on directed graphs.

Every run solves one problem: candidates C cover a fraction rho of targets
T. A vertex v "spans" itself plus its out-neighbors, restricted to T. The
greedy rule repeatedly picks the candidate with the largest uncovered span
(ties to the lowest vertex id) until the requested fraction of targets is
covered, which carries the standard H(delta+1) approximation guarantee for
this objective. The group modes differ only in C and T, always on the full
graph: a group's spreaders covering every vertex, or covering only the
group's members. The latter equals a greedy on the group's induced
subgraph, since a member's span with the group as T is exactly its span
there, and that subgraph's ids keep the full graph's order, so ties go to
the same vertex.

The loop is eager: every live candidate's current span sits in one array,
and each pick takes the largest directly, found through per-block maxima
(see ``_greedy_run``). A pick then lowers the spans its newly covered
targets took away, through the in-neighbor lists of those targets. The
reversed graph holding them is built once per graph and shared by every
run on it. On the benchmark's dense-daily graph (3,000 vertices, 264k
arcs, 81 picks) a solve takes about 15 ms, 5-6 of them for the reversed
graph; a 100k-vertex sparse graph with 18k picks takes about 0.45 s.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, TextIO

import numpy as np

from .community import Partition
from .errors import InfeasibleCoverageError
from .graph import DirectedGraph, _distinct_keys

_INT = np.int64

# candidate pools beyond this are too large to enumerate exactly
BRUTE_FORCE_LIMIT = 25

# slots per block of the greedy's span array: a pick scans the n / _BLOCK
# block maxima, then one block. 32, 64, 128 and 256 were within noise of
# each other on the benchmark graphs; on a 100k-vertex one 256 was slowest.
_BLOCK = 64


@dataclass(frozen=True)
class DominationResult:
    """Outcome of a greedy run, feasible or not.

    ``selected`` lists picks in order; ``covered_after_step[j]`` is how many
    targets the first j+1 picks cover together. An infeasible run stops when
    the candidates add no coverage, so its ``covered`` is the most they reach.
    """

    selected: tuple[int, ...]
    covered_after_step: tuple[int, ...]
    rho: float
    target: int
    n_target: int
    candidates: str
    feasible: bool

    @property
    def covered(self) -> int:
        return self.covered_after_step[-1] if self.covered_after_step else 0

    @property
    def fraction(self) -> float:
        return self.covered / self.n_target if self.n_target else 0.0


def spreaders(g: DirectedGraph) -> np.ndarray:
    """Vertices with at least one outgoing arc; the default candidate pool."""
    return np.flatnonzero(g.out_degrees > 0)


def coverage_target(rho: float, n_target: int) -> int:
    """Smallest integer count satisfying a fractional coverage requirement.

    Products that land within 1e-9 of an integer are snapped to it before
    rounding up, so e.g. 0.3 * 10 asks for 3 picks rather than 4.
    """
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    scaled = rho * n_target
    nearest = round(scaled)
    if abs(scaled - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(scaled))


def _resolve_ids(g: DirectedGraph, ids: Sequence[int] | np.ndarray, what: str) -> np.ndarray:
    arr = _distinct_keys(np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids, dtype=_INT))
    if len(arr) and (arr[0] < 0 or arr[-1] >= g.n):
        bad = int(arr[0]) if arr[0] < 0 else int(arr[-1])
        raise ValueError(f"{what} id {bad} out of range for graph with {g.n} vertices")
    return arr


def _target_mask(g: DirectedGraph, cover_targets: Sequence[int] | np.ndarray | None) -> np.ndarray:
    """The vertices to cover as a boolean mask; every vertex when None."""
    if cover_targets is None:
        return np.ones(g.n, dtype=bool)
    mask = np.zeros(g.n, dtype=bool)
    mask[_resolve_ids(g, cover_targets, "target")] = True
    return mask


def _greedy_run(
    g: DirectedGraph,
    candidate_ids: np.ndarray,
    target_mask: np.ndarray,
    stop_covered: int | None,
    max_picks: int | None,
) -> tuple[list[int], list[int], bool]:
    """Core greedy loop shared by the solver and the curve, evaluated eagerly.

    ``gain`` holds every live candidate's current span and 0 for every other
    vertex, picked ones included, padded with zeros to whole blocks of
    ``_BLOCK`` slots; ``top`` holds each block's maximum. The first block
    whose maximum is the largest holds the largest span, and no block before
    it does. The first slot inside it holding that maximum is therefore the
    largest span with the lowest id: exactly the pick of a full rescan. A
    largest span of 0 means no candidate adds coverage.

    A pick zeroes its slot, and each newly covered target lowers by one the
    span of every live candidate reaching it: its in-neighbors, plus itself.
    ``np.subtract.at`` applies these, since a candidate reaching several of
    the targets appears once per target. Spans only fall, so a block's
    maximum goes stale only when one of its slots changed: the touched
    blocks and the picked vertex's own, whose zeroed slot is no longer
    touched. Those are recomputed, or every block is when the touched
    slots could fill them all anyway. A pick costs a scan of the
    ``n / _BLOCK`` maxima and of one block, plus numpy work over the arcs
    into its newly covered targets. On a shared 2-core VM that is about
    100 us per pick when picks cover hundreds of targets (dense-daily) and
    25-40 us when they cover a few (sparse-blocks, a 100k-vertex graph).

    Returns (selected, covered_after_step, exhausted). ``exhausted`` means the
    candidate pool ran out of useful picks before any stop condition was met.
    """
    n = g.n
    rev_ptr, rev_indices = g.in_csr
    # each vertex's span: its out-arcs into T, counted per CSR row through
    # a running count over all arcs, plus itself when it is a target
    arcs_into_t = np.zeros(g.m + 1, dtype=_INT)
    np.cumsum(target_mask[g.indices], out=arcs_into_t[1:])
    spans = arcs_into_t[g.indptr[1:]] - arcs_into_t[g.indptr[:-1]] + target_mask

    # at least one block, so an empty graph needs no special case
    n_blocks = n // _BLOCK + 1
    gain = np.zeros(n_blocks * _BLOCK, dtype=_INT)
    gain[candidate_ids] = spans[candidate_ids]
    blocks = gain.reshape(n_blocks, _BLOCK)
    top = blocks.max(axis=1)

    uncovered = target_mask.copy()
    selected: list[int] = []
    covered_after: list[int] = []
    f = 0

    while True:
        if stop_covered is not None and f >= stop_covered:
            return selected, covered_after, False
        if max_picks is not None and len(selected) >= max_picks:
            return selected, covered_after, False
        b = int(top.argmax())
        if top[b] <= 0:
            return selected, covered_after, True
        v = b * _BLOCK + int(blocks[b].argmax())

        gain[v] = 0
        closed = np.concatenate((g.indices[g.indptr[v]: g.indptr[v + 1]], (v,)))
        newly = closed[uncovered[closed]]
        uncovered[newly] = False
        f += len(newly)
        selected.append(v)
        covered_after.append(f)

        chunks = [rev_indices[rev_ptr[w]: rev_ptr[w + 1]] for w in newly.tolist()]
        chunks.append(newly)
        touch = np.concatenate(chunks)
        # a live candidate reaching a newly covered target still counts it,
        # so the positive slots here are exactly the live candidates
        touch = touch[gain[touch] > 0]
        np.subtract.at(gain, touch, 1)
        if len(touch) * _BLOCK >= n:
            top = blocks.max(axis=1)
        else:
            # v left touch with its zeroed slot, but its block changed too
            stale = np.concatenate((touch // _BLOCK, (b,)))
            top[stale] = blocks[stale].max(axis=1)


def _solve(
    g: DirectedGraph, rho: float, cand: np.ndarray, target_mask: np.ndarray, desc: str
) -> DominationResult:
    """Greedy run to the rho target; its result says whether it got there."""
    n_target = int(np.count_nonzero(target_mask))
    target = coverage_target(rho, n_target)
    selected, covered_after, exhausted = _greedy_run(g, cand, target_mask, target, None)
    return DominationResult(
        selected=tuple(selected),
        covered_after_step=tuple(covered_after),
        rho=rho,
        target=target,
        n_target=n_target,
        candidates=desc,
        feasible=not exhausted,
    )


def _feasible(result: DominationResult) -> DominationResult:
    """The result itself, or InfeasibleCoverageError carrying it."""
    if not result.feasible:
        raise InfeasibleCoverageError(result)
    return result


def greedy_pdds(
    g: DirectedGraph,
    rho: float,
    candidates: Sequence[int] | np.ndarray | None = None,
    cover_targets: Sequence[int] | np.ndarray | None = None,
) -> DominationResult:
    """Greedy cover of a fraction rho of the targets by candidate spans.

    Candidates default to the spreaders; targets default to every vertex.
    Raises InfeasibleCoverageError, carrying the infeasible result, when the
    candidate pool cannot reach the requested count at all.
    """
    target_mask = _target_mask(g, cover_targets)
    if candidates is None:
        cand = spreaders(g)
        desc = f"spreaders ({len(cand)} candidates)"
    else:
        cand = _resolve_ids(g, candidates, "candidate")
        desc = f"restricted pool ({len(cand)} candidates)"
    return _feasible(_solve(g, rho, cand, target_mask, desc))


def coverage_curve(
    g: DirectedGraph,
    candidates: Sequence[int] | np.ndarray | None = None,
    cover_targets: Sequence[int] | np.ndarray | None = None,
    max_spreaders: int = 1,
) -> list[tuple[int, float]]:
    """Fraction covered after 1..max_spreaders greedy picks.

    Stops early once no remaining candidate adds coverage, so the curve never
    pads with useless picks. Fractions are non-decreasing and their marginal
    gains never increase.
    """
    if max_spreaders < 1:
        raise ValueError("max_spreaders must be at least 1")
    target_mask = _target_mask(g, cover_targets)
    n_target = int(np.count_nonzero(target_mask))
    if n_target == 0:
        return []
    cand = spreaders(g) if candidates is None else _resolve_ids(g, candidates, "candidate")
    _, covered_after, _ = _greedy_run(g, cand, target_mask, None, max_spreaders)
    return [(j + 1, c / n_target) for j, c in enumerate(covered_after)]


def brute_force_pdds(
    g: DirectedGraph,
    rho: float,
    candidates: Sequence[int] | np.ndarray,
    cover_targets: Sequence[int] | np.ndarray | None = None,
) -> int | None:
    """Exact minimum number of candidates covering the target fraction.

    Exhaustive over candidate subsets in ascending size, so the pool is
    capped at BRUTE_FORCE_LIMIT. Returns None when even the full pool falls
    short.
    """
    cand = _resolve_ids(g, candidates, "candidate")
    if len(cand) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is capped at {BRUTE_FORCE_LIMIT} candidates, got {len(cand)}")
    target_ids = np.flatnonzero(_target_mask(g, cover_targets))
    n_target = len(target_ids)
    target = coverage_target(rho, n_target)
    if target == 0:
        return 0

    bit_of = {int(v): j for j, v in enumerate(target_ids)}
    masks: list[int] = []
    for v in cand.tolist():
        mask = 0
        if v in bit_of:
            mask |= 1 << bit_of[v]
        for w in g.indices[g.indptr[v]: g.indptr[v + 1]].tolist():
            if w in bit_of:
                mask |= 1 << bit_of[w]
        masks.append(mask)

    masks.sort(key=lambda x: -x.bit_count())
    best_prefix = [0]
    for mask in masks:
        best_prefix.append(best_prefix[-1] + mask.bit_count())
    for r in range(1, len(masks) + 1):
        if best_prefix[r] < target:
            continue
        for combo in combinations(masks, r):
            union = 0
            for mask in combo:
                union |= mask
            if union.bit_count() >= target:
                return r
    return None


def group_spreaders(g: DirectedGraph, p: Partition, i: int) -> np.ndarray:
    """Members of group i that are spreaders in the full graph."""
    if p.n != g.n:
        raise ValueError(f"partition covers {p.n} vertices, graph has {g.n}")
    members = p.members(i)
    return members[g.out_degrees[members] > 0]


def in_group_domination(g: DirectedGraph, p: Partition, i: int, rho: float) -> DominationResult:
    """Cover a fraction of group i using only its own spreader members.

    The targets are group i's members, on the full graph. Spreader status
    comes from the full graph too, so a member whose arcs all leave the
    group still qualifies but covers only itself. The result equals a
    greedy on the group's induced subgraph, with ids in the full graph.
    """
    cand = group_spreaders(g, p, i)
    desc = f"group {i} spreaders, in-group targets ({len(cand)} candidates)"
    return _feasible(_solve(g, rho, cand, p.assignment == i, desc))


def network_domination_by_group(g: DirectedGraph, p: Partition, i: int, rho: float) -> DominationResult:
    """Cover a fraction of the whole network using only group i spreaders."""
    cand = group_spreaders(g, p, i)
    desc = f"group {i} spreaders, network targets ({len(cand)} candidates)"
    return _feasible(_solve(g, rho, cand, _target_mask(g, None), desc))


def write_domination_csv(
    payload: DominationResult | Sequence[tuple[int, float]], stream: TextIO, labels: Sequence[str]
) -> None:
    """CSV of a result, one row per pick, or of a coverage curve.

    An infeasible result ends with a ``# infeasible: <reason>`` line.
    """
    if not isinstance(payload, DominationResult):
        stream.write("spreaders,fraction\n")
        for count, frac in payload:
            stream.write(f"{count},{frac:.6f}\n")
        return
    stream.write("step,vertex,covered,fraction\n")
    for j, (v, c) in enumerate(zip(payload.selected, payload.covered_after_step), start=1):
        stream.write(f"{j},{labels[v]},{c},{c / payload.n_target:.6f}\n")
    if not payload.feasible:
        stream.write(f"# infeasible: {InfeasibleCoverageError(payload)}\n")


def domination_to_dict(
    payload: DominationResult | Sequence[tuple[int, float]], labels: Sequence[str]
) -> dict:
    """JSON-ready form of a result or of a coverage curve.

    An infeasible result reports ``max_coverable``/``max_fraction`` and the
    reason in ``error`` where a feasible one has ``covered``/``fraction``,
    and its ``candidates`` is None.
    """
    if not isinstance(payload, DominationResult):
        return {"curve": [{"spreaders": c, "fraction": f} for c, f in payload]}
    doc = {
        "feasible": payload.feasible,
        "rho": payload.rho,
        "target": payload.target,
        "n_target": payload.n_target,
        "selected": [labels[v] for v in payload.selected],
        "covered_after_step": list(payload.covered_after_step),
    }
    if payload.feasible:
        doc.update(candidates=payload.candidates, covered=payload.covered, fraction=payload.fraction)
    else:
        doc.update(
            candidates=None,
            max_coverable=payload.covered,
            max_fraction=payload.fraction,
            error=str(InfeasibleCoverageError(payload)),
        )
    return doc


def write_domination_json(payload: dict, stream: TextIO) -> None:
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")
