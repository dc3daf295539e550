"""Greedy partial dominating-set solving on directed graphs.

Every run solves one problem: candidates C cover a fraction rho of targets
T. A vertex v "spans" itself plus its out-neighbors, restricted to T. The
greedy rule repeatedly picks the candidate with the largest uncovered span
(ties to the lowest vertex id) until the requested fraction of targets is
covered, which carries the standard H(delta+1) approximation guarantee for
this objective. The modes differ only in C and T, always on the full
graph, and ``solve_task`` alone maps a mode to them. An in-group task (a
group's spreaders covering only its members) equals a greedy on the group's
induced subgraph, since a member's span with the group as T is exactly its
span there, and that subgraph's ids keep the full graph's order, so ties go
to the same vertex. A smaller rho's picks are a prefix of a larger one's, so
``solve_task`` runs the greedy once per task and cuts every rho's result
from that run, or caps it at a pick count for a coverage curve; the public
solvers wrap the same run for one rho, and raise for an infeasible one.

The loop is eager and runs in rounds. Every live candidate's current span
sits in one array, and a round reads the largest, s, through per-block
maxima (see ``_greedy_run``). It walks the candidates holding s in id
order and takes each one whose uncovered targets miss those taken before
it in the round: exactly the picks of a greedy taking one candidate at a
time. The round then lowers at once the spans that its newly covered
targets took away, through the in-neighbor lists of those targets. The
reversed graph holding them is built once per graph and shared by every
run on it. On the benchmark's dense-daily graph (3,000 vertices, 264k
arcs) the 81 picks take 57 rounds and about 7 ms, plus 4-5 ms for the
reversed graph; on sparse-blocks (10,000 vertices, 64k arcs) 1,248 picks
take 16 rounds and about 6 ms, and on a 200k-vertex sparse graph 30,606
picks take 18 rounds and 0.15-0.2 s.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, TextIO

import numpy as np

from .community import Partition
from .errors import InfeasibleCoverageError
from .graph import DirectedGraph, _check_integer, _distinct_keys

_INT = np.int64

# the tasks ``solve_task`` maps to candidates and targets
MODES = ("unrestricted", "network-by-group", "in-group")

# candidate pools beyond this are too large to enumerate exactly
BRUTE_FORCE_LIMIT = 25

# slots per block of the greedy's span array: a round scans the n / _BLOCK
# block maxima, then the blocks holding the largest span. 32, 64, 128 and
# 256 were within noise of each other on the benchmark graphs when each
# pick scanned them; on a 100k-vertex one 256 was slowest.
_BLOCK = 64

# rows that ``_gather`` slices one by one: on the benchmark graphs one
# vectorised gather cost about as much as 16 to 32 slices
_FEW_ROWS = 16


@dataclass(frozen=True)
class DominationResult:
    """Outcome of a greedy run: a rho solve, feasible or not, or a curve.

    ``selected`` lists picks in order; ``covered_after_step[j]`` is how many
    targets the first j+1 picks cover together. An infeasible run stops when
    the candidates add no coverage, so its ``covered`` is the most they reach.
    A coverage curve has ``rho`` and ``target`` None and is always feasible.
    """

    selected: tuple[int, ...]
    covered_after_step: tuple[int, ...]
    rho: float | None
    target: int | None
    n_target: int
    candidates: str
    feasible: bool

    @property
    def covered(self) -> int:
        return self.covered_after_step[-1] if self.covered_after_step else 0

    @property
    def fraction(self) -> float:
        return self.covered / self.n_target if self.n_target else 0.0

    @property
    def points(self) -> list[tuple[int, float]]:
        """(picks, fraction covered) after each pick: a curve's points."""
        return [(j + 1, c / self.n_target) for j, c in enumerate(self.covered_after_step)]

    @property
    def reason(self) -> str:
        """Why an infeasible run fell short, as every report of it says."""
        return (f"coverage target {self.target} of {self.n_target} is unreachable: "
                f"candidate set covers at most {self.covered} ({self.fraction:.1%})")


def spreaders(g: DirectedGraph) -> np.ndarray:
    """Vertices with at least one outgoing arc; the default candidate pool."""
    return np.flatnonzero(g.out_degrees > 0)


def check_rho(rho: float) -> None:
    """Raise ValueError unless ``rho`` is a coverage fraction in (0, 1]."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")


def check_max_picks(max_picks: int) -> None:
    """Raise ValueError unless ``max_picks``, a curve length, is an integer of at least 1."""
    if not max_picks >= 1:
        raise ValueError(f"curve length must be at least 1, got {max_picks}")
    _check_integer(max_picks, "curve length")


def coverage_target(rho: float, n_target: int) -> int:
    """Smallest integer count satisfying a fractional coverage requirement.

    Products that land within 1e-9 of an integer are snapped to it before
    rounding up, so e.g. 0.3 * 10 asks for 3 picks rather than 4.
    """
    check_rho(rho)
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


def _pool(g: DirectedGraph, candidates, cover_targets) -> tuple[np.ndarray, np.ndarray, str]:
    """Candidate ids (the spreaders if None), target mask and description of a pool."""
    target_mask = _target_mask(g, cover_targets)
    if candidates is None:
        cand = spreaders(g)
        return cand, target_mask, f"spreaders ({len(cand)} candidates)"
    cand = _resolve_ids(g, candidates, "candidate")
    return cand, target_mask, f"restricted pool ({len(cand)} candidates)"


def _gather(indptr: np.ndarray, indices: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The CSR rows of ``ids``, at least one, concatenated in order: up to
    ``_FEW_ROWS`` rows sliced one by one, more in one gather of their positions."""
    starts = indptr[ids]
    stops = indptr[ids + 1]
    if len(ids) <= _FEW_ROWS:
        return np.concatenate([indices[a:b] for a, b in zip(starts.tolist(), stops.tolist())])
    lens = stops - starts
    ends = np.cumsum(lens)  # where each row ends in the result
    return indices[np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)]


def _disjoint_picks(
    g: DirectedGraph, cand: np.ndarray, uncovered: np.ndarray, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """The candidates, walked in id order, whose uncovered targets miss those of every
    candidate taken before them, and the targets they take together."""
    out = _gather(g.indptr, g.indices, cand)
    live = out[uncovered[out]].tolist()
    claimed: set[int] = set()
    picks: list[int] = []
    newly: list[int] = []
    at = 0
    # v holds s uncovered targets: the next s - own of ``live``, and itself when own
    for v, own in zip(cand.tolist(), uncovered[cand].tolist()):
        row = live[at: at + s - own]
        at += s - own
        if own:
            row.append(v)
        if claimed.isdisjoint(row):
            claimed.update(row)
            picks.append(v)
            newly += row
    return np.array(picks, dtype=_INT), np.array(newly, dtype=_INT)


def _greedy_run(
    g: DirectedGraph, candidate_ids: np.ndarray, target_mask: np.ndarray, stop_covered: float, max_picks: float
) -> tuple[list[int], list[int]]:
    """Picks and coverage after each, until ``stop_covered`` targets are covered,
    ``max_picks`` are made or no candidate adds coverage; evaluated eagerly.

    ``gain`` holds every live candidate's current span, padded with zeros to
    whole blocks of ``_BLOCK`` slots; every other slot, picked ones included,
    holds 0 or less and so is never picked. ``top`` holds each block's
    maximum, so the largest span s and the blocks holding it are found
    without a scan of every slot. A largest span of 0 means no candidate
    adds coverage.

    A round walks the live candidates holding s in id order. It takes each
    one whose uncovered targets, as of the round's start, miss every target
    taken earlier in the round, and skips the rest. These are exactly the
    picks of a full rescan, the largest span with the lowest id each time:
    no span exceeds s and spans only fall, so after the round's picks so far
    a skipped candidate holds less than s, one not yet reached that the walk
    would take still holds s, and every candidate that held less than s at
    the round's start still does. A skipped candidate is found again by a
    later round, at its lower span. The pick that reaches ``stop_covered``
    or ``max_picks`` ends the run in the middle of its round.

    The round is then applied at once. Its picks' slots are zeroed, and each
    newly covered target lowers by one the span of every candidate reaching
    it: its in-neighbors, plus itself. One gather reads the in-neighbor rows
    of all the round's targets, and ``np.subtract.at`` applies them, since a
    candidate reaching several of the targets appears once per target.
    Spans only fall, so a block's maximum goes stale only when one of its
    slots changed: those of touched and picked slots are recomputed, or
    every block's when the touched slots could fill them all anyway.

    A round costs a scan of the ``n / _BLOCK`` maxima and of the blocks
    holding s, a Python set test per candidate holding s over its s
    targets, and numpy work over the arcs into its newly covered targets.
    On a shared 2-core VM that is about 100 us per round on dense-daily,
    whose 81 picks covering hundreds of targets take 57 rounds, and about
    5 us per pick on sparse graphs, where a round holds hundreds to
    thousands of picks (sparse-blocks, a 200k-vertex graph).
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

    while f < stop_covered and len(selected) < max_picks:
        b = int(top.argmax())
        s = int(top[b])
        if s <= 0:
            break
        held = np.flatnonzero(top == s)
        if len(held) == 1:
            cand = np.flatnonzero(blocks[b] == s) + b * _BLOCK
        else:
            rows, cols = np.nonzero(blocks[held] == s)
            cand = held[rows] * _BLOCK + cols
        if len(cand) == 1:
            closed = np.concatenate((g.indices[g.indptr[cand[0]]: g.indptr[cand[0] + 1]], cand))
            picks, newly = cand, closed[uncovered[closed]]
        else:
            picks, newly = _disjoint_picks(g, cand, uncovered, s)
        for v in picks.tolist():
            f += s
            selected.append(v)
            covered_after.append(f)
            if f >= stop_covered or len(selected) >= max_picks:
                return selected, covered_after

        gain[picks] = 0
        uncovered[newly] = False
        # every candidate reaching a newly covered target loses it; other
        # slots fall below 0 and so are never picked
        touch = np.concatenate((_gather(rev_ptr, rev_indices, newly), newly))
        np.subtract.at(gain, touch, 1)
        if (len(touch) + len(picks)) * _BLOCK >= n:
            top = blocks.max(axis=1)
        else:
            # picked slots may be missing from touch, but their blocks changed too
            stale = np.concatenate((touch, picks)) // _BLOCK
            top[stale] = blocks[stale].max(axis=1)
    return selected, covered_after


def _run(
    g: DirectedGraph, cand: np.ndarray, target_mask: np.ndarray, desc: str,
    rhos: Sequence[float] = (), max_picks: int | None = None,
) -> list[DominationResult]:
    """One greedy run, to the largest rho's target: each rho's result is the shortest
    prefix covering its target, the picks of a run to that target alone, or every
    pick, infeasible, when the run falls short. With no rho it is the curve.
    Every rho and a ``max_picks`` that is not None are checked before the run.
    """
    if max_picks is not None:
        check_max_picks(max_picks)
    n_target = int(np.count_nonzero(target_mask))
    targets = [coverage_target(rho, n_target) for rho in rhos]
    stop, cap = max(targets, default=math.inf), math.inf if max_picks is None else max_picks
    selected, covered_after = _greedy_run(g, cand, target_mask, stop, cap)
    if not rhos:
        return [DominationResult(tuple(selected), tuple(covered_after), None, None, n_target, desc, True)]
    reach = [0, *covered_after]  # covered after 0, 1, 2, ... picks, strictly increasing
    cuts = [bisect_left(reach, target) for target in targets]
    return [
        DominationResult(
            tuple(selected[:k]), tuple(covered_after[:k]), rho, target, n_target, desc, k < len(reach))
        for rho, target, k in zip(rhos, targets, cuts)
    ]


def _feasible(results: list[DominationResult]) -> DominationResult:
    """The one result of a one-rho run, or InfeasibleCoverageError carrying it."""
    (result,) = results
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
    return _feasible(_run(g, *_pool(g, candidates, cover_targets), [rho]))


def coverage_curve(
    g: DirectedGraph,
    candidates: Sequence[int] | np.ndarray | None = None,
    cover_targets: Sequence[int] | np.ndarray | None = None,
    max_spreaders: int = 1,
) -> list[tuple[int, float]]:
    """Fraction covered after 1..max_spreaders greedy picks.

    Stops early once no remaining candidate adds coverage, so the curve never
    pads with useless picks. Fractions are non-decreasing and their marginal
    gains never increase. Raises ValueError unless ``max_spreaders`` is
    an integer of at least 1 (``check_max_picks``).
    """
    (curve,) = _run(g, *_pool(g, candidates, cover_targets), max_picks=max_spreaders)
    return curve.points


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
    p.check_cover(g.n)
    members = p.members(i)
    return members[g.out_degrees[members] > 0]


def solve_task(
    g: DirectedGraph, mode: str, p: Partition | None = None, i: int | None = None,
    rhos: Sequence[float] = (), max_picks: int | None = None,
) -> list[DominationResult]:
    """A result per rho, infeasible ones too, or with no rho one curve, from one run of
    the task: every spreader covering every vertex (``unrestricted``), or group i's
    spreaders covering every vertex (``network-by-group``) or its members (``in-group``).

    Raises ValueError for an unknown mode, a group mode without ``p`` or ``i``, a rho
    outside (0, 1] (``check_rho``) or a ``max_picks`` that is not an integer of at
    least 1 (``check_max_picks``).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; modes are {', '.join(MODES)}")
    if mode == "unrestricted":
        return _run(g, *_pool(g, None, None), rhos, max_picks)
    if p is None or i is None:
        raise ValueError(f"mode {mode} needs a partition and a group index")
    cand = group_spreaders(g, p, i)
    if mode == "in-group":
        targets, audience = p.assignment == i, "in-group"
    else:
        targets, audience = _target_mask(g, None), "network"
    desc = f"group {i} spreaders, {audience} targets ({len(cand)} candidates)"
    return _run(g, cand, targets, desc, rhos, max_picks)


def in_group_domination(g: DirectedGraph, p: Partition, i: int, rho: float) -> DominationResult:
    """Cover a fraction of group i using only its own spreader members.

    The targets are group i's members, on the full graph. Spreader status
    comes from the full graph too, so a member whose arcs all leave the
    group still qualifies but covers only itself. The result equals a
    greedy on the group's induced subgraph, with ids in the full graph.
    """
    return _feasible(solve_task(g, "in-group", p, i, [rho]))


def network_domination_by_group(g: DirectedGraph, p: Partition, i: int, rho: float) -> DominationResult:
    """Cover a fraction of the whole network using only group i spreaders."""
    return _feasible(solve_task(g, "network-by-group", p, i, [rho]))


def write_domination_csv(result: DominationResult, stream: TextIO, labels: Sequence[str]) -> None:
    """CSV of a result, one row per pick, or of a coverage curve.

    An infeasible result ends with a ``# infeasible: <reason>`` line.
    """
    if result.rho is None:
        stream.write("spreaders,fraction\n")
        stream.writelines(f"{count},{frac:.6f}\n" for count, frac in result.points)
        return
    stream.write("step,vertex,covered,fraction\n")
    for j, (v, c) in enumerate(zip(result.selected, result.covered_after_step), start=1):
        stream.write(f"{j},{labels[v]},{c},{c / result.n_target:.6f}\n")
    if not result.feasible:
        stream.write(f"# infeasible: {result.reason}\n")


def domination_to_dict(result: DominationResult, labels: Sequence[str]) -> dict:
    """JSON-ready form of a result or of a coverage curve.

    An infeasible result reports ``max_coverable``/``max_fraction`` and the
    reason in ``error`` where a feasible one has ``covered``/``fraction``,
    and its ``candidates`` is None.
    """
    if result.rho is None:
        return {"curve": [{"spreaders": c, "fraction": f} for c, f in result.points]}
    doc = {
        "feasible": result.feasible,
        "rho": result.rho,
        "target": result.target,
        "n_target": result.n_target,
        "selected": [labels[v] for v in result.selected],
        "covered_after_step": list(result.covered_after_step),
    }
    if result.feasible:
        doc.update(candidates=result.candidates, covered=result.covered, fraction=result.fraction)
    else:
        doc.update(
            candidates=None,
            max_coverable=result.covered,
            max_fraction=result.fraction,
            error=result.reason,
        )
    return doc
