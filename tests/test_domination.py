"""Greedy partial domination: contracts, oracles, and restriction modes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polarnet.community import Partition
from polarnet.domination import (
    _BLOCK,
    brute_force_pdds,
    coverage_curve,
    coverage_target,
    greedy_pdds,
    group_spreaders,
    in_group_domination,
    network_domination_by_group,
    solve_task,
    spreaders,
)
from polarnet.errors import InfeasibleCoverageError
from polarnet.graph import directed_from_arcs
from polarnet.synth import directed_cycle, star


def test_star_hub_dominates_alone():
    g = star(5)
    result = greedy_pdds(g, 1.0, candidates=range(6))
    assert result.selected == (0,)
    assert result.covered_after_step == (6,)
    assert result.n_target == 6


def test_star_leaf_restriction_is_infeasible():
    g = star(5)
    with pytest.raises(InfeasibleCoverageError) as info:
        greedy_pdds(g, 1.0, candidates=[1])
    assert info.value.max_coverable == 1
    assert info.value.n_target == 6


def test_default_candidates_are_spreaders():
    g = star(5)
    assert spreaders(g).tolist() == [0]
    result = greedy_pdds(g, 1.0)
    assert result.selected == (0,)
    assert "spreaders" in result.candidates


def test_three_cycle_optimum_is_two():
    g = directed_cycle(3)
    assert oracles.brute_minimum_cover(g, 1.0, range(3)) == 2
    assert brute_force_pdds(g, 1.0, range(3)) == 2


def test_isolated_vertices_brute_force():
    g = directed_from_arcs(4, [])
    assert brute_force_pdds(g, 0.5, range(4)) == 2


def test_star_brute_force_single_pick():
    assert brute_force_pdds(star(5), 1.0, range(6)) == 1


def test_brute_force_infeasible_sentinel():
    g = star(5)
    assert brute_force_pdds(g, 1.0, [1, 2]) is None


def test_brute_force_needs_no_pick_for_a_target_of_none():
    assert brute_force_pdds(star(3), 0.5, [1], cover_targets=[]) == 0


@pytest.mark.parametrize("call, message", [
    (lambda: greedy_pdds(star(3), 0.5, candidates=[0, 4]), "candidate id 4 out of range for graph with 4 vertices"),
    (lambda: brute_force_pdds(star(3), 0.5, [-1, 0]), "candidate id -1 out of range for graph with 4 vertices"),
    (lambda: solve_task(star(3), "everyone", rhos=[0.5]),
     "unknown mode 'everyone'; modes are unrestricted, network-by-group, in-group"),
], ids=["candidate past n", "negative candidate", "unknown mode"])
def test_out_of_range_ids_and_unknown_modes_are_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_brute_force_rejects_large_pools():
    g = directed_from_arcs(30, [(0, 1)])
    with pytest.raises(ValueError):
        brute_force_pdds(g, 0.5, range(30))


def test_brute_force_matches_reference_enumerator():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(3, 10))
        g = oracles.random_digraph(n, 0.3, rng)
        for rho in (0.5, 1.0):
            assert brute_force_pdds(g, rho, range(n)) == oracles.brute_minimum_cover(
                g, rho, range(n)
            )


def test_greedy_matches_full_rescan_reference():
    # span bookkeeping check: the solver must reproduce the naive
    # recompute-everything selection exactly, including tie-breaks
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(4, 25))
        g = oracles.random_digraph(n, float(rng.uniform(0.05, 0.4)), rng)
        rho = float(rng.choice([0.3, 0.5, 0.8, 1.0]))
        expected = oracles.greedy_reference(g, rho, range(n))
        result = greedy_pdds(g, rho, candidates=range(n))
        assert expected[2]
        assert list(result.selected) == expected[0]
        assert list(result.covered_after_step) == expected[1]


@pytest.mark.parametrize("n", [46340, 46341])
def test_greedy_matches_reference_on_either_side_of_int32_keys(n):
    # the reversed arcs' keys w * n + u are int32 up to n = 46,340 and int64
    # above; arcs into n − 1 from the top vertices make keys past 2³¹ − 1.
    # Candidates and targets are the vertices the arcs touch: the oracle
    # rescans every candidate per pick
    rng = np.random.default_rng(n)
    top = n - 1
    pairs = np.vstack([rng.integers(n - 300, n, size=(600, 2)),
                       [(top - 1, top), (top, top - 1), (0, top), (top, 0), (top - 7, top)]])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    g = directed_from_arcs(n, pairs.tolist())
    touched = np.unique(pairs).tolist()
    _assert_matches_reference(g, touched, touched, 0.6, 20)
    _assert_matches_reference(g, touched[::2], touched[1::2], 0.3, 20)


@st.composite
def _greedy_instance(draw):
    """A graph, candidate pool, targets, rho and curve length for the greedy.

    Besides random digraphs, the shapes are tie-heavy: equal disjoint stars
    or cliques and directed cycles under a random relabelling, where many
    candidates share the largest span and the lowest-id rule decides,
    optionally with a few extra arcs so that spans fall unevenly.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["random", "stars", "cliques", "cycle"]))
    if shape == "random":
        n = draw(st.integers(1, 24))
        p = draw(st.sampled_from([0.05, 0.15, 0.4]))
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    elif shape == "stars":
        k, leaves = draw(st.integers(1, 5)), draw(st.integers(1, 4))
        n = k * (leaves + 1)
        arcs = [(h, h + j) for h in range(0, n, leaves + 1) for j in range(1, leaves + 1)]
    elif shape == "cliques":
        k, size = draw(st.integers(1, 5)), draw(st.integers(2, 4))
        n = k * size
        arcs = [(a, b) for c in range(0, n, size) for a in range(c, c + size) for b in range(c, c + size) if a != b]
    else:
        n = draw(st.integers(2, 20))
        arcs = [(v, (v + 1) % n) for v in range(n)]
    extra = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(draw(st.integers(0, 3)), 2)) if a != b]
    perm = rng.permutation(n)
    g = directed_from_arcs(n, [(int(perm[a]), int(perm[b])) for a, b in [*arcs, *extra]])
    pool = draw(st.sampled_from(["spreaders", "all", "subset"]))
    candidates = None if pool == "spreaders" else [v for v in range(n) if pool == "all" or rng.random() < 0.5]
    cover_targets = [v for v in range(n) if rng.random() < 0.6] if draw(st.booleans()) else None
    rho = draw(st.sampled_from([0.1, 0.3, 0.5, 0.9, 1.0]))
    return g, candidates, cover_targets, rho, draw(st.integers(1, n + 1))


@settings(max_examples=300)
@given(_greedy_instance())
def test_greedy_and_curve_match_full_rescan_reference(instance):
    # restricted pools and targets, infeasible runs and curve prefixes,
    # against the recompute-everything oracle
    _assert_matches_reference(*instance)


def _assert_matches_reference(g, candidates, cover_targets, rho, max_spreaders):
    """The curve and the solver reproduce the full-rescan oracle exactly.

    The curve goes first: its pick count is bounded, so a solver that keeps
    picking useless vertices shows up as a wrong curve rather than a hang.
    """
    pool = spreaders(g).tolist() if candidates is None else candidates
    n_target = g.n if cover_targets is None else len(cover_targets)
    _, full_run, _ = oracles.greedy_reference(g, 1.0, pool, cover_targets)
    expected_curve = [(j + 1, c / n_target) for j, c in enumerate(full_run[:max_spreaders])]
    assert coverage_curve(g, candidates, cover_targets, max_spreaders) == expected_curve

    selected, covered_after, feasible = oracles.greedy_reference(g, rho, pool, cover_targets)
    result = _outcome(lambda: greedy_pdds(g, rho, candidates=candidates, cover_targets=cover_targets))
    assert list(result.selected) == selected
    assert list(result.covered_after_step) == covered_after
    assert result.feasible == feasible


def _star_graph(n: int, hubs: dict[int, list[int]]):
    return directed_from_arcs(n, [(h, leaf) for h, leaves in hubs.items() for leaf in leaves])


# Instances over several blocks of the solver's span array, each with a
# partial last block; (graph, candidates, cover targets, rho, picks expected
# or None when only the oracle says).
_B = _BLOCK
_N = 3 * _B + _B // 2
_MULTI_BLOCK_CASES = {
    # equal spans on both sides of a block boundary: the lower id goes first
    "tie_across_boundary": (
        _star_graph(_N, {_B: [3 * _B + 1, 3 * _B + 2, 3 * _B + 3], _B - 1: [2 * _B, 2 * _B + 1, 2 * _B + 2]}),
        None, None, 1.0, None),
    # equal spans inside one block, after a larger hub elsewhere
    "tie_inside_block": (
        _star_graph(_N, {2 * _B + 9: [1, 2, 3, 4], _B + 7: [5, 6], _B + 3: [8, 9]}),
        None, None, 1.0, None),
    # the picked hub leaves its block with a smaller, untouched candidate,
    # while a larger one waits in another block
    "picked_block_refreshed": (
        _star_graph(_N, {2: list(range(3 * _B, 3 * _B + 8)), 5: [10, 11], _B + 4: [20, 21, 22, 23]}),
        None, None, 1.0, [2, _B + 4, 5]),
    # only the partial last block holds candidates
    "candidates_in_last_block": (
        _star_graph(_N, {_N - 9: [0, 1, 2], _N - 5: [_B, _B + 1, _B + 2, _B + 3], _N - 2: [_N - 1], 7: [8, 9, 10]}),
        list(range(3 * _B, _N)), None, 1.0, None),
    "winner_at_id_0": (
        _star_graph(_N, {0: list(range(_N - 6, _N)), 3: [4, 5], _N - 1: [1]}),
        None, None, 0.5, None),
    "winner_at_last_id": (
        _star_graph(_N, {_N - 1: list(range(1, 9)), 0: [_B, _B + 1], _B: [2 * _B]}),
        None, None, 0.5, None),
    # the pool runs dry before rho: an infeasible run over every block
    "exhausted_pool": (
        _star_graph(_N, {1: [_B, 2 * _B], _B + 1: [2 * _B + 1], 3 * _B + 1: [_N - 1]}),
        None, None, 1.0, None),
}


# Instances for the solver's rounds, each of which takes every candidate holding
# the largest span whose targets miss those of the candidates taken before it;
# (graph, candidates, cover targets, rho, curve length, picks expected). Six
# hubs over four blocks, two of them in block 0, each with three leaves.
_HUBS = [3, 9, _B + 1, _B + 40, 2 * _B + 7, 3 * _B + 2]
_STARS = {h: [150 + 3 * j, 151 + 3 * j, 152 + 3 * j] for j, h in enumerate(_HUBS)}
_DISJOINT_STARS = _star_graph(_N, _STARS)
_STAR_VERTICES = sorted({*_HUBS, *range(150, 150 + 3 * len(_HUBS))})
_ROUND_CASES = {
    # one round takes every hub
    "equal_disjoint_stars": (_DISJOINT_STARS, None, None, 1.0, _N, _HUBS),
    # hub 9 shares leaf 152 with hub 3: it comes after the higher hubs that
    # kept the span it lost
    "shared_leaf": (
        _star_graph(_N, {**_STARS, 9: [152, 170, 171]}),
        None, None, 1.0, _N, [3, *_HUBS[2:], 9]),
    # rho's 12 of 24 targets are covered by the third of six picks of a round
    "rho_reached_mid_round": (_DISJOINT_STARS, None, _STAR_VERTICES, 0.5, _N, _HUBS[:3]),
    # the curve stops at 4 of a round's 6 picks
    "curve_cut_mid_round": (_DISJOINT_STARS, None, _STAR_VERTICES, 1.0, 4, _HUBS),
    # hubs _B + 1 and 3 * _B + 2 are not targets, so three leaves make their
    # span of 3; _B + 1 reaches hub 3, the round's first pick, and waits a round
    "hubs_not_targets": (
        _star_graph(_N, {3: [150, 151], _B + 1: [3, 160, 161], 2 * _B + 7: [170, 171], 3 * _B + 2: [180, 181, 182]}),
        None, [v for v in range(_N) if v not in (_B + 1, 3 * _B + 2)], 1.0, _N, [3, 2 * _B + 7, 3 * _B + 2, _B + 1]),
    # the second and fourth hub reach only what the first covers: the round
    # skips them, no candidate adds coverage after it, and vertex 200 stays
    # uncovered
    "pool_dry_mid_round": (
        _star_graph(_N, {1: [150, 151, 152], _B + 1: [150, 151, 152], 2 * _B + 1: [160, 161, 162], 3 * _B + 1: [150, 151, 152]}),
        None, [150, 151, 152, 160, 161, 162, 200], 1.0, _N, [1, 2 * _B + 1]),
}


@pytest.mark.parametrize("case", sorted(_ROUND_CASES))
def test_round_boundaries_match_reference(case):
    g, candidates, cover_targets, rho, max_spreaders, expected = _ROUND_CASES[case]
    _assert_matches_reference(g, candidates, cover_targets, rho, max_spreaders)
    assert list(_outcome(lambda: greedy_pdds(g, rho, candidates, cover_targets)).selected) == expected


@pytest.mark.parametrize("case", sorted(_MULTI_BLOCK_CASES))
def test_multi_block_greedy_matches_reference(case):
    g, candidates, cover_targets, rho, expected = _MULTI_BLOCK_CASES[case]
    assert g.n > 3 * _BLOCK and g.n % _BLOCK
    _assert_matches_reference(g, candidates, cover_targets, rho, g.n)
    if expected is not None:
        assert list(_outcome(lambda: greedy_pdds(g, rho, candidates, cover_targets)).selected) == expected


@st.composite
def _multi_block_instance(draw):
    """A sparse or star-heavy graph over several blocks, with pool and targets.

    Stars of one size put many equal spans in different blocks and in the
    same block; with shared leaves, drawn from a pool not much larger than
    one star, a hub taken first cuts the span of later ones holding the
    same span. Candidate pools may be confined to the last block.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(_BLOCK + 1, 4 * _BLOCK + _BLOCK // 2))
    shape = draw(st.sampled_from(["stars", "shared_leaves", "random"]))
    if shape != "random":
        hubs = rng.choice(n, size=draw(st.integers(1, 12)), replace=False)
        leaves = draw(st.integers(1, 5))
        pool = n if shape == "stars" else rng.choice(n, size=leaves + draw(st.integers(0, 3)), replace=False)
        arcs = [(int(h), int(w)) for h in hubs for w in rng.choice(pool, size=leaves, replace=False) if w != h]
    else:
        arcs = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(int(1.5 * n), 2)) if a != b]
    g = directed_from_arcs(n, arcs)
    pool = draw(st.sampled_from(["spreaders", "all", "subset", "last_block"]))
    if pool == "spreaders":
        candidates = None
    elif pool == "last_block":
        candidates = list(range((n - 1) // _BLOCK * _BLOCK, n))
    else:
        candidates = [v for v in range(n) if pool == "all" or rng.random() < 0.5]
    cover_targets = [v for v in range(n) if rng.random() < 0.6] if draw(st.booleans()) else None
    rho = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    return g, candidates, cover_targets, rho, draw(st.integers(1, n))


@settings(max_examples=40)
@given(_multi_block_instance())
def test_multi_block_greedy_and_curve_match_reference(instance):
    _assert_matches_reference(*instance)


def test_greedy_tie_breaks_to_lowest_vertex_id():
    # two hubs with identical spans: 0 -> {1,2}, 3 -> {4,5}
    g = directed_from_arcs(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
    result = greedy_pdds(g, 1.0, candidates=[0, 3])
    assert result.selected == (0, 3)


def test_greedy_result_invariants():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(5, 30))
        g = oracles.random_digraph(n, 0.2, rng)
        result = greedy_pdds(g, 0.75, candidates=range(n))
        counts = list(result.covered_after_step)
        assert all(b > a for a, b in zip(counts, counts[1:]))
        assert len(set(result.selected)) == len(result.selected)
        assert result.covered >= result.target
        covered = set()
        for v in result.selected:
            covered |= oracles.closed_out_neighborhood(g, v)
        assert len(covered & set(range(n))) == result.covered


def test_picked_spans_never_increase():
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(5, 25))
        g = oracles.random_digraph(n, 0.25, rng)
        result = greedy_pdds(g, 1.0, candidates=range(n))
        gains = [result.covered_after_step[0]] + [
            b - a for a, b in zip(result.covered_after_step, result.covered_after_step[1:])
        ]
        assert all(later <= earlier for earlier, later in zip(gains, gains[1:]))


def test_prefix_consistency_across_rho():
    rng = np.random.default_rng(52)
    for _ in range(30):
        n = int(rng.integers(5, 30))
        g = oracles.random_digraph(n, 0.2, rng)
        small = greedy_pdds(g, 0.5, candidates=range(n))
        full = greedy_pdds(g, 1.0, candidates=range(n))
        assert full.selected[: len(small.selected)] == small.selected


def test_approximation_bound_on_random_instances():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(4, 13))
        g = oracles.random_digraph(n, 0.25, rng)
        delta = int(g.out_degrees.max()) if g.m else 0
        bound = oracles.harmonic(delta + 1)
        for rho in (0.5, 0.75, 1.0):
            greedy_size = len(greedy_pdds(g, rho, candidates=range(n)).selected)
            optimum = brute_force_pdds(g, rho, range(n))
            assert greedy_size <= bound * optimum


def test_coverage_target_rounding():
    assert coverage_target(0.3, 10) == 3
    assert coverage_target(0.5, 5) == 3
    assert coverage_target(1.0, 7) == 7
    # float products that should land exactly on an integer stay there
    assert coverage_target(0.7, 100) == 70
    assert coverage_target(0.29, 100) == 29


def test_rho_validation():
    g = star(3)
    for bad in (0.0, -0.2, 1.0001):
        with pytest.raises(ValueError):
            greedy_pdds(g, bad)


@pytest.mark.parametrize("mode", ["network-by-group", "in-group"])
@pytest.mark.parametrize("part, i", [(None, 0), (Partition.from_assignment([0, 0, 1, 1]), None), (None, None)],
                         ids=["no-partition", "no-group", "neither"])
def test_group_modes_without_a_partition_or_group_raise_naming_the_mode(mode, part, i):
    with pytest.raises(ValueError, match=f"^mode {mode} needs a partition and a group index$"):
        solve_task(star(3), mode, part, i, max_picks=1)


def test_curve_single_star():
    assert coverage_curve(star(5), max_spreaders=3) == [(1, 1.0)]


def test_curve_two_disjoint_stars():
    # stars of sizes 7 and 3: hubs 0 and 7
    arcs = [(0, i) for i in range(1, 7)] + [(7, 8), (7, 9)]
    g = directed_from_arcs(10, arcs)
    curve = coverage_curve(g, max_spreaders=5)
    assert curve == [(1, 0.7), (2, 1.0)]


def test_curve_monotone_everywhere():
    rng = np.random.default_rng(72)
    for _ in range(30):
        n = int(rng.integers(5, 40))
        g = oracles.random_digraph(n, 0.15, rng)
        curve = coverage_curve(g, candidates=range(n), max_spreaders=n)
        fractions = [f for _, f in curve]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        gains = [fractions[0]] + [b - a for a, b in zip(fractions, fractions[1:])]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(gains, gains[1:]))


def test_curve_stops_at_candidate_exhaustion():
    g = star(5)
    curve = coverage_curve(g, candidates=[0, 1], max_spreaders=10)
    # after the hub, leaf 1 is already covered and adds nothing
    assert curve == [(1, 1.0)]


def _two_group_fixture():
    """Group 0 = star inside a larger graph, group 1 = chain of spreaders."""
    arcs = [(0, 1), (0, 2), (0, 3)]  # star on group 0
    arcs += [(4, 5), (5, 6), (6, 7), (7, 4)]  # group 1 cycle
    arcs += [(4, 0)]  # one cross arc
    g = directed_from_arcs(8, arcs)
    part = Partition.from_assignment([0, 0, 0, 0, 1, 1, 1, 1])
    return g, part


def test_in_group_matches_star_solved_alone():
    g, part = _two_group_fixture()
    result = in_group_domination(g, part, 0, 1.0)
    assert result.selected == (0,)
    assert result.covered_after_step == (4,)
    alone = greedy_pdds(star(3), 1.0)
    assert result.covered_after_step == alone.covered_after_step


def test_in_group_without_internal_arcs_needs_everyone():
    # group 1 members all point at group 0 only: spreaders, but in-group
    # they each cover just themselves
    arcs = [(0, 1), (1, 0), (2, 0), (3, 1), (4, 0)]
    g = directed_from_arcs(5, arcs)
    part = Partition.from_assignment([0, 0, 1, 1, 1])
    result = in_group_domination(g, part, 1, 1.0)
    assert sorted(result.selected) == [2, 3, 4]
    assert result.covered == 3


def test_in_group_equals_manual_induced_run():
    rng = np.random.default_rng(83)
    for _ in range(20):
        n = 30
        g = oracles.random_digraph(n, 0.15, rng)
        part = Partition.from_assignment(oracles.random_grouping(n, 3, rng))
        i = int(rng.integers(0, 3))
        members = part.members(i)
        sub, gids = oracles.induced_reference(g, members)
        cand_local = np.searchsorted(gids, members[g.out_degrees[members] > 0])
        rho = 0.6
        try:
            via_api = in_group_domination(g, part, i, rho)
        except InfeasibleCoverageError as err:
            with pytest.raises(InfeasibleCoverageError) as manual:
                greedy_pdds(sub, rho, candidates=cand_local)
            assert manual.value.max_coverable == err.max_coverable
            continue
        manual = greedy_pdds(sub, rho, candidates=cand_local)
        assert [gids[v] for v in manual.selected] == list(via_api.selected)
        assert manual.covered_after_step == via_api.covered_after_step


def _outcome(solve):
    """A run's result, or the result its InfeasibleCoverageError carries."""
    try:
        return solve()
    except InfeasibleCoverageError as err:
        return err.result


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 24),
    st.sampled_from([0.05, 0.15, 0.4]),
    st.integers(1, 4),
    st.sampled_from([0.3, 0.5, 0.9, 1.0]),
    st.integers(1, 6),
)
def test_in_group_runs_equal_full_graph_runs_on_group_targets(seed, n, p, k, rho, max_spreaders):
    # in-group runs and curves target the group on the full graph; a greedy
    # on the group's induced subgraph, built here, must agree with both
    rng = np.random.default_rng(seed)
    g = oracles.random_digraph(n, p, rng)
    part = Partition.from_assignment(oracles.random_grouping(n, min(k, n), rng))
    for i in range(part.k):
        cand, members = group_spreaders(g, part, i), part.members(i)
        sub, gids = oracles.induced_reference(g, members)
        cand_local = np.searchsorted(gids, cand)
        in_group = _outcome(lambda: in_group_domination(g, part, i, rho))
        full = _outcome(lambda: greedy_pdds(g, rho, candidates=cand, cover_targets=members))
        alone = _outcome(lambda: greedy_pdds(sub, rho, candidates=cand_local))
        for result in (in_group, full):
            assert result.selected == tuple(gids[v] for v in alone.selected)
            assert result.covered_after_step == alone.covered_after_step
            assert (result.target, result.n_target, result.feasible) == (alone.target, alone.n_target, alone.feasible)
        assert coverage_curve(g, candidates=cand, cover_targets=members, max_spreaders=max_spreaders) == (
            coverage_curve(sub, candidates=cand_local, max_spreaders=max_spreaders)
        )


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 24),
    st.sampled_from([0.05, 0.15, 0.4]),
    st.integers(1, 4),
    st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.75, 0.9, 1.0]), min_size=1, max_size=4, unique=True),
    st.integers(1, 6),
)
def test_one_run_per_task_matches_the_oracle_for_every_rho(seed, n, p, k, rhos, max_picks):
    # each rho cut from the one run to the largest target is the oracle's
    # run to that rho alone, infeasible ones included, in the order given;
    # the curve is the oracle's full run capped at max_picks
    rng = np.random.default_rng(seed)
    g = oracles.random_digraph(n, p, rng)
    part = Partition.from_assignment(oracles.random_grouping(n, min(k, n), rng))
    tasks = [("unrestricted", None, spreaders(g).tolist(), None)]
    for i in range(part.k):
        pool = group_spreaders(g, part, i).tolist()
        tasks += [("network-by-group", i, pool, None), ("in-group", i, pool, part.members(i).tolist())]
    for mode, i, pool, targets in tasks:
        n_target = n if targets is None else len(targets)
        results = solve_task(g, mode, part, i, rhos=rhos)
        assert [r.rho for r in results] == rhos
        for rho, result in zip(rhos, results):
            selected, covered_after, feasible = oracles.greedy_reference(g, rho, pool, targets)
            assert result.selected == tuple(selected)
            assert result.covered_after_step == tuple(covered_after)
            assert (result.feasible, result.target, result.n_target) == (
                feasible, coverage_target(rho, n_target), n_target)
        (curve,) = solve_task(g, mode, part, i, max_picks=max_picks)
        _, full_run, _ = oracles.greedy_reference(g, 1.0, pool, targets)
        assert (curve.rho, curve.target, curve.feasible) == (None, None, True)
        assert curve.covered_after_step == tuple(full_run[:max_picks])


def test_network_by_group_universal_hub():
    # group 0 holds a hub wired to every other vertex
    arcs = [(0, v) for v in range(1, 8)] + [(1, 2)]
    g = directed_from_arcs(8, arcs)
    part = Partition.from_assignment([0, 0, 1, 1, 1, 1, 1, 1])
    result = network_domination_by_group(g, part, 0, 1.0)
    assert result.selected == (0,)
    assert result.fraction == 1.0


def test_network_by_group_short_reach_is_infeasible():
    # group 0's only spreader reaches 2 of 10 vertices: 20% max
    arcs = [(0, 1)] + [(2, v) for v in range(3, 10)]
    g = directed_from_arcs(10, arcs)
    part = Partition.from_assignment([0, 0] + [1] * 8)
    with pytest.raises(InfeasibleCoverageError) as info:
        network_domination_by_group(g, part, 0, 0.5)
    assert info.value.max_coverable == 2
    assert info.value.max_coverable / info.value.n_target == pytest.approx(0.2)


def test_network_by_group_reach_asymmetry():
    # group 0 reaches 90% of the network, group 1 only 25%
    n = 20
    arcs = [(0, v) for v in range(1, 18)]  # 0 covers 18 of 20
    arcs += [(18, 19), (19, 18), (18, 0), (19, 1)]
    g = directed_from_arcs(n, arcs)
    part = Partition.from_assignment([0] * 18 + [1] * 2)
    feasible = network_domination_by_group(g, part, 0, 0.5)
    assert feasible.fraction >= 0.5
    with pytest.raises(InfeasibleCoverageError):
        network_domination_by_group(g, part, 1, 0.5)


def test_curve_dominance_when_one_group_has_larger_spans():
    # group A hubs span 8 and 6; group B hubs span 3 and 2: the A curve
    # must sit at or above the B curve at every prefix length
    arcs = [(0, v) for v in range(2, 9)]  # A hub 1: 7 out-arcs
    arcs += [(1, v) for v in range(9, 14)]  # A hub 2: 5 out-arcs
    arcs += [(14, 16), (14, 17), (15, 18)]  # B hubs: spans 3 and 2
    g = directed_from_arcs(20, arcs)
    part = Partition.from_assignment([0] * 14 + [1] * 6)
    curve_a = coverage_curve(g, candidates=part.members(0), max_spreaders=2)
    curve_b = coverage_curve(g, candidates=part.members(1), max_spreaders=2)
    assert len(curve_a) == len(curve_b) == 2
    for (_, fa), (_, fb) in zip(curve_a, curve_b):
        assert fa > fb


def test_infeasible_error_carries_partial_run():
    g = directed_from_arcs(6, [(0, 1), (0, 2)])
    with pytest.raises(InfeasibleCoverageError) as info:
        greedy_pdds(g, 1.0, candidates=[0])
    err = info.value
    assert err.result.selected == (0,)
    assert err.result.covered_after_step == (3,)
    assert err.result.feasible is False
    assert err.max_coverable == 3
    assert "3" in str(err)
