"""Greedy partial domination: contracts, oracles, and restriction modes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polarnet.community import Partition
from polarnet.domination import (
    brute_force_pdds,
    coverage_curve,
    coverage_target,
    greedy_pdds,
    group_spreaders,
    in_group_curve,
    in_group_domination,
    network_domination_by_group,
    spreaders,
)
from polarnet.errors import InfeasibleCoverageError
from polarnet.graph import directed_from_arcs, induced_subgraph
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
    # span bookkeeping check: the heap solver must reproduce the naive
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


@st.composite
def _greedy_instance(draw):
    """A graph, candidate pool, targets, rho and curve length for the greedy.

    Besides random digraphs, the shapes are tie-heavy: equal disjoint stars
    or cliques and directed cycles under a random relabelling, where many
    heap entries share a span and the lowest-id rule decides, optionally
    with a few extra arcs so that stale spans fall unevenly.
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
    g, candidates, cover_targets, rho, max_spreaders = instance
    pool = spreaders(g).tolist() if candidates is None else candidates
    selected, covered_after, feasible = oracles.greedy_reference(g, rho, pool, cover_targets)
    result = _outcome(lambda: greedy_pdds(g, rho, candidates=candidates, cover_targets=cover_targets))
    assert list(result.selected) == selected
    assert list(result.covered_after_step) == covered_after
    assert result.feasible == feasible

    n_target = g.n if cover_targets is None else len(cover_targets)
    _, full_run, _ = oracles.greedy_reference(g, 1.0, pool, cover_targets)
    expected_curve = [(j + 1, c / n_target) for j, c in enumerate(full_run[:max_spreaders])]
    assert coverage_curve(g, candidates, cover_targets, max_spreaders) == expected_curve


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
        sub, gids = induced_subgraph(g, members)
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
        assert [int(gids[v]) for v in manual.selected] == list(via_api.selected)
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
    rng = np.random.default_rng(seed)
    g = oracles.random_digraph(n, p, rng)
    part = Partition.from_assignment(oracles.random_grouping(n, min(k, n), rng))
    for i in range(part.k):
        cand, members = group_spreaders(g, part, i), part.members(i)
        sub = _outcome(lambda: in_group_domination(g, part, i, rho))
        full = _outcome(lambda: greedy_pdds(g, rho, candidates=cand, cover_targets=members))
        assert sub.selected == full.selected
        assert sub.covered_after_step == full.covered_after_step
        assert (sub.target, sub.n_target, sub.feasible) == (full.target, full.n_target, full.feasible)
        assert in_group_curve(g, part, i, max_spreaders) == coverage_curve(
            g, candidates=cand, cover_targets=members, max_spreaders=max_spreaders
        )


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
