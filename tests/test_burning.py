"""Simulator semantics and the cover <-> schedule equivalence."""

import math

import pytest

from conftest import partitions
from burnkit import burning
from burnkit.burning import (
    _schedule_fast,
    _schedule_sequential,
    cover_from_schedule,
    schedule_from_cover,
    simulate,
    verify_schedule,
)
from burnkit.errors import (
    BudgetError,
    CoverageError,
    InstanceError,
    InternalContradictionError,
    VerificationError,
)
from burnkit.model import (
    BudgetedCover,
    BurnSchedule,
    LabeledGraph,
    PathForest,
    comp_vertex,
    path_center,
    path_forest_to_graph,
    path_radius,
)


def pf_graph(*orders):
    return path_forest_to_graph(PathForest(orders))


def c(comp, pos):
    return comp_vertex(comp, pos)


def test_p4_two_sources_finish_in_two_rounds():
    g = pf_graph(4)
    burn_time, completion = simulate(g, [c(0, 1), c(0, 3)])
    assert completion == 2
    assert burn_time == {c(0, 0): 2, c(0, 1): 1, c(0, 2): 2, c(0, 3): 2}


def test_single_vertex_burns_in_one_round():
    g = pf_graph(1)
    burn_time, completion = simulate(g, [c(0, 0)])
    assert (burn_time, completion) == ({c(0, 0): 1}, 1)
    assert verify_schedule(g, BurnSchedule((c(0, 0),), 1))


def test_ignition_into_burned_vertex_is_a_noop():
    # The second source lands on an already burned vertex; nothing changes.
    g = pf_graph(3)
    with_noop, comp_a = simulate(g, [c(0, 1), c(0, 0)])
    without, comp_b = simulate(g, [c(0, 1)])
    assert with_noop == without
    assert comp_a == comp_b == 2


def test_unreached_component_forces_inf():
    g = pf_graph(3, 2)
    burn_time, completion = simulate(g, [c(0, 1)])
    assert completion == math.inf
    assert c(1, 0) not in burn_time and c(1, 1) not in burn_time
    assert burn_time[c(0, 1)] == 1


def test_simulate_rejects_bad_sources():
    g = pf_graph(3)
    with pytest.raises(InstanceError):
        simulate(g, [c(0, 0), c(0, 0)])
    with pytest.raises(InstanceError):
        simulate(g, [c(7, 0)])


def test_empty_graph_simulates_to_zero():
    g = LabeledGraph([])
    assert simulate(g, []) == ({}, 0)


def test_verify_schedule_checks_the_claim():
    g = pf_graph(4)
    assert verify_schedule(g, BurnSchedule((c(0, 1), c(0, 3)), 2))
    assert not verify_schedule(g, BurnSchedule((c(0, 0),), 2))
    assert verify_schedule(g, BurnSchedule((c(0, 0),), 4))


def test_cover_schedule_round_trip_on_p4():
    g = pf_graph(4)
    schedule = BurnSchedule((c(0, 1), c(0, 3)), 2)
    cover = cover_from_schedule(g, schedule)
    assert cover.pairs == ((c(0, 1), 1), (c(0, 3), 0))
    assert cover.budget == 2
    back = schedule_from_cover(g, cover)
    assert back == schedule


def test_cover_from_schedule_rejects_false_claims():
    g = pf_graph(4)
    with pytest.raises(VerificationError):
        cover_from_schedule(g, BurnSchedule((c(0, 0),), 2))


def test_schedule_pads_with_fillers():
    # One radius-1 ball covers P3 under budget 2; the second round gets a
    # filler source on the smallest unused vertex.
    g = pf_graph(3)
    cover = BudgetedCover(((c(0, 1), 1),), 2)
    schedule = schedule_from_cover(g, cover)
    assert schedule == BurnSchedule((c(0, 1), c(0, 0)), 2)
    assert verify_schedule(g, schedule)


def test_budget_slack_is_enforced():
    with pytest.raises(BudgetError):
        BudgetedCover(((c(0, 0), 1), (c(0, 4), 1)), 2)
    with pytest.raises(BudgetError):
        BudgetedCover(((c(0, 0), 0), (c(0, 0), 0)), 2)
    with pytest.raises(BudgetError):
        BudgetedCover(((c(0, 0), -1),), 2)
    with pytest.raises(BudgetError):
        BudgetedCover(((c(0, 0), 0),), 0)
    with pytest.raises(InstanceError):
        BudgetedCover((), 3)


def test_non_covering_cover_fails_within_budget():
    # Tight budget, unreachable second component: no progress is possible
    # once the sources run out.
    g = pf_graph(3, 2)
    cover = BudgetedCover(((c(0, 1), 1),), 2)
    with pytest.raises(CoverageError):
        schedule_from_cover(g, cover)


def test_slow_burn_exceeding_budget_fails():
    # Connected, so the fire does spread everywhere, just not fast enough.
    g = pf_graph(5)
    cover = BudgetedCover(((c(0, 0), 1),), 2)
    with pytest.raises(CoverageError):
        schedule_from_cover(g, cover)


def test_schedule_from_cover_rejects_empty_graph():
    with pytest.raises(InstanceError):
        schedule_from_cover(LabeledGraph([]), BudgetedCover(((c(0, 0), 0),), 1))


def test_schedule_from_cover_checks_the_construction(monkeypatch):
    # The built schedule is simulated independently: a construction whose
    # claimed completion is off, either way, is an internal fault.
    g = pf_graph(3)
    cover = BudgetedCover(((c(0, 1), 1),), 3)  # the center alone burns by round 2
    for claimed in (1, 3):
        monkeypatch.setattr(burning, "_schedule_sequential", lambda *a, t=claimed: ([1], t))
        with pytest.raises(InternalContradictionError):
            schedule_from_cover(g, cover)


def center_cover(orders):
    """One center ball per component, budget as small as the slack allows."""
    comps = sorted(range(len(orders)), key=lambda i: -orders[i])
    pairs = tuple(
        (c(i, path_center(orders[i])), path_radius(orders[i])) for i in comps
    )
    budget = max(r + k for k, (_, r) in enumerate(pairs, start=1))
    return BudgetedCover(pairs, budget)


def test_constructed_covers_complete_within_budget():
    for n in range(1, 11):
        for orders in partitions(n):
            g = pf_graph(*orders)
            cover = center_cover(orders)
            schedule = schedule_from_cover(g, cover)
            assert schedule.claimed_time <= cover.budget
            assert verify_schedule(g, schedule)
            _, completion = simulate(g, schedule.sources)
            assert completion == schedule.claimed_time


def big_cover(orders, budget):
    """Tile each component left to right with shrinking balls."""
    pairs = []
    r = budget - 1
    for i, a in enumerate(orders):
        pos = 0
        while pos < a:
            ctr = min(pos + r, a - 1)
            pairs.append((c(i, ctr), r))
            pos = ctr + r + 1
            r -= 1
    return BudgetedCover(tuple(pairs), budget)


def test_fast_path_matches_sequential_construction():
    # Orders above the cutoff take the vectorized path; it must produce the
    # exact same schedule as the round-by-round reference.
    for orders, budget in (((300,), 18), ((200, 80, 40), 19), ((500, 1), 23)):
        g = pf_graph(*orders)
        cover = big_cover(orders, budget)
        order = sorted(range(len(cover.pairs)), key=lambda i: -cover.pairs[i][1])
        centers = [g.index_of(cover.pairs[i][0]) for i in order]
        fast = _schedule_fast(g, centers, budget)
        assert fast is not None
        assert fast == _schedule_sequential(g, centers, budget)
        schedule = schedule_from_cover(g, cover)
        assert verify_schedule(g, schedule)


def test_fast_path_defers_center_replacement():
    # The second center is adjacent to the first, so it is burned before its
    # own round; the vectorized path bails out and the fallback handles it.
    g = pf_graph(300)
    pairs = ((c(0, 150), 149), (c(0, 151), 16), (c(0, 0), 15))
    cover = BudgetedCover(pairs, 151)
    centers = [g.index_of(v) for v, _ in pairs]
    assert _schedule_fast(g, centers, 151) is None
    schedule = schedule_from_cover(g, cover)
    assert verify_schedule(g, schedule)
