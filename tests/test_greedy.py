"""Greedy burner: radius rule, step mechanics, traces, budget fit."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partitions
from burnkit.burning import verify_schedule
from burnkit.greedy import (
    _greedy_pairs,
    greedy_budget,
    greedy_burn,
    greedy_radius,
)
from burnkit.model import PathForest, comp_vertex, path_forest_to_graph


def c(comp, pos):
    return comp_vertex(comp, pos)


def test_radius_rule():
    # Sparse side (t below floor sqrt n) uses the square-root radius,
    # the crowded side uses the floor-form radius.
    assert greedy_radius(35, 3) == 5
    assert greedy_radius(15, 3) == 4
    assert greedy_radius(16, 1) == 3
    assert greedy_radius(3, 3) == 2
    assert greedy_radius(1, 1) == 0
    assert greedy_radius(4, 2) == 2


def test_radius_rejects_bad_parameters():
    for n, t in ((0, 1), (3, 0), (2, 3), (-1, 1)):
        with pytest.raises(ValueError):
            greedy_radius(n, t)


def test_step_trims_a_long_component():
    pairs, trace = _greedy_pairs(PathForest((13, 11, 11)))
    assert pairs[0] == (c(0, 7), 5)
    assert trace.steps[0].action == "remove-neighborhood"
    assert trace.steps[1].pf_before == PathForest((11, 11, 2))


def test_step_removes_a_short_component():
    pairs, trace = _greedy_pairs(PathForest((5,)))
    assert pairs == [(c(0, 2), 2)]
    assert [s.action for s in trace.steps] == ["remove-component"]


def test_step_on_a_path_of_four():
    pairs, trace = _greedy_pairs(PathForest((4,)))
    assert pairs[0] == (c(0, 2), 1)
    assert trace.steps[1].pf_before == PathForest((1,))


def test_greedy_trace_on_the_two_regime_instance():
    pf = PathForest((13, 11, 11))
    pairs, trace = _greedy_pairs(pf)
    assert pairs == [
        (c(0, 7), 5),
        (c(1, 6), 4),
        (c(2, 6), 4),
        (c(0, 0), 3),
        (c(1, 0), 2),
        (c(2, 0), 1),
    ]
    assert [s.pf_before.orders for s in trace.steps] == [
        (13, 11, 11),
        (11, 11, 2),
        (11, 2, 2),
        (2, 2, 2),
        (2, 2),
        (2,),
    ]
    assert [s.action for s in trace.steps] == [
        "remove-neighborhood",
        "remove-neighborhood",
        "remove-neighborhood",
        "remove-component",
        "remove-component",
        "remove-component",
    ]
    assert [s.r for s in trace.steps] == [5, 4, 4, 3, 2, 1]


def test_ties_among_largest_go_to_the_lowest_index():
    pairs, _ = _greedy_pairs(PathForest((6, 6)))
    assert pairs[0] == (c(0, 2), 3)
    assert pairs[1:] == [(c(1, 3), 2), (c(1, 0), 0)]


def test_first_pair_matches_single_step():
    # The first step acts on pf itself: the radius rule on (n, t), then a
    # largest component removed whole at its leftmost center, or trimmed
    # at distance r from its high end.
    for orders in ((13, 11, 11), (16,), (6, 6), (1, 1, 1), (9, 4)):
        pf = PathForest(orders)
        pairs, trace = _greedy_pairs(pf)
        r = greedy_radius(pf.n, pf.t)
        a = pf.orders[0]
        center = c(0, (a - 1) // 2) if a // 2 <= r else c(0, a - 1 - r)
        assert pairs[0] == (center, r)
        assert trace.steps[0].pf_before == pf


def test_burn_on_the_two_regime_instance():
    cover, schedule, _ = greedy_burn(PathForest((13, 11, 11)))
    assert cover.budget == 7
    assert schedule.claimed_time == 7
    assert schedule.sources == (
        c(0, 7),
        c(1, 6),
        c(2, 6),
        c(0, 0),
        c(1, 0),
        c(2, 0),
        c(0, 1),
    )


def test_burn_three_isolated_vertices():
    cover, schedule, trace = greedy_burn(PathForest((1, 1, 1)))
    assert cover.budget == 3
    assert schedule.claimed_time == 3
    assert all(s.action == "remove-component" for s in trace.steps)


def test_burn_a_path_of_sixteen():
    cover, schedule, _ = greedy_burn(PathForest((16,)))
    assert sorted(r for _, r in cover.pairs) == [0, 1, 2, 3]
    assert cover.budget == 4
    assert schedule.claimed_time == 4


def test_budget_uses_sqrt_form_only_when_applicable():
    assert greedy_budget(PathForest((13, 11, 11))) == 7
    # 12 vertices in 5 components: t exceeds ceil(sqrt(n)), floor form rules.
    assert greedy_budget(PathForest((8, 1, 1, 1, 1))) == 12 // 10 + 5


def test_all_small_partitions_fit_the_budget():
    for n in range(1, 13):
        for orders in partitions(n):
            pf = PathForest(orders)
            cover, schedule, trace = greedy_burn(pf)
            g = path_forest_to_graph(pf)
            assert verify_schedule(g, schedule)
            assert schedule.claimed_time <= cover.budget == greedy_budget(pf)
            assert len(trace.steps) == len(cover.pairs) <= cover.budget


@given(st.lists(st.integers(1, 40), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_random_instances_never_blow_the_budget(orders):
    # BudgetedCover raises if any greedy radius misses its slot, and
    # schedule_from_cover raises if the cover fails to burn in time; this
    # property is the runtime safety net for the radius accounting.
    pf = PathForest(tuple(orders))
    cover, schedule, _ = greedy_burn(pf)
    assert schedule.claimed_time <= cover.budget
