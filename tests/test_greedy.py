"""Greedy burner: radius rule, step mechanics, traces, budget fit."""

import random
from dataclasses import dataclass
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partitions
from burnkit import greedy
from burnkit.burning import verify_schedule
from burnkit.errors import InstanceError
from burnkit.greedy import (
    GreedyTrace,
    _greedy_pairs,
    greedy_budget,
    greedy_burn,
    greedy_radius,
)
from burnkit.gen import random_path_forest
from burnkit.model import MAX_ORDER, PathForest, ceil_sqrt, comp_vertex, path_forest_to_graph


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


def run(pf):
    """_greedy_pairs on pf: its (component, position, radius) balls, and the trace of its columns."""
    trace = GreedyTrace(pf, *_greedy_pairs(pf))
    return list(zip(trace.comps, trace.positions, trace.radii)), trace


def test_step_trims_a_long_component():
    balls, trace = run(PathForest((13, 11, 11)))
    assert balls[0] == (0, 7, 5)
    assert trace.whole[0] is False
    assert trace.steps[0].action == "remove-neighborhood"
    assert trace.forest_before(1) == PathForest((11, 11, 2))


def test_step_removes_a_short_component():
    balls, trace = run(PathForest((5,)))
    assert balls == [(0, 2, 2)]
    assert trace.whole == (True,)
    assert [s.action for s in trace.steps] == ["remove-component"]


def test_step_on_a_path_of_four():
    balls, trace = run(PathForest((4,)))
    assert balls[0] == (0, 2, 1)
    assert trace.forest_before(1) == PathForest((1,))


def test_greedy_trace_on_the_two_regime_instance():
    pf = PathForest((13, 11, 11))
    balls, trace = run(pf)
    assert balls == [
        (0, 7, 5),
        (1, 6, 4),
        (2, 6, 4),
        (0, 0, 3),
        (1, 0, 2),
        (2, 0, 1),
    ]
    assert [trace.forest_before(i).orders for i in range(len(trace.steps))] == [
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
    assert [s.center for s in trace.steps] == [c(comp, pos) for comp, pos, _ in balls]
    for i in (-1, 6):
        with pytest.raises(IndexError):
            trace.forest_before(i)
    # traces compare by forest and columns, whether or not steps was read
    assert trace == run(pf)[1]
    assert hash(trace) == hash(run(pf)[1])
    assert trace != run(PathForest((13, 11, 10)))[1]


def test_ties_among_largest_go_to_the_lowest_index():
    balls, _ = run(PathForest((6, 6)))
    assert balls[0] == (0, 2, 3)
    assert balls[1:] == [(1, 3, 2), (1, 0, 0)]


def test_first_pair_matches_single_step():
    # The first step acts on pf itself: the radius rule on (n, t), then a
    # largest component removed whole at its leftmost center, or trimmed
    # at distance r from its high end.
    for orders in ((13, 11, 11), (16,), (6, 6), (1, 1, 1), (9, 4)):
        pf = PathForest(orders)
        balls, trace = run(pf)
        r = greedy_radius(pf.n, pf.t)
        a = pf.orders[0]
        pos = (a - 1) // 2 if a // 2 <= r else a - 1 - r
        assert balls[0] == (0, pos, r)
        assert trace.forest_before(0) == pf


def reference_greedy(pf):
    """The greedy loop as the module docstring states it, one sort per step.

    Returns the (component, position, radius) balls, each step's
    (r, action, center) and the remaining forest each step acted on.
    """
    live = [[comp, a] for comp, a in enumerate(pf.orders)]
    balls, steps, before = [], [], []
    while live:
        n = sum(a for _, a in live)
        t = len(live)
        r = n // (2 * t) + t - 1 if t >= isqrt(n) else ceil_sqrt(n) - 1
        live.sort(key=lambda ca: (-ca[1], ca[0]))
        before.append(PathForest(tuple(a for _, a in live)))
        comp, a = live[0]
        if a // 2 <= r:
            pos, action = (a - 1) // 2, "remove-component"
            live.pop(0)
        else:
            pos, action = a - 1 - r, "remove-neighborhood"
            live[0][1] = a - (2 * r + 1)
        balls.append((comp, pos, r))
        steps.append((r, action, c(comp, pos)))
    return balls, steps, before


def assert_matches_reference(pf, rng=None):
    """Compare _greedy_pairs' columns, and the steps built from them, with the reference.

    forest_before is checked at every step or, given an rng, at the first,
    the last and three random steps, since each replay costs O(i).
    """
    balls, trace = run(pf)
    ref_balls, ref_steps, ref_before = reference_greedy(pf)
    assert balls == ref_balls, pf
    assert [action == "remove-component" for _, action, _ in ref_steps] == list(trace.whole), pf
    assert [(s.r, s.action, s.center) for s in trace.steps] == ref_steps, pf
    assert trace.forest == pf
    last = len(ref_steps) - 1
    checked = range(last + 1) if rng is None else {0, last, *(rng.randint(0, last) for _ in range(3))}
    for i in checked:
        assert trace.forest_before(i) == ref_before[i], (pf, i)
    return ref_before


def test_heap_loop_matches_the_reference_on_every_small_forest():
    count = 0
    for n in range(1, 17):
        for orders in partitions(n):
            assert_matches_reference(PathForest(orders))
            count += 1
    assert count == 914


def test_heap_loop_matches_the_reference_on_random_forests():
    # Half the forests draw their orders from a pool of three values, so
    # most steps choose among tied largest components; t ranges on both
    # sides of isqrt(n), so both radius rules fire.
    crowded = sparse = ties = 0
    for seed in range(320):
        rng = random.Random(seed)
        n = rng.randint(1, 5000)
        t = rng.randint(1, min(n, 3 * isqrt(n)))
        if seed % 2:
            pool = [rng.randint(1, max(1, n // t)) for _ in range(3)]
            pf = PathForest(tuple(rng.choice(pool) for _ in range(t)))
        else:
            pf = random_path_forest(rng, n, t)
        for f in assert_matches_reference(pf, rng):
            crowded += f.t >= isqrt(f.n)
            sparse += f.t < isqrt(f.n)
            ties += f.t > 1 and f.orders[0] == f.orders[1]
    # 25,156 steps: 22,196 crowded, 2,960 sparse, 17,261 among tied orders.
    assert crowded > 20000 and sparse > 2000 and ties > 15000


def test_trace_builds_no_step_until_steps_is_read(monkeypatch):
    # A counting stand-in for GreedyStep: greedy_burn on an order-2e5
    # forest, and forest_before at sampled steps, construct none of them;
    # the first read of steps builds one per step, the same as the
    # reference, and a second read builds nothing more.
    built = []

    @dataclass(frozen=True)
    class CountingStep(greedy.GreedyStep):
        def __post_init__(self):
            built.append(self)

    monkeypatch.setattr(greedy, "GreedyStep", CountingStep)
    pf = random_path_forest(random.Random(19), 200_000, 600)
    _, ref_steps, ref_before = reference_greedy(pf)
    cover, _, trace = greedy_burn(pf)
    assert len(cover.pairs) == len(ref_steps) > 600
    rng = random.Random(20)
    for i in {0, len(ref_steps) - 1, *(rng.randrange(len(ref_steps)) for _ in range(20))}:
        assert trace.forest_before(i) == ref_before[i], i
    assert built == []
    steps = trace.steps
    assert len(built) == len(ref_steps)
    assert all(type(step) is CountingStep for step in steps)
    assert [(s.r, s.action, s.center) for s in steps] == ref_steps
    assert trace.steps is steps and len(built) == len(ref_steps)


def test_burn_with_twenty_thousand_components():
    # A loop that sorts the live components at every step takes about
    # 80 s on this instance, against well under a second on the heap.  No
    # wall-clock assertion: a quadratic loop shows in the suite's runtime.
    pf = random_path_forest(random.Random(2), 200000, 20000)
    cover, schedule, trace = greedy_burn(pf)
    assert schedule.claimed_time <= cover.budget
    assert len(trace.steps) == len(cover.pairs)


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


def test_greedy_burn_refuses_huge_orders_before_any_work(monkeypatch):
    # The order is checked first: the greedy loop would not end on 2**64.
    def unreachable(*args):
        raise AssertionError("the greedy loop ran")

    monkeypatch.setattr(greedy, "_greedy_pairs", unreachable)
    for orders in ((2**64,), (MAX_ORDER, 1)):
        with pytest.raises(InstanceError, match=str(MAX_ORDER)):
            greedy_burn(PathForest(orders))
