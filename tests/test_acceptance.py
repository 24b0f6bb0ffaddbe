"""Acceptance gate: the package's headline guarantees, one test per criterion.

Each test prints one "ACCEPTANCE n <what>: pass" line (visible with -s; the
pytest -v status line carries the same verdict) and enforces the stated
runtime budget where one applies.  Values asserted here are frozen anchors:
independently derived numbers, not outputs pasted back from the code under
test.
"""

import math
import random
import time

from conftest import partitions, spider_arm_sets
from burnkit.bounds import bound_table, lower_bound, ub_floor, ub_sqrt
from burnkit.burning import schedule_from_cover, verify_schedule
from burnkit.exact import exact_burning_number, exact_path_forest, naive_schedule_search
from burnkit.gen import random_spider
from burnkit.greedy import greedy_burn
from burnkit.model import (
    BurnSchedule,
    PathForest,
    Spider,
    ceil_sqrt,
    comp_vertex,
    path_forest_to_graph,
    spider_to_graph,
)
from burnkit.spider import burn_path, burn_spider

from fractions import Fraction


def test_a1_greedy_and_exact_on_the_two_regime_forest():
    started = time.monotonic()
    pf = PathForest((13, 11, 11))
    cover, schedule, trace = greedy_burn(pf)
    assert tuple(s.r for s in trace.steps) == (5, 4, 4, 3, 2, 1)
    assert cover.budget == 7
    assert len(schedule.sources) == 7
    assert schedule.claimed_time == 7
    assert verify_schedule(path_forest_to_graph(pf), schedule)

    k, witness = exact_path_forest(pf)
    assert k == 6
    g = path_forest_to_graph(pf)
    exact_schedule = schedule_from_cover(g, witness)
    assert verify_schedule(g, exact_schedule)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 greedy radii + exact on (13,11,11) [{elapsed:.3f}s]: pass")


def test_a2_path_of_four():
    g = path_forest_to_graph(PathForest((4,)))
    k, _ = exact_burning_number(g)
    assert k == 2
    schedule = BurnSchedule((comp_vertex(0, 1), comp_vertex(0, 3)), 2)
    assert verify_schedule(g, schedule)
    print("ACCEPTANCE 2 exact burning number of P4 with schedule check: pass")


def test_a3_small_spider_anchors():
    started = time.monotonic()
    expected = {
        (6, 5, 4): 4,
        (5, 5, 5): 4,
        (8, 8, 8): 5,
        (8, 6, 5, 5): 5,
        (7, 7, 5, 5): 5,
        (7, 6, 6, 5): 5,
        (6, 6, 6, 6): 5,
    }
    for arms, b in expected.items():
        sp = Spider(arms)
        g = spider_to_graph(sp)
        k, witness = exact_burning_number(g)
        assert k == b, arms
        assert verify_schedule(g, witness)
        _, schedule = burn_spider(sp)
        assert schedule.claimed_time == b, arms
        assert verify_schedule(g, schedule)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 seven spider anchors [{elapsed:.2f}s]: pass")


def test_a4_bound_table_extremum():
    started = time.monotonic()
    rows = list(bound_table(10000))
    best = max(row.ratio for row in rows)
    assert best == Fraction(3, 2)
    assert [row.t for row in rows if row.ratio == best] == [100]
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"ACCEPTANCE 4 worst bound ratio 3/2 at t=100 for n=10000 [{elapsed:.2f}s]: pass")


def test_a5_greedy_meets_both_bounds_and_the_ratio():
    started = time.monotonic()
    count = 0
    for n in range(1, 17):
        for orders in partitions(n):
            count += 1
            pf = PathForest(orders)
            _, schedule, _ = greedy_burn(pf)
            g = path_forest_to_graph(pf)
            assert verify_schedule(g, schedule), orders
            t_g = schedule.claimed_time
            assert t_g <= ub_floor(pf), orders
            s = ub_sqrt(pf)
            if s is not None:
                assert t_g <= s, orders
            k, _ = exact_path_forest(pf)
            assert 2 * t_g <= 3 * k, orders
    assert count == 914  # every partition of every n <= 16
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"ACCEPTANCE 5 greedy bounds + 3/2 ratio on {count} forests [{elapsed:.1f}s]: pass")


def test_a6_every_spider_burns_within_ceil_sqrt():
    started = time.monotonic()
    count = 0
    for arms in spider_arm_sets(25):
        count += 1
        sp = Spider(arms)
        _, schedule = burn_spider(sp)
        assert schedule.claimed_time <= ceil_sqrt(sp.n), arms
        assert verify_schedule(spider_to_graph(sp), schedule), arms
    assert count == 7169
    exhaustive = time.monotonic() - started
    assert exhaustive < 120.0

    started = time.monotonic()
    rng = random.Random(90210)
    for _ in range(1000):
        sp = random_spider(rng, rng.randint(4, 100000))
        _, schedule = burn_spider(sp)
        assert schedule.claimed_time <= ceil_sqrt(sp.n), sp.arms
    sampled = time.monotonic() - started
    assert sampled < 60.0
    print(
        f"ACCEPTANCE 6 spiders: {count} exhaustive [{exhaustive:.1f}s] "
        f"+ 1000 random to n=1e5 [{sampled:.1f}s]: pass"
    )


def test_a7_oracles_agree():
    pf_vs_graph = 0
    for n in range(1, 15):
        for orders in partitions(n):
            pf_vs_graph += 1
            pf = PathForest(orders)
            k_pf, _ = exact_path_forest(pf)
            k_g, _ = exact_burning_number(path_forest_to_graph(pf))
            assert k_pf == k_g, orders
    assert pf_vs_graph == 507

    vs_naive = 0
    for n in range(1, 11):
        for orders in partitions(n):
            vs_naive += 1
            pf = PathForest(orders)
            g = path_forest_to_graph(pf)
            k_naive, _ = naive_schedule_search(g)
            k_pf, _ = exact_path_forest(pf)
            assert k_naive == k_pf, orders
    assert vs_naive == 138
    print(f"ACCEPTANCE 7 oracle agreement ({pf_vs_graph} + {vs_naive} instances): pass")


def test_a8_paths_burn_in_exactly_ceil_sqrt():
    for n in range(1, 401):
        _, schedule = burn_path(n)
        assert schedule.claimed_time == ceil_sqrt(n), n
    for n in range(1, 37):
        k, _ = exact_burning_number(path_forest_to_graph(PathForest((n,))))
        assert k == ceil_sqrt(n), n
    print("ACCEPTANCE 8 path law to n=400 (constructive) and n=36 (exact): pass")


def test_a9_integer_forms_hold_to_a_million():
    started = time.monotonic()
    # The floor-form bound never beats the sqrt-form bound at the crossover
    # component counts (floor and ceil of sqrt n).
    isqrt = math.isqrt
    for n in range(1, 10**6 + 1):
        s = isqrt(n)
        if s * s == n:
            s4 = 2 * s
            assert n // (2 * s) + s <= (s4 + s) // 2, (n, s)
        else:
            s4 = isqrt(4 * n - 1) + 1
            c = s + 1
            assert n // (2 * s) + s <= (s4 + s) // 2, (n, s)
            assert n // (2 * c) + c <= (s4 + c) // 2, (n, c)

    # Spot-tie the inlined arithmetic above back to the public functions.
    sample = random.Random(7).sample(range(1, 10**6 + 1), 200)
    for n in sample:
        s = math.isqrt(n)
        c = ceil_sqrt(n)
        for t in {max(s, 1), c}:
            if t > n:
                continue
            pf = PathForest((n - t + 1,) + (1,) * (t - 1))
            assert ub_sqrt(pf) is not None
            assert ub_floor(pf) <= ub_sqrt(pf), (n, t)
            assert lower_bound(pf) <= ub_floor(pf)

    # Closed-form identity behind the crowded-tail delegation: at the first
    # delegated tail count T the floor-form value collapses to alpha - 1.
    for alpha in range(6, 10**6 + 1):
        T = (alpha + 3) // 2
        assert (alpha - 1) * (alpha + 1 - T) // (2 * T) + T == alpha - 1, alpha

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"ACCEPTANCE 9 exact integer inequalities to 1e6 [{elapsed:.1f}s]: pass")
