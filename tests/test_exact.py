"""Exact oracles: interval assignment, ball-cover search, raw sequence search."""

from random import Random

import pytest

from conftest import partitions
from burnkit import exact
from burnkit.burning import schedule_from_cover, verify_schedule
from burnkit.errors import InstanceError, InternalContradictionError, SizeGuardError
from burnkit.exact import exact_burning_number, exact_path_forest, naive_schedule_search
from burnkit.gen import random_path_forest
from burnkit.model import (
    LabeledGraph,
    PathForest,
    Spider,
    path_forest_to_graph,
    spider_to_graph,
)


def test_path_forest_known_values():
    cases = {
        (13, 11, 11): 6,
        (1, 1, 1): 3,
        (4,): 2,
        (7, 1, 1): 4,
        (1,): 1,
        (3, 2): 3,
        (16,): 4,
        (17,): 5,
    }
    for orders, expected in cases.items():
        k, cover = exact_path_forest(PathForest(orders))
        assert k == expected, orders
        assert cover.budget == expected


def test_path_forest_witness_is_a_real_cover():
    for orders in ((13, 11, 11), (9, 4), (5, 5, 5), (2, 2, 2, 2)):
        pf = PathForest(orders)
        k, cover = exact_path_forest(pf)
        radii = sorted(r for _, r in cover.pairs)
        # distinct radii, all below k (so the budget fits even when fewer
        # than k balls suffice)
        assert len(set(radii)) == len(radii)
        assert all(r < k for r in radii)
        g = path_forest_to_graph(pf)
        schedule = schedule_from_cover(g, cover)
        assert schedule.claimed_time <= k
        assert verify_schedule(g, schedule)


def test_path_forest_witness_must_cover_every_component(monkeypatch):
    # An assignment that leaves a component short, by too small an
    # interval or by none at all, raises instead of returning a cover that
    # burns too little; the true assignment for (5, 3) at k = 3 passes.
    pf = PathForest((5, 3))
    assert exact_path_forest(pf)[0] == 3
    for short in ([(0, 2), (1, 0)], [(0, 1), (1, 2)], [(0, 2), (0, 1)]):
        monkeypatch.setattr(exact, "_assign_intervals", lambda orders, k, nodes: short)
        with pytest.raises(InternalContradictionError, match="component"):
            exact_path_forest(pf)


def test_graph_oracle_known_values():
    k, schedule = exact_burning_number(path_forest_to_graph(PathForest((4,))))
    assert k == 2
    assert schedule.claimed_time == 2

    k, _ = exact_burning_number(path_forest_to_graph(PathForest((1,))))
    assert k == 1

    k, _ = exact_burning_number(spider_to_graph(Spider((1, 1, 1))))
    assert k == 2

    k, _ = exact_burning_number(path_forest_to_graph(PathForest((3, 2))))
    assert k == 3


def test_graph_oracle_on_a_spider_anchor():
    g = spider_to_graph(Spider((5, 5, 5)))
    k, schedule = exact_burning_number(g)
    assert k == 4
    assert verify_schedule(g, schedule)


def test_graph_oracle_witness_verifies():
    for orders in ((6, 3), (10,), (4, 4, 4)):
        g = path_forest_to_graph(PathForest(orders))
        k, schedule = exact_burning_number(g)
        assert schedule.claimed_time == k
        assert verify_schedule(g, schedule)


def test_oracles_agree_on_small_path_forests():
    for n in range(1, 11):
        for orders in partitions(n):
            pf = PathForest(orders)
            k_pf, _ = exact_path_forest(pf)
            k_g, _ = exact_burning_number(path_forest_to_graph(pf))
            assert k_pf == k_g, orders


def test_sequence_search_agrees_with_both():
    for n in range(1, 9):
        for orders in partitions(n):
            pf = PathForest(orders)
            g = path_forest_to_graph(pf)
            k_naive, schedule = naive_schedule_search(g)
            k_pf, _ = exact_path_forest(pf)
            assert k_naive == k_pf, orders
            assert schedule.claimed_time == k_naive
            assert verify_schedule(g, schedule)


def test_sequence_search_on_small_spiders():
    for arms in ((1, 1, 1), (2, 2, 1), (3, 2, 2), (4, 2, 1)):
        g = spider_to_graph(Spider(arms))
        k_naive, _ = naive_schedule_search(g)
        k_exact, _ = exact_burning_number(g)
        assert k_naive == k_exact, arms


def test_size_guards():
    with pytest.raises(SizeGuardError):
        exact_burning_number(path_forest_to_graph(PathForest((41,))))
    with pytest.raises(SizeGuardError):
        exact_path_forest(PathForest((401,)))
    with pytest.raises(SizeGuardError):
        naive_schedule_search(path_forest_to_graph(PathForest((13,))))


def test_guards_are_inclusive():
    k, _ = exact_path_forest(PathForest((400,)))
    assert k == 20
    k, _ = naive_schedule_search(path_forest_to_graph(PathForest((12,))))
    assert k == 4


def test_path_forest_search_stops_at_its_node_budget(monkeypatch):
    # Inside the order guard, yet proving k = 20..23 infeasible takes minutes
    # (the optimum is 24); the node budget turns that into an error.
    hard = random_path_forest(Random(5), 400, 20)
    monkeypatch.setattr(exact, "_NODE_BUDGET", 20_000)
    with pytest.raises(SizeGuardError, match="20000 nodes"):
        exact_path_forest(hard)
    k, _ = exact_path_forest(PathForest((400,)))
    assert k == 20


def test_cover_search_stops_at_its_node_budget(monkeypatch):
    # about 4,300 nodes over k = 1..6 with the default budget
    g = spider_to_graph(Spider((13, 13, 13)))
    assert exact_burning_number(g)[0] == 6
    monkeypatch.setattr(exact, "_NODE_BUDGET", 1_000)
    with pytest.raises(SizeGuardError, match="1000 nodes"):
        exact_burning_number(g)
    k, _ = exact_burning_number(path_forest_to_graph(PathForest((4,))))
    assert k == 2


def test_sequence_search_stops_at_its_node_budget(monkeypatch):
    # about 1,100 nodes over k = 1..4 with the default budget
    g = path_forest_to_graph(PathForest((5, 4, 3)))
    assert naive_schedule_search(g)[0] == 4
    monkeypatch.setattr(exact, "_NODE_BUDGET", 500)
    with pytest.raises(SizeGuardError, match="500 nodes"):
        naive_schedule_search(g)
    k, _ = naive_schedule_search(path_forest_to_graph(PathForest((4,))))
    assert k == 2


def test_empty_graph_is_rejected():
    with pytest.raises(InstanceError):
        exact_burning_number(LabeledGraph([]))
    with pytest.raises(InstanceError):
        naive_schedule_search(LabeledGraph([]))
