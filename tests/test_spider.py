"""Path tiling and the ceil-sqrt spider burner, branch by branch."""

import random

import pytest

from conftest import spider_arm_sets
from burnkit import exact
from burnkit.burning import verify_schedule
from burnkit.gen import random_spider
from burnkit.model import (
    HEAD,
    Spider,
    arm_vertex,
    ceil_sqrt,
    comp_vertex,
    spider_to_graph,
)
from burnkit.spider import (
    _path_pairs,
    _spider_pairs,
    _split_longest,
    burn_path,
    burn_spider,
)


def a(arm, pos):
    return arm_vertex(arm, pos)


def radii_of(cover):
    return tuple(sorted((r for _, r in cover.pairs), reverse=True))


def test_path_tiling_positions():
    assert _path_pairs(1) == [(0, 0)]
    assert _path_pairs(2) == [(0, 1)]
    assert _path_pairs(3) == [(1, 1)]
    assert _path_pairs(4) == [(1, 1), (3, 0)]
    assert _path_pairs(16) == [(3, 3), (9, 2), (13, 1), (15, 0)]


def test_burn_path_small_orders():
    cover, schedule = burn_path(4)
    assert cover.pairs == ((comp_vertex(0, 1), 1), (comp_vertex(0, 3), 0))
    assert schedule.claimed_time == 2

    cover, schedule = burn_path(16)
    assert [p for p, _ in cover.pairs] == [comp_vertex(0, i) for i in (3, 9, 13, 15)]
    assert schedule.claimed_time == 4


def test_burn_path_meets_ceil_sqrt_everywhere():
    for order in range(1, 61):
        cover, schedule = burn_path(order)
        assert cover.budget == ceil_sqrt(order)
        assert schedule.claimed_time <= ceil_sqrt(order)


def test_reduce_long_arm_chain():
    pair, survivors = _split_longest((20, 1, 1), 5)
    assert pair == (a(0, 16), 4)
    assert survivors == [(11, 0), (1, 1), (1, 2)]
    pair, survivors = _split_longest((11, 1, 1), 4)
    assert pair == (a(0, 8), 3)
    assert survivors == [(4, 0), (1, 1), (1, 2)]


def test_reduce_long_arm_renumbers_survivors():
    # The stub of arm 0 sorts after the two arms of length 8, so it becomes
    # arm 2 of the remainder, and the cover maps it back to arm 0.
    pair, survivors = _split_longest((20, 8, 8), 7)
    assert pair == (a(0, 14), 6)
    assert survivors == [(8, 1), (8, 2), (7, 0)]
    rest = _spider_pairs((8, 8, 7))
    assert rest == [(HEAD, 4), (a(0, 6), 3), (a(1, 6), 2), (a(2, 6), 1)]
    # remainder arms 0, 1, 2 are input arms 1, 2, 0
    assert _spider_pairs((20, 8, 8)) == [
        pair,
        (HEAD, 4),
        (a(1, 6), 3),
        (a(2, 6), 2),
        (a(0, 6), 1),
    ]


def test_reduce_to_a_path_through_the_head():
    # Longest arm exactly 2a-1 and three arms total: after the trim only two
    # arms and the head survive, which is a single path.
    pair, survivors = _split_longest((7, 2, 2), 4)
    assert pair == (a(0, 4), 3)
    assert survivors == [(2, 1), (2, 2)]


def test_reduce_refuses_short_arms():
    # a = 6: an arm of 2a-1 = 11 is split, one of 10 is not.
    assert _spider_pairs((11, 10, 10))[0] == (a(0, 6), 5)
    assert _spider_pairs((10, 10, 10))[0] == (HEAD, 5)


def test_small_spiders_burn_without_an_exact_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("burn_spider ran an exact search")

    for name in ("_cover_search", "_assign_intervals", "_sequence_search"):
        monkeypatch.setattr(exact, name, refuse)
    sp = Spider((1, 1, 1))
    cover, schedule = burn_spider(sp)
    assert cover.pairs == ((HEAD, 1),)
    assert cover.budget == 2
    assert schedule.claimed_time == 2
    assert verify_schedule(spider_to_graph(sp), schedule)
    for arms in spider_arm_sets(16):
        burn_spider(Spider(arms))
    with pytest.raises(AssertionError):
        exact.exact_burning_number(spider_to_graph(sp))


def check_spider(arms):
    sp = Spider(arms)
    cover, schedule = burn_spider(sp)
    alpha = ceil_sqrt(sp.n)
    assert cover.budget == alpha
    assert schedule.claimed_time <= alpha
    assert verify_schedule(spider_to_graph(sp), schedule)
    return cover, schedule


def test_uniform_tight_shape():
    # alpha-1 arms of length alpha+1 (order exactly alpha squared).
    cover, _ = check_spider((8, 8, 8, 8, 8, 8))
    assert radii_of(cover) == (6, 5, 4, 3, 2, 1, 0)
    assert cover.pairs[0] == (a(0, 1), 6)
    assert cover.pairs[-1] == (a(0, 8), 0)


def test_head_ball_with_few_tails():
    cover, _ = check_spider((12, 12, 11, 2))
    assert cover.pairs == ((HEAD, 6), (a(0, 9), 5), (a(1, 9), 4), (a(2, 9), 3))


def test_head_ball_with_one_split_tail():
    # a = 7, t = 4: the last residual (length 1) takes a radius 2 ball, which
    # already reaches its leaf, so no leaf ball follows.
    cover, _ = check_spider((12, 9, 8, 7, 1, 1))
    assert cover.pairs == (
        (HEAD, 6),
        (a(0, 9), 5),
        (a(1, 8), 4),
        (a(2, 7), 3),
        (a(3, 7), 2),
    )
    # a = 5, t = 3: the radius 1 ball stops one short of the leaf, which
    # takes a radius 0 ball.
    cover, _ = check_spider((8, 8, 8))
    assert cover.pairs == (
        (HEAD, 4),
        (a(0, 6), 3),
        (a(1, 6), 2),
        (a(2, 6), 1),
        (a(2, 8), 0),
    )
    # a = 5 with a residual of length 1: one ball, not a radius 1 pair twice
    cover, _ = check_spider((6, 5, 5))
    assert cover.pairs == ((HEAD, 4), (a(0, 5), 3), (a(1, 5), 2), (a(2, 5), 1))


def test_head_ball_delegates_crowded_tails():
    cover, _ = check_spider((7, 7, 7, 7, 7, 4, 4))
    assert cover.pairs == (
        (HEAD, 6),
        (a(0, 7), 4),
        (a(1, 7), 3),
        (a(2, 7), 2),
        (a(3, 7), 1),
        (a(4, 7), 0),
    )


def test_head_ball_with_maximal_tail_count():
    cover, _ = check_spider((8, 7, 7, 7, 7, 7))
    assert radii_of(cover) == (6, 5, 4, 3, 2, 1, 0)
    assert cover.pairs[0] == (HEAD, 6)
    assert cover.pairs[1] == (a(0, 7), 5)


def test_long_arm_split_into_a_split_tail():
    # the remainder (8, 8, 7) is the split-tail case at a = 5
    cover, _ = check_spider((20, 8, 8))
    assert cover.pairs[0] == (a(0, 14), 6)
    assert radii_of(cover) == (6, 4, 3, 2, 1)


def test_long_arm_recursion_two_levels_deep():
    cover, _ = check_spider((50, 1, 1))
    assert cover.pairs[0] == (a(0, 43), 7)
    assert cover.pairs[1] == (a(0, 29), 6)


def test_long_arm_leaving_a_path_through_the_head():
    cover, _ = check_spider((11, 9, 5))
    assert cover.pairs == ((a(0, 6), 5), (a(1, 6), 3), (HEAD, 2), (a(2, 4), 1))


def test_head_only_when_no_tails():
    # All arms shorter than alpha: the head ball alone covers everything.
    cover, schedule = check_spider((5, 5, 5, 5, 5, 2))
    assert cover.pairs == ((HEAD, 5),)
    assert schedule.claimed_time <= 6


def test_every_small_spider_burns_within_ceil_sqrt():
    count = 0
    for arms in spider_arm_sets(34):
        check_spider(arms)
        count += 1
    assert count == 53657


def test_seeded_moderate_spiders_cover_every_branch():
    rng = random.Random(515253)
    for _ in range(60):
        sp = random_spider(rng, rng.randint(26, 300))
        check_spider(sp.arms)


def test_long_arm_splits_do_not_recurse():
    # About sqrt(n) splits; one stack frame per split would pass the
    # default recursion limit.
    cover, schedule = burn_spider(Spider((400000, 1, 1)))
    assert cover.budget == 633
    assert schedule.claimed_time <= 633
