"""Path tiling and the ceil-sqrt spider burner, branch by branch."""

import random
from math import isqrt

import pytest

from conftest import spider_arm_sets
from burnkit import exact, spider
from burnkit.burning import verify_schedule
from burnkit.errors import InstanceError
from burnkit.gen import random_spider
from burnkit.model import (
    HEAD,
    HEAD_SEGMENT as H,
    MAX_ORDER,
    Spider,
    arm_vertex,
    ceil_sqrt,
    comp_vertex,
    spider_to_graph,
)
from burnkit.spider import _path_pairs, _spider_pairs, burn_path, burn_spider


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


def test_burners_refuse_huge_orders_before_any_work(monkeypatch):
    # The order is checked first: the split loop and the tiling would run
    # for seconds, or never end, on orders no index array can hold.
    def unreachable(*args):
        raise AssertionError("the construction ran")

    monkeypatch.setattr(spider, "_spider_pairs", unreachable)
    monkeypatch.setattr(spider, "_path_pairs", unreachable)
    for burn, instance in ((burn_spider, Spider((2**40, 1, 1))),
                           (burn_spider, Spider((MAX_ORDER - 2, 1, 1))),
                           (burn_path, 2**64), (burn_path, MAX_ORDER + 1)):
        with pytest.raises(InstanceError, match=str(MAX_ORDER)):
            burn(instance)


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


def pairs_of(arms):
    """_spider_pairs' (segment, position, radius) balls; (H, 0) is the head."""
    return _spider_pairs(arms, 1 + sum(arms))


def ids_of(balls):
    """The (vertex id, radius) pairs of these balls."""
    return [(HEAD if s == H else a(s, p), r) for s, p, r in balls]


def test_reduce_long_arm_chain():
    # (20, 1, 1) at a = 5 loses the tip 12..20 of arm 0, which leaves the
    # spider (11, 1, 1); at a = 4 that loses 5..11 and leaves (4, 1, 1).
    # The stub stays arm 0 each time, so the remainders' pairs carry over.
    assert pairs_of((20, 1, 1))[0] == (0, 16, 4)
    assert pairs_of((20, 1, 1))[1:] == pairs_of((11, 1, 1))
    assert pairs_of((11, 1, 1))[0] == (0, 8, 3)
    assert pairs_of((11, 1, 1))[1:] == pairs_of((4, 1, 1))
    assert pairs_of((4, 1, 1)) == [(H, 0, 2), (0, 3, 1)]


def test_reduce_long_arm_renumbers_survivors():
    # The stub of arm 0 sorts after the two arms of length 8, so it becomes
    # arm 2 of the remainder, and the cover maps it back to arm 0.
    rest = pairs_of((8, 8, 7))
    assert rest == [(H, 0, 4), (0, 6, 3), (1, 6, 2), (2, 6, 1)]
    # remainder arms 0, 1, 2 are input arms 1, 2, 0
    assert pairs_of((20, 8, 8)) == [
        (0, 14, 6),
        (H, 0, 4),
        (1, 6, 3),
        (2, 6, 2),
        (0, 6, 1),
    ]
    # A stub as long as untouched arms goes first among them: (18, 7, 7)
    # leaves three arms of 7, which keep the input order.
    assert pairs_of((18, 7, 7)) == [(0, 13, 5)] + pairs_of((7, 7, 7))


def test_reduce_to_a_path_through_the_head():
    # Longest arm exactly 2a-1 and three arms total: after the trim only two
    # arms and the head survive, which is a single path, tiled from arm 1's
    # leaf through the head to arm 2's leaf.
    assert pairs_of((7, 2, 2)) == [(0, 4, 3), (H, 0, 2)]
    assert _path_pairs(3 + 1 + 2) == [(2, 2), (4, 1)]
    assert pairs_of((7, 3, 2)) == [(0, 4, 3), (1, 1, 2), (2, 1, 1)]


def test_reduce_refuses_short_arms():
    # a = 6: an arm of 2a-1 = 11 is split, one of 10 is not.
    assert pairs_of((11, 10, 10))[0] == (0, 6, 5)
    assert pairs_of((10, 10, 10))[0] == (H, 0, 5)


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


def reference_spider_pairs(arms):
    """The split loop as _spider_pairs' docstring states it, one sort per split.

    live lists the remainder's arms as (length, input arm), in order.  Once
    no arm is long enough to split, the remainder is burned as a spider of
    its own, which takes no split, and its arms are mapped back.  Returns
    the (segment, position, radius) balls and the number of splits whose
    stub is as long as another arm of the remainder.
    """
    live = list(zip(arms, range(len(arms))))
    pairs, ties = [], 0
    while True:
        n = 1 + sum(length for length, _ in live)
        alpha = ceil_sqrt(n)
        length, arm = live[0]
        if length < 2 * alpha - 1:
            rest = _spider_pairs(tuple(length for length, _ in live), n)
            pairs += [(s if s == H else live[s][1], p, r) for s, p, r in rest]
            return pairs, ties
        pairs.append((arm, length - (alpha - 1), alpha - 1))
        stub = length - (2 * alpha - 1)
        # survivors keep their index; the stub takes the split arm's index 0
        ranked = [(length, j, arm) for j, (length, arm) in enumerate(live) if j]
        ties += any(length == stub for length, _, _ in ranked)
        if stub:
            ranked.append((stub, 0, arm))
        ranked.sort(key=lambda lja: (-lja[0], lja[1]))
        live = [(length, arm) for length, _, arm in ranked]
        if len(live) == 2:
            (first, arm1), (second, arm2) = live
            for c, r in _path_pairs(first + 1 + second):
                if c < first:
                    pairs.append((arm1, first - c, r))
                elif c == first:
                    pairs.append((H, 0, r))
                else:
                    pairs.append((arm2, c - first, r))
            return pairs, ties


def test_every_small_spider_burns_within_ceil_sqrt():
    # Each spider that takes a split also checks its cover, pair by pair in
    # ids, against the re-sorting reference loop.
    count = splits = ties = 0
    for arms in spider_arm_sets(34):
        cover, _ = check_spider(arms)
        count += 1
        if arms[0] >= 2 * ceil_sqrt(1 + sum(arms)) - 1:
            ref, tied = reference_spider_pairs(arms)
            assert list(cover.pairs) == ids_of(ref), arms
            splits += 1
            ties += tied
    # 19,246 spiders split; 8,431 of their splits leave a stub as long as
    # another arm
    assert (count, splits, ties) == (53657, 19246, 8431)


def assert_splits_match_the_reference(arms):
    ref, ties = reference_spider_pairs(arms)
    assert _spider_pairs(arms, 1 + sum(arms)) == ref, arms
    return ties


def test_split_loop_matches_the_reference_on_tied_arms():
    # Arm lengths come from a pool of two or three values.  Then a few
    # splits are undone: an arm grows by 2a-1, a being the budget of the
    # grown spider, so that splitting it leaves a stub as long as the arms
    # it was drawn with.
    ties = 0
    for seed in range(400):
        rng = random.Random(seed)
        pool = [rng.randint(1, 30) for _ in range(rng.randint(2, 3))]
        arms = [rng.choice(pool) for _ in range(rng.randint(3, 40))]
        for _ in range(rng.randint(1, 4)):
            alpha = ceil_sqrt(1 + sum(arms))
            while ceil_sqrt(1 + sum(arms) + 2 * alpha - 1) != alpha:
                alpha += 1
            arms[rng.randrange(len(arms))] += 2 * alpha - 1
        ties += assert_splits_match_the_reference(tuple(sorted(arms, reverse=True)))
    # 1,190 splits, 677 of them with a stub as long as another arm
    assert ties == 677


def test_split_loop_matches_the_reference_on_many_arms():
    assert_splits_match_the_reference((20000,) + (1,) * 20000)


def test_split_loop_matches_the_reference_on_large_split_spiders():
    # the shape of the benchmark's split spiders: order 1e5-2e5, at most
    # isqrt(n) arms, so the longest arm splits many times
    rng = random.Random(8)
    for _ in range(4):
        n = rng.randrange(100_000, 200_000)
        sp = random_spider(rng, n, rng.randint(3, isqrt(n)))
        assert sp.arms[0] >= 2 * ceil_sqrt(n) - 1
        assert_splits_match_the_reference(sp.arms)


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
