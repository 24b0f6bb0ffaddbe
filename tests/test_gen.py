"""The seeded generators must keep drawing the same instances.

Acceptance tests sample their instances from fixed seeds, so any change
to the random stream, or to how a draw becomes a composition, would
silently change what they test.  The references below are the plain
list formulas the generators are defined by.
"""

import random

import pytest

from burnkit.errors import InstanceError
from burnkit.gen import _composition, random_path_forest, random_spider
from burnkit.model import MAX_ORDER, PathForest, Spider


def reference_composition(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0, *cuts, total]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def test_composition_matches_the_reference_formula():
    sizes = random.Random(11)
    for seed in range(400):
        total = sizes.choice([1, 2, 3, sizes.randint(4, 60), sizes.randint(61, 20000)])
        parts = sizes.choice([1, total, sizes.randint(1, total)])
        got = _composition(random.Random(seed), total, parts)
        expected = reference_composition(random.Random(seed), total, parts)
        assert got == expected, (seed, total, parts)
        assert all(type(x) is int for x in got)


def test_composition_leaves_the_stream_where_the_reference_does():
    a, b = random.Random(5), random.Random(5)
    for total, parts in [(10, 3), (1000, 999), (50000, 40), (7, 1)]:
        _composition(a, total, parts)
        reference_composition(b, total, parts)
    assert a.random() == b.random()


def test_random_instances_match_the_reference_draws():
    for seed in range(60):
        rng, ref = random.Random(seed), random.Random(seed)
        n = rng.randint(4, 5000)
        assert ref.randint(4, 5000) == n
        sp = random_spider(rng, n)
        m = ref.randint(3, n - 1)
        assert sp == Spider(reference_composition(ref, n - 1, m))
        pf = random_path_forest(rng, n)
        t = ref.randint(1, n)
        assert pf == PathForest(reference_composition(ref, n, t))


def test_composition_rejects_impossible_splits():
    for total, parts in [(3, 0), (3, 4), (0, 1)]:
        with pytest.raises(InstanceError):
            _composition(random.Random(1), total, parts)


def test_orders_past_the_index_range_are_refused_before_drawing():
    for draw in (random_path_forest, random_spider):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(InstanceError, match=str(MAX_ORDER)):
            draw(rng, MAX_ORDER + 1, 3)
        assert rng.getstate() == state
