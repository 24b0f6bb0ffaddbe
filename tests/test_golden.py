"""Pinned outputs of the spider and greedy burners on large seeded inputs.

The sha256 of repr([(claimed_time, sources), ...]) was taken before the
segment graphs were built from runs of equal lengths.  A change to how
graphs, covers or schedules are constructed may make them faster but
must not change a single output; when a change is meant to, the new
digests belong in the same change, with the reason.
"""

import hashlib
import math
import random

from burnkit.gen import random_path_forest, random_spider
from burnkit.greedy import greedy_burn
from burnkit.model import HEAD
from burnkit.spider import burn_spider


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def test_spider_outputs_are_pinned():
    # The benchmark's eight fixed split-branch spiders (seed 0, at most
    # isqrt(n) arms, one per eighth of the orders 1e5 to 2e5), then four
    # seeded spiders of order 1e5 with thousands of arms, which take the
    # head-ball branch.
    rng = random.Random(0)
    spiders = []
    for i in range(8):
        n = rng.randrange(100_000 + i * 12_500, 100_000 + (i + 1) * 12_500)
        spiders.append(random_spider(rng, n, rng.randint(3, math.isqrt(n))))
    rng = random.Random(20261020)
    spiders += [random_spider(rng, 100_000, rng.randint(2_000, 50_000)) for _ in range(4)]
    outputs, first_centers = [], []
    for sp in spiders:
        cover, schedule = burn_spider(sp)
        outputs.append((schedule.claimed_time, schedule.sources))
        first_centers.append(cover.pairs[0][0])
    assert [v == HEAD for v in first_centers] == [False] * 8 + [True] * 4
    assert digest(outputs) == "5bce90003fefacff70a6272a52e0b4954aa1ab062d9a649d6c3d3bea085f402d"


def test_greedy_outputs_are_pinned():
    # Forests of order 2e5 below, at and above t = isqrt(n) = 447, where
    # the greedy radius changes regime.
    rng = random.Random(20261020)
    outputs = []
    for t in (5, 447, 2000):
        _, schedule, _ = greedy_burn(random_path_forest(rng, 200_000, t))
        outputs.append((schedule.claimed_time, schedule.sources))
    assert digest(outputs) == "3bb78a78d9d4c3eed84322ed4bf1bd6036a9af19ae6109c60f2f997b666d140c"
