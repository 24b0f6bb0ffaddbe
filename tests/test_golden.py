"""Pinned outputs of the spider, greedy and path burners.

On large seeded inputs, which burn through the closed form, the sha256 of
repr([(claimed_time, sources), ...]) was taken before the segment graphs
were built from runs of equal lengths; the digests of the covers (pairs
and budget) and of the greedy steps as (r, action, center) were taken
before the constructions handed vertex indices to the schedule.  On every
small spider and path forest, which take the breadth-first kernel and its
burn state, both digests were taken before that state read the kernel's
rounds itself rather than through the graph.  A change to how graphs,
covers or schedules are constructed may make them faster but must not
change a single output; when a change is meant to, the new digests belong
in the same change, with the reason.
"""

import hashlib
import math
import random

from conftest import partitions, spider_arm_sets
from burnkit.gen import random_path_forest, random_spider
from burnkit.greedy import greedy_burn
from burnkit.model import HEAD, PathForest, Spider
from burnkit.spider import burn_path, burn_spider


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
    outputs, covers, first_centers = [], [], []
    for sp in spiders:
        cover, schedule = burn_spider(sp)
        outputs.append((schedule.claimed_time, schedule.sources))
        covers.append((cover.pairs, cover.budget))
        first_centers.append(cover.pairs[0][0])
    assert [v == HEAD for v in first_centers] == [False] * 8 + [True] * 4
    assert digest(outputs) == "5bce90003fefacff70a6272a52e0b4954aa1ab062d9a649d6c3d3bea085f402d"
    assert digest(covers) == "db235a39e3fe78967a7798ef04d76f9f529150d592f619cd16263b83fcb7361a"


def test_greedy_outputs_are_pinned():
    # Forests of order 2e5 below, at and above t = isqrt(n) = 447, where
    # the greedy radius changes regime.
    rng = random.Random(20261020)
    outputs, covers, steps = [], [], []
    for t in (5, 447, 2000):
        cover, schedule, trace = greedy_burn(random_path_forest(rng, 200_000, t))
        outputs.append((schedule.claimed_time, schedule.sources))
        covers.append((cover.pairs, cover.budget))
        steps.append([(s.r, s.action, s.center) for s in trace.steps])
    assert digest(outputs) == "3bb78a78d9d4c3eed84322ed4bf1bd6036a9af19ae6109c60f2f997b666d140c"
    assert digest(covers) == "ac60873b0c9e56bebd9dc97f55c5ffb1162bc93d327fcbdcf5cc63d902a07996"
    assert digest(steps) == "aa87bc4aa433b7e239a326fdc35a88287f7373cd59ac3eb4100ca0dd1684cf98"


def test_path_outputs_are_pinned():
    # Seeded orders up to 1e6, then the orders around a square, where the
    # tiling's last ball changes.
    rng = random.Random(20261020)
    orders = [rng.randrange(1, 1_000_000) for _ in range(6)] + [998_000, 998_001, 998_002]
    outputs = []
    for order in orders:
        cover, schedule = burn_path(order)
        outputs.append((cover.pairs, cover.budget, schedule.claimed_time, schedule.sources))
    assert digest(outputs) == "ec350d22dd8c94a98f69f48bd013932e7c164bfb69953ad4e94fc397180dd4fd"


def test_small_route_outputs_are_pinned():
    # Every spider of order <= 22 and every path forest of order <= 18,
    # the inputs of the benchmark's exact_small workload: all below the
    # closed-form cutoff.
    outputs, covers = [], []
    for arms in spider_arm_sets(22):
        cover, schedule = burn_spider(Spider(arms))
        outputs.append((schedule.claimed_time, schedule.sources))
        covers.append((cover.pairs, cover.budget))
    for orders in (o for n in range(1, 19) for o in partitions(n)):
        cover, schedule, _ = greedy_burn(PathForest(orders))
        outputs.append((schedule.claimed_time, schedule.sources))
        covers.append((cover.pairs, cover.budget))
    assert len(outputs) == 4970
    assert digest(outputs) == "c81b1678288da0cfd44a8cc84ceb0dfb0adf46e1c2dadc384640fc2f80d16f03"
    assert digest(covers) == "f96a878a9442c5197219fb7665b4ce8d8a55497926d06545a731565ff2d6fab0"
