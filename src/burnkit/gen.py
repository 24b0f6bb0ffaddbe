"""Seeded random instance generators for tests and benchmarks.

Orders past model.MAX_ORDER are refused before anything is drawn.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import InstanceError
from .model import PathForest, Spider, check_order


def _composition(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    """Uniform random composition of total into `parts` positive parts."""
    if not 1 <= parts <= total:
        raise InstanceError(f"cannot split {total} into {parts} positive parts")
    bounds = np.empty(parts + 1, dtype=np.int64)
    bounds[0], bounds[-1] = 0, total
    bounds[1:-1] = rng.sample(range(1, total), parts - 1)
    bounds[1:-1].sort()
    return tuple(np.diff(bounds).tolist())


def random_path_forest(rng: random.Random, n: int, t: int | None = None) -> PathForest:
    if n < 1:
        raise InstanceError("need at least one vertex")
    check_order(n)
    if t is None:
        t = rng.randint(1, n)
    return PathForest(_composition(rng, n, t))


def random_spider(rng: random.Random, n: int, m: int | None = None) -> Spider:
    """Random spider of order n: a head plus m arms splitting n-1 vertices."""
    if n < 4:
        raise InstanceError("a spider has a head and at least 3 arm vertices")
    check_order(n)
    if m is None:
        m = rng.randint(3, n - 1)
    if m < 3:
        raise InstanceError("a spider needs at least 3 arms")
    return Spider(_composition(rng, n - 1, m))
