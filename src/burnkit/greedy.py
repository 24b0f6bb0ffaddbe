"""Greedy 3/2-approximation for burning path forests.

Each step computes a removal radius r from the current instance (n vertices,
t components):

    r = floor(n / (2t)) + t - 1   when t >= floor(sqrt(n))
    r = ceil(sqrt(n)) - 1         otherwise

then removes a largest component outright if its radius floor(a/2) is at
most r (center: the leftmost central vertex), and otherwise removes the
2r+1 vertices of a radius-r ball at distance r from one end of a largest
component (this implementation trims the high-position end, so surviving
windows always start at position 0).  Ties among largest components go to
the lowest component index.

The removal radii taken in step order always fit under the floor upper
bound of the initial instance, one budget slot per step, so the collected
(center, radius) pairs form a feasible cover; the published budget M uses
the sqrt-form bound when it applies (t0 <= ceil(sqrt(n0))) and the floor
form otherwise.  The resulting schedule burns the forest in at most 3/2
times its true burning number.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .bounds import ub_floor, ub_sqrt
from .burning import schedule_from_cover
from .model import (
    BudgetedCover,
    BurnSchedule,
    PathForest,
    VertexId,
    ceil_sqrt,
    comp_vertex,
    path_center,
    path_forest_to_graph,
)


def greedy_radius(n: int, t: int) -> int:
    if n < 1 or t < 1 or t > n:
        raise ValueError(f"bad instance parameters n={n}, t={t}")
    if t >= isqrt(n):
        return n // (2 * t) + t - 1
    return ceil_sqrt(n) - 1


@dataclass(frozen=True)
class GreedyStep:
    pf_before: PathForest
    r: int
    action: str  # "remove-component" | "remove-neighborhood"
    center: VertexId


@dataclass(frozen=True)
class GreedyTrace:
    steps: tuple[GreedyStep, ...]


def _greedy_pairs(pf: PathForest) -> tuple[list[tuple[VertexId, int]], GreedyTrace]:
    """Run the greedy loop, keeping centers in the coordinates of pf itself.

    Components are tracked as (original index, remaining order); trims only
    ever shorten the high end, so a surviving window is positions
    0..remaining-1 of its original component.
    """
    live = [[c, a] for c, a in enumerate(pf.orders)]
    pairs: list[tuple[VertexId, int]] = []
    steps: list[GreedyStep] = []
    while live:
        n = sum(a for _, a in live)
        t = len(live)
        r = greedy_radius(n, t)
        live.sort(key=lambda ca: (-ca[1], ca[0]))
        before = PathForest(tuple(a for _, a in live))
        c, a = live[0]
        if a // 2 <= r:
            center = comp_vertex(c, path_center(a))
            action = "remove-component"
            live.pop(0)
        else:
            center = comp_vertex(c, a - 1 - r)
            action = "remove-neighborhood"
            live[0][1] = a - (2 * r + 1)
        pairs.append((center, r))
        steps.append(GreedyStep(before, r, action, center))
    return pairs, GreedyTrace(tuple(steps))


def greedy_budget(pf: PathForest) -> int:
    ubs = ub_sqrt(pf)
    return ubs if ubs is not None else ub_floor(pf)


def greedy_burn(pf: PathForest) -> tuple[BudgetedCover, BurnSchedule, GreedyTrace]:
    """Cover, verified schedule and step trace for burning pf greedily."""
    pairs, trace = _greedy_pairs(pf)
    cover = BudgetedCover(tuple(pairs), greedy_budget(pf))
    g = path_forest_to_graph(pf)
    schedule = schedule_from_cover(g, cover)
    return cover, schedule, trace
