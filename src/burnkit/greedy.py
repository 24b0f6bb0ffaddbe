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

The loop keeps the live components in a heap keyed on (-remaining order,
original index), whose top is the component the tie rule picks, and keeps
n and t as running counts.  A step therefore costs O(log t), not a sort of
every live component, and a run of s steps O(t + s log t); s is at most
the floor bound below, about n/(2t) + t.  The trace stores only each
step's radius, action and center next to the input forest; the forest a
step acted on is recomputed, by replaying the earlier steps, only when it
is asked for (GreedyTrace.forest_before).

The removal radii taken in step order always fit under the floor upper
bound of the initial instance, one budget slot per step, so the collected
(center, radius) pairs form a feasible cover; the published budget M uses
the sqrt-form bound when it applies (t0 <= ceil(sqrt(n0))) and the floor
form otherwise.  The resulting schedule burns the forest in at most 3/2
times its true burning number.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from math import isqrt

from .bounds import ub_floor, ub_sqrt
from .burning import schedule_from_cover
from .model import (
    BudgetedCover,
    BurnSchedule,
    PathForest,
    VertexId,
    ceil_sqrt,
    check_order,
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
    r: int
    action: str  # "remove-component" | "remove-neighborhood"
    center: VertexId


@dataclass(frozen=True)
class GreedyTrace:
    forest: PathForest
    steps: tuple[GreedyStep, ...]

    def forest_before(self, i: int) -> PathForest:
        """The remaining forest that step i acted on.

        Replays steps 0..i-1 on the input forest: a removed component
        drops out, a trimmed one loses 2r+1 vertices.  O(t + i) per call.
        """
        if not 0 <= i < len(self.steps):
            raise IndexError(f"step {i} out of range for {len(self.steps)} steps")
        orders = list(self.forest.orders)
        for step in self.steps[:i]:
            c = step.center[1]
            if step.action == "remove-component":
                orders[c] = 0
            else:
                orders[c] -= 2 * step.r + 1
        return PathForest(tuple(a for a in orders if a))


def _greedy_pairs(pf: PathForest) -> tuple[list[tuple[VertexId, int]], GreedyTrace]:
    """Run the greedy loop, keeping centers in the coordinates of pf itself.

    Components live in a heap of (-remaining order, original index), so
    heap[0] is a largest one with the lowest index; trims only ever
    shorten the high end, so a surviving window is positions
    0..remaining-1 of its original component.
    """
    heap = [(-a, c) for c, a in enumerate(pf.orders)]
    heapify(heap)
    n, t = pf.n, pf.t
    pairs: list[tuple[VertexId, int]] = []
    steps: list[GreedyStep] = []
    while heap:
        r = greedy_radius(n, t)
        neg_a, c = heap[0]
        a = -neg_a
        if a // 2 <= r:
            center = comp_vertex(c, path_center(a))
            action = "remove-component"
            heappop(heap)
            n -= a
            t -= 1
        else:
            center = comp_vertex(c, a - 1 - r)
            action = "remove-neighborhood"
            heapreplace(heap, (neg_a + 2 * r + 1, c))
            n -= 2 * r + 1
        pairs.append((center, r))
        steps.append(GreedyStep(r, action, center))
    return pairs, GreedyTrace(pf, tuple(steps))


def greedy_budget(pf: PathForest) -> int:
    ubs = ub_sqrt(pf)
    return ubs if ubs is not None else ub_floor(pf)


def greedy_burn(pf: PathForest) -> tuple[BudgetedCover, BurnSchedule, GreedyTrace]:
    """Cover, verified schedule and step trace for burning pf greedily."""
    check_order(pf.n)  # before any work of its order
    pairs, trace = _greedy_pairs(pf)
    cover = BudgetedCover(tuple(pairs), greedy_budget(pf))
    g = path_forest_to_graph(pf)
    schedule = schedule_from_cover(g, cover)
    return cover, schedule, trace
