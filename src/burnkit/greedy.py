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
the floor bound below, about n/(2t) + t.  A step appends plain integers
to four columns (component, position, radius, and whether the component
went whole) and builds no object: the trace keeps those columns next to
the input forest, and makes its GreedyStep records only when steps is
first read.  The forest a step acted on is recomputed, by replaying the
earlier columns, only when it is asked for (GreedyTrace.forest_before).
greedy_burn hands the columns to the schedule construction as they are
(burning._cover_and_schedule): the centers become vertex indices in one
pass, and the cover's ids are built once, at the end.

The removal radii taken in step order always fit under the floor upper
bound of the initial instance, one budget slot per step, so the collected
(center, radius) pairs form a feasible cover; the published budget M uses
the sqrt-form bound when it applies (t0 <= ceil(sqrt(n0))) and the floor
form otherwise.  The resulting schedule burns the forest in at most 3/2
times its true burning number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heapreplace
from math import isqrt

from .bounds import ub_floor, ub_sqrt
from .burning import _cover_and_schedule
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


_ACTIONS = ("remove-neighborhood", "remove-component")


@dataclass(frozen=True)
class GreedyTrace:
    """The greedy loop's steps on forest, kept as one column per step field.

    Step i took radius radii[i] around position positions[i] of input
    component comps[i], and removed that component outright where
    whole[i] holds, else trimmed 2r+1 vertices off its high end.  steps
    gives the same run as GreedyStep records, built from the columns when
    first read and kept; traces compare by their forest and columns.
    """

    forest: PathForest
    comps: tuple[int, ...]
    positions: tuple[int, ...]
    radii: tuple[int, ...]
    whole: tuple[bool, ...]

    @cached_property
    def steps(self) -> tuple[GreedyStep, ...]:
        return tuple(
            GreedyStep(r, _ACTIONS[w], comp_vertex(c, p))
            for c, p, r, w in zip(self.comps, self.positions, self.radii, self.whole)
        )

    def forest_before(self, i: int) -> PathForest:
        """The remaining forest that step i acted on.

        Replays the columns of steps 0..i-1 on the input forest: a removed
        component drops out, a trimmed one loses 2r+1 vertices.  O(t + i)
        per call, and no GreedyStep is built.
        """
        if not 0 <= i < len(self.radii):
            raise IndexError(f"step {i} out of range for {len(self.radii)} steps")
        orders = list(self.forest.orders)
        for c, r, whole in zip(self.comps[:i], self.radii[:i], self.whole[:i]):
            if whole:
                orders[c] = 0
            else:
                orders[c] -= 2 * r + 1
        return PathForest(tuple(a for a in orders if a))


def _greedy_pairs(pf: PathForest) -> tuple[tuple[int, ...], ...]:
    """Run the greedy loop; return its (comps, positions, radii, whole) columns.

    The centers are in the coordinates of pf itself.  Components live in
    a heap of (-remaining order, original index), so heap[0] is a largest
    one with the lowest index; trims only ever shorten the high end, so a
    surviving window is positions 0..remaining-1 of its original
    component.
    """
    heap = [(-a, c) for c, a in enumerate(pf.orders)]
    heapify(heap)
    n, t = pf.n, pf.t
    comps: list[int] = []
    positions: list[int] = []
    radii: list[int] = []
    whole: list[bool] = []
    while heap:
        r = greedy_radius(n, t)
        neg_a, c = heap[0]
        a = -neg_a
        if a // 2 <= r:
            positions.append(path_center(a))
            whole.append(True)
            heappop(heap)
            n -= a
            t -= 1
        else:
            positions.append(a - 1 - r)
            whole.append(False)
            heapreplace(heap, (neg_a + 2 * r + 1, c))
            n -= 2 * r + 1
        comps.append(c)
        radii.append(r)
    return tuple(comps), tuple(positions), tuple(radii), tuple(whole)


def greedy_budget(pf: PathForest) -> int:
    ubs = ub_sqrt(pf)
    return ubs if ubs is not None else ub_floor(pf)


def greedy_burn(pf: PathForest) -> tuple[BudgetedCover, BurnSchedule, GreedyTrace]:
    """Cover, verified schedule and step trace for burning pf greedily."""
    check_order(pf.n)  # before any work of its order
    trace = GreedyTrace(pf, *_greedy_pairs(pf))
    g = path_forest_to_graph(pf)
    cover, schedule = _cover_and_schedule(
        g, trace.comps, trace.positions, trace.radii, greedy_budget(pf)
    )
    return cover, schedule, trace
