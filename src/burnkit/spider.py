"""Constructive ceil(sqrt(n))-round burning for paths and spiders.

burn_path tiles a path with balls of radii b-1, b-2, ..., 0 (b = ceil sqrt
of the order), each placed flush against the unburned prefix, which covers
since the ball sizes sum to b*b >= order.

burn_spider reduces a spider (head vertex plus m >= 3 pendant paths) to a
cover within budget a = ceil_sqrt(n):

* some arm has length >= 2a-1: one radius a-1 ball removes the 2a-1 tip
  vertices of the longest arm; the remainder (a smaller spider, or a path
  through the head once only two arms survive) has ceil-sqrt at most a-1,
  so repeating the split stacks strictly shrinking radii under the same
  budget.  The arms sit in a heap from the first split on, so s splits of
  a spider with m arms cost O(m + s log m), not a sort of every arm per
  split.
* the exceptional tight shape, a-1 arms all of length a+1 (n = a*a): a
  ball of radius a-1 on the first arm next to the head reaches everything
  except a length-3 stub on each other arm and the first arm's leaf;
  radii a-2, ..., 1 centered on the stubs and 0 on the leaf finish it.
* otherwise a radius a-1 ball at the head burns all but the residual arm
  tails (lengths h_i = a_i - (a-1) <= a-1, for arms with a_i >= a).  With
  t residuals: t <= a/2 or t == a-1 gives each residual its own ball of
  radius a-1-k; odd a with 2t == a+1 does the same except the last
  residual takes a radius (a-3)/2 ball, plus a radius 0 ball at its leaf
  when that ball stops one short of it;
  for the t in between, the residuals form a path forest whose greedy
  cover fits under a-1, so the greedy burner is delegated to.

The constructions emit their balls as integer (segment, position, radius)
triples, the head as HEAD_SEGMENT at position 0, never as vertex ids.
Every constructed cover is converted to a schedule and verified
(burning._cover_and_schedule, which takes the balls as columns and builds
the ids once, at the end); a branch that failed its own applicability
arithmetic raises InternalContradictionError rather than returning
something unchecked, and so does a ball that falls outside the graph.
"""

from __future__ import annotations

from heapq import heappop, heapreplace
from itertools import repeat

from .bounds import ub_floor
from .burning import _cover_and_schedule
from .errors import InternalContradictionError
from .greedy import _greedy_pairs
from .model import (
    HEAD_SEGMENT,
    BudgetedCover,
    BurnSchedule,
    PathForest,
    Spider,
    ceil_sqrt,
    check_order,
    path_forest_to_graph,
    spider_to_graph,
)

# A ball of the cover as (segment, position, radius): position counts as in
# the vertex ids, and (HEAD_SEGMENT, 0) is the head (model.SegmentGraph.indices_at).
Ball = tuple[int, int, int]


def _path_pairs(order: int) -> list[tuple[int, int]]:
    """Tiling (position, radius) pairs covering a path, radii b-1 down to 0."""
    beta = ceil_sqrt(order)
    pos = 0
    out = []
    for r in range(beta - 1, -1, -1):
        if pos >= order:
            break
        c = min(pos + r, order - 1 - r)
        out.append((c, r))
        pos = c + r + 1
    return out


def burn_path(order: int) -> tuple[BudgetedCover, BurnSchedule]:
    """Cover and verified schedule burning a path in ceil_sqrt(order) rounds."""
    check_order(order)  # before any work of its order
    positions, radii = zip(*_path_pairs(order))
    g = path_forest_to_graph(PathForest((order,)))
    return _cover_and_schedule(g, (0,) * len(radii), positions, radii, ceil_sqrt(order))


def burn_spider(sp: Spider) -> tuple[BudgetedCover, BurnSchedule]:
    """Cover and verified schedule burning a spider in <= ceil_sqrt(n) rounds."""
    n = check_order(sp.n)  # before any work of its order
    segments, positions, radii = zip(*_spider_pairs(sp.arms, n))
    g = spider_to_graph(sp)
    return _cover_and_schedule(g, segments, positions, radii, ceil_sqrt(n))


def _spider_pairs(arms: tuple[int, ...], n: int) -> list[Ball]:
    """Cover balls for the spider of order n with arms sorted non-increasing.

    The radii always fit the budget ceil_sqrt(n): each branch either uses
    radii a-1, a-2, ... directly or splits off a radius a-1 ball and goes
    on with the remainder, whose own budget is at most a-1.

    A split takes the first arm of the remainder, whose arms are ordered
    longest first, ties by their order before the split, with the stub of
    the split arm first among equal lengths.  From the first split on, the
    arms live in a heap of (-length, tie, input arm) that keeps this
    order: a sorted input is already a heap, and each stub goes back in
    with a tie key below every earlier one.  A split costs O(log m), so s
    splits cost O(m + s log m), and a spider that never splits builds
    nothing per arm.  The last phase reads at most a arms off the front.
    """
    pairs: list[Ball] = []
    alpha = ceil_sqrt(n)
    m = len(arms)
    # (length, input arm) in the remainder's order
    ordered = zip(arms, range(m))
    if arms[0] >= 2 * alpha - 1:
        heap = [(-length, i, i) for i, length in enumerate(arms)]
        tie = 0
        while True:
            neg, _, arm = heap[0]
            pairs.append((arm, -neg - (alpha - 1), alpha - 1))
            stub = -neg - (2 * alpha - 1)
            n -= 2 * alpha - 1
            if stub:
                tie -= 1
                heapreplace(heap, (-stub, tie, arm))
            else:
                heappop(heap)
                m -= 1
            if m < 3:
                # two arms and the head left over: a path, tiled from the
                # first arm's leaf through the head to the second arm's leaf
                (neg1, _, arm1), (neg2, _, arm2) = sorted(heap)
                first, second = -neg1, -neg2
                for c, r in _path_pairs(first + 1 + second):
                    if c < first:
                        pairs.append((arm1, first - c, r))
                    elif c == first:
                        pairs.append((HEAD_SEGMENT, 0, r))
                    else:
                        pairs.append((arm2, c - first, r))
                return pairs
            alpha = ceil_sqrt(n)
            if -heap[0][0] < 2 * alpha - 1:
                break
        ordered = ((-neg, arm) for neg, _, arm in map(heappop, repeat(heap, m)))

    # the arms with a tail past the head ball, up to one more than fits
    tails = []
    for length, arm in ordered:
        if length < alpha or len(tails) == alpha:
            break
        tails.append((length, arm))
    if m == alpha - 1 and len(tails) == m and tails[0][0] == tails[-1][0] == alpha + 1:
        # n == alpha**2 exactly; the head ball cannot finish this shape
        arm0 = tails[0][1]
        pairs.append((arm0, 1, alpha - 1))
        pairs += [(arm, alpha, alpha - 1 - i) for i, (_, arm) in enumerate(tails[1:], start=1)]
        pairs.append((arm0, alpha + 1, 0))
    else:
        pairs += _head_ball(tails, alpha)
    return pairs


def _head_ball(tails: list[tuple[int, int]], alpha: int) -> list[Ball]:
    """Head ball and residual balls for these (length, arm) tails, longest first."""
    residuals = [(length - (alpha - 1), i) for length, i in tails]
    t = len(residuals)
    if t >= alpha:
        raise InternalContradictionError(
            f"{t} residual tails of length >= 1 contradict order <= {alpha}**2"
        )
    pairs: list[Ball] = [(HEAD_SEGMENT, 0, alpha - 1)]
    if t == 0:
        return pairs

    def middle_ball(k: int, h: int, i: int) -> Ball:
        rho = alpha - 1 - k
        if 2 * rho + 1 < h:
            raise InternalContradictionError(
                f"radius {rho} ball cannot cover a residual of length {h}"
            )
        return (i, alpha + (h - 1) // 2, rho)

    if 2 * t <= alpha or t == alpha - 1:
        for k, (h, i) in enumerate(residuals, start=1):
            pairs.append(middle_ball(k, h, i))
        return pairs

    if alpha % 2 == 1 and 2 * t == alpha + 1:
        for k, (h, i) in enumerate(residuals[:-1], start=1):
            pairs.append(middle_ball(k, h, i))
        h, i = residuals[-1]
        tip = alpha - 1 + h
        rho = (alpha - 3) // 2
        ctr = min(alpha + rho, tip)
        # h <= alpha-1 puts the residual ball's far end at tip-1 or beyond
        if ctr - rho > alpha or ctr + rho < tip - 1:
            raise InternalContradictionError("split tail left a gap uncovered")
        pairs.append((i, ctr, rho))
        if ctr + rho < tip:
            pairs.append((i, tip, 0))
        return pairs

    # remaining range: floor(a/2 + 3/2) <= t <= a-2.  The residuals form a
    # path forest whose greedy cover fits strictly under the head radius.
    if not ((alpha + 3) // 2 <= t <= alpha - 2):
        raise InternalContradictionError(f"unhandled residual count {t} at {alpha=}")
    forest = PathForest(tuple(h for h, _ in residuals))
    if ub_floor(forest) > alpha - 1:
        raise InternalContradictionError("residual forest too heavy to delegate")
    comps, positions, radii, _ = _greedy_pairs(forest)
    if len(radii) > alpha - 1:
        raise InternalContradictionError("greedy pair count exceeds the budget")
    for c, p, r in zip(comps, positions, radii):
        pairs.append((residuals[c][1], alpha + p, r))
    return pairs
