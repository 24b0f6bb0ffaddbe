"""Burning-process simulation and schedule/cover conversions.

The central fact the conversions rely on: a schedule s_1, ..., s_k gives
every vertex v the first-burn time min_i (i + d(s_i, v)).  Consequently a
graph burns by round M exactly when it admits a cover by closed balls
N_{r_i}[v_i] whose sorted non-increasing radii satisfy r_(i) <= M - i:
igniting the centers largest-radius-first realizes the cover as a schedule,
and conversely the balls N_{T-i}[s_i] of a T-round schedule cover the graph.
schedule_from_cover meets ids only at its boundary, one bulk conversion
each way, and reads the rounds around its centers in bulk (closed_min).
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from . import engine
from .errors import (
    CoverageError,
    InstanceError,
    InternalContradictionError,
    VerificationError,
)
from .model import BudgetedCover, BurnSchedule, LabeledGraph, VertexId

# Path forests and spiders of at least this order burn through the closed
# form, on a layout each graph computes once; below it the BFS is faster,
# because the closed form has a fixed numpy cost of some 35 us a call.  A
# graph packs its neighbour rows into CSR arrays only to take the BFS.
# Measured crossover of graph build plus seed and verify burns, with the
# packed CSR (2 cores, Python 3.11, numpy 2.4): order 36-39 on path
# forests, 42-45 on spiders.
_CLOSED_FORM_MIN_ORDER = 40


def _source_indices(g: LabeledGraph, sources) -> np.ndarray:
    idx = g.indices_of(sources)
    if len(set(idx)) != len(idx):
        raise InstanceError("sources must be pairwise distinct")
    return np.asarray(idx, dtype=np.int32)


def _times_raw(g: LabeledGraph, source_idx: np.ndarray) -> np.ndarray:
    """First-burn rounds by index: closed form on large path forests and spiders."""
    segments = g.segments
    if segments is not None and g.order >= _CLOSED_FORM_MIN_ORDER:
        return engine.burn_times_segments(
            segments.lengths, segments.hub, source_idx, segments.layout()
        )
    indptr, indices = g.csr()
    return engine.burn_times_csr(indptr, indices, source_idx)


def _completion(times: np.ndarray) -> int | float:
    if times.size == 0:
        return 0
    if times.min() < 0:
        return math.inf
    return int(times.max())


def simulate(g: LabeledGraph, sources) -> tuple[dict, int | float]:
    """Run the burning process; return ({vertex: first burn round}, completion).

    Unburned vertices are absent from the map and force completion = inf.
    Spreading continues after the source list is exhausted.
    """
    times = _times_raw(g, _source_indices(g, sources))
    burn_time = {v: t for v, t in zip(g.vertices, times.tolist()) if t >= 0}
    return burn_time, _completion(times)


def completion(g: LabeledGraph, sources) -> int | float:
    """The round by which the sources burn all of g (inf if never).

    simulate's second value, without its {vertex: round} map.
    """
    return _completion(_times_raw(g, _source_indices(g, sources)))


def verify_schedule(g: LabeledGraph, schedule: BurnSchedule) -> bool:
    """True iff the schedule burns every vertex of g by round claimed_time."""
    return completion(g, schedule.sources) <= schedule.claimed_time


def cover_from_schedule(g: LabeledGraph, schedule: BurnSchedule) -> BudgetedCover:
    """Balls N_{T-i}[s_i] of a verified T-round schedule, as a budget-T cover."""
    if not verify_schedule(g, schedule):
        raise VerificationError("schedule does not burn the graph by its claimed time")
    T = schedule.claimed_time
    pairs = tuple((v, T - i) for i, v in enumerate(schedule.sources, start=1))
    return BudgetedCover(pairs, T)


def schedule_from_cover(g: LabeledGraph, cover: BudgetedCover) -> BurnSchedule:
    """Turn a feasible cover into a verified schedule of at most budget rounds.

    Round j ignites the center of the j-th pair in non-increasing radius
    order (stable among ties).  A center already burned at its round is
    replaced by the smallest vertex still unburned after the spread of
    round j; when there is none, the graph has burned and the construction
    stops.  After the centers, filler sources (the smallest vertex not yet
    in the schedule) are appended for every round at whose start the graph
    was not fully burned, until it is or the budget many sources are
    placed; the fire then spreads on.  Coverage is judged by the outcome
    only: CoverageError when the graph burns after round budget or never.
    Under a covering cover it provably burns by round budget.

    The built schedule is simulated once more, independently of the
    construction, and InternalContradictionError is raised unless it
    burns the graph in exactly the rounds the construction claims.
    """
    if g.order == 0:
        raise InstanceError("cannot schedule on an empty graph")
    centers = [v for v, _ in sorted(cover.pairs, key=itemgetter(1), reverse=True)]
    M = cover.budget
    sources, claimed = _schedule_sequential(g, g.indices_of(centers), M)
    if claimed == math.inf:
        raise CoverageError("cover leaves unreachable vertices unburned")
    if claimed > M:
        raise CoverageError(
            f"cover does not burn the graph within its budget ({claimed} > {M})"
        )
    sources = np.asarray(sources, dtype=np.int32)
    done = _completion(_times_raw(g, sources))
    if done != claimed:
        raise InternalContradictionError(
            f"constructed schedule burns by round {done}, not {claimed}"
        )
    return BurnSchedule(g.ids_of(sources), claimed)


def _schedule_sequential(g: LabeledGraph, center_idx: list[int], M: int):
    """Index sources and completion round (inf if never) of the construction.

    One kernel run over all centers seeds every vertex's first-burn round.
    The rounds are then walked in order, and the seeded rounds stay exact:
    a center already burned at its round adds nothing, because the fire
    that reached it dominates its ball, and each replacement or filler is
    ignited by `improve`, which relaxes only the vertices it burns sooner.
    A center is burned at its round j iff its round or a neighbour's is
    below j; rounds below j depend only on the sources ignited before
    round j, and only `improve` changes them.  So one gather (g.closed_min)
    reads the rounds around every open center, walked as plain ints up to
    the first center burned before its round, and they are read again only
    after its replacement; a path forest or spider needs no CSR arrays here.
    """
    neighbors = g.neighbors
    n = g.order
    # Marks the vertices that never burn.  It lies above every round: the
    # seeded rounds are at most len(center_idx) + n - 1, and every later
    # ignition is of a distinct vertex, so none comes after round n.
    never = n + len(center_idx) + 1
    times = _times_raw(g, np.asarray(center_idx, dtype=np.int32))
    times[times < 0] = never
    # Histogram of burn times so the running maximum is O(1) to maintain
    # while ignitions improve individual vertices.
    bins = np.bincount(times, minlength=never + 1)
    cur_max = int(times.max())

    def improve(w: int, t0: int):
        nonlocal cur_max
        bins[times[w]] -= 1
        times[w] = t0
        bins[t0] += 1
        frontier = [w]
        t = t0
        while frontier:
            t += 1
            nxt = []
            for u in frontier:
                for v in neighbors(u):
                    if t < times[v]:
                        bins[times[v]] -= 1
                        bins[t] += 1
                        times[v] = t
                        nxt.append(int(v))
            frontier = nxt
        while bins[cur_max] == 0:
            cur_max -= 1

    canon = g.canonical_order()
    sources = center_idx[:1]  # nothing burns before round 1
    unburned = 0  # every vertex before canon[unburned] has burned by round t
    t = 1
    while t < min(len(center_idx), cur_max):  # the graph burns by round cur_max
        lows = g.closed_min(times, center_idx[t:cur_max])
        late = next((j for j, low in enumerate(lows, t + 1) if low < j), None)
        if late is None:
            sources += center_idx[t:cur_max]
            t += len(lows)
            break
        sources += center_idx[t:late - 1]
        t = late
        if cur_max <= t:  # the spread of round t burned the graph
            break
        step = 64  # the smallest vertex unburned after round t, read in chunks
        while not (hits := np.flatnonzero(times[canon[unburned:unburned + step]] > t)).size:
            unburned, step = unburned + step, 2 * step
        unburned += int(hits[0])
        c = int(canon[unburned])
        improve(c, t)
        sources.append(c)

    # A vertex unburned at the start of round t is no source yet, so the
    # scan for a filler stops before the end of canon.
    visited = set(sources)
    ptr = 0
    while cur_max > t and len(sources) < M:
        t += 1
        while int(canon[ptr]) in visited:
            ptr += 1
        w = int(canon[ptr])
        ptr += 1
        visited.add(w)
        sources.append(w)
        if times[w] > t:
            improve(w, t)
    return sources, math.inf if cur_max == never else cur_max
