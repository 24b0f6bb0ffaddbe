"""Burning-process simulation and schedule/cover conversions.

The central fact the conversions rely on: a schedule s_1, ..., s_k gives
every vertex v the first-burn time min_i (i + d(s_i, v)).  Consequently a
graph burns by round M exactly when it admits a cover by closed balls
N_{r_i}[v_i] whose sorted non-increasing radii satisfy r_(i) <= M - i:
igniting the centers largest-radius-first realizes the cover as a schedule,
and conversely the balls N_{T-i}[s_i] of a T-round schedule cover the graph.
"""

from __future__ import annotations

import math

import numpy as np

from . import engine
from .errors import (
    CoverageError,
    InstanceError,
    InternalContradictionError,
    VerificationError,
)
from .model import BudgetedCover, BurnSchedule, LabeledGraph, VertexId

# Instances at or below this order always use the literal round-by-round
# construction; larger ones try the vectorized path first.
_SEQUENTIAL_CUTOFF = 256


def _source_indices(g: LabeledGraph, sources) -> np.ndarray:
    idx = [g.index_of(v) for v in sources]
    if len(set(idx)) != len(idx):
        raise InstanceError("sources must be pairwise distinct")
    return np.asarray(idx, dtype=np.int32)


def _times_raw(g: LabeledGraph, source_idx: np.ndarray) -> np.ndarray:
    """First-burn rounds by index: closed form on path forests and spiders."""
    segments = g.segments
    if segments is not None:
        return engine.burn_times_segments(segments.lengths, segments.hub, source_idx)
    indptr, indices = g.csr()
    return engine.burn_times_csr(indptr, indices, source_idx)


def _completion(times: np.ndarray) -> int | float:
    if times.size == 0:
        return 0
    if (times < 0).any():
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


def verify_schedule(g: LabeledGraph, schedule: BurnSchedule) -> bool:
    """True iff the schedule burns every vertex of g by round claimed_time."""
    times = _times_raw(g, _source_indices(g, schedule.sources))
    return _completion(times) <= schedule.claimed_time


def cover_from_schedule(g: LabeledGraph, schedule: BurnSchedule) -> BudgetedCover:
    """Balls N_{T-i}[s_i] of a verified T-round schedule, as a budget-T cover."""
    if not verify_schedule(g, schedule):
        raise VerificationError("schedule does not burn the graph by its claimed time")
    T = schedule.claimed_time
    pairs = tuple((v, T - i) for i, v in enumerate(schedule.sources, start=1))
    return BudgetedCover(pairs, T)


def schedule_from_cover(g: LabeledGraph, cover: BudgetedCover) -> BurnSchedule:
    """Turn a feasible cover into a verified schedule of at most budget rounds.

    Centers are ignited in non-increasing radius order (stable among ties).
    A center already burned at its round is replaced by the smallest unburned
    vertex (skipped if everything is burned).  After the centers, filler
    sources (the smallest vertex not yet in the schedule) are appended for
    every round at whose start the graph was not fully burned, until it is or
    the budget many sources are placed.  Coverage failures are detected
    through the outcome: under a covering cover the process provably
    finishes by round budget.

    The built schedule is simulated once more, independently of the
    construction, and InternalContradictionError is raised unless it
    burns the graph in exactly the rounds the construction claims.
    """
    if g.order == 0:
        raise InstanceError("cannot schedule on an empty graph")
    order = sorted(range(len(cover.pairs)), key=lambda i: -cover.pairs[i][1])
    pairs = [cover.pairs[i] for i in order]
    M = cover.budget
    center_idx = [g.index_of(v) for v, _ in pairs]

    if g.order <= _SEQUENTIAL_CUTOFF or len(set(center_idx)) != len(center_idx):
        sources, claimed = _schedule_sequential(g, center_idx, M)
    else:
        fast = _schedule_fast(g, center_idx, M)
        if fast is None:
            sources, claimed = _schedule_sequential(g, center_idx, M)
        else:
            sources, claimed = fast
    if claimed > M:
        raise CoverageError(
            f"cover does not burn the graph within its budget ({claimed} > {M})"
        )
    done = _completion(_times_raw(g, np.asarray(sources, dtype=np.int32)))
    if done != claimed:
        raise InternalContradictionError(
            f"constructed schedule burns by round {done}, not {claimed}"
        )
    return BurnSchedule(tuple(g.vertices[i] for i in sources), claimed)


def _schedule_fast(g: LabeledGraph, center_idx: list[int], M: int):
    """Vectorized construction; returns None when a center would need replacing.

    Sound because with distinct centers, a center c_j is burned at its round
    j iff one of its neighbors burned by round j-1, and times of neighbors
    at rounds <= j-1 are unaffected by sources ignited at rounds >= j; so
    one kernel run over all centers decides every replacement test.
    """
    indptr, indices = g.csr()
    k = len(center_idx)
    times = _times_raw(g, np.asarray(center_idx, np.int32))
    if (times < 0).any():
        raise CoverageError("cover leaves unreachable vertices unburned")
    for j, ci in enumerate(center_idx, start=1):
        row = indices[indptr[ci]:indptr[ci + 1]]
        if row.size and int(times[row].min()) <= j - 1:
            return None
    top = int(times.max())
    if top > M:
        raise CoverageError(
            f"cover does not burn the graph within its budget ({top} > {M})"
        )

    # Histogram of burn times so the running maximum is O(1) to maintain
    # while fillers improve individual vertices.
    bins = np.bincount(times, minlength=M + 2)
    cur_max = top

    def improve(w: int, t0: int):
        nonlocal cur_max
        frontier = [w]
        times[w] = t0
        bins[t0] += 1
        t = t0
        while frontier:
            t += 1
            nxt = []
            for u in frontier:
                for v in indices[indptr[u]:indptr[u + 1]]:
                    if t < times[v]:
                        bins[times[v]] -= 1
                        bins[t] += 1
                        times[v] = t
                        nxt.append(int(v))
            frontier = nxt
        while cur_max > 0 and bins[cur_max] == 0:
            cur_max -= 1

    sources = list(center_idx)
    visited = set(center_idx)
    canon = g.canonical_order()
    ptr = 0
    t = k
    while cur_max > t and len(sources) < M and ptr < len(canon):
        t += 1
        while ptr < len(canon) and int(canon[ptr]) in visited:
            ptr += 1
        if ptr >= len(canon):
            break
        w = int(canon[ptr])
        ptr += 1
        visited.add(w)
        sources.append(w)
        if times[w] > t:
            bins[times[w]] -= 1
            improve(w, t)
    return sources, cur_max


def _schedule_sequential(g: LabeledGraph, center_idx: list[int], M: int):
    """Literal round-by-round construction (reference semantics)."""
    indptr, indices = g.csr()
    ip = indptr.tolist()
    idx = indices.tolist()
    n = g.order
    canon = [int(i) for i in g.canonical_order()]
    times = [-1] * n
    frontier: list[int] = []
    sources: list[int] = []
    visited: set[int] = set()
    burned = 0
    completion = 0
    next_center = 0
    filler_ptr = 0
    t = 0
    while burned < n:
        t += 1
        progressed = False
        nxt: list[int] = []
        for u in frontier:
            for i in range(ip[u], ip[u + 1]):
                v = idx[i]
                if times[v] < 0:
                    times[v] = t
                    nxt.append(v)
        if nxt:
            burned += len(nxt)
            completion = t
            progressed = True
        if next_center < len(center_idx):
            c = center_idx[next_center]
            next_center += 1
            if times[c] < 0:
                pick = c
            else:
                # replacement: smallest unburned vertex, if any
                pick = next((w for w in canon if times[w] < 0), None)
            if pick is not None:
                sources.append(pick)
                visited.add(pick)
                times[pick] = t
                nxt.append(pick)
                burned += 1
                completion = t
                progressed = True
        elif len(sources) < M:
            while filler_ptr < n and canon[filler_ptr] in visited:
                filler_ptr += 1
            if filler_ptr < n:
                w = canon[filler_ptr]
                filler_ptr += 1
                sources.append(w)
                visited.add(w)
                progressed = True
                if times[w] < 0:
                    times[w] = t
                    nxt.append(w)
                    burned += 1
                    completion = t
        frontier = nxt
        if not progressed and not frontier:
            raise CoverageError("cover leaves unreachable vertices unburned")
    return sources, completion
