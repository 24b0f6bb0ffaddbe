"""Burning-process simulation and schedule/cover conversions.

The central fact the conversions rely on: a schedule s_1, ..., s_k gives
every vertex v the first-burn time min_i (i + d(s_i, v)).  Consequently a
graph burns by round M exactly when it admits a cover by closed balls
N_{r_i}[v_i] whose sorted non-increasing radii satisfy r_(i) <= M - i:
igniting the centers largest-radius-first realizes the cover as a schedule,
and conversely the balls N_{T-i}[s_i] of a T-round schedule cover the graph.
schedule_from_cover meets ids only at its boundary, one bulk conversion
each way.  The path-forest and spider constructions do not meet them
before the end: they hand their centers over as (segment, position)
columns, which become indices in one pass (_cover_and_schedule), and the
ids of the cover and of the schedule are built together, in one ids_of.
In between, _schedule_indices places all of its sources, centers and
fillers, at once, and reads their burn from a burn state, built again
only after replacing a center that was already burned at its round.
On path forests and spiders from _CLOSED_FORM_MIN_ORDER up that state is
built from the sources alone (engine.SegmentBurn), so the one kernel run
per schedule is the final check; elsewhere each state is one kernel run.
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
from .model import BudgetedCover, BurnSchedule, Graph, SegmentGraph, VertexId

# Path forests and spiders of at least this order burn through the closed
# form; below it the BFS is faster, because the closed form has a fixed
# numpy cost of some 40 us a call.  A graph packs its neighbour rows into
# CSR arrays only to take the BFS.  Measured crossover of graph build plus
# seed and verify burns, BFS on the packed CSR against the closed form,
# median of 30 random shapes per order, three seeds (2 cores, Python 3.11,
# numpy 2.4): order 57-66 on path forests, 78-84 on spiders.  The same
# order gates the schedule construction's burn state (_schedule_sequential),
# as engine.SegmentBurn has a fixed numpy cost too: with it on every path
# forest and spider, perfbench's exact_small (spiders of order <= 22, path
# forests of order <= 18) fell from 401-434 to 207-231 ops a second, two
# 8 s runs each (2 cores, Python 3.11.7, numpy 2.4.6).
_CLOSED_FORM_MIN_ORDER = 64


def _source_indices(g: Graph, sources) -> np.ndarray:
    idx = g.indices_of(sources)
    if len(set(idx)) != len(idx):
        raise InstanceError("sources must be pairwise distinct")
    return np.asarray(idx, dtype=np.int32)


def _closed_form(g: Graph) -> bool:
    """Whether g is a SegmentGraph (path forest or spider) of order
    _CLOSED_FORM_MIN_ORDER and up, which burns through the closed form."""
    return isinstance(g, SegmentGraph) and g.order >= _CLOSED_FORM_MIN_ORDER


def _times_raw(g: Graph, source_idx: np.ndarray) -> np.ndarray:
    """First-burn rounds by index: the closed form where _closed_form holds, else the BFS."""
    if _closed_form(g):
        return engine.burn_times_segments(g.lengths, g.hub, source_idx, g.offsets, g.depth())
    indptr, indices = g.csr()
    return engine.burn_times_csr(indptr, indices, source_idx)


def _completion(times: np.ndarray) -> int | float:
    if times.size == 0:
        return 0
    if times.min() < 0:
        return math.inf
    return int(times.max())


def simulate(g: Graph, sources) -> tuple[dict, int | float]:
    """Run the burning process; return ({vertex: first burn round}, completion).

    Unburned vertices are absent from the map and force completion = inf.
    Spreading continues after the source list is exhausted.
    """
    times = _times_raw(g, _source_indices(g, sources))
    burn_time = {v: t for v, t in zip(g.vertices, times.tolist()) if t >= 0}
    return burn_time, _completion(times)


def completion(g: Graph, sources) -> int | float:
    """The round by which the sources burn all of g (inf if never).

    simulate's second value, without its {vertex: round} map.
    """
    return _completion(_times_raw(g, _source_indices(g, sources)))


def verify_schedule(g: Graph, schedule: BurnSchedule) -> bool:
    """True iff the schedule burns every vertex of g by round claimed_time."""
    return completion(g, schedule.sources) <= schedule.claimed_time


def cover_from_schedule(g: Graph, schedule: BurnSchedule) -> BudgetedCover:
    """Balls N_{T-i}[s_i] of a verified T-round schedule, as a budget-T cover."""
    if not verify_schedule(g, schedule):
        raise VerificationError("schedule does not burn the graph by its claimed time")
    T = schedule.claimed_time
    pairs = tuple((v, T - i) for i, v in enumerate(schedule.sources, start=1))
    return BudgetedCover(pairs, T)


def schedule_from_cover(g: Graph, cover: BudgetedCover) -> BurnSchedule:
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
    sources, claimed = _schedule_indices(g, g.indices_of(centers), cover.budget)
    return BurnSchedule(g.ids_of(sources), claimed)


def _schedule_indices(g: Graph, center_idx: list[int], M: int) -> tuple[np.ndarray, int]:
    """schedule_from_cover on center indices already in its ignition order.

    Returns the schedule's source indices and its round count, after the
    same coverage errors and the same re-simulation.
    """
    sources, claimed = _schedule_sequential(g, center_idx, M)
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
    return sources, claimed


def _cover_and_schedule(
    g: SegmentGraph, segments, positions, radii, M: int
) -> tuple[BudgetedCover, BurnSchedule]:
    """The cover a construction built as columns, and its verified schedule.

    Pair i is the radius radii[i] ball around the vertex at (segments[i],
    positions[i]) (SegmentGraph.indices_at).  The centers are scheduled
    as indices, in schedule_from_cover's order; the ids of the cover, in
    construction order, and of the schedule come from one ids_of pass at
    the end.  So BudgetedCover checks the cover in full (slack and
    distinct pairs) after the schedule is built: a cover that fails it
    raises there, if not already as a CoverageError.
    """
    idx = g.indices_at(segments, positions)
    order = sorted(range(len(idx)), key=radii.__getitem__, reverse=True)
    sources, claimed = _schedule_indices(g, [idx[i] for i in order], M)
    ids = g.ids_of(np.array(idx + sources.tolist()))  # np.concatenate costs more on a few
    k = len(idx)
    return BudgetedCover(tuple(zip(ids[:k], radii)), M), BurnSchedule(ids[k:], claimed)


class _KernelBurn:
    """The breadth-first kernel's rounds under the queries of engine.SegmentBurn.

    The construction's burn state below _CLOSED_FORM_MIN_ORDER and on
    edge-list graphs.  It burns once, on the CSR arrays as Python lists,
    and reads the rounds (never where unburned) as a list against the rows
    and the canonical order: a numpy gather per center costs more than the
    whole read (14 against 2 us for five centers on a spider of order 21;
    2 cores, Python 3.11.7, numpy 2.4.6).
    """

    never = np.iinfo(np.int32).max  # above every round

    def __init__(self, g: Graph, sources: list[int]):
        self._g = g
        indptr, indices = g.csr()
        self._indptr, self._indices = ip, ix = indptr.tolist(), indices.tolist()
        times, never = engine.burn_times_csr(ip, ix, sources).tolist(), self.never
        self._times = [never if t < 0 else t for t in times]
        self.completion = max(self._times)

    def closed_min(self, centers: list[int]) -> list[int]:
        """Least round over each center and its CSR row."""
        ip, ix, times = self._indptr, self._indices, self._times
        out = []
        for c in centers:
            low = times[c]
            for v in ix[ip[c]:ip[c + 1]]:
                if times[v] < low:
                    low = times[v]
            out.append(low)
        return out

    def first_unburned(self, L: int) -> int:
        """The first vertex in canonical order unburned after round L; some vertex must be."""
        times = self._times
        return next(v for v in self._g.canonical_prefix(self._g.order) if times[v] > L)


def _schedule_sequential(g: Graph, center_idx: list[int], M: int):
    """Index sources and completion round (inf if never) of the construction.

    Each pass burns the centers as replaced so far, followed by the fillers
    (the smallest vertices in canonical order that are no center, up to M
    sources in all), into a burn state with three queries: completion,
    closed_min and first_unburned, which the state answers, not the
    graph.  Where _closed_form holds it is an engine.SegmentBurn, built
    from the sources alone with nothing n-long, so the construction runs
    no kernel; elsewhere it is one run of the breadth-first kernel, whose
    rounds it reads against the CSR rows (_KernelBurn).  The fillers are
    g.canonical_prefix, by index arithmetic on a SegmentGraph.  A center
    is burned at its round j iff its round or a neighbour's is below j,
    and rounds below j depend only on the sources of earlier rounds, so
    one closed_min finds the first center burned at its round.  It adds
    nothing to the fire, and the rounds up to its own are exact; it is
    replaced by the first vertex in canonical order still unburned after
    that round's spread, and the next pass builds its state again and
    reads on from there.  Without such a center the sources are cut at
    the completion round.
    """
    k = len(center_idx)
    fillers = g.canonical_prefix(M)  # at most k of these are centers
    closed = _closed_form(g)
    sources = list(center_idx)
    fixed = 1  # the sources of rounds up to this one stand; none burns before round 1
    while True:
        taken = set(sources[:k])
        sources[k:] = [v for v in fillers if v not in taken][:M - k]
        if closed:
            state = engine.SegmentBurn(g.lengths, g.hub, sources, g.offsets)
        else:
            state = _KernelBurn(g, sources)
        done = state.completion
        lows = state.closed_min(sources[fixed:min(k, done)])
        late = next((j for j, low in enumerate(lows, fixed + 1) if low < j), None)
        if late is None:
            return sources[:done], math.inf if done == state.never else done
        if done == late:  # the spread of that round burned the graph
            return sources[:late - 1], late
        sources[late - 1] = state.first_unburned(late)
        fixed = late
