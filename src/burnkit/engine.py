"""Burn kernels: first-burn rounds for a sequence of ignitions.

burn_times_csr runs the staggered multi-source BFS on any CSR graph.

burn_times_segments serves path forests and spiders.  There every vertex
burns at min_i (i + d(s_i, v)) and distances are arithmetic, so it is a
closed form in numpy: the 1-D L1 distance transform (Felzenszwalb &
Huttenlocher, "Distance transforms of sampled functions", 2012) run over
each segment that holds a source, plus a hub term for spiders.  A segment
without a source takes arithmetic alone: a spider arm burns at the head's
round plus its distance from the head, and a path component never burns.
So a call costs O(k log k + touched vertices) for k sources, plus one fill
of the n-vertex result.  It needs no adjacency arrays, only each vertex's
segment and position (segment_layout), which a graph computes once and
passes to every call.

Which runs when: the simulator and the schedule construction
(burning._times_raw) burn path forests and spiders of order at least
burning._CLOSED_FORM_MIN_ORDER (40) through the closed form, whose fixed
numpy cost the BFS undercuts on smaller ones.  Edge-list graphs, smaller
path forests and spiders, and the exact solvers' distance rows go
through the BFS; only then does a path forest or spider build CSR
arrays, by packing its arithmetic neighbour rows.

Both kernels take the sources as a sequence of integer vertex indices and
raise InstanceError on anything else (floats, strings, bools) and on an
index outside [0, n).
"""

import numpy as np

from .errors import InstanceError

# Name of the CSR kernel, recorded in benchmark stamps.
KERNEL_NAME = "python"


# The closed form gathers the segments holding a source when they hold at
# most this share of the vertices, and sweeps the whole layout in place
# past it, where gathering and scattering cost more than skipping the
# untouched vertices saves.  Measured crossover at order 2e5 with 450
# sources (2 cores, Python 3.11, numpy 2.4): a share of 0.5-0.6 on 400
# components of 500 and on a spider of 40 arms of 5000.
_GATHER_MAX_SHARE = 0.5


def _source_array(sources) -> np.ndarray:
    """sources as a 1-D integer array; InstanceError for anything else."""
    try:
        src = np.asarray(sources)  # ValueError when the entries are ragged
        if src.size == 0:
            return np.empty(0, dtype=np.int64)
        if src.ndim != 1 or src.dtype.kind not in "iu":
            raise ValueError
    except ValueError:
        raise InstanceError("sources must be a sequence of integer vertex indices") from None
    return src


def _check_range(lowest: int, highest: int, n: int) -> None:
    if lowest < 0 or highest >= n:
        raise InstanceError(f"source index out of range for {n} vertices")


def burn_times_csr(indptr, indices, sources) -> np.ndarray:
    """First-burn rounds on the CSR graph (indptr, indices).

    Round t first spreads fire from every vertex burned at round t-1, then
    ignites sources[t-1] if it exists and is still unburned.  Returns an
    int32 array of first-burn rounds, -1 for never burned.  Lists are used
    as given, so a caller burning one graph many times converts its arrays
    once.
    """
    ip = indptr.tolist() if isinstance(indptr, np.ndarray) else indptr
    idx = indices.tolist() if isinstance(indices, np.ndarray) else indices
    n = len(ip) - 1
    src = _source_array(sources).tolist()
    k = len(src)
    if k:
        _check_range(min(src), max(src), n)
    times = [-1] * n
    cur: list[int] = []
    t = 0
    while cur or t < k:
        t += 1
        nxt: list[int] = []
        for u in cur:
            for i in range(ip[u], ip[u + 1]):
                v = idx[i]
                if times[v] < 0:
                    times[v] = t
                    nxt.append(v)
        if t <= k:
            s = src[t - 1]
            if times[s] < 0:
                times[s] = t
                nxt.append(s)
        cur = nxt
    return np.asarray(times, dtype=np.int32)


def segment_layout(lengths) -> tuple[np.ndarray, np.ndarray]:
    """(pos, seg) int32 arrays over the segment vertices, in index order.

    seg is the index of the vertex's segment and pos its position within
    it, 0 nearest the hub (on a spider arm that is the distance to the
    head minus one).  The hub itself has no entry.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    seg = np.repeat(np.arange(lens.size, dtype=np.int32), lens)
    pos = np.arange(seg.size, dtype=np.int32)
    pos -= np.repeat((np.cumsum(lens) - lens).astype(np.int32), lens)
    return pos, seg


def _sweep(f: np.ndarray, w: np.ndarray) -> None:
    """f[v] = min of f[u] + |w[v] - w[u]| over u in v's segment, in place.

    w is each vertex's position in its segment plus the segment's rank in
    f times a spacing above f's largest value plus any segment's length, so
    each running minimum below restarts at its segment: the first value of
    a segment beats all values carried over from the segments before it.
    The sweep's scratch arrays are as long as f.
    """
    up = f + w
    np.minimum.accumulate(up[::-1], out=up[::-1])
    up -= w
    f -= w
    np.minimum.accumulate(f, out=f)
    f += w
    np.minimum(f, up, out=f)


def burn_times_segments(lengths, hub: bool, sources, layout) -> np.ndarray:
    """First-burn rounds on a path forest (hub=False) or spider (hub=True).

    Indices follow model.SegmentVertices: the hub, if any, is index 0, then
    the segments of the given lengths (an integer array) lie contiguously,
    each ordered away from the hub.  Same contract as burn_times_csr on that
    graph: sources[i] is ignited in round i+1 (a no-op if already burned),
    and the result is a fresh int32 array of first-burn rounds, -1 for never
    burned.  layout is segment_layout(lengths), which a graph computes once
    and keeps (SegmentVertices.layout).

    Only the segments holding a source (the touched ones) need the sweep:
    a spider arm without one burns at head + 1 + position, the head's round
    following from the sources alone, and a path component without one
    never burns.  So the sweep runs over the touched segments' vertices,
    gathered into one array and scattered back, and the other vertices
    take one fill of n: O(k log k + touched vertices) plus the fill.  When
    the touched segments hold more than _GATHER_MAX_SHARE of the vertices,
    the sweep runs over the whole layout in place instead.

    Values stay below (swept segments) * (n + k + 1 + swept vertices), so
    the sweep runs in int32 when that fits.  At order 2e5, int64 takes
    some 5,400 segments when the whole layout is swept, and some 9,800
    touched ones when they are gathered (at most k are), so it comes only
    on instances with thousands of segments: when the touched ones hold
    most of the vertices, or themselves number in the thousands.
    """
    pos, seg = layout
    base = int(hub)
    size = pos.size
    n = base + size
    src = _source_array(sources)
    k = src.size
    if not k:
        return np.full(n, -1, dtype=np.int32)
    _check_range(src.min(), src.max(), n)
    inf = n + k + 1  # above every reachable round, which is at most k + n - 1
    rounds = np.arange(1, k + 1)
    on_seg = src >= base
    at = src[on_seg].astype(np.intp) - base  # layout index of each source on a segment
    at_round = rounds[on_seg]
    if hub:
        # the head burns at its own ignition or when the first arm fire
        # arrives: source i, at position p of an arm, reaches it in
        # round i + p + 1
        head = int(min(rounds[~on_seg].min(initial=inf), (at_round + pos[at]).min(initial=inf) + 1))
    touched, lead, rank = np.unique(seg[at], return_index=True, return_inverse=True)
    lens = np.asarray(lengths)[touched]
    total = int(lens.sum())

    if total > _GATHER_MAX_SHARE * size:
        # every value below stays under segments * (inf + size): int32 if that fits
        dt = np.int32 if len(lengths) * (inf + size) < 2**31 else np.int64
        times = np.full(n, inf, dtype=dt)
        f = times[base:]  # a view, so the sweep runs in place
        np.minimum.at(f, at, at_round.astype(dt))  # a repeated source counts from its first
        w = np.multiply(seg, inf + size, dtype=dt)
        w += pos
        _sweep(f, w)
        if hub:
            times[0] = head
            np.minimum(f, np.add(pos, head + 1, out=w, dtype=dt), out=f)
        if times.max() >= inf:
            times[times >= inf] = -1
        return times.astype(np.int32, copy=False)

    # touched segment j lies at starts[j] in the gathered order and begins
    # at its lead source's layout index less that source's position
    starts = np.cumsum(lens) - lens
    gather = np.arange(total) + np.repeat(at[lead] - pos[at[lead]] - starts, lens)
    spacing = inf + total  # every value below stays under touched * spacing
    dt = np.int32 if touched.size * spacing < 2**31 else np.int64
    f = np.full(total, inf, dtype=dt)
    np.minimum.at(f, starts[rank] + pos[at], at_round.astype(dt))
    w = np.arange(total, dtype=dt)
    w += np.repeat((np.arange(touched.size) * spacing - starts).astype(dt), lens)
    _sweep(f, w)
    times = np.empty(n, dtype=np.int32)
    if hub:
        times[0] = head
        np.add(pos, head + 1, out=times[1:])
        np.minimum(f, times[1:][gather], out=f)
    else:
        times.fill(-1)
    times[base:][gather] = f
    return times
