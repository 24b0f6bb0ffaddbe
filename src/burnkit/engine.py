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
of the n-vertex result.  It needs no adjacency arrays, only the offset
of each segment and, on a spider, each arm vertex's depth (arm_depth,
built from the runs of equal arm lengths), which the graph computes on
its first burn and passes to every call; a path forest needs nothing per
vertex.

Which runs when: the simulator and the schedule construction
(burning._times_raw) burn path forests and spiders (model.SegmentGraph)
of order at least burning._CLOSED_FORM_MIN_ORDER (64) through the closed
form, whose fixed numpy cost the BFS undercuts on smaller ones.
Edge-list graphs (model.LabeledGraph), smaller path forests and spiders,
and the exact solvers' distance rows go through the BFS; only then does
a path forest or spider build CSR arrays, by packing its arithmetic
neighbour rows.

Both kernels take the sources as a sequence of integer vertex indices and
raise InstanceError on anything else (floats, strings, bools) and on an
index outside [0, n).
"""

import numpy as np

from .errors import InstanceError

# Name of the CSR kernel, recorded in benchmark stamps.
KERNEL_NAME = "python"


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


def arm_depth(runs) -> np.ndarray:
    """Each arm vertex's position along its arm, 0 next to the head (int32).

    The arms are given as (length, count) runs, count arms of that length
    in a row, in index order; the head has no entry.  Each run is one
    broadcast of arange(length) into a (count, length) view, so the work
    is one pass over the vertices plus a few numpy calls per run, never
    per arm.  A spider graph computes it once (model.SegmentGraph.depth),
    for the arms that hold no source.
    """
    depth = np.empty(sum(length * count for length, count in runs), dtype=np.int32)
    ramp = np.arange(max(length for length, _ in runs), dtype=np.int32)
    at = 0
    for length, count in runs:
        depth[at:at + length * count].reshape(count, length)[:] = ramp[:length]
        at += length * count
    return depth


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


def burn_times_segments(lengths, hub: bool, sources, offsets, depth) -> np.ndarray:
    """First-burn rounds on a path forest (hub=False) or spider (hub=True).

    Indices follow model.SegmentGraph: the hub, if any, is index 0, then
    the segments of the given lengths (an integer array) lie contiguously,
    each ordered away from the hub, segment s from index offsets[s].  Same
    contract as burn_times_csr on that graph: sources[i] is ignited in
    round i+1 (a no-op if already burned), and the result is a fresh int32
    array of first-burn rounds, -1 for never burned.  On a spider depth is
    arm_depth over the runs of equal lengths, which the graph computes
    once and keeps (SegmentGraph.depth); a path forest passes None.

    Only the segments holding a source (the touched ones) need the sweep:
    a spider arm without one burns at head + 1 + depth, the head's round
    following from the sources alone, and a path component without one
    never burns.  A source's segment is a searchsorted over offsets.  The
    touched segments' vertices are gathered into one array, each swept arm
    starting from head + 1 at its first slot, and scattered back into one
    fill of n: O(k log k + touched vertices) plus the fill.  When every
    segment is touched the gathered order is the index order, so the sweep
    runs in the result itself.

    Values stay below touched * (n + k + 1 + swept vertices), so the sweep
    runs in int32 when that fits.  At order 2e5 int64 takes some 5,400
    touched segments when they hold every vertex, and some 9,800 when they
    hold few, so it comes only on instances with thousands of segments,
    most or all of them holding a source.
    """
    base = int(hub)
    n = int(offsets[-1] + lengths[-1])
    src = _source_array(sources)
    k = src.size
    if not k:
        return np.full(n, -1, dtype=np.int32)
    _check_range(src.min(), src.max(), n)
    src = src.astype(np.intp, copy=False)
    inf = n + k + 1  # above every reachable round, which is at most k + n - 1
    rounds = np.arange(1, k + 1)
    seg = offsets.searchsorted(src, "right") - 1  # -1 for the hub
    on_seg = seg >= 0
    at_seg, at_round = seg[on_seg], rounds[on_seg]
    at_pos = src[on_seg] - offsets[at_seg]  # each source's position in its segment
    if hub:
        # the head burns at its own ignition or when the first arm fire
        # arrives: source i, at position p of an arm, reaches it in
        # round i + p + 1
        head = int(min(rounds[~on_seg].min(initial=inf), (at_round + at_pos).min(initial=inf) + 1))
    touched = np.unique(at_seg)
    rank = touched.searchsorted(at_seg)
    every = touched.size == len(lengths)
    lens = lengths if every else lengths[touched]
    starts = np.cumsum(lens) - lens  # where each touched segment starts in the gathered order
    total = int(lens.sum())
    spacing = inf + total  # every value below stays under touched * spacing
    dt = np.int32 if touched.size * spacing < 2**31 else np.int64
    if every:
        times = np.full(n, inf, dtype=dt)
        f = times[base:]  # a view, so the sweep runs in place
    else:
        times = np.empty(n, dtype=np.int32)
        if hub:
            np.add(depth, head + 1, out=times[1:])
        else:
            times.fill(-1)
        f = np.full(total, inf, dtype=dt)
    if hub:
        times[0] = head
        f[starts] = head + 1
    # a repeated source counts from its first ignition
    np.minimum.at(f, starts[rank] + at_pos, at_round.astype(dt))
    w = np.arange(total, dtype=dt)
    w += np.repeat((np.arange(touched.size) * spacing - starts).astype(dt), lens)
    _sweep(f, w)
    if not every:
        times[np.repeat(offsets[touched] - starts, lens) + np.arange(total)] = f
    return times.astype(np.int32, copy=False)
