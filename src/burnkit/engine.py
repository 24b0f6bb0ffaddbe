"""Burn kernels: first-burn rounds for a sequence of ignitions.

burn_times_csr runs the staggered multi-source BFS on any CSR graph.

burn_times_segments serves path forests and spiders.  There every vertex
burns at min_i (i + d(s_i, v)) and distances are arithmetic, so it is a
closed form in numpy: the 1-D L1 distance transform (Felzenszwalb &
Huttenlocher, "Distance transforms of sampled functions", 2012) run over
each segment, plus a hub term for spiders.  It needs no adjacency arrays,
only each vertex's segment and position (segment_layout), which a graph
computes once and passes to every call.

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


def burn_times_segments(lengths, hub: bool, sources, layout) -> np.ndarray:
    """First-burn rounds on a path forest (hub=False) or spider (hub=True).

    Indices follow model.SegmentVertices: the hub, if any, is index 0, then
    the segments of the given lengths lie contiguously, each ordered away
    from the hub.  Same contract as burn_times_csr on that graph: sources[i]
    is ignited in round i+1 (a no-op if already burned), and the result is
    an int32 array of first-burn rounds, -1 for never burned.  layout is
    segment_layout(lengths), which a graph computes once and keeps
    (SegmentVertices.layout).
    """
    pos, seg = layout
    base = int(hub)
    size = pos.size
    n = base + size
    src = _source_array(sources)
    k = src.size
    if k:
        _check_range(src.min(), src.max(), n)
    inf = n + k + 1  # above every reachable round, which is at most k + n - 1
    # every value below stays under segments * (inf + size): int32 if that fits
    dt = np.int32 if len(lengths) * (inf + size) < 2**31 else np.int64
    first = np.full(n, inf, dtype=dt)
    # ignition round of each source; a repeated one counts from its first
    np.minimum.at(first, src, np.arange(1, k + 1, dtype=dt))

    f = first[base:]
    # pos plus s * (inf + size) on segment s, so that each running minimum
    # below restarts at its segment: every value of a segment beats all
    # values carried over from the segments swept before it.  The spacing
    # grows with k, so it is recomputed on every call.
    w = np.multiply(seg, inf + size, dtype=dt)
    w += pos
    up = f + w
    np.minimum.accumulate(up[::-1], out=up[::-1])
    up -= w
    f -= w  # f is a view of first, so the sweeps below run in place
    np.minimum.accumulate(f, out=f)
    f += w
    np.minimum(f, up, out=f)
    if hub:
        # the head burns at its own ignition or when the first arm fire
        # arrives: source i, at position p of an arm, reaches it in
        # round i + p + 1
        on_arm = src > 0
        reach = np.arange(2, k + 2)[on_arm] + pos[src[on_arm] - 1]
        head = min(int(first[0]), int(reach.min(initial=inf)))
        first[0] = head
        np.minimum(f, np.add(pos, head + 1, out=up, dtype=dt), out=f)
    if first.max(initial=0) >= inf:
        first[first >= inf] = -1
    return first.astype(np.int32, copy=False)
