"""Burn kernels: first-burn rounds for a sequence of ignitions.

burn_times_csr runs the staggered multi-source BFS on any CSR graph.

burn_times_segments serves path forests and spiders.  There every vertex
burns at min_i (i + d(s_i, v)) and distances are arithmetic, so it is a
closed form in numpy: the 1-D L1 distance transform (Felzenszwalb &
Huttenlocher, "Distance transforms of sampled functions", 2012) run over
each segment, plus a hub term for spiders.

Which runs when: the simulator and the schedule construction
(burning._times_raw) burn path forests and spiders of order at least
burning._CLOSED_FORM_MIN_ORDER (64) through the closed form, whose fixed
numpy cost the BFS undercuts on smaller ones.  Edge-list graphs, smaller
path forests and spiders, and the exact solvers' distance rows go
through the BFS.
"""

import numpy as np

from .errors import InstanceError

# Name of the CSR kernel, recorded in benchmark stamps.
KERNEL_NAME = "python"


def burn_times_csr(indptr, indices, sources) -> np.ndarray:
    """First-burn rounds on the CSR graph (indptr, indices).

    Round t first spreads fire from every vertex burned at round t-1, then
    ignites sources[t-1] if it exists and is still unburned.  Returns an
    int32 array of first-burn rounds, -1 for never burned.  A source
    index outside [0, n) raises InstanceError.  Lists are used as given,
    so a caller burning one graph many times converts its arrays once.
    """
    ip = indptr.tolist() if isinstance(indptr, np.ndarray) else indptr
    idx = indices.tolist() if isinstance(indices, np.ndarray) else indices
    src = sources.tolist() if isinstance(sources, np.ndarray) else list(sources)
    n = len(ip) - 1
    k = len(src)
    if k and (min(src) < 0 or max(src) >= n):
        raise InstanceError(f"source index out of range for {n} vertices")
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


def burn_times_segments(lengths, hub: bool, sources) -> np.ndarray:
    """First-burn rounds on a path forest (hub=False) or spider (hub=True).

    Indices follow model.SegmentVertices: the hub, if any, is index 0, then
    the segments of the given lengths lie contiguously, each ordered away
    from the hub.  Same contract as burn_times_csr on that graph: sources[i]
    is ignited in round i+1 (a no-op if already burned), and the result is
    an int32 array of first-burn rounds, -1 for never burned.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    base = int(hub)
    n = base + int(lens.sum())
    k = src.size
    if k and (int(src.min()) < 0 or int(src.max()) >= n):
        raise InstanceError(f"source index out of range for {n} vertices")
    inf = n + k + 1  # above every reachable round, which is at most k + n - 1
    first = np.full(n, inf, dtype=np.int64)
    # ignition round of each source; a repeated one counts from its first
    np.minimum.at(first, src, np.arange(1, k + 1))

    f = first[base:]
    size = f.size
    # Position within the segment, 0 nearest the hub (on a spider arm that
    # is the distance to the head minus one) ...
    pos = np.arange(size, dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens)
    # ... plus s * (inf + size) on segment s, so that each running minimum
    # below restarts at its segment: every value of a segment beats all
    # values carried over from the segments swept before it.
    w = pos + np.repeat(np.arange(lens.size, dtype=np.int64) * (inf + size), lens)
    down = np.minimum.accumulate(f - w) + w
    up = np.minimum.accumulate((f + w)[::-1])[::-1] - w
    times = np.minimum(down, up)
    if hub:
        head = min(int(first[0]), int((f + pos).min()) + 1)
        times = np.concatenate(([head], np.minimum(times, head + 1 + pos)))
    times[times >= inf] = -1
    return times.astype(np.int32)
