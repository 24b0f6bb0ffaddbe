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

SegmentBurn holds the same burn without the n-vertex result: the cones
of the sources, plus the head's, are points on their segments, and one
sweep over those points alone answers the schedule construction's
queries (completion, the least round around given vertices, the first
vertex unburned after a round) in O(k log k).

Which runs when: the simulator and schedule_from_cover's final check
(burning._times_raw) burn path forests and spiders (model.SegmentGraph)
of order at least burning._CLOSED_FORM_MIN_ORDER (64) through the closed
form, whose fixed numpy cost the BFS undercuts on smaller ones, and the
schedule construction reads SegmentBurn on them, so it runs one kernel
per schedule there.  Edge-list graphs (model.LabeledGraph), smaller path
forests and spiders, and the exact solvers' distance rows go through the
BFS, and the construction on them reads the BFS's rounds, one run per
pass; only then does a path forest or spider build CSR arrays, by packing
its arithmetic neighbour rows.

The kernels and SegmentBurn take the sources as a sequence of integer
vertex indices and raise InstanceError on anything else (floats, strings,
bools) and on an index outside [0, n).
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


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D integer array, ascending: np.unique's result.

    One sort and a mask of the entries unequal to their left neighbour.
    Since numpy 2.3 np.unique finds integers through a hash table and then
    sorts what it found, which on an edge-list graph's arc codes costs many
    times this one sort; the numpy 1.24 floor sorts, as here.  Every
    deduplication in burnkit goes through this helper, so it costs the same
    on every supported numpy.
    """
    out = np.sort(values)
    keep = np.empty(out.size, dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def burn_times_csr(indptr, indices, sources) -> np.ndarray:
    """First-burn rounds on the CSR graph (indptr, indices).

    Round t first spreads fire from every vertex burned at round t-1, then
    ignites sources[t-1] if it exists and is still unburned.  Returns an
    int32 array of first-burn rounds, -1 for never burned.  The BFS runs on
    Python lists, reading each burning vertex's row as one slice of
    indices; numpy arrays are converted first, and lists are used as given,
    so a caller burning one graph many times converts its arrays once.
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
            for v in idx[ip[u]:ip[u + 1]]:
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


def _place_sources(lengths, hub: bool, sources, offsets):
    """The sources on a path forest or spider laid out as in burn_times_segments.

    Returns (n, inf, seg, pos, rounds, head): the order; a round above
    every reachable one; the segment, position in it and round of each
    source off the hub, in ignition order (a searchsorted over offsets);
    and the hub's round, inf on a path forest or with no source.
    InstanceError for sources that are not vertex indices.
    """
    n = int(offsets[-1] + lengths[-1])
    src = _source_array(sources)
    k = src.size
    if k:
        _check_range(src.min(), src.max(), n)
    src = src.astype(np.intp, copy=False)
    inf = n + k + 1  # above every reachable round, which is at most k + n - 1
    rounds = np.arange(1, k + 1)
    seg = offsets.searchsorted(src, "right") - 1  # -1 for the hub
    on_seg = seg >= 0
    at_seg, at_round = seg[on_seg], rounds[on_seg]
    at_pos = src[on_seg] - offsets[at_seg]
    head = inf
    if hub:
        # the head burns at its own ignition or when the first arm fire
        # arrives: source i, at position p of an arm, reaches it in
        # round i + p + 1
        head = int(min(rounds[~on_seg].min(initial=inf), (at_round + at_pos).min(initial=inf - 1) + 1))
    return n, inf, at_seg, at_pos, at_round, head


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
    n, inf, at_seg, at_pos, at_round, head = _place_sources(lengths, hub, sources, offsets)
    if not at_round.size and head == inf:  # no source
        return np.full(n, -1, dtype=np.int32)
    touched = sorted_unique(at_seg)
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


class SegmentBurn:
    """The rounds sources give a path forest or spider, kept as points, not n of them.

    Same layout and source contract as burn_times_segments.  Along a
    segment the rounds are the lower envelope of the cones i + |p - q| of
    its sources, so a few points hold them all: each source as (position,
    round), and on each segment holding a source (a touched one) two ends,
    its last vertex and before its first one the head at position -1 on
    a spider, its first vertex on a path forest.  A spider's head point
    has the head's round; the sweep gives the other ends theirs.  One
    _sweep over the points of all touched segments makes each point's
    round exact; between two neighbouring points the rounds are their two
    cones alone.  Segments without a source burn as in
    burn_times_segments.  So a state costs O(k log k) for k sources and
    answers the schedule construction's three queries without an n-long
    array: completion, closed_min and first_unburned.

    completion is the round by which the graph has burned, or never,
    which is above every round, when part of it never burns.
    """

    def __init__(self, lengths, hub: bool, sources, offsets):
        n, inf, seg, pos, rounds, head = _place_sources(lengths, hub, sources, offsets)
        touched = sorted_unique(seg)
        rank = np.arange(touched.size)
        # each point's key is its position plus its segment's rank times a
        # spacing above any round plus any position, so the sweep restarts
        # at every segment
        spacing = inf + n + 1
        start = rank * spacing  # the key of position 0 on each touched segment
        key = np.concatenate((pos + touched.searchsorted(seg) * spacing,
                              start - int(hub), start + lengths[touched] - 1))
        f = np.concatenate((rounds, np.full(touched.size, head), np.full(touched.size, inf)))
        order = key.argsort(kind="stable")
        self._key, self._f = key[order], f[order]
        _sweep(self._f, self._key)
        # the first segment without a source, or the segment count
        missing = np.flatnonzero(touched != rank)
        self._untouched = int(missing[0]) if missing.size else touched.size
        self._touched = np.append(touched, len(lengths))  # searchsorted never runs off it
        self._lengths, self._offsets, self._hub = lengths, offsets, hub
        self._n, self._spacing, self._head, self.never = n, spacing, head, inf
        # the largest round between two neighbouring points of one segment,
        # and at the end of the longest segment without a source, whose
        # position p burns at head + 1 + p, never on a path forest; the
        # head's round is below one of them
        gap = np.diff(self._key)
        done = int(((self._f[:-1] + self._f[1:] + gap)[gap <= n] // 2).max(initial=0))
        if self._untouched < len(lengths):
            done = max(done, head + int(lengths[self._untouched]))
        self.completion = min(done, inf)

    def _rounds(self, seg, pos) -> np.ndarray:
        """The rounds at positions pos (-1 for a spider's head) of segments seg."""
        out = np.minimum(self._head + 1 + pos, self.never)  # where seg holds no source
        r = self._touched.searchsorted(seg)
        hit = np.flatnonzero(self._touched[r] == seg)
        if hit.size:
            key, f = self._key, self._f
            q = pos[hit] + r[hit] * self._spacing
            # the nearest points on both sides: the left one on q's segment,
            # which has a point at or before q; the right one too, but at
            # q's segment's last position, where the left one is exact
            left = key.searchsorted(q, "right") - 1
            right = np.minimum(left + 1, key.size - 1)
            out[hit] = np.minimum(f[left] + q - key[left], f[right] + key[right] - q)
        return out

    def closed_min(self, centers: list[int]) -> list[int]:
        """Least round over each center and its neighbours."""
        c = np.asarray(centers, dtype=np.intp)
        seg = self._offsets.searchsorted(c, "right") - 1  # -1 for the hub
        on_seg = seg >= 0
        seg = np.maximum(seg, 0)
        pos = c - self._offsets[seg]
        # previous vertex (on a spider the head before an arm start), the
        # center and the next vertex, each the center again where it has none
        near = np.concatenate((np.maximum(pos - 1, -int(self._hub)), pos,
                               np.minimum(pos + 1, self._lengths[seg] - 1)))
        low = self._rounds(np.tile(seg, 3), near).reshape(3, -1).min(axis=0)
        if not on_seg.all():  # the hub's row is every arm start: untouched ones burn after it
            starts = self._rounds(self._touched[:-1], np.zeros(self._touched.size - 1, np.intp))
            low[~on_seg] = starts.min(initial=self._head)
        return low.tolist()

    def first_unburned(self, L: int) -> int:
        """The first vertex in canonical order that is unburned after round L.

        Some vertex must be.  Between two neighbouring points a, b of a
        segment the unburned positions are those beyond a's reach,
        p > p_a + L - f_a, and short of b's, p < p_b - L + f_b; the first
        pair with one gives the touched segments' first, and a segment
        without a source its own, by arithmetic.  Index order is canonical
        order but for a spider's head, which comes last.
        """
        key, f, spacing = self._key, self._f, self._spacing
        a, fa = key[:-1], f[:-1]
        start = (a + 1) // spacing * spacing  # the key of position 0 on a's segment
        first = np.maximum(np.maximum(a, start), a + L - fa + 1)
        open_ = np.flatnonzero((first <= key[1:] + f[1:] - L - 1) & (key[1:] - a <= self._n))
        best = self._n
        if open_.size:
            i = open_[0]
            best = int(self._offsets[self._touched[(a[i] + 1) // spacing]] + first[i] - start[i])
        u = self._untouched
        if u < len(self._lengths):
            # past the positions the head's fire has burned (none on a path
            # forest); if that is all of u, it is all of every later, shorter
            # segment too, and an unburned vertex comes before u
            best = min(best, int(self._offsets[u]) + max(L - self._head, 0))
        return best if best < self._n else 0  # only the head is left
