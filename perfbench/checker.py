"""Independent checks of burnkit's outputs.

Nothing here imports burnkit.  Each instance is rebuilt from its arm
lengths, component orders or edge list, burned by a plain multi-source BFS,
and compared with what the program returned.  The paper's bounds are
recomputed in integers with math.isqrt.  Every check returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math

import numpy as np


def ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def csr(n: int, us, vs) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency of the undirected graph with edges (us[i], vs[i])."""
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


def burn_times(indptr: np.ndarray, indices: np.ndarray, sources: list[int]) -> np.ndarray:
    """First-burn round of every vertex, -1 if never burned.

    Round t first spreads the fire from every vertex burned in round t-1 to
    its neighbours, then ignites sources[t-1] if it is still unburned.
    """
    n = indptr.size - 1
    times = np.full(n, -1, dtype=np.int64)
    frontier = np.empty(0, dtype=np.int64)
    t = 0
    while frontier.size or t < len(sources):
        t += 1
        if frontier.size:
            starts = indptr[frontier]
            deg = indptr[frontier + 1] - starts
            firsts = np.repeat(starts - np.cumsum(deg) + deg, deg)
            nbrs = indices[firsts + np.arange(int(deg.sum()))]
            frontier = np.unique(nbrs[times[nbrs] < 0])
            times[frontier] = t
        if t <= len(sources) and times[sources[t - 1]] < 0:
            times[sources[t - 1]] = t
            frontier = np.append(frontier, sources[t - 1])
    return times


def completion(times: np.ndarray) -> int | None:
    """Round by which every vertex has burned, None if one never does."""
    return None if (times < 0).any() else int(times.max())


class Segments:
    """A spider (hub=True) or path forest rebuilt from its segment lengths.

    Index 0 is the spider's head; then each arm or component occupies
    consecutive indices.  Spider ids are ("head",) and ("a", arm, pos) with
    pos counted from 1 at the head; forest ids are ("c", comp, pos) with pos
    counted from 0.
    """

    def __init__(self, lengths: tuple[int, ...], hub: bool):
        self.lengths = lengths
        self.hub = hub
        self.first = int(hub)
        self.offsets = []
        start = self.first
        us, vs = [], []
        for length in lengths:
            self.offsets.append(start)
            if hub:
                us.append(0)
                vs.append(start)
            us.extend(range(start, start + length - 1))
            vs.extend(range(start + 1, start + length))
            start += length
        self.n = start
        self.indptr, self.indices = csr(self.n, us, vs)

    def index(self, v) -> int | None:
        if self.hub and v == ("head",):
            return 0
        tag = "a" if self.hub else "c"
        if not (isinstance(v, tuple) and len(v) == 3 and v[0] == tag):
            return None
        seg, pos = v[1], v[2]
        if not 0 <= seg < len(self.lengths):
            return None
        pos -= self.first
        if not 0 <= pos < self.lengths[seg]:
            return None
        return self.offsets[seg] + pos

    def schedule(self, claimed: int, sources) -> str | None:
        """Reason the schedule fails to burn every vertex by round claimed."""
        idx = [self.index(v) for v in sources]
        if None in idx:
            return "a source is not a vertex of the instance"
        if len(set(idx)) != len(idx):
            return "sources repeat"
        if len(idx) > claimed:
            return f"{len(idx)} sources cannot ignite within {claimed} rounds"
        done = completion(burn_times(self.indptr, self.indices, idx))
        if done is None or done > claimed:
            return f"burns by round {done}, claimed {claimed}"
        return None


def check_spider(arms: tuple[int, ...], claimed: int, sources) -> str | None:
    """burn_spider's schedule burns the spider within ceil(sqrt(n)) rounds."""
    n = 1 + sum(arms)
    if claimed > ceil_sqrt(n):
        return f"spider of order {n} claims {claimed} > ceil(sqrt(n)) rounds"
    return Segments(arms, hub=True).schedule(claimed, sources)


def forest_bounds(orders: tuple[int, ...]) -> tuple[int, int]:
    """(lower bound, greedy budget) of a path forest, in integers.

    lower = max(ceil(sqrt(n)), t).  The budget is ub_sqrt = ceil(sqrt(n) +
    (t-1)/2) when t <= ceil(sqrt(n)), else ub_floor = floor(n/(2t)) + t.
    ub_sqrt is the least U with 2U - t + 1 >= 2 sqrt(n), that is with
    2U - t + 1 >= ceil_sqrt(4n), so U = (ceil_sqrt(4n) + t) // 2.
    """
    n, t = sum(orders), len(orders)
    root = ceil_sqrt(n)
    if t <= root:
        budget = (ceil_sqrt(4 * n) + t) // 2
    else:
        budget = n // (2 * t) + t
    return max(root, t), budget


def check_greedy(
    orders: tuple[int, ...], claimed: int, sources, exact: int | None = None
) -> str | None:
    """greedy_burn's schedule is valid, within budget, and within 3/2 of b."""
    lower, budget = forest_bounds(orders)
    if not lower <= claimed <= budget:
        return f"greedy claims {claimed}, outside [{lower}, {budget}]"
    if exact is not None and not (lower <= exact <= claimed and 2 * claimed <= 3 * exact):
        return f"greedy {claimed} against exact {exact} breaks lower <= b <= T <= 3b/2"
    return Segments(orders, hub=False).schedule(claimed, sources)


def check_exact_forest(orders: tuple[int, ...], k: int, budget: int, pairs) -> str | None:
    """exact_path_forest's witness: a cover of budget k whose balls cover all."""
    lower, _ = forest_bounds(orders)
    if budget != k or k < lower:
        return f"exact answer {k} with budget {budget} under the lower bound {lower}"
    radii = sorted((r for _, r in pairs), reverse=True)
    if any(r < 0 or r > k - i for i, r in enumerate(radii, start=1)):
        return f"radii {radii} do not fit budget {k}"
    forest = Segments(orders, hub=False)
    covered = np.zeros(forest.n, dtype=bool)
    for v, r in pairs:
        i = forest.index(v)
        if i is None:
            return f"center {v!r} is not a vertex"
        start = forest.offsets[v[1]]
        covered[max(start, i - r): min(start + orders[v[1]], i + r + 1)] = True
    if not covered.all():
        return "cover leaves a vertex uncovered"
    return None
