"""Exact burning-number solvers, used as ground truth in tests and the CLI.

Three independent routes to the optimum:

* exact_burning_number: branch-and-bound cover search on an arbitrary
  graph.  b(G) <= k iff balls of radii k-1, ..., 1, 0 can be centered so
  their union is V(G); the search assigns radii to centers, always
  branching on a ball that covers the first uncovered vertex in a fixed
  eccentricity-descending order, with a ball-size bound for pruning and a
  memo of failed (uncovered, radii-left) states.

* exact_path_forest: specialization for disjoint unions of paths.  A ball
  of radius r inside a path is an interval of at most 2r+1 vertices, and a
  path of order a can be covered by given intervals iff their lengths sum
  to at least a.  So b <= k iff the interval lengths {2k-1, ..., 3, 1} can
  be distributed among the components with every component getting at
  least its order.  Feasibility is decided by a largest-first assignment
  search over residual demands and is monotone in k, so the scan starts at
  the lower bound and stops at the first hit.

* naive_schedule_search: direct search over ignition sequences.  Kept
  deliberately close to the process definition so it can arbitrate if the
  cover-based solvers ever disagree.  State after j ignitions is the
  projected burn time of every vertex (capped at k+1); vertices already at
  or below the current round can never improve, which collapses the state
  space enough to be usable through order 12.

All three return the burning number together with a verified witness.
Each also counts its search nodes over one call, all k together, against
_NODE_BUDGET; past it the solver raises SizeGuardError (CLI exit 3), so an
instance inside the order guard still cannot run on for minutes.
"""

from __future__ import annotations

from . import engine
from .bounds import lower_bound, ub_floor
from .burning import completion, schedule_from_cover
from .errors import InstanceError, InternalContradictionError, SizeGuardError
from .model import (
    BudgetedCover,
    BurnSchedule,
    Graph,
    PathForest,
    comp_vertex,
    path_center,
)

# Order guards: each solver raises SizeGuardError above its order.
_COVER_MAX_ORDER = 40
_PATH_FOREST_MAX_ORDER = 400
_NAIVE_MAX_ORDER = 12

# Search nodes each solver may visit over one call, summed over the k it
# tries, before it raises SizeGuardError.  A node count, not a clock, so
# the outcome is the same on every machine.
_NODE_BUDGET = 1_000_000


def _guard_order(n: int, limit: int, search: str) -> None:
    if n > limit:
        raise SizeGuardError(f"{search} limited to order {limit}, got {n}")


def _distance_rows(g: Graph, inf: int) -> list[list[int]]:
    """All-pairs distances via the burn kernel (one source burns at 1 + d)."""
    indptr, indices = (a.tolist() for a in g.csr())
    rows = []
    for i in range(g.order):
        times = engine.burn_times_csr(indptr, indices, [i]).tolist()
        rows.append([x - 1 if x >= 1 else inf for x in times])
    return rows


def _component_count(dist: list[list[int]], inf: int) -> int:
    n = len(dist)
    seen = [False] * n
    comps = 0
    for i in range(n):
        if seen[i]:
            continue
        comps += 1
        for j in range(n):
            if dist[i][j] < inf:
                seen[j] = True
    return comps


def exact_burning_number(g: Graph) -> tuple[int, BurnSchedule]:
    """Burning number of g with a verified optimal schedule as witness."""
    n = g.order
    if n == 0:
        raise InstanceError("cannot burn an empty graph")
    _guard_order(n, _COVER_MAX_ORDER, "exact search")
    inf = n + 1
    dist = _distance_rows(g, inf)
    ecc = [max(d for d in row if d < inf) for row in dist]
    pivot_order = sorted(range(n), key=lambda i: (-ecc[i], i))
    nodes = [0]
    for k in range(max(1, _component_count(dist, inf)), n + 1):
        assignment = _cover_search(n, k, dist, pivot_order, nodes)
        if assignment is None:
            continue
        pairs = tuple(
            sorted(((g.vertices[c], r) for c, r in assignment), key=lambda p: -p[1])
        )
        return k, schedule_from_cover(g, BudgetedCover(pairs, k))
    raise InternalContradictionError("no schedule of length n found")


def _cover_search(
    n: int, k: int, dist: list[list[int]], pivot_order: list[int], nodes: list[int]
) -> list[tuple[int, int]] | None:
    """Centers for balls of radii k-1..0 covering everything, or None.

    nodes[0] counts the search nodes visited, carried over from earlier k;
    past _NODE_BUDGET the search raises SizeGuardError.
    """
    full = (1 << n) - 1
    balls: list[list[int]] = []
    for r in range(k):
        row = []
        for c in range(n):
            m = 0
            dc = dist[c]
            for v in range(n):
                if dc[v] <= r:
                    m |= 1 << v
            row.append(m)
        balls.append(row)
    biggest = [max(row[c].bit_count() for c in range(n)) for row in balls]
    by_size = [
        sorted(range(n), key=lambda c: -balls[r][c].bit_count()) for r in range(k)
    ]
    failed: set[tuple[int, int]] = set()
    picked: list[tuple[int, int]] = []

    def dfs(uncovered: int, avail: int) -> bool:
        nodes[0] += 1
        if nodes[0] > _NODE_BUDGET:
            raise SizeGuardError(f"exact search gave up after {_NODE_BUDGET} nodes")
        if uncovered == 0:
            return True
        if avail == 0:
            return False
        radii = [r for r in range(k - 1, -1, -1) if avail >> r & 1]
        if sum(biggest[r] for r in radii) < uncovered.bit_count():
            return False
        key = (uncovered, avail)
        if key in failed:
            return False
        pivot = next(v for v in pivot_order if uncovered >> v & 1)
        for r in radii:
            for c in by_size[r]:
                if dist[c][pivot] > r:
                    continue
                picked.append((c, r))
                if dfs(uncovered & ~balls[r][c], avail & ~(1 << r)):
                    return True
                picked.pop()
        failed.add(key)
        return False

    if dfs(full, (1 << k) - 1):
        return list(picked)
    return None


def exact_path_forest(pf: PathForest) -> tuple[int, BudgetedCover]:
    """Burning number of a path forest with a witness cover."""
    _guard_order(pf.n, _PATH_FOREST_MAX_ORDER, "exact path-forest search")
    ub = ub_floor(pf)
    nodes = [0]
    for k in range(lower_bound(pf), ub + 1):
        choice = _assign_intervals(pf.orders, k, nodes)
        if choice is not None:
            return k, _cover_from_assignment(pf, choice, k)
    raise InternalContradictionError(f"no cover within the floor bound {ub}")


def _assign_intervals(
    orders: tuple[int, ...], k: int, nodes: list[int]
) -> list[tuple[int, int]] | None:
    """Distribute interval lengths 2k-1, 2k-3, ... over components.

    Every component must collect at least its order.  Returns the list of
    (component, radius) picks in assignment order, or None.  Skipping an
    interval while any component is still short is never useful, so the
    search only ever assigns the next-largest interval to some pending
    component, branching once per distinct residual.  nodes[0] counts the
    search nodes visited, carried over from earlier k; past _NODE_BUDGET
    the search raises SizeGuardError.
    """
    sizes = [2 * j + 1 for j in range(k - 1, -1, -1)]
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sizes[i]
    start = tuple(sorted(((a, c) for c, a in enumerate(orders)), reverse=True))
    failed: set[tuple[int, tuple[int, ...]]] = set()
    picks: list[tuple[int, int]] = []

    def dfs(i: int, state: tuple[tuple[int, int], ...]) -> bool:
        nodes[0] += 1
        if nodes[0] > _NODE_BUDGET:
            raise SizeGuardError(
                f"exact path-forest search gave up after {_NODE_BUDGET} nodes"
            )
        if not state:
            return True
        if i == k or k - i < len(state):
            return False
        if suffix[i] < sum(r for r, _ in state):
            return False
        key = (i, tuple(r for r, _ in state))
        if key in failed:
            return False
        s = sizes[i]
        tried = set()
        for pos, (resid, comp) in enumerate(state):
            if resid in tried:
                continue
            tried.add(resid)
            rest = state[:pos] + state[pos + 1 :]
            if resid > s:
                rest = tuple(sorted(rest + ((resid - s, comp),), reverse=True))
            picks.append((comp, (s - 1) // 2))
            if dfs(i + 1, rest):
                return True
            picks.pop()
        failed.add(key)
        return False

    if dfs(0, start):
        return list(picks)
    return None


def _cover_from_assignment(
    pf: PathForest, choice: list[tuple[int, int]], k: int
) -> BudgetedCover:
    """The cover tiling each component with its intervals, largest first.

    InternalContradictionError when a tiling falls short of its component:
    BudgetedCover checks the radii only, so this keeps the witness a cover.
    """
    per_comp: dict[int, list[int]] = {}
    for comp, r in choice:
        per_comp.setdefault(comp, []).append(r)
    pairs = []
    for comp, a in enumerate(pf.orders):
        pos = 0
        for r in sorted(per_comp.get(comp, ()), reverse=True):
            if pos >= a:
                ctr = path_center(a)
            else:
                ctr = min(pos + r, a - 1)
                pos = ctr + r + 1
            pairs.append((comp_vertex(comp, ctr), r))
        if pos < a:
            raise InternalContradictionError(f"intervals cover {pos} of {a} in component {comp}")
    pairs.sort(key=lambda p: -p[1])
    return BudgetedCover(tuple(pairs), k)


def naive_schedule_search(g: Graph) -> tuple[int, BurnSchedule]:
    """Burning number by plain search over ignition sequences.

    Independent of the cover characterization: it never converts to balls,
    only tracks projected burn times round by round.
    """
    n = g.order
    if n == 0:
        raise InstanceError("cannot burn an empty graph")
    _guard_order(n, _NAIVE_MAX_ORDER, "naive search")
    inf = 10**9
    dist = _distance_rows(g, inf)
    nodes = [0]
    for k in range(1, n + 1):
        found = _sequence_search(n, k, dist, nodes)
        if found is None:
            continue
        sources = tuple(g.vertices[i] for i in found)
        if completion(g, sources) > k:
            raise InternalContradictionError("search accepted a late schedule")
        return k, BurnSchedule(sources, k)
    raise InternalContradictionError("no schedule of length n found")


def _sequence_search(
    n: int, k: int, dist: list[list[int]], nodes: list[int]
) -> list[int] | None:
    """Sources igniting rounds 1..k that burn everything by round k, or None.

    nodes[0] counts the search nodes as in _cover_search.
    """
    cap = k + 1
    failed: set[tuple[int, tuple[tuple[int, int], ...]]] = set()
    chosen: list[int] = []

    def dfs(j: int, proj: tuple[int, ...]) -> bool:
        nodes[0] += 1
        if nodes[0] > _NODE_BUDGET:
            raise SizeGuardError(f"naive search gave up after {_NODE_BUDGET} nodes")
        if max(proj) <= k:
            return True
        if j == k:
            return False
        key = (j, tuple((v, p) for v, p in enumerate(proj) if p > j))
        if key in failed:
            return False
        # a source ignited at round j+1 is wasted unless still unburned then
        cands = [v for v, p in enumerate(proj) if p > j + 1]
        horizon = k - j - 1
        for v, p in enumerate(proj):
            if p > k and all(dist[c][v] > horizon for c in cands):
                failed.add(key)
                return False
        for x in cands:
            dx = dist[x]
            nproj = tuple(
                p if p <= j else min(p, j + 1 + dx[v], cap)
                for v, p in enumerate(proj)
            )
            chosen.append(x)
            if dfs(j + 1, nproj):
                return True
            chosen.pop()
        failed.add(key)
        return False

    if dfs(0, (cap,) * n):
        return list(chosen)
    return None
