"""Core data model: instances, vertex ids, graphs, schedules and covers.

Burning process conventions used throughout the package. At round t >= 1 the
fire first spreads from every vertex burned at round t-1 to all its
neighbors, then the t-th scheduled source is ignited if it is still unburned
(igniting an already burned vertex is a no-op). A schedule burns a graph in
T rounds when every vertex has a first-burn time <= T.

Vertex ids are plain tuples with a total lexicographic order:

    ("head",)          spider head
    ("a", i, j)        j-th vertex (1-based) of spider arm i, counted from
                       the head; the leaf of an arm of length L is ("a",i,L)
    ("c", c, p)        p-th vertex (0-based) of path-forest component c
    ("v", name)        named vertex of a graph given by an edge list

Within one graph only one family of ids appears (plus the head for spiders).

A graph is one of two classes, which answer the same questions: its ids
(order, vertices, indices_of, ids_of), CSR rows (csr) and canonical order
(canonical_prefix).  The schedule construction's queries about a burn go
to a burn state: engine.SegmentBurn on a path forest or spider of order
64 and up, below that and on edge-list graphs burning._KernelBurn.
SegmentGraph is a path forest or spider, kept as its sorted arm or
component lengths: it stores neither ids nor adjacency, and computes
both, and its canonical order, by arithmetic on the lengths.
LabeledGraph is a graph from an edge list: it keeps its ids in a tuple,
looks indices up in a dict and stores its CSR arrays.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from math import isqrt
from operator import gt, index as _as_index, neg

import numpy as np

from .engine import arm_depth, sorted_unique
from .errors import BudgetError, InstanceError, InternalContradictionError

VertexId = tuple

HEAD: VertexId = ("head",)

# The segment that marks a spider's head, at position 0, in the
# (segment, position) columns SegmentGraph.indices_at reads.
HEAD_SEGMENT = -1


def arm_vertex(arm: int, pos: int) -> VertexId:
    return ("a", arm, pos)


def comp_vertex(comp: int, pos: int) -> VertexId:
    return ("c", comp, pos)


def graph_vertex(name: str) -> VertexId:
    return ("v", name)


def format_vertex(v: VertexId) -> str:
    """Serialize a vertex id: "head", "a:i:j", "c:p", or the raw name."""
    tag = v[0]
    if tag == "head":
        return "head"
    if tag == "a":
        return f"a:{v[1]}:{v[2]}"
    if tag == "c":
        return f"{v[1]}:{v[2]}"
    if tag == "v":
        return str(v[1])
    raise InstanceError(f"unknown vertex id {v!r}")


# Each id family above as its tag and field types.
_ID_SHAPES = (("head",), ("a", int, int), ("c", int, int), ("v", str))


def _not_a_vertex(v) -> InstanceError:
    """InstanceError for an id of no vertex, named as format_vertex writes
    it (the CLI's form) if of a family above, else by its repr."""
    known = type(v) is tuple and (*v[:1], *map(type, v[1:])) in _ID_SHAPES
    name = format_vertex(v) if known else v
    return InstanceError(f"{name!r} is not a vertex of this graph")


def parse_vertex(text: str, kind: str) -> VertexId:
    """Parse a serialized vertex id for an instance of the given kind.

    kind is one of "pf", "path", "spider", "graph".  Path instances use the
    path-forest form "c:p" with c == 0.
    """
    if kind == "graph":
        return graph_vertex(text)
    if kind == "spider":
        if text == "head":
            return HEAD
        parts = text.split(":")
        if len(parts) == 3 and parts[0] == "a":
            try:
                return arm_vertex(int(parts[1]), int(parts[2]))
            except ValueError:
                pass
        raise InstanceError(f"bad spider vertex {text!r}")
    if kind in ("pf", "path"):
        parts = text.split(":")
        if len(parts) == 2:
            try:
                return comp_vertex(int(parts[0]), int(parts[1]))
            except ValueError:
                pass
        raise InstanceError(f"bad path-forest vertex {text!r}")
    raise InstanceError(f"unknown instance kind {kind!r}")


# Indices and burn rounds are int32 arrays, so an instance of larger
# order could not be indexed.
MAX_ORDER = np.iinfo(np.int32).max


def check_order(n: int) -> int:
    """n, or InstanceError when it exceeds MAX_ORDER; costs no O(n) work."""
    if n > MAX_ORDER:
        raise InstanceError(f"order {n} exceeds {MAX_ORDER}, the largest int32 indices reach")
    return n


def ceil_sqrt(n: int) -> int:
    """Smallest integer s with s*s >= n (exact integer arithmetic)."""
    if n < 0:
        raise ValueError("ceil_sqrt of a negative number")
    return 0 if n == 0 else 1 + isqrt(n - 1)


@dataclass(frozen=True)
class PathForest:
    """Disjoint union of paths, stored as component orders sorted non-increasing."""

    orders: tuple[int, ...]
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        orders = tuple(sorted(self.orders, reverse=True))
        if not orders:
            raise InstanceError("a path forest needs at least one component")
        if not all(map(isinstance, orders, repeat(int))) or min(orders) < 1:
            raise InstanceError(f"component orders must be positive integers: {self.orders!r}")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "n", sum(orders))

    @property
    def t(self) -> int:
        return len(self.orders)


@dataclass(frozen=True)
class Spider:
    """One head vertex with m >= 3 disjoint arms (paths) attached.

    Arm lengths exclude the head, so the order is 1 + sum(arms).  Arms are
    stored sorted non-increasing.
    """

    arms: tuple[int, ...]
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arms = tuple(sorted(self.arms, reverse=True))
        if len(arms) < 3:
            raise InstanceError("a spider needs at least 3 arms; shorter shapes are paths")
        if not all(map(isinstance, arms, repeat(int))) or min(arms) < 1:
            raise InstanceError(f"arm lengths must be positive integers: {self.arms!r}")
        object.__setattr__(self, "arms", arms)
        object.__setattr__(self, "n", 1 + sum(arms))

    @property
    def m(self) -> int:
        return len(self.arms)


def path_center(order: int) -> int:
    """Leftmost central position of a path on `order` vertices (0-based).

    Its eccentricity is the path's radius, order // 2; for even orders the two
    central vertices tie and the leftmost is returned.
    """
    if order < 1:
        raise InstanceError("path order must be >= 1")
    return (order - 1) // 2


def _exact_int(x) -> int | None:
    """x as an int when it equals one (so 3, True or 3.0 pass, "3" does not)."""
    if type(x) is int:
        return x
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == x else None


class SegmentGraph(Sequence):
    """A path forest (hub=False) or spider (hub=True), kept as its segment lengths.

    The segments are a path forest's components or a spider's arms.  Their
    lengths come sorted non-increasing, so the constructor reads them as
    runs of equal lengths (at most sqrt(2n) of them, each found by one
    bisect): the order is an exact Python int, checked before any array
    exists, and lengths (one np.repeat of the runs) and offsets are the
    only arrays built.

    Indices follow the segment layout: the spider head (hub) is index 0,
    then segment s occupies lengths[s] consecutive indices starting at
    offsets[s], ordered away from the hub.  Positions are 1-based on spider
    arms, ("a", s, 1) being next to the head, and 0-based on path
    components.  The graph is the Sequence of its ids (vertices is the
    graph itself), computed on demand: index and id convert by arithmetic
    (ids_of, indices_of), so it holds no id tuples and no lookup dict;
    the constructions skip ids altogether and hand over (segment, position)
    columns (indices_at).
    Neighbours are arithmetic too: neighbors gives one row, which only csr
    reads, packing every row into the CSR arrays when they are first asked
    for: by the exact solvers and, below the closed-form order
    (burning._CLOSED_FORM_MIN_ORDER), by the breadth-first kernel and the
    schedule construction's burn state on its rounds.  From that order up
    the construction reads engine.SegmentBurn, so a large graph never
    builds the n + 1 start bytes that neighbors reads.  The closed-form
    kernel reads lengths, hub and offsets, and on a spider the arm depths,
    built from the runs on the first burn and kept (depth); a path forest
    keeps nothing per vertex for it.
    """

    __slots__ = ("lengths", "hub", "offsets", "_runs", "_n", "_starts", "_depth",
                 "_indptr", "_indices")

    def __init__(self, lengths: tuple[int, ...], hub: bool):
        runs, i, m = [], 0, len(lengths)
        while i < m:
            v, j = lengths[i], i + 1
            if j < m and lengths[j] == v:  # a run of more: bisect for its end
                j = bisect_right(lengths, -v, j, m, key=neg)
            runs.append((v, j - i))
            i = j
        self._n = check_order(sum(v * c for v, c in runs) + int(hub))  # before any array
        self._runs = runs
        values, counts = zip(*runs)
        self.lengths = np.repeat(np.array(values, dtype=np.int64), counts)
        self.hub = hub
        ends = np.cumsum(self.lengths) + int(hub)
        self.offsets = ends - self.lengths
        self._starts = None  # by _mark_starts, for neighbors: small graphs only
        self._depth = None
        self._indptr = self._indices = None  # packed by csr() when first asked for

    @property
    def vertices(self) -> SegmentGraph:
        return self

    def __len__(self) -> int:
        return self._n

    order = property(__len__)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.ids_of(range(self._n)[i])
        i = _as_index(i)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("vertex index out of range")
        return self.ids_of((i,))[0]

    def __iter__(self):
        return iter(self.ids_of(np.arange(self._n)))

    def ids_of(self, indices) -> tuple[VertexId, ...]:
        """The ids at these vertex indices (each in [0, n)), by one searchsorted over offsets."""
        seg = self.offsets.searchsorted(indices, "right") - 1
        pos = (indices - self.offsets[seg] + int(self.hub)).tolist()
        tag = "a" if self.hub else "c"
        return tuple([HEAD if s < 0 else (tag, s, p) for s, p in zip(seg.tolist(), pos)])

    def indices_of(self, ids) -> list[int]:
        """The index of every id, in one pass; InstanceError for a non-vertex.

        Accepts exactly the ids equal to one of the id tuples, as a dict
        lookup would, and never an out-of-segment position.
        """
        tag, hub, lengths = ("a" if self.hub else "c"), int(self.hub), self.lengths
        out = []
        for v in ids:
            if isinstance(v, tuple) and len(v) == 3 and v[0] == tag:
                seg, pos = v[1:] if type(v[1]) is int is type(v[2]) else map(_exact_int, v[1:])
                if seg is not None and pos is not None and 0 <= seg < len(lengths):
                    pos -= hub  # 0-based offset within the segment
                    if 0 <= pos < lengths.item(seg):
                        out.append(self.offsets.item(seg) + pos)
                        continue
            if not (hub and isinstance(v, tuple) and v == HEAD):
                raise _not_a_vertex(v)
            out.append(0)
        return out

    def indices_at(self, segments, positions) -> list[int]:
        """The index of the vertex at each (segment, position) pair of these columns.

        Positions count as in the ids: 1-based on spider arms, 0-based on
        path components; HEAD_SEGMENT at position 0 is a spider's head.
        One pass gathers each segment's offset and checks the position
        against its length, so a pair outside the graph (a position past
        either end of its segment, a segment out of range, the head of a
        path forest) raises InternalContradictionError instead of naming
        another vertex: the constructions that call this never make one.
        The pass runs in Python, element by element, because numpy's fixed
        cost per call outweighs the whole conversion on small graphs: a
        vectorised gather and range check took some 14 us on five pairs,
        this pass 1.3 us; on 700 pairs 64 us against 113 us (2 cores,
        Python 3.11.7, numpy 2.4.6).
        """
        hub, m = int(self.hub), len(self.lengths)
        offset, length = self.offsets.item, self.lengths.item
        out = []
        for s, p in zip(segments, positions):
            p -= hub  # 0-based within the segment
            if 0 <= s < m and 0 <= p < length(s):
                out.append(offset(s) + p)
            elif hub and s == HEAD_SEGMENT and p == -1:
                out.append(0)
            else:
                raise InternalContradictionError(
                    f"({s}, {p + hub}) is no segment position of this graph"
                )
        return out

    def _mark_starts(self) -> bytes:
        # byte i is 1 where a segment starts, at n and at the hub
        marks = np.zeros(self._n + 1, dtype=np.uint8)
        marks[self.offsets] = 1
        marks[0] = marks[self._n] = 1
        self._starts = marks.tobytes()
        return self._starts

    def neighbors(self, i: int):
        """Indices adjacent to index i (0 <= i < n), ascending, by arithmetic.

        A segment vertex has its previous vertex (the hub, for the first
        vertex of a spider arm) and its next one, where they exist; the
        hub has the first vertex of every arm, returned as the offsets
        array.  csr packs these rows into CSR arrays.
        """
        if self.hub and i == 0:
            return self.offsets
        starts = self._starts or self._mark_starts()
        row = []
        if not starts[i]:
            row.append(i - 1)
        elif self.hub:
            row.append(0)
        if not starts[i + 1]:
            row.append(i + 1)
        return row

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The neighbour rows as CSR int32 arrays, packed on the first call and kept."""
        if self._indptr is None:
            n = self._n
            rows = list(map(self.neighbors, range(n)))
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(np.fromiter(map(len, rows), np.int32, n), out=indptr[1:])
            self._indices = np.fromiter(chain.from_iterable(rows), np.int32, int(indptr[-1]))
            self._indptr = indptr
        return self._indptr, self._indices

    def canonical_prefix(self, count: int) -> list[int]:
        """The first count vertices in canonical (ascending id) order.

        That order is index order with a spider's head (index 0) last,
        since ("a", ...) < ("head",); nothing of it is kept.
        """
        hub = int(self.hub)
        return list(islice(chain(range(hub, self._n), range(hub)), count))

    def depth(self) -> np.ndarray | None:
        """engine.arm_depth of a spider's runs, computed on first call; None on a path forest."""
        if self._depth is None and self.hub:
            self._depth = arm_depth(self._runs)
        return self._depth


class LabeledGraph:
    """Immutable undirected simple graph over VertexIds, given by an edge list.

    `LabeledGraph(vertices, edges)` is the validated constructor: `vertices`
    are distinct ids, and `edges` holds pairs (i, j) of vertex indices, as a
    sequence of pairs or an (m, 2) integer array.  Repeated edges, in either
    orientation, collapse to one; self loops and indices outside [0, n) are
    rejected.  The graph keeps its ids in a tuple, looks indices up in a
    dict and keeps its adjacency as CSR int32 arrays with every row sorted.
    The build codes each edge as its two arcs, u * n + v and v * n + u, and
    one sort of the codes with their repeats dropped (engine.sorted_unique)
    gives the CSR entries in order.  `canonical_prefix` slices the
    indices sorted by id on its first call and kept.  A burn on the graph
    is read from burning._KernelBurn, not from the graph.
    """

    __slots__ = ("vertices", "_indptr", "_indices", "_index", "_canon")

    def __init__(self, vertices, edges=()):
        vertices = tuple(vertices)
        n = len(vertices)
        index = dict(zip(vertices, range(n)))
        if len(index) != n:
            raise InstanceError("duplicate vertices")
        try:
            ends = np.asarray(edges)  # ValueError when the pairs are ragged
            if ends.size == 0:
                ends = np.empty((0, 2), dtype=np.int64)
            if ends.ndim != 2 or ends.shape[1] != 2 or ends.dtype.kind not in "iu":
                raise ValueError
        except ValueError:
            raise InstanceError("edges must be pairs of integer vertex indices") from None
        outside = (ends < 0) | (ends >= n)
        if outside.any():
            raise InstanceError(f"edge endpoint {ends[outside][0]} not a vertex index in [0, {n})")
        u, v = ends.astype(np.int64).T
        loops = np.flatnonzero(u == v)
        if loops.size:
            raise InstanceError(f"self-loop at {vertices[u[loops[0]]]!r}")
        # one code per directed arc: sorted and with repeated edges dropped,
        # the codes are the CSR entries in row-major order, rows by source,
        # each row sorted by target
        arcs = sorted_unique(np.concatenate([u * n + v, v * n + u]))
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(arcs // n, minlength=n), out=indptr[1:])
        self.vertices = vertices
        self._indptr = indptr
        self._indices = (arcs % n).astype(np.int32)
        self._index = index
        self._canon = None

    @property
    def order(self) -> int:
        return len(self.vertices)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        return self._indptr, self._indices

    def indices_of(self, ids) -> list[int]:
        """The index of every id, in one pass; InstanceError for a non-vertex."""
        ids, index = tuple(ids), self._index
        idx = [index.get(v, -1) for v in ids]
        if -1 in idx:
            raise _not_a_vertex(ids[idx.index(-1)])
        return idx

    def ids_of(self, indices) -> tuple[VertexId, ...]:
        """The ids at these vertex indices, in one pass."""
        return tuple(self.vertices[i] for i in indices)

    def canonical_prefix(self, count: int) -> list[int]:
        """The first count vertices in canonical (ascending id) order."""
        if self._canon is None:
            self._canon = sorted(range(len(self.vertices)), key=self.vertices.__getitem__)
        return self._canon[:count]


# Either kind of graph; the library asks a graph only what both answer.
Graph = SegmentGraph | LabeledGraph


def path_forest_to_graph(pf: PathForest) -> SegmentGraph:
    """The graph of a path forest: component c holds ("c", c, 0..a_c-1)."""
    return SegmentGraph(pf.orders, hub=False)


def spider_to_graph(sp: Spider) -> SegmentGraph:
    """The graph of a spider: index 0 is the head, arms are contiguous."""
    return SegmentGraph(sp.arms, hub=True)


@dataclass(frozen=True)
class BurnSchedule:
    """Ignition order: sources[i] is ignited at round i+1.

    claimed_time is the round by which the whole graph is asserted burned,
    an integer (InstanceError for a float or a string); verify_schedule
    checks the claim against the simulator.
    """

    sources: tuple[VertexId, ...]
    claimed_time: int

    def __post_init__(self):
        sources = tuple(self.sources)
        object.__setattr__(self, "sources", sources)
        try:
            object.__setattr__(self, "claimed_time", _as_index(self.claimed_time))
        except TypeError:
            raise InstanceError(f"claimed_time must be an integer: {self.claimed_time!r}") from None
        if not sources:
            raise InstanceError("a schedule needs at least one source")
        if len(set(sources)) != len(sources):
            raise InstanceError("schedule sources must be pairwise distinct")
        if self.claimed_time < len(sources):
            raise InstanceError(
                f"claimed_time {self.claimed_time} < {len(sources)} sources; "
                "at most one source ignites per round"
            )


@dataclass(frozen=True)
class BudgetedCover:
    """Neighborhood cover (center, radius) feasible for a burning budget M.

    Sorted non-increasing radii must satisfy r_(i) <= M - i (1-based), the
    exact condition under which igniting the centers largest-radius-first
    burns everything the balls cover by round M.  Centers may repeat across
    pairs; the pairs themselves are distinct.  Radii and budget are
    integers: BudgetError for a float or a string, never a truncation.
    """

    pairs: tuple[tuple[VertexId, int], ...]
    budget: int

    def __post_init__(self):
        try:
            pairs = tuple((v, _as_index(r)) for v, r in self.pairs)
            object.__setattr__(self, "budget", _as_index(self.budget))
        except TypeError:
            raise BudgetError("radii and budget must be integers") from None
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise InstanceError("a cover needs at least one pair")
        if len(set(pairs)) != len(pairs):
            raise BudgetError("cover pairs must be distinct")
        radii = sorted([r for _, r in pairs], reverse=True)
        if radii[-1] < 0:
            raise BudgetError("radii must be non-negative")
        budget = self.budget
        if budget < 1:
            raise BudgetError("budget must be >= 1")
        # r_(i) <= M - i at every sorted position i, as one pass in C; the
        # first position that fails is looked for only when one does
        if any(map(gt, radii, range(budget - 1, budget - 1 - len(radii), -1))):
            i, r = next((i, r) for i, r in enumerate(radii, start=1) if r > budget - i)
            raise BudgetError(
                f"radius {r} at sorted position {i} exceeds budget slack "
                f"{budget} - {i}"
            )
