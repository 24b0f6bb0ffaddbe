"""Both burn kernels must agree with the burning process, bit for bit.

The CSR kernel runs on any graph and is checked against min_i (i + d(s_i,
v)), the first-burn round the process defines; the closed-form kernel
serves path forests and spiders and is checked against the CSR kernel,
and so is the burn state the schedule construction reads there.
"""

import random
from collections import Counter

import numpy as np
import pytest

from conftest import neighbors
from burnkit import burning, engine
from burnkit.errors import InstanceError
from burnkit.gen import random_path_forest, random_spider
from burnkit.model import (
    LabeledGraph,
    PathForest,
    Spider,
    path_forest_to_graph,
    spider_to_graph,
)


def csr(g, sources):
    return engine.burn_times_csr(*g.csr(), sources)


def closed_form(g, sources):
    return engine.burn_times_segments(g.lengths, g.hub, sources, g.offsets, g.depth())


# Each entry burns a graph: burn(g, sources) -> first-burn rounds.
KERNELS = [pytest.param(csr, id="csr"), pytest.param(closed_form, id="closed_form")]


def path(n):
    return path_forest_to_graph(PathForest((n,)))


@pytest.mark.parametrize("burn", KERNELS)
def test_single_source_is_staggered_bfs(burn):
    # P3, ignite the left end: the source itself burns in round 1, then
    # the fire needs one extra round per edge.
    times = burn(path(3), [0])
    assert times.tolist() == [1, 2, 3]
    assert times.dtype == np.int32


@pytest.mark.parametrize("burn", KERNELS)
def test_spread_happens_before_ignition(burn):
    # P3 with sources (center, end): round 2 spreads to both ends first,
    # so igniting vertex 0 in round 2 is a no-op.
    times = burn(path(3), [1, 0])
    assert times.tolist() == [2, 1, 2]


@pytest.mark.parametrize("burn", KERNELS)
def test_unreached_vertices_stay_minus_one(burn):
    g = path_forest_to_graph(PathForest((3, 2)))
    times = burn(g, [1])
    assert times.tolist() == [2, 1, 2, -1, -1]


@pytest.mark.parametrize("burn", KERNELS)
def test_no_sources_burns_nothing(burn):
    times = burn(path(4), [])
    assert times.tolist() == [-1] * 4


@pytest.mark.parametrize("burn", KERNELS)
def test_burning_outlives_the_source_list(burn):
    # One source on a long path: propagation continues for n rounds even
    # though only round 1 has an ignition.
    times = burn(path(6), [0])
    assert times.tolist() == [1, 2, 3, 4, 5, 6]


def _random_segment_graph(rng):
    if rng.random() < 0.5:
        arms = [rng.randint(1, 12) for _ in range(rng.randint(3, 7))]
        return spider_to_graph(Spider(tuple(arms)))
    orders = [rng.randint(1, 12) for _ in range(rng.randint(1, 7))]
    return path_forest_to_graph(PathForest(tuple(orders)))


def test_closed_form_matches_bfs_on_random_segment_graphs():
    rng = random.Random(20261018)
    for _ in range(600):
        g = _random_segment_graph(rng)
        # repeats allowed: a repeated source is a no-op ignition
        sources = [rng.randrange(g.order) for _ in range(rng.randint(0, 8))]
        expected = csr(g, sources)
        got = closed_form(g, np.asarray(sources, dtype=np.int32))
        assert got.dtype == np.int32
        assert np.array_equal(got, expected), (g.lengths, g.hub, sources)


def test_closed_form_matches_bfs_on_large_instances():
    rng = random.Random(7)
    spider = spider_to_graph(Spider(tuple(rng.randint(1, 300) for _ in range(40))))
    forest = path_forest_to_graph(PathForest(tuple(rng.randint(1, 300) for _ in range(40))))
    # many segments, few of them holding a source
    wide = [path_forest_to_graph(PathForest((2,) * 40000)), spider_to_graph(Spider((1,) * 50000))]
    for g in (path(5000), spider, forest, *wide):
        sources = rng.sample(range(g.order), 70)
        assert np.array_equal(closed_form(g, sources), csr(g, sources))


def record_sweeps(monkeypatch):
    """(vertices swept, dtype, in place) of every sweep the closed form runs.

    In place means the sweep ran in a view of the result, not in an array
    gathered from it.
    """
    sweeps = []
    real = engine._sweep
    monkeypatch.setattr(engine, "_sweep", lambda f, w: sweeps.append(
        (f.size, f.dtype, f.base is not None)) or real(f, w))
    return sweeps


def test_closed_form_sweeps_only_the_touched_segments(monkeypatch):
    # A spider of order 4,001 with sources on 3 of its 40 arms: only those
    # 300 vertices are swept, the other arms and the head by arithmetic.
    sweeps = record_sweeps(monkeypatch)
    g = spider_to_graph(Spider((100,) * 40))
    sources = [1 + 250, 1 + 5 * 100, 1 + 250, 1 + 39 * 100 + 99, 1 + 5 * 100 + 1]
    assert np.array_equal(closed_form(g, sources), csr(g, sources))
    assert sweeps == [(300, np.int32, False)]


def test_closed_form_covers_both_sweeps_in_both_dtypes(monkeypatch):
    # 40,000 components of order 2, one source each in some of them: the
    # source-holding components' vertices are gathered, in int32 when 500
    # hold a source and in int64 past the int32 range at 18,000.  With a
    # source in every component the gathered order is the index order, so
    # the sweep runs in the result itself, here in int64.
    sweeps = record_sweeps(monkeypatch)
    g = path_forest_to_graph(PathForest((2,) * 40000))
    rng = random.Random(11)
    for touched in (500, 18000, 40000):
        comps = rng.sample(range(40000), touched)
        sources = [2 * c + rng.randrange(2) for c in comps]
        assert np.array_equal(closed_form(g, sources), csr(g, sources)), touched
    assert sweeps == [(1000, np.int32, False), (36000, np.int64, False),
                      (g.order, np.int64, True)]


def test_closed_form_head_alone():
    # The head as the only source, once or repeated: no arm is swept and
    # every arm vertex burns at its distance from the head plus one.
    g = spider_to_graph(Spider((30, 20, 10, 5)))
    for sources in ([0], [0, 0, 0]):
        times = closed_form(g, sources)
        assert np.array_equal(times, csr(g, sources))
        assert times[0] == 1 and times[1:31].tolist() == list(range(2, 32))


def test_closed_form_touched_minority_with_repeats_and_burned_sources():
    # Spiders and forests of order well past the closed form's threshold,
    # with sources on a few segments only: repeated sources, and sources
    # the fire reached before their round (including the head), must
    # leave the gathered sweep exact.
    rng = random.Random(20261020)
    for _ in range(300):
        segments = tuple(rng.randint(1, 60) for _ in range(rng.randint(3, 40)))
        if rng.random() < 0.5:
            g = spider_to_graph(Spider(segments))
        else:
            g = path_forest_to_graph(PathForest(segments))
        offsets, lengths = g.offsets, g.lengths
        few = rng.sample(range(len(lengths)), rng.randint(1, 3))
        pool = [int(offsets[s]) + rng.randrange(int(lengths[s])) for s in few for _ in range(3)]
        if g.hub:
            pool.append(0)
        sources = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
        # a neighbour of an earlier source, ignited after the fire got there
        first = sources[0]
        sources.append(first + 1 if first + 1 < g.order else first - 1)
        got = closed_form(g, sources)
        assert np.array_equal(got, csr(g, sources)), (segments, g.hub, sources)


def test_closed_form_touched_majority_with_repeats(monkeypatch):
    # Sources on arms or components that hold 50-99% of the vertices:
    # gathered, swept and scattered back around the few left untouched,
    # with repeated sources and the head among them.
    sweeps = record_sweeps(monkeypatch)
    g = spider_to_graph(Spider((500, 10, 10)))  # arm 0 holds 500 of 521
    for sources in ([3, 0], [0, 250, 3, 250], [1, 1, 400, 0, 0, 500]):
        assert np.array_equal(closed_form(g, sources), csr(g, sources)), sources
    assert sweeps == [(500, np.int32, False)] * 3
    rng = random.Random(20261021)
    checked = 0
    for _ in range(300):
        segments = (rng.randint(100, 400), *(rng.randint(1, 60) for _ in range(rng.randint(3, 12))))
        if rng.random() < 0.5:
            g = spider_to_graph(Spider(segments))
        else:
            g = path_forest_to_graph(PathForest(segments))
        offsets, lengths = g.offsets, g.lengths
        # the longest segment and some others, never all of them
        few = [0, *rng.sample(range(1, len(lengths)), rng.randrange(len(lengths) - 1))]
        if not 0.5 <= lengths[few].sum() / g.order < 1:
            continue
        pool = [int(offsets[s]) + rng.randrange(int(lengths[s])) for s in few for _ in range(2)]
        if g.hub:
            pool.append(0)
        sources = pool + [rng.choice(pool) for _ in range(len(pool))]  # some repeated
        rng.shuffle(sources)
        got = closed_form(g, sources)
        assert np.array_equal(got, csr(g, sources)), (segments, g.hub, sources)
        checked += 1
    assert checked >= 250, checked
    assert not any(in_place for _, _, in_place in sweeps)


def test_closed_form_returns_a_fresh_writable_array_each_call():
    # The schedule construction writes into the rounds it gets back.
    for g, sources in ((spider_to_graph(Spider((30, 20, 10))), [5]),  # gathered
                       (spider_to_graph(Spider((30, 20, 10))), [5, 35, 55]),  # in place
                       (path_forest_to_graph(PathForest((30, 20, 10))), [40])):
        a, b = closed_form(g, sources), closed_form(g, sources)
        assert a is not b and not np.shares_memory(a, b)
        assert a.flags.writeable and a.dtype == np.int32
        a[:] = -7
        assert np.array_equal(b, csr(g, sources))


def test_closed_form_without_sources_burns_nothing():
    for g in (spider_to_graph(Spider((3, 2, 1))), path_forest_to_graph(PathForest((2, 2)))):
        assert closed_form(g, []).tolist() == [-1] * g.order
        assert csr(g, []).tolist() == [-1] * g.order


def test_closed_form_source_already_burned_at_its_round():
    # Spider (2, 1, 1): head 0, arm 0 = indices 1-2, arms 1 and 2 = 3 and 4.
    # The head burns in round 1, so round 2 spreads to index 3 before its
    # own ignition, which is then a no-op.
    g = spider_to_graph(Spider((2, 1, 1)))
    assert closed_form(g, [0, 3]).tolist() == [1, 2, 3, 2, 2]
    assert csr(g, [0, 3]).tolist() == [1, 2, 3, 2, 2]
    # On P5, the second source is reached by the first one's fire in round 2.
    assert closed_form(path(5), [2, 1]).tolist() == [3, 2, 1, 2, 3]
    assert csr(path(5), [2, 1]).tolist() == [3, 2, 1, 2, 3]


def test_closed_form_leaves_unreached_components_at_minus_one():
    g = path_forest_to_graph(PathForest((4, 3, 2, 1)))
    # components start at indices 0, 4, 7, 9; burn only the second and
    # last, whose 4 of 10 vertices the closed form gathers around the third
    expected = [-1] * 4 + [2, 1, 2] + [-1] * 2 + [2]
    assert closed_form(g, [5, 9]).tolist() == expected
    assert csr(g, [5, 9]).tolist() == expected


@pytest.mark.parametrize("burn", KERNELS)
def test_kernels_reject_out_of_range_sources(burn):
    g = spider_to_graph(Spider((2, 1, 1)))
    for bad in ([-1], [5], [0, 7]):
        with pytest.raises(InstanceError):
            burn(g, bad)


@pytest.mark.parametrize("burn", KERNELS)
def test_kernels_reject_non_integer_sources(burn):
    # No float is truncated to an index, and no string or bool parsed as one.
    g = spider_to_graph(Spider((2, 1, 1)))
    for bad in ([1.5], [1.0], [0, 2.5], ["1"], [True], np.array([0.0, 1.0]),
                np.array([True, False]), [[0, 1]], [[0, 1], [2]], [None]):
        with pytest.raises(InstanceError, match="integer vertex indices"):
            burn(g, bad)
    expected = burn(g, [0, 1]).tolist()
    for good in (np.array([0, 1], dtype=np.uint8), np.array([0, 1], dtype=np.int16), (0, 1)):
        assert burn(g, good).tolist() == expected


def test_segment_burn_rejects_what_the_kernels_reject():
    # The same validation as the closed form: the sources are placed by one helper.
    g = spider_to_graph(Spider((2, 1, 1)))
    for bad in ([-1], [5], [0, 7], [1.5], ["1"], [True], [[0, 1]], [None]):
        with pytest.raises(InstanceError):
            engine.SegmentBurn(g.lengths, g.hub, bad, g.offsets)


def test_closed_form_reuses_one_graph_across_calls():
    # One graph, one depth array on a spider and none on a path forest,
    # source lists of growing and shrinking length: the segment separation
    # must follow n + k on every call.  Repeated sources push k past n, and
    # some segments get no source at all.
    rng = random.Random(20261019)
    for g in (
        path_forest_to_graph(PathForest((5, 5, 5, 4))),
        spider_to_graph(Spider((6, 4, 4, 2, 1))),
        path_forest_to_graph(PathForest(tuple(rng.randint(1, 40) for _ in range(30)))),
        spider_to_graph(Spider(tuple(rng.randint(1, 40) for _ in range(30)))),
    ):
        depth = g.depth()
        assert (depth is None) == (not g.hub)
        for k in (1, 3, 2 * g.order, 0, 5, 3 * g.order + 7, 1):
            pool = rng.sample(range(g.order), min(3, g.order))
            sources = [rng.choice(pool) for _ in range(k)]
            assert np.array_equal(closed_form(g, sources), csr(g, sources)), (k, sources)
        assert g.depth() is depth


def test_segment_burn_answers_as_both_kernels():
    # engine.SegmentBurn holds a burn as points built from the sources
    # alone, burning._KernelBurn as the BFS's rounds.  The three queries
    # of both must read what either kernel's rounds give, so they agree
    # on the same sources: the completion, the least round over every
    # vertex and its neighbours (the rows conftest.neighbors reads), and
    # the first vertex unburned after every round L that leaves one, in
    # the ids sorted.
    rng = random.Random(20261021)
    seen = Counter()
    for _ in range(1500):
        n = rng.randint(1, 60)
        if n < 4 or rng.random() < 0.5:
            g = path_forest_to_graph(random_path_forest(rng, n, rng.randint(1, min(n, 8))))
        else:
            g = spider_to_graph(random_spider(rng, n, rng.randint(3, min(n - 1, 10))))
        offsets, lengths = g.offsets, g.lengths
        if rng.random() < 0.5:  # sources on a few segments, the others untouched
            few = rng.sample(range(len(lengths)), rng.randint(1, min(3, len(lengths))))
            pool = [int(offsets[s]) + rng.randrange(int(lengths[s])) for s in few for _ in range(3)]
        else:
            pool = list(range(g.order))
        if g.hub and rng.random() < 0.5:
            pool.append(0)
        sources = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        if sources and g.order > 1:
            # a neighbour of the first source, ignited after the fire got there
            sources.append(sources[0] + 1 if sources[0] + 1 < g.order else sources[0] - 1)
        everyone, ids = list(range(g.order)), tuple(g.vertices)
        rows = [g.indices_of(neighbors(g, v)) for v in ids]
        canon = sorted(everyone, key=ids.__getitem__)
        for state in (engine.SegmentBurn(lengths, g.hub, sources, offsets),
                      burning._KernelBurn(g, sources)):
            lows = state.closed_min(everyone)
            for times in (closed_form(g, sources), csr(g, sources)):
                unburned = times < 0
                rounds = np.where(unburned, state.never, times).tolist()
                assert state.completion == max(rounds), (state, lengths, g.hub, sources)
                closed = [min(rounds[u] for u in [v, *row]) for v, row in enumerate(rows)]
                assert lows == closed, (state, lengths, g.hub, sources)
                for L in range(int(times.max()) + unburned.any()):
                    first = next(v for v in canon if rounds[v] > L)
                    assert state.first_unburned(L) == first, (state, lengths, g.hub, sources, L)
        touched = set((offsets.searchsorted(sources, "right") - 1).tolist()) - {-1}
        seen["repeated"] += len(set(sources)) < len(sources)
        seen["head"] += g.hub and 0 in sources
        seen["burned"] += any(times[s] < i for i, s in enumerate(sources, 1))
        seen["untouched arm"] += g.hub and len(touched) < len(lengths)
        seen["untouched component"] += not g.hub and len(touched) < len(lengths)
    assert min(seen.values()) > 100 and len(seen) == 5, seen


def _floyd_warshall(n, edges):
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for di in d:
            dik = di[k]
            if dik == inf:
                continue
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def test_csr_kernel_matches_the_distance_formula_on_random_graphs():
    # Vertices at or past `core` have no edges, and sources may repeat (a
    # repeated ignition is a no-op): first burn is still min_i (i + d(s_i, v)).
    rng = random.Random(20240917)
    for _ in range(200):
        n = rng.randint(1, 40)
        core = rng.randint(1, n)
        edges = set()
        for _ in range(rng.randint(0, 2 * core)):
            u, v = rng.randrange(core), rng.randrange(core)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = LabeledGraph(range(n), sorted(edges))
        sources = [rng.randrange(n) for _ in range(rng.randint(0, n + 3))]
        dist = _floyd_warshall(n, edges)
        inf = float("inf")
        expected = []
        for v in range(n):
            first = min((i + dist[s][v] for i, s in enumerate(sources, 1)), default=inf)
            expected.append(-1 if first == inf else first)
        got = csr(g, sources)
        assert got.dtype == np.int32
        assert got.tolist() == expected, (n, sorted(edges), sources)


def test_sorted_unique_is_np_unique():
    # The one deduplication the kernels and the edge-list build use, against
    # np.unique, which numpy 1.24 computes by sorting and numpy 2.3 and later
    # through a hash table: same values, same dtype, a fresh array.
    rng = np.random.default_rng(20261020)
    cases = [
        np.empty(0, dtype=np.int64),
        np.array([7], dtype=np.int32),
        np.full(9, -3, dtype=np.intp),
        np.arange(-5, 20, dtype=np.int64),
        np.arange(30, dtype=np.int32)[::-1],
        np.repeat(np.arange(12, dtype=np.intp), 3)[::-1],
    ]
    for dtype in (np.int32, np.int64, np.intp):
        for size in (2, 17, 1000, 40_000):
            cases.append(rng.integers(-size, size, size=size, dtype=dtype))
            cases.append(rng.integers(0, 4, size=size, dtype=dtype))
    for values in cases:
        before = values.copy()
        got = engine.sorted_unique(values)
        want = np.unique(values)
        assert got.dtype == want.dtype and np.array_equal(got, want), values
        assert np.array_equal(values, before) and not np.shares_memory(got, values)


def test_engine_exports_a_kernel():
    assert engine.KERNEL_NAME == "python"
    assert csr(path(2), [0]).tolist() == [1, 2]
