import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import neighbors, partitions, spider_arm_sets

from burnkit import (
    HEAD,
    InstanceError,
    LabeledGraph,
    PathForest,
    Spider,
    arm_vertex,
    ceil_sqrt,
    comp_vertex,
    format_vertex,
    graph_vertex,
    parse_vertex,
    path_center,
    path_forest_to_graph,
    spider_to_graph,
)
from burnkit import spider
from burnkit.burning import _CLOSED_FORM_MIN_ORDER
from burnkit.errors import InternalContradictionError
from burnkit.gen import random_path_forest, random_spider
from burnkit.model import HEAD_SEGMENT, MAX_ORDER, SegmentGraph


def test_ceil_sqrt_small():
    assert [ceil_sqrt(n) for n in range(10)] == [0, 1, 2, 2, 2, 3, 3, 3, 3, 3]


@given(st.integers(min_value=0, max_value=10**12))
def test_ceil_sqrt_defining_property(n):
    s = ceil_sqrt(n)
    assert s * s >= n
    assert s == 0 or (s - 1) * (s - 1) < n


def test_path_forest_canonicalizes_and_validates():
    pf = PathForest((3, 11, 7))
    assert pf.orders == (11, 7, 3)
    assert pf.n == 21 and pf.t == 3
    # the stored order takes no part in equality, hashing or repr
    assert pf == PathForest((7, 3, 11)) and hash(pf) == hash(PathForest((7, 3, 11)))
    assert repr(pf) == "PathForest(orders=(11, 7, 3))"
    with pytest.raises(InstanceError):
        PathForest(())
    with pytest.raises(InstanceError):
        PathForest((4, 0))


def test_spider_canonicalizes_and_validates():
    sp = Spider((1, 5, 2))
    assert sp.arms == (5, 2, 1)
    assert sp.n == 9 and sp.m == 3
    assert sp == Spider((2, 1, 5)) and hash(sp) == hash(Spider((2, 1, 5)))
    assert repr(sp) == "Spider(arms=(5, 2, 1))"
    with pytest.raises(InstanceError):
        Spider((4, 2))


def test_path_center_and_radius_against_bfs():
    # brute-force eccentricities on an explicit path
    for order in range(1, 201):
        eccs = [max(abs(i - j) for j in range(order)) for i in range(order)]
        assert order // 2 == min(eccs)  # the radius
        c = path_center(order)
        assert eccs[c] == min(eccs)
        assert all(eccs[i] > eccs[c] for i in range(c))  # leftmost such vertex


def test_vertex_round_trip():
    for v, kind in [
        (HEAD, "spider"),
        (arm_vertex(2, 9), "spider"),
        (comp_vertex(0, 7), "pf"),
        (comp_vertex(3, 0), "pf"),
        (graph_vertex("x7"), "graph"),
    ]:
        assert parse_vertex(format_vertex(v), kind) == v
    with pytest.raises(InstanceError):
        parse_vertex("a:1:2", "pf")
    with pytest.raises(InstanceError):
        parse_vertex("nonsense", "spider")


def test_path_forest_graph_shape():
    pf = PathForest((4, 2, 1))
    g = path_forest_to_graph(pf)
    assert g.order == 7
    assert len(g.csr()[1]) // 2 == 7 - 3  # n - t edges in a path forest
    assert neighbors(g, comp_vertex(0, 1)) == (comp_vertex(0, 0), comp_vertex(0, 2))
    assert neighbors(g, comp_vertex(2, 0)) == ()
    assert sorted(range(g.order), key=g.vertices.__getitem__) == list(range(7))


def test_spider_graph_shape():
    sp = Spider((3, 2, 1))
    g = spider_to_graph(sp)
    assert g.order == 7
    indptr, indices = g.csr()
    assert len(indices) // 2 == 6  # a tree
    assert indptr[1] - indptr[0] == 3  # the head, index 0, has degree 3
    assert neighbors(g, HEAD) == (arm_vertex(0, 1), arm_vertex(1, 1), arm_vertex(2, 1))
    assert neighbors(g, arm_vertex(0, 3)) == (arm_vertex(0, 2),)
    # canonical order visits arm vertices first, head last
    canon = sorted(range(g.order), key=g.vertices.__getitem__)
    assert g.vertices[canon[-1]] == HEAD


def test_labeled_graph_from_edges_matches_builder():
    pf = PathForest((5, 3))
    fast = path_forest_to_graph(pf)
    edges = []
    for comp, a in enumerate(pf.orders):
        edges += [(comp_vertex(comp, i), comp_vertex(comp, i + 1)) for i in range(a - 1)]
    slow = LabeledGraph(fast.vertices, [fast.indices_of(e) for e in edges])
    ip_f, idx_f = fast.csr()
    ip_s, idx_s = slow.csr()
    assert np.array_equal(ip_f, ip_s)
    assert np.array_equal(idx_f, idx_s)


def test_labeled_graph_rejects_bad_edges():
    v = (graph_vertex("a"), graph_vertex("b"), graph_vertex("c"))
    bad = {
        "not a vertex index": [((0, 3),), ((-1, 1),), np.array([[0, 1], [2, 5]])],
        r"self-loop at \('v', 'b'\)": [((0, 1), (1, 1))],
        "integer vertex indices": [
            ((0, 1.0),), ((0.5, 1),), ((v[0], v[1]),), ((0, 1, 2),), ((0, 1), (2,)),
        ],
    }
    for message, cases in bad.items():
        for edges in cases:
            with pytest.raises(InstanceError, match=message):
                LabeledGraph(v, edges)
    with pytest.raises(InstanceError, match="duplicate vertices"):
        LabeledGraph((graph_vertex("a"), graph_vertex("b"), graph_vertex("a")), ())
    # index pairs as a list or an array; repeats in either orientation collapse
    for edges in ([(2, 0), (0, 2), (1, 2)], np.array([[2, 0], [0, 2], [1, 2]], dtype=np.int32)):
        indptr, indices = LabeledGraph(v, edges).csr()
        assert indptr.tolist() == [0, 1, 2, 4] and indices.tolist() == [2, 2, 0, 1]


def test_labeled_graph_lookup():
    g = spider_to_graph(Spider((2, 1, 1)))
    assert g.indices_of([HEAD])[0] == 0
    assert g.vertices[g.indices_of([arm_vertex(0, 2)])[0]] == arm_vertex(0, 2)
    for v in (graph_vertex("nope"), arm_vertex(9, 9)):
        with pytest.raises(InstanceError):
            g.indices_of([v])


# Path-forest and spider graphs map ids to indices by arithmetic; these ids
# sit just outside a segment, where a missing bounds check would return a
# neighbouring or wrapped index instead of failing.
SPIDER_BAD_IDS = [
    arm_vertex(1, 0),  # position 0 would be offset - 1: the end of arm 0
    arm_vertex(0, 4),  # past arm 0 (length 3): the start of arm 1
    arm_vertex(2, 2),  # past the last arm: one beyond the final index
    arm_vertex(3, 1),  # arm index == m
    arm_vertex(-1, 1),
    arm_vertex(0, -1),
    comp_vertex(0, 1),  # wrong tag
    graph_vertex("head"),
    ("a", 0),
    ("a", 0, 1, 0),
    ("a", "0", 1),
    ("a", 0, 1.5),
    "head",
]

FOREST_BAD_IDS = [
    comp_vertex(0, 4),  # ("c", c, a_c): would be the first vertex of component 1
    comp_vertex(1, 2),
    comp_vertex(2, 1),  # past the last component
    comp_vertex(3, 0),  # component index == t
    comp_vertex(-1, 0),
    comp_vertex(0, -1),
    comp_vertex(1, -1),  # would be offset - 1: the end of component 0
    HEAD,
    arm_vertex(0, 1),  # wrong tag
    ("c", 0),
    ("c", None, 0),
]


def _bad_id_cases():
    return [
        (spider_to_graph(Spider((3, 2, 1))), SPIDER_BAD_IDS),
        (path_forest_to_graph(PathForest((4, 2, 1))), FOREST_BAD_IDS),
    ]


def test_arithmetic_lookup_rejects_ids_outside_the_segments():
    for g, bad_ids in _bad_id_cases():
        for v in bad_ids:
            with pytest.raises(InstanceError):
                g.indices_of([v])


def test_arithmetic_lookup_agrees_with_a_dict_over_the_ids():
    for g, bad_ids in _bad_id_cases():
        ids = list(g.vertices)
        index = {v: i for i, v in enumerate(ids)}
        # ids that compare equal to a vertex id are vertices, as in a dict
        equal = [(v[0], np.int64(v[1]), float(v[2])) for v in ids if len(v) == 3]
        equal += [(v[0], True, v[2]) for v in ids if len(v) == 3 and v[1] == 1]
        # in one pass too; the first id that is no vertex is named, as
        # format_vertex writes it
        assert g.indices_of(ids + equal) == [index[v] for v in ids + equal]
        with pytest.raises(InstanceError, match=re.escape(repr(format_vertex(bad_ids[0])))):
            g.indices_of(ids + bad_ids + equal)
        for v in ids + equal + bad_ids:
            if v in index:
                assert g.indices_of([v])[0] == index[v], v
            else:
                with pytest.raises(InstanceError):
                    g.indices_of([v])


def test_a_missing_id_is_named_as_written_or_by_its_repr():
    # ids of the families format_vertex writes are named that way; any
    # other id keeps its repr, on both graph classes
    graphs = [path_forest_to_graph(PathForest((4, 2))), LabeledGraph([graph_vertex("a")])]
    for g in graphs:
        for v in (("c", None, 0), ("a", "0", 1), ("v", 3), ("x",), 7):
            with pytest.raises(InstanceError, match=f"^{re.escape(repr(v))} is not a vertex"):
                g.indices_of([v])
        for v, name in ((comp_vertex(2, 0), "2:0"), (HEAD, "head"), (graph_vertex("b"), "b")):
            with pytest.raises(InstanceError, match=f"^'{name}' is not a vertex"):
                g.indices_of([v])


# (segment, position) pairs just outside the graph, as the constructions
# hand them to indices_at; plain arithmetic would map most of them to a
# neighbouring or wrapped index.  HEAD_SEGMENT is -1.
SPIDER_BAD_BALLS = [  # arms (3, 2, 1), positions 1-based
    (0, 4),  # position past the arm's length: the start of arm 1
    (1, 0),  # position 0 of an arm: the end of arm 0
    (0, -1),  # negative position
    (2, 2),  # past the last arm: one beyond the final index
    (3, 1),  # segment index == m
    (-2, 1),
    (HEAD_SEGMENT, 1),  # the head has position 0 only
    (HEAD_SEGMENT, -1),
]

FOREST_BAD_BALLS = [  # components (4, 2, 1), positions 0-based
    (0, 4),  # position == length: the first vertex of component 1
    (1, 2),
    (1, -1),  # negative position: the end of component 0
    (2, 1),  # past the last component
    (3, 0),  # segment index == t
    (-2, 0),
    (HEAD_SEGMENT, 0),  # a path forest has no head
]


def test_indices_at_refuses_positions_outside_the_graph():
    for g, bad in (
        (spider_to_graph(Spider((3, 2, 1))), SPIDER_BAD_BALLS),
        (path_forest_to_graph(PathForest((4, 2, 1))), FOREST_BAD_BALLS),
    ):
        # every vertex converts as its id does, the head included
        good = [(HEAD_SEGMENT, 0) if v == HEAD else v[1:] for v in g.vertices]
        segments, positions = zip(*good)
        assert g.indices_at(segments, positions) == list(range(g.order))
        for ball in bad:
            with pytest.raises(InternalContradictionError, match=re.escape(str(ball))):
                g.indices_at(*zip(*good, ball))


def test_constructions_surface_a_ball_outside_the_graph(monkeypatch):
    # A construction that hands over a ball off its graph fails loudly,
    # before any schedule is built from it.
    monkeypatch.setattr(spider, "_spider_pairs", lambda arms, n: [(HEAD_SEGMENT, 0, 2), (0, 4, 1)])
    with pytest.raises(InternalContradictionError, match=re.escape("(0, 4)")):
        spider.burn_spider(Spider((3, 2, 1)))
    monkeypatch.setattr(spider, "_path_pairs", lambda order: [(1, 1), (order, 0)])
    with pytest.raises(InternalContradictionError, match=re.escape("(0, 4)")):
        spider.burn_path(4)


def test_segment_vertices_behave_like_the_id_tuple():
    for g, _ in _bad_id_cases():
        ids = tuple(g.vertices)
        assert len(g.vertices) == len(ids) == g.order
        assert tuple(g.vertices[i] for i in range(g.order)) == ids
        assert g.vertices[-1] == ids[-1] and g.vertices[np.int32(2)] == ids[2]
        assert g.vertices[1:5] == ids[1:5] and g.vertices[::-2] == ids[::-2]
        with pytest.raises(IndexError):
            g.vertices[g.order]
        with pytest.raises(IndexError):
            g.vertices[-g.order - 1]
    assert not isinstance(LabeledGraph((graph_vertex("a"),)), SegmentGraph)


def test_spider_graph_matches_the_validated_constructor():
    sp = Spider((4, 3, 1, 1))
    fast = spider_to_graph(sp)
    edges = [(HEAD, arm_vertex(arm, 1)) for arm in range(sp.m)]
    for arm, length in enumerate(sp.arms):
        edges += [(arm_vertex(arm, j), arm_vertex(arm, j + 1)) for j in range(1, length)]
    slow = LabeledGraph(fast.vertices, [fast.indices_of(e) for e in edges])
    for a, b in zip(fast.csr(), slow.csr()):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    canon = sorted(range(slow.order), key=slow.vertices.__getitem__)
    assert fast.canonical_prefix(fast.order) == slow.canonical_prefix(slow.order) == canon


def _csr_rows(g):
    indptr, indices = g.csr()
    return [indices[indptr[i]:indptr[i + 1]].tolist() for i in range(g.order)]


def _validated_graph(ids):
    """LabeledGraph over ids, with the edges a path forest or spider has:
    consecutive positions of a segment, and the head to each arm's first
    vertex."""
    index = {v: i for i, v in enumerate(ids)}
    edges = []
    for v in ids:
        if v[0] == "c" and v[2] > 0:
            edges.append((index[comp_vertex(v[1], v[2] - 1)], index[v]))
        elif v[0] == "a":
            before = HEAD if v[2] == 1 else arm_vertex(v[1], v[2] - 1)
            edges.append((index[before], index[v]))
    return LabeledGraph(ids, edges)


def test_segment_neighbors_are_the_csr_rows():
    # Every small path forest and spider, then seeded large ones, one of
    # them with thousands of arms.  Neighbour rows are read before the CSR
    # arrays are packed from them, and all three views agree with a graph
    # built from an edge list.
    shapes = [path_forest_to_graph(PathForest(o)) for n in range(1, 13) for o in partitions(n)]
    shapes += [spider_to_graph(Spider(arms)) for arms in spider_arm_sets(14)]
    rng = random.Random(20261019)
    for n in (64, 500, 3000):
        shapes.append(path_forest_to_graph(random_path_forest(rng, n, rng.randint(1, n // 8))))
        shapes.append(spider_to_graph(random_spider(rng, n, rng.randint(3, n // 8))))
    shapes.append(spider_to_graph(random_spider(rng, 6000, 2500)))
    for g in shapes:
        ref = _validated_graph(tuple(g.vertices))
        rows = [np.asarray(g.neighbors(i)).tolist() for i in range(g.order)]
        assert rows == _csr_rows(ref), g.lengths
        for a, b in zip(g.csr(), ref.csr()):
            assert a.dtype == b.dtype and np.array_equal(a, b), g.lengths
        assert g.canonical_prefix(g.order) == ref.canonical_prefix(ref.order)


def test_both_graph_classes_answer_every_query_alike():
    # Every path forest and spider of order <= 14, and seeded ones at and
    # above the closed-form cutoff, as a SegmentGraph and as a LabeledGraph
    # over the same ids whose edges are listed independently: each query
    # the library asks of a graph gets the same answer from both.
    shapes = [path_forest_to_graph(PathForest(o)) for n in range(1, 15) for o in partitions(n)]
    shapes += [spider_to_graph(Spider(arms)) for arms in spider_arm_sets(14)]
    rng = random.Random(20261021)
    for n in (_CLOSED_FORM_MIN_ORDER, _CLOSED_FORM_MIN_ORDER + 1, 300):
        shapes.append(path_forest_to_graph(random_path_forest(rng, n, rng.randint(1, n // 4))))
        shapes.append(spider_to_graph(random_spider(rng, n, rng.randint(3, n // 4))))
    for g in shapes:
        n, ref = g.order, _validated_graph(list(g.vertices))
        assert isinstance(g, SegmentGraph) and not isinstance(ref, SegmentGraph)
        assert ref.order == n
        # index -> id -> index, all at once, with repeats and out of order
        idx = [*range(n), *(rng.randrange(n) for _ in range(5)), n - 1, 0]
        ids = ref.ids_of(idx)
        assert g.ids_of(np.asarray(idx)) == g.ids_of(idx) == ids
        assert g.indices_of(ids) == ref.indices_of(ids) == idx
        for a, b in zip(g.csr(), ref.csr()):
            assert a.dtype == b.dtype and np.array_equal(a, b), g.lengths
        for M in range(n + 3):
            assert g.canonical_prefix(M) == ref.canonical_prefix(M), (g.lengths, M)


def test_edge_list_neighbors_are_the_csr_rows():
    # each row holds a vertex's neighbours once, ascending, whatever the
    # orientation and order of the edges
    v = tuple(graph_vertex(x) for x in "abcde")
    g = LabeledGraph(v, [(3, 0), (0, 1), (4, 0), (1, 3)])
    assert _csr_rows(g) == [[1, 3, 4], [0, 3], [], [0, 1], [0]]


def test_segment_graph_builds_its_csr_once_when_asked(monkeypatch):
    asked = []
    real = SegmentGraph.neighbors
    monkeypatch.setattr(SegmentGraph, "neighbors", lambda self, i: asked.append(i) or real(self, i))
    g = spider_to_graph(Spider((3, 2, 1)))
    g.neighbors(0), g.neighbors(4), g.depth()
    assert asked == [0, 4]
    indptr, indices = g.csr()
    again = g.csr()
    assert asked == [0, 4, *range(g.order)]  # every row packed, once
    assert again[0] is indptr and again[1] is indices


def test_segment_graphs_refuse_orders_past_the_index_range():
    # Checked on the lengths alone, before anything of the order is
    # allocated; the largest order passes.
    for lengths, hub in (((MAX_ORDER + 1,), False), ((MAX_ORDER,), True),
                         ((MAX_ORDER // 2, MAX_ORDER // 2, 2), False)):
        with pytest.raises(InstanceError, match=str(MAX_ORDER)):
            SegmentGraph(lengths, hub)
    assert len(SegmentGraph((MAX_ORDER - 1,), hub=True)) == MAX_ORDER
    # lengths past int64 too: the order is checked before the conversion
    with pytest.raises(InstanceError, match=str(MAX_ORDER)):
        path_forest_to_graph(PathForest((2**64,)))
    with pytest.raises(InstanceError, match=str(MAX_ORDER)):
        spider_to_graph(Spider((2**64, 1, 1)))
