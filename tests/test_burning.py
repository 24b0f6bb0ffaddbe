"""Simulator semantics and the cover <-> schedule equivalence."""

import math
import random
from itertools import product

import numpy as np
import pytest

from conftest import neighbors, partitions, spider_arm_sets
from burnkit import burning, engine, model
from burnkit.burning import (
    completion,
    cover_from_schedule,
    schedule_from_cover,
    simulate,
    verify_schedule,
)
from burnkit.errors import (
    BudgetError,
    CoverageError,
    InstanceError,
    InternalContradictionError,
    VerificationError,
)
from burnkit.greedy import greedy_burn
from burnkit.model import (
    HEAD,
    BudgetedCover,
    BurnSchedule,
    LabeledGraph,
    PathForest,
    Spider,
    arm_vertex,
    ceil_sqrt,
    comp_vertex,
    path_center,
    path_forest_to_graph,
    spider_to_graph,
)
from burnkit.gen import random_path_forest, random_spider
from burnkit.spider import burn_spider


def pf_graph(*orders):
    return path_forest_to_graph(PathForest(orders))


def c(comp, pos):
    return comp_vertex(comp, pos)


def test_p4_two_sources_finish_in_two_rounds():
    g = pf_graph(4)
    burn_time, completion = simulate(g, [c(0, 1), c(0, 3)])
    assert completion == 2
    assert burn_time == {c(0, 0): 2, c(0, 1): 1, c(0, 2): 2, c(0, 3): 2}


def test_single_vertex_burns_in_one_round():
    g = pf_graph(1)
    burn_time, completion = simulate(g, [c(0, 0)])
    assert (burn_time, completion) == ({c(0, 0): 1}, 1)
    assert verify_schedule(g, BurnSchedule((c(0, 0),), 1))


def test_ignition_into_burned_vertex_is_a_noop():
    # The second source lands on an already burned vertex; nothing changes.
    g = pf_graph(3)
    with_noop, comp_a = simulate(g, [c(0, 1), c(0, 0)])
    without, comp_b = simulate(g, [c(0, 1)])
    assert with_noop == without
    assert comp_a == comp_b == 2


def test_unreached_component_forces_inf():
    g = pf_graph(3, 2)
    burn_time, completion = simulate(g, [c(0, 1)])
    assert completion == math.inf
    assert c(1, 0) not in burn_time and c(1, 1) not in burn_time
    assert burn_time[c(0, 1)] == 1


def test_simulate_rejects_bad_sources():
    g = pf_graph(3)
    with pytest.raises(InstanceError):
        simulate(g, [c(0, 0), c(0, 0)])
    with pytest.raises(InstanceError):
        simulate(g, [c(7, 0)])


def test_empty_graph_simulates_to_zero():
    g = LabeledGraph([])
    assert simulate(g, []) == ({}, 0)


def test_verify_schedule_checks_the_claim():
    g = pf_graph(4)
    assert verify_schedule(g, BurnSchedule((c(0, 1), c(0, 3)), 2))
    assert not verify_schedule(g, BurnSchedule((c(0, 0),), 2))
    assert verify_schedule(g, BurnSchedule((c(0, 0),), 4))


def test_cover_schedule_round_trip_on_p4():
    g = pf_graph(4)
    schedule = BurnSchedule((c(0, 1), c(0, 3)), 2)
    cover = cover_from_schedule(g, schedule)
    assert cover.pairs == ((c(0, 1), 1), (c(0, 3), 0))
    assert cover.budget == 2
    back = schedule_from_cover(g, cover)
    assert back == schedule


def test_cover_from_schedule_rejects_false_claims():
    g = pf_graph(4)
    with pytest.raises(VerificationError):
        cover_from_schedule(g, BurnSchedule((c(0, 0),), 2))


def count_burns(monkeypatch):
    """A list that grows by one for every run of either burn kernel."""
    calls = []
    for name in ("burn_times_csr", "burn_times_segments"):
        real = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *a, real=real: calls.append(1) or real(*a))
    return calls


def test_schedule_pads_with_fillers(monkeypatch):
    # One radius-1 ball covers P3 under budget 2; the second round gets a
    # filler source on the smallest unused vertex, in the same burn as the
    # center, and one more burn checks the schedule.
    g = pf_graph(3)
    cover = BudgetedCover(((c(0, 1), 1),), 2)
    burns = count_burns(monkeypatch)
    schedule = schedule_from_cover(g, cover)
    assert schedule == BurnSchedule((c(0, 1), c(0, 0)), 2)
    assert len(burns) == 2
    assert verify_schedule(g, schedule)


def test_budget_slack_is_enforced():
    with pytest.raises(BudgetError):
        BudgetedCover(((c(0, 0), 1), (c(0, 4), 1)), 2)
    with pytest.raises(BudgetError):
        BudgetedCover(((c(0, 0), 0), (c(0, 0), 0)), 2)
    with pytest.raises(BudgetError):
        BudgetedCover(((c(0, 0), -1),), 2)
    with pytest.raises(BudgetError):
        BudgetedCover(((c(0, 0), 0),), 0)
    with pytest.raises(InstanceError):
        BudgetedCover((), 3)


def test_budget_slack_reports_the_first_sorted_position_that_fails():
    # Sorted radii 3, 3, 2, 2 against budget 4: slack 3, 2, 1, 0, so
    # positions 2, 3 and 4 all exceed it, and the message names position 2;
    # against budget 5 only the last one does.
    pairs = ((c(0, 0), 2), (c(0, 1), 3), (c(0, 2), 2), (c(0, 3), 3))
    with pytest.raises(BudgetError) as info:
        BudgetedCover(pairs, 4)
    assert str(info.value) == "radius 3 at sorted position 2 exceeds budget slack 4 - 2"
    with pytest.raises(BudgetError) as info:
        BudgetedCover(pairs, 5)
    assert str(info.value) == "radius 2 at sorted position 4 exceeds budget slack 5 - 4"
    assert BudgetedCover(pairs, 6).pairs == pairs
    with pytest.raises(BudgetError) as info:
        BudgetedCover(((c(0, 0), 0), (c(0, 1), 0)), 1)
    assert str(info.value) == "radius 0 at sorted position 2 exceeds budget slack 1 - 2"


def test_radii_budgets_and_claims_must_be_integers():
    # Neither truncated nor parsed: 1.7 is no radius 1, "1" no radius.
    for radius in (1.7, 1.0, "1", None):
        with pytest.raises(BudgetError):
            BudgetedCover(((c(0, 0), radius),), 3)
    for budget in (2.5, 2.0, "2"):
        with pytest.raises(BudgetError):
            BudgetedCover(((c(0, 0), 0),), budget)
    for claimed in (2.5, 2.0, "2"):
        with pytest.raises(InstanceError):
            BurnSchedule((c(0, 0),), claimed)
    # integer types other than int are taken at their value
    cover = BudgetedCover(((c(0, 0), np.int64(1)),), np.int32(2))
    assert cover.pairs == ((c(0, 0), 1),) and cover.budget == 2
    assert type(cover.pairs[0][1]) is int and type(cover.budget) is int
    assert BurnSchedule((c(0, 0),), np.int64(3)).claimed_time == 3


def test_non_covering_cover_fails_within_budget():
    # Tight budget, unreachable second component: no progress is possible
    # once the sources run out.
    g = pf_graph(3, 2)
    cover = BudgetedCover(((c(0, 1), 1),), 2)
    with pytest.raises(CoverageError):
        schedule_from_cover(g, cover)


def test_slow_burn_exceeding_budget_fails():
    # Connected, so the fire does spread everywhere, just not fast enough.
    g = pf_graph(5)
    cover = BudgetedCover(((c(0, 0), 1),), 2)
    with pytest.raises(CoverageError):
        schedule_from_cover(g, cover)


def test_schedule_from_cover_rejects_empty_graph():
    with pytest.raises(InstanceError):
        schedule_from_cover(LabeledGraph([]), BudgetedCover(((c(0, 0), 0),), 1))


def test_schedule_from_cover_checks_the_construction(monkeypatch):
    # The built schedule is simulated independently: a construction whose
    # claimed completion is off, either way, is an internal fault.
    g = pf_graph(3)
    cover = BudgetedCover(((c(0, 1), 1),), 3)  # the center alone burns by round 2
    for claimed in (1, 3):
        monkeypatch.setattr(burning, "_schedule_sequential", lambda *a, t=claimed: ([1], t))
        with pytest.raises(InternalContradictionError):
            schedule_from_cover(g, cover)


def center_cover(orders):
    """One center ball per component, budget as small as the slack allows."""
    comps = sorted(range(len(orders)), key=lambda i: -orders[i])
    pairs = tuple(
        (c(i, path_center(orders[i])), orders[i] // 2) for i in comps
    )
    budget = max(r + k for k, (_, r) in enumerate(pairs, start=1))
    return BudgetedCover(pairs, budget)


def test_constructed_covers_complete_within_budget():
    for n in range(1, 11):
        for orders in partitions(n):
            g = pf_graph(*orders)
            cover = center_cover(orders)
            schedule = schedule_from_cover(g, cover)
            assert schedule.claimed_time <= cover.budget
            assert verify_schedule(g, schedule)
            _, completion = simulate(g, schedule.sources)
            assert completion == schedule.claimed_time


def big_cover(orders, budget):
    """Tile each component left to right with shrinking balls."""
    pairs = []
    r = budget - 1
    for i, a in enumerate(orders):
        pos = 0
        while pos < a:
            ctr = min(pos + r, a - 1)
            pairs.append((c(i, ctr), r))
            pos = ctr + r + 1
            r -= 1
    return BudgetedCover(tuple(pairs), budget)


def reference_schedule(g, cover):
    """(sources, completion) of the construction schedule_from_cover states.

    Built round by round with simulate as the only model of the fire:
    after the spread of round t, a vertex is burned exactly when its
    simulated round under the sources chosen so far is at most t.
    """
    centers = [v for v, _ in sorted(cover.pairs, key=lambda p: -p[1])]
    smallest_first = sorted(g.vertices)
    sources = []
    t = 0
    while True:
        rounds, completion = simulate(g, sources)
        if completion <= t:
            break
        t += 1
        unburned = [v for v in smallest_first if rounds.get(v, math.inf) > t]
        if t <= len(centers):
            if centers[t - 1] in unburned:
                pick = centers[t - 1]
            elif unburned:
                pick = unburned[0]
            else:
                break
        elif len(sources) < cover.budget:
            pick = next(v for v in smallest_first if v not in sources)
        else:
            break
        sources.append(pick)
    return sources, simulate(g, sources)[1]


def matches_reference(g, cover) -> bool:
    """Assert schedule_from_cover agrees with the reference; True if it covers."""
    sources, completion = reference_schedule(g, cover)
    if completion > cover.budget:
        reason = "unreachable" if completion == math.inf else "within its budget"
        with pytest.raises(CoverageError, match=reason):
            schedule_from_cover(g, cover)
        return False
    assert schedule_from_cover(g, cover) == BurnSchedule(tuple(sources), completion)
    return True


def random_cover(rng, g):
    """Mostly maximal radii on random centers, a fifth of them repeating an
    earlier center and a fifth adjacent to one; budget and count near
    sqrt(n)."""
    root = ceil_sqrt(g.order)
    budget = root + rng.randint(0, 2 * root)
    pairs = []
    for i in range(1, rng.randint(1, budget) + 1):
        u = rng.random()
        if pairs and u < 0.2:
            v = rng.choice(pairs)[0]
        elif pairs and u < 0.4:
            v = rng.choice(neighbors(g, rng.choice(pairs)[0]) or (pairs[0][0],))
        else:
            v = g.vertices[rng.randrange(g.order)]
        r = budget - i if rng.random() < 0.8 else rng.randint(0, budget - i)
        if (v, r) not in pairs:
            pairs.append((v, r))
    return BudgetedCover(tuple(pairs), budget)


def test_fast_path_matches_sequential_construction():
    # Large tilings, above the order at which the kernel changes, give the
    # same schedule as the round-by-round reference.
    for orders, budget in (((300,), 18), ((200, 80, 40), 19), ((500, 1), 23)):
        g = pf_graph(*orders)
        assert g.order >= burning._CLOSED_FORM_MIN_ORDER
        cover = big_cover(orders, budget)
        assert matches_reference(g, cover)
        assert verify_schedule(g, schedule_from_cover(g, cover))


def test_fast_path_defers_center_replacement():
    # The second center is adjacent to the first, so it is burned before its
    # own round and is replaced by the smallest unburned vertex; the third
    # center is then burned too and is replaced in turn.
    g = pf_graph(300)
    pairs = ((c(0, 150), 149), (c(0, 151), 16), (c(0, 0), 15))
    cover = BudgetedCover(pairs, 151)
    assert matches_reference(g, cover)
    schedule = schedule_from_cover(g, cover)
    assert schedule.sources[:3] == (c(0, 150), c(0, 0), c(0, 2))
    assert verify_schedule(g, schedule)


def test_schedule_from_cover_matches_the_reference_construction(monkeypatch):
    for n in range(1, 11):
        for orders in partitions(n):
            assert matches_reference(pf_graph(*orders), center_cover(orders))
    # One component is out of every ball's reach, yet fillers burn it in
    # time; and one radius-0 ball whose path burns from both ends.
    cover = BudgetedCover(((c(1, 149), 149),), 460)
    assert matches_reference(pf_graph(300, 299), cover)
    assert schedule_from_cover(pf_graph(300, 299), cover).claimed_time == 301
    cover = BudgetedCover(((c(0, 399), 0),), 300)
    assert matches_reference(pf_graph(400), cover)
    assert schedule_from_cover(pf_graph(400), cover).claimed_time == 201
    # The second center burns from the first, and its replacement lies in
    # a component the first burn never reaches.
    cover = BudgetedCover(((c(0, 1), 0), (c(0, 0), 0)), 2)
    assert matches_reference(pf_graph(3, 1), cover)
    assert schedule_from_cover(pf_graph(3, 1), cover) == BurnSchedule((c(0, 1), c(1, 0)), 2)

    # Seeded covers on both sides of the order at which the kernel and the
    # construction's burn state change, then each under both kernels and
    # both states.
    rng = random.Random(20261018)
    cutoff = burning._CLOSED_FORM_MIN_ORDER
    cases = []
    for i in range(320):
        n = rng.randint(4, cutoff - 1) if i % 2 else rng.randint(cutoff, 2 * cutoff)
        if rng.random() < 0.5:
            g = path_forest_to_graph(random_path_forest(rng, n, rng.randint(1, min(n, 6))))
        else:
            g = spider_to_graph(random_spider(rng, n, rng.randint(3, min(n - 1, 8))))
        cases.append((g, random_cover(rng, g)))
    outcomes = {matches_reference(g, cover) for g, cover in cases}
    assert outcomes == {True, False}
    for cutoff in (0, 10**9):
        monkeypatch.setattr(burning, "_CLOSED_FORM_MIN_ORDER", cutoff)
        assert {matches_reference(g, cover) for g, cover in cases} == outcomes


def replacements(cover, schedule):
    """How many centers the schedule replaced, in radius order."""
    centers = [v for v, _ in sorted(cover.pairs, key=lambda p: -p[1])]
    return sum(a != b for a, b in zip(centers, schedule.sources))


def random_edge_graph(rng):
    """A small graph from an edge list: sparse or dense, often disconnected."""
    n = rng.randint(1, 24)
    ids = [model.graph_vertex(f"x{rng.randrange(1000)}-{i}") for i in range(n)]
    p = rng.choice((0.05, 0.15, 0.4))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return LabeledGraph(ids, edges)


def test_edge_list_covers_match_the_reference_construction():
    # Edge-list graphs read their rows from the CSR arrays; their ids sort
    # apart from their indices, so replacements and fillers follow the
    # canonical order, not the index order.
    rng = random.Random(20261020)
    outcomes = set()
    for _ in range(300):
        g = random_edge_graph(rng)
        outcomes.add(matches_reference(g, random_cover(rng, g)))
    assert outcomes == {True, False}


def test_several_replacements_in_one_schedule(monkeypatch):
    # The second and third centers sit next to the first, so each is
    # burned before its round and replaced by the smallest unburned vertex;
    # the fourth, 0:1, burns only through the first replacement, 0:0, so
    # it is caught only by reading the burn again after a replacement.
    # Both graphs take the closed form and its burn state, though below
    # their cutoff.
    monkeypatch.setattr(burning, "_CLOSED_FORM_MIN_ORDER", 0)
    g = pf_graph(60)
    pairs = ((c(0, 30), 29), (c(0, 31), 5), (c(0, 29), 4), (c(0, 1), 3), (c(0, 45), 2))
    cover = BudgetedCover(pairs, 30)
    assert matches_reference(g, cover)
    burns = count_burns(monkeypatch)
    schedule = schedule_from_cover(g, cover)
    assert replacements(cover, schedule) == 3
    # the passes, one per replacement and one more, read burn states built
    # from the sources alone: the one kernel run checks the schedule
    assert len(burns) == 1
    assert schedule.sources[:5] == (c(0, 30), c(0, 0), c(0, 2), c(0, 4), c(0, 45))

    sp = Spider((15, 15, 15))  # order 46
    g = spider_to_graph(sp)
    pairs = ((HEAD, 15), *((arm_vertex(i, 1), 5 - i) for i in range(3)), (arm_vertex(2, 14), 1))
    cover = BudgetedCover(pairs, 20)
    assert matches_reference(g, cover)
    schedule = schedule_from_cover(g, cover)
    assert replacements(cover, schedule) >= 3
    assert schedule.sources[:4] == (HEAD, arm_vertex(0, 2), arm_vertex(0, 4), arm_vertex(0, 6))


def test_hub_center_burned_through_an_arm_start(monkeypatch):
    # The head's round is its own center's round, but an arm start burned
    # a round earlier, so the head had caught fire by then: only the min
    # over the arm starts shows it.  Under both kernels.
    for arms, cutoff in product(((4, 3, 3), (20, 20, 20)), (0, 10**9)):
        monkeypatch.setattr(burning, "_CLOSED_FORM_MIN_ORDER", cutoff)
        g = spider_to_graph(Spider(arms))
        cover = BudgetedCover(((arm_vertex(1, 1), 20), (HEAD, 3), (arm_vertex(0, 4), 2)), 22)
        assert matches_reference(g, cover)
        schedule = schedule_from_cover(g, cover)
        assert schedule.sources[1] != HEAD
        # with the first ball three steps from the head, the head is its
        # own center
        cover = BudgetedCover(((arm_vertex(1, 3), 20), (HEAD, 19)), 22)
        assert matches_reference(g, cover)
        assert schedule_from_cover(g, cover).sources[1] == HEAD


def kept_lengths(g) -> dict[str, int]:
    """The length of every array, string or list a segment graph keeps, by
    attribute, in its slots (ints and None left out)."""
    kept = {}
    for name in type(g).__slots__:
        value = getattr(g, name)
        if value is not None and not isinstance(value, int):
            kept[name] = value.size if isinstance(value, np.ndarray) else len(value)
    return kept


def test_path_forest_graph_keeps_nothing_per_vertex_after_burns():
    # The closed form reads a path forest's offsets alone, so after many
    # burns neither the graph nor its vertices hold anything longer than
    # the component count.
    pf = PathForest((50,) * 30 + (7,) * 10)
    _, schedule, _ = greedy_burn(pf)
    g = path_forest_to_graph(pf)
    for _ in range(3):
        assert verify_schedule(g, schedule)
        assert simulate(g, schedule.sources)[1] <= schedule.claimed_time
        assert completion(g, schedule.sources[:1]) == math.inf
    kept = kept_lengths(g)
    assert kept and max(kept.values()) <= pf.t, kept


def test_segment_graphs_keep_nothing_per_vertex_before_a_burn():
    # Built from the runs of equal lengths, a spider of many arms and a
    # path forest hold nothing longer than their segment count until they
    # burn: no canonical order, no depths, no CSR arrays.  The canonical
    # order is computed when asked for, all of it here, and not kept.  The
    # first burn gives the spider its depths, one per arm vertex, and
    # nothing else.
    sp, pf = Spider((3,) * 50_000), PathForest((50,) * 30 + (7,) * 10)
    for g, segments in ((spider_to_graph(sp), sp.m), (path_forest_to_graph(pf), pf.t)):
        kept = kept_lengths(g)
        assert max(kept.values()) <= segments, kept
        assert len(g.canonical_prefix(g.order + 1)) == g.order
        assert kept_lengths(g) == kept
    g = spider_to_graph(sp)
    assert completion(g, [arm_vertex(0, 3)]) == 1 + 3 + 3
    kept = kept_lengths(g)
    assert kept.pop("_depth") == g.order - 1
    assert max(kept.values()) <= sp.m, kept


def test_large_segment_graphs_schedule_with_nothing_per_vertex():
    # From the cutoff up the construction reads burn states built from the
    # sources, and only the check burns through the kernel: after
    # schedule_from_cover a path forest holds nothing longer than its
    # component count, and a spider nothing but its arm depths, which
    # that check computes.
    cutoff = burning._CLOSED_FORM_MIN_ORDER
    pf, sp = PathForest((cutoff // 2,) * 5 + (3,) * 4), Spider((cutoff // 2,) * 4 + (2,) * 3)
    for g, segments in ((path_forest_to_graph(pf), pf.t), (spider_to_graph(sp), sp.m)):
        assert g.order >= cutoff
        # the second center burns before its round and is replaced
        pairs = ((g.vertices[g.order // 2], g.order), (g.vertices[g.order // 2 + 1], 3))
        cover = BudgetedCover(pairs, g.order + 2)
        assert matches_reference(g, cover)
        assert replacements(cover, schedule_from_cover(g, cover)) == 1
        kept = kept_lengths(g)
        assert kept.pop("_depth", g.order - 1) == g.order - 1
        assert max(kept.values()) <= segments, kept


def bfs_distances(g) -> list[list[int | float]]:
    """All distances of g by BFS over its CSR rows, inf between components."""
    n, (indptr, indices) = g.order, g.csr()
    dist = []
    for s in range(n):
        d, frontier = [math.inf] * n, [s]
        d[s] = 0
        while frontier:
            reached = []
            for u in frontier:
                for v in indices[indptr[u]:indptr[u + 1]].tolist():
                    if d[v] == math.inf:
                        d[v] = d[u] + 1
                        reached.append(v)
            frontier = reached
        dist.append(d)
    return dist


def reference_sequential(g, dist, center_idx, M):
    """(index sources, completion) of _schedule_sequential, built round by
    round: fillers and replacements come from the ids sorted one by one,
    and a vertex burns at min_i (i + d(s_i, v))."""
    canon = sorted(range(g.order), key=g.vertices.__getitem__)
    burned = [math.inf] * g.order  # each vertex's round under the sources so far
    sources, t = [], 0
    while max(burned) > t:
        t += 1
        if t <= len(center_idx):
            c = center_idx[t - 1]
            pick = c if burned[c] > t else next((v for v in canon if burned[v] > t), None)
            if pick is None:  # the spread of round t burned the graph
                break
        elif len(sources) < M:
            pick = next(v for v in canon if v not in sources)
        else:
            break
        sources.append(pick)
        burned = [min(b, t + d) for b, d in zip(burned, dist[pick])]
    return sources, max(burned)


def test_arithmetic_fillers_and_replacements_match_the_sorted_ids(monkeypatch):
    # Every path forest and spider of order <= 14, under both kernels, with
    # seeded centers (repeated or already burned ones get replaced) and
    # budgets up to past the order, so that a spider's head comes last among the
    # fillers.  The picks by index arithmetic agree with the ids sorted one
    # by one, and so does the whole construction.
    shapes = [path_forest_to_graph(PathForest(o)) for n in range(1, 15) for o in partitions(n)]
    shapes += [spider_to_graph(Spider(arms)) for arms in spider_arm_sets(14)]
    rng = random.Random(20261020)
    cases = []
    for g in shapes:
        n, dist = g.order, bfs_distances(g)
        canon = sorted(range(n), key=g.vertices.__getitem__)
        assert all(g.canonical_prefix(M) == canon[:M] for M in range(n + 3))
        for _ in range(3):
            # seeded sources, ignited in index order: the BFS's burn state
            # names the first unburned vertex after every round as the ids
            # sorted do, under a vertex's round min_i (i + d(s_i, v))
            mask = np.array([rng.random() < 0.3 for _ in range(n)])
            mask[rng.randrange(n)] = True
            sources = np.flatnonzero(mask).tolist()
            rounds = [min(i + dist[s][v] for i, s in enumerate(sources, 1)) for v in range(n)]
            state = burning._KernelBurn(g, sources)
            for L in range(min(max(rounds), n + 1)):
                assert state.first_unburned(L) == next(v for v in canon if rounds[v] > L)
            k = rng.randint(1, min(n, 5))
            centers = [rng.randrange(n) for _ in range(k)]
            M = k + rng.randint(0, n)
            cases.append((g, centers, M, reference_sequential(g, dist, centers, M)))
    replaced = sum(any(a != b for a, b in zip(c, ref[0])) for _, c, _, ref in cases)
    past_order = sum(M >= g.order and g.hub for g, _, M, _ in cases)
    assert replaced > 1000 and past_order > 100, (replaced, past_order)
    for cutoff in (0, 10**9):
        monkeypatch.setattr(burning, "_CLOSED_FORM_MIN_ORDER", cutoff)
        for g, centers, M, expected in cases:
            got = burning._schedule_sequential(g, centers, M)
            assert got == expected, (g.vertices[:], centers, M)


def test_large_segment_graphs_build_no_csr(monkeypatch):
    # From the closed-form cutoff up, a path forest or spider schedules,
    # verifies and simulates without adjacency arrays.  A spider computes
    # its arm depths once however often it is burned, a path forest never.
    def refuse(self):
        raise AssertionError("CSR arrays built for a large segment graph")

    depths = []
    real_depth = model.arm_depth
    # the class a path forest or spider graph has, so the patch is live
    assert type(path_forest_to_graph(PathForest((1,)))) is model.SegmentGraph
    assert type(spider_to_graph(Spider((1, 1, 1)))) is model.SegmentGraph
    monkeypatch.setattr(model.SegmentGraph, "csr", refuse)
    monkeypatch.setattr(model, "arm_depth", lambda lens: depths.append(1) or real_depth(lens))
    rng = random.Random(20261019)
    cutoff = burning._CLOSED_FORM_MIN_ORDER
    forests = [PathForest((cutoff,)), PathForest((40, 23, 1)), random_path_forest(rng, 5000, 60)]
    for pf in forests:
        _, schedule, _ = greedy_burn(pf)
        g = path_forest_to_graph(pf)
        assert verify_schedule(g, schedule)
        assert simulate(g, schedule.sources)[1] <= schedule.claimed_time
    head_ball = random_spider(rng, 20000, 4000)  # no arm reaches 2a - 1
    split = Spider((500, 10, 10))  # the longest arm is split first
    for sp, first in ((head_ball, (HEAD, 141)), (split, (arm_vertex(0, 478), 22))):
        cover, schedule = burn_spider(sp)
        assert cover.pairs[0] == first
        g = spider_to_graph(sp)
        assert verify_schedule(g, schedule)
        assert simulate(g, schedule.sources)[1] <= schedule.claimed_time
    # A replaced center: the second ball's center burns at round 2, so the
    # smallest unburned vertex, next to the head, is ignited instead and
    # the replacement's spread crosses the head into every arm.
    g = spider_to_graph(Spider((30,) * 5))
    cover = BudgetedCover(((arm_vertex(0, 30), 59), (arm_vertex(0, 29), 10)), 60)
    schedule = schedule_from_cover(g, cover)
    assert schedule.sources[:2] == (arm_vertex(0, 30), arm_vertex(0, 1))
    assert schedule.claimed_time == 33
    # Each spider graph built above computed its depths once, though each
    # was burned at least twice: one graph per burner call and one per
    # check for both spiders, then the last spider.  No forest did.
    assert len(depths) == 2 * 2 + 1
