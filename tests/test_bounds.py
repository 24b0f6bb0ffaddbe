"""Closed-form bound values, exact ceiling arithmetic, and the sandwich."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partitions
from burnkit.bounds import BoundRow, bound_table, lower_bound, ub_floor, ub_sqrt
from burnkit.exact import exact_path_forest
from burnkit.model import PathForest, ceil_sqrt


def balanced(n, t):
    """Any forest with these totals works; bounds depend only on (n, t)."""
    return PathForest((n - t + 1,) + (1,) * (t - 1))


def test_bound_values_for_twelve_vertices():
    rows = {row.t: row for row in bound_table(12)}
    assert (rows[1].lower, rows[1].ub_floor, rows[1].ub_sqrt) == (4, 7, 4)
    assert (rows[3].lower, rows[3].ub_floor, rows[3].ub_sqrt) == (4, 5, 5)
    assert rows[5].ub_sqrt is None
    assert (rows[5].lower, rows[5].ub_floor) == (5, 6)
    assert rows[3].ratio == Fraction(5, 4)
    assert rows[5].ratio == Fraction(6, 5)
    assert rows[6].ratio == Fraction(7, 6)
    assert rows[12].ratio == 1


def test_function_forms_match_table():
    for n in (1, 2, 7, 12, 40):
        for row in bound_table(n):
            pf = balanced(n, row.t)
            assert lower_bound(pf) == row.lower
            assert ub_floor(pf) == row.ub_floor
            assert ub_sqrt(pf) == row.ub_sqrt
            upper = min(b for b in (row.ub_floor, row.ub_sqrt) if b is not None)
            assert row.ratio == Fraction(upper, row.lower)


def test_bound_table_yields_its_rows():
    rows = bound_table(50000)
    assert next(rows) == BoundRow(1, 224, 25001, 224, Fraction(1))
    assert sum(1 for _ in rows) == 49999


def test_single_vertex_table():
    rows = list(bound_table(1))
    assert len(rows) == 1
    assert rows[0] == BoundRow(1, 1, 1, 1, Fraction(1))
    with pytest.raises(ValueError):
        bound_table(0)


@given(st.integers(1, 10**6), st.integers(1, 2000))
def test_sqrt_bound_applicability(n, t):
    t = min(t, n)
    value = ub_sqrt(balanced(n, t))
    assert (value is None) == (t > ceil_sqrt(n))


@given(st.integers(1, 10**9), st.integers(1, 40000))
@settings(max_examples=300)
def test_sqrt_bound_is_the_exact_ceiling(n, t):
    # ub_sqrt must equal ceil(sqrt(n) + (t-1)/2); check the defining
    # inequalities with integer arithmetic only.
    t = min(t, ceil_sqrt(n))
    m = ub_sqrt(balanced(n, t))
    assert m is not None
    hi = 2 * m - t + 1
    assert hi >= 0 and hi * hi >= 4 * n
    lo = 2 * (m - 1) - t + 1
    assert lo < 0 or lo * lo < 4 * n


@given(st.integers(1, 10**9), st.integers(1, 10**6))
def test_lower_never_exceeds_uppers(n, t):
    t = min(t, n)
    pf = balanced(n, t)
    lo = lower_bound(pf)
    assert lo <= ub_floor(pf)
    s = ub_sqrt(pf)
    if s is not None:
        assert lo <= s


def test_bounds_sandwich_the_exact_value():
    for n in range(1, 13):
        for orders in partitions(n):
            pf = PathForest(orders)
            k, _ = exact_path_forest(pf)
            assert lower_bound(pf) <= k <= ub_floor(pf)
            s = ub_sqrt(pf)
            if s is not None:
                assert k <= s


def test_worst_ratio_at_ten_thousand_vertices():
    rows = list(bound_table(10000))
    best = max(row.ratio for row in rows)
    assert best == Fraction(3, 2)
    argmax = [row.t for row in rows if row.ratio == best]
    assert argmax == [100]
    by_t = {row.t: row.ratio for row in rows}
    assert by_t[99] == Fraction(149, 100)
    assert by_t[101] == Fraction(150, 101)
