"""Closed-form bounds on the burning number of a path forest.

All arithmetic is exact integer arithmetic (isqrt plus squared
comparisons); floating point is never consulted.  For a path forest with
n vertices and t components:

    lower:    max(ceil(sqrt(n)), t)
    ub_floor: floor(n / (2t)) + t
    ub_sqrt:  ceil(sqrt(n) + (t-1)/2),  valid only when t <= ceil(sqrt(n))

The ceiling in ub_sqrt is computed as (ceil_sqrt(4n) + t) // 2, using
ceil((x + k)/2) = ceil((ceil(x) + k)/2) for integer k with x = 2*sqrt(n).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .model import PathForest, ceil_sqrt


def lower_bound(pf: PathForest) -> int:
    return _lower(ceil_sqrt(pf.n), pf.t)


def ub_floor(pf: PathForest) -> int:
    return _ub_floor(pf.n, pf.t)


def ub_sqrt(pf: PathForest) -> int | None:
    """None when the bound does not apply (t > ceil(sqrt(n)))."""
    return _ub_sqrt(ceil_sqrt(pf.n), ceil_sqrt(4 * pf.n), pf.t)


# The formulas, on t and the square roots of n that bound_table computes
# once for all its rows: root = ceil_sqrt(n), root4 = ceil_sqrt(4 n).
def _lower(root: int, t: int) -> int:
    return max(root, t)


def _ub_floor(n: int, t: int) -> int:
    return n // (2 * t) + t


def _ub_sqrt(root: int, root4: int, t: int) -> int | None:
    return None if t > root else (root4 + t) // 2


@dataclass(frozen=True)
class BoundRow:
    t: int
    lower: int
    ub_floor: int
    ub_sqrt: int | None
    ratio: Fraction


def bound_table(n: int) -> Iterator[BoundRow]:
    """One row per component count t = 1..n (balanced path forests of order n).

    The rows are yielded one at a time, so a table of any n takes O(1)
    memory; n < 1 raises at the call, not at the first row.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _rows(n)


def _rows(n: int) -> Iterator[BoundRow]:
    root, root4 = ceil_sqrt(n), ceil_sqrt(4 * n)
    for t in range(1, n + 1):
        lower = _lower(root, t)
        ubf = _ub_floor(n, t)
        ubs = _ub_sqrt(root, root4, t)
        best = ubf if ubs is None else min(ubf, ubs)
        yield BoundRow(t, lower, ubf, ubs, Fraction(best, lower))
