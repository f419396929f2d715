"""Exact row reduction of rational matrices, carried out in integers.

`echelon` is the package's one elimination routine. Each row is first
scaled by the lcm of its denominators, then Gauss-Jordan elimination
runs fraction-free (Bareiss 1968): a row is updated as
p * row - f * pivot_row and divided by its content, the gcd of its
entries. No fraction is ever formed, so the result is exact by
construction and the integers stay as small as the row space allows.
"""

from __future__ import annotations

from math import gcd, lcm
from numbers import Rational
from typing import List, Sequence, Tuple


def _primitive(row: List[int]) -> List[int]:
    content = gcd(*row)
    return [x // content for x in row] if content > 1 else row


def _integer_row(row: Sequence[Rational]) -> List[int]:
    scale = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (scale // x.denominator) for x in row])


def echelon(rows: Sequence[Sequence[Rational]]) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form of a matrix of ints or Fractions.

    Returns (reduced, pivots), one primitive integer row per pivot:
    reduced[k] has a positive entry in column pivots[k], its first
    nonzero column, and column pivots[k] is zero in every other row.
    The reduced-row-echelon entry (k, c) is
    Fraction(reduced[k][c], reduced[k][pivots[k]]); the rank is
    len(pivots).
    """
    m = [_integer_row(row) for row in rows]
    pivots: List[int] = []
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        pivot_row = m[r]
        p = pivot_row[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                m[i] = _primitive([a * x - b * y for x, y in zip(row, pivot_row)])
        pivots.append(c)
    return m[:len(pivots)], pivots


def rank(rows: Sequence[Sequence[Rational]]) -> int:
    return len(echelon(rows)[1])
