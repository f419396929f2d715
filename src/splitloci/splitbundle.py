"""Exact algebra of split vector bundles on the projective line.

A split bundle is determined by its splitting type, the weakly increasing
tuple of line-bundle degrees. This module provides the standard
constructions (dual, twist, tensor, Sym^2, wedge^2, End, Hom), cohomology
dimensions via h^0(O(d)) = max(0, d+1) and h^1(O(d)) = max(0, -d-1), the
expected codimension of a splitting locus, and the dominance partial order.
"""

from __future__ import annotations

import operator
from itertools import accumulate, combinations
from typing import Iterable

LESS_EQUAL = "less-equal"
GREATER_EQUAL = "greater-equal"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


class SplittingType:
    """Weakly increasing tuple of integer degrees; the constructor sorts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        tup = tuple(sorted(map(operator.index, parts)))
        if not tup:
            raise ValueError("empty splitting type")
        self.parts = tup

    def rank(self) -> int:
        return len(self.parts)

    def degree(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, SplittingType):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "SplittingType(%s)" % (self.parts,)

    def __str__(self):
        return "(%s)" % ",".join(map(str, self.parts))


def _coerce(e) -> SplittingType:
    return e if isinstance(e, SplittingType) else SplittingType(e)


def twist(e, m: int) -> SplittingType:
    e = _coerce(e)
    return SplittingType(p + m for p in e)


def dual(e) -> SplittingType:
    e = _coerce(e)
    return SplittingType(-p for p in e)


def tensor(e, f) -> SplittingType:
    e, f = _coerce(e), _coerce(f)
    return SplittingType(p + q for p in e for q in f)


def direct_sum(e, f) -> SplittingType:
    e, f = _coerce(e), _coerce(f)
    return SplittingType(tuple(e) + tuple(f))


def sym2(e) -> SplittingType:
    e = _coerce(e)
    parts = e.parts
    return SplittingType(parts[i] + parts[j]
                         for i in range(len(parts))
                         for j in range(i, len(parts)))


def wedge2(e) -> SplittingType:
    e = _coerce(e)
    parts = e.parts
    if len(parts) < 2:
        raise ValueError("rank too small")
    return SplittingType(parts[i] + parts[j]
                         for i in range(len(parts))
                         for j in range(i + 1, len(parts)))


def end(e) -> SplittingType:
    e = _coerce(e)
    return tensor(dual(e), e)


def hom(e, f) -> SplittingType:
    return tensor(dual(e), f)


def h0(e) -> int:
    e = _coerce(e)
    return sum(max(0, p + 1) for p in e)


def h1(e) -> int:
    e = _coerce(e)
    return sum(max(0, -p - 1) for p in e)


def chi(e) -> int:
    return h0(e) - h1(e)


def expected_codim(e) -> int:
    """h1(End(e)): End(e) has the parts e_j - e_i, and
    h1(O(a)) = max(0, -a - 1), so with e sorted the sum runs over the
    i < j with e_j - e_i > 1 of e_j - e_i - 1."""
    return sum([b - a - 1 for a, b in combinations(_coerce(e).parts, 2)
                if b - a > 1])


def dominates(e_lo, e_hi) -> str:
    """Compare two splitting types in the prefix-sum dominance order."""
    e_lo, e_hi = _coerce(e_lo), _coerce(e_hi)
    if e_lo.rank() != e_hi.rank() or e_lo.degree() != e_hi.degree():
        raise ValueError("incomparable families")
    lo = tuple(accumulate(e_lo.parts))
    hi = tuple(accumulate(e_hi.parts))
    le = all(a <= b for a, b in zip(lo, hi))
    ge = all(a >= b for a, b in zip(lo, hi))
    if le and ge:
        return EQUAL
    if le:
        return LESS_EQUAL
    if ge:
        return GREATER_EQUAL
    return INCOMPARABLE
