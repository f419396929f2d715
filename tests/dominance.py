"""The prefix-sum dominance order on splitting types, as the tests'
reference for the order that `strata` computes with bitmasks
(`strata._below_masks`): e lies below f when e and f have the same rank
and degree and each prefix sum of e is at most the matching sum of f."""

from itertools import accumulate

from splitloci.splitbundle import SplittingType

LESS_EQUAL = "less-equal"
GREATER_EQUAL = "greater-equal"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


def dominates(e_lo, e_hi) -> str:
    """Compare two splitting types in the prefix-sum dominance order."""
    e_lo, e_hi = SplittingType(e_lo), SplittingType(e_hi)
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
