"""Enumeration of pair-splitting-type stratifications for degree-4 and
degree-5 covers of the projective line.

Each stratum is a pair (e, f) of splitting types subject to named
constraints: a table of integer-linear atoms in g and the parts. One
class, `Table`, also used for the hypotheses of the lemmas in `chowsym`,
compiles each table once into one generated function, `violated`, which
names the failing constraints; `check` validates its arguments and asks
it. `enumerate_strata` asks no table: its closed-form ranges list
exactly the admissible pairs, and tier-1 checks them against `CHECKS`
over the whole domain. The module computes codimensions, membership in
the good open locus Psi, forced linear-series flags, the product
dominance order with its Hasse diagram, union-of-strata codimension
checks, and the single-locus coincidence test used to realize a pair
stratum as one splitting locus. That test's rule asks every surviving
stratum below on the same axis to pass it too, so passing is the rule's
least fixpoint; it and the Hasse diagram share one routine of
prefix-sum bitmasks.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Sequence
from itertools import (accumulate, combinations,
                       combinations_with_replacement)

from . import splitbundle as sb
from .polynomial import Poly
from .record import FrozenRecord, Record
from .splitbundle import SplittingType

GENUS_MAX = 24


class ConstraintVerdict(FrozenRecord):
    # allowed: bool; violated: the names of the failing constraints
    __slots__ = ("allowed", "violated")


# a record's DOT node id, from the texts of its e and f
NODE_ID = "e=%s|f=%s"


class StratumRecord(Record):
    __slots__ = ("genus", "cover_degree", "e", "f", "codim", "expected_e",
                 "expected_f", "correction", "in_psi", "flags", "label",
                 "lower_gonality")

    # the enumerator builds one per accepted pair, and Record's generic
    # __init__ takes about ten times as long
    def __init__(self, genus: int, cover_degree: int, e: SplittingType,
                 f: SplittingType, codim: int, expected_e: int,
                 expected_f: int, correction: int, in_psi: bool,
                 flags: tuple[str, ...], label: str | None = None,
                 lower_gonality: bool = False):
        self.genus = genus
        self.cover_degree = cover_degree
        self.e = e
        self.f = f
        self.codim = codim
        self.expected_e = expected_e
        self.expected_f = expected_f
        self.correction = correction
        self.in_psi = in_psi
        self.flags = flags
        self.label = label
        self.lower_gonality = lower_gonality

    def key(self) -> tuple:
        return (self.e.parts, self.f.parts)

    def to_dict(self) -> dict:
        return {
            "e": list(self.e.parts),
            "f": list(self.f.parts),
            "codim": self.codim,
            "expected_e": self.expected_e,
            "expected_f": self.expected_f,
            "correction": self.correction,
            "in_psi": self.in_psi,
            "flags": list(self.flags),
            "label": self.label,
        }


# A stratum's point: its genus g and the sorted parts e1 <= e2 <= ... of e
# and f1 <= f2 <= ... of f, in which the lemmas' rows are written too.
G = Poly.var("g")
E = E1, E2, E3, E4 = tuple(Poly.var("e%d" % i) for i in range(1, 5))
F = F1, F2, F3, F4, F5 = tuple(Poly.var("f%d" % i) for i in range(1, 6))
RANKS = {4: (3, 2), 5: (4, 5)}  # of e and f, by cover degree
GENUS_MIN = {4: 5, 5: 7}


class AnyOf(tuple):
    """Atoms of which one must hold, where a plain tuple needs all."""


TET_CONSTRAINTS = {
    "TOTALDEG": ((E1 + E2 + E3 - G - 3, "=="), (F1 + F2 - G - 3, "==")),
    "E1MIN": ((E1 - 1, ">="),),
    "E3MAX": ((G + 3 - 2 * E3, ">="),),
    "NO0": ((2 * E1 - F1, ">="),),
    "Q12VAN": ((2 * E2 - F2, ">="),),
    "CONDITIONAL": AnyOf([(E1 + E3 - F2, ">="), (F1 - 2 * E1, "==")]),
}

# L1..L7 on a degree-5 pair (e, f): each entry (name, a, b, k), with
# a < b, requires f[a] + f[b] + e[k] >= g + 4 (0-based indices into the
# parts). The f generator reads its pair bounds and caps off them.
PENT_LINEAR = (("L1", 0, 2, 3), ("L2", 0, 3, 2), ("L3", 1, 2, 2),
               ("L4", 1, 4, 0), ("L5", 2, 3, 0), ("L6", 0, 4, 1),
               ("L7", 1, 3, 1))

PENT_CONSTRAINTS = {
    "SUM_E": ((E1 + E2 + E3 + E4 - G - 4, "=="),),
    "SUM_F": ((F1 + F2 + F3 + F4 + F5 - 2 * G - 8, "=="),),
    "E1RANGE": ((10 * E1 - G - 4, ">="), (G + 4 - 4 * E1, ">=")),
    "E4MAX": ((2 * G + 8 - 5 * E4, ">="),),
    "TOPF": ((2 * E4 - F5, ">="),),
    **{name: ((F[a] + F[b] + E[k] - G - 4, ">="),)
       for name, a, b, k in PENT_LINEAR},
}


class Table:
    """Named constraints on the strata of one cover degree, each a tuple
    or an AnyOf of atoms. An atom (form, relation) is the condition
    `form relation 0`, relation ">=", "==" or "!=", and x > y is written
    x - y - 1 >= 0. Each atom is read once into its constant, its
    multiple of g, sparse integer terms over the parts (e1, ..., f1, ...)
    and its relation; a form not integer-linear in g and the parts, or a
    constraint with no atoms, raises ValueError.

    The atoms are then compiled, in one generated module whose text is
    kept as `source`, into one function `violated(g, parts)`, with parts
    the parts of e followed by those of f. Each constraint is one clause,
    a tuple the `and` of its atoms and an AnyOf their `or`, each atom a
    literal `c1*e1 + ... + cg*g relation -c0`, and `violated` returns
    the names of the failing clauses in table order, `()` for an allowed
    stratum. Callers that pass valid parts, such as the lemma
    hypotheses, call it directly; `check` validates its arguments first."""

    def __init__(self, degree: int, constraints: dict[str, Sequence[tuple]]):
        self.ranks, self.genus_min = RANKS[degree], GENUS_MIN[degree]
        parts = [x + str(i) for x, n in zip("ef", self.ranks)
                 for i in range(1, n + 1)]
        clauses = []
        for name, atoms in constraints.items():
            if not atoms:
                raise ValueError("constraint %s has no atoms" % name)
            literals = []
            for form, relation in atoms:
                if (form.total_degree() > 1 or relation not in (">=", "==", "!=")
                        or not form.variables() <= {"g", *parts}
                        or not all(isinstance(c, int) for c in form.terms.values())):
                    raise ValueError("%s %s 0 is not an integer-linear atom in "
                                     "g, %s" % (form, relation, ", ".join(parts)))
                literals.append(_literal(form, relation))
            clauses.append("    if not (%s):\n        bad += (%r,)\n" % (
                (" or " if isinstance(atoms, AnyOf) else " and ").join(literals),
                name))
        self.source = ("def violated(g, parts):\n    %s = parts\n    bad = ()\n"
                       % ", ".join(parts) + "".join(clauses) + "    return bad\n")
        namespace: dict = {}
        exec(compile(self.source, "<Table %d>" % degree, "exec"), namespace)
        self.violated = namespace["violated"]

    def check(self, g: int, e, f) -> ConstraintVerdict:
        """The verdict on the stratum (e, f) of genus g; e and f are
        SplittingTypes or sequences of parts. A genus or part that is not
        an integer raises TypeError."""
        g = operator.index(g)
        e = e if isinstance(e, SplittingType) else SplittingType(e)
        f = f if isinstance(f, SplittingType) else SplittingType(f)
        if (len(e.parts), len(f.parts)) != self.ranks or g < self.genus_min:
            raise ValueError("degree-%d strata have genus >= %d, rank-%d e and "
                             "rank-%d f" % ((self.ranks[0] + 1, self.genus_min)
                                            + self.ranks))
        bad = self.violated(g, e.parts + f.parts)
        return ConstraintVerdict(not bad, bad)


def _literal(form: Poly, relation: str) -> str:
    """Python source of the atom `form relation 0`: the terms of the
    linear form compared with minus its constant."""
    text, constant = "", 0
    for monomial, c in form.terms.items():
        if not monomial:
            constant = c
        else:
            text += (" - " if c < 0 else " + ") + (
                "%d * %s" % (abs(c), monomial[0][0]) if abs(c) != 1
                else monomial[0][0])
    text = "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]
    return "%s %s %d" % (text, relation, -constant)


CHECKS = {4: Table(4, TET_CONSTRAINTS), 5: Table(5, PENT_CONSTRAINTS)}


def in_psi(record: StratumRecord) -> bool:
    """Membership of the record's pair in the good open locus Psi.

    Psi is cut out by 2*e1 - f2 >= -1 in degree 4 and by
    e1 + f1 + f2 - (g + 4) >= -1 in degree 5. For every genus this holds
    exactly when the correction term vanishes. The correction is a sum of
    terms max(0, t), so it is 0 exactly when its largest t is <= 0. With
    the parts sorted, the largest t is f2 - 2*e1 - 1 in degree 4 (the
    largest f_j minus the smallest e_i + e_k, i <= k) and
    g + 3 - e1 - f1 - f2 in degree 5 (the smallest e_i plus the smallest
    f_j + f_l, j < l), and in each case t <= 0 is the inequality above.
    The comparison below checks that at runtime.
    """
    e, f, g = record.e.parts, record.f.parts, record.genus
    if record.cover_degree == 4:
        answer = 2 * e[0] - f[1] >= -1
    else:
        answer = e[0] + f[0] + f[1] - (g + 4) >= -1
    if answer != (record.correction == 0):
        raise RuntimeError("Psi membership of %s, %s disagrees with the "
                           "correction term" % (record.e, record.f))
    return answer


def classify(genus: int, cover_degree: int, e: SplittingType,
             f: SplittingType) -> tuple[str, ...]:
    flags: list[str] = []
    if cover_degree == 4:
        if e.parts[0] == 1:
            flags.append("hyperelliptic")
    else:
        e1, _, _, e4 = e.parts
        f1, f2, f3, _, f5 = f.parts
        if f1 + f2 + e4 < genus + 4:
            flags.append("forced_pencil(%d,%d)" % (f2 - f1, f1))
        if (e1 == 2 and e1 + f1 + f5 < genus + 4
                and e1 + f2 + f3 < genus + 4 and 2 * e1 - f1 == 1):
            flags.append("forced_g26")
    return tuple(flags)


# Printed stratum labels from the source tables, keyed by
# (cover_degree, genus, e, f).
FIXTURE_LABELS: dict[tuple[int, int, tuple, tuple], str] = {
    (4, 5, (2, 3, 3), (4, 4)): "Psi0",
    (4, 5, (2, 3, 3), (3, 5)): "Psi1",
    (4, 5, (1, 3, 4), (2, 6)): "Z",
    (4, 6, (3, 3, 3), (4, 5)): "Psi0",
    (4, 6, (2, 3, 4), (4, 5)): "Psi1",
    (4, 6, (3, 3, 3), (3, 6)): "Psi2",
    (4, 6, (2, 3, 4), (3, 6)): "Sigma3",
    (4, 6, (1, 4, 4), (2, 7)): "Z",
    (4, 7, (3, 3, 4), (5, 5)): "Psi0",
    (4, 7, (3, 3, 4), (4, 6)): "Psi1",
    (4, 7, (2, 4, 4), (4, 6)): "Sigma2",
    (4, 7, (2, 3, 5), (4, 6)): "Sigma3",
    (4, 7, (1, 4, 5), (2, 8)): "Z",
    (4, 8, (3, 4, 4), (5, 6)): "Psi0",
    (4, 8, (3, 4, 4), (4, 7)): "Psi1",
    (4, 8, (3, 3, 5), (5, 6)): "Psi2",
    (4, 8, (2, 4, 5), (4, 7)): "Sigma3",
    (4, 8, (1, 5, 5), (2, 9)): "Z",
    (4, 9, (4, 4, 4), (6, 6)): "Psi0",
    (4, 9, (4, 4, 4), (5, 7)): "Psi1",
    (4, 9, (3, 4, 5), (6, 6)): "Psi2",
    (4, 9, (3, 4, 5), (5, 7)): "Psi3",
    (4, 9, (4, 4, 4), (4, 8)): "Psi4",
    (4, 9, (3, 3, 6), (6, 6)): "Psi5",
    (4, 9, (3, 4, 5), (4, 8)): "Sigma6",
    (4, 9, (2, 5, 5), (4, 8)): "Sigma7",
    (4, 9, (2, 4, 6), (4, 8)): "Sigma8",
    (4, 9, (1, 5, 6), (2, 10)): "Z",
    (5, 7, (2, 3, 3, 3), (4, 4, 4, 5, 5)): "Psi0",
    (5, 7, (2, 2, 3, 4), (4, 4, 4, 5, 5)): "Z1",
    (5, 7, (2, 3, 3, 3), (3, 4, 5, 5, 5)): "Z2",
    (5, 7, (2, 2, 3, 4), (3, 4, 4, 5, 6)): "Z3",
    (5, 7, (2, 3, 3, 3), (3, 3, 5, 5, 6)): "Z4",
    (5, 8, (3, 3, 3, 3), (4, 5, 5, 5, 5)): "Psi0",
    (5, 8, (2, 3, 3, 4), (4, 5, 5, 5, 5)): "Psi1",
    (5, 8, (2, 3, 3, 4), (4, 4, 5, 5, 6)): "Sigma2",
    (5, 8, (3, 3, 3, 3), (4, 4, 5, 5, 6)): "Z3",
    (5, 8, (2, 2, 4, 4), (4, 4, 4, 6, 6)): "Z4",
    (5, 8, (2, 3, 3, 4), (3, 4, 5, 6, 6)): "Z5",
    (5, 8, (3, 3, 3, 3), (3, 3, 6, 6, 6)): "Z6",
    (5, 9, (3, 3, 3, 4), (5, 5, 5, 5, 6)): "Psi0",
    (5, 9, (3, 3, 3, 4), (4, 5, 5, 6, 6)): "Psi1",
    (5, 9, (2, 3, 4, 4), (4, 5, 5, 6, 6)): "Sigma2",
    (5, 9, (2, 3, 3, 5), (4, 5, 5, 6, 6)): "Sigma3",
    (5, 9, (3, 3, 3, 4), (4, 4, 6, 6, 6)): "Z4",
    (5, 9, (2, 3, 4, 4), (4, 4, 5, 6, 7)): "Z5",
    (5, 9, (2, 3, 4, 4), (3, 4, 6, 6, 7)): "Z6",
}

# Strata whose lower-gonality membership is asserted in the source material
# but not derivable from the numeric conditions (external classifications).
LOWER_GONALITY_FIXTURES = {
    (4, 6, (3, 3, 3), (3, 6)),          # trigonal curves
    (5, 7, (2, 2, 3, 4), (4, 4, 4, 5, 5)),  # carries a g^1_4
    (5, 7, (2, 2, 3, 4), (3, 4, 4, 5, 6)),  # carries a g^2_6
    (5, 8, (2, 2, 4, 4), (4, 4, 4, 6, 6)),  # carries a g^1_4
}

GENUS5_PSI2_NOTE = (
    "genus-5 discrepancy: the printed stratification lists the pair "
    "e=(2,2,4), f=(3,5), which violates constraint Q12VAN (2*e2 = 4 < f2 = 5); "
    "the constraint system instead admits e=(2,2,4), f=(4,4), which the "
    "printed list omits. The enumeration reports the constraint-derived set."
)


def _weakly_increasing_tuples(length: int, total: int, lo: int, hi: int
                              ) -> list[tuple[int, ...]]:
    """The list of all weakly increasing integer tuples t of the given
    length (at least 1) and sum, with lo <= t[i] <= hi, in lexicographic
    order.

    With r the sum left and n the number of slots after the current
    one, a value v completes exactly when the n later entries, each in
    [v, hi], can sum to r - v: when n * v <= r - v <= n * hi. So v runs
    from max(entry before or lo, r - n * hi) to r // (n + 1), at most
    hi whenever the range is not empty, and no prefix is dead. The last
    two slots are that range with the last entry r - v."""
    if length == 1:
        return [(total,)] if lo <= total <= hi else []
    tuples: list[tuple[int, ...]] = []

    def rec(prefix, previous, remaining, later):
        start = remaining - hi * later
        if previous > start:
            start = previous
        if later == 1:
            tuples.extend([prefix + (v, remaining - v)
                           for v in range(start, remaining // 2 + 1)])
            return
        for v in range(start, remaining // (later + 1) + 1):
            rec(prefix + (v,), v, remaining - v, later - 1)

    rec((), lo, total, length - 1)
    return tuples


def _f_plan(linear) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """What `_pentagonal_f` reads off the L atoms `linear`, entries
    (name, a, b, k) as in PENT_LINEAR: the positions in `linear` of the
    pairs _F_PAIRS, and per slot s of f the terms (name, name', k, k')
    of each two atoms whose pairs split the four slots other than s.
    Each such term caps f[s] by e[k] + e[k'] for every genus: the sum of
    the two atoms' forms f[a] + f[b] + e[k] - g - 4 >= 0, minus SUM_F's
    form f1 + ... + f5 - 2g - 8 = 0, is e[k] + e[k'] - f[s]. The closed
    form solves one pattern, every pair of slots but (0, 1), (2, 4) and
    (3, 4) once; any other raises ValueError."""
    where = {(a, b): i for i, (_, a, b, _) in enumerate(linear)}
    if len(where) != len(linear) or sorted(where) != sorted(_F_PAIRS):
        raise ValueError("the f generator solves the L atoms on the pairs "
                         "%s, each once" % (_F_PAIRS,))
    caps = []
    for s in range(5):
        first, *others = [t for t in range(5) if t != s]
        terms = []
        for partner in others:
            rest = tuple(t for t in others if t != partner)
            if (first, partner) in where and rest in where:
                one, two = linear[where[first, partner]], linear[where[rest]]
                terms.append((one[0], two[0], one[3], two[3]))
        caps.append(tuple(terms))
    return tuple(where[p] for p in _F_PAIRS), tuple(caps)


# the pairs of f's slots that the L atoms bound, in the order the
# generator unpacks them
_F_PAIRS = ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3))
_F_POSITIONS, _F_CAPS = _f_plan(PENT_LINEAR)


def _pentagonal_f(total: int, lo: int, caps: Sequence[int],
                  bounds: Sequence[int]) -> list[tuple[int, ...]]:
    """The list of all weakly increasing integer 5-tuples f of the given
    sum with f[0] >= lo, f[s] <= caps[s] for each slot s, and f[a] +
    f[b] >= c for the pair (a, b) and bound c of each L atom, bounds
    being in PENT_LINEAR order; in lexicographic order.

    Write fs for f[s - 1], bst for the bound on f[s - 1] + f[t - 1], and
    Cs for the least of caps[s - 1], ..., caps[4], which caps fs as the
    entries increase. Each bound below holds for every admissible tuple,
    so none is lost. f1 runs from max(lo, b14 - C4, b15 - C5) (each
    partner at its cap) to min(C1, total // 5, total - b25 - b34), as f1
    is the least of five entries and f1 = total - (f2 + f5) - (f3 + f4);
    f2 from max(f1, b24 - C4, b25 - C5) to min(C2, (total - f1) // 4,
    total - b15 - b34) in the same way.

    With f1 and f2 placed, the pairs holding f1 or f2 turn into floors,
    f3 >= b13 - f1 and b23 - f2, f4 >= P4 = max(b14 - f1, b24 - f2) and
    f5 >= P5 = max(b15 - f1, b25 - f2), and r = f3 + f4 + f5 is fixed.
    The only atom left on f3, f4 and f5 alone is f3 + f4 >= b34
    (`_f_plan` checks the pattern). So with f3 = x, the value y of f4,
    which fixes f5 = r - x - y, is admissible exactly on the range
        max(x, P4, b34 - x, r - x - C5) <= y
                                   <= min(C4, (r - x) // 2, r - x - P5),
    from f3 <= f4, the floor, the atom and f5 <= C5 below, and f4 <= C4,
    f4 <= f5 and the floor of f5 above. It is not empty exactly when each
    of its four lower ends is at most each of its three upper ends; as y
    <= (r - x) // 2 is 2y <= r - x for an integer y, the twelve
    comparisons read
        x <= C4,          3x <= r,             2x <= r - P5,
        P4 <= C4,         x <= r - 2 * P4,     x <= r - P4 - P5,
        x >= b34 - C4,    x >= 2 * b34 - r,    b34 + P5 <= r,
        x >= r - C4 - C5, x >= r - 2 * C5,     P5 <= C5.
    The three without x hold for every placed f1 and f2, by the starts
    b14 - C4, b24 - C4, b15 - C5, b25 - C5 and the stops total - b25 -
    b34, total - b15 - b34 of the loops. The nine others, with f2 <= x
    <= C3 (which is at most C4) and the floors of f3, make f3's range
    one closed-form interval, and each x in it leaves f4 a non-empty
    range. So no prefix from f3 on is dead."""
    b13, b14, b15, b23, b24, b25, b34 = [bounds[i] for i in _F_POSITIONS]
    c5 = caps[4]
    c4 = min(caps[3], c5)
    c3 = min(caps[2], c4)
    c2 = min(caps[1], c3)
    tuples: list[tuple[int, ...]] = []
    for f1 in range(max(lo, b14 - c4, b15 - c5),
                    min(caps[0], c2, total // 5, total - b25 - b34) + 1):
        r1 = total - f1
        for f2 in range(max(f1, b24 - c4, b25 - c5),
                        min(c2, r1 // 4, total - b15 - b34) + 1):
            r = r1 - f2
            p4 = max(b14 - f1, b24 - f2)
            p5 = max(b15 - f1, b25 - f2)
            for f3 in range(max(f2, b13 - f1, b23 - f2, b34 - c4,
                                2 * b34 - r, r - c4 - c5, r - 2 * c5),
                            min(c3, r // 3, (r - p5) // 2, r - 2 * p4,
                                r - p4 - p5) + 1):
                s = r - f3
                tuples.extend([(f1, f2, f3, f4, s - f4) for f4 in range(
                    max(f3, p4, b34 - f3, s - c5), min(c4, s // 2, s - p5) + 1)])
    return tuples


def _positive_part_sum(tops: Sequence[int], sums: Sequence[int]) -> int:
    """The sum of max(0, x - s) over x in tops and s in sums, with the
    sums in increasing order, so each inner loop ends at the first
    s >= x."""
    total = 0
    for x in tops:
        for s in sums:
            if s >= x:
                break
            total += x - s
    return total


def _e_side(g: int, cover_degree: int, parts: tuple[int, ...]) -> list[int]:
    """e's side of the correction term: in degree 4 the sums e_i + e_k
    (i <= k) in increasing order, in degree 5 the tops g + 3 - e_i."""
    if cover_degree == 4:
        return sorted([a + b for a, b in combinations_with_replacement(parts, 2)])
    return [g + 3 - x for x in parts]


def _f_side(g: int, cover_degree: int, parts: tuple[int, ...]) -> list[int]:
    """f's side of the correction term: in degree 4 the tops f_j - 1, in
    degree 5 the sums f_j + f_l (j < l) in increasing order."""
    if cover_degree == 4:
        return [x - 1 for x in parts]
    return sorted([a + b for a, b in combinations(parts, 2)])


def _correction(cover_degree: int, e_side: list[int], f_side: list[int]) -> int:
    """The correction term from the sides of e and f: the tops are f's in
    degree 4 and e's in degree 5."""
    if cover_degree == 4:
        return _positive_part_sum(f_side, e_side)
    return _positive_part_sum(e_side, f_side)


def _make_record(g: int, cover_degree: int, e: SplittingType, f: SplittingType,
                 xe: int, xf: int, corr: int) -> StratumRecord:
    """The record of a pair the enumerator has listed; xe, xf and corr
    are expected_codim(e), expected_codim(f) and the correction term,
    which the enumerator computes from values it prepares once per
    distinct part. The correction is h1(f^dual (x) Sym2 e) in degree 4
    and h1(e (x) Wedge2 f (x) O(-g-4)) in degree 5, summed over the
    parts by h1(O(a)) = max(0, -a - 1): the sum over f_j and e_i + e_k
    (i <= k) of max(0, f_j - 1 - (e_i + e_k)), and the sum over e_i and
    f_j + f_l (j < l) of max(0, g + 3 - e_i - (f_j + f_l))."""
    flags = classify(g, cover_degree, e, f)
    key = (cover_degree, g, e.parts, f.parts)
    lower = bool(flags) or key in LOWER_GONALITY_FIXTURES
    # the fields in declaration order, from genus to lower_gonality
    record = StratumRecord(g, cover_degree, e, f, xe + xf - corr, xe, xf,
                           corr, corr == 0, flags, FIXTURE_LABELS.get(key),
                           lower)
    in_psi(record)
    return record


def enumerate_strata(cover_degree: int, g: int) -> list[StratumRecord]:
    """The record of every admissible pair (e, f) of the cover degree and
    genus g, in increasing lexicographic order of (e parts, f parts).

    The ranges below are read off the constraints and list exactly the
    admissible pairs, so each pair they list is recorded and no table is
    asked; tier-1 checks every listed pair against `CHECKS` over the
    whole domain (degree 4, g = 5..24; degree 5, g = 7..24). The parts
    are 1-based, and each sum is fixed (TOTALDEG, SUM_E, SUM_F).

    Degree 4. The entries of e lie in [1, (g + 3) // 2] (E1MIN, E3MAX).
    f = (f1, g + 3 - f1) with f1 <= f2, so f1 <= (g + 3) // 2; NO0 gives
    f1 <= 2 * e1 and Q12VAN f1 >= g + 3 - 2 * e2. CONDITIONAL asks
    f2 <= e1 + e3, that is f1 >= g + 3 - e1 - e3 = e2, unless
    f1 = 2 * e1. So f1 runs from max(g + 3 - 2 * e2, e2) to
    min(2 * e1, (g + 3) // 2); when that range is empty, f1 = 2 * e1
    alone is left if it lies in [g + 3 - 2 * e2, (g + 3) // 2].

    Degree 5. The entries of e lie in [ceil((g + 4) / 10),
    (2 * g + 8) // 5] (E1RANGE's lower end and E4MAX); its upper end
    4 * e1 <= g + 4 holds for any sorted e of sum g + 4. Two of L1..L7
    whose pairs split the four entries of f other than one, with SUM_F,
    cap that entry (`_f_plan` proves it): f1 <= 2 * e1, f2 <= e1 + e2,
    f3 <= min(2 * e2, e1 + e3), f4 <= min(e1 + e4, e2 + e3) and f5 <=
    min(e2 + e4, 2 * e3), which implies TOPF. Three consequences skip
    each e that admits no f at all:
      D1: 4 * e2 + e3 >= g + 4. f3 <= 2 * e2, and L3 with f2 <= f3
          gives 2 * f3 >= g + 4 - e3.
      D2: 3 * e1 + 2 * e4 >= g + 4. f4 <= e1 + e4, and L5 with
          f3 <= f4 gives 2 * f4 >= g + 4 - e1.
      D3: 2 * e1 + 3 * e3 >= g + 4. f3 <= e1 + e3, and L3 bounds
          2 * f3 below as in D1.
    For every other e, `_pentagonal_f` lists the f within those caps,
    from f1 >= 2 * g + 8 - 8 * e4 (the other four are at most 2 * e4)
    and with L1..L7 as pair bounds: f1 and f2 loop, and f3 and f4 take
    closed-form ranges, so each f it lists is admissible.

    Each e, and each distinct f, is prepared once per call, in one dict
    keyed by its parts (e and f differ in rank, so their keys never
    meet): its `SplittingType`, its expected codimension and its side of
    the correction term (`_e_side`, `_f_side`), so a record only
    combines them. Records with equal parts share those objects; the
    dict is local, so nothing outlives the call."""
    cover_degree = operator.index(cover_degree)
    if cover_degree not in (4, 5):
        raise ValueError("cover degree must be 4 or 5")
    g = operator.index(g)
    if not GENUS_MIN[cover_degree] <= g <= GENUS_MAX:
        raise ValueError("genus out of range for degree-%d enumeration"
                         % cover_degree)
    records: list[StratumRecord] = []
    made: dict[tuple[int, ...], tuple[SplittingType, int, list[int]]] = {}

    def prepare(parts, side):
        # the generator's tuples are sorted int tuples, as _from_sorted needs
        split = SplittingType._from_sorted(parts)
        made[parts] = prepared = (split, sb.expected_codim(split),
                                  side(g, cover_degree, parts))
        return prepared

    for e_parts, fs in _candidates(cover_degree, g):
        e, xe, e_side = prepare(e_parts, _e_side)
        for f_parts in fs:
            f, xf, f_side = made.get(f_parts) or prepare(f_parts, _f_side)
            records.append(_make_record(
                g, cover_degree, e, f, xe, xf,
                _correction(cover_degree, e_side, f_side)))
    return records


def _candidates(cover_degree: int, g: int):
    """Each e that the bounds of `enumerate_strata` leave, in increasing
    order, with the list of its admissible f, also in increasing order."""
    if cover_degree == 4:
        total = g + 3
        for e_parts in _weakly_increasing_tuples(3, total, 1, total // 2):
            e1, e2, _ = e_parts
            low, top = total - 2 * e2, min(2 * e1, total // 2)
            start = max(low, e2)
            if start > top and top == 2 * e1 >= low:
                start = top  # only f1 = 2 * e1 meets CONDITIONAL
            yield e_parts, [(f1, total - f1) for f1 in range(start, top + 1)]
    else:
        g4, ftotal = g + 4, 2 * g + 8
        for e_parts in _weakly_increasing_tuples(4, g4, -(-g4 // 10),
                                                 ftotal // 5):
            e1, e2, e3, e4 = e_parts
            if 4 * e2 + e3 < g4 or 3 * e1 + 2 * e4 < g4 or 2 * e1 + 3 * e3 < g4:
                continue  # D1, D2 or D3 fails: no f
            caps = [min([e_parts[k] + e_parts[m] for _, _, k, m in terms])
                    for terms in _F_CAPS]
            yield e_parts, _pentagonal_f(
                ftotal, ftotal - 8 * e4, caps,
                [g4 - e_parts[k] for _, _, _, k in PENT_LINEAR])


def report_notes(degree: int, g: int) -> list[str]:
    """The notes every report of the degree-`degree` strata of genus g
    carries: the genus-5 table discrepancy, for degree 4 and genus 5."""
    return [GENUS5_PSI2_NOTE] if (degree, g) == (4, 5) else []


def strata_report(records: Sequence[StratumRecord]) -> dict:
    if not records:
        raise ValueError("empty enumeration")
    g = records[0].genus
    degree = records[0].cover_degree
    report = {
        "genus": g,
        "cover_degree": degree,
        "strata": [r.to_dict() for r in records],
    }
    notes = report_notes(degree, g)
    if notes:
        report["notes"] = notes
    return report


def part_texts(records: Sequence[StratumRecord]) -> list[tuple[str, str]]:
    """str(e) and str(f) of each record, each distinct part's text
    written once per call."""
    texts: dict[tuple[int, ...], str] = {}

    def text(split):
        t = texts.get(split.parts)
        if t is None:
            t = texts[split.parts] = str(split)
        return t

    return [(text(r.e), text(r.f)) for r in records]


def _prefix_sums(records: Sequence[StratumRecord]) -> tuple[list, list]:
    """Each record's prefix sums of e and of f, without the last entries,
    accumulated once per distinct parts tuple. The last entries are the
    degrees of e and f; unless every record has the same degrees and
    ranks (the sums' lengths), this raises ValueError."""
    out = []
    for column in ([r.e.parts for r in records], [r.f.parts for r in records]):
        sums = {p: tuple(accumulate(p))[:-1] for p in dict.fromkeys(column)}
        if len({(len(p), sum(p)) for p in sums}) > 1:
            raise ValueError("incomparable families")
        out.append([sums[p] for p in column])
    return out[0], out[1]


def _below_masks(sums: Sequence[tuple[int, ...]]) -> list[int]:
    """Bit j of the i-th mask is set when every entry of sums[j] is at
    most the matching entry of sums[i] and sums[j] != sums[i].

    Per column, the indices are bucketed by their entry into one bitmask
    per value; ORing the buckets in increasing value turns each into the
    mask of the indices whose entry is at most that value. Each mask
    starts full and is cut down by that mask in every column."""
    n = len(sums)
    bits = [1 << j for j in range(n)]
    masks = [(1 << n) - 1] * n
    for column in zip(*sums):
        buckets: dict[int, int] = {}
        for v, bit in zip(column, bits):
            buckets[v] = buckets.get(v, 0) | bit
        mask = 0
        for v in sorted(buckets):
            mask |= buckets[v]
            buckets[v] = mask
        masks = [m & buckets[v] for m, v in zip(masks, column)]
    same: dict[tuple[int, ...], int] = {}
    for s, bit in zip(sums, bits):
        same[s] = same.get(s, 0) | bit
    return [m & ~same[s] for m, s in zip(masks, sums)]


def hasse(records: Sequence[StratumRecord]) -> tuple[list[tuple[str, str]], str]:
    """Transitive reduction of the pair order, plus DOT text.

    The pair order is the product of the dominance orders on e and on f.
    Record i lies strictly below record j in it exactly when each prefix
    sum of e and of f of i is at most the matching sum of j and the sums
    are not all equal. The records are ranked by their concatenated sums
    in lexicographic order. That ranking is a linear extension of the
    pair order: if i lies strictly below j, then at the first position
    where their sums differ the sum of i is the smaller one, so i ranks
    before j. down[r] is a Python-int bitmask, over ranks, with bit s set
    when the record of rank s lies strictly below the record of rank r.

    The lower covers of rank r come from down[r], highest bit first: the
    highest remaining bit c is taken as a cover, and c and down[c] are
    cleared. c is a cover: a record k strictly between c and r is a bit
    of down[r] above c, so it was taken as a cover or cleared as lying
    below one taken before, and c, lying below k and so below that
    cover, was cleared with it. And every lower cover is taken: it lies
    below no record below r, so only its own step clears it. Edges come
    out in increasing i, then increasing j, of the input order.

    The masks take O(n) big-int operations per prefix-sum position, plus
    a sort of that position's distinct values, and the covers O(1)
    big-int steps per edge, where a scan over every comparable pair took
    O(n^2). Each distinct e and f has its prefix sums and its text
    (`part_texts`, which also writes the table cells) made once per call.
    """
    sums = [se + sf for se, sf in zip(*_prefix_sums(records))]
    order = sorted(range(len(sums)), key=sums.__getitem__)
    down = _below_masks([sums[i] for i in order])
    covers: list[list[int]] = [[] for _ in order]
    for j, bits in zip(order, down):
        while bits:
            c = bits.bit_length() - 1
            covers[order[c]].append(j)
            bits &= ~(1 << c | down[c])
    ids = [NODE_ID % texts for texts in part_texts(records)]
    edges = [(ids[i], ids[j]) for i, above in enumerate(covers)
             for j in sorted(above)]
    lines = ["digraph strata {"]
    for r, node in zip(records, ids):
        lines.append('  "%s" [label="%s"];' % (node, r.label or node))
    for lo, hi in edges:
        lines.append('  "%s" -> "%s";' % (lo, hi))
    lines.append("}")
    return edges, "\n".join(lines)


def star_union_check(records: Sequence[StratumRecord], n: int) -> dict:
    """Check the expected codimension of the union of strata with e1 = n.
    An n that is not an integer raises TypeError."""
    n = operator.index(n)
    members = [r for r in records if r.e.parts[0] == n]
    if members:
        degree = members[0].e.degree()
        rank = members[0].e.rank()
    elif records:
        degree = records[0].e.degree()
        rank = records[0].e.rank()
    else:
        raise ValueError("empty enumeration")
    expected = degree + 1 - (n + 1) * rank
    member_data = [{
        "e": list(r.e.parts),
        "f": list(r.f.parts),
        "codim": r.codim,
        "matches_expected": r.codim == expected,
    } for r in members]
    return {
        "n": n,
        "expected_codim": expected,
        "members": member_data,
        "all_match": all(m["matches_expected"] for m in member_data),
    }


def single_locus_coincidence(record: StratumRecord,
                             records: Sequence[StratumRecord]) -> dict:
    """Test whether the pair stratum can be realized as a single splitting
    locus of e (or of f) in the complement of the lower-gonality strata.

    For either coordinate the rule requires: the record is the unique
    surviving stratum with that splitting type, the pair codimension
    equals the expected codimension of that splitting type, and every
    surviving stratum strictly below it in that coordinate's dominance
    order passes. The rule is monotone, so passing is its least
    fixpoint: from none passing, mark each surviving stratum the rule
    accepts until no mark changes. That needs no search order where the
    e and f orders cross (degree 4, genus 5: (2,2,4),(4,4) lies below
    Psi1 = (2,3,3),(3,5) in e and above it in f).

    Records are identified by key(), so a repeated record counts once; a
    record absent from records, or lower-gonality, is measured against
    the surviving ones. The strata below and the marks are bitmasks, as
    in `hasse`; records of different families raise ValueError.
    """
    survivors = {r.key(): r for r in records if not r.lower_gonality}
    n = len(survivors)
    # the record is the last point, one of the first n if it survives
    survivors.pop(record.key(), None)
    points = list(survivors.values()) + [record]
    # per axis and point: (unique, codim matches, surviving strata below);
    # unique means no surviving record but the point itself has its sums
    axes = []
    expected = (operator.attrgetter("expected_e"),
                operator.attrgetter("expected_f"))
    for expected_codim, sums in zip(expected, _prefix_sums(points)):
        counts = Counter(sums[:n])
        axes.append([(counts[s] == (i < n),
                      r.codim == expected_codim(r),
                      below & ((1 << n) - 1))
                     for i, (r, s, below) in enumerate(
                         zip(points, sums, _below_masks(sums)))])
    rules = [[below for unique, matches, below in point if unique and matches]
             for point in zip(*axes)][:n]
    holds, previous = 0, -1
    while holds != previous:
        previous = holds
        for i, masks in enumerate(rules):
            if any(not below & ~holds for below in masks):
                holds |= 1 << i

    result = {}
    for axis, point in zip(("e", "f"), axes):
        unique, codim_matches, below = point[-1]
        below_ok = not below & ~holds
        result[axis] = {
            "unique": unique,
            "codim_matches_expected": codim_matches,
            "strata_below_handled": below_ok,
            "holds": unique and codim_matches and below_ok,
        }
    result["holds"] = result["e"]["holds"] or result["f"]["holds"]
    return result
