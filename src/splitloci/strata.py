"""Enumeration of pair-splitting-type stratifications for degree-4 and
degree-5 covers of the projective line.

Each stratum is a pair (e, f) of splitting types subject to named
constraints: a table of integer-linear atoms in g and the parts, read by
one evaluator, `Table`, which also reads the hypotheses of the lemmas in
`chowsym`. The module computes codimensions, membership in the
good open locus Psi, forced linear-series flags, the product dominance
order with its Hasse diagram, union-of-strata codimension checks, and the
single-locus coincidence test used to realize a pair stratum as one
splitting locus. That test's rule asks every surviving stratum below on
the same axis to pass it too, so passing is the rule's least fixpoint;
it and the Hasse diagram share one routine of prefix-sum bitmasks.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import (accumulate, combinations,
                       combinations_with_replacement)
from typing import Dict, List, Optional, Sequence, Tuple

from . import splitbundle as sb
from .polynomial import Poly
from .splitbundle import SplittingType

GENUS_MAX = 24

FLAG_HYPERELLIPTIC = ("hyperelliptic",)


def forced_pencil_flag(k: int, d: int) -> tuple:
    return ("forced_pencil", k, d)


FLAG_G26 = ("forced_g26",)


def flag_str(flag: tuple) -> str:
    if flag[0] == "forced_pencil":
        return "forced_pencil(%d,%d)" % (flag[1], flag[2])
    return flag[0]


@dataclass(frozen=True)
class ConstraintVerdict:
    allowed: bool
    violated: Tuple[str, ...]


@dataclass
class StratumRecord:
    genus: int
    cover_degree: int
    e: SplittingType
    f: SplittingType
    codim: int
    expected_e: int
    expected_f: int
    correction: int
    in_psi: bool
    flags: Tuple[tuple, ...]
    label: Optional[str] = None
    lower_gonality: bool = False

    def key(self) -> Tuple:
        return (self.e.parts, self.f.parts)

    def node_id(self) -> str:
        return "e=%s|f=%s" % (self.e, self.f)

    def to_dict(self) -> dict:
        return {
            "e": list(self.e.parts),
            "f": list(self.f.parts),
            "codim": self.codim,
            "expected_e": self.expected_e,
            "expected_f": self.expected_f,
            "correction": self.correction,
            "in_psi": self.in_psi,
            "flags": [flag_str(fl) for fl in self.flags],
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
# parts). The enumerator reads them as pair bounds.
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
    x - y - 1 >= 0. Each atom is compiled once: its constant, its multiple
    of g, sparse integer terms over the parts (e1, ..., f1, ...) and its
    relation; a form not integer-linear in g and the parts raises
    ValueError. `check` runs all atoms in one flat loop, and names the
    failing constraints only when an atom fails."""

    def __init__(self, degree: int, constraints: Dict[str, Sequence[tuple]]):
        self.ranks, self.genus_min = RANKS[degree], GENUS_MIN[degree]
        parts = [x + str(i) for x, n in zip("ef", self.ranks)
                 for i in range(1, n + 1)]
        self.atoms = []
        for name, atoms in constraints.items():
            for form, relation in atoms:
                if (form.total_degree() > 1 or relation not in (">=", "==", "!=")
                        or not form.variables() <= {"g", *parts}
                        or not all(isinstance(c, int) for c in form.terms.values())):
                    raise ValueError("%s %s 0 is not an integer-linear atom in "
                                     "g, %s" % (form, relation, ", ".join(parts)))
                terms = dict(form.terms)
                self.atoms.append((name, terms.pop((), 0), terms.pop((("g", 1),), 0),
                                   tuple((parts.index(m[0][0]), c)
                                         for m, c in terms.items()), relation))
        # a tuple fails when one of its atoms fails, an AnyOf when all do
        self.needed = {name: len(atoms) if isinstance(atoms, AnyOf) else 1
                       for name, atoms in constraints.items()}

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
        parts = e.parts + f.parts
        failed = []
        for name, value, per_genus, terms, relation in self.atoms:
            value += per_genus * g
            for i, c in terms:
                value += c * parts[i]
            if value < 0 if relation == ">=" else (value == 0) != (relation == "=="):
                failed.append(name)
        violated = failed and tuple(dict.fromkeys(
            n for n in failed if failed.count(n) >= self.needed[n]))
        return ConstraintVerdict(False, violated) if violated else _ALLOWED


_ALLOWED = ConstraintVerdict(True, ())
CHECKS = {4: Table(4, TET_CONSTRAINTS), 5: Table(5, PENT_CONSTRAINTS)}


def tet_check(g: int, e, f) -> ConstraintVerdict:
    return CHECKS[4].check(g, e, f)


def pent_check(g: int, e, f) -> ConstraintVerdict:
    return CHECKS[5].check(g, e, f)


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
             f: SplittingType) -> Tuple[tuple, ...]:
    flags: List[tuple] = []
    if cover_degree == 4:
        if e.parts[0] == 1:
            flags.append(FLAG_HYPERELLIPTIC)
    else:
        e1 = e.parts[0]
        f1, f2, f3, _, f5 = f.parts
        e4 = e.parts[3]
        if f1 + f2 + e4 < genus + 4:
            flags.append(forced_pencil_flag(f2 - f1, f1))
        if (e1 == 2 and e1 + f1 + f5 < genus + 4
                and e1 + f2 + f3 < genus + 4 and 2 * e1 - f1 == 1):
            flags.append(FLAG_G26)
    return tuple(flags)


# Printed stratum labels from the source tables, keyed by
# (cover_degree, genus, e, f).
FIXTURE_LABELS: Dict[Tuple[int, int, tuple, tuple], str] = {
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


def _weakly_increasing_tuples(length: int, total: int, lo: int, hi: int,
                              pairs: Sequence[Tuple[int, int, int]] = ()
                              ) -> List[Tuple[int, ...]]:
    """The list of all weakly increasing integer tuples t of the given
    length (at least 1) and sum, with lo <= t[i] <= hi, and t[a] + t[b]
    >= c for each (a, b, c) in pairs, where a < b; in lexicographic order.

    The recursion carries a floor for each slot, lo to start with;
    placing t[a] = v raises the floor of each paired slot b to c - v.
    Since the entries increase, each later slot k is at least
    max(v, floors of the slots after a up to k), so a value v for slot
    a needs F(v) <= the remaining sum, where the least completion
    F(v) = v + sum over k > a of max(v, max over a < j <= k of
    max(floor_j, c_j - v)). F is a sum of maxima of affine functions of
    v, so it is convex, and with sigma its right slope at v, F(v + d) >=
    F(v) + sigma * d for every d >= 0. While F(v) exceeds the remaining
    sum and sigma < 0, this tangent bound shows that each value before
    v + ceil((F(v) - remaining) / -sigma) fails too, so v jumps there.
    The values with F(v) <= remaining form an interval, so once F(v)
    exceeds it with sigma >= 0 no later value passes, and the slot ends.
    Every value that passes the test is tried, so no admissible tuple is
    lost.

    The last two slots take a closed form. With the remaining sum r, the
    last entry is r - v, and a pair bound between the two slots reads
    r >= c whatever v is. Beyond that, v is at least the entry before it
    and its own floor, and with r - v at most hi and at least v and the
    last slot's floor, v runs over one range: from max(entry before,
    floor, r - hi) to min(r // 2, r - last floor)."""
    if length == 1:
        return [(total,)] if lo <= total <= hi else []
    raises: List[List[Tuple[int, int]]] = [[] for _ in range(length)]
    for a, b, c in pairs:
        raises[a].append((b, c))
    last = length - 1
    # the pair bounds between the last two slots ask remaining >= need;
    # 2 * lo is no bound, as the last two entries are at least lo
    need = max([2 * lo] + [c for _, c in raises[last - 1]])
    no_slopes = [0] * length
    tuples: List[Tuple[int, ...]] = []

    def rec(prefix, floors, remaining):
        slot = len(prefix)
        # the entry before and the slot's floor bound its value below
        first = max(prefix[-1:] + (floors[slot],))
        if slot == last - 1:
            if remaining >= need:
                tuples.extend([prefix + (v, remaining - v) for v in range(
                    max(first, remaining - hi),
                    min(remaining // 2, remaining - floors[last]) + 1)])
            return
        later = last - slot
        # the later entries lie in [value, hi], which bounds value
        value = max(first, remaining - hi * later)
        end = min(hi, remaining // (later + 1))
        bounds = raises[slot]
        while value <= end:
            raised, slopes = floors, no_slopes
            if bounds:
                raised, slopes = list(floors), [0] * length
                for b, c in bounds:
                    if c - value > raised[b]:
                        raised[b], slopes[b] = c - value, -1
            # least: F(value); slope: its right slope, the sum of the
            # largest slope among the pieces that attain each maximum
            least = top = value
            slope = top_slope = 1
            for k in range(slot + 1, length):
                floor = raised[k]
                if floor > top:
                    top, top_slope = floor, slopes[k]
                elif floor == top and slopes[k] > top_slope:
                    top_slope = slopes[k]
                least += top
                slope += top_slope
            if least <= remaining:
                rec(prefix + (value,), raised, remaining - value)
                value += 1
            elif slope < 0:
                value -= (least - remaining) // slope
            else:
                return

    rec((), [lo] * length, total)
    return tuples


def _positive_part_sum(tops: Sequence[int], sums: Sequence[int]) -> int:
    """The sum of max(0, x - s) over x in tops and s in sums. With the
    sums in increasing order, each inner loop ends at the first s >= x."""
    ordered = sorted(sums)
    total = 0
    for x in tops:
        for s in ordered:
            if s >= x:
                break
            total += x - s
    return total


def _make_record(g: int, cover_degree: int, e: SplittingType,
                 f: SplittingType, xe: Optional[int] = None) -> StratumRecord:
    """The record of a pair the enumerator has accepted; xe, when given,
    is expected_codim(e), which the enumerator computes once per e. The
    correction
    is h1(f^dual (x) Sym2 e) in degree 4 and h1(e (x) Wedge2 f (x)
    O(-g-4)) in degree 5, summed over the parts by h1(O(a)) =
    max(0, -a - 1): the sum over f_j and e_i + e_k (i <= k) of
    max(0, f_j - 1 - (e_i + e_k)), and the sum over e_i and f_j + f_l
    (j < l) of max(0, g + 3 - e_i - (f_j + f_l))."""
    if xe is None:
        xe = sb.expected_codim(e)
    xf = sb.expected_codim(f)
    if cover_degree == 4:
        corr = _positive_part_sum(
            [fj - 1 for fj in f.parts],
            [ei + ek for ei, ek in combinations_with_replacement(e.parts, 2)])
    else:
        corr = _positive_part_sum(
            [g + 3 - ei for ei in e.parts],
            [fj + fl for fj, fl in combinations(f.parts, 2)])
    flags = classify(g, cover_degree, e, f)
    key = (cover_degree, g, e.parts, f.parts)
    label = FIXTURE_LABELS.get(key)
    lower = bool(flags) or key in LOWER_GONALITY_FIXTURES
    record = StratumRecord(
        genus=g, cover_degree=cover_degree, e=e, f=f,
        codim=xe + xf - corr, expected_e=xe, expected_f=xf, correction=corr,
        in_psi=(corr == 0), flags=flags, label=label, lower_gonality=lower)
    in_psi(record)
    return record


def enumerate_strata(cover_degree: int, g: int) -> List[StratumRecord]:
    if cover_degree not in (4, 5):
        raise ValueError("cover degree must be 4 or 5")
    g = operator.index(g)
    if not GENUS_MIN[cover_degree] <= g <= GENUS_MAX:
        raise ValueError("genus out of range for degree-%d enumeration"
                         % cover_degree)

    # Both branches generate each pair once, in increasing (e, f) order.
    records: List[StratumRecord] = []
    if cover_degree == 4:
        total = g + 3
        # E1MIN and E3MAX bound every entry of e to [1, (g + 3) // 2].
        for e_parts in _weakly_increasing_tuples(3, total, 1, total // 2):
            e = SplittingType(e_parts)
            xe = sb.expected_codim(e)
            # Q12VAN bounds f2 above, which bounds f1 below; f1 <= f2
            # caps f1 at total // 2.
            for f1 in range(total - 2 * e.parts[1],
                            min(2 * e.parts[0], total // 2) + 1):
                f = SplittingType((f1, total - f1))
                if tet_check(g, e, f).allowed:
                    records.append(_make_record(g, 4, e, f, xe))
    else:
        ftotal = 2 * g + 8
        # E1RANGE's lower end and E4MAX bound every entry of e; its upper
        # end 4 * e1 <= g + 4 holds for any sorted e of sum g + 4.
        for e_parts in _weakly_increasing_tuples(4, g + 4, -(-(g + 4) // 10),
                                                 ftotal // 5):
            e = SplittingType(e_parts)
            xe = sb.expected_codim(e)
            e4 = e_parts[3]
            # TOPF caps every entry of f at 2 * e4, so the sum puts each
            # at least ftotal - 8 * e4; L1..L7 are the pair bounds.
            linear = [(a, b, g + 4 - e_parts[k]) for _, a, b, k in PENT_LINEAR]
            for f_parts in _weakly_increasing_tuples(
                    5, ftotal, ftotal - 8 * e4, 2 * e4, linear):
                f = SplittingType(f_parts)
                if pent_check(g, e, f).allowed:
                    records.append(_make_record(g, 5, e, f, xe))
    return records


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
    notes = []
    if degree == 4 and g == 5:
        notes.append(GENUS5_PSI2_NOTE)
    if notes:
        report["notes"] = notes
    return report


def strata_report_json(records: Sequence[StratumRecord]) -> str:
    return json.dumps(strata_report(records), indent=2)


def _prefix_sums(records: Sequence[StratumRecord]) -> Tuple[list, list]:
    """Each record's prefix sums of e and of f, without the last entries.
    Those are the degrees of e and f; unless every record has the same
    degrees and ranks (the sums' lengths), this raises ValueError."""
    both = [(tuple(accumulate(r.e.parts)), tuple(accumulate(r.f.parts)))
            for r in records]
    if len({(len(e), e[-1], len(f), f[-1]) for e, f in both}) > 1:
        raise ValueError("incomparable families")
    return [e[:-1] for e, _ in both], [f[:-1] for _, f in both]


def _below_masks(sums: Sequence[Tuple[int, ...]]) -> List[int]:
    """Bit j of the i-th mask is set when every entry of sums[j] is at
    most the matching entry of sums[i] and sums[j] != sums[i]."""
    n = len(sums)
    masks = [(1 << n) - 1] * n
    for column in zip(*sums):
        # at_most[v]: the j whose entry in this column is <= v
        at_most: Dict[int, int] = {}
        mask = 0
        for j in sorted(range(n), key=column.__getitem__):
            mask |= 1 << j
            at_most[column[j]] = mask
        masks = [m & at_most[v] for m, v in zip(masks, column)]
    same: Dict[Tuple[int, ...], int] = {}
    for j, s in enumerate(sums):
        same[s] = same.get(s, 0) | 1 << j
    return [m & ~same[s] for m, s in zip(masks, sums)]


def hasse(records: Sequence[StratumRecord]) -> Tuple[List[Tuple[str, str]], str]:
    """Transitive reduction of the pair order, plus DOT text.

    The pair order is the product of the dominance orders on e and on f.
    Record i lies strictly below record j in it exactly when each prefix
    sum of e and of f of i is at most the matching sum of j and the sums
    are not all equal. The concatenated prefix sums are computed once per
    record, and the records are ranked by them in lexicographic order.
    That ranking is a linear extension of the pair order: if i lies
    strictly below j, then at the first position where their sums differ
    the sum of i is the smaller one, so i ranks before j. up[r] is a
    Python-int bitmask, over ranks, with bit s set when the record of
    rank s lies strictly above the record of rank r.

    The covers of rank r come from up[r], lowest bit first: the lowest
    remaining bit c is taken as a cover, and c and up[c] are cleared. c
    is a cover: a record k strictly between r and c is a bit of up[r]
    below c, so it was taken as a cover or cleared as lying above one
    taken before, and c, lying above k and so above that cover, was
    cleared with it. And every cover is taken: it lies above no record
    above r, so only its own step clears it. Edges come out in
    increasing i, then increasing j, of the input order.

    The masks take O(n log n) integer operations per prefix-sum position,
    for one set of masks, and the covers O(1) big-int steps per edge,
    where a scan over every comparable pair took O(n^2).
    """
    sums = [se + sf for se, sf in zip(*_prefix_sums(records))]
    order = sorted(range(len(sums)), key=sums.__getitem__)
    up = _below_masks([tuple(-x for x in sums[i]) for i in order])
    covers: List[List[int]] = [[] for _ in order]
    for i, bits in zip(order, up):
        while bits:
            c = (bits & -bits).bit_length() - 1
            covers[i].append(order[c])
            bits &= ~(1 << c | up[c])
    ids = [r.node_id() for r in records]
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
    """Check the expected codimension of the union of strata with e1 = n."""
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
    for axis, sums in zip(("e", "f"), _prefix_sums(points)):
        counts = Counter(sums[:n])
        axes.append([(counts[s] == (i < n),
                      r.codim == getattr(r, "expected_" + axis),
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
