"""Graded Artinian quotients Q[k1,...,kw]/I with weighted variables.

Verifies, by degreewise exact linear algebra over the rationals, the
ring-theoretic properties asserted of the built-in kappa-class ideals:
Hilbert function, socle degrees and dimensions, the Gorenstein pairing
test, the Artinian vanishing window, and minimal-generator counts.

Each public call builds one GradedQuotient and drops it on return. It
echelons each degree once, in increasing order, in one sparse
fraction-free `linalg.Echelon`: I_d = sum_i k_i * I_{d-w_i}, which is
(m.I)_d, plus the generators of degree d. The stored rows of each
I_{d-w_i} go in re-indexed to the monomials of degree d, less those
whose pivot is k_j times a pivot of I_{d-w_i-w_j} for a j < i, which
would add nothing to the span; then the generators go in, so the rank
they add on top counts the minimal generators of degree d. It stops at
the first max(weight) consecutive degrees where the quotient vanishes:
a monomial of higher degree sheds one variable at a time, losing at
most max(weight) each step, so it has a divisor in that window, which
lies in the ideal.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import jsontext
from .linalg import Echelon, integer_row, rank
from .polynomial import Poly

Exponents = Tuple[int, ...]


def _var(i: int) -> str:
    return "k%d" % (i + 1)


def monomials(d: int, weights: Sequence[int]) -> List[Exponents]:
    """All exponent vectors of weighted degree exactly d, in strictly
    decreasing lex order."""
    if d < 0:
        raise ValueError("negative degree")
    if not weights:
        return [()] if d == 0 else []
    # (exponents so far, degree left), one list per variable but the last,
    # whose exponent the degree left fixes
    partial: List[Tuple[Exponents, int]] = [((), d)]
    for w in weights[:-1]:
        partial = [(acc + (e,), left - e * w) for acc, left in partial
                   for e in range(left // w, -1, -1)]
    w = weights[-1]
    return [acc + (left // w,) for acc, left in partial if left % w == 0]


class WeightedIdeal:
    """Generator list over Q[k1..kw] with kappa_i of the given weight."""

    def __init__(self, weights: Sequence[int], generators: Sequence[Poly]):
        self.weights = tuple(weights)
        if not self.weights:
            raise ValueError("no variables")
        if not all(isinstance(w, int) and w >= 1 for w in self.weights):
            raise ValueError("weights must be ints >= 1, got %r"
                             % (self.weights,))
        # tuples: degrees and homogeneous are computed here, once, so a
        # generator appended later would be left out of both
        self.generators = tuple(generators)
        if any(g.is_zero() for g in self.generators):
            raise ValueError("zero generator")
        wmap = {_var(i): w for i, w in enumerate(self.weights)}
        for g in self.generators:
            foreign = g.variables() - wmap.keys()
            if foreign:
                raise ValueError("generator variables %s outside k1..k%d"
                                 % (sorted(foreign), self.nvars))
        parts = [g.homogeneous_parts(wmap) for g in self.generators]
        self.degrees = tuple(max(p) for p in parts)
        self.homogeneous = all(len(p) == 1 for p in parts)

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def generator_degrees(self) -> List[int]:
        return list(self.degrees)


def _exponents(mono, nvars: int) -> Exponents:
    exps = dict(mono)
    return tuple(exps.get(_var(i), 0) for i in range(nvars))


def _mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def _times(mono: Exponents, var_index: int) -> Exponents:
    return mono[:var_index] + (mono[var_index] + 1,) + mono[var_index + 1:]


class _Degree:
    """I_d in sparse echelon form over the monomials of degree d, built
    from the degrees below: the rows k_i * I_{d-w_i}, re-indexed, span
    (m.I)_d, and the rank the generators of degree d add to them,
    `new_generators`, is dim I_d/(m.I)_d. The monomials of the non-pivot
    columns, `free`, are a basis of the quotient R_d."""

    def __init__(self, ideal: WeightedIdeal, d: int, below: Sequence["_Degree"]):
        if not ideal.homogeneous:
            raise ValueError("homogenize first")
        self.basis = monomials(d, ideal.weights)
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.form = Echelon()
        # the first i with k_i times a pivot of I_{d-w_i} at each column
        self.shifted_by: Dict[int, int] = {}
        for i, w in enumerate(ideal.weights):
            if d >= w:
                lower = below[d - w]
                cols = [self.index[_times(m, i)] for m in lower.basis]
                # Rows of I_{d-w_i} whose pivot is k_j times a pivot of
                # I_{d-w_i-w_j} for some j < i are left out. The rows kept
                # and the spaces k_j * I_{d-w_i-w_j}, j < i, still span
                # I_{d-w_i}: their leading monomials cover every pivot.
                # And k_i k_j * I_{d-w_i-w_j} lies in k_j * I_{d-w_j},
                # inserted before.
                kept = []
                for p in lower.form.rows:
                    if lower.shifted_by.get(p, i) >= i:
                        kept.append(p)
                    self.shifted_by.setdefault(cols[p], i)
                # k_i keeps the order of monomials, so cols increases
                self.form.merge(lower.form.reindexed(cols, kept))
        products = len(self.form)
        for g, dg in zip(ideal.generators, ideal.degrees):
            if dg == d:
                self.form.insert(integer_row(
                    {self.index[_exponents(mono, ideal.nvars)]: c
                     for mono, c in g.terms.items()}))
        self.new_generators = len(self.form) - products
        self.free = [c for c in range(len(self.basis)) if c not in self.form.rows]

    def normal_form(self, mono: Exponents) -> List[Fraction]:
        """Coordinates of a monomial modulo I_d over the basis `free`."""
        col = self.index[mono]
        row = self.form.rows.get(col)
        if row is None:
            return [int(f == col) for f in self.free]
        return [Fraction(-row.get(f, 0), row[col]) for f in self.free]


class GradedQuotient:
    """R = Q[k1..kw]/I, each degree eliminated once, in increasing order,
    up to the first max(weight) consecutive degrees where R vanishes."""

    def __init__(self, ideal: WeightedIdeal):
        self.ideal = ideal
        self._degrees: List[_Degree] = []

    def _vanished(self) -> bool:
        w = max(self.ideal.weights)
        return (len(self._degrees) >= w
                and not any(deg.free for deg in self._degrees[-w:]))

    def degree(self, d: int) -> Optional[_Degree]:
        """The echelon form of I_d, or None where R_d = 0 past the
        vanishing window."""
        while len(self._degrees) <= d and not self._vanished():
            self._degrees.append(
                _Degree(self.ideal, len(self._degrees), self._degrees))
        return self._degrees[d] if d < len(self._degrees) else None

    def ideal_rank(self, d: int) -> int:
        deg = self.degree(d)
        if deg is None:
            return len(monomials(d, self.ideal.weights))
        return len(deg.form)


# The checks below take a WeightedIdeal, or the GradedQuotient of one so
# that the checks of one report share its eliminations.
IdealOrQuotient = Union[WeightedIdeal, GradedQuotient]


def _quotient(ideal: IdealOrQuotient) -> GradedQuotient:
    return ideal if isinstance(ideal, GradedQuotient) else GradedQuotient(ideal)


def graded_ideal_rank(ideal: WeightedIdeal, d: int) -> int:
    return GradedQuotient(ideal).ideal_rank(d)


def hilbert(ideal: IdealOrQuotient, d_max: int) -> List[int]:
    """hilbert[d] = dim of the degree-d piece of the quotient ring."""
    q = _quotient(ideal)
    return [len(deg.free) if deg else 0 for deg in map(q.degree, range(d_max + 1))]


def socle(ideal: IdealOrQuotient, d_max: int) -> Tuple[List[int], List[int]]:
    """Degrees d <= d_max - max(weight) with nonzero socle, and their
    dimensions; the socle of R_d is the kernel of x -> (k_1 x, ..., k_w x)
    into the sum of the R_{d+w_i}."""
    q = _quotient(ideal)
    weights = q.ideal.weights
    degrees: List[int] = []
    dims: List[int] = []
    for d in range(d_max - max(weights) + 1):
        deg = q.degree(d)
        if deg is None:
            break
        images = []
        for f in deg.free:
            image: List[Fraction] = []
            for i, w in enumerate(weights):
                target = q.degree(d + w)
                if target is not None:
                    image += target.normal_form(_times(deg.basis[f], i))
            images.append(image)
        dim_socle = len(deg.free) - rank(images)
        if dim_socle:
            degrees.append(d)
            dims.append(dim_socle)
    return degrees, dims


def artinian_check(ideal: IdealOrQuotient, g: int,
                   d_max: Optional[int] = None) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Look for max(weight) consecutive vanishing degrees at or above
    g-1; once found, every higher degree vanishes too, because any
    monomial of higher degree factors through the window."""
    q = _quotient(ideal)
    if d_max is None:
        d_max = g + 6
    w = max(q.ideal.weights)
    h = hilbert(q, d_max)
    for start in range(g - 1, d_max - w + 2):
        if all(h[start + i] == 0 for i in range(w)):
            return True, (start, start + w - 1)
    return False, None


def gorenstein_check(ideal: IdealOrQuotient, g: int,
                     d_max: Optional[int] = None) -> dict:
    """Socle must be 1-dimensional in its top degree D, and every
    multiplication pairing R^i x R^{D-i} -> R^D must have full rank."""
    q = _quotient(ideal)
    if d_max is None:
        d_max = g + 6
    degrees, dims = socle(q, d_max)
    report = {"socle_degrees": degrees, "socle_dims": dims,
              "gorenstein": False, "pairings": []}
    if len(degrees) != 1 or dims != [1]:
        report["diagnostic"] = "socle is not 1-dimensional in a single degree"
        return report
    top = degrees[0]
    h = hilbert(q, top)
    if any(h[i] != h[top - i] for i in range(top + 1)):
        report["diagnostic"] = "hilbert function is not symmetric"
        return report

    # R^top = R^0 is one-dimensional, so each product is one coordinate
    deg_top = q.degree(top)
    ok = True
    for i in range(top // 2 + 1):
        deg_i, deg_j = q.degree(i), q.degree(top - i)
        pairing = [[deg_top.normal_form(_mul(deg_i.basis[ci], deg_j.basis[cj]))[0]
                    for cj in deg_j.free]
                   for ci in deg_i.free]
        full = rank(pairing) == len(deg_i.free)
        ok = ok and full
        report["pairings"].append({"degree": i, "dim": len(deg_i.free),
                                   "full_rank": full})
    report["gorenstein"] = ok
    return report


def minimal_generators(ideal: IdealOrQuotient,
                       d_max: Optional[int] = None) -> Dict[int, int]:
    """dim I_d / (m . I)_d per degree; nonzero entries count a minimal
    generating set. Past the vanishing window there are none: every
    monomial there has a proper divisor in the ideal."""
    q = _quotient(ideal)
    if d_max is None:
        d_max = max(q.ideal.degrees)
    out: Dict[int, int] = {}
    for d in range(d_max + 1):
        deg = q.degree(d)
        if deg is None:
            break
        if deg.new_generators:
            out[d] = deg.new_generators
    return out


def ci_verdict(ideal: IdealOrQuotient) -> bool:
    q = _quotient(ideal)
    return sum(minimal_generators(q).values()) <= q.ideal.nvars


# ---------------------------------------------------------------------------
# built-in ideals

def _k(i: int, e: int = 1) -> Poly:
    return Poly.var(_var(i - 1), e)


def builtin_ideal(g: int, interpretation: Optional[str] = None) -> WeightedIdeal:
    """The printed kappa-class ideals for g in {7, 8, 9}, and readings of
    them.

    Genus 7 has no default: its third generator mixes weighted degrees 4
    and 5 as printed, so a reading must be chosen. "printed-split"
    replaces it by its homogeneous parts (a graded ideal containing an
    inhomogeneous element contains them), "emended" reads the k1^4 term
    as k1^5.

    Genus 8 and 9 read "printed" (the default) or "corrected". The
    corrected reading changes exactly one printed coefficient: for genus
    8 the sign of the k2^2 term of the first generator, for genus 9 the
    k1^3*k2 coefficient of the third generator, 114345520 -> 1142345520.
    These are the coefficients that Faber's top-degree proportionalities
    (tests/test_tautring.py::TestFaberSocleOracle) single out: with them,
    every generator vanishes in R*(M_g), and the quotient is Gorenstein
    with socle in degree g-2. A genus that is not an integer raises
    TypeError.
    """
    g = operator.index(g)
    if g == 7:
        k1, k2 = _k(1), _k(2)
        g1 = 2423 * k1 ** 2 * k2 - 52632 * k2 ** 2
        g2 = 1152000 * k2 ** 2 - 2423 * k1 ** 4
        if interpretation == "printed-split":
            gens = [g1, g2, 16000 * k1 ** 3 * k2, -731 * k1 ** 4]
        elif interpretation == "emended":
            gens = [g1, g2, 16000 * k1 ** 3 * k2 - 731 * k1 ** 5]
        else:
            raise ValueError("unknown interpretation")
        return WeightedIdeal((1, 2), gens)
    if interpretation not in (None, "printed", "corrected"):
        raise ValueError("unknown interpretation")
    corrected = interpretation == "corrected"
    if g == 8:
        k1, k2 = _k(1), _k(2)
        c22 = -714894336 if corrected else 714894336
        gens = [
            c22 * k2 ** 2 + 55211328 * k1 ** 2 * k2 - 1058587 * k1 ** 4,
            62208000 * k1 * k2 ** 2 - 95287 * k1 ** 5,
            144000 * k1 ** 3 * k2 - 5617 * k1 ** 5,
        ]
        return WeightedIdeal((1, 2), gens)
    if g == 9:
        k1, k2, k3 = _k(1), _k(2), _k(3)
        c312 = 1142345520 if corrected else 114345520
        gens = [
            5195 * k1 ** 4 + 3644694 * k1 * k3 + 749412 * k2 ** 2
            - 265788 * k1 ** 2 * k2,
            33859814400 * k2 * k3 - 95311440 * k1 ** 3 * k2
            + 2288539 * k1 ** 5,
            19151377 * k1 ** 5 + 16929907200 * k1 * k2 ** 2
            - c312 * k1 ** 3 * k2,
            1422489600 * k3 ** 2 - 983 * k1 ** 6,
            1185408000 * k2 ** 3 - 47543 * k1 ** 6,
        ]
        return WeightedIdeal((1, 2, 3), gens)
    raise ValueError("no built-in ideal for genus %d" % g)


@dataclass
class QuotientReport:
    genus: int
    interpretation: Optional[str]
    weights: List[int]
    generator_degrees: List[int]
    hilbert: List[int]
    socle_degrees: List[int]
    socle_dims: List[int]
    gorenstein: bool
    artinian: bool
    artinian_window: Optional[List[int]]
    minimal_generator_count: int
    minimal_generators_by_degree: Dict[int, int]
    ci_verdict: bool
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "genus": self.genus,
            "weights": self.weights,
            "generator_degrees": self.generator_degrees,
            "hilbert": self.hilbert,
            "socle_degrees": self.socle_degrees,
            "socle_dims": self.socle_dims,
            "gorenstein": self.gorenstein,
            "artinian": self.artinian,
            "artinian_window": self.artinian_window,
            "minimal_generator_count": self.minimal_generator_count,
            "minimal_generators_by_degree": {
                str(k): v for k, v in sorted(self.minimal_generators_by_degree.items())},
            "ci_verdict": self.ci_verdict,
        }
        if self.interpretation is not None:
            out["interpretation"] = self.interpretation
        if self.notes:
            out["notes"] = self.notes
        return out

    def to_json(self) -> str:
        return jsontext.dumps(self.to_dict())


def quotient_report(g: int,
                    interpretation: Optional[str] = None) -> QuotientReport:
    ideal = builtin_ideal(g, interpretation)
    d_max = g + 6
    quotient = GradedQuotient(ideal)
    gor = gorenstein_check(quotient, g, d_max)
    degrees, dims = gor["socle_degrees"], gor["socle_dims"]
    art, window = artinian_check(quotient, g, d_max)
    mingens = minimal_generators(quotient)
    notes = []
    if degrees == [g - 2] and dims == [1]:
        notes.append("socle sits in degree g-2 = %d with dimension 1" % (g - 2))
    else:
        notes.append("socle does not sit in degree g-2 = %d with dimension 1"
                     % (g - 2))
    return QuotientReport(
        genus=g,
        interpretation=interpretation,
        weights=list(ideal.weights),
        generator_degrees=ideal.generator_degrees(),
        hilbert=hilbert(quotient, d_max),
        socle_degrees=degrees,
        socle_dims=dims,
        gorenstein=gor["gorenstein"],
        artinian=art,
        artinian_window=None if window is None else list(window),
        minimal_generator_count=sum(mingens.values()),
        minimal_generators_by_degree=mingens,
        ci_verdict=ci_verdict(quotient),
        notes=notes,
    )
