"""Graded Artinian quotients Q[k1,...,kw]/I with weighted variables.

Verifies, by degreewise exact linear algebra over the rationals, the
ring-theoretic properties asserted of the built-in kappa-class ideals:
Hilbert function, socle degrees and dimensions, the Gorenstein pairing
test, the Artinian vanishing window, and minimal-generator counts.

Each public call builds one GradedQuotient and drops it on return. It
echelons each degree once, in increasing order, in one sparse
fraction-free `linalg.Echelon`: I_d = sum_i k_i * I_{d-w_i}, which is
(m.I)_d, plus the generators of degree d. The stored rows of each
I_{d-w_i} go in shifted by k_i, less those whose pivot is k_j times a
pivot of I_{d-w_i-w_j} for a j < i, which would add nothing to the
span; then the generators go in, so the rank they add on top counts
the minimal generators of degree d. It stops at the first max(weight)
consecutive degrees where the quotient vanishes: a monomial of higher
degree sheds one variable at a time, losing at most max(weight) each
step, so it has a divisor in that window, which lies in the ideal.

Columns are monomial keys: k^e in n variables is the int
-sum_i e_i * R^(n-1-i), R = RADIX. While every exponent is below R, the
exponents are the base-R digits of -key, so keys are distinct and int
order is decreasing lex order; multiplying by k_i subtracts the
constant R^(n-1-i), which moves every column of a row alike and keeps
its pivot least, and the key of a product is the sum of the keys. An
exponent at degree d is at most d/min(weight) <= d, every weight being
at least 1, so the keys of degree d are exact for d < R, and building a
degree d >= R raises RuntimeError.

The socle and the Gorenstein pairings are ranks of multiplication maps,
one sparse row of product coordinates per free monomial, in an `Echelon`.
Each coordinate is an integer over its target's pivot, and each row is
scaled to the lcm of those pivots, so no fraction is formed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import jsontext
from .linalg import Echelon, Row, integer_row
from .polynomial import Poly


def _var(i: int) -> str:
    return "k%d" % (i + 1)


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


class _Degree:
    """I_d in sparse echelon form over the monomials of degree d, built
    from the degrees below: the rows k_i * I_{d-w_i}, shifted, span
    (m.I)_d, and the rank the generators of degree d add to them,
    `new_generators`, is dim I_d/(m.I)_d. `basis` holds the keys of the
    monomials of degree d in increasing order; the keys of the non-pivot
    columns, `free`, are a basis of the quotient R_d."""

    def __init__(self, q: "GradedQuotient", d: int, below: Sequence["_Degree"]):
        if not q.ideal.homogeneous:
            raise ValueError("homogenize first")
        if d >= RADIX:
            raise RuntimeError("degree %d does not fit monomial keys of "
                               "radix %d" % (d, RADIX))
        basis = [0] if d == 0 else []
        self.form = Echelon()
        # the first i with k_i times a pivot of I_{d-w_i} at each column
        self.shifted_by: Dict[int, int] = {}
        for i, (w, place) in enumerate(zip(q.ideal.weights, q.places)):
            if d < w:
                continue
            lower = below[d - w]
            # a monomial of degree d whose first variable is k_{i+1} is
            # k_{i+1} times one of degree d - w_i free of k_1..k_i, whose
            # key lies above -R * places[i]; block by block, the keys of
            # degree d come in increasing order
            floor = -RADIX * place
            basis += [m - place for m in lower.basis if m > floor]
            # Rows of I_{d-w_i} whose pivot is k_j times a pivot of
            # I_{d-w_i-w_j} for some j < i are left out. The rows kept
            # and the spaces k_j * I_{d-w_i-w_j}, j < i, still span
            # I_{d-w_i}: their leading monomials cover every pivot. And
            # k_i k_j * I_{d-w_i-w_j} lies in k_j * I_{d-w_j}, inserted
            # before.
            kept = []
            for p in lower.form.rows:
                if lower.shifted_by.get(p, i) >= i:
                    kept.append(p)
                self.shifted_by.setdefault(p - place, i)
            self.form.merge(lower.form.shifted(-place, kept))
        products = len(self.form)
        for row in q.generator_rows.get(d, ()):
            self.form.insert(row)
        self.new_generators = len(self.form) - products
        self.basis = basis
        self.free = [m for m in basis if m not in self.form.rows]

    def normal_form(self, key: int) -> Tuple[Row, int]:
        """(x, p): the monomial with this key is sum_c x[c]/p * c modulo
        I_d over the basis `free`, with x its nonzero coordinates keyed
        by free key and p > 0. A free key is itself, over 1; a pivot row
        is zero at every other pivot, so its other entries, negated, are
        the coordinates over its pivot."""
        row = self.form.rows.get(key)
        if row is None:
            return {key: 1}, 1
        return {c: -x for c, x in row.items() if c != key}, row[key]


# the base of the monomial keys: degrees below it are exact
RADIX = 1 << 20


class GradedQuotient:
    """R = Q[k1..kw]/I, each degree eliminated once, in increasing order,
    up to the first max(weight) consecutive degrees where R vanishes.
    Its columns are monomial keys; multiplying by k_i subtracts
    places[i]."""

    def __init__(self, ideal: WeightedIdeal):
        self.ideal = ideal
        n = ideal.nvars
        self.places = [RADIX ** (n - 1 - i) for i in range(n)]
        self._place = {_var(i): p for i, p in enumerate(self.places)}
        # each generator's row over the keys, grouped by its degree
        self.generator_rows: Dict[int, List[Row]] = {}
        for g, dg in zip(ideal.generators, ideal.degrees):
            self.generator_rows.setdefault(dg, []).append(integer_row(
                {self._key(mono): c for mono, c in g.terms.items()}))
        self._degrees: List[_Degree] = []

    def _key(self, mono) -> int:
        """The key of a Poly monomial ((name, exponent), ...)."""
        key = 0
        for v, e in mono:
            key -= self._place[v] * e
        return key

    def _vanished(self) -> bool:
        w = max(self.ideal.weights)
        return (len(self._degrees) >= w
                and not any(deg.free for deg in self._degrees[-w:]))

    def degree(self, d: int) -> Optional[_Degree]:
        """The echelon form of I_d, or None where R_d = 0 past the
        vanishing window."""
        if d < 0:
            raise ValueError("negative degree")
        while len(self._degrees) <= d and not self._vanished():
            self._degrees.append(
                _Degree(self, len(self._degrees), self._degrees))
        return self._degrees[d] if d < len(self._degrees) else None

    def _image_rank(self, keys: Sequence[int],
                    targets: Sequence[Tuple[int, Optional[_Degree]]]) -> int:
        """The rank over Q of f -> the normal forms of f + shift in each
        target degree, over the keys f. Target j's coordinate at free key
        c is column c + j * R^n: every key lies in (-R^n, 0], so columns
        stay distinct where two targets are one degree, as with weights
        (1, 1), and go target by target. Each row is the image of f
        times the lcm of its targets' denominators, a nonzero multiple,
        so the rank is the image's."""
        span = RADIX * self.places[0]
        form = Echelon()
        for f in keys:
            forms = [target.normal_form(f + shift) for shift, target in targets]
            scale = lcm(*(p for _, p in forms))
            image: Row = {}
            offset = 0
            for coords, p in forms:
                m = scale // p
                for c, x in coords.items():
                    image[c + offset] = m * x
                offset += span
            form.insert(image)
        return len(form)


# The checks below take a WeightedIdeal, or the GradedQuotient of one so
# that the checks of one report share its eliminations.
IdealOrQuotient = Union[WeightedIdeal, GradedQuotient]


def _quotient(ideal: IdealOrQuotient) -> GradedQuotient:
    return ideal if isinstance(ideal, GradedQuotient) else GradedQuotient(ideal)


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
        # d + w_i is past the vanishing window (None) only if R_d = 0
        targets = [(-place, q.degree(d + w))
                   for w, place in zip(weights, q.places)]
        dim_socle = len(deg.free) - q._image_rank(deg.free, targets)
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
    window = _vanishing_window(hilbert(q, d_max), g, max(q.ideal.weights))
    return window is not None, window


def _vanishing_window(h: Sequence[int], g: int,
                      w: int) -> Optional[Tuple[int, int]]:
    """The first w consecutive zeros of h starting at g-1 or above."""
    for start in range(g - 1, len(h) - w + 1):
        if all(h[start + i] == 0 for i in range(w)):
            return start, start + w - 1
    return None


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

    # R^top = R^0 is one-dimensional, so each product c_i * c_j is one
    # coordinate, and c_i goes to its products with every c_j
    deg_top = q.degree(top)
    ok = True
    for i in range(top // 2 + 1):
        deg_i, deg_j = q.degree(i), q.degree(top - i)
        pairing = [(cj, deg_top) for cj in deg_j.free]
        full = q._image_rank(deg_i.free, pairing) == len(deg_i.free)
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
        d_max = max(q.ideal.degrees, default=0)
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

def _poly(*terms: Tuple[int, Tuple[int, ...]]) -> Poly:
    """The sum of the terms c * k1^e1 * k2^e2 * ..., given as (c, e)."""
    return Poly({tuple((_var(i), x) for i, x in enumerate(e) if x): c
                 for c, e in terms})


def builtin_ideal(g: int, interpretation: Optional[str] = None) -> WeightedIdeal:
    """The printed kappa-class ideals for g in {7, 8, 9}, and readings of
    them. Each generator is written as its printed terms, in printed
    order, each a coefficient and the exponents of k1, k2[, k3].

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
        g1 = _poly((2423, (2, 1)), (-52632, (0, 2)))
        g2 = _poly((1152000, (0, 2)), (-2423, (4, 0)))
        if interpretation == "printed-split":
            gens = [g1, g2, _poly((16000, (3, 1))), _poly((-731, (4, 0)))]
        elif interpretation == "emended":
            gens = [g1, g2, _poly((16000, (3, 1)), (-731, (5, 0)))]
        else:
            raise ValueError("unknown interpretation")
        return WeightedIdeal((1, 2), gens)
    if interpretation not in (None, "printed", "corrected"):
        raise ValueError("unknown interpretation")
    corrected = interpretation == "corrected"
    if g == 8:
        c22 = -714894336 if corrected else 714894336
        gens = [
            _poly((c22, (0, 2)), (55211328, (2, 1)), (-1058587, (4, 0))),
            _poly((62208000, (1, 2)), (-95287, (5, 0))),
            _poly((144000, (3, 1)), (-5617, (5, 0))),
        ]
        return WeightedIdeal((1, 2), gens)
    if g == 9:
        c312 = 1142345520 if corrected else 114345520
        gens = [
            _poly((5195, (4, 0, 0)), (3644694, (1, 0, 1)),
                  (749412, (0, 2, 0)), (-265788, (2, 1, 0))),
            _poly((33859814400, (0, 1, 1)), (-95311440, (3, 1, 0)),
                  (2288539, (5, 0, 0))),
            _poly((19151377, (5, 0, 0)), (16929907200, (1, 2, 0)),
                  (-c312, (3, 1, 0))),
            _poly((1422489600, (0, 0, 2)), (-983, (6, 0, 0))),
            _poly((1185408000, (0, 3, 0)), (-47543, (6, 0, 0))),
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
    h = hilbert(quotient, d_max)
    window = _vanishing_window(h, g, max(ideal.weights))
    mingens = minimal_generators(quotient)
    count = sum(mingens.values())
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
        generator_degrees=list(ideal.degrees),
        hilbert=h,
        socle_degrees=degrees,
        socle_dims=dims,
        gorenstein=gor["gorenstein"],
        artinian=window is not None,
        artinian_window=None if window is None else list(window),
        minimal_generator_count=count,
        minimal_generators_by_degree=mingens,
        ci_verdict=count <= ideal.nvars,
        notes=notes,
    )
