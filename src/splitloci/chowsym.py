"""Symbolic Chow-ring calculus on a P^1-bundle over a classifying base.

Classes are `Poly`s in the first/second Chern classes of filtration
subquotients and a hyperplane-type class z subject to z^2 = -c2; reduced
by that rule, a class is linear in z, c = a + a'z, and is returned with
its components as (c.a, c.b) = (a, a'). The module computes total Chern
classes of filtered bundles by the splitting principle, holds the
relation matrices that express those components in the filtration
generators, and verifies their determinants against closed forms. It
also houses the Pfaffian structure equations of a 5x5 skew matrix, rank
formulas for the resolution bundles, and the Sym^2 Chern-class identity.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm, prod
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import jsontext, strata
from .linalg import Echelon, integer_row
from .polynomial import Packing, Poly, Scalar
from .strata import E, E1, E2, E3, E4, F, F1, F2, F3, F4, F5, G

# codimension grading of the generator symbols; parameter symbols
# (e1..e4, f1..f5, g) have weight 0
GEN_WEIGHTS = {
    "l": 1, "s": 1, "t": 1, "m": 1, "n": 1, "m1": 1, "n1": 1, "r1": 1,
    "r2": 2, "m2": 2, "n2": 2, "c2": 2,
}

def _to_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, str):
        return Poly.var(x)
    return Poly.const(x)


_Z = Poly.var("z")
_C2 = Poly.var("c2")


class ZPair(NamedTuple):
    """The class a + b*z, read off a polynomial reduced to degree 1 in z."""

    a: Poly
    b: Poly


def _reduce_z(p: Poly) -> Poly:
    """p with each z^2 replaced by -c2, so that z occurs at most linearly."""
    out = Poly()
    for mono, coeff in p.terms.items():
        k = dict(mono).get("z", 0)
        rest = tuple(pair for pair in mono if pair[0] != "z")
        out = out + Poly({rest + (("z", k % 2),): coeff}) * (-_C2) ** (k // 2)
    return out


@dataclass(frozen=True)
class Piece:
    """Filtration subquotient: rank 1 or 2, with a twist by O(d)."""

    rank: int
    classes: Tuple[str, ...]  # (x,) or (x1, x2)
    twist: Poly

    def __post_init__(self):
        # a class outside GEN_WEIGHTS would land in codimension 0
        if tuple(GEN_WEIGHTS.get(x) for x in self.classes) != (1, 2)[:self.rank]:
            raise ValueError("rank-%d classes %r need codimensions %r"
                             % (self.rank, self.classes, (1, 2)[:self.rank]))

    def total_chern(self) -> Poly:
        """1 + x + d*z for rank 1, and for rank 2
        1 + x1 + x2 + 2d*z + d*x1*z + d^2*z^2."""
        d = self.twist
        if self.rank == 1:
            return 1 + Poly.var(self.classes[0]) + d * _Z
        x1, x2 = (Poly.var(x) for x in self.classes)
        return 1 + x1 + x2 + 2 * d * _Z + d * x1 * _Z + d * d * _Z * _Z


class FilteredBundle:
    """Ordered filtration subquotients; ranks sum to the bundle rank."""

    def __init__(self, pieces: Sequence[Piece]):
        self.pieces = list(pieces)

    @staticmethod
    def rank1(x: str, twist) -> Piece:
        return Piece(1, (x,), _to_poly(twist))

    @staticmethod
    def rank2(x1: str, x2: str, twist) -> Piece:
        return Piece(2, (x1, x2), _to_poly(twist))

    def rank(self) -> int:
        return sum(p.rank for p in self.pieces)


def chern_total(bundle: FilteredBundle) -> List[ZPair]:
    """Chern classes c_1..c_rank via the splitting principle.

    The product of the pieces' total Chern classes is a polynomial in z,
    reduced by z^2 = -c2 after each factor. Its part of codimension i,
    with the generators at their GEN_WEIGHTS, z at 1 and the parameters
    at 0, is c_i = a + b*z, returned as ZPair(a, b).
    """
    total = Poly.const(1)
    for piece in bundle.pieces:
        total = _reduce_z(total * piece.total_chern())
    parts = total.homogeneous_parts(
        dict.fromkeys(total.variables(), 0) | GEN_WEIGHTS | {"z": 1})
    out = []
    for i in range(1, bundle.rank() + 1):
        part = parts.get(i, Poly())
        a = part.substitute({"z": 0})
        out.append(ZPair(a, part.substitute({"z": 1}) - a))
    return out


# ---------------------------------------------------------------------------
# determinants

def _pack_matrix(mat) -> Tuple[Packing, List[List[Dict[int, Scalar]]]]:
    """One graded packing for a matrix and every product that Bareiss
    and the Pfaffians form, and the matrix packed with it. The radix is
    2D+1, where D is the sum of the rows' largest total degrees.

    A minor on rows R has total degree at most the sum over R of those
    rows' largest degrees, so at most D. Each cofactor product is an
    entry times a minor on other rows, and each Pfaffian product takes
    its two entries from four distinct rows, so both stay within D.
    Each Bareiss entry is a minor, and the numerator before each exact
    division is a difference of products of two minors, of total degree
    at most 2D; every monomial the division's remainder reaches has
    degree at most the numerator's. So no product reaches the radix.
    """
    rows = [[_to_poly(x) for x in row] for row in mat]
    bound = sum(max((entry.total_degree() for entry in row), default=0)
                for row in rows)
    packing = Packing([entry for row in rows for entry in row], 2 * bound + 1)
    return packing, [[packing.pack(entry) for entry in row] for row in rows]


def _slot_pack_matrix(mat) -> Tuple[Packing, List[List[Dict[int, int]]], List[int],
                                     Optional[str], int, int]:
    """A matrix packed for `det_cofactor`, with one variable v moved into
    the coefficients: the packing, the packed rows, each row's largest
    entry degree (-1 for a zero row), v, the slot width W and the product
    of the rows' scales.

    Row i is scaled by the lcm s_i of its denominators, and a scaled
    term c * m * v^j packs to the key of m with coefficient c * 2^(W*j),
    summed over j. The packing keeps a digit for v, for the decoded
    result. Its radix is D+1, for D the sum of the rows' largest total
    degrees, which bounds the degree of every cofactor product (see
    `_pack_matrix`).
    """
    rows = [[_to_poly(x) for x in row] for row in mat]
    bounds: Dict[str, int] = {}
    degrees, scales = [], []
    bound = 1
    for row in rows:
        largest: Dict[str, int] = {}
        degree = -1
        norm = 0
        scale = 1
        for entry in row:
            for mono, c in entry.terms.items():
                total = 0
                for var, exp in mono:
                    total += exp
                    if exp > largest.get(var, 0):
                        largest[var] = exp
                degree = max(degree, total)
                norm += abs(c)
                if type(c) is Fraction:
                    scale = lcm(scale, c.denominator)
        for var, exp in largest.items():
            bounds[var] = bounds.get(var, 0) + exp
        degrees.append(degree)
        scales.append(scale)
        bound *= norm * scale
    slot = min(bounds, key=lambda var: (-bounds[var], var), default=None)
    width = int(bound).bit_length() + 1
    packing = Packing([entry for row in rows for entry in row],
                      sum(max(d, 0) for d in degrees) + 1)
    places = packing.places
    packed = []
    for row, scale in zip(rows, scales):
        out = []
        for entry in row:
            terms: Dict[int, int] = {}
            for mono, c in entry.terms.items():
                c = int(c * scale)
                key = 0
                for var, exp in mono:
                    if var == slot:
                        c <<= width * exp
                    else:
                        key += exp * places[var]
                terms[key] = terms.get(key, 0) + c
            out.append(terms)
        packed.append(out)
    return packing, packed, degrees, slot, width, prod(scales)


def det_cofactor(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Laplace expansion along the rows, each minor computed once, with
    one variable packed into the coefficients.

    The rows are taken in increasing order of their largest entry
    degree; ties keep the bottom-up order.
    Working through that order, minors[S] is the minor on the rows taken
    so far and the column set S (a bitmask), expanded along the row just
    taken; an n x n matrix takes n * 2^(n-1) products instead of n!.
    Taking the rows of lowest degree first keeps the minors small until
    the last steps, which is where most of the products are formed.

    Proof: let P be the matrix whose rows, from the bottom up, are the
    rows of A in the order taken, so P's rows are A's permuted by some
    pi. The loop is then the bottom-up Laplace expansion of P, and
    det A = sign(pi) det P; the sign is applied once, to the result.
    Only multiplication and addition are used, never a division or a
    pivot choice, so it shares no step with `det_bareiss` and stays an
    independent check of it. The matrix is packed once and the minors
    are kept packed.

    Slot packing (Kronecker substitution in one variable). The slot
    variable v is the one with the largest degree bound, the sum over
    the rows of v's largest exponent in the row; ties go to the first
    name. Row i is scaled to integer coefficients by the lcm s_i of its
    denominators, so det A = det A' / prod s_i for the scaled A'. Each
    entry of A' is then read as a polynomial in the other variables
    whose coefficients are the integers f(2^W), f in Z[v]: setting
    v = 2^W is a ring map from Z[v][others] to Z[others], so the
    expansion, which only adds and multiplies, yields det A' with
    v = 2^W, and each product of coefficients is one int multiply. The
    map is undone on the result alone: each coefficient f(2^W) is read
    off in balanced base-2^W digits, each in [-2^(W-1), 2^(W-1)), which
    gives back f when every coefficient c of det A' has |c| < 2^(W-1).

    Bound: let B = prod_i sum_j |a'_ij|, |a| the sum of the absolute
    values of a's coefficients. By Leibniz, det A' is the sum over the
    permutations s of sign(s) prod_i a'_i,s(i), and a product's
    coefficients have absolute values summing to at most the product of
    its factors' sums, so by the triangle inequality every coefficient
    of det A' is at most sum_s prod_i |a'_i,s(i)| <= B in absolute value
    (expand the product of sums). W = bitlength(B) + 1 gives
    B < 2^(W-1). B is 0 only for a zero row, whose determinant is 0;
    otherwise W >= 2, and the digits of every int are finitely many.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    packing, packed, degree, slot, width, scale = _slot_pack_matrix(rows)
    # a zero row has degree -1, so it is taken first and ends the loop
    order = sorted(range(n), key=lambda i: (degree[i], -i))
    # P's rows from the top are `order` reversed, so each inversion of
    # pi is a pair taken in increasing row order
    inversions = sum(a < b for k, a in enumerate(order) for b in order[k + 1:])
    minors = {0: {0: 1}}  # the minor on no rows: the packed constant 1
    for i in order:
        expanded: Dict[int, Dict[int, Scalar]] = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(packed[i]):
                bit = 1 << j
                if cols & bit or not entry:
                    continue
                # j's position in the enlarged column set fixes the sign
                sign = -1 if (cols & (bit - 1)).bit_count() % 2 else 1
                packing.mul_add(expanded.setdefault(cols | bit, {}),
                                entry, minor, sign)
        minors = {}
        for cols, terms in expanded.items():
            terms = {k: c for k, c in terms.items() if c}
            if terms:
                minors[cols] = terms
    # undo the slot packing: digit j of the value at the key of m is
    # the coefficient of m * v^j, whose key is m's plus j * v's place
    sign = -1 if inversions % 2 else 1
    step = packing.places[slot] if slot is not None else 0
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    terms: Dict[int, Scalar] = {}
    for key, value in minors.get((1 << n) - 1, {}).items():
        value *= sign
        while value:
            digit = ((value + half) & mask) - half
            if digit:
                terms[key] = Fraction(digit, scale) if scale > 1 else digit
            value = (value - digit) >> width
            key += step
    return packing.unpack(terms)


def _bareiss(rows: Sequence[Sequence[Poly]]) -> Tuple[int, Poly]:
    """Fraction-free elimination over Q(parameters) (Bareiss 1968).

    Returns the rank and the last pivot, negated once per row swap; for
    a square matrix of full rank that is its determinant. Each entry
    below the pivots is, after step k, a (k+1)-minor of the matrix, so
    dividing by the previous pivot is exact even where a column without
    a pivot is skipped. At the first step the previous pivot is the
    constant 1, so that division is the identity and only drops the
    cancelled terms. The matrix is packed once (see `_pack_matrix` for
    the radix) and every step runs on packed entries.
    """
    packing, m = _pack_matrix(rows)
    ncols = len(m[0]) if m else 0
    rank = 0
    sign = 1
    prev = {0: 1}  # the packed constant 1
    for c in range(ncols):
        k = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if k is None:
            continue
        if k != rank:
            m[rank], m[k] = m[k], m[rank]
            sign = -sign
        pivot_row = m[rank]
        pivot = pivot_row[c]
        for row in m[rank + 1:]:
            lead = row[c]
            for j in range(c + 1, ncols):
                numerator: Dict[int, Scalar] = {}
                packing.mul_add(numerator, pivot, row[j])
                packing.mul_add(numerator, lead, pivot_row[j], -1)
                row[j] = (packing.divide(numerator, prev) if rank else
                          {key: v for key, v in numerator.items() if v})
            row[c] = {}
        prev = pivot
        rank += 1
    last = packing.unpack(prev)
    return rank, last if sign > 0 else -last


def det_bareiss(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Fraction-free elimination; every division is exact. A matrix of
    rank below n has determinant 0."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    rank, pivot = _bareiss(rows)
    return pivot if rank == n else Poly()


def det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Bareiss determinant cross-checked against cofactor expansion."""
    value = det_bareiss(rows)
    if len(rows) <= 6 and value != det_cofactor(rows):
        raise RuntimeError("determinant engines disagree")
    return value


# ---------------------------------------------------------------------------
# Pfaffians

def _check_skew(mat) -> None:
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    for i in range(n):
        if not _to_poly(mat[i][i]).is_zero():
            raise ValueError("matrix is not skew-symmetric")
        for j in range(i + 1, n):
            if _to_poly(mat[i][j]) != -_to_poly(mat[j][i]):
                raise ValueError("matrix is not skew-symmetric")


def _pfaffian4(packing: Packing, m, a: int, b: int, c: int, d: int) -> Poly:
    """m_ab m_cd - m_ac m_bd + m_ad m_bc of a packed matrix, unchecked."""
    acc: Dict[int, Scalar] = {}
    packing.mul_add(acc, m[a][b], m[c][d])
    packing.mul_add(acc, m[a][c], m[b][d], -1)
    packing.mul_add(acc, m[a][d], m[b][c])
    return packing.unpack(acc)


def pfaffian4(mat) -> Poly:
    """Pfaffian of a 4x4 skew matrix: m01 m23 - m02 m13 + m03 m12."""
    _check_skew(mat)
    if len(mat) != 4:
        raise ValueError("expected a 4x4 matrix")
    return _pfaffian4(*_pack_matrix(mat), 0, 1, 2, 3)


def principal_minor(mat, drop: int):
    keep = [i for i in range(len(mat)) if i != drop]
    return [[_to_poly(mat[i][j]) for j in keep] for i in keep]


def pfaffians(mat) -> Tuple[Poly, ...]:
    """The five quadric coefficients of a 5x5 skew matrix: Q_i is the
    Pfaffian of the principal 4x4 minor omitting row and column i. A
    principal minor of a skew matrix is skew, so the minors are not
    checked again, and the 5x5 matrix is packed once for all five."""
    _check_skew(mat)
    if len(mat) != 5:
        raise ValueError("expected a 5x5 matrix")
    packing, m = _pack_matrix(mat)
    return tuple(_pfaffian4(packing, m, *(j for j in range(5) if j != i))
                 for i in range(5))


def generic_skew5(prefix: str = "L") -> List[List[Poly]]:
    mat = [[Poly() for _ in range(5)] for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            v = Poly.var("%s%d%d" % (prefix, i + 1, j + 1))
            mat[i][j] = v
            mat[j][i] = -v
    return mat


# ---------------------------------------------------------------------------
# rank formulas

def ce_rank(k: int, i: int) -> int:
    """Rank of the i-th syzygy bundle in the relative resolution of a
    degree-k cover: i(k-2-i)/(k-1) * C(k, i+1)."""
    if k < 3 or i < 1 or i > k - 2:
        raise ValueError("index out of range")
    value = Fraction(i * (k - 2 - i), k - 1) * comb(k, i + 1)
    if value.denominator != 1:
        raise RuntimeError("syzygy rank %s is not an integer" % value)
    return int(value)


def quadric_count(g: int) -> int:
    """Number of quadrics through a canonical pentagonal curve:
    g(g+1)/2 - 3(g-1). A genus that is not an integer raises TypeError."""
    g = operator.index(g)
    if g < 4:
        raise ValueError("genus too small")
    return g * (g + 1) // 2 - 3 * (g - 1)


# ---------------------------------------------------------------------------
# Sym^2 Chern identity

def sym2_chern_check() -> dict:
    """Expand c(Sym^2 V) for a rank-6 bundle with Chern roots
    +-x1, +-x2, +-x3 and compare the degree 1..3 pieces (in the even
    classes c2, c4, c6 of V) with the coefficients (8; 22, 14; 28, 54, 38).

    These roots are the weights of the standard representation of Sp_6,
    and Sym^2 of it is the adjoint representation: its 21 roots are the
    long roots +-2x_i, the short roots +-x_i +- x_j (i < j), and the
    rank 3 of the Cartan subalgebra as zero weights.
    """
    xs = [Poly.var("x%d" % i) for i in (1, 2, 3)]
    roots = []
    for i in range(3):
        roots.append(2 * xs[i])
        roots.append(-2 * xs[i])
    for i in range(3):
        for j in range(i + 1, 3):
            roots.append(xs[i] + xs[j])
            roots.append(-(xs[i] + xs[j]))
            roots.append(xs[i] - xs[j])
            roots.append(-(xs[i] - xs[j]))
    roots.extend([Poly(), Poly(), Poly()])

    total = Poly.const(1)
    for r in roots:
        total = total * (Poly.const(1) + r)
    by_degree = total.homogeneous_parts()

    # c(V) = prod (1 - xi^2): elementary classes of V in the roots
    sq = [x * x for x in xs]
    c2 = -(sq[0] + sq[1] + sq[2])
    c4 = sq[0] * sq[1] + sq[0] * sq[2] + sq[1] * sq[2]
    c6 = -(sq[0] * sq[1] * sq[2])

    odd_vanish = all(by_degree.get(d, Poly()).is_zero() for d in (1, 3, 5))
    deg2_ok = by_degree.get(2, Poly()) == 8 * c2
    deg4_ok = by_degree.get(4, Poly()) == 22 * c2 * c2 + 14 * c4
    deg6_ok = by_degree.get(6, Poly()) == 28 * c2 ** 3 + 54 * c2 * c4 + 38 * c6

    return {
        "odd_classes_vanish": odd_vanish,
        "degree1_coefficients": [8],
        "degree1_ok": deg2_ok,
        "degree2_coefficients": [22, 14],
        "degree2_ok": deg4_ok,
        "degree3_coefficients": [28, 54, 38],
        "degree3_ok": deg6_ok,
        "ok": odd_vanish and deg2_ok and deg4_ok and deg6_ok,
    }


# ---------------------------------------------------------------------------
# relation matrices

_0 = Poly()
_1 = Poly.const(1)
_2 = Poly.const(2)


@dataclass(frozen=True)
class LemmaSpec:
    lemma_id: str
    degree: int  # cover degree of the strata the lemma speaks about
    generators: Tuple[str, ...]
    rows: Tuple[Tuple[Poly, ...], ...]
    claimed: Optional[Poly]
    substitutions: Tuple[Tuple[str, Poly], ...]
    hypotheses: Tuple[Tuple[Poly, str], ...]  # atoms, as in strata.Table
    annotations: Tuple[str, ...] = ()
    reconstructed_rows: Optional[Tuple[Tuple[Poly, ...], ...]] = None
    # (genus, e, f) of a stratum where the closed form is engineered to
    # vanish; verify_lemma certifies the printed matrix singular there
    engineered_zero: Optional[
        Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = None


def _chain(parts, signs: str) -> tuple:
    """The atoms p1 s1 p2 s2 p3 ... of a chain of "<" and "=" signs."""
    return tuple((b - a - 1, ">=") if s == "<" else (b - a, "==")
                 for a, b, s in zip(parts, parts[1:], signs))


_DP_BASE = _chain(E, "<<") + _chain(F, "<") + ((F2 - 2 * E1 - 1, ">="),)
_DP1 = _DP_BASE + ((F1 - 2 * E1, "=="),)
_DP3I = _DP_BASE + ((2 * E1 - F1 - 1, ">="), (E1 + E3 - 2 * E2, "=="),
                    (F2 - 2 * E2, "=="))


_DP_ROWS_AS_BS = (
    (_1, _1, _1, _0, _0),
    (E2 + E3, E1 + E3, E1 + E2, _0, _0),
    (_0, _0, _0, _1, _1),
    (_0, _0, _0, F2, F1),
)

# relation rows over (s, t, l, m, n) reconstructed from
# 0 = (8g+20)a1 - 8a2' - b2'  and  kappa1 = (12g+24)a1 - 12a2'
# using e1+e2+e3 = g+3; they differ from the printed rows by adding
# 48 resp. 72 times the a1-row (1,1,1,0,0)
_BIGMAT_RECON_ROW4 = (8 * E2 - 4, 8 * E3 - 4, 8 * E1 - 4, -F2, -F1)
_BIGMAT_RECON_ROW5 = (12 * E2 - 12, 12 * E3 - 12, 12 * E1 - 12, _0, _0)

_BIGMAT_PRINTED_ROW4 = (8 * E2 + 44, 8 * E3 + 44, 8 * E1 + 44, -F2, -F1)
_BIGMAT_PRINTED_ROW5 = (12 * E2 + 60, 12 * E3 + 60, 12 * E1 + 60, _0, _0)

_DISCREPANCY_NOTE = (
    "documented-discrepancy: the printed rows built from the relations "
    "(8g+20)a1 - 8a2' - b2' = 0 and kappa1 = (12g+24)a1 - 12a2' differ "
    "from the relation-derived rows by 48 resp. 72 times the row "
    "(1,1,1,0,0); both determinants are reported")

_PENT_F_ROW = (2 * F4 + 2 * F2, F4 + 2 * F2 + F1, 2 * F4 + F2 + F1)

LEMMAS: Dict[str, LemmaSpec] = {}
_HYPOTHESES: Dict[str, strata.Table] = {}  # each lemma's, compiled once


def _register(spec: LemmaSpec) -> None:
    LEMMAS[spec.lemma_id] = spec
    _HYPOTHESES[spec.lemma_id] = strata.Table(
        spec.degree, {spec.lemma_id: spec.hypotheses})


_register(LemmaSpec(
    lemma_id="twoequalparts",
    degree=4,
    generators=("r1", "l", "m", "n"),
    rows=(
        (_1, _1, _0, _0),
        (E1 + E2, 2 * E2, _0, _0),
        (_0, _0, _1, _1),
        (_0, _0, F2, F1),
    ),
    claimed=None,
    substitutions=(),
    hypotheses=_chain(E, "<=") + _chain(F, "<"),
    annotations=(
        "invertibility claim only; no closed-form determinant is stated",),
))

_register(LemmaSpec(
    lemma_id="distinctparts-1",
    degree=4,
    generators=("l", "s", "t", "m", "n"),
    rows=_DP_ROWS_AS_BS + ((_2, _0, _0, Poly.const(-1), _0),),
    claimed=2 * (E3 - E2) * (F2 - F1),
    substitutions=(
        ("f1", 2 * E1),
        ("f2", G + 3 - 2 * E1),
        ("e3", G + 3 - E1 - E2),
    ),
    hypotheses=_DP1,
))

_register(LemmaSpec(
    lemma_id="distinctparts-2",
    degree=4,
    generators=("s", "t", "l", "m", "n"),
    rows=(
        (_2, _0, _0, _0, Poly.const(-1)),
        (_0, _0, _2, Poly.const(-1), _0),
        (_1, _1, _1, Poly.const(-1), Poly.const(-1)),
        _BIGMAT_PRINTED_ROW4,
        _BIGMAT_PRINTED_ROW5,
    ),
    claimed=48 * (G + 5) * (E2 - E1),
    substitutions=(
        ("f1", 2 * E1),
        ("f2", 2 * E2),
        ("e3", G + 3 - E1 - E2),
        ("g", 2 * E1 + 2 * E2 - 3),
    ),
    hypotheses=_DP1 + ((F2 - 2 * E2, "=="),),
    annotations=(_DISCREPANCY_NOTE,),
    reconstructed_rows=(
        (_2, _0, _0, _0, Poly.const(-1)),
        (_0, _0, _2, Poly.const(-1), _0),
        (_1, _1, _1, Poly.const(-1), Poly.const(-1)),
        _BIGMAT_RECON_ROW4,
        _BIGMAT_RECON_ROW5,
    ),
))

_register(LemmaSpec(
    lemma_id="distinctparts-3i",
    degree=4,
    generators=("l", "s", "t", "m", "n"),
    rows=_DP_ROWS_AS_BS + ((_0, _2, _0, _0, Poly.const(-1)),),
    claimed=-2 * (E3 - E1) * (F2 - F1),
    substitutions=(
        ("e3", 2 * E2 - E1),
        ("f2", 2 * E2),
        ("f1", G + 3 - 2 * E2),
        ("g", 3 * E2 - 3),
    ),
    hypotheses=_DP3I,
))

_register(LemmaSpec(
    lemma_id="distinctparts-3ii",
    degree=4,
    generators=("s", "t", "l", "m", "n"),
    rows=(
        (_2, _0, _0, _0, Poly.const(-1)),
        (_0, _1, _1, _0, Poly.const(-1)),
        (_1, _1, _1, Poly.const(-1), Poly.const(-1)),
        _BIGMAT_PRINTED_ROW4,
        _BIGMAT_PRINTED_ROW5,
    ),
    claimed=-12 * (F1 + G - 9) * (E3 - E1),
    substitutions=(
        ("e3", 2 * E2 - E1),
        ("f2", 2 * E2),
        ("f1", G + 3 - 2 * E2),
        ("g", 3 * E2 - 3),
    ),
    hypotheses=_DP3I + ((G + F1 - 9, "!="),),
    annotations=(_DISCREPANCY_NOTE,),
    reconstructed_rows=(
        (_2, _0, _0, _0, Poly.const(-1)),
        (_0, _1, _1, _0, Poly.const(-1)),
        (_1, _1, _1, Poly.const(-1), Poly.const(-1)),
        _BIGMAT_RECON_ROW4,
        _BIGMAT_RECON_ROW5,
    ),
    # the one admissible stratum of this shape with g = 9 - f1
    engineered_zero=(6, (2, 3, 4), (3, 6)),
))

_register(LemmaSpec(
    lemma_id="shape1",
    degree=5,
    generators=("l", "r1", "t", "s", "m1", "n1"),
    rows=(
        (_0, Poly.const(-1), Poly.const(-1), _0, _0, _1),
        (Poly.const(-1), Poly.const(-1), _0, _0, _1, _0),
        (_1, _1, _1, _0, _0, _0),
        (E1 + 2 * E2, E1 + E2 + E4, 2 * E2 + E4, _0, _0, _0),
        (_0, _0, _0, _1, _1, _1),
        (_0, _0, _0, 2 * F3 + 2 * F1, F5 + F3 + 2 * F1, F5 + 2 * F3 + F1),
    ),
    claimed=(-E1 * F1 + E2 * F1 - E2 * F3 + E4 * F3 + E1 * F5 - E4 * F5),
    substitutions=(),
    hypotheses=_chain(E, "<=<") + _chain(F, "=<=<") + (
        (E4 + F1 + F2 - G - 4, "=="), (E1 + F3 + F4 - G - 4, "==")),
))

_register(LemmaSpec(
    lemma_id="forsigma2",
    degree=5,
    generators=("l", "r1", "s", "t", "m1", "n1"),
    rows=(
        (_0, Poly.const(-2), Poly.const(-2), _0, _1, _1),
        (_2, _1, _2, Poly.const(-2), _0, Poly.const(-1)),
        (_1, _1, _1, _0, _0, _0),
        (E2 + 2 * E3, E1 + E2 + E3, E1 + 2 * E3, _0, _0, _0),
        (_0, _0, _0, _1, _1, _1),
        (_0, _0, _0) + _PENT_F_ROW,
    ),
    claimed=(2 * E2 * F1 - 2 * E3 * F1 - E1 * F2 - 3 * E2 * F2
             + 4 * E3 * F2 + E1 * F4 + E2 * F4 - 2 * E3 * F4),
    substitutions=(),
    hypotheses=_chain(E, "<<=") + _chain(F, "<=<=") + (
        (E1 + F2 + F5 - G - 4, "=="), (E3 + F1 + F2 - G - 4, "==")),
))

_register(LemmaSpec(
    lemma_id="forsigma3",
    degree=5,
    generators=("l", "r1", "s", "t", "m1", "n1"),
    rows=(
        (_0, Poly.const(-2), Poly.const(-2), _0, _1, _1),
        (Poly.const(-2), Poly.const(-1), Poly.const(-2), _2, _1, _0),
        (_1, _1, _1, _0, _0, _0),
        (2 * E2 + E4, E1 + E2 + E4, E1 + 2 * E2, _0, _0, _0),
        (_0, _0, _0, _1, _1, _1),
        (_0, _0, _0) + _PENT_F_ROW,
    ),
    claimed=(-2 * E2 * F1 + 2 * E4 * F1 + E1 * F2 - 2 * E2 * F2
             + E4 * F2 - E1 * F4 + 4 * E2 * F4 - 3 * E4 * F4),
    substitutions=(),
    hypotheses=_chain(E, "<=<") + _chain(F, "<=<=") + (
        (E1 + F2 + F5 - G - 4, "=="), (E2 + F1 + F4 - G - 4, "==")),
))

def _stratum_values(g: int, e, f) -> Dict[str, int]:
    values = {"g": g}
    for i, p in enumerate(e):
        values["e%d" % (i + 1)] = p
    for i, p in enumerate(f):
        values["f%d" % (i + 1)] = p
    return values


def _null_vector(rows: List[List[Fraction]]) -> Optional[List[Fraction]]:
    """A nonzero rational kernel vector of a square matrix, or None."""
    form = Echelon()
    for row in rows:
        form.insert(integer_row(dict(enumerate(row))))
    free = next((c for c in range(len(rows)) if c not in form.rows), None)
    if free is None:
        return None
    vec = [Fraction(0)] * len(rows)
    vec[free] = Fraction(1)
    for c, row in form.rows.items():
        vec[c] = Fraction(-row.get(free, 0), row[c])
    return vec


def _rowspaces_agree(rows_a, rows_b) -> bool:
    """Whether two polynomial matrices have the same row space over
    Q(parameters): equal ranks, and stacking them adds nothing. Two row
    spaces of full column rank are both the whole space, so then the
    stacked matrix is not eliminated."""
    rank_a = _bareiss(rows_a)[0]
    if rank_a != _bareiss(rows_b)[0]:
        return False
    return (rank_a == (len(rows_a[0]) if rows_a else 0)
            or rank_a == _bareiss(list(rows_a) + list(rows_b))[0])


@dataclass
class LemmaReport:
    lemma: str
    matrix: List[List[str]]
    substitutions: List[List[str]]
    det_computed: str
    det_claimed: Optional[str]
    verdict: str
    evaluations: List[dict]
    annotations: List[str] = field(default_factory=list)
    reconstructed: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {
            "lemma": self.lemma,
            "matrix": self.matrix,
            "substitutions": self.substitutions,
            "det_computed": self.det_computed,
            "det_claimed": self.det_claimed,
            "verdict": self.verdict,
            "evaluations": self.evaluations,
        }
        if self.annotations:
            out["annotations"] = list(self.annotations)
        if self.reconstructed is not None:
            out["reconstructed"] = self.reconstructed
        return out

    def to_json(self) -> str:
        return jsontext.dumps(self.to_dict())

    @property
    def nonvanishing(self) -> bool:
        """Whether every evaluation is nonvanishing or an engineered zero."""
        return all(ev["nonvanishing"] or ev.get("engineered_zero")
                   for ev in self.evaluations)

    @property
    def is_failure(self) -> bool:
        """True for a mismatch that is not a documented discrepancy, or
        a vanishing determinant at a stratum where it must not vanish."""
        return ((self.verdict.startswith("mismatch") and not self.annotations)
                or not self.nonvanishing)


# genus windows in which strata are enumerated for lemma evaluations
EVAL_GENUS_RANGE = {4: range(5, 13), 5: range(7, 10)}


def _applicable_strata(spec: LemmaSpec, enumerated: Dict[Tuple[int, int], list]):
    """Strata meeting the lemma's hypotheses; `enumerated` holds each
    (degree, genus) enumeration so that it is made once. Only the verdict
    is needed, so the records, already checked by the enumerator, go to
    the compiled predicate directly."""
    holds = _HYPOTHESES[spec.lemma_id].holds
    for g in EVAL_GENUS_RANGE[spec.degree]:
        key = (spec.degree, g)
        if key not in enumerated:
            enumerated[key] = strata.enumerate_strata(*key)
        for rec in enumerated[key]:
            if holds(g, rec.e.parts + rec.f.parts):
                yield g, rec


def verify_lemma(lemma_id: str, _enumerated: Optional[dict] = None) -> LemmaReport:
    """Verify one registered lemma. `verify_all_lemmas` passes
    `_enumerated` so that its calls share each strata enumeration."""
    spec = LEMMAS[lemma_id]
    subs = spec.substitutions
    rows = [[entry.rewrite(subs) for entry in row] for row in spec.rows]
    det_computed = det(rows)
    claimed_sub = (None if spec.claimed is None
                   else spec.claimed.rewrite(subs))

    if spec.claimed is None:
        verdict = "nonvanishing-only"
    elif det_computed == claimed_sub:
        verdict = "match"
    else:
        verdict = "mismatch(%s)" % (det_computed - claimed_sub)

    evaluations: List[dict] = []
    for g, rec in _applicable_strata(
            spec, {} if _enumerated is None else _enumerated):
        values = _stratum_values(g, rec.e.parts, rec.f.parts)
        value_computed = det_computed.evaluate(values)
        value_claimed = (None if claimed_sub is None
                         else claimed_sub.evaluate(values))
        evaluations.append({
            "stratum": {
                "genus": g,
                "label": rec.label,
                "e": list(rec.e.parts),
                "f": list(rec.f.parts),
            },
            "value_computed": str(value_computed),
            "value_claimed": None if value_claimed is None else str(value_claimed),
            "nonvanishing": value_computed != 0,
        })

    if spec.engineered_zero is not None:
        evaluations.append(_engineered_zero_evaluation(spec))

    reconstructed = None
    if spec.reconstructed_rows is not None:
        recon_rows = [[entry.rewrite(subs) for entry in row]
                      for row in spec.reconstructed_rows]
        det_recon = det(recon_rows)
        reconstructed = {
            "matrix": [[str(x) for x in row] for row in spec.reconstructed_rows],
            "det_computed": str(det_recon),
            "matches_claimed": det_recon == claimed_sub,
            "rowspace_same_as_printed": _rowspaces_agree(
                spec.rows, spec.reconstructed_rows),
            "row_differences": [
                [str(a - b) for a, b in zip(row_p, row_r)]
                for row_p, row_r in zip(spec.rows, spec.reconstructed_rows)
            ],
        }

    return LemmaReport(
        lemma=lemma_id,
        matrix=[[str(x) for x in row] for row in spec.rows],
        substitutions=[[v, str(p)] for v, p in spec.substitutions],
        det_computed=str(det_computed),
        det_claimed=None if claimed_sub is None else str(claimed_sub),
        verdict=verdict,
        evaluations=evaluations,
        annotations=list(spec.annotations),
        reconstructed=reconstructed,
    )


def _engineered_zero_evaluation(spec: LemmaSpec) -> dict:
    """The closed form vanishes at the stratum `spec.engineered_zero`
    (for distinctparts-3ii, -12(f1+g-9)(e3-e1) at g = 9 - f1); the printed
    matrix is singular there, which we certify with an explicit rational
    null vector."""
    g, e, f = spec.engineered_zero
    values = _stratum_values(g, e, f)
    numeric = [[entry.evaluate(values) for entry in row] for row in spec.rows]
    vec = _null_vector(numeric)
    singular = vec is not None
    if singular:
        check = [sum(row[j] * vec[j] for j in range(len(vec)))
                 for row in numeric]
        singular = all(x == 0 for x in check) and any(x != 0 for x in vec)
    claimed_value = spec.claimed.evaluate(values)
    return {
        "stratum": {"genus": g, "label": None, "e": list(e), "f": list(f)},
        "value_computed": "0" if singular else "nonzero",
        "value_claimed": str(claimed_value),
        "nonvanishing": False,
        "engineered_zero": True,
        "singular_confirmed": singular,
        "null_vector": None if vec is None else [str(x) for x in vec],
    }


def verify_all_lemmas() -> List[LemmaReport]:
    enumerated: Dict[Tuple[int, int], list] = {}
    return [verify_lemma(lemma_id, enumerated) for lemma_id in LEMMAS]
