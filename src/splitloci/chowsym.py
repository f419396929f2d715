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
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import comb, lcm, prod

from . import strata
from .linalg import Echelon, integer_row
from .polynomial import Packing, Poly, Scalar
from .record import FrozenRecord, Record
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
    return Poly.const(x)


_Z = Poly.var("z")
_C2 = Poly.var("c2")


class ZPair(namedtuple("ZPair", "a b")):
    """The class a + b*z, read off a polynomial reduced to degree 1 in z;
    a and b are Polys."""
    __slots__ = ()


def _reduce_z(p: Poly) -> Poly:
    """p with each z^2 replaced by -c2, so that z occurs at most linearly."""
    out = Poly()
    for mono, coeff in p.terms.items():
        k = dict(mono).get("z", 0)
        rest = tuple(pair for pair in mono if pair[0] != "z")
        out = out + Poly({rest + (("z", k % 2),): coeff}) * (-_C2) ** (k // 2)
    return out


class Piece(FrozenRecord):
    """Filtration subquotient: rank 1 or 2, with a twist by O(d)."""

    # rank: int; classes: (x,) or (x1, x2); twist: Poly
    __slots__ = ("rank", "classes", "twist")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
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


def chern_total(bundle: FilteredBundle) -> list[ZPair]:
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

def _pack_matrix(mat) -> tuple[Packing, list[list[dict[int, Scalar]]]]:
    """One graded packing for a skew matrix and every product that the
    Pfaffians form, and the matrix packed with it. The radix is D+1,
    where D is the sum of the rows' largest total degrees: each Pfaffian
    product takes its two entries from four distinct rows, so no
    product reaches the radix. On the benchmark's skew matrices (seeds
    1-10, median of best-of-15, a 2-vCPU Xeon) a `pfaffians` call takes
    126 us this way, 225 us on plain Poly products and 300 us on
    `_slot_pack_matrix` with a `_slot_unpack` per Pfaffian, so the
    Pfaffians keep this packing.
    """
    rows = [[_to_poly(x) for x in row] for row in mat]
    bound = sum(max((entry.total_degree() for entry in row), default=0)
                for row in rows)
    packing = Packing([entry for row in rows for entry in row], bound + 1)
    return packing, [[packing.pack(entry) for entry in row] for row in rows]


# The largest slot span W * prod(b_v + 1), in bits, that
# `_slot_pack_matrix` lets a packed value reach. A wider slot saves key
# dicts but makes every product and exact division one longer big-int
# operation, and CPython's big-int division is quadratic. `det` on the
# L.U matrices of the benchmark's seeds 1-10 (median over seeds of the
# best of 5, on a 2-vCPU Xeon), with a slot of 1, 2 and all 3 of x, y,
# z: 4x4, 1,200, 700 and 2,100 us at spans of about 300, 2,500 and
# 20,000 bits; 5x5, 3,700, 2,600 and 17,000 us at about 500, 5,200 and
# 52,000 bits. The 20 registry matrices (printed and reconstructed, as
# printed and substituted), at spans of 60-2,376 bits with every
# variable in the slot, take 4,800 us all told, against 11,700 us with
# one. 2^13 bits lies between the crossovers: it takes x and y of the
# L.U matrices and every variable of the registry.
SLOT_BITS = 1 << 13


class SlotPacked(namedtuple("SlotPacked",
                             "packing rows degrees slot width scale")):
    """A matrix as `_slot_pack_matrix` packs it, which the determinant
    engines take in place of Poly rows and leave unchanged, and the
    arithmetic they run on it. The fields: packing, a Packing; rows, a
    list of lists of entries; degrees, each row's largest entry degree
    as an int; slot, a tuple of (variable, degree bound) pairs; width,
    the slot width W in bits; scale, an int.

    Here a variable stays outside the slot: each entry is a dict from
    the key of a monomial in those variables to an int, and products
    and divisions run through the packing's kernels. `_IntSlotPacked`
    holds every variable in the slot, so each entry is one int.
    """
    __slots__ = ()

    one = {0: 1}  # the packed constant 1, never written to

    def mul_sub(self, a, b, c, d):
        """a * b - c * d; a cancelled term stays as a zero."""
        acc: dict[int, int] = {}
        self.packing.mul_add(acc, a, b)
        self.packing.mul_add(acc, c, d, -1)
        return acc

    def divide(self, numerator, divisor):
        """The exact quotient; a remainder raises ValueError."""
        return self.packing.divide(numerator, divisor)

    def mul_add(self, acc, a, b, sign):
        """acc + sign * a * b, added into acc, or into a new dict for
        None, and returned; a cancelled term stays as a zero."""
        if acc is None:
            acc = {}
        self.packing.mul_add(acc, a, b, sign)
        return acc

    @staticmethod
    def trim(value):
        """value without its zero terms."""
        return {k: v for k, v in value.items() if v}


class _IntSlotPacked(SlotPacked):
    """A `SlotPacked` with every variable in the slot: each entry is one
    int, and the engines run on int products and exact division."""
    __slots__ = ()

    one = 1

    @staticmethod
    def mul_sub(a, b, c, d):
        return a * b - c * d

    @staticmethod
    def divide(numerator, divisor):
        """The exact quotient; a remainder can only come from a bug, and
        raises RuntimeError."""
        quotient, remainder = divmod(numerator, divisor)
        if remainder:
            raise RuntimeError("slot-packed division leaves a remainder")
        return quotient

    @staticmethod
    def mul_add(acc, a, b, sign):
        product = a * b if sign > 0 else -(a * b)
        return product if acc is None else acc + product

    @staticmethod
    def trim(value):
        return value


def _slot_pack_matrix(mat) -> SlotPacked:
    """A matrix packed for both determinant engines, with variables
    moved into the coefficients (Kronecker substitution): the packing,
    the packed rows, each row's largest entry degree (-1 for a zero
    row), the slot, the slot width W and the product of the rows'
    scales.

    Row i is scaled to integer coefficients by the lcm s_i of its
    denominators. Each variable v has a degree bound b_v, the sum over
    the rows of v's largest exponent in the row. The slot is a sequence
    of variables v_1, ..., v_k with their bounds, and v_t stands for
    2^(W * r_t), where r_1 = 1 and r_(t+1) = r_t * (b_(v_t) + 1). So a
    scaled term c * m * prod v_t^(j_t), m free of the slot, packs to the
    key of m with coefficient c * 2^(W * p), where p = sum j_t * r_t is
    the mixed-radix number with digits j_t. Setting each v_t to its
    power of 2 is a ring map from Z[slot][others] to Z[others], so it
    carries every polynomial identity among the scaled entries, and each
    product of coefficients is one int multiply; `_slot_unpack` undoes
    the map on a result.

    The slot takes every variable that fits SLOT_BITS: in the order of
    largest degree bound first, ties by name, a variable joins when the
    span W * prod (b_v + 1) over the slot with it is at most SLOT_BITS.
    When every variable joins, each packed entry is one int and the
    engines run on int arithmetic (`_IntSlotPacked`); otherwise entries
    are dicts over the keys of the variables left out.

    Width. Let |a| be the sum of the absolute values of a's
    coefficients and B' = prod_i max(1, |a'_i|) over the scaled rows
    a'_i. A minor on rows R is, by Leibniz, a signed sum of products of
    one entry from each row of R, and a product's coefficients have
    absolute values summing to at most the product of its factors'
    sums; by the triangle inequality every coefficient of the minor is
    at most prod_(i in R) |a'_i| <= B' in absolute value. A minor's
    exponent of v is at most the sum over R of v's largest exponents,
    so at most b_v: each slot digit j_t of its monomials lies in
    [0, b_(v_t)], and distinct monomials take distinct positions p.
    W = bitlength(B') + 1 gives B' < 2^(W-1), so every minor, the
    determinant included, is read back exactly, one coefficient per
    W-bit digit, and a minor is 0 exactly when its packed value is. The
    max(1, .) matters for a zero row: without it B' would be 0 and W 1
    bit, too narrow for the minors on the other rows, which Bareiss
    tests for zero. With B' >= 1, W >= 2, so the decode of every int
    ends; at W = 1 no digit is positive.

    Radix. D is the sum of the rows' largest total degrees, and the
    radix is 2D+1. A minor on rows R has total degree at most the sum
    over R of those rows' largest degrees, so at most D. Each cofactor
    product is an entry times a minor on other rows, so it stays within
    D. The numerator before each Bareiss division is a difference of
    products of two minors, of total degree at most 2D, and every
    monomial the division's remainder reaches has degree at most the
    numerator's. So no product reaches the radix. The packing keeps a
    digit for every slot variable, for the decoded results.
    """
    rows = [[_to_poly(x) for x in row] for row in mat]
    bounds: dict[str, int] = {}
    degrees, scales = [], []
    bound = 1
    for row in rows:
        largest: dict[str, int] = {}
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
                if total > degree:
                    degree = total
                norm += abs(c)
                if type(c) is Fraction:
                    scale = lcm(scale, c.denominator)
        for var, exp in largest.items():
            bounds[var] = bounds.get(var, 0) + exp
        degrees.append(degree)
        scales.append(scale)
        bound *= max(1, norm * scale)
    width = int(bound).bit_length() + 1
    slot = []
    shifts: dict[str, int] = {}  # W * r_t for each slot variable v_t
    span = width
    for var in sorted(bounds, key=lambda var: (-bounds[var], var)):
        if span * (bounds[var] + 1) <= SLOT_BITS:
            shifts[var] = span
            span *= bounds[var] + 1
            slot.append((var, bounds[var]))
    packing = Packing([entry for row in rows for entry in row],
                      2 * sum(max(d, 0) for d in degrees) + 1)
    places = packing.places
    packed = []
    for row, scale in zip(rows, scales):
        out = []
        for entry in row:
            terms: dict[int, int] = {}
            for mono, c in entry.terms.items():
                if scale > 1:
                    c = int(c * scale)
                key = 0
                for var, exp in mono:
                    shift = shifts.get(var)
                    if shift is None:
                        key += exp * places[var]
                    else:
                        c <<= shift * exp
                terms[key] = terms.get(key, 0) + c
            out.append(terms)
        packed.append(out)
    if len(slot) < len(bounds):
        return SlotPacked(packing, packed, degrees, tuple(slot), width, prod(scales))
    return _IntSlotPacked(packing, [[entry.get(0, 0) for entry in row] for row in packed],
                          degrees, tuple(slot), width, prod(scales))


def _slot_unpack(packed: SlotPacked, value) -> Poly:
    """A slot-packed minor of the scaled matrix, divided by the scale,
    as a Poly; both determinant engines decode their result here.

    The value f(2^W, ...) at the key of m, the only value of an int
    packing at the key 0, is read off in balanced base-2^W digits, each
    in [-2^(W-1), 2^(W-1)). Digit p is the coefficient of
    m * prod v_t^(j_t), where j_1, j_2, ... are the digits of p in the
    mixed radix b_(v_1) + 1, b_(v_2) + 1, ..., least significant first;
    its key is m's plus the sum of j_t times v_t's place. That gives
    back f whenever every coefficient of f is below 2^(W-1) in absolute
    value and every exponent of v_t is at most b_(v_t), which
    `_slot_pack_matrix` proves for every minor. A packed minor lies in
    Z[others], so a value that is not an int can only come from a bug,
    and raises RuntimeError.
    """
    packing, width, scale = packed.packing, packed.width, packed.scale
    # offsets[p]: the key of prod v_t^(j_t) for the digits j_t of p
    offsets = [0]
    for var, bound in packed.slot:
        place = packing.places[var]
        offsets = [offset + j * place for j in range(bound + 1) for offset in offsets]
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    terms: dict[int, Scalar] = {}
    for key, value in (value.items() if type(value) is dict else ((0, value),)):
        if type(value) is not int:
            raise RuntimeError("slot-packed value %r is not an integer" % (value,))
        position = 0
        while value:
            digit = ((value + half) & mask) - half
            if digit:
                terms[key + offsets[position]] = (Fraction(digit, scale) if scale > 1
                                                  else digit)
            value = (value - digit) >> width
            position += 1
    return packing.unpack(terms)


def _square_packing(rows) -> SlotPacked:
    """rows packed, unless they are; a non-square matrix raises ValueError."""
    packed = rows if isinstance(rows, SlotPacked) else _slot_pack_matrix(rows)
    if any(len(row) != len(packed.rows) for row in packed.rows):
        raise ValueError("matrix is not square")
    return packed


def det_cofactor(rows) -> Poly:
    """Laplace expansion along the rows, each minor computed once, on
    the slot packing of `_slot_pack_matrix`.

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
    The expansion only adds and multiplies, so on the scaled matrix A'
    packed with the slot variables at their powers of 2 it yields that
    image of det A', which `_slot_unpack` decodes and divides by
    prod s_i: det A = det A' / prod s_i.

    It shares the packing, its arithmetic and its decode with
    `det_bareiss`, but no algorithmic step: no division and no pivot
    choice. So `det` still checks the elimination and its exact
    divisions against it; the shared packing and decode are checked by
    the Leibniz references in the tests.
    """
    packed = _square_packing(rows)
    mul_add, trim = packed.mul_add, packed.trim
    degree = packed.degrees
    n = len(packed.rows)
    # a zero row has degree -1, so it is taken first and ends the loop
    order = sorted(range(n), key=lambda i: (degree[i], -i))
    # P's rows from the top are `order` reversed, so each inversion of
    # pi is a pair taken in increasing row order
    inversions = sum(a < b for k, a in enumerate(order) for b in order[k + 1:])
    minors = {0: packed.one}  # the minor on no rows
    for i in order:
        # the row's nonzero entries, each with its column's bit
        entries = [(1 << j, entry) for j, entry in enumerate(packed.rows[i]) if entry]
        expanded: dict = {}
        for cols, minor in minors.items():
            for bit, entry in entries:
                if cols & bit:
                    continue
                # the column's position in the enlarged set fixes the sign
                sign = -1 if (cols & (bit - 1)).bit_count() % 2 else 1
                key = cols | bit
                expanded[key] = mul_add(expanded.get(key), entry, minor, sign)
        minors = {}
        for cols, value in expanded.items():
            value = trim(value)
            if value:
                minors[cols] = value
    value = _slot_unpack(packed, minors.get((1 << n) - 1, 0))
    return -value if inversions % 2 else value


def _bareiss(rows) -> tuple[int, Poly]:
    """Fraction-free elimination over Q(parameters) (Bareiss 1968), on
    the slot packing of `_slot_pack_matrix`.

    Returns the rank and, when the rank equals the number of rows, the
    last pivot divided by the row scales and negated once per row swap:
    for a square matrix, its determinant. For dependent rows the second
    value is 0. Each entry below the pivots is, after step k, a
    (k+1)-minor of the matrix, so dividing by the previous pivot is
    exact even where a column without a pivot is skipped. At the first
    step the previous pivot is the constant 1, so that division is the
    identity and only drops the cancelled terms.

    On the slot packing, every step runs on the scaled matrix A' with
    the slot variables at their powers of 2, in Z[others]. That map is
    a ring map, so it carries Sylvester's identity, numerator =
    previous pivot * new minor, into Z[others]: every division is exact
    there, with integer lead quotients, whatever W is. W matters only
    where a packed value is read: the pivot zero tests, which only ever
    see minors, and the decode of the last pivot, itself a minor.
    `_slot_pack_matrix` proves both exact for its one bound on the
    minors. The row scales are divided out only at full rank, where the
    last pivot is a minor on all rows.

    It shares the packing, its arithmetic and its decode with
    `det_cofactor`, but no algorithmic step, so `det` still checks each
    against the other.
    """
    packed = rows if isinstance(rows, SlotPacked) else _slot_pack_matrix(rows)
    mul_sub, divide, trim = packed.mul_sub, packed.divide, packed.trim
    m = [list(row) for row in packed.rows]  # a shared packing stays as it is
    ncols = len(m[0]) if m else 0
    rank = 0
    sign = 1
    prev = packed.one
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
                numerator = mul_sub(pivot, row[j], lead, pivot_row[j])
                row[j] = divide(numerator, prev) if rank else trim(numerator)
        prev = pivot
        rank += 1
    if rank < len(m):
        return rank, Poly()
    last = _slot_unpack(packed, prev)
    return rank, last if sign > 0 else -last


def det_bareiss(rows) -> Poly:
    """Fraction-free elimination; every division is exact. A matrix of
    rank below n has determinant 0."""
    return _bareiss(_square_packing(rows))[1]


def det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Bareiss determinant cross-checked against cofactor expansion up to
    6x6, both on one packing of the matrix. The two engines share that
    packing and its decode, but no algorithmic step, so the check still
    guards the elimination, its pivot choices and exact divisions, and
    the cofactor order and signs; the packing and decode are guarded by
    the Leibniz references in the tests."""
    packed = _square_packing(rows)
    value = det_bareiss(packed)
    if len(packed.rows) <= 6 and value != det_cofactor(packed):
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
    acc: dict[int, Scalar] = {}
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


def pfaffians(mat) -> tuple[Poly, ...]:
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


def generic_skew5() -> list[list[Poly]]:
    mat = [[Poly() for _ in range(5)] for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            v = Poly.var("L%d%d" % (i + 1, j + 1))
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


class LemmaSpec(FrozenRecord):
    # degree: the cover degree of the strata the lemma speaks about;
    # hypotheses: atoms, as in strata.Table; engineered_zero: (genus, e, f)
    # of a stratum where the closed form is engineered to vanish, and
    # verify_lemma certifies the printed matrix singular there
    __slots__ = ("lemma_id", "degree", "generators", "rows", "claimed",
                 "substitutions", "hypotheses", "annotations",
                 "reconstructed_rows", "engineered_zero")
    DEFAULTS = {"annotations": (), "reconstructed_rows": None,
                "engineered_zero": None}


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

LEMMAS: dict[str, LemmaSpec] = {}
_HYPOTHESES: dict[str, strata.Table] = {}  # each lemma's, compiled once


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

def _stratum_values(g: int, e, f) -> dict[str, int]:
    values = {"g": g}
    for i, p in enumerate(e):
        values["e%d" % (i + 1)] = p
    for i, p in enumerate(f):
        values["f%d" % (i + 1)] = p
    return values


def _null_vector(rows: list[list[Fraction]]) -> list[Fraction] | None:
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


class LemmaReport(Record):
    __slots__ = ("lemma", "matrix", "substitutions", "det_computed",
                 "det_claimed", "verdict", "evaluations", "annotations",
                 "reconstructed")
    DEFAULTS = {"annotations": [], "reconstructed": None}

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


def _applicable_strata(spec: LemmaSpec, enumerated: dict[tuple[int, int], list]):
    """Strata meeting the lemma's hypotheses; `enumerated` holds each
    (degree, genus) enumeration so that it is made once. The records hold
    valid parts, so they go to the compiled function directly."""
    violated = _HYPOTHESES[spec.lemma_id].violated
    for g in EVAL_GENUS_RANGE[spec.degree]:
        key = (spec.degree, g)
        if key not in enumerated:
            enumerated[key] = strata.enumerate_strata(*key)
        for rec in enumerated[key]:
            if not violated(g, rec.e.parts + rec.f.parts):
                yield g, rec


def verify_lemma(lemma_id: str, _enumerated: dict | None = None) -> LemmaReport:
    """Verify one registered lemma; an unknown id raises ValueError.
    `verify_all_lemmas` passes `_enumerated` so that its calls share
    each strata enumeration."""
    spec = LEMMAS.get(lemma_id)
    if spec is None:
        raise ValueError("unknown lemma id %r (known: %s)"
                         % (lemma_id, ", ".join(LEMMAS)))
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

    evaluations: list[dict] = []
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


def verify_all_lemmas() -> list[LemmaReport]:
    enumerated: dict[tuple[int, int], list] = {}
    return [verify_lemma(lemma_id, enumerated) for lemma_id in LEMMAS]
