"""Tests for `Poly` arithmetic and the cofactor determinant against a
reference kept here: polynomials in x, y, z as dicts from exponent
tuples to Fractions, multiplied term by term, and determinants as
Leibniz permutation sums."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from splitloci import chowsym as cs
from splitloci.polynomial import Poly

NAMES = ("x", "y", "z")
ONE = (0, 0, 0)


# ---------------------------------------------------------------------------
# reference arithmetic

def r_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def r_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(i + j for i, j in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def r_pow(a, n):
    out = {ONE: Fraction(1)}
    for _ in range(n):
        out = r_mul(out, a)
    return out


def r_substitute(a, mapping):
    """Replace the variables with index in mapping, simultaneously."""
    total = {}
    for m, c in a.items():
        kept = tuple(0 if i in mapping else e for i, e in enumerate(m))
        term = {kept: c}
        for i, q in mapping.items():
            term = r_mul(term, r_pow(q, m[i]))
        total = r_add(total, term)
    return total


def to_poly(a):
    """A Poly built from non-canonical monomials: variables in reverse
    order, zero exponents kept."""
    return Poly({tuple((NAMES[i], m[i]) for i in reversed(range(len(m)))): c
                 for m, c in a.items()})


def from_poly(p):
    """The reference form of p, after checking that p is canonical and
    that every integral coefficient is an int."""
    out = {}
    for mono, c in p.terms.items():
        names = [v for v, _ in mono]
        assert names == sorted(set(names)), mono
        assert all(e > 0 for _, e in mono), mono
        assert c != 0
        if Fraction(c).denominator == 1:
            assert type(c) is int, (mono, c)
        else:
            assert type(c) is Fraction, (mono, c)
        exps = dict(mono)
        out[tuple(exps.get(v, 0) for v in NAMES)] = Fraction(c)
    return out


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
monos = st.tuples(*(st.integers(0, 2) for _ in NAMES))
polys = st.dictionaries(monos, coeffs, max_size=4).map(
    lambda d: {m: c for m, c in d.items() if c})


# ---------------------------------------------------------------------------
# Poly against the reference

class TestPolyAgainstReference:
    @given(polys, polys)
    def test_add_sub_mul(self, a, b):
        p, q = to_poly(a), to_poly(b)
        assert from_poly(p) == a
        assert from_poly(p + q) == r_add(a, b)
        assert from_poly(p - q) == r_add(a, b, -1)
        assert from_poly(-p) == r_add({}, a, -1)
        assert from_poly(p * q) == r_mul(a, b)

    @given(polys, st.integers(0, 3))
    def test_pow(self, a, n):
        assert from_poly(to_poly(a) ** n) == r_pow(a, n)

    @given(polys, polys, polys)
    def test_substitute(self, a, qx, qz):
        got = to_poly(a).substitute({"x": to_poly(qx), "z": to_poly(qz)})
        assert from_poly(got) == r_substitute(a, {0: qx, 2: qz})

    @given(polys, coeffs)
    def test_substitute_scalar(self, a, c):
        got = to_poly(a).substitute({"y": c})
        assert from_poly(got) == r_substitute(a, {1: {ONE: c} if c else {}})

    @given(polys, polys)
    def test_divide_exact_on_products(self, a, b):
        if not b:
            return
        product = to_poly(r_mul(a, b))
        assert from_poly(product.divide_exact(to_poly(b))) == a

    def test_inexact_division_raises(self):
        x = Poly.var("x")
        with pytest.raises(ValueError, match="inexact"):
            (x * x + 1).divide_exact(x + 1)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Poly.var("x").divide_exact(Poly())


class TestIntCoefficients:
    def test_integral_results_are_demoted(self):
        half = Poly.const(Fraction(1, 2))
        for p in (half * 2, half + half, 2 * half * Poly.var("x"),
                  Poly.const(Fraction(4, 2)), Poly.var("x", coeff=Fraction(6, 3))):
            assert all(type(c) is int for c in p.terms.values()), p

    def test_divide_exact_demotes_and_keeps_fractions(self):
        x = Poly.var("x")
        assert (2 * x).divide_exact(Poly.const(4)).terms == {(("x", 1),): Fraction(1, 2)}
        q = (Fraction(3, 2) * x).divide_exact(Poly.const(Fraction(1, 2)))
        assert q.terms == {(("x", 1),): 3}
        assert type(q.terms[(("x", 1),)]) is int


class TestCanonicalMonomials:
    def test_zero_exponent_is_one(self):
        assert Poly.var("x", 0) == Poly.const(1)
        assert Poly.var("x", 0) * 1 == Poly.const(1)
        assert Poly.var("x", 0, coeff=3) == 3

    def test_variable_order_does_not_matter(self):
        yx = Poly({(("y", 1), ("x", 1)): 1})
        xy = Poly({(("x", 1), ("y", 1)): 1})
        assert yx == xy
        assert yx * 1 == xy * 1
        assert yx == Poly.var("x") * Poly.var("y")

    def test_repeats_merge_and_collisions_add(self):
        assert Poly({(("x", 1), ("x", 2)): 1}) == Poly.var("x", 3)
        assert Poly({(("x", 0), ("y", 1)): 1}) == Poly.var("y")
        assert Poly({(("y", 1), ("x", 1)): 1,
                     (("x", 1), ("y", 1)): -1}).is_zero()
        assert Poly({(("y", 1), ("x", 1)): 1,
                     (("x", 1), ("y", 1)): 1}) == 2 * Poly.var("x") * Poly.var("y")


# ---------------------------------------------------------------------------
# det_cofactor against the Leibniz formula

def leibniz(mat):
    n = len(mat)
    total = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = {ONE: Fraction(-1 if inversions % 2 else 1)}
        for i, j in enumerate(perm):
            term = r_mul(term, mat[i][j])
            if not term:
                break
        total = r_add(total, term)
    return total


small_entries = st.one_of(
    st.just({}),
    st.dictionaries(st.tuples(*(st.integers(0, 1) for _ in NAMES)),
                    st.integers(-3, 3), max_size=2).map(
        lambda d: {m: Fraction(c) for m, c in d.items() if c}))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    mat = [[draw(small_entries) for _ in range(n)] for _ in range(n)]
    zero_row = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if zero_row is not None:
        mat[zero_row] = [{} for _ in range(n)]
    return mat


class TestCofactorAgainstLeibniz:
    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_cofactor_is_leibniz_sum(self, mat):
        rows = [[to_poly(e) for e in row] for row in mat]
        assert from_poly(cs.det_cofactor(rows)) == leibniz(mat)

    def test_zero_row_gives_zero(self):
        x = {(1, 0, 0): Fraction(1)}
        mat = [[x, x, {}], [{}, {}, {}], [x, {}, x]]
        assert cs.det_cofactor([[to_poly(e) for e in row] for row in mat]).is_zero()
