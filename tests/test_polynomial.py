"""Tests for `Poly` arithmetic and the determinants against a reference
kept here: polynomials as dicts from exponent tuples to Fractions,
multiplied term by term, and determinants as Leibniz permutation sums
or as the product of U's diagonal for A = L.U."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from splitloci import chowsym as cs
from splitloci.linalg import Echelon, integer_row
from splitloci.polynomial import ONE_MONO, Packing, Poly

NAMES = ("x", "y", "z")
ONE = (0, 0, 0)
# five variables whose sorted order differs from their index order
NAMES5 = ("x", "y", "z", "a2", "a10")


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


def r_evaluate(a, point):
    """The value of a at the point, one value per index."""
    total = Fraction(0)
    for m, c in a.items():
        term = Fraction(c)
        for value, e in zip(point, m):
            term *= Fraction(value) ** e
        total += term
    return total


def to_poly(a, names=NAMES):
    """A Poly built from non-canonical monomials: variables in reverse
    order, zero exponents kept."""
    return Poly({tuple((names[i], m[i]) for i in reversed(range(len(m)))): c
                 for m, c in a.items()})


def from_poly(p, names=NAMES):
    """The reference form of p, after checking that p is canonical, uses
    only the given variables, and has every integral coefficient an int."""
    out = {}
    for mono, c in p.terms.items():
        used = [v for v, _ in mono]
        assert used == sorted(set(used)), mono
        assert set(used) <= set(names), mono
        assert all(e > 0 for _, e in mono), mono
        assert c != 0
        if Fraction(c).denominator == 1:
            assert type(c) is int, (mono, c)
        else:
            assert type(c) is Fraction, (mono, c)
        exps = dict(mono)
        out[tuple(exps.get(v, 0) for v in names)] = Fraction(c)
    return out


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
monos = st.tuples(*(st.integers(0, 2) for _ in NAMES))
polys = st.dictionaries(monos, coeffs, max_size=4).map(
    lambda d: {m: c for m, c in d.items() if c})
affine = st.dictionaries(st.sampled_from([ONE, (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                         coeffs, max_size=4).map(
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

    # int points run evaluate's all-int path, Fraction points its mixed one
    @given(polys, st.tuples(*(st.integers(-5, 5) for _ in NAMES))
           | st.tuples(*(coeffs for _ in NAMES)))
    def test_evaluate_at_int_and_fraction_points(self, a, point):
        got = to_poly(a).evaluate(dict(zip(NAMES, point)))
        assert type(got) is Fraction
        assert got == r_evaluate(a, point)

    # affine replacements: successive powers of higher-degree ones blow
    # up the reference's term count, and the order is what is under test
    @given(polys, st.lists(st.tuples(st.integers(0, 2), affine), max_size=3))
    def test_rewrite_is_successive_substitution(self, a, steps):
        got = to_poly(a).rewrite([(NAMES[i], to_poly(q)) for i, q in steps])
        want = a
        for i, q in steps:
            want = r_substitute(want, {i: q})
        assert from_poly(got) == want

    def test_rewrite_order_matters_and_substitute_is_simultaneous(self):
        x, y = Poly.var("x"), Poly.var("y")
        assert x.rewrite([("x", y), ("y", 2)]) == 2
        assert x.rewrite([("y", 2), ("x", y)]) == y
        assert x.substitute({"x": y, "y": 2}) == y

    def test_evaluate_without_a_value_raises(self):
        p = Poly.var("x") * Poly.var("y") + 1
        with pytest.raises(KeyError, match="'y'"):
            p.evaluate({"x": 2})
        assert Poly.const(3).evaluate({}) == 3

    @given(polys, polys)
    def test_divide_exact_on_products(self, a, b):
        if not b:
            return
        product = to_poly(r_mul(a, b))
        assert from_poly(product.divide_exact(to_poly(b))) == a

    def test_inexact_division_raises(self):
        x, y = Poly.var("x"), Poly.var("y")
        # the lead x^3 / y, x*y^2 / x^2 or x^3 / (x*y) would borrow a digit
        # if packed monomials were subtracted without a check; a divisor
        # of higher degree than the dividend cannot divide it; and x + y^2
        # leads with y^2 in graded order, with x in lex order
        for dividend, divisor in [(x * x + 1, x + 1), (x ** 3, y),
                                  (x * y ** 2, x ** 2), (x ** 3 + y, x * y),
                                  (x, x ** 2 + 1), (x * y + 1, y ** 3),
                                  (x ** 2, x + y ** 2),
                                  (x * y - y ** 2, 2 * y ** 2 + 2 * x)]:
            with pytest.raises(ValueError, match="inexact"):
                dividend.divide_exact(divisor)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Poly.var("x").divide_exact(Poly())


# Operands over five variables, each on its own variable set, with
# exponents up to 6: a product's total degree reaches one below the
# radix of its packing, the sum of the operands' degrees plus one.
nonzero_coeffs = coeffs.filter(bool)


@st.composite
def polys5(draw, support=None):
    if support is None:
        support = draw(st.sets(st.integers(0, 4), min_size=1))
    exps = [st.integers(0, 6) if i in support else st.just(0) for i in range(5)]
    size = draw(st.sampled_from((1, 1, 2, 3, 4)))
    return draw(st.dictionaries(st.tuples(*exps), nonzero_coeffs,
                                min_size=1, max_size=size))


X6Y6 = {(6, 0, 0, 0, 0): Fraction(1), (0, 6, 0, 0, 0): Fraction(-2, 3),
        (0, 0, 0, 0, 0): Fraction(5)}


class TestPacking:
    @settings(max_examples=100)
    @given(polys5(), polys5())
    @example(X6Y6, X6Y6)
    def test_mul_and_divide_on_overlapping_variables(self, a, b):
        self.check(a, b)

    @settings(max_examples=50)
    @given(polys5(support={0, 1}), polys5(support={2, 3, 4}))
    def test_mul_and_divide_on_disjoint_variables(self, a, b):
        self.check(a, b)
        self.check(b, a)

    @settings(max_examples=100)
    @given(polys5(), polys5())
    def test_divide_is_exact_or_raises(self, a, b):
        p, q = to_poly(a, NAMES5), to_poly(b, NAMES5)
        try:
            quotient = p.divide_exact(q)
        except ValueError:
            return
        assert r_mul(from_poly(quotient, NAMES5), b) == a

    @staticmethod
    def check(a, b):
        p, q = to_poly(a, NAMES5), to_poly(b, NAMES5)
        product = r_mul(a, b)
        assert from_poly(p * q, NAMES5) == product
        assert from_poly(q * p, NAMES5) == product
        assert from_poly(to_poly(product, NAMES5).divide_exact(q), NAMES5) == a


class TestPowAndHash:
    @pytest.mark.parametrize("n", range(9))
    def test_pow_is_repeated_product(self, n, monkeypatch):
        p = to_poly({(1, 0, 0): Fraction(2), (0, 1, 1): Fraction(-1, 2),
                     ONE: Fraction(3)})
        want = Poly.const(1)
        for _ in range(n):
            want = want * p
        calls = []
        mul = Poly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        assert p ** n == want
        # one product per set bit, one squaring per bit below the top one
        assert len(calls) == bin(n).count("1") + max(n.bit_length() - 1, 0)

    @pytest.mark.parametrize("value", [0, 3, -7, Fraction(1, 2), Fraction(-4, 3)])
    def test_constant_hashes_like_its_scalar(self, value):
        const = Poly.const(value)
        assert const == value
        assert hash(const) == hash(value)
        assert len({const, value}) == 1
        assert {value: "v"}[const] == "v"
        assert {const: "p"}[value] == "p"

    def test_zero_hashes_like_zero(self):
        assert hash(Poly()) == hash(0)
        assert {Poly(), 0, Fraction(0)} == {0}

    def test_equal_polys_hash_equal(self):
        x, y = Poly.var("x"), Poly.var("y")
        assert hash((x + y) * (x - y)) == hash(x ** 2 - y ** 2)


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

    def test_negative_exponent_raises(self):
        for terms in ({(("x", -1),): 1}, {(("x", 2), ("x", -1)): 1}):
            with pytest.raises(ValueError, match="negative exponent"):
                Poly(terms)
        with pytest.raises(ValueError, match="negative exponent"):
            Poly.var("x", -1)

    def test_repeats_merge_and_collisions_add(self):
        assert Poly({(("x", 1), ("x", 2)): 1}) == Poly.var("x", 3)
        assert Poly({(("x", 0), ("y", 1)): 1}) == Poly.var("y")
        assert Poly({(("y", 1), ("x", 1)): 1,
                     (("x", 1), ("y", 1)): -1}).is_zero()
        assert Poly({(("y", 1), ("x", 1)): 1,
                     (("x", 1), ("y", 1)): 1}) == 2 * Poly.var("x") * Poly.var("y")


class TestExactScalars:
    # neither a float nor a string stays exact; Fraction("1/2") would
    # parse the string, Fraction(0.1) would take the binary expansion
    INEXACT = [0.5, 0.1, "1/2", "3", 1j, None]

    @pytest.mark.parametrize("value", INEXACT)
    def test_inexact_scalars_raise(self, value):
        x = Poly.var("x")
        for build in (lambda: Poly({ONE_MONO: value}), lambda: Poly.const(value),
                      lambda: Poly.var("x", coeff=value),
                      lambda: x.substitute({"x": value}),
                      lambda: x.substitute({"y": value}),
                      lambda: x.rewrite([("x", value)]),
                      lambda: x.rewrite([("y", value)]),
                      lambda: x.evaluate({"x": value})):
            with pytest.raises(TypeError, match="not an int or a Fraction"):
                build()

    def test_bool_is_an_int(self):
        x = Poly.var("x")
        assert Poly.const(True) == 1
        assert type(Poly.const(True).terms[ONE_MONO]) is int
        assert x.substitute({"x": True}) == 1
        assert x.evaluate({"x": False}) == 0

    # each key of a dict would unpack as a (variable, value) pair: "e1"
    # as variable "e" with value "1", "x" and "abc" not at all
    @pytest.mark.parametrize("name", ["e1", "x", "abc"])
    def test_rewrite_rejects_a_mapping(self, name):
        with pytest.raises(TypeError, match="not a mapping"):
            Poly.var(name).rewrite({name: Poly.const(5)})


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


@st.composite
def mixed_degree_matrices(draw):
    """Rows of different largest degrees in one variable, so that
    det_cofactor takes them in an order other than bottom-up."""
    n = draw(st.integers(2, 5))
    return [[draw(univariate(draw(st.integers(0, 3)))) for _ in range(n)]
            for _ in range(n)]


def _monomial(*exps, c=1):
    return {exps: Fraction(c)}


# a row of degree 0 among rows of degree 2, and two rows of degree 1
_LOW = [_monomial(0, 0, 0, c=2), _monomial(0, 0, 0, c=-1), _monomial(0, 0, 0, c=3)]
_HIGH = [[_monomial(2, 0, 0), _monomial(1, 1, 0, c=3), _monomial(0, 2, 0)],
         [_monomial(0, 1, 1), {}, _monomial(2, 0, 0, c=-2)]]
_TIED = [[_monomial(1, 0, 0), _monomial(0, 1, 0), _monomial(0, 0, 1)],
         [_monomial(0, 0, 1, c=2), _monomial(1, 0, 0), _monomial(0, 1, 0, c=-1)]]


class TestCofactorAgainstLeibniz:
    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    @example([[{(1, 1, 0): Fraction(-3)}]])
    @example([])
    def test_cofactor_is_leibniz_sum(self, mat):
        rows = [[to_poly(e) for e in row] for row in mat]
        assert from_poly(cs.det_cofactor(rows)) == leibniz(mat)

    @settings(max_examples=60, deadline=None)
    @given(mixed_degree_matrices())
    def test_rows_of_mixed_degrees(self, mat):
        rows = [[to_poly(e) for e in row] for row in mat]
        assert from_poly(cs.det_cofactor(rows)) == leibniz(mat)

    @pytest.mark.parametrize("mat", [
        [_LOW] + _HIGH, [_HIGH[0], _LOW, _HIGH[1]], _HIGH + [_LOW],
        [_LOW] + _TIED, _TIED + [_LOW], [_TIED[0], _LOW, _TIED[1]],
        _TIED[::-1] + [_LOW], [_HIGH[0], _TIED[0], _LOW],
    ], ids=["low-first", "low-middle", "low-last", "ties-after-low",
            "ties-before-low", "ties-around-low", "ties-swapped",
            "three-degrees"])
    def test_lowest_degree_row_anywhere(self, mat):
        rows = [[to_poly(e) for e in row] for row in mat]
        want = leibniz(mat)
        assert want
        assert from_poly(cs.det_cofactor(rows)) == want

    def test_zero_row_gives_zero(self):
        x = {(1, 0, 0): Fraction(1)}
        for zero in range(3):
            mat = [[x, x, {}], [x, {}, x], [{}, x, _monomial(0, 2, 0)]]
            mat[zero] = [{}, {}, {}]
            assert cs.det_cofactor([[to_poly(e) for e in row] for row in mat]).is_zero()

    def test_packing_reports_each_rows_largest_degree(self):
        # a zero entry does not count, a zero row reads -1, and the radix
        # is 2D + 1 for D the sum of the other rows' degrees
        x, y = Poly.var("x"), Poly.var("y")
        packing, _, degrees = cs._pack_matrix(
            [[x * y, Poly(), Poly.const(1)], [Poly()] * 3,
             [Poly.const(3), y, Poly()], [Poly.const(2)] * 3])
        assert degrees == [2, -1, 1, 0]
        assert packing.radix == 2 * 3 + 1


# ---------------------------------------------------------------------------
# the packed engines against the reference
#
# `_matrix_packing` gives each matrix the radix 2D+1, D the sum of its
# rows' largest degrees. In a 3x3 matrix whose first row has the
# highest degree, the second Bareiss step multiplies two minors of
# degree above D/2 each, so a radix of D+1 raises; one-variable entries
# of degree up to 4 keep the degrees high and the Leibniz sum cheap.

mixed_coeffs = st.one_of(st.integers(-3, 3),
                         st.fractions(min_value=-3, max_value=3, max_denominator=4))


def univariate(max_degree):
    return st.dictionaries(st.tuples(st.integers(0, max_degree), st.just(0),
                                     st.just(0)),
                           mixed_coeffs, max_size=3).map(
        lambda d: {m: Fraction(c) for m, c in d.items() if c})


@st.composite
def univariate_matrices(draw):
    n = draw(st.integers(1, 4))
    return [[draw(univariate(4)) for _ in range(n)] for _ in range(n)]


@st.composite
def high_first_row(draw):
    """3x3, first row of degree 3 or 4 in every entry, the others of
    degree at most 1."""
    top = st.dictionaries(st.tuples(st.integers(3, 4), st.just(0), st.just(0)),
                          mixed_coeffs.filter(bool), min_size=1, max_size=2).map(
        lambda d: {m: Fraction(c) for m, c in d.items()})
    return ([[draw(top) for _ in range(3)]]
            + [[draw(univariate(1)) for _ in range(3)] for _ in range(2)])


def rank(rows):
    """The rank over Q of a matrix of Fractions."""
    form = Echelon()
    for row in rows:
        form.insert(integer_row(dict(enumerate(row))))
    return len(form)


def generic_rank(mat):
    """Rank over Q(x) of a matrix of one-variable reference entries: the
    largest rank at the points 0..D, where D bounds the degree of every
    minor, so a nonzero minor is nonzero at one of them."""
    bound = sum(max((m[0] for e in row for m in e), default=0) for row in mat)
    best = 0
    for x in range(bound + 1):
        values = [[sum((c * x ** m[0] for m, c in e.items()), Fraction(0))
                   for e in row] for row in mat]
        best = max(best, rank(values))
    return best


class TestPackedEngines:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(univariate_matrices(), high_first_row()))
    @example([[{(4, 0, 0): Fraction(1)}, {(3, 0, 0): Fraction(2, 3)}, {(4, 0, 0): Fraction(-1)}],
              [{(1, 0, 0): Fraction(1)}, {ONE: Fraction(1)}, {}],
              [{ONE: Fraction(-2)}, {(1, 0, 0): Fraction(1, 2)}, {(1, 0, 0): Fraction(3)}]])
    def test_bareiss_cofactor_and_leibniz_agree(self, mat):
        rows = [[to_poly(e) for e in row] for row in mat]
        want = leibniz(mat)
        assert from_poly(cs.det_bareiss(rows)) == want
        assert from_poly(cs.det_cofactor(rows)) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.data())
    def test_bareiss_rank_of_non_square_and_stacked(self, nrows, ncols, data):
        a = [[data.draw(univariate(3)) for _ in range(ncols)] for _ in range(nrows)]
        b = [[data.draw(univariate(2)) for _ in range(ncols)]
             for _ in range(data.draw(st.integers(1, 2)))]
        for mat in (a, b, a + b):
            rows = [[to_poly(e) for e in row] for row in mat]
            assert cs._bareiss(rows)[0] == generic_rank(mat)

    def test_product_reaching_the_radix_raises(self):
        x = Poly.var("x") + 1
        packing = Packing([x], 2)
        with pytest.raises(RuntimeError):
            packing.mul_add({}, packing.pack(x), packing.pack(x))

    @settings(max_examples=80)
    @given(polys5(), polys5(), polys5())
    # x^2 + x over x^2 and x^2*y + y^2 over x^2*y: without the borrow
    # check the remainder's lead would give a quotient term x^-1 resp.
    # x^-2*y
    @example({(0,) * 5: Fraction(1)}, {(2, 0, 0, 0, 0): Fraction(1)},
             {(1, 0, 0, 0, 0): Fraction(1)})
    @example({(0,) * 5: Fraction(1)}, {(2, 1, 0, 0, 0): Fraction(1)},
             {(0, 2, 0, 0, 0): Fraction(-3, 2)})
    def test_division_with_a_remainder_raises(self, a, b, r):
        """b * a + r with r of lower degree than b is a multiple of b
        only when r is 0: b * q has degree at least b's for q != 0."""
        degree = max(sum(m) for m in b)
        r = {m: c for m, c in r.items() if sum(m) < degree}
        dividend = to_poly(r_add(r_mul(a, b), r), NAMES5)
        if r:
            with pytest.raises(ValueError, match="inexact"):
                dividend.divide_exact(to_poly(b, NAMES5))
        else:
            assert from_poly(dividend.divide_exact(to_poly(b, NAMES5)), NAMES5) == a


# ---------------------------------------------------------------------------
# det on A = L.U against the product of U's diagonal

NAMES4 = NAMES5[:4]
affine4 = st.tuples(*(st.integers(-3, 3) for _ in range(5))).map(
    lambda c: {m: Fraction(k) for m, k in zip(
        [(0, 0, 0, 0)] + [tuple(int(i == j) for j in range(4)) for i in range(4)], c)
        if k})


@st.composite
def lu_factors(draw, n=5):
    one = {(0, 0, 0, 0): Fraction(1)}
    lower = [[one if i == j else draw(affine4) if i > j else {} for j in range(n)]
             for i in range(n)]
    upper = [[draw(affine4) if i <= j else {} for j in range(n)] for i in range(n)]
    return lower, upper


class TestDetOnLU:
    @settings(max_examples=4, deadline=None)
    @given(lu_factors())
    def test_det_is_product_of_u_diagonal(self, factors):
        lower, upper = factors
        n = len(lower)
        a = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    a[i][j] = r_add(a[i][j], r_mul(lower[i][k], upper[k][j]))
        want = {(0, 0, 0, 0): Fraction(1)}
        for i in range(n):
            want = r_mul(want, upper[i][i])
        rows = [[to_poly(e, NAMES4) for e in row] for row in a]
        assert from_poly(cs.det(rows), NAMES4) == want
