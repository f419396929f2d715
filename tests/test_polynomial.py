"""Tests for `Poly` arithmetic and the determinants against a reference
kept here: polynomials as dicts from exponent tuples to Fractions,
multiplied term by term, and determinants as Leibniz permutation sums
or as the product of U's diagonal for A = L.U."""

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

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

    def test_inexact_division_fails_after_several_quotient_terms(self):
        # (x + y)^4 + rest over x + y: every term of rest is below those
        # of (x + y)^4, so the quotient terms x^3, 3x^2*y, 3x*y^2 and y^3
        # come first, and only then does a lead fail to divide
        x, y = Poly.var("x"), Poly.var("y")
        power = (x + y) ** 4
        assert power.divide_exact(x + y) == (x + y) ** 3
        for rest in (y, y * y, 5 * y - 2, x * y ** 2 - y ** 3):
            with pytest.raises(ValueError, match="inexact"):
                (power + rest).divide_exact(x + y)
        # the last quotient term y^3 cancels -y^4, and the zero left
        # in the remainder is skipped
        assert ((x - y) ** 3 * (x + y)).divide_exact(x - y) == (x - y) ** 2 * (x + y)

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


def r_str(a, names=NAMES5):
    """The text of a reference polynomial, written here without Poly:
    terms in decreasing total degree, then decreasing exponents over
    the sorted names; each a sign and the coefficient's absolute value,
    left out when it is 1 before a variable, then name^exponent factors
    in sorted name order, with ^1 left out."""
    if not a:
        return "0"
    order = sorted(range(len(names)), key=names.__getitem__)
    text = ""
    for m in sorted(a, key=lambda m: (sum(m), [m[i] for i in order]), reverse=True):
        c = a[m]
        size = abs(c)
        factors = [names[i] if m[i] == 1 else "%s^%d" % (names[i], m[i])
                   for i in order if m[i]]
        number = ("%d" % size.numerator if size.denominator == 1
                  else "%d/%d" % (size.numerator, size.denominator))
        body = "*".join(factors if factors and size == 1 else [number] + factors)
        if not text:
            text = "-" + body if c < 0 else body
        else:
            text += (" - " if c < 0 else " + ") + body
    return text


class TestStr:
    @settings(max_examples=100)
    @given(polys5())
    # a constant 1 and -1, a -1 before a variable, a Fraction and
    # exponents of 1, in names whose sorted order is not their index
    @example({(0,) * 5: Fraction(1), (1, 0, 0, 0, 1): Fraction(-1)})
    @example({(0,) * 5: Fraction(-1), (0, 0, 0, 1, 1): Fraction(2, 3),
              (0, 0, 0, 2, 0): Fraction(-3), (1, 1, 1, 0, 0): Fraction(1)})
    def test_matches_a_formatter_written_here(self, a):
        assert str(to_poly(a, NAMES5)) == r_str(a)

    def test_zero_and_a_constant(self):
        assert str(Poly()) == r_str({}) == "0"
        assert str(Poly.const(Fraction(-5, 2))) == "-5/2"
        assert str(Poly.var("a10", 2) - Poly.var("a2") * Poly.var("x")) == "a10^2 - a2*x"


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


class TestOperands:
    # a foreign operand gives NotImplemented, so Python raises TypeError
    # or, for ==, compares identities
    def test_an_operand_that_is_not_a_number(self):
        x = Poly.var("x")
        with pytest.raises(TypeError):
            x + "x"
        with pytest.raises(TypeError):
            x - "x"
        with pytest.raises(TypeError):
            x * None
        assert (x == "x") is False

    def test_subtraction_from_a_scalar(self):
        x = Poly.var("x")
        assert 1 - x == Poly.const(1) - x == -(x - 1)
        assert Fraction(1, 2) - x == Poly.const(Fraction(1, 2)) - x

    def test_a_negative_power_raises(self):
        with pytest.raises(ValueError, match="negative power"):
            Poly.var("x") ** -1

    def test_repr(self):
        assert repr(Poly.var("x") + 1) == "Poly(x + 1)"
        assert repr(Poly()) == "Poly(0)"


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
    # the constant monomial, as long as the entries' monomials
    one = (0,) * next((len(m) for row in mat for e in row for m in e), len(ONE))
    total = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = {one: Fraction(-1 if inversions % 2 else 1)}
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
        assert on_ints(mat) is fits_the_budget(mat)
        rows = [[to_poly(e) for e in row] for row in mat]
        assert from_poly(cs.det_cofactor(rows)) == leibniz(mat)

    @settings(max_examples=60, deadline=None)
    @given(mixed_degree_matrices())
    def test_rows_of_mixed_degrees(self, mat):
        assert on_ints(mat)
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
        assert on_ints(mat)
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
        # is 2D + 1 for D the sum of the other rows' degrees, as Bareiss
        # needs, or D + 1 for the Pfaffians alone
        x, y = Poly.var("x"), Poly.var("y")
        mat = [[x * y, Poly(), Poly.const(1)], [Poly()] * 3,
               [Poly.const(3), y, Poly()], [Poly.const(2)] * 3]
        packing, _ = cs._pack_matrix(mat)
        assert packing.radix == 3 + 1
        packing, _, degrees, _, _, _ = cs._slot_pack_matrix(mat)
        assert degrees == [2, -1, 1, 0]
        assert packing.radix == 2 * 3 + 1


# ---------------------------------------------------------------------------
# the slot packing of both determinant engines at its boundaries


def _row_bound(mat):
    """B' = prod_i max(1, sum_j |a_ij|), for reference rows of integer
    entries."""
    bound = 1
    for row in mat:
        bound *= max(1, sum(abs(c) for e in row for c in e.values()))
    return int(bound)


def minor_rank(mat):
    """Rank over Q(x, y, z) of reference entries: the largest k with a
    nonzero k x k minor, each minor a Leibniz sum."""
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                if leibniz([[mat[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def fits_the_budget(mat):
    """Whether the span W * prod_v (b_v + 1) over every variable of the
    reference rows is at most SLOT_BITS, so that every variable fits in
    the slot; B' is taken over the rows scaled to integers."""
    bound, bounds = 1, [0] * len(NAMES)
    for row in mat:
        terms = [(m, c) for e in row for m, c in e.items()]
        scale = 1
        for _, c in terms:
            scale = scale * c.denominator // gcd(scale, c.denominator)
        bound *= max(1, sum(abs(c) * scale for _, c in terms))
        for k in range(len(NAMES)):
            bounds[k] += max((m[k] for m, _ in terms), default=0)
    span = (int(bound).bit_length() + 1) * prod(b + 1 for b in bounds)
    return span <= cs.SLOT_BITS


def on_ints(mat, names=NAMES):
    """Whether `_slot_pack_matrix` moves every variable of the reference
    rows into the slot, so that the engines run on ints: the side of
    SLOT_BITS that the matrix falls on."""
    packed = cs._slot_pack_matrix([[to_poly(e, names) for e in row] for row in mat])
    return isinstance(packed, cs._IntSlotPacked)


def _engines_match_leibniz(mat, ints, names=NAMES):
    """Both engines' determinants against Leibniz, and Bareiss's rank
    against `minor_rank`, after checking on which side of the budget the
    matrix falls (`on_ints`); returns the determinant."""
    assert on_ints(mat, names) is ints
    rows = [[to_poly(e, names) for e in row] for row in mat]
    want = leibniz(mat)
    assert from_poly(cs.det_cofactor(rows), names) == want
    assert from_poly(cs.det_bareiss(rows), names) == want
    assert cs._bareiss(rows)[0] == minor_rank(mat)
    return want


def slot_packed(mat, names=NAMES):
    """(slot, width, scale) of `_slot_pack_matrix` for reference rows."""
    return tuple(cs._slot_pack_matrix(
        [[to_poly(e, names) for e in row] for row in mat])[3:])


class TestSlotPacking:
    @pytest.mark.parametrize("swap", [False, True], ids=["diagonal", "row-swap"])
    @pytest.mark.parametrize("signs", [(1, 1, 1), (1, -1, 1), (-1, -1, -1)])
    def test_a_coefficient_reaching_the_bound(self, signs, swap):
        # a diagonal of single terms: det = +-B' * x^3 * y, so the one
        # coefficient is as large as the bound allows, and a width one
        # bit narrower would decode it wrongly; with the first two rows
        # swapped, Bareiss finds column 0 empty in row 0 and swaps back
        mat = [[_monomial(1, 0, 0, c=3 * signs[0]), {}, {}],
               [{}, _monomial(2, 1, 0, c=5 * signs[1]), {}],
               [{}, {}, _monomial(0, 0, 0, c=7 * signs[2])]]
        if swap:
            mat[:2] = mat[1::-1]
        want = _engines_match_leibniz(mat, ints=True)
        bound = _row_bound(mat)
        assert [abs(c) for c in want.values()] == [bound]
        assert slot_packed(mat) == ((("x", 3), ("y", 1)), bound.bit_length() + 1, 1)
        assert from_poly(cs.det([[to_poly(e) for e in row] for row in mat])) == want

    @pytest.mark.parametrize("mat", [
        # x^2 - x - y^2: negative digits below a positive one
        [[_monomial(1, 0, 0), _monomial(0, 1, 0)],
         [_monomial(0, 1, 0), r_add(_monomial(1, 0, 0), _monomial(0, 0, 0), -1)]],
        # -x^2 + 2x - 1 and -(x - 1) * y: every digit negative or a
        # negative one between positive ones
        [[r_add(_monomial(1, 0, 0), _monomial(0, 0, 0), -1), _monomial(0, 1, 0)],
         [_monomial(0, 0, 0), r_add(_monomial(0, 0, 0), _monomial(1, 0, 0), -1)]],
        [[r_add(_monomial(2, 0, 0), _monomial(0, 0, 0)), _monomial(1, 0, 0, c=3)],
         [_monomial(1, 0, 0), _monomial(0, 0, 0, c=2)]],
    ], ids=["below-positive", "all-negative", "between-positive"])
    def test_negative_digits_borrow_across_slots(self, mat):
        want = _engines_match_leibniz(mat, ints=True)
        assert any(c < 0 for c in want.values())

    @pytest.mark.parametrize("mat", [
        [[r_add(_monomial(1, 0, 0), _monomial(0, 1, 0)),
          r_add(_monomial(1, 0, 0), _monomial(0, 1, 0), -1)]] * 2,
        [[_monomial(1, 0, 0), _monomial(0, 1, 0)],
         [_monomial(1, 0, 0, c=Fraction(2, 3)), _monomial(0, 1, 0, c=Fraction(2, 3))]],
        [[_monomial(2, 0, 0), _monomial(1, 1, 0)],
         [_monomial(1, 0, 1), _monomial(0, 1, 1)]],
    ], ids=["equal-rows", "fraction-multiple", "x-times-z"])
    def test_a_determinant_that_cancels_to_zero(self, mat):
        assert _engines_match_leibniz(mat, ints=True) == {}

    def test_fraction_rows_with_different_denominators(self):
        mat = [[_monomial(1, 0, 0, c=Fraction(1, 2)), _monomial(0, 0, 0, c=Fraction(1, 3)),
                _monomial(0, 1, 0, c=Fraction(-5, 6))],
               [_monomial(0, 1, 0, c=Fraction(1, 5)),
                r_add(_monomial(1, 0, 0, c=Fraction(1, 7)), _monomial(0, 0, 0, c=Fraction(3, 4))),
                {}],
               [_monomial(0, 0, 0, c=2), _monomial(2, 0, 0, c=Fraction(-9, 4)),
                _monomial(0, 0, 1, c=Fraction(1, 9))]]
        want = _engines_match_leibniz(mat, ints=True)
        assert any(c.denominator > 1 for c in want.values())
        assert slot_packed(mat)[2] == 6 * 140 * 36

    @pytest.mark.parametrize("mat", [
        [[_monomial(0, 0, 0, c=2), _monomial(0, 0, 0, c=3)],
         [_monomial(0, 0, 0, c=5), _monomial(0, 0, 0, c=7)]],
        [[_monomial(0, 0, 0, c=Fraction(1, 2)), _monomial(0, 0, 0, c=-3)],
         [_monomial(0, 0, 0, c=4), _monomial(0, 0, 0, c=Fraction(5, 3))]],
    ], ids=["int", "fraction"])
    def test_a_constant_matrix(self, mat):
        assert _engines_match_leibniz(mat, ints=True)
        assert slot_packed(mat)[0] == ()

    def test_slot_variable_missing_from_some_rows(self):
        # x has the degree bound 2 + 0 + 1 and y 1 + 1 + 0, and row 1
        # has no x at all
        mat = [[_monomial(2, 0, 0), _monomial(1, 0, 0, c=-1), _monomial(0, 1, 0)],
               [_monomial(0, 1, 0, c=2), _monomial(0, 0, 0, c=3), {}],
               [_monomial(0, 0, 0, c=-1), _monomial(0, 0, 1), _monomial(1, 0, 0, c=4)]]
        assert _engines_match_leibniz(mat, ints=True)
        assert slot_packed(mat)[0] == (("x", 3), ("y", 2), ("z", 1))

    def test_ties_go_to_the_first_name(self):
        # y and z both have the degree bound 2, and x 1
        mat = [[_monomial(0, 0, 1), _monomial(0, 1, 0)],
               [_monomial(1, 1, 0), _monomial(0, 0, 1, c=-1)]]
        assert _engines_match_leibniz(mat, ints=True)
        assert slot_packed(mat)[0] == (("y", 2), ("z", 2), ("x", 1))

    @pytest.mark.parametrize("swap", [False, True], ids=["no-swap", "row-swap"])
    def test_coefficients_around_ten_to_the_forty(self, swap):
        # with the first entry 0, Bareiss swaps rows and every later
        # division is exact only with the big digits carried
        big = 10 ** 40
        mat = [[r_add(_monomial(1, 0, 0, c=big), _monomial(0, 0, 0, c=1)),
                _monomial(0, 1, 0, c=-big), _monomial(2, 0, 0, c=big + 7)],
               [_monomial(0, 0, 0, c=3), r_add(_monomial(1, 0, 0, c=big), _monomial(0, 0, 0, c=-7)),
                _monomial(1, 0, 0, c=Fraction(big, 3))],
               [_monomial(0, 1, 0, c=-big + 1), _monomial(1, 0, 0, c=2), _monomial(0, 0, 0, c=big)]]
        if swap:
            mat[0][0] = {}
        want = _engines_match_leibniz(mat, ints=True)
        assert max(abs(c) for c in want.values()) > big ** 2
        assert from_poly(cs.det([[to_poly(e) for e in row] for row in mat])) == want

    @pytest.mark.parametrize("zero", [0, 1], ids=["zero-row-first", "zero-row-last"])
    def test_a_zero_row(self, zero):
        # a zero row counts 1 in the bound, not 0: B' = 9, so the width
        # is 5 bits, where a 1-bit width would pack 2 - x and 4 - 2x to
        # 0, and Bareiss would find rank 0, not 1
        mat = [[r_add(_monomial(0, 0, 0, c=2), _monomial(1, 0, 0), -1),
                r_add(_monomial(0, 0, 0, c=4), _monomial(1, 0, 0, c=2), -1)]]
        mat.insert(zero, [{}, {}])
        assert _engines_match_leibniz(mat, ints=True) == {}
        assert cs._bareiss([[to_poly(e) for e in row] for row in mat])[0] == 1
        assert slot_packed(mat) == ((("x", 1),), 5, 1)

    @pytest.mark.parametrize("mat", [
        [],
        [[{}]],
        [[_monomial(0, 0, 0, c=Fraction(-3, 2))]],
        [[r_add(_monomial(2, 1, 0, c=Fraction(3, 2)), _monomial(0, 0, 0, c=-5))]],
    ], ids=["0x0", "1x1-zero", "1x1-constant", "1x1"])
    def test_the_smallest_matrices(self, mat):
        _engines_match_leibniz(mat, ints=True)

    @pytest.mark.parametrize("a2, ints", [(0, True), (1, False)],
                             ids=["span-at-the-budget", "one-factor-over"])
    def test_a_span_at_the_budget(self, a2, ints):
        # B' = 2 * (2^13 + 1), so W = 16 bits, and x, y and z have the
        # degree bound 7 each: the span is 16 * 8^3, SLOT_BITS itself,
        # and all three join. A factor a2 doubles the span with a2, so
        # a2, last by its bound, stays in the keys.
        names = NAMES5[:4]
        assert cs.SLOT_BITS == 16 * 8 ** 3
        one = {(0, 0, 0, 0): Fraction(1)}
        mat = [[{(7, 7, 7, a2): Fraction(1 << 13)}, one], [one, one]]
        want = _engines_match_leibniz(mat, ints, names)
        assert want == {(7, 7, 7, a2): 1 << 13, (0, 0, 0, 0): -1}
        assert slot_packed(mat, names) == ((("x", 7), ("y", 7), ("z", 7)), 16, 1)

    def test_a_span_one_bit_over_the_budget(self):
        # B' = 3, so W = 3 bits, and x^2730 takes the span to 3 * 2731
        # bits, one more than SLOT_BITS: x stays in the keys
        assert cs.SLOT_BITS == 3 * 2731 - 1
        mat = [[_monomial(2730, 0, 0, c=3)]]
        assert _engines_match_leibniz(mat, ints=False) == mat[0][0]
        assert slot_packed(mat) == ((), 3, 1)

    @settings(max_examples=30, deadline=None)
    @given(square_matrices(), st.data())
    def test_a_variable_outside_the_budget(self, mat, data):
        # a term in z^4096 takes every span with z past SLOT_BITS, so z
        # stays in the keys and the engines run on key dicts, with x and
        # y in the slot where they fit
        i, j = (data.draw(st.integers(0, len(mat) - 1)) for _ in range(2))
        mat[i][j] = r_add(mat[i][j], _monomial(0, 0, 4096,
                                               c=data.draw(st.sampled_from([-2, 1, 3]))))
        _engines_match_leibniz(mat, ints=False)
        assert "z" not in dict(slot_packed(mat)[0])

    def test_an_inexact_int_division_raises(self):
        # every Bareiss division is exact; a remainder can only come
        # from a bug, which the int arithmetic reports
        packed = cs._slot_pack_matrix([[Poly.var("x")]])
        assert isinstance(packed, cs._IntSlotPacked)
        assert packed.divide(-6 << 40, 3) == -2 << 40
        for numerator, divisor in ((7, 2), (-7, 2), ((1 << 80) + 1, 1 << 40)):
            with pytest.raises(RuntimeError, match="remainder"):
                packed.divide(numerator, divisor)


# ---------------------------------------------------------------------------
# Bareiss ranks on the slot packing


bareiss_coeffs = st.one_of(st.integers(-3, 3),
                           st.fractions(min_value=-3, max_value=3, max_denominator=3))


def entries_in(nvars):
    """Entries of degree at most 1 in each of the first nvars names."""
    exps = [st.integers(0, 1)] * nvars + [st.just(0)] * (3 - nvars)
    return st.dictionaries(st.tuples(*exps), bareiss_coeffs, max_size=2).map(
        lambda d: {m: Fraction(c) for m, c in d.items() if c})


@st.composite
def rank_matrices(draw):
    """(A, B) with A of 1-3 rows, B of 1-2, both ncols wide, entries in two
    or three variables; A may hold a zero row and a row that is a
    polynomial combination of two others."""
    entry = entries_in(draw(st.integers(2, 3)))
    ncols = draw(st.integers(1, 3))
    a = [[draw(entry) for _ in range(ncols)] for _ in range(draw(st.integers(1, 3)))]
    b = [[draw(entry) for _ in range(ncols)] for _ in range(draw(st.integers(1, 2)))]
    if len(a) > 1 and draw(st.booleans()):
        a[draw(st.integers(0, len(a) - 1))] = [{} for _ in range(ncols)]
    if len(a) > 2 and draw(st.booleans()):
        q = draw(entry)
        a[2] = [r_add(r_mul(q, x), y) for x, y in zip(a[0], a[1])]
    return a, b


class TestBareissSlotPacking:
    @settings(max_examples=25, deadline=None)
    @given(rank_matrices())
    # row 2 is x times the Fraction row 0, and row 1 is zero
    @example(([[_monomial(1, 0, 0, c=Fraction(1, 2)), _monomial(0, 1, 0, c=Fraction(-2, 3))],
               [{}, {}],
               [_monomial(2, 0, 0, c=Fraction(1, 2)), _monomial(1, 1, 0, c=Fraction(-2, 3))]],
              [[_monomial(0, 0, 1), _monomial(1, 0, 0, c=3)]]))
    def test_ranks_of_non_square_and_stacked_matrices(self, mats):
        a, b = mats
        for mat in (a, b, a + b):
            assert on_ints(mat)
            rows = [[to_poly(e) for e in row] for row in mat]
            assert cs._bareiss(rows)[0] == minor_rank(mat)

    @pytest.mark.parametrize("exp", [1, 4096], ids=["int", "keys"])
    def test_decoding_a_fraction_raises(self, exp):
        # a packed minor lies in Z[others]; a Fraction can come only
        # from an inexact division, and is never decoded
        x = Poly.var("x", exp)
        packed = cs._slot_pack_matrix([[x]])
        if exp == 1:
            value, bad = -1 << packed.width, Fraction(1, 2)
        else:
            key = packed.packing.pack(x)
            value, bad = {k: -c for k, c in key.items()}, {0: Fraction(1, 2)}
        assert isinstance(packed, cs._IntSlotPacked) is (exp == 1)
        assert cs._slot_unpack(packed, value) == -x
        with pytest.raises(RuntimeError, match="not an integer"):
            cs._slot_unpack(packed, bad)


# ---------------------------------------------------------------------------
# the packed engines against the reference
#
# Entries in one variable put that variable into the slot, so these
# matrices check the slot decode on minors of degree up to 2D, D the sum
# of the rows' largest degrees: in a 3x3 matrix whose first row has the
# highest degree, the second Bareiss step multiplies two minors of
# degree above D/2 each. `test_numerators_reach_2d_outside_the_slot`
# does the same in a variable that the budget keeps out of the slot,
# where a radix of D+1 raises.

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
        assert on_ints(mat)
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

    def test_numerators_reach_2d_outside_the_slot(self):
        # x and y have the degree bound 2 + 1 + 1 each, and row 0's
        # factor 2^340 widens W to 351 bits: x joins the slot first, by
        # name, at a span of 351 * 5 bits, and y, at 351 * 25, would
        # pass SLOT_BITS, so y stays in the keys. D = 4, and the second
        # step multiplies two minors of y-degree 3
        def entry(cy, cx, exp, scale=1):
            return r_add(_monomial(0, exp, 0, c=cy * scale),
                         _monomial(exp, 0, 0, c=cx * scale))

        big = 1 << 340
        mat = [[entry(1, 1, 2, big), entry(2, -1, 2, big), entry(1, 3, 2, big)],
               [entry(1, 1, 1), entry(3, -1, 1), entry(-1, 2, 1)],
               [entry(2, -1, 1), entry(1, 1, 1), entry(1, -3, 1)]]
        rows = [[to_poly(e) for e in row] for row in mat]
        assert slot_packed(mat)[:2] == ((("x", 4),), 351)
        assert not on_ints(mat)
        assert from_poly(cs.det_bareiss(rows)) == leibniz(mat)

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


def lu_product(lower, upper, one):
    """(L.U, the product of U's diagonal) in the reference form."""
    n = len(lower)
    a = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a[i][j] = r_add(a[i][j], r_mul(lower[i][k], upper[k][j]))
    want = {one: Fraction(1)}
    for i in range(n):
        want = r_mul(want, upper[i][i])
    return a, want


# the nonzero coefficients of the fixed affine entries in x, y, z
_FIXED_COEFFS = (1, -2, 3, -1, 2, -3, 4)


def fixed_affine(i, j, salt):
    """1, x, y, z with coefficients that depend on the entry, none 0."""
    return {m: Fraction(_FIXED_COEFFS[(salt + 2 * i + 3 * j + 5 * t) % 7])
            for t, m in enumerate([ONE, (1, 0, 0), (0, 1, 0), (0, 0, 1)])}


class TestDetOnLU:
    @settings(max_examples=4, deadline=None)
    @given(lu_factors())
    def test_det_is_product_of_u_diagonal(self, factors):
        a, want = lu_product(*factors, (0, 0, 0, 0))
        rows = [[to_poly(e, NAMES4) for e in row] for row in a]
        assert from_poly(cs.det(rows), NAMES4) == want

    @pytest.mark.parametrize("n", [4, 5])
    def test_fixed_factors_at_the_benchmark_sizes(self, n):
        # L unit lower triangular and U upper triangular, every entry
        # off L's diagonal and on or above U's an affine form in x, y, z
        # with four nonzero coefficients, as the benchmark's L.U
        # matrices are
        one = {ONE: Fraction(1)}
        lower = [[one if i == j else fixed_affine(i, j, 0) if i > j else {}
                  for j in range(n)] for i in range(n)]
        upper = [[fixed_affine(i, j, 1) if i <= j else {} for j in range(n)]
                 for i in range(n)]
        a, want = lu_product(lower, upper, ONE)
        assert all(len(e) == 4 for row in upper for e in row if e)
        # as in the benchmark, x and y join the slot and z stays in the
        # keys
        assert [v for v, _ in slot_packed(a)[0]] == ["x", "y"]
        rows = [[to_poly(e) for e in row] for row in a]
        for engine in (cs.det, cs.det_bareiss, cs.det_cofactor):
            assert from_poly(engine(rows)) == want, engine.__name__
