"""Tests for graded quotient-ring computations over weighted polynomial
rings, with classical oracles for the machinery and the built-in
kappa-class presentations."""

import functools
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from splitloci import jsontext, tautring as tr
from splitloci.polynomial import Poly


def k(i, e=1):
    return Poly.var("k%d" % i, e)


class TestWeightedIdeal:
    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError, match="zero generator"):
            tr.WeightedIdeal((1, 2), [Poly()])

    def test_inhomogeneous_rank_rejected(self):
        ideal = tr.WeightedIdeal((1, 2), [k(1, 2) + k(1)])
        with pytest.raises(ValueError, match="homogenize first"):
            tr.GradedQuotient(ideal).degree(3)

    @pytest.mark.parametrize("weights", [(0, 1), (-1, 2), (1, 2.0)])
    def test_weights_must_be_positive_ints(self, weights):
        with pytest.raises(ValueError, match="weights"):
            tr.WeightedIdeal(weights, [k(2, 2)])

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError, match="no variables"):
            tr.WeightedIdeal((), [Poly.const(1)])

    def test_foreign_variable_rejected(self):
        with pytest.raises(ValueError, match=r"\['k3'\] outside k1..k2"):
            tr.WeightedIdeal((1, 2), [k(1) * k(2), k(3, 2)])

    def test_generator_degrees(self):
        ideal = tr.WeightedIdeal((1, 2), [k(1, 4), k(2, 2), k(1) * k(2)])
        assert ideal.degrees == (4, 4, 3)

    def test_generators_cannot_be_appended(self):
        # the degrees are computed once, so an appended generator would
        # be left out of the quotient: <k1^3> + k1 gave Hilbert 1,1,1,0,0
        gens = [k(1, 3)]
        ideal = tr.WeightedIdeal((1,), gens)
        with pytest.raises(AttributeError):
            ideal.generators.append(k(1))
        gens.append(k(1))
        assert ideal.generators == (k(1, 3),)
        assert tr.hilbert(ideal, 4) == [1, 1, 1, 0, 0]
        assert tr.hilbert(tr.WeightedIdeal((1,), gens), 4) == [1, 0, 0, 0, 0]


class TestClassicalOracles:
    """Rings whose invariants are textbook facts."""

    def test_square_free_complete_intersection(self):
        # Q[x,y]/(x^2, y^2): Hilbert 1,2,1; socle = xy; Gorenstein CI
        ideal = tr.WeightedIdeal((1, 1), [k(1, 2), k(2, 2)])
        assert tr.hilbert(ideal, 5) == [1, 2, 1, 0, 0, 0]
        assert tr.socle(ideal, 6) == ([2], [1])
        assert tr.gorenstein_check(ideal, 4)["gorenstein"]
        assert tr.minimal_generators(ideal) == {2: 2}
        assert tr.ci_verdict(ideal)

    def test_fat_point_is_not_gorenstein(self):
        # Q[x,y]/(x^2, xy, y^2): socle is 2-dimensional
        ideal = tr.WeightedIdeal((1, 1), [k(1, 2), k(1) * k(2), k(2, 2)])
        assert tr.hilbert(ideal, 4) == [1, 2, 0, 0, 0]
        assert tr.socle(ideal, 5) == ([1], [2])
        result = tr.gorenstein_check(ideal, 3)
        assert not result["gorenstein"]
        assert "socle" in result["diagnostic"]
        assert tr.minimal_generators(ideal) == {2: 3}
        assert not tr.ci_verdict(ideal)

    def test_weighted_complete_intersection(self):
        # Q[k1,k2]/(k1^4, k2^2) with weights (1,2): Hilbert 1,1,2,2,1,1
        ideal = tr.WeightedIdeal((1, 2), [k(1, 4), k(2, 2)])
        assert tr.hilbert(ideal, 8) == [1, 1, 2, 2, 1, 1, 0, 0, 0]
        assert tr.socle(ideal, 9) == ([5], [1])
        assert tr.gorenstein_check(ideal, 7)["gorenstein"]
        assert tr.artinian_check(ideal, 7) == (True, (6, 7))
        assert tr.ci_verdict(ideal)

    def test_hilbert_far_past_the_artinian_window(self):
        # degrees above the vanishing window 6..7 are not eliminated, and
        # still read as zero
        ideal = tr.WeightedIdeal((1, 2), [k(1, 4), k(2, 2)])
        assert tr.hilbert(ideal, 60) == [1, 1, 2, 2, 1, 1] + [0] * 55
        assert tr.GradedQuotient(ideal).degree(60) is None
        assert tr.socle(ideal, 60) == ([5], [1])

    def test_redundant_generator_not_minimal(self):
        # k1^3 = k1 * k1^2 is not a minimal generator
        ideal = tr.WeightedIdeal((1, 1), [k(1, 2), k(1, 3), k(2, 4)])
        assert tr.minimal_generators(ideal) == {2: 1, 4: 1}

    def test_redundant_generator_past_the_window(self):
        # Q[k1]/(k1^2, k1^5): k1^5 lies in degree 5, past the vanishing
        # window, and is a multiple of k1^2
        ideal = tr.WeightedIdeal((1,), [k(1, 2), k(1, 5)])
        assert tr.minimal_generators(ideal) == {2: 1}

    @pytest.mark.parametrize("weights,h", [
        ((1,), [1, 1, 1, 1, 1]), ((1, 2), [1, 1, 2, 2, 3]),
        ((2, 3), [1, 0, 1, 1, 1])])
    def test_zero_ideal(self, weights, h):
        # the polynomial ring itself: no generator, so none is minimal and
        # the verdict is 0 <= nvars; the default d_max took max() of no
        # degrees and raised ValueError
        ideal = tr.WeightedIdeal(weights, [])
        assert tr.minimal_generators(ideal) == {}
        assert tr.ci_verdict(ideal)
        assert tr.hilbert(ideal, 4) == h
        assert tr.socle(ideal, 8) == ([], [])

    def test_non_artinian_detected(self):
        # Q[x,y]/(x^2) is not Artinian: powers of y survive
        ideal = tr.WeightedIdeal((1, 1), [k(1, 2)])
        artinian, window = tr.artinian_check(ideal, 4, d_max=12)
        assert not artinian and window is None

    def test_pairing_without_full_rank(self):
        # Q[k1,k2,k3]/(k1k2, k2^2, k1^3, k1^2k3), weights (1, 1, 4): R_2
        # is spanned by k1^2, and k2 * R_1 = 0, so the pairing
        # R_1 x R_1 -> R_2 is degenerate; k2 is still no socle element,
        # since k2k3 != 0, and the powers of k3 keep it from being
        # Artinian
        ideal = tr.WeightedIdeal((1, 1, 4), [k(1) * k(2), k(2, 2), k(1, 3),
                                             k(1, 2) * k(3)])
        assert tr.hilbert(ideal, 12) == [1, 2, 1, 0, 1, 2, 0, 0, 1, 2, 0, 0, 1]
        assert tr.socle(ideal, 12) == ([2], [1])
        report = tr.gorenstein_check(ideal, 4, 12)
        assert report["pairings"] == [
            {"degree": 0, "dim": 1, "full_rank": True},
            {"degree": 1, "dim": 2, "full_rank": False}]
        assert not report["gorenstein"]
        assert "diagnostic" not in report
        assert tr.artinian_check(ideal, 4, 12) == (False, None)


# ---------------------------------------------------------------------------
# I_d and (m.I)_d spanned directly by the products m*g_j and reduced by a
# plain dense Fraction Gauss-Jordan, independent of the degree-by-degree
# sparse construction in tautring.

def _exponents(d, weights):
    return [e for e in itertools.product(*(range(d // w + 1) for w in weights))
            if sum(x * w for x, w in zip(e, weights)) == d]


def _fraction_rref(rows):
    """(rows scaled to pivot 1, pivot columns) of the reduced row echelon
    form over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _reference(weights, gens, d):
    """(basis, rref of I_d, its pivots, dim (m.I)_d) for generators given
    as (degree, {exponents: coefficient}), over the monomials of degree d
    in decreasing lex order."""
    basis = sorted(_exponents(d, weights), reverse=True)
    columns = {e: i for i, e in enumerate(basis)}
    all_rows, m_rows = [], []
    for dg, terms in gens:
        if dg > d:
            continue
        for cofactor in _exponents(d - dg, weights):
            row = [0] * len(columns)
            for e, c in terms.items():
                row[columns[tuple(a + b for a, b in zip(cofactor, e))]] = c
            all_rows.append(row)
            if any(cofactor):
                m_rows.append(row)
    rref, pivots = _fraction_rref(all_rows)
    return basis, rref, pivots, len(_fraction_rref(m_rows)[1])


@st.composite
def homogeneous_ideals(draw):
    """(weights, [(degree, {exponents: coefficient})]) with redundant
    multiples and non-Artinian quotients among them."""
    weights = draw(st.sampled_from([(1,), (1, 1), (1, 2), (1, 1, 2),
                                    (1, 2, 3), (2, 3), (1, 3)]))
    coeffs = st.one_of(st.integers(-4, 4).filter(bool),
                       st.builds(Fraction, st.integers(1, 9), st.integers(2, 5)))
    degrees = [d for d in range(1, 7) if _exponents(d, weights)]
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        dg = draw(st.sampled_from(degrees))
        chosen = draw(st.lists(st.sampled_from(_exponents(dg, weights)),
                               min_size=1, max_size=3, unique=True))
        gens.append((dg, {e: draw(coeffs) for e in chosen}))
    if draw(st.booleans()):
        # a redundant multiple k_i * g of a drawn generator
        dg, terms = draw(st.sampled_from(gens))
        i = draw(st.integers(0, len(weights) - 1))
        gens.append((dg + weights[i], {e[:i] + (e[i] + 1,) + e[i + 1:]: c
                                       for e, c in terms.items()}))
    return weights, gens


def _mono(e):
    """The Poly monomial with exponent tuple e."""
    return tuple(("k%d" % (i + 1), x) for i, x in enumerate(e) if x)


def _ideal(weights, gens):
    return tr.WeightedIdeal(weights, [
        Poly({_mono(e): c for e, c in terms.items()}) for _, terms in gens])


def _normal_forms(basis, rref, pivots):
    """(the free monomials, {monomial: its nonzero coordinates over
    them}) of a degree of the reference."""
    free = [e for c, e in enumerate(basis) if c not in pivots]
    forms = {e: {e: 1} for e in free}
    for row, p in zip(rref, pivots):
        forms[basis[p]] = {e: -row[c] for c, e in enumerate(basis)
                           if e in free and row[c]}
    return free, forms


def _check_degree(quotient, deg, basis, rref, pivots):
    """The quotient basis and each monomial's coordinates over it, the
    reference's exponent tuples read through the quotient's keys; the
    quotient gives the coordinates as integers over one positive
    denominator."""
    def key(e):
        return quotient._key(_mono(e))

    free, forms = _normal_forms(basis, rref, pivots)
    assert deg.basis == [key(e) for e in basis]
    assert deg.free == [key(e) for e in free]
    for e, form in forms.items():
        coords, denominator = deg.normal_form(key(e))
        assert denominator > 0
        assert ({c: Fraction(x, denominator) for c, x in coords.items()}
                == {key(f): x for f, x in form.items()})


@settings(max_examples=80, deadline=None)
@given(homogeneous_ideals())
# k1*k2 and k1*k3 share their top digit and differ in the two low ones
@example(((1, 1, 1), [(2, {(1, 1, 0): 1, (1, 0, 1): -1}), (2, {(0, 1, 1): 3}),
                      (3, {(0, 0, 3): 2, (0, 2, 1): 1})]))
def test_ranks_and_minimal_generators_match_direct_span(drawn):
    weights, gens = drawn
    ideal = _ideal(weights, gens)
    quotient = tr.GradedQuotient(ideal)
    d_max = max(dg for dg, _ in gens) + max(weights)
    expected = {}
    for d in range(d_max + 1):
        basis, rref, pivots, products = _reference(weights, gens, d)
        if len(pivots) > products:
            expected[d] = len(pivots) - products
        deg = quotient.degree(d)
        if deg is None:
            # past the vanishing window I_d is every monomial
            assert len(pivots) == len(basis)
        else:
            assert len(deg.form) == len(pivots)
            _check_degree(quotient, deg, basis, rref, pivots)
    assert tr.minimal_generators(ideal, d_max) == expected


def _plus(a, b):
    return tuple(x + y for x, y in zip(a, b))


@settings(max_examples=150, deadline=None)
@given(homogeneous_ideals())
# Gorenstein, with two targets of one degree: weights (1, 1)
@example(((1, 1), [(2, {(2, 0): 1}), (2, {(0, 2): -3})]))
# Gorenstein with a socle of degree 3 and non-unit pivots
@example(((1, 2), [(2, {(2, 0): 2, (0, 1): Fraction(3, 2)}),
                   (4, {(0, 2): 5})]))
# k1^2 = k2^2/2 and k1*k2 = -k2^2/3 reduce over the pivots 2 and 3, so
# the image of k1, (1/2, -1/3), goes in over their lcm as (3, -2), and
# that of k2, (-1/3, 1), as (-1, 3); unscaled, the two integer rows
# (1, -1) and (-1, 1) would be dependent
@example(((1, 1), [(2, {(2, 0): 2, (0, 2): -1}), (2, {(1, 1): 3, (0, 2): 1})]))
def test_socle_and_pairings_match_dense_reference(drawn):
    # the socle of R_d is the kernel of x -> (k_1 x, ..., k_w x), and
    # each Gorenstein pairing R_i x R_{D-i} -> R_D a matrix, both built
    # here densely from the reference normal forms
    weights, gens = drawn
    ideal = _ideal(weights, gens)
    d_max = max(dg for dg, _ in gens) + 2 * max(weights) + 2
    ref = [_normal_forms(*_reference(weights, gens, d)[:3])
           for d in range(d_max + 1)]
    units = [tuple(int(i == j) for j in range(len(weights)))
             for i in range(len(weights))]

    def rank(rows):
        return len(_fraction_rref(rows)[1])

    degrees, dims = [], []
    for d in range(d_max - max(weights) + 1):
        free = ref[d][0]
        images = [[x for w, u in zip(weights, units)
                   for x in (ref[d + w][1][_plus(f, u)].get(c, 0)
                             for c in ref[d + w][0])]
                  for f in free]
        dim = len(free) - rank(images)
        if dim:
            degrees.append(d)
            dims.append(dim)
    assert tr.socle(ideal, d_max) == (degrees, dims)
    report = tr.gorenstein_check(ideal, 0, d_max)
    assert (report["socle_degrees"], report["socle_dims"]) == (degrees, dims)
    if dims != [1]:
        return
    top = degrees[0]
    h = [len(ref[d][0]) for d in range(top + 1)]
    want = []
    if h == h[::-1]:
        (socle,) = ref[top][0]
        for i in range(top // 2 + 1):
            pairing = [[ref[top][1][_plus(a, b)].get(socle, 0)
                        for b in ref[top - i][0]] for a in ref[i][0]]
            want.append({"degree": i, "dim": len(ref[i][0]),
                         "full_rank": rank(pairing) == len(ref[i][0])})
    assert report["pairings"] == want
    assert report["gorenstein"] == (bool(want) and all(
        p["full_rank"] for p in want))


@pytest.mark.parametrize("weights,gens", [
    ((1,), [(10, {(10,): 1})]),
    ((1, 1), [(2, {(1, 1): 1, (0, 2): -2}), (10, {(10, 0): 1})]),
])
def test_degrees_below_the_radix_are_exact_and_the_radix_raises(
        weights, gens, monkeypatch):
    # keys hold exponents below the radix, and an exponent at degree d is
    # at most d; no degree near the real radix is built
    monkeypatch.setattr(tr, "RADIX", 4)
    quotient = tr.GradedQuotient(_ideal(weights, gens))
    for d in range(4):
        basis, rref, pivots, _ = _reference(weights, gens, d)
        deg = quotient.degree(d)
        assert len(deg.form) == len(pivots)
        _check_degree(quotient, deg, basis, rref, pivots)
    with pytest.raises(RuntimeError, match="radix 4"):
        quotient.degree(4)


class TestNegativeDegree:
    def test_fresh_quotient(self):
        # it raised IndexError
        with pytest.raises(ValueError, match="negative degree"):
            tr.GradedQuotient(tr.builtin_ideal(9)).degree(-1)

    def test_built_quotient(self):
        # with degrees 0..5 built, degree -1 read I_5 and -2 read I_4
        quotient = tr.GradedQuotient(tr.builtin_ideal(9))
        assert len(quotient.degree(5).form) == 3
        for d in (-1, -2):
            with pytest.raises(ValueError, match="negative degree"):
                quotient.degree(d)
        assert tr.hilbert(quotient, -1) == []


class TestBuiltinIdeals:
    def test_genus7_requires_interpretation(self):
        with pytest.raises(ValueError, match="unknown interpretation"):
            tr.builtin_ideal(7)
        with pytest.raises(ValueError, match="unknown interpretation"):
            tr.builtin_ideal(7, "printed")

    def test_genus89_reject_foreign_interpretation(self):
        with pytest.raises(ValueError, match="unknown interpretation"):
            tr.builtin_ideal(8, "emended")
        assert tr.builtin_ideal(8, "printed").degrees == (4, 5, 5)

    def test_unknown_genus(self):
        with pytest.raises(ValueError):
            tr.builtin_ideal(10)

    @pytest.mark.parametrize("genus", [9.0, "9", None])
    def test_a_genus_that_is_not_an_integer_raises(self, genus,
                                                   monkeypatch):
        # 9.0 returned the genus-9 ideal, and quotient_report(9.0) failed
        # later, inside range
        with pytest.raises(TypeError):
            tr.builtin_ideal(genus)

        def unreachable(*args):
            raise AssertionError("built a quotient for genus %r" % (genus,))

        monkeypatch.setattr(tr, "GradedQuotient", unreachable)
        with pytest.raises(TypeError):
            tr.quotient_report(genus)

    def test_genus9_shape(self):
        ideal = tr.builtin_ideal(9)
        assert ideal.weights == (1, 2, 3)
        assert sorted(ideal.degrees) == [4, 5, 5, 6, 6]

    @pytest.mark.parametrize("g,index,mono,printed,corrected", [
        (8, 0, (("k2", 2),), 714894336, -714894336),
        (9, 2, (("k1", 3), ("k2", 1)), -114345520, -1142345520),
    ])
    def test_corrected_changes_one_coefficient(self, g, index, mono,
                                               printed, corrected):
        old = [p.terms for p in tr.builtin_ideal(g).generators]
        new = [p.terms for p in tr.builtin_ideal(g, "corrected").generators]
        assert len(old) == len(new)
        assert [set(t) for t in old] == [set(t) for t in new]
        changed = [(i, m) for i, (a, b) in enumerate(zip(old, new))
                   for m in a if a[m] != b[m]]
        assert changed == [(index, mono)]
        assert (old[index][mono], new[index][mono]) == (printed, corrected)

    @pytest.mark.parametrize("g,interpretation", [
        (7, "printed-split"), (7, "emended"), (8, "printed"),
        (8, "corrected"), (9, "printed"), (9, "corrected")])
    def test_generators_as_printed(self, g, interpretation):
        # the generators in Poly arithmetic, as printed: the same terms
        # in the same order, and the same degrees
        ideal = tr.builtin_ideal(g, interpretation)
        k1, k2, k3 = k(1), k(2), k(3)
        corrected = interpretation == "corrected"
        if g == 7:
            g1 = 2423 * k1 ** 2 * k2 - 52632 * k2 ** 2
            g2 = 1152000 * k2 ** 2 - 2423 * k1 ** 4
            if interpretation == "printed-split":
                printed = [g1, g2, 16000 * k1 ** 3 * k2, -731 * k1 ** 4]
            else:
                printed = [g1, g2, 16000 * k1 ** 3 * k2 - 731 * k1 ** 5]
        elif g == 8:
            c22 = -714894336 if corrected else 714894336
            printed = [
                c22 * k2 ** 2 + 55211328 * k1 ** 2 * k2 - 1058587 * k1 ** 4,
                62208000 * k1 * k2 ** 2 - 95287 * k1 ** 5,
                144000 * k1 ** 3 * k2 - 5617 * k1 ** 5,
            ]
        else:
            c312 = 1142345520 if corrected else 114345520
            printed = [
                5195 * k1 ** 4 + 3644694 * k1 * k3 + 749412 * k2 ** 2
                - 265788 * k1 ** 2 * k2,
                33859814400 * k2 * k3 - 95311440 * k1 ** 3 * k2
                + 2288539 * k1 ** 5,
                19151377 * k1 ** 5 + 16929907200 * k1 * k2 ** 2
                - c312 * k1 ** 3 * k2,
                1422489600 * k3 ** 2 - 983 * k1 ** 6,
                1185408000 * k2 ** 3 - 47543 * k1 ** 6,
            ]
        assert ([list(p.terms.items()) for p in ideal.generators]
                == [list(p.terms.items()) for p in printed])
        weights = (1, 2, 3) if g == 9 else (1, 2)
        assert ideal.weights == weights
        assert ideal.degrees == tr.WeightedIdeal(weights, printed).degrees

    def test_genus7_has_no_corrected_reading(self):
        with pytest.raises(ValueError, match="unknown interpretation"):
            tr.builtin_ideal(7, "corrected")


class TestQuotientReports:
    def test_genus7_emended_is_gorenstein_ci(self):
        report = tr.quotient_report(7, "emended")
        assert report.hilbert == [1, 1, 2, 2, 1, 1] + [0] * 8
        assert (report.socle_degrees, report.socle_dims) == ([5], [1])
        assert report.gorenstein and report.artinian
        assert report.artinian_window == [6, 7]
        assert report.minimal_generators_by_degree == {4: 2}
        assert report.ci_verdict
        assert any("socle sits in degree g-2 = 5" in n for n in report.notes)

    def test_genus7_printed_split_fails_socle(self):
        report = tr.quotient_report(7, "printed-split")
        assert report.socle_degrees == [3]
        assert not report.gorenstein
        assert any("does not sit" in n for n in report.notes)

    def test_genus8_printed_quotient(self):
        report = tr.quotient_report(8)
        assert report.hilbert == [1, 1, 2, 2, 2] + [0] * 10
        assert (report.socle_degrees, report.socle_dims) == ([4], [2])
        assert not report.gorenstein
        assert report.artinian
        assert report.minimal_generators_by_degree == {4: 1, 5: 2}
        assert not report.ci_verdict

    def test_genus8_degree5_elements_are_independent(self):
        # cross-check of the surprising Hilbert value h(5) = 0: the three
        # degree-5 elements of the ideal span all of degree 5
        ideal = tr.builtin_ideal(8)
        deg = tr.GradedQuotient(ideal).degree(5)
        assert len(deg.basis) == len(deg.form) == 3
        assert tr.hilbert(ideal, 5)[5] == 0

    def test_genus9_printed_quotient(self):
        report = tr.quotient_report(9)
        assert report.hilbert == [1, 1, 2, 3, 3, 2, 1] + [0] * 9
        assert (report.socle_degrees, report.socle_dims) == ([5, 6], [1, 1])
        assert not report.gorenstein
        assert report.artinian
        assert report.minimal_generator_count == 5
        assert not report.ci_verdict

    @pytest.mark.parametrize("g,interpretation", [
        (7, "emended"), (7, "printed-split"), (8, None), (8, "corrected"),
        (9, None), (9, "corrected")])
    def test_report_reads_the_public_checks(self, g, interpretation):
        # the report asks these of the one quotient it builds; each
        # public check given the ideal builds its own
        report = tr.quotient_report(g, interpretation)
        ideal = tr.builtin_ideal(g, interpretation)
        artinian, window = tr.artinian_check(ideal, g, g + 6)
        assert report.hilbert == tr.hilbert(ideal, g + 6)
        assert report.artinian == artinian
        assert report.artinian_window == (None if window is None else list(window))
        assert report.ci_verdict == tr.ci_verdict(ideal)
        assert report.minimal_generators_by_degree == tr.minimal_generators(ideal)

    def test_report_asks_ci_verdict_of_its_quotient(self, monkeypatch):
        # one complete-intersection rule: the report's verdict is what
        # ci_verdict says of the quotient the report builds
        asked = []
        monkeypatch.setattr(tr, "ci_verdict",
                            lambda q: asked.append(q) or "verdict")
        report = tr.quotient_report(7, "emended")
        assert report.ci_verdict == "verdict"
        assert len(asked) == 1 and isinstance(asked[0], tr.GradedQuotient)

    def test_report_asks_artinian_check_of_its_quotient(self, monkeypatch):
        # one vanishing-window rule: the report's window is what
        # artinian_check says of the quotient the report builds
        asked, verdicts = [], []
        monkeypatch.setattr(tr, "artinian_check", lambda q, g, d_max: (
            asked.append((q, g, d_max)) or ("artinian", (20, 21))))
        monkeypatch.setattr(tr, "ci_verdict",
                            lambda q: verdicts.append(q) or True)
        report = tr.quotient_report(8, "corrected")
        assert report.artinian == "artinian"
        assert report.artinian_window == [20, 21]
        assert asked == [(verdicts[0], 8, 14)]
        assert isinstance(verdicts[0], tr.GradedQuotient)

    def test_is_failure_semantics(self):
        # genus 8 and 9 are claims: Artinian, Gorenstein, and a socle of
        # dimension 1 in degree g-2; genus 7's readings are reports
        base = tr.quotient_report(8, "corrected")
        fields = dict(zip(tr.QuotientReport.__slots__, base._fields()))
        assert not base.is_failure and base.socle_at_g_minus_2
        for name, value in [("artinian", False), ("gorenstein", False),
                            ("socle_degrees", [5]), ("socle_degrees", [6, 7]),
                            ("socle_dims", [2]), ("genus", 9)]:
            assert tr.QuotientReport(**dict(fields, **{name: value})).is_failure
        for name, value in [("artinian", False), ("gorenstein", False),
                            ("socle_dims", [2])]:
            assert not tr.QuotientReport(
                **dict(fields, genus=7, **{name: value})).is_failure
        assert not tr.QuotientReport(**dict(fields, genus=9,
                                            socle_degrees=[7])).is_failure
        assert tr.quotient_report(9).is_failure
        assert not tr.quotient_report(7, "printed-split").is_failure

    def test_the_note_states_the_socle_verdict(self):
        sits, not_at = tr.quotient_report(8, "corrected"), tr.quotient_report(9)
        assert sits.socle_at_g_minus_2 and not not_at.socle_at_g_minus_2
        assert sits.notes == ["socle sits in degree g-2 = 6 with dimension 1"]
        assert not_at.notes == [
            "socle does not sit in degree g-2 = 7 with dimension 1"]

    def test_genus8_corrected_quotient(self):
        report = tr.quotient_report(8, "corrected")
        assert report.hilbert == [1, 1, 2, 2, 2, 1, 1] + [0] * 8
        assert (report.socle_degrees, report.socle_dims) == ([6], [1])
        assert report.gorenstein and report.artinian
        assert report.minimal_generators_by_degree == {4: 1, 5: 1}
        assert report.ci_verdict

    def test_genus9_corrected_quotient(self):
        report = tr.quotient_report(9, "corrected")
        assert report.hilbert == [1, 1, 2, 3, 3, 2, 1, 1] + [0] * 8
        assert (report.socle_degrees, report.socle_dims) == ([7], [1])
        assert report.gorenstein and report.artinian
        assert report.minimal_generator_count == 5
        assert not report.ci_verdict

    def test_report_serialization(self):
        report = tr.quotient_report(7, "emended")
        data = json.loads(jsontext.dumps(report.to_dict()))
        assert data["genus"] == 7
        assert data["interpretation"] == "emended"
        assert data["minimal_generators_by_degree"] == {"4": 2}


# ---------------------------------------------------------------------------
# Faber's socle evaluation, computed here with fractions and math only.
#
# For d_1..d_n >= 1 with sum g-2, in R*(M_g) (Faber 1999; proved by
# Liu-Xu, "A proof of the Faber intersection number conjecture", 2009):
#
#   sum over s in S_n of kappa_s
#     = (2g-3+n)! (2g-1)!! / ((2g-1)! prod (2d_j+1)!!) * kappa_{g-2},
#
# where kappa_s is the product over the cycles c of s of kappa_{sum_{j in c}
# d_j}. The identity contributes kappa_{d_1}...kappa_{d_n}; every other s
# has fewer cycles, so induction on n gives each degree-(g-2) monomial as
# a rational multiple epsilon(.) of kappa_{g-2}. Grouping permutations by
# their cycles' underlying set partition, a block B carries (|B|-1)!
# cyclic orders. R*(M_g) is Gorenstein with socle kappa_{g-2} for the
# genera here, so a homogeneous f of degree d vanishes in it exactly when
# epsilon(f*y) = 0 for every monomial y of degree g-2-d in its generators
# kappa_1..kappa_{g//3}.

def _double_factorial(n):
    return math.prod(range(n, 0, -2))


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1:]
        yield [[first]] + blocks


def _partitions(n, largest):
    """Partitions of n into parts <= largest, as non-increasing tuples;
    none for n < 0."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


@functools.lru_cache(maxsize=None)
def faber_epsilon(g, parts):
    """kappa_{parts[0]} ... kappa_{parts[-1]} / kappa_{g-2} in R*(M_g),
    for sorted parts summing to g-2."""
    n = len(parts)
    total = Fraction(
        math.factorial(2 * g - 3 + n) * _double_factorial(2 * g - 1),
        math.factorial(2 * g - 1)
        * math.prod(_double_factorial(2 * d + 1) for d in parts))
    for blocks in _set_partitions(list(range(n))):
        if len(blocks) < n:
            merged = tuple(sorted(sum(parts[j] for j in b) for b in blocks))
            total -= (math.prod(math.factorial(len(b) - 1) for b in blocks)
                      * faber_epsilon(g, merged))
    return total


def _kappa_terms(p):
    """A Poly in k1, k2, ... as {sorted kappa indices: coefficient}."""
    return {tuple(sorted(int(var[1:]) for var, e in mono for _ in range(e))): c
            for mono, c in p.terms.items()}


def vanishes_in_tautological_ring(g, p):
    terms = _kappa_terms(p)
    degrees = {sum(m) for m in terms}
    assert len(degrees) == 1, "not homogeneous"
    (d,) = degrees
    return all(sum(c * faber_epsilon(g, tuple(sorted(m + y)))
                   for m, c in terms.items()) == 0
               for y in _partitions(g - 2 - d, g // 3))


class TestFaberSocleOracle:
    @pytest.mark.parametrize("g", range(3, 12))
    def test_kappa1_power_matches_closed_form(self, g):
        # Faber: kappa_1^{g-2} = 2^{2g-5} ((g-2)!)^2 / (g-1) * kappa_{g-2}
        assert faber_epsilon(g, (1,) * (g - 2)) == Fraction(
            2 ** (2 * g - 5) * math.factorial(g - 2) ** 2, g - 1)

    def test_kappa_top_is_the_unit(self):
        assert all(faber_epsilon(g, (g - 2,)) == 1 for g in range(3, 12))

    @pytest.mark.parametrize("g,reading", [(7, "emended"), (8, "corrected"),
                                           (9, "corrected")])
    def test_generators_vanish(self, g, reading):
        for p in tr.builtin_ideal(g, reading).generators:
            assert vanishes_in_tautological_ring(g, p)

    def test_printed_coefficients_do_not_vanish(self):
        rejected = [
            (8, tr.builtin_ideal(8, "printed").generators[0]),
            (9, tr.builtin_ideal(9, "printed").generators[2]),
        ] + [(7, p) for p in tr.builtin_ideal(7, "printed-split").generators[2:]]
        assert _kappa_terms(rejected[2][1]) == {(1, 1, 1, 2): 16000}
        assert _kappa_terms(rejected[3][1]) == {(1, 1, 1, 1): -731}
        for g, p in rejected:
            assert not vanishes_in_tautological_ring(g, p)
