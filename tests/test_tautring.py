"""Tests for graded quotient-ring computations over weighted polynomial
rings, with classical oracles for the machinery and the built-in
kappa-class presentations."""

import json

import pytest

from splitloci import tautring as tr
from splitloci.polynomial import Poly


def k(i, e=1):
    return Poly.var("k%d" % i, e)


class TestMonomials:
    def test_counts_unit_weights(self):
        # d+1 monomials of degree d in two variables of weight 1
        for d in range(6):
            assert len(tr.monomials(d, (1, 1))) == d + 1

    def test_weighted_counts(self):
        # weight (1,2): floor(d/2)+1 monomials
        for d in range(8):
            assert len(tr.monomials(d, (1, 2))) == d // 2 + 1

    def test_weights_123(self):
        # generating function 1/((1-t)(1-t^2)(1-t^3))
        expected = [1, 1, 2, 3, 4, 5, 7]
        assert [len(tr.monomials(d, (1, 2, 3))) for d in range(7)] == expected

    def test_exponents_have_right_degree(self):
        for exps in tr.monomials(9, (1, 2, 3)):
            assert exps[0] + 2 * exps[1] + 3 * exps[2] == 9


class TestWeightedIdeal:
    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError, match="zero generator"):
            tr.WeightedIdeal((1, 2), [Poly()])

    def test_inhomogeneous_rank_rejected(self):
        ideal = tr.WeightedIdeal((1, 2), [k(1, 2) + k(1)])
        with pytest.raises(ValueError, match="homogenize first"):
            tr.graded_ideal_rank(ideal, 3)

    def test_generator_degrees(self):
        ideal = tr.WeightedIdeal((1, 2), [k(1, 4), k(2, 2), k(1) * k(2)])
        assert ideal.generator_degrees() == [4, 4, 3]


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
        assert tr.graded_ideal_rank(ideal, 60) == len(tr.monomials(60, (1, 2)))
        assert tr.socle(ideal, 60) == ([5], [1])

    def test_redundant_generator_not_minimal(self):
        # k1^3 = k1 * k1^2 is not a minimal generator
        ideal = tr.WeightedIdeal((1, 1), [k(1, 2), k(1, 3), k(2, 4)])
        assert tr.minimal_generators(ideal) == {2: 1, 4: 1}

    def test_non_artinian_detected(self):
        # Q[x,y]/(x^2) is not Artinian: powers of y survive
        ideal = tr.WeightedIdeal((1, 1), [k(1, 2)])
        artinian, window = tr.artinian_check(ideal, 4, d_max=12)
        assert not artinian and window is None


class TestBuiltinIdeals:
    def test_genus7_requires_interpretation(self):
        with pytest.raises(ValueError, match="unknown interpretation"):
            tr.builtin_ideal(7)
        with pytest.raises(ValueError, match="unknown interpretation"):
            tr.builtin_ideal(7, "printed")

    def test_genus89_reject_foreign_interpretation(self):
        with pytest.raises(ValueError, match="unknown interpretation"):
            tr.builtin_ideal(8, "emended")
        assert tr.builtin_ideal(8, "printed").generator_degrees() == [4, 5, 5]

    def test_unknown_genus(self):
        with pytest.raises(ValueError):
            tr.builtin_ideal(10)

    def test_genus9_shape(self):
        ideal = tr.builtin_ideal(9)
        assert ideal.weights == (1, 2, 3)
        assert sorted(ideal.generator_degrees()) == [4, 5, 5, 6, 6]


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
        assert len(tr.monomials(5, (1, 2))) == 3
        assert tr.graded_ideal_rank(ideal, 5) == 3

    def test_genus9_printed_quotient(self):
        report = tr.quotient_report(9)
        assert report.hilbert == [1, 1, 2, 3, 3, 2, 1] + [0] * 9
        assert (report.socle_degrees, report.socle_dims) == ([5, 6], [1, 1])
        assert not report.gorenstein
        assert report.artinian
        assert report.minimal_generator_count == 5
        assert not report.ci_verdict

    def test_report_serialization(self):
        report = tr.quotient_report(7, "emended")
        data = json.loads(report.to_json())
        assert data["genus"] == 7
        assert data["interpretation"] == "emended"
        assert data["minimal_generators_by_degree"] == {"4": 2}
