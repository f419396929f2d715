"""Unit and property tests for split-bundle algebra on the projective line."""

import itertools

import pytest
from hypothesis import given, strategies as st

from splitloci import splitbundle as sb
from splitloci.splitbundle import SplittingType

import dominance as dom

parts_strategy = st.lists(st.integers(-15, 15), min_size=1, max_size=6)


def brute_h0(e):
    # oracle: h^0(O(d)) is the number of monomials of degree d, i.e. d+1
    return sum(d + 1 for d in e if d >= 0)


def brute_h1(e):
    # oracle via Serre duality: h^1(O(d)) = h^0(O(-d-2))
    return brute_h0(sb.twist(sb.dual(e), -2))


class TestSplittingType:
    def test_constructor_sorts(self):
        assert SplittingType([3, 1, 2]).parts == (1, 2, 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SplittingType([])

    def test_equality_with_tuple(self):
        assert SplittingType([2, 1]) == (1, 2)

    def test_str(self):
        assert str(SplittingType([1, 2])) == "(1,2)"

    def test_hash_and_repr(self):
        e = SplittingType([2, 1])
        assert hash(e) == hash((1, 2))
        assert {(1, 2): "parts"}[e] == "parts"
        assert repr(e) == "SplittingType((1, 2))"

    def test_a_float_is_not_equal(self):
        e = SplittingType([1])
        assert e != 1.0
        assert not e == 1.0

    @pytest.mark.parametrize("parts", [(2.7, 3), (3.0, 3), ("4", 1),
                                       (1, None)])
    def test_a_part_that_is_not_an_integer_raises(self, parts):
        # int() would truncate 2.7 to 2 and parse "4" as 4
        with pytest.raises(TypeError):
            SplittingType(parts)

    def test_a_bool_part_is_an_int(self):
        assert SplittingType([True, 3, False]).parts == (0, 1, 3)

    @given(parts_strategy)
    def test_rank_degree(self, parts):
        e = SplittingType(parts)
        assert e.rank() == len(parts)
        assert e.degree() == sum(parts)


class TestConstructions:
    @given(parts_strategy)
    def test_dual_involution(self, parts):
        e = SplittingType(parts)
        assert sb.dual(sb.dual(e)) == e

    @given(parts_strategy, st.integers(-5, 5), st.integers(-5, 5))
    def test_twist_additive(self, parts, m1, m2):
        e = SplittingType(parts)
        assert sb.twist(sb.twist(e, m1), m2) == sb.twist(e, m1 + m2)

    @given(parts_strategy, parts_strategy)
    def test_tensor_rank_degree(self, p1, p2):
        e, f = SplittingType(p1), SplittingType(p2)
        t = sb.tensor(e, f)
        assert t.rank() == e.rank() * f.rank()
        assert t.degree() == e.degree() * f.rank() + f.degree() * e.rank()

    @given(parts_strategy, parts_strategy)
    def test_tensor_commutes(self, p1, p2):
        e, f = SplittingType(p1), SplittingType(p2)
        assert sb.tensor(e, f) == sb.tensor(f, e)

    @given(st.lists(st.integers(-10, 10), min_size=2, max_size=6))
    def test_sym2_wedge2_decompose_tensor_square(self, parts):
        e = SplittingType(parts)
        combined = sorted(sb.sym2(e).parts + sb.wedge2(e).parts)
        assert combined == sorted(sb.tensor(e, e).parts)

    @given(parts_strategy)
    def test_end_is_self_dual(self, parts):
        e = SplittingType(parts)
        assert sb.dual(sb.end(e)) == sb.end(e)

    @given(parts_strategy, parts_strategy)
    def test_hom_is_dual_tensor(self, p1, p2):
        e, f = SplittingType(p1), SplittingType(p2)
        assert sb.hom(e, f) == sb.tensor(sb.dual(e), f)

    def test_wedge2_rank1_raises(self):
        with pytest.raises(ValueError):
            sb.wedge2(SplittingType([3]))

    @given(parts_strategy, parts_strategy)
    def test_direct_sum(self, p1, p2):
        e, f = SplittingType(p1), SplittingType(p2)
        s = sb.direct_sum(e, f)
        assert s.rank() == e.rank() + f.rank()
        assert sorted(s.parts) == sorted(e.parts + f.parts)


class TestCohomology:
    @given(parts_strategy)
    def test_h0_h1_against_oracles(self, parts):
        e = SplittingType(parts)
        assert sb.h0(e) == brute_h0(e)
        assert sb.h1(e) == brute_h1(e)

    @given(parts_strategy)
    def test_riemann_roch(self, parts):
        e = SplittingType(parts)
        assert sb.chi(e) == e.degree() + e.rank()

    def test_spot_values(self):
        assert sb.h0(SplittingType([2])) == 3
        assert sb.h1(SplittingType([-3])) == 2
        assert sb.h0(SplittingType([-1])) == 0
        assert sb.h1(SplittingType([-1])) == 0

    def test_expected_codim_spot_values(self):
        assert sb.expected_codim(SplittingType([2, 3, 5])) == 3
        assert sb.expected_codim(SplittingType([2, 4, 5])) == 3
        assert sb.expected_codim(SplittingType([2, 5, 5])) == 4
        assert sb.expected_codim(SplittingType([4, 9])) == 4
        assert sb.expected_codim(SplittingType([2, 6, 7])) == 7
        assert sb.expected_codim(SplittingType([4, 11])) == 6
        assert sb.expected_codim(SplittingType([3, 6])) == 2
        assert sb.expected_codim(SplittingType([4, 4, 5, 5, 6])) == 2
        assert sb.expected_codim(SplittingType([2, 3, 3, 5])) == 4
        assert sb.expected_codim(SplittingType([2, 3, 4, 4])) == 2

    @given(parts_strategy)
    def test_expected_codim_is_h1_of_end(self, parts):
        e = SplittingType(parts)
        assert sb.expected_codim(e) == sb.h1(sb.end(e))
        assert sb.expected_codim(parts) == sb.h1(sb.end(e))

    def test_balanced_has_expected_codim_zero(self):
        assert sb.expected_codim(SplittingType([3, 3, 4])) == 0


def rank3_degree12_types():
    return [SplittingType(t) for t in
            itertools.combinations_with_replacement(range(0, 13), 3)
            if sum(t) == 12]


class TestDominance:
    """The reference dominance order of tests/dominance.py, against which
    the tests of `strata` check its bitmask order."""

    def test_incomparable_families_raise(self):
        with pytest.raises(ValueError, match="incomparable families"):
            dom.dominates(SplittingType([1, 2]), SplittingType([1, 2, 3]))
        with pytest.raises(ValueError, match="incomparable families"):
            dom.dominates(SplittingType([1, 2]), SplittingType([1, 3]))

    def test_spot_comparisons(self):
        assert dom.dominates((3, 4, 5), (4, 4, 4)) == dom.LESS_EQUAL
        assert dom.dominates((4, 4, 4), (3, 4, 5)) == dom.GREATER_EQUAL
        assert dom.dominates((4, 4, 4), (4, 4, 4)) == dom.EQUAL
        # prefix sums (1,7,12) vs (2,5,12) cross
        assert dom.dominates((1, 6, 5), (2, 3, 7)) == dom.INCOMPARABLE

    def test_poset_axioms_on_rank3_degree12(self):
        types = rank3_degree12_types()
        for a in types:
            assert dom.dominates(a, a) == dom.EQUAL
        for a in types:
            for b in types:
                rel = dom.dominates(a, b)
                if rel == dom.EQUAL:
                    assert a == b
                if rel == dom.LESS_EQUAL:
                    assert dom.dominates(b, a) == dom.GREATER_EQUAL
        for a in types:
            for b in types:
                if dom.dominates(a, b) != dom.LESS_EQUAL:
                    continue
                for c in types:
                    if dom.dominates(b, c) == dom.LESS_EQUAL:
                        assert dom.dominates(a, c) in (dom.LESS_EQUAL, dom.EQUAL)
