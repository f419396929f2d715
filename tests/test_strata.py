"""Tests for the degree-4 and degree-5 pair-stratum enumeration."""

import functools
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from splitloci import chowsym as cs
from splitloci import splitbundle as sb
from splitloci import jsontext, strata
from splitloci.polynomial import Poly
from splitloci.strata import E1, E2, G

import dominance as dom


def by_label(records):
    return {r.label: r for r in records if r.label}


def pairs(records):
    return {(r.e.parts, r.f.parts) for r in records}


def labeled_pairs(degree, genus):
    return {(e, f) for (d, g, e, f) in strata.FIXTURE_LABELS
            if d == degree and g == genus}


class TestConstraints:
    def test_degree4_check_accepts_balanced(self):
        assert strata.CHECKS[4].check(9, (4, 4, 4), (6, 6)).allowed

    def test_degree4_check_rejects_printed_genus5_pair(self):
        verdict = strata.CHECKS[4].check(5, (2, 2, 4), (3, 5))
        assert not verdict.allowed
        assert "Q12VAN" in verdict.violated

    def test_degree4_check_degree_mismatch(self):
        verdict = strata.CHECKS[4].check(9, (4, 4, 4), (6, 7))
        assert "TOTALDEG" in verdict.violated

    def test_degree4_check_rank_guard(self):
        with pytest.raises(ValueError):
            strata.CHECKS[4].check(9, (4, 4), (6, 6))

    def test_degree5_check_accepts_balanced(self):
        assert strata.CHECKS[5].check(9, (3, 3, 3, 4), (5, 5, 5, 5, 6)).allowed

    def test_degree5_check_linear_conditions(self):
        # f1 + f3 + e4 too small trips L1
        verdict = strata.CHECKS[5].check(9, (3, 3, 3, 4), (3, 5, 5, 5, 8))
        assert not verdict.allowed

    def test_genus_range(self):
        with pytest.raises(ValueError):
            strata.enumerate_strata(4, 4)
        with pytest.raises(ValueError):
            strata.enumerate_strata(5, 6)
        with pytest.raises(ValueError):
            strata.enumerate_strata(3, 9)

    def test_check_genus_guard(self):
        with pytest.raises(ValueError):
            strata.CHECKS[4].check(4, (2, 2, 3), (3, 4))
        with pytest.raises(ValueError):
            strata.CHECKS[5].check(6, (2, 2, 3, 3), (4, 4, 4, 4, 4))

    def test_parts_that_are_not_integers_raise(self):
        # 4.9 + 4 + 4 = 12.9: a truncated 4.9 would pass as (4, 4, 4)
        with pytest.raises(TypeError):
            strata.CHECKS[4].check(9, (4.9, 4, 4), (6, 6))
        with pytest.raises(TypeError):
            strata.CHECKS[5].check(9, ("3", 3, 3, 4), (5, 5, 5, 5, 6))

    @pytest.mark.parametrize("genus", [9.0, "9", None])
    def test_a_genus_that_is_not_an_integer_raises(self, genus, monkeypatch):
        # a float genus would be compared and summed as a float, and
        # CHECKS[4].check(9.0, (4, 4, 4), (6, 6)) allowed
        with pytest.raises(TypeError):
            strata.CHECKS[4].check(genus, (4, 4, 4), (6, 6))
        with pytest.raises(TypeError):
            strata.CHECKS[5].check(genus, (3, 3, 3, 4), (5, 5, 5, 5, 6))

        def unreachable(*args):
            raise AssertionError("enumerated with genus %r" % (genus,))

        # raised before any enumeration, not from inside range
        monkeypatch.setattr(strata, "_weakly_increasing_tuples", unreachable)
        monkeypatch.setattr(strata, "_pentagonal_f", unreachable)
        for degree in (4, 5):
            with pytest.raises(TypeError):
                strata.enumerate_strata(degree, genus)
        for lemma_id, spec in cs.LEMMAS.items():
            e, f = (((4, 4, 4), (6, 6)) if spec.degree == 4
                    else ((3, 3, 3, 4), (5, 5, 5, 5, 6)))
            with pytest.raises(TypeError):
                cs._HYPOTHESES[lemma_id].check(genus, e, f)

    def test_a_bool_genus_is_an_int(self):
        # True is genus 1, below every genus floor: ValueError, not TypeError
        with pytest.raises(ValueError):
            strata.CHECKS[4].check(True, (4, 4, 4), (6, 6))
        with pytest.raises(ValueError):
            strata.enumerate_strata(5, True)

    @pytest.mark.parametrize("degree", [4.0, 5.0, "4", None])
    def test_a_cover_degree_that_is_not_an_integer_raises(self, degree):
        # 4.0 passed the `in (4, 5)` check and enumerated 10 records
        with pytest.raises(TypeError):
            strata.enumerate_strata(degree, 9)
        with pytest.raises(ValueError, match="cover degree must be 4 or 5"):
            strata.enumerate_strata(3, 9)

    def test_splitting_types_skip_the_conversion(self, monkeypatch):
        indexed, built = [], []
        index, init = strata.operator.index, sb.SplittingType.__init__

        class Operator:
            @staticmethod
            def index(x):
                indexed.append(x)
                return index(x)

        def counting_init(self, parts):
            built.append(tuple(parts))
            init(self, parts)

        monkeypatch.setattr(strata, "operator", Operator)
        monkeypatch.setattr(sb.SplittingType, "__init__", counting_init)
        e, f = sb.SplittingType((3, 4, 5)), sb.SplittingType((6, 6))
        built.clear()
        # SplittingTypes are taken as they are; every genus is indexed
        assert strata.CHECKS[4].check(9, e, f).allowed
        assert indexed == [9] and built == []
        # sequences of parts are converted
        assert strata.CHECKS[4].check(9, [5, 3, 4], (6, 6)).allowed
        assert indexed == [9, 9] and built == [(5, 3, 4), (6, 6)]
        with pytest.raises(ValueError):
            strata.CHECKS[4].check(True, e, f)
        assert indexed == [9, 9, True]


# The checks and lemma hypotheses as hand-written predicates, frozen from
# before the atom table and sharing no code with it: the reference the
# table's verdicts are compared against. Each check returns the violated
# names in the order the table lists them; e and f are sorted parts.
def reference_tet_check(g, e, f):
    e1, e2, e3 = e
    f1, f2 = f
    violated = []
    if sum(e) != g + 3 or sum(f) != g + 3:
        violated.append("TOTALDEG")
    if e1 < 1:
        violated.append("E1MIN")
    if 2 * e3 > g + 3:
        violated.append("E3MAX")
    if 2 * e1 < f1:
        violated.append("NO0")
    if 2 * e2 < f2:
        violated.append("Q12VAN")
    if f2 > e1 + e3 and f1 != 2 * e1:
        violated.append("CONDITIONAL")
    return tuple(violated)


REFERENCE_PENT_LINEAR = (("L1", 0, 2, 3), ("L2", 0, 3, 2), ("L3", 1, 2, 2),
                         ("L4", 1, 4, 0), ("L5", 2, 3, 0), ("L6", 0, 4, 1),
                         ("L7", 1, 3, 1))


def reference_pent_check(g, e, f):
    e1, e4 = e[0], e[3]
    violated = []
    if sum(e) != g + 4:
        violated.append("SUM_E")
    if sum(f) != 2 * g + 8:
        violated.append("SUM_F")
    if not (g + 4 <= 10 * e1 and 4 * e1 <= g + 4):
        violated.append("E1RANGE")
    if 5 * e4 > 2 * g + 8:
        violated.append("E4MAX")
    if f[4] > 2 * e4:
        violated.append("TOPF")
    for name, a, b, k in REFERENCE_PENT_LINEAR:
        if f[a] + f[b] + e[k] < g + 4:
            violated.append(name)
    return tuple(violated)


def _hyp_twoequalparts(g, e, f):
    return e[0] < e[1] == e[2] and f[0] < f[1]


def _hyp_dp_base(g, e, f):
    return e[0] < e[1] < e[2] and f[0] < f[1] and 2 * e[0] < f[1]


def _hyp_dp1(g, e, f):
    return _hyp_dp_base(g, e, f) and 2 * e[0] == f[0]


def _hyp_dp2(g, e, f):
    return (_hyp_dp1(g, e, f)
            and e[0] + e[1] < 2 * e[1] == f[1])


def _hyp_dp3i(g, e, f):
    return (_hyp_dp_base(g, e, f) and 2 * e[0] > f[0]
            and e[0] + e[2] == 2 * e[1] == f[1])


def _hyp_dp3ii(g, e, f):
    return _hyp_dp3i(g, e, f) and g != 9 - f[0]


def _hyp_shape1(g, e, f):
    return (e[0] < e[1] == e[2] < e[3]
            and f[0] == f[1] < f[2] == f[3] < f[4]
            and e[3] + f[0] + f[1] == g + 4
            and e[0] + f[2] + f[3] == g + 4)


def _hyp_forsigma2(g, e, f):
    return (e[0] < e[1] < e[2] == e[3]
            and f[0] < f[1] == f[2] < f[3] == f[4]
            and e[0] + f[1] + f[4] == g + 4
            and e[2] + f[0] + f[1] == g + 4)


def _hyp_forsigma3(g, e, f):
    return (e[0] < e[1] == e[2] < e[3]
            and f[0] < f[1] == f[2] < f[3] == f[4]
            and e[0] + f[1] + f[4] == g + 4
            and e[1] + f[0] + f[3] == g + 4)


REFERENCE_HYPOTHESES = {
    "twoequalparts": _hyp_twoequalparts, "distinctparts-1": _hyp_dp1,
    "distinctparts-2": _hyp_dp2, "distinctparts-3i": _hyp_dp3i,
    "distinctparts-3ii": _hyp_dp3ii, "shape1": _hyp_shape1,
    "forsigma2": _hyp_forsigma2, "forsigma3": _hyp_forsigma3,
}


def window(degree, genera):
    """Every sorted (g, e, f) with e and f of the degree's ranks, sums off
    by up to 1 from the admissible ones (so that TOTALDEG, SUM_E and SUM_F
    fire), e from 0 (degree 4) or 1 (degree 5) up and f from 0 or 1 up."""
    e_rank, f_rank = strata.RANKS[degree]
    lo = degree - 4
    for g in genera:
        e_sum, f_sum = (g + 3, g + 3) if degree == 4 else (g + 4, 2 * g + 8)
        for se in (e_sum - 1, e_sum, e_sum + 1):
            for e in sorted_tuples(e_rank, se, lo, se):
                for sf in (f_sum - 1, f_sum, f_sum + 1):
                    for f in sorted_tuples(f_rank, sf, lo, sf):
                        yield g, e, f


class TestConstraintTable:
    @pytest.mark.parametrize("degree,genera,reference,size", [
        (4, range(5, 12), reference_tet_check, 6825),
        (5, range(7, 9), reference_pent_check, 34503)])
    def test_violated_names_match_the_reference(self, degree, genera,
                                                reference, size):
        table = strata.CHECKS[degree]
        fired = set()
        cases = 0
        for g, e, f in window(degree, genera):
            violated = reference(g, e, f)
            verdict = table.check(g, e, f)
            assert verdict.violated == violated, (g, e, f)
            assert verdict.allowed == (not violated)
            assert table.violated(g, e + f) == violated, (g, e, f)
            fired.update(violated)
            cases += 1
        # every constraint fires somewhere in the window
        constraints = strata.TET_CONSTRAINTS if degree == 4 \
            else strata.PENT_CONSTRAINTS
        assert fired == set(constraints)
        assert cases == size

    def test_lemma_atoms_accept_the_reference_strata(self):
        # every enumerated stratum, wider than EVAL_GENUS_RANGE
        assert set(REFERENCE_HYPOTHESES) == set(cs.LEMMAS)
        for lemma_id, spec in cs.LEMMAS.items():
            table = cs._HYPOTHESES[lemma_id]
            accepted = 0
            for degree, genus in STRATA_WINDOWS:
                if degree != spec.degree:
                    continue
                for r in enumerated(degree, genus):
                    expected = REFERENCE_HYPOTHESES[lemma_id](
                        genus, r.e.parts, r.f.parts)
                    assert table.check(genus, r.e, r.f).allowed == expected
                    assert (not table.violated(
                        genus, r.e.parts + r.f.parts)) is expected
                    accepted += expected
            assert accepted, lemma_id

    def test_an_any_of_fails_only_when_all_its_atoms_fail(self):
        # f2 = 10 > e1 + e3 = 9 and f1 = 2 != 2 * e1 = 6
        assert strata.CHECKS[4].check(9, (3, 3, 6), (2, 10)).violated == (
            "Q12VAN", "CONDITIONAL")
        # f2 = 10 > e1 + e3 = 7, but f1 = 2 = 2 * e1
        assert strata.CHECKS[4].check(9, (1, 5, 6), (2, 10)).allowed

    @pytest.mark.parametrize("atom", [
        (E1 * E2, ">="),                     # not linear
        (E1 ** 2, "=="),
        (Poly.var("e1", coeff=Fraction(1, 2)), ">="),  # not integral
        (Poly.var("e4"), ">="),              # no e4 in degree 4
        (Poly.var("h"), ">="),               # not a symbol of the point
        (E1 - 1, ">"),                       # not a relation of the table
    ])
    def test_an_atom_that_is_not_integer_linear_raises(self, atom):
        with pytest.raises(ValueError):
            strata.Table(4, {"BAD": (atom,)})

    @pytest.mark.parametrize("empty", [(), strata.AnyOf()])
    def test_a_constraint_with_no_atoms_raises(self, empty):
        with pytest.raises(ValueError, match="no atoms"):
            strata.Table(4, {"EMPTY": empty})

    def test_the_predicate_is_the_and_of_the_constraints(self):
        table = strata.Table(4, {
            "A": ((E1 - 1, ">="), (E2 - E1, "!=")),
            "B": strata.AnyOf([(E1 - 3, "=="), (G - 2 * E2, ">=")])})
        for g, e1, e2 in [(9, 1, 2), (9, 3, 3), (9, 2, 3), (5, 2, 3),
                          (9, 0, 2), (9, 2, 2), (5, 3, 4)]:
            a = e1 >= 1 and e2 != e1
            b = e1 == 3 or g >= 2 * e2
            violated = ("A",) * (not a) + ("B",) * (not b)
            assert (not table.violated(g, (e1, e2, 9, 1, 1))) is (a and b)
            assert table.violated(g, (e1, e2, 9, 1, 1)) == violated
            verdict = table.check(g, (e1, e2, 9), (1, 1))
            assert verdict.violated == violated

    def test_a_table_with_no_constraints_allows_every_stratum(self):
        table = strata.Table(4, {})
        assert not table.violated(9, (0,) * 5)
        assert table.violated(9, (0,) * 5) == ()
        assert table.check(9, (0, 0, 0), (0, 0)).allowed


class TestDegree4Fixtures:
    def test_genus6_set(self):
        records = strata.enumerate_strata(4, 6)
        assert len(records) == 5
        assert pairs(records) == labeled_pairs(4, 6)

    def test_genus7_codims(self):
        labels = by_label(strata.enumerate_strata(4, 7))
        order = ["Psi0", "Psi1", "Sigma2", "Sigma3", "Z"]
        assert [labels[l].codim for l in order] == [0, 1, 2, 3, 2]

    def test_genus8_set(self):
        records = strata.enumerate_strata(4, 8)
        assert len(records) == 5
        assert pairs(records) == labeled_pairs(4, 8)

    def test_genus9_codims(self):
        records = strata.enumerate_strata(4, 9)
        assert len(records) == 10
        assert pairs(records) == labeled_pairs(4, 9)
        labels = by_label(records)
        order = ["Psi0", "Psi1", "Psi2", "Psi3", "Psi4", "Psi5",
                 "Sigma6", "Sigma7", "Sigma8", "Z"]
        assert [labels[l].codim for l in order] == [0, 1, 1, 2, 3, 4, 3, 4, 4, 2]

    def test_genus10_f49_pairs(self):
        records = strata.enumerate_strata(4, 10)
        es = {r.e.parts for r in records if r.f.parts == (4, 9)}
        assert es == {(2, 5, 6)}

    def test_genus5_constraint_derived_set(self):
        records = strata.enumerate_strata(4, 5)
        assert ((2, 2, 4), (4, 4)) in pairs(records)
        assert ((2, 2, 4), (3, 5)) not in pairs(records)

    def test_genus5_report_carries_note(self):
        records = strata.enumerate_strata(4, 5)
        report = strata.strata_report(records)
        assert strata.GENUS5_PSI2_NOTE in report["notes"]

    def test_psi_membership_matches_linear_rule(self):
        for g in range(5, 13):
            for r in strata.enumerate_strata(4, g):
                assert r.in_psi == (2 * r.e.parts[0] - r.f.parts[1] >= -1)
                assert r.in_psi == (r.correction == 0)

    def test_hyperelliptic_flag(self):
        for r in strata.enumerate_strata(4, 9):
            flagged = "hyperelliptic" in r.flags
            assert flagged == (r.e.parts[0] == 1)


class TestDegree5Fixtures:
    def test_genus7_set(self):
        records = strata.enumerate_strata(5, 7)
        assert len(records) == 5
        assert pairs(records) == labeled_pairs(5, 7)

    def test_genus8_set_and_sigma2(self):
        records = strata.enumerate_strata(5, 8)
        assert len(records) == 7
        assert pairs(records) == labeled_pairs(5, 8)
        assert by_label(records)["Sigma2"].codim == 2

    def test_genus9_set_and_codims(self):
        records = strata.enumerate_strata(5, 9)
        assert len(records) == 7
        assert pairs(records) == labeled_pairs(5, 9)
        labels = by_label(records)
        assert labels["Psi1"].codim == 2
        assert labels["Sigma2"].codim == 2
        assert labels["Sigma3"].codim == 4

    def test_lower_gonality_fixtures_flagged(self):
        for degree, g, e, f in strata.LOWER_GONALITY_FIXTURES:
            rec = next(r for r in strata.enumerate_strata(degree, g)
                       if (r.e.parts, r.f.parts) == (e, f))
            assert rec.lower_gonality


class TestReports:
    def test_json_round_trip(self):
        records = strata.enumerate_strata(4, 7)
        data = json.loads(jsontext.dumps(strata.strata_report(records)))
        assert data["genus"] == 7
        assert data["cover_degree"] == 4
        assert len(data["strata"]) == 5
        assert {tuple(s["e"]) for s in data["strata"]} \
            == {e for e, _ in pairs(records)}

    def test_report_rejects_empty(self):
        with pytest.raises(ValueError):
            strata.strata_report([])

    def test_report_notes(self):
        # the genus-5 table discrepancy is the only note
        assert strata.report_notes(4, 5) == [strata.GENUS5_PSI2_NOTE]
        assert strata.strata_report(strata.enumerate_strata(4, 5))["notes"] \
            == [strata.GENUS5_PSI2_NOTE]
        for degree in range(3, 7):
            for g in range(0, 30):
                if (degree, g) != (4, 5):
                    assert strata.report_notes(degree, g) == [], (degree, g)

    def test_report_reads_its_notes_from_report_notes(self, monkeypatch):
        monkeypatch.setattr(strata, "report_notes",
                            lambda degree, g: ["note %d %d" % (degree, g)])
        report = strata.strata_report(strata.enumerate_strata(5, 8))
        assert report["notes"] == ["note 5 8"]


def pair_order(r1, r2):
    """Product of the dominance orders on the e and f coordinates."""
    ce = dom.dominates(r1.e, r2.e)
    cf = dom.dominates(r1.f, r2.f)
    if ce == dom.INCOMPARABLE or cf == dom.INCOMPARABLE:
        return dom.INCOMPARABLE
    if ce == dom.EQUAL:
        return cf
    if cf == dom.EQUAL:
        return ce
    return ce if ce == cf else dom.INCOMPARABLE


def reachability(records):
    n = len(records)
    below = [[pair_order(records[i], records[j]) == dom.LESS_EQUAL
              and records[i].key() != records[j].key()
              for j in range(n)] for i in range(n)]
    reach = [row[:] for row in below]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return below, reach


STRATA_WINDOWS = [(4, g) for g in range(5, strata.GENUS_MAX + 1)] + \
    [(5, g) for g in range(7, strata.GENUS_MAX + 1)]


@functools.lru_cache(maxsize=None)
def enumerated(degree, genus):
    return tuple(strata.enumerate_strata(degree, genus))


def scanned_edges(records):
    """The Hasse diagram's edges as a scan over i, then j, finds them: (i, j)
    when record i lies strictly below record j and no record between."""
    n = len(records)
    below, _ = reachability(records)
    ids = [strata.NODE_ID % (r.e, r.f) for r in records]
    return [(ids[i], ids[j]) for i in range(n) for j in range(n)
            if below[i][j]
            and not any(below[i][k] and below[k][j] for k in range(n))]


class TestFlags:
    """A record's flags are the texts the reports print."""

    @pytest.mark.parametrize("degree,genus,key,flags", [
        (4, 5, ((1, 3, 4), (2, 6)), ("hyperelliptic",)),
        (5, 7, ((2, 3, 3, 3), (3, 3, 5, 5, 6)), ("forced_pencil(0,3)",)),
        (5, 8, ((2, 3, 3, 4), (3, 4, 5, 6, 6)),
         ("forced_pencil(1,3)", "forced_g26")),
    ])
    def test_each_kind_has_its_text(self, degree, genus, key, flags):
        record = next(r for r in enumerated(degree, genus) if r.key() == key)
        assert record.flags == flags

    @pytest.mark.parametrize("degree,genus", STRATA_WINDOWS)
    def test_flags_are_strings_and_reported_as_they_are(self, degree, genus):
        for r in enumerated(degree, genus):
            assert type(r.flags) is tuple
            assert all(type(flag) is str for flag in r.flags)
            assert r.to_dict()["flags"] == list(r.flags)


class TestHasse:
    @pytest.mark.parametrize("degree,genus",
                             [(4, 9), (5, 9), (4, 7), (5, 24), (4, 24)])
    def test_edges_are_transitive_reduction(self, degree, genus):
        records = strata.enumerate_strata(degree, genus)
        edges, _ = strata.hasse(records)
        ids = [strata.NODE_ID % (r.e, r.f) for r in records]
        below, reach = reachability(records)
        n = len(records)
        expected = set()
        for i in range(n):
            for j in range(n):
                if below[i][j] and not any(
                        below[i][k] and reach[k][j] for k in range(n)
                        if k not in (i, j)):
                    expected.add((ids[i], ids[j]))
        assert set(edges) == expected

    def test_dot_output_mentions_labels(self):
        records = strata.enumerate_strata(4, 9)
        _, dot = strata.hasse(records)
        assert dot.startswith("digraph strata {")
        assert 'label="Psi0"' in dot
        assert dot.rstrip().endswith("}")

    @settings(max_examples=60, deadline=None)
    @given(window=st.sampled_from(STRATA_WINDOWS), data=st.data())
    def test_random_sublists_match_the_reference_scan(self, window, data):
        # sub-lists in random order; an index drawn twice repeats a record
        records = enumerated(*window)
        picks = data.draw(st.lists(st.integers(0, len(records) - 1),
                                   max_size=30))
        chosen = [records[i] for i in picks]
        edges, dot = strata.hasse(chosen)
        assert edges == scanned_edges(chosen)
        assert dot.count(" -> ") == len(edges)

    @settings(max_examples=30, deadline=None)
    @given(window=st.sampled_from([(4, 12), (5, 10)]), data=st.data())
    def test_permuted_windows_match_the_reference_scan(self, window, data):
        # the linear extension ranks records by their sums, whatever
        # order they come in; edges follow the input order
        records = data.draw(st.permutations(enumerated(*window)))
        edges, _ = strata.hasse(records)
        assert edges == scanned_edges(records)

    def test_rejects_records_of_different_genera(self):
        records = strata.enumerate_strata(4, 9) + strata.enumerate_strata(4, 10)
        with pytest.raises(ValueError, match="incomparable families"):
            strata.hasse(records)

    def test_rejects_a_mix_of_cover_degrees(self):
        records = strata.enumerate_strata(4, 9) + strata.enumerate_strata(5, 9)
        with pytest.raises(ValueError, match="incomparable families"):
            strata.hasse(records)

    def test_rejects_f_of_another_degree(self):
        record, other = (strata.enumerate_strata(5, 9)[0] for _ in range(2))
        other.f = sb.SplittingType(record.f.parts[:4] + (record.f[4] + 1,))
        with pytest.raises(ValueError, match="incomparable families"):
            strata.hasse([record, other])

    def test_empty_input(self):
        assert strata.hasse([]) == ([], "digraph strata {\n}")

    def test_single_record_has_no_edges(self):
        record = strata.enumerate_strata(5, 9)[0]
        edges, dot = strata.hasse([record])
        assert edges == []
        assert " -> " not in dot


@st.composite
def sum_lists(draw):
    """0-40 tuples of one length, 1-7, with small entries, negative ones
    included, so that ties within a column and repeated tuples occur."""
    width = draw(st.integers(1, 7))
    return draw(st.lists(st.tuples(*[st.integers(-3, 3)] * width),
                         max_size=40))


class TestBelowMasks:
    @settings(max_examples=300, deadline=None)
    @given(sums=sum_lists())
    @example(sums=[])
    @example(sums=[(0,), (0,), (-1,)])
    @example(sums=[(1, -2), (1, -2), (0, 3), (2, -2)])
    def test_bits_are_the_strictly_smaller_tuples(self, sums):
        masks = strata._below_masks(sums)
        assert len(masks) == len(sums)
        for i, (mask, si) in enumerate(zip(masks, sums)):
            assert mask >> len(sums) == 0
            for j, sj in enumerate(sums):
                below = all(a <= b for a, b in zip(sj, si)) and sj != si
                assert bool(mask >> j & 1) == below, (i, j)


def constructive_correction(g, degree, e, f):
    """The correction term as h1 of the bundle built part by part."""
    if degree == 4:
        return sb.h1(sb.tensor(sb.dual(f), sb.sym2(e)))
    return sb.h1(sb.twist(sb.tensor(e, sb.wedge2(f)), -(g + 4)))


def standalone_record(g, degree, e, f):
    """strata._make_record of the pair, with its expected codimensions
    and correction computed from e and f alone rather than from the
    enumerator's per-call values."""
    return strata._make_record(
        g, degree, e, f, sb.expected_codim(e), sb.expected_codim(f),
        strata._correction(degree, strata._e_side(g, degree, e.parts),
                           strata._f_side(g, degree, f.parts)))


def psi_inequality(g, degree, e, f):
    if degree == 4:
        return 2 * e[0] - f[1] >= -1
    return e[0] + f[0] + f[1] - (g + 4) >= -1


def random_sorted(rng, length, total, lo, hi):
    """A random weakly increasing tuple with the given length and sum and
    entries in [lo, hi]; needs lo * length <= total <= hi * length."""
    parts = []
    for slots in range(length, 1, -1):
        value = rng.randint(max(lo, total - hi * (slots - 1)),
                            min(hi, total // slots))
        parts.append(value)
        total -= value
        lo = value
    return tuple(parts + [total])


def random_admissible_pair(rng, degree, g):
    """Sorted tuples of the right sums, drawn until the constraint check
    accepts them (at least 5% of draws are accepted for g <= 60)."""
    for _ in range(1000):
        if degree == 4:
            e = random_sorted(rng, 3, g + 3, 1, (g + 3) // 2)
            f = random_sorted(rng, 2, g + 3, 1, g + 2)
            verdict = strata.CHECKS[4].check(g, e, f)
        else:
            e1 = rng.randint(-(-(g + 4) // 10), (g + 4) // 4)
            e = (e1,) + random_sorted(rng, 3, g + 4 - e1, e1,
                                      (2 * g + 8) // 5)
            f = random_sorted(rng, 5, 2 * g + 8, 1, 2 * e[3])
            verdict = strata.CHECKS[5].check(g, e, f)
        if verdict.allowed:
            return sb.SplittingType(e), sb.SplittingType(f)
    raise AssertionError("no admissible pair drawn")


def sorted_tuples(length, total, lo, hi):
    """Every weakly increasing tuple of the given length and sum with
    entries in [lo, hi], in lexicographic order; no pair bounds."""
    if length == 1:
        if lo <= total <= hi:
            yield (total,)
        return
    for v in range(max(lo, total - hi * (length - 1)),
                   min(hi, total // length) + 1):
        for rest in sorted_tuples(length - 1, total - v, v, hi):
            yield (v,) + rest


@st.composite
def tuple_bounds(draw):
    """Arguments for `_weakly_increasing_tuples`: a length, a sum and
    entry bounds, with sums up to one entry past what the bounds allow."""
    length = draw(st.integers(1, 5))
    lo = draw(st.integers(-2, 4))
    hi = draw(st.integers(lo - 1, lo + 12))
    total = draw(st.integers(length * (lo - 1), length * (hi + 1)))
    return length, total, lo, hi


@st.composite
def pentagonal_f_bounds(draw):
    """Arguments for `_pentagonal_f`: a sum, lo, five caps and the seven
    L bounds, drawn around a weakly increasing witness tuple with entries
    in [lo - 1, lo + 6], so that the caps and bounds sit near the values
    where they start to bind and both empty and full answers come up."""
    lo = draw(st.integers(-2, 4))
    witness = sorted(draw(st.lists(st.integers(lo - 1, lo + 6),
                                   min_size=5, max_size=5)))
    total = sum(witness) + draw(st.integers(-2, 2))
    caps = [w + draw(st.integers(-2, 3)) for w in witness]
    bounds = [witness[a] + witness[b] + draw(st.integers(-4, 1))
              for _, a, b, _ in strata.PENT_LINEAR]
    return total, lo, caps, bounds


def pentagonal_filter(total, lo, caps, bounds):
    """The weakly increasing 5-tuples of `_pentagonal_f`'s contract, by
    filtering every tuple of entries in [lo, caps[4]]."""
    return [t for t in combinations_with_replacement(
                range(lo, caps[4] + 1), 5)
            if sum(t) == total and all(x <= c for x, c in zip(t, caps))
            and all(t[a] + t[b] >= c for (_, a, b, _), c
                    in zip(strata.PENT_LINEAR, bounds))]


def pentagonal_f_and_f4_ranges(*args):
    """`_pentagonal_f(*args)` and the length of each range its f4 loop
    took. The four loops nest f1, f2, f3, f4, so the lengths of the
    ranges, in the order they are made, rebuild the loop tree."""
    lengths = []

    def counting_range(*bounds):
        made = range(*bounds)
        lengths.append(len(made))
        return made

    with mock.patch.object(strata, "range", counting_range, create=True):
        out = strata._pentagonal_f(*args)
    calls = iter(lengths)

    def f4_lengths(level):
        n = next(calls)
        return [n] if level == 4 else [m for _ in range(n)
                                       for m in f4_lengths(level + 1)]

    f4 = f4_lengths(1)
    assert next(calls, None) is None
    return out, f4


def pentagonal_arguments(genus, e, caps=None):
    """The sum, lo and L bounds `enumerate_strata` passes for e, with
    the given caps; by default the caps it derives from `_F_CAPS`."""
    ftotal = 2 * genus + 8
    if caps is None:
        caps = [min(e[k] + e[m] for _, _, k, m in terms)
                for terms in strata._F_CAPS]
    return (ftotal, ftotal - 8 * e[3], caps,
            [genus + 4 - e[k] for _, _, _, k in strata.PENT_LINEAR])


class TestTupleGenerator:
    @settings(max_examples=300, deadline=None)
    @given(args=tuple_bounds())
    # a sum the bounds cannot reach, from below and from above
    @example(args=(3, 5, 2, 4))
    @example(args=(3, 13, 2, 4))
    # lo above hi, and one slot
    @example(args=(2, 4, 3, 2))
    @example(args=(1, 4, 4, 4))
    def test_matches_a_filter_in_order(self, args):
        length, total, lo, hi = args
        expected = [t for t in combinations_with_replacement(
                        range(lo, hi + 1), length)
                    if sum(t) == total]
        assert list(strata._weakly_increasing_tuples(*args)) == expected

    @settings(max_examples=400, deadline=None)
    @given(args=pentagonal_f_bounds())
    # an f3 interval that is empty for some placed f1, f2
    @example(args=(8, -1, [-1, 1, 2, 5, 5], [-2, 3, 1, 3, 3, 1, 4]))
    # a cap below lo: no tuple
    @example(args=(13, 0, [-1, 2, 4, 4, 7], [-1, 3, 5, 9, 3, 6, 2]))
    @example(args=(13, 3, [4, 4, 2, 4, 7], [0] * 7))
    # the f1 + f5 bound above cap5 + lo raises f1's start; with the f3 +
    # f4 bound it also stops f2 at total - b15 - b34, below its cap
    @example(args=(16, 1, [2, 3, 4, 4, 7], [2, 4, 2, 6, 5, 9, 4]))
    # the f2 + f5 and f3 + f4 bounds stop f1 at total - b25 - b34
    @example(args=(15, -1, [3, 4, 5, 5, 7], [3, 4, 5, 8, 5, 5, 3]))
    def test_pentagonal_f_matches_a_filter_in_order(self, args):
        out, f4 = pentagonal_f_and_f4_ranges(*args)
        assert out == pentagonal_filter(*args)
        # no prefix from f3 on is dead: each f3 value yields a tuple
        assert 0 not in f4 and sum(f4) == len(out)

    @pytest.mark.parametrize("genus", [7, 16, 24])
    def test_pentagonal_f_match_a_filter_in_order(self, genus):
        # every e of (5, genus), with the caps and bounds enumerate_strata
        # passes, against the filter under TOPF and L1..L7 alone: the
        # derived caps lose no f
        ftotal = 2 * genus + 8
        es = list(sorted_tuples(4, genus + 4, -(-(genus + 4) // 10),
                                ftotal // 5))
        assert list(strata._weakly_increasing_tuples(
            4, genus + 4, -(-(genus + 4) // 10), ftotal // 5)) == es
        for e in es:
            total, lo, caps, bounds = pentagonal_arguments(genus, e)
            expected = [f for f in sorted_tuples(5, total, lo, 2 * e[3])
                        if all(f[a] + f[b] >= c for (_, a, b, _), c
                               in zip(strata.PENT_LINEAR, bounds))]
            out, f4 = pentagonal_f_and_f4_ranges(total, lo, caps, bounds)
            assert out == expected
            assert 0 not in f4 and sum(f4) == len(out)


class TestPentagonalCaps:
    def test_caps_are_the_derived_table(self):
        # f1 <= 2e1, f2 <= e1 + e2, f3 <= min(2e2, e1 + e3),
        # f4 <= min(e1 + e4, e2 + e3), f5 <= min(e2 + e4, 2e3)
        table = [sorted(tuple(sorted((k, m))) for _, _, k, m in terms)
                 for terms in strata._F_CAPS]
        assert table == [[(0, 0)], [(0, 1)], [(0, 2), (1, 1)],
                         [(0, 3), (1, 2)], [(1, 3), (2, 2)]]

    def test_each_cap_is_two_l_forms_minus_sum_f(self):
        # an identity of Polys in g and the parts, so it holds for every
        # genus: the L forms are >= 0 and SUM_F's form is 0
        constraints = strata.PENT_CONSTRAINTS
        (sum_f, relation), = constraints["SUM_F"]
        assert relation == "=="
        for s, terms in enumerate(strata._F_CAPS):
            assert terms
            for one, two, k, m in terms:
                (first, r1), = constraints[one]
                (second, r2), = constraints[two]
                assert r1 == r2 == ">="
                assert strata.E[k] + strata.E[m] - strata.F[s] == \
                    first + second - sum_f, (s, one, two)

    def test_the_plan_does_not_depend_on_the_order_of_the_atoms(self):
        linear = strata.PENT_LINEAR[::-1]
        positions, caps = strata._f_plan(linear)
        assert [linear[i][1:3] for i in positions] == list(strata._F_PAIRS)
        assert [sorted(c) for c in caps] == [sorted(c)
                                              for c in strata._F_CAPS]

    @pytest.mark.parametrize("last", [
        None,  # L7's pair (1, 3) missing
        ("L7", 0, 1, 1),  # a pair (0, 1)
        ("L7", 2, 4, 1),  # a second pair among the last three slots
        ("L7", 3, 4, 1),
        ("L7", 1, 2, 1),  # (1, 3) missing, (1, 2) twice
        ("L7", 3, 1, 1),  # a pair written backwards
    ])
    def test_a_pattern_the_closed_form_does_not_solve_raises(self, last):
        linear = strata.PENT_LINEAR[:-1] + ((last,) if last else ())
        with pytest.raises(ValueError, match="f generator"):
            strata._f_plan(linear)


class TestClosedForms:
    @pytest.mark.parametrize("degree,genus", STRATA_WINDOWS)
    def test_records_match_the_constructive_bundles(self, degree, genus):
        for r in enumerated(degree, genus):
            assert r.expected_e == sb.h1(sb.end(r.e))
            assert r.expected_f == sb.h1(sb.end(r.f))
            assert r.correction == constructive_correction(
                genus, degree, r.e, r.f)
            assert r.codim == r.expected_e + r.expected_f - r.correction

    @settings(max_examples=200, deadline=None)
    @given(degree=st.sampled_from([4, 5]), data=st.data(),
           seed=st.integers(0, 2 ** 32))
    def test_psi_holds_exactly_when_the_correction_vanishes(self, degree,
                                                            data, seed):
        # genera past GENUS_MAX too: the docstring of in_psi proves the
        # equivalence for every genus
        g = data.draw(st.integers(5 if degree == 4 else 7, 60), label="genus")
        e, f = random_admissible_pair(random.Random(seed), degree, g)
        record = standalone_record(g, degree, e, f)
        assert record.correction == constructive_correction(g, degree, e, f)
        assert (record.correction == 0) == psi_inequality(g, degree, e, f)
        if g <= strata.GENUS_MAX:
            assert (e.parts, f.parts) in pairs(enumerated(degree, g))

    @pytest.mark.parametrize("degree,genus", STRATA_WINDOWS)
    def test_every_listed_pair_is_admissible(self, degree, genus):
        # the enumerator's ranges are its only admissibility decision: the
        # table must allow every pair they list, and they list each pair
        # once, in increasing order
        table = strata.CHECKS[degree]
        listed = []
        for r in strata.enumerate_strata(degree, genus):
            verdict = table.check(genus, r.e, r.f)
            assert verdict.allowed and verdict.violated == (), (r.e, r.f)
            listed.append((r.e.parts, r.f.parts))
        assert all(a < b for a, b in zip(listed, listed[1:]))

    @pytest.mark.parametrize("degree,genus", STRATA_WINDOWS)
    def test_parts_are_those_the_checking_constructor_builds(self, degree,
                                                             genus):
        # the enumerator builds e and f without sorting or converting
        for r in strata.enumerate_strata(degree, genus):
            for split in (r.e, r.f):
                built = sb.SplittingType(list(split.parts))
                assert type(split) is sb.SplittingType
                assert type(split.parts) is tuple
                assert all(type(p) is int for p in split.parts)
                assert split.parts == built.parts and split == built


class TestPerCallSharing:
    """`enumerate_strata` prepares each distinct e and f once per call and
    keeps nothing between calls."""

    @pytest.mark.parametrize("degree,genus", [(4, 24), (5, 24), (5, 9)])
    def test_equal_parts_share_one_splitting_type(self, degree, genus):
        records = strata.enumerate_strata(degree, genus)
        for axis in ("e", "f"):
            objects = {}
            for r in records:
                split = getattr(r, axis)
                assert objects.setdefault(split.parts, split) is split
            assert len(objects) < len(records)

    @pytest.mark.parametrize("degree,genus", [(4, 24), (5, 24)])
    def test_two_calls_share_no_object(self, degree, genus):
        first = strata.enumerate_strata(degree, genus)
        second = strata.enumerate_strata(degree, genus)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
        ids = {id(x) for r in first for x in (r, r.e, r.f)}
        assert not ids & {id(x) for r in second for x in (r, r.e, r.f)}

    @pytest.mark.parametrize("degree,genus", STRATA_WINDOWS)
    def test_corrections_match_a_standalone_record(self, degree, genus):
        for r in enumerated(degree, genus):
            alone = standalone_record(genus, degree,
                                      sb.SplittingType(r.e.parts),
                                      sb.SplittingType(r.f.parts))
            assert r.correction == alone.correction
            assert r == alone


class TestWholeStratumSet:
    """`enumerate_strata` against every sorted pair of the right sums in
    a universe bounded here, kept when the table's `violated` names no
    constraint; the hand-written reference check must keep the same
    pairs. Each bound below holds for every admissible pair, by the
    argument given with it, so the universe holds every admissible
    pair."""

    @pytest.mark.parametrize("genus", range(5, strata.GENUS_MAX + 1))
    def test_degree4(self, genus):
        # E1MIN: e1 >= 1. Then e2 + e3 <= g + 2 with e2 <= e3 gives
        # 2 * e2 <= g + 2, so Q12VAN puts f2 <= g + 2 and f1 >= 1.
        total = genus + 3
        box = [(e, f) for e in sorted_tuples(3, total, 1, total)
               for f in sorted_tuples(2, total, 1, total)]
        expected = [(e, f) for e, f in box
                    if not strata.CHECKS[4].violated(genus, e + f)]
        assert [(r.e.parts, r.f.parts)
                for r in enumerated(4, genus)] == expected
        assert expected == [(e, f) for e, f in box
                            if not reference_tet_check(genus, e, f)]

    # every genus up to 20 takes about 2 s on 2 vCPUs
    @pytest.mark.parametrize("genus", range(7, 21))
    def test_degree5(self, genus):
        # E1RANGE: 10 * e1 >= g + 4. TOPF: f5 <= 2 * e4. L1: f1 >= g + 4
        # - e4 - f3, and f3 <= f5 <= 2 * e4, so f1 >= g + 4 - 3 * e4.
        box = [(e, f)
               for e in sorted_tuples(4, genus + 4, (genus + 13) // 10,
                                      genus + 4)
               for f in sorted_tuples(5, 2 * genus + 8,
                                      genus + 4 - 3 * e[3], 2 * e[3])]
        expected = [(e, f) for e, f in box
                    if not strata.CHECKS[5].violated(genus, e + f)]
        assert [(r.e.parts, r.f.parts)
                for r in enumerated(5, genus)] == expected
        assert expected == [(e, f) for e, f in box
                            if not reference_pent_check(genus, e, f)]


def skip_bounds(g, e):
    """D1, D2 and D3 of `enumerate_strata`, on the 0-based parts of e."""
    return (4 * e[1] + e[2] >= g + 4, 3 * e[0] + 2 * e[3] >= g + 4,
            2 * e[0] + 3 * e[2] >= g + 4)


class TestPentagonalSkips:
    def test_every_enumerated_stratum_meets_the_bounds(self):
        for genus in range(7, strata.GENUS_MAX + 1):
            for r in enumerated(5, genus):
                assert all(skip_bounds(genus, r.e.parts)), (genus, r.e)

    @settings(max_examples=200, deadline=None)
    @given(genus=st.integers(7, 60), seed=st.integers(0, 2 ** 32))
    def test_admissible_pairs_meet_the_bounds(self, genus, seed):
        # past GENUS_MAX too: the bounds follow from L1..L7 and SUM_F
        e, f = random_admissible_pair(random.Random(seed), 5, genus)
        assert all(skip_bounds(genus, e.parts)), (genus, e, f)

    def test_each_skipped_e_admits_no_f(self, monkeypatch):
        tuples, generator = strata._weakly_increasing_tuples, strata._pentagonal_f
        e_calls, f_calls = [], []

        def recording_e(length, total, lo, hi):
            out = tuples(length, total, lo, hi)
            e_calls.append(out)
            return out

        def recording_f(total, lo, caps, bounds):
            out = generator(total, lo, caps, bounds)
            f_calls.append((bounds, out))
            return out

        monkeypatch.setattr(strata, "_weakly_increasing_tuples", recording_e)
        monkeypatch.setattr(strata, "_pentagonal_f", recording_f)
        every_e = called_e = empty = 0
        for genus in range(7, strata.GENUS_MAX + 1):
            e_calls.clear()
            f_calls.clear()
            strata.enumerate_strata(5, genus)
            # the e generator runs once, then the f generator per e
            es, = e_calls
            # each f call's L bounds g + 4 - e[k] name its e
            called = []
            for bounds, _ in f_calls:
                parts = {k: genus + 4 - c for (_, _, _, k), c
                         in zip(strata.PENT_LINEAR, bounds)}
                called.append(tuple(parts[k] for k in range(4)))
            assert called == [e for e in es if all(skip_bounds(genus, e))]
            for e in es:
                if e not in called:
                    # under TOPF's caps alone, without the derived ones
                    assert generator(*pentagonal_arguments(
                        genus, e, [2 * e[3]] * 5)) == [], (genus, e)
            every_e += len(es)
            called_e += len(called)
            empty += sum(not out for _, out in f_calls)
        assert (every_e, called_e, empty) == (237, 194, 21)


class TestStarUnion:
    def test_genus9_star2(self):
        records = strata.enumerate_strata(4, 9)
        result = strata.star_union_check(records, 2)
        assert result["expected_codim"] == 4 == 13 - 9
        members = {(tuple(m["e"]), tuple(m["f"])) for m in result["members"]}
        assert members == {((2, 4, 6), (4, 8)), ((2, 5, 5), (4, 8))}
        assert result["all_match"]

    def test_an_n_that_no_record_has(self):
        # the genus-9 records have e1 in 1..4; the expected codimension
        # still comes from their degree 12 and rank 3
        result = strata.star_union_check(strata.enumerate_strata(4, 9), 0)
        assert result == {"n": 0, "expected_codim": 10, "members": [],
                          "all_match": True}

    def test_no_records_raise(self):
        with pytest.raises(ValueError, match="empty enumeration"):
            strata.star_union_check([], 2)

    @pytest.mark.parametrize("n", [2.0, "2", None])
    def test_an_n_that_is_not_an_integer_raises(self, n):
        # 2.0 reported expected_codim 4.0
        with pytest.raises(TypeError):
            strata.star_union_check(strata.enumerate_strata(4, 9), n)


def least_fixpoint_coincidence(records):
    """holds for each record by iterating the single-locus rule from
    all-False until nothing changes; the rule is monotone in the values
    of the records below, so this is its least fixpoint."""
    surviving = [r for r in records if not r.lower_gonality]
    holds = {r.key(): False for r in records}

    def rule(rec, axis):
        own = getattr(rec, axis)
        expected = rec.expected_e if axis == "e" else rec.expected_f
        others = [r for r in surviving if r.key() != rec.key()]
        return (all(getattr(r, axis) != own for r in others)
                and rec.codim == expected
                and all(holds[r.key()] for r in others
                        if dom.dominates(getattr(r, axis), own)
                        == dom.LESS_EQUAL))

    changed = True
    while changed:
        changed = False
        for rec in records:
            value = rule(rec, "e") or rule(rec, "f")
            if value != holds[rec.key()]:
                holds[rec.key()] = value
                changed = True
    return holds


def coincidence_by_dominates(record, records):
    """single_locus_coincidence as a plain scan that compares every pair
    in the reference dominance order of tests/dominance.py."""
    surviving = [r for r in records if not r.lower_gonality]
    cache = {}

    def check(rec):
        key = rec.key()
        if key in cache:
            return cache[key]
        cache[key] = {"holds": False}
        result = {}
        for axis in ("e", "f"):
            own = getattr(rec, axis)
            expected = rec.expected_e if axis == "e" else rec.expected_f
            unique = not [r for r in surviving
                          if r.key() != key and getattr(r, axis) == own]
            lower = [r for r in surviving if r.key() != key
                     and dom.dominates(getattr(r, axis), own) == dom.LESS_EQUAL]
            below_ok = all(check(r)["holds"] for r in lower)
            codim_matches = rec.codim == expected
            result[axis] = {
                "unique": unique,
                "codim_matches_expected": codim_matches,
                "strata_below_handled": below_ok,
                "holds": unique and codim_matches and below_ok,
            }
        result["holds"] = result["e"]["holds"] or result["f"]["holds"]
        cache[key] = result
        return result

    return check(record)


def coincidence_from_fixpoint(record, records):
    """single_locus_coincidence's result read off
    least_fixpoint_coincidence: each axis compared in the reference
    dominance order with the surviving records of another key."""
    holds = least_fixpoint_coincidence(records)
    others = [r for r in records
              if not r.lower_gonality and r.key() != record.key()]
    result = {}
    for axis in ("e", "f"):
        own = getattr(record, axis)
        unique = all(getattr(r, axis) != own for r in others)
        codim_matches = record.codim == getattr(record, "expected_" + axis)
        below_ok = all(holds[r.key()] for r in others
                       if dom.dominates(getattr(r, axis), own) == dom.LESS_EQUAL)
        result[axis] = {
            "unique": unique,
            "codim_matches_expected": codim_matches,
            "strata_below_handled": below_ok,
            "holds": unique and codim_matches and below_ok,
        }
    result["holds"] = result["e"]["holds"] or result["f"]["holds"]
    return result


class TestSingleLocusCoincidence:
    def get(self, degree, genus, label):
        records = strata.enumerate_strata(degree, genus)
        rec = by_label(records)[label]
        return strata.single_locus_coincidence(rec, records)

    @pytest.mark.parametrize("degree,genus,label", [
        (4, 7, "Sigma2"), (4, 7, "Sigma3"), (4, 8, "Sigma3"),
        (5, 8, "Sigma2"), (5, 9, "Sigma2"), (5, 9, "Sigma3"),
    ])
    def test_holds(self, degree, genus, label):
        assert self.get(degree, genus, label)["holds"]

    @pytest.mark.parametrize("label", ["Sigma6", "Sigma7", "Sigma8"])
    def test_fails_genus9(self, label):
        assert not self.get(4, 9, label)["holds"]

    def test_fails_genus12_bielliptic_pair(self):
        records = strata.enumerate_strata(4, 12)
        rec = next(r for r in records
                   if (r.e.parts, r.f.parts) == ((2, 6, 7), (4, 11)))
        # neither expected codimension equals the pair codimension
        assert rec.expected_e != 4 and rec.expected_f != 4
        result = strata.single_locus_coincidence(rec, records)
        assert not result["holds"]
        assert not result["e"]["codim_matches_expected"]
        assert not result["f"]["codim_matches_expected"]

    def test_pair_order_cycles_across_axes(self):
        # (2,2,4),(4,4) lies strictly below Psi1 in e and strictly above
        # it in f, and both survive: a cycle across the two axes, which
        # the least fixpoint resolves without a search order
        records = strata.enumerate_strata(4, 5)
        low = next(r for r in records if r.key() == ((2, 2, 4), (4, 4)))
        psi1 = by_label(records)["Psi1"]
        assert psi1.key() == ((2, 3, 3), (3, 5))
        assert not low.lower_gonality and not psi1.lower_gonality
        assert dom.dominates(low.e, psi1.e) == dom.LESS_EQUAL
        assert dom.dominates(psi1.f, low.f) == dom.LESS_EQUAL

    def test_a_cross_axis_cycle_in_a_sub_list(self):
        # b lies below c in f and c below b in e. c passes, so the absent
        # target sees every stratum below it in f pass; a search down from
        # the target that reached c through b, with b's check still open,
        # would read c as failing
        records = enumerated(5, 18)
        a, b, c = (next(r for r in records if r.key() == key) for key in (
            ((3, 6, 6, 7), (6, 9, 9, 10, 10)),
            ((5, 5, 6, 6), (8, 8, 8, 9, 11)),
            ((4, 6, 6, 6), (8, 8, 8, 10, 10))))
        target = next(r for r in records
                      if r.key() == ((4, 6, 6, 6), (8, 9, 9, 9, 9)))
        assert dom.dominates(b.f, c.f) == dom.LESS_EQUAL
        assert dom.dominates(c.e, b.e) == dom.LESS_EQUAL
        chosen = [a, b, c]
        assert all(strata.single_locus_coincidence(r, chosen)["holds"]
                   for r in chosen)
        result = strata.single_locus_coincidence(target, chosen)
        assert result["f"]["strata_below_handled"]
        assert result == coincidence_from_fixpoint(target, chosen)

    @settings(max_examples=60, deadline=None)
    @given(window=st.sampled_from(STRATA_WINDOWS), data=st.data())
    def test_random_sub_lists_match_the_fixpoint(self, window, data):
        # an index drawn twice repeats a record, which counts once; the
        # target, drawn from the whole enumeration, may be absent
        records = enumerated(*window)
        index = st.integers(0, len(records) - 1)
        chosen = [records[i] for i in data.draw(st.lists(index, max_size=30))]
        target = records[data.draw(index)]
        assert (strata.single_locus_coincidence(target, chosen)
                == coincidence_from_fixpoint(target, chosen))

    @pytest.mark.parametrize("degree,genus", STRATA_WINDOWS)
    def test_equals_the_least_fixpoint(self, degree, genus):
        records = enumerated(degree, genus)
        holds = least_fixpoint_coincidence(records)
        for rec in records:
            assert (strata.single_locus_coincidence(rec, records)["holds"]
                    == holds[rec.key()])

    @pytest.mark.parametrize("degree,genus", STRATA_WINDOWS)
    def test_equals_a_scan_with_dominates(self, degree, genus):
        records = enumerated(degree, genus)
        for rec in records:
            assert (strata.single_locus_coincidence(rec, records)
                    == coincidence_by_dominates(rec, records))

    def test_incomparable_families_raise(self):
        records = strata.enumerate_strata(4, 6)
        with pytest.raises(ValueError):
            strata.single_locus_coincidence(records[0], records
                                            + strata.enumerate_strata(4, 7))
