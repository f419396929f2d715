"""Tests for the degree-4 and degree-5 pair-stratum enumeration."""

import dataclasses
import functools
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

from splitloci import chowsym as cs
from splitloci import splitbundle as sb
from splitloci import strata
from splitloci.polynomial import Poly
from splitloci.strata import E1, E2


def by_label(records):
    return {r.label: r for r in records if r.label}


def pairs(records):
    return {(r.e.parts, r.f.parts) for r in records}


def labeled_pairs(degree, genus):
    return {(e, f) for (d, g, e, f) in strata.FIXTURE_LABELS
            if d == degree and g == genus}


class TestConstraints:
    def test_tet_check_accepts_balanced(self):
        assert strata.tet_check(9, (4, 4, 4), (6, 6)).allowed

    def test_tet_check_rejects_printed_genus5_pair(self):
        verdict = strata.tet_check(5, (2, 2, 4), (3, 5))
        assert not verdict.allowed
        assert "Q12VAN" in verdict.violated

    def test_tet_check_degree_mismatch(self):
        verdict = strata.tet_check(9, (4, 4, 4), (6, 7))
        assert "TOTALDEG" in verdict.violated

    def test_tet_check_rank_guard(self):
        with pytest.raises(ValueError):
            strata.tet_check(9, (4, 4), (6, 6))

    def test_pent_check_accepts_balanced(self):
        assert strata.pent_check(9, (3, 3, 3, 4), (5, 5, 5, 5, 6)).allowed

    def test_pent_check_linear_conditions(self):
        # f1 + f3 + e4 too small trips L1
        verdict = strata.pent_check(9, (3, 3, 3, 4), (3, 5, 5, 5, 8))
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
            strata.tet_check(4, (2, 2, 3), (3, 4))
        with pytest.raises(ValueError):
            strata.pent_check(6, (2, 2, 3, 3), (4, 4, 4, 4, 4))

    def test_parts_that_are_not_integers_raise(self):
        # 4.9 + 4 + 4 = 12.9: a truncated 4.9 would pass as (4, 4, 4)
        with pytest.raises(TypeError):
            strata.tet_check(9, (4.9, 4, 4), (6, 6))
        with pytest.raises(TypeError):
            strata.pent_check(9, ("3", 3, 3, 4), (5, 5, 5, 5, 6))

    @pytest.mark.parametrize("genus", [9.0, "9", None])
    def test_a_genus_that_is_not_an_integer_raises(self, genus, monkeypatch):
        # a float genus would be compared and summed as a float, and
        # tet_check(9.0, (4, 4, 4), (6, 6)) allowed
        with pytest.raises(TypeError):
            strata.tet_check(genus, (4, 4, 4), (6, 6))
        with pytest.raises(TypeError):
            strata.pent_check(genus, (3, 3, 3, 4), (5, 5, 5, 5, 6))

        def unreachable(*args):
            raise AssertionError("enumerated with genus %r" % (genus,))

        # raised before any enumeration, not from inside range
        monkeypatch.setattr(strata, "_weakly_increasing_tuples", unreachable)
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
            strata.tet_check(True, (4, 4, 4), (6, 6))
        with pytest.raises(ValueError):
            strata.enumerate_strata(5, True)


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
        check = strata.tet_check if degree == 4 else strata.pent_check
        fired = set()
        cases = 0
        for g, e, f in window(degree, genera):
            violated = reference(g, e, f)
            verdict = check(g, e, f)
            assert verdict.violated == violated, (g, e, f)
            assert verdict.allowed == (not violated)
            fired.update(violated)
            cases += 1
        # every constraint fires somewhere in the window
        table = strata.TET_CONSTRAINTS if degree == 4 \
            else strata.PENT_CONSTRAINTS
        assert fired == set(table)
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
                    accepted += expected
            assert accepted, lemma_id

    def test_an_any_of_fails_only_when_all_its_atoms_fail(self):
        # f2 = 10 > e1 + e3 = 9 and f1 = 2 != 2 * e1 = 6
        assert strata.tet_check(9, (3, 3, 6), (2, 10)).violated == (
            "Q12VAN", "CONDITIONAL")
        # f2 = 10 > e1 + e3 = 7, but f1 = 2 = 2 * e1
        assert strata.tet_check(9, (1, 5, 6), (2, 10)).allowed

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
            flagged = any(f[0] == "hyperelliptic" for f in r.flags)
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
        data = json.loads(strata.strata_report_json(records))
        assert data["genus"] == 7
        assert data["cover_degree"] == 4
        assert len(data["strata"]) == 5
        assert {tuple(s["e"]) for s in data["strata"]} \
            == {e for e, _ in pairs(records)}

    def test_report_rejects_empty(self):
        with pytest.raises(ValueError):
            strata.strata_report([])


def pair_order(r1, r2):
    """Product of the dominance orders on the e and f coordinates."""
    ce = sb.dominates(r1.e, r2.e)
    cf = sb.dominates(r1.f, r2.f)
    if ce == sb.INCOMPARABLE or cf == sb.INCOMPARABLE:
        return sb.INCOMPARABLE
    if ce == sb.EQUAL:
        return cf
    if cf == sb.EQUAL:
        return ce
    return ce if ce == cf else sb.INCOMPARABLE


def reachability(records):
    n = len(records)
    below = [[pair_order(records[i], records[j]) == sb.LESS_EQUAL
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
    ids = [r.node_id() for r in records]
    return [(ids[i], ids[j]) for i in range(n) for j in range(n)
            if below[i][j]
            and not any(below[i][k] and below[k][j] for k in range(n))]


class TestHasse:
    @pytest.mark.parametrize("degree,genus",
                             [(4, 9), (5, 9), (4, 7), (5, 24), (4, 24)])
    def test_edges_are_transitive_reduction(self, degree, genus):
        records = strata.enumerate_strata(degree, genus)
        edges, _ = strata.hasse(records)
        ids = [r.node_id() for r in records]
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
        record = strata.enumerate_strata(5, 9)[0]
        other = dataclasses.replace(
            record, f=sb.SplittingType(record.f.parts[:4] + (record.f[4] + 1,)))
        with pytest.raises(ValueError, match="incomparable families"):
            strata.hasse([record, other])

    def test_empty_input(self):
        assert strata.hasse([]) == ([], "digraph strata {\n}")

    def test_single_record_has_no_edges(self):
        record = strata.enumerate_strata(5, 9)[0]
        edges, dot = strata.hasse([record])
        assert edges == []
        assert " -> " not in dot


def constructive_correction(g, degree, e, f):
    """The correction term as h1 of the bundle built part by part."""
    if degree == 4:
        return sb.h1(sb.tensor(sb.dual(f), sb.sym2(e)))
    return sb.h1(sb.twist(sb.tensor(e, sb.wedge2(f)), -(g + 4)))


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
            verdict = strata.tet_check(g, e, f)
        else:
            e1 = rng.randint(-(-(g + 4) // 10), (g + 4) // 4)
            e = (e1,) + random_sorted(rng, 3, g + 4 - e1, e1,
                                      (2 * g + 8) // 5)
            f = random_sorted(rng, 5, 2 * g + 8, 1, 2 * e[3])
            verdict = strata.pent_check(g, e, f)
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
    """Arguments for `_weakly_increasing_tuples`: a length, a sum, entry
    bounds and pair bounds (a, b, c) with a < b. With hi - lo up to 12,
    up to 7 pair bounds and c up to 2 * hi + 2, as wide as the
    `PENT_LINEAR` bounds bind, a slot's failing values come in runs that
    the generator jumps over by more than one value, or ends the slot
    at."""
    length = draw(st.integers(1, 5))
    lo = draw(st.integers(-2, 4))
    hi = draw(st.integers(lo - 1, lo + 12))
    total = draw(st.integers(length * (lo - 1), length * (hi + 1)))
    pairs = []
    for _ in range(draw(st.integers(0, 7 if length > 1 else 0))):
        a = draw(st.integers(0, length - 2))
        b = draw(st.integers(a + 1, length - 1))
        pairs.append((a, b, draw(st.integers(2 * lo - 2, 2 * hi + 2))))
    return length, total, lo, hi, pairs


class TestTupleGenerator:
    @settings(max_examples=300, deadline=None)
    @given(args=tuple_bounds())
    # slot 0 fails at 0 with the least completion falling by 1 a step,
    # and jumps to the first value that passes: by one value, by three
    @example(args=(3, 3, 0, 2, [(0, 1, 2)]))
    @example(args=(3, 9, 0, 5, [(0, 1, 6)]))
    # the last two slots: a pair bound between them asks total >= c, so
    # c = total yields tuples and c = total + 1 none
    @example(args=(2, 6, 0, 5, [(0, 1, 6)]))
    @example(args=(2, 6, 0, 5, [(0, 1, 7)]))
    # t[0] = 0 raises the last slot's floor to 8, which caps the
    # penultimate value at 9 - 8 = 1, below 9 // 2
    @example(args=(3, 9, 0, 9, [(0, 2, 8)]))
    def test_matches_a_filter_in_order(self, args):
        length, total, lo, hi, pairs = args
        expected = [t for t in combinations_with_replacement(
                        range(lo, hi + 1), length)
                    if sum(t) == total
                    and all(t[a] + t[b] >= c for a, b, c in pairs)]
        assert list(strata._weakly_increasing_tuples(*args)) == expected

    @pytest.mark.parametrize("genus", [7, 16, 24])
    def test_pentagonal_f_match_a_filter_in_order(self, genus):
        # every e of (5, genus), with the bounds enumerate_strata passes
        ftotal = 2 * genus + 8
        es = list(sorted_tuples(4, genus + 4, -(-(genus + 4) // 10),
                                ftotal // 5))
        assert list(strata._weakly_increasing_tuples(
            4, genus + 4, -(-(genus + 4) // 10), ftotal // 5)) == es
        for e in es:
            lo, hi = ftotal - 8 * e[3], 2 * e[3]
            linear = [(a, b, genus + 4 - e[k])
                      for _, a, b, k in strata.PENT_LINEAR]
            expected = [f for f in sorted_tuples(5, ftotal, lo, hi)
                        if all(f[a] + f[b] >= c for a, b, c in linear)]
            assert list(strata._weakly_increasing_tuples(
                5, ftotal, lo, hi, linear)) == expected


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
        record = strata._make_record(g, degree, e, f)
        assert record.correction == constructive_correction(g, degree, e, f)
        assert (record.correction == 0) == psi_inequality(g, degree, e, f)
        if g <= strata.GENUS_MAX:
            assert (e.parts, f.parts) in pairs(enumerated(degree, g))

    @pytest.mark.parametrize("degree,genus", [(4, 24), (5, 24)])
    def test_each_candidate_is_checked_once(self, degree, genus,
                                            monkeypatch):
        name = "tet_check" if degree == 4 else "pent_check"
        original = getattr(strata, name)
        calls = []

        def counted(g, e, f):
            calls.append((e.parts, f.parts))
            return original(g, e, f)

        monkeypatch.setattr(strata, name, counted)
        records = strata.enumerate_strata(degree, genus)
        assert len(calls) == len(set(calls))
        if degree == 5:
            # the f generator yields only admissible f
            assert calls == [(r.e.parts, r.f.parts) for r in records]


class TestStarUnion:
    def test_genus9_star2(self):
        records = strata.enumerate_strata(4, 9)
        result = strata.star_union_check(records, 2)
        assert result["expected_codim"] == 4 == 13 - 9
        members = {(tuple(m["e"]), tuple(m["f"])) for m in result["members"]}
        assert members == {((2, 4, 6), (4, 8)), ((2, 5, 5), (4, 8))}
        assert result["all_match"]


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
                        if sb.dominates(getattr(r, axis), own)
                        == sb.LESS_EQUAL))

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
    """single_locus_coincidence as a plain scan that calls
    splitbundle.dominates on every pair it compares."""
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
                     and sb.dominates(getattr(r, axis), own) == sb.LESS_EQUAL]
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
    least_fixpoint_coincidence: each axis compared by
    splitbundle.dominates with the surviving records of another key."""
    holds = least_fixpoint_coincidence(records)
    others = [r for r in records
              if not r.lower_gonality and r.key() != record.key()]
    result = {}
    for axis in ("e", "f"):
        own = getattr(record, axis)
        unique = all(getattr(r, axis) != own for r in others)
        codim_matches = record.codim == getattr(record, "expected_" + axis)
        below_ok = all(holds[r.key()] for r in others
                       if sb.dominates(getattr(r, axis), own) == sb.LESS_EQUAL)
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
        assert sb.dominates(low.e, psi1.e) == sb.LESS_EQUAL
        assert sb.dominates(psi1.f, low.f) == sb.LESS_EQUAL

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
        assert sb.dominates(b.f, c.f) == sb.LESS_EQUAL
        assert sb.dominates(c.e, b.e) == sb.LESS_EQUAL
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
