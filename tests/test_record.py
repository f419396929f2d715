"""The value classes of the package: `record.Record` and its frozen
variant, as the reports, verdicts and expression nodes use them."""

import pytest
from hypothesis import given, strategies as st

from splitloci import chowsym as cs
from splitloci import strata, tautring
from splitloci.cli import Node, OLeaf, Query
from splitloci.polynomial import Poly


def same_fields(value):
    """A second instance of value's class, built from its fields."""
    return type(value)(*(getattr(value, name) for name in value.__slots__))


FROZEN = [
    strata.ConstraintVerdict(False, ("NO0",)),
    OLeaf((1, -2)),
    Node("Twist", (OLeaf((0,)), 3)),
    Query("h0", OLeaf((1,))),
    cs.Piece(2, ("r1", "r2"), Poly.const(3)),
    cs.LEMMAS["distinctparts-3ii"],
]
FROZEN_IDS = [type(value).__name__ for value in FROZEN]


MUTABLE = [strata.enumerate_strata(4, 9)[0], tautring.quotient_report(9),
           cs.verify_lemma("twoequalparts")]
MUTABLE_IDS = [type(value).__name__ for value in MUTABLE]


class TestEquality:
    def test_same_type_and_fields(self):
        assert Query("h0", OLeaf((1,))) == Query("h0", OLeaf((1,)))
        assert Query("h0", OLeaf((1,))) != Query("h1", OLeaf((1,)))
        assert Query("h0", OLeaf((1,))) != Query("h0", OLeaf((1, 0)))

    def test_another_type_with_the_same_values_differs(self):
        query = Query("h0", OLeaf((1,)))
        assert query != Node("h0", OLeaf((1,)))
        assert query != ("h0", OLeaf((1,)))
        assert OLeaf((1,)) != (1,) and OLeaf((1,)) != ((1,),)

    @pytest.mark.parametrize("value", FROZEN + MUTABLE,
                             ids=FROZEN_IDS + MUTABLE_IDS)
    def test_a_copy_of_the_fields_is_equal(self, value):
        assert same_fields(value) == value

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
           st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    def test_leaves_equal_and_hash_by_parts(self, a, b):
        x, y = OLeaf(tuple(a)), OLeaf(tuple(b))
        assert (x == y) == (a == b)
        if x == y:
            assert hash(x) == hash(y)

    def test_repr_names_each_field(self):
        assert repr(Node("Dual", (OLeaf((2,)),))) == \
            "Node(op='Dual', args=(OLeaf(parts=(2,)),))"


class TestFrozen:
    @pytest.mark.parametrize("value", FROZEN, ids=FROZEN_IDS)
    def test_rejects_assignment_and_deletion(self, value):
        name = value.__slots__[0]
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.other = 1
        assert getattr(value, name) is before

    @pytest.mark.parametrize("value", FROZEN, ids=FROZEN_IDS)
    def test_hash_agrees_with_equality(self, value):
        assert hash(same_fields(value)) == hash(value)
        assert len({value, same_fields(value)}) == 1


class TestMutable:
    @pytest.mark.parametrize("value", MUTABLE, ids=MUTABLE_IDS)
    def test_unhashable(self, value):
        with pytest.raises(TypeError):
            hash(value)

    def test_assignment(self):
        record = strata.enumerate_strata(4, 9)[0]
        record.label = "X"
        assert record.label == "X"
        assert record != strata.enumerate_strata(4, 9)[0]


class TestConstructors:
    def test_defaults(self):
        record = strata.StratumRecord(9, 4, *MUTABLE[0].key(), 2, 1, 1, 0,
                                      True, ())
        assert record.label is None and record.lower_gonality is False
        spec = cs.LemmaSpec("x", 4, (), (), None, (), ())
        assert (spec.annotations, spec.reconstructed_rows,
                spec.engineered_zero) == ((), None, None)

    def test_keywords_and_positions_agree(self):
        assert Query(func="h0", expr=OLeaf((1,))) == \
            Query("h0", OLeaf((1,)))
        assert Node("Sum", args=(1, 2)) == Node("Sum", (1, 2))

    def test_list_defaults_are_not_shared(self):
        a = cs.LemmaReport("a", [], [], "0", None, "ok", [])
        b = cs.LemmaReport("b", [], [], "0", None, "ok", [])
        a.annotations.append("note")
        assert b.annotations == []
        assert cs.LemmaReport.DEFAULTS["annotations"] == []
        fields = [7, None, [1], [0], [1], [0], [1], True, True, None, 0, {},
                  True]
        c, d = (tautring.QuotientReport(*fields) for _ in range(2))
        c.notes.append("note")
        assert d.notes == [] and c.notes is not d.notes

    @pytest.mark.parametrize("make", [
        lambda: OLeaf(),
        lambda: OLeaf((1,), (2,)),
        lambda: OLeaf(parts=(1,), other=2),
        lambda: OLeaf((1,), parts=(1,)),
        lambda: Query("h0"),
        lambda: strata.ConstraintVerdict(True),
        lambda: strata.StratumRecord(9, 4),
        lambda: strata.StratumRecord(*range(13)),
        lambda: strata.StratumRecord(*range(10), extra=1),
        lambda: cs.LemmaSpec("x", 4, (), (), None, ()),
        lambda: cs.LemmaReport("a", [], [], "0", None, "ok"),
        lambda: cs.LemmaReport("a", [], [], "0", None, "ok", [], [], None,
                               1),
    ], ids=["leaf-none", "leaf-two", "leaf-unknown-keyword",
            "leaf-repeated", "query-one", "verdict-one", "record-two",
            "record-thirteen", "record-extra-keyword", "spec-six",
            "report-six", "report-ten"])
    def test_missing_or_extra_arguments(self, make):
        with pytest.raises(TypeError):
            make()

    def test_piece_checks_its_classes(self):
        assert cs.Piece(1, ("l",), Poly.const(0)).rank == 1
        with pytest.raises(ValueError, match="need codimensions"):
            cs.Piece(1, ("r2",), Poly.const(0))
        with pytest.raises(ValueError, match="need codimensions"):
            cs.Piece(rank=2, classes=("r2", "r1"), twist=Poly.const(0))
