"""Tests for the fraction-free elimination kernel against a plain
Fraction Gauss-Jordan reference kept here."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from splitloci import chowsym as cs
from splitloci.linalg import Echelon, integer_row


def reference_rref(rows):
    """Textbook Gauss-Jordan over Fractions: (rref rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def reference_null_vector(rows):
    rref, pivots = reference_rref(rows)
    free = [c for c in range(len(rows)) if c not in pivots]
    if not free:
        return None
    vec = [Fraction(0)] * len(rows)
    vec[free[0]] = Fraction(1)
    for row, c in zip(rref, pivots):
        vec[c] = -row[free[0]]
    return vec


# small rationals, zero a third of the time, so that zero rows, repeated
# rows and rank drops are common
entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
)


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if rows and draw(st.booleans()):
        # a dependent row: a rational combination of two drawn rows
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        a, b = draw(entries), draw(entries)
        rows[draw(st.integers(0, nrows - 1))] = [
            a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows


def inserted(rows):
    """The Echelon form of a dense matrix of ints and Fractions."""
    form = Echelon()
    for row in rows:
        form.insert(integer_row(dict(enumerate(row))))
    return form


def assert_matches_reference(form, rows):
    """The pivots and, scaled to pivot 1, the rows of the reference; each
    stored row primitive, in ints, positive at its pivot, its least
    column."""
    ref, ref_pivots = reference_rref(rows)
    assert sorted(form.rows) == ref_pivots
    assert len(form) == len(ref_pivots)
    for p, ref_row in zip(ref_pivots, ref):
        row = form.rows[p]
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1
        assert row[p] > 0 and min(row) == p
        assert {c: Fraction(x, row[p]) for c, x in row.items()} == {
            c: x for c, x in enumerate(ref_row) if x}


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_echelon_matches_fraction_gauss_jordan(rows):
    assert_matches_reference(inserted(rows), rows)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_echelon_does_not_depend_on_row_order(data):
    # the reduced form with primitive rows and positive pivots is unique,
    # so inserting the rows in any order gives the same rows
    rows = data.draw(matrices())
    shuffled = data.draw(st.permutations(rows))
    form = inserted(shuffled)
    assert form.rows == inserted(rows).rows
    assert_matches_reference(form, rows)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_null_vector_matches_reference(rows):
    vec = cs._null_vector(rows)
    assert vec == reference_null_vector(rows)
    if vec is not None:
        assert all(sum(Fraction(a) * b for a, b in zip(row, vec)) == 0
                   for row in rows)


def test_empty_and_degenerate_shapes():
    assert inserted([]).rows == {}
    assert inserted([[], []]).rows == {}
    assert inserted([[0, 0, 0], [0, 0, 0]]).rows == {}
    assert cs._null_vector([]) is None
    assert cs._null_vector([[0, 0], [0, 0]]) == [Fraction(1), Fraction(0)]


def test_rows_are_primitive_integers():
    # integer_row scales by the lcm of the denominators and drops zeros
    assert integer_row({0: Fraction(1, 2), 1: 0, 2: Fraction(-1, 3)}) == {0: 3, 2: -2}
    assert integer_row({}) == {}
    form = inserted([[Fraction(1, 2), Fraction(1, 3)], [Fraction(-2, 5), 4]])
    assert form.rows == {0: {0: 1}, 1: {1: 1}}
    form = inserted([[Fraction(-3, 4), Fraction(3, 2), 0]])
    assert form.rows == {0: {0: 1, 1: -2}}


def test_shifted_and_merged_forms():
    form = Echelon()
    form.insert({0: 2, 2: 4, 3: 1})
    form.insert({1: 3, 3: -3})
    # every column moves by 2, and only the row with pivot 1 moves
    moved = form.shifted(2, [1])
    assert moved.rows == {3: {3: 1, 5: -1}}
    # a shift to negative columns keeps the rows reduced: inserted afresh
    # they come back unchanged
    down = form.shifted(-3, [0, 1])
    assert down.rows == {-3: {-3: 2, -1: 4, 0: 1}, -2: {-2: 1, 0: -1}}
    fresh = Echelon()
    for row in down.rows.values():
        fresh.insert(row)
    assert fresh.rows == down.rows
    # merging into an empty form takes the rows as they are; into a
    # nonempty one inserts and back-reduces them
    target = Echelon()
    target.merge(moved)
    assert target.rows == moved.rows
    target.merge(Echelon())
    other = Echelon()
    other.insert({1: 1, 5: 1})
    target.merge(other)
    assert target.rows == {1: {1: 1, 5: 1}, 3: {3: 1, 5: -1}}
    other.insert({3: 2})
    target.merge(other)
    assert target.rows == {1: {1: 1}, 3: {3: 1}, 5: {5: 1}}
