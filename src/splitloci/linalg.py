"""Exact row reduction of rational matrices, carried out in integers.

`Echelon` is the package's one elimination kernel: a reduced row echelon
form kept sparse and fraction-free, grown one row at a time. A row is a
{column: int} dict holding only its nonzero entries. Every stored row is
primitive (the gcd of its entries is 1), has a positive entry at its
pivot, its least column, and is zero at every other stored pivot. That
form is unique for a given row space, so the stored rows do not depend
on the order the rows were inserted in.

Inserting a row touches only the entries that are there:
1. it is reduced only at the pivot columns it holds, in one step:
   s * row - sum_k (s * f_k / p_k) * pivot_row_k, where f_k is its entry
   at pivot column c_k, p_k that pivot, and s the least scale that makes
   every quotient an integer (Bareiss 1968: no fraction is ever formed);
2. if anything is left, it is divided by its content and signed so that
   the entry at its least column, the new pivot, is positive;
3. only the stored rows that hold that column are back-reduced by it.

With `shifted` and `merge`, `tautring` carries the rows of lower
degrees to the columns of the next, all moved by one constant (its
columns are monomial keys, and multiplying by a variable adds a
constant to every key), and folds them into its form. A rational row
goes in through `integer_row`: the generators of `tautring` and the
rows of the null vector of `chowsym` do. The socle and pairing ranks of
`tautring` insert integer rows that they scale themselves, each over
the lcm of its pivots.
"""

from __future__ import annotations

from math import gcd, lcm
from numbers import Rational
from typing import Dict, Iterable, Mapping

Row = Dict[int, int]


def integer_row(values: Mapping[int, Rational]) -> Row:
    """The nonzero entries of a rational row, scaled by the lcm of their
    denominators."""
    scale = lcm(*(x.denominator for x in values.values()))
    return {c: x.numerator * (scale // x.denominator)
            for c, x in values.items() if x}


def _primitive(row: Row) -> Row:
    content = gcd(*row.values())
    return {c: x // content for c, x in row.items()} if content > 1 else row


def _subtract(row: Row, m: int, other: Row) -> None:
    """row -= m * other, in place, dropping the entries that cancel."""
    for c, y in other.items():
        x = row.get(c, 0) - m * y
        if x:
            row[c] = x
        else:
            del row[c]


class Echelon:
    """The sparse reduced row echelon form of the rows inserted so far.

    `rows` maps each pivot column to its row; the rank is len(self). The
    reduced-row-echelon entry (k, c) of the row with pivot k is
    Fraction(rows[k].get(c, 0), rows[k][k]).
    """

    def __init__(self) -> None:
        self.rows: Dict[int, Row] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def insert(self, row: Row) -> None:
        """Add an integer row, its zero entries left out."""
        rows = self.rows
        held = [(c, f) for c, f in row.items() if c in rows]
        if held:
            scale = lcm(*(rows[c][c] // gcd(rows[c][c], f) for c, f in held))
            out = {c: scale * x for c, x in row.items()}
            for c, f in held:
                _subtract(out, scale * f // rows[c][c], rows[c])
            row = out
        if not row:
            return
        pivot = min(row)
        row = _primitive(row)
        if row[pivot] < 0:
            row = {c: -x for c, x in row.items()}
        p = row[pivot]
        for k, other in rows.items():
            f = other.get(pivot)
            if f:
                g = gcd(p, f)
                a, b = p // g, f // g
                reduced = {c: a * x for c, x in other.items()}
                _subtract(reduced, b, row)
                rows[k] = _primitive(reduced)
        rows[pivot] = row

    def merge(self, other: "Echelon") -> None:
        """Insert every row of another form; an empty form takes them as
        they are, since they are reduced already."""
        if self.rows:
            for row in other.rows.values():
                self.insert(row)
        else:
            self.rows = dict(other.rows)

    def shifted(self, offset: int, pivots: Iterable[int]) -> "Echelon":
        """The rows with the given pivots, every column c moved to
        c + offset. A constant shift keeps the order of the columns, so
        each pivot stays its row's least column and the rows stay
        reduced."""
        form = Echelon()
        form.rows = {p + offset: {c + offset: x for c, x in self.rows[p].items()}
                     for p in pivots}
        return form

