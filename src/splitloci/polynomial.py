"""Exact multivariate polynomial arithmetic with rational coefficients.

A monomial is a tuple of (variable, exponent) pairs, sorted by variable,
with each variable once and every exponent positive; `Poly` brings the
monomials it is given into that form, so equal polynomials have equal
term dicts, and rejects a negative exponent. A coefficient is an `int`
when it is integral and a `Fraction` otherwise: every operation demotes
an integral result to `int`. The common all-integer case so runs on
plain int arithmetic, without the gcd that each Fraction operation
pays, and every computation stays exact.

A product of two polynomials of several terms each, and each exact
division, packs its operands' monomials into ints for that one call:
a monomial product is then one int addition, and graded order is int
order. Each distinct result monomial is unpacked once to the tuple form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

Monomial = Tuple[Tuple[str, int], ...]
Scalar = Union[int, Fraction]

ONE_MONO: Monomial = ()


def _normalize_mono(pairs: Iterable[Tuple[str, int]]) -> Monomial:
    merged: Dict[str, int] = {}
    for var, exp in pairs:
        if exp < 0:
            raise ValueError("negative exponent %d of %r" % (exp, var))
        if exp:
            merged[var] = merged.get(var, 0) + exp
    return tuple(sorted((v, e) for v, e in merged.items() if e))


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b, demoted to int when integral."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two canonical monomials, by merging the sorted pairs."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _pack(operands: Sequence[Mapping[Monomial, Scalar]],
          radices: Mapping[str, int], graded: bool = False):
    """The operands' terms keyed by packed monomials, for one operation.

    A monomial packs to a mixed-radix int with one digit per variable,
    the first variable in sorted order the most significant. radices
    maps each variable of the operands to a bound above every exponent
    it reaches in the operation, so packed monomials multiply by int
    addition with no carry between digits. With graded, the total degree
    is one more digit above the others, and each radix must also exceed
    every total degree reached, so that int order is graded order.
    Returns ([packed terms of each operand], digits, top), where digits
    lists (variable, place value) most significant first and top is the
    place value of the total-degree digit.
    """
    digits = []
    place = 1
    for var in sorted(radices, reverse=True):
        digits.append((var, place))
        place *= radices[var]
    digits.reverse()
    # graded: each exponent also counts once in the total-degree digit
    shift = place if graded else 0
    places = {var: p + shift for var, p in digits}
    packed = []
    for terms in operands:
        out = {}
        for mono, coeff in terms.items():
            key = 0
            for var, exp in mono:
                key += exp * places[var]
            out[key] = coeff
        packed.append(out)
    return packed, digits, place


def _unpacked(packed: Mapping[int, Scalar], digits: Sequence[Tuple[str, int]],
              top: int) -> Dict[Monomial, Scalar]:
    """Canonical, demoted terms of the nonzero packed terms, read with the
    digits `_pack` returned; a total-degree digit is dropped."""
    terms: Dict[Monomial, Scalar] = {}
    for key, coeff in packed.items():
        if not coeff:
            continue
        key %= top
        mono = []
        for var, place in digits:
            if key >= place:
                mono.append((var, key // place))
                key %= place
                if not key:
                    break
        terms[tuple(mono)] = (coeff if type(coeff) is int or coeff.denominator != 1
                              else coeff.numerator)
    return terms


def _mono_key(m: Monomial, varorder: Tuple[str, ...]) -> Tuple:
    exps = dict(m)
    total = sum(exps.values())
    return (total,) + tuple(exps.get(v, 0) for v in varorder)


def _demoted(terms: Dict[Monomial, Scalar]) -> Dict[Monomial, Scalar]:
    """terms without its zero coefficients, the integral ones as int."""
    return {m: c if type(c) is int or c.denominator != 1 else c.numerator
            for m, c in terms.items() if c}


def _wrap(terms: Dict[Monomial, Scalar]) -> "Poly":
    """A Poly around terms that are already canonical, nonzero and demoted."""
    out = Poly.__new__(Poly)
    out.terms = terms
    return out


class Poly:
    """Polynomial with int or Fraction coefficients over named variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: Dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = _normalize_mono(mono)
                clean[mono] = clean.get(mono, 0) + Fraction(coeff)
        self.terms = _demoted(clean)

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        return cls({ONE_MONO: value})

    @classmethod
    def var(cls, name: str, exp: int = 1, coeff: Scalar = 1) -> "Poly":
        return cls({((name, exp),): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set:
        out = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return out

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = terms.get(mono, 0) + coeff
            if not c:
                del terms[mono]
            elif type(c) is int or c.denominator != 1:
                terms[mono] = c
            else:
                terms[mono] = c.numerator
        return _wrap(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self.terms) < 2 or len(other.terms) < 2:
            # with one term on a side, packing costs more than the merges
            # it saves, and no two products share a monomial
            terms: Dict[Monomial, Scalar] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    terms[_mono_mul(m1, m2)] = c1 * c2
            return _wrap(_demoted(terms))
        radices: Dict[str, int] = {}
        for operand in (self.terms, other.terms):
            high: Dict[str, int] = {}
            for mono in operand:
                for var, exp in mono:
                    if exp > high.get(var, 0):
                        high[var] = exp
            for var, exp in high.items():
                radices[var] = radices.get(var, 1) + exp
        (left, right), digits, top = _pack((self.terms, other.terms), radices)
        acc: Dict[int, Scalar] = {}
        get = acc.get
        for k1, c1 in left.items():
            for k2, c2 in right.items():
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        return _wrap(_unpacked(acc, digits, top))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant hashes like the scalar it equals
        if self.terms.keys() <= {ONE_MONO}:
            return hash(self.terms.get(ONE_MONO, 0))
        return hash(frozenset(self.terms.items()))

    def substitute(self, mapping: Mapping[str, "Poly | Scalar"]) -> "Poly":
        """Replace variables simultaneously by polynomials or scalars."""
        subs = {v: (p if isinstance(p, Poly) else Poly.const(p))
                for v, p in mapping.items()}
        result = Poly()
        for mono, coeff in self.terms.items():
            term = Poly.const(coeff)
            for var, exp in mono:
                if var in subs:
                    term = term * subs[var] ** exp
                else:
                    term = term * Poly.var(var, exp)
            result = result + term
        return result

    def rewrite(self, rewrites: Iterable[Tuple[str, "Poly"]]) -> "Poly":
        """Apply substitutions one after another, in the given order."""
        out = self
        for var, expr in rewrites:
            out = out.substitute({var: expr})
        return out

    def evaluate(self, values: Mapping[str, Scalar]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            prod = coeff
            for var, exp in mono:
                if var not in values:
                    raise KeyError("no value for variable %r" % var)
                prod *= Fraction(values[var]) ** exp
            total += prod
        return total

    def weighted_degree(self, weights: Mapping[str, int] | None = None) -> int:
        """Largest weighted total degree among monomials (0 for the zero poly)."""
        best = 0
        for mono in self.terms:
            d = sum(exp * (weights[var] if weights else 1) for var, exp in mono)
            best = max(best, d)
        return best

    def homogeneous_parts(self, weights: Mapping[str, int] | None = None) -> Dict[int, "Poly"]:
        parts: Dict[int, Dict[Monomial, Scalar]] = {}
        for mono, coeff in self.terms.items():
            d = sum(exp * (weights[var] if weights else 1) for var, exp in mono)
            parts.setdefault(d, {})[mono] = coeff
        return {d: _wrap(t) for d, t in sorted(parts.items())}

    def is_homogeneous(self, weights: Mapping[str, int] | None = None) -> bool:
        return len(self.homogeneous_parts(weights)) <= 1

    def divide_exact(self, divisor: "Poly") -> "Poly":
        """Exact division; raises ValueError if the division leaves a remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly()
        # every monomial a remainder reaches has total degree at most
        # the dividend's, so that degree + 1 bounds each digit
        radix = self.weighted_degree() + 1
        if divisor.weighted_degree() >= radix:
            raise ValueError("inexact polynomial division")
        (remainder, div), digits, top = _pack(
            (self.terms, divisor.terms),
            dict.fromkeys(self.variables() | divisor.variables(), radix),
            graded=True)
        div_lead = max(div)
        div_lead_coeff = div.pop(div_lead)
        # the divisor lead's nonzero digits, as (place value, digit)
        lows = [(place, div_lead // place % radix) for _, place in digits
                if div_lead // place % radix]
        quotient: Dict[int, Scalar] = {}
        while remainder:
            lead = max(remainder)
            # lead - div_lead borrows, and the lead is not divisible,
            # iff a digit of the lead is below the divisor lead's
            for place, low in lows:
                if lead // place % radix < low:
                    raise ValueError("inexact polynomial division")
            mono = lead - div_lead
            coeff = quotient[mono] = _quotient(remainder.pop(lead), div_lead_coeff)
            # subtract coeff * mono * divisor; its lead term cancels exactly
            for m, c in div.items():
                prod = m + mono
                left = remainder.get(prod, 0) - c * coeff
                if left:
                    remainder[prod] = left
                else:
                    remainder.pop(prod, None)
        return _wrap(_unpacked(quotient, digits, top))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        varorder = tuple(sorted(self.variables()))
        monos = sorted(self.terms, key=lambda m: _mono_key(m, varorder), reverse=True)
        pieces = []
        for mono in monos:
            coeff = self.terms[mono]
            factors = ["%s^%d" % (v, e) if e > 1 else v for v, e in mono]
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self) -> str:
        return "Poly(%s)" % self
