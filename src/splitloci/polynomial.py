"""Exact multivariate polynomial arithmetic with rational coefficients.

Monomials are stored as sorted tuples of (variable, exponent) pairs and
coefficients as fractions, so every computation in the package stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

Monomial = Tuple[Tuple[str, int], ...]
Scalar = Union[int, Fraction]

ONE_MONO: Monomial = ()


def _normalize_mono(pairs: Iterable[Tuple[str, int]]) -> Monomial:
    merged: Dict[str, int] = {}
    for var, exp in pairs:
        if exp:
            merged[var] = merged.get(var, 0) + exp
    return tuple(sorted((v, e) for v, e in merged.items() if e))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    return _normalize_mono(list(a) + list(b))


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    # does a divide b
    exps = dict(b)
    return all(exps.get(v, 0) >= e for v, e in a)


def _mono_div(b: Monomial, a: Monomial) -> Monomial:
    exps = dict(b)
    for v, e in a:
        exps[v] = exps.get(v, 0) - e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _mono_key(m: Monomial, varorder: Tuple[str, ...]) -> Tuple:
    exps = dict(m)
    total = sum(exps.values())
    return (total,) + tuple(exps.get(v, 0) for v in varorder)


class Poly:
    """Polynomial with Fraction coefficients over named variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: Dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    clean[mono] = c
        self.terms = clean

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        return cls({ONE_MONO: Fraction(value)})

    @classmethod
    def var(cls, name: str, exp: int = 1, coeff: Scalar = 1) -> "Poly":
        return cls({((name, exp),): Fraction(coeff)})

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
            c = terms.get(mono, Fraction(0)) + coeff
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
        out = Poly.__new__(Poly)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        out = Poly.__new__(Poly)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

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
        terms: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                c = terms.get(mono, Fraction(0)) + c1 * c2
                if c:
                    terms[mono] = c
                else:
                    terms.pop(mono, None)
        out = Poly.__new__(Poly)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
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
        parts: Dict[int, Dict[Monomial, Fraction]] = {}
        for mono, coeff in self.terms.items():
            d = sum(exp * (weights[var] if weights else 1) for var, exp in mono)
            parts.setdefault(d, {})[mono] = coeff
        return {d: Poly(t) for d, t in sorted(parts.items())}

    def is_homogeneous(self, weights: Mapping[str, int] | None = None) -> bool:
        return len(self.homogeneous_parts(weights)) <= 1

    def divide_exact(self, divisor: "Poly") -> "Poly":
        """Exact division; raises ValueError if the division leaves a remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly()
        varorder = tuple(sorted(self.variables() | divisor.variables()))
        div_lead = max(divisor.terms, key=lambda m: _mono_key(m, varorder))
        div_lead_coeff = divisor.terms[div_lead]
        remainder = self
        quotient = Poly()
        while not remainder.is_zero():
            lead = max(remainder.terms, key=lambda m: _mono_key(m, varorder))
            if not _mono_divides(div_lead, lead):
                raise ValueError("inexact polynomial division")
            mono = _mono_div(lead, div_lead)
            coeff = remainder.terms[lead] / div_lead_coeff
            term = Poly({mono: coeff})
            quotient = quotient + term
            remainder = remainder - term * divisor
        return quotient

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
