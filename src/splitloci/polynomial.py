"""Exact multivariate polynomial arithmetic with rational coefficients.

A monomial is a tuple of (variable, exponent) pairs, sorted by variable,
with each variable once and every exponent nonzero; `Poly` brings the
monomials it is given into that form, so equal polynomials have equal
term dicts. A coefficient is an `int` when it is integral and a
`Fraction` otherwise: every operation demotes an integral result to
`int`. The common all-integer case so runs on plain int arithmetic,
without the gcd that each Fraction operation pays, and every
computation stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

Monomial = Tuple[Tuple[str, int], ...]
Scalar = Union[int, Fraction]

ONE_MONO: Monomial = ()


def _normalize_mono(pairs: Iterable[Tuple[str, int]]) -> Monomial:
    merged: Dict[str, int] = {}
    for var, exp in pairs:
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
            if ea + eb:
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


def _mono_div(b: Monomial, a: Monomial) -> Optional[Monomial]:
    """b / a for canonical monomials, or None if a does not divide b."""
    exps = dict(b)
    for v, e in a:
        left = exps.get(v, 0) - e
        if left < 0:
            return None
        exps[v] = left
    return tuple((v, exps[v]) for v, _ in b if exps[v])


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
        terms: Dict[Monomial, Scalar] = {}
        get = terms.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                terms[mono] = get(mono, 0) + c1 * c2
        return _wrap(_demoted(terms))

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
        varorder = tuple(sorted(self.variables() | divisor.variables()))
        keys: Dict[Monomial, Tuple] = {}

        def key(m: Monomial) -> Tuple:
            k = keys.get(m)
            if k is None:
                k = keys[m] = _mono_key(m, varorder)
            return k

        div_lead = max(divisor.terms, key=key)
        div_lead_coeff = divisor.terms[div_lead]
        div_rest = [(m, c) for m, c in divisor.terms.items() if m != div_lead]
        remainder = dict(self.terms)
        quotient: Dict[Monomial, Scalar] = {}
        while remainder:
            lead = max(remainder, key=key)
            mono = _mono_div(lead, div_lead)
            if mono is None:
                raise ValueError("inexact polynomial division")
            coeff = _quotient(remainder.pop(lead), div_lead_coeff)
            quotient[mono] = coeff
            # subtract coeff * mono * divisor; its lead term cancels exactly
            for m, c in div_rest:
                prod = _mono_mul(m, mono)
                left = remainder.get(prod, 0) - c * coeff
                if left:
                    remainder[prod] = left
                else:
                    remainder.pop(prod, None)
        return _wrap(quotient)

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
