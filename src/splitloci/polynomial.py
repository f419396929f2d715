"""Exact multivariate polynomial arithmetic with rational coefficients.

A monomial is a tuple of (variable, exponent) pairs, sorted by variable,
with each variable once and every exponent positive; `Poly` brings the
monomials it is given into that form, so equal polynomials have equal
term dicts, and rejects a negative exponent. A coefficient is an `int`
when it is integral and a `Fraction` otherwise: every operation demotes
an integral result to `int`. The common all-integer case so runs on
plain int arithmetic, without the gcd that each Fraction operation
pays, and every computation stays exact.

A `Packing` turns the monomials of a set of polynomials into ints, so
that a monomial product is one int addition and graded order is int
order, and it owns the one multiply-accumulate kernel and the one
exact-division kernel on packed polynomials. A product of two
polynomials of several terms each, and each exact division, packs its
operands for that one call; a determinant or Pfaffian packs its whole
matrix once and unpacks only the answer. Each distinct result monomial
is unpacked once to the tuple form.

Substitution and evaluation each make one pass over the term dict.
`substitute` splits each monomial once into the factors it keeps and
the ones it replaces, computes each power of a replacement once per
call, and accumulates the products into one dict that it demotes once;
`rewrite` applies its pairs one after another and skips a step whose
variable does not occur. `evaluate` multiplies int coefficients and int
values as plain ints, uses Fraction only where an operand already is
one, and converts the sum to a Fraction once. A scalar, whether a
coefficient, a value or a replacement, must be an `int` (a `bool` is
one) or a `Fraction`; any other scalar, such as a floating-point number
or a string, would not stay exact, and raises TypeError.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

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


def _require_exact(value) -> None:
    """Raise TypeError unless value is an int or a Fraction: any other
    scalar would not stay exact."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError("scalar %r is not an int or a Fraction" % (value,))


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


class Packing:
    """Monomials of a fixed set of polynomials packed into ints.

    A monomial packs to a mixed-radix int with one digit per variable of
    the polynomials, the first variable in sorted order the most
    significant, and its total degree as one more digit above them all,
    so int order is graded order and a monomial product is one int
    addition. Packed polynomials are dicts from int to coefficient, and
    every operation on them runs through the two kernels here, so a
    caller may pack its operands once, run many products and exact
    divisions, and unpack only the answer.

    The digits are exact while each total degree stays below the radix,
    since no exponent exceeds the total degree: `mul_add` raises
    RuntimeError on a product whose total-degree digit reaches it.
    """

    __slots__ = ("radix", "digits", "places", "top")

    def __init__(self, polys: Iterable["Poly"], radix: int):
        variables = set()
        for p in polys:
            for mono in p.terms:
                for var, _ in mono:
                    variables.add(var)
        self.radix = radix
        # (variable, place value), most significant first
        self.digits = []
        place = 1
        for var in sorted(variables, reverse=True):
            self.digits.append((var, place))
            place *= radix
        self.digits.reverse()
        self.top = place
        # each exponent also counts once in the total-degree digit
        self.places = {var: p + place for var, p in self.digits}

    def pack(self, p: "Poly") -> Dict[int, Scalar]:
        places = self.places
        out = {}
        for mono, coeff in p.terms.items():
            key = 0
            for var, exp in mono:
                key += exp * places[var]
            out[key] = coeff
        return out

    def unpack(self, packed: Mapping[int, Scalar]) -> "Poly":
        """The canonical, demoted Poly of the nonzero packed terms."""
        top = self.top
        terms: Dict[Monomial, Scalar] = {}
        for key, coeff in packed.items():
            if not coeff:
                continue
            key %= top
            mono = []
            for var, place in self.digits:
                if key >= place:
                    mono.append((var, key // place))
                    key %= place
                    if not key:
                        break
            terms[tuple(mono)] = (coeff if type(coeff) is int or coeff.denominator != 1
                                  else coeff.numerator)
        return _wrap(terms)

    def mul_add(self, acc: Dict[int, Scalar], a: Mapping[int, Scalar],
                b: Mapping[int, Scalar], sign: int = 1) -> None:
        """acc += sign * a * b, leaving any cancelled term as a zero."""
        if not a or not b:
            return
        if len(a) > len(b):
            a, b = b, a
        degree = (max(a) + max(b)) // self.top
        if degree >= self.radix:
            raise RuntimeError("packed product of total degree %d reaches "
                               "the radix %d" % (degree, self.radix))
        get = acc.get
        for k1, c1 in a.items():
            if sign < 0:
                c1 = -c1
            for k2, c2 in b.items():
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2

    def divide(self, dividend: Mapping[int, Scalar],
               divisor: Mapping[int, Scalar]) -> Dict[int, Scalar]:
        """The exact quotient, without zero terms; raises ValueError if
        the division leaves a remainder. Every monomial the remainder
        reaches has total degree at most the dividend's, so a radix
        above that degree keeps every digit exact."""
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        remainder = {k: c for k, c in dividend.items() if c}
        div_lead = max(divisor)
        div_lead_coeff = divisor[div_lead]
        rest = [(m, c) for m, c in divisor.items() if m != div_lead]
        radix = self.radix
        # the divisor lead's nonzero digits, as (place value, digit)
        lows = [(place, div_lead // place % radix) for _, place in self.digits
                if div_lead // place % radix]
        quotient: Dict[int, Scalar] = {}
        # the remainder's keys in increasing order, so each lead is the
        # last; a cancelled term stays as a zero until it is reached
        keys = sorted(remainder)
        while keys:
            lead = keys.pop()
            lead_coeff = remainder.pop(lead)
            if not lead_coeff:
                continue
            # lead - div_lead borrows, and the lead is not divisible,
            # iff a digit of the lead is below the divisor lead's
            for place, low in lows:
                if lead // place % radix < low:
                    raise ValueError("inexact polynomial division")
            mono = lead - div_lead
            coeff = quotient[mono] = _quotient(lead_coeff, div_lead_coeff)
            # subtract coeff * mono * divisor; its lead term cancels
            # exactly, and every other term lies below the lead
            for m, c in rest:
                prod = m + mono
                left = remainder.get(prod)
                if left is None:
                    remainder[prod] = -c * coeff
                    insort(keys, prod)
                else:
                    remainder[prod] = left - c * coeff
        return quotient


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
                if type(coeff) is not int and type(coeff) is not Fraction:
                    _require_exact(coeff)
                mono = _normalize_mono(mono)
                # an int sum stays int; _demoted demotes a Fraction one
                clean[mono] = clean.get(mono, 0) + coeff
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
        packing = Packing((self, other),
                          self.total_degree() + other.total_degree() + 1)
        acc: Dict[int, Scalar] = {}
        packing.mul_add(acc, packing.pack(self), packing.pack(other))
        return packing.unpack(acc)

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
        powers: Dict[Tuple[str, int], Dict[Monomial, Scalar]] = {}
        acc: Dict[Monomial, Scalar] = {}
        get = acc.get
        for mono, coeff in self.terms.items():
            kept = []
            replaced = []
            for factor in mono:
                (replaced if factor[0] in subs else kept).append(factor)
            if not replaced:
                acc[mono] = get(mono, 0) + coeff
                continue
            term = {tuple(kept): coeff}
            for var, exp in replaced:
                power = powers.get((var, exp))
                if power is None:
                    power = powers[var, exp] = (subs[var] ** exp).terms
                product: Dict[Monomial, Scalar] = {}
                for m1, c1 in term.items():
                    for m2, c2 in power.items():
                        m = _mono_mul(m1, m2)
                        product[m] = product.get(m, 0) + c1 * c2
                term = product
            for m, c in term.items():
                acc[m] = get(m, 0) + c
        return _wrap(_demoted(acc))

    def rewrite(self, rewrites: Iterable[Tuple[str, "Poly | Scalar"]]) -> "Poly":
        """Apply substitutions one after another, in the given order.
        A mapping raises TypeError: it has no order, and its keys are
        not pairs."""
        if isinstance(rewrites, Mapping):
            raise TypeError("rewrite takes a sequence of (variable, value) "
                            "pairs, not a mapping; substitute replaces "
                            "simultaneously")
        out = self
        for var, expr in rewrites:
            if not isinstance(expr, Poly):
                _require_exact(expr)
            if any(v == var for mono in out.terms for v, _ in mono):
                out = out.substitute({var: expr})
        return out

    def evaluate(self, values: Mapping[str, Scalar]) -> Fraction:
        """The value at the given point, as a Fraction; KeyError for a
        variable without a value."""
        total: Scalar = 0
        for mono, coeff in self.terms.items():
            prod = coeff
            for var, exp in mono:
                if var not in values:
                    raise KeyError("no value for variable %r" % var)
                value = values[var]
                if type(value) is not int:
                    _require_exact(value)
                prod *= value ** exp
            total += prod
        return Fraction(total)

    def total_degree(self) -> int:
        """Largest total degree among monomials (0 for the zero poly)."""
        best = 0
        for mono in self.terms:
            d = 0
            for _, exp in mono:
                d += exp
            if d > best:
                best = d
        return best

    def homogeneous_parts(self, weights: Mapping[str, int] | None = None) -> Dict[int, "Poly"]:
        parts: Dict[int, Dict[Monomial, Scalar]] = {}
        for mono, coeff in self.terms.items():
            d = sum(exp * (weights[var] if weights else 1) for var, exp in mono)
            parts.setdefault(d, {})[mono] = coeff
        return {d: _wrap(t) for d, t in sorted(parts.items())}

    def divide_exact(self, divisor: "Poly") -> "Poly":
        """Exact division; raises ValueError if the division leaves a remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly()
        # every monomial a remainder reaches has total degree at most
        # the dividend's, so that degree + 1 bounds each digit
        radix = self.total_degree() + 1
        if divisor.total_degree() >= radix:
            raise ValueError("inexact polynomial division")
        packing = Packing((self, divisor), radix)
        return packing.unpack(packing.divide(packing.pack(self),
                                             packing.pack(divisor)))

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
