"""Multivariate polynomials with exact coefficients.

Terms are stored as a dict from exponent tuples to ExactComplex
coefficients:

    {(1, 1, 0): 1, (0, 0, 0): i/2}   means   x1*x2 + (1/2)i

Zero coefficients are never stored, so two polynomials are equal iff
their term dicts are equal.  Serialization and printing order terms
graded-lexicographically (total degree first, then exponents), highest
first, which keeps every output deterministic.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .scalars import (ExactComplex, ONE, ZERO, _lowest_terms, _make, _numerators, format_scalar,
                      scalar_is_negative_leading)

MultiIndex = tuple[int, ...]


def _grlex_key(exps: MultiIndex):
    return (sum(exps), exps)


class Polynomial:
    """Exact polynomial in n variables x1..xn."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[MultiIndex, ExactComplex] | None = None):
        if n < 1:
            raise ValueError("dimension must be positive")
        clean: dict[MultiIndex, ExactComplex] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != n or any(e < 0 for e in exps):
                    raise ValueError(f"bad multi-index {exps} for dimension {n}")
                coeff = ExactComplex.coerce(coeff)
                if coeff:
                    prev = clean.get(exps)
                    total = coeff if prev is None else prev + coeff
                    if total:
                        clean[exps] = total
                    elif exps in clean:
                        del clean[exps]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _trusted(n: int, terms: dict[MultiIndex, ExactComplex]) -> "Polynomial":
        """Wrap terms that are already canonical (length-n keys, no zero
        coefficients) without the checks of __init__."""
        p = Polynomial.__new__(Polynomial)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "terms", terms)
        return p

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n)

    @staticmethod
    def constant(c, n: int) -> "Polynomial":
        c = ExactComplex.coerce(c)
        return Polynomial(n, {(0,) * n: c} if c else {})

    @staticmethod
    def coordinate(k: int, n: int) -> "Polynomial":
        """The coordinate function x_k (1-based)."""
        if not 1 <= k <= n:
            raise ValueError(f"coordinate index {k} out of range 1..{n}")
        exps = tuple(1 if i == k - 1 else 0 for i in range(n))
        return Polynomial(n, {exps: ONE})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self) -> list[tuple[MultiIndex, ExactComplex]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, ExactComplex)):
            other = Polynomial.constant(other, self.n)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None  # mutable-dict backed; not hashable

    # -- arithmetic --------------------------------------------------------

    def _coerce_operand(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError("dimension mismatch")
            return other
        return Polynomial.constant(other, self.n)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce_operand(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            cur = out.get(exps)
            total = coeff if cur is None else cur + coeff
            if total:
                out[exps] = total
            elif exps in out:
                del out[exps]
        return Polynomial._trusted(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce_operand(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, ExactComplex)):
            c = ExactComplex.coerce(other)
            if not c:
                return Polynomial.zero(self.n)
            return Polynomial._trusted(self.n, {e: v * c for e, v in self.terms.items()})
        other = self._coerce_operand(other)
        return Polynomial._trusted(self.n, _product(self.terms, other.terms, self.n))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        if k == 0:
            return Polynomial.constant(1, self.n)
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        out = base  # the lowest set bit: no product with the unit
        while k := k >> 1:
            base = base * base
            if k & 1:
                out = out * base
        return out

    # -- calculus ----------------------------------------------------------

    def diff(self, axis: int) -> "Polynomial":
        """Exact partial derivative with respect to x_axis (1-based)."""
        if not 1 <= axis <= self.n:
            raise ValueError(f"axis {axis} out of range 1..{self.n}")
        j = axis - 1
        out: dict[MultiIndex, ExactComplex] = {}
        for exps, coeff in self.terms.items():
            e = exps[j]
            if e == 0:
                continue
            new = exps[:j] + (e - 1,) + exps[j + 1:]
            out[new] = coeff * e
        return Polynomial._trusted(self.n, out)

    def conjugate(self) -> "Polynomial":
        """Complex conjugate (coefficient-wise; the variables are real)."""
        return Polynomial._trusted(self.n, {e: c.conjugate() for e, c in self.terms.items()})

    # -- evaluation --------------------------------------------------------

    def eval_exact(self, point: Sequence[int | Fraction]) -> ExactComplex:
        """Exact value at a point with rational (int or Fraction) coordinates.

        The coordinates are put over one common denominator D, so a
        monomial of degree e is a product of the coordinates' numerators
        over D**e; scaled by D**(deg - e), deg the total degree, every
        monomial is an integer over D**deg.  With the coefficients over
        their common denominator, the value is four integer sums, and one
        scalar is built.
        """
        if len(point) != self.n:
            raise ValueError("point dimension mismatch")
        if not self.terms:
            return ZERO
        D = math.lcm(*[v.denominator for v in point])
        deg = self.degree()
        # per axis, the powers of its numerator up to the axis's top exponent
        tables = [_powers(v.numerator * (D // v.denominator), top)
                  for v, top in zip(point, map(max, zip(*self.terms)))]
        scales = _powers(D, deg)
        den, rows = _numerators(self.terms.values())
        re = im = r2re = r2im = 0
        for exps, (a, b, c, d) in zip(self.terms, rows):
            mono = math.prod(map(list.__getitem__, tables, exps), start=scales[deg - sum(exps)])
            re += a * mono
            im += b * mono
            r2re += c * mono
            r2im += d * mono
        return _make(re, im, r2re, r2im, den * scales[deg])

    def max_coeff_magnitude(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(c) for c in self.terms.values())

    # -- printing / serialization ------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for idx, (exps, coeff) in enumerate(self.sorted_terms()):
            neg = scalar_is_negative_leading(coeff)
            mag = -coeff if neg else coeff
            body = _term_str(exps, mag)
            if idx == 0:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f" - {body}" if neg else f" + {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"<Polynomial n={self.n} {self}>"

    def to_json_terms(self) -> list[dict]:
        out = []
        for exps, c in self.sorted_terms():
            re_num, re_den, im_num, im_den, rt2_re_num, rt2_re_den, rt2_im_num, rt2_im_den = \
                _lowest_terms(c)
            rec = {
                "exponents": list(exps),
                "re_num": re_num, "re_den": re_den,
                "im_num": im_num, "im_den": im_den,
            }
            if rt2_re_num or rt2_im_num:
                rec["rt2_re_num"] = rt2_re_num
                rec["rt2_re_den"] = rt2_re_den
                rec["rt2_im_num"] = rt2_im_num
                rec["rt2_im_den"] = rt2_im_den
            out.append(rec)
        return out

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "terms": self.to_json_terms()})

    @staticmethod
    def from_json_terms(n: int, records: Iterable[Mapping]) -> "Polynomial":
        terms: dict[MultiIndex, ExactComplex] = {}
        for rec in records:
            exps = tuple(rec["exponents"])
            c = ExactComplex(
                Fraction(rec["re_num"], rec["re_den"]),
                Fraction(rec["im_num"], rec["im_den"]),
                Fraction(rec.get("rt2_re_num", 0), rec.get("rt2_re_den", 1)),
                Fraction(rec.get("rt2_im_num", 0), rec.get("rt2_im_den", 1)),
            )
            terms[exps] = c
        return Polynomial(n, terms)

    @staticmethod
    def from_json(text: str) -> "Polynomial":
        data = json.loads(text)
        return Polynomial.from_json_terms(data["n"], data["terms"])


def _product(a: Mapping[MultiIndex, ExactComplex], b: Mapping[MultiIndex, ExactComplex],
             n: int) -> dict[MultiIndex, ExactComplex]:
    """Term dict of the product of two term dicts in n variables.

    Exponent tuples are packed into one int each (Kronecker substitution)
    with w bits per axis, where w is the bit width of the product's total
    degree; no exponent of the product needs more, so multiplying two
    monomials is one int add that never carries between axes.  Each
    operand's coefficients are taken over that operand's common
    denominator, so the products accumulate as integer numerators over one
    denominator, and a scalar is built once per nonzero output term.  Keys
    are unpacked once, at the end.
    """
    if not a or not b:
        return {}
    width = (max(map(sum, a)) + max(map(sum, b))).bit_length()
    shifts = [width * i for i in range(n)]
    den_a, rows_a = _numerators(a.values())
    den_b, rows_b = _numerators(b.values())
    packed_b = [(sum(map(operator.lshift, e, shifts)), row) for e, row in zip(b, rows_b)]
    acc: dict[int, list[int]] = {}
    get = acc.get
    for e1, (a1, b1, c1, d1) in zip(a, rows_a):
        k1 = sum(map(operator.lshift, e1, shifts))
        for k2, (a2, b2, c2, d2) in packed_b:
            # (u1 + rt2*v1)(u2 + rt2*v2) = (u1*u2 + 2*v1*v2) + rt2*(u1*v2 + v1*u2)
            re = a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2)
            im = a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2)
            r2re = a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2
            r2im = a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
            cur = get(k1 + k2)
            if cur is None:
                acc[k1 + k2] = [re, im, r2re, r2im]
            else:
                cur[0] += re
                cur[1] += im
                cur[2] += r2re
                cur[3] += r2im
    den = den_a * den_b
    mask = (1 << width) - 1
    return {tuple([(key >> s) & mask for s in shifts]): _make(re, im, r2re, r2im, den)
            for key, (re, im, r2re, r2im) in acc.items() if re or im or r2re or r2im}


def _powers(base: int, top: int) -> list[int]:
    """[base**0, base**1, ..., base**top]."""
    return list(itertools.accumulate(itertools.repeat(base, top), operator.mul, initial=1))


def _monomial_str(exps: MultiIndex) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def _term_str(exps: MultiIndex, coeff: ExactComplex) -> str:
    mono = _monomial_str(exps)
    if not mono:
        s = format_scalar(coeff)
        # standalone fraction-valued imaginary coefficient prints as (p/q)i
        return s
    if coeff == ONE:
        return mono
    s = format_scalar(coeff)
    if coeff.is_rational_complex() and not coeff.im and coeff.re.denominator == 1:
        return f"{s}*{mono}"
    if coeff.is_rational_complex() and not coeff.re and coeff.im.denominator == 1:
        return f"{s}*{mono}"  # e.g. 2i*x1, i*x1
    return f"({s})*{mono}"


def x(k: int, n: int) -> Polynomial:
    """Shorthand for the coordinate polynomial x_k in dimension n."""
    return Polynomial.coordinate(k, n)
