"""Exact scalar arithmetic for the engine: complex numbers with rational
parts, extended by sqrt(2).

A scalar denotes

    (re + im*i) + sqrt(2)*(rt2_re + rt2_im*i)

with four rational parts.  This is the field Q(i, sqrt(2)).  Plain
rational-complex values keep the rt2 parts at zero; the sqrt(2) parts
only appear once the complex coordinates (x_k + i*x_l)/sqrt(2) enter a
computation.  Every operation is exact, so identity checks are
unambiguous equality tests.

The four parts are stored as integer numerators over one common
denominator, in the tuple ``_q = (a, b, c, d, den)`` with den > 0 and
gcd(a, b, c, d, den) = 1: re = a/den, im = b/den, rt2_re = c/den and
rt2_im = d/den.  That form is canonical, so equality compares the five
integers, and arithmetic works on integers with one gcd per result
instead of one per rational part.  The properties ``re``, ``im``,
``rt2_re`` and ``rt2_im`` return the parts as ``Fraction``s.
"""

from __future__ import annotations

import math
from fractions import Fraction

_SQRT2 = math.sqrt(2.0)

RationalLike = int | Fraction


def _frac(v: RationalLike) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class ExactComplex:
    """Element of Q(i, sqrt(2)), immutable."""

    __slots__ = ("_q",)

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0,
                 rt2_re: RationalLike = 0, rt2_im: RationalLike = 0):
        parts = [_frac(re), _frac(im), _frac(rt2_re), _frac(rt2_im)]
        # over the lcm of reduced denominators the five ints are coprime
        den = math.lcm(*(p.denominator for p in parts))
        _set_q(self, tuple(p.numerator * (den // p.denominator) for p in parts) + (den,))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._q[0], self._q[4])

    @property
    def im(self) -> Fraction:
        return Fraction(self._q[1], self._q[4])

    @property
    def rt2_re(self) -> Fraction:
        return Fraction(self._q[2], self._q[4])

    @property
    def rt2_im(self) -> Fraction:
        return Fraction(self._q[3], self._q[4])

    @staticmethod
    def coerce(v) -> "ExactComplex":
        if isinstance(v, ExactComplex):
            return v
        if isinstance(v, (int, Fraction)):
            return ExactComplex(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to ExactComplex")

    def __bool__(self) -> bool:
        a, b, c, d, _ = self._q
        return bool(a or b or c or d)

    def is_rational_complex(self) -> bool:
        return not (self._q[2] or self._q[3])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return self._q == other._q

    def __hash__(self):
        return hash(self._q)

    def __add__(self, other) -> "ExactComplex":
        if not isinstance(other, ExactComplex):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented  # let the other operand's reflected method try
            other = ExactComplex(other)
        a1, b1, c1, d1, e1 = self._q
        a2, b2, c2, d2, e2 = other._q
        if e1 == e2:
            return _make(a1 + a2, b1 + b2, c1 + c2, d1 + d2, e1)
        g = math.gcd(e1, e2)
        s1, s2 = e2 // g, e1 // g
        return _make(a1 * s1 + a2 * s2, b1 * s1 + b2 * s2,
                     c1 * s1 + c2 * s2, d1 * s1 + d2 * s2, e1 * s1)

    __radd__ = __add__

    def __neg__(self) -> "ExactComplex":
        a, b, c, d, den = self._q
        return _make(-a, -b, -c, -d, den)

    def __sub__(self, other) -> "ExactComplex":
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        return self + (-ExactComplex.coerce(other))

    def __rsub__(self, other) -> "ExactComplex":
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        return ExactComplex.coerce(other) + (-self)

    def __mul__(self, other) -> "ExactComplex":
        a1, b1, c1, d1, e1 = self._q
        if isinstance(other, ExactComplex):
            a2, b2, c2, d2, e2 = other._q
        elif isinstance(other, int):
            return _make(a1 * other, b1 * other, c1 * other, d1 * other, e1)
        elif isinstance(other, Fraction):
            a2, b2, c2, d2, e2 = ExactComplex(other)._q
        else:
            return NotImplemented
        # (u1 + rt2*v1)(u2 + rt2*v2) = (u1*u2 + 2*v1*v2) + rt2*(u1*v2 + v1*u2)
        if not (c1 or d1 or c2 or d2):  # plain complex rationals: the common case
            return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 0, 0, e1 * e2)
        return _make(a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
                     a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
                     a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
                     a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
                     e1 * e2)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ExactComplex":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        if k == 0:
            return ONE
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

    def conjugate(self) -> "ExactComplex":
        a, b, c, d, den = self._q
        return _make(a, -b, c, -d, den)

    def to_complex(self) -> complex:
        a, b, c, d, den = self._q
        return complex(a / den + _SQRT2 * (c / den), b / den + _SQRT2 * (d / den))

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"ExactComplex({self.re!r}, {self.im!r}, {self.rt2_re!r}, {self.rt2_im!r})"


_set_q = ExactComplex._q.__set__
_new = object.__new__


def _make(a: int, b: int, c: int, d: int, den: int) -> ExactComplex:
    """The scalar (a + b*i + sqrt(2)*(c + d*i)) / den, for den > 0."""
    g = math.gcd(a, b, c, d, den)
    if g != 1:
        a //= g
        b //= g
        c //= g
        d //= g
        den //= g
    z = _new(ExactComplex)
    _set_q(z, (a, b, c, d, den))
    return z


def _numerators(values) -> tuple[int, list[tuple[int, int, int, int]]]:
    """(den, rows): den is the least common denominator of the scalars
    `values`, and each row holds one scalar's numerators (a, b, c, d) over
    den, as ``_make`` takes them."""
    qs = [v._q for v in values]
    den = math.lcm(*[q[4] for q in qs])
    rows = []
    for a, b, c, d, e in qs:
        if e != den:
            f = den // e
            a, b, c, d = a * f, b * f, c * f, d * f
        rows.append((a, b, c, d))
    return den, rows


def _lowest_terms(v: ExactComplex) -> tuple[int, int, int, int, int, int, int, int]:
    """The numerator and denominator of re, im, rt2_re and rt2_im, each
    in lowest terms as its ``Fraction`` has it, without building the
    ``Fraction``s."""
    a, b, c, d, den = v._q
    ga, gb, gc, gd = math.gcd(a, den), math.gcd(b, den), math.gcd(c, den), math.gcd(d, den)
    return a // ga, den // ga, b // gb, den // gb, c // gc, den // gc, d // gd, den // gd


ZERO = ExactComplex(0)
ONE = ExactComplex(1)
I = ExactComplex(0, 1)
SQRT2 = ExactComplex(0, 0, 1)
HALF_SQRT2 = ExactComplex(0, 0, Fraction(1, 2))  # 1/sqrt(2)


def _complex_part_str(re: Fraction, im: Fraction) -> str:
    """Render re + im*i as a compact string, e.g. '3', '1/2', '2i', '1 + 2i'."""
    if re and im:
        sign = " - " if im < 0 else " + "
        return f"{re}{sign}{_imag_str(abs(im))}"
    if im:
        return _imag_str(im)
    return str(re)


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    if im.denominator == 1:
        return f"{im}i"
    return f"({im})i"


def format_scalar(c: ExactComplex) -> str:
    """Canonical human-readable form of a scalar."""
    if not c:
        return "0"
    base = _complex_part_str(c.re, c.im) if (c.re or c.im) else ""
    if not (c.rt2_re or c.rt2_im):
        return base
    sub = _complex_part_str(c.rt2_re, c.rt2_im)
    rt = {"1": "rt2", "-1": "-rt2"}.get(sub)
    if rt is None:
        rt = f"{sub}*rt2" if sub.isdigit() else f"({sub})*rt2"
    if not base:
        return rt
    return f"{base} - rt2" if rt == "-rt2" else f"{base} + {rt}"


def scalar_is_negative_leading(c: ExactComplex) -> bool:
    """True when the first nonzero component is negative (used for sign
    extraction when printing polynomial terms)."""
    for part in c._q[:4]:  # the parts' signs, as the denominator is positive
        if part:
            return part < 0
    return False
