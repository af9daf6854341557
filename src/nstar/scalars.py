"""Exact scalar arithmetic for the engine: complex numbers with rational
parts, extended by sqrt(2).

A scalar is stored as four rationals (re, im, rt2_re, rt2_im) and denotes

    (re + im*i) + sqrt(2)*(rt2_re + rt2_im*i)

This is the field Q(i, sqrt(2)).  Plain rational-complex values keep the
rt2 parts at zero; the sqrt(2) parts only appear once the complex
coordinates (x_k + i*x_l)/sqrt(2) enter a computation.  Every operation
is exact, so identity checks are unambiguous equality tests.
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

    __slots__ = ("re", "im", "rt2_re", "rt2_im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0,
                 rt2_re: RationalLike = 0, rt2_im: RationalLike = 0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))
        object.__setattr__(self, "rt2_re", _frac(rt2_re))
        object.__setattr__(self, "rt2_im", _frac(rt2_im))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @staticmethod
    def coerce(v) -> "ExactComplex":
        if isinstance(v, ExactComplex):
            return v
        if isinstance(v, (int, Fraction)):
            return ExactComplex(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to ExactComplex")

    def __bool__(self) -> bool:
        return bool(self.re or self.im or self.rt2_re or self.rt2_im)

    def is_rational_complex(self) -> bool:
        return not (self.rt2_re or self.rt2_im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return (self.re == other.re and self.im == other.im
                and self.rt2_re == other.rt2_re and self.rt2_im == other.rt2_im)

    def __hash__(self):
        return hash((self.re, self.im, self.rt2_re, self.rt2_im))

    def __add__(self, other) -> "ExactComplex":
        other = ExactComplex.coerce(other)
        return ExactComplex(self.re + other.re, self.im + other.im,
                            self.rt2_re + other.rt2_re, self.rt2_im + other.rt2_im)

    __radd__ = __add__

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im, -self.rt2_re, -self.rt2_im)

    def __sub__(self, other) -> "ExactComplex":
        return self + (-ExactComplex.coerce(other))

    def __rsub__(self, other) -> "ExactComplex":
        return ExactComplex.coerce(other) + (-self)

    def __mul__(self, other) -> "ExactComplex":
        other = ExactComplex.coerce(other)
        # (u1 + rt2*v1)(u2 + rt2*v2) = (u1*u2 + 2*v1*v2) + rt2*(u1*v2 + v1*u2)
        a1, b1, c1, d1 = self.re, self.im, self.rt2_re, self.rt2_im
        a2, b2, c2, d2 = other.re, other.im, other.rt2_re, other.rt2_im
        if not (c1 or d1 or c2 or d2):  # plain complex rationals: the common case
            return ExactComplex(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
        re = a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2)
        im = a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2)
        rre = a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2
        rim = a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
        return ExactComplex(re, im, rre, rim)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ExactComplex":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im, self.rt2_re, -self.rt2_im)

    def to_complex(self) -> complex:
        return complex(float(self.re) + _SQRT2 * float(self.rt2_re),
                       float(self.im) + _SQRT2 * float(self.rt2_im))

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"ExactComplex({self.re!r}, {self.im!r}, {self.rt2_re!r}, {self.rt2_im!r})"


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
    for part in (c.re, c.im, c.rt2_re, c.rt2_im):
        if part:
            return part < 0
    return False
