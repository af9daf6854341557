"""Exact scalar arithmetic for the engine: complex numbers with rational
parts, extended by sqrt(2).

A scalar denotes

    (re + im*i) + sqrt(2)*(rt2_re + rt2_im*i)

with four rational parts.  This is the field Q(i, sqrt(2)) = Q(zeta),
zeta = e^(i pi/4).  Plain rational-complex values keep the rt2 parts at
zero; the sqrt(2) parts only appear once the complex coordinates
(x_k + i*x_l)/sqrt(2) enter a computation.  Every operation is exact, so
identity checks are unambiguous equality tests.

A scalar is stored as its coordinates in the basis 1, zeta, zeta^2,
zeta^3, as integer numerators over one common denominator: the tuple
``_q = (e0, e1, e2, e3, den)`` with den > 0 and gcd(e0, e1, e2, e3, den)
= 1 denotes (e0 + e1*zeta + e2*zeta^2 + e3*zeta^3)/den.  That form is
canonical, so equality compares the five integers, and arithmetic works
on integers with one gcd per result.  A product is the product of
polynomials in zeta modulo zeta^4 + 1, the reduction the packed product
kernel of ``polynomials`` also does, so the kernel reads and writes
``_q`` as it is.

As i = zeta^2 and sqrt(2) = zeta - zeta^3, re = e0/den, im = e2/den,
rt2_re = (e1 - e3)/(2*den) and rt2_im = (e1 + e3)/(2*den).  This module
is the one place those parts are read off the coordinates; the
properties ``re``, ``im``, ``rt2_re`` and ``rt2_im`` return them as
``Fraction``s.  Printing builds no ``Fraction``: text and JSON both read
the parts' numerators and denominators in lowest terms, eight integers,
from ``_lowest_terms`` (the text in ``format_scalar`` and
``Polynomial.__str__``, the JSON in ``Polynomial.to_json_terms``).
"""

from __future__ import annotations

import math
from fractions import Fraction

_SQRT2 = math.sqrt(2.0)

RationalLike = int | Fraction


class ExactComplex:
    """Element of Q(i, sqrt(2)), immutable."""

    __slots__ = ("_q",)

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0,
                 rt2_re: RationalLike = 0, rt2_im: RationalLike = 0):
        for part in (re, im, rt2_re, rt2_im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(part).__name__}")
        # an int or a Fraction is its numerator over its reduced denominator;
        # over the lcm of those denominators the five ints are coprime
        den = math.lcm(re.denominator, im.denominator, rt2_re.denominator, rt2_im.denominator)
        a = re.numerator * (den // re.denominator)
        b = im.numerator * (den // im.denominator)
        c = rt2_re.numerator * (den // rt2_re.denominator)
        d = rt2_im.numerator * (den // rt2_im.denominator)
        e1, e3 = c + d, d - c
        # the coordinates (a, c + d, b, d - c) share at most a factor 2 with den
        if not (a | e1 | b | e3 | den) & 1:
            a, e1, b, e3, den = a // 2, e1 // 2, b // 2, e3 // 2, den // 2
        _set_q(self, (a, e1, b, e3, den))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._q[0], self._q[4])

    @property
    def im(self) -> Fraction:
        return Fraction(self._q[2], self._q[4])

    @property
    def rt2_re(self) -> Fraction:
        e0, e1, e2, e3, den = self._q
        return Fraction(e1 - e3, 2 * den)

    @property
    def rt2_im(self) -> Fraction:
        e0, e1, e2, e3, den = self._q
        return Fraction(e1 + e3, 2 * den)

    @staticmethod
    def coerce(v) -> "ExactComplex":
        if isinstance(v, ExactComplex):
            return v
        if isinstance(v, (int, Fraction)):
            return ExactComplex(v)
        raise TypeError(f"cannot coerce {type(v).__name__} to ExactComplex")

    def __bool__(self) -> bool:
        e0, e1, e2, e3, _ = self._q
        return bool(e0 or e1 or e2 or e3)

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
        x0, x1, x2, x3, dx = self._q
        y0, y1, y2, y3, dy = other._q
        if dx == dy:
            return _make(x0 + y0, x1 + y1, x2 + y2, x3 + y3, dx)
        g = math.gcd(dx, dy)
        s1, s2 = dy // g, dx // g
        return _make(x0 * s1 + y0 * s2, x1 * s1 + y1 * s2,
                     x2 * s1 + y2 * s2, x3 * s1 + y3 * s2, dx * s1)

    __radd__ = __add__

    def __neg__(self) -> "ExactComplex":
        e0, e1, e2, e3, den = self._q
        return _make(-e0, -e1, -e2, -e3, den)

    def __sub__(self, other) -> "ExactComplex":
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        return self + (-ExactComplex.coerce(other))

    def __rsub__(self, other) -> "ExactComplex":
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        return ExactComplex.coerce(other) + (-self)

    def __mul__(self, other) -> "ExactComplex":
        x0, x1, x2, x3, dx = self._q
        if isinstance(other, ExactComplex):
            y0, y1, y2, y3, dy = other._q
        elif isinstance(other, int):
            return _make(x0 * other, x1 * other, x2 * other, x3 * other, dx)
        elif isinstance(other, Fraction):
            y0, y1, y2, y3, dy = ExactComplex(other)._q
        else:
            return NotImplemented
        # the product of polynomials in zeta, modulo zeta^4 + 1
        if not (x1 or x3 or y1 or y3):  # plain complex rationals (i = zeta^2): the common case
            return _make(x0 * y0 - x2 * y2, 0, x0 * y2 + x2 * y0, 0, dx * dy)
        return _make(x0 * y0 - x1 * y3 - x2 * y2 - x3 * y1,
                     x0 * y1 + x1 * y0 - x2 * y3 - x3 * y2,
                     x0 * y2 + x1 * y1 + x2 * y0 - x3 * y3,
                     x0 * y3 + x1 * y2 + x2 * y1 + x3 * y0,
                     dx * dy)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ExactComplex":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        if k == 0:
            return ONE
        return _power(self, k)

    def conjugate(self) -> "ExactComplex":
        # the conjugate of zeta is zeta^-1 = -zeta^3
        e0, e1, e2, e3, den = self._q
        return _make(e0, -e3, -e2, -e1, den)

    def to_complex(self) -> complex:
        e0, e1, e2, e3, den = self._q
        return complex(e0 / den + _SQRT2 * ((e1 - e3) / (2 * den)),
                       e2 / den + _SQRT2 * ((e1 + e3) / (2 * den)))

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        a, b, c, d, e, f, g, h = _lowest_terms(self)  # the Fractions' reprs, not the Fractions
        return (f"ExactComplex(Fraction({a}, {b}), Fraction({c}, {d}), Fraction({e}, {f}), "
                f"Fraction({g}, {h}))")


_set_q = ExactComplex._q.__set__
_new = object.__new__


def _make(e0: int, e1: int, e2: int, e3: int, den: int) -> ExactComplex:
    """The scalar (e0 + e1*zeta + e2*zeta^2 + e3*zeta^3) / den, for den > 0."""
    g = math.gcd(e0, e1, e2, e3, den)
    if g != 1:
        e0 //= g
        e1 //= g
        e2 //= g
        e3 //= g
        den //= g
    z = _new(ExactComplex)
    _set_q(z, (e0, e1, e2, e3, den))
    return z


def _power(base, k: int):
    """base**k for an int k >= 1, by repeated squaring with the operands'
    own ``*``; the ``__pow__`` of ``ExactComplex`` and of ``Polynomial``."""
    while not k & 1:
        base = base * base
        k >>= 1
    out = base  # the lowest set bit: no product with the unit
    while k := k >> 1:
        base = base * base
        if k & 1:
            out = out * base
    return out


def _lowest_terms(v: ExactComplex) -> tuple[int, int, int, int, int, int, int, int]:
    """The numerator and denominator of re, im, rt2_re and rt2_im, each
    in lowest terms as its ``Fraction`` has it, without building the
    ``Fraction``s."""
    e0, e1, e2, e3, den = v._q
    c, d, den2 = e1 - e3, e1 + e3, 2 * den
    ga, gb, gc, gd = math.gcd(e0, den), math.gcd(e2, den), math.gcd(c, den2), math.gcd(d, den2)
    return e0 // ga, den // ga, e2 // gb, den // gb, c // gc, den2 // gc, d // gd, den2 // gd


ZERO = ExactComplex(0)
ONE = ExactComplex(1)
I = ExactComplex(0, 1)
SQRT2 = ExactComplex(0, 0, 1)
HALF_SQRT2 = ExactComplex(0, 0, Fraction(1, 2))  # 1/sqrt(2)


def format_scalar(c: ExactComplex) -> str:
    """Canonical human-readable form of a scalar, e.g. '3', '(1/2)i',
    '1 - 2i', '(-3)*rt2' or '25/3 - (5/2)i + (1/4)*rt2'."""
    return _parts_text(*_lowest_terms(c))


def _parts_text(a: int, b: int, c: int, d: int, e: int, f: int, g: int, h: int) -> str:
    """The text of a/b + (c/d)i + (e/f + (g/h)i)*rt2, each fraction in
    lowest terms as ``_lowest_terms`` gives it."""
    base = _complex_text(a, b, c, d) if a or c else ""
    if not (e or g):
        return base or "0"
    if g or f != 1 or e < -1:  # more than an integer: bracketed
        rt = f"({_complex_text(e, f, g, h)})*rt2"
    else:
        rt = {1: "rt2", -1: "-rt2"}.get(e, f"{e}*rt2")
    if not base:
        return rt
    return f"{base} - rt2" if rt == "-rt2" else f"{base} + {rt}"


def _complex_text(a: int, b: int, c: int, d: int) -> str:
    """The text of a/b + (c/d)i, e.g. '3', '1/2', '-i', '(-1/2)i', '1 - 2i'."""
    re = str(a) if b == 1 else f"{a}/{b}"
    if not c:
        return re
    if a:  # the imaginary part's sign joins it to the real part
        return f"{re} {'-' if c < 0 else '+'} {_complex_text(0, 1, abs(c), d)}"
    if d != 1:
        return f"({c}/{d})i"
    return {1: "i", -1: "-i"}.get(c, f"{c}i")
