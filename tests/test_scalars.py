import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nstar.scalars import (
    ExactComplex, I, ONE, SQRT2, ZERO, HALF_SQRT2, format_scalar, scalar_is_negative_leading)

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
scalars = st.builds(ExactComplex, small_fracs, small_fracs, small_fracs, small_fracs)


def test_basic_values():
    assert I * I == ExactComplex(-1)
    assert SQRT2 * SQRT2 == ExactComplex(2)
    assert HALF_SQRT2 * SQRT2 == ONE
    assert ZERO + ONE == ONE
    assert not ZERO
    assert ONE


def test_conjugate_fixes_sqrt2():
    z = ExactComplex(1, 2, Fraction(1, 3), -4)
    assert z.conjugate() == ExactComplex(1, -2, Fraction(1, 3), 4)
    assert z.conjugate().conjugate() == z


def test_to_complex():
    z = ExactComplex(1, -1, Fraction(1, 2), 0)
    c = z.to_complex()
    assert abs(c.real - (1 + 2**0.5 / 2)) < 1e-15
    assert c.imag == -1.0


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_pow():
    assert (I**4) == ONE
    assert (SQRT2**2) == ExactComplex(2)
    assert (ExactComplex(2) ** 0) == ONE
    with pytest.raises(ValueError):
        ONE ** -1


@pytest.mark.parametrize("k", range(1, 9))
def test_pow_squares_only_while_bits_remain(k, monkeypatch):
    base = ExactComplex(Fraction(1, 2), 3, -1, Fraction(2, 3))
    expected = ONE
    for _ in range(k):
        expected = expected * base
    calls = []
    mul = ExactComplex.__mul__
    monkeypatch.setattr(ExactComplex, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    assert base ** k == expected
    assert len(calls) == k.bit_length() - 1 + k.bit_count() - 1


# (re, im, rt2_re, rt2_im) -> printed form, measured before the sqrt(2)
# branch of format_scalar was reduced to one rule.
RT2_FORMS = [
    ((0, 0, 1, 0), "rt2"),
    ((0, 0, -1, 0), "-rt2"),
    ((0, 0, 2, 0), "2*rt2"),
    ((0, 0, -3, 0), "(-3)*rt2"),
    ((0, 0, Fraction(1, 2), 0), "(1/2)*rt2"),
    ((0, 0, 0, 1), "(i)*rt2"),
    ((0, 0, 0, -1), "(-i)*rt2"),
    ((0, 0, 0, 2), "(2i)*rt2"),
    ((0, 0, 0, Fraction(-5, 6)), "((-5/6)i)*rt2"),
    ((0, 0, 1, 1), "(1 + i)*rt2"),
    ((0, 0, -1, Fraction(1, 6)), "(-1 + (1/6)i)*rt2"),
    ((1, 0, 1, 0), "1 + rt2"),
    ((1, 0, -1, 0), "1 - rt2"),
    ((0, 1, 2, 0), "i + 2*rt2"),
    ((Fraction(25, 3), Fraction(-5, 2), Fraction(1, 4), 0), "25/3 - (5/2)i + (1/4)*rt2"),
    ((Fraction(-1, 2), 0, 0, -1), "-1/2 + (-i)*rt2"),
]


def test_format():
    assert format_scalar(ZERO) == "0"
    assert format_scalar(ExactComplex(0, Fraction(1, 2))) == "(1/2)i"
    assert format_scalar(ExactComplex(3)) == "3"
    assert format_scalar(I) == "i"
    assert format_scalar(-I) == "-i"
    assert format_scalar(ExactComplex(1, 2)) == "1 + 2i"
    assert format_scalar(SQRT2) == "rt2"
    for parts, text in RT2_FORMS:
        assert format_scalar(ExactComplex(*parts)) == text, parts


# -- reference model ---------------------------------------------------------
# The scalar is checked against a model that shares no code with it: four
# Fraction parts (re, im, rt2_re, rt2_im) and the formulas of the field,
# written out here.  The engine and both oracles use ExactComplex, so a
# fault in it would pass every cross-check between them; this cannot.

@dataclass(frozen=True)
class Ref:
    re: Fraction
    im: Fraction
    rt2_re: Fraction
    rt2_im: Fraction

    def parts(self):
        return (self.re, self.im, self.rt2_re, self.rt2_im)

    def __bool__(self):
        return any(self.parts())

    def __add__(self, other):
        return Ref(*(a + b for a, b in zip(self.parts(), other.parts())))

    def __neg__(self):
        return Ref(*(-a for a in self.parts()))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a1, b1, c1, d1 = self.parts()
        a2, b2, c2, d2 = other.parts()
        return Ref(a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
                   a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
                   a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
                   a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)

    def __pow__(self, k):
        out = Ref(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self):
        return Ref(self.re, -self.im, self.rt2_re, -self.rt2_im)

    def to_complex(self):
        rt2 = 2.0 ** 0.5
        return complex(float(self.re) + rt2 * float(self.rt2_re),
                       float(self.im) + rt2 * float(self.rt2_im))

    def negative_leading(self):
        return next((p < 0 for p in self.parts() if p), False)

    def repr(self):
        return "ExactComplex(" + ", ".join(repr(p) for p in self.parts()) + ")"


# Few denominators, so that sums with equal denominators are common.
ref_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
refs = st.builds(Ref, ref_fracs, ref_fracs, ref_fracs, ref_fracs)
rationals = st.one_of(st.integers(-6, 6), ref_fracs)


def scalar(r: Ref) -> ExactComplex:
    return ExactComplex(*r.parts())


def assert_matches(z: ExactComplex, r: Ref):
    parts = (z.re, z.im, z.rt2_re, z.rt2_im)
    assert all(type(p) is Fraction for p in parts)
    assert parts == r.parts()
    num = z._q[:4]
    den = z._q[4]
    assert all(type(v) is int for v in z._q)
    assert den > 0
    assert math.gcd(*num, den) == 1
    assert bool(z) == bool(r)
    assert z.is_rational_complex() == (not (r.rt2_re or r.rt2_im))
    assert z == scalar(r)
    assert hash(z) == hash(scalar(r))
    assert z.to_complex() == r.to_complex()
    assert repr(z) == r.repr()
    assert format_scalar(z) == format_scalar(r)
    assert scalar_is_negative_leading(z) == r.negative_leading()


@given(refs, refs)
def test_matches_reference(x, y):
    a, b = scalar(x), scalar(y)
    assert_matches(a, x)
    assert_matches(a + b, x + y)
    assert_matches(a - b, x - y)
    assert_matches(-a, -x)
    assert_matches(a * b, x * y)
    assert_matches(a.conjugate(), x.conjugate())
    for k in range(6):
        assert_matches(a**k, x**k)
    assert (a == b) == (x == y)
    # the same value reached by different routes has the same storage
    assert_matches((a + b) - b, x)
    assert_matches(b + a - b * ONE, x)
    assert ((a + b) - b)._q == a._q


@given(refs, rationals)
def test_mixed_operands_match_reference(x, q):
    a, r = scalar(x), Ref(Fraction(q), Fraction(0), Fraction(0), Fraction(0))
    assert_matches(a + q, x + r)
    assert_matches(q + a, x + r)
    assert_matches(a - q, x - r)
    assert_matches(q - a, r - x)
    assert_matches(a * q, x * r)
    assert_matches(q * a, x * r)
    assert (a == q) == (x == r)
    assert ExactComplex(q) == q


def test_zero_has_one_storage():
    x = ExactComplex(Fraction(1, 3), Fraction(-2, 5), Fraction(1, 6), 7)
    for z in (ZERO, x - x, x * 0, ExactComplex(Fraction(0, 7)), ExactComplex(0) * x):
        assert z._q == (0, 0, 0, 0, 1)
        assert not z
        assert hash(z) == hash(ZERO)
