import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nstar.polynomials import Polynomial, x
from nstar.scalars import (
    ExactComplex, I, ONE, SQRT2, ZERO, HALF_SQRT2, _lowest_terms, _make, format_scalar)

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
# Fraction parts (re, im, rt2_re, rt2_im), the formulas of the field and
# the rules of the printed form, written out here.  The engine and both oracles use ExactComplex, so a
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

    def text(self):
        """The printed form of the scalar."""
        base = ref_complex_text(self.re, self.im) if (self.re or self.im) else ""
        if not (self.rt2_re or self.rt2_im):
            return base or "0"
        sub = ref_complex_text(self.rt2_re, self.rt2_im)
        if sub in ("1", "-1"):
            rt = sub[:-1] + "rt2"
        else:
            rt = f"{sub}*rt2" if sub.isdigit() else f"({sub})*rt2"
        if not base:
            return rt
        return f"{base} - rt2" if rt == "-rt2" else f"{base} + {rt}"

    def term_text(self, mono=""):
        """The printed form of the polynomial whose one term is the scalar
        times the monomial mono: the sign of the first nonzero part, then
        the magnitude, bracketed before mono unless it is an integer or an
        integer times i."""
        if not self:
            return "0"
        neg = self.negative_leading()
        mag = -self if neg else self
        body = mag.text()
        if mono:
            plain = (not (mag.rt2_re or mag.rt2_im) and not (mag.re and mag.im)
                     and mag.re.denominator == mag.im.denominator == 1)
            if not plain:
                body = f"({body})*{mono}"
            else:
                body = mono if body == "1" else f"{body}*{mono}"
        return f"-{body}" if neg else body

    def repr(self):
        return "ExactComplex(" + ", ".join(repr(p) for p in self.parts()) + ")"


def ref_complex_text(re: Fraction, im: Fraction) -> str:
    """The printed form of re + im*i, not both zero."""
    def imag(v):
        if abs(v) == 1:
            return "i" if v > 0 else "-i"
        return f"{v}i" if v.denominator == 1 else f"({v})i"

    if re and im:
        return f"{re} {'-' if im < 0 else '+'} {imag(abs(im))}"
    return imag(im) if im else str(re)


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
    assert z == scalar(r)
    assert hash(z) == hash(scalar(r))
    assert z.to_complex() == r.to_complex()
    assert repr(z) == r.repr()
    assert format_scalar(z) == str(z) == r.text()
    assert str(Polynomial.constant(z, 1)) == r.term_text()
    assert str(x(1, 1) * z) == r.term_text("x1")


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


# -- the stored coordinates against Fraction parts ----------------------------
#
# A scalar stores its coordinates in the basis 1, zeta, zeta^2, zeta^3
# (zeta = e^(i pi/4)).  Elements with odd zeta-coordinates, such as
# zeta = (1 + i)/sqrt(2) itself, have rt2 parts over an even denominator;
# the draws below make many of them.

ZETA_PARTS = [
    (0, 0, Fraction(1, 2), Fraction(1, 2)),  # zeta
    (0, 0, Fraction(-1, 2), Fraction(1, 2)),  # zeta^3
    (0, 1, 0, 0),  # zeta^2 = i
    (Fraction(1, 3), 0, Fraction(1, 6), Fraction(-1, 6)),  # (1 - zeta^3)/3
    (0, Fraction(-2, 5), Fraction(3, 10), Fraction(1, 2)),
]


def test_coordinates_match_the_fraction_parts():
    rng = random.Random("zeta-coordinates")

    def draw():
        return Ref(*(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6))) for _ in range(4)))

    refs = [Ref(*map(Fraction, parts)) for parts in ZETA_PARTS] + [draw() for _ in range(400)]
    assert _make(0, 1, 0, 0, 1) == scalar(refs[0]) == HALF_SQRT2 * (1 + I)
    assert _make(0, 0, 0, 1, 1) == scalar(refs[1])
    assert sum(1 for r in refs if scalar(r)._q[1] % 2 or scalar(r)._q[3] % 2) > 100
    for x, y in zip(refs, refs[1:] + refs[:1]):
        a, b = scalar(x), scalar(y)
        for z, r in ((a, x), (a + b, x + y), (a - b, x - y), (a * b, x * y),
                     (a.conjugate(), x.conjugate())):
            assert (z.re, z.im, z.rt2_re, z.rt2_im) == r.parts()
            got, want = z.to_complex(), r.to_complex()
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
            assert _lowest_terms(z) == tuple(v for p in r.parts() for v in (p.numerator, p.denominator))


# -- construction from int and Fraction parts ------------------------------------

def fraction_route(*parts):
    """The canonical five integers of a scalar, computed the long way: each
    part made a Fraction, its coordinates in the basis 1, zeta, zeta^2,
    zeta^3 (zeta = e^(i pi/4), i = zeta^2, sqrt(2) = zeta - zeta^3) formed
    from those, then all put over the lcm of their denominators."""
    re, im, rt2_re, rt2_im = [Fraction(p) for p in parts] + [Fraction(0)] * (4 - len(parts))
    coords = (re, rt2_re + rt2_im, im, rt2_im - rt2_re)
    den = math.lcm(*(f.denominator for f in coords))
    return tuple(f.numerator * (den // f.denominator) for f in coords) + (den,)


@pytest.mark.parametrize("parts", [
    (),
    (7,),
    (0, 1),
    (-3, 0, 2, -5),
    (True, False, True, 0),
    (Fraction(6, 4),),
    (Fraction(6, 4), Fraction(-1, 3), Fraction(5, 10), Fraction(7, 12)),
    (2, Fraction(-1, 6), 0, Fraction(4, 9)),
    (Fraction(-8, 4), -1, Fraction(0, 5), True),
    (10**30, Fraction(1, 10**20), -(10**25), Fraction(3, 7)),
])
def test_construction_matches_the_fraction_route(parts):
    z = ExactComplex(*parts)
    assert z._q == fraction_route(*parts)
    assert all(type(v) is int for v in z._q)  # no bool and no Fraction is stored
    assert (z.re, z.im, z.rt2_re, z.rt2_im) == tuple(
        Fraction(p) for p in parts + (0,) * (4 - len(parts)))


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", 1j, None])
def test_construction_rejects_a_part_that_is_not_int_or_fraction(bad):
    for position in range(4):
        parts = [0, 0, 0, 0]
        parts[position] = bad
        with pytest.raises(TypeError):
            ExactComplex(*parts)
