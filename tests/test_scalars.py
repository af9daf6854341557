from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nstar.scalars import ExactComplex, I, ONE, SQRT2, ZERO, HALF_SQRT2, format_scalar

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
