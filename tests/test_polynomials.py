from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nstar.polynomials import Polynomial, x
from nstar.scalars import ExactComplex, I


def small_polys(n=3):
    coeffs = st.builds(ExactComplex, st.integers(-3, 3), st.integers(-3, 3))
    exps = st.tuples(*([st.integers(0, 2)] * n))
    return st.dictionaries(exps, coeffs, max_size=4).map(lambda d: Polynomial(n, d))


def test_zero_coefficients_are_purged():
    p = Polynomial(3, {(1, 0, 0): ExactComplex(0)})
    assert p.is_zero()
    q = x(1, 3) - x(1, 3)
    assert q.is_zero()
    assert q == Polynomial.zero(3)


def test_coordinate_and_degree():
    p = x(1, 3) * x(2, 3) + Polynomial.constant(5, 3)
    assert p.degree() == 2
    assert Polynomial.zero(3).degree() == -1
    with pytest.raises(ValueError):
        x(4, 3)


def test_partial_derivative_examples():
    assert (x(1, 3) * x(2, 3)).diff(1) == x(2, 3)
    assert Polynomial.constant(5, 3).diff(2).is_zero()
    assert (x(3, 3) ** 2).diff(3) == x(3, 3) * 2
    with pytest.raises(ValueError):
        x(1, 3).diff(4)


def test_degree_decreases_under_diff():
    p = x(1, 3) ** 3 * x(2, 3) + x(3, 3)
    d = p.diff(1)
    assert d.degree() < p.degree()


@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(small_polys(), small_polys())
def test_diff_is_linear_and_leibniz(p, q):
    assert (p + q).diff(1) == p.diff(1) + q.diff(1)
    assert (p * q).diff(2) == p.diff(2) * q + p * q.diff(2)


def test_eval_exact():
    p = x(1, 3) ** 2 + x(2, 3) * I
    val = p.eval_exact((Fraction(1, 2), 3, 0))
    assert val == ExactComplex(Fraction(1, 4), 3)


def test_graded_lex_ordering():
    p = Polynomial.constant(1, 3) + x(1, 3) ** 2 + x(1, 3) * x(2, 3) + x(3, 3)
    keys = [k for k, _ in p.sorted_terms()]
    assert keys == [(2, 0, 0), (1, 1, 0), (0, 0, 1), (0, 0, 0)]


def test_str_canonical():
    cfg_term = x(1, 3) * x(2, 3) * x(3, 3) + Polynomial.constant(ExactComplex(0, Fraction(1, 2)), 3)
    assert str(cfg_term) == "x1*x2*x3 + (1/2)i"
    assert str(Polynomial.zero(3)) == "0"
    assert str(-x(1, 3)) == "-x1"
    assert str(x(1, 3) - x(2, 3)) == "x1 - x2"
    assert str(x(1, 3) * Fraction(1, 2)) == "(1/2)*x1"


@given(small_polys())
def test_json_round_trip(p):
    q = Polynomial.from_json(p.to_json())
    assert q == p


def test_json_round_trip_with_sqrt2_parts():
    p = x(1, 3) * ExactComplex(0, 0, Fraction(1, 2)) + Polynomial.constant(ExactComplex(1, -1), 3)
    assert Polynomial.from_json(p.to_json()) == p


def test_conjugate():
    p = x(1, 3) * I + Polynomial.constant(ExactComplex(1, 2), 3)
    assert p.conjugate() == x(1, 3) * (-I) + Polynomial.constant(ExactComplex(1, -2), 3)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        x(1, 3) + x(1, 4)


def test_scalar_on_the_left_defers_to_polynomial():
    one = ExactComplex(1)
    p = x(1, 3)
    assert one * p == p * one == p
    assert one + p == p + one
    assert one - p == -(p - one)
    assert I * p == p * I
