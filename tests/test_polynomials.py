import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nstar import polynomials
from nstar.polynomials import Polynomial, x
from nstar.scalars import SQRT2, ExactComplex, I


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


def fraction_eval(p, point):
    """Reference: each of the four rational parts summed term by term in
    Fractions."""
    parts = [Fraction(0)] * 4
    for exps, c in p.terms.items():
        mono = Fraction(1)
        for v, e in zip(point, exps):
            mono *= Fraction(v) ** e
        for i, part in enumerate((c.re, c.im, c.rt2_re, c.rt2_im)):
            parts[i] += part * mono
    return ExactComplex(*parts)


def test_eval_exact_matches_fraction_reference():
    rng = random.Random(23)

    def part():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) if rng.random() < 0.6 else 0

    for n in range(1, 6):
        points = [
            tuple(Fraction(rng.randint(-50, 50), rng.choice((1, 3, 4, 10, 49))) for _ in range(n)),
            (0,) * n,
            tuple(rng.choice((0, 2, Fraction(-1, 3))) for _ in range(n)),
            tuple(Fraction(rng.choice((0.1, -1.3, 2.5, 1e-3, 0.0))) for _ in range(n)),
            tuple(rng.randint(-4, 4) for _ in range(n)),
        ]
        polys = [Polynomial.zero(n), Polynomial.constant(ExactComplex(Fraction(-2, 3), 0, 1), n)]
        for _ in range(6):
            polys.append(Polynomial(n, {tuple(rng.randint(0, 3) for _ in range(n)):
                                        ExactComplex(part(), part(), part(), part())
                                        for _ in range(rng.randint(1, 6))}))
        for p in polys:
            for pt in points:
                assert p.eval_exact(pt) == fraction_eval(p, pt), (p, pt)
    assert Polynomial.zero(2).eval_exact((Fraction(1, 3), 5)) == ExactComplex(0)
    assert Polynomial.constant(7, 2).eval_exact((Fraction(1, 3), 5)) == ExactComplex(7)


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


def schoolbook_product(p, q):
    """Reference product: tuple keys and each coefficient as the four
    Fractions (re, im, rt2_re, rt2_im); zero sums are dropped at the end."""
    out = {}
    for e1, s1 in p.terms.items():
        a1, b1, c1, d1 = s1.re, s1.im, s1.rt2_re, s1.rt2_im
        for e2, s2 in q.terms.items():
            a2, b2, c2, d2 = s2.re, s2.im, s2.rt2_re, s2.rt2_im
            prod = (a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
                    a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
                    a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
                    a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)
            key = tuple(u + v for u, v in zip(e1, e2))
            acc = out.get(key, (Fraction(0),) * 4)
            out[key] = tuple(u + v for u, v in zip(acc, prod))
    return {key: parts for key, parts in out.items() if any(parts)}


def parts_of(p):
    return {e: (c.re, c.im, c.rt2_re, c.rt2_im) for e, c in p.terms.items()}


def seeded_poly(rng, n, terms, degree, rt2):
    def part():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7, 12)))
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, degree) for _ in range(n))
        out[exps] = ExactComplex(part(), part(), part() if rt2 else 0, part() if rt2 else 0)
    return Polynomial(n, out)


def assert_kernel_matches_reference(p, q):
    got = p * q
    assert parts_of(got) == schoolbook_product(p, q)
    # every stored coefficient is nonzero and in the canonical scalar form
    assert all(c and ExactComplex(c.re, c.im, c.rt2_re, c.rt2_im)._q == c._q
               for c in got.terms.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_product_kernel_matches_schoolbook_reference(n):
    rng = random.Random(f"kernel-{n}")
    for trial in range(12):
        rt2 = trial % 3 == 2
        p = seeded_poly(rng, n, rng.randint(1, 9), rng.choice((1, 3, 6)), rt2)
        q = seeded_poly(rng, n, rng.randint(1, 9), rng.choice((1, 3, 6)), rt2 or trial % 3 == 1)
        assert_kernel_matches_reference(p, q)


def test_product_kernel_cancellation_and_zero_operand():
    x1, x2 = x(1, 2), x(2, 2)
    # the cross terms cancel
    assert_kernel_matches_reference(x1 + x2, x1 - x2)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    # the sqrt(2) parts cancel: (1 + rt2)(1 - rt2) = -1, stored without rt2 parts
    prod = (x1 + x2 * SQRT2 + 1) * (x1 - x2 * SQRT2 + 1)
    assert_kernel_matches_reference(x1 + x2 * SQRT2 + 1, x1 - x2 * SQRT2 + 1)
    assert prod.terms[(0, 2)] == ExactComplex(-2)
    assert all(c.is_rational_complex() for c in prod.terms.values())
    # fractional coefficients whose products cancel between term pairs
    p = x1 * Fraction(1, 3) + x2 * Fraction(1, 2)
    q = x1 * Fraction(3, 2) - x2 * Fraction(9, 4)
    assert_kernel_matches_reference(p, q)
    assert (p * q).terms.get((1, 1)) is None
    zero = Polynomial.zero(2)
    assert (p * zero).is_zero() and (zero * p).is_zero() and (zero * zero).is_zero()


@pytest.mark.parametrize("e1, e2", [(1023, 1), (1022, 1), (511, 512), (2**20, 2**20), (2**20 - 1, 1)])
def test_product_kernel_at_bit_width_boundaries(e1, e2):
    # exponent sums at or just below a power of two: one bit fewer per axis would carry
    x1, x2, x3 = x(1, 3), x(2, 3), x(3, 3)
    one_var = Polynomial(1, {(e1,): 1, (0,): 1}) * Polynomial(1, {(e2,): 1, (0,): 1})
    assert one_var == Polynomial(1, {(e1 + e2,): 1, (0,): 1}) + Polynomial(1, {(e1,): 1}) + \
        Polynomial(1, {(e2,): 1})
    p = Polynomial(3, {(e1, 0, e2): 2, (0, e1, 1): I, (e2, 1, 0): Fraction(1, 3)})
    q = Polynomial(3, {(e2, e2, 0): 1, (1, e1, e2): ExactComplex(0, 0, 1), (0, 0, e1): -1})
    assert_kernel_matches_reference(p, q)
    assert_kernel_matches_reference(p, x1 + x2 + x3)
    assert (p * q).degree() == max(sum(a) + sum(b) for a in p.terms for b in q.terms)


@pytest.mark.parametrize("k", range(1, 9))
def test_power_squares_only_while_bits_remain(k, monkeypatch):
    # a square past the top bit would be the largest product and go unused,
    # and a product with the unit would change nothing
    base = x(1, 3) + x(2, 3) * I + x(3, 3) * Fraction(1, 2)
    expected = Polynomial.constant(1, 3)
    for _ in range(k):
        expected = expected * base
    calls = []
    kernel = polynomials._product
    monkeypatch.setattr(polynomials, "_product", lambda *a: calls.append(a) or kernel(*a))
    assert base ** k == expected
    assert len(calls) == k.bit_length() - 1 + k.bit_count() - 1


def test_json_terms_read_each_part_in_lowest_terms():
    rng = random.Random("json-terms")
    p = seeded_poly(rng, 3, 12, 3, True) + seeded_poly(rng, 3, 12, 3, False)
    for (exps, c), rec in zip(p.sorted_terms(), p.to_json_terms()):
        expected = {"exponents": list(exps)}
        names = ("re", "im", "rt2_re", "rt2_im")
        for name in names if (c.rt2_re or c.rt2_im) else names[:2]:
            part = getattr(c, name)
            expected[f"{name}_num"] = part.numerator
            expected[f"{name}_den"] = part.denominator
        assert rec == expected
