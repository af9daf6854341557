import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nstar import polynomials
from nstar.oscillator import PolyGauss, prepare_points
from nstar.polynomials import Polynomial, SamplePoints, x
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


@pytest.mark.parametrize("exps", [(2.5, 0, 0), (1.0, 0, 0), (True, 0, 0), (0, -1, 0), (1, 0)])
def test_exponents_must_be_non_negative_ints(exps):
    with pytest.raises(ValueError, match="bad multi-index"):
        Polynomial(3, {exps: 1})


@pytest.mark.parametrize("bad", [1.5, True, -1])
def test_json_exponents_must_be_non_negative_ints(bad):
    record = {"exponents": [1, bad], "re_num": 1, "re_den": 1, "im_num": 0, "im_den": 1}
    with pytest.raises(ValueError, match="bad multi-index"):
        Polynomial.from_json(json.dumps({"n": 2, "terms": [record]}))


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
    val = p.eval_exact([(Fraction(1, 2), 3, 0)])[0]
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
    # single points, then one call over every point (mixed denominators,
    # ints, exact floats) or none; PolyGauss.eval weights each value by exp
    # of the float nearest the exact exponent scale*|x|^2/2
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
        bad = points[:2] + [(1,) * (n + 1)]
        for p in polys:
            for pt in points:
                assert p.eval_exact([pt])[0] == fraction_eval(p, pt), (p, pt)
            want = [fraction_eval(p, pt) for pt in points]
            assert p.eval_exact(points) == want, p
            assert p.eval_exact(points[::-1]) == want[::-1], p
            assert p.eval_exact([]) == []
            with pytest.raises(ValueError):
                p.eval_exact(bad)
            for scale in (0, 1, 3):
                weights = [math.exp(-float(scale * sum(Fraction(v) ** 2 for v in pt) / 2))
                           for pt in points]
                pg = PolyGauss(p, scale)
                assert pg.eval(points) == [v.to_complex() * w for v, w in zip(want, weights)]
                assert pg.eval([]) == []
                with pytest.raises(ValueError):
                    pg.eval(bad)
    assert Polynomial.zero(2).eval_exact([(Fraction(1, 3), 5)])[0] == ExactComplex(0)
    assert Polynomial.constant(7, 2).eval_exact([(Fraction(1, 3), 5)])[0] == ExactComplex(7)
    # float coordinates are taken exactly: the values at the equal Fraction
    # points, bit for bit
    floats = [(0.1, -1.3, 0.7), (1.0, 0.25, -2.5), (0.3, 0.0, 1e-3), (3, -0.5, 2)]
    for scale in (0, 1, 3):
        pg = PolyGauss(x(1, 3) * x(2, 3) ** 2 * SQRT2 - x(3, 3) * I + Fraction(1, 3), scale)
        assert pg.eval(floats) == pg.eval([tuple(map(Fraction, pt)) for pt in floats])


def test_eval_exact_rejects_non_rational_coordinates():
    # a float or a string coordinate is a ValueError naming the point and
    # the axis, as a wrong dimension is; PolyGauss.eval converts floats first
    p = x(1, 3) * x(2, 3) + 1
    good = (Fraction(1, 2), 1, 2)
    for bad, index, axis in (((0.5, 1, 2), 0, 1), (("1", 1, 2), 0, 1),
                             ((1, 2, 0.25), 1, 3), ((1, "2", 3), 1, 2)):
        points = [bad] if index == 0 else [good, bad]
        with pytest.raises(ValueError, match=rf"point {index}: coordinate x{axis} = "):
            p.eval_exact(points)
        with pytest.raises(ValueError, match=rf"point {index}: coordinate x{axis} = "):
            SamplePoints(points, 3)
    for bad_call in (lambda: p.eval_exact([good, (1, 2)]), lambda: SamplePoints([good, (1, 2)], 3),
                     lambda: PolyGauss(p, 1).eval([good, (1, 2)])):
        with pytest.raises(ValueError, match=r"^point 1: dimension mismatch$"):
            bad_call()
    # the zero polynomial checks its points too
    with pytest.raises(ValueError, match=r"point 0: coordinate x2"):
        Polynomial.zero(3).eval_exact([(1, 0.5, 2)])
    assert PolyGauss(p, 1).eval([(0.5, 1, 2)]) == PolyGauss(p, 1).eval([(Fraction(1, 2), 1, 2)])
    # prepared points of another dimension
    with pytest.raises(ValueError, match=r"^dimension mismatch$"):
        p.eval_exact(SamplePoints([(1, 2)], 2))


def test_prepared_points_match_fraction_reference_and_raw_points():
    # one prepared set serves many polynomials and scales, its power tables
    # grown to the largest degree asked for so far: every value equals the
    # per-point Fraction reference and the raw-point call, bit for bit,
    # whether the degrees asked for rise, fall or both
    rng = random.Random(31)

    def part():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) if rng.random() < 0.6 else 0

    for n in (3, 4, 5):
        raw = [tuple(Fraction(rng.randint(-50, 50), rng.choice((1, 3, 4, 10, 49)))
                     for _ in range(n)),
               tuple(rng.randint(-4, 4) for _ in range(n)),
               tuple(rng.choice((0.1, -1.3, 2.5, 1e-3, 0.0)) for _ in range(n)),
               (0,) * n,
               tuple(rng.choice((1, Fraction(-1, 3), 0.25)) for _ in range(n))]
        exact = [tuple(Fraction(v) if isinstance(v, float) else v for v in pt) for pt in raw]
        polys = [Polynomial.zero(n), Polynomial.constant(ExactComplex(Fraction(-2, 3), 0, 1), n)]
        for top in (1, 2, 3, 5):
            polys.append(Polynomial(n, {tuple(rng.randint(0, top) for _ in range(n)):
                                        ExactComplex(part(), part(), part(), part())
                                        for _ in range(rng.randint(1, 6))}))
        polys.sort(key=Polynomial.degree)
        for order in (polys, polys[::-1], polys + polys[::-1]):
            prepared, gauss = SamplePoints(exact, n), prepare_points(raw, n)
            assert len(prepared) == len(gauss) == len(raw)
            for p in order:
                want = [fraction_eval(p, pt) for pt in exact]
                assert p.eval_exact(prepared) == want == p.eval_exact(exact), p
                for scale in (0, 1, 2, 3):
                    pg = PolyGauss(p, scale)
                    assert pg.eval(gauss) == pg.eval(raw) == pg.eval(exact), (p, scale)
        empty = SamplePoints([], n)
        for p in polys:
            assert p.eval_exact(empty) == [] and PolyGauss(p, 2).eval(empty) == []


def test_times_coordinate_is_the_product_with_x():
    rng = random.Random("times-coordinate")
    for n in (1, 3, 4):
        for trial in range(8):
            p = seeded_poly(rng, n, rng.randint(0, 6), rng.choice((1, 3)), trial % 2 == 1)
            for k in range(1, n + 1):
                assert parts_of(p.times_coordinate(k)) == parts_of(x(k, n) * p)
    with pytest.raises(ValueError):
        x(1, 3).times_coordinate(4)


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


F = Fraction
# (re, im, rt2_re, rt2_im) -> the scalar's text, the text of the constant
# polynomial, and the text of the scalar times x1.  Printed before text and
# JSON both read a coefficient's lowest-terms integers; the same table
# holds every printed form of test_scalars.RT2_FORMS.
PRINTED_COEFFICIENTS = [
    ((0, 0, 1, 0), 'rt2', 'rt2', '(rt2)*x1'),
    ((0, 0, -1, 0), '-rt2', '-rt2', '-(rt2)*x1'),
    ((0, 0, 2, 0), '2*rt2', '2*rt2', '(2*rt2)*x1'),
    ((0, 0, -3, 0), '(-3)*rt2', '-3*rt2', '-(3*rt2)*x1'),
    ((0, 0, F(1, 2), 0), '(1/2)*rt2', '(1/2)*rt2', '((1/2)*rt2)*x1'),
    ((0, 0, 0, 1), '(i)*rt2', '(i)*rt2', '((i)*rt2)*x1'),
    ((0, 0, 0, -1), '(-i)*rt2', '-(i)*rt2', '-((i)*rt2)*x1'),
    ((0, 0, 0, 2), '(2i)*rt2', '(2i)*rt2', '((2i)*rt2)*x1'),
    ((0, 0, 0, F(-5, 6)), '((-5/6)i)*rt2', '-((5/6)i)*rt2', '-(((5/6)i)*rt2)*x1'),
    ((0, 0, 1, 1), '(1 + i)*rt2', '(1 + i)*rt2', '((1 + i)*rt2)*x1'),
    ((0, 0, -1, F(1, 6)), '(-1 + (1/6)i)*rt2', '-(1 - (1/6)i)*rt2', '-((1 - (1/6)i)*rt2)*x1'),
    ((1, 0, 1, 0), '1 + rt2', '1 + rt2', '(1 + rt2)*x1'),
    ((1, 0, -1, 0), '1 - rt2', '1 - rt2', '(1 - rt2)*x1'),
    ((0, 1, 2, 0), 'i + 2*rt2', 'i + 2*rt2', '(i + 2*rt2)*x1'),
    ((F(25, 3), F(-5, 2), F(1, 4), 0), '25/3 - (5/2)i + (1/4)*rt2', '25/3 - (5/2)i + (1/4)*rt2', '(25/3 - (5/2)i + (1/4)*rt2)*x1'),
    ((F(-1, 2), 0, 0, -1), '-1/2 + (-i)*rt2', '-1/2 + (i)*rt2', '-(1/2 + (i)*rt2)*x1'),
    ((0,), '0', '0', '0'),
    ((1,), '1', '1', 'x1'),
    ((-1,), '-1', '-1', '-x1'),
    ((3,), '3', '3', '3*x1'),
    ((-3,), '-3', '-3', '-3*x1'),
    ((F(1, 2),), '1/2', '1/2', '(1/2)*x1'),
    ((F(-1, 2),), '-1/2', '-1/2', '-(1/2)*x1'),
    ((F(25, 3),), '25/3', '25/3', '(25/3)*x1'),
    ((0, 1), 'i', 'i', 'i*x1'),
    ((0, -1), '-i', '-i', '-i*x1'),
    ((0, 2), '2i', '2i', '2i*x1'),
    ((0, -2), '-2i', '-2i', '-2i*x1'),
    ((0, F(1, 2)), '(1/2)i', '(1/2)i', '((1/2)i)*x1'),
    ((0, F(-1, 2)), '(-1/2)i', '-(1/2)i', '-((1/2)i)*x1'),
    ((1, 1), '1 + i', '1 + i', '(1 + i)*x1'),
    ((-1, -1), '-1 - i', '-1 + i', '-(1 + i)*x1'),
    ((1, -2), '1 - 2i', '1 - 2i', '(1 - 2i)*x1'),
    ((-1, 2), '-1 + 2i', '-1 - 2i', '-(1 - 2i)*x1'),
    ((F(-1, 2), F(1, 3)), '-1/2 + (1/3)i', '-1/2 - (1/3)i', '-(1/2 - (1/3)i)*x1'),
    ((2, F(3, 4)), '2 + (3/4)i', '2 + (3/4)i', '(2 + (3/4)i)*x1'),
    ((F(1, 2), -1), '1/2 - i', '1/2 - i', '(1/2 - i)*x1'),
    ((0, 1, 1, 0), 'i + rt2', 'i + rt2', '(i + rt2)*x1'),
    ((0, -1, 0, 1), '-i + (i)*rt2', '-i + (-i)*rt2', '-(i + (-i)*rt2)*x1'),
    ((-1, 0, 1, 0), '-1 + rt2', '-1 - rt2', '-(1 - rt2)*x1'),
    ((0, 0, -1, -1), '(-1 - i)*rt2', '-(1 + i)*rt2', '-((1 + i)*rt2)*x1'),
    ((0, 0, -2, 0), '(-2)*rt2', '-2*rt2', '-(2*rt2)*x1'),
    ((-1, 0, -1, 0), '-1 - rt2', '-1 + rt2', '-(1 + rt2)*x1'),
    ((2, 0, -2, 0), '2 + (-2)*rt2', '2 + (-2)*rt2', '(2 + (-2)*rt2)*x1'),
    ((0, 0, F(-1, 2), F(1, 2)), '(-1/2 + (1/2)i)*rt2', '-(1/2 - (1/2)i)*rt2', '-((1/2 - (1/2)i)*rt2)*x1'),
    ((0, F(1, 2), 0, F(1, 2)), '(1/2)i + ((1/2)i)*rt2', '(1/2)i + ((1/2)i)*rt2', '((1/2)i + ((1/2)i)*rt2)*x1'),
]


def test_printed_coefficients_pinned():
    for parts, scalar, constant, linear in PRINTED_COEFFICIENTS:
        c = ExactComplex(*parts)
        assert (str(c), str(Polynomial.constant(c, 1)), str(x(1, 1) * c)) == \
            (scalar, constant, linear), parts


def printed_corpus() -> list[Polynomial]:
    """3,000 seeded polynomials in 1 to 4 variables.  A coefficient part is
    zero, a unit, an integer or a fraction, of either sign; most
    coefficients have sqrt(2) parts."""
    rng = random.Random("printed-text")

    def part():
        if rng.random() < 0.4:
            return 0
        return Fraction(rng.choice((1, -1, 2, -3, 7, -12)), rng.choice((1, 1, 2, 3, 4, 6)))

    polys = []
    for _ in range(3000):
        n = rng.randint(1, 4)
        rt2 = rng.random() < 0.7
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.randint(0, 3) for _ in range(n))
            terms[exps] = ExactComplex(part(), part(), part() if rt2 else 0, part() if rt2 else 0)
        polys.append(Polynomial(n, terms))
    return polys


# sha256 of the corpus' texts joined by newlines, as printed before text and
# JSON both read a coefficient's lowest-terms integers
PRINTED_CORPUS_SHA256 = "31bc04367cd29b53111ce95ab9f1e402e21dc6c52f1e5bb6b3a02278c50cfeb6"


def test_printed_corpus_pinned():
    text = "\n".join(map(str, printed_corpus()))
    assert hashlib.sha256(text.encode()).hexdigest() == PRINTED_CORPUS_SHA256


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
    assert not any(c.rt2_re or c.rt2_im for c in prod.terms.values())
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


def wide_parts():
    """Rationals with numerators up to 2**200 of either sign, over mixed
    denominators, and zero."""
    return st.one_of(st.just(0), st.builds(Fraction, st.integers(-2**200, 2**200),
                                           st.sampled_from((1, 2, 3, 12, 2**61 - 1, 3**40))))


def wide_polys(n):
    coeffs = st.builds(ExactComplex, wide_parts(), wide_parts(), wide_parts(), wide_parts())
    exps = st.tuples(*([st.integers(0, 3)] * n))
    return st.dictionaries(exps, coeffs, max_size=6).map(lambda d: Polynomial(n, d))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(wide_polys(n), wide_polys(n))))
def test_product_kernel_matches_reference_on_wide_coefficients(pair):
    assert_kernel_matches_reference(*pair)


def test_product_kernel_cancels_modulo_zeta4_plus_1():
    # i*i + 1 and sqrt(2)*sqrt(2) - 2 are zero in the coefficient field, but
    # their packed sums are nonzero multiples of zeta^4 + 1 as integers: the
    # x1*x2 term is zero only after the reduction
    x1, x2 = x(1, 2), x(2, 2)
    for p, q in ((x1 * I + x2, x2 * I + x1),
                 (x1 * SQRT2 + x2 * 2, x2 * SQRT2 - x1),
                 (x1 * ExactComplex(0, Fraction(1, 3)) + x2 * Fraction(1, 2),
                  x2 * ExactComplex(0, Fraction(3, 2)) + x1)):
        assert_kernel_matches_reference(p, q)
        assert (1, 1) not in (p * q).terms and not (p * q).is_zero()


@pytest.mark.parametrize("a, b", [(5, 7), (2**100 - 1, 3), (2**63, 2**63),
                                  (Fraction(2**40 + 1, 3), Fraction(9, 2))])
def test_product_kernel_coordinate_at_the_norm_bound(a, b):
    # one term per operand, one nonzero coordinate each and no negative
    # numerator: nothing cancels, so the product's coordinate equals the
    # product of the operands' norms, the largest the packing width admits
    for p, q in ((Polynomial(2, {(1, 0): a}), Polynomial(2, {(0, 1): b})),
                 # sqrt(2)*(1 + i) = 2*zeta: the coordinate is 4ab at zeta^2
                 (Polynomial(2, {(1, 0): ExactComplex(0, 0, a, a)}),
                  Polynomial(2, {(1, 1): ExactComplex(0, 0, b, b)}))):
        assert_kernel_matches_reference(p, q)
    assert (Polynomial(2, {(1, 0): ExactComplex(0, 0, a, a)}) *
            Polynomial(2, {(0, 0): ExactComplex(0, 0, b, b)})).terms == {(1, 0): ExactComplex(0, 4 * a * b)}


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
