import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import nstar.starcore as starcore
from nstar.audit import CorpusSpec, sample_poly, sample_theta
from nstar.closedforms import complex_pair
from nstar.oscillator import (
    HamiltonianSpec,
    PolyGauss,
    QuantumNumber,
    build_hamiltonian,
    energy,
    ground_state,
    hermite_coeffs,
    prepare_points,
    residual_report,
    star_increments,
    star_polygauss_truncated,
)
from nstar.polynomials import Polynomial, SamplePoints, x
from nstar.scalars import ExactComplex
from nstar.starcore import ThetaConfig, star_n, star_series


UNIT3 = ThetaConfig(3, (Fraction(1), Fraction(1), Fraction(1)))


def radial_sq(n):
    p = Polynomial.zero(n)
    for i in range(1, n + 1):
        p = p + x(i, n) * x(i, n)
    return p


def test_spec_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec(3, lambda_pair={(2, 1): Fraction(1)})
    with pytest.raises(ValueError):
        HamiltonianSpec(3, lambda_quad={(1, 2, 3, 4): Fraction(1)})
    with pytest.raises(ValueError):
        HamiltonianSpec(3, lambda_pair={(1, 2): Fraction(1)},
                        diag_lambdas=((Fraction(1),) * 3,))
    with pytest.raises(ValueError):
        HamiltonianSpec(3, diag_lambdas=((Fraction(1),) * 2,))


def test_build_hamiltonian_free():
    assert build_hamiltonian(HamiltonianSpec(3)) == radial_sq(3)


def test_build_hamiltonian_pair_coupling():
    H = build_hamiltonian(HamiltonianSpec(3, lambda_pair={(1, 2): Fraction(1)}))
    assert H == radial_sq(3) + x(1, 3) * x(2, 3)


def test_build_hamiltonian_diagonal():
    spec = HamiltonianSpec(3, diag_lambdas=((Fraction(1),) * 3,))
    assert build_hamiltonian(spec) == radial_sq(3)
    spec2 = HamiltonianSpec(3, diag_lambdas=((Fraction(1),) * 3, (Fraction(2), 0, 0)))
    assert build_hamiltonian(spec2) == radial_sq(3) + x(1, 3) ** 4 * 2


def test_build_hamiltonian_quad_coupling():
    H = build_hamiltonian(HamiltonianSpec(4, lambda_quad={(1, 2, 3, 4): Fraction(3)}))
    assert H == radial_sq(4) + x(1, 4) * x(2, 4) * x(3, 4) * x(4, 4) * 3


def arithmetic_hamiltonian(spec):
    """Reference: H summed monomial by monomial with polynomial products."""
    n = spec.n
    H = Polynomial.zero(n)
    if spec.diag_lambdas is not None:
        for r, row in enumerate(spec.diag_lambdas):
            for i, lam in enumerate(row, 1):
                H = H + x(i, n) ** (2 * r + 2) * lam
        return H
    for j in range(1, n + 1):
        H = H + x(j, n) * x(j, n)
    for axes, lam in [*spec.lambda_pair.items(), *spec.lambda_quad.items()]:
        H = H + math.prod([x(i, n) for i in axes], start=Polynomial.constant(lam, n))
    return H


def test_hamiltonian_and_ground_state_equal_the_arithmetic_construction():
    rng = random.Random(12)

    def lam():
        return rng.choice((0, 1, Fraction(1, 2), Fraction(-3, 4), 2))

    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        quads = list(itertools.combinations(range(1, n + 1), 4))
        specs = [HamiltonianSpec(n),
                 HamiltonianSpec(n, lambda_pair={p: lam() for p in rng.sample(pairs, len(pairs) // 2)},
                                 lambda_quad={q: lam() for q in quads}),
                 HamiltonianSpec(n, diag_lambdas=[[lam() for _ in range(n)] for _ in range(3)])]
        for spec in specs:
            assert build_hamiltonian(spec) == arithmetic_hamiltonian(spec), spec
        u = radial_sq(n) * Fraction(1, 2)
        for k in range(5):
            want = sum((u ** i * c for i, c in enumerate(hermite_coeffs(k))), Polynomial.zero(n))
            assert ground_state(k, n) == PolyGauss(want, 1), (n, k)


def test_build_hamiltonian_insertion_order_invariant():
    a = HamiltonianSpec(4, lambda_pair={(1, 2): Fraction(1), (3, 4): Fraction(2)})
    b = HamiltonianSpec(4, lambda_pair={(3, 4): Fraction(2), (1, 2): Fraction(1)})
    assert build_hamiltonian(a) == build_hamiltonian(b)


def test_energy_zero_couplings():
    spec = HamiltonianSpec(3)
    for k in (1, 2, 3):
        assert energy(k, QuantumNumber((4, 1, 0)), UNIT3, spec) == Fraction(3, 2)


def test_energy_ground_level():
    spec = HamiltonianSpec(3, diag_lambdas=((Fraction(2), Fraction(3), Fraction(5)),
                                            (Fraction(1), Fraction(1), Fraction(1))))
    assert energy(1, QuantumNumber((0, 0, 0)), UNIT3, spec) == Fraction(3, 2)


def test_energy_hand_value():
    spec = HamiltonianSpec(3, diag_lambdas=((Fraction(1), Fraction(0), Fraction(0)),))
    assert energy(1, QuantumNumber((2, 0, 0)), UNIT3, spec) == Fraction(7, 2)


def test_energy_linear_in_theta():
    spec = HamiltonianSpec(3, diag_lambdas=((Fraction(1), Fraction(2), Fraction(3)),))
    cfg2 = ThetaConfig(3, (Fraction(2), Fraction(2), Fraction(2)))
    nbar = QuantumNumber((1, 1, 1))
    for k in (1, 2, 3):
        assert energy(k, nbar, cfg2, spec) == 2 * energy(k, nbar, UNIT3, spec)


def test_energy_index_validation():
    with pytest.raises(ValueError):
        energy(4, QuantumNumber((0, 0, 0)), UNIT3, HamiltonianSpec(3))


@pytest.mark.parametrize("nbar", [(), (1, 2), (1, 2, 0, 0)])
def test_energy_rejects_nbar_of_another_dimension(nbar):
    with pytest.raises(ValueError, match="^nbar must have 3 components$"):
        energy(1, QuantumNumber(nbar), UNIT3, HamiltonianSpec(3))


@pytest.mark.parametrize("scale", [0.5, 1.0, Fraction(1), True, False, "1", None])
def test_polygauss_scale_must_be_an_int(scale):
    with pytest.raises(ValueError, match="scale must be an int"):
        PolyGauss(x(1, 3), scale)


def test_quantum_number_validation():
    with pytest.raises(ValueError):
        QuantumNumber((-1, 0, 0))
    # int() would truncate 1.5 to 1 and report the energy of another state
    for nbar, component in (((1.5, 0, 0), 1), ((0, Fraction(1, 2), 0), 2), ((0, 0, 2.0), 3)):
        with pytest.raises(ValueError, match=f"occupation number {component} must be an integer"):
            QuantumNumber(nbar)
    assert QuantumNumber((2, 3, 0)).norm == 5


def test_hermite_recurrence():
    for k in range(1, 8):
        prev = hermite_coeffs(k - 1)
        cur = hermite_coeffs(k)
        nxt = hermite_coeffs(k + 1)
        # H_{k+1} = 2u H_k - 2k H_{k-1}
        lhs = nxt
        rhs = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            rhs[i] -= 2 * k * c
        assert lhs == rhs


def test_ground_state_examples():
    n = 3
    assert ground_state(0, n).poly == Polynomial.constant(1, n)
    assert ground_state(1, n).poly == radial_sq(n)
    assert ground_state(2, n).poly == radial_sq(n) * radial_sq(n) - 2
    assert ground_state(0, n).scale == 1


def test_ground_state_hermite_recurrence_composed():
    n = 3
    u = radial_sq(n) * Fraction(1, 2)
    for k in range(1, 5):
        composed_next = ground_state(k + 1, n).poly
        composed = ground_state(k, n).poly
        composed_prev = ground_state(k - 1, n).poly
        assert composed_next == u * composed * 2 - composed_prev * (2 * k)


def test_polygauss_derivative():
    pg = PolyGauss(Polynomial.constant(1, 3), 1)
    d = pg.diff(2)
    assert d.poly == -x(2, 3)
    assert d.scale == 1
    plain = PolyGauss(x(1, 3) ** 2, 0)
    assert plain.diff(1).poly == x(1, 3) * 2


def test_polygauss_derivative_matches_the_product_formula():
    # x_a * p is taken as an exponent shift; the derivative stays the exact
    # (d_a p - s x_a p) of the product kernel
    rng = random.Random(21)
    for n in (3, 4):
        corpus = CorpusSpec(dims=(n,))
        for _ in range(10):
            p = sample_poly(rng, n, corpus) + ground_state(rng.randint(0, 2), n).poly
            for scale in (0, 1, 3):
                for axis in range(1, n + 1):
                    got = PolyGauss(p, scale).diff(axis)
                    assert got.scale == scale
                    assert got.poly == p.diff(axis) - x(axis, n) * p * scale


def gauss_polys():
    parts = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coeffs = st.builds(ExactComplex, parts, parts, parts, parts)
    return st.integers(3, 4).flatmap(lambda n: st.dictionaries(
        st.tuples(*([st.integers(0, 3)] * n)), coeffs, max_size=6).map(
        lambda d: Polynomial(n, d)))


@given(gauss_polys(), st.integers(0, 3), st.data())
def test_polygauss_diff_is_the_product_rule(p, scale, data):
    # d_a (p w^s) = (d_a p - s x_a p) w^s, with the reference's -s x_a p
    # taken through the full scalar product
    axis = data.draw(st.integers(1, p.n))
    got = PolyGauss(p, scale).diff(axis)
    assert got.scale == scale
    assert got.poly == p.diff(axis) + p.times_coordinate(axis) * -scale


def test_polygauss_diff_drops_cancelled_terms():
    # d_1 (x1^2 + 2) = 2 x1 cancels against -x1 * 2: no zero term is stored
    got = PolyGauss(x(1, 3) ** 2 + 2, 1).diff(1)
    assert got.poly.terms == (x(1, 3) ** 3 * -1).terms
    got = PolyGauss(x(1, 3) * 4 + x(2, 3), 2).diff(2)
    assert got.poly == 1 - x(2, 3) ** 2 * 2 - x(1, 3) * x(2, 3) * 8


def hex_pair(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


big_parts = st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=12),
                      st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**70)))
coordinates = st.one_of(st.integers(-4, 4),
                        st.fractions(min_value=-2, max_value=2, max_denominator=10**20),
                        st.floats(min_value=-2, max_value=2, allow_subnormal=False))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * n),
                    st.builds(ExactComplex, big_parts, big_parts, big_parts, big_parts),
                    max_size=5).map(lambda d: Polynomial(n, d)),
    st.lists(st.tuples(*[coordinates] * n), max_size=4))), st.integers(0, 3))
def test_polygauss_eval_reads_the_floats_of_the_exact_values(poly_points, scale):
    # the floats come straight from the exact sums, bit for bit the floats
    # of the exact values times the weights; the sums need not be in lowest
    # terms, because each part is one correctly rounded int / int division
    p, raw = poly_points
    points = prepare_points(raw, p.n)
    want = [v.to_complex() * w for v, w in zip(p.eval_exact(points), points.gaussian(scale))]
    got = PolyGauss(p, scale).eval(points)
    assert list(map(hex_pair, got)) == list(map(hex_pair, want))
    assert list(map(hex_pair, PolyGauss(p, scale).eval(raw))) == list(map(hex_pair, want))


def test_residual_report_bound_is_exact_for_raw_and_prepared_points():
    # |x|^2 <= 16 + 10^-9, checked on the exact numerators: 1/31623^2 is
    # just below 10^-9 and 1/31622^2 just above it
    spec, cfg = HamiltonianSpec(3), UNIT3
    inside = [[(4, 0, 0)], [(Fraction(12, 5), Fraction(-16, 5), 0)], [(-4, Fraction(1, 31623), 0)],
              [(4.0, 0.0, 0.0)]]
    outside = [[(0, 0, Fraction(4 * 10**9 + 1, 10**9))], [(-4, Fraction(1, 31622), 0)],
               [(0, 0, 0), (3, 3, 0)]]
    for points in inside:
        for given_points in (points, prepare_points(points, 3)):
            report = residual_report(spec, cfg, 0, 0, given_points)
            assert report["points"] == [[float(v) for v in p] for p in points]
    for points in outside:
        for given_points in (points, prepare_points(points, 3)):
            with pytest.raises(ValueError, match=r"^sample points must satisfy \|x\| <= 4$"):
                residual_report(spec, cfg, 0, 0, given_points)
    on = SamplePoints([[400, 0, 0], [-240, 320, 0]], 3, 100)
    assert residual_report(spec, cfg, 0, 0, on)["points"] == [[4.0, 0.0, 0.0], [-2.4, 3.2, 0.0]]
    with pytest.raises(ValueError, match="must satisfy"):
        residual_report(spec, cfg, 0, 0, SamplePoints([[400, 1, 0]], 3, 100))
    with pytest.raises(ValueError, match="^at least one sample point is required$"):
        residual_report(spec, cfg, 0, 0, SamplePoints([], 3, 100))
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        residual_report(spec, cfg, 0, 0, SamplePoints([[0, 0, 0, 0]], 4, 100))


def test_points_over_a_denominator_match_the_fractions():
    # coordinates over a denominator give the tables, weights and values of
    # the equal Fractions: each point is put in lowest terms
    rng = random.Random("points-over")
    for den in (1, 100, 12, 2**61):
        nums = [[rng.randint(-3 * den, 3 * den) for _ in range(3)] for _ in range(8)]
        nums += [[0, 0, 0], [den, -den, 2 * den], [den // 2, 0, den], [Fraction(den, 3), 7, -1]]
        over, fractions = SamplePoints(nums, 3, den), SamplePoints([
            [Fraction(v) / den for v in p] for p in nums], 3)
        assert over.coordinates() == fractions.coordinates()
        assert all(math.gcd(*nums, D) == 1 for nums, D in over.coordinates())
        assert over.gaussian(2) == fractions.gaussian(2)
        p = (x(1, 3) - Fraction(1, 3)) ** 3 * x(2, 3) + ExactComplex(0, 1, Fraction(1, 2))
        assert p.eval_exact(over) == p.eval_exact(fractions)
    with pytest.raises(ValueError, match="^point 1: dimension mismatch$"):
        SamplePoints([[1, 2, 3], [1, 2]], 3, 100)


def test_polygauss_eval_matches_direct():
    pg = PolyGauss(x(1, 3) ** 2, 1)
    pt = (Fraction(1, 2), Fraction(0), Fraction(1))
    got = pg.eval([pt])[0]
    want = 0.25 * math.exp(-float(Fraction(5, 8)))
    assert abs(got - want) < 1e-15
    # the weight is exp of the float nearest the exact exponent, bit for bit
    rng = random.Random(3)
    for scale in (1, 2, 3):
        pg = PolyGauss(x(1, 3) * x(2, 3) - Fraction(1, 3), scale)
        for _ in range(200):
            pt = [Fraction(rng.randint(-400, 400), rng.choice((1, 3, 100, 7))) for _ in range(3)]
            exponent = Fraction(scale) * sum(v * v for v in pt) / 2
            assert pg.eval([pt])[0] == (pg.poly.eval_exact([pt])[0].to_complex()
                                        * math.exp(-float(exponent)))


def test_polygauss_eval_float_point_is_exact():
    # a float coordinate is converted exactly, so the value is the one at
    # the equal Fraction point, bit for bit
    a, _ = complex_pair(1, 2, 3)
    pg = PolyGauss(a * ground_state(2, 3).poly * Fraction(1, 3), 1)
    for pt in [(0.1, -1.3, 0.7), (1.0, 0.25, -2.5), (0.3, 0.0, 1e-3)]:
        assert pg.eval([pt])[0] == pg.eval([tuple(Fraction(v) for v in pt)])[0]


def test_star_polygauss_order0_is_pointwise():
    psi = ground_state(1, 3)
    out = star_polygauss_truncated([psi, psi, psi], UNIT3, 0)
    product = psi.poly * psi.poly * psi.poly
    assert out.poly == product
    assert out.scale == 3


def test_star_polygauss_theta_zero():
    cfg0 = ThetaConfig(3, (Fraction(0),) * 3)
    psi = ground_state(2, 3)
    out = star_polygauss_truncated([psi, psi, psi], cfg0, 4)
    assert out.poly == psi.poly ** 3


def test_star_polygauss_constant_factors_first_order_cancels():
    # all-constant slots: forward and reverse summands produce the same
    # x-product, so the first-order increment cancels exactly
    cfg = ThetaConfig(3, (Fraction(1), Fraction(2), Fraction(-1)))
    consts = [PolyGauss(Polynomial.constant(c, 3), 1) for c in (2, 3, 5)]
    r0 = star_polygauss_truncated(consts, cfg, 0)
    r1 = star_polygauss_truncated(consts, cfg, 1)
    assert r0.poly == Polynomial.constant(30, 3)
    assert r1.poly == r0.poly
    assert star_increments(consts, cfg, 1)[1].is_zero()


def test_star_polygauss_hand_first_order():
    # single nonzero theta, one linear slot: exactly two operator summands
    cfg = ThetaConfig(3, (Fraction(1), Fraction(0), Fraction(0)))
    f = PolyGauss(x(1, 3), 0)   # plain polynomial slot
    g = PolyGauss(Polynomial.constant(1, 3), 1)
    h = PolyGauss(Polynomial.constant(1, 3), 1)
    out = star_polygauss_truncated([f, g, h], cfg, 1)
    # order 0: x1 * w^2; order 1: (i/2)[d1(x1) d2(w) d3(w) - d1(x1) d3(w) d2(w)] = 0
    assert out.poly == x(1, 3)
    assert out.scale == 2
    # with distinct polynomial slots the increment survives:
    # forward (d1,d2,d3): 1 * d2(x2 w) * d3(w) = (1 - x2^2)(-x3) w^2
    # reverse (d1,d3,d2): 1 * d3(x2 w) * d2(w) = (-x3 x2)(-x2) w^2
    from nstar.scalars import ExactComplex
    g2 = PolyGauss(x(2, 3), 1)
    out2 = star_polygauss_truncated([f, g2, h], cfg, 1)
    fwd = (Polynomial.constant(1, 3) - x(2, 3) ** 2) * (-x(3, 3))
    rev = (-x(3, 3) * x(2, 3)) * (-x(2, 3))
    expected = x(1, 3) * x(2, 3) + (fwd - rev) * ExactComplex(0, Fraction(1, 2))
    assert out2.poly == expected


def double_factorial(k):
    return math.prod(range(k, 0, -2))


# (n, theta, s) -> increments 0, 2, 4, ... of the star series of n copies of
# psi_s = exp(-s|x|^2/2), at the origin
GAUSSIAN_SERIES = {
    (3, 1, 1): [1, Fraction(3, 4), Fraction(15, 16), Fraction(105, 64), Fraction(945, 256)],
    (3, 1, 2): [1, 6, 60, 840, 15120],
    (3, Fraction(3, 2), 1): [1, Fraction(27, 16), Fraction(1215, 256), Fraction(76545, 4096)],
    (4, 1, 1): [1, -1, Fraction(13, 4), -24],
    (5, 1, 1): [1, Fraction(5, 4), Fraction(125, 16)],
}


@pytest.mark.parametrize("n, theta, s", list(GAUSSIAN_SERIES))
@pytest.mark.parametrize("shared", [True, False], ids=["one-object", "copies"])
def test_gaussian_series_grows_without_bound_pinned(n, theta, s, shared):
    # the series of star_polygauss_truncated with a Gaussian in every slot
    # diverges: at n = 3, uniform theta, increment 2k at the origin is
    # (2k+1)!! (theta^2 s^3 / 4)^k; n = 4 alternates and n = 5 grows.  Every
    # odd increment is zero: the slots read the same backwards.  One object
    # in every slot walks the merged plan, copies walk the plan itself
    pins = GAUSSIAN_SERIES[n, theta, s]
    if n == 3:
        assert pins == [double_factorial(2 * k + 1) * (Fraction(theta) ** 2 * s ** 3 / 4) ** k
                        for k in range(len(pins))]
    psi = PolyGauss(Polynomial.constant(1, n), s)
    factors = [psi] * n if shared else [PolyGauss(Polynomial.constant(1, n), s) for _ in range(n)]
    incs = star_increments(factors, ThetaConfig(n, (theta,) * n), 2 * len(pins) - 2)
    assert all(inc.is_zero() for inc in incs[1::2])
    assert [inc.terms.get((0,) * n, 0) for inc in incs[::2]] == pins


def test_star_increments_agree_with_star_n():
    # the series engine's two callers: polynomials embedded at scale 0 give
    # increments that sum to star_n and vanish past the smallest degree
    rng = random.Random(17)
    for n in (3, 4):
        corpus = CorpusSpec(dims=(n,), max_degree=3)
        for _ in range(4):
            polys = [sample_poly(rng, n, corpus) for _ in range(n)]
            theta = list(sample_theta(rng, n))
            theta[rng.randrange(n)] = Fraction(0)
            cfg = ThetaConfig(n, tuple(theta))
            bound = min(p.degree() for p in polys)
            incs = star_increments([PolyGauss(p, 0) for p in polys], cfg, bound + 2)
            total = Polynomial.zero(n)
            for inc in incs[:bound + 1]:
                total = total + inc
            assert total == star_n(polys, cfg)
            assert all(inc.is_zero() for inc in incs[bound + 1:])


def test_star_increments_theta_zero_is_pointwise():
    cfg0 = ThetaConfig(3, (Fraction(0),) * 3)
    f = PolyGauss(x(1, 3) ** 2 + x(2, 3), 0)
    psi = ground_state(1, 3)
    incs = star_increments([f, psi, psi], cfg0, 3)
    assert incs[0] == f.poly * psi.poly * psi.poly
    assert all(inc.is_zero() for inc in incs[1:])


def test_residual_report_rows():
    spec = HamiltonianSpec(3)
    rng = random.Random(4)
    pts = [tuple(Fraction(rng.randint(-200, 200), 100) for _ in range(3)) for _ in range(6)]
    rep = residual_report(spec, UNIT3, 0, 3, pts)
    assert rep["num_points"] == 6
    assert [row["order"] for row in rep["rows"]] == [0, 1, 2, 3]
    assert rep["energy"] == "3/2"
    # order-0 row equals the pointwise product evaluated by hand
    a12, _ = complex_pair(1, 2, 3)
    psi = ground_state(0, 3)
    hand = PolyGauss(a12 * psi.poly * psi.poly, 2)
    for pi, p in enumerate(pts):
        assert rep["ground_residuals"][0][pi] == abs(hand.eval([p])[0])


def test_series_orders_must_be_non_negative():
    psi = ground_state(0, 3)
    with pytest.raises(ValueError, match="order must be non-negative"):
        star_increments([psi] * 3, UNIT3, -1)
    with pytest.raises(ValueError, match="order must be non-negative"):
        list(star_series([x(1, 3)] * 3, UNIT3, -1))
    assert list(star_series([x(1, 3)] * 3, UNIT3, 0)) == [x(1, 3) ** 3]


def test_residual_report_checks_order_and_dimension_through_the_series_and_energy():
    points = [(0, 0, 0)]
    with pytest.raises(ValueError, match="^order must be non-negative$"):
        residual_report(HamiltonianSpec(3), UNIT3, 0, -1, points)
    with pytest.raises(ValueError, match="^spec dimension mismatch$"):
        residual_report(HamiltonianSpec(4), UNIT3, 0, 1, points)
    with pytest.raises(ValueError, match=r"^k must be in 1\.\.3, got 4$"):
        energy(4, QuantumNumber((0, 0, 0)), UNIT3, HamiltonianSpec(3))
    with pytest.raises(ValueError, match="^diagonal coefficient rows must have 3 entries, got 2$"):
        HamiltonianSpec(3, diag_lambdas=((1, 1, 1), (1, 1)))


def test_residual_report_point_validation():
    spec = HamiltonianSpec(3)
    with pytest.raises(ValueError):
        residual_report(spec, UNIT3, 0, 1, [(5, 0, 0)])
    with pytest.raises(ValueError):
        residual_report(spec, UNIT3, 0, 1, [(1, 0)])


class Unbounded(PolyGauss):
    """A slot value that hides its degree, so the engine applies no series
    bound and walks the composition plan of every order."""

    def degree(self):
        return None


def test_series_bound_changes_no_increment(monkeypatch):
    # the increments past the smallest degree among the scale-0 factors are
    # the ones a full walk finds, and the walk asks the composition plan for
    # no order past that degree; with one state object in every slot from 2
    # on (the first and third cases) every odd order walks an empty plan
    asked = []
    plan = starcore._plan
    monkeypatch.setattr(starcore, "_plan", lambda n, m, classes: asked.append(m) or plan(n, m, classes))
    a, _ = complex_pair(1, 2, 3)
    cases = [(UNIT3, PolyGauss(a, 0), [ground_state(0, 3)] * 2, 4),
             (ThetaConfig(3, (1, Fraction(1, 2), 2)), PolyGauss(radial_sq(3), 0),
              [ground_state(1, 3), PolyGauss(x(2, 3) - 1, 0)], 4),
             (ThetaConfig(4, (1, 2, 1, 1)), PolyGauss(x(3, 4) ** 2 * x(1, 4), 0),
              [ground_state(1, 4)] * 3, 5)]
    for (cfg, lead, rest, order), mirrored in zip(cases, (True, False, True)):
        bound = min(f.degree() for f in [lead, *rest] if f.scale == 0)
        assert bound < order
        asked.clear()
        bounded = star_increments([lead, *rest], cfg, order)
        assert asked == list(range(bound + 1))
        if mirrored:
            derivs = starcore._derivative_memos([lead, *rest], cfg.n)
            walked = list(starcore._live_chains(cfg, order, bound, derivs))
            assert all(walked[m] == ([], []) for m in range(1, bound + 1, 2))
        asked.clear()
        full = star_increments([Unbounded(f.poly, f.scale) for f in [lead, *rest]], cfg, order)
        assert asked == list(range(order + 1))
        assert bounded == full
        assert all(inc.is_zero() for inc in bounded[bound + 1:])
    with pytest.raises(ValueError):  # no factor of scale 0, no order
        list(star_series([ground_state(0, 3)] * 3, UNIT3))


def test_residual_report_prepares_its_points_once(monkeypatch):
    # every running sum of the three series is evaluated at one prepared
    # set of points, built once per report
    built, evaluated = [], []
    init, evaluate = SamplePoints.__init__, PolyGauss.eval
    monkeypatch.setattr(SamplePoints, "__init__",
                        lambda self, points, n: built.append(n) or init(self, points, n))
    monkeypatch.setattr(PolyGauss, "eval",
                        lambda self, points: evaluated.append(points) or evaluate(self, points))
    cfg = ThetaConfig(4, (1, 2, 1, Fraction(1, 2)))
    spec = HamiltonianSpec(4, diag_lambdas=((1, 1, 2, 1), (Fraction(1, 4),) * 4))
    points = [(1, Fraction(-1, 2), 0.25, 0), (0, 0, 0, 0), (Fraction(3, 2), 1, -1, 2)]
    residual_report(spec, cfg, 0, 4, points)
    assert built == [4]
    assert len(evaluated) >= 3 and all(p is evaluated[0] for p in evaluated)
    assert isinstance(evaluated[0], SamplePoints) and len(evaluated[0]) == len(points)


def test_repeated_factor_is_differentiated_once(monkeypatch):
    # residual_report passes one state object in n - 1 slots; its
    # derivatives are computed once for all of them, against once per slot
    # for equal but distinct copies, and the increments are the same
    calls = []
    diff = PolyGauss.diff
    monkeypatch.setattr(PolyGauss, "diff", lambda self, axis: calls.append(axis) or diff(self, axis))
    for n, theta in ((3, (1, Fraction(1, 2), 2)), (4, (1, 2, 1, Fraction(3, 2)))):
        cfg = ThetaConfig(n, theta)
        lead = PolyGauss(build_hamiltonian(HamiltonianSpec(n, diag_lambdas=((1,) * n, (2,) * n))), 0)
        for k in (0, 1):
            psi = ground_state(k, n)
            calls.clear()
            shared = star_increments([lead] + [psi] * (n - 1), cfg, 4)
            shared_calls = len(calls)
            calls.clear()
            copies = [PolyGauss(Polynomial(n, psi.poly.terms), psi.scale) for _ in range(n - 1)]
            distinct = star_increments([lead] + copies, cfg, 4)
            assert 0 < shared_calls < len(calls), (n, k)
            assert shared == distinct


def test_ground_state_equations_exact_closed_forms():
    # n = 3, theta = 1, k = 0, H = |x|^2.  The annihilation product is the
    # pointwise one: its first increment cancels (the trailing factors are
    # equal) and the series stops at the degree of a.  The eigen residual
    # at the closed-form energy 3/2 is (2|x|^2 - 3) exp(-|x|^2), not zero.
    spec = HamiltonianSpec(3)
    psi = ground_state(0, 3)
    assert psi.poly == Polynomial.constant(1, 3)
    a, _ = complex_pair(1, 2, 3)
    incs = star_increments([PolyGauss(a, 0), psi, psi], UNIT3, 4)
    assert incs[0] == a * psi.poly * psi.poly
    assert all(inc.is_zero() for inc in incs[1:])
    H = build_hamiltonian(spec)
    assert H == radial_sq(3)
    E = energy(1, QuantumNumber((0, 0, 0)), UNIT3, spec)
    assert E == Fraction(3, 2)
    ham = star_polygauss_truncated([PolyGauss(H, 0), psi, psi], UNIT3, 4)
    one = star_polygauss_truncated([PolyGauss(Polynomial.constant(1, 3), 0), psi, psi],
                                   UNIT3, 4)
    assert ham.scale == one.scale == 2
    assert ham.poly - one.poly * E == radial_sq(3) * 2 - 3


def reevaluated_tables(spec, cfg, k, order, points):
    """Reference for residual_report's float tables: the running sum of
    each series evaluated afresh at every order."""
    n = cfg.n
    psi = ground_state(k, n)
    a, _ = complex_pair(1, 2, n)
    Ec = float(energy(1, QuantumNumber((k,) + (0,) * (n - 1)), cfg, spec))

    def values(lead):
        running, rows = Polynomial.zero(n), []
        for inc in star_increments([PolyGauss(lead, 0)] + [psi] * (n - 1), cfg, order):
            running = running + inc
            rows.append([PolyGauss(running, n - 1).eval([p])[0] for p in points])
        return rows

    ann = values(a)
    ham = values(build_hamiltonian(spec))
    one = values(Polynomial.constant(1, n))
    ground = [[abs(v) for v in row] for row in ann]
    eigen = [[abs(h - Ec * o) for h, o in zip(hrow, orow)] for hrow, orow in zip(ham, one)]
    return ground, eigen


def test_residual_report_tables_match_reevaluation():
    rng = random.Random(8)
    cases = [(HamiltonianSpec(3), UNIT3, 0, 4),
             (HamiltonianSpec(4, diag_lambdas=((1, Fraction(1, 2), 2, 1),
                                               (Fraction(1, 4), 0, Fraction(1, 8), 1))),
              ThetaConfig(4, (1, 2, 1, 1)), 1, 4),
             (HamiltonianSpec(3, lambda_pair={(1, 2): Fraction(1, 3)}),
              ThetaConfig(3, (Fraction(1, 2), Fraction(3, 2), 2)), 2, 5),
             (HamiltonianSpec(3, diag_lambdas=((0, 0, 0),)), UNIT3, 0, 2)]  # H = 0
    for spec, cfg, k, order in cases:
        points = [tuple(Fraction(rng.randint(-200, 200), 100) for _ in range(cfg.n))
                  for _ in range(5)]
        points.append(tuple(Fraction(v) for v in (0.5, -1.25, 0.0, 1.0)[:cfg.n]))
        report = residual_report(spec, cfg, k, order, points)
        ground, eigen = reevaluated_tables(spec, cfg, k, order, points)
        assert report["ground_residuals"] == ground  # float equality: bit for bit
        assert report["eigen_residuals"] == eigen
