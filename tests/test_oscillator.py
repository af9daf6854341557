import math
import random
from fractions import Fraction

import pytest

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
    residual_report,
    star_increments,
    star_polygauss_truncated,
)
from nstar.polynomials import Polynomial, x
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


def test_quantum_number_validation():
    with pytest.raises(ValueError):
        QuantumNumber((-1, 0, 0))
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


def test_polygauss_eval_matches_direct():
    pg = PolyGauss(x(1, 3) ** 2, 1)
    pt = (Fraction(1, 2), Fraction(0), Fraction(1))
    got = pg.eval(pt)
    want = 0.25 * math.exp(-float(Fraction(5, 8)))
    assert abs(got - want) < 1e-15
    # the weight is exp of the float nearest the exact exponent, bit for bit
    rng = random.Random(3)
    for scale in (1, 2, 3):
        pg = PolyGauss(x(1, 3) * x(2, 3) - Fraction(1, 3), scale)
        for _ in range(200):
            pt = [Fraction(rng.randint(-400, 400), rng.choice((1, 3, 100, 7))) for _ in range(3)]
            exponent = Fraction(scale) * sum(v * v for v in pt) / 2
            assert pg.eval(pt) == pg.poly.eval_exact(pt).to_complex() * math.exp(-float(exponent))


def test_polygauss_eval_float_point_is_exact():
    # a float coordinate is converted exactly, so the value is the one at
    # the equal Fraction point, bit for bit
    a, _ = complex_pair(1, 2, 3)
    pg = PolyGauss(a * ground_state(2, 3).poly * Fraction(1, 3), 1)
    for pt in [(0.1, -1.3, 0.7), (1.0, 0.25, -2.5), (0.3, 0.0, 1e-3)]:
        assert pg.eval(pt) == pg.eval(tuple(Fraction(v) for v in pt))


def test_star_polygauss_order0_is_pointwise():
    psi = ground_state(1, 3)
    out, mag = star_polygauss_truncated([psi, psi, psi], UNIT3, 0)
    product = psi.poly * psi.poly * psi.poly
    assert out.poly == product
    assert out.scale == 3
    assert mag == product.max_coeff_magnitude()


def test_star_polygauss_theta_zero():
    cfg0 = ThetaConfig(3, (Fraction(0),) * 3)
    psi = ground_state(2, 3)
    out, _ = star_polygauss_truncated([psi, psi, psi], cfg0, 4)
    assert out.poly == psi.poly ** 3


def test_star_polygauss_constant_factors_first_order_cancels():
    # all-constant slots: forward and reverse summands produce the same
    # x-product, so the first-order increment cancels exactly
    cfg = ThetaConfig(3, (Fraction(1), Fraction(2), Fraction(-1)))
    consts = [PolyGauss(Polynomial.constant(c, 3), 1) for c in (2, 3, 5)]
    r0, _ = star_polygauss_truncated(consts, cfg, 0)
    r1, mag1 = star_polygauss_truncated(consts, cfg, 1)
    assert r0.poly == Polynomial.constant(30, 3)
    assert r1.poly == r0.poly
    assert mag1 == 0.0


def test_star_polygauss_hand_first_order():
    # single nonzero theta, one linear slot: exactly two operator summands
    cfg = ThetaConfig(3, (Fraction(1), Fraction(0), Fraction(0)))
    f = PolyGauss(x(1, 3), 0)   # plain polynomial slot
    g = PolyGauss(Polynomial.constant(1, 3), 1)
    h = PolyGauss(Polynomial.constant(1, 3), 1)
    out, _ = star_polygauss_truncated([f, g, h], cfg, 1)
    # order 0: x1 * w^2; order 1: (i/2)[d1(x1) d2(w) d3(w) - d1(x1) d3(w) d2(w)] = 0
    assert out.poly == x(1, 3)
    assert out.scale == 2
    # with distinct polynomial slots the increment survives:
    # forward (d1,d2,d3): 1 * d2(x2 w) * d3(w) = (1 - x2^2)(-x3) w^2
    # reverse (d1,d3,d2): 1 * d3(x2 w) * d2(w) = (-x3 x2)(-x2) w^2
    from nstar.scalars import ExactComplex
    g2 = PolyGauss(x(2, 3), 1)
    out2, _ = star_polygauss_truncated([f, g2, h], cfg, 1)
    fwd = (Polynomial.constant(1, 3) - x(2, 3) ** 2) * (-x(3, 3))
    rev = (-x(3, 3) * x(2, 3)) * (-x(2, 3))
    expected = x(1, 3) * x(2, 3) + (fwd - rev) * ExactComplex(0, Fraction(1, 2))
    assert out2.poly == expected


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
        assert rep["ground_residuals"][0][pi] == abs(hand.eval(p))


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
    # no order past that degree
    asked = []
    plan = starcore._plan
    monkeypatch.setattr(starcore, "_plan", lambda n, m: asked.append(m) or plan(n, m))
    a, _ = complex_pair(1, 2, 3)
    cases = [(UNIT3, PolyGauss(a, 0), [ground_state(0, 3)] * 2, 4),
             (ThetaConfig(3, (1, Fraction(1, 2), 2)), PolyGauss(radial_sq(3), 0),
              [ground_state(1, 3), PolyGauss(x(2, 3) - 1, 0)], 4),
             (ThetaConfig(4, (1, 2, 1, 1)), PolyGauss(x(3, 4) ** 2 * x(1, 4), 0),
              [ground_state(1, 4)] * 3, 5)]
    for cfg, lead, rest, order in cases:
        bound = min(f.degree() for f in [lead, *rest] if f.scale == 0)
        asked.clear()
        bounded = star_increments([lead, *rest], cfg, order)
        assert max(asked) == bound < order
        asked.clear()
        full = star_increments([Unbounded(f.poly, f.scale) for f in [lead, *rest]], cfg, order)
        assert max(asked) == order
        assert bounded == full
        assert all(inc.is_zero() for inc in bounded[bound + 1:])
    with pytest.raises(ValueError):  # no factor of scale 0, no order
        list(star_series([ground_state(0, 3)] * 3, UNIT3))


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
    ham, _ = star_polygauss_truncated([PolyGauss(H, 0), psi, psi], UNIT3, 4)
    one, _ = star_polygauss_truncated([PolyGauss(Polynomial.constant(1, 3), 0), psi, psi],
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
            rows.append([PolyGauss(running, n - 1).eval(p) for p in points])
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
