import random
from fractions import Fraction

import pytest

from nstar.audit import CorpusSpec, sample_poly, sample_theta
from nstar.closedforms import (
    complex_pair,
    star_complex_form,
    star_coord_first,
    star_coord_last,
    star_coord_middle,
    star_coord_slot,
    star_two_coords,
)
from nstar.polynomials import Polynomial, x
from nstar.scalars import ExactComplex, HALF_SQRT2, I, SQRT2
from nstar.starcore import ThetaConfig, sigma_power, star_n


def theta3(a, b, c):
    return ThetaConfig(3, (Fraction(a), Fraction(b), Fraction(c)))


GEN3 = theta3(1, 2, Fraction(-1, 2))


def const_i_half(th):
    return Polynomial.constant(ExactComplex(0, Fraction(th, 2)), 3)


def test_coord_first_examples():
    assert star_coord_first(1, x(2, 3), x(3, 3), GEN3) == \
        x(1, 3) * x(2, 3) * x(3, 3) + const_i_half(1)
    g = x(1, 3) ** 2 + x(3, 3)
    assert star_coord_first(1, Polynomial.constant(1, 3), g, GEN3) == x(1, 3) * g
    assert star_coord_first(2, x(3, 3), x(1, 3), GEN3) == \
        x(1, 3) * x(2, 3) * x(3, 3) + const_i_half(2)


def test_coord_middle_examples():
    assert star_coord_middle(2, x(1, 3), x(3, 3), GEN3) == \
        x(1, 3) * x(2, 3) * x(3, 3) + const_i_half(1)
    f = x(2, 3) * x(3, 3)
    c = Polynomial.constant(4, 3)
    assert star_coord_middle(1, c, f, GEN3) == x(1, 3) * c * f
    assert star_coord_middle(1, x(2, 3), x(3, 3), GEN3) == \
        x(1, 3) * x(2, 3) * x(3, 3) - const_i_half(2)


def test_coord_last_examples():
    assert star_coord_last(3, x(1, 3), x(2, 3), GEN3) == \
        x(1, 3) * x(2, 3) * x(3, 3) + const_i_half(1)
    g = x(1, 3) + x(2, 3) ** 2
    c = Polynomial.constant(-2, 3)
    assert star_coord_last(2, c, g, GEN3) == x(2, 3) * c * g
    assert star_coord_last(1, x(2, 3), x(3, 3), GEN3) == \
        x(1, 3) * x(2, 3) * x(3, 3) + const_i_half(2)


def test_coord_axis_out_of_range():
    with pytest.raises(ValueError):
        star_coord_first(4, x(1, 3), x(2, 3), GEN3)


def test_two_coords_examples():
    f = x(3, 3)
    assert star_two_coords(1, "sigma-next-middle", f, GEN3) == \
        x(1, 3) * x(2, 3) * x(3, 3) + const_i_half(1)
    assert star_two_coords(1, "sigma-next-last", f, GEN3) == \
        x(1, 3) * x(2, 3) * x(3, 3) - const_i_half(1)
    assert star_two_coords(2, "sigma2-next-middle", Polynomial.constant(1, 3), GEN3) == \
        x(1, 3) * x(2, 3)
    with pytest.raises(ValueError):
        star_two_coords(1, "bogus", f, GEN3)


def test_coord_forms_agree_with_engine():
    rng = random.Random(3)
    corpus = CorpusSpec()
    for _ in range(25):
        theta = sample_theta(rng, 3)
        cfg = ThetaConfig(3, theta)
        f = sample_poly(rng, 3, corpus)
        g = sample_poly(rng, 3, corpus)
        k = rng.randint(1, 3)
        assert star_coord_first(k, f, g, cfg) == star_n([x(k, 3), f, g], cfg)
        assert star_coord_middle(k, g, f, cfg) == star_n([g, x(k, 3), f], cfg)
        assert star_coord_last(k, f, g, cfg) == star_n([f, g, x(k, 3)], cfg)
        s1, s2 = sigma_power(k, 1, 3), sigma_power(k, 2, 3)
        assert star_two_coords(k, "sigma-next-middle", f, cfg) == \
            star_n([x(k, 3), x(s1, 3), f], cfg)
        assert star_two_coords(k, "sigma-next-last", f, cfg) == \
            star_n([x(k, 3), f, x(s1, 3)], cfg)
        assert star_two_coords(k, "sigma2-next-middle", f, cfg) == \
            star_n([x(k, 3), x(s2, 3), f], cfg)
        assert star_two_coords(k, "sigma2-next-last", f, cfg) == \
            star_n([x(k, 3), f, x(s2, 3)], cfg)


def test_complex_pair_identities():
    a, abar = complex_pair(1, 2)
    assert a == (x(1, 3) + x(2, 3) * I) * HALF_SQRT2
    assert a + abar == x(1, 3) * SQRT2
    assert a * abar == (x(1, 3) ** 2 + x(2, 3) ** 2) * Fraction(1, 2)
    with pytest.raises(ValueError):
        complex_pair(2, 2)


def test_complex_form_printed_values():
    # the printed 1/4-prefactor forms evaluated on the worked inputs
    a, abar = complex_pair(1, 2)
    f, g = x(2, 3), x(3, 3)
    quarter_i = Polynomial.constant(ExactComplex(0, Fraction(1, 4)), 3)
    assert star_complex_form("a-f-g", 1, 2, f, g, GEN3) == a * f * g + quarter_i
    assert star_complex_form("abar-f-g", 1, 2, f, g, GEN3) == abar * f * g + quarter_i
    one = Polynomial.constant(1, 3)
    assert star_complex_form("a-f-g", 1, 2, one, one, GEN3) == a
    with pytest.raises(ValueError):
        star_complex_form("a-f-g", 2, 2, f, g, GEN3)
    with pytest.raises(ValueError):
        star_complex_form("nope", 1, 2, f, g, GEN3)
    with pytest.raises(ValueError):
        star_complex_form("a-f-g-alt", 1, 2, f, g, GEN3)  # only g-f-abar has an alt form


def test_complex_form_alt_differs_in_first_factor():
    # g-f-abar-alt reads the first factor of the s(i) correction as g
    rng = random.Random(11)
    corpus = CorpusSpec()
    nonzero = 0
    for _ in range(20):
        cfg = ThetaConfig(3, sample_theta(rng, 3))
        f = sample_poly(rng, 3, corpus)
        g = sample_poly(rng, 3, corpus)
        i, j = rng.sample((1, 2, 3), 2)
        s1, s2 = sigma_power(i, 1, 3), sigma_power(i, 2, 3)
        gap = (star_complex_form("g-f-abar-alt", i, j, f, g, cfg)
               - star_complex_form("g-f-abar", i, j, f, g, cfg))
        i_th_quarter = ExactComplex(0, cfg.theta[s1 - 1] / 4)
        assert gap == (g.diff(s1) - f.diff(s1)) * f.diff(s2) * i_th_quarter
        nonzero += not gap.is_zero()
    assert nonzero >= 3


def test_complex_forms_differ_from_engine_generically():
    # the printed forms carry 1/4 where the expansion yields sqrt(2)/4, so
    # a nonzero correction term separates the two sides
    f, g = x(2, 3), x(3, 3)
    closed = star_complex_form("a-f-g", 1, 2, f, g, GEN3)
    a, _ = complex_pair(1, 2)
    engine = star_n([a, f, g], GEN3)
    assert closed != engine
    diff = closed - engine
    expected_gap = Polynomial.constant(
        ExactComplex(0, Fraction(1, 4)) - ExactComplex(0, 0, 0, Fraction(1, 4)), 3)
    assert diff == expected_gap


def test_slot_spec_validation():
    f = x(1, 3)
    with pytest.raises(ValueError):
        star_coord_slot(1, (f, f, f), (), GEN3)  # slot 4 of 3
    with pytest.raises(ValueError):
        star_coord_slot(0, (), (f, f), GEN3)
    with pytest.raises(ValueError):
        star_coord_slot(4, (), (f, f), GEN3)


def test_nary_slot_matches_first_slot_form():
    rng = random.Random(17)
    corpus = CorpusSpec()
    for _ in range(15):
        theta = sample_theta(rng, 3)
        cfg = ThetaConfig(3, theta)
        f = sample_poly(rng, 3, corpus)
        g = sample_poly(rng, 3, corpus)
        k = rng.randint(1, 3)
        assert star_coord_slot(k, (), (f, g), cfg) == \
            star_coord_first(k, f, g, cfg)


def test_nary_slot_constants():
    cfg = GEN3
    consts = (Polynomial.constant(2, 3), Polynomial.constant(3, 3))
    assert star_coord_slot(1, consts[:1], consts[1:], cfg) == \
        x(1, 3) * 6


def test_nary_slot_matches_engine_n4():
    rng = random.Random(29)
    cfg = ThetaConfig(4, (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)))
    corpus = CorpusSpec(dims=(4,))
    for _ in range(12):
        m = rng.randint(1, 4)
        p = rng.randint(1, 4)
        polys = [sample_poly(rng, 4, corpus) for _ in range(3)]
        fs, gs = tuple(polys[:m - 1]), tuple(polys[m - 1:])
        closed = star_coord_slot(p, fs, gs, cfg)
        assert closed == star_n(list(fs) + [x(p, 4)] + list(gs), cfg)


def test_nary_slot_arity_mismatch():
    with pytest.raises(ValueError):
        star_coord_slot(1, (), (x(1, 3), x(2, 3), x(3, 3)), GEN3)


# -- the shifted route against the printed formulas --------------------------
#
# The closed forms multiply by a coordinate with Polynomial.times_coordinate.
# Each test below writes the same printed formula with explicit products
# (x(k, 3) * f * g, a * f * g, slot products seeded with the constant 1) and
# requires equal polynomials.

def _random_poly(rng, n):
    """0-3 terms of degree <= 3 with fractional and sqrt(2) parts."""
    def part():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    return Polynomial(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                          ExactComplex(part(), part(), part(), part())
                          for _ in range(rng.randint(0, 3))})


def _route_inputs(n, seed, count=6):
    """Seeded (theta config, f, g) triples: zero, constants and random
    polynomials with fractional and sqrt(2) coefficients."""
    rng = random.Random(seed)
    polys = [Polynomial.zero(n), Polynomial.constant(ExactComplex(Fraction(-3, 2), 1, 0, 2), n)]
    polys += [_random_poly(rng, n) for _ in range(count)]
    out = []
    for f in polys:
        g = rng.choice(polys)
        theta = tuple(rng.choice((0, 1, -1, 2)) * Fraction(1, rng.choice((1, 2, 3)))
                      for _ in range(n))
        out.append((ThetaConfig(n, theta), f, g))
    return out


def _sigmas(k):
    return sigma_power(k, 1, 3), sigma_power(k, 2, 3)


def test_coord_forms_match_printed_products():
    for cfg, f, g in _route_inputs(3, 41):
        for k in (1, 2, 3):
            s1, s2 = _sigmas(k)
            i_half = lambda m: ExactComplex(0, Fraction(cfg.theta[m - 1], 2))
            xk = Polynomial.coordinate(k, 3)
            first = (xk * f * g
                     + (f.diff(s1) * g.diff(s2) - f.diff(s2) * g.diff(s1)) * i_half(k))
            middle = (xk * f * g - g.diff(s1) * f.diff(s2) * i_half(s1)
                      + g.diff(s2) * f.diff(s1) * i_half(s2))
            last = (xk * f * g + f.diff(s1) * g.diff(s2) * i_half(s1)
                    - f.diff(s2) * g.diff(s1) * i_half(s2))
            assert star_coord_first(k, f, g, cfg) == first
            assert star_coord_middle(k, g, f, cfg) == middle
            assert star_coord_last(k, f, g, cfg) == last


def test_two_coord_forms_match_printed_products():
    for cfg, f, _ in _route_inputs(3, 43):
        for k in (1, 2, 3):
            s1, s2 = _sigmas(k)
            i_half = ExactComplex(0, Fraction(cfg.theta[k - 1], 2))
            xk, xs1, xs2 = (Polynomial.coordinate(m, 3) for m in (k, s1, s2))
            printed = {
                "sigma-next-middle": xk * xs1 * f + f.diff(s2) * i_half,
                "sigma-next-last": xk * xs1 * f - f.diff(s2) * i_half,
                "sigma2-next-middle": xk * xs2 * f - f.diff(s1) * i_half,
                "sigma2-next-last": xk * xs2 * f + f.diff(s1) * i_half,
            }
            for variant, want in printed.items():
                assert star_two_coords(k, variant, f, cfg) == want, (variant, k)


def test_complex_forms_match_printed_products():
    for cfg, f, g in _route_inputs(3, 47, count=4):
        for i, j in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
            a = (Polynomial.coordinate(i, 3) + Polynomial.coordinate(j, 3) * I) * HALF_SQRT2
            abar = (Polynomial.coordinate(i, 3) - Polynomial.coordinate(j, 3) * I) * HALF_SQRT2
            si1, si2 = _sigmas(i)
            sj1, sj2 = _sigmas(j)
            iq = lambda m: ExactComplex(0, cfg.theta[m - 1] / 4)
            rq = lambda m: ExactComplex(cfg.theta[m - 1] / 4)
            d = Polynomial.diff
            def bracket(m):
                t1, t2 = _sigmas(m)
                return d(f, t1) * d(g, t2) - d(f, t2) * d(g, t1)
            g_f_abar_tail = (- d(g, si2) * d(f, si1) * iq(si2)
                             + d(g, sj1) * d(f, sj2) * rq(sj1) - d(g, sj2) * d(f, sj1) * rq(sj2))
            printed = {
                "a-f-g": a * f * g + bracket(i) * iq(i) - bracket(j) * rq(j),
                "abar-f-g": abar * f * g + bracket(i) * iq(i) + bracket(j) * rq(j),
                "g-f-a": (a * f * g + d(g, si1) * d(f, si2) * iq(si1)
                          - d(g, si2) * d(f, si1) * iq(si2)
                          - d(g, sj1) * d(f, sj2) * rq(sj1) + d(g, sj2) * d(f, sj1) * rq(sj2)),
                "g-f-abar": abar * f * g + d(f, si1) * d(f, si2) * iq(si1) + g_f_abar_tail,
                "g-f-abar-alt": abar * f * g + d(g, si1) * d(f, si2) * iq(si1) + g_f_abar_tail,
                "f-a-g": (a * f * g - d(f, si1) * d(g, si2) * iq(si1)
                          + d(f, si2) * d(g, si1) * iq(si2)
                          + d(f, sj1) * d(g, sj2) * rq(sj1) - d(f, sj2) * d(g, sj1) * rq(sj2)),
                "f-abar-g": (abar * f * g - d(f, si1) * d(g, si2) * iq(si1)
                             + d(f, si2) * d(g, si1) * iq(si2)
                             - d(f, sj1) * d(g, sj2) * rq(sj1) + d(f, sj2) * d(g, sj1) * rq(sj2)),
            }
            for variant, want in printed.items():
                assert star_complex_form(variant, i, j, f, g, cfg) == want, (variant, i, j)


@pytest.mark.parametrize("n", [3, 4])
def test_nary_slot_matches_printed_products(n):
    for cfg, f, g in _route_inputs(n, 53 + n, count=3):
        others = [f, g] + [_random_poly(random.Random(n), n)] * (n - 3)
        for m in range(1, n + 1):
            for p in range(1, n + 1):
                factors = others[:m - 1] + [Polynomial.coordinate(p, n)] + others[m - 1:]
                k_fwd, k_rev = (p - m) % n + 1, (p + m - n - 2) % n + 1
                fwd = rev = Polynomial.constant(1, n)
                for slot in range(1, n + 1):
                    if slot != m:
                        fwd = fwd * factors[slot - 1].diff(sigma_power(k_fwd, slot - 1, n))
                        rev = rev * factors[slot - 1].diff(
                            k_rev if slot == 1 else sigma_power(k_rev, n - slot + 1, n))
                base = Polynomial.constant(1, n)
                for factor in factors:
                    base = base * factor
                want = (base + fwd * ExactComplex(0, Fraction(cfg.theta[k_fwd - 1], 2))
                        - rev * ExactComplex(0, Fraction(cfg.theta[k_rev - 1], 2)))
                got = star_coord_slot(p, others[:m - 1], others[m - 1:], cfg)
                assert got == want, (m, p)


# -- the cached building blocks ------------------------------------------------

def _snapshot(polys):
    return [(p.n, dict(p.terms)) for p in polys]


def test_cached_coordinates_and_pairs_are_shared_and_unchanged():
    from nstar.audit import run_suite

    assert x(2, 3) is x(2, 3)
    assert x(2, 3) == Polynomial.coordinate(2, 3)
    assert complex_pair(1, 3, 3) is complex_pair(1, 3, 3)
    a, abar = complex_pair(1, 3, 3)
    assert a == (x(1, 3) + x(3, 3) * I) * HALF_SQRT2
    assert abar == (x(1, 3) - x(3, 3) * I) * HALF_SQRT2

    cached = ([x(k, n) for n in (3, 4) for k in range(1, n + 1)]
              + [p for i in (1, 2, 3) for j in (1, 2, 3) if i != j for p in complex_pair(i, j, 3)])
    fresh = ([Polynomial.coordinate(k, n) for n in (3, 4) for k in range(1, n + 1)]
             + [(Polynomial.coordinate(i, 3) + sign * Polynomial.coordinate(j, 3) * I) * HALF_SQRT2
                for i in (1, 2, 3) for j in (1, 2, 3) if i != j for sign in (1, -1)])
    assert cached == fresh
    before = _snapshot(cached)
    run_suite(seed=3, trials=5)
    assert _snapshot(cached) == before
    for cfg, f, g in _route_inputs(3, 59, count=2):
        star_coord_first(1, f, g, cfg)
        star_two_coords(2, "sigma2-next-last", f, cfg)
        star_complex_form("g-f-abar", 3, 1, f, g, cfg)
        star_coord_slot(3, (f,), (g,), cfg)
    assert _snapshot(cached) == before

    # one cached object in two slots against equal but distinct copies
    cfg = GEN3
    shared = star_n([x(1, 3), x(2, 3) * x(3, 3) + 1, x(1, 3)], cfg)
    assert _snapshot(cached) == before
    copies = star_n([Polynomial.coordinate(1, 3), x(2, 3) * x(3, 3) + 1,
                     Polynomial.coordinate(1, 3)], cfg)
    assert shared == copies
    a, _ = complex_pair(1, 2, 3)
    assert star_n([a, x(3, 3), a], cfg) == star_n([a * 1, x(3, 3), a * 1], cfg)
    assert _snapshot(cached) == before
    assert cached == fresh
