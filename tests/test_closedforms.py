import random
from fractions import Fraction

import pytest

from nstar.audit import CorpusSpec, sample_poly, sample_theta
from nstar.closedforms import (
    SlotSpec,
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
    with pytest.raises(ValueError):
        SlotSpec(3, 4, 1)
    with pytest.raises(ValueError):
        SlotSpec(3, 1, 0)


def test_nary_slot_matches_first_slot_form():
    rng = random.Random(17)
    corpus = CorpusSpec()
    for _ in range(15):
        theta = sample_theta(rng, 3)
        cfg = ThetaConfig(3, theta)
        f = sample_poly(rng, 3, corpus)
        g = sample_poly(rng, 3, corpus)
        k = rng.randint(1, 3)
        assert star_coord_slot(SlotSpec(3, 1, k), (), (f, g), cfg) == \
            star_coord_first(k, f, g, cfg)


def test_nary_slot_constants():
    cfg = GEN3
    consts = (Polynomial.constant(2, 3), Polynomial.constant(3, 3))
    assert star_coord_slot(SlotSpec(3, 2, 1), consts[:1], consts[1:], cfg) == \
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
        closed = star_coord_slot(SlotSpec(4, m, p), fs, gs, cfg)
        assert closed == star_n(list(fs) + [x(p, 4)] + list(gs), cfg)


def test_nary_slot_arity_mismatch():
    with pytest.raises(ValueError):
        star_coord_slot(SlotSpec(3, 2, 1), (), (x(1, 3), x(2, 3)), GEN3)
