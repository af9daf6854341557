import random
from fractions import Fraction

import pytest

from nstar.audit import CorpusSpec, sample_poly, sample_theta
from nstar.polynomials import Polynomial, x
from nstar.scalars import ExactComplex, I
from nstar.starcore import (
    ThetaConfig,
    _compositions,
    conjugate_star_n,
    deformation_terms,
    sigma_power,
    star_bracket,
    star_n,
    star_n_stepwise,
)


def theta3(a, b, c):
    return ThetaConfig(3, (Fraction(a), Fraction(b), Fraction(c)))


UNIT3 = theta3(1, 1, 1)


def test_sigma_power_examples():
    assert sigma_power(1, 1, 3) == 2
    assert sigma_power(2, 1, 3) == 3
    assert sigma_power(3, 1, 3) == 1
    assert sigma_power(2, 3, 3) == 2  # order-n cycle
    assert sigma_power(1, 7, 4) == 4
    with pytest.raises(ValueError):
        sigma_power(0, 1, 3)
    with pytest.raises(ValueError):
        sigma_power(4, 1, 3)


def test_theta_config_validation():
    with pytest.raises(ValueError):
        ThetaConfig(2, (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        ThetaConfig(3, (Fraction(1),))


def test_deformation_terms_n3_single_theta():
    cfg = theta3(1, 0, 0)
    terms = deformation_terms(cfg)
    assert len(terms) == 2
    fwd, rev = terms
    assert fwd.slot_axes == (1, 2, 3)
    assert fwd.weight == ExactComplex(0, Fraction(1, 2))
    assert rev.slot_axes == (1, 3, 2)
    assert rev.weight == ExactComplex(0, Fraction(-1, 2))


def test_deformation_terms_fractional_theta():
    cfg = theta3(Fraction(-4, 6), 0, Fraction(3, 5))
    weights = [t.weight for t in deformation_terms(cfg)]
    assert weights == [ExactComplex(0, Fraction(-1, 3)), ExactComplex(0, Fraction(1, 3)),
                       ExactComplex(0, Fraction(3, 10)), ExactComplex(0, Fraction(-3, 10))]


def test_deformation_terms_zero_theta_empty():
    assert deformation_terms(theta3(0, 0, 0)) == []


def test_deformation_terms_n4():
    cfg = ThetaConfig(4, (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
    terms = deformation_terms(cfg)
    assert len(terms) == 2
    fwd, rev = terms
    assert fwd.slot_axes == (1, 2, 3, 4)
    assert rev.slot_axes == (1, 4, 3, 2)
    assert fwd.weight == ExactComplex(0, Fraction(1, 2))
    assert rev.weight == ExactComplex(0, Fraction(-1, 2))


def test_star_constants():
    one = Polynomial.constant(1, 3)
    assert star_n([one, one, one], UNIT3) == one


def test_star_coordinates():
    res = star_n([x(1, 3), x(2, 3), x(3, 3)], UNIT3)
    expected = x(1, 3) * x(2, 3) * x(3, 3) + Polynomial.constant(ExactComplex(0, Fraction(1, 2)), 3)
    assert res == expected


def test_star_coordinates_reversed():
    cfg = theta3(1, 2, 3)
    res = star_n([x(3, 3), x(2, 3), x(1, 3)], cfg)
    expected = x(1, 3) * x(2, 3) * x(3, 3) + Polynomial.constant(ExactComplex(0, Fraction(-3, 2)), 3)
    assert res == expected


def test_star_theta_zero_is_pointwise():
    rng = random.Random(5)
    corpus = CorpusSpec()
    cfg0 = theta3(0, 0, 0)
    for _ in range(10):
        f, g, h = (sample_poly(rng, 3, corpus) for _ in range(3))
        assert star_n([f, g, h], cfg0) == f * g * h


def test_star_arity_error():
    with pytest.raises(ValueError):
        star_n([x(1, 3), x(2, 3)], UNIT3)


def test_star_bracket_examples():
    cfg = theta3(1, 2, 3)
    f = x(1, 3) * x(2, 3) + x(3, 3)
    assert star_bracket(f, f, x(2, 3), cfg).is_zero()
    b = star_bracket(x(1, 3), x(3, 3), x(2, 3), cfg)
    assert b == Polynomial.constant(ExactComplex(0, Fraction(1 + 3, 2)), 3)


def test_star_bracket_antisymmetry_random():
    rng = random.Random(11)
    corpus = CorpusSpec()
    for _ in range(10):
        f, g, h = (sample_poly(rng, 3, corpus) for _ in range(3))
        theta = sample_theta(rng, 3)
        cfg = ThetaConfig(3, theta)
        assert star_bracket(f, h, g, cfg) == -star_bracket(h, f, g, cfg)


def test_star_bracket_arity():
    with pytest.raises(ValueError):
        star_bracket(x(1, 3), x(2, 3), [x(3, 3), x(3, 3)], UNIT3)


def test_conjugate_star_examples():
    cfg = theta3(1, 1, 1)
    res = conjugate_star_n([x(1, 3), x(2, 3), x(3, 3)], cfg)
    expected = x(1, 3) * x(2, 3) * x(3, 3) - Polynomial.constant(ExactComplex(0, Fraction(1, 2)), 3)
    assert res == expected


def test_conjugation_law_random():
    rng = random.Random(23)
    for n in (3, 4):
        corpus = CorpusSpec(dims=(n,))
        for _ in range(8):
            factors = [sample_poly(rng, n, corpus) for _ in range(n)]
            theta = sample_theta(rng, n)
            cfg = ThetaConfig(n, theta)
            conjugated = [f.conjugate() for f in factors]
            assert conjugate_star_n(conjugated, cfg) == star_n(factors, cfg).conjugate()


def test_conjugate_equals_conjugated_star_for_real_inputs():
    rng = random.Random(31)
    corpus = CorpusSpec(real_coefficients=True)
    for _ in range(8):
        factors = [sample_poly(rng, 3, corpus) for _ in range(3)]
        theta = sample_theta(rng, 3)
        cfg = ThetaConfig(3, theta)
        assert conjugate_star_n(factors, cfg) == star_n(factors, cfg).conjugate()


def test_multilinearity():
    rng = random.Random(7)
    for n in (3, 4):
        corpus = CorpusSpec(dims=(n,))
        for _ in range(6):
            theta = sample_theta(rng, n)
            cfg = ThetaConfig(n, theta)
            factors = [sample_poly(rng, n, corpus) for _ in range(n)]
            extra = sample_poly(rng, n, corpus)
            scalar = ExactComplex(rng.randint(-3, 3), rng.randint(-3, 3))
            for slot in (0, n // 2, n - 1):
                bumped = list(factors)
                bumped[slot] = factors[slot] + extra
                lhs = star_n(bumped, cfg)
                alt = list(factors)
                alt[slot] = extra
                assert lhs == star_n(factors, cfg) + star_n(alt, cfg)
                scaled = list(factors)
                scaled[slot] = factors[slot] * scalar
                assert star_n(scaled, cfg) == star_n(factors, cfg) * scalar


def test_engine_matches_stepwise_oracle():
    rng = random.Random(99)
    for n in (3, 4):
        corpus = CorpusSpec(dims=(n,))
        for _ in range(6):
            factors = [sample_poly(rng, n, corpus) for _ in range(n)]
            theta = sample_theta(rng, n)
            cfg = ThetaConfig(n, theta)
            assert star_n(factors, cfg) == star_n_stepwise(factors, cfg)


@pytest.mark.parametrize("theta", [
    (Fraction(2, 3), Fraction(-5, 7), 0),
    (Fraction(1, 2), 0, -3, Fraction(4, 9)),
])
def test_engine_matches_stepwise_at_fractional_theta_with_a_zero(theta):
    n = len(theta)
    cfg = ThetaConfig(n, theta)
    coords = [x(k, n) for k in range(1, n + 1)]
    total = sum(coords[1:], coords[0])
    factors = [total ** 3 + coords[0] * coords[1] * Fraction(1, 3) + I,
               total ** 2 * coords[-1] - coords[1] ** 2 * Fraction(5, 2),
               total ** 3 + coords[-1] * I]
    factors += [total ** 2 + Fraction(7, 4) * coords[0]] * (n - 3)
    assert star_n(factors, cfg) == star_n_stepwise(factors, cfg)


def compositions_reference(m, parts):
    """All tuples of `parts` non-negative integers summing to m, by the
    recursive definition: every first part, then the rest."""
    if parts == 0:
        if m == 0:
            yield ()
        return
    if parts == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in compositions_reference(m - first, parts - 1):
            yield (first,) + rest


def test_compositions_match_recursive_definition():
    for m in range(5):
        for parts in range(9):
            assert list(_compositions(m, parts)) == list(compositions_reference(m, parts))


def test_series_terminates_at_min_degree():
    # a degree-1 slot kills every contribution beyond first order: the star
    # with one linear factor is exactly the zeroth plus first order terms
    cfg = theta3(1, 1, 1)
    f = x(1, 3) ** 4 + x(2, 3) ** 3
    g = x(1, 3)  # degree 1
    h = x(2, 3) ** 4
    full = star_n([f, g, h], cfg)
    oracle = star_n_stepwise([f, g, h], cfg)
    assert full == oracle
    # zero factor: empty series
    assert star_n([f, Polynomial.zero(3), h], cfg).is_zero()
