import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import nstar.starcore as starcore
from nstar import polynomials
from nstar.audit import CorpusSpec, sample_poly, sample_theta
from nstar.oscillator import PolyGauss, ground_state, star_increments
from nstar.polynomials import Polynomial, _sum_of_products, x
from nstar.scalars import SQRT2, ExactComplex, I
from nstar.starcore import (
    ThetaConfig,
    _derivative_memos,
    _live_chains,
    _plan,
    _plan_terms,
    conjugate_star_n,
    deformation_terms,
    sigma_power,
    star_bracket,
    star_n,
    star_n_stepwise,
    star_series,
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


@pytest.mark.parametrize("kind", ["polynomial", "gaussian"])
def test_series_checks_factor_count_and_dimension(kind):
    # a fourth factor at n = 3 must not be dropped, a missing one must not
    # index past the slots, and a factor of another dimension must not run
    def slot(k, n):
        return x(k, n) if kind == "polynomial" else PolyGauss(x(k, n), 1)

    bad = [[slot(1, 3), slot(2, 3), slot(1, 3), slot(2, 3)],
           [slot(1, 3), slot(2, 3)],
           [slot(1, 4)] * 3,
           [slot(1, 3), slot(2, 3), slot(3, 4)]]
    if kind == "gaussian":
        bad.append([ground_state(0, 4)] * 3)
    for factors in bad:
        with pytest.raises(ValueError):
            next(star_series(factors, UNIT3, 1))
        if kind == "gaussian":
            with pytest.raises(ValueError):
                star_increments(factors, UNIT3, 1)


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


# -- the series engine's integer pass against a schoolbook reference ----------

ZERO4 = (Fraction(0),) * 4


def parts(c):
    return (c.re, c.im, c.rt2_re, c.rt2_im)


def times4(p, q):
    """Product of two scalars given as (re, im, rt2_re, rt2_im) Fractions."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)


def plus4(p, q):
    return tuple(u + v for u, v in zip(p, q))


def schoolbook_increments(factors, cfg, order):
    """Reference for star_series: for every composition of every order,
    each slot differentiated by repeated diff, the weight and the slots'
    polynomial parts multiplied term by term in Fractions, and the products
    summed; zero sums are dropped at the end."""
    n = cfg.n
    terms = deformation_terms(cfg)
    out = []
    for m in range(order + 1):
        total = {}
        for comp in compositions_reference(m, len(terms)):
            weight = (Fraction(1),) + ZERO4[1:]
            for term, c in zip(terms, comp):
                for _ in range(c):
                    weight = times4(weight, parts(term.weight))
                weight = tuple(v * Fraction(1, math.factorial(c)) for v in weight)
            slots = []
            for j, f in enumerate(factors):
                for term, c in zip(terms, comp):
                    for _ in range(c):
                        f = f.diff(term.slot_axes[j])
                slots.append(f.terms)
            add_weighted_product(total, weight, slots, n)
        out.append({key: v for key, v in total.items() if any(v)})
    return out


def add_weighted_product(total, weight, term_dicts, n):
    """Add weight * prod(term_dicts), multiplied term by term in Fractions,
    into total, exponents -> (re, im, rt2_re, rt2_im)."""
    product = {(0,) * n: weight}
    for terms in term_dicts:
        step = {}
        for e1, s1 in product.items():
            for e2, coeff in terms.items():
                key = tuple(u + v for u, v in zip(e1, e2))
                step[key] = plus4(step.get(key, ZERO4), times4(s1, parts(coeff)))
        product = step
    for key, v in product.items():
        total[key] = plus4(total.get(key, ZERO4), v)


def assert_series_matches_reference(factors, cfg, order=None):
    incs = list(star_series(factors, cfg, order))
    reference = schoolbook_increments(factors, cfg, len(incs) - 1)
    assert [{e: parts(c) for e, c in inc.terms.items()} for inc in incs] == reference
    # every stored coefficient is nonzero and in the canonical scalar form
    assert all(c and ExactComplex(*parts(c))._q == c._q for inc in incs for c in inc.terms.values())
    return incs


def schoolbook_sum_of_products(weights, chains, slots, n):
    total = {}
    for w, chain in zip(weights, chains):
        add_weighted_product(total, parts(w), [slots[j][key] for j, key in enumerate(chain)], n)
    return {key: v for key, v in total.items() if any(v)}


def assert_sum_of_products_matches_reference(weights, chains, slots, n):
    degree = sum(max(max(map(sum, terms)) for terms in slot.values()) for slot in slots)
    got = _sum_of_products(weights, chains, slots, n, degree)
    assert {e: parts(c) for e, c in got.items()} == schoolbook_sum_of_products(weights, chains, slots, n)
    assert all(c and ExactComplex(*parts(c))._q == c._q for c in got.values())
    return got


def wide_scalars():
    """Scalars with numerators up to 2**200 of either sign, over mixed
    denominators; some parts zero."""
    part = st.one_of(st.just(0), st.builds(Fraction, st.integers(-2**200, 2**200),
                                           st.sampled_from((1, 2, 3, 12, 2**61 - 1, 3**40))))
    return st.builds(ExactComplex, part, part, part, part)


@st.composite
def sums_of_products(draw):
    """(weights, chains, slots, n): 1 to 4 slots of 1 to 3 nonzero term
    dicts each, and 1 to 6 chains over them, repeats allowed."""
    n = draw(st.integers(1, 3))
    term_dicts = st.dictionaries(st.tuples(*([st.integers(0, 3)] * n)), wide_scalars(),
                                 min_size=1, max_size=4).map(lambda d: Polynomial(n, d).terms)
    slots = [draw(st.dictionaries(st.integers(0, 2), term_dicts.filter(bool), min_size=1, max_size=3))
             for _ in range(draw(st.integers(1, 4)))]
    chains = draw(st.lists(st.tuples(*[st.sampled_from(sorted(slot)) for slot in slots]),
                           min_size=1, max_size=6))
    weights = draw(st.lists(wide_scalars(), min_size=len(chains), max_size=len(chains)))
    return weights, chains, slots, n


@given(sums_of_products())
def test_sum_of_products_matches_reference_on_wide_coefficients(case):
    assert_sum_of_products_matches_reference(*case)


def test_sum_of_products_cancels_modulo_zeta4_plus_1():
    # i * (i*x1) * x2 + 1 * x1 * x2 = 0: the packed sum is zeta^4 + 1 times
    # the coefficient's scale, nonzero as an integer
    x1, x2 = x(1, 2), x(2, 2)
    slots = [{0: (x1 * I).terms, 1: x1.terms}, {0: x2.terms}]
    for weights in ((I, ExactComplex(1)), (ExactComplex(0, Fraction(1, 3)), Fraction(1, 3))):
        weights = [ExactComplex.coerce(w) for w in weights]
        assert assert_sum_of_products_matches_reference(weights, [(0, 0), (1, 0)], slots, 2) == {}
    # sqrt(2) * (sqrt(2)*x1) - 2 * x1 = 0, and the x2 terms survive
    slots = [{0: (x1 * SQRT2 + x2).terms, 1: (x1 + x2).terms}]
    got = assert_sum_of_products_matches_reference([SQRT2, ExactComplex(-2)], [(0,), (1,)], slots, 2)
    assert list(got) == [(0, 1)]


def test_sum_of_products_coordinate_at_the_norm_bound():
    # no negative numerator and one term per slot: every chain adds to the
    # same coordinate of the same term, so it equals the weights' norm times
    # the slots' norms, the largest the packing width admits
    for weights, scale in (([2, 5], 1), ([Fraction(1, 2), Fraction(1, 3)], 2**70 + 1),
                           ([2**64 - 1, 2**64 - 1, 1], Fraction(7, 3))):
        slots = [{0: Polynomial(3, {(1, 0, 0): scale}).terms},
                 {0: Polynomial(3, {(0, 1, 0): 3}).terms, 1: Polynomial(3, {(0, 0, 1): 1}).terms},
                 {0: Polynomial(3, {(1, 1, 0): ExactComplex(0, 0, 2, 2)}).terms}]
        # 2*sqrt(2)*(1 + i) = 4*zeta, and the chains share the x1^2*x2^2 term
        total = 6 * scale * sum(weights)
        got = assert_sum_of_products_matches_reference([ExactComplex(w) for w in weights],
                                                       [(0, 0, 0)] * len(weights), slots, 3)
        assert got == {(2, 2, 0): ExactComplex(0, 0, total, total)}


def test_sum_of_products_puts_each_slot_over_one_denominator():
    # slot 0 holds x1/6 + x2/4 (reduced over 12) and its x1-derivative 1/6
    # (reduced over 6); both are packed over 12, and the chains mix them
    f = Polynomial(2, {(1, 0): Fraction(1, 6), (0, 1): Fraction(1, 4)})
    g = Polynomial(2, {(0, 1): Fraction(1, 3), (0, 0): ExactComplex(0, 0, Fraction(1, 5))})
    slots = [{0: f.terms, 1: f.diff(1).terms}, {0: g.terms, 1: g.diff(2).terms, 2: x(1, 2).terms}]
    weights = [ExactComplex(Fraction(1, 2), 0, Fraction(-1, 3)), ExactComplex(0, Fraction(2, 7)),
               ExactComplex(1), ExactComplex(0, 0, 0, Fraction(3, 4)), ExactComplex(Fraction(5, 9))]
    chains = [(0, 0), (1, 0), (0, 1), (1, 2), (1, 1)]
    got = assert_sum_of_products_matches_reference(weights, chains, slots, 2)
    assert sorted(got) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    # only the chains through 1/6 and a constant of slot 1 reach the constant term
    assert got[0, 0] == (ExactComplex(0, Fraction(2, 7)) * ExactComplex(0, 0, Fraction(1, 5))
                         + ExactComplex(Fraction(5, 9)) * Fraction(1, 3)) * Fraction(1, 6)


def test_sum_of_products_packs_a_slot_dict_shared_by_slots_once(monkeypatch):
    # slots 1 and 2 are one dict (one factor object): its term dicts are
    # packed once, and each of the two slots still counts its own
    # denominator and norm
    f = Polynomial(2, {(1, 0): Fraction(1, 6), (0, 1): ExactComplex(0, 0, Fraction(1, 4))})
    g = Polynomial(2, {(0, 1): Fraction(2, 3), (0, 0): ExactComplex(Fraction(-1, 5), 3)})
    shared = {0: g.terms, 1: g.diff(2).terms, 2: (g * g).terms}
    slots = [{0: f.terms, 1: f.diff(1).terms}, shared, shared]
    weights = [ExactComplex(Fraction(1, 2), 0, Fraction(-1, 3)), ExactComplex(0, Fraction(2, 7)),
               ExactComplex(1), ExactComplex(0, 0, 0, Fraction(3, 4))]
    chains = [(0, 0, 0), (1, 2, 0), (0, 1, 2), (1, 1, 1)]
    encoded = []
    encode = polynomials._encode
    monkeypatch.setattr(polynomials, "_encode", lambda rows, *a: encoded.append(rows) or encode(rows, *a))
    assert_sum_of_products_matches_reference(weights, chains, slots, 2)
    # the weights, slot 0's two term dicts and the shared dict's three
    assert len(encoded) == 1 + 2 + 3


def rt2_poly(rng, n, nterms, degree):
    """A seeded polynomial with fractional and sqrt(2) parts, one term of
    the full degree."""
    def part():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 5)))
    out = {}
    exps = [0] * n
    for _ in range(degree):
        exps[rng.randrange(n)] += 1
    out[tuple(exps)] = ExactComplex(1, part(), part(), part())
    while len(out) < nterms:
        exps = [0] * n
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(n)] += 1
        out[tuple(exps)] = ExactComplex(part(), part(), part(), part())
    return Polynomial(n, out)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_series_sums_slot_products_like_the_schoolbook_reference(n):
    rng = random.Random(f"series-{n}")
    thetas = [(1,) * n, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n))]
    for theta in thetas:
        cfg = ThetaConfig(n, theta)
        degree = 3 if n == 3 else 2
        factors = [rt2_poly(rng, n, rng.randint(2, 4), degree) for _ in range(n)]
        incs = assert_series_matches_reference(factors, cfg)
        assert sum(incs[1:], incs[0]) == star_n_stepwise(factors, cfg)


def test_series_cancels_across_compositions_to_an_exact_zero():
    # with one factor in every slot, each forward term's product equals its
    # reverse term's, at the opposite weight: increment 1 cancels exactly
    # although every composition of order 1 is live.  The slots hold equal
    # but distinct copies, so the engine walks order 1 (one object in every
    # slot would skip it)
    rng = random.Random("cancel")
    for n in (3, 4):
        p = rt2_poly(rng, n, 4, 3) + sum((x(k, n) for k in range(1, n + 1)), Polynomial.zero(n))
        incs = assert_series_matches_reference([copy_of(p) for _ in range(n)], ThetaConfig.uniform(n))
        assert incs[1].is_zero() and not incs[0].is_zero()


def test_series_order_without_a_live_composition():
    # slot 1's derivatives are all along x1, which routes x2 or x3 into
    # slot 2, and slot 2 depends on x1 only: orders 1 and 2 have no live
    # composition, though the series bound is 2
    f = x(1, 3) ** 2 * Fraction(1, 3)
    g = x(1, 3) ** 2 + x(1, 3) * ExactComplex(0, 0, 1)
    h = x(2, 3) * x(3, 3) + x(1, 3) ** 2 * I
    incs = assert_series_matches_reference([f, g, h], UNIT3)
    assert len(incs) == 3 and incs[1].is_zero() and incs[2].is_zero()
    assert incs[0] == f * g * h == star_n([f, g, h], UNIT3) == star_n_stepwise([f, g, h], UNIT3)


@pytest.mark.parametrize("degrees", [(5, 5, 5), (5, 5, 6), (3, 2, 2), (8, 4, 4), (6, 4, 5, 1)])
def test_series_exponents_at_the_packing_width_boundary(degrees):
    # order 0 multiplies x1^d1 * x1^d2 * ...: the largest product degree is
    # their sum, 15 = 2^4 - 1, 16 = 2^4 or 7 = 2^3 - 1; a field one bit
    # narrower carries x1's exponent into x2's
    n = len(degrees)
    cfg = ThetaConfig(n, (1, Fraction(1, 2)) + (Fraction(-2, 3),) * (n - 2))
    factors = [x(1, n) ** d + x(2, n) ** d * ExactComplex(0, 0, Fraction(1, 2)) + x(n, n) * I
               for d in degrees]
    incs = assert_series_matches_reference(factors, cfg)
    top = sum(degrees)
    assert incs[0].terms[(top,) + (0,) * (n - 1)] == 1
    assert sum(incs[1:], incs[0]) == star_n_stepwise(factors, cfg)


def test_star_n_with_one_factor_in_every_slot():
    # the same object in several slots: each slot keeps its own derivatives
    # and denominators
    rng = random.Random("same-object")
    for n, degree in ((3, 3), (3, 4), (4, 3)):
        f = rt2_poly(rng, n, 5, degree) * Fraction(2, 7)
        cfg = ThetaConfig(n, tuple(Fraction(k, 3) for k in range(1, n + 1)))
        assert star_n((f,) * n, cfg) == star_n_stepwise((f,) * n, cfg)
        assert_series_matches_reference((f,) * n, cfg)
        g = f * x(1, n)
        assert star_n((f, g) + (f,) * (n - 2), cfg) == star_n_stepwise((f, g) + (f,) * (n - 2), cfg)


@pytest.mark.parametrize("k", [1, 2])
def test_star_increments_with_one_state_in_every_trailing_slot(k):
    # [psi] * (n - 1): one Gaussian-weighted object in several slots; an
    # increment is the polynomial part at the summed scale
    for n, lead in ((3, x(1, 3) * x(2, 3) + Fraction(1, 3)), (4, x(3, 4) * I - 2)):
        psi = ground_state(k, n)
        factors = [PolyGauss(lead, 0)] + [psi] * (n - 1)
        cfg = ThetaConfig(n, (1, Fraction(1, 2)) + (Fraction(3, 2),) * (n - 2))
        order = 3
        incs = star_increments(factors, cfg, order)
        assert all(isinstance(inc, Polynomial) for inc in incs)
        assert [{e: parts(c) for e, c in inc.terms.items()} for inc in incs] == \
            schoolbook_increments(factors, cfg, order)
        assert incs[0] == lead * psi.poly ** (n - 1)
        assert all(inc.is_zero() for inc in incs[lead.degree() + 1:])


# -- the composition plan ----------------------------------------------------------

def plan_leaves(node, depth, chain=()):
    """(chain of slot counts, leaf weight) for every leaf of a plan."""
    if len(chain) == depth:
        yield chain, node
        return
    for counts, child in node:
        yield from plan_leaves(child, depth, chain + (counts,))


# (n, m) -> (distinct chains of slot counts, chains whose unit weight is not 0)
PLAN_SIZES = {(3, 0): (1, 1), (3, 1): (6, 6), (3, 3): (55, 54), (3, 4): (120, 120),
              (3, 5): (231, 222), (4, 3): (104, 104), (5, 2): (55, 55)}


@pytest.mark.parametrize("n, m", list(PLAN_SIZES))
def test_plan_holds_every_composition_once_under_its_slot_counts(n, m):
    # a leaf is the unit weight prod_t u_t^c_t / c_t! summed over the
    # compositions with its slot counts; chains whose sum is 0 are absent
    terms = deformation_terms(ThetaConfig.uniform(n))
    assert [term.slot_axes for term in _plan_terms(n)] == [term.slot_axes for term in terms]
    expected = {}
    for comp in compositions_reference(m, len(terms)):
        # each slot's counts are the derivatives its terms route to each axis
        chain = tuple(tuple(sum(c for term, c in zip(terms, comp) if term.slot_axes[j] == a)
                            for a in range(1, n + 1)) for j in range(n))
        weight = (Fraction(1),) + ZERO4[1:]
        for term, c in zip(terms, comp):
            for _ in range(c):
                weight = times4(weight, parts(term.weight))
            weight = tuple(v * Fraction(1, math.factorial(c)) for v in weight)
        expected[chain] = plus4(expected.get(chain, ZERO4), weight)
    # every slot its own class: no counts are merged
    leaves = list(plan_leaves(_plan(n, m, tuple(range(1, n))), n))
    assert all(isinstance(w, ExactComplex) for _, w in leaves)
    assert len(dict(leaves)) == len(leaves)
    assert {chain: parts(w) for chain, w in leaves} == \
        {chain: w for chain, w in expected.items() if w != ZERO4}
    assert (len(expected), len(leaves)) == PLAN_SIZES[n, m]


# slots 1..n-1's classes (each slot named by the first slot holding its
# object): every slot one object, mirrored classes, and adjacent pairs
CLASS_PATTERNS = {3: [(1, 1)], 4: [(1, 1, 1), (1, 2, 1), (1, 1, 3)],
                  5: [(1, 1, 1, 1), (1, 2, 2, 1), (1, 1, 3, 3)]}
# (n, m) -> leaves of the plan and of its merge with slots 1..n-1 in one class
MERGED_SIZES = {(3, 2): (21, 12), (3, 4): (120, 63), (4, 2): (34, 20), (4, 4): (259, 139),
                (5, 2): (55, 30), (5, 4): (715, 365)}


def class_orbit(chain, classes):
    """A chain up to permutations of counts inside each class: slot 0's
    counts and the multiset of (class, counts) of slots 1..n-1."""
    return chain[0], tuple(sorted(zip(classes, chain[1:])))


@pytest.mark.parametrize("n, top", [(3, 6), (4, 4), (5, 4)])
def test_merged_plan_sums_the_plan_over_permutations_inside_each_class(n, top):
    # every merged leaf is the plan's unit weight summed over one orbit of
    # chains under permutations inside the classes, one leaf per orbit with
    # a nonzero sum; a pattern closed under the mirror j -> n - j holds the
    # reflection law, so its odd orders are empty
    for classes in CLASS_PATTERNS[n]:
        mirror_closed = all(classes[j - 1] == classes[n - j - 1] for j in range(1, n))
        for m in range(top + 1):
            expected = {}
            plan = list(plan_leaves(_plan(n, m, tuple(range(1, n))), n))
            for chain, weight in plan:
                orbit = class_orbit(chain, classes)
                expected[orbit] = plus4(expected.get(orbit, ZERO4), parts(weight))
            merged = list(plan_leaves(_plan(n, m, classes), n))
            got = {class_orbit(chain, classes): parts(weight) for chain, weight in merged}
            assert len(got) == len(merged)
            assert got == {orbit: w for orbit, w in expected.items() if w != ZERO4}
            if mirror_closed and m % 2:
                assert merged == []
            if classes == (1,) * (n - 1) and (n, m) in MERGED_SIZES:
                assert (len(plan), len(merged)) == MERGED_SIZES[n, m]


def merge_cases(n):
    """(factors, copies, theta, order or None) with slots 1..n-1 grouped
    into classes by object, slot 0 in some cases one of them too: seeded
    polynomials with sqrt(2) parts at generic theta, one with a zero
    component, then Gaussian-weighted slots behind a polynomial lead."""
    rng = random.Random(f"merged-slots-{n}")
    patterns = {3: ["fgg", "fff"], 4: ["fggg", "fghh", "ffgg", "fggh"],
                5: ["fghhg", "fgghh", "fgggh"]}[n]
    coords = [x(k, n) for k in range(1, n + 1)]
    for pattern in patterns:
        # the square of a linear form in three axes keeps increments past 0
        # nonzero
        polys = {name: rt2_poly(rng, n, 3, 3 if n < 5 else 2)
                 + sum((c * rng.randint(1, 3) for c in rng.sample(coords, 3)), Polynomial.zero(n)) ** 2
                 for name in sorted(set(pattern))}
        generic = tuple(Fraction(rng.choice((-1, 1)) * (k + 1), rng.randint(1, 4)) for k in range(n))
        factors = [polys[name] for name in pattern]
        for theta in (generic, zero_pattern_thetas(rng, n)[0]):
            yield factors, [copy_of(f) for f in factors], ThetaConfig(n, theta), None
        weighted = {name: PolyGauss(p, 0 if name == pattern[0] else 1) for name, p in polys.items()}
        factors = [weighted[name] for name in pattern]
        yield factors, [copy_of(f) for f in factors], ThetaConfig(n, generic), 4 if n < 5 else 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_products_over_one_object_in_several_slots_equal_those_over_copies(n):
    # one object in several of slots 1..n-1 walks the merged plan; equal but
    # distinct copies walk the plan itself, to the same increments
    merged = 0
    for factors, copies, cfg, order in merge_cases(n):
        shared = list(star_series(factors, cfg, order))
        assert shared == list(star_series(copies, cfg, order))
        assert any(not inc.is_zero() for inc in shared[1:])
        if order is None:
            assert star_n(factors, cfg) == star_n(copies, cfg) == sum(shared[1:], shared[0])
        merged += len({id(f) for f in factors[1:]}) < n - 1
    assert merged == len(list(merge_cases(n)))


def zero_pattern_thetas(rng, n):
    """theta with one zero, with all but one zero, and all zero."""
    def value():
        return Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))
    one_zero = [value() for _ in range(n)]
    one_zero[rng.randrange(n)] = Fraction(0)
    all_but_one = [Fraction(0)] * n
    all_but_one[rng.randrange(n)] = value()
    return [tuple(one_zero), tuple(all_but_one), (0,) * n]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_plan_products_with_zero_thetas_match_the_oracle(n):
    # a leaf that uses a term with theta_k = 0 is skipped; the rest of the
    # walk is the same at every theta
    rng = random.Random(f"plan-zeros-{n}")
    degree = 3 if n < 5 else 2
    for theta in zero_pattern_thetas(rng, n):
        cfg = ThetaConfig(n, theta)
        f = rt2_poly(rng, n, 4, degree)
        g = rt2_poly(rng, n, 3, degree)
        distinct = [rt2_poly(rng, n, 3, degree) for _ in range(n)]
        for factors in ([f] * n, [f, g] + [f] * (n - 2), distinct):
            product = star_n(factors, cfg)
            assert product == star_n_stepwise(factors, cfg)
            incs = list(star_series(factors, cfg))
            assert product == sum(incs[1:], incs[0])
        if not any(theta):
            assert product == math.prod(factors[1:], start=factors[0])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_walk_weights_are_the_operator_weights(n):
    # order 1: one live composition per term with theta_k != 0, whose slot
    # counts name the term's slot axes and whose plan weight times theta_k,
    # k its slot-0 axis, is the term's weight
    rng = random.Random(f"walk-weights-{n}")
    full = math.prod((x(a, n) for a in range(2, n + 1)), start=x(1, n))
    for theta in zero_pattern_thetas(rng, n) + [tuple(Fraction(2 * k + 1, 3) - 2 for k in range(n))]:
        cfg = ThetaConfig(n, theta)
        derivs = [{(0,) * n: full} for _ in range(n)]
        weights, chains = list(_live_chains(cfg, 1, n, derivs))[1]
        walked = {tuple(counts.index(1) + 1 for counts in chain): w * cfg.theta[chain[0].index(1)]
                  for w, chain in zip(weights, chains)}
        assert len(walked) == len(chains)
        assert walked == {term.slot_axes: term.weight for term in deformation_terms(cfg)}


def test_plan_is_built_once_per_dimension_and_order():
    # mixed theta (zeros included) and inputs, distinct and repeated factor
    # objects: the plans built are exactly the distinct (n, m, classes)
    # walked, so nothing else of theta or the factors keys them
    _plan.cache_clear()
    rng = random.Random("plan-cache")
    walked = set()
    for n, degree in ((3, 2), (3, 3), (4, 2), (3, 3), (5, 1), (4, 2)):
        for theta in zero_pattern_thetas(rng, n) + [(1,) * n]:
            f, g, h = (rt2_poly(rng, n, rng.randint(1, 3), degree) for _ in range(3))
            products = [[rt2_poly(rng, n, rng.randint(1, 3), degree) for _ in range(n)], [f] * n]
            products += [[f, g, g]] if n == 3 else [[f, g, h, g]] if n == 4 else []
            for factors in products:
                star_n(factors, ThetaConfig(n, theta))
                # slot j's class: the first of slots 1..n-1 holding its object
                classes = tuple(next(i for i in range(1, n) if factors[i] is factors[j])
                                for j in range(1, n))
                walked.update((n, m, classes) for m in range(min(p.degree() for p in factors) + 1))
    assert {classes for _, _, classes in walked} == {(1, 2), (1, 1), (1, 2, 3), (1, 1, 1), (1, 2, 1),
                                                     (1, 2, 3, 4), (1, 1, 1, 1)}
    assert _plan.cache_info().currsize == len(walked)


def test_products_leave_no_reference_cycles():
    # a cycle would keep each call's derivative memo alive until the cyclic
    # collector runs
    cfg = ThetaConfig(3, (1, Fraction(1, 2), Fraction(-3, 2)))
    f = x(1, 3) * x(2, 3) ** 2 + x(3, 3) - Fraction(1, 3)
    psi = ground_state(1, 3)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        star_n((f, f * x(1, 3), f), cfg)
        assert gc.collect() == 0
        list(star_series((f, f, f * I), cfg))
        assert gc.collect() == 0
        star_increments([PolyGauss(f, 0), psi, psi], cfg, 3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# -- slot laws of the product (checked here, not in the pinned audit) ----------

def law_cases(n):
    """Seeded factors of degree <= 3 (sqrt(2) parts included) and a generic
    theta with distinct nonzero components, for the slot laws at n."""
    rng = random.Random(f"slot-laws-{n}")
    coords = [x(k, n) for k in range(1, n + 1)]
    for _ in range(3):
        # a square of a linear form in every axis keeps increments 1 and 2 nonzero
        factors = [rt2_poly(rng, n, rng.randint(2, 4), rng.randint(2, 3 if n < 5 else 2))
                   + sum((c * rng.randint(1, 3) for c in coords), Polynomial.zero(n)) ** 2
                   for _ in range(n)]
        theta = tuple(Fraction(rng.choice((-1, 1)) * (k + 1), rng.randint(1, 4)) for k in range(n))
        yield factors, ThetaConfig(n, theta)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reflecting_the_slots_negates_theta(n):
    # reversing slots 2..n turns each forward term into the reverse term of
    # the same k: star(f1, fn, ..., f2) = star(f1, ..., fn) at -theta, and
    # increment m, homogeneous of degree m in theta, changes by (-1)^m
    for factors, cfg in law_cases(n):
        # no two slots hold one object, so both sides take the full walk
        assert len({id(f) for f in factors}) == n
        reflected = [factors[0], *factors[:0:-1]]
        assert star_n(reflected, cfg) == conjugate_star_n(factors, cfg)
        straight = list(star_series(factors, cfg))
        assert len(straight) > 2 and not (straight[1].is_zero() or straight[2].is_zero())
        reflected_increments = list(star_series(reflected, cfg))
        assert len(reflected_increments) == len(straight)
        for m, (got, want) in enumerate(zip(reflected_increments, straight)):
            assert got == (want if m % 2 == 0 else -want), m


def copy_of(f):
    """An equal factor that is another object, so it gets its own memo."""
    if isinstance(f, PolyGauss):
        return PolyGauss(copy_of(f.poly), f.scale)
    return Polynomial(f.n, dict(f.terms))


def palindromes(n):
    """(factors with slots 1..n-1 reading the same backwards by object,
    theta, order or None) from the law cases: polynomial slots, then, for
    the first case, Gaussian-weighted slots at scales 0 and 1 behind a
    polynomial lead."""
    rng = random.Random(f"palindromes-{n}")
    for case, (factors, cfg) in enumerate(law_cases(n)):
        inner = factors[1:1 + n // 2]
        mirrored = [factors[0], *inner, *inner[:(n - 1) // 2][::-1]]
        for theta in (cfg.theta, zero_pattern_thetas(rng, n)[0]):
            yield mirrored, ThetaConfig(n, theta), None
        for scale in (0, 1) if case == 0 else ():
            weighted = {id(f): PolyGauss(f, scale) for f in inner}
            yield ([PolyGauss(mirrored[0], 0)] + [weighted[id(f)] for f in mirrored[1:]],
                   cfg, 4 if n < 5 else 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_mirrored_slots_skip_odd_orders_and_match_the_full_walk(n, monkeypatch):
    # slot j and slot n - j one object: the product is its own reflection,
    # so every odd increment is zero and the plan of every odd order is
    # empty; equal but distinct copies take the full walk to the same
    # increments
    asked = []
    plan = _plan
    monkeypatch.setattr(starcore, "_plan", lambda n, m, classes: asked.append(m) or plan(n, m, classes))
    for factors, cfg, order in palindromes(n):
        assert all(factors[j] is factors[n - j] for j in range(1, n))
        copies = [copy_of(f) for f in factors]
        # the orders up to the series bound are walked
        bound = min(d for d in (f.degree() for f in factors) if d is not None)
        walked = (bound if order is None else min(order, bound)) + 1
        asked.clear()
        shortcut = list(star_series(factors, cfg, order))
        assert asked == list(range(walked))
        chains = list(_live_chains(cfg, order, bound, _derivative_memos(factors, n)))
        assert all(chains[m] == ([], []) for m in range(1, walked, 2))
        asked.clear()
        full = list(star_series(copies, cfg, order))
        assert asked == list(range(walked))
        assert len(shortcut) > 2 and shortcut == full
        assert all(inc.is_zero() for inc in shortcut[1::2])
        assert not shortcut[2].is_zero()
        if order is None:
            assert star_n(factors, cfg) == star_n(copies, cfg) == sum(full[1:], full[0])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cyclic_shift_of_the_slots_fixes_every_increment_at_uniform_theta(n):
    cfg = ThetaConfig.uniform(n, Fraction(3, 2))
    for factors, _ in law_cases(n):
        increments = list(star_series(factors, cfg))
        for shift in range(1, n):
            shifted = factors[shift:] + factors[:shift]
            assert list(star_series(shifted, cfg)) == increments, shift


def test_first_order_term_at_n3_is_the_theta_weighted_jacobian():
    # increment 1 at n = 3 is (i/2) det(theta o grad f, grad g, grad h), the
    # determinant written out here; at uniform theta, the Nambu bracket
    half_i = ExactComplex(0, Fraction(1, 2))
    for factors, generic in law_cases(3):
        for cfg in (generic, ThetaConfig.uniform(3)):
            f, g, h = factors
            a = [f.diff(k) * cfg.theta[k - 1] for k in (1, 2, 3)]
            b = [g.diff(k) for k in (1, 2, 3)]
            c = [h.diff(k) for k in (1, 2, 3)]
            det = (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
                   + a[2] * (b[0] * c[1] - b[1] * c[0]))
            assert not det.is_zero()
            assert list(star_series(factors, cfg, 1))[1] == det * half_i
