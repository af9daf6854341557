import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nstar import waves
from nstar.starcore import ThetaConfig
from nstar.waves import (
    MERGE_TOL,
    SAMPLE_BLOCK,
    GridSpec,
    KernelOverflowError,
    WaveSum,
    WorkBudgetError,
    freq_cross,
    grid_oracle_star,
    kernel_exponent,
    load_lattice,
    save_lattice,
    star_waves,
)


def theta3(a, b, c):
    return ThetaConfig(3, (Fraction(a), Fraction(b), Fraction(c)))


def test_freq_cross_examples():
    assert freq_cross((0, 1, 0), (0, 0, 1)) == (1, 0, 0)
    assert freq_cross((2, 3, 4), (2, 3, 4)) == (0, 0, 0)
    with pytest.raises(ValueError):
        freq_cross((1, 0), (0, 1))


def test_freq_cross_antisymmetry_random():
    rng = random.Random(2)
    for _ in range(200):
        q = tuple(rng.randint(-9, 9) for _ in range(3))
        r = tuple(rng.randint(-9, 9) for _ in range(3))
        assert freq_cross(q, r) == tuple(-v for v in freq_cross(r, q))


def _cyclic_triple_products(p, q, r):
    """p.(q x r), r.(p x q), q.(r x p) and det[p|q|r], exact on ints."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))
    det = (p[0] * (q[1] * r[2] - q[2] * r[1]) - p[1] * (q[0] * r[2] - q[2] * r[0])
           + p[2] * (q[0] * r[1] - q[1] * r[0]))
    return dot(p, freq_cross(q, r)), dot(r, freq_cross(p, q)), dot(q, freq_cross(r, p)), det


def test_triple_product_examples():
    assert _cyclic_triple_products((1, 0, 0), (0, 1, 0), (0, 0, 1)) == (1, 1, 1, 1)
    assert _cyclic_triple_products((1, 2, 0), (2, 4, 0), (3, 1, 0)) == (0, 0, 0, 0)  # coplanar
    rng = random.Random(4)
    for _ in range(200):
        p, q, r = (tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3))
        a, b, c, det = _cyclic_triple_products(p, q, r)
        assert a == b == c == det


def test_kernel_worked_example():
    cfg = theta3(2, 0, 0)
    e = kernel_exponent([(1, 0, 0), (0, 1, 0), (0, 0, 1)], cfg)
    assert abs(e - 1.0) <= 1e-12
    assert e.imag == 0.0


def test_kernel_zero_theta():
    cfg = theta3(0, 0, 0)
    rng = random.Random(8)
    freqs = [tuple(rng.uniform(-3, 3) for _ in range(3)) for _ in range(3)]
    assert kernel_exponent(freqs, cfg) == 0


def test_kernel_swap_antisymmetry():
    cfg = theta3(1, -2, 3)
    rng = random.Random(9)
    for _ in range(50):
        k, q, r = (tuple(rng.uniform(-3, 3) for _ in range(3)) for _ in range(3))
        a = kernel_exponent([k, q, r], cfg)
        b = kernel_exponent([k, r, q], cfg)
        assert abs(a + b) <= 1e-12 * max(1.0, abs(a))
        assert a.imag == 0.0  # purely real for n = 3


def test_kernel_n4_purely_imaginary():
    cfg = ThetaConfig(4, (Fraction(1), Fraction(1), Fraction(1), Fraction(1)))
    rng = random.Random(10)
    freqs = [tuple(rng.uniform(-2, 2) for _ in range(4)) for _ in range(4)]
    e = kernel_exponent(freqs, cfg)
    assert e.real == 0.0


def test_kernel_arity():
    with pytest.raises(ValueError):
        kernel_exponent([(1, 0, 0), (0, 1, 0)], theta3(1, 1, 1))


def test_star_waves_single_triple():
    cfg = theta3(2, 0, 0)
    out = star_waves([WaveSum.single(1, (1, 0, 0)),
                      WaveSum.single(1, (0, 1, 0)),
                      WaveSum.single(1, (0, 0, 1))], cfg)
    assert len(out.terms) == 1
    coeff, freq = out.terms[0]
    assert freq == (1.0, 1.0, 1.0)
    assert abs(coeff - math.e) <= 1e-12 * math.e


def test_star_waves_theta_zero_pointwise():
    cfg0 = theta3(0, 0, 0)
    w1 = WaveSum(3, [(1 + 2j, (1.0, 0.0, -1.0)), (0.5, (0.0, 2.0, 0.0))])
    w2 = WaveSum(3, [(1j, (0.0, 1.0, 0.0)), (2.0, (0.0, 0.0, 0.0))])
    w3 = WaveSum(3, [(-1.0, (1.0, 1.0, 1.0))])
    assert star_waves([w1, w2, w3], cfg0) == w1 * w2 * w3


def test_star_waves_constants():
    cfg = theta3(1, 2, 3)
    out = star_waves([WaveSum.constant(2, 3), WaveSum.constant(3, 3),
                      WaveSum.constant(-1, 3)], cfg)
    assert out == WaveSum.constant(-6, 3)


def test_wavesum_merges_duplicates():
    w = WaveSum(3, [(1.0, (1.0, 0.0, 0.0)), (2.0, (1.0, 0.0, 0.0))])
    assert len(w.terms) == 1
    assert w.terms[0][0] == 3.0
    cancel = WaveSum(3, [(1.0, (1.0, 0.0, 0.0)), (-1.0, (1.0, 0.0, 0.0))])
    assert cancel.terms == ()


def test_star_waves_multilinearity():
    cfg = theta3(1, 0, -1)
    rng = random.Random(12)

    def rand_wave(terms):
        return WaveSum(3, [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                            tuple(float(rng.randint(-2, 2)) for _ in range(3)))
                           for _ in range(terms)])

    for _ in range(10):
        a, b, g, h = rand_wave(2), rand_wave(2), rand_wave(2), rand_wave(2)
        for slot in (0, 1, 2):
            base = [g, g, h]
            bumped = list(base)
            bumped[slot] = a + b
            first = list(base)
            first[slot] = a
            second = list(base)
            second[slot] = b
            lhs = star_waves(bumped, cfg)
            rhs = star_waves(first, cfg) + star_waves(second, cfg)
            assert len(lhs.terms) == len(rhs.terms)
            for (c1, f1), (c2, f2) in zip(lhs.terms, rhs.terms):
                assert f1 == f2
                assert abs(c1 - c2) <= 1e-12 * max(1.0, abs(c2))


def test_wavesum_json_round_trip():
    w = WaveSum(3, [(1 + 2j, (1.0, 0.5, -1.0)), (3.0, (0.0, 0.0, 0.0))])
    assert WaveSum.from_json(w.to_json()) == w


def test_grid_oracle_matches_closed_form():
    cfg = theta3(2, 0, 0)
    grid = GridSpec(3, 8, 2 * math.pi)
    waves = [WaveSum.single(1, (1, 0, 0)), WaveSum.single(1, (0, 1, 0)),
             WaveSum.single(1, (0, 0, 1))]
    closed = star_waves(waves, cfg)
    lattice = grid_oracle_star([w.sample_on_grid(grid) for w in waves], grid, cfg)
    ref = closed.sample_on_grid(grid)
    err = np.abs(lattice - ref).max() / np.abs(ref).max()
    assert err <= 1e-9


def test_grid_oracle_theta_zero_pointwise():
    cfg0 = theta3(0, 0, 0)
    grid = GridSpec(3, 8, 2 * math.pi)
    rng = random.Random(21)

    def rand_wave():
        return WaveSum(3, [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                            tuple(float(rng.randint(-2, 2)) for _ in range(3)))
                           for _ in range(3)])

    waves = [rand_wave() for _ in range(3)]
    product = waves[0] * waves[1] * waves[2]
    lattice = grid_oracle_star([w.sample_on_grid(grid) for w in waves], grid, cfg0)
    ref = product.sample_on_grid(grid)
    err = np.abs(lattice - ref).max() / max(1.0, np.abs(ref).max())
    assert err <= 1e-9


def test_grid_oracle_constants():
    cfg = theta3(1, 1, 1)
    grid = GridSpec(3, 4, 1.0)
    ones = np.ones((4, 4, 4), dtype=complex)
    out = grid_oracle_star([2 * ones, 3 * ones, ones], grid, cfg)
    assert np.allclose(out, 6.0)


def test_grid_oracle_budget():
    cfg = theta3(1, 1, 1)
    grid = GridSpec(3, 8, 2 * math.pi)
    rng = np.random.default_rng(0)
    dense = rng.normal(size=(8, 8, 8)) + 1j * rng.normal(size=(8, 8, 8))
    with pytest.raises(WorkBudgetError):
        grid_oracle_star([dense, dense, dense], grid, cfg, budget=1e3)


@pytest.mark.parametrize("budget", [math.nan, 0.0, -1.0])
def test_grid_oracle_rejects_a_budget_that_bounds_nothing(budget):
    cfg = theta3(1, 1, 1)
    grid = GridSpec(3, 4, 1.0)
    ones = np.ones((4, 4, 4), dtype=complex)
    with pytest.raises(ValueError, match="budget must be positive") as info:
        grid_oracle_star([ones, ones, ones], grid, cfg, budget=budget)
    assert not isinstance(info.value, WorkBudgetError)


def test_grid_oracle_budget_inf_is_no_limit():
    cfg = theta3(1, 1, 1)
    grid = GridSpec(3, 4, 1.0)
    ones = np.ones((4, 4, 4), dtype=complex)
    out = grid_oracle_star([2 * ones, 3 * ones, ones], grid, cfg, budget=math.inf)
    assert np.allclose(out, 6.0)


def test_grid_oracle_shape_mismatch():
    cfg = theta3(1, 1, 1)
    grid = GridSpec(3, 4, 1.0)
    with pytest.raises(ValueError):
        grid_oracle_star([np.ones((4, 4))] * 3, grid, cfg)


def test_lattice_io_round_trip(tmp_path):
    grid = GridSpec(3, 4, 2.0)
    rng = np.random.default_rng(3)
    arr = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    path = tmp_path / "lattice.bin"
    save_lattice(str(path), arr, grid)
    loaded, spec2 = load_lattice(str(path))
    assert spec2 == grid
    assert np.array_equal(loaded, arr)


# -- the array kernel against per-tuple loops ----------------------------------

def star_waves_loop(factors, cfg):
    """Reference: one scalar kernel call and one cmath.exp per frequency tuple."""
    out = []
    for combo in itertools.product(*(w.terms for w in factors)):
        coeff = 1.0 + 0j
        for c, _ in combo:
            coeff *= c
        freqs = [f for _, f in combo]
        coeff *= cmath.exp(kernel_exponent(freqs, cfg))
        out.append((coeff, tuple(sum(v) for v in zip(*freqs))))
    return WaveSum(cfg.n, out)


def grid_oracle_loop(factors, spec, cfg):
    """Reference: the lattice oracle with a Python loop over occupied tuples."""
    n, N = spec.n, spec.points_per_axis
    specs = [np.fft.fftn(np.asarray(a, dtype=complex)) / N**n for a in factors]
    ints = spec.int_freqs()
    occupied = []
    for F in specs:
        cutoff = 1e-12 * max(1.0, float(np.abs(F).max()))
        occupied.append([tuple(ix) for ix in np.argwhere(np.abs(F) > cutoff)])
    out_spec = np.zeros((N,) * n, dtype=complex)
    for combo in itertools.product(*occupied):
        coeff = 1.0 + 0j
        for F, ix in zip(specs, combo):
            coeff *= F[ix]
        freqs = [tuple(spec.base_freq * ints[i] for i in ix) for ix in combo]
        coeff *= cmath.exp(kernel_exponent(freqs, cfg))
        out_spec[tuple(sum(ix[d] for ix in combo) % N for d in range(n))] += coeff
    return np.fft.ifftn(out_spec) * N**n


def _random_theta(rng, n):
    return ThetaConfig(n, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)))


def _random_wave(rng, n, terms, reach=1):
    return WaveSum(n, [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                        tuple(float(rng.randint(-reach, reach)) for _ in range(n)))
                       for _ in range(terms)])


@pytest.mark.parametrize("n", [3, 4])
def test_array_kernel_equals_scalar_calls(n):
    rng = random.Random(30 + n)
    np_rng = np.random.default_rng(30 + n)
    for _ in range(5):
        cfg = _random_theta(rng, n)
        slots = [np_rng.uniform(-3, 3, size=(1,) * j + (4,) + (1,) * (n - 1 - j) + (n,))
                 for j in range(n)]
        expo = kernel_exponent(slots, cfg)
        assert expo.shape == (4,) * n
        for ix in itertools.product(range(4), repeat=n):
            scalar = kernel_exponent([s[(0,) * j + (ix[j],) + (0,) * (n - 1 - j)]
                                      for j, s in enumerate(slots)], cfg)
            assert type(scalar) is complex
            assert expo[ix] == scalar


@pytest.mark.parametrize("n, terms", [(3, 6), (4, 3)])
def test_star_waves_matches_loop_reference(n, terms):
    rng = random.Random(40 + n)
    for _ in range(6):
        cfg = _random_theta(rng, n)
        factors = [_random_wave(rng, n, rng.randint(1, terms)) for _ in range(n)]
        got, ref = star_waves(factors, cfg), star_waves_loop(factors, cfg)
        assert [f for _, f in got.terms] == [f for _, f in ref.terms]
        for (c1, _), (c2, _) in zip(got.terms, ref.terms):
            assert abs(c1 - c2) <= 1e-12 * abs(c2)


@pytest.mark.parametrize("n, N", [(3, 8), (4, 4)])
def test_grid_oracle_matches_loop_reference(n, N):
    rng = random.Random(50 + n)
    grid = GridSpec(n, N, 2 * math.pi)
    for _ in range(3):
        cfg = _random_theta(rng, n)
        samples = [_random_wave(rng, n, 4).sample_on_grid(grid) for _ in range(n)]
        got, ref = grid_oracle_star(samples, grid, cfg), grid_oracle_loop(samples, grid, cfg)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_empty_factor_gives_zero():
    cfg = theta3(1, 2, 3)
    w = WaveSum(3, [(1.0, (1.0, 0.0, 0.0)), (2j, (0.0, -1.0, 0.0))])
    assert star_waves([w, WaveSum(3), w], cfg) == WaveSum(3)
    grid = GridSpec(3, 4, 2 * math.pi)
    zero = np.zeros((4, 4, 4), dtype=complex)
    out = grid_oracle_star([w.sample_on_grid(grid), zero, w.sample_on_grid(grid)], grid, cfg)
    assert out.shape == (4, 4, 4) and not out.any()


def test_kernel_overflow_names_the_tuple():
    cfg = theta3(2000, 0, 0)
    waves = [WaveSum(3, [(1.0, (0.0, 0.0, 0.0)), (1.0, (10.0, 0.0, 0.0))]),
             WaveSum.single(1, (0, 10, 0)), WaveSum.single(1, (0, 0, 10))]
    with pytest.raises(KernelOverflowError) as exc:
        star_waves(waves, cfg)
    message = str(exc.value)
    assert "[[10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]]" in message
    assert "(1000000+0j)" in message and "theta (2000, 0, 0)" in message
    assert "np." not in message
    grid = GridSpec(3, 4, 2 * math.pi / 10)  # the lattice frequency 1 is the wave frequency 10
    with pytest.raises(KernelOverflowError, match=r"\[\[10\.0, 0\.0, 0\.0\], "):
        grid_oracle_star([w.sample_on_grid(grid) for w in waves], grid, cfg)
    assert isinstance(exc.value, OverflowError)


def test_merge_key_overflow_names_the_limit():
    with pytest.raises(OverflowError, match=r"\[1e\+300, 0\.0, 0\.0\].*MERGE_TOL") as exc:
        WaveSum.single(1, (1e300, 0, 0))
    assert repr(MERGE_TOL) in str(exc.value)
    WaveSum.single(1, (1e295, 0, 0))  # within range


def test_coefficient_overflow_names_the_tuple():
    # each multiplier is finite; the product of the coefficients is not
    waves = [WaveSum.single(1e200, (1, 0, 0)), WaveSum.single(1e200, (0, 1, 0)),
             WaveSum.single(1, (0, 0, 1))]
    for cfg in (theta3(1, 1, 1), theta3(0, 0, 0)):
        with pytest.raises(KernelOverflowError, match=r"term tuple \[0, 0, 0\]: factor "
                           r"coefficients \[\(1e\+200\+0j\), \(1e\+200\+0j\), \(1\+0j\)\]"):
            star_waves(waves, cfg)
    grid = GridSpec(3, 4, 2 * math.pi)
    with pytest.raises(KernelOverflowError, match="not finite"):
        grid_oracle_star([w.sample_on_grid(grid) for w in waves], grid, theta3(0, 0, 0))
    # just inside the float range the product is returned
    inside = [WaveSum.single(1e150, (1, 0, 0)), WaveSum.single(1e150, (0, 1, 0)),
              WaveSum.single(1, (0, 0, 1))]
    (coeff, _), = star_waves(inside, theta3(0, 0, 0)).terms
    assert coeff == (1e150 + 0j) * 1e150


def test_overflowing_merge_names_the_frequency():
    # every coefficient is finite; their merged sum is not
    with pytest.raises(KernelOverflowError) as exc:
        WaveSum(3, [(1e308, (1, 0, 0)), (2.0, (0, 1, 0)), (1e308, (1, 0, 0))])
    assert str(exc.value) == ("merged wave coefficient at frequency [1.0, 0.0, 0.0] is not "
                              "finite: (inf+0j)")
    # star_waves' array merge: every tuple's product is finite, two of them
    # reach [1, 1, 1]
    factors = [WaveSum(3, [(1e308, (1, 0, 0)), (1e308, (0, 1, 0))]),
               WaveSum(3, [(1, (0, 1, 0)), (1, (1, 0, 0))]), WaveSum.single(1, (0, 0, 1))]
    with pytest.raises(KernelOverflowError) as exc:
        star_waves(factors, theta3(0, 0, 0))
    assert str(exc.value) == ("merged wave coefficient at frequency [1.0, 1.0, 1.0] is not "
                              "finite: (inf+0j)")
    assert isinstance(exc.value, OverflowError)


# -- the array merge and the separable sampler ---------------------------------

def _merge_value(rng, big):
    """A frequency component: small integers nudged within MERGE_TOL, signed
    zeros, or (when big) magnitudes up to 1e295."""
    r = rng.random()
    if r < 0.15:
        return rng.choice([0.0, -0.0])
    if big and r < 0.5:
        return rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(250, 295)
    return float(rng.randint(-1, 1)) + rng.choice([0.0, 0.0, 3e-13, -4e-13, 2e-12])


def _merge_coeff(rng):
    parts = (0.0, -0.0, 1.0, -1.0, 0.5)
    return complex(rng.choice(parts), rng.choice(parts))


@pytest.mark.parametrize("n", [3, 4])
def test_star_waves_merge_matches_wavesum_by_repr(n, monkeypatch):
    rows = []
    merge = waves._merge
    monkeypatch.setattr(waves, "_merge", lambda *a: rows.append(a) or merge(*a))
    rng = random.Random(60 + n)
    zero, e1 = (0.0,) * n, (1.0,) + (0.0,) * (n - 1)
    # the two tuples that reach e1 cancel exactly, so the key is dropped
    cancel = [WaveSum(n, [(1, e1), (1, zero)]), WaveSum(n, [(1, zero), (-1, e1)])]
    cancel += [WaveSum.constant(1, n)] * (n - 2)
    cases = [(ThetaConfig(n, (Fraction(0),) * n), cancel)]
    for case in range(60):
        big = case % 3 == 0  # only theta = 0 keeps exp(kernel) finite at 1e295
        cfg = ThetaConfig(n, (Fraction(0),) * n) if case % 3 < 2 else _random_theta(rng, n)
        cases.append((cfg, [WaveSum(n, [(_merge_coeff(rng), [_merge_value(rng, big) for _ in range(n)])
                                        for _ in range(rng.randint(1, 6))]) for _ in range(n)]))
    for cfg, factors in cases:
        got = star_waves(factors, cfg)
        _, coeff, freq = rows.pop()
        ref = WaveSum(n, zip(coeff.tolist(), freq.tolist()))
        assert repr(got.terms) == repr(ref.terms)
        assert got.n == n


def test_star_waves_merge_key_overflow_names_the_frequency():
    # each factor's key is finite; the output frequency 3e296 is not
    factors = [WaveSum.single(1, (1e296, 0, 0)) for _ in range(3)]
    with pytest.raises(OverflowError) as exc:
        star_waves(factors, theta3(0, 0, 0))
    total = 1e296 + 1e296 + 1e296
    assert f"wave frequency {[total, 0.0, 0.0]} is out of range" in str(exc.value)
    with pytest.raises(OverflowError) as direct:
        WaveSum.single(1, (total, 0, 0))
    assert str(exc.value) == str(direct.value)


def _sample_direct(w, spec):
    """Reference: exp(i s . x) evaluated term by term at every lattice point."""
    points = list(itertools.product(spec.axis_points(), repeat=w.n))
    out = np.zeros(len(points), dtype=complex)
    for c, f in w.terms:
        out += np.array([c * cmath.exp(1j * sum(a * b for a, b in zip(f, x))) for x in points])
    return out.reshape((spec.points_per_axis,) * w.n)


@pytest.mark.parametrize("n, N, terms", [(3, 6, 5), (3, 4, 2 * SAMPLE_BLOCK + 7), (4, 4, SAMPLE_BLOCK + 1)])
def test_sample_on_grid_matches_direct_evaluation(n, N, terms):
    rng = random.Random(70 + terms)
    spec = GridSpec(n, N, 2.5)  # 2*pi/L does not divide these frequencies
    w = WaveSum(n, [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                     tuple(rng.uniform(-4, 4) for _ in range(n))) for _ in range(terms)])
    assert len(w.terms) == terms
    got, ref = w.sample_on_grid(spec), _sample_direct(w, spec)
    assert got.shape == (N,) * n
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_sample_on_grid_of_empty_sum_is_zero():
    for n in (3, 4):
        out = WaveSum(n).sample_on_grid(GridSpec(n, 4, 1.0))
        assert out.shape == (4,) * n and out.dtype == complex and not out.any()
