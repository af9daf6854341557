import cmath
import itertools
import json
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, reject, settings, strategies as st

from nstar import waves
from nstar.exprs import lower_wave, parse_expression
from nstar.scalars import ExactComplex, I
from nstar.starcore import ThetaConfig, deformation_terms, sigma_power
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
    merge_terms,
    save_lattice,
    star_waves,
)
from references import add, constant, mul


def theta3(a, b, c):
    return ThetaConfig(3, (Fraction(a), Fraction(b), Fraction(c)))


def test_freq_cross_examples():
    assert freq_cross((0, 1, 0), (0, 0, 1)) == (1, 0, 0)
    assert freq_cross((2, 3, 4), (2, 3, 4)) == (0, 0, 0)
    with pytest.raises(ValueError, match=r"^defined for dimension 3 vectors only, got 2 and 2 "
                                         r"components$"):
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


def test_kernel_rejects_slots_of_another_length():
    cfg = theta3(1, 1, 1)
    with pytest.raises(ValueError, match=r"^expected 3 frequency vectors, got 2$"):
        kernel_exponent([(1, 0, 0), (0, 1, 0)], cfg)
    with pytest.raises(ValueError, match=r"^frequency vector must have 3 components, got 2$"):
        kernel_exponent([(1, 0, 0), (0, 1), (0, 0, 1)], cfg)
    with pytest.raises(ValueError, match=r"^frequency vector must have 3 components, got 4$"):
        kernel_exponent([np.zeros((5, 3)), np.zeros((5, 4)), (0, 0, 1)], cfg)
    with pytest.raises(ValueError, match=r"^frequency vector must have 3 components, got a scalar$"):
        kernel_exponent([(1, 0, 0), 2.0, (0, 0, 1)], cfg)


def test_kernel_rounds_theta_once_and_names_a_component_past_the_float_range():
    # the largest float itself is in range; 10^309 and its negative are not,
    # and a theta far below the smallest float rounds to 0, as float() does
    top = Fraction(int(sys.float_info.max))
    assert waves.float_theta(theta3(top, Fraction(1, 3), Fraction(1, 10 ** 400))) == \
        (sys.float_info.max, 1 / 3, 0.0)
    for theta, k in (((10 ** 309, 0, 0), 1), ((1, -10 ** 309, 10 ** 309), 2)):
        with pytest.raises(OverflowError, match=rf"^theta component {k} is beyond the float limit "
                                                 rf"1\.7976931348623157e\+308$"):
            kernel_exponent([(1, 0, 0), (0, 1, 0), (0, 0, 1)], theta3(*theta))


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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kernel_exponent_is_the_symbol_of_the_operator(n):
    # on a plane wave exp(i k_j . x) in slot j, d/dx_a acts as i * k_j[a], so
    # the operator of deformation_terms acts on a tensor product of waves as
    # multiplication by its symbol sum_t w_t * prod_j (i * k_j[a_tj]); the
    # symbol is formed here exactly, term by term, and the wave engines'
    # kernel must equal it
    rng = random.Random(f"kernel-symbol-{n}")
    nonzero = 0
    for _ in range(60):
        cfg = ThetaConfig(n, tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)))
        freqs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        symbol, scale = ExactComplex(0), 0.0
        for term in deformation_terms(cfg):
            value = term.weight
            for k, axis in zip(freqs, term.slot_axes):
                value = value * (I * k[axis - 1])
            symbol = symbol + value
            scale += abs(value)
        assert abs(kernel_exponent(freqs, cfg) - symbol.to_complex()) <= 1e-13 * max(1.0, scale)
        nonzero += bool(symbol)
    assert nonzero >= 40


def kernel_exponent_product_order(freqs, cfg):
    """Reference: the kernel with slot 1 inside both products of theta_k,
    ((1 * s_1[k]) * s_2[sigma(k)]) * ... and (s_1[k] * s_2[sigma^(n-1)(k)]) * ...,
    and theta_k times their difference added to a zero total in k order."""
    n = cfg.n
    slots = [np.asarray(s, dtype=float) for s in freqs]
    total = np.zeros(np.broadcast_shapes(*(s.shape[:-1] for s in slots)))
    for k, th in enumerate(waves.float_theta(cfg), 1):
        if th == 0.0:
            continue
        fwd = 1.0
        for j in range(1, n + 1):
            fwd = fwd * slots[j - 1][..., sigma_power(k, j - 1, n) - 1]
        rev = slots[0][..., k - 1]
        for j in range(2, n + 1):
            rev = rev * slots[j - 1][..., sigma_power(k, n - j + 1, n) - 1]
        total = total + th * (fwd - rev)
    return waves._I_POW[(n + 1) % 4] * (total / 2.0)


def _kernel_bound(freqs, cfg):
    """4 n eps sum_k |theta_k| |s_1[k]| (prod |forward factors| + prod |reverse
    factors|) over slots 2..n: the bound, per tuple, on the gap between two
    association orders of the kernel's products."""
    n = cfg.n
    slots = [np.abs(np.asarray(s, dtype=float)) for s in freqs]
    scale = 0.0
    for k, th in enumerate(waves.float_theta(cfg), 1):
        fwd = rev = 1.0
        for j in range(2, n + 1):
            fwd = fwd * slots[j - 1][..., sigma_power(k, j - 1, n) - 1]
            rev = rev * slots[j - 1][..., sigma_power(k, n - j + 1, n) - 1]
        scale = scale + abs(th) * slots[0][..., k - 1] * (fwd + rev)
    return 4 * n * sys.float_info.epsilon * scale


def _kernel_slot_cases(rng, n, component):
    """Plain vectors, one array per tensor axis, and slots of mixed shapes
    that broadcast (a plain first slot, and a full first slot against plain
    others), with components drawn by component()."""
    def draw(shape):
        return np.array([component() for _ in range(math.prod(shape) * n)]).reshape(shape + (n,))
    yield [tuple(component() for _ in range(n)) for _ in range(n)]
    yield [draw((1,) * j + (3,) + (1,) * (n - 1 - j)) for j in range(n)]
    yield [draw(())] + [draw((2, 1)), draw((1, 3))] + [draw((3,)) for _ in range(n - 3)]
    yield [draw((2, 3))] + [draw(()) for _ in range(n - 1)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kernel_exponent_equals_product_order_bytes_on_integer_frequencies(n):
    # products and differences of small integers are exact, so factoring
    # slot 1 out of both products changes no bit, signed zeros included
    rng = random.Random(f"kernel-int-{n}")
    for _ in range(40):
        theta = [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) if rng.random() < 0.7 else 0
                 for _ in range(n)]
        cfg = ThetaConfig(n, tuple(map(Fraction, theta)))
        for freqs in _kernel_slot_cases(rng, n, lambda: float(rng.randint(-7, 7))):
            got = kernel_exponent(freqs, cfg)
            ref = kernel_exponent_product_order(freqs, cfg)
            assert np.asarray(got).tobytes() == np.asarray(ref, dtype=complex).tobytes()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kernel_exponent_within_bound_of_product_order_on_float_frequencies(n):
    rng = random.Random(f"kernel-float-{n}")
    for _ in range(40):
        cfg = ThetaConfig(n, tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(n)))
        for freqs in _kernel_slot_cases(rng, n, lambda: rng.uniform(-3, 3)):
            gap = np.abs(kernel_exponent(freqs, cfg) - kernel_exponent_product_order(freqs, cfg))
            assert (gap <= _kernel_bound(freqs, cfg)).all()


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
    assert star_waves([w1, w2, w3], cfg0) == mul(mul(w1, w2), w3)


def test_star_waves_constants():
    cfg = theta3(1, 2, 3)
    out = star_waves([constant(2, 3), constant(3, 3), constant(-1, 3)], cfg)
    assert out == constant(-6, 3)


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
            bumped[slot] = add(a, b)
            first = list(base)
            first[slot] = a
            second = list(base)
            second[slot] = b
            lhs = star_waves(bumped, cfg)
            rhs = add(star_waves(first, cfg), star_waves(second, cfg))
            assert len(lhs.terms) == len(rhs.terms)
            for (c1, f1), (c2, f2) in zip(lhs.terms, rhs.terms):
                assert f1 == f2
                assert abs(c1 - c2) <= 1e-12 * max(1.0, abs(c2))


def test_wavesum_json_round_trip():
    w = WaveSum(3, [(1 + 2j, (1.0, 0.5, -1.0)), (3.0, (0.0, 0.0, 0.0))])
    data = json.loads(json.dumps({"n": w.n, "terms": w.to_json_terms()}))
    assert WaveSum(data["n"], [(complex(t["re"], t["im"]), t["freq"]) for t in data["terms"]]) == w


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
    product = mul(mul(waves[0], waves[1]), waves[2])
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


@pytest.mark.parametrize("n, N", [(3, True), (3, 4.0), (3.0, 4), (True, 4), (3, np.int64(4))])
def test_grid_spec_rejects_a_size_that_is_not_an_int(n, N):
    with pytest.raises(ValueError, match=r"^(n|points_per_axis) must be an int, got "):
        GridSpec(n, N, 1.0)


def test_lattice_load_rejects_a_payload_of_another_size(tmp_path):
    # the header's grid of 4^3 points asks for exactly 64 complex values
    path = tmp_path / "lattice.bin"
    save_lattice(str(path), np.ones((4, 4, 4), dtype=complex), GridSpec(3, 4, 1.0))
    good = path.read_bytes()
    header = good[:-64 * 16]
    for payload, found in ((good + bytes(16), "65"), (good[:-16], "63"),
                           (good + bytes(3), "64 and 3 stray bytes"), (header, "0")):
        path.write_bytes(payload)
        with pytest.raises(ValueError, match=f"^lattice file {re.escape(str(path))}: "
                                             f"expected 64 complex values, found {found}$"):
            load_lattice(str(path))


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (4, 4, 4, 4), (4, 4, 3), (64,)])
def test_lattice_save_rejects_an_array_of_another_shape(tmp_path, shape):
    # the header would ask for 4^3 values; a file holding others is never written
    path = tmp_path / "lattice.bin"
    with pytest.raises(ValueError, match=re.escape(f"lattice shape {shape} does not match the "
                                                   f"grid's (N,)*n = (4, 4, 4)")):
        save_lattice(str(path), np.ones(shape), GridSpec(3, 4, 1.0))
    assert not path.exists()


@pytest.mark.parametrize("period", [True, False, "x", "1", 1j, None, [1.0]])
def test_grid_spec_rejects_a_period_that_is_not_a_real_number(period):
    with pytest.raises(ValueError, match=r"^period must be a real number, got "):
        GridSpec(3, 4, period)


@pytest.mark.parametrize("period", [1, 2.5, Fraction(1, 3), np.float64(2.0)])
def test_grid_spec_takes_a_real_period(period):
    assert GridSpec(3, 4, period).base_freq == 2.0 * math.pi / period


@pytest.mark.parametrize("header", [b'{"n": 3, "N": 4.0, "L": 1.0}', b'{"n": 3, "N": 4}',
                                    b'{"n": 3, "N": 4, "L": "1"}', b'[3, 4, 1.0]', b'not json'])
def test_lattice_load_rejects_a_header_that_is_no_grid(tmp_path, header):
    path = tmp_path / "lattice.bin"
    path.write_bytes(header + b"\n" + bytes(64 * 16))
    with pytest.raises(ValueError, match=f"^lattice file {re.escape(str(path))}: bad header: "):
        load_lattice(str(path))


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
    # an empty or all-zero factor in every slot, at n = 3 and 4; in the last
    # slot it leaves the oracle's index table no column
    for n in (3, 4):
        cfg = ThetaConfig(n, tuple(Fraction(k) for k in range(1, n + 1)))
        unit = [tuple(float(i == k) for i in range(n)) for k in range(n)]
        w = WaveSum(n, [(1.0, unit[0]), (2j, tuple(-v for v in unit[1])), (-0.5, unit[-1])])
        grid = GridSpec(n, 4, 2 * math.pi)
        zero = np.zeros((4,) * n, dtype=complex)
        for slot in range(n):
            factors = [w] * n
            factors[slot] = WaveSum(n)
            assert star_waves(factors, cfg) == WaveSum(n)
            samples = [w.sample_on_grid(grid)] * n
            samples[slot] = zero
            out = grid_oracle_star(samples, grid, cfg)
            assert out.shape == (4,) * n and not out.any()


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


def _dict_merge(factors, cfg):
    """Reference: every tuple's row, its weighted coefficient and its
    frequency summed slot by slot as ((0 + f_0) + f_1) + ..., through
    WaveSum's dict merge."""
    n = cfg.n
    coeffs = [np.array([c for c, _ in w.terms], dtype=complex) for w in factors]
    slots = [np.array([f for _, f in w.terms], dtype=float).reshape(-1, n) for w in factors]
    coeff = waves._weighted_products(coeffs, slots, cfg).ravel()
    freq = 0
    for j, f in enumerate(slots):
        freq = freq + f.reshape((1,) * j + (-1,) + (1,) * (n - 1 - j) + (n,))
    return WaveSum(n, zip(coeff.tolist(), freq.reshape(-1, n).tolist()))


def _assert_merge_matches_dict_merge(factors, cfg):
    """star_waves gives the dict merge's terms by repr, or its error text."""
    try:
        ref = _dict_merge(factors, cfg)
    except OverflowError as exc:
        with pytest.raises(type(exc)) as got:
            star_waves(factors, cfg)
        assert str(got.value) == str(exc)
        return None
    got = star_waves(factors, cfg)
    assert repr(got.terms) == repr(ref.terms)
    assert got.n == cfg.n
    return got


@pytest.mark.parametrize("n", [3, 4, 5])
def test_star_waves_merge_matches_wavesum_by_repr(n):
    rng = random.Random(60 + n)
    zero, e1 = (0.0,) * n, (1.0,) + (0.0,) * (n - 1)
    # the two tuples that reach e1 cancel exactly, so the key is dropped
    cancel = [WaveSum(n, [(1, e1), (1, zero)]), WaveSum(n, [(1, zero), (-1, e1)])]
    cancel += [constant(1, n)] * (n - 2)
    cases = [(ThetaConfig(n, (Fraction(0),) * n), cancel)]
    for case in range(60):
        big = case % 3 == 0  # only theta = 0 keeps exp(kernel) finite at 1e295
        cfg = ThetaConfig(n, (Fraction(0),) * n) if case % 3 < 2 else _random_theta(rng, n)
        cases.append((cfg, [WaveSum(n, [(_merge_coeff(rng), [_merge_value(rng, big) for _ in range(n)])
                                        for _ in range(rng.randint(1, 6))]) for _ in range(n)]))
    for cfg, factors in cases:
        assert _assert_merge_matches_dict_merge(factors, cfg) is not None


def test_star_waves_merge_cascade_cases():
    flat = theta3(0, 0, 0)
    one = constant(1, 3)
    # distinct tuples whose partial sums after slot 1 are exactly equal
    pair = [WaveSum(3, [(1, (1, 0, 0)), (2j, (0, 1, 0))]), WaveSum(3, [(3, (0, 1, 0)), (4, (1, 0, 0))])]
    got = _assert_merge_matches_dict_merge(pair + [WaveSum(3, [(1, (0, 0, 1)), (-1, (0, 0, 0))])], flat)
    assert {f: c for c, f in got.terms}[(1.0, 1.0, 1.0)] == 8j + 3
    # exactly distinct partials that share a key: the tuple first in row
    # order, not the smallest partial, names the key's frequency
    nudged = 1 + 3e-13
    factors = [WaveSum(3, [(1, (0, 0, 0)), (1, (1, 0, 0))]),
               WaveSum(3, [(1, (nudged, 0, 0)), (1, (0, 0, 0))]), one]
    got = _assert_merge_matches_dict_merge(factors, flat)
    assert got.terms == ((1 + 0j, (0.0, 0.0, 0.0)), (2 + 0j, (nudged, 0.0, 0.0)),
                         (1 + 0j, (1 + nudged, 0.0, 0.0)))
    # three tuples overflow the key; the first in row order has the later
    # sorted partial: (1e296, 0, 0) after (0, 0, 1e296)
    factors = [WaveSum(3, [(1, (0, 0, 0)), (1, (0, 0, 1e296))]),
               WaveSum(3, [(1, (0, 0, 0)), (1, (1e296, 0, 0))]), WaveSum.single(1, (1e296, 0, 1e296))]
    with pytest.raises(OverflowError, match=r"wave frequency \[2e\+296, 0\.0, 1e\+296\]"):
        star_waves(factors, flat)
    _assert_merge_matches_dict_merge(factors, flat)
    # each tuple's coefficient is finite; two share a key and overflow it
    factors = [WaveSum(3, [(1e308, (1, 0, 0)), (1e308, (0, 1, 0))]),
               WaveSum(3, [(1, (0, 1, 0)), (1, (1, 0, 0))]), one]
    with pytest.raises(KernelOverflowError, match="merged wave coefficient"):
        star_waves(factors, flat)
    _assert_merge_matches_dict_merge(factors, flat)
    # an empty factor
    assert _assert_merge_matches_dict_merge([pair[0], WaveSum(3), pair[1]], flat) == WaveSum(3)


def test_merge_keeps_signed_zeros_by_repr():
    # a key whose one coefficient has a -0.0 part, and a key whose rows sum
    # (-0.0) + (-0.0): both keep the sign, as WaveSum's dict merge does
    zero, e1 = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)
    slots = [np.array([zero]), np.array([zero, e1]), np.array([e1, zero])]
    coeff = np.array([complex(-0.0, 1.0), complex(1.0, -0.0), 0.5 + 0.5j, complex(-0.0, 2.0)])
    freqs = [tuple(a + b + c for a, b, c in zip(*row))
             for row in itertools.product(*(s.tolist() for s in slots))]
    got = waves._merge(3, coeff, slots)
    assert repr(got.terms) == repr(WaveSum(3, zip(coeff.tolist(), freqs)).terms)
    assert repr(got.terms) == ("(((1-0j), (0.0, 0.0, 0.0)), ((-0+3j), (1.0, 0.0, 0.0)), "
                               "((0.5+0.5j), (2.0, 0.0, 0.0)))")


_merge_components = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda v, d: v + d, st.sampled_from([-1.0, 0.0, 1.0]),
              st.sampled_from([0.0, 3e-13, -4e-13, 2e-12])),
    st.builds(lambda s, e: s * 10.0 ** e, st.sampled_from([1.0, -1.0]), st.floats(250, 296)))
_merge_coeffs = st.builds(complex, *[st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e308])] * 2)


@st.composite
def _merge_cases(draw):
    n = draw(st.integers(3, 5))
    theta = draw(st.one_of(st.just((0,) * n), st.tuples(*[st.integers(-2, 2)] * n)))
    try:  # a factor's own merge may overflow its coefficients
        factors = [WaveSum(n, draw(st.lists(st.tuples(_merge_coeffs, st.tuples(*[_merge_components] * n)),
                                            max_size=4)))
                   for _ in range(n)]
    except OverflowError:
        reject()
    return factors, ThetaConfig(n, tuple(map(Fraction, theta)))


# no explain phase: it traces a failing case line by line, for minutes on a
# 1,024-row product
@settings(deadline=None, phases=[phase for phase in Phase if phase is not Phase.explain])
@given(_merge_cases())
def test_star_waves_merge_matches_dict_merge_hypothesis(case):
    factors, cfg = case
    _assert_merge_matches_dict_merge(factors, cfg)


@st.composite
def _finite_merge_cases(draw):
    n = draw(st.integers(3, 5))
    theta = draw(st.one_of(st.just((0,) * n), st.tuples(*[st.integers(-2, 2)] * n)))
    coeffs = st.builds(complex, *[st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])] * 2)
    factors = [WaveSum(n, draw(st.lists(st.tuples(coeffs, st.tuples(*[_merge_components] * n)),
                                        min_size=1, max_size=4)))
               for _ in range(n)]
    return factors, ThetaConfig(n, tuple(map(Fraction, theta)))


# no explain phase: it traces a failing case line by line, for minutes on a
# 1,024-row product
@settings(deadline=None, phases=[phase for phase in Phase if phase is not Phase.explain])
@given(_finite_merge_cases())
def test_merge_arrays_match_merge_terms_bytes(case):
    # _merge's arrays hold exactly merge_terms' terms on the same rows, signed
    # zeros included
    factors, cfg = case
    n = cfg.n
    slots = [w.freq for w in factors]
    rows = [tuple(map(sum, zip(*combo))) for combo in itertools.product(*(s.tolist() for s in slots))]
    if not rows:  # star_waves merges no product with an empty factor
        reject()
    try:
        coeff = waves._weighted_products([w.coeff for w in factors], slots, cfg).ravel()
        ref = merge_terms(n, zip(coeff.tolist(), rows))
    except OverflowError:  # the same errors: test_star_waves_merge_matches_dict_merge_hypothesis
        reject()
    got = waves._merge(n, coeff, slots)
    assert got.coeff.shape == (len(ref),) and got.freq.shape == (len(ref), n)
    assert got.coeff.tobytes() == np.array([c for c, _ in ref], dtype=complex).tobytes()
    assert got.freq.tobytes() == np.array([f for _, f in ref], dtype=float).reshape(-1, n).tobytes()


def _assert_terms_view(w):
    assert w.coeff.dtype == complex and w.freq.dtype == float
    assert w.coeff.shape == (len(w.terms),) and w.freq.shape == (len(w.terms), w.n)
    assert repr(w.terms) == repr(tuple(zip(w.coeff.tolist(), map(tuple, w.freq.tolist()))))
    assert len(w.terms) == len(w.coeff)


def test_wave_sum_terms_are_a_view_of_its_arrays():
    flat = theta3(0, 0, 0)
    lowered = lower_wave(parse_expression("wave(1,0,0) - 2i*wave(0,-0.5,3) + 1 - wave(1,0,0)", 3), 3)
    sums = [lowered, WaveSum(3), WaveSum(4), constant(-0.0j + 2, 3),
            WaveSum(3, [(1, (2, 0, 0)), (-0.5j, (0, 0, 1)), (3, (2, 0, 0))])]
    merged = star_waves([sums[-1], lowered, sums[-1]], theta3(1, 2, 3))
    empty = star_waves([lowered, WaveSum(3), lowered], flat)
    cancelled = waves._merge(3, np.array([1.0 + 0j, -1.0 + 0j]),
                             [np.zeros((1, 3)), np.zeros((2, 3)), np.zeros((1, 3))])
    for w in sums + [merged, empty, cancelled]:
        _assert_terms_view(w)
    assert len(merged.terms) == 6
    for w in (WaveSum(3), WaveSum(4), empty, cancelled):
        assert w.terms == () and w.coeff.shape == (0,) and w.freq.shape == (0, w.n)
    assert merged == WaveSum(3, merged.terms) and str(merged) == str(WaveSum(3, merged.terms))


def test_wave_sum_arrays_are_read_only():
    flat = theta3(0, 0, 0)
    w = WaveSum(3, [(1, (1, 0, 0)), (2j, (0, 1, 0))])
    merged = star_waves([w, w, constant(1, 3)], flat)
    for s in (w, merged, WaveSum(3)):
        for arr in (s.coeff, s.freq):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        for name in ("n", "coeff", "freq", "terms", "other"):
            with pytest.raises(AttributeError, match="^WaveSum is immutable$"):
                setattr(s, name, None)
    assert merged.terms == ((-4 + 0j, (0.0, 2.0, 0.0)), (4j, (1.0, 1.0, 0.0)), (1 + 0j, (2.0, 0.0, 0.0)))


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


# off-lattice values: no two terms share one, so no run of the contraction
# has two rows
@pytest.mark.parametrize("n, N, terms", [(3, 6, 5), (3, 4, 2 * SAMPLE_BLOCK + 7), (4, 4, SAMPLE_BLOCK + 1),
                                         (3, 4, 200), (4, 4, 200)])
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


def _assert_samples_direct(w, spec):
    got, ref = w.sample_on_grid(spec), _sample_direct(w, spec)
    assert got.shape == (spec.points_per_axis,) * w.n
    assert np.abs(got - ref).max() <= 1e-12 * sum(abs(c) for c, _ in w.terms)


def _dense_wave(rng, n, reach):
    """Every frequency in {-reach..reach}^n once, with random coefficients."""
    return WaveSum(n, [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), tuple(map(float, f)))
                       for f in itertools.product(range(-reach, reach + 1), repeat=n)])


@pytest.mark.parametrize("N", [8, 16])
def test_sample_on_grid_of_dense_lattice_sum_matches_direct_evaluation(N):
    # 343 terms in runs of 7 on every axis: the closed-form shape of the
    # oracle's n = 3 products
    w = _dense_wave(random.Random(100 + N), 3, 3)
    assert len(w.terms) == 343
    _assert_samples_direct(w, GridSpec(3, N, 2 * math.pi))


def test_sample_on_grid_of_n4_closed_form_matches_direct_evaluation():
    # the product of four factors over the frequencies 0 and +-e_k
    rng = random.Random(104)
    unit = [tuple(float(i == k) for i in range(4)) for k in range(4)]
    freqs = [(0.0,) * 4] + unit + [tuple(-v for v in u) for u in unit]
    factors = [WaveSum(4, [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), f) for f in freqs])
               for _ in range(4)]
    closed = star_waves(factors, _random_theta(rng, 4))
    assert len(closed.terms) == 321
    _assert_samples_direct(closed, GridSpec(4, 8, 2 * math.pi))


@pytest.mark.parametrize("block", [1, 3])
def test_sample_on_grid_with_runs_split_across_blocks(monkeypatch, block):
    # runs of 3 and of 5 rows cut by blocks of 1 and 3 rows
    monkeypatch.setattr(waves, "SAMPLE_BLOCK", block)
    rng = random.Random(110 + block)
    for n, reach in ((3, 1), (3, 2), (4, 1)):
        _assert_samples_direct(_dense_wave(rng, n, reach), GridSpec(n, 6, 2 * math.pi))



# -- the flat spectrum bit for bit, and the per-term exp tables ----------------

def grid_oracle_tuple_accumulation(factors, spec, cfg):
    """Reference: the lattice oracle accumulating its weighted tuples into an
    N^n spectrum with one n-tuple np.add.at over their (M, ..., M, n)
    output indices."""
    n, N = spec.n, spec.points_per_axis
    specs = [np.fft.fftn(np.asarray(a, dtype=complex)) / N**n for a in factors]
    occupied = []
    for F in specs:
        cutoff = waves.OCCUPANCY_CUTOFF * max(1.0, float(np.abs(F).max()))
        occupied.append(np.argwhere(np.abs(F) > cutoff))
    ints = spec.int_freqs()
    coeffs = [F[tuple(idx.T)] for F, idx in zip(specs, occupied)]
    coeff = waves._weighted_products(coeffs, [spec.base_freq * ints[idx] for idx in occupied],
                                     cfg)
    target = sum(waves._along(j, idx, n) for j, idx in enumerate(occupied))
    out_spec = np.zeros((N,) * n, dtype=complex)
    np.add.at(out_spec, tuple(np.moveaxis(target % N, -1, 0)), coeff)
    return np.fft.ifftn(out_spec) * N**n


def sample_per_term_tables(w, spec):
    """Reference: WaveSum.sample_on_grid with one exp table per (term, axis)."""
    n, N = w.n, spec.points_per_axis
    out = np.zeros((N, N ** (n - 1)), dtype=complex)
    coeff = np.array([c for c, _ in w.terms], dtype=complex)
    freq = np.array([f for _, f in w.terms], dtype=float)
    tables = np.exp(1j * (freq[:, :, None] * spec.axis_points()))
    for lo in range(0, len(coeff), SAMPLE_BLOCK):
        block = tables[lo:lo + SAMPLE_BLOCK]
        rest = block[:, n - 1]
        for k in range(n - 2, 0, -1):
            rest = (block[:, k, :, None] * rest[:, None, :]).reshape(len(block), -1)
        out += (coeff[lo:lo + SAMPLE_BLOCK, None] * block[:, 0]).T @ rest
    return out.reshape((N,) * n)


@pytest.mark.parametrize("n, N, reach", [(3, 4, 1), (3, 8, 2), (4, 4, 1), (5, 4, 1)])
def test_grid_oracle_flat_spectrum_equals_tuple_accumulation_bytes(n, N, reach):
    # N = 4 holds frequencies -2..1 per axis, so tuples with components in
    # -1..1 sum past the band and wrap; at N = 8, components in -2..2 do too
    rng = random.Random(80 + 10 * n + N)
    grid = GridSpec(n, N, 2 * math.pi)
    for _ in range(3):
        cfg = _random_theta(rng, n)
        samples = [_random_wave(rng, n, rng.randint(2, 6), reach).sample_on_grid(grid)
                   for _ in range(n)]
        ref = grid_oracle_tuple_accumulation(samples, grid, cfg)
        assert grid_oracle_star(samples, grid, cfg).tobytes() == ref.tobytes()
        # a factor with a single occupied frequency
        single = WaveSum.single(1.5 - 0.5j, (-1.0,) + (0.0,) * (n - 1)).sample_on_grid(grid)
        samples[1] = single
        ref = grid_oracle_tuple_accumulation(samples, grid, cfg)
        assert grid_oracle_star(samples, grid, cfg).tobytes() == ref.tobytes()
        # and in the last slot, whose indices join through the oracle's table
        samples[-1] = single
        ref = grid_oracle_tuple_accumulation(samples, grid, cfg)
        assert grid_oracle_star(samples, grid, cfg).tobytes() == ref.tobytes()
    if n == 3 and N == 4:
        # off-lattice frequencies occupy every lattice frequency
        off = [WaveSum(n, [(1 - 1j, (0.3, -0.0, 1.0)), (0.5j, (0.0, -0.7, 0.3))]).sample_on_grid(grid)
               for _ in range(n)]
        ref = grid_oracle_tuple_accumulation(off, grid, cfg)
        assert grid_oracle_star(off, grid, cfg).tobytes() == ref.tobytes()


def _sample_bound(w):
    """16 eps times the sum of |c_a|: the bound, per sample, on the gap
    between two summation orders of w's samples."""
    return 16 * sys.float_info.epsilon * sum(abs(c) for c, _ in w.terms)


@pytest.mark.parametrize("n, N, L", [(3, 4, 2 * math.pi), (3, 6, 2.5), (4, 4, 1.0)])
def test_sample_on_grid_within_bound_of_per_term_tables(n, N, L):
    # the grouped contraction sums in another order than the per-term
    # blocks, so the samples agree to a bound, not bit for bit
    rng = random.Random(90 + 10 * n + N)
    spec = GridSpec(n, N, L)
    # repeated values, off-lattice ones, and 0.0 next to -0.0
    values = [0.0, -0.0, 1.0, -1.0, 0.37, -2.5, spec.base_freq]
    for terms in (1, 5, SAMPLE_BLOCK + 3):
        w = WaveSum(n, [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                         tuple(rng.choice(values) for _ in range(n))) for _ in range(terms)])
        assert np.abs(w.sample_on_grid(spec) - sample_per_term_tables(w, spec)).max() <= _sample_bound(w)
    freq = np.array([f for _, f in w.terms])
    zero = freq == 0
    assert (zero & np.signbit(freq)).any() and (zero & ~np.signbit(freq)).any()
    mixed = WaveSum(n, [(1.0, (0.0, -0.0) + (1.0,) * (n - 2)), (2j, (-0.0, 0.0) + (-1.0,) * (n - 2))])
    assert np.abs(mixed.sample_on_grid(spec) - sample_per_term_tables(mixed, spec)).max() <= _sample_bound(mixed)


def test_distinct_rows_in_lexicographic_order():
    rng = np.random.default_rng(5)
    # 8000 values per column: the five-column code outgrows int64 and is re-ranked
    wide = np.stack([rng.permutation(8000) - 4000.0 for _ in range(5)], axis=1)
    narrow = rng.integers(-2, 3, (300, 3)).astype(float)
    for rows in (np.concatenate([wide, wide[::-1]]), narrow, np.array([[0.0, -0.0], [-0.0, 0.0]])):
        distinct, inverse = waves._distinct(rows)
        ref, ref_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(distinct, ref)
        assert np.array_equal(inverse, ref_inverse.ravel())
    assert waves._distinct(np.array([[0.0, -0.0], [-0.0, 0.0]]))[0].shape == (1, 2)
