"""Star products of plane-wave sums, and a DFT lattice oracle.

Plane waves are eigenfunctions of every derivative, so the star product
of n single waves is again a single wave: the output frequency is the
sum of the input frequencies and the coefficient picks up the
exponential of a kernel built from the deformation parameters.  Finite
wave sums follow by multilinearity.

The grid oracle realizes the same product on a periodic lattice: forward
DFT each factor, weight every frequency tuple with the same kernel, and
inverse transform.  For band-limited inputs the two engines agree to
float rounding, which is the cross-check the test suite leans on.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .starcore import ThetaConfig, sigma_power

MERGE_TOL = 1e-12
# The largest frequency component whose merge key round(v / MERGE_TOL) is finite.
_MAX_FREQ = MERGE_TOL * sys.float_info.max
# A lattice frequency is occupied when its amplitude exceeds this fraction
# of the largest one (or of 1, whichever is larger).
OCCUPANCY_CUTOFF = 1e-12
# Terms per matrix product in WaveSum.sample_on_grid; bounds its scratch
# memory to SAMPLE_BLOCK * N^(n-1) samples.
SAMPLE_BLOCK = 64

# i^(n+1) without float drift
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


class WorkBudgetError(RuntimeError):
    """Raised when a lattice product would exceed the configured work budget."""


class KernelOverflowError(OverflowError):
    """Raised when a plane-wave multiplier exp(kernel exponent), its product
    with the factor coefficients, or a merged wave coefficient is not
    finite."""


def freq_cross(q: Sequence[float], r: Sequence[float]) -> tuple:
    """Antisymmetric frequency combination for dimension 3.

    Component j is q_{s(j)} r_{s2(j)} - q_{s2(j)} r_{s(j)}, which is the
    ordinary cross product q x r.  Exact when the inputs are ints.
    """
    if len(q) != 3 or len(r) != 3:
        raise ValueError("defined for dimension 3 only")
    out = []
    for j in range(1, 4):
        s1, s2 = sigma_power(j, 1, 3) - 1, sigma_power(j, 2, 3) - 1
        out.append(q[s1] * r[s2] - q[s2] * r[s1])
    return tuple(out)


def kernel_exponent(freqs: Sequence, cfg: ThetaConfig) -> complex | np.ndarray:
    """Exponent acquired by a star product of n single plane waves.

    exponent = (i^(n+1)/2) * sum_k theta_k * (forward product - reverse
    product) of the slot frequencies routed through the cyclic
    permutation.  Purely real for n = 3, purely imaginary for n = 4.

    Each of the n slots is one frequency vector or an array of them
    (last axis n).  The slots broadcast against each other and the
    result is an array of exponents over the broadcast shape; n plain
    vectors give a Python complex.
    """
    n = cfg.n
    if len(freqs) != n:
        raise ValueError(f"expected {n} frequency vectors, got {len(freqs)}")
    slots = [np.asarray(s, dtype=float) for s in freqs]
    if any(s.shape[-1:] != (n,) for s in slots):
        raise ValueError("frequency vector dimension mismatch")
    shape = np.broadcast_shapes(*(s.shape[:-1] for s in slots))
    total = np.zeros(shape)
    for k in range(1, n + 1):
        th = float(cfg.theta[k - 1])
        if th == 0.0:
            continue
        fwd = 1.0
        for j in range(1, n + 1):
            fwd = fwd * slots[j - 1][..., sigma_power(k, j - 1, n) - 1]
        rev = slots[0][..., k - 1]
        for j in range(2, n + 1):
            rev = rev * slots[j - 1][..., sigma_power(k, n - j + 1, n) - 1]
        total = total + th * (fwd - rev)
    expo = _I_POW[(n + 1) % 4] * (total / 2.0)
    return expo if shape else complex(expo)


def kernel_weights(freqs: Sequence, cfg: ThetaConfig) -> tuple:
    """(exponent, exp(exponent)) for the slots of kernel_exponent.

    Raises KernelOverflowError, naming the first frequency tuple, its
    exponent and theta, when a multiplier is not a finite float.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        expo = kernel_exponent(freqs, cfg)
        weight = np.exp(expo)
    bad = ~np.isfinite(weight)
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        vectors = [np.broadcast_to(np.asarray(s, dtype=float), bad.shape + (cfg.n,))[first].tolist()
                   for s in freqs]
        raise KernelOverflowError(
            f"plane-wave multiplier exp(exponent) is not a finite float for the frequency "
            f"tuple {vectors}: exponent {complex(np.asarray(expo)[first])!r} at theta "
            f"({', '.join(map(str, cfg.theta))})")
    return expo, weight


@dataclass(frozen=True)
class GridSpec:
    """Periodic lattice: N points per axis on [0, L)^n."""

    n: int
    points_per_axis: int
    period: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dimension must be at least 3")
        if self.points_per_axis < 1:
            raise ValueError("points_per_axis must be positive")
        if not (0 < self.period < math.inf and math.isfinite(self.base_freq)):
            raise ValueError(f"period L = {self.period!r} must be positive and finite, "
                             f"with 2*pi/L finite")

    @property
    def base_freq(self) -> float:
        return 2.0 * math.pi / self.period

    def axis_points(self) -> np.ndarray:
        N = self.points_per_axis
        return np.arange(N) * (self.period / N)

    def int_freqs(self) -> np.ndarray:
        """Integer frequency indices in FFT order (0..N/2-1, -N/2..-1)."""
        N = self.points_per_axis
        return np.rint(np.fft.fftfreq(N) * N).astype(int)


def _freq_range_error(freq: Sequence[float]) -> OverflowError:
    return OverflowError(
        f"wave frequency {list(freq)} is out of range: every component v must "
        f"keep |v| / MERGE_TOL = |v| / {MERGE_TOL!r} finite, so |v| must stay "
        f"below about {_MAX_FREQ:.4g}")


def _coeff_overflow_error(coeff: complex, freq: Sequence[float]) -> KernelOverflowError:
    return KernelOverflowError(
        f"merged wave coefficient at frequency {list(freq)} is not finite: {coeff!r}")


def merge_terms(n: int, terms: Iterable[tuple[complex, Sequence[float]]]) -> tuple:
    """(coeff, freq) terms in the canonical form a WaveSum holds.

    Frequencies whose components round to the same multiples of MERGE_TOL
    share a key; each key keeps its first frequency and the sum of its
    coefficients, added in input order.  Keys come out sorted and exact
    zeros are dropped.  A frequency whose key is not finite raises
    OverflowError, and a non-finite coefficient KernelOverflowError, both
    naming the frequency.
    """
    merged: dict[tuple[int, ...], list] = {}
    for coeff, freq in terms:
        freq = tuple(map(float, freq))
        if len(freq) != n:
            raise ValueError("frequency dimension mismatch")
        try:
            key = tuple([round(v / MERGE_TOL) for v in freq])
        except OverflowError:
            raise _freq_range_error(freq) from None
        slot = merged.get(key)
        if slot is None:
            merged[key] = [complex(coeff), freq]
        else:
            slot[0] += complex(coeff)
    out = []
    for key in sorted(merged):
        coeff, freq = merged[key]
        if coeff != 0:
            if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
                raise _coeff_overflow_error(coeff, freq)
            out.append((coeff, freq))
    return tuple(out)


class WaveSum:
    """Finite sum of plane waves sum_a c_a exp(i s_a . x), canonicalized so
    no two stored frequencies coincide (within MERGE_TOL per component)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Iterable[tuple[complex, Sequence[float]]] = ()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", merge_terms(n, terms))

    @staticmethod
    def _canonical(n: int, terms: tuple) -> "WaveSum":
        """Wrap terms that are already merged, sorted and free of zeros."""
        w = object.__new__(WaveSum)
        object.__setattr__(w, "n", n)
        object.__setattr__(w, "terms", terms)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("WaveSum is immutable")

    @staticmethod
    def single(coeff: complex, freq: Sequence[float]) -> "WaveSum":
        return WaveSum(len(freq), [(coeff, freq)])

    @staticmethod
    def constant(coeff: complex, n: int) -> "WaveSum":
        return WaveSum(n, [(coeff, (0.0,) * n)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, WaveSum):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __add__(self, other: "WaveSum") -> "WaveSum":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return WaveSum(self.n, list(self.terms) + list(other.terms))

    def scale(self, c: complex) -> "WaveSum":
        return WaveSum(self.n, [(coeff * c, f) for coeff, f in self.terms])

    def __mul__(self, other: "WaveSum") -> "WaveSum":
        """Pointwise product (frequencies add); the theta = 0 star product."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = []
        for c1, f1 in self.terms:
            for c2, f2 in other.terms:
                out.append((c1 * c2, tuple(a + b for a, b in zip(f1, f2))))
        return WaveSum(self.n, out)

    def sample_on_grid(self, spec: GridSpec) -> np.ndarray:
        """sum_a c_a exp(i s_a . x) at every lattice point.

        exp(i s . x) is the product over axes of exp(i s_k x_k), read from
        one table per axis; each block of terms is one matrix product of
        its first-axis factors, scaled by the coefficients, with the outer
        product of its other axes' factors."""
        if spec.n != self.n:
            raise ValueError("dimension mismatch")
        n, N = self.n, spec.points_per_axis
        out = np.zeros((N, N ** (n - 1)), dtype=complex)
        if self.terms:
            coeff = np.array([c for c, _ in self.terms], dtype=complex)
            freq = np.array([f for _, f in self.terms], dtype=float)
            tables = np.exp(1j * (freq[:, :, None] * spec.axis_points()))  # term, axis, point
            for lo in range(0, len(coeff), SAMPLE_BLOCK):
                block = tables[lo:lo + SAMPLE_BLOCK]
                rest = block[:, n - 1]
                for k in range(n - 2, 0, -1):
                    rest = (block[:, k, :, None] * rest[:, None, :]).reshape(len(block), -1)
                out += (coeff[lo:lo + SAMPLE_BLOCK, None] * block[:, 0]).T @ rest
        return out.reshape((N,) * n)

    def to_json_terms(self) -> list[dict]:
        return [{"re": c.real, "im": c.imag, "freq": list(f)} for c, f in self.terms]

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "terms": self.to_json_terms()})

    @staticmethod
    def from_json(text: str) -> "WaveSum":
        data = json.loads(text)
        return WaveSum(data["n"], [(complex(t["re"], t["im"]), t["freq"]) for t in data["terms"]])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c!r})*exp(i[{', '.join(repr(v) for v in f)}].x)"
                          for c, f in self.terms)

    def __repr__(self) -> str:
        body = " + ".join(f"({c:.6g})e^(i{list(f)}.x)" for c, f in self.terms) or "0"
        return f"<WaveSum n={self.n} {body}>"


def _along(j: int, arr: np.ndarray, n: int) -> np.ndarray:
    """arr with its first axis moved to axis j of an n-way tuple grid."""
    return arr.reshape((1,) * j + (-1,) + (1,) * (n - 1 - j) + arr.shape[1:])


def _weighted_products(coeffs: Sequence[np.ndarray], slots: Sequence[np.ndarray],
                       cfg: ThetaConfig) -> np.ndarray:
    """prod_j coeffs[j] * exp(kernel exponent) over every n-way tuple, one
    term per factor; coeffs[j] and slots[j] hold factor j's terms and
    frequency vectors along axis 0.  Axis j of the result is factor j."""
    n = cfg.n
    _, weight = kernel_weights([_along(j, f, n) for j, f in enumerate(slots)], cfg)
    coeff = 1.0 + 0j
    with np.errstate(over="ignore", invalid="ignore"):
        for j, c in enumerate(coeffs):
            coeff = coeff * _along(j, c, n)
        out = coeff * weight
    bad = ~np.isfinite(out)
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        raise KernelOverflowError(
            f"wave coefficient product is not finite for the term tuple "
            f"{[int(i) for i in first]}: factor coefficients "
            f"{[complex(c[i]) for c, i in zip(coeffs, first)]} times multiplier "
            f"{complex(weight[first])!r}")
    return out


def star_waves(factors: Sequence[WaveSum], cfg: ThetaConfig) -> WaveSum:
    """n-ary star product of finite wave sums, by multilinearity."""
    n = cfg.n
    if len(factors) != n:
        raise ValueError(f"expected {n} factors, got {len(factors)}")
    for w in factors:
        if w.n != n:
            raise ValueError("factor dimension mismatch")
    coeffs = [np.array([c for c, _ in w.terms], dtype=complex) for w in factors]
    slots = [np.array([f for _, f in w.terms], dtype=float).reshape(-1, n) for w in factors]
    coeff = _weighted_products(coeffs, slots, cfg).ravel()
    freq = sum(_along(j, f, n) for j, f in enumerate(slots)).reshape(-1, n)
    return _merge(n, coeff, freq)


def _merge(n: int, coeff: np.ndarray, freq: np.ndarray) -> WaveSum:
    """The WaveSum of the rows (coeff[i], freq[i]), merged with arrays into
    exactly the terms merge_terms builds from them: the same keys, the
    first frequency of each key, the coefficients summed in row order, and
    the same errors for a key or a sum that is not finite."""
    with np.errstate(over="ignore"):
        keys = np.rint(freq / MERGE_TOL)
    bad = ~np.isfinite(keys).all(axis=1)
    if bad.any():
        raise _freq_range_error(freq[np.argmax(bad)].tolist())
    order = np.lexsort(keys.T[::-1])  # stable: rows of one key keep their order
    keys, coeff = keys[order], coeff[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    group = np.cumsum(starts) - 1
    sums = coeff[starts]
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(sums, group[~starts], coeff[~starts])
    freq = freq[order[starts]]  # the first frequency of each key
    bad = ~np.isfinite(sums)
    if bad.any():
        first = np.argmax(bad)
        raise _coeff_overflow_error(complex(sums[first]), freq[first].tolist())
    keep = sums != 0
    return WaveSum._canonical(n, tuple(zip(sums[keep].tolist(), map(tuple, freq[keep].tolist()))))


def grid_oracle_star(factors: Sequence[np.ndarray], spec: GridSpec, cfg: ThetaConfig,
                     budget: float = 1e8) -> np.ndarray:
    """Lattice-sample star product via the discrete Fourier representation.

    Each factor is an N^n array of samples of a band-limited periodic
    function on [0, L)^n.  The factors are analyzed into discrete
    frequencies, every occupied frequency tuple is weighted with
    exp(kernel_exponent), and the weighted sum is synthesized back to
    position samples.  The work is bounded by `budget`, a positive number
    (inf for no limit); a NaN or non-positive budget is a ValueError.
    """
    if not budget > 0:
        raise ValueError(f"budget must be positive (inf for no limit), got {budget!r}")
    n, N = spec.n, spec.points_per_axis
    if len(factors) != n:
        raise ValueError(f"expected {n} factors, got {len(factors)}")
    shape = (N,) * n
    specs = []
    for arr in factors:
        arr = np.asarray(arr, dtype=complex)
        if arr.shape != shape:
            raise ValueError(f"factor shape {arr.shape} does not match grid {shape}")
        specs.append(np.fft.fftn(arr) / N**n)

    occupied = []  # per factor: the (m, n) lattice indices of its occupied frequencies
    for F in specs:
        cutoff = OCCUPANCY_CUTOFF * max(1.0, float(np.abs(F).max()))
        occupied.append(np.argwhere(np.abs(F) > cutoff))

    max_occ = max((len(o) for o in occupied), default=0)
    cost = float(N**n) * float(max_occ) ** (n - 1)
    if cost > budget:
        raise WorkBudgetError(
            f"lattice star cost {cost:.3g} exceeds budget {budget:.3g}")

    ints = spec.int_freqs()
    coeffs = [F[tuple(idx.T)] for F, idx in zip(specs, occupied)]
    coeff = _weighted_products(coeffs, [spec.base_freq * ints[idx] for idx in occupied], cfg)
    target = sum(_along(j, idx, n) for j, idx in enumerate(occupied))
    out_spec = np.zeros(shape, dtype=complex)
    np.add.at(out_spec, tuple(np.moveaxis(target % N, -1, 0)), coeff)
    return np.fft.ifftn(out_spec) * N**n


def save_lattice(path: str, arr: np.ndarray, spec: GridSpec) -> None:
    """Row-major complex-pair binary with a one-line JSON header {n, N, L}."""
    arr = np.ascontiguousarray(np.asarray(arr, dtype=np.complex128))
    header = json.dumps({"n": spec.n, "N": spec.points_per_axis, "L": spec.period})
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        fh.write(arr.tobytes())


def load_lattice(path: str) -> tuple[np.ndarray, GridSpec]:
    with open(path, "rb") as fh:
        header = fh.readline()
        meta = json.loads(header.decode("utf-8"))
        spec = GridSpec(meta["n"], meta["N"], meta["L"])
        data = np.frombuffer(fh.read(), dtype=np.complex128)
    shape = (spec.points_per_axis,) * spec.n
    return data.reshape(shape).copy(), spec
