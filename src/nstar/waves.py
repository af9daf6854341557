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
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .starcore import ThetaConfig, _check_arity, sigma_power

MERGE_TOL = 1e-12
# The largest frequency component whose merge key round(v / MERGE_TOL) is finite.
_MAX_FREQ = MERGE_TOL * sys.float_info.max
# A lattice frequency is occupied when its amplitude exceeds this fraction
# of the largest one (or of 1, whichever is larger).
OCCUPANCY_CUTOFF = 1e-12
# Grouped rows per block in WaveSum.sample_on_grid; bounds each of its
# intermediates to SAMPLE_BLOCK * N^(n-1) samples.
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
    ordinary cross product q x r.  Exact when the inputs are ints; a float
    component that is not finite raises OverflowError naming q and r.
    """
    if len(q) != 3 or len(r) != 3:
        raise ValueError(f"defined for dimension 3 vectors only, got {len(q)} and {len(r)} "
                         f"components")
    out = []
    for j in range(1, 4):
        s1, s2 = sigma_power(j, 1, 3) - 1, sigma_power(j, 2, 3) - 1
        out.append(q[s1] * r[s2] - q[s2] * r[s1])
    if any(isinstance(v, float) and not math.isfinite(v) for v in out):
        raise OverflowError(f"frequency cross product of q = {list(q)} and r = {list(r)} "
                            f"is not finite: {out}")
    return tuple(out)


def float_theta(cfg: ThetaConfig) -> tuple[float, ...]:
    """theta rounded to floats, the one place the wave path converts it.

    Raises OverflowError naming the first component that rounds past the
    largest float.
    """
    out = []
    for k, th in enumerate(cfg.theta, 1):
        try:
            out.append(float(th))
        except OverflowError:
            raise OverflowError(f"theta component {k} is beyond the float limit "
                                f"{sys.float_info.max!r}") from None
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

    sigma^0 is the identity, so slot 1 enters both products of theta_k as
    its component k and is factored out: the products over slots 2..n
    and their difference are formed on those slots' broadcast shape
    alone, and each k costs three passes over the full shape
    (s_1[k] * difference, times theta_k, added to the total in k order).
    Products and differences of small integers are exact, so every
    integer-valued frequency gives the exponent of the unfactored
    product bit for bit; other floats may move in their last bits.

    The sigma-routing is written out here, not read from
    ``starcore.deformation_terms`` or its plan, on purpose: it is the one
    copy of the routing the exact engine does not share, so comparing the
    two (the kernel is the symbol of the operator) checks both.
    """
    n = cfg.n
    if len(freqs) != n:
        raise ValueError(f"expected {n} frequency vectors, got {len(freqs)}")
    slots = [np.asarray(s, dtype=float) for s in freqs]
    for s in slots:
        if s.shape[-1:] != (n,):
            raise ValueError(f"frequency vector must have {n} components, got "
                             f"{s.shape[-1] if s.ndim else 'a scalar'}")
    shape = np.broadcast_shapes(*(s.shape[:-1] for s in slots))
    total = np.zeros(shape)
    for k, th in enumerate(float_theta(cfg), 1):
        if th == 0.0:
            continue
        fwd = rev = 1.0
        for j in range(2, n + 1):
            fwd = fwd * slots[j - 1][..., sigma_power(k, j - 1, n) - 1]
            rev = rev * slots[j - 1][..., sigma_power(k, n - j + 1, n) - 1]
        term = slots[0][..., k - 1] * (fwd - rev)
        term *= th
        total += term
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
        for name in ("n", "points_per_axis"):
            value = getattr(self, name)
            if type(value) is not int:  # bool too: True would act as 1
                raise ValueError(f"{name} must be an int, got {value!r}")
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
        freq, key = _merge_key(n, freq)
        slot = merged.get(key)
        if slot is None:
            merged[key] = [complex(coeff), freq]
        else:
            slot[0] += complex(coeff)
    return _nonzero_terms([merged[key] for key in sorted(merged)])


def _merge_key(n: int, freq: Sequence[float]) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """freq as floats, and its merge key."""
    freq = tuple(map(float, freq))
    if len(freq) != n:
        raise ValueError("frequency dimension mismatch")
    try:
        return freq, tuple([round(v / MERGE_TOL) for v in freq])
    except OverflowError:
        raise _freq_range_error(freq) from None


def _nonzero_terms(terms) -> tuple:
    """The (coeff, freq) terms whose coefficient is not 0; a non-finite one
    raises."""
    out = []
    for coeff, freq in terms:
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
        one table per distinct frequency value, and the sum is contracted
        one axis at a time from the last: terms whose table rows agree on
        axes 0..k-1 form a run (contiguous, as the terms are sorted), and
        each run's sum over axis k and the axes after it is one row.  The
        last axis scales each term's row by its coefficient and sums the
        runs; each middle axis k takes, per block of at most SAMPLE_BLOCK
        rows, the outer product with the axis-k rows and sums the runs on
        axes 0..k-1; the first axis is one matrix product whose inner
        dimension is the block's number of distinct axis-0 values.  A run
        split by the term order is only one more row."""
        if spec.n != self.n:
            raise ValueError("dimension mismatch")
        n, N = self.n, spec.points_per_axis
        out = np.zeros((N, N ** (n - 1)), dtype=complex)
        if self.terms:
            coeff = np.array([c for c, _ in self.terms], dtype=complex)
            freq = np.fromiter(chain.from_iterable([f for _, f in self.terms]), dtype=float,
                               count=len(self.terms) * n).reshape(-1, n)
            values, inverse = np.unique(freq, return_inverse=True)
            table = np.exp(1j * (values[:, None] * spec.axis_points()))
            index = inverse.reshape(freq.shape)  # term, axis -> table row
            # the first axis on which each row's table rows differ from the
            # previous row's: a row starts a run on axes 0..k-1 when it is < k
            level = np.zeros(len(index), dtype=np.intp)
            level[1:] = (index[1:] != index[:-1]).argmax(axis=1)
            starts = (level < n - 1).nonzero()[0]
            part = _sum_runs(coeff[:, None] * table[index[:, n - 1]], starts)
            index, level = index[starts], level[starts]
            level[::SAMPLE_BLOCK] = 0  # each block starts a run on every axis
            for lo in range(0, len(index), SAMPLE_BLOCK):
                rows, lv = index[lo:lo + SAMPLE_BLOCK], level[lo:lo + SAMPLE_BLOCK]
                block = part[lo:lo + SAMPLE_BLOCK]
                for k in range(n - 2, 0, -1):
                    block = (table[rows[:, k], :, None] * block[:, None, :]).reshape(len(rows), -1)
                    starts = (lv < k).nonzero()[0]
                    block, rows, lv = _sum_runs(block, starts), rows[starts], lv[starts]
                out += table[rows[:, 0]].T @ block
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


def _sum_runs(rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sums of the runs of rows that begin at starts (starts[0] is 0).

    When every run is one row the rows are their own sums; np.add.reduceat
    would copy them one sample at a time."""
    return rows if len(starts) == len(rows) else np.add.reduceat(rows, starts)


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
        coeff *= weight  # in place: the tuple grid gets no second complex array
    bad = ~np.isfinite(coeff)
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        raise KernelOverflowError(
            f"wave coefficient product is not finite for the term tuple "
            f"{[int(i) for i in first]}: factor coefficients "
            f"{[complex(c[i]) for c, i in zip(coeffs, first)]} times multiplier "
            f"{complex(weight[first])!r}")
    return coeff


def star_waves(factors: Sequence[WaveSum], cfg: ThetaConfig) -> WaveSum:
    """n-ary star product of finite wave sums, by multilinearity."""
    _check_arity(factors, cfg)
    n = cfg.n
    if not all(w.terms for w in factors):
        return WaveSum._canonical(n, ())
    coeffs = [np.array([c for c, _ in w.terms], dtype=complex) for w in factors]
    slots = [np.array([f for _, f in w.terms], dtype=float).reshape(-1, n) for w in factors]
    return _merge(n, _weighted_products(coeffs, slots, cfg).ravel(), slots)


def _distinct(rows: np.ndarray) -> tuple:
    """(the distinct rows in lexicographic order, each row's index among them).

    Each column is ranked by an unstable argsort, all columns in one call,
    and a row's ranks are combined in mixed radix into one integer code
    whose numeric order is the rows' lexicographic order; a partial code
    that could overflow is first replaced by its rank.  One more argsort
    ranks the codes.  (np.lexsort's stable sorts of float columns cost
    more from a few hundred rows on.)"""
    ranks, counts = _ranks(rows.T)
    code, span = ranks[0], counts[0]
    for rank, count in zip(ranks[1:], counts[1:]):
        if span * count > np.iinfo(np.intp).max:
            (code,), (span,) = _ranks(code[None])
        code = code * count + rank
        span *= count
    (inverse,), (size,) = _ranks(code[None])
    first = np.empty(size, dtype=np.intp)
    first[inverse] = np.arange(len(rows))  # a row of each code
    return rows[first], inverse


def _ranks(table: np.ndarray) -> tuple:
    """(each entry's rank among the distinct values of its row of the
    table, the number of distinct values per row); equal values share a
    rank."""
    width = table.shape[1]
    flat = (np.argsort(table, axis=1) + np.arange(0, table.size, width)[:, None]).ravel()
    ordered = table.ravel()[flat].reshape(table.shape)
    dense = np.ones(table.shape, dtype=np.intp)
    dense[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    dense = np.cumsum(dense, axis=1)
    ranks = np.empty(table.size, dtype=np.intp)
    ranks[flat] = dense.ravel() - 1
    return ranks.reshape(table.shape), dense[:, -1].tolist()


def _merge(n: int, coeff: np.ndarray, slots: Sequence[np.ndarray]) -> WaveSum:
    """The WaveSum of the tuple rows (coeff[i], sum of the slot frequencies
    of tuple i), merged with arrays into exactly the terms merge_terms
    builds from them: the same keys, the first frequency of each key, the
    coefficients summed in row order, and the same errors for a key or a
    sum that is not finite.

    On lattice inputs most tuples share a frequency, so no step sorts one
    row per tuple.  The partial sums ((0 + f_0) + f_1) + ... over slots
    0..n-2 are deduplicated stage by stage, each tuple carrying an index
    into the distinct ones (slot 0's are distinct already: a WaveSum holds
    one frequency per key).  Equal partials are bitwise equal, as no
    partial is -0.0, so a tuple's frequency is its distinct partial plus
    its last-slot frequency.  Only those (partial, last slot) rows get
    keys; the first tuple of a row, and of a key, is a minimum over
    tuple indices."""
    part, prefix = 0 + slots[0], np.arange(len(slots[0]))
    for f in slots[1:-1]:
        part, inverse = _distinct((part[:, None] + f).reshape(-1, n))
        prefix = inverse.reshape(-1, len(f))[prefix].ravel()
    m = len(slots[-1])
    freq = (part[:, None] + slots[-1]).reshape(-1, n)
    # each row's first tuple in row order
    first_prefix = np.full(len(part), len(prefix))
    np.minimum.at(first_prefix, prefix, np.arange(len(prefix)))
    first_row = (first_prefix[:, None] * m + np.arange(m)).ravel()
    with np.errstate(over="ignore"):
        keys = np.rint(freq / MERGE_TOL)
    bad = ~np.isfinite(keys).all(axis=1)
    if bad.any():
        raise _freq_range_error(freq[np.where(bad, first_row, len(coeff)).argmin()].tolist())
    distinct_keys, key_of_row = _distinct(keys)
    first = np.full(len(distinct_keys), len(coeff))
    np.minimum.at(first, key_of_row, first_row)
    group = key_of_row.reshape(-1, m)[prefix].ravel()
    # -0.0 is the additive identity (-0.0 + x is x, signed zeros included),
    # so each key's sum is its first coefficient plus the rest, in row order
    sums = np.full(len(distinct_keys), complex(-0.0, -0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(sums, group, coeff)
    freq = freq[prefix[first // m] * m + first % m]  # the first frequency of each key
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
        modulus = np.abs(F)
        cutoff = OCCUPANCY_CUTOFF * max(1.0, float(modulus.max()))
        occupied.append(np.argwhere(modulus > cutoff))

    max_occ = max((len(o) for o in occupied), default=0)
    cost = float(N**n) * float(max_occ) ** (n - 1)
    if cost > budget:
        raise WorkBudgetError(
            f"lattice star cost {cost:.3g} exceeds budget {budget:.3g}")

    ints = spec.int_freqs()
    coeffs = [F[tuple(idx.T)] for F, idx in zip(specs, occupied)]
    coeff = _weighted_products(coeffs, [spec.base_freq * ints[idx] for idx in occupied], cfg)
    # each tuple's output frequency as one flat index in C order: per axis k,
    # the indices of slots 1..n-1 summed mod N on their own grid pick a row
    # of an N x m table whose column b is N^(n-1-k) * ((row + b's index) mod N)
    # for the m occupied frequencies b of slot n
    flat = 0
    for k in range(n):
        head = sum(_along(j, idx[:, k], n - 1) for j, idx in enumerate(occupied[:-1])) % N
        table = N ** (n - 1 - k) * ((np.arange(N)[:, None] + occupied[-1][:, k]) % N)
        flat += np.take(table, head, axis=0)
    out_spec = np.zeros(N**n, dtype=complex)
    np.add.at(out_spec, flat.ravel(), coeff.ravel())
    return np.fft.ifftn(out_spec.reshape(shape)) * N**n


def save_lattice(path: str, arr: np.ndarray, spec: GridSpec) -> None:
    """Row-major complex-pair binary with a one-line JSON header {n, N, L}."""
    arr = np.ascontiguousarray(np.asarray(arr, dtype=np.complex128))
    header = json.dumps({"n": spec.n, "N": spec.points_per_axis, "L": spec.period})
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        fh.write(arr.tobytes())


def load_lattice(path: str) -> tuple[np.ndarray, GridSpec]:
    """The lattice and grid that ``save_lattice`` wrote to path.  A header
    that is no grid, or a payload of another size than the header's N^n
    complex values, raises ValueError naming path."""
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        meta = json.loads(header.decode("utf-8"))
        spec = GridSpec(meta["n"], meta["N"], meta["L"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"lattice file {path}: bad header: {exc}") from exc
    expected = spec.points_per_axis ** spec.n
    found, stray = divmod(len(payload), np.dtype(np.complex128).itemsize)
    if (found, stray) != (expected, 0):
        raise ValueError(f"lattice file {path}: expected {expected} complex values, found {found}"
                         + (f" and {stray} stray bytes" if stray else ""))
    return np.frombuffer(payload, dtype=np.complex128).reshape((spec.points_per_axis,) * spec.n).copy(), spec
