"""Coupled-oscillator application: Hamiltonian construction, closed-form
eigenvalues, Hermite ground states, and residual reports for the
star-product eigenvalue equations in the Gaussian-weighted class.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .closedforms import complex_pair
from .polynomials import Polynomial, SamplePoints
from .scalars import _to_complex
from .starcore import ThetaConfig, star_series

# Axes of the complex coordinate (x_1 + i x_2)/sqrt(2) in the ground-state
# annihilation equation of residual_report.
COMPLEX_AXES = (1, 2)


@dataclass(frozen=True)
class QuantumNumber:
    """Vector of occupation numbers; the closed-form energies depend on it
    only through the norm |nbar|."""

    nbar: tuple[int, ...]

    def __post_init__(self):
        nbar = []
        for i, v in enumerate(self.nbar, 1):
            try:
                v = operator.index(v)
            except TypeError:
                raise ValueError(f"occupation number {i} must be an integer, got {v!r}") from None
            if v < 0:
                raise ValueError(f"occupation number {i} must be non-negative, got {v}")
            nbar.append(v)
        object.__setattr__(self, "nbar", tuple(nbar))

    @property
    def norm(self) -> int:
        return sum(self.nbar)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Couplings of the oscillator model.

    Either the coupled form (quadratic base plus pair/quadruple couplings
    over strictly increasing index tuples) or the already-diagonal form
    (rows of coefficients for x_i^2, x_i^4, ...) is active; mixing the
    two is rejected.  The antisymmetric index symbol is fixed to +1 on
    the strictly increasing tuples the sums run over.
    """

    n: int
    lambda_pair: Mapping[tuple[int, int], Fraction] = field(default_factory=dict)
    lambda_quad: Mapping[tuple[int, int, int, int], Fraction] = field(default_factory=dict)
    diag_lambdas: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be positive")
        pair = {}
        for key, val in dict(self.lambda_pair).items():
            i, j = key
            if not (1 <= i < j <= self.n):
                raise ValueError(f"pair coupling index {key} out of range or not increasing")
            pair[(i, j)] = Fraction(val)
        quad = {}
        for key, val in dict(self.lambda_quad).items():
            i, j, k, l = key
            if not (1 <= i < j < k < l <= self.n):
                raise ValueError(f"quadruple coupling index {key} out of range or not increasing")
            quad[(i, j, k, l)] = Fraction(val)
        diag = None
        if self.diag_lambdas is not None:
            if pair or quad:
                raise ValueError("diagonal coefficients exclude pair/quadruple couplings")
            diag = tuple(tuple(Fraction(v) for v in row) for row in self.diag_lambdas)
            for row in diag:
                if len(row) != self.n:
                    raise ValueError(f"diagonal coefficient rows must have {self.n} entries, "
                                     f"got {len(row)}")
        object.__setattr__(self, "lambda_pair", pair)
        object.__setattr__(self, "lambda_quad", quad)
        object.__setattr__(self, "diag_lambdas", diag)


def _monomial(n: int, axes: Sequence[int]) -> tuple[int, ...]:
    """Exponent tuple of the product of x_a over axes (1-based, repeats
    allowed) in n variables."""
    return tuple(map(axes.count, range(1, n + 1)))


def build_hamiltonian(spec: HamiltonianSpec) -> Polynomial:
    """Exact Hamiltonian polynomial for the given couplings.  Its monomials
    are distinct, so their coefficients go into the term dict as they are."""
    n = spec.n
    if spec.diag_lambdas is not None:
        return Polynomial(n, {_monomial(n, [i] * 2 * (r + 1)): lam
                              for r, row in enumerate(spec.diag_lambdas)
                              for i, lam in enumerate(row, 1)})
    terms = {_monomial(n, (j, j)): 1 for j in range(1, n + 1)}
    for axes, lam in sorted(spec.lambda_pair.items()) + sorted(spec.lambda_quad.items()):
        terms[_monomial(n, axes)] = lam
    return Polynomial(n, terms)


def energy(k: int, nbar: QuantumNumber, cfg: ThetaConfig, spec: HamiltonianSpec) -> Fraction:
    """Closed-form eigenvalue, exact in rationals.

    E = theta_k * ( n/2 + lam0_k * |nbar|
                    + sum_{m>=1} (prod of the first m anharmonic row sums) * |nbar|^(m+1) )

    truncated at the number of supplied diagonal coefficient rows.
    """
    n = cfg.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if spec.n != n:
        raise ValueError("spec dimension mismatch")
    if len(nbar.nbar) != n:
        raise ValueError(f"nbar must have {n} components")
    N = nbar.norm
    total = Fraction(n, 2)
    rows = spec.diag_lambdas or ()
    if rows:
        total += rows[0][k - 1] * N
        prod = Fraction(1)
        for m in range(1, len(rows)):
            prod *= sum(rows[m], Fraction(0))
            total += prod * Fraction(N) ** (m + 1)
    return cfg.theta[k - 1] * total


def hermite_coeffs(k: int) -> list[int]:
    """Coefficients (ascending) of the physicists' Hermite polynomial H_k."""
    if k < 0:
        raise ValueError("index must be non-negative")
    prev, cur = [1], [0, 2]
    if k == 0:
        return prev
    for m in range(1, k):
        # H_{m+1}(u) = 2u H_m(u) - 2m H_{m-1}(u)
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= 2 * m * c
        prev, cur = cur, nxt
    return cur


@dataclass(frozen=True)
class PolyGauss:
    """polynomial * exp(-scale * |x|^2 / 2); closed under differentiation.

    Products add the scales, so an n-fold pointwise product of unit-scale
    elements has scale n.  Plain polynomials embed with scale 0.
    """

    poly: Polynomial
    scale: int = 1

    def __post_init__(self):
        if type(self.scale) is not int:  # bool too: True would act as scale 1
            raise ValueError(f"scale must be an int, got {self.scale!r}")
        if self.scale < 0:
            raise ValueError("scale must be non-negative")

    @property
    def n(self) -> int:
        return self.poly.n

    def diff(self, axis: int) -> "PolyGauss":
        # d_a (p w^s) = (d_a p - s x_a p) w^s, -s x_a p an exponent shift and int
        # multiplies merged into the terms of d_a p in the same pass
        reduced = self.poly.diff(axis)
        s = self.scale
        if s:
            j = axis - 1
            terms = dict(reduced.terms)
            for exps, c in self.poly.terms.items():
                key = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
                total = terms[key] + c * -s if key in terms else c * -s
                if total:
                    terms[key] = total
                else:
                    del terms[key]
            reduced = Polynomial._trusted(self.n, terms)
        return PolyGauss(reduced, s)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    @property
    def terms(self):
        """The term dict of the polynomial part."""
        return self.poly.terms

    def degree(self) -> int | None:
        """Degree as a polynomial: the polynomial part's at scale 0; None at
        a positive scale, where the value is no polynomial."""
        return None if self.scale else self.poly.degree()

    def eval(self, points: SamplePoints | Sequence[Sequence]) -> list[complex]:
        """Values at points, one per point: the polynomial part's exact value,
        read as floats straight off its integer sums with no scalar built,
        times the Gaussian weight.  Raw points are prepared on entry; a
        caller evaluating at the same points again passes them prepared."""
        if not isinstance(points, SamplePoints):
            points = prepare_points(points, self.n)
        return [_to_complex(*sums) * weight
                for sums, weight in zip(self.poly._eval_sums(points), points.gaussian(self.scale))]


def prepare_points(points: Iterable[Sequence], n: int) -> SamplePoints:
    """Points prepared for ``PolyGauss.eval``: a coordinate that is not an
    int or a Fraction is taken as Fraction(v), which is exact for a float."""
    return SamplePoints([[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in p]
                         for p in points], n)


def ground_state(k: int, n: int) -> PolyGauss:
    """Gaussian-weighted radial Hermite state: H_k(|x|^2/2) * exp(-|x|^2/2)."""
    if k < 0:
        raise ValueError("index must be non-negative")
    u = Polynomial(n, {_monomial(n, (i, i)): Fraction(1, 2) for i in range(1, n + 1)})  # |x|^2/2
    poly = Polynomial.zero(n)
    for c in reversed(hermite_coeffs(k)):  # Horner's rule in u
        poly = poly * u + c
    return PolyGauss(poly, 1)


def star_increments(factors: Sequence[PolyGauss], cfg: ThetaConfig,
                    order: int) -> list[Polynomial]:
    """Per-order increments of the star series in the Gaussian class.

    Increment m is (1/m!) times the m-fold operator application,
    multiplied out; the full product truncated at order M is the sum of
    increments 0..M (at the combined Gaussian scale).
    """
    return list(star_series(factors, cfg, order))


def star_polygauss_truncated(factors: Sequence[PolyGauss], cfg: ThetaConfig,
                             order: int) -> PolyGauss:
    """Order-truncated star product in the Gaussian-weighted class: the sum
    of increments 0..order.

    Unless a factor has scale 0 the exponential series does not
    terminate, so the sum runs to the requested order.  It truncates a
    divergent series: with Gaussians in every slot, at n = 3 and uniform
    theta, the product of three copies of exp(-s|x|^2/2) has increment
    2k equal to (2k+1)!! * (theta^2 s^3 / 4)^k at the origin, so its
    terms grow without bound at every theta != 0.
    """
    increments = star_increments(factors, cfg, order)
    total_scale = sum(f.scale for f in factors)
    result = increments[0]
    for inc in increments[1:]:
        result = result + inc
    return PolyGauss(result, total_scale)


def residual_report(spec: HamiltonianSpec, cfg: ThetaConfig, k: int, order: int,
                    sample_points: SamplePoints | Sequence[Sequence]) -> dict:
    """Residual magnitudes, per truncation order and sample point, of

    (a) the ground-state annihilation equation: the star product of a
        complex coordinate with n-1 copies of the state, and
    (b) the eigenvalue equation: star{H, state, ...} - E * star{1, state, ...}.

    This is a report, not an assertion: the table records how the
    residuals behave as the truncation order grows.  Every lead factor is
    a polynomial, so each series stops at the lead's degree and the rows
    past it repeat.  A negative order (``star_series``) and a spec of
    another dimension than cfg (``energy``) raise ValueError.

    The points come raw or prepared (``SamplePoints``); each must satisfy
    |x|^2 <= 16 + 10^-9, checked exactly on its numerators over D, and is
    reported as the floats num / D.
    """
    n = cfg.n
    prepared = (sample_points if isinstance(sample_points, SamplePoints)
                else prepare_points(sample_points, n))  # checks each point's dimension
    if not len(prepared):
        raise ValueError("at least one sample point is required")
    coords = prepared.coordinates()
    if any(10 ** 9 * sum([v * v for v in nums]) > (16 * 10 ** 9 + 1) * D * D for nums, D in coords):
        raise ValueError("sample points must satisfy |x| <= 4")

    psi = ground_state(k, n)
    a_poly, _ = complex_pair(*COMPLEX_AXES, n)
    E = energy(1, QuantumNumber((k,) + (0,) * (n - 1)), cfg, spec)  # checks spec.n
    H = build_hamiltonian(spec)
    Ec = float(E)

    def cumulative_values(lead: PolyGauss) -> list[list[complex]]:
        factors = [lead] + [psi] * (n - 1)
        scale = sum(f.scale for f in factors)
        rows = []
        running = Polynomial.zero(n)
        for increment in star_increments(factors, cfg, order):
            if rows and increment.is_zero():  # the running sum is unchanged
                rows.append(rows[-1])
                continue
            running = running + increment
            rows.append(PolyGauss(running, scale).eval(prepared))
        return rows

    ann_vals = cumulative_values(PolyGauss(a_poly, 0))
    ham_vals = cumulative_values(PolyGauss(H, 0))
    one_vals = cumulative_values(PolyGauss(Polynomial.constant(1, n), 0))

    rows = []
    ground_table = []
    eigen_table = []
    for m in range(order + 1):
        ga = [abs(v) for v in ann_vals[m]]
        gb = [abs(h - Ec * o) for h, o in zip(ham_vals[m], one_vals[m])]
        ground_table.append(ga)
        eigen_table.append(gb)
        rows.append({
            "order": m,
            "ground_max": max(ga),
            "ground_mean": sum(ga) / len(ga),
            "eigen_max": max(gb),
            "eigen_mean": sum(gb) / len(gb),
        })
    return {
        "n": n,
        "k": k,
        "order": order,
        "num_points": len(coords),
        "complex_axes": list(COMPLEX_AXES),
        "energy": str(E),
        "points": [[v / D for v in nums] for nums, D in coords],
        "ground_residuals": ground_table,
        "eigen_residuals": eigen_table,
        "rows": rows,
    }
