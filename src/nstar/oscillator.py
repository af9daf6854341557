"""Coupled-oscillator application: Hamiltonian construction, closed-form
eigenvalues, Hermite ground states, and residual reports for the
star-product eigenvalue equations in the Gaussian-weighted class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .closedforms import complex_pair
from .polynomials import Polynomial, x
from .scalars import ExactComplex
from .starcore import ThetaConfig, star_series

RationalLike = int | Fraction

# Axes of the complex coordinate (x_1 + i x_2)/sqrt(2) in the ground-state
# annihilation equation of residual_report.
COMPLEX_AXES = (1, 2)


@dataclass(frozen=True)
class QuantumNumber:
    """Vector of occupation numbers; the closed-form energies depend on it
    only through the norm |nbar|."""

    nbar: tuple[int, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.nbar):
            raise ValueError("occupation numbers must be non-negative")
        object.__setattr__(self, "nbar", tuple(int(v) for v in self.nbar))

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
                    raise ValueError("each diagonal coefficient row must have length n")
        object.__setattr__(self, "lambda_pair", pair)
        object.__setattr__(self, "lambda_quad", quad)
        object.__setattr__(self, "diag_lambdas", diag)


def build_hamiltonian(spec: HamiltonianSpec) -> Polynomial:
    """Exact Hamiltonian polynomial for the given couplings."""
    n = spec.n
    if spec.diag_lambdas is not None:
        H = Polynomial.zero(n)
        for r, row in enumerate(spec.diag_lambdas):
            power = 2 * (r + 1)
            for i, lam in enumerate(row):
                if lam:
                    H = H + x(i + 1, n) ** power * ExactComplex(lam)
        return H
    H = Polynomial.zero(n)
    for j in range(1, n + 1):
        H = H + x(j, n) * x(j, n)
    for (i, j), lam in sorted(spec.lambda_pair.items()):
        if lam:
            H = H + x(i, n) * x(j, n) * ExactComplex(lam)
    for (i, j, k, l), lam in sorted(spec.lambda_quad.items()):
        if lam:
            H = H + x(i, n) * x(j, n) * x(k, n) * x(l, n) * ExactComplex(lam)
    return H


def energy(k: int, nbar: QuantumNumber, cfg: ThetaConfig, spec: HamiltonianSpec) -> Fraction:
    """Closed-form eigenvalue, exact in rationals.

    E = theta_k * ( n/2 + lam0_k * |nbar|
                    + sum_{m>=1} (prod of the first m anharmonic row sums) * |nbar|^(m+1) )

    truncated at the number of supplied diagonal coefficient rows.
    """
    n = cfg.n
    if not 1 <= k <= n:
        raise ValueError(f"index {k} out of range 1..{n}")
    if spec.n != n:
        raise ValueError("spec dimension mismatch")
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
        if self.scale < 0:
            raise ValueError("scale must be non-negative")

    @property
    def n(self) -> int:
        return self.poly.n

    def diff(self, axis: int) -> "PolyGauss":
        # d_a (p w^s) = (d_a p - s x_a p) w^s
        reduced = self.poly.diff(axis)
        if self.scale:
            reduced = reduced + self.poly.times_coordinate(axis) * -self.scale
        return PolyGauss(reduced, self.scale)

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

    def eval(self, point: Sequence) -> complex:
        """Value at a point.  The polynomial part is evaluated exactly, with
        each coordinate taken as Fraction(v), which is exact for int,
        Fraction and float."""
        pt = [Fraction(v) for v in point]
        value = self.poly.eval_exact(pt).to_complex()
        # |x|^2 = norm2 / D^2 in integers; int / int rounds correctly, so the
        # exponent is the float nearest the exact one
        D = math.lcm(*[v.denominator for v in pt])
        norm2 = sum((v.numerator * (D // v.denominator)) ** 2 for v in pt)
        return value * math.exp(-(self.scale * norm2) / (2 * D * D))


def ground_state(k: int, n: int) -> PolyGauss:
    """Gaussian-weighted radial Hermite state: H_k(|x|^2/2) * exp(-|x|^2/2)."""
    if k < 0:
        raise ValueError("index must be non-negative")
    radial = Polynomial.zero(n)
    for i in range(1, n + 1):
        radial = radial + x(i, n) * x(i, n)
    u = radial * Fraction(1, 2)
    coeffs = hermite_coeffs(k)
    poly = Polynomial.zero(n)
    upow = Polynomial.constant(1, n)
    for c in coeffs:
        if c:
            poly = poly + upow * c
        upow = upow * u
    return PolyGauss(poly, 1)


def star_increments(factors: Sequence[PolyGauss], cfg: ThetaConfig,
                    order: int) -> list[Polynomial]:
    """Per-order increments of the star series in the Gaussian class.

    Increment m is (1/m!) times the m-fold operator application,
    multiplied out; the full product truncated at order M is the sum of
    increments 0..M (at the combined Gaussian scale).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    return list(star_series(factors, cfg, order))


def star_polygauss_truncated(factors: Sequence[PolyGauss], cfg: ThetaConfig,
                             order: int) -> tuple[PolyGauss, float]:
    """Order-truncated star product in the Gaussian-weighted class.

    Unless a factor has scale 0 the exponential series does not
    terminate, so the sum runs to the requested order.  Returns the
    truncated result together with the largest coefficient magnitude of
    the final increment, a cheap convergence indicator.
    """
    increments = star_increments(factors, cfg, order)
    total_scale = sum(f.scale for f in factors)
    result = increments[0]
    for inc in increments[1:]:
        result = result + inc
    return PolyGauss(result, total_scale), increments[-1].max_coeff_magnitude()


def residual_report(spec: HamiltonianSpec, cfg: ThetaConfig, k: int, order: int,
                    sample_points: Sequence[Sequence]) -> dict:
    """Residual magnitudes, per truncation order and sample point, of

    (a) the ground-state annihilation equation: the star product of a
        complex coordinate with n-1 copies of the state, and
    (b) the eigenvalue equation: star{H, state, ...} - E * star{1, state, ...}.

    This is a report, not an assertion: the table records how the
    residuals behave as the truncation order grows.  Every lead factor is
    a polynomial, so each series stops at the lead's degree and the rows
    past it repeat.
    """
    n = cfg.n
    if spec.n != n:
        raise ValueError("spec dimension mismatch")
    if order < 0:
        raise ValueError("order must be non-negative")
    points = [tuple(p) for p in sample_points]
    if not points:
        raise ValueError("at least one sample point is required")
    for p in points:
        if len(p) != n:
            raise ValueError("sample point dimension mismatch")
        if sum(float(v) ** 2 for v in p) > 16.0 + 1e-9:
            raise ValueError("sample points must satisfy |x| <= 4")

    psi = ground_state(k, n)
    a_poly, _ = complex_pair(*COMPLEX_AXES, n)
    H = build_hamiltonian(spec)
    E = energy(1, QuantumNumber((k,) + (0,) * (n - 1)), cfg, spec)
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
            rows.append([PolyGauss(running, scale).eval(p) for p in points])
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
        "num_points": len(points),
        "complex_axes": list(COMPLEX_AXES),
        "energy": str(E),
        "points": [[float(v) for v in p] for p in points],
        "ground_residuals": ground_table,
        "eigen_residuals": eigen_table,
        "rows": rows,
    }
