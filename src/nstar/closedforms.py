"""Closed-form star products involving coordinate functions.

Each function here is a direct transcription of one closed formula, kept
independent of the expansion engine in ``starcore`` so the two can be
used as oracles against each other.  The coordinate-slot formulas are
theorems of the product definition and must agree with the engine; the
complex-coordinate forms are transcribed as printed and are audited
rather than assumed (see ``audit``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polynomials import Polynomial, x
from .scalars import ExactComplex, HALF_SQRT2, I
from .starcore import ThetaConfig, sigma_power

TWO_COORD_VARIANTS = ("sigma-next-middle", "sigma-next-last",
                      "sigma2-next-middle", "sigma2-next-last")

COMPLEX_FORM_VARIANTS = ("a-f-g", "abar-f-g", "g-f-a", "g-f-abar",
                         "f-a-g", "f-abar-g")


def _require_n3(cfg: ThetaConfig) -> None:
    if cfg.n != 3:
        raise ValueError("this closed form is defined for dimension 3 only")


def _require_n3_axis(cfg: ThetaConfig, k: int) -> None:
    _require_n3(cfg)
    if not 1 <= k <= 3:
        raise ValueError(f"axis {k} out of range 1..3")


def star_coord_first(k: int, f: Polynomial, g: Polynomial, cfg: ThetaConfig) -> Polynomial:
    """Closed form for the product with x_k in the first slot (3-ary)."""
    _require_n3_axis(cfg, k)
    s1, s2 = sigma_power(k, 1, 3), sigma_power(k, 2, 3)
    corr = f.diff(s1) * g.diff(s2) - f.diff(s2) * g.diff(s1)
    half_i_th = ExactComplex(0, Fraction(cfg.theta[k - 1], 2))
    return x(k, 3) * f * g + corr * half_i_th


def star_coord_middle(k: int, g: Polynomial, f: Polynomial, cfg: ThetaConfig) -> Polynomial:
    """Closed form for the product with x_k in the middle slot (3-ary):
    g in the first slot, f in the last."""
    _require_n3_axis(cfg, k)
    s1, s2 = sigma_power(k, 1, 3), sigma_power(k, 2, 3)
    t1 = g.diff(s1) * f.diff(s2) * ExactComplex(0, Fraction(cfg.theta[s1 - 1], 2))
    t2 = g.diff(s2) * f.diff(s1) * ExactComplex(0, Fraction(cfg.theta[s2 - 1], 2))
    return x(k, 3) * f * g - t1 + t2


def star_coord_last(k: int, f: Polynomial, g: Polynomial, cfg: ThetaConfig) -> Polynomial:
    """Closed form for the product with x_k in the last slot (3-ary)."""
    _require_n3_axis(cfg, k)
    s1, s2 = sigma_power(k, 1, 3), sigma_power(k, 2, 3)
    t1 = f.diff(s1) * g.diff(s2) * ExactComplex(0, Fraction(cfg.theta[s1 - 1], 2))
    t2 = f.diff(s2) * g.diff(s1) * ExactComplex(0, Fraction(cfg.theta[s2 - 1], 2))
    return x(k, 3) * f * g + t1 - t2


def star_two_coords(k: int, variant: str, f: Polynomial, cfg: ThetaConfig) -> Polynomial:
    """The four closed forms with two coordinate factors and one function.

    variant selects which coordinate pairs with x_k and which slot it
    occupies:

    * sigma-next-middle:   x_k (*) x_{s(k)} (*) f   = x_k x_{s(k)} f + (i th_k/2) d_{s2(k)} f
    * sigma-next-last:     x_k (*) f (*) x_{s(k)}   = x_k x_{s(k)} f - (i th_k/2) d_{s2(k)} f
    * sigma2-next-middle:  x_k (*) x_{s2(k)} (*) f  = x_k x_{s2(k)} f - (i th_k/2) d_{s(k)} f
    * sigma2-next-last:    x_k (*) f (*) x_{s2(k)}  = x_k x_{s2(k)} f + (i th_k/2) d_{s(k)} f
    """
    _require_n3_axis(cfg, k)
    if variant not in TWO_COORD_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    s1, s2 = sigma_power(k, 1, 3), sigma_power(k, 2, 3)
    half_i_th = ExactComplex(0, Fraction(cfg.theta[k - 1], 2))
    if variant == "sigma-next-middle":
        return x(k, 3) * x(s1, 3) * f + f.diff(s2) * half_i_th
    if variant == "sigma-next-last":
        return x(k, 3) * x(s1, 3) * f - f.diff(s2) * half_i_th
    if variant == "sigma2-next-middle":
        return x(k, 3) * x(s2, 3) * f - f.diff(s1) * half_i_th
    return x(k, 3) * x(s2, 3) * f + f.diff(s1) * half_i_th


def complex_pair(k: int, l: int, n: int = 3) -> tuple[Polynomial, Polynomial]:
    """The complex coordinate (x_k + i x_l)/sqrt(2) and its conjugate.

    The 1/sqrt(2) is exact: coefficients live in Q(i, sqrt(2)).
    """
    if k == l:
        raise ValueError("complex coordinate requires two distinct axes")
    a = (x(k, n) + x(l, n) * I) * HALF_SQRT2
    abar = (x(k, n) - x(l, n) * I) * HALF_SQRT2
    return a, abar


def _bracket_pair(f: Polynomial, g: Polynomial, i: int) -> Polynomial:
    """d_{s(i)}f d_{s2(i)}g - d_{s2(i)}f d_{s(i)}g."""
    s1, s2 = sigma_power(i, 1, 3), sigma_power(i, 2, 3)
    return f.diff(s1) * g.diff(s2) - f.diff(s2) * g.diff(s1)


def star_complex_form(variant: str, i: int, j: int, f: Polynomial, g: Polynomial,
                      cfg: ThetaConfig) -> Polynomial:
    """The six closed forms with one complex coordinate slot, as printed.

    variant names the slot layout: 'a-f-g' has the complex coordinate in
    the first slot, 'g-f-a' in the last, 'f-a-g' in the middle, with
    'abar' marking the conjugate coordinate.  These forms carry 1/4
    prefactors as printed; whether they agree with the expansion engine
    is an audit question, not an assumption.

    The 'g-f-abar' form as printed contains the product d_{s(i)}f d_{s2(i)}f
    (f twice); the seventh variant 'g-f-abar-alt', not one of the printed
    forms, reads that first factor as g instead, mirroring 'g-f-a'.
    """
    _require_n3(cfg)
    if i == j:
        raise ValueError("complex coordinate requires two distinct axes")
    if variant not in COMPLEX_FORM_VARIANTS + ("g-f-abar-alt",):
        raise ValueError(f"unknown variant {variant!r}")
    a, abar = complex_pair(i, j, 3)
    quarter = Fraction(1, 4)
    th = lambda m: cfg.theta[m - 1]
    si1, si2 = sigma_power(i, 1, 3), sigma_power(i, 2, 3)
    sj1, sj2 = sigma_power(j, 1, 3), sigma_power(j, 2, 3)

    if variant == "a-f-g":
        return (a * f * g
                + _bracket_pair(f, g, i) * ExactComplex(0, th(i) * quarter)
                - _bracket_pair(f, g, j) * ExactComplex(th(j) * quarter))
    if variant == "abar-f-g":
        return (abar * f * g
                + _bracket_pair(f, g, i) * ExactComplex(0, th(i) * quarter)
                + _bracket_pair(f, g, j) * ExactComplex(th(j) * quarter))
    if variant == "g-f-a":
        return (a * f * g
                + g.diff(si1) * f.diff(si2) * ExactComplex(0, th(si1) * quarter)
                - g.diff(si2) * f.diff(si1) * ExactComplex(0, th(si2) * quarter)
                - g.diff(sj1) * f.diff(sj2) * ExactComplex(th(sj1) * quarter)
                + g.diff(sj2) * f.diff(sj1) * ExactComplex(th(sj2) * quarter))
    if variant in ("g-f-abar", "g-f-abar-alt"):
        first = g.diff(si1) if variant == "g-f-abar-alt" else f.diff(si1)
        return (abar * f * g
                + first * f.diff(si2) * ExactComplex(0, th(si1) * quarter)
                - g.diff(si2) * f.diff(si1) * ExactComplex(0, th(si2) * quarter)
                + g.diff(sj1) * f.diff(sj2) * ExactComplex(th(sj1) * quarter)
                - g.diff(sj2) * f.diff(sj1) * ExactComplex(th(sj2) * quarter))
    if variant == "f-a-g":
        return (a * f * g
                - f.diff(si1) * g.diff(si2) * ExactComplex(0, th(si1) * quarter)
                + f.diff(si2) * g.diff(si1) * ExactComplex(0, th(si2) * quarter)
                + f.diff(sj1) * g.diff(sj2) * ExactComplex(th(sj1) * quarter)
                - f.diff(sj2) * g.diff(sj1) * ExactComplex(th(sj2) * quarter))
    # f-abar-g
    return (abar * f * g
            - f.diff(si1) * g.diff(si2) * ExactComplex(0, th(si1) * quarter)
            + f.diff(si2) * g.diff(si1) * ExactComplex(0, th(si2) * quarter)
            - f.diff(sj1) * g.diff(sj2) * ExactComplex(th(sj1) * quarter)
            + f.diff(sj2) * g.diff(sj1) * ExactComplex(th(sj2) * quarter))


@dataclass(frozen=True)
class SlotSpec:
    """Placement of a coordinate factor inside an n-ary product: the
    coordinate x_p sits in slot m of n."""

    n: int
    m: int
    p: int

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ValueError(f"slot {self.m} out of range 1..{self.n}")
        if not 1 <= self.p <= self.n:
            raise ValueError(f"axis {self.p} out of range 1..{self.n}")


def _wrap_index(k: int, n: int) -> int:
    return (k - 1) % n + 1


def star_coord_slot(spec: SlotSpec, fs: Sequence[Polynomial], gs: Sequence[Polynomial],
                    cfg: ThetaConfig) -> Polynomial:
    """n-ary closed form with the coordinate x_p in slot m.

    Only two tensor terms of the derivation operator survive at first
    order: the forward term whose slot-m axis hits p (index p-m+1, wrapped
    into 1..n) and the reverse term doing the same (index p+m-n-1,
    wrapped).  The remaining slots carry the corresponding sigma-power
    axes of those two indices.
    """
    n = cfg.n
    if spec.n != n:
        raise ValueError("slot spec dimension does not match configuration")
    if len(fs) != spec.m - 1 or len(gs) != n - spec.m:
        raise ValueError(f"expected {spec.m - 1} leading and {n - spec.m} trailing factors")
    m, p = spec.m, spec.p
    factors = list(fs) + [x(p, n)] + list(gs)

    base = factors[0]
    for f in factors[1:]:
        base = base * f

    k_fwd = _wrap_index(p - m + 1, n)
    k_rev = _wrap_index(p + m - n - 1, n)

    def fwd_axis(slot: int) -> int:
        return sigma_power(k_fwd, slot - 1, n)

    def rev_axis(slot: int) -> int:
        return k_rev if slot == 1 else sigma_power(k_rev, n - slot + 1, n)

    fwd = Polynomial.constant(1, n)
    for slot in range(1, n + 1):
        if slot == m:
            continue
        fwd = fwd * factors[slot - 1].diff(fwd_axis(slot))
    rev = Polynomial.constant(1, n)
    for slot in range(1, n + 1):
        if slot == m:
            continue
        rev = rev * factors[slot - 1].diff(rev_axis(slot))

    return (base
            + fwd * ExactComplex(0, Fraction(cfg.theta[k_fwd - 1], 2))
            - rev * ExactComplex(0, Fraction(cfg.theta[k_rev - 1], 2)))
