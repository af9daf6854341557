"""Closed-form star products involving coordinate functions.

Each function here is a direct transcription of one closed formula, kept
independent of the expansion engine in ``starcore`` so the two can be
used as oracles against each other.  The coordinate-slot formulas are
theorems of the product definition and must agree with the engine; the
complex-coordinate forms are transcribed as printed and are audited
rather than assumed (see ``audit``).
"""

from __future__ import annotations

import functools
import operator
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
    # x_k f g: f shifted by x_k, times g
    return f.times_coordinate(k) * g + corr * half_i_th


def star_coord_middle(k: int, g: Polynomial, f: Polynomial, cfg: ThetaConfig) -> Polynomial:
    """Closed form for the product with x_k in the middle slot (3-ary):
    g in the first slot, f in the last."""
    _require_n3_axis(cfg, k)
    s1, s2 = sigma_power(k, 1, 3), sigma_power(k, 2, 3)
    t1 = g.diff(s1) * f.diff(s2) * ExactComplex(0, Fraction(cfg.theta[s1 - 1], 2))
    t2 = g.diff(s2) * f.diff(s1) * ExactComplex(0, Fraction(cfg.theta[s2 - 1], 2))
    # x_k f g: f shifted by x_k, times g
    return f.times_coordinate(k) * g - t1 + t2


def star_coord_last(k: int, f: Polynomial, g: Polynomial, cfg: ThetaConfig) -> Polynomial:
    """Closed form for the product with x_k in the last slot (3-ary)."""
    _require_n3_axis(cfg, k)
    s1, s2 = sigma_power(k, 1, 3), sigma_power(k, 2, 3)
    t1 = f.diff(s1) * g.diff(s2) * ExactComplex(0, Fraction(cfg.theta[s1 - 1], 2))
    t2 = f.diff(s2) * g.diff(s1) * ExactComplex(0, Fraction(cfg.theta[s2 - 1], 2))
    # x_k f g: f shifted by x_k, times g
    return f.times_coordinate(k) * g + t1 - t2


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
    # x_k x_{s(k)} f and x_k x_{s2(k)} f: f shifted by x_{s(k)} or x_{s2(k)}, then by x_k
    if variant == "sigma-next-middle":
        return f.times_coordinate(s1).times_coordinate(k) + f.diff(s2) * half_i_th
    if variant == "sigma-next-last":
        return f.times_coordinate(s1).times_coordinate(k) - f.diff(s2) * half_i_th
    if variant == "sigma2-next-middle":
        return f.times_coordinate(s2).times_coordinate(k) - f.diff(s1) * half_i_th
    return f.times_coordinate(s2).times_coordinate(k) + f.diff(s1) * half_i_th


@functools.cache
def complex_pair(k: int, l: int, n: int = 3) -> tuple[Polynomial, Polynomial]:
    """The complex coordinate (x_k + i x_l)/sqrt(2) and its conjugate,
    built once per (k, l, n): the pair is immutable, so callers share it.

    The 1/sqrt(2) is exact: coefficients live in Q(i, sqrt(2)).
    """
    if k == l:
        raise ValueError("complex coordinate requires two distinct axes")
    a = (x(k, n) + x(l, n) * I) * HALF_SQRT2
    abar = (x(k, n) - x(l, n) * I) * HALF_SQRT2
    return a, abar


def _times_complex(f: Polynomial, i: int, j: int, conj: bool) -> Polynomial:
    """a f for a = (x_i + i x_j)/sqrt(2), or abar f for abar = (x_i - i x_j)/sqrt(2)
    when conj is set, from the shifts x_i f and x_j f."""
    return (f.times_coordinate(i) + f.times_coordinate(j) * (-I if conj else I)) * HALF_SQRT2


def _bracket_pair(df: dict[int, Polynomial], dg: dict[int, Polynomial], i: int) -> Polynomial:
    """d_{s(i)}f d_{s2(i)}g - d_{s2(i)}f d_{s(i)}g, from the derivatives
    df[m] = d_m f and dg[m] = d_m g."""
    s1, s2 = sigma_power(i, 1, 3), sigma_power(i, 2, 3)
    return df[s1] * dg[s2] - df[s2] * dg[s1]


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
    si1, si2 = sigma_power(i, 1, 3), sigma_power(i, 2, 3)
    sj1, sj2 = sigma_power(j, 1, 3), sigma_power(j, 2, 3)
    # each derivative d_m f, d_m g and each weight th_m/4, i th_m/4 made once
    df = {m: f.diff(m) for m in (1, 2, 3)}
    dg = {m: g.diff(m) for m in (1, 2, 3)}
    q = {m: ExactComplex(th / 4) for m, th in enumerate(cfg.theta, 1)}
    iq = {m: w * I for m, w in q.items()}

    if variant == "a-f-g":
        return (_times_complex(f, i, j, False) * g  # a f g
                + _bracket_pair(df, dg, i) * iq[i]
                - _bracket_pair(df, dg, j) * q[j])
    if variant == "abar-f-g":
        return (_times_complex(f, i, j, True) * g  # abar f g
                + _bracket_pair(df, dg, i) * iq[i]
                + _bracket_pair(df, dg, j) * q[j])
    if variant == "g-f-a":
        return (_times_complex(f, i, j, False) * g  # a f g
                + dg[si1] * df[si2] * iq[si1]
                - dg[si2] * df[si1] * iq[si2]
                - dg[sj1] * df[sj2] * q[sj1]
                + dg[sj2] * df[sj1] * q[sj2])
    if variant in ("g-f-abar", "g-f-abar-alt"):
        first = dg[si1] if variant == "g-f-abar-alt" else df[si1]
        return (_times_complex(f, i, j, True) * g  # abar f g
                + first * df[si2] * iq[si1]
                - dg[si2] * df[si1] * iq[si2]
                + dg[sj1] * df[sj2] * q[sj1]
                - dg[sj2] * df[sj1] * q[sj2])
    if variant == "f-a-g":
        return (_times_complex(f, i, j, False) * g  # a f g
                - df[si1] * dg[si2] * iq[si1]
                + df[si2] * dg[si1] * iq[si2]
                + df[sj1] * dg[sj2] * q[sj1]
                - df[sj2] * dg[sj1] * q[sj2])
    # f-abar-g
    return (_times_complex(f, i, j, True) * g  # abar f g
            - df[si1] * dg[si2] * iq[si1]
            + df[si2] * dg[si1] * iq[si2]
            - df[sj1] * dg[sj2] * q[sj1]
            + df[sj2] * dg[sj1] * q[sj2])


def _wrap_index(k: int, n: int) -> int:
    return (k - 1) % n + 1


def star_coord_slot(p: int, fs: Sequence[Polynomial], gs: Sequence[Polynomial],
                    cfg: ThetaConfig) -> Polynomial:
    """n-ary closed form with the coordinate x_p in slot m = len(fs) + 1:
    the factors fs before it and gs after it.

    Only two tensor terms of the derivation operator survive at first
    order: the forward term whose slot-m axis hits p (index p-m+1, wrapped
    into 1..n) and the reverse term doing the same (index p+m-n-1,
    wrapped).  The remaining slots carry the corresponding sigma-power
    axes of those two indices.
    """
    n = cfg.n
    if not 1 <= p <= n:
        raise ValueError(f"axis {p} out of range 1..{n}")
    if len(fs) + len(gs) != n - 1:
        raise ValueError(f"expected {n - 1} factors besides the coordinate, got {len(fs) + len(gs)}")
    m = len(fs) + 1
    others = [*fs, *gs]  # the factors of the slots other than m, in slot order
    slots = [slot for slot in range(1, n + 1) if slot != m]
    # x_p in slot m: the product of the other factors, shifted by x_p
    base = functools.reduce(operator.mul, others).times_coordinate(p)

    k_fwd = _wrap_index(p - m + 1, n)
    k_rev = _wrap_index(p + m - n - 1, n)

    def fwd_axis(slot: int) -> int:
        return sigma_power(k_fwd, slot - 1, n)

    def rev_axis(slot: int) -> int:
        return k_rev if slot == 1 else sigma_power(k_rev, n - slot + 1, n)

    fwd = functools.reduce(operator.mul, [f.diff(fwd_axis(s)) for s, f in zip(slots, others)])
    rev = functools.reduce(operator.mul, [f.diff(rev_axis(s)) for s, f in zip(slots, others)])

    return (base
            + fwd * ExactComplex(0, Fraction(cfg.theta[k_fwd - 1], 2))
            - rev * ExactComplex(0, Fraction(cfg.theta[k_rev - 1], 2)))
