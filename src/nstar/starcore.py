"""The n-ary star product on exact polynomials.

The product multiplies n factors at once: apply the exponential of a
derivation operator to the tensor product of the factors, then multiply
the slots pointwise.  The derivation operator is a sum of 2n tensor
terms, two per deformation parameter theta_k: a "forward" term that
routes derivative axes through successive powers of the cyclic
permutation, and a "reverse" term that routes them through the inverse
order.  Each term differentiates every slot exactly once, so on
polynomials the exponential series terminates at the smallest factor
degree.

One series engine, ``star_series``, yields the per-order increments of
that exponential, as polynomials, over any slot value that can be
differentiated and tested for zero and has a polynomial part (for a
Gaussian-weighted value, the polynomial its weight multiplies).  Each
order is one integer pass: the slot derivatives are packed once, and the
slot products are multiplied out as packed integer rows through the loop
of ``Polynomial.__mul__``.  It has two callers:

* ``star_n``                        polynomials; sums the increments up to
                                    the smallest factor degree
* ``oscillator.star_increments``    Gaussian-weighted polynomials, to a
                                    requested order; the series stops at
                                    the smallest degree among the factors
                                    of scale 0, and runs on if there is none

``conjugate_star_n`` is ``star_n`` at negated theta.  ``star_n_stepwise``
applies the operator literally, m times, and divides by m!: a naive
oracle that shares no series loop with the engine, kept to cross-check
it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polynomials import Polynomial, _sum_of_products
from .scalars import ONE, ExactComplex

RationalLike = int | Fraction


@dataclass(frozen=True)
class ThetaConfig:
    """Dimension n plus the deformation parameters (theta_1..theta_n)."""

    n: int
    theta: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dimension must be at least 3; the cyclic construction degenerates below 3")
        theta = tuple(Fraction(t) for t in self.theta)
        if len(theta) != self.n:
            raise ValueError(f"expected {self.n} deformation parameters, got {len(theta)}")
        object.__setattr__(self, "theta", theta)

    def negate(self) -> "ThetaConfig":
        return ThetaConfig(self.n, tuple(-t for t in self.theta))

    @staticmethod
    def uniform(n: int, value: RationalLike = 1) -> "ThetaConfig":
        return ThetaConfig(n, (Fraction(value),) * n)


def sigma_power(k: int, p: int, n: int) -> int:
    """p-th power of the cyclic permutation 1 -> 2 -> ... -> n -> 1 applied to k."""
    if not 1 <= k <= n:
        raise ValueError(f"index {k} out of range 1..{n}")
    return (k - 1 + p) % n + 1


@dataclass(frozen=True)
class TensorTerm:
    """One weighted summand of the derivation operator.

    slot_axes[j] is the coordinate axis differentiated in tensor slot j+1;
    every slot carries exactly one first-order derivative.
    """

    slot_axes: tuple[int, ...]
    weight: ExactComplex


def deformation_terms(cfg: ThetaConfig) -> list[TensorTerm]:
    """The 2n weighted tensor terms of the derivation operator.

    Forward term for index k puts the axis sigma^(j-1)(k) in slot j with
    weight +i*theta_k/2; the reverse term puts k in slot 1 and
    sigma^(n-j+1)(k) in slot j >= 2 with weight -i*theta_k/2.  Terms with
    theta_k = 0 are omitted.
    """
    n = cfg.n
    terms: list[TensorTerm] = []
    for k in range(1, n + 1):
        th = cfg.theta[k - 1]
        if th == 0:
            continue
        w = ExactComplex(0, Fraction(th, 2))
        fwd = tuple(sigma_power(k, j - 1, n) for j in range(1, n + 1))
        rev = (k,) + tuple(sigma_power(k, n - j + 1, n) for j in range(2, n + 1))
        terms.append(TensorTerm(fwd, w))
        terms.append(TensorTerm(rev, -w))
    return terms


def _check_arity(factors: Sequence[Polynomial], cfg: ThetaConfig) -> None:
    if len(factors) != cfg.n:
        raise ValueError(f"expected {cfg.n} factors, got {len(factors)}")
    for f in factors:
        if f.n != cfg.n:
            raise ValueError("factor dimension does not match configuration")


def _series_bound(factors: Sequence) -> int | None:
    """The order past which every increment of the series is zero, or None.

    Increment m differentiates every slot m times, so a factor whose
    derivatives terminate (one with a degree: a polynomial) zeroes every
    increment past its degree.  The bound is the smallest such degree;
    -1 if such a factor is zero, None if no factor has a degree.
    """
    return min((d for d in (f.degree() for f in factors) if d is not None), default=None)


def _compositions(m: int, parts: int):
    """All tuples of `parts` non-negative integers summing to m, in
    lexicographic order.

    Stars and bars: m stars and parts - 1 bars fill m + parts - 1 places,
    and a part is the number of stars between two neighbouring bars.
    ``combinations`` yields the bar places in lexicographic order, which
    is the lexicographic order of the parts.
    """
    if parts == 0:
        if m == 0:
            yield ()
        return
    places = m + parts - 1
    for bars in itertools.combinations(range(places), parts - 1):
        # tuple() of a list, not of a generator: a tuple of known length
        # reuses the freed ones, where a guessed length would leave them
        # unreused on the interpreter's free list
        yield tuple([right - left - 1 for left, right in zip((-1,) + bars, bars + (places,))])


def star_series(factors: Sequence, cfg: ThetaConfig, order: int | None = None):
    """Yield the increments 0..order of m[exp(operator) applied to the factors]
    as polynomials; without an order, every increment up to the series bound.

    Increment m is (1/m!) times the m-fold operator application,
    multiplied out across the slots.  The tensor terms commute (they are
    built from partial derivatives), so it is a sum over multisets
    (c_1..c_T) of total size m of prod_t (T_t)^{c_t} / c_t!.  A slot value
    needs ``diff(axis)``, ``is_zero()``, ``degree()`` (None when its
    derivatives never vanish) and ``terms``, the term dict of its
    polynomial part; an increment is the polynomial part of the product
    (for Gaussian-weighted slots, the part at the summed scale).

    Each order is one integer pass.  Its live compositions (those with no
    zero slot) are collected first, with each one's weight
    prod_t w_t^c_t / c_t!; ``polynomials._sum_of_products`` then packs
    every slot derivative they use once (it has m derivatives, so it
    belongs to this order only) and multiplies the weighted slot products
    out as packed integer rows into one accumulator, unpacked once.  Slot
    derivatives are memoized per factor on the vector of per-axis
    derivative counts.  Past the series bound (``_series_bound``) every
    increment is zero and is yielded without enumerating compositions.
    """
    n = cfg.n
    terms = deformation_terms(cfg)
    ndiff_cache = [{(0,) * n: f} for f in factors]
    # (t, c) -> w_t^c / c!, built on first use: most compositions hit a
    # zero slot and need no coefficient at all
    powers: dict[tuple[int, int], ExactComplex] = {}

    def diffed(slot: int, counts: tuple[int, ...]):
        cache = ndiff_cache[slot]
        got = cache.get(counts)
        if got is not None:
            return got
        # peel one derivative off the first nonzero axis
        ax = next(i for i, c in enumerate(counts) if c)
        prev = counts[:ax] + (counts[ax] - 1,) + counts[ax + 1:]
        val = diffed(slot, prev).diff(ax + 1)
        cache[counts] = val
        return val

    bound = _series_bound(factors)
    if order is None:
        if bound is None:
            raise ValueError("the series does not terminate: give an order")
        order = bound
    for m in range(order + 1):
        weights: list[ExactComplex] = []
        chains: list[list[tuple[int, ...]]] = []  # per live composition, each slot's counts
        # past the bound every composition has a zero slot: none is enumerated
        comps = _compositions(m, len(terms)) if bound is None or m <= bound else ()
        for comp in comps:
            used = [(t, c) for t, c in enumerate(comp) if c]
            chain = []
            for j in range(n):
                counts = [0] * n
                for t, c in used:
                    counts[terms[t].slot_axes[j] - 1] += c
                counts = tuple(counts)
                if diffed(j, counts).is_zero():
                    break
                chain.append(counts)
            else:  # no slot vanished
                coeff = None
                for key in used:
                    wc = powers.get(key)
                    if wc is None:
                        t, c = key
                        wc = powers[key] = terms[t].weight**c * Fraction(1, math.factorial(c))
                    coeff = wc if coeff is None else coeff * wc
                weights.append(ONE if coeff is None else coeff)
                chains.append(chain)
        # each slot's distinct derivatives, by their derivative counts; none
        # when every product of this order has a zero slot
        slots = [{chain[j]: ndiff_cache[j][chain[j]].terms for chain in chains} for j in range(n)]
        yield Polynomial._trusted(n, _sum_of_products(weights, chains, slots, n))


def star_n(factors: Sequence[Polynomial], cfg: ThetaConfig) -> Polynomial:
    """Exact n-ary star product of the factors."""
    _check_arity(factors, cfg)
    result = Polynomial.zero(cfg.n)
    for increment in star_series(factors, cfg):
        result = result + increment
    return result


def conjugate_star_n(factors: Sequence[Polynomial], cfg: ThetaConfig) -> Polynomial:
    """The conjugate product m[exp(-operator) applied to the factors].

    The operator is linear in theta, so this is star_n at negated theta.
    """
    return star_n(factors, cfg.negate())


def star_bracket(f: Polynomial, h: Polynomial, g, cfg: ThetaConfig) -> Polynomial:
    """Antisymmetrized product: bracket f and h in the outer slots with the
    middle factors g held fixed.

    For n = 3, g is a single polynomial and this is
    star_n(f, g, h) - star_n(h, g, f).  For n > 3 pass a sequence of n-2
    middle factors.
    """
    mids = (g,) if isinstance(g, Polynomial) else tuple(g)
    if len(mids) != cfg.n - 2:
        raise ValueError(f"expected {cfg.n - 2} middle factors, got {len(mids)}")
    return star_n((f, *mids, h), cfg) - star_n((h, *mids, f), cfg)


def star_n_stepwise(factors: Sequence[Polynomial], cfg: ThetaConfig) -> Polynomial:
    """Independent oracle: apply the derivation operator literally, m times,
    divide by m!, and sum.  Slower than star_n; kept deliberately naive."""
    _check_arity(factors, cfg)
    terms = deformation_terms(cfg)
    n = cfg.n
    bound = min(f.degree() for f in factors)  # -1 if a factor is zero
    result = Polynomial.zero(n)
    if bound < 0:
        return result

    def multiply_out(states):
        total = Polynomial.zero(n)
        for coeff, slots in states:
            prod = slots[0]
            for p in slots[1:]:
                prod = prod * p
            total = total + prod * coeff
        return total

    states: list[tuple[ExactComplex, tuple[Polynomial, ...]]] = [(ExactComplex(1), tuple(factors))]
    result = result + multiply_out(states)
    for m in range(1, bound + 1):
        new_states = []
        for coeff, slots in states:
            for term in terms:
                new_slots = []
                dead = False
                for j, p in enumerate(slots):
                    dp = p.diff(term.slot_axes[j])
                    if dp.is_zero():
                        dead = True
                        break
                    new_slots.append(dp)
                if not dead:
                    new_states.append((coeff * term.weight, tuple(new_slots)))
        states = new_states
        if not states:
            break
        result = result + multiply_out(states) * Fraction(1, math.factorial(m))
    return result
