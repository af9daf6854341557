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
Gaussian-weighted value, the polynomial its weight multiplies).  The
compositions of each order (how many times each tensor term is applied)
are structure: they depend on n and the order only, so ``_plan`` builds
them once per process as a trie keyed by each slot's derivative counts
in turn, over the terms of ``deformation_terms`` at uniform theta
(``_plan_terms``: their slot axes, and their unit weights +-i/2).  A
product walks that trie, differentiating slot after slot, and drops a
whole subtree at the first zero slot derivative, or at slot 0 when its
compositions use a term with theta_k = 0.  A product builds no operator
of its own: a term's weight is theta_k times its unit weight, made when
the walk first uses the term, and each derivative step the walk takes
off a slot's counts is worked out once per process (``_peel``).  The
live compositions left are multiplied out in one integer pass: every
slot derivative is packed once, and the weighted slot products are
multiplied as packed integer rows through the loop of
``Polynomial.__mul__``.  It has two callers:

* ``star_n``                        polynomials; walks every order up to
                                    the smallest factor degree and
                                    multiplies all of them out in one pass
* ``oscillator.star_increments``    Gaussian-weighted polynomials, one pass
                                    per order up to a requested order; the
                                    series stops at the smallest degree
                                    among the factors of scale 0, and runs
                                    on if there is none

``conjugate_star_n`` is ``star_n`` at negated theta.  ``star_n_stepwise``
applies the operator literally, m times, and divides by m!: a naive
oracle that shares no series loop with the engine, kept to cross-check
it.
"""

from __future__ import annotations

import functools
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


def _check_arity(factors: Sequence, cfg: ThetaConfig) -> None:
    if len(factors) != cfg.n:
        raise ValueError(f"expected {cfg.n} factors, got {len(factors)}")
    for f in factors:
        if f.n != cfg.n:
            raise ValueError("factor dimension does not match configuration")


def _series_bound(degrees: Sequence[int | None]) -> int | None:
    """The order past which every increment of the series is zero, or None,
    from the factors' degrees (``degree()``).

    Increment m differentiates every slot m times, so a factor whose
    derivatives terminate (one with a degree: a polynomial) zeroes every
    increment past its degree.  The bound is the smallest such degree;
    -1 if such a factor is zero, None if no factor has a degree.
    """
    return min((d for d in degrees if d is not None), default=None)


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


@functools.cache
def _plan_terms(n: int) -> tuple[TensorTerm, ...]:
    """The tensor terms in the plan's order: ``deformation_terms`` at
    uniform theta, where no term is omitted, so that each weight is the
    term's unit weight +-i/2 and theta_k's two terms are the ones with
    slot_axes[0] == k."""
    return tuple(deformation_terms(ThetaConfig.uniform(n)))


@functools.cache
def _peel(counts: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """One derivative step down from a slot's derivative counts: the
    counts with one derivative off their first nonzero axis, and that
    axis (1-based).  Counts depend on no input, so each step is worked
    out once per process."""
    ax = next(i for i, c in enumerate(counts) if c)
    return counts[:ax] + (counts[ax] - 1,) + counts[ax + 1:], ax + 1


@functools.cache
def _plan(n: int, m: int) -> tuple:
    """The compositions of order m over the 2n tensor terms in dimension n,
    as a trie keyed by each slot's derivative counts in turn.

    A node of slot j is a tuple of (counts, child) pairs: counts[a] is
    the number of derivatives along axis a + 1 that slot j takes, and the
    children of slot n - 1 are leaves.  A leaf is a tuple of compositions,
    each the tuple of its (term, c_t) pairs with c_t > 0 (terms indexed as
    in ``_plan_terms``); the compositions of one leaf differentiate every
    slot alike.  The pairs of a node keep the order in which the
    lexicographic enumeration first reaches them.  The plan depends on n
    and m only, so it is built once per process.
    """
    axes = [term.slot_axes for term in _plan_terms(n)]
    # one copy of each equal tuple: few distinct counts and (t, c) pairs
    # recur across many nodes and leaves
    shared: dict[tuple, tuple] = {}
    root: dict = {}
    for comp in _compositions(m, len(axes)):
        used = tuple([shared.setdefault((t, c), (t, c)) for t, c in enumerate(comp) if c])
        node = root
        for j in range(n):
            counts = [0] * n
            for t, c in used:
                counts[axes[t][j] - 1] += c
            key = tuple(counts)
            node = node.setdefault(shared.setdefault(key, key), {} if j < n - 1 else [])
        node.append(used)
    return _freeze(root)


def _freeze(node) -> tuple:
    """A trie of dicts and leaf lists as nested tuples."""
    if isinstance(node, list):
        return tuple(node)
    return tuple([(counts, _freeze(child)) for counts, child in node.items()])


def _live_chains(cfg: ThetaConfig, order: int | None, bound: int | None, derivs: list[dict]):
    """Yield, for m = 0..order, the weights and slot chains of order m's
    live compositions: those whose terms all have theta_k != 0 and whose
    slot derivatives are all nonzero.  Both kinds of dead composition are
    dropped a whole subtree at a time, by slot 0's counts and at the
    first zero slot.  A chain holds each slot's derivative counts;
    derivs[j] maps slot j's counts to its derivative and is filled in on
    the way, one ``_peel`` step from counts already there.  Term t's
    weight is theta_k times its unit weight in ``_plan_terms``, where k is
    its slot-0 axis, built once per call when a leaf first uses t.
    Without an order, the orders run to the series bound (``_series_bound``);
    past the bound nothing is walked."""
    n = cfg.n
    theta = cfg.theta
    terms = _plan_terms(n)
    # per plan term, its weight theta_k * (+-i/2), built when a leaf first
    # uses the term
    weight_of: list[ExactComplex | None] = [None] * len(terms)
    # the axes k with theta_k = 0: theta_k's two terms, and no other term,
    # differentiate axis k in slot 0, so a slot-0 node that counts a
    # derivative along one holds only compositions that use an omitted
    # term, and no walk reaches an omitted term's weight
    idle = [a for a in range(n) if not theta[a]]
    # (t, c) -> w_t^c / c!, built on first use: most compositions hit a
    # zero slot and need no coefficient at all
    powers: dict[tuple[int, int], ExactComplex] = {}
    last = n - 1

    def diffed(slot: int, counts: tuple[int, ...]):
        cache = derivs[slot]
        got = cache.get(counts)
        if got is not None:
            return got
        prev, axis = _peel(counts)
        val = cache[counts] = diffed(slot, prev).diff(axis)
        return val

    def walk(node, j: int, chain: tuple, weights: list, chains: list) -> None:
        for counts, child in node:
            if j == 0 and idle and any(counts[a] for a in idle):
                continue  # the whole subtree uses a term with theta_k = 0
            if diffed(j, counts).is_zero():
                continue  # the whole subtree has this zero slot
            if j < last:
                walk(child, j + 1, chain + (counts,), weights, chains)
                continue
            for used in child:
                coeff = None
                for key in used:
                    wc = powers.get(key)
                    if wc is None:
                        t, c = key
                        w = weight_of[t]
                        if w is None:
                            term = terms[t]
                            w = weight_of[t] = term.weight * theta[term.slot_axes[0] - 1]
                        wc = powers[key] = w**c * Fraction(1, math.factorial(c))
                    coeff = wc if coeff is None else coeff * wc
                weights.append(ONE if coeff is None else coeff)
                chains.append(chain + (counts,))

    if order is None:
        if bound is None:
            raise ValueError("the series does not terminate: give an order")
        order = bound
    try:
        for m in range(order + 1):
            weights: list[ExactComplex] = []
            chains: list[tuple[tuple[int, ...], ...]] = []
            if bound is None or m <= bound:
                walk(_plan(n, m), 0, (), weights, chains)
            yield weights, chains
    finally:
        # both closures reach themselves through their cells; without this
        # each call's derivative memo lives on until the cyclic collector runs
        diffed = walk = None


def _multiply_out(weights: list, chains: list, derivs: list[dict], n: int,
                  degree: int) -> Polynomial:
    """sum_i weights[i] * prod_j derivs[j][chains[i][j]], as one integer
    pass; no product has a total degree above `degree`."""
    # each slot's distinct derivatives, by their counts; none when every
    # product has a zero slot
    slots = [{chain[j]: derivs[j][chain[j]].terms for chain in chains} for j in range(n)]
    return Polynomial._trusted(n, _sum_of_products(weights, chains, slots, n, degree))


def _derivative_memos(factors: Sequence, n: int) -> list[dict]:
    """Per slot, the memo of its factor's derivatives by counts, holding
    the factor itself at zero counts.  Slots that hold the same factor
    object share one memo, so a factor repeated across slots is
    differentiated once per derivative; the memos live for one call."""
    by_factor: dict[int, dict] = {}
    return [by_factor.setdefault(id(f), {(0,) * n: f}) for f in factors]


def star_series(factors: Sequence, cfg: ThetaConfig, order: int | None = None):
    """Yield the increments 0..order of m[exp(operator) applied to the factors]
    as polynomials; without an order, every increment up to the series bound.

    Increment m is (1/m!) times the m-fold operator application,
    multiplied out across the slots.  The tensor terms commute (they are
    built from partial derivatives), so it is a sum over multisets
    (c_1..c_T) of total size m of prod_t (T_t)^{c_t} / c_t!.  A slot value
    needs ``n``, ``diff(axis)``, ``is_zero()``, ``degree()`` (None when
    its derivatives never vanish) and ``terms``, the term dict of its
    polynomial part, and there must be cfg.n factors of dimension cfg.n
    (``_check_arity``); an increment is the polynomial part of the
    product (for Gaussian-weighted slots, the part at the summed scale).

    The compositions of order m come from ``_plan(n, m)``, a trie built
    once per process and keyed by each slot's derivative counts in turn.
    The walk differentiates slot j by a node's counts and drops the whole
    subtree when that derivative is zero.  Slot 0's counts along axis k
    are the applications of theta_k's two terms, so at theta_k = 0 a
    slot-0 node that counts one is dropped too.  Every leaf reached is a
    live composition, with weight prod_t w_t^c_t / c_t!, where w_t is
    theta_k times term t's unit weight +-i/2.  Slot derivatives are
    memoized per factor object on their counts (``_derivative_memos``),
    each one derivative step (``_peel``) from counts already memoized.
    Each order is then one integer pass: ``polynomials._sum_of_products``
    packs every slot derivative the order uses once and multiplies the
    weighted slot products out as packed integer rows into one
    accumulator, unpacked once.  Past the series bound
    (``_series_bound``) every increment is zero and is yielded without a
    walk.

    Each factor's degree is computed once.  It gives the series bound and
    the packing width: at order m a slot's polynomial part has at most its
    factor's degree, plus m where the factor has none (a positive-scale
    ``PolyGauss``, whose ``diff`` raises the degree by at most one).
    """
    _check_arity(factors, cfg)
    degrees = [f.degree() for f in factors]
    # the sum of the polynomial parts' degrees: a factor's degree, or the
    # degree of its part where it has none
    top = sum(max(map(sum, f.terms), default=0) if d is None else d
              for f, d in zip(factors, degrees))
    growing = degrees.count(None)
    derivs = _derivative_memos(factors, cfg.n)
    for m, (weights, chains) in enumerate(_live_chains(cfg, order, _series_bound(degrees), derivs)):
        yield _multiply_out(weights, chains, derivs, cfg.n, top + m * growing)


def star_n(factors: Sequence[Polynomial], cfg: ThetaConfig) -> Polynomial:
    """Exact n-ary star product of the factors: the live compositions of
    every order, walked as in ``star_series``, multiplied out in one
    integer pass."""
    _check_arity(factors, cfg)
    degrees = [f.degree() for f in factors]
    derivs = _derivative_memos(factors, cfg.n)
    weights: list[ExactComplex] = []
    chains: list = []
    for w, c in _live_chains(cfg, None, _series_bound(degrees), derivs):
        weights += w
        chains += c
    return _multiply_out(weights, chains, derivs, cfg.n, sum(degrees))


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
