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
are structure: they depend on n, the order and the slot classes below
only, so ``_plan`` builds them once per process as a trie keyed by each
slot's derivative counts in turn, over the terms of ``deformation_terms``
at uniform theta (``_plan_terms``: their slot axes, and their unit
weights +-i/2).
theta_k's two terms are the only ones that differentiate axis k in slot
0, so a composition's weight is theta^e, where e is slot 0's derivative
counts, times a unit weight that depends on n and the order only.  The
compositions that reach one leaf share their slot products, so the leaf
holds their summed unit weight, and chains whose unit weights cancel
are left out.  A product walks that trie, differentiating slot after
slot, and drops a whole subtree at the first zero slot derivative, or
at slot 0 when it counts a derivative along an axis with theta_k = 0.
A product builds no operator of its own: theta enters once per
product, as theta^e on each distinct slot-0 derivative, and each
derivative step the walk takes off a slot's counts is worked out once
per process (``_peel``).  The live chains left are multiplied out in
one integer pass: every slot derivative is packed once, and the
weighted slot products are multiplied as packed integer rows through
the loop of ``Polynomial.__mul__``.

Slots 2..n that hold one factor object form a class, seen by object
identity from the one derivative memo per factor object: permuting the
counts of a chain inside a class permutes equal slot derivatives, so it
leaves the slot product as it is.  The plan of a pattern of classes has
one leaf per such permutation orbit of chains, under their summed unit
weight, and the slots of a class share one dict of derivatives, packed
once; with every class one slot, it is one leaf per chain.  The first
slot joins no class: theta^e scales it.  Reversing slots 2..n turns each
forward term into the reverse term of the same k, so
star_theta(f1, fn, ..., f2) = star_-theta(f1, ..., fn), and increment m,
homogeneous of degree m in theta, changes by (-1)^m.  When the classes
of slots 2..n read the same backwards, reversing the slots maps each
orbit onto itself, so at odd m the unit weights of an orbit sum to
minus themselves: every odd plan of such a mirror-closed pattern is
empty, and its odd increments are zero (the n-ary form of the parity of
Moyal's product).

The engine has two callers:

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
from .scalars import ONE, ZERO, ExactComplex

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
def _plan(n: int, m: int, classes: tuple[int, ...]) -> tuple:
    """The compositions of order m over the 2n tensor terms in dimension n,
    as a trie keyed by each slot's derivative counts in turn, merged over
    the classes of slots 1..n-1.

    A node of slot j is a tuple of (counts, child) pairs: counts[a] is
    the number of derivatives along axis a + 1 that slot j takes, and the
    children of slot n - 1 are leaves.  classes[j - 1] names slot j's
    class, j = 1..n-1: slots of one class hold one factor object, so
    permuting their counts permutes equal slot derivatives and leaves the
    slot product as it is.  A composition's chain of slot counts is
    therefore taken with the counts inside each class in descending
    order, and the compositions that reach one leaf share their slot
    products: the leaf holds their summed unit weight, U = sum of
    prod_t u_t^c_t / c_t!, with u_t the unit weight +-i/2 of term t in
    ``_plan_terms``.  A chain whose U sums to 0 is left out.  Slot 0 is
    in no class: theta^e scales it.  With every class one slot, each leaf
    is one chain of slot counts.  The pairs of a node keep the order in
    which the lexicographic enumeration of the compositions (c_1..c_T)
    first reaches them.  The plan depends on n, m and the classes only,
    so it is built once per process for each.
    """
    terms = _plan_terms(n)
    groups = [[j for j in range(1, n) if classes[j - 1] == c] for c in set(classes)]
    groups = [group for group in groups if len(group) > 1]
    # one copy of each equal counts tuple: few distinct counts recur across
    # many nodes
    shared: dict[tuple, tuple] = {}
    root: dict = {}
    # u_t^c / c!, built once per (t, c)
    factor = functools.cache(lambda t, c: terms[t].weight ** c * Fraction(1, math.factorial(c)))
    # the multisets of m terms as ascending term indices: reversed, they
    # come in the lexicographic order of the compositions, which fixes the
    # order of the nodes and so the term order of every product
    for used in reversed(list(itertools.combinations_with_replacement(range(len(terms)), m))):
        weight = math.prod([factor(t, len(list(run))) for t, run in itertools.groupby(used)], start=ONE)
        chain = []
        for j in range(n):
            axes = [terms[t].slot_axes[j] for t in used]
            key = tuple([axes.count(a) for a in range(1, n + 1)])
            chain.append(shared.setdefault(key, key))
        for group in groups:
            for j, counts in zip(group, sorted([chain[j] for j in group], reverse=True)):
                chain[j] = counts
        node = root
        for counts in chain[:-1]:
            node = node.setdefault(counts, {})
        node[chain[-1]] = node.get(chain[-1], ZERO) + weight
    return _freeze(root)


def _freeze(node):
    """A trie of dicts as nested tuples, without its zero leaves and the
    nodes they leave empty."""
    if not isinstance(node, dict):
        return node
    frozen = [(counts, _freeze(child)) for counts, child in node.items()]
    return tuple([pair for pair in frozen if pair[1]])


def _live_chains(cfg: ThetaConfig, order: int | None, bound: int | None, derivs: list[dict]):
    """Yield, for m = 0..order, the unit weights and slot chains of order
    m's live compositions: those whose terms all have theta_k != 0 and
    whose slot derivatives are all nonzero.  Both kinds of dead
    composition are dropped a whole subtree at a time, by slot 0's counts
    and at the first zero slot.  A chain holds each slot's derivative
    counts, and its unit weight is its plan leaf, taken as it is: theta
    enters in ``_multiply_out``.  derivs[j] maps slot j's counts to its
    derivative and is filled in on the way, one ``_peel`` step from counts
    already there.  Without an order, the orders run to the series bound
    (``_series_bound``); past the bound nothing is walked.

    Slots 1..n-1 that share a memo form a class, and every order walks
    ``_plan(n, m, classes)``: a chain there stands for every permutation
    of its counts inside each class.  When slots 1..n-1 read the same
    backwards by memo, the product is its own reflection, and the plan
    of every odd order is empty."""
    n = cfg.n
    # the axes k with theta_k = 0: theta_k's two terms, and no other term,
    # differentiate axis k in slot 0, so a slot-0 node that counts a
    # derivative along one holds only compositions that use an omitted term
    idle = [a for a in range(n) if not cfg.theta[a]]
    # slot j's class, j = 1..n-1: the first of slots 1..n-1 with its memo
    first: dict[int, int] = {}
    classes = tuple([first.setdefault(id(derivs[j]), j) for j in range(1, n)])
    if order is None:
        if bound is None:
            raise ValueError("the series does not terminate: give an order")
        order = bound
    elif order < 0:
        raise ValueError("order must be non-negative")
    for m in range(order + 1):
        weights: list[ExactComplex] = []
        chains: list[tuple[tuple[int, ...], ...]] = []
        if bound is None or m <= bound:
            _walk(_plan(n, m, classes), 0, (), derivs, idle, weights, chains)
        yield weights, chains


def _diffed(memo: dict, counts: tuple[int, ...]):
    """The slot derivative at counts, from and into its memo (a dict of
    ``_derivative_memos``), one ``_peel`` step from counts already there."""
    got = memo.get(counts)
    if got is not None:
        return got
    prev, axis = _peel(counts)
    below = _diffed(memo, prev)  # a zero derivative stays zero
    val = memo[counts] = below if below.is_zero() else below.diff(axis)
    return val


def _walk(node, j: int, chain: tuple, derivs: list[dict], idle: list[int], weights: list,
          chains: list) -> None:
    """Append the unit weight and chain of every live leaf below node, a
    plan node of slot j reached by chain (``_live_chains``)."""
    last = len(derivs) - 1
    for counts, child in node:
        if j == 0 and idle and any(counts[a] for a in idle):
            continue  # the whole subtree uses a term with theta_k = 0
        if _diffed(derivs[j], counts).is_zero():
            continue  # the whole subtree has this zero slot
        if j < last:
            _walk(child, j + 1, chain + (counts,), derivs, idle, weights, chains)
        else:
            weights.append(child)
            chains.append(chain + (counts,))


def _multiply_out(weights: list, chains: list, derivs: list[dict], cfg: ThetaConfig,
                  degree: int) -> Polynomial:
    """sum_i weights[i] * theta^e_i * prod_j derivs[j][chains[i][j]], as one
    integer pass, where e_i is chain i's slot-0 counts and weights[i] its
    unit weight; no product has a total degree above `degree`.

    theta_k's two terms are the only ones that differentiate axis k in
    slot 0, so theta^e is the theta part of every composition's weight.
    It scales each distinct slot-0 derivative once, from theta powers
    built once per call; slot 0 at zero counts is left alone.  So slot 0
    gets a dict of derivatives of its own, and slots 1..n-1 share one
    dict per memo (per factor object), which ``_sum_of_products`` packs
    once."""
    n = cfg.n
    # each slot's distinct derivatives, by their counts; none when every
    # product has a zero slot
    by_memo: dict[int, dict] = {}
    slots = [{}] + [by_memo.setdefault(id(derivs[j]), {}) for j in range(1, n)]
    for j, slot in enumerate(slots):
        slot.update({chain[j]: derivs[j][chain[j]].terms for chain in chains})
    powers: dict[tuple[int, int], ExactComplex] = {}  # (k, c) -> theta_k^c
    for e, terms in slots[0].items():
        if any(e):
            scale = ONE
            for k, c in enumerate(e):
                if c:
                    if (k, c) not in powers:
                        powers[k, c] = ExactComplex(cfg.theta[k]) ** c
                    scale = scale * powers[k, c]
            slots[0][e] = {mono: v * scale for mono, v in terms.items()}
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
    as polynomials; without an order, every increment up to the series
    bound.  A negative order raises ValueError.

    Increment m is (1/m!) times the m-fold operator application,
    multiplied out across the slots.  The tensor terms commute (they are
    built from partial derivatives), so it is a sum over multisets
    (c_1..c_T) of total size m of prod_t (T_t)^{c_t} / c_t!.  A slot value
    needs ``n``, ``diff(axis)``, ``is_zero()``, ``degree()`` (None when
    its derivatives never vanish) and ``terms``, the term dict of its
    polynomial part, and there must be cfg.n factors of dimension cfg.n
    (``_check_arity``); an increment is the polynomial part of the
    product (for Gaussian-weighted slots, the part at the summed scale).

    The compositions of order m come from ``_plan(n, m, classes)``, a trie
    built once per process and keyed by each slot's derivative counts in
    turn, with the classes of slots 1..n-1 by factor object.
    The walk differentiates slot j by a node's counts and drops the whole
    subtree when that derivative is zero.  Slot 0's counts along axis k
    are the applications of theta_k's two terms, so at theta_k = 0 a
    slot-0 node that counts one is dropped too.  Every leaf reached is a
    live chain; it holds the summed unit weight of its compositions, the
    sum of prod_t u_t^c_t / c_t! with u_t term t's unit weight +-i/2.  A
    composition's weight prod_t w_t^c_t / c_t!, w_t = theta_k * u_t, is
    theta^e times its unit weight, with e slot 0's counts, so each
    distinct slot-0 derivative is scaled by theta^e once
    (``_multiply_out``).  Slot derivatives are memoized per factor object
    on their counts (``_derivative_memos``), each one derivative step
    (``_peel``) from counts already memoized.
    Each order is then one integer pass: ``polynomials._sum_of_products``
    packs every slot derivative the order uses once and multiplies the
    weighted slot products out as packed integer rows into one
    accumulator, unpacked once.  Past the series bound
    (``_series_bound``) every increment is zero and is yielded without a
    walk.  When slots 1..n-1 repeat a factor object, chains that permute
    counts among that object's slots have one slot product, so the plan
    holds one chain per such orbit under its summed unit weight, and the
    object's slots share one dict of derivatives, packed once.  When
    slots 1..n-1 hold the same factor objects read backwards, the product
    is its own reflection star_-theta, increment m changes by (-1)^m
    under theta -> -theta, and the plan of every odd order is empty.
    Equal but distinct factor objects take the plan of distinct slots.

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
        yield _multiply_out(weights, chains, derivs, cfg, top + m * growing)


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
    return _multiply_out(weights, chains, derivs, cfg, sum(degrees))


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
