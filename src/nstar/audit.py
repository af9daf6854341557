"""Seeded randomized auditor for the algebraic identities of the n-ary
star product.

Every identity gets a claim id and an evaluator that computes both sides
on sampled inputs.  Identities that are theorems of the product
definition (multilinearity, antisymmetry, the conjugation law, the
coordinate closed forms, the frequency-cross identities) are "guaranteed":
a fails verdict there is a build-breaking defect.  Identities that are
asserted but do not follow mechanically (associativity, both Jacobi
forms, the complex-coordinate closed forms) are audited and reported,
whichever way they come out.

Every claim is declared once, as one row of ``_build_claim_table``: id,
kind, corpus, sampler and the function that computes its two sides.  A
three-factor claim's row names the factor in each slot with a layout of
three words, such as ``"xk f xs1"`` or ``"g f abar"``: ``f`` and ``g`` are
the sampled polynomials; ``xk``, ``xs1`` and ``xs2`` are x_k, x_sigma(k)
and x_sigma^2(k); ``a`` and ``abar`` are ``complex_pair(i, j)``.

Every claim runs on its own fixed corpus.  A failing equality and a
generic witness take one confirmation path: the differing inputs are
shrunk, re-checked against the naive term-by-term operator oracle, and
only then recorded, so a stored counterexample or witness never depends
on the fast expansion engine alone.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

from .closedforms import (
    COMPLEX_FORM_VARIANTS,
    TWO_COORD_VARIANTS,
    complex_pair,
    star_complex_form,
    star_coord_first,
    star_coord_last,
    star_coord_middle,
    star_coord_slot,
    star_two_coords,
    SlotSpec,
)
from .polynomials import Polynomial, x
from .scalars import ONE, ZERO, ExactComplex
from .starcore import ThetaConfig, conjugate_star_n, sigma_power, star_n, star_n_stepwise
from .waves import freq_cross

THETA_CHOICES = (Fraction(0), Fraction(1, 2), Fraction(-1, 2),
                 Fraction(1), Fraction(-1), Fraction(2), Fraction(-2))
COEFF_BOUND = 3
NUM_TERMS_CHOICES = (1, 3)

VERDICT_HOLDS = "holds-exact"
VERDICT_FAILS = "fails"


class UnknownClaimError(ValueError):
    pass


@dataclass(frozen=True)
class CorpusSpec:
    """Bounds for the sampled inputs of one claim."""

    dims: tuple[int, ...] = (3,)
    max_degree: int = 4
    real_coefficients: bool = False

    def describe(self) -> str:
        kinds = "real" if self.real_coefficients else "complex"
        return (f"n in {list(self.dims)}; monomials and {max(NUM_TERMS_CHOICES)}-term "
                f"polynomials of degree <= {self.max_degree}; {kinds} integer coefficients "
                f"in [-{COEFF_BOUND}, {COEFF_BOUND}]; "
                f"theta components in {{0, +-1/2, +-1, +-2}}")


@dataclass(frozen=True)
class ClaimInputs:
    n: int
    theta: tuple[Fraction, ...]
    polys: tuple[Polynomial, ...]
    meta: dict = field(default_factory=dict)

    def cfg(self) -> ThetaConfig:
        return ThetaConfig(self.n, self.theta)


@dataclass
class ClaimReport:
    claim: str
    verdict: str
    trials: int
    seed: int
    corpus: str
    counterexample: dict | None = None
    witness: dict | None = None


# --------------------------------------------------------------------------
# sampling

def _claim_rng(seed: int, claim: str) -> random.Random:
    return random.Random(zlib.crc32(f"{seed}:{claim}".encode("utf-8")))


def sample_theta(rng: random.Random, n: int,
                 require_nonzero: bool = False) -> tuple[Fraction, ...]:
    while True:
        theta = tuple(rng.choice(THETA_CHOICES) for _ in range(n))
        if not require_nonzero or any(theta):
            return theta


def sample_poly(rng: random.Random, n: int, corpus: CorpusSpec) -> Polynomial:
    nterms = rng.choice(NUM_TERMS_CHOICES)
    terms: dict[tuple[int, ...], ExactComplex] = {}
    for _ in range(nterms):
        degree = rng.randint(0, corpus.max_degree)
        exps = [0] * n
        for _ in range(degree):
            exps[rng.randrange(n)] += 1
        re = rng.randint(-COEFF_BOUND, COEFF_BOUND)
        im = 0 if corpus.real_coefficients else rng.randint(-COEFF_BOUND, COEFF_BOUND)
        if re == 0 and im == 0:
            re = 1
        key = tuple(exps)
        coeff = ExactComplex(re, im)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return Polynomial(n, terms)


def _sample_int_vector(rng: random.Random, n: int, bound: int) -> tuple[int, ...]:
    return tuple(rng.randint(-bound, bound) for _ in range(n))


# --------------------------------------------------------------------------
# claim definitions

@dataclass(frozen=True)
class ClaimDef:
    name: str
    kind: str  # "equality" | "witness" | "vector"
    corpus: CorpusSpec | None = None  # None for the integer-vector claims
    sampler: Callable[[random.Random, int, CorpusSpec], ClaimInputs] | None = None
    sides: Callable[[ClaimInputs, Callable], tuple[Polynomial, Polynomial]] | None = None
    canonical_first: Callable[[], ClaimInputs] | None = None
    vector_check: Callable[[random.Random], bool] | None = None


def _poly_sampler(extra: int):
    """theta, then n + extra polynomials."""
    def sampler(rng: random.Random, n: int, corpus: CorpusSpec) -> ClaimInputs:
        theta = sample_theta(rng, n)
        polys = tuple(sample_poly(rng, n, corpus) for _ in range(n + extra))
        return ClaimInputs(n, theta, polys)
    return sampler


def _axis_poly_sampler(count: int, nonzero_theta: bool = False, distinct_pair: bool = False):
    def sampler(rng: random.Random, n: int, corpus: CorpusSpec) -> ClaimInputs:
        theta = sample_theta(rng, n, require_nonzero=nonzero_theta)
        polys = tuple(sample_poly(rng, n, corpus) for _ in range(count))
        meta = {"k": rng.randint(1, n)}
        if distinct_pair:
            i = rng.randint(1, n)
            j = rng.choice([v for v in range(1, n + 1) if v != i])
            meta = {"i": i, "j": j}
        return ClaimInputs(n, theta, polys, meta)
    return sampler


def _slot_sampler(rng: random.Random, n: int, corpus: CorpusSpec) -> ClaimInputs:
    theta = sample_theta(rng, n)
    m = rng.randint(1, n)
    p = rng.randint(1, n)
    polys = tuple(sample_poly(rng, n, corpus) for _ in range(n - 1))
    return ClaimInputs(n, theta, polys, {"m": m, "p": p})


def _distributivity_sides(pos: int | None):
    """Additivity in slot pos (None: the last slot)."""
    def sides(inputs: ClaimInputs, star) -> tuple[Polynomial, Polynomial]:
        cfg = inputs.cfg()
        u, v, *fixed = inputs.polys  # the two summands, then the n-1 fixed factors
        at = len(fixed) if pos is None else pos
        def place(p):
            return (*fixed[:at], p, *fixed[at:])
        return star(place(u + v), cfg), star(place(u), cfg) + star(place(v), cfg)
    return sides


def _associativity_sides(inputs: ClaimInputs, star):
    cfg = inputs.cfg()
    f1, g1, h1, g2, h2 = inputs.polys
    lhs = star((star((f1, g1, h1), cfg), g2, h2), cfg)
    rhs = star((f1, g1, star((h1, g2, h2), cfg)), cfg)
    return lhs, rhs


def _associativity_canonical() -> ClaimInputs:
    n = 3
    return ClaimInputs(
        n, (Fraction(1), Fraction(0), Fraction(0)),
        (x(1, n), x(2, n), x(3, n), x(3, n), x(2, n)),
    )


def _bracket(star, f, h, mids, cfg):
    return star((f, *mids, h), cfg) - star((h, *mids, f), cfg)


def _skew_sides(inputs: ClaimInputs, star):
    cfg = inputs.cfg()
    f, h, *mids = inputs.polys
    lhs = _bracket(star, f, h, mids, cfg)
    rhs = -_bracket(star, h, f, mids, cfg)
    return lhs, rhs


def _jacobi_six_sides(inputs: ClaimInputs, star):
    cfg = inputs.cfg()
    l, f, h, g1, g2 = inputs.polys
    def br(a, b, g):
        return _bracket(star, a, b, (g,), cfg)
    total = (br(l, br(f, h, g1), g2) + br(l, br(f, h, g2), g1)
             + br(h, br(l, f, g1), g2) + br(h, br(l, f, g2), g1)
             + br(f, br(h, l, g1), g2) + br(f, br(h, l, g2), g1))
    return total, Polynomial.zero(inputs.n)


def _jacobi_expansion_sides(inputs: ClaimInputs, star):
    cfg = inputs.cfg()
    l, f, h, g1, g2 = inputs.polys
    lhs = _bracket(star, l, _bracket(star, f, h, (g1,), cfg), (g2,), cfg)
    rhs = (star((star((l, g2, f), cfg), g1, h), cfg)
           - star((star((l, g2, h), cfg), g1, f), cfg)
           - star((star((f, g1, h), cfg), g2, l), cfg)
           + star((star((h, g1, f), cfg), g2, l), cfg))
    return lhs, rhs


def _conjugation_sides(inputs: ClaimInputs, star):
    # conj(star_theta(f1..fn)) = star_{-theta}(conj f1 .. conj fn)
    cfg = inputs.cfg()
    lhs = star(inputs.polys, cfg).conjugate()
    rhs = conjugate_star_n(tuple(p.conjugate() for p in inputs.polys), cfg)
    return lhs, rhs


def _theta_zero_sides(inputs: ClaimInputs, star):
    cfg = ThetaConfig(inputs.n, (Fraction(0),) * inputs.n)
    lhs = star(inputs.polys, cfg)
    rhs = inputs.polys[0]
    for p in inputs.polys[1:]:
        rhs = rhs * p
    return lhs, rhs


def _factors(layout: str, inputs: ClaimInputs) -> tuple[Polynomial, ...]:
    """The factors a layout names, one per word, in its order."""
    words = layout.split()
    n, meta = inputs.n, inputs.meta
    named = dict(zip(("f", "g"), inputs.polys))
    for power, word in enumerate(("xk", "xs1", "xs2")):
        if word in words:
            named[word] = x(sigma_power(meta["k"], power, n), n)
    if "a" in words or "abar" in words:
        named["a"], named["abar"] = complex_pair(meta["i"], meta["j"], n)
    return tuple(named[word] for word in words)


def _closed_form_sides(closed: Callable, layout: str):
    """closed(meta, *polys, cfg) against the product of the layout's factors."""
    def sides(inputs: ClaimInputs, star):
        cfg = inputs.cfg()
        return closed(inputs.meta, *inputs.polys, cfg), star(_factors(layout, inputs), cfg)
    return sides


def _products_sides(left: str, right: str, conjugate_left: bool = False):
    """The products of two three-factor layouts' factors, the first
    conjugated when conjugate_left is set."""
    def sides(inputs: ClaimInputs, star):
        cfg = inputs.cfg()
        factors = _factors(f"{left} {right}", inputs)  # complex_pair runs once
        lhs = star(factors[:3], cfg)
        return (lhs.conjugate() if conjugate_left else lhs), star(factors[3:], cfg)
    return sides


def _cf_nary_slot_sides(inputs: ClaimInputs, star):
    cfg = inputs.cfg()
    n, m, p = inputs.n, inputs.meta["m"], inputs.meta["p"]
    fs = inputs.polys[:m - 1]
    gs = inputs.polys[m - 1:]
    closed = star_coord_slot(SlotSpec(n, m, p), fs, gs, cfg)
    slots = list(fs) + [x(p, n)] + list(gs)
    return closed, star(tuple(slots), cfg)


# The inputs on which a witness claim's two sides must coincide: constant
# factors, with every axis a layout may name.
_CONSTANT_INPUTS = ClaimInputs(3, (Fraction(1),) * 3,
                               (Polynomial.constant(2, 3), Polynomial.constant(3, 3)),
                               {"k": 1, "i": 1, "j": 2})


def _omega_antisym_check(rng: random.Random) -> bool:
    q = _sample_int_vector(rng, 3, 9)
    r = _sample_int_vector(rng, 3, 9)
    lhs = freq_cross(q, r)
    rhs = tuple(-v for v in freq_cross(r, q))
    return lhs == rhs


def _det3(p, q, r) -> int:
    return (p[0] * (q[1] * r[2] - q[2] * r[1])
            - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def _omega_cyclic_check(rng: random.Random) -> bool:
    p = _sample_int_vector(rng, 3, 9)
    q = _sample_int_vector(rng, 3, 9)
    r = _sample_int_vector(rng, 3, 9)
    a = sum(pi * wi for pi, wi in zip(p, freq_cross(q, r)))
    b = sum(ri * wi for ri, wi in zip(r, freq_cross(p, q)))
    c = sum(qi * wi for qi, wi in zip(q, freq_cross(r, p)))
    return a == b == c == _det3(p, q, r)


def _build_claim_table() -> dict[str, ClaimDef]:
    general = CorpusSpec(dims=(3, 4))
    three = CorpusSpec(dims=(3,))
    real3 = CorpusSpec(dims=(3,), real_coefficients=True)

    defs: list[ClaimDef] = []

    for idx, pos in enumerate((0, 1, None), start=1):
        defs.append(ClaimDef(
            name=f"distributivity-{idx}", kind="equality", corpus=general,
            sampler=_poly_sampler(1), sides=_distributivity_sides(pos)))

    defs.append(ClaimDef(
        name="associativity", kind="equality", corpus=three,
        sampler=_poly_sampler(2), sides=_associativity_sides,
        canonical_first=_associativity_canonical))

    defs.append(ClaimDef(
        name="skew-symmetry", kind="equality", corpus=general,
        sampler=_poly_sampler(0), sides=_skew_sides))

    defs.append(ClaimDef(
        name="jacobi-six-term", kind="equality", corpus=three,
        sampler=_poly_sampler(2), sides=_jacobi_six_sides))
    defs.append(ClaimDef(
        name="jacobi-expansion", kind="equality", corpus=three,
        sampler=_poly_sampler(2), sides=_jacobi_expansion_sides))

    defs.append(ClaimDef(
        name="conjugation-law", kind="equality", corpus=general,
        sampler=_poly_sampler(0), sides=_conjugation_sides))
    defs.append(ClaimDef(
        name="theta-zero", kind="equality", corpus=general,
        sampler=_poly_sampler(0), sides=_theta_zero_sides))

    # The three-factor claims: each row names the factor in every slot
    # with a layout (see the module docstring for its words).
    coord_forms = (
        ("first", lambda m, f, g, cfg: star_coord_first(m["k"], f, g, cfg), "xk f g"),
        ("middle", lambda m, f, g, cfg: star_coord_middle(m["k"], g, f, cfg), "g xk f"),
        ("last", lambda m, f, g, cfg: star_coord_last(m["k"], f, g, cfg), "f g xk"),
    )
    for which, closed, layout in coord_forms:
        defs.append(ClaimDef(
            name=f"cf-coord-{which}", kind="equality", corpus=three,
            sampler=_axis_poly_sampler(2), sides=_closed_form_sides(closed, layout)))

    two_coord_layouts = ("xk xs1 f", "xk f xs1", "xk xs2 f", "xk f xs2")
    for idx, (variant, layout) in enumerate(zip(TWO_COORD_VARIANTS, two_coord_layouts), start=1):
        defs.append(ClaimDef(
            name=f"cf-two-coords-{idx}", kind="equality", corpus=three,
            sampler=_axis_poly_sampler(1), sides=_closed_form_sides(
                lambda m, f, cfg, v=variant: star_two_coords(m["k"], v, f, cfg), layout)))

    # a complex form's variant name spells its layout: "g-f-abar" is "g f abar"
    complex_forms = {f"cf-complex-{idx}": variant
                     for idx, variant in enumerate(COMPLEX_FORM_VARIANTS, start=1)}
    complex_forms["cf-complex-4-alt"] = "g-f-abar-alt"
    for name, variant in complex_forms.items():
        defs.append(ClaimDef(
            name=name, kind="equality", corpus=three,
            sampler=_axis_poly_sampler(2, distinct_pair=True), sides=_closed_form_sides(
                lambda m, f, g, cfg, v=variant: star_complex_form(v, m["i"], m["j"], f, g, cfg),
                variant.removesuffix("-alt").replace("-", " "))))

    defs.append(ClaimDef(
        name="cf-nary-slot", kind="equality", corpus=general,
        sampler=_slot_sampler, sides=_cf_nary_slot_sides))

    for idx, s in enumerate(("xs1", "xs2"), start=1):
        defs.append(ClaimDef(
            name=f"conj-xx-f-{idx}", kind="equality", corpus=real3,
            sampler=_axis_poly_sampler(1),
            sides=_products_sides(f"xk {s} f", f"xk f {s}", conjugate_left=True)))

    noncomm_layouts = (("xk g f", "f g xk"), ("g xk f", "f xk g"), ("a f g", "g f a"))
    for idx, (left, right) in enumerate(noncomm_layouts, start=1):
        defs.append(ClaimDef(
            name=f"noncomm-witness-{idx}", kind="witness", corpus=three,
            sampler=_axis_poly_sampler(2, nonzero_theta=True, distinct_pair="a" in left.split()),
            sides=_products_sides(left, right)))

    defs.append(ClaimDef(
        name="omega-antisym", kind="vector", vector_check=_omega_antisym_check))
    defs.append(ClaimDef(
        name="omega-cyclic", kind="vector", vector_check=_omega_cyclic_check))

    inequality_layouts = (("a f g", "abar f g"), ("g f a", "g f abar"), ("f a g", "f abar g"))
    for idx, (left, right) in enumerate(inequality_layouts, start=1):
        defs.append(ClaimDef(
            name=f"conj-inequality-{idx}", kind="witness", corpus=real3,
            sampler=_axis_poly_sampler(2, nonzero_theta=True, distinct_pair=True),
            sides=_products_sides(left, right, conjugate_left=True)))

    return {d.name: d for d in defs}


CLAIMS: dict[str, ClaimDef] = _build_claim_table()
CLAIM_IDS: tuple[str, ...] = tuple(sorted(CLAIMS))

GUARANTEED_CLAIMS: tuple[str, ...] = (
    "distributivity-1", "distributivity-2", "distributivity-3",
    "skew-symmetry", "conjugation-law", "theta-zero",
    "cf-coord-first", "cf-coord-middle", "cf-coord-last",
    "cf-two-coords-1", "cf-two-coords-2", "cf-two-coords-3", "cf-two-coords-4",
    "omega-antisym", "omega-cyclic",
)


# --------------------------------------------------------------------------
# shrinking

SHRINK_ROUNDS = 12  # passes of the greedy shrinker; it stops early at a fixed point


def _with_poly(inputs: ClaimInputs, index: int, poly: Polynomial) -> ClaimInputs:
    return replace(inputs, polys=inputs.polys[:index] + (poly,) + inputs.polys[index + 1:])


# Per-term shrinking moves, tried in this order.  Each yields candidate
# term dicts for one key of a polynomial.
def _drop_term(terms: dict, key):
    yield {k: v for k, v in terms.items() if k != key}


def _unit_coefficient(terms: dict, key):
    if terms[key] != ONE:
        yield {**terms, key: ONE}


def _lower_exponent(terms: dict, key):
    for ax, e in enumerate(key):
        if e:
            new_terms = dict(terms)
            lowered = key[:ax] + (e - 1,) + key[ax + 1:]
            new_terms[lowered] = new_terms.get(lowered, ZERO) + new_terms.pop(key)
            yield new_terms


def _shrink(inputs: ClaimInputs, still_fails: Callable[[ClaimInputs], object]) -> ClaimInputs:
    """Greedy minimization: zero theta components, drop polynomial terms,
    simplify coefficients to 1, reduce exponents; keep a move only if the
    failure persists (still_fails returns a truthy value)."""
    current = inputs
    for _ in range(SHRINK_ROUNDS):
        changed = False

        for idx, th in enumerate(current.theta):
            if th == 0:
                continue
            cand = replace(current, theta=current.theta[:idx] + (Fraction(0),) + current.theta[idx + 1:])
            if still_fails(cand):
                current, changed = cand, True

        for moves in (_drop_term, _unit_coefficient, _lower_exponent):
            for pi, poly in enumerate(current.polys):
                for key in sorted(poly.terms, reverse=True):
                    if key not in poly.terms:
                        continue
                    for new_terms in moves(poly.terms, key):
                        cand_poly = Polynomial(poly.n, new_terms)
                        cand = _with_poly(current, pi, cand_poly)
                        if still_fails(cand):
                            current, changed, poly = cand, True, cand_poly
                            break

        if not changed:
            break
    return current


# --------------------------------------------------------------------------
# report assembly

def _theta_strings(theta: Sequence[Fraction]) -> list[str]:
    return [str(t) for t in theta]


def _inputs_record(inputs: ClaimInputs) -> dict:
    return {
        "n": inputs.n,
        "theta": _theta_strings(inputs.theta),
        "meta": dict(sorted(inputs.meta.items())),
        "polys": [{"text": str(p), "terms": p.to_json_terms()} for p in inputs.polys],
    }


def _sides_record(lhs: Polynomial, rhs: Polynomial) -> dict:
    diff = lhs - rhs
    return {
        "lhs": {"text": str(lhs), "terms": lhs.to_json_terms()},
        "rhs": {"text": str(rhs), "terms": rhs.to_json_terms()},
        "difference": {"text": str(diff), "terms": diff.to_json_terms()},
    }


def audit_claim(claim: str, seed: int = 0, trials: int = 100) -> ClaimReport:
    """Evaluate one claim over `trials` inputs sampled from its corpus;
    deterministic in (claim, seed, trials)."""
    if claim not in CLAIMS:
        raise UnknownClaimError(f"unknown claim id {claim!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    cdef = CLAIMS[claim]
    rng = _claim_rng(seed, claim)

    if cdef.kind == "vector":
        desc = "random integer vectors with components in [-9, 9]"
        for t in range(trials):
            if not cdef.vector_check(rng):
                return ClaimReport(claim, VERDICT_FAILS, trials, seed, desc,
                                   counterexample={"trial": t, "note": "integer-vector identity failed"})
        return ClaimReport(claim, VERDICT_HOLDS, trials, seed, desc)

    corpus = cdef.corpus

    def engine_mismatch(inputs: ClaimInputs) -> tuple[Polynomial, Polynomial] | None:
        """The engine's two sides when they differ, else None."""
        lhs, rhs = cdef.sides(inputs, star_n)
        return (lhs, rhs) if lhs != rhs else None

    def confirmed_record(t: int, inputs: ClaimInputs) -> dict:
        """Shrink differing inputs; record them once the oracle agrees."""
        shrunk = _shrink(inputs, engine_mismatch)
        olhs, orhs = cdef.sides(shrunk, star_n_stepwise)
        if olhs == orhs:
            raise RuntimeError(
                f"claim {claim}: expansion engine and term-by-term oracle disagree "
                f"on the differing inputs; engine defect")
        return {
            "trial": t,
            "inputs": _inputs_record(shrunk),
            **_sides_record(*engine_mismatch(shrunk)),
            "oracle_confirmed": True,
        }

    record = None
    for t in range(trials):
        if t == 0 and cdef.canonical_first is not None:
            inputs = cdef.canonical_first()
        else:
            inputs = cdef.sampler(rng, corpus.dims[t % len(corpus.dims)], corpus)
        if engine_mismatch(inputs):
            record = confirmed_record(t, inputs)
            break

    if cdef.kind == "equality":
        verdict = VERDICT_HOLDS if record is None else VERDICT_FAILS
        return ClaimReport(claim, verdict, trials, seed, corpus.describe(),
                           counterexample=record)

    # witness kind: the sides differ generically but coincide on constants
    if record is None:
        note = "no differing inputs found"
    elif engine_mismatch(_CONSTANT_INPUTS):
        note = "degenerate inputs unexpectedly differ"
    else:
        record["coincidence"] = "sides coincide on constant inputs"
        return ClaimReport(claim, VERDICT_HOLDS, trials, seed, corpus.describe(),
                           witness=record)
    return ClaimReport(claim, VERDICT_FAILS, trials, seed, corpus.describe(),
                       counterexample={"note": note})


def audit_jacobi(seed: int = 0, trials: int = 100) -> tuple[ClaimReport, ClaimReport]:
    """The six-term bracket identity and the expansion relation it is said
    to rest on, audited independently."""
    return (audit_claim("jacobi-six-term", seed, trials),
            audit_claim("jacobi-expansion", seed, trials))


def run_suite(seed: int = 0, trials: int = 100) -> list[ClaimReport]:
    """Audit every claim; deterministic given (seed, trials)."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    return [audit_claim(claim, seed=seed, trials=trials) for claim in CLAIM_IDS]


def reports_to_json(reports: Sequence[ClaimReport]) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2)


def all_guaranteed_hold(reports: Sequence[ClaimReport]) -> bool:
    by_name = {r.claim: r for r in reports}
    return all(by_name[c].verdict == VERDICT_HOLDS
               for c in GUARANTEED_CLAIMS if c in by_name)
