"""Independent references that the tests compare the engines against.

The plane-wave operators build every result term by term and merge it
once through the WaveSum constructor: ``mul`` is the theta = 0 star
product, and the node-by-node lowering of wave expressions is written
with ``constant``, ``add``, ``scale`` and ``mul``.  ``poly_from_json_terms``
reads back the records of ``Polynomial.to_json_terms``.
"""

from fractions import Fraction
from typing import Iterable, Mapping

from nstar.polynomials import MultiIndex, Polynomial
from nstar.scalars import ExactComplex
from nstar.waves import WaveSum


def constant(coeff: complex, n: int) -> WaveSum:
    return WaveSum(n, [(coeff, (0.0,) * n)])


def add(a: WaveSum, b: WaveSum) -> WaveSum:
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    return WaveSum(a.n, list(a.terms) + list(b.terms))


def scale(w: WaveSum, c: complex) -> WaveSum:
    return WaveSum(w.n, [(coeff * c, f) for coeff, f in w.terms])


def mul(a: WaveSum, b: WaveSum) -> WaveSum:
    """Pointwise product (frequencies add); the theta = 0 star product."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    out = []
    for c1, f1 in a.terms:
        for c2, f2 in b.terms:
            out.append((c1 * c2, tuple(x + y for x, y in zip(f1, f2))))
    return WaveSum(a.n, out)


def poly_from_json_terms(n: int, records: Iterable[Mapping]) -> Polynomial:
    terms: dict[MultiIndex, ExactComplex] = {}
    for rec in records:
        exps = tuple(rec["exponents"])
        c = ExactComplex(
            Fraction(rec["re_num"], rec["re_den"]),
            Fraction(rec["im_num"], rec["im_den"]),
            Fraction(rec.get("rt2_re_num", 0), rec.get("rt2_re_den", 1)),
            Fraction(rec.get("rt2_im_num", 0), rec.get("rt2_im_den", 1)),
        )
        terms[exps] = c
    return Polynomial(n, terms)
