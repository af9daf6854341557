"""Multivariate polynomials with exact coefficients.

Terms are stored as a dict from exponent tuples to ExactComplex
coefficients:

    {(1, 1, 0): 1, (0, 0, 0): i/2}   means   x1*x2 + (1/2)i

Zero coefficients are never stored, so two polynomials are equal iff
their term dicts are equal.  Serialization and printing order terms
graded-lexicographically (total degree first, then exponents), highest
first, which keeps every output deterministic.

Products run through one multiply loop, ``_multiply``, on packed terms:
a term is one int key (its exponent tuple, Kronecker substitution) and
one int value (its coefficient's numerators over the operand's common
denominator, as an element of Z[zeta], zeta = e^(i pi/4), evaluated at
zeta = 2**w).  A pair of terms is one key add and one int multiply; each
output term is reduced once, modulo zeta^4 + 1, and read back into a
scalar.  The field width w comes from the operands' L1 norms, so no
coordinate of any output term outgrows its field.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .scalars import (ExactComplex, ONE, ZERO, _lowest_terms, _make, _numerators, format_scalar,
                      scalar_is_negative_leading)

MultiIndex = tuple[int, ...]
# the (shifts, mask) of a packed exponent key
Layout = tuple[tuple[int, ...], int]


def _grlex_key(exps: MultiIndex):
    return (sum(exps), exps)


class Polynomial:
    """Exact polynomial in n variables x1..xn."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[MultiIndex, ExactComplex] | None = None):
        if n < 1:
            raise ValueError("dimension must be positive")
        clean: dict[MultiIndex, ExactComplex] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != n or any(e < 0 for e in exps):
                    raise ValueError(f"bad multi-index {exps} for dimension {n}")
                coeff = ExactComplex.coerce(coeff)
                if coeff:
                    prev = clean.get(exps)
                    total = coeff if prev is None else prev + coeff
                    if total:
                        clean[exps] = total
                    elif exps in clean:
                        del clean[exps]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _trusted(n: int, terms: dict[MultiIndex, ExactComplex]) -> "Polynomial":
        """Wrap terms that are already canonical (length-n keys, no zero
        coefficients) without the checks of __init__."""
        p = _new(Polynomial)
        _set_n(p, n)
        _set_terms(p, terms)
        return p

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n)

    @staticmethod
    def constant(c, n: int) -> "Polynomial":
        c = ExactComplex.coerce(c)
        return Polynomial(n, {(0,) * n: c} if c else {})

    @staticmethod
    def coordinate(k: int, n: int) -> "Polynomial":
        """The coordinate function x_k (1-based)."""
        if not 1 <= k <= n:
            raise ValueError(f"coordinate index {k} out of range 1..{n}")
        exps = tuple(1 if i == k - 1 else 0 for i in range(n))
        return Polynomial(n, {exps: ONE})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self) -> list[tuple[MultiIndex, ExactComplex]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, ExactComplex)):
            other = Polynomial.constant(other, self.n)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None  # mutable-dict backed; not hashable

    # -- arithmetic --------------------------------------------------------

    def _coerce_operand(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError("dimension mismatch")
            return other
        return Polynomial.constant(other, self.n)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce_operand(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            cur = out.get(exps)
            total = coeff if cur is None else cur + coeff
            if total:
                out[exps] = total
            elif exps in out:
                del out[exps]
        return Polynomial._trusted(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce_operand(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, ExactComplex)):
            c = ExactComplex.coerce(other)
            if not c:
                return Polynomial.zero(self.n)
            return Polynomial._trusted(self.n, {e: v * c for e, v in self.terms.items()})
        other = self._coerce_operand(other)
        return Polynomial._trusted(self.n, _product(self.terms, other.terms, self.n))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        if k == 0:
            return Polynomial.constant(1, self.n)
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        out = base  # the lowest set bit: no product with the unit
        while k := k >> 1:
            base = base * base
            if k & 1:
                out = out * base
        return out

    # -- calculus ----------------------------------------------------------

    def diff(self, axis: int) -> "Polynomial":
        """Exact partial derivative with respect to x_axis (1-based)."""
        if not 1 <= axis <= self.n:
            raise ValueError(f"axis {axis} out of range 1..{self.n}")
        j = axis - 1
        out: dict[MultiIndex, ExactComplex] = {}
        for exps, coeff in self.terms.items():
            e = exps[j]
            if e == 0:
                continue
            new = exps[:j] + (e - 1,) + exps[j + 1:]
            out[new] = coeff * e
        return Polynomial._trusted(self.n, out)

    def times_coordinate(self, axis: int) -> "Polynomial":
        """self * x_axis (1-based): every exponent of x_axis up by one."""
        if not 1 <= axis <= self.n:
            raise ValueError(f"axis {axis} out of range 1..{self.n}")
        j = axis - 1
        return Polynomial._trusted(self.n, {exps[:j] + (exps[j] + 1,) + exps[j + 1:]: coeff
                                            for exps, coeff in self.terms.items()})

    def conjugate(self) -> "Polynomial":
        """Complex conjugate (coefficient-wise; the variables are real)."""
        return Polynomial._trusted(self.n, {e: c.conjugate() for e, c in self.terms.items()})

    # -- evaluation --------------------------------------------------------

    def eval_exact(self, point: Sequence[int | Fraction]) -> ExactComplex:
        """Exact value at a point with rational (int or Fraction) coordinates.

        The coordinates are put over one common denominator D, so a
        monomial of degree e is a product of the coordinates' numerators
        over D**e; scaled by D**(deg - e), deg the total degree, every
        monomial is an integer over D**deg.  With the coefficients over
        their common denominator, the value is four integer sums, and one
        scalar is built.
        """
        if len(point) != self.n:
            raise ValueError("point dimension mismatch")
        if not self.terms:
            return ZERO
        D = math.lcm(*[v.denominator for v in point])
        deg = self.degree()
        # per axis, the powers of its numerator up to the axis's top exponent
        tables = [_powers(v.numerator * (D // v.denominator), top)
                  for v, top in zip(point, map(max, zip(*self.terms)))]
        scales = _powers(D, deg)
        den, rows = _numerators(self.terms.values())
        re = im = r2re = r2im = 0
        for exps, (a, b, c, d) in zip(self.terms, rows):
            mono = math.prod(map(list.__getitem__, tables, exps), start=scales[deg - sum(exps)])
            re += a * mono
            im += b * mono
            r2re += c * mono
            r2im += d * mono
        return _make(re, im, r2re, r2im, den * scales[deg])

    def max_coeff_magnitude(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(c) for c in self.terms.values())

    # -- printing / serialization ------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for idx, (exps, coeff) in enumerate(self.sorted_terms()):
            neg = scalar_is_negative_leading(coeff)
            mag = -coeff if neg else coeff
            body = _term_str(exps, mag)
            if idx == 0:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f" - {body}" if neg else f" + {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"<Polynomial n={self.n} {self}>"

    def to_json_terms(self) -> list[dict]:
        out = []
        for exps, c in self.sorted_terms():
            re_num, re_den, im_num, im_den, rt2_re_num, rt2_re_den, rt2_im_num, rt2_im_den = \
                _lowest_terms(c)
            rec = {
                "exponents": list(exps),
                "re_num": re_num, "re_den": re_den,
                "im_num": im_num, "im_den": im_den,
            }
            if rt2_re_num or rt2_im_num:
                rec["rt2_re_num"] = rt2_re_num
                rec["rt2_re_den"] = rt2_re_den
                rec["rt2_im_num"] = rt2_im_num
                rec["rt2_im_den"] = rt2_im_den
            out.append(rec)
        return out

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "terms": self.to_json_terms()})

    @staticmethod
    def from_json_terms(n: int, records: Iterable[Mapping]) -> "Polynomial":
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

    @staticmethod
    def from_json(text: str) -> "Polynomial":
        data = json.loads(text)
        return Polynomial.from_json_terms(data["n"], data["terms"])


# the slots' setters, past the immutability guard of __setattr__
_set_n = Polynomial.n.__set__
_set_terms = Polynomial.terms.__set__
_new = object.__new__


def _product(a: Mapping[MultiIndex, ExactComplex], b: Mapping[MultiIndex, ExactComplex],
             n: int) -> dict[MultiIndex, ExactComplex]:
    """Term dict of the product of two term dicts in n variables: pack
    both, one multiply, one unpack.

    The keys are packed at the bit width of the product's total degree;
    no exponent of the product needs more, so no key carries between axes.
    The coefficients are packed at the width ``_width`` gives the product
    of the operands' norms.
    """
    if not a or not b:
        return {}
    shifts, _ = layout = _layout((max(map(sum, a)) + max(map(sum, b))).bit_length(), n)
    den_a, norm_a, rows_a = _split(a, shifts)
    den_b, norm_b, rows_b = _split(b, shifts)
    w = _width(norm_a * norm_b)
    acc: dict[int, int] = {}
    _multiply(_encode(rows_a, w), _encode(rows_b, w), acc)
    return _unpack(acc, den_a * den_b, layout, w)


@functools.cache
def _layout(width: int, n: int) -> Layout:
    """(shifts, mask) of keys packed at `width` bits per axis in n
    variables: the bit offset of each axis, and the mask of one axis."""
    return tuple([width * i for i in range(n)]), (1 << width) - 1


def _split(terms: Mapping[MultiIndex, ExactComplex],
           shifts: Sequence[int]) -> tuple[int, int, list[tuple[int, int, int, int, int]]]:
    """(den, norm, rows) of a term dict: den is the least common
    denominator of the coefficients, and rows lists each term as its
    packed key and the coordinates (e0, e1, e2, e3) of its numerators
    over den.

    A key packs an exponent tuple into one int (Kronecker substitution),
    at the bit offsets `shifts` of ``_layout``.  While no exponent
    outgrows its field, the key of a product of monomials is the sum of
    their keys.

    The coordinates are in the basis 1, zeta, zeta^2, zeta^3 of Z[zeta],
    zeta = e^(i pi/4), where i = zeta^2 and sqrt(2) = zeta - zeta^3: the
    numerators (a, b, c, d) of (a + b*i) + sqrt(2)*(c + d*i) have the
    coordinates (a, c + d, b, d - c).  norm is the L1 norm of the rows,
    the sum of the coordinates' absolute values.  The norm of a product
    is at most the product of the norms, and the norm of a sum at most
    the sum of the norms, so norms bound every coordinate of every
    coefficient of a sum of products.
    """
    den = math.lcm(*[v._q[4] for v in terms.values()])
    norm = 0
    rows = []
    for exps, v in terms.items():
        a, b, c, d, e = v._q
        if e != den:
            f = den // e
            a, b, c, d = a * f, b * f, c * f, d * f
        c, d = c + d, d - c
        norm += abs(a) + abs(b) + abs(c) + abs(d)
        rows.append((sum(map(operator.lshift, exps, shifts)), a, c, b, d))
    return den, norm, rows


def _width(bound: int) -> int:
    """The bits per coordinate of ``_encode`` for coordinates bounded by
    bound in absolute value: one more than bound has, so a coordinate
    with its sign fits in a field."""
    return bound.bit_length() + 1


def _encode(rows: Iterable[tuple[int, int, int, int, int]], w: int) -> list[tuple[int, int]]:
    """(key, value) rows of ``_split``'s (key, e0, e1, e2, e3) rows: the
    value packs the coordinates into one int, their value at zeta = 2**w.
    A product of two values is then one int product, and ``_unpack``
    reads the coordinates back modulo zeta^4 = -1."""
    return [(key, (((e3 << w) + e2 << w) + e1 << w) + e0) for key, e0, e1, e2, e3 in rows]


def _multiply(rows_a: Iterable[tuple[int, int]], rows_b: Sequence[tuple[int, int]],
              acc: dict[int, int]) -> None:
    """Add the product of two sequences of packed (key, value) rows into
    acc, key -> value; the items of such an acc are rows too.

    A value is a coefficient's numerators as ``_encode`` packs them, and
    the product's are over the product of the operands' denominators: one
    int multiply and one add per pair of rows.
    """
    get = acc.get
    for k1, v1 in rows_a:
        for k2, v2 in rows_b:
            k = k1 + k2
            acc[k] = get(k, 0) + v1 * v2


@functools.cache
def _ring(w: int) -> tuple[int, int, int, int]:
    """(modulus, bias, half, mask) of coordinates packed at w bits: the
    modulus zeta^4 + 1 at zeta = 2**w, the bias holding half = 2**(w - 1)
    in each of the four fields, half, and the mask of one field."""
    mask = (1 << w) - 1
    half = 1 << w - 1
    return (1 << 4 * w) + 1, half * (((1 << 4 * w) - 1) // mask), half, mask


def _unpack(acc: Mapping[int, int], den: int, layout: Layout,
            w: int) -> dict[MultiIndex, ExactComplex]:
    """The term dict of an accumulator of keys packed in the fields of
    ``layout`` and values packed as by ``_encode`` at w bits per
    coordinate, over den: one scalar per nonzero term.

    A value is reduced once, modulo zeta^4 + 1.  While every coordinate
    of the reduced value is below 2**(w - 1) in absolute value, the
    remainder of the value plus the bias holds each coordinate plus half
    as a field in [1, 2**w), so it reads off the coordinates (e0, e1, e2,
    e3); then a = e0, b = e2, c = (e1 - e3) / 2 and d = (e1 + e3) / 2
    (e1 and e3 have one parity: a sum of products of rows stays in
    Z[i, sqrt(2)]).
    """
    shifts, mask = layout
    modulus, bias, half, field = _ring(w)
    w2 = 2 * w
    w3 = 3 * w
    out = {}
    for key, v in acc.items():
        r = (v + bias) % modulus
        if r == bias:
            continue
        # the fields of e1 and e3; their halves cancel in c
        f1 = r >> w & field
        f3 = r >> w3
        out[tuple([(key >> s) & mask for s in shifts])] = _make(
            (r & field) - half, (r >> w2 & field) - half, (f1 - f3) >> 1, ((f1 + f3) >> 1) - half, den)
    return out


def _sum_of_products(weights: Sequence[ExactComplex], chains: Sequence[Sequence],
                     slots: Sequence[Mapping[object, Mapping[MultiIndex, ExactComplex]]],
                     n: int, degree: int) -> dict[MultiIndex, ExactComplex]:
    """Term dict of sum_i weights[i] * prod_j slots[j][chains[i][j]], where
    slots[j] maps a key to a term dict in n variables and no product has a
    total degree above `degree`.

    Every term dict is packed once: its keys at the bit width of `degree`,
    its coefficients at the width ``_width`` gives the weights' norm times,
    per slot, the largest norm among its term dicts.  A chain's numerators
    are over the product of its slots' denominators, so its weight is
    taken over that product too; then every chain's numerators are over
    one common denominator, and ``_fold`` multiplies all of them out into
    one accumulator, unpacked once.  The weights are split as a term dict
    in one variable, keyed by chain index.
    """
    if not chains:
        return {}
    shifts, _ = layout = _layout(degree.bit_length(), n)
    split = [{key: _split(terms, shifts) for key, terms in slot.items()} for slot in slots]
    scaled = {}
    for i, (wt, chain) in enumerate(zip(weights, chains)):
        a, b, c, d, e = wt._q
        scaled[i,] = _make(a, b, c, d, e * math.prod([split[j][key][0]
                                                       for j, key in enumerate(chain)]))
    den, norm, rows = _split(scaled, (0,))
    w = _width(math.prod([max([s[1] for s in slot.values()]) for slot in split], start=norm))
    packed = [{key: _encode(s[2], w) for key, s in slot.items()} for slot in split]
    return _unpack(_fold(0, _encode(rows, w), chains, packed), den, layout, w)


def _fold(level: int, group: list, chains: Sequence[Sequence], packed: list[dict]) -> dict[int, int]:
    """The accumulator of sum over group of weight * prod_{j >= level} slot_j.

    group holds (i, packed weight) rows, chains[i][j] naming slot j's
    packed rows in packed[j].  Chains that share slot `level`'s rows share
    one multiply by them (the distributive law): each distinct entry
    multiplies the fold of its chains over the later slots, and past the
    last slot a fold is the sum of the weights.
    """
    if level == len(packed):
        return {0: sum([v for _, v in group])}
    by_slot: dict[object, list] = {}
    for item in group:
        by_slot.setdefault(chains[item[0]][level], []).append(item)
    acc: dict[int, int] = {}
    for key, sub in by_slot.items():
        _multiply(_fold(level + 1, sub, chains, packed).items(), packed[level][key], acc)
    return acc


def _powers(base: int, top: int) -> list[int]:
    """[base**0, base**1, ..., base**top]."""
    return list(itertools.accumulate(itertools.repeat(base, top), operator.mul, initial=1))


def _monomial_str(exps: MultiIndex) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def _term_str(exps: MultiIndex, coeff: ExactComplex) -> str:
    mono = _monomial_str(exps)
    if not mono:
        s = format_scalar(coeff)
        # standalone fraction-valued imaginary coefficient prints as (p/q)i
        return s
    if coeff == ONE:
        return mono
    s = format_scalar(coeff)
    if coeff.is_rational_complex() and not coeff.im and coeff.re.denominator == 1:
        return f"{s}*{mono}"
    if coeff.is_rational_complex() and not coeff.re and coeff.im.denominator == 1:
        return f"{s}*{mono}"  # e.g. 2i*x1, i*x1
    return f"({s})*{mono}"


def x(k: int, n: int) -> Polynomial:
    """Shorthand for the coordinate polynomial x_k in dimension n."""
    return Polynomial.coordinate(k, n)
