"""Multivariate polynomials with exact coefficients.

Terms are stored as a dict from exponent tuples to ExactComplex
coefficients:

    {(1, 1, 0): 1, (0, 0, 0): i/2}   means   x1*x2 + (1/2)i

Zero coefficients are never stored, so two polynomials are equal iff
their term dicts are equal.  Serialization and printing order terms
graded-lexicographically (total degree first, then exponents), highest
first, which keeps every output deterministic.  Both read a coefficient
once, as the eight integers of ``scalars._lowest_terms`` (each part's
numerator and denominator in lowest terms): the JSON term records take
them as they are, and the text takes a term's sign, magnitude and
bracketing from them.

Products run through one multiply loop, ``_multiply``, on packed terms:
a term is one int key (its exponent tuple, Kronecker substitution) and
one int value (its coefficient's coordinates in the basis 1, zeta,
zeta^2, zeta^3 as ``scalars`` stores them, zeta = e^(i pi/4), put over a
common denominator and evaluated at zeta = 2**w).
``_split`` puts term dicts over their common denominator: each operand
of a two-operand product on its own, and in a sum of products
(``_sum_of_products``) all the term dicts of one slot together, so every
product of one term dict per slot is over the same denominator.  A pair
of terms is one key add and one int multiply; each output term is
reduced once, modulo zeta^4 + 1, and its four fields are the
coordinates of its scalar.  The field width w comes from the operands'
L1 norms, so no coordinate of any output term outgrows its field.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Sequence

from .scalars import ExactComplex, ONE, _lowest_terms, _make, _parts_text, _power

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
                # a bool is an int too, but no exponent
                if len(exps) != n or any(type(e) is not int or e < 0 for e in exps):
                    raise ValueError(f"bad multi-index {exps} for dimension {n}")
                coeff = ExactComplex.coerce(coeff)
                if coeff:
                    clean[exps] = coeff
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
        return _power(self, k)

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

    def eval_exact(self, points: SamplePoints | Sequence[Sequence]) -> list[ExactComplex]:
        """Exact values at points with rational (int or Fraction) coordinates,
        one per point.  Raw points are prepared on entry; a caller evaluating
        at the same points again passes them prepared (``SamplePoints``)."""
        if not isinstance(points, SamplePoints):
            points = SamplePoints(points, self.n)
        return [_make(*sums) for sums in self._eval_sums(points)]

    def _eval_sums(self, points: SamplePoints) -> list[tuple[int, int, int, int, int]]:
        """Per point, the value's four coordinates as integer sums over one
        denominator, not in lowest terms: the evaluation loop of
        ``eval_exact`` and of ``PolyGauss.eval``.

        The terms go over their common denominator once (``_split``).  Per
        point, with D its coordinates' common denominator, a monomial of
        degree e is a product of the numerators over D**e; scaled by
        D**(deg - e), deg the total degree, every monomial is an integer
        over D**deg.  The loop runs over the terms, each worked out at all
        points at once: one list product per nonzero exponent and one list
        sum per nonzero coordinate.
        """
        if points.n != self.n:
            raise ValueError("dimension mismatch")
        if not self.terms:
            return [(0, 0, 0, 0, 1)] * len(points)
        deg = self.degree()
        den, [(_, rows)] = _split([self.terms])
        *axes, scales = points.powers(deg)
        sums = [[0] * len(points) for _ in range(4)]
        for exps, *coords in rows:
            mono = scales[deg - sum(exps)]
            for table, e in zip(axes, exps):
                if e:
                    mono = list(map(operator.mul, mono, table[e]))
            for c, e in enumerate(coords):
                if e:
                    sums[c] = list(map(operator.add, sums[c], map(e.__mul__, mono)))
        return list(zip(*sums, map(den.__mul__, scales[deg])))

    # -- printing / serialization ------------------------------------------

    def __str__(self) -> str:
        """The terms, highest first, each read off its coefficient's
        ``_lowest_terms``: the sign of the first nonzero numerator joins it
        to the text before it, and the magnitude goes before the monomial
        bare when it is an integer or an integer times i, else bracketed."""
        pieces = []
        for exps, coeff in self.sorted_terms():
            a, b, c, d, e, f, g, h = _lowest_terms(coeff)
            neg = (a or c or e or g) < 0
            if neg:
                a, c, e, g = -a, -c, -e, -g
            body = _parts_text(a, b, c, d, e, f, g, h)
            mono = "*".join(f"x{k}^{p}" if p > 1 else f"x{k}" for k, p in enumerate(exps, 1) if p)
            if mono:
                if e or g or (a and c) or b != 1 or d != 1:
                    body = f"({body})*{mono}"
                else:
                    body = mono if (a, c) == (1, 0) else f"{body}*{mono}"
            pieces.append(f" - {body}" if neg else f" + {body}")
        if not pieces:
            return "0"
        text = "".join(pieces)  # " + " or " - " before every term; the first keeps only a "-"
        return "-" + text[3:] if text[1] == "-" else text[3:]

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


class SamplePoints:
    """Points with rational (int or Fraction) coordinates over den in n
    variables (ints over den need no Fraction), prepared once for any
    number of evaluations: per point, the common denominator D of its
    values and their integer numerators over D, coprime; per axis and for
    D, tables of their powers over all the points, grown to the largest
    total degree asked for; and per scale s the Gaussian weight
    exp(-s |x|^2 / 2) at each point.
    """

    __slots__ = ("n", "_points", "_tables", "_weights")

    def __init__(self, points: Iterable[Sequence[int | Fraction]], n: int, den: int = 1):
        self.n = n
        self._points: list[tuple[list[int], int]] = []  # per point, its numerators and D
        for index, point in enumerate(points):
            if len(point) != n:
                raise ValueError(f"point {index}: dimension mismatch")
            for axis, v in enumerate(point, 1):
                if not isinstance(v, (int, Fraction)):
                    raise ValueError(f"point {index}: coordinate x{axis} = {v!r} "
                                     f"is not an int or Fraction")
            D = math.lcm(*[v.denominator for v in point])
            nums = [v.numerator * (D // v.denominator) for v in point]
            g = math.gcd(den, *nums)  # 1 at den = 1: the numerators over D are coprime
            self._points.append(([v // g for v in nums], D * den // g))
        # per axis, then for D: entry e lists the bases' e-th powers over the points
        bases = [[nums[a] for nums, _ in self._points] for a in range(n)]
        self._tables = [[[1] * len(self._points), base]
                        for base in bases + [[D for _, D in self._points]]]
        self._weights: dict[int, list[float]] = {}

    def __len__(self) -> int:
        return len(self._points)

    def powers(self, degree: int) -> list[list[list[int]]]:
        """Per axis, then for D, the powers of the bases over the points,
        grown in place to hold at least the powers 0..degree."""
        for table in self._tables:
            while len(table) <= degree:
                table.append(list(map(operator.mul, table[-1], table[1])))
        return self._tables

    def coordinates(self) -> list[tuple[list[int], int]]:
        """Per point, the integer numerators of its coordinates over D, and D."""
        return self._points

    def gaussian(self, scale: int) -> list[float]:
        """Per point, exp(-scale * |x|^2 / 2).  |x|^2 = norm2 / D^2 in
        integers, and int / int rounds correctly, so the exponent is the
        float nearest the exact one."""
        weights = self._weights.get(scale)
        if weights is None:
            weights = self._weights[scale] = [
                math.exp(-(scale * sum([v * v for v in nums])) / (2 * D ** 2))
                for nums, D in self._points]
        return weights


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
    den_a, [(norm_a, rows_a)] = _split([a])
    den_b, [(norm_b, rows_b)] = _split([b])
    w = _width(norm_a * norm_b)
    acc: dict[int, int] = {}
    _multiply(_encode(rows_a, shifts, w), _encode(rows_b, shifts, w), acc)
    return _unpack(acc, den_a * den_b, layout, w)


@functools.cache
def _layout(width: int, n: int) -> Layout:
    """(shifts, mask) of keys packed at `width` bits per axis in n
    variables: the bit offset of each axis, and the mask of one axis."""
    return tuple([width * i for i in range(n)]), (1 << width) - 1


def _split(term_dicts: Collection[Mapping[MultiIndex, ExactComplex]]
           ) -> tuple[int, list[tuple[int, list[tuple[MultiIndex, int, int, int, int]]]]]:
    """(den, [(norm, rows), ...]) of term dicts put over one denominator:
    den is the least common denominator of all their coefficients, and
    per term dict, rows lists each term as its exponent tuple and its
    coefficient's coordinates (e0, e1, e2, e3), the first four of its
    ``_q``, scaled to den.  This is the one place a term dict is put over
    a common denominator: ``_product`` splits each operand on its own,
    ``_sum_of_products`` the weights and each slot's term dicts together,
    and ``Polynomial.eval_exact`` its terms.

    norm is the L1 norm of a term dict's rows, the sum of the
    coordinates' absolute values.  The norm of a product is at most the
    product of the norms, and the norm of a sum at most the sum of the
    norms, so norms bound every coordinate of every coefficient of a sum
    of products.
    """
    den = math.lcm(*[v._q[4] for terms in term_dicts for v in terms.values()])
    out = []
    for terms in term_dicts:
        norm = 0
        rows = []
        for exps, v in terms.items():
            e0, e1, e2, e3, e = v._q
            if e != den:
                f = den // e
                e0, e1, e2, e3 = e0 * f, e1 * f, e2 * f, e3 * f
            norm += abs(e0) + abs(e1) + abs(e2) + abs(e3)
            rows.append((exps, e0, e1, e2, e3))
        out.append((norm, rows))
    return den, out


def _width(bound: int) -> int:
    """The bits per coordinate of ``_encode`` for coordinates bounded by
    bound in absolute value: one more than bound has, so a coordinate
    with its sign fits in a field."""
    return bound.bit_length() + 1


def _encode(rows: Iterable[tuple[MultiIndex, int, int, int, int]], shifts: Sequence[int],
            w: int) -> list[tuple[int, int]]:
    """(key, value) rows of ``_split``'s (exponents, e0, e1, e2, e3) rows.

    The key packs the exponent tuple into one int (Kronecker
    substitution), at the bit offsets `shifts` of ``_layout``; while no
    exponent outgrows its field, the key of a product of monomials is the
    sum of their keys.  The value packs the coordinates into one int,
    their value at zeta = 2**w.  A product of two values is then one int
    product, and ``_unpack`` reads the coordinates back modulo
    zeta^4 = -1.
    """
    return [(sum(map(operator.lshift, exps, shifts)), (((e3 << w) + e2 << w) + e1 << w) + e0)
            for exps, e0, e1, e2, e3 in rows]


def _multiply(rows_a: Iterable[tuple[int, int]], rows_b: Sequence[tuple[int, int]],
              acc: dict[int, int]) -> None:
    """Add the product of two sequences of packed (key, value) rows into
    acc, key -> value; the items of such an acc are rows too.

    A value is a coefficient's coordinates as ``_encode`` packs them, and
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
    e3) of the term's scalar over den.
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
        out[tuple([(key >> s) & mask for s in shifts])] = _make(
            (r & field) - half, (r >> w & field) - half, (r >> w2 & field) - half, (r >> w3) - half,
            den)
    return out


def _sum_of_products(weights: Sequence[ExactComplex], chains: Sequence[Sequence],
                     slots: Sequence[Mapping[object, Mapping[MultiIndex, ExactComplex]]],
                     n: int, degree: int) -> dict[MultiIndex, ExactComplex]:
    """Term dict of sum_i weights[i] * prod_j slots[j][chains[i][j]], where
    slots[j] maps a key to a term dict in n variables and no product has a
    total degree above `degree`.

    Every term dict is packed once, the term dicts of slot j together
    over one denominator D_j, the least common denominator of all their
    coefficients; slots that are one mapping object share its packing.
    Every chain's numerators are then over the weights' denominator
    times prod_j D_j, and ``_fold`` multiplies all of them
    out into one accumulator, unpacked once.  The keys are packed at
    the bit width of `degree`, the coefficients at the width ``_width``
    gives the weights' norm times, per slot, the largest norm among its
    term dicts.  The weights are split as a term dict in one variable,
    keyed by chain index.
    """
    if not chains:
        return {}
    shifts, _ = layout = _layout(degree.bit_length(), n)
    den, [(norm, rows)] = _split([{(i,): wt for i, wt in enumerate(weights)}])
    # a mapping object that fills several slots is split and packed once
    split_of: dict[int, tuple] = {}
    split = [split_of.get(id(slot)) or split_of.setdefault(id(slot), _split(slot.values()))
             for slot in slots]
    den = math.prod([d for d, _ in split], start=den)
    w = _width(math.prod([max([part[0] for part in parts]) for _, parts in split], start=norm))
    packed_of: dict[int, dict] = {}
    packed = [packed_of.get(id(slot)) or packed_of.setdefault(
                  id(slot), {key: _encode(part[1], shifts, w) for key, part in zip(slot, parts)})
              for slot, (_, parts) in zip(slots, split)]
    return _unpack(_fold(0, _encode(rows, (0,), w), chains, packed), den, layout, w)


def _fold(level: int, group: list, chains: Sequence[Sequence], packed: list[dict]) -> dict[int, int]:
    """The accumulator of sum over group of weight * prod_{j >= level} slot_j.

    group holds (i, packed weight) rows, chains[i][j] naming slot j's
    packed rows in packed[j].  Chains that share slot `level`'s rows share
    one multiply by them (the distributive law): each distinct entry
    multiplies the fold of its chains over the later slots, or at the last
    slot their summed weight.
    """
    by_slot: dict[object, list] = {}
    for item in group:
        by_slot.setdefault(chains[item[0]][level], []).append(item)
    acc: dict[int, int] = {}
    for key, sub in by_slot.items():
        if level + 1 < len(packed):
            _multiply(_fold(level + 1, sub, chains, packed).items(), packed[level][key], acc)
        else:
            _multiply([(0, sum([v for _, v in sub]))], packed[level][key], acc)
    return acc


@functools.cache
def x(k: int, n: int) -> Polynomial:
    """Shorthand for the coordinate polynomial x_k in dimension n, built
    once per (k, n): polynomials are immutable, so callers share it."""
    return Polynomial.coordinate(k, n)
