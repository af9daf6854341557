"""Expression parsing, printing, and lowering.

Grammar (whitespace insignificant):

    expr   := '-'? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := rational | rational 'i' | 'x' uint
            | 'a(' uint ',' uint ')' | 'abar(' uint ',' uint ')'
            | 'wave(' real (',' real)* ')' | '(' expr ')'

Rationals are written p or p/q; a trailing 'i' (no space) makes the
literal imaginary.  Reals (floats allowed) are accepted only inside
wave(...).  The leading unary minus is a convenience so printed
polynomials stay parseable.  Digits, in numbers and in x<k>, are the
ASCII digits 0-9 only; any other character that starts no token is an
"unexpected character".  An integer with more digits than Python
converts from text (``sys.get_int_max_str_digits()``, 4300 by default)
is an error at its token, as is a wave component past the float range.
Parentheses nest at most MAX_DEPTH (50) deep.

Parsed trees round-trip through the printer: parse(print(tree)) == tree.
Polynomial expressions lower to exact Polynomial values; wave atoms
lower to WaveSum; mixing the two classes in one expression is rejected.
A wave expression lowers node by node to one of two values: a complex
for a subtree without waves, else the node's merged (coefficient,
frequency) terms, which the top node hands to WaveSum as they are.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
import string
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from itertools import accumulate, repeat

from .closedforms import complex_pair
from .polynomials import Polynomial
from .scalars import ExactComplex
from .waves import (MERGE_TOL, WaveSum, _coeff_overflow_error, _freq_range_error, _nonzero_terms,
                    merge_terms)


class ExprError(ValueError):
    """Parse or lowering error with 1-based position information."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line} col {col}: {message}")
        self.message, self.line, self.col = message, line, col


# -- AST --------------------------------------------------------------------

class Node:
    """An immutable tree node.  A node class lists its fields in _fields,
    which equality, hashing and repr read in that order; pos, the 1-based
    (line, col) where the node's text starts, is left out of equality and
    hashing."""

    __slots__ = ("pos",)
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value=None):  # no value: called as __delattr__
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = "".join(f", {name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}(pos={self.pos!r}{fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), (*self._values(), self.pos)


class Lit(Node):
    """The rational literal re + im*i."""
    __slots__ = _fields = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction, pos=(1, 1)):
        _put_re(self, re)
        _put_im(self, im)
        _put_pos(self, pos)


class Coord(Node):
    """The coordinate x<k>."""
    __slots__ = _fields = ("k",)

    def __init__(self, k: int, pos=(1, 1)):
        _put_k(self, k)
        _put_pos(self, pos)


class ComplexCoord(Node):
    """a(i,j), or abar(i,j) when conj is true."""
    __slots__ = _fields = ("i", "j", "conj")

    def __init__(self, i: int, j: int, conj: bool, pos=(1, 1)):
        _put_i(self, i)
        _put_j(self, j)
        _put_conj(self, conj)
        _put_pos(self, pos)


class Wave(Node):
    """wave(freqs), with freqs a tuple of floats."""
    __slots__ = _fields = ("freqs",)

    def __init__(self, freqs: tuple[float, ...], pos=(1, 1)):
        _put_freqs(self, freqs)
        _put_pos(self, pos)


class Sum(Node):
    """The terms, each added (sign 1) or subtracted (sign -1) in order."""
    __slots__ = _fields = ("signs", "terms")

    def __init__(self, signs: tuple[int, ...], terms: tuple[Node, ...], pos=(1, 1)):
        _put_signs(self, signs)
        _put_terms(self, terms)
        _put_pos(self, pos)


class Prod(Node):
    __slots__ = _fields = ("factors",)

    def __init__(self, factors: tuple[Node, ...], pos=(1, 1)):
        _put_factors(self, factors)
        _put_pos(self, pos)


class Pow(Node):
    __slots__ = _fields = ("base", "exp")

    def __init__(self, base: Node, exp: int, pos=(1, 1)):
        _put_base(self, base)
        _put_exp(self, exp)
        _put_pos(self, pos)


# The setters of the nodes' slots, through which each __init__ fills them:
# they pass over Node.__setattr__ and cost less than object.__setattr__.
_put_pos = Node.pos.__set__
_put_re, _put_im = Lit.re.__set__, Lit.im.__set__
_put_k = Coord.k.__set__
_put_i, _put_j, _put_conj = ComplexCoord.i.__set__, ComplexCoord.j.__set__, ComplexCoord.conj.__set__
_put_freqs = Wave.freqs.__set__
_put_signs, _put_terms = Sum.signs.__set__, Sum.terms.__set__
_put_factors = Prod.factors.__set__
_put_base, _put_exp = Pow.base.__set__, Pow.exp.__set__


# -- tokenizer ---------------------------------------------------------------

# One match per token, with the whitespace before it.  A character that
# starts no token matches with the rest of the text, so the last match is
# the only one that can hold it.  Digits are ASCII only, so a number from
# another script is an unexpected character.
_TOKEN_RE = re.compile(r"""
    \s*
    (?: [-+*^(),]
    | [0-9]+ (?: /[0-9]+ (?:i\b)?                 # p/q or p/qi
               | i\b                              # pi
               | \.[0-9]* (?:[eE][+-]?[0-9]+)?    # float
               | [eE][+-]?[0-9]+ )?               # float
    | \. (?: [0-9]+ (?:[eE][+-]?[0-9]+)? )?       # float, or a lone '.'
    | [A-Za-z_][A-Za-z_0-9]*
    | \S.* )                                      # no token: the rest of the text
""", re.VERBOSE | re.DOTALL)

# A token's kind is that of its first character ("" for the eof token); a
# number ending in 'i' is "imag" and one holding '.', 'e' or 'E' "float".
_KIND_OF_FIRST = {"": "eof", **dict.fromkeys("-+*^(),", "op"),
                  **dict.fromkeys("0123456789.", "number"),
                  **dict.fromkeys(string.ascii_letters + "_", "name")}
_FLOAT_MARKS = frozenset(".eE")


def _lex(text: str) -> tuple[list[str], list[int]]:
    """text's tokens as two columns, their texts and the 0-based offsets
    where they end, then an "eof" token ("") at len(text); a token starts at
    its end less its length.  A character that starts no token raises at
    its offset."""
    matches = _TOKEN_RE.findall(text)
    if matches and (last := matches[-1].lstrip())[0] not in _KIND_OF_FIRST:
        raise ExprError(f"unexpected character {last[0]!r}",  # last runs to the end
                        *_line_col(_line_starts(text), len(text) - len(last)))
    return [*map(str.lstrip, matches), ""], [*accumulate(map(len, matches)), len(text)]


def _line_starts(text: str) -> list[int]:
    """The offset of the first character of each line of text."""
    return [0, *(m.end() for m in re.finditer("\n", text))]


def _line_col(line_starts: list[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column of an offset."""
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


# -- parser ------------------------------------------------------------------

# The deepest nesting of parentheses an expression may have.  Parsing
# recurses three frames per level, and lowering, printing and comparing
# trees recurse per node, with up to a Sum, a Prod and a Pow per level (a
# tree comparison takes about ten frames per level); 50 levels keep every
# stage far below Python's default recursion limit of 1000.
MAX_DEPTH = 50

_ZERO = Fraction(0)
_SIGNS = {"+": 1, "-": -1}


class _Parser:
    """Recursive descent over _lex's columns, token by index.  An op token is
    known by its text alone, any other by its first character, and only '('
    recurses."""

    def __init__(self, text: str, n: int):
        self.texts, self.ends = _lex(text)
        self.line_starts = _line_starts(text) if "\n" in text else None
        self.n = n
        self.idx = self.depth = 0  # depth: parentheses open around the current token
        # each distinct number text is read once, as a literal (a Fraction)
        # and as a wave component (a float)
        self.rationals, self.reals = {}, {}

    def pos(self, i: int) -> tuple[int, int]:
        """The 1-based (line, col) of token i."""
        if self.line_starts is None:
            return 1, self.ends[i] - len(self.texts[i]) + 1
        return _line_col(self.line_starts, self.ends[i] - len(self.texts[i]))

    def error(self, message: str, i: int):
        raise ExprError(message, *self.pos(i))

    def expect(self, op: str) -> None:
        if self.texts[self.idx] != op:
            self.error(f"expected {op!r}", self.idx)
        self.idx += 1

    def parse(self) -> Node:
        node = self.expr()
        if self.texts[self.idx]:  # not the eof token
            self.error(f"unexpected trailing input {self.texts[self.idx]!r}", self.idx)
        return node

    def expr(self) -> Node:
        """'-'? term (('+'|'-') term)*"""
        texts = self.texts
        start = self.idx
        signs = [1]
        if texts[start] == "-":
            self.idx += 1
            signs = [-1]
        terms = [self.term()]
        while sign := _SIGNS.get(texts[self.idx]):
            self.idx += 1
            signs.append(sign)
            terms.append(self.term())
        if len(terms) == 1 and signs[0] == 1:
            return terms[0]
        return Sum(tuple(signs), tuple(terms), self.pos(start))

    def term(self) -> Node:
        """factor ('*' factor)*, where factor := atom ('^' uint)?"""
        texts = self.texts
        start = self.idx
        factors = []
        while True:
            node = self.atom()
            if texts[self.idx] == "^":
                self.idx += 1
                node = Pow(node, self.uint("a non-negative integer exponent"), node.pos)
            factors.append(node)
            if texts[self.idx] != "*":
                break
            self.idx += 1
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors), self.pos(start))

    def atom(self) -> Node:
        i = self.idx
        self.idx = i + 1
        text = self.texts[i]
        kind = _KIND_OF_FIRST[text[:1]]
        if kind == "number":
            if text[-1] == "i":
                return Lit(_ZERO, self.rational(i, text[:-1]), self.pos(i))
            if _FLOAT_MARKS.isdisjoint(text):
                return Lit(self.rational(i, text), _ZERO, self.pos(i))
            self.error("float literals are only allowed inside wave(...)", i)
        if kind == "name":
            return self.named(i)
        if text == "(":
            if self.depth == MAX_DEPTH:
                self.error(f"more than {MAX_DEPTH} nested parentheses", i)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            return inner
        self.error(f"expected an atom, found {text!r}" if kind != "eof"
                   else "unexpected end of input", i)

    def named(self, i: int) -> Node:
        """The atom that starts with the name token i, already read."""
        name = self.texts[i]
        if name == "wave":
            self.expect("(")
            freqs = [self.real()]
            while self.texts[self.idx] == ",":
                self.idx += 1
                freqs.append(self.real())
            self.expect(")")
            if len(freqs) != self.n:
                self.error(f"wave arity {len(freqs)} does not match dimension {self.n}", i)
            return Wave(tuple(freqs), self.pos(i))
        if name[0] == "x" and name[1:].isdigit():  # names are ASCII
            k = self.integer(i, name[1:])
            if not 1 <= k <= self.n:
                self.error(f"coordinate index {k} out of range 1..{self.n}", i)
            return Coord(k, self.pos(i))
        if name in ("a", "abar"):
            self.expect("(")
            a = self.uint("a coordinate index")
            self.expect(",")
            b = self.uint("a coordinate index")
            self.expect(")")
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                self.error(f"coordinate index out of range 1..{self.n}", i)
            if a == b:
                self.error("complex coordinate requires distinct indices", i)
            return ComplexCoord(a, b, name == "abar", self.pos(i))
        self.error(f"unknown symbol {name!r}", i)

    def uint(self, what: str) -> int:
        i = self.idx
        if not self.texts[i].isdigit():  # a number of ASCII digits alone: no '/', '.', 'e' or 'i'
            self.error(f"expected {what}", i)
        self.idx += 1
        return self.integer(i, self.texts[i])

    def integer(self, i: int, digits: str) -> int:
        """The int of the ASCII digits `digits`, read from token i.  This is
        the one place the parser converts digits, so a number longer than
        Python converts (``sys.get_int_max_str_digits``) is an error at
        its token."""
        try:
            return int(digits)
        except ValueError:
            self.error(f"integer with more than {sys.get_int_max_str_digits()} digits", i)

    def rational(self, i: int, text: str) -> Fraction:
        """The rational p or p/q in text, read from token i."""
        value = self.rationals.get(text)
        if value is None:
            num, _, den = text.partition("/")
            p, q = self.integer(i, num), self.integer(i, den) if den else 1
            if not q:
                self.error(f"zero denominator in {text!r}", i)
            value = self.rationals[text] = Fraction(p, q)
        return value

    def real(self) -> float:
        """'-'? number, a wave component: an integer, p/q or a float."""
        i = self.idx
        sign = 1.0
        if self.texts[i] == "-":
            i += 1
            sign = -1.0
        self.idx = i + 1
        text = self.texts[i]
        value = self.reals.get(text)
        if value is None:
            # a lone '.' lexes as a float, but no float reads it
            if _KIND_OF_FIRST[text[:1]] != "number" or text[-1] == "i" or text == ".":
                self.error("expected frequency component", i)
            # an integer needs no Fraction: float(int) rounds as float(Fraction) does
            try:
                value = float(text if not _FLOAT_MARKS.isdisjoint(text) else
                              self.rational(i, text) if "/" in text else self.integer(i, text))
            except OverflowError:  # an int or Fraction past the float range
                value = math.inf
            if value == math.inf:  # a float literal past the range rounds to inf
                self.error("frequency component out of float range", i)
            self.reals[text] = value
        return sign * value


def parse_expression(text: str, n: int) -> Node:
    """Parse an expression for dimension n, with positioned diagnostics."""
    if not text.strip():
        raise ExprError("empty expression", 1, 1)
    return _Parser(text, n).parse()


# -- printer -----------------------------------------------------------------

def to_text(node: Node) -> str:
    """Parseable canonical text; parse(to_text(t)) == t for parser output.
    A parent wraps a child in parentheses where its grouping needs them: a
    Sum in a Sum, Prod or Pow, a Prod in a Prod or Pow, a Pow in a Pow."""
    if isinstance(node, Lit):
        return f"{node.im}i" if node.im else str(node.re)
    if isinstance(node, Coord):
        return f"x{node.k}"
    if isinstance(node, ComplexCoord):
        return f"{'abar' if node.conj else 'a'}({node.i},{node.j})"
    if isinstance(node, Wave):
        return "wave(" + ",".join(map(repr, node.freqs)) + ")"
    if isinstance(node, Pow):
        return f"{_grouped(node.base, (Sum, Prod, Pow))}^{node.exp}"
    if isinstance(node, Prod):  # nested products keep their grouping
        return "*".join(_grouped(f, (Sum, Prod)) for f in node.factors)
    if isinstance(node, Sum):
        text = "".join((" - " if sign < 0 else " + ") + _grouped(term, Sum)
                       for sign, term in zip(node.signs, node.terms))
        return ("-" if node.signs[0] < 0 else "") + text[3:]
    raise TypeError(f"unknown node {node!r}")


def _grouped(node: Node, kinds) -> str:
    """node's text, in parentheses when node is one of kinds."""
    return f"({to_text(node)})" if isinstance(node, kinds) else to_text(node)


# -- lowering ----------------------------------------------------------------

def contains_wave(node: Node) -> bool:
    if isinstance(node, (Sum, Prod)):
        return any(map(contains_wave, node.terms if isinstance(node, Sum) else node.factors))
    return isinstance(node, Wave) or isinstance(node, Pow) and contains_wave(node.base)


def lower_poly(node: Node, n: int) -> Polynomial:
    """Lower to an exact Polynomial; wave atoms are rejected."""
    if isinstance(node, Lit):
        return Polynomial.constant(ExactComplex(node.re, node.im), n)
    if isinstance(node, Coord):
        if node.k > n:
            raise ExprError(f"coordinate index {node.k} out of range 1..{n}", *node.pos)
        return Polynomial.coordinate(node.k, n)
    if isinstance(node, ComplexCoord):
        if node.i > n or node.j > n:
            raise ExprError(f"coordinate index out of range 1..{n}", *node.pos)
        a, abar = complex_pair(node.i, node.j, n)
        return abar if node.conj else a
    if isinstance(node, Wave):
        raise ExprError("wave atoms cannot appear in a polynomial expression", *node.pos)
    if isinstance(node, Sum):
        return reduce(operator.add, (lower_poly(t, n) if s > 0 else -lower_poly(t, n)
                                     for s, t in zip(node.signs, node.terms)))
    if isinstance(node, Prod):
        return reduce(operator.mul, (lower_poly(f, n) for f in node.factors))
    if isinstance(node, Pow):
        return lower_poly(node.base, n) ** node.exp
    raise TypeError(f"unknown node {node!r}")


def lower_wave(node: Node, n: int) -> WaveSum:
    """Lower to a WaveSum; coordinate atoms are rejected.

    Each node lowers to its merged (coeff, freq) terms, exactly those of a
    WaveSum built at every node: a product or a power merges the products
    of its operands' terms, and a Sum merges its signed terms where it is
    built (merge_terms).  A subtree without waves folds to the one
    coefficient its merged frequency-0 term would have, by the same float
    operations in the same order.  The top node's terms are wrapped as
    they are, with no second merge.

    Constants fold in float arithmetic node by node, not exactly, so a
    power is repeated float multiplication: 10^200 lowers to
    1.0000000000000003e+200 and (1/3)^5 to 0.004115226337448559, where the
    correctly rounded values are 1e+200 and 0.00411522633744856.
    """
    terms = _wave_terms(node, n)
    if type(terms) is complex:
        terms = ((terms, (0.0,) * n),) if terms else ()
    return WaveSum._canonical(n, terms)


def _wave_terms(node: Node, n: int):
    """node's value: a complex for a subtree without waves (its merged
    frequency-0 coefficient, 0 for no term), else its merged terms as a
    tuple."""
    kind = type(node)
    if kind is Lit:
        try:  # p / q is float(Fraction(p, q)), bit for bit
            if node.im:
                return complex(0, node.im.numerator / node.im.denominator)
            return complex(node.re.numerator / node.re.denominator, 0)
        except OverflowError:
            raise ExprError("literal out of float range in a wave expression", *node.pos) from None
    if kind is Prod:  # the running product, factor by factor
        total = 1.0 + 0j
        for f in node.factors:
            total = _times(total, _wave_terms(f, n), n)
        return total
    if kind is Sum:
        terms = []
        has_waves = False
        for sign, term in zip(node.signs, node.terms):
            part = _wave_terms(term, n)
            if type(part) is not complex:
                has_waves = True
                terms += part if sign > 0 else [(c * -1.0, f) for c, f in part]
            elif part:
                terms.append(part if sign > 0 else part * -1.0)
        if has_waves:
            return merge_terms(n, [(c, (0.0,) * n) if type(c) is complex else c for c in terms])
        return _constant(reduce(operator.add, terms) if terms else 0j, n)
    if kind is Wave:
        if len(node.freqs) != n:
            raise ExprError(f"wave arity {len(node.freqs)} does not match dimension {n}", *node.pos)
        # the frequency has a merge key when its largest component has one
        if not math.isfinite(max(map(abs, node.freqs)) / MERGE_TOL):
            raise _freq_range_error(node.freqs)
        return ((1.0 + 0j, node.freqs),)
    if kind is Pow:
        base = _wave_terms(node.base, n)
        return reduce(lambda total, b: _times(total, b, n), repeat(base, node.exp), 1.0 + 0j)
    if kind is Coord or kind is ComplexCoord:
        raise ExprError("coordinate atoms cannot appear in a wave expression", *node.pos)
    raise TypeError(f"unknown node {node!r}")


def _constant(coeff: complex, n: int) -> complex:
    """coeff as a merged frequency-0 coefficient: 0 stands for no term,
    and a non-finite one raises as merge_terms does."""
    if coeff and not cmath.isfinite(coeff):
        raise _coeff_overflow_error(coeff, (0.0,) * n)
    return coeff


def _times(a, b, n: int):
    """The merged product of two values of _wave_terms: each pair of terms
    multiplied, frequencies added, then merged."""
    if type(b) is complex:  # complex products and 0.0 + v commute bit for bit
        a, b = b, a
    if type(a) is complex:
        if type(b) is complex:
            return _constant(a * b, n)
        # 0.0 + v keeps the merge key of v, so b's terms stay distinct and sorted
        return _nonzero_terms([(a * c, tuple([0.0 + v for v in f])) for c, f in b])
    return merge_terms(n, [(c1 * c2, tuple([u + v for u, v in zip(f1, f2)]))
                           for c1, f1 in a for c2, f2 in b])
