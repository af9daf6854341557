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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain
from typing import NamedTuple

from .closedforms import complex_pair
from .polynomials import Polynomial
from .scalars import ExactComplex
from .waves import WaveSum, _coeff_overflow_error, _merge_key, _nonzero_terms, merge_terms


class ExprError(ValueError):
    """Parse or lowering error with 1-based position information."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line} col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# -- AST --------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    pos: tuple[int, int] = field(default=(1, 1), compare=False, kw_only=True)


@dataclass(frozen=True)
class Lit(Node):
    re: Fraction
    im: Fraction


@dataclass(frozen=True)
class Coord(Node):
    k: int


@dataclass(frozen=True)
class ComplexCoord(Node):
    i: int
    j: int
    conj: bool


@dataclass(frozen=True)
class Wave(Node):
    freqs: tuple[float, ...]


@dataclass(frozen=True)
class Sum(Node):
    signs: tuple[int, ...]
    terms: tuple[Node, ...]


@dataclass(frozen=True)
class Prod(Node):
    factors: tuple[Node, ...]


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exp: int


# -- tokenizer ---------------------------------------------------------------

# One match per token: the whitespace before it, then the token, or any other
# single character, which tokenize reports as unexpected.  Digits are ASCII
# only, so a number from another script is an unexpected character.
_TOKEN_RE = re.compile(r"""
    (\s*)
    ( [-+*^(),]
    | [0-9]+ (?: /[0-9]+ (?:i\b)?                 # p/q or p/qi
               | i\b                              # pi
               | \.[0-9]* (?:[eE][+-]?[0-9]+)?    # float
               | [eE][+-]?[0-9]+ )?               # float
    | \.[0-9]+ (?:[eE][+-]?[0-9]+)?               # float
    | [A-Za-z_][A-Za-z_0-9]*
    | \S )
""", re.VERBOSE)

# A token's kind is that of its first character; the parser tells a number
# ending in 'i' ("imag") or holding '.', 'e' or 'E' ("float") apart where it
# reads one (_number_kind).
_KIND_OF_FIRST = {**dict.fromkeys("-+*^(),", "op"),
                  **dict.fromkeys("0123456789.", "number"),
                  **dict.fromkeys(string.ascii_letters + "_", "name")}
_FLOAT_MARKS = frozenset(".eE")


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _lex(text: str) -> tuple[list[str], list[str], list[int]]:
    """text's tokens as three columns: their texts, their kinds by first
    character ("op", "number" or "name") and their 0-based start offsets,
    each ending with an "eof" token at len(text).  A character that starts
    no token raises at its offset."""
    first = operator.itemgetter(0)
    matches = _TOKEN_RE.findall(text)
    texts = list(map(operator.itemgetter(1), matches))
    kinds = list(map(_KIND_OF_FIRST.get, map(first, texts)))
    # a token starts after its own whitespace and the previous token
    offsets = list(accumulate(map(operator.add, map(len, map(first, matches)),
                                  chain((0,), map(len, texts)))))
    if None in kinds:
        bad = kinds.index(None)
        raise ExprError(f"unexpected character {texts[bad]!r}",
                        *_line_col(_line_starts(text), offsets[bad]))
    texts.append("")
    kinds.append("eof")
    offsets.append(len(text))
    return texts, kinds, offsets


def _number_kind(tok: str) -> str:
    """The kind of a token whose first character is a digit or '.'."""
    if tok[-1] == "i":
        return "imag"
    return "number" if _FLOAT_MARKS.isdisjoint(tok) else "float"


def tokenize(text: str) -> list[Token]:
    """text's tokens, each with its 1-based line and column (a tab is one
    column), then an "eof" token."""
    texts, kinds, offsets = _lex(text)
    starts = _line_starts(text)
    return [Token(_number_kind(tok) if kind == "number" else kind, tok, *_line_col(starts, offset))
            for tok, kind, offset in zip(texts, kinds, offsets)]


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
    known by its text alone, and only '(' recurses."""

    def __init__(self, text: str, n: int):
        self.texts, self.kinds, self.offsets = _lex(text)
        self.line_starts = _line_starts(text) if "\n" in text else None
        self.n = n
        self.idx = 0
        self.depth = 0  # parentheses open around the current token
        self.rationals: dict[str, Fraction] = {}  # each distinct text is read once

    def pos(self, i: int) -> tuple[int, int]:
        """The 1-based (line, col) of token i."""
        if self.line_starts is None:
            return 1, self.offsets[i] + 1
        return _line_col(self.line_starts, self.offsets[i])

    def error(self, message: str, i: int):
        raise ExprError(message, *self.pos(i))

    def expect(self, op: str) -> None:
        if self.texts[self.idx] != op:
            self.error(f"expected {op!r}", self.idx)
        self.idx += 1

    def parse(self) -> Node:
        node = self.expr()
        if self.kinds[self.idx] != "eof":
            self.error(f"unexpected trailing input {self.texts[self.idx]!r}", self.idx)
        return node

    def expr(self) -> Node:
        """'-'? term (('+'|'-') term)*"""
        texts = self.texts
        start = self.idx
        if texts[start] == "-":
            self.idx += 1
            signs = [-1]
        else:
            signs = [1]
        terms = [self.term()]
        while sign := _SIGNS.get(texts[self.idx]):
            self.idx += 1
            signs.append(sign)
            terms.append(self.term())
        if len(terms) == 1 and signs[0] == 1:
            return terms[0]
        return Sum(tuple(signs), tuple(terms), pos=self.pos(start))

    def term(self) -> Node:
        """factor ('*' factor)*, where factor := atom ('^' uint)?"""
        texts = self.texts
        start = self.idx
        factors = []
        while True:
            node = self.atom()
            if texts[self.idx] == "^":
                self.idx += 1
                node = Pow(node, self.uint("a non-negative integer exponent"), pos=node.pos)
            factors.append(node)
            if texts[self.idx] != "*":
                break
            self.idx += 1
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors), pos=self.pos(start))

    def atom(self) -> Node:
        i = self.idx
        self.idx += 1
        kind, text = self.kinds[i], self.texts[i]
        if kind == "number":
            kind = _number_kind(text)
            if kind == "number":
                return Lit(self.rational(i, text), _ZERO, pos=self.pos(i))
            if kind == "imag":
                return Lit(_ZERO, self.rational(i, text[:-1]), pos=self.pos(i))
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
            freqs = [self.real("frequency component")]
            while self.texts[self.idx] == ",":
                self.idx += 1
                freqs.append(self.real("frequency component"))
            self.expect(")")
            if len(freqs) != self.n:
                self.error(f"wave arity {len(freqs)} does not match dimension {self.n}", i)
            return Wave(tuple(freqs), pos=self.pos(i))
        if name[0] == "x" and name[1:].isdigit():  # names are ASCII
            k = self.integer(i, name[1:])
            if not 1 <= k <= self.n:
                self.error(f"coordinate index {k} out of range 1..{self.n}", i)
            return Coord(k, pos=self.pos(i))
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
            return ComplexCoord(a, b, name == "abar", pos=self.pos(i))
        self.error(f"unknown symbol {name!r}", i)

    def uint(self, what: str) -> int:
        i = self.idx
        text = self.texts[i]
        if self.kinds[i] != "number" or not text.isdigit():  # digits alone: no '/', '.', 'e' or 'i'
            self.error(f"expected {what}", i)
        self.idx += 1
        return self.integer(i, text)

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

    def real(self, what: str) -> float:
        i = self.idx
        sign = 1.0
        if self.texts[i] == "-":
            i += 1
            sign = -1.0
        text = self.texts[i]
        kind = _number_kind(text) if self.kinds[i] == "number" else None
        # a lone '.' lexes as a float, but no float reads it
        if kind not in ("number", "float") or text == ".":
            self.error(f"expected {what}", i)
        self.idx = i + 1
        # an integer needs no Fraction: float(int) rounds as float(Fraction) does
        try:
            value = float(text if kind == "float" else
                          self.rational(i, text) if "/" in text else self.integer(i, text))
        except OverflowError:  # an int or Fraction past the float range
            value = math.inf
        if value == math.inf:  # a float literal past the range rounds to inf
            self.error(f"{what} out of float range", i)
        return sign * value


def parse_expression(text: str, n: int) -> Node:
    """Parse an expression for dimension n, with positioned diagnostics."""
    if not text.strip():
        raise ExprError("empty expression", 1, 1)
    return _Parser(text, n).parse()


# -- printer -----------------------------------------------------------------

def to_text(node: Node) -> str:
    """Parseable canonical text; parse(to_text(t)) == t for parser output."""
    return _print(node)


def _print(node: Node) -> str:
    """The text of node; a parent wraps a child in parentheses where its
    grouping needs them (a Sum in a Sum, Prod or Pow, a Prod in a Prod or
    Pow, a Pow in a Pow)."""
    if isinstance(node, Lit):
        return f"{node.im}i" if node.im else str(node.re)
    if isinstance(node, Coord):
        return f"x{node.k}"
    if isinstance(node, ComplexCoord):
        name = "abar" if node.conj else "a"
        return f"{name}({node.i},{node.j})"
    if isinstance(node, Wave):
        return "wave(" + ",".join(map(repr, node.freqs)) + ")"
    if isinstance(node, Pow):
        base = _print(node.base)
        if isinstance(node.base, (Sum, Prod, Pow)):
            base = f"({base})"
        return f"{base}^{node.exp}"
    if isinstance(node, Prod):
        parts = []
        for f in node.factors:
            body = _print(f)
            if isinstance(f, (Sum, Prod)):  # nested products keep their grouping
                body = f"({body})"
            parts.append(body)
        return "*".join(parts)
    if isinstance(node, Sum):
        parts = []
        for idx, (sign, term) in enumerate(zip(node.signs, node.terms)):
            body = _print(term)
            if isinstance(term, Sum):
                body = f"({body})"
            if idx == 0:
                parts.append(f"-{body}" if sign < 0 else body)
            else:
                parts.append(f" - {body}" if sign < 0 else f" + {body}")
        return "".join(parts)
    raise TypeError(f"unknown node {node!r}")


# -- lowering ----------------------------------------------------------------

def contains_wave(node: Node) -> bool:
    if isinstance(node, Wave):
        return True
    if isinstance(node, Sum):
        return any(contains_wave(t) for t in node.terms)
    if isinstance(node, Prod):
        return any(contains_wave(f) for f in node.factors)
    if isinstance(node, Pow):
        return contains_wave(node.base)
    return False


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
    if isinstance(node, Lit):
        try:
            return complex(0, float(node.im)) if node.im else complex(float(node.re), 0)
        except OverflowError:
            raise ExprError("literal out of float range in a wave expression", *node.pos) from None
    if isinstance(node, (Coord, ComplexCoord)):
        raise ExprError("coordinate atoms cannot appear in a wave expression", *node.pos)
    if isinstance(node, Wave):
        if len(node.freqs) != n:
            raise ExprError(f"wave arity {len(node.freqs)} does not match dimension {n}", *node.pos)
        return ((1.0 + 0j, _merge_key(n, node.freqs)[0]),)
    if isinstance(node, Sum):
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
    if isinstance(node, Prod):
        total = 1.0 + 0j
        for f in node.factors:
            total = _times(total, _wave_terms(f, n), n)
        return total
    if isinstance(node, Pow):
        base = _wave_terms(node.base, n)
        total = 1.0 + 0j
        for _ in range(node.exp):
            total = _times(total, base, n)
        return total
    raise TypeError(f"unknown node {node!r}")


def _constant(coeff: complex, n: int) -> complex:
    """coeff as a merged frequency-0 coefficient: 0 stands for no term,
    and a non-finite one raises as merge_terms does."""
    if coeff and not cmath.isfinite(coeff):
        raise _coeff_overflow_error(coeff, (0.0,) * n)
    return coeff


def _times(a, b, n: int):
    """The merged product of two values of _wave_terms, as WaveSum.__mul__
    forms it."""
    if type(b) is complex:  # complex products and 0.0 + v commute bit for bit
        a, b = b, a
    if type(a) is complex:
        if type(b) is complex:
            return _constant(a * b, n)
        # 0.0 + v keeps the merge key of v, so b's terms stay distinct and sorted
        return _nonzero_terms([(a * c, tuple([0.0 + v for v in f])) for c, f in b])
    return merge_terms(n, [(c1 * c2, tuple([u + v for u, v in zip(f1, f2)]))
                           for c1, f1 in a for c2, f2 in b])
