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
"""

from __future__ import annotations

import cmath
import math
import re
import string
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .closedforms import complex_pair
from .polynomials import Polynomial
from .scalars import ExactComplex
from .waves import WaveSum, _coeff_overflow_error, _nonzero_terms, merge_terms


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

# A token's kind is that of its first character; a "number" ending in 'i'
# is "imag", and one with '.', 'e' or 'E' is "float".
_KIND_OF_FIRST = {**dict.fromkeys("-+*^(),", "op"),
                  **dict.fromkeys("0123456789.", "number"),
                  **dict.fromkeys(string.ascii_letters + "_", "name")}
_FLOAT_MARKS = frozenset(".eE")


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_new_token = partial(tuple.__new__, Token)


def tokenize(text: str) -> list[Token]:
    """text's tokens, each with its 1-based line and column (a tab is one
    column), then an "eof" token."""
    tokens: list[Token] = []
    append = tokens.append
    offset = 0
    for space, tok in _TOKEN_RE.findall(text):
        offset += len(space)
        kind = _KIND_OF_FIRST.get(tok[0])
        if kind == "number":
            if tok[-1] == "i":
                kind = "imag"
            elif not _FLOAT_MARKS.isdisjoint(tok):
                kind = "float"
        elif kind is None:
            raise ExprError(f"unexpected character {tok!r}", *_line_col(_line_starts(text), offset))
        append(_new_token((kind, tok, 1, offset + 1)))
        offset += len(tok)
    append(_new_token(("eof", "", 1, len(text) + 1)))
    if "\n" in text:  # so far every column is the offset + 1, on line 1
        starts = _line_starts(text)
        tokens = [_new_token((kind, tok, *_line_col(starts, col - 1)))
                  for kind, tok, _, col in tokens]
    return tokens


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
    """Recursive descent over tokenize's list.  An op token is known by its
    text alone, and only '(' recurses."""

    def __init__(self, text: str, n: int):
        self.tokens = tokenize(text)
        self.n = n
        self.idx = 0
        self.depth = 0  # parentheses open around the current token
        self.rationals: dict[str, Fraction] = {}  # each distinct text is read once

    def error(self, message: str, tok: Token):
        raise ExprError(message, tok.line, tok.col)

    def expect(self, op: str) -> None:
        tok = self.tokens[self.idx]
        if tok.text != op:
            self.error(f"expected {op!r}", tok)
        self.idx += 1

    def parse(self) -> Node:
        node = self.expr()
        tok = self.tokens[self.idx]
        if tok.kind != "eof":
            self.error(f"unexpected trailing input {tok.text!r}", tok)
        return node

    def expr(self) -> Node:
        """'-'? term (('+'|'-') term)*"""
        tokens = self.tokens
        tok = tokens[self.idx]
        if tok.text == "-":
            self.idx += 1
            signs = [-1]
        else:
            signs = [1]
        terms = [self.term()]
        while sign := _SIGNS.get(tokens[self.idx].text):
            self.idx += 1
            signs.append(sign)
            terms.append(self.term())
        if len(terms) == 1 and signs[0] == 1:
            return terms[0]
        return Sum(tuple(signs), tuple(terms), pos=(tok.line, tok.col))

    def term(self) -> Node:
        """factor ('*' factor)*, where factor := atom ('^' uint)?"""
        tokens = self.tokens
        first = tokens[self.idx]
        factors = []
        while True:
            node = self.atom()
            if tokens[self.idx].text == "^":
                self.idx += 1
                node = Pow(node, self.uint("a non-negative integer exponent"), pos=node.pos)
            factors.append(node)
            if tokens[self.idx].text != "*":
                break
            self.idx += 1
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors), pos=(first.line, first.col))

    def atom(self) -> Node:
        tok = self.tokens[self.idx]
        self.idx += 1
        kind, text, line, col = tok
        if kind == "number":
            return Lit(self.rational(tok, text), _ZERO, pos=(line, col))
        if kind == "imag":
            return Lit(_ZERO, self.rational(tok, text[:-1]), pos=(line, col))
        if kind == "name":
            return self.named(tok)
        if text == "(":
            if self.depth == MAX_DEPTH:
                self.error(f"more than {MAX_DEPTH} nested parentheses", tok)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            return inner
        if kind == "float":
            self.error("float literals are only allowed inside wave(...)", tok)
        self.error(f"expected an atom, found {text!r}" if kind != "eof"
                   else "unexpected end of input", tok)

    def named(self, tok: Token) -> Node:
        """The atom that starts with the name token tok, already read."""
        name, pos = tok.text, (tok.line, tok.col)
        if name == "wave":
            self.expect("(")
            freqs = [self.real("frequency component")]
            while self.tokens[self.idx].text == ",":
                self.idx += 1
                freqs.append(self.real("frequency component"))
            self.expect(")")
            if len(freqs) != self.n:
                self.error(f"wave arity {len(freqs)} does not match dimension {self.n}", tok)
            return Wave(tuple(freqs), pos=pos)
        if name[0] == "x" and name[1:].isdigit():  # names are ASCII
            k = self.integer(tok, name[1:])
            if not 1 <= k <= self.n:
                self.error(f"coordinate index {k} out of range 1..{self.n}", tok)
            return Coord(k, pos=pos)
        if name in ("a", "abar"):
            self.expect("(")
            i = self.uint("a coordinate index")
            self.expect(",")
            j = self.uint("a coordinate index")
            self.expect(")")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                self.error(f"coordinate index out of range 1..{self.n}", tok)
            if i == j:
                self.error("complex coordinate requires distinct indices", tok)
            return ComplexCoord(i, j, name == "abar", pos=pos)
        self.error(f"unknown symbol {name!r}", tok)

    def uint(self, what: str) -> int:
        tok = self.tokens[self.idx]
        if tok.kind != "number" or "/" in tok.text:
            self.error(f"expected {what}", tok)
        self.idx += 1
        return self.integer(tok, tok.text)

    def integer(self, tok: Token, digits: str) -> int:
        """The int of the ASCII digits `digits`, read from tok.  This is
        the one place the parser converts digits, so a number longer than
        Python converts (``sys.get_int_max_str_digits``) is an error at
        its token."""
        try:
            return int(digits)
        except ValueError:
            self.error(f"integer with more than {sys.get_int_max_str_digits()} digits", tok)

    def rational(self, tok: Token, text: str) -> Fraction:
        """The rational p or p/q in text, read from tok."""
        value = self.rationals.get(text)
        if value is None:
            num, _, den = text.partition("/")
            p, q = self.integer(tok, num), self.integer(tok, den) if den else 1
            if not q:
                self.error(f"zero denominator in {text!r}", tok)
            value = self.rationals[text] = Fraction(p, q)
        return value

    def real(self, what: str) -> float:
        tok = self.tokens[self.idx]
        sign = 1.0
        if tok.text == "-":
            self.idx += 1
            sign = -1.0
            tok = self.tokens[self.idx]
        kind, text = tok.kind, tok.text
        if kind not in ("number", "float"):
            self.error(f"expected {what}", tok)
        self.idx += 1
        # an integer needs no Fraction: float(int) rounds as float(Fraction) does
        try:
            value = float(text if kind == "float" else
                          self.rational(tok, text) if "/" in text else self.integer(tok, text))
        except OverflowError:  # an int or Fraction past the float range
            value = math.inf
        if value == math.inf:  # a float literal past the range rounds to inf
            self.error(f"{what} out of float range", tok)
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
        total = Polynomial.zero(n)
        for sign, term in zip(node.signs, node.terms):
            p = lower_poly(term, n)
            total = total + (p if sign > 0 else -p)
        return total
    if isinstance(node, Prod):
        total = Polynomial.constant(1, n)
        for f in node.factors:
            total = total * lower_poly(f, n)
        return total
    if isinstance(node, Pow):
        return lower_poly(node.base, n) ** node.exp
    raise TypeError(f"unknown node {node!r}")


def lower_wave(node: Node, n: int) -> WaveSum:
    """Lower to a WaveSum; coordinate atoms are rejected.

    The tree lowers to plain (coeff, freq) term lists, and one WaveSum is
    built from the top one.  Its terms are exactly those of a merged
    WaveSum built at every node: each node's list is merged (merge_terms),
    except a Sum's, which is merged where it is used (by a product, a
    power, a minus sign or an enclosing Sum, or at the top by WaveSum).
    A subtree without waves folds to the one coefficient its merged
    frequency-0 term would have, by the same float operations in the same
    order.
    """
    return WaveSum(n, _listed(_wave_terms(node, n), n))


def _wave_terms(node: Node, n: int):
    """node's terms: a complex for a subtree without waves (its merged
    frequency-0 coefficient, 0 for no term); for a Sum with waves, a list of
    its terms' merged terms, negated by sign, one after another; for any
    other node, its merged terms as a tuple."""
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
        return merge_terms(n, [(1.0 + 0j, node.freqs)])
    if isinstance(node, Sum):
        terms = []
        has_waves = False
        for sign, term in zip(node.signs, node.terms):
            part = _merged(_wave_terms(term, n), n)
            if type(part) is complex:
                if part:
                    terms.append(part if sign > 0 else part * -1.0)
            else:
                has_waves = True
                terms.extend(part if sign > 0 else [(c * -1.0, f) for c, f in part])
        if has_waves:
            return [(c, (0.0,) * n) if type(c) is complex else c for c in terms]
        if not terms:
            return 0j
        total = terms[0]
        for c in terms[1:]:
            total += c
        return _constant(total, n)
    if isinstance(node, Prod):
        total = 1.0 + 0j
        for f in node.factors:
            total = _times(total, _merged(_wave_terms(f, n), n), n)
        return total
    if isinstance(node, Pow):
        base = _merged(_wave_terms(node.base, n), n)
        total = 1.0 + 0j
        for _ in range(node.exp):
            total = _times(total, base, n)
        return total
    raise TypeError(f"unknown node {node!r}")


def _merged(terms, n: int):
    """_wave_terms' value for a node, merged where it is a Sum's list."""
    return merge_terms(n, terms) if type(terms) is list else terms


def _listed(terms, n: int):
    """_wave_terms' value as a sequence of (coeff, freq) terms."""
    if type(terms) is not complex:
        return terms
    return [(terms, (0.0,) * n)] if terms else []


def _constant(coeff: complex, n: int) -> complex:
    """coeff as a merged frequency-0 coefficient: 0 stands for no term,
    and a non-finite one raises as merge_terms does."""
    if coeff and not cmath.isfinite(coeff):
        raise _coeff_overflow_error(coeff, (0.0,) * n)
    return coeff


def _times(a, b, n: int):
    """The merged product of two merged values of _wave_terms, as
    WaveSum.__mul__ forms it."""
    if type(a) is complex:
        if type(b) is complex:
            return _constant(a * b, n)
        # 0.0 + v keeps the merge key of v, so b's terms stay distinct and sorted
        return _nonzero_terms([(a * c, tuple([0.0 + v for v in f])) for c, f in b])
    return merge_terms(n, [(c1 * c2, tuple([u + v for u, v in zip(f1, f2)]))
                           for c1, f1 in _listed(a, n) for c2, f2 in _listed(b, n)])
