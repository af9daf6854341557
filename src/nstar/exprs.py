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
polynomials stay parseable.

Parsed trees round-trip through the printer: parse(print(tree)) == tree.
Polynomial expressions lower to exact Polynomial values; wave atoms
lower to WaveSum; mixing the two classes in one expression is rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .closedforms import complex_pair
from .polynomials import Polynomial
from .scalars import ExactComplex
from .waves import WaveSum, merge_terms


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

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<imag>\d+(?:/\d+)?i\b)
  | (?P<float>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*^(),])
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # the offset pos is in column pos - line_start + 1
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:  # text[pos] starts no token
            break
        kind = m.lastgroup
        pos = m.end()
        if kind != "ws":
            tokens.append(Token(kind, m.group(), line, start - line_start + 1))
        elif newlines := text.count("\n", start, pos):
            line += newlines
            line_start = text.rfind("\n", start, pos) + 1
    if pos != len(text):
        raise ExprError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


# -- parser ------------------------------------------------------------------

_ZERO = Fraction(0)


class _Parser:
    def __init__(self, text: str, n: int):
        self.tokens = tokenize(text)
        self.n = n
        self.idx = 0

    def peek(self) -> Token:
        return self.tokens[self.idx]

    def advance(self) -> Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ExprError(message, tok.line, tok.col)

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            self.error(f"expected {op!r}", tok)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            self.error(f"unexpected trailing input {tok.text!r}", tok)
        return node

    def expr(self) -> Node:
        signs = []
        terms = []
        tok = self.peek()
        start = (tok.line, tok.col)
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            signs.append(-1)
        else:
            signs.append(1)
        terms.append(self.term())
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                signs.append(1 if tok.text == "+" else -1)
                terms.append(self.term())
            else:
                break
        if len(terms) == 1 and signs[0] == 1:
            return terms[0]
        return Sum(tuple(signs), tuple(terms), pos=start)

    def term(self) -> Node:
        tok = self.peek()
        start = (tok.line, tok.col)
        factors = [self.factor()]
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                factors.append(self.factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors), pos=start)

    def factor(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            etok = self.peek()
            if etok.kind != "number" or "/" in etok.text:
                self.error("expected a non-negative integer exponent", etok)
            self.advance()
            return Pow(base, int(etok.text), pos=base.pos)
        return base

    def uint(self, what: str) -> int:
        tok = self.peek()
        if tok.kind != "number" or "/" in tok.text:
            self.error(f"expected {what}", tok)
        self.advance()
        return int(tok.text)

    def atom(self) -> Node:
        tok = self.peek()
        start = (tok.line, tok.col)
        if tok.kind == "imag":
            self.advance()
            return Lit(_ZERO, self.rational(tok, tok.text[:-1]), pos=start)
        if tok.kind == "number":
            self.advance()
            return Lit(self.rational(tok, tok.text), _ZERO, pos=start)
        if tok.kind == "float":
            self.error("float literals are only allowed inside wave(...)", tok)
        if tok.kind == "name":
            name = tok.text
            if re.fullmatch(r"x\d+", name):
                self.advance()
                k = int(name[1:])
                if not 1 <= k <= self.n:
                    self.error(f"coordinate index {k} out of range 1..{self.n}", tok)
                return Coord(k, pos=start)
            if name in ("a", "abar"):
                self.advance()
                self.expect_op("(")
                i = self.uint("a coordinate index")
                self.expect_op(",")
                j = self.uint("a coordinate index")
                closing = self.expect_op(")")
                if not (1 <= i <= self.n and 1 <= j <= self.n):
                    self.error(f"coordinate index out of range 1..{self.n}", tok)
                if i == j:
                    self.error("complex coordinate requires distinct indices", tok)
                return ComplexCoord(i, j, name == "abar", pos=start)
            if name == "wave":
                self.advance()
                self.expect_op("(")
                freqs = [self.real("frequency component")]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.advance()
                    freqs.append(self.real("frequency component"))
                self.expect_op(")")
                if len(freqs) != self.n:
                    self.error(f"wave arity {len(freqs)} does not match dimension {self.n}", tok)
                return Wave(tuple(freqs), pos=start)
            self.error(f"unknown symbol {name!r}", tok)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        self.error(f"expected an atom, found {tok.text!r}" if tok.kind != "eof"
                   else "unexpected end of input", tok)

    def rational(self, tok: Token, text: str) -> Fraction:
        """The rational p or p/q in text, read from tok."""
        num, _, den = text.partition("/")
        if not den:
            return Fraction(int(num))
        if not int(den):
            self.error(f"zero denominator in {text!r}", tok)
        return Fraction(int(num), int(den))

    def real(self, what: str) -> float:
        sign = 1.0
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1.0
            tok = self.peek()
        if tok.kind not in ("float", "number"):
            self.error(f"expected {what}", tok)
        self.advance()
        if tok.kind == "float":
            return sign * float(tok.text)
        # an integer needs no Fraction: float(int) rounds as float(Fraction) does
        try:
            return sign * float(self.rational(tok, tok.text) if "/" in tok.text else int(tok.text))
        except OverflowError:
            self.error(f"{what} out of float range", tok)


def parse_expression(text: str, n: int) -> Node:
    """Parse an expression for dimension n, with positioned diagnostics."""
    if not text.strip():
        raise ExprError("empty expression", 1, 1)
    return _Parser(text, n).parse()


# -- printer -----------------------------------------------------------------

def to_text(node: Node) -> str:
    """Parseable canonical text; parse(to_text(t)) == t for parser output."""
    return _print(node, parent="expr")


def _print(node: Node, parent: str) -> str:
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
        base = _print(node.base, parent="atom")
        if isinstance(node.base, (Sum, Prod, Pow)):
            base = f"({base})"
        return f"{base}^{node.exp}"
    if isinstance(node, Prod):
        parts = []
        for f in node.factors:
            body = _print(f, parent="factor")
            if isinstance(f, (Sum, Prod)):  # nested products keep their grouping
                body = f"({body})"
            parts.append(body)
        text = "*".join(parts)
        return text
    if isinstance(node, Sum):
        parts = []
        for idx, (sign, term) in enumerate(zip(node.signs, node.terms)):
            body = _print(term, parent="term")
            if isinstance(term, Sum):
                body = f"({body})"
            if idx == 0:
                parts.append(f"-{body}" if sign < 0 else body)
            else:
                parts.append(f" - {body}" if sign < 0 else f" + {body}")
        text = "".join(parts)
        if parent in ("factor", "atom"):
            return f"({text})"
        return text
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
    """
    return WaveSum(n, _wave_terms(node, n))


def _wave_terms(node: Node, n: int):
    """node's terms: merged, except a Sum's, which are its terms' merged
    terms, negated by sign, one after another."""
    if isinstance(node, Lit):
        try:
            coeff = complex(0, float(node.im)) if node.im else complex(float(node.re), 0)
        except OverflowError:
            raise ExprError("literal out of float range in a wave expression", *node.pos) from None
        return [(coeff, (0.0,) * n)] if coeff else []
    if isinstance(node, (Coord, ComplexCoord)):
        raise ExprError("coordinate atoms cannot appear in a wave expression", *node.pos)
    if isinstance(node, Wave):
        if len(node.freqs) != n:
            raise ExprError(f"wave arity {len(node.freqs)} does not match dimension {n}", *node.pos)
        return merge_terms(n, [(1.0 + 0j, node.freqs)])
    if isinstance(node, Sum):
        terms = []
        for sign, term in zip(node.signs, node.terms):
            part = _merged_terms(term, n)
            terms.extend(part if sign > 0 else [(c * -1.0, f) for c, f in part])
        return terms
    if isinstance(node, Prod):
        total = [(1.0 + 0j, (0.0,) * n)]
        for f in node.factors:
            total = _pointwise(total, _merged_terms(f, n), n)
        return total
    if isinstance(node, Pow):
        base = _merged_terms(node.base, n)
        total = [(1.0 + 0j, (0.0,) * n)]
        for _ in range(node.exp):
            total = _pointwise(total, base, n)
        return total
    raise TypeError(f"unknown node {node!r}")


def _merged_terms(node: Node, n: int):
    terms = _wave_terms(node, n)
    return merge_terms(n, terms) if isinstance(node, Sum) else terms


def _pointwise(a, b, n: int) -> tuple:
    """The merged terms of the product of two merged term lists, as
    WaveSum.__mul__ forms them."""
    return merge_terms(n, [(c1 * c2, tuple([u + v for u, v in zip(f1, f2)]))
                           for c1, f1 in a for c2, f2 in b])
