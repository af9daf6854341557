import cmath
import copy
import functools
import itertools
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nstar.closedforms import complex_pair
from nstar.exprs import (
    _KIND_OF_FIRST,
    _TOKEN_RE,
    _Parser,
    _lex,
    MAX_DEPTH,
    ComplexCoord,
    Coord,
    ExprError,
    Lit,
    Node,
    Pow,
    Prod,
    Sum,
    Wave,
    contains_wave,
    lower_poly,
    lower_wave,
    parse_expression,
    to_text,
)
from nstar.polynomials import Polynomial, x
from nstar.scalars import ExactComplex
from nstar import waves
from nstar.waves import WaveSum
from references import add, constant, mul, scale


def test_parse_simple_polynomial():
    tree = parse_expression("x1*x2 + 2*x3^2", 3)
    p = lower_poly(tree, 3)
    assert p == x(1, 3) * x(2, 3) + x(3, 3) ** 2 * 2


def test_parse_complex_coordinate_product():
    tree = parse_expression("a(1,2)*abar(1,2)", 3)
    p = lower_poly(tree, 3)
    assert p == (x(1, 3) ** 2 + x(2, 3) ** 2) * Fraction(1, 2)


def test_parse_rational_and_imag_literals():
    tree = parse_expression("1/2 + 3i - 2/3i", 3)
    p = lower_poly(tree, 3)
    assert p == Polynomial.constant(ExactComplex(Fraction(1, 2), Fraction(3) - Fraction(2, 3)), 3)


def test_parse_unary_minus():
    p = lower_poly(parse_expression("-x1 + x2", 3), 3)
    assert p == -x(1, 3) + x(2, 3)


def test_coordinate_out_of_range():
    with pytest.raises(ExprError) as err:
        parse_expression("x4", 3)
    assert err.value.line == 1
    assert err.value.col == 1


def test_syntax_error_positions():
    with pytest.raises(ExprError) as err:
        parse_expression("x1 + * x2", 3)
    assert err.value.line == 1
    assert err.value.col == 6
    with pytest.raises(ExprError) as err:
        parse_expression("x1 + (x2", 3)
    assert err.value.col == 9
    with pytest.raises(ExprError) as err:
        parse_expression("x1 @ x2", 3)
    assert err.value.col == 4
    with pytest.raises(ExprError):
        parse_expression("", 3)
    with pytest.raises(ExprError):
        parse_expression("x1^1/2", 3)


def test_wave_arity_checked():
    with pytest.raises(ExprError):
        parse_expression("wave(1,2)", 3)
    tree = parse_expression("wave(1,-2.5,3e1)", 3)
    assert isinstance(tree, Wave)
    assert tree.freqs == (1.0, -2.5, 30.0)


def test_float_rejected_outside_wave():
    with pytest.raises(ExprError):
        parse_expression("1.5*x1", 3)


def test_mixing_wave_and_coordinates_rejected():
    tree = parse_expression("x1 + wave(1,0,0)", 3)
    with pytest.raises(ExprError):
        lower_poly(tree, 3)
    with pytest.raises(ExprError):
        lower_wave(tree, 3)


@pytest.mark.parametrize("text, col", [
    ("1" + "0" * 400 + "*wave(1,0,0)", 1),
    ("wave(1,0,0) + 1" + "0" * 400 + "i", 15),
], ids=["real", "imaginary"])
def test_wave_literal_out_of_float_range_is_positioned(text, col):
    tree = parse_expression(text, 3)
    with pytest.raises(ExprError) as err:
        lower_wave(tree, 3)
    assert "out of float range" in err.value.message
    assert (err.value.line, err.value.col) == (1, col)


def test_lower_wave():
    tree = parse_expression("2*wave(1,0,0) + wave(0,1,0)*wave(0,0,1)", 3)
    assert contains_wave(tree)
    w = lower_wave(tree, 3)
    assert w == WaveSum(3, [(2.0, (1.0, 0.0, 0.0)), (1.0, (0.0, 1.0, 1.0))])


def _running_sum_lowering(node, n):
    """Reference: a Sum lowered by adding its terms to a running WaveSum."""
    total = WaveSum(n)
    for sign, term in zip(node.signs, node.terms):
        w = lower_wave(term, n)
        total = add(total, w if sign > 0 else scale(w, -1.0))
    return total


def test_lower_wave_sum_matches_running_merge():
    rng = random.Random("wave-sums")
    for _ in range(40):
        parts = []
        for _ in range(rng.randint(1, 40)):
            a, b = rng.randint(-4, 4), rng.randint(0, 4)
            freq = ",".join(str(rng.randint(-1, 1)) for _ in range(3))
            parts.append(f"{rng.choice('+-')} ({a}/3 {rng.choice('+-')} {b}/5i)*wave({freq})")
        tree = parse_expression(" ".join(parts).lstrip("+ "), 3)
        assert isinstance(tree, Sum)
        got, ref = lower_wave(tree, 3), _running_sum_lowering(tree, 3)
        assert got == ref
        assert [f for _, f in got.terms] == [f for _, f in ref.terms]


def test_lower_wave_sum_after_exact_cancellation():
    # The one place one merge and a running merge can differ: once a key
    # cancels exactly, the running merge drops it and restarts from the next
    # term, while one merge adds that term to +0.0.  The values stay ==.
    tree = parse_expression("wave(1,0,0) - wave(1,0,0) - 1i*wave(1,0,0)", 3)
    got, ref = lower_wave(tree, 3), _running_sum_lowering(tree, 3)
    assert repr(got.terms) == "((-1j, (1.0, 0.0, 0.0)),)"
    assert repr(ref.terms) == "(((-0-1j), (1.0, 0.0, 0.0)),)"
    assert got == ref


def _lexed(text):
    """_lex's columns with the parser's position of each token: one
    (text, end offset, line, col) tuple per token, the eof token ("") last."""
    texts, ends = _lex(text)
    pos = _Parser(text, 3).pos
    return [(tok, end, *pos(i)) for i, (tok, end) in enumerate(zip(texts, ends))]


def test_token_positions_across_lines_and_tabs():
    # a tab is one column; a newline starts the next line at column 1
    assert _lexed("\tx1 *\n\t\tx2^2\n+ 3i") == [
        ("x1", 3, 1, 2), ("*", 5, 1, 5), ("x2", 10, 2, 3), ("^", 11, 2, 5),
        ("2", 12, 2, 6), ("+", 14, 3, 1), ("3i", 17, 3, 3), ("", 17, 3, 5)]
    assert _lexed(" x1 \n ")[-1] == ("", 6, 2, 2)


@pytest.mark.parametrize("text, line, col, message", [
    ("x1 +\n  x2 $ x3", 2, 6, "unexpected character '$'"),
    ("wave(1,\n\t-x,0)", 2, 3, "expected frequency component"),
    ("wave(1, 2)", 1, 1, "wave arity 2 does not match dimension 3"),
])
def test_diagnostic_text_and_position(text, line, col, message):
    with pytest.raises(ExprError) as err:
        parse_expression(text, 3)
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)
    assert str(err.value) == f"line {line} col {col}: {message}"


@pytest.mark.parametrize("text, col, rational", [
    ("1/0*wave(1,0,0)", 1, "1/0"), ("x1 + 2/0i", 6, "2/0"), ("wave(1/0,0,0)", 6, "1/0")])
def test_zero_denominator_is_a_positioned_error(text, col, rational):
    with pytest.raises(ExprError) as err:
        parse_expression(text, 3)
    assert (err.value.line, err.value.col) == (1, col)
    assert err.value.message == f"zero denominator in {rational!r}"


def test_frequency_component_beyond_float_range_is_a_positioned_error():
    huge = "1" + "0" * 400
    for text in (f"wave({huge},0,0)", f"wave(-{huge}/3,0,0)"):
        with pytest.raises(ExprError) as err:
            parse_expression(text, 3)
        assert (err.value.col, err.value.message) == (6 + text.startswith("wave(-"),
                                                      "frequency component out of float range")
    assert parse_expression(f"wave({huge}/{huge},0,0)", 3).freqs == (1.0, 0.0, 0.0)


def test_p_over_q_component_lowers_exactly():
    w = lower_wave(parse_expression("wave(1/3,-2,0.5)", 3), 3)
    (coeff, freq), = w.terms
    assert coeff == 1 and freq == (float(Fraction(1, 3)), -2.0, 0.5)
    assert all(type(v) is float for v in freq)


def _lower_wave_node_by_node(node, n):
    """Reference: the lowering that builds a merged WaveSum at every node."""
    if isinstance(node, Lit):
        if node.im:
            return constant(complex(0, float(node.im)), n)
        return constant(complex(float(node.re), 0), n)
    if isinstance(node, Wave):
        return WaveSum.single(1.0 + 0j, node.freqs)
    if isinstance(node, Sum):
        terms = []
        for sign, term in zip(node.signs, node.terms):
            w = _lower_wave_node_by_node(term, n)
            terms.extend((w if sign > 0 else scale(w, -1.0)).terms)
        return WaveSum(n, terms)
    if isinstance(node, Prod):
        total = constant(1.0 + 0j, n)
        for f in node.factors:
            total = mul(total, _lower_wave_node_by_node(f, n))
        return total
    if isinstance(node, Pow):
        base = _lower_wave_node_by_node(node.base, n)
        total = constant(1.0 + 0j, n)
        for _ in range(node.exp):
            total = mul(total, base)
        return total
    raise TypeError(f"unknown node {node!r}")


def _assert_lowers_as_node_by_node(text, n=3):
    tree = parse_expression(text, n)
    got, ref = lower_wave(tree, n), _lower_wave_node_by_node(tree, n)
    assert got.terms == ref.terms, text
    assert repr(got.terms) == repr(ref.terms), text  # signed zeros too


@pytest.mark.parametrize("text", [
    "(1/2 + 3i)*(wave(1,0,0) - wave(0,1,0))^2",
    # a Sum nested in a Sum merges before the outer sum adds it: 0.1 + (0.2 + 0.3)
    # is 0.6, where (0.1 + 0.2) + 0.3 is 0.6000000000000001
    "1/10*wave(1,0,0) + (1/5*wave(1,0,0) + 3/10*wave(1,0,0)) - (1/5 - 2/9i)*wave(0,1,0)",
    "-(wave(1,0,0) - 1/7*wave(1,0,0))*(wave(0,1,0) + 2i)^3 - (1/3 - 1/5i)*wave(1,0,0)",
    "wave(1.0000000000001,0,0) + wave(1,0,0) - 1/3*wave(0.9999999999999,0,0)",
    "wave(1,0,0) - wave(1,0,0) - 1i*wave(1,0,0)",
    "(wave(1,0,0) - wave(1,0,0))*wave(0,1,0) + 0*wave(0,0,1) + 0i",
    "-(-wave(-0,1,0)) - (0 - 1i)*wave(0,-0,1)",
    "(wave(1,0,0) + 1)^0 + (wave(1,0,-1) - 1/2i)^3*(wave(0,1,0) - wave(0,1,0)*1i)",
    "wave(1,0,0)",
    "2/3i",
    # -(1i) is -0.0 - 1j, so a sum of negated imaginary constants keeps a -0.0
    # real part only when it starts from its first term
    "-1i - 2/3i",
    # constant terms keep their place among a sum's waves at frequency 0:
    # (0.2 + 0.3) + 0.1 is 0.6, (0.1 + 0.2) + 0.3 is 0.6000000000000001
    "1/5 + 3/10 + 1/10*wave(0,0,0)",
    "1/5 + wave(-0,0,0)",
    # a constant on the right of a wave product, next to -0.0 components
    "wave(-0,1,-0)*(1/3 - 2i)",
    "wave(1,-0,0)*2*wave(-0,0,1)*(-1i)",
    # a negated sum of waves
    "-(wave(1,0,0) + 1/3*wave(0,1,0) - wave(1,0,-0))",
    # a power of a sum that mixes constants and waves
    "(1/2 + wave(1,0,0) - 1/3i + wave(-0,0,1))^3",
    # no wave at all
    "(1/3 + 2i)*(1/7 - 1/5i)^2 - 1/9",
])
def test_lower_wave_matches_node_by_node_lowering(text):
    _assert_lowers_as_node_by_node(text)


def _random_wave_text(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            parts = [rng.choice(["-1", "0", "1", "1/3", "-0", "1.0000000000001"]) for _ in range(3)]
            return f"wave({','.join(parts)})"
        return rng.choice(["1/3", "2", "0", "3/7i", "1i"])
    kind = rng.choice(["sum", "prod", "pow"])
    if kind == "sum":
        parts = [_random_wave_text(rng, depth - 1) for _ in range(rng.randint(1, 4))]
        text = (rng.choice(["", "-"]) + parts[0]
                + "".join(f" {rng.choice('+-')} {p}" for p in parts[1:]))
        return f"({text})"
    if kind == "prod":
        return "*".join(_random_wave_text(rng, depth - 1) for _ in range(rng.randint(2, 3)))
    return f"({_random_wave_text(rng, depth - 1)})^{rng.randint(0, 3)}"


def test_lower_wave_matches_node_by_node_lowering_on_random_trees():
    rng = random.Random("flat-lowering")
    for _ in range(300):
        _assert_lowers_as_node_by_node(_random_wave_text(rng, 3))


@settings(deadline=None)  # the ci profile draws 500 examples
@given(st.integers(0, 2**32 - 1))
def test_lower_wave_matches_node_by_node_lowering_hypothesis_seeds(seed):
    _assert_lowers_as_node_by_node(_random_wave_text(random.Random(seed), 3))


def test_round_trip_examples():
    for text in ("x1*x2 + 2*x3^2", "a(1,2)*abar(1,2)", "-x1 - 2i*x2",
                 "(x1 + x2)^3", "wave(1.0,0.5,-2.0)", "1/2i", "3 - 1/7*x3"):
        tree = parse_expression(text, 3)
        assert parse_expression(to_text(tree), 3) == tree


@pytest.mark.parametrize("text, printed", [
    ("(x1+x2)^2", "(x1 + x2)^2"),
    ("x1*(x2+1)", "x1*(x2 + 1)"),
    ("2*(-x1)", "2*(-x1)"),
    ("-(x1+1)*x2", "-(x1 + 1)*x2"),
])
def test_grouped_sums_print_one_pair_of_parentheses(text, printed):
    assert to_text(parse_expression(text, 3)) == printed


def random_tree(rng: random.Random, n: int, depth: int):
    choice = rng.random()
    if depth <= 0 or choice < 0.35:
        kind = rng.randrange(4)
        if kind == 0:
            num = rng.randint(0, 9)
            den = rng.randint(1, 9)
            if rng.random() < 0.5:
                return Lit(Fraction(num, den), Fraction(0))
            return Lit(Fraction(0), Fraction(num, den))
        if kind == 1:
            return Coord(rng.randint(1, n))
        if kind == 2:
            i = rng.randint(1, n)
            j = rng.choice([v for v in range(1, n + 1) if v != i])
            return ComplexCoord(i, j, rng.random() < 0.5)
        return Wave(tuple(float(rng.randint(-3, 3)) for _ in range(n)))
    if choice < 0.6:
        count = rng.randint(2, 3)
        signs = tuple(rng.choice((1, -1)) for _ in range(count))
        return Sum(signs, tuple(random_tree(rng, n, depth - 1) for _ in range(count)))
    if choice < 0.85:
        count = rng.randint(2, 3)
        return Prod(tuple(random_tree(rng, n, depth - 1) for _ in range(count)))
    base = random_tree(rng, n, depth - 1)
    return Pow(base, rng.randint(0, 4))


def test_round_trip_thousand_random_trees():
    rng = random.Random(2024)
    failures = 0
    for _ in range(1000):
        tree = random_tree(rng, 3, 3)
        text = to_text(tree)
        back = parse_expression(text, 3)
        if back != tree:
            failures += 1
    assert failures == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_hypothesis_seeds(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, 3, 3)
    assert parse_expression(to_text(tree), 3) == tree


def test_lowered_complex_coordinate_matches_closed_form():
    a, abar = complex_pair(2, 3, 3)
    assert lower_poly(parse_expression("a(2,3)", 3), 3) == a
    assert lower_poly(parse_expression("abar(2,3)", 3), 3) == abar


def test_nesting_deeper_than_the_limit_is_a_positioned_error():
    for depth in (MAX_DEPTH + 1, 10_000):
        text = "(" * depth + "x1" + ")" * depth
        with pytest.raises(ExprError) as err:
            parse_expression(text, 3)
        assert (err.value.line, err.value.col) == (1, MAX_DEPTH + 1)  # the first '(' too many
        assert err.value.message == f"more than {MAX_DEPTH} nested parentheses"
    tree = parse_expression("(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH, 3)
    assert tree == Coord(1)


def _deepest_text(atom):
    """MAX_DEPTH nested parentheses with a Sum, a Prod and a Pow at every
    level: ((atom + 1)^1*atom + 1)^1*atom ..."""
    text = atom
    for _ in range(MAX_DEPTH):
        text = f"({text} + 1)^1*{atom}"
    return text


def test_deepest_allowed_nesting_lowers_and_round_trips():
    poly = parse_expression(_deepest_text("x1"), 3)
    assert parse_expression(to_text(poly), 3) == poly
    # Horner's rule: the polynomial is x1 + x1^2 + ... + x1^(MAX_DEPTH + 1)
    assert lower_poly(poly, 3) == sum((x(1, 3) ** k for k in range(2, MAX_DEPTH + 2)), x(1, 3))
    wave = parse_expression(_deepest_text("wave(1,0,0)"), 3)
    assert parse_expression(to_text(wave), 3) == wave
    assert contains_wave(wave)
    assert lower_wave(wave, 3) == WaveSum(3, [(1.0, (float(k), 0.0, 0.0))
                                              for k in range(1, MAX_DEPTH + 2)])
    _assert_lowers_as_node_by_node(_deepest_text("wave(1,0,0)"))
    with pytest.raises(ExprError):
        parse_expression("(" + _deepest_text("x1") + ")", 3)


@pytest.mark.parametrize("text, col", [
    ("٣*x1", 1),            # ARABIC-INDIC DIGIT THREE
    ("x1^٢", 4),            # ARABIC-INDIC DIGIT TWO as an exponent
    ("x١", 2),              # in a coordinate index
    ("x1*1８", 5),           # FULLWIDTH DIGIT EIGHT after an ASCII digit
    ("wave(१,0,0)", 6),     # DEVANAGARI DIGIT ONE as a frequency
])
def test_only_ascii_digits_are_numbers(text, col):
    with pytest.raises(ExprError) as err:
        parse_expression(text, 3)
    assert (err.value.line, err.value.col) == (1, col)
    assert err.value.message == f"unexpected character {text[col - 1]!r}"


def _traffic_text(rng, freqs):
    """A sum of (a/8 +- b/8i)*wave(f) terms, as the oracle benchmark writes
    them, with 0/8i, -0 components and repeated frequencies that cancel."""
    parts = []
    for f in freqs:
        a, b = (0 if rng.random() < 0.15 else rng.randint(-8, 8) for _ in "ab")
        comps = ",".join(rng.choice(["-0", "0"]) if v == 0 else str(v) for v in f)
        im = f"+ {b}/8i" if b >= 0 else f"- {-b}/8i"
        parts.append(f"({a}/8 {im})*wave({comps})")
        if rng.random() < 0.2:  # the same term again, subtracted: an exact cancellation
            parts.append(f"-({a}/8 {im})*wave({comps})")
    return " + ".join(parts).replace("+ -", "- ")


def test_lower_wave_matches_node_by_node_lowering_on_benchmark_shaped_sums():
    rng = random.Random("traffic")
    unit4 = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    shapes = [(3, list(itertools.product((-1, 0, 1), repeat=3))),
              (4, [(0,) * 4] + unit4 + [tuple(-v for v in u) for u in unit4])]
    for n, freqs in shapes:
        texts = [_traffic_text(rng, freqs) for _ in range(20)]
        for marker in ("0/8i", "(0/8 ", "wave(-0,", ",-0)", "- ("):
            assert any(marker in text for text in texts), marker
        for text in texts:
            _assert_lowers_as_node_by_node(text, n)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["x1", "3", "2i", "1.5", "wave", "(", ")", "-", "*", "^",
                                 " ", "\t", "\n", "\n\t ", "  "]), max_size=40))
def test_token_positions_match_a_naive_count(pieces):
    text = "".join(pieces)
    tokens = _lexed(text)
    for tok, end, line, col in tokens:
        offset = _naive_offset(text, line, col)
        assert offset == end - len(tok) and text.startswith(tok, offset)
        before = text[:offset]
        assert line == before.count("\n") + 1
        assert col == len(before) - (before.rfind("\n") + 1) + 1
    assert tokens[-1][:2] == ("", len(text)) and _naive_offset(text, *tokens[-1][2:]) == len(text)
    assert "".join(tok for tok, *_ in tokens) == "".join(text.split())


def _tokenize_loop(text):
    """Reference: the tokens one by one from _TOKEN_RE's matches (each a
    token after its whitespace), each as its text, the offset where it
    ends and its 1-based line and column counted from the text before it,
    then an "eof" token ("")."""
    tokens = []
    offset = 0

    def position(offset):
        before = text[:offset]
        return before.count("\n") + 1, offset - (before.rfind("\n") + 1) + 1

    for match in _TOKEN_RE.findall(text):
        tok = match.lstrip()
        offset += len(match) - len(tok)
        if tok[0] not in _KIND_OF_FIRST:  # the match runs to the end of the text
            raise ExprError(f"unexpected character {tok[0]!r}", *position(offset))
        tokens.append((tok, offset + len(tok), *position(offset)))
        offset += len(tok)
    tokens.append(("", len(text), *position(len(text))))
    return tokens


def _lex_outcome(lexer, text):
    try:
        return [tuple(tok) for tok in lexer(text)]
    except ExprError as exc:
        return exc.message, exc.line, exc.col


_LEX_PIECES = ["3/4", "3/4i", "12/5i", "7", "2i", "1.5", "1.", ".5", "2e3", "1.5E-2", ".5e+1",
               ".", "/", "@", "\u0663", "x1", "x12", "wave", "a", "abar", "_q", "i", "(", ")", ",",
               "-", "+", "*", "^", " ", "\t", "\n", "\n\t ", "\r\n"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_LEX_PIECES), max_size=30))
def test_tokenize_matches_the_token_loop(pieces):
    # one field at a time: text, end, line and col, or the same error
    text = "".join(pieces)
    assert _lex_outcome(_lexed, text) == _lex_outcome(_tokenize_loop, text)


def test_tokenize_matches_the_token_loop_on_kinds():
    text = "3/4 3/4i 1.5 1. .5 2e3 2i x1 (\n\t) . wave"
    tokens = _lexed(text)
    assert tokens == _tokenize_loop(text)
    assert tokens[-3:-1] == [(".", 35, 2, 4), ("wave", 40, 2, 6)]
    # the parser reads a number token by its kind: rational, imaginary or float
    assert [parse_expression(tok, 3) for tok in ("3/4", "3/4i", "2i")] == [
        Lit(Fraction(3, 4), Fraction(0)), Lit(Fraction(0), Fraction(3, 4)),
        Lit(Fraction(0), Fraction(2))]
    for tok in ("1.5", "1.", ".5", "2e3", "."):
        with pytest.raises(ExprError, match="float literals are only allowed inside wave"):
            parse_expression(tok, 3)
    assert parse_expression("wave(1.5,1.,.5)", 3).freqs == (1.5, 1.0, 0.5)
    for text in ("1 + 2 / 3", "x1 @ x2", "\n\t\u0663"):
        with pytest.raises(ExprError) as err:
            _lex(text)
        assert (err.value.message, err.value.line, err.value.col) == _lex_outcome(_tokenize_loop, text)


@pytest.mark.parametrize("text, line, col, message", [
    ("x1 +\n  wave(1, 0)", 2, 3, "wave arity 2 does not match dimension 3"),
    ("x1 +\n\twave(1, 2/0, 3)", 2, 10, "zero denominator in '2/0'"),
    ("1 +\nwave(1,0,0", 2, 11, "expected ')'"),
    ("x1\n + wave(1, ., 0)", 2, 12, "expected frequency component"),
    ("x1\n + wave(1, 2i, 0)", 2, 12, "expected frequency component"),
    ("x1 +\n\t@", 2, 2, "unexpected character '@'"),
    ("\n\n  x2 * \u0663", 3, 8, "unexpected character '\u0663'"),
    ("x1 * 2\n/3", 2, 1, "unexpected character '/'"),
    ("\n1.5 * x1", 2, 1, "float literals are only allowed inside wave(...)"),
])
def test_diagnostic_position_after_a_newline(text, line, col, message):
    with pytest.raises(ExprError) as err:
        parse_expression(text, 3)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def _naive_offset(text, line, col):
    """The offset of (line, col) in text, counting lines one by one."""
    offset = 0
    for _ in range(line - 1):
        offset = text.index("\n", offset) + 1
    return offset + col - 1


@pytest.mark.parametrize("text", [
    "(10^308 + 10^308)*wave(1,0,0)",      # a constant sum
    "10^200*10^200*wave(1,0,0)",          # a constant product
    "(10^160)^2*wave(1,0,0)",             # a constant power
    "wave(1,0,0) + 10^308 + 10^308",      # constant terms of a sum with waves
    "10^308*wave(1,0,0)*10",              # a constant after a wave
])
def test_overflowing_constants_raise_as_node_by_node_lowering(text):
    tree = parse_expression(text, 3)
    with pytest.raises(OverflowError) as got:
        lower_wave(tree, 3)
    with pytest.raises(OverflowError) as ref:
        _lower_wave_node_by_node(tree, 3)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)


# -- nodes --------------------------------------------------------------------

def _nodes(node):
    """node and every node under it, parents before children, left to right."""
    yield node
    for name in node._fields:
        value = getattr(node, name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Node):
                yield from _nodes(child)


# one expression with every node kind, on one line and spread over lines
EVERY_KIND = "-(1/2 + 3i)*wave(1,0,-0.5)^2 + x1*abar(1,2) - a(2,3)^0"
EVERY_KIND_LINES = "-(1/2 +\n 3i)*wave(1,\n0,-0.5)^2\n + x1*abar(1,2)\n\t- a(2,3)^0"


@pytest.mark.parametrize("text, positions", [
    (EVERY_KIND, [("Sum", (1, 1)), ("Prod", (1, 2)), ("Sum", (1, 3)), ("Lit", (1, 3)),
                  ("Lit", (1, 9)), ("Pow", (1, 13)), ("Wave", (1, 13)), ("Prod", (1, 32)),
                  ("Coord", (1, 32)), ("ComplexCoord", (1, 35)), ("Pow", (1, 47)),
                  ("ComplexCoord", (1, 47))]),
    (EVERY_KIND_LINES, [("Sum", (1, 1)), ("Prod", (1, 2)), ("Sum", (1, 3)), ("Lit", (1, 3)),
                        ("Lit", (2, 2)), ("Pow", (2, 6)), ("Wave", (2, 6)), ("Prod", (4, 4)),
                        ("Coord", (4, 4)), ("ComplexCoord", (4, 7)), ("Pow", (5, 4)),
                        ("ComplexCoord", (5, 4))]),
])
def test_every_node_kind_keeps_its_position(text, positions):
    # a node starts at its first token; a Sum or Prod in parentheses starts
    # after the '(', and a Pow where its base does
    assert [(type(node).__name__, node.pos) for node in _nodes(parse_expression(text, 3))] == positions


def test_node_repr_is_pinned():
    assert repr(parse_expression("-(1/2 + 3i)*wave(1,0,-0.5)^2", 3)) == (
        "Sum(pos=(1, 1), signs=(-1,), terms=(Prod(pos=(1, 2), factors=(Sum(pos=(1, 3), "
        "signs=(1, 1), terms=(Lit(pos=(1, 3), re=Fraction(1, 2), im=Fraction(0, 1)), "
        "Lit(pos=(1, 9), re=Fraction(0, 1), im=Fraction(3, 1)))), Pow(pos=(1, 13), "
        "base=Wave(pos=(1, 13), freqs=(1.0, 0.0, -0.5)), exp=2))),))")
    assert repr(parse_expression("x1*abar(1,2) - a(2,3)^0", 3)) == (
        "Sum(pos=(1, 1), signs=(1, -1), terms=(Prod(pos=(1, 1), factors=(Coord(pos=(1, 1), k=1), "
        "ComplexCoord(pos=(1, 4), i=1, j=2, conj=True))), Pow(pos=(1, 16), "
        "base=ComplexCoord(pos=(1, 16), i=2, j=3, conj=False), exp=0)))")


def test_equality_and_hashing_ignore_pos():
    one, other = parse_expression(EVERY_KIND, 3), parse_expression(EVERY_KIND_LINES, 3)
    moved = 0
    for a, b in zip(_nodes(one), _nodes(other)):
        assert a == b and hash(a) == hash(b) and not a != b
        moved += a.pos != b.pos
    assert moved == 8  # all but the nodes that start on the first line
    assert Lit(Fraction(1), Fraction(0), (4, 2)) == Lit(Fraction(1), Fraction(0))
    assert len({Coord(2, (1, 1)), Coord(2, (9, 9)), Coord(3)}) == 2
    # the class and every field count
    assert Coord(1) != Lit(Fraction(1), Fraction(0)) and Coord(1) != 1 and Coord(1) != Coord(2)
    assert Prod((Coord(1),)) != Sum((1,), (Coord(1),))
    assert ComplexCoord(1, 2, True) != ComplexCoord(1, 2, False)
    assert Pow(Coord(1), 2) != Pow(Coord(1), 3) and Wave((1.0, 0.0)) != Wave((1.0, -1.0))


def test_nodes_are_immutable():
    for node in _nodes(parse_expression(EVERY_KIND, 3)):
        for name in (*node._fields, "pos"):
            before = getattr(node, name)
            with pytest.raises(AttributeError):
                setattr(node, name, before)
            with pytest.raises(AttributeError):
                delattr(node, name)
            assert getattr(node, name) is before
        with pytest.raises(AttributeError):
            node.note = 1


def test_nodes_copy_and_pickle_with_their_positions():
    tree = parse_expression(EVERY_KIND_LINES, 3)
    for twin in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert twin == tree
        assert [node.pos for node in _nodes(twin)] == [node.pos for node in _nodes(tree)]


# -- wave lowering, byte for byte -------------------------------------------------

def _lower_wave_through_merge_keys(node, n):
    """Reference: lower_wave as it stood when a wave atom took its frequency
    from waves._merge_key and a literal converted through float(Fraction)."""
    terms = _merge_key_terms(node, n)
    if type(terms) is complex:
        terms = ((terms, (0.0,) * n),) if terms else ()
    return WaveSum._canonical(n, terms)


def _merge_key_terms(node, n):
    if isinstance(node, Lit):
        try:
            return complex(0, float(node.im)) if node.im else complex(float(node.re), 0)
        except OverflowError:
            raise ExprError("literal out of float range in a wave expression", *node.pos) from None
    if isinstance(node, Wave):
        return ((1.0 + 0j, waves._merge_key(n, node.freqs)[0]),)
    if isinstance(node, Sum):
        terms, has_waves = [], False
        for sign, term in zip(node.signs, node.terms):
            part = _merge_key_terms(term, n)
            if type(part) is not complex:
                has_waves = True
                terms += part if sign > 0 else [(c * -1.0, f) for c, f in part]
            elif part:
                terms.append(part if sign > 0 else part * -1.0)
        if has_waves:
            return waves.merge_terms(n, [(c, (0.0,) * n) if type(c) is complex else c for c in terms])
        return _merge_key_constant(functools.reduce(operator.add, terms) if terms else 0j, n)
    factors = node.factors if isinstance(node, Prod) else [node.base] * node.exp
    total = 1.0 + 0j
    for f in factors:
        total = _merge_key_times(total, _merge_key_terms(f, n), n)
    return total


def _merge_key_constant(coeff, n):
    if coeff and not cmath.isfinite(coeff):
        raise waves._coeff_overflow_error(coeff, (0.0,) * n)
    return coeff


def _merge_key_times(a, b, n):
    if type(b) is complex:
        a, b = b, a
    if type(a) is complex:
        if type(b) is complex:
            return _merge_key_constant(a * b, n)
        return waves._nonzero_terms([(a * c, tuple([0.0 + v for v in f])) for c, f in b])
    return waves.merge_terms(n, [(c1 * c2, tuple([u + v for u, v in zip(f1, f2)]))
                                 for c1, f1 in a for c2, f2 in b])


def _lowered_bytes(lower, text, n):
    tree = parse_expression(text, n)
    try:
        w = lower(tree, n)
    except (OverflowError, ExprError) as exc:
        return type(exc), str(exc)
    return w.coeff.tobytes(), w.freq.tobytes(), repr(w.terms)


def _benchmark_text(rng, n):
    """A factor as the oracle benchmark writes one: 27 terms at n = 3, 9 at n = 4."""
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    freqs = (list(itertools.product((-1, 0, 1), repeat=3)) if n == 3
             else [(0,) * n] + unit + [tuple(-v for v in u) for u in unit])
    parts = []
    for f in freqs:
        a, b = rng.randint(-8, 8), rng.randint(-8, 8)
        if a == b == 0:
            a = 1
        im = f"+ {b}/8i" if b >= 0 else f"- {-b}/8i"
        parts.append(f"({a}/8 {im})*wave({','.join(map(str, f))})")
    return " + ".join(parts)


# the largest frequency component whose merge key round(v / MERGE_TOL) is
# finite, and the float after it
_EDGE = waves._MAX_FREQ
while math.isfinite(math.nextafter(_EDGE, math.inf) / waves.MERGE_TOL):
    _EDGE = math.nextafter(_EDGE, math.inf)
while not math.isfinite(_EDGE / waves.MERGE_TOL):
    _EDGE = math.nextafter(_EDGE, 0)
_PAST_EDGE = math.nextafter(_EDGE, math.inf)

SIGNED_ZERO_TEXTS = [
    "wave(-0,0,-0) + (0/8 - 0/8i)*wave(0,-0,1)",
    "-(1/8 - 0/8i)*wave(-0,-1,0) + (0/8 + 3/8i)*wave(-0,-1,-0)",
    "(0/8 + 0/8i)*wave(1,0,0) - wave(-0,0,0) - 0i",
    "-0i*wave(-0,1,0) + (-0/8 - 1/8i)*wave(0,0,-0)",
]
EDGE_TEXTS = [f"wave({_EDGE!r},0,0)", f"wave(0,-{_EDGE!r},0)",
              f"(1/8 - 3/8i)*wave({_EDGE!r},-0,1) + wave(1,0,0)",
              f"wave({_PAST_EDGE!r},0,0)", f"2*wave(0,0,-{_PAST_EDGE!r})",
              f"wave(1,0,0) - (1/8 + 1/8i)*wave(0,{_PAST_EDGE!r},0)"]


def test_lower_wave_keeps_the_bytes_of_the_merge_key_lowering():
    assert _EDGE / waves.MERGE_TOL < math.inf == _PAST_EDGE / waves.MERGE_TOL
    cases = [(3, text) for text in SIGNED_ZERO_TEXTS + EDGE_TEXTS]
    for seed in (42, 7):
        rng = random.Random(f"benchmark-shaped:{seed}")
        cases += [(n, _benchmark_text(rng, n)) for n in (3, 3, 3, 4, 4, 4)]
    outcomes = set()
    for n, text in cases:
        want = _lowered_bytes(_lower_wave_through_merge_keys, text, n)
        assert _lowered_bytes(lower_wave, text, n) == want, text
        outcomes.add(want[0] if isinstance(want[0], type) else "sum")
    assert outcomes == {"sum", OverflowError}
