import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nstar.closedforms import complex_pair
from nstar.exprs import (
    ComplexCoord,
    Coord,
    ExprError,
    Lit,
    Pow,
    Prod,
    Sum,
    Token,
    Wave,
    contains_wave,
    lower_poly,
    lower_wave,
    parse_expression,
    to_text,
    tokenize,
)
from nstar.polynomials import Polynomial, x
from nstar.scalars import ExactComplex
from nstar.waves import WaveSum


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
        total = total + (w if sign > 0 else w.scale(-1.0))
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


def test_token_positions_across_lines_and_tabs():
    # a tab is one column; a newline starts the next line at column 1
    tokens = tokenize("\tx1 *\n\t\tx2^2\n+ 3i")
    assert tokens == [Token("name", "x1", 1, 2), Token("op", "*", 1, 5),
                      Token("name", "x2", 2, 3), Token("op", "^", 2, 5),
                      Token("number", "2", 2, 6), Token("op", "+", 3, 1),
                      Token("imag", "3i", 3, 3), Token("eof", "", 3, 5)]
    assert tokens[2].line == 2 and tokens[2].col == 3
    assert tokenize(" x1 \n ")[-1] == Token("eof", "", 2, 2)


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
            return WaveSum.constant(complex(0, float(node.im)), n)
        return WaveSum.constant(complex(float(node.re), 0), n)
    if isinstance(node, Wave):
        return WaveSum.single(1.0 + 0j, node.freqs)
    if isinstance(node, Sum):
        terms = []
        for sign, term in zip(node.signs, node.terms):
            w = _lower_wave_node_by_node(term, n)
            terms.extend((w if sign > 0 else w.scale(-1.0)).terms)
        return WaveSum(n, terms)
    if isinstance(node, Prod):
        total = WaveSum.constant(1.0 + 0j, n)
        for f in node.factors:
            total = total * _lower_wave_node_by_node(f, n)
        return total
    if isinstance(node, Pow):
        base = _lower_wave_node_by_node(node.base, n)
        total = WaveSum.constant(1.0 + 0j, n)
        for _ in range(node.exp):
            total = total * base
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


def test_round_trip_examples():
    for text in ("x1*x2 + 2*x3^2", "a(1,2)*abar(1,2)", "-x1 - 2i*x2",
                 "(x1 + x2)^3", "wave(1.0,0.5,-2.0)", "1/2i", "3 - 1/7*x3"):
        tree = parse_expression(text, 3)
        assert parse_expression(to_text(tree), 3) == tree


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
