import argparse
import ast
import hashlib
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nstar
from nstar import cli
from nstar.audit import VERDICT_FAILS, ClaimReport, reports_to_json
from nstar.cli import main
from nstar.exprs import MAX_DEPTH
from nstar.polynomials import Polynomial, x
from nstar.starcore import ThetaConfig, star_n
from nstar.waves import GridSpec, WaveSum
from references import constant, poly_from_json_terms

# The directory holding the nstar package this test run imported.
IMPORT_ROOT = str(Path(nstar.__file__).resolve().parent.parent)
REPO = Path(__file__).resolve().parent.parent
# The narrative scripts under demos/, each run as a child process.
DEMOS = sorted((REPO / "demos").glob("*.py"))


def run_child(args, cwd=None):
    # The child runs in another working directory, so a relative PYTHONPATH
    # entry (e.g. "src") would no longer find the package.  Put the imported
    # package's directory first and make every inherited entry absolute, so
    # the child runs the same code as the in-process tests.
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    paths = [IMPORT_ROOT] + [os.path.abspath(p) for p in inherited if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def run_cli(args, cwd=None):
    return run_child(["-m", "nstar.cli", *args], cwd=cwd)


def test_star_output_matches_engine_serialization(tmp_path):
    proc = run_cli(["star", "--n", "3", "--theta", "1,1,1", "x1", "x2", "x3"],
                   cwd=tmp_path)
    assert proc.returncode == 0
    cfg = ThetaConfig(3, (Fraction(1),) * 3)
    expected = str(star_n([x(1, 3), x(2, 3), x(3, 3)], cfg))
    assert proc.stdout == expected + "\n"
    assert proc.stdout.rstrip("\n") == "x1*x2*x3 + (1/2)i"


def test_star_json_format(tmp_path, capsys):
    code = main(["star", "--format", "json", "--theta", "1,1,1", "x1", "x2", "x3"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 3
    assert {"exponents": [0, 0, 0], "re_num": 0, "re_den": 1,
            "im_num": 1, "im_den": 2} in data["terms"]


# One n = 3 product with fractional, imaginary and a(1,2) coefficients, so
# its output goes through the sqrt(2) printing path.  The expected stdout
# of both formats was measured with the four-Fraction scalar.
STAR_PIN_ARGS = ["star", "--theta", "1,1/2,-2", "1/2*x1 + 2/3i*x2^2 - a(1,2)*x3",
                 "a(1,2)*x3 + 1i", "x1*x3 - 3/4 + abar(1,2)"]
STAR_PIN_TEXT = (
    '-(1/2)*x1^3*x3^3 + (((1/3)i)*rt2)*x1^2*x2^2*x3^2 - i*x1^2*x2*x3^3'
    ' - ((1/3)*rt2)*x1*x2^3*x3^2 + (1/2)*x1*x2^2*x3^3 + ((1/3)i)*x1^2*x2^2*x3'
    ' - ((1/4)*rt2)*x1*x2^2*x3^2 + ((1/3)i)*x2^4*x3 - (((1/4)i)*rt2)*x2^3*x3^2'
    ' + (1/4)*x1^3*x3 + (3/8 + ((-1/2)i)*rt2)*x1^2*x3^2 - (5/12 + ((1/4)i)*rt2)*x1*x2^2*x3'
    ' + ((3/4)i + (1/2)*rt2)*x1*x2*x3^2 + ((1/4)*rt2)*x2^3*x3 - (3/8)*x2^2*x3^2'
    ' - ((3/16)*rt2)*x1^2*x3 - ((1/3)*rt2)*x1*x2^2 - (((3/16)i)*rt2)*x1*x2*x3'
    ' + (3/4)*x1*x3^2 + (((1/3)i)*rt2)*x2^3 - ((1/2)i + ((1/6)i)*rt2)*x2^2*x3'
    ' + ((5/8)i)*x2*x3^2 + (((1/4)i)*rt2)*x1^2 - (1/6 + (-1/4)*rt2)*x1*x2 + ((9/16'
    ' + (3/8)i)*rt2)*x1*x3 + (1/2 - (1/6)i)*x2^2 - ((3/8 - (11/16)i)*rt2)*x2*x3 - (1/8'
    ' + (3/8)i)*x1 - ((1/8)i)*x2 + ((1/24)i)*rt2'
)
STAR_PIN_JSON = (
    '{"n": 3, "terms": [{"exponents": [3, 0, 3], "re_num": -1, "re_den": 2, "im_num": 0, '
    '"im_den": 1}, {"exponents": [2, 2, 2], "re_num": 0, "re_den": 1, "im_num": 0, '
    '"im_den": 1, "rt2_re_num": 0, "rt2_re_den": 1, "rt2_im_num": 1, "rt2_im_den": 3}, '
    '{"exponents": [2, 1, 3], "re_num": 0, "re_den": 1, "im_num": -1, "im_den": 1}, '
    '{"exponents": [1, 3, 2], "re_num": 0, "re_den": 1, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": -1, "rt2_re_den": 3, "rt2_im_num": 0, "rt2_im_den": 1}, '
    '{"exponents": [1, 2, 3], "re_num": 1, "re_den": 2, "im_num": 0, "im_den": 1}, '
    '{"exponents": [2, 2, 1], "re_num": 0, "re_den": 1, "im_num": 1, "im_den": 3}, '
    '{"exponents": [1, 2, 2], "re_num": 0, "re_den": 1, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": -1, "rt2_re_den": 4, "rt2_im_num": 0, "rt2_im_den": 1}, '
    '{"exponents": [0, 4, 1], "re_num": 0, "re_den": 1, "im_num": 1, "im_den": 3}, '
    '{"exponents": [0, 3, 2], "re_num": 0, "re_den": 1, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": 0, "rt2_re_den": 1, "rt2_im_num": -1, "rt2_im_den": 4}, '
    '{"exponents": [3, 0, 1], "re_num": 1, "re_den": 4, "im_num": 0, "im_den": 1}, '
    '{"exponents": [2, 0, 2], "re_num": 3, "re_den": 8, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": 0, "rt2_re_den": 1, "rt2_im_num": -1, "rt2_im_den": 2}, '
    '{"exponents": [1, 2, 1], "re_num": -5, "re_den": 12, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": 0, "rt2_re_den": 1, "rt2_im_num": -1, "rt2_im_den": 4}, '
    '{"exponents": [1, 1, 2], "re_num": 0, "re_den": 1, "im_num": 3, "im_den": 4, '
    '"rt2_re_num": 1, "rt2_re_den": 2, "rt2_im_num": 0, "rt2_im_den": 1}, '
    '{"exponents": [0, 3, 1], "re_num": 0, "re_den": 1, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": 1, "rt2_re_den": 4, "rt2_im_num": 0, "rt2_im_den": 1}, '
    '{"exponents": [0, 2, 2], "re_num": -3, "re_den": 8, "im_num": 0, "im_den": 1}, '
    '{"exponents": [2, 0, 1], "re_num": 0, "re_den": 1, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": -3, "rt2_re_den": 16, "rt2_im_num": 0, "rt2_im_den": 1}, '
    '{"exponents": [1, 2, 0], "re_num": 0, "re_den": 1, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": -1, "rt2_re_den": 3, "rt2_im_num": 0, "rt2_im_den": 1}, '
    '{"exponents": [1, 1, 1], "re_num": 0, "re_den": 1, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": 0, "rt2_re_den": 1, "rt2_im_num": -3, "rt2_im_den": 16}, '
    '{"exponents": [1, 0, 2], "re_num": 3, "re_den": 4, "im_num": 0, "im_den": 1}, '
    '{"exponents": [0, 3, 0], "re_num": 0, "re_den": 1, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": 0, "rt2_re_den": 1, "rt2_im_num": 1, "rt2_im_den": 3}, '
    '{"exponents": [0, 2, 1], "re_num": 0, "re_den": 1, "im_num": -1, "im_den": 2, '
    '"rt2_re_num": 0, "rt2_re_den": 1, "rt2_im_num": -1, "rt2_im_den": 6}, '
    '{"exponents": [0, 1, 2], "re_num": 0, "re_den": 1, "im_num": 5, "im_den": 8}, '
    '{"exponents": [2, 0, 0], "re_num": 0, "re_den": 1, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": 0, "rt2_re_den": 1, "rt2_im_num": 1, "rt2_im_den": 4}, '
    '{"exponents": [1, 1, 0], "re_num": -1, "re_den": 6, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": 1, "rt2_re_den": 4, "rt2_im_num": 0, "rt2_im_den": 1}, '
    '{"exponents": [1, 0, 1], "re_num": 0, "re_den": 1, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": 9, "rt2_re_den": 16, "rt2_im_num": 3, "rt2_im_den": 8}, '
    '{"exponents": [0, 2, 0], "re_num": 1, "re_den": 2, "im_num": -1, "im_den": 6}, '
    '{"exponents": [0, 1, 1], "re_num": 0, "re_den": 1, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": -3, "rt2_re_den": 8, "rt2_im_num": 11, "rt2_im_den": 16}, '
    '{"exponents": [1, 0, 0], "re_num": -1, "re_den": 8, "im_num": -3, "im_den": 8}, '
    '{"exponents": [0, 1, 0], "re_num": 0, "re_den": 1, "im_num": -1, "im_den": 8}, '
    '{"exponents": [0, 0, 0], "re_num": 0, "re_den": 1, "im_num": 0, "im_den": 1, '
    '"rt2_re_num": 0, "rt2_re_den": 1, "rt2_im_num": 1, "rt2_im_den": 24}]}'
)


def test_star_printed_output_pinned(capsys):
    assert main(STAR_PIN_ARGS) == 0
    assert capsys.readouterr().out == "".join(STAR_PIN_TEXT) + "\n"
    assert main(STAR_PIN_ARGS[:1] + ["--format", "json"] + STAR_PIN_ARGS[1:]) == 0
    out = capsys.readouterr().out
    assert out == "".join(STAR_PIN_JSON) + "\n"
    data = json.loads(out)
    product = poly_from_json_terms(data["n"], data["terms"])
    assert any("rt2_re_num" in rec for rec in data["terms"])
    assert poly_from_json_terms(3, product.to_json_terms()) == product


def test_only_the_requested_format_is_rendered(monkeypatch, capsys):
    # formatting a large product costs about as much as computing it
    rendered = []

    def counting(cls, name):
        original = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self: rendered.append(name) or original(self))

    counting(Polynomial, "__str__")
    counting(Polynomial, "to_json_terms")
    counting(WaveSum, "__str__")
    counting(WaveSum, "to_json_terms")
    exprs = STAR_PIN_ARGS[1:]
    waves = ["--theta", "1,0,0", "wave(1,0,0)", "2*wave(0,1,0)", "wave(0,0,1)"]
    for argv in (["star", *exprs], ["conj", *exprs], ["bracket", *exprs], ["star", *waves]):
        assert main(argv[:1] + ["--format", "json"] + argv[1:]) == 0
        assert main(argv) == 0
    assert rendered == ["to_json_terms", "__str__"] * 4
    capsys.readouterr()


def test_star_wave_mode(capsys):
    code = main(["star", "--theta", "0,0,0", "wave(1,0,0)", "wave(0,1,0)", "wave(0,0,1)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "exp(i[1.0, 1.0, 1.0].x)" in out


def test_bracket_and_conj(capsys):
    assert main(["bracket", "--theta", "1,1,1", "x1", "x3", "x2"]) == 0
    assert capsys.readouterr().out.strip() == "i"
    assert main(["conj", "--theta", "1,1,1", "x1", "x2", "x3"]) == 0
    assert capsys.readouterr().out.strip() == "x1*x2*x3 - (1/2)i"


def test_bracket_arity_message_pinned(capsys):
    assert main(["bracket", "--n", "4", "x1", "x2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ('{"error": {"code": "usage", "message": "bracket takes the two outer '
                            'factors plus 2 middle factors (4 expressions), got 2"}}\n')


def test_oracle_arity_message_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # no config file
    lattice = tmp_path / "lattice.bin"
    assert main(["oracle", "--n", "4", "--output", str(lattice),
                 "wave(1,0,0,0)", "wave(0,1,0,0)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ('{"error": {"code": "usage", "message": "oracle takes exactly 4 wave '
                            'expressions, got 2"}}\n')
    assert not lattice.exists()


DEEP = 10_000


@pytest.mark.parametrize("argv", [
    ["star", "--n", "3", "(" * DEEP + "x1" + ")" * DEEP, "x2", "x3"],
    ["bracket", "--n", "3", "(" * DEEP + "x1" + ")" * DEEP, "x2", "x3"],
    ["conj", "--n", "3", "(" * DEEP + "x1" + ")" * DEEP, "x2", "x3"],
    ["oracle", "--n", "3", "wave(1,0,0)", "(" * DEEP + "wave(0,1,0)" + ")" * DEEP, "wave(0,0,1)"],
], ids=["star", "bracket", "conj", "oracle"])
def test_deep_nesting_is_a_parse_error(argv, tmp_path):
    # each command runs as a child process: a malformed request must end as
    # one JSON diagnostic with exit code 2, never as a traceback
    proc = run_cli(argv, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == json.dumps({"error": {
        "code": "parse-error", "message": f"more than {MAX_DEPTH} nested parentheses",
        "line": 1, "col": MAX_DEPTH + 1}}) + "\n"


# One digit past the longest integer Python converts from text (0: no limit).
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
BIG = "1" + "0" * INT_DIGITS
TOO_LONG = f"integer with more than {INT_DIGITS} digits"
needs_limit = pytest.mark.skipif(not INT_DIGITS, reason="this Python converts integers of any length")
WAVES = ["wave(1,0,0)", "wave(0,1,0)", "wave(0,0,1)"]


@pytest.mark.parametrize("argv, message, col", [
    pytest.param(["star", f"{BIG}*x1", "x2", "x3"], TOO_LONG, 1, marks=needs_limit, id="literal"),
    pytest.param(["star", f"3/{BIG}i", "x2", "x3"], TOO_LONG, 1, marks=needs_limit,
                 id="denominator"),
    pytest.param(["star", f"x1^{BIG}", "x2", "x3"], TOO_LONG, 4, marks=needs_limit, id="exponent"),
    pytest.param(["star", f"x{BIG}", "x2", "x3"], TOO_LONG, 1, marks=needs_limit, id="coordinate"),
    pytest.param(["star", f"a(1,{BIG})", "x2", "x3"], TOO_LONG, 5, marks=needs_limit,
                 id="complex-coordinate"),
    pytest.param(["oracle", f"wave({BIG},0,0)", *WAVES[1:]], TOO_LONG, 6, marks=needs_limit,
                 id="wave-integer"),
    pytest.param(["oracle", WAVES[0], f"wave(0,-1/{BIG},0)", WAVES[2]], TOO_LONG, 9,
                 marks=needs_limit, id="wave-fraction"),
    pytest.param(["oracle", "wave(1e400,0,0)", *WAVES[1:]],
                 "frequency component out of float range", 6, id="wave-float"),
    pytest.param(["oracle", WAVES[0], "wave(0,-1.5e999,0)", WAVES[2]],
                 "frequency component out of float range", 9, id="wave-negative-float"),
])
def test_unreadable_numbers_are_positioned_parse_errors(argv, message, col, capsys):
    # every integer token goes through one reader, and a wave component that
    # rounds to inf is caught at its token, not at the merge
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps({"error": {
        "code": "parse-error", "message": message, "line": 1, "col": col}}) + "\n"


@needs_limit
@pytest.mark.parametrize("extra", [[], ["--format", "json"], ["--output", "out.json"],
                                   ["--format", "json", "--output", "out.json"]])
def test_a_result_too_long_to_print_is_a_usage_error(extra, tmp_path, monkeypatch, capsys):
    # the product is computed; an integer of INT_DIGITS + 1 digits cannot be
    # turned into text, so nothing is printed or written and the diagnostic
    # names the limit
    monkeypatch.chdir(tmp_path)
    assert main(["star", *extra, f"10^{INT_DIGITS}", "x2", "x3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"code": "usage", "message": (
        f"the result is too long to print: it holds an integer of more than {INT_DIGITS} "
        f"digits, the most Python converts to text (sys.get_int_max_str_digits())")}}
    assert not (tmp_path / "out.json").exists()
    assert sys.get_int_max_str_digits() == INT_DIGITS  # the interpreter's limit is left alone
    assert main(["star", *extra, f"10^{INT_DIGITS - 1}", "x2", "x3"]) == 0


def test_non_ascii_digit_is_a_parse_error(capsys):
    assert main(["star", "--n", "3", "\u0663*x1", "x2", "x3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ('{"error": {"code": "parse-error", "message": '
                            '"unexpected character \'\\u0663\'", "line": 1, "col": 1}}\n')


# Out-of-range values: each is a usage error, not a traceback.
OUT_OF_RANGE = [
    ["oracle", "--N", "0", "wave(1,0,0)", "wave(0,1,0)", "wave(0,0,1)"],
    ["residual", "--order", "-1"],
    ["residual", "--k", "-1"],
    ["residual", "--points", "0"],
    ["spectrum", "--nbar", "1,-1,0"],
    ["verify", "--trials", "0"],
    ["star", "--theta", "2000,0,0", "wave(10,0,0)", "wave(0,10,0)", "wave(0,0,10)"],
    ["kernel", "--theta", "2000,0,0", "10,0,0", "0,10,0", "0,0,10"],
    ["star", "wave(1e300,0,0)", "wave(0,1,0)", "wave(0,0,1)"],
]


def test_usage_error_exit_codes(tmp_path, monkeypatch, capsys):
    proc = run_cli(["star", "x1", "x2"], cwd=tmp_path)  # wrong arity
    assert proc.returncode == 2
    body = json.loads(proc.stderr)
    assert body["error"]["code"] == "usage"

    proc = run_cli(["star", "x4", "x1", "x2"], cwd=tmp_path)  # parse error
    assert proc.returncode == 2
    body = json.loads(proc.stderr)
    assert body["error"]["code"] == "parse-error"
    assert body["error"]["line"] == 1

    proc = run_cli(["--bogus-flag"], cwd=tmp_path)  # argparse usage error
    assert proc.returncode == 2

    proc = run_cli(["verify", "--tolerance", "1e-9"], cwd=tmp_path)  # removed flag
    assert proc.returncode == 2

    monkeypatch.chdir(tmp_path)
    for argv in OUT_OF_RANGE:
        assert main(argv) == 2, argv
        body = json.loads(capsys.readouterr().err)
        assert body["error"]["code"] == "usage", argv


# Checks the library makes, which the CLI does not repeat: exit 2, code
# usage, and the library's message.
@pytest.mark.parametrize("argv, message", [
    (["star", "--theta", "1,1", "x1", "x2", "x3"], "expected 3 deformation parameters, got 2"),
    (["kernel", "1,0,0", "0,1,0"], "expected 3 frequency vectors, got 2"),
    (["kernel", "1,0,0", "0,1", "0,0,1"], "frequency vector must have 3 components, got 2"),
    (["omega", "1,2", "1,2,3"], "defined for dimension 3 vectors only, got 2 and 3 components"),
    (["spectrum", "--lambda0", "1,1"], "diagonal coefficient rows must have 3 entries, got 2"),
    (["residual", "--lambda0", "1,1,1", "--lambda2", "1,1,1,1"],
     "diagonal coefficient rows must have 3 entries, got 4"),
    (["spectrum", "--k", "4"], "k must be in 1..3, got 4"),
    (["spectrum", "--k", "0"], "k must be in 1..3, got 0"),
    (["residual", "--order", "-1"], "order must be non-negative"),
], ids=["theta", "kernel-count", "kernel-length", "omega", "spectrum-row", "residual-row",
        "spectrum-k-high", "spectrum-k-low", "residual-order"])
def test_library_checks_are_usage_errors_pinned(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # no config file
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps({"error": {"code": "usage", "message": message}}) + "\n"


def test_spectrum_value(capsys):
    code = main(["spectrum", "--k", "1", "--nbar", "0,0,0", "--theta", "1,1,1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "E = 3/2"


@pytest.mark.parametrize("nbar", ["1,2", "1,2,0,0"])
def test_spectrum_rejects_nbar_of_another_dimension(nbar, capsys):
    assert main(["spectrum", "--nbar", nbar]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == '{"error": {"code": "usage", "message": "nbar must have 3 components"}}\n'


def test_spectrum_table_csv(tmp_path, capsys):
    out = tmp_path / "spectrum.csv"
    code = main(["spectrum", "--k", "2", "--nbar", "1,1,0", "--theta", "1,1,1",
                 "--lambda0", "1,0,0", "--output", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "k,nbar,energy"
    assert len(rows) == 4


def test_kernel_command(capsys):
    code = main(["kernel", "--theta", "2,0,0", "1,0,0", "0,1,0", "0,0,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "exponent = 1.0" in out


def test_kernel_command_text_signs_pinned(capsys):
    # an imaginary part with its sign bit set prints as "a - |b|i"; the JSON
    # form keeps the signed floats
    argv = ["kernel", "--n", "4", "--theta=-1,1,1,1", "1,0,0,0", "0,1,0,0", "0,0,1,0", "0,0,0,1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == ("exponent = -0.0 - 0.5i\n"
                                       "multiplier = 0.8775825618903728 - 0.479425538604203i\n")
    assert main(["kernel", "--format", "json", *argv[1:]]) == 0
    assert capsys.readouterr().out == (
        '{"exponent": {"re": -0.0, "im": -0.5}, '
        '"multiplier": {"re": 0.8775825618903728, "im": -0.479425538604203}}\n')
    # README's example
    assert main(["kernel", "--theta", "2,0,0", "1,0,0", "0,1,0", "0,0,1"]) == 0
    assert capsys.readouterr().out == ("exponent = 1.0 + 0.0i\n"
                                       "multiplier = 2.718281828459045 + 0.0i\n")


def test_omega_command(capsys):
    code = main(["omega", "0,1,0", "0,0,1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "omega = [1.0, 0.0, 0.0]"


# The float wave commands print no NaN or inf: a non-finite component is
# rejected where it is read, and a cross product that overflows raises.
@pytest.mark.parametrize("argv, message", [
    (["omega", "nan,0,0", "0,1,0"],
     "malformed frequency vector 'nan,0,0': component 1: not a finite number"),
    (["omega", "--format", "json", "nan,0,0", "0,1,0"],
     "malformed frequency vector 'nan,0,0': component 1: not a finite number"),
    (["omega", "0,1,0", "0,0,1e999"],
     "malformed frequency vector '0,0,1e999': component 3: not a finite number"),
    (["omega", "1e308,1e308,0", "1e308,-1e308,0"],
     "frequency cross product of q = [1e+308, 1e+308, 0.0] and r = [1e+308, -1e+308, 0.0] "
     "is not finite: [0.0, 0.0, -inf]"),
    (["kernel", "--theta", "0,0,0", "nan,0,0", "0,1,0", "0,0,1"],
     "malformed frequency vector 'nan,0,0': component 1: not a finite number"),
    (["kernel", "1,0,0", "0,-inf,0", "0,0,1"],
     "malformed frequency vector '0,-inf,0': component 2: not a finite number"),
], ids=["omega-nan", "omega-nan-json", "omega-1e999", "omega-overflow", "kernel-nan", "kernel-inf"])
def test_non_finite_wave_vectors_are_usage_errors_pinned(argv, message, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)  # no config file
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps({"error": {"code": "usage", "message": message}}) + "\n"


LIMIT = "the float limit 1.7976931348623157e+308"


# The wave commands round theta to floats in one place; a component past the
# float range is a usage error naming --theta and the component, while the
# polynomial commands keep the same theta exact.
@pytest.mark.parametrize("argv, message", [
    (["kernel", "--theta", "1e400,0,0", "1,0,0", "0,1,0", "0,0,1"],
     f"--theta '1e400,0,0': theta component 1 is beyond {LIMIT}"),
    (["star", "--theta", "1e400,1,1", "wave(1,0,0)", "wave(0,1,0)", "wave(0,0,1)"],
     f"--theta '1e400,1,1': theta component 1 is beyond {LIMIT}"),
    (["star", "--format", "json", "--theta", "1,1,-1e400", "wave(1,0,0)", "x2", "wave(0,0,1)"],
     f"--theta '1,1,-1e400': theta component 3 is beyond {LIMIT}"),
    (["oracle", "--N", "4", "--theta", "1,-1e400,1e400", "wave(1,0,0)", "wave(0,1,0)",
      "wave(0,0,1)"],
     f"--theta '1,-1e400,1e400': theta component 2 is beyond {LIMIT}"),
], ids=["kernel", "star-waves", "star-waves-json", "oracle"])
def test_theta_past_the_float_range_is_a_usage_error_on_the_wave_commands(argv, message, tmp_path,
                                                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # no config file
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps({"error": {"code": "usage", "message": message}}) + "\n"


def test_theta_past_the_float_range_stays_exact_on_the_polynomial_commands(tmp_path, monkeypatch,
                                                                           capsys):
    monkeypatch.chdir(tmp_path)  # no config file
    assert main(["star", "--theta", "1e400,1,1", "x1", "x2", "x3"]) == 0
    assert capsys.readouterr().out.strip() == f"x1*x2*x3 + {5 * 10 ** 399}i"


def test_verify_deterministic_and_exit_zero(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    p1 = run_cli(["verify", "--seed", "42", "--trials", "3", "--output", str(out1)],
                 cwd=tmp_path)
    p2 = run_cli(["verify", "--seed", "42", "--trials", "3", "--output", str(out2)],
                 cwd=tmp_path)
    assert p1.returncode == 0  # guaranteed claims hold
    assert p2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    reports = json.loads(out1.read_text())
    assert {r["claim"] for r in reports} >= {"associativity", "jacobi-six-term"}


def test_verify_exits_1_when_a_guaranteed_claim_fails(tmp_path, monkeypatch, capsys):
    reports = [ClaimReport("theta-zero", VERDICT_FAILS, 1, 42, "corpus"),
               ClaimReport("associativity", VERDICT_FAILS, 1, 42, "corpus")]
    monkeypatch.setattr(cli, "run_suite", lambda seed, trials: reports)
    out = tmp_path / "report.json"
    assert main(["verify", "--trials", "1", "--output", str(out)]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[:2] == ["theta-zero: fails", "associativity: fails"]
    assert printed[-1] == "guaranteed claims: FAILURE"
    assert out.read_text() == reports_to_json(reports) + "\n"


def test_unwritable_output_or_config_exits_2_naming_the_path(tmp_path, monkeypatch, capsys):
    # exit 1 means a guaranteed claim failed; a failed write or read is a usage error
    monkeypatch.chdir(tmp_path)

    def no_audit(**kwargs):
        raise AssertionError("verify ran the audit before checking its --output")
    monkeypatch.setattr(cli, "run_suite", no_audit)
    for argv in (["verify", "--trials", "1", "--output", "missing/r.json"],
                 ["spectrum", "--k", "2", "--nbar", "1,1,0", "--output", "missing/t.csv"],
                 ["spectrum", "--nbar", "1,0,0", "--format", "json", "--output", "missing/t.json"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv  # nothing printed before the failed write
        body = json.loads(err)["error"]
        assert body == {"code": "io", "message": f"cannot write {argv[-1]}: No such file or directory"}
    (tmp_path / "plain").write_text("")
    assert main(["verify", "--output", "plain/r.json"]) == 2
    body = json.loads(capsys.readouterr().err)["error"]
    assert body == {"code": "io", "message": "cannot write plain/r.json: Not a directory"}
    (tmp_path / "folder").mkdir()  # its parent is writable; the write itself fails
    assert main(["spectrum", "--nbar", "1,0,0", "--format", "json", "--output", "folder"]) == 2
    body = json.loads(capsys.readouterr().err)["error"]
    assert body == {"code": "io", "message": "cannot write folder: Is a directory"}
    (tmp_path / "nstar.json").write_text("{}")

    def unreadable(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))
    monkeypatch.setattr(Path, "read_text", unreadable)
    assert main(["omega", "0,1,0", "0,0,1"]) == 2
    body = json.loads(capsys.readouterr().err)["error"]
    assert body == {"code": "io", "message": "cannot read config file nstar.json: Permission denied"}


@pytest.mark.parametrize("argv, engine", [
    (["star", "x1", "x2", "x3", "--output", "missing/o.json"], "star_n"),
    (["star", "wave(1,0,0)", "wave(0,1,0)", "wave(0,0,1)", "--output", "missing/o.json"],
     "star_waves"),
    # the --output is checked before the handler finds the wrong arity
    (["star", "x1", "x2", "--output", "missing/o.json"], "star_n"),
    (["residual", "--output", "missing/t.csv"], "residual_report"),
    (["spectrum", "--format", "json", "--output", "missing/t.json"], "energy"),
    (["oracle", "wave(1,0,0)", "wave(0,1,0)", "wave(0,0,1)", "--output", "missing/l.bin"],
     "star_waves"),
], ids=["star", "star-waves", "star-arity", "residual", "spectrum", "oracle"])
def test_unwritable_output_exits_before_the_engine_runs(argv, engine, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)

    def not_called(*args, **kwargs):
        raise AssertionError(f"{engine} ran before --output was checked")
    monkeypatch.setattr(cli, engine, not_called)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": {"code": "io", "message":
                                         f"cannot write {argv[-1]}: No such file or directory"}}


def test_residual_csv(tmp_path):
    out = tmp_path / "resid.csv"
    proc = run_cli(["residual", "--k", "0", "--order", "2", "--points", "4",
                    "--seed", "7", "--theta", "1,1,1", "--output", str(out)],
                   cwd=tmp_path)
    assert proc.returncode == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "order,point_index,ground_residual,eigen_residual"
    assert len(rows) == 1 + 3 * 4


def test_residual_integer_energy(capsys):
    argv = ["residual", "--n", "4", "--theta", "1,2,1,1", "--order", "1", "--points", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("residuals for k=0, n=4, E=2 (")
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["energy"] == "2"


@pytest.mark.parametrize("n, seed", [(5, 98), (6, 1), (40, 0)])
def test_residual_draws_its_points_within_its_bound(n, seed, capsys):
    # each coordinate is drawn as randint(-B, B) / 100 with
    # B = min(200, isqrt(160000 // n)): the cube lies inside |x| <= 4 at
    # every n, so no draw is rejected (from [-2, 2]^n these seeds drew
    # points outside the bound at n = 5 and 6, and at n = 40 almost every
    # draw is outside it)
    assert main(["residual", "--n", str(n), "--seed", str(seed), "--order", "1",
                 "--format", "json"]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    assert len(points) == 20
    assert all(len(point) == n for point in points)
    assert all(sum(Fraction(repr(v)) ** 2 for v in point) <= 16 for point in points)
    B = min(200, math.isqrt(160_000 // n))
    assert max(abs(Fraction(repr(v))) for point in points for v in point) <= Fraction(B, 100)
    # each printed coordinate is its drawn integer over 100, one division
    rng = random.Random(seed)
    assert points == [[rng.randint(-B, B) / 100 for _ in range(n)] for _ in range(20)]


# `residual` configurations and the sha256 of their output bytes: stdout
# as text and under --format json, then the --output CSV and JSON files.
# Measured before the residual tables were evaluated a partial sum at a
# time over all points; the values pass through libm's exp, so another
# platform's libm may change a last digit.
RESIDUAL_SHA256 = {
    (): (
        "494b9bd0c95f35f85823959fbb80437ddcb8ee70fd8e250dac89edaf36c80d79",
        "4e51811d582a706b0560bde945c80f8db2c7eb9e4c947ea82fd1ed8b610380e7",
        "4273316b4b11a4724b5225231ececcb36df10e9e967433549d2915d77d633abd",
        "46789f9e20f5e69a95a22308e6d41539fae92a75dda095586e41d7b5a708abed",
    ),
    ("--n", "3", "--order", "6"): (
        "eb0af1d0eb82bb2421ccf5ef4a37ac940a0f163732d03859b6e93e5224ad300c",
        "6ad29a0cc6d3b2169d2d87d83838cd01e216fdd28aec9f7d118f3428454ce225",
        "3b7d1352174f0c502e64f063c7eafb8fe335c27994525529c59a563ad69982ca",
        "1022d8d15b53dbe98afc00adf9a517795cd3b10d9ca0f88e333a764690e844c7",
    ),
    ("--n", "4", "--theta", "1,2,1,1", "--lambda0", "1,1,1,1", "--lambda2", "1/4,1/8,1/2,1/4",
     "--order", "4"): (
        "15519908ddf56b79434b6fd84370802b1c1ec8067b2477180dabaee093073074",
        "05d238bec423a89755961394e440b6d0039ff7632523248eb00348693d72cf9e",
        "6bebc0bf34f6fd67e0d6f5d8b5607b3e9f1e35d67be31d430b0b993e406036fa",
        "ebc12f9dca372f47639ff80b96d11f19272ac8b70a99b45646766169ceeaefaa",
    ),
    ("--k", "1"): (
        "d1a403472b79a6dbef15c54682ad0320d749f4c1812a8c64caed4ce15342386f",
        "f228d99ef5d458541c0603195485925b63565d21e94a09cebe2f560124cb3df0",
        "eeceb3a8c5312a15ee91ad2f83e614b48ee04aff6c00d6d399275a9f489fae84",
        "953d54e35be63fc53ff6653993e8b3254f0fe4d87f065da8965dbc4ef130cb6b",
    ),
    ("--k", "2"): (
        "cf8c34c234999317b91c1bc6f33523545265a77f6807aafcc8c6704104df6775",
        "2919440587416ae9f87a3166135203b4b748ced8714962cbd736562d5425f601",
        "f7fc3b967fbc3f96066ad73f8db67b9b725b6c669ba79f218cdaed87cabbc4dc",
        "996afe44250eef23742cc28900af437da68ea0efa79037d9a6d851b56a41d306",
    ),
    ("--pair", "1,2=1/3"): (
        "cd8bc41e557773ba0496ec4b70745fe470fe91109afe109e23aa8f5b7e74f21d",
        "e35a2541989a1dcde54e222a681ea8ba3f7a3255450fbee5b6ce12eea8e75f4f",
        "915ff93910a7d123ed09ad02bf6a804406612e78c407603dedebd269ade58437",
        "5103747cc304078433a0dc367008472f6f6ac9fd37fe156fdbd4df5385320601",
    ),
    ("--order", "0"): (
        "abca50094f19e524d86ead5a41d0b6ece55ac6b143feadf80a91b7ca96af1274",
        "8191b5251a91d02c4ca6a57bea0840711dcfb31e9b3261aab64c5ed2c9f0c5ce",
        "cbceb25d2138889a3bc5378f4931feaca7c3a308aeb8463f5d4bc173c4d22e92",
        "bcf823cabe64233e056a0fc72be4887fa28a560f99e4449d883aac2d87188bdc",
    ),
}


@pytest.mark.parametrize("argv", list(RESIDUAL_SHA256), ids=lambda a: " ".join(a) or "defaults")
def test_residual_output_bytes_pinned(argv, tmp_path, capsys):
    digests = []
    for extra in ([], ["--format", "json"]):
        assert main(["residual", *argv, *extra]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    for suffix in ("csv", "json"):
        out = tmp_path / f"residual.{suffix}"
        assert main(["residual", *argv, "--output", str(out)]) == 0
        capsys.readouterr()
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert tuple(digests) == RESIDUAL_SHA256[argv]


@pytest.mark.parametrize("command", [["residual", "--order", "2", "--points", "3"], ["spectrum"]])
def test_table_rows_built_only_for_csv_output(command, tmp_path, capsys, monkeypatch):
    # the CSV rows of a table report are built for a *.csv --output only
    built = []
    table_save = cli._table_save

    def counting_save(body, header, rows):
        return table_save(body, header, lambda: built.append(1) or rows())

    monkeypatch.setattr(cli, "_table_save", counting_save)
    for extra in ([], ["--format", "json"], ["--output", str(tmp_path / "report.json")]):
        assert main([*command, *extra]) == 0
    assert built == []
    out = tmp_path / "report.csv"
    assert main([*command, "--output", str(out)]) == 0
    assert built == [1]
    assert len(out.read_text().splitlines()) > 1
    capsys.readouterr()


def test_oracle_command(capsys):
    code = main(["oracle", "--theta", "2,0,0", "--N", "8",
                 "wave(1,0,0)", "wave(0,1,0)", "wave(0,0,1)"])
    assert code == 0
    out = capsys.readouterr().out
    err = float(out.split("=")[1])
    assert err <= 1e-9


def _pinned_wave_text(rng, freqs):
    parts = []
    for f in freqs:
        a, b = rng.randint(-8, 8), rng.randint(1, 8)
        parts.append(f"({a}/8 {rng.choice('+-')} {b}/8i)*wave({','.join(map(str, f))})")
    return " + ".join(parts)


def _pinned_oracle_inputs():
    rng = random.Random("oracle-pin")
    cube = list(itertools.product((-1, 0, 1), repeat=3))
    unit = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    star = [(0,) * 4] + unit + [tuple(-v for v in u) for u in unit]
    return [("3", "1,-1/2,2", [_pinned_wave_text(rng, cube) for _ in range(3)]),
            ("4", "1,2,-1,1/2", [_pinned_wave_text(rng, star) for _ in range(4)])]


# sha256 of json.dumps(closed_form), measured before star_waves merged its
# output with arrays: the 27-term n = 3 and the 9-term n = 4 input.
ORACLE_CLOSED_FORM_SHA256 = [
    "763f9f937efdf73152ded8b2ae8420b5f384cb5db370b56be7ad3155a72d88a4",
    "31ff75c1ff3a0d15c1258e621547cf2ee716ee7c14e7cc6f152574799d24f44a",
]


def test_oracle_closed_form_pinned(capsys):
    for (n, theta, texts), digest in zip(_pinned_oracle_inputs(), ORACLE_CLOSED_FORM_SHA256):
        assert main(["oracle", "--n", n, "--N", "8", f"--theta={theta}", "--format", "json",
                     *texts]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["max_relative_error"] <= 1e-12
        assert hashlib.sha256(json.dumps(body["closed_form"]).encode()).hexdigest() == digest


def test_oracle_rejects_period_that_does_not_fit_waves(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    waves = ["wave(1,0,0)", "wave(0,1,0)", "wave(0,0,1)"]
    (tmp_path / "nstar.json").write_text(json.dumps({"N": "4", "L": 3}))
    assert main(["oracle", *waves]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["code"] == "usage"
    assert "wave 1 (wave(1,0,0))" in error["message"]
    assert "L = 3.0" in error["message"]
    (tmp_path / "nstar.json").unlink()
    assert main(["oracle", "--N", "4", *waves]) == 0  # the default L = 2*pi fits
    assert float(capsys.readouterr().out.split("=")[1]) <= 1e-9


@pytest.mark.parametrize("period", ["inf", "nan", "1e-320"])
def test_oracle_rejects_non_finite_period(period, capsys):
    # L = 1e-320 is positive and finite, but 2*pi/L is not
    assert main(["oracle", "--L", period, "wave(0,0,0)", "wave(0,0,0)", "wave(0,0,0)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["code"] == "usage"
    assert f"period L = {float(period)!r}" in error["message"]


@pytest.mark.parametrize("budget", ["100", "0.5"])
def test_oracle_budget_is_checked_before_sampling(budget, monkeypatch, capsys):
    # a budget in (0, 1] is a positive budget too: a budget error, not a usage error
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the budget check")
    monkeypatch.setattr(WaveSum, "sample_on_grid", no_sampling)
    assert main(["oracle", "--N", "8", "--budget", budget,
                 "wave(1,0,0)", "wave(0,1,0)", "wave(0,0,1)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["code"] == "budget"
    assert "8^3" in error["message"] and f"budget {float(budget):.3g}" in error["message"]


@pytest.mark.parametrize("budget", ["nan", "0", "-1", "-2.5"])
def test_oracle_rejects_a_budget_that_bounds_nothing(budget, monkeypatch, capsys):
    # NaN compares false with every cost, so it would switch both budget checks off
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with an invalid budget")
    monkeypatch.setattr(WaveSum, "sample_on_grid", no_sampling)
    assert main(["oracle", "--N", "8", "--budget", budget,
                 "wave(1,0,0)", "wave(0,1,0)", "wave(0,0,1)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["code"] == "usage"
    assert "--budget must be positive" in error["message"]


@pytest.mark.parametrize("argv", [
    ["oracle", "--N", "8", "--budget", "-inf"],
    ["oracle", "--N", "8", "--budget=-inf"],
    ["oracle", "--N", "8", "--budget", "-INF"],
    ["oracle", "--N", "8", "--budget", "-nan"],
    ["star", "--theta", "-inf,1,1"],
    ["star", "--theta", "-NaN,1,1"],
    ["star", "--theta=-NaN,1,1"],
])
def test_negative_inf_and_nan_are_values_not_flags(argv, capsys):
    # argparse alone reads a leading -inf or -nan as a flag and ends in its
    # plain-text error; read as a value, the flag's own check rejects it
    assert main([*argv, "wave(1,0,0)", "wave(0,1,0)", "wave(0,0,1)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["code"] == "usage"
    assert ("--budget must be positive" if argv[0] == "oracle" else "malformed theta") \
        in error["message"]


@pytest.mark.parametrize("argv, message", [
    (["star", "--theta=1/0,1,1", "x1", "x2", "x3"],
     "malformed theta '1/0,1,1': component 1: zero denominator"),
    (["star", "--theta", "1,one,1", "x1", "x2", "x3"],
     "malformed theta '1,one,1': component 2: not a number"),
    (["residual", "--lambda0", "1,1/0,1"],
     "malformed lambda0 '1,1/0,1': component 2: zero denominator"),
    (["residual", "--lambda0", "1,1,"],
     "malformed lambda0 '1,1,': component 3: not a number"),
    (["residual", "--pair", "1,2,1/0"],
     "malformed pair coupling '1,2,1/0': expected i,j=value"),
    (["residual", "--pair", "1,2,3=1"],
     "malformed pair coupling '1,2,3=1': expected i,j=value"),
    (["residual", "--pair", "1,b=2"],
     "malformed pair coupling '1,b=2': component 2: not an integer"),
    (["residual", "--pair", "1,2=1/0"],
     "malformed pair coupling '1,2=1/0': component 3: zero denominator"),
    (["spectrum", "--nbar", "0,1/2,0"],
     "malformed nbar '0,1/2,0': component 2: not an integer"),
])
def test_number_list_flags_name_the_bad_component(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error == {"code": "usage", "message": message}


def test_oracle_budget_inf_is_no_limit(capsys):
    assert main(["oracle", "--N", "4", "--budget", "inf", "--format", "json",
                 "wave(1,0,0)", "wave(0,1,0)", "wave(0,0,1)"]) == 0
    assert json.loads(capsys.readouterr().out)["max_relative_error"] < 1e-9


@pytest.mark.parametrize("wave", ["wave(2,0,0)", "wave(3,0,0)", "wave(-3,0,0)"])
def test_oracle_rejects_wave_outside_lattice_band(wave, capsys):
    # N = 4 resolves the integer frequencies -2..1; beyond them the DFT aliases
    assert main(["oracle", "--N", "4", wave, "wave(0,1,0)", "wave(0,0,1)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["code"] == "usage"
    assert f"wave 1 ({wave})" in error["message"]
    assert "N = 4" in error["message"]
    assert main(["oracle", "--N", "4", "wave(-2,0,0)", "wave(0,1,0)", "wave(0,0,1)"]) == 0
    assert float(capsys.readouterr().out.split("=")[1]) <= 1e-9


@pytest.mark.parametrize("component", ["1e290", "-1e290"])
def test_oracle_rejects_a_frequency_past_the_float_range_in_lattice_steps(component, capsys):
    # at L = 1e300 a step 2*pi/L is about 6.3e-300, so 1e290 is an infinite
    # number of steps: out of band, named like any other out-of-band frequency
    wave = f"wave({component},0,0)"
    assert main(["oracle", "--N", "8", "--L", "1e300", wave, "wave(0,1,0)", "wave(0,0,1)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"code": "usage", "message": (
        f"wave 1 ({wave}) has frequency {float(component)!r}, which is past the float range in "
        f"units of 2*pi/L, outside the band -4..3 that an N = 8 lattice resolves")}}


def _check_lattice_fit_loop(texts, waves, grid):
    """Reference: the lattice-fit check component by component, in term order."""
    N = grid.points_per_axis
    ints = grid.int_freqs()
    low, high = int(ints.min()), int(ints.max())
    for pos, (text, wave) in enumerate(zip(texts, waves), start=1):
        for _, freq in wave.terms:
            for v in freq:
                steps = v / grid.base_freq
                if math.isinf(steps):
                    raise cli.UsageError(
                        f"wave {pos} ({text}) has frequency {v!r}, which is past the float range "
                        f"in units of 2*pi/L, outside the band {low}..{high} that an N = {N} "
                        f"lattice resolves")
                k = round(steps)
                if abs(steps - k) > cli.LATTICE_FIT_TOL:
                    raise cli.UsageError(
                        f"wave {pos} ({text}) has frequency {v!r}, which is not an integer "
                        f"multiple of 2*pi/L for L = {grid.period!r}")
                if not low <= k <= high:
                    raise cli.UsageError(
                        f"wave {pos} ({text}) has frequency {v!r} = {k} x 2*pi/L, "
                        f"outside the band {low}..{high} that an N = {N} lattice resolves")


def _fit_outcome(check, texts, waves, grid):
    try:
        check(texts, waves, grid)
    except cli.UsageError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("n", [3, 4])
def test_lattice_fit_check_matches_the_component_loop(n):
    rng = random.Random(900 + n)
    N = 8
    outcomes = set()
    for case in range(300):
        grid = GridSpec(n, N, rng.choice([2 * math.pi, 2 * math.pi / 3, 1.5]))
        step, bad = grid.base_freq, rng.choice([0.0, 0.1, 0.4])  # the share of bad components

        def component():
            kind = rng.random()
            if kind >= bad:  # in band
                return step * rng.randint(-N // 2, N // 2 - 1)
            if kind < bad / 2:  # out of band, on the lattice
                return step * rng.choice([-N // 2 - 1, N // 2, N // 2 + 3, -3 * N])
            return step * (rng.randint(-4, 4) + rng.choice([0.5, 0.25, 1e-6, -0.3]))  # off lattice

        waves = [WaveSum(n, [(1 + 0j, tuple(component() for _ in range(n)))
                                 for _ in range(rng.randint(1, 6))]) for _ in range(n)]
        texts = [f"w{j}" for j in range(n)]
        want = _fit_outcome(_check_lattice_fit_loop, texts, waves, grid)
        assert _fit_outcome(cli._check_lattice_fit, texts, waves, grid) == want
        outcomes.add("fits" if want is None else
                     "off lattice" if "not an integer multiple" in want[1] else "out of band")
    assert outcomes == {"fits", "off lattice", "out of band"}


def test_lattice_fit_check_matches_the_component_loop_at_extremes():
    # an infinite step (2*pi/L underflows against the frequency) is out of
    # band, at either sign; -0.0 and a half step round half to even
    grid = GridSpec(3, 8, 1e300)
    huge = [WaveSum(3, [(1, (0, 0, 1e290))]), WaveSum(3), constant(1, 3)]
    negative = [WaveSum(3, [(1, (-1e290, 0, 0))])] * 3
    tiny = [WaveSum(3, [(1, (-0.0, 2.5 * grid.base_freq, 0))])] * 3
    for waves in (huge, negative, tiny):
        want = _fit_outcome(_check_lattice_fit_loop, "abc", waves, grid)
        assert want is not None and want[0] is cli.UsageError
        assert _fit_outcome(cli._check_lattice_fit, "abc", waves, grid) == want


# -- wave output, byte for byte ---------------------------------------------------

# One product with nested sums, a power, a p/q frequency component and
# repeated output frequencies; the strings are the output of the code before
# the wave front end was flattened (lowering, tokens, JSON built once).
WAVE_FACTORS = ["(1/2 + 3i)*(wave(1,0,0) - wave(0,1,0))^2", "2*wave(0,0,1) - 1i*wave(1,1,0)",
                "wave(1,0,0) + 1/4"]
WAVE_STAR_ARGS = ["star", "--theta", "1,1/2,-1",
                  WAVE_FACTORS[0] + " + wave(1/3,-2,0.5)", *WAVE_FACTORS[1:]]

WAVE_STAR_TEXT = (
    '((0.25+1.5j))*exp(i[0.0, 2.0, 1.0].x)'
    ' + ((0.5+0j))*exp(i[0.3333333333333333, -2.0, 1.5].x)'
    ' + ((-0.5-3j))*exp(i[1.0, 1.0, 1.0].x)'
    ' + ((1.6487212707001282+9.89232762420077j))*exp(i[1.0, 2.0, 1.0].x)'
    ' + ((0.75-0.125j))*exp(i[1.0, 3.0, 0.0].x)'
    ' + ((1.2130613194252668+0j))*exp(i[1.3333333333333333, -2.0, 1.5].x)'
    ' + (-0.25j)*exp(i[1.3333333333333333, -1.0, 0.5].x)'
    ' + ((0.25+1.5j))*exp(i[2.0, 0.0, 1.0].x)'
    ' + ((-2.568050833375483-15.408305000252897j))*exp(i[2.0, 1.0, 1.0].x)'
    ' + ((-1.5+0.25j))*exp(i[2.0, 2.0, 0.0].x)'
    ' + ((3-0.5j))*exp(i[2.0, 3.0, 0.0].x)'
    ' + (-1.2840254166877414j)*exp(i[2.333333333333333, -1.0, 0.5].x)'
    ' + ((1+6j))*exp(i[3.0, 0.0, 1.0].x)'
    ' + ((0.75-0.125j))*exp(i[3.0, 1.0, 0.0].x)'
    ' + ((-6+1j))*exp(i[3.0, 2.0, 0.0].x)'
    ' + ((3-0.5j))*exp(i[4.0, 1.0, 0.0].x)\n'
)

WAVE_STAR_JSON = (
    '{"n": 3, "terms": [{"re": 0.25, "im": 1.5, "freq": [0.0, 2.0, 1.0]}'
    ', {"re": 0.5, "im": 0.0, "freq": [0.3333333333333333, -2.0, 1.5]}'
    ', {"re": -0.5, "im": -3.0, "freq": [1.0, 1.0, 1.0]}'
    ', {"re": 1.6487212707001282, "im": 9.89232762420077, "freq": [1.0, 2.0, 1.0]}'
    ', {"re": 0.75, "im": -0.125, "freq": [1.0, 3.0, 0.0]}'
    ', {"re": 1.2130613194252668, "im": 0.0, "freq": [1.3333333333333333, -2.0, 1.5]}'
    ', {"re": 0.0, "im": -0.25, "freq": [1.3333333333333333, -1.0, 0.5]}'
    ', {"re": 0.25, "im": 1.5, "freq": [2.0, 0.0, 1.0]}'
    ', {"re": -2.568050833375483, "im": -15.408305000252897, "freq": [2.0, 1.0, 1.0]}'
    ', {"re": -1.5, "im": 0.25, "freq": [2.0, 2.0, 0.0]}'
    ', {"re": 3.0, "im": -0.5, "freq": [2.0, 3.0, 0.0]}'
    ', {"re": 0.0, "im": -1.2840254166877414, "freq": [2.333333333333333, -1.0, 0.5]}'
    ', {"re": 1.0, "im": 6.0, "freq": [3.0, 0.0, 1.0]}'
    ', {"re": 0.75, "im": -0.125, "freq": [3.0, 1.0, 0.0]}'
    ', {"re": -6.0, "im": 1.0, "freq": [3.0, 2.0, 0.0]}'
    ', {"re": 3.0, "im": -0.5, "freq": [4.0, 1.0, 0.0]}]}\n'
)

WAVE_ORACLE_JSON_TAIL = (
    '"N": 8, "L": 6.283185307179586, "closed_form": '
    '{"n": 3, "terms": [{"re": 0.25, "im": 1.5, "freq": [0.0, 2.0, 1.0]}'
    ', {"re": -0.5, "im": -3.0, "freq": [1.0, 1.0, 1.0]}'
    ', {"re": 1.6487212707001282, "im": 9.89232762420077, "freq": [1.0, 2.0, 1.0]}'
    ', {"re": 0.75, "im": -0.125, "freq": [1.0, 3.0, 0.0]}'
    ', {"re": 0.25, "im": 1.5, "freq": [2.0, 0.0, 1.0]}'
    ', {"re": -2.568050833375483, "im": -15.408305000252897, "freq": [2.0, 1.0, 1.0]}'
    ', {"re": -1.5, "im": 0.25, "freq": [2.0, 2.0, 0.0]}'
    ', {"re": 3.0, "im": -0.5, "freq": [2.0, 3.0, 0.0]}'
    ', {"re": 1.0, "im": 6.0, "freq": [3.0, 0.0, 1.0]}'
    ', {"re": 0.75, "im": -0.125, "freq": [3.0, 1.0, 0.0]}'
    ', {"re": -6.0, "im": 1.0, "freq": [3.0, 2.0, 0.0]}'
    ', {"re": 3.0, "im": -0.5, "freq": [4.0, 1.0, 0.0]}]}}\n'
)


def test_wave_star_output_is_pinned(capsys):
    assert main(WAVE_STAR_ARGS) == 0
    assert capsys.readouterr().out == WAVE_STAR_TEXT
    assert main(WAVE_STAR_ARGS + ["--format", "json"]) == 0
    assert capsys.readouterr().out == WAVE_STAR_JSON


def test_wave_oracle_output_is_pinned(capsys):
    assert main(["oracle", "--theta", "1,1/2,-1", "--N", "8", "--format", "json",
                 *WAVE_FACTORS]) == 0
    # the lattice error is numpy's FFT rounding, which need not match to the
    # last bit across numpy builds; every other byte is this package's
    head, _, tail = capsys.readouterr().out.partition(", ")
    assert head.startswith('{"max_relative_error": ') and float(head.split(": ")[1]) <= 1e-12
    assert tail == WAVE_ORACLE_JSON_TAIL


def test_overflowing_merged_wave_coefficient_is_a_usage_error(capsys):
    big = "(10^154)*wave(1,0,0) + (10^154)*wave(0,1,0)"
    big_swapped = "(10^154)*wave(0,1,0) + (10^154)*wave(1,0,0)"
    assert main(["star", "--theta", "0,0,0", big, big_swapped, "wave(0,0,1)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = json.loads(captured.err)["error"]["message"]
    assert message.startswith("merged wave coefficient at frequency [1.0, 1.0, 1.0] is not finite")
    # a sum that overflows while the expression is lowered names its frequency too
    assert main(["star", "10^308*wave(1,0,0) + 10^308*wave(1,0,0)", "wave(0,1,0)",
                 "wave(0,0,1)"]) == 2
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message == "merged wave coefficient at frequency [1.0, 0.0, 0.0] is not finite: (inf+0j)"


def test_wave_overflow_diagnostics_name_the_input(capsys):
    assert main(OUT_OF_RANGE[-2]) == 2  # the kernel command at theta = 2000
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "[[10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]]" in message
    assert "(1000000+0j)" in message and "theta (2000, 0, 0)" in message
    assert main(OUT_OF_RANGE[-1]) == 2  # a frequency whose merge key overflows
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "[1e+300, 0.0, 0.0]" in message and "MERGE_TOL" in message


def test_wave_coefficient_overflow_exits_2(capsys):
    waves = ["(10^200)*wave(1,0,0)", "(10^200)*wave(0,1,0)", "wave(0,0,1)"]
    for argv in (["star", *waves], ["oracle", "--theta", "0,0,0", *waves]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = json.loads(captured.err)["error"]["message"]
        assert "not finite" in message and "term tuple [0, 0, 0]" in message


@pytest.mark.parametrize("command, flags, vectors", [
    ("omega", [], ["1,2,3", "-1,0,2"]),
    ("kernel", [], ["1,2,0", "-1,0,3", "0,-1,1"]),
    ("kernel", ["--format", "json", "--theta", "-1,2,-1/2"], ["-1.5,0,2", "0,1,0", "-.5,2,1"]),
])
def test_negative_vectors_are_positionals(command, flags, vectors, capsys):
    assert main([command, *flags, *vectors]) == 0
    plain = capsys.readouterr().out
    assert main([command, *flags, "--", *vectors]) == 0
    assert capsys.readouterr().out == plain


def test_config_file_defaults_and_flag_precedence(tmp_path):
    (tmp_path / "nstar.json").write_text(json.dumps({"n": 3, "theta": "2,0,0"}))
    proc = run_cli(["star", "x1", "x2", "x3"], cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x1*x2*x3 + i"  # theta from config
    proc = run_cli(["star", "--theta", "1,1,1", "x1", "x2", "x3"], cwd=tmp_path)
    assert proc.stdout.strip() == "x1*x2*x3 + (1/2)i"  # flag wins


def test_malformed_config_is_usage_error(tmp_path):
    (tmp_path / "nstar.json").write_text("{not json")
    proc = run_cli(["star", "x1", "x2", "x3"], cwd=tmp_path)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"]["code"] == "config"


# Config values of the wrong type for their flag: each exits 2 with a
# "config" diagnostic naming the key, before any output.
BAD_CONFIG = [
    ({"output": 5}, ["star", "x1", "x2", "x3"]),
    ({"output": 5}, ["spectrum"]),
    ({"k": 1.5}, ["spectrum"]),
    ({"k": True}, ["spectrum"]),
    ({"format": "xml"}, ["star", "x1", "x2", "x3"]),
    ({"trials": [1]}, ["verify"]),
]


def test_config_values_take_their_flag_type(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config_file = tmp_path / "nstar.json"
    for config, argv in BAD_CONFIG:
        config_file.write_text(json.dumps(config))
        assert main(argv) == 2, config
        captured = capsys.readouterr()
        assert captured.out == "", config
        error = json.loads(captured.err)["error"]
        assert error["code"] == "config", config
        assert repr(next(iter(config))) in error["message"], config
    assert list(tmp_path.iterdir()) == [config_file]

    # a JSON string converts as if typed on the command line
    config_file.write_text(json.dumps({"k": "2", "theta": "1,2,3"}))
    assert main(["spectrum"]) == 0
    assert capsys.readouterr().out == "E = 3\n"
    # a float flag takes a JSON integer; a budget of 10 would exit 2
    config_file.write_text(json.dumps({"N": 4, "budget": 10**9}))
    assert main(["oracle", "wave(1,0,0)", "wave(0,1,0)", "wave(0,0,1)"]) == 0


# Flags their commands never read: verify has no theta and prints only text,
# omega takes two 3-vectors whatever --n says.
REMOVED_FLAGS = [
    ["verify", "--trials", "1", "--n", "3"],
    ["verify", "--trials", "1", "--theta", "1,1,1"],
    ["verify", "--trials", "1", "--format", "json"],
    ["omega", "--n", "3", "0,1,0", "0,0,1"],
    ["omega", "--theta", "1,1,1", "0,1,0", "0,0,1"],
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=[" ".join(a) for a in REMOVED_FLAGS])
def test_flags_a_command_does_not_read_are_rejected(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_file_sets_hamiltonian_and_nbar(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config_file = tmp_path / "nstar.json"
    for config, flags in [({"lambda0": "2,3,5", "nbar": "2,1,0"}, []),
                          ({"lambda0": "2,3,5"}, ["--nbar", "2,1,0"]),
                          ({"nbar": "2,1,0"}, ["--lambda0", "2,3,5"])]:
        config_file.write_text(json.dumps(config))
        assert main(["spectrum", *flags]) == 0
        assert capsys.readouterr().out == "E = 15/2\n", config
    config_file.write_text(json.dumps({"lambda0": "2,3,5", "nbar": "2,1,0"}))
    assert main(["spectrum", "--lambda0", "1,1,1", "--nbar", "0,0,0"]) == 0
    assert capsys.readouterr().out == "E = 3/2\n"  # the flags win
    config_file.write_text(json.dumps({"lambda2": "1,1,1"}))
    assert main(["spectrum"]) == 2
    assert "--lambda2 requires --lambda0" in capsys.readouterr().err


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    argv = ["omega", "0,1,0", "0,0,1"]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    assert main(argv) == 0
    assert main(["kernel", "1,0,0", "0,1,0", "0,0,1"]) == 0
    assert built == []
    capsys.readouterr()


def test_every_flag_has_help(capsys):
    missing = [f"{name} --{flag_name}" for name, command in cli.COMMANDS.items()
               for flag_name, flag in command.flags.items() if not (flag.help or "").strip()]
    assert missing == []
    # argparse formats each help string and choice only here
    for argv in [["--help"]] + [[name, "--help"] for name in cli.COMMANDS]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv
    capsys.readouterr()


def readme_command_lines() -> list[str]:
    """The nstar lines of the fenced block under README's "Command line"."""
    section = (REPO / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("nstar ")]


# The README comments that show a command's output.
README_OUTPUTS = {"x1*x2*x3 + (1/2)i", "E = 3/2"}


def test_readme_command_line_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = readme_command_lines()
    assert len(lines) >= 10
    shown = set()
    for line in lines:
        command, _, comment = line.partition("#")
        assert main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        if comment.strip() in README_OUTPUTS:
            assert out == comment.strip() + "\n", line
            shown.add(comment.strip())
    assert shown == README_OUTPUTS


# The README comments that show a library call's result, up to a colon.
README_TOUR_RESULTS = {"x1*x2*x3 + (1/2)i", "i", "(1+0j)"}


def test_readme_library_quick_tour(tmp_path, monkeypatch):
    # every statement of the block runs; a call commented with a result shows it
    monkeypatch.chdir(tmp_path)
    section = (REPO / "README.md").read_text().split("\n## Library quick tour\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```\n", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    shown = set()
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        result = lines[stmt.lineno - 1].partition("#")[2].split(":")[0].strip()
        if result in README_TOUR_RESULTS:
            assert str(value) == result, lines[stmt.lineno - 1]
            shown.add(result)
    assert shown == README_TOUR_RESULTS


# sha256 of the stdout of the demos that print only exact values; 03 and 05
# print floats from numpy and libm, which may differ in the last digit
# between platforms
DEMO_STDOUT_SHA256 = {
    "01_star_product_basics.py": "7062011683c518fbeca09ad45fb140d5e6c85c4075ea280bab9a6d5df22a9462",
    "02_closed_form_identities.py": "bca788474009439ab0113b831f7a5e7360eb6f43061869d2027718d7940f707f",
    "04_identity_audit.py": "94b17228248beb9f88e28610a238c3b941327d80049247c162314dc6de0c9660",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_child([str(demo)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    if demo.name in DEMO_STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo.name]


def test_plane_wave_demo_oracle_errors_are_rounding(tmp_path):
    # demo 03 is not hash-pinned, so its lattice cross-checks are bounded here
    proc = run_child([str(REPO / "demos" / "03_plane_wave_kernel.py")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    errors = [float(v) for v in re.findall(r"max relative error (\S+)", proc.stdout)]
    assert len(errors) == 2
    assert all(err <= 1e-12 for err in errors), proc.stdout
