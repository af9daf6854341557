import argparse
import hashlib
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nstar
from nstar.cli import main
from nstar.polynomials import Polynomial, x
from nstar.starcore import ThetaConfig, star_n
from nstar.waves import WaveSum

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
    product = Polynomial.from_json_terms(data["n"], data["terms"])
    assert any("rt2_re_num" in rec for rec in data["terms"])
    assert Polynomial.from_json_terms(3, product.to_json_terms()) == product


def test_only_the_requested_format_is_rendered(monkeypatch, capsys):
    # formatting a large product costs about as much as computing it
    rendered = []

    def counting(cls, name):
        original = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self: rendered.append(name) or original(self))

    counting(Polynomial, "__str__")
    counting(Polynomial, "to_json_terms")
    counting(WaveSum, "__str__")
    counting(WaveSum, "to_json")
    exprs = STAR_PIN_ARGS[1:]
    waves = ["--theta", "1,0,0", "wave(1,0,0)", "2*wave(0,1,0)", "wave(0,0,1)"]
    for argv in (["star", *exprs], ["conj", *exprs], ["bracket", *exprs], ["star", *waves]):
        assert main(argv[:1] + ["--format", "json"] + argv[1:]) == 0
        assert main(argv) == 0
    assert rendered == ["to_json_terms", "__str__"] * 3 + ["to_json", "__str__"]
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


def test_spectrum_value(capsys):
    code = main(["spectrum", "--k", "1", "--nbar", "0,0,0", "--theta", "1,1,1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "E = 3/2"


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


def test_omega_command(capsys):
    code = main(["omega", "0,1,0", "0,0,1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "omega = [1.0, 0.0, 0.0]"


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


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_child([str(demo)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
