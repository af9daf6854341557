"""Command-line front end.

Commands: star, bracket, conj, kernel, omega, verify, spectrum,
residual, oracle.  Exact results print in canonical graded-lex form;
reports are emitted as JSON or CSV.  An optional ./nstar.json config
file supplies defaults; explicit flags win.

Exit codes: 0 success, 1 a guaranteed audit claim failed, 2 usage error
(bad flags, malformed expressions, dimension mismatches, out-of-range
values).
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .audit import all_guaranteed_hold, reports_to_json, run_suite
from .exprs import ExprError, contains_wave, lower_poly, lower_wave, parse_expression
from .oscillator import HamiltonianSpec, QuantumNumber, energy, residual_report
from .starcore import ThetaConfig, conjugate_star_n, star_bracket, star_n
from .waves import (
    GridSpec,
    WorkBudgetError,
    freq_cross,
    grid_oracle_star,
    kernel_weights,
    save_lattice,
    star_waves,
)

CONFIG_PATH = "nstar.json"
# How far a wave frequency, in units of 2*pi/L, may sit from an integer.
LATTICE_FIT_TOL = 1e-9


class UsageError(Exception):
    def __init__(self, message: str, code: str = "usage", line: int | None = None,
                 col: int | None = None):
        super().__init__(message)
        self.code = code
        self.line = line
        self.col = col

    def to_json(self) -> str:
        body = {"code": self.code, "message": str(self)}
        if self.line is not None:
            body["line"] = self.line
            body["col"] = self.col
        return json.dumps({"error": body})


def _load_config() -> dict:
    path = Path(CONFIG_PATH)
    if not path.is_file():
        return {}
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed config file {CONFIG_PATH}: {exc}", code="config")
    if not isinstance(data, dict):
        raise UsageError(f"config file {CONFIG_PATH} must hold a JSON object", code="config")
    return data


def _setting(args, config, name, default):
    """The flag's value, else the config file's, else default."""
    value = getattr(args, name)
    if value is not None:
        return value
    if name in config:
        return _config_value(args.flags[name], name, config[name])
    return default


def _config_value(flag: argparse.Action, name: str, raw):
    """A config value converted with its flag's type: a JSON string as if
    typed on the command line, a JSON number as an int or float flag's."""
    conv = flag.type or str
    numeric = {int: int, float: (int, float)}.get(conv, ())
    if isinstance(raw, str) or (isinstance(raw, numeric) and not isinstance(raw, bool)):
        try:
            value = conv(raw)
        except (ValueError, OverflowError):
            pass
        else:
            if flag.choices is None or value in flag.choices:
                return value
    expected = " or ".join(map(str, flag.choices)) if flag.choices else conv.__name__
    raise UsageError(f"config key {name!r}: expected {expected}, got {raw!r}", code="config")


def _parse_list(text: str, what: str, conv=Fraction) -> tuple:
    try:
        return tuple(conv(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed {what} {text!r}: {exc}")


def _theta_config(args, config) -> ThetaConfig:
    n = _setting(args, config, "n", 3)
    theta_raw = _setting(args, config, "theta", None)
    if theta_raw is None:
        theta = (Fraction(1),) * n
    else:
        theta = _parse_list(theta_raw, "theta")
    if len(theta) != n:
        raise UsageError(f"theta must have {n} components, got {len(theta)}")
    return ThetaConfig(n, theta)


def _parse_exprs(texts, n):
    return [parse_expression(t, n) for t in texts]


def _write_json(path: str, body) -> None:
    Path(path).write_text(json.dumps(body, indent=2) + "\n")


def _table_save(body, header: list[str], rows: list[list]):
    """save(path) for a report with a table: CSV for a *.csv path, else JSON."""
    def save(path: str) -> None:
        if not path.endswith(".csv"):
            _write_json(path, body)
            return
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return save


def _emit(text, body, args, config, save=None) -> None:
    """Print text(), or body() as JSON under --format json; write --output
    with save(path) when given, else body() as indented JSON.

    text and body are callables, so only the forms printed or written are
    rendered: formatting a large product takes as long as computing it."""
    fmt = _setting(args, config, "format", "text")
    out_path = _setting(args, config, "output", None)
    data = body() if fmt == "json" or (out_path and save is None) else None
    print(json.dumps(data) if fmt == "json" else text())
    if out_path:
        if save is None:
            _write_json(out_path, data)
        else:
            save(out_path)


def _emit_poly(result, args, config) -> None:
    _emit(lambda: str(result), lambda: {"n": result.n, "terms": result.to_json_terms()},
          args, config)


def _cmd_star(args, config) -> int:
    cfg = _theta_config(args, config)
    if len(args.exprs) != cfg.n:
        raise UsageError(f"star takes exactly {cfg.n} expressions, got {len(args.exprs)}")
    nodes = _parse_exprs(args.exprs, cfg.n)
    if any(contains_wave(nd) for nd in nodes):
        waves = [lower_wave(nd, cfg.n) for nd in nodes]
        result = star_waves(waves, cfg)
        _emit(lambda: str(result), lambda: json.loads(result.to_json()), args, config)
        return 0
    polys = [lower_poly(nd, cfg.n) for nd in nodes]
    _emit_poly(star_n(polys, cfg), args, config)
    return 0


def _cmd_bracket(args, config) -> int:
    cfg = _theta_config(args, config)
    if len(args.exprs) != cfg.n:
        raise UsageError(
            f"bracket takes the two outer factors plus {cfg.n - 2} middle factors "
            f"({cfg.n} expressions), got {len(args.exprs)}")
    nodes = _parse_exprs(args.exprs, cfg.n)
    polys = [lower_poly(nd, cfg.n) for nd in nodes]
    f, h, mids = polys[0], polys[1], polys[2:]
    _emit_poly(star_bracket(f, h, mids, cfg), args, config)
    return 0


def _cmd_conj(args, config) -> int:
    cfg = _theta_config(args, config)
    if len(args.exprs) != cfg.n:
        raise UsageError(f"conj takes exactly {cfg.n} expressions, got {len(args.exprs)}")
    nodes = _parse_exprs(args.exprs, cfg.n)
    polys = [lower_poly(nd, cfg.n) for nd in nodes]
    _emit_poly(conjugate_star_n(polys, cfg), args, config)
    return 0


def _cmd_kernel(args, config) -> int:
    cfg = _theta_config(args, config)
    if len(args.freqs) != cfg.n:
        raise UsageError(f"kernel takes {cfg.n} frequency vectors, got {len(args.freqs)}")
    vectors = [_parse_list(v, "frequency vector", float) for v in args.freqs]
    for v in vectors:
        if len(v) != cfg.n:
            raise UsageError(f"frequency vector must have {cfg.n} components, got {len(v)}")
    expo, weight = kernel_weights(vectors, cfg)
    mult = complex(weight)
    text = f"exponent = {expo.real!r} + {expo.imag!r}i\nmultiplier = {mult.real!r} + {mult.imag!r}i"
    body = {"exponent": {"re": expo.real, "im": expo.imag},
            "multiplier": {"re": mult.real, "im": mult.imag}}
    _emit(lambda: text, lambda: body, args, config)
    return 0


def _cmd_omega(args, config) -> int:
    q = _parse_list(args.q, "frequency vector", float)
    r = _parse_list(args.r, "frequency vector", float)
    if len(q) != 3 or len(r) != 3:
        raise UsageError("omega is defined for dimension 3 vectors")
    w = freq_cross(q, r)
    _emit(lambda: f"omega = {list(w)}", lambda: {"omega": list(w)}, args, config)
    return 0


def _cmd_verify(args, config) -> int:
    seed = _setting(args, config, "seed", 0)
    trials = _setting(args, config, "trials", 100)
    out_path = _setting(args, config, "output", "nstar_audit.json")
    reports = run_suite(seed=seed, trials=trials)
    Path(out_path).write_text(reports_to_json(reports) + "\n")
    for rep in reports:
        print(f"{rep.claim}: {rep.verdict}")
    ok = all_guaranteed_hold(reports)
    print(f"report written to {out_path}")
    print("guaranteed claims: " + ("all hold" if ok else "FAILURE"))
    return 0 if ok else 1


def _hamiltonian_spec(args, config, n) -> HamiltonianSpec:
    lam0 = getattr(args, "lambda0", None)
    lam2 = getattr(args, "lambda2", None)
    rows = []
    if lam0 is not None:
        rows.append(_parse_list(lam0, "lambda0"))
    if lam2 is not None:
        if lam0 is None:
            raise UsageError("--lambda2 requires --lambda0")
        rows.append(_parse_list(lam2, "lambda2"))
    for row in rows:
        if len(row) != n:
            raise UsageError(f"diagonal coefficient rows must have {n} entries")
    pairs = {}
    for spec_text in getattr(args, "pair", None) or []:
        try:
            key_text, val_text = spec_text.split("=")
            i, j = (int(v) for v in key_text.split(","))
            pairs[(i, j)] = Fraction(val_text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"malformed pair coupling {spec_text!r}: {exc}")
    return HamiltonianSpec(n, lambda_pair=pairs, diag_lambdas=tuple(rows) if rows else None)


def _cmd_spectrum(args, config) -> int:
    cfg = _theta_config(args, config)
    spec = _hamiltonian_spec(args, config, cfg.n)
    nbar = QuantumNumber(_parse_list(args.nbar, "nbar", int) if args.nbar else (0,) * cfg.n)
    if len(nbar.nbar) != cfg.n:
        raise UsageError(f"nbar must have {cfg.n} components")
    k = _setting(args, config, "k", 1)
    if not 1 <= k <= cfg.n:
        raise UsageError(f"k must be in 1..{cfg.n}")
    value = energy(k, nbar, cfg, spec)
    rows = [{"k": kk, "nbar": list(nbar.nbar),
             "energy": str(energy(kk, nbar, cfg, spec))}
            for kk in range(1, cfg.n + 1)]
    body = {"k": k, "nbar": list(nbar.nbar), "energy": str(value), "table": rows}
    csv_rows = [[row["k"], " ".join(map(str, row["nbar"])), row["energy"]] for row in rows]
    _emit(lambda: f"E = {value}", lambda: body, args, config,
          save=_table_save(body, ["k", "nbar", "energy"], csv_rows))
    return 0


def _cmd_residual(args, config) -> int:
    cfg = _theta_config(args, config)
    spec = _hamiltonian_spec(args, config, cfg.n)
    k = _setting(args, config, "k", 0)
    order = _setting(args, config, "order", 4)
    npoints = _setting(args, config, "points", 20)
    seed = _setting(args, config, "seed", 0)
    rng = random.Random(seed)
    points = [tuple(Fraction(rng.randint(-200, 200), 100) for _ in range(cfg.n))
              for _ in range(npoints)]
    report = residual_report(spec, cfg, k, order, points)

    def text() -> str:
        lines = [f"residuals for k={k}, n={cfg.n}, E={report['energy']} "
                 f"({npoints} points, order <= {order})",
                 "order  ground_max      ground_mean     eigen_max       eigen_mean"]
        lines += [f"{row['order']:>5}  {row['ground_max']:<14.8g}  {row['ground_mean']:<14.8g}"
                  f"  {row['eigen_max']:<14.8g}  {row['eigen_mean']:<14.8g}"
                  for row in report["rows"]]
        return "\n".join(lines)

    csv_rows = [[m, pi, repr(gv), repr(ev)]
                for m, (grow, erow) in enumerate(zip(report["ground_residuals"],
                                                     report["eigen_residuals"]))
                for pi, (gv, ev) in enumerate(zip(grow, erow))]
    header = ["order", "point_index", "ground_residual", "eigen_residual"]
    _emit(text, lambda: report, args, config, save=_table_save(report, header, csv_rows))
    return 0


def _check_lattice_fit(texts, waves, grid: GridSpec) -> None:
    """Every wave frequency must be an integer multiple of 2*pi/L, or the
    lattice samples are not periodic and the oracle compares nothing; and
    that integer must lie in the lattice's band, or the DFT aliases it to
    another frequency."""
    N = grid.points_per_axis
    low, high = -(N // 2), (N + 1) // 2 - 1  # the range of GridSpec.int_freqs()
    for pos, (text, wave) in enumerate(zip(texts, waves), start=1):
        for _, freq in wave.terms:
            for v in freq:
                steps = v / grid.base_freq
                k = round(steps)
                if abs(steps - k) > LATTICE_FIT_TOL:
                    raise UsageError(
                        f"wave {pos} ({text}) has frequency {v!r}, which is not an integer "
                        f"multiple of 2*pi/L for L = {grid.period!r}")
                if not low <= k <= high:
                    raise UsageError(
                        f"wave {pos} ({text}) has frequency {v!r} = {k} x 2*pi/L, "
                        f"outside the band {low}..{high} that an N = {N} lattice resolves")


def _cmd_oracle(args, config) -> int:
    cfg = _theta_config(args, config)
    if len(args.exprs) != cfg.n:
        raise UsageError(f"oracle takes exactly {cfg.n} wave expressions, got {len(args.exprs)}")
    N = _setting(args, config, "N", 8)
    L = _setting(args, config, "L", 2 * np.pi)
    budget = _setting(args, config, "budget", 1e8)
    grid = GridSpec(cfg.n, N, L)
    nodes = _parse_exprs(args.exprs, cfg.n)
    waves = [lower_wave(nd, cfg.n) for nd in nodes]
    _check_lattice_fit(args.exprs, waves, grid)
    closed = star_waves(waves, cfg)
    samples = [w.sample_on_grid(grid) for w in waves]
    lattice = grid_oracle_star(samples, grid, cfg, budget=budget)
    reference = closed.sample_on_grid(grid)
    scale = max(1e-300, float(np.abs(reference).max()))
    err = float(np.abs(lattice - reference).max()) / scale
    _emit(lambda: f"max relative error = {err!r}",
          lambda: {"max_relative_error": err, "N": N, "L": L,
                   "closed_form": json.loads(closed.to_json())}, args, config,
          save=lambda path: save_lattice(path, lattice, grid))
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None, help="space dimension (default 3)")
    parser.add_argument("--theta", type=str, default=None,
                        help="comma-separated rational deformation parameters")
    parser.add_argument("--format", choices=("text", "json"), default=None)
    parser.add_argument("--output", type=str, default=None)


class _Parser(argparse.ArgumentParser):
    """An argument that starts with a minus sign and a digit (or ".digit")
    is a value, never a flag: a negative number or a comma-separated vector
    such as -1,0,2.  argparse by default takes only a plain number such as
    -1 or -0.5 for a value, and reads "-1,0,2" as an unknown flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nstar",
        description="Exact n-ary star products, identity audits, and the oscillator application.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("star", help="star product of n expressions")
    _add_common(p)
    p.add_argument("exprs", nargs="+")
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("bracket", help="antisymmetrized product of the outer factors")
    _add_common(p)
    p.add_argument("exprs", nargs="+", help="f h middle1 [middle2 ...]")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("conj", help="conjugate star product of n expressions")
    _add_common(p)
    p.add_argument("exprs", nargs="+")
    p.set_defaults(func=_cmd_conj)

    p = sub.add_parser("kernel", help="plane-wave kernel exponent for n frequency vectors")
    _add_common(p)
    p.add_argument("freqs", nargs="+", help="comma-separated float vectors")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("omega", help="antisymmetric frequency combination (n=3)")
    _add_common(p)
    p.add_argument("q")
    p.add_argument("r")
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("verify", help="run the full identity audit suite")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectrum", help="closed-form oscillator eigenvalues")
    _add_common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--nbar", type=str, default=None)
    p.add_argument("--lambda0", type=str, default=None,
                   help="comma-separated diagonal quadratic coefficients")
    p.add_argument("--lambda2", type=str, default=None,
                   help="comma-separated diagonal quartic coefficients")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("residual", help="residual table for the eigenvalue equations")
    _add_common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lambda0", type=str, default=None)
    p.add_argument("--lambda2", type=str, default=None)
    p.add_argument("--pair", action="append", default=None,
                   help="pair coupling as i,j=value (repeatable)")
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser("oracle", help="cross-check wave star product on a lattice")
    _add_common(p)
    p.add_argument("--N", type=int, default=None, help="points per axis")
    p.add_argument("--L", type=float, default=None, help="period")
    p.add_argument("--budget", type=float, default=None, help="kernel work budget")
    p.add_argument("exprs", nargs="+")
    p.set_defaults(func=_cmd_oracle)

    for p in sub.choices.values():  # each command's flags, for typing config values
        p.set_defaults(flags={action.dest: action for action in p._actions})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config()
        return args.func(args, config)
    except ExprError as exc:
        err = UsageError(exc.message, code="parse-error", line=exc.line, col=exc.col)
        print(err.to_json(), file=sys.stderr)
        return 2
    except UsageError as exc:
        print(exc.to_json(), file=sys.stderr)
        return 2
    except WorkBudgetError as exc:
        print(UsageError(str(exc), code="budget").to_json(), file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:  # out-of-range values
        print(UsageError(str(exc)).to_json(), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
