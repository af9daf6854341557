"""Command-line front end.

Commands: star, bracket, conj, kernel, omega, verify, spectrum,
residual, oracle.  Exact results print in canonical graded-lex form;
reports are emitted as JSON or CSV.

One table, COMMANDS, declares every command: its help, its handler, its
positionals and its flags with their types, choices and defaults.  The
parser is built from it once per process.  main then sets each flag of
the chosen command in one place: from the command line, else from the
optional ./nstar.json config file (converted with the flag's type),
else from the flag's default.  The repeatable --pair is read from the
command line only.

Exit codes: 0 success, 1 a guaranteed audit claim failed, 2 usage error
(bad flags, malformed expressions, dimension mismatches, out-of-range
values).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

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


class Flag(NamedTuple):
    """A command's --flag.  A repeatable flag collects every occurrence
    and is never read from the config file."""
    type: type = str
    default: object = None
    choices: tuple | None = None
    help: str | None = None
    repeat: bool = False


class Command(NamedTuple):
    help: str
    handler: Callable[[argparse.Namespace], int]
    positionals: dict[str, dict]  # name -> add_argument keywords
    flags: dict[str, Flag]


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


def _config_value(flag: Flag, name: str, raw):
    """A config value converted with its flag's type: a JSON string as if
    typed on the command line, a JSON number as an int or float flag's."""
    conv = flag.type
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


def _component(part: str, index: int, conv, what: str, text: str):
    """Component `index` (1-based) of the flag value `text`, converted with
    `conv`; a usage error names the component and why it is rejected."""
    try:
        return conv(part.strip())
    except ZeroDivisionError:
        reason = "zero denominator"
    except ValueError:
        reason = "not an integer" if conv is int else "not a number"
    raise UsageError(f"malformed {what} {text!r}: component {index}: {reason}")


def _parse_list(text: str, what: str, conv=Fraction) -> tuple:
    return tuple(_component(part, i, conv, what, text) for i, part in enumerate(text.split(","), 1))


def _theta_config(args) -> ThetaConfig:
    if args.theta is None:
        theta = (Fraction(1),) * args.n
    else:
        theta = _parse_list(args.theta, "theta")
    if len(theta) != args.n:
        raise UsageError(f"theta must have {args.n} components, got {len(theta)}")
    return ThetaConfig(args.n, theta)


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


def _emit(text, body, args, save=None) -> None:
    """Print text(), or body() as JSON under --format json; write --output
    with save(path) when given, else body() as indented JSON.

    text and body are callables, so only the forms printed or written are
    rendered: formatting a large product takes as long as computing it."""
    data = body() if args.format == "json" or (args.output and save is None) else None
    print(json.dumps(data) if args.format == "json" else text())
    if args.output:
        if save is None:
            _write_json(args.output, data)
        else:
            save(args.output)


def _cmd_product(args) -> int:
    """star, conj and bracket: one product of n expressions."""
    cfg = _theta_config(args)
    if len(args.exprs) != cfg.n:
        takes = (f"the two outer factors plus {cfg.n - 2} middle factors ({cfg.n} expressions)"
                 if args.command == "bracket" else f"exactly {cfg.n} expressions")
        raise UsageError(f"{args.command} takes {takes}, got {len(args.exprs)}")
    nodes = _parse_exprs(args.exprs, cfg.n)
    if args.command == "star" and any(contains_wave(nd) for nd in nodes):
        result = star_waves([lower_wave(nd, cfg.n) for nd in nodes], cfg)
    else:
        polys = [lower_poly(nd, cfg.n) for nd in nodes]
        if args.command == "bracket":
            result = star_bracket(polys[0], polys[1], polys[2:], cfg)
        elif args.command == "conj":
            result = conjugate_star_n(polys, cfg)
        else:
            result = star_n(polys, cfg)
    _emit(lambda: str(result), lambda: {"n": result.n, "terms": result.to_json_terms()}, args)
    return 0


def _cmd_kernel(args) -> int:
    cfg = _theta_config(args)
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
    _emit(lambda: text, lambda: body, args)
    return 0


def _cmd_omega(args) -> int:
    q = _parse_list(args.q, "frequency vector", float)
    r = _parse_list(args.r, "frequency vector", float)
    if len(q) != 3 or len(r) != 3:
        raise UsageError("omega is defined for dimension 3 vectors")
    w = freq_cross(q, r)
    _emit(lambda: f"omega = {list(w)}", lambda: {"omega": list(w)}, args)
    return 0


def _cmd_verify(args) -> int:
    reports = run_suite(seed=args.seed, trials=args.trials)
    Path(args.output).write_text(reports_to_json(reports) + "\n")
    for rep in reports:
        print(f"{rep.claim}: {rep.verdict}")
    ok = all_guaranteed_hold(reports)
    print(f"report written to {args.output}")
    print("guaranteed claims: " + ("all hold" if ok else "FAILURE"))
    return 0 if ok else 1


def _hamiltonian_spec(args, n) -> HamiltonianSpec:
    rows = []
    if args.lambda0 is not None:
        rows.append(_parse_list(args.lambda0, "lambda0"))
    if args.lambda2 is not None:
        if args.lambda0 is None:
            raise UsageError("--lambda2 requires --lambda0")
        rows.append(_parse_list(args.lambda2, "lambda2"))
    for row in rows:
        if len(row) != n:
            raise UsageError(f"diagonal coefficient rows must have {n} entries")
    pairs = {}
    for spec_text in getattr(args, "pair", ()):
        key_text, eq, val_text = spec_text.partition("=")
        key = key_text.split(",")
        if not eq or len(key) != 2:
            raise UsageError(f"malformed pair coupling {spec_text!r}: expected i,j=value")
        i, j = (_component(part, c, int, "pair coupling", spec_text) for c, part in enumerate(key, 1))
        pairs[(i, j)] = _component(val_text, 3, Fraction, "pair coupling", spec_text)
    return HamiltonianSpec(n, lambda_pair=pairs, diag_lambdas=tuple(rows) if rows else None)


def _cmd_spectrum(args) -> int:
    cfg = _theta_config(args)
    spec = _hamiltonian_spec(args, cfg.n)
    nbar = QuantumNumber(_parse_list(args.nbar, "nbar", int) if args.nbar else (0,) * cfg.n)
    if len(nbar.nbar) != cfg.n:
        raise UsageError(f"nbar must have {cfg.n} components")
    k = args.k
    if not 1 <= k <= cfg.n:
        raise UsageError(f"k must be in 1..{cfg.n}")
    value = energy(k, nbar, cfg, spec)
    rows = [{"k": kk, "nbar": list(nbar.nbar),
             "energy": str(energy(kk, nbar, cfg, spec))}
            for kk in range(1, cfg.n + 1)]
    body = {"k": k, "nbar": list(nbar.nbar), "energy": str(value), "table": rows}
    csv_rows = [[row["k"], " ".join(map(str, row["nbar"])), row["energy"]] for row in rows]
    _emit(lambda: f"E = {value}", lambda: body, args,
          save=_table_save(body, ["k", "nbar", "energy"], csv_rows))
    return 0


def _cmd_residual(args) -> int:
    cfg = _theta_config(args)
    spec = _hamiltonian_spec(args, cfg.n)
    k, order, npoints = args.k, args.order, args.points
    rng = random.Random(args.seed)
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
    _emit(text, lambda: report, args, save=_table_save(report, header, csv_rows))
    return 0


def _check_lattice_fit(texts, waves, grid: GridSpec) -> None:
    """Every wave frequency must be an integer multiple of 2*pi/L, or the
    lattice samples are not periodic and the oracle compares nothing; and
    that integer must lie in the lattice's band, or the DFT aliases it to
    another frequency."""
    N = grid.points_per_axis
    ints = grid.int_freqs()
    low, high = int(ints.min()), int(ints.max())
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


def _cmd_oracle(args) -> int:
    cfg = _theta_config(args)
    if len(args.exprs) != cfg.n:
        raise UsageError(f"oracle takes exactly {cfg.n} wave expressions, got {len(args.exprs)}")
    grid = GridSpec(cfg.n, args.N, args.L)
    if not args.budget > 0:  # a NaN budget would pass every comparison below
        raise UsageError(f"--budget must be positive (inf for no limit), got {args.budget!r}")
    # checked before sampling: the oracle's cost is at least N^n once a factor is nonzero
    if args.N ** cfg.n > args.budget:
        raise WorkBudgetError(f"lattice of N^n = {args.N}^{cfg.n} points exceeds "
                              f"budget {args.budget:.3g}")
    nodes = _parse_exprs(args.exprs, cfg.n)
    waves = [lower_wave(nd, cfg.n) for nd in nodes]
    _check_lattice_fit(args.exprs, waves, grid)
    closed = star_waves(waves, cfg)
    samples = [w.sample_on_grid(grid) for w in waves]
    lattice = grid_oracle_star(samples, grid, cfg, budget=args.budget)
    reference = closed.sample_on_grid(grid)
    scale = max(1e-300, float(np.abs(reference).max()))
    err = float(np.abs(lattice - reference).max()) / scale
    _emit(lambda: f"max relative error = {err!r}",
          lambda: {"max_relative_error": err, "N": args.N, "L": args.L,
                   "closed_form": {"n": closed.n, "terms": closed.to_json_terms()}}, args,
          save=lambda path: save_lattice(path, lattice, grid))
    return 0


_THETA = {"n": Flag(int, 3, help="space dimension (default 3)"),
          "theta": Flag(help="comma-separated rational deformation parameters")}
_FORM = {"format": Flag(default="text", choices=("text", "json")), "output": Flag()}
_LAMBDAS = {"lambda0": Flag(help="comma-separated diagonal quadratic coefficients"),
            "lambda2": Flag(help="comma-separated diagonal quartic coefficients")}
_EXPRS = {"exprs": {"nargs": "+"}}

COMMANDS: dict[str, Command] = {
    "star": Command("star product of n expressions", _cmd_product, _EXPRS,
                    {**_THETA, **_FORM}),
    "bracket": Command("antisymmetrized product of the outer factors", _cmd_product,
                       {"exprs": {"nargs": "+", "help": "f h middle1 [middle2 ...]"}},
                       {**_THETA, **_FORM}),
    "conj": Command("conjugate star product of n expressions", _cmd_product, _EXPRS,
                    {**_THETA, **_FORM}),
    "kernel": Command("plane-wave kernel exponent for n frequency vectors", _cmd_kernel,
                      {"freqs": {"nargs": "+", "help": "comma-separated float vectors"}},
                      {**_THETA, **_FORM}),
    "omega": Command("antisymmetric frequency combination (n=3)", _cmd_omega,
                     {"q": {}, "r": {}}, _FORM),
    "verify": Command("run the full identity audit suite", _cmd_verify, {},
                      {"seed": Flag(int, 0), "trials": Flag(int, 100),
                       "output": Flag(default="nstar_audit.json")}),
    "spectrum": Command("closed-form oscillator eigenvalues", _cmd_spectrum, {},
                        {**_THETA, "k": Flag(int, 1), "nbar": Flag(), **_LAMBDAS, **_FORM}),
    "residual": Command("residual table for the eigenvalue equations", _cmd_residual, {},
                        {**_THETA, "k": Flag(int, 0), "order": Flag(int, 4),
                         "points": Flag(int, 20), "seed": Flag(int, 0), **_LAMBDAS,
                         "pair": Flag(default=(), repeat=True,
                                      help="pair coupling as i,j=value (repeatable)"),
                         **_FORM}),
    "oracle": Command("cross-check wave star product on a lattice", _cmd_oracle, _EXPRS,
                      {**_THETA, "N": Flag(int, 8, help="points per axis"),
                       "L": Flag(float, 2 * np.pi, help="period"),
                       "budget": Flag(float, 1e8, help="kernel work budget"), **_FORM}),
}


class _Parser(argparse.ArgumentParser):
    """An argument that starts with a minus sign and a digit (or ".digit"),
    or with -inf or -nan in any case, is a value, never a flag: a negative
    number or a comma-separated vector such as -1,0,2 or -inf,1,1.
    argparse by default takes only a plain number such as -1 or -0.5 for
    a value, and reads "-1,0,2" or "-inf" as a flag.  A value so read
    reaches the flag's own check, which rejects it with a JSON diagnostic."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for COMMANDS, built on first use.  Every flag parses to
    None when absent, so main can tell it from a value."""
    parser = _Parser(
        prog="nstar",
        description="Exact n-ary star products, identity audits, and the oscillator application.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for pos, keywords in command.positionals.items():
            p.add_argument(pos, **keywords)
        for flag_name, flag in command.flags.items():
            p.add_argument(f"--{flag_name}", type=flag.type, choices=flag.choices,
                           help=flag.help, action="append" if flag.repeat else "store")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        config = _load_config()
        for name, flag in command.flags.items():
            if getattr(args, name) is None:
                setattr(args, name, _config_value(flag, name, config[name])
                        if name in config and not flag.repeat else flag.default)
        return command.handler(args)
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
