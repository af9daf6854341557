"""The four benchmark workloads.

Each workload turns (seed, repeat) into inputs, runs its operations
in-process through ``nstar.cli.main`` and checks every output against a
reference reached by another route:

* ``audit``      ``nstar verify`` at 100 trials; one operation per claim.
* ``ladder``     ``nstar star`` on a ladder of growing products.
* ``oscillator`` ``nstar residual`` for the ground state of a quartic
                 diagonal Hamiltonian.
* ``waves``      ``nstar oracle`` on wave sums with dozens of terms.

Repeats inside one run never reuse an input, so a cache that lives
across calls cannot make a later repeat cheaper than a fresh process
would be.  ``audit`` runs the one reference configuration once per run.
``ladder`` and ``oscillator`` draw their repeats from a fixed pool of
inputs whose reference digests are pinned in ``pins.json`` (see
``pin.py``); ``waves`` builds fresh inputs and checks them against a
reference computed here with numpy.  The seed varies coefficients,
theta and sample points, not the shape of the work (degrees, term and
frequency patterns), so repeats and seeds cost the same and the
run-to-run spread is the machine's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from calibration import Stopwatch

PINS_PATH = Path(__file__).with_name("pins.json")

# The reference configuration.  The audit's cost depends on the seed it
# samples with (12.1-13.8 s for seeds 0, 1 and 42, run back to back), so
# every run audits this one seed.
AUDIT_SEED = 42
AUDIT_TRIALS = 100
# Verdicts of the reference audit.  The audited claims listed here fail;
# every other claim, including all guaranteed ones, holds.
AUDIT_FAILING = frozenset({
    "associativity", "jacobi-six-term", "jacobi-expansion",
    "cf-complex-1", "cf-complex-2", "cf-complex-3", "cf-complex-4",
    "cf-complex-4-alt", "cf-complex-5", "cf-complex-6",
})
AUDIT_CLAIMS = (
    "associativity", "cf-complex-1", "cf-complex-2", "cf-complex-3",
    "cf-complex-4", "cf-complex-4-alt", "cf-complex-5", "cf-complex-6",
    "cf-coord-first", "cf-coord-last", "cf-coord-middle", "cf-nary-slot",
    "cf-two-coords-1", "cf-two-coords-2", "cf-two-coords-3", "cf-two-coords-4",
    "conj-inequality-1", "conj-inequality-2", "conj-inequality-3",
    "conj-xx-f-1", "conj-xx-f-2", "conjugation-law",
    "distributivity-1", "distributivity-2", "distributivity-3",
    "jacobi-expansion", "jacobi-six-term",
    "noncomm-witness-1", "noncomm-witness-2", "noncomm-witness-3",
    "omega-antisym", "omega-cyclic", "skew-symmetry", "theta-zero",
)

# (n, degree, whether the first factor carries a(1,2)*x3 so sqrt(2)
# coefficients reach the bulk product)
LADDER_RUNGS = ((3, 2, False), (4, 2, False), (3, 4, False), (4, 3, True), (3, 6, False))
LADDER_POOL = 8

# (n, order) of each residual report
OSCILLATOR_OPS = ((3, 2), (3, 4), (3, 6), (4, 4))
OSCILLATOR_POOL = 16
OSCILLATOR_POINTS = 20
# tolerance of the recomputed residuals, relative to the values they come from
RESIDUAL_RTOL = 1e-9

# (n, points per axis, theta choices).  Every factor has a fixed set of
# integer frequencies, in band for N >= 8: for n = 3 all 27 vectors of
# {-1,0,1}^3, for n = 4 the 9 vectors 0 and +-e_k.
WAVE_OPS = (
    (3, 8, ("1/4", "-1/4", "1/2", "-1/2")),
    (3, 16, ("1/4", "-1/4", "1/2", "-1/2")),
    (4, 8, ("1/4", "-1/4", "1/2", "-1/2")),
)
WAVE_RTOL = 1e-9

PIN_MISMATCH = "differs from the pinned one"


@dataclass
class OpResult:
    name: str
    seconds: float
    ok: bool


@dataclass
class JobResult:
    """One repeat of a workload's job: the program's time, its operations
    and a digest of every checked output (traced and untraced runs of
    the same job must agree on it)."""

    wall: float
    ops: list[OpResult]
    digest: str = ""
    notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)


def pool_entry(workload: str, seed: int, rep: int, size: int) -> int:
    """The pool entry repeat `rep` of a run with `seed` uses; distinct
    for the first `size` repeats."""
    return random.Random(f"{workload}:{seed}").sample(range(size), size)[rep]


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``nstar.cli.main`` in-process; returns (exit code, stdout)."""
    from nstar.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


@contextlib.contextmanager
def patched(module, name: str, wrapper_factory):
    """Replace module.name by wrapper_factory(original) for the duration."""
    original = getattr(module, name)
    setattr(module, name, wrapper_factory(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _fail_note(what: str) -> str:
    return f"{what}: {traceback.format_exc(limit=3).strip().splitlines()[-1]}"


# -- canonical digests of exact polynomials ----------------------------------

def _digest_rows(rows) -> str:
    """rows: (exponents, (re, im, rt2_re, rt2_im)) with Fraction parts.
    Hashed in graded-lex order, highest first, so the digest does not
    depend on dict order."""
    canon = sorted(((sum(e), list(e), [str(v) for v in parts]) for e, parts in rows),
                   key=lambda r: (r[0], r[1]), reverse=True)
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def json_terms_digest(records) -> str:
    """Digest of a polynomial given as the CLI's JSON term records."""
    def part(rec, p):
        return Fraction(rec.get(f"{p}_num", 0), rec.get(f"{p}_den", 1))
    return _digest_rows((tuple(rec["exponents"]),
                         tuple(part(rec, p) for p in ("re", "im", "rt2_re", "rt2_im")))
                        for rec in records)


def poly_digest(poly) -> str:
    """Digest of an exact polynomial, read from its term dict only (no
    method of the package is called, so checks add no traced spans)."""
    return _digest_rows((e, (c.re, c.im, c.rt2_re, c.rt2_im)) for e, c in poly.terms.items())


def _combine(digests) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


# -- audit --------------------------------------------------------------------

class Audit:
    name = "audit"
    pool = 1

    def __init__(self, pins: dict):
        self.pins = pins["audit"]

    def job(self, seed: int, rep: int) -> int:
        return AUDIT_SEED

    def run(self, audit_seed: int, workdir: Path, watch: Stopwatch) -> JobResult:
        import nstar.audit

        report = workdir / "audit.json"
        claim_times: list[tuple[str, float, float]] = []  # claim, raw, calibrated

        def timed(original):
            def audit_claim(claim, *args, **kwargs):
                rep, raw, seconds = watch.measure(lambda: original(claim, *args, **kwargs))
                claim_times.append((claim, raw, seconds))
                return rep
            return audit_claim

        argv = ["verify", "--seed", str(audit_seed), "--trials", str(AUDIT_TRIALS),
                "--output", str(report)]
        notes = []
        try:
            with patched(nstar.audit, "audit_claim", timed):
                (rc, out), raw_wall, call_seconds = watch.measure(lambda: call_cli(argv))
            data = report.read_bytes()
        except Exception:
            notes.append(_fail_note(f"audit seed {audit_seed}"))
            return JobResult(math.nan, [OpResult(c, math.nan, False) for c in AUDIT_CLAIMS],
                             notes=notes)

        # the job's time outside the claims (argument parsing, report
        # writing) is scaled like the whole call
        outside = raw_wall - sum(raw for _, raw, _ in claim_times)
        wall = sum(seconds for _, _, seconds in claim_times) + outside * call_seconds / raw_wall
        digest = hashlib.sha256(data).hexdigest()
        verdicts = {rec["claim"]: rec["verdict"] for rec in json.loads(data)}
        whole_ok = (rc == 0 and "guaranteed claims: all hold" in out
                    and sorted(verdicts) == sorted(AUDIT_CLAIMS)
                    and sorted(c for c, _, _ in claim_times) == sorted(AUDIT_CLAIMS))
        if not whole_ok:
            notes.append(f"audit seed {audit_seed}: exit code {rc}, {len(verdicts)} claims "
                         f"reported, {len(claim_times)} claims timed")
        if digest != self.pins:
            whole_ok = False
            notes.append(f"audit seed {audit_seed}: report digest {digest} {PIN_MISMATCH}")
        times = {claim: seconds for claim, _, seconds in claim_times}
        ops = []
        for claim in AUDIT_CLAIMS:
            expected = "fails" if claim in AUDIT_FAILING else "holds-exact"
            ok = whole_ok and verdicts.get(claim) == expected
            if verdicts.get(claim) != expected:
                notes.append(f"audit seed {audit_seed}: {claim} is {verdicts.get(claim)}, "
                             f"expected {expected}")
            ops.append(OpResult(claim, times.get(claim, math.nan), ok))
        return JobResult(wall, ops, digest, notes)


# -- ladder -------------------------------------------------------------------

_COEFFS = ("1", "2", "3", "1/2", "2/3", "1i", "2i", "1/2i")


def _random_poly_text(rng: random.Random, n: int, degree: int) -> str:
    """A seeded 4-term polynomial of term degrees d, d-1, d-2 and 0,
    written as signed terms to append."""
    parts = []
    for term_degree in (degree, degree - 1, degree - 2, 0):
        exps = [0] * n
        for _ in range(term_degree):
            exps[rng.randrange(n)] += 1
        mono = "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                        for i, e in enumerate(exps) if e)
        coeff = rng.choice(_COEFFS)
        sign = rng.choice(("+", "-"))
        parts.append(f" {sign} {coeff}" + (f"*{mono}" if mono else ""))
    return "".join(parts)


def ladder_exprs(entry: int) -> list[tuple[int, list[str]]]:
    """The rungs of ladder pool entry `entry`: (n, factor expressions)."""
    rng = random.Random(f"ladder-entry:{entry}")
    rungs = []
    for n, degree, sqrt2 in LADDER_RUNGS:
        base = "(" + " + ".join(f"x{i}" for i in range(1, n + 1)) + f")^{degree}"
        exprs = [base + _random_poly_text(rng, n, degree) for _ in range(n)]
        if sqrt2:
            exprs[0] += " + a(1,2)*x3"
        rungs.append((n, exprs))
    return rungs


def ladder_argv(n: int, exprs: list[str]) -> list[str]:
    return ["star", "--n", str(n), f"--theta={','.join(['1'] * n)}", "--format", "json", *exprs]


class Ladder:
    name = "ladder"
    pool = LADDER_POOL

    def __init__(self, pins: dict):
        self.pins = pins["ladder"]

    def job(self, seed: int, rep: int) -> tuple[int, list]:
        entry = pool_entry(self.name, seed, rep, self.pool)
        return entry, ladder_exprs(entry)

    def run(self, job: tuple[int, list], workdir: Path, watch: Stopwatch) -> JobResult:
        entry, rungs = job
        ops, digests, notes = [], [], []
        wall = 0.0
        for i, (n, exprs) in enumerate(rungs):
            name = f"n{n}-d{LADDER_RUNGS[i][1]}"
            try:
                (rc, out), _, seconds = watch.measure(lambda: call_cli(ladder_argv(n, exprs)))
                digest = json_terms_digest(json.loads(out)["terms"])
            except Exception:
                notes.append(_fail_note(f"ladder entry {entry} rung {name}"))
                ops.append(OpResult(name, math.nan, False))
                continue
            ok = rc == 0 and digest == self.pins[entry][i]
            if not ok:
                notes.append(f"ladder entry {entry} rung {name}: exit code {rc}, "
                             f"digest {digest} differs from the stepwise oracle's")
            wall += seconds
            digests.append(digest)
            ops.append(OpResult(name, seconds, ok))
        return JobResult(wall, ops, _combine(digests), notes)


# -- oscillator ---------------------------------------------------------------

def oscillator_ops(entry: int) -> list[dict]:
    """The residual reports of oscillator pool entry `entry`."""
    rng = random.Random(f"oscillator-entry:{entry}")
    ops = []
    for n, order in OSCILLATOR_OPS:
        ops.append({
            "n": n, "order": order, "k": 0,
            "theta": [rng.choice(("1/2", "1", "3/2", "2")) for _ in range(n)],
            "lambda0": [rng.choice(("1/2", "1", "2")) for _ in range(n)],
            "lambda2": [rng.choice(("1/8", "1/4", "1/2")) for _ in range(n)],
            "point_seed": rng.randrange(10**6),
        })
    return ops


def oscillator_argv(op: dict) -> list[str]:
    return ["residual", "--n", str(op["n"]), f"--theta={','.join(op['theta'])}",
            "--k", str(op["k"]), "--order", str(op["order"]),
            "--points", str(OSCILLATOR_POINTS), "--seed", str(op["point_seed"]),
            "--lambda0", ",".join(op["lambda0"]), "--lambda2", ",".join(op["lambda2"]),
            "--format", "json"]


def closed_form_energy(op: dict) -> Fraction:
    """E = theta_1 (n/2 + lam0_1 N + sum_m (prod_{r<=m} sum(row_r)) N^(m+1))
    for the state with |nbar| = N = k, transcribed from the paper."""
    rows = [[Fraction(v) for v in op["lambda0"]], [Fraction(v) for v in op["lambda2"]]]
    N = op["k"]
    total = Fraction(op["n"], 2) + rows[0][0] * N
    prod = Fraction(1)
    for m in range(1, len(rows)):
        prod *= sum(rows[m])
        total += prod * Fraction(N) ** (m + 1)
    return Fraction(op["theta"][0]) * total


def increments_digest(series) -> str:
    """Digest of the exact increments of every star series one report
    computes, independent of the order the series were computed in."""
    return _combine(sorted(_combine(poly_digest(p) for p in incs) for incs in series))


def oscillator_points(op: dict) -> list[list[Fraction]]:
    """The sample points ``nstar residual --seed`` draws."""
    rng = random.Random(op["point_seed"])
    return [[Fraction(rng.randint(-200, 200), 100) for _ in range(op["n"])]
            for _ in range(OSCILLATOR_POINTS)]


def _exact_values(increments, points) -> list[list[list[Fraction]]]:
    """Exact values of the partial sums 0..m of the increments at every
    point: [order][point] -> [re, im, rt2_re, rt2_im], read from the term
    dicts with Fractions only."""
    rows, running = [], [[Fraction(0)] * 4 for _ in points]
    for poly in increments:
        for acc, point in zip(running, points):
            for exps, c in poly.terms.items():
                mono = Fraction(1)
                for v, e in zip(point, exps):
                    if e:
                        mono *= v**e
                for i, part in enumerate((c.re, c.im, c.rt2_re, c.rt2_im)):
                    if part:
                        acc[i] += part * mono
        rows.append([list(acc) for acc in running])
    return rows


def _to_complex(parts) -> complex:
    re, im, rt2_re, rt2_im = parts
    return complex(float(re) + math.sqrt(2) * float(rt2_re), float(im) + math.sqrt(2) * float(rt2_im))


def residual_problems(op: dict, report: dict, series) -> list[str]:
    """Compare the report's residual tables with values recomputed from the
    captured exact increments.  The lead factor tells the series apart:
    constant 1 (the normalisation), degree 1 (the complex coordinate of
    the ground equation) or higher (the Hamiltonian).  Each residual must
    agree to RESIDUAL_RTOL relative to the magnitudes it is computed from,
    which leaves room for the float summation order but not for a wrong
    value.  Returns the first three disagreements."""
    by_lead = {max((sum(e) for e in lead.terms), default=0): incs for lead, incs in series}
    if len(series) != 3 or len(by_lead) != 3 or not {0, 1} <= by_lead.keys():
        return [f"expected three star series with leads of degree 0, 1 and more, "
                f"captured {len(series)}"]
    one, ann = by_lead.pop(0), by_lead.pop(1)
    (ham,) = by_lead.values()
    points = oscillator_points(op)
    weights = [math.exp(-float((op["n"] - 1) * sum(v * v for v in p) / 2)) for p in points]
    E = closed_form_energy(op)
    ann_v, ham_v, one_v = (_exact_values(incs, points) for incs in (ann, ham, one))
    problems = []
    for m in range(op["order"] + 1):
        for j, w in enumerate(weights):
            a = abs(_to_complex(ann_v[m][j])) * w
            h, o = ham_v[m][j], one_v[m][j]
            diff = _to_complex([hp - E * op_ for hp, op_ in zip(h, o)])
            magnitude = (abs(_to_complex(h)) + abs(float(E)) * abs(_to_complex(o))) * w
            for table, expected, scale in (("ground", a, a), ("eigen", abs(diff) * w, magnitude)):
                got = report[f"{table}_residuals"][m][j]
                if not abs(got - expected) <= RESIDUAL_RTOL * scale:
                    problems.append(f"{table} residual at order {m}, point {j}: "
                                    f"{got!r}, recomputed {expected!r}")
    return problems[:3]


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class Oscillator:
    name = "oscillator"
    pool = OSCILLATOR_POOL

    def __init__(self, pins: dict):
        self.pins = pins["oscillator"]

    def job(self, seed: int, rep: int) -> tuple[int, list]:
        entry = pool_entry(self.name, seed, rep, self.pool)
        return entry, oscillator_ops(entry)

    def run_op(self, op: dict, watch: Stopwatch) -> tuple[int, dict, float, list]:
        """One residual report; returns (exit code, report, seconds, and
        the (lead factor, exact increments) of every star series behind it)."""
        import nstar.oscillator

        series = []

        def capture(original):
            def star_increments(factors, *args, **kwargs):
                incs = original(factors, *args, **kwargs)
                series.append((factors[0].poly, incs))
                return incs
            return star_increments

        with patched(nstar.oscillator, "star_increments", capture):
            (rc, out), _, seconds = watch.measure(lambda: call_cli(oscillator_argv(op)))
        return rc, json.loads(out), seconds, series

    def check(self, op: dict, rc: int, report: dict, series) -> list[str]:
        """Problems with one report, pins aside: exit code, energy, table
        shape, finiteness and the recomputed residuals."""
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        if Fraction(report["energy"]) != closed_form_energy(op):
            problems.append(f"energy {report['energy']}, closed form {closed_form_energy(op)}")
        floats = [v for row in report["ground_residuals"] + report["eigen_residuals"] for v in row]
        floats += [row[key] for row in report["rows"]
                   for key in ("ground_max", "ground_mean", "eigen_max", "eigen_mean")]
        if not _all_finite(floats):
            problems.append("a residual is not finite")
        elif not (len(report["rows"]) == op["order"] + 1
                  and all(len(report[t]) == op["order"] + 1
                          for t in ("ground_residuals", "eigen_residuals"))
                  and all(len(row) == OSCILLATOR_POINTS
                          for row in report["ground_residuals"] + report["eigen_residuals"])):
            problems.append("residual tables have the wrong shape")
        else:
            problems += residual_problems(op, report, series)
        return problems

    def run(self, job: tuple[int, list], workdir: Path, watch: Stopwatch) -> JobResult:
        entry, op_specs = job
        ops, digests, notes = [], [], []
        wall = 0.0
        for i, op in enumerate(op_specs):
            name = f"n{op['n']}-order{op['order']}"
            try:
                rc, report, seconds, series = self.run_op(op, watch)
                digest = increments_digest(incs for _, incs in series)
                problems = self.check(op, rc, report, series)
            except Exception:
                notes.append(_fail_note(f"oscillator entry {entry} {name}"))
                ops.append(OpResult(name, math.nan, False))
                continue
            if digest != self.pins[entry][i]:
                problems.append(f"increments digest {digest} {PIN_MISMATCH}")
            notes.extend(f"oscillator entry {entry} {name}: {p}" for p in problems)
            wall += seconds
            digests.append(digest + json.dumps(report, sort_keys=True))
            ops.append(OpResult(name, seconds, not problems))
        return JobResult(wall, ops, _combine(digests), notes)


# -- waves --------------------------------------------------------------------

def _sigma(k: int, p: int, n: int) -> int:
    return (k - 1 + p) % n + 1


def wave_frequencies(n: int) -> list[tuple[int, ...]]:
    if n == 3:
        return list(itertools.product((-1, 0, 1), repeat=3))
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    return [(0,) * n] + unit + [tuple(-v for v in u) for u in unit]


def wave_factors(rng: random.Random, n: int):
    """The fixed frequencies of dimension n with seeded complex coefficients."""
    freqs = wave_frequencies(n)
    coeffs = []
    for _ in freqs:
        a, b = rng.randint(-8, 8), rng.randint(-8, 8)
        if a == 0 and b == 0:
            a = 1
        coeffs.append((a, b))
    return freqs, coeffs


def wave_text(freqs, coeffs) -> str:
    parts = []
    for f, (a, b) in zip(freqs, coeffs):
        im = f"+ {b}/8i" if b >= 0 else f"- {-b}/8i"
        parts.append(f"({a}/8 {im})*wave({','.join(map(str, f))})")
    return " + ".join(parts)


def wave_reference(factors, theta, n: int):
    """Closed-form star product of plane-wave sums, vectorized over all
    frequency tuples.  Returns (coefficients, integer output frequencies)
    with one row per tuple."""
    th = [float(Fraction(t)) for t in theta]
    F = [np.asarray(freqs, dtype=float) for freqs, _ in factors]
    C = [np.array([complex(a, b) / 8 for a, b in coeffs]) for _, coeffs in factors]

    def along(j, arr):  # put factor j's values on tensor axis j
        shape = [1] * n
        shape[j] = -1
        return arr.reshape(shape)

    total = 0.0
    for k in range(1, n + 1):
        if th[k - 1] == 0.0:
            continue
        fwd = 1.0
        for j in range(1, n + 1):
            fwd = fwd * along(j - 1, F[j - 1][:, _sigma(k, j - 1, n) - 1])
        rev = along(0, F[0][:, k - 1])
        for j in range(2, n + 1):
            rev = rev * along(j - 1, F[j - 1][:, _sigma(k, n - j + 1, n) - 1])
        total = total + th[k - 1] * (fwd - rev)
    exponent = (1j ** (n + 1)) * np.asarray(total) / 2.0
    coeff = np.exp(exponent)
    for j in range(n):
        coeff = coeff * along(j, C[j])
    out_freq = np.stack([np.broadcast_to(sum(along(j, F[j][:, d]) for j in range(n)), coeff.shape)
                         for d in range(n)], axis=-1)
    return coeff.ravel(), np.rint(out_freq.reshape(-1, n)).astype(int)


def read_lattice(path: Path) -> np.ndarray:
    """Lattice file: one JSON header line {n, N, L}, then complex128 samples."""
    header, _, body = path.read_bytes().partition(b"\n")
    meta = json.loads(header)
    return np.frombuffer(body, dtype=np.complex128).reshape((meta["N"],) * meta["n"])


def wave_check(coeff, freq, lattice: np.ndarray, closed_terms, N: int, n: int) -> list[str]:
    """Compare the program's lattice and closed form with the reference."""
    problems = []
    if lattice.shape != (N,) * n or not np.isfinite(lattice).all():
        return ["lattice has the wrong shape or a non-finite sample"]
    spectrum = np.zeros((N,) * n, dtype=complex)
    np.add.at(spectrum, tuple((freq % N).T), coeff)
    expected = np.fft.ifftn(spectrum) * N**n
    scale = float(np.abs(expected).max())
    lattice_err = float(np.abs(lattice - expected).max()) / scale
    if not lattice_err <= WAVE_RTOL:
        problems.append(f"lattice relative error {lattice_err!r} exceeds {WAVE_RTOL}")

    merged: dict[tuple, complex] = {}
    for c, f in zip(coeff.tolist(), map(tuple, freq.tolist())):
        merged[f] = merged.get(f, 0) + c
    got: dict[tuple, complex] = {}
    for t in closed_terms:
        value = complex(t["re"], t["im"])
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            return ["closed form has a non-finite coefficient"]
        got[tuple(int(round(v)) for v in t["freq"])] = value
    cscale = max(abs(v) for v in merged.values())
    closed_err = max(abs(merged.get(f, 0) - got.get(f, 0)) for f in set(merged) | set(got)) / cscale
    if not closed_err <= WAVE_RTOL:
        problems.append(f"closed-form relative error {closed_err!r} exceeds {WAVE_RTOL}")
    return problems


def waves_ops(seed: int, rep: int) -> list[dict]:
    rng = random.Random(f"waves:{seed}:{rep}")
    ops = []
    for n, N, theta_choices in WAVE_OPS:
        factors = [wave_factors(rng, n) for _ in range(n)]
        theta = [rng.choice(theta_choices) for _ in range(n)]
        ops.append({"n": n, "N": N, "theta": theta, "factors": factors})
    return ops


class Waves:
    name = "waves"
    pool = None  # fresh inputs every repeat; the reference is computed live

    def __init__(self, pins: dict):
        pass

    def job(self, seed: int, rep: int) -> list[dict]:
        return waves_ops(seed, rep)

    def run(self, ops_in: list[dict], workdir: Path, watch: Stopwatch) -> JobResult:
        lattice_path = workdir / "lattice.bin"
        ops, digests, notes = [], [], []
        wall = 0.0
        for op in ops_in:
            n, N = op["n"], op["N"]
            name = f"n{n}-N{N}"
            argv = ["oracle", "--n", str(n), "--N", str(N), f"--theta={','.join(op['theta'])}",
                    "--format", "json", "--output", str(lattice_path),
                    *(wave_text(*f) for f in op["factors"])]
            try:
                (rc, out), _, seconds = watch.measure(lambda: call_cli(argv))
                body = json.loads(out)
                lattice = read_lattice(lattice_path)
                coeff, freq = wave_reference(op["factors"], op["theta"], n)
                problems = wave_check(coeff, freq, lattice, body["closed_form"]["terms"], N, n)
            except Exception:
                notes.append(_fail_note(f"waves {name}"))
                ops.append(OpResult(name, math.nan, False))
                continue
            if rc != 0 or not math.isfinite(body["max_relative_error"]):
                problems.append(f"exit code {rc}, reported error {body['max_relative_error']!r}")
            notes.extend(f"waves {name}: {p}" for p in problems)
            wall += seconds
            digests.append(hashlib.sha256(out.encode() + lattice.tobytes()).hexdigest())
            ops.append(OpResult(name, seconds, not problems))
        return JobResult(wall, ops, _combine(digests), notes)


WORKLOADS = {cls.name: cls for cls in (Audit, Ladder, Oscillator, Waves)}
