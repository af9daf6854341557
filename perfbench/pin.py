"""Recompute the reference digests in pins.json.

    python3 perfbench/pin.py [--out FILE]

* ladder:     digests of ``star_n_stepwise`` (the naive term-by-term
              oracle, not the engine the CLI runs) on every rung of every
              pool entry.
* audit:      sha256 of the ``nstar verify`` report of the reference
              configuration; the report must stay byte-identical for a
              seed and trial count.  Its verdicts are checked against
              the known table before it is pinned.
* oscillator: digests of the exact per-order increments behind every
              residual report of every pool entry, with the report's
              energy and residuals checked before pinning.

Pins only change when the package's exact outputs change on purpose.
Takes about 7 minutes on a 2-core machine, most of it in the stepwise
oracle on the n=3, degree-6 rung.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402
from calibration import Stopwatch  # noqa: E402


def pin_audit() -> str:
    res = workloads.Audit({"audit": None}).run(workloads.AUDIT_SEED, Path.cwd(), Stopwatch(False))
    bad = [n for n in res.notes if workloads.PIN_MISMATCH not in n]
    if bad:
        raise SystemExit("; ".join(bad))
    print(f"audit seed {workloads.AUDIT_SEED}: {res.wall:.2f} s", file=sys.stderr)
    return res.digest


def pin_ladder() -> list:
    from nstar import ThetaConfig, star_n_stepwise
    from nstar.exprs import lower_poly, parse_expression

    pins = []
    for entry in range(workloads.LADDER_POOL):
        digests = []
        for n, exprs in workloads.ladder_exprs(entry):
            t0 = time.perf_counter()
            polys = [lower_poly(parse_expression(e, n), n) for e in exprs]
            digests.append(workloads.poly_digest(star_n_stepwise(polys, ThetaConfig.uniform(n))))
            print(f"ladder entry {entry} n={n}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        pins.append(digests)
    return pins


def pin_oscillator() -> list:
    wl = workloads.Oscillator({"oscillator": []})
    pins = []
    for entry in range(workloads.OSCILLATOR_POOL):
        digests = []
        for op in workloads.oscillator_ops(entry):
            rc, report, seconds, series = wl.run_op(op, Stopwatch(False))
            problems = wl.check(op, rc, report, series)
            if problems:
                raise SystemExit(f"oscillator entry {entry}: " + "; ".join(problems))
            digests.append(workloads.increments_digest(incs for _, incs in series))
        pins.append(digests)
        print(f"oscillator entry {entry} pinned", file=sys.stderr)
    return pins


def main() -> int:
    p = argparse.ArgumentParser(description="Recompute perfbench reference digests.")
    p.add_argument("--out", type=Path, default=workloads.PINS_PATH)
    args = p.parse_args()
    out = args.out.resolve()
    # work in a scratch directory inside the checkout: the CLI reads
    # ./nstar.json and the audit writes its report there
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=BENCH_DIR.parent) as tmp:
        os.chdir(tmp)
        try:
            pins = {"audit": pin_audit(), "ladder": pin_ladder(), "oscillator": pin_oscillator()}
        finally:
            os.chdir(BENCH_DIR.parent)
    out.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
