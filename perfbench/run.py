"""Benchmark runner for the nstar package.

    python3 perfbench/run.py --workload audit --seed 42 --seconds 30 --trace 0

Runs one workload (audit, ladder, oscillator or waves) in this process,
single-threaded, against the package in ../src, and prints as its last
line one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0 repeats the workload's job with fresh inputs until --seconds
have passed (at least twice; audit once) and reports the end-to-end
metrics: wall_s, op_p50_s, op_max_s, setup_s and peak_rss_mb.  Times
are calibrated for the machine's momentary speed (see calibration.py).

--trace 1 runs the job of repeat 0 once with span tracing and once
without, checks that both give identical outputs and that every layer
the workload is meant to reach shows up, and reports the per-layer
metrics of tracing.PER_LAYER.

See README.md in this directory for the workloads, the metrics and the
measured spread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibration import Stopwatch

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_REPEATS = 2
SETUP_SAMPLES = 5

# Per-layer metrics each workload must reach in a traced run.
EXERCISED = {
    "audit": (
        "scalars.mul.calls", "scalars.mul.calls.under_starcore",
        "scalars.mul.calls.under_polynomials", "scalars.rt2_share", "scalars.add.calls",
        "scalars.pow.calls", "polynomials.mul.calls", "polynomials.mul.term_pairs",
        "polynomials.add.calls", "polynomials.diff.calls", "polynomials.format_s",
        "starcore.star_n.calls", "starcore.compositions", "starcore.stepwise.calls",
        "starcore.conjugate.calls", "closedforms.calls", "audit.claims",
        "audit.guaranteed_s", "audit.audited_s", "audit.self_s", "audit.oracle_confirm_s",
        "audit.report_json_s", "cli.self_s",
    ),
    "ladder": (
        "scalars.mul.calls", "scalars.mul.calls.under_starcore",
        "scalars.mul.calls.under_polynomials", "scalars.rt2_share", "scalars.add.calls",
        "polynomials.mul.calls", "polynomials.mul.term_pairs", "polynomials.add.calls",
        "polynomials.diff.calls", "polynomials.format_s", "starcore.star_n.calls",
        "starcore.compositions", "closedforms.calls", "exprs.parse.self_s",
        "exprs.lower.self_s", "cli.self_s",
    ),
    "oscillator": (
        "scalars.mul.calls", "scalars.rt2_share", "scalars.add.calls",
        "polynomials.mul.calls", "polynomials.mul.term_pairs", "polynomials.add.calls",
        "polynomials.diff.calls", "closedforms.calls", "oscillator.star_increments.calls",
        "oscillator.polygauss_diff.calls", "oscillator.eval.calls",
        "oscillator.ground_state_s", "cli.self_s",
    ),
    "waves": (
        "waves.kernel.calls", "waves.tuples", "waves.star_waves.self_s",
        "waves.grid_oracle.self_s", "waves.sample.self_s", "exprs.parse.self_s",
        "exprs.lower.self_s", "cli.self_s",
    ),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(EXERCISED))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int) -> int:
    """Child process: time importing the package (with numpy) and building
    the inputs of repeat 0; print the calibrated seconds."""
    from calibration import Stopwatch

    def setup():
        sys.path.insert(0, str(SRC))
        import nstar.cli  # noqa: F401  (imports numpy and every package module)
        import workloads

        workloads.WORKLOADS[workload](workloads.load_pins()).job(seed, 0)

    with Stopwatch() as watch:
        print(repr(watch.measure(setup)[2]))
    return 0


def measure_setup(workload: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def run_untraced(wl, seed: int, seconds: float, workdir: Path, setup_s: float):
    results = []
    start = time.perf_counter()
    max_repeats = wl.pool or 1000
    with Stopwatch() as watch:
        while len(results) < max_repeats:
            if len(results) >= MIN_REPEATS:
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(results) > seconds:
                    break
            results.append(wl.run(wl.job(seed, len(results)), workdir, watch))
    op_times = [op.seconds for r in results for op in r.ops]
    metrics = {
        "wall_s": (statistics.median(r.wall for r in results), "s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        "op_max_s": (statistics.median(max(op.seconds for op in r.ops) for r in results), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    log(f"{len(results)} repeats; wall_s per repeat "
        + ", ".join(f"{r.wall:.3f}" for r in results)
        + f"; calibration scale median {statistics.median(watch.scales):.3f}"
        f" (range {min(watch.scales):.3f}-{max(watch.scales):.3f})")
    return results, metrics, []


def run_traced(wl, workload: str, seed: int, workdir: Path):
    import tracing

    job = wl.job(seed, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = wl.run(job, workdir, Stopwatch(calibrated=False))
    finally:
        tracer.uninstall()
    plain = wl.run(job, workdir, Stopwatch(calibrated=False))
    values = tracer.metrics()
    problems = []
    if traced.digest != plain.digest:
        problems.append("traced and untraced runs gave different outputs")
    problems += [f"per-layer metric {name} is 0 on {workload}"
                 for name in EXERCISED[workload] if not values[name]]
    metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER.items()}
    return [traced, plain], metrics, problems


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nstar" / "__init__.py").is_file():
        log(f"no nstar package under {SRC}; run from a checkout of the repository")
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    setup_s = measure_setup(args.workload, args.seed) if not args.trace else math.nan
    sys.path.insert(0, str(SRC))
    import nstar.cli  # noqa: F401  (loads every package module before tracing wraps them)
    import workloads

    wl = workloads.WORKLOADS[args.workload](workloads.load_pins())
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    os.chdir(workdir)  # the CLI reads ./nstar.json; keep the run hermetic
    try:
        if args.trace:
            results, metrics, problems = run_traced(wl, args.workload, args.seed, workdir)
        else:
            results, metrics, problems = run_untraced(wl, args.seed, args.seconds, workdir, setup_s)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r.ops) for r in results)
    failed = sum(r.failed for r in results)
    for note in [n for r in results for n in r.notes] + problems:
        log(note)
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    correct = attempted > 0 and failed == 0 and not problems and finite
    log(f"error_rate = {failed}/{attempted}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
