"""Span tracing for the benchmark's traced run.

The traced run wraps the public functions and operators of every
package module, from outside the package, and aggregates spans in
memory: per span name and per enclosing layer, the number of calls,
the self time (span time minus the time of the spans it caused) and the
inclusive time (span time minus the bookkeeping of the wrappers nested
in it).  A layer is a package module; a span's "under" layer is
the nearest enclosing span of another layer, so a scalar multiplication
inside ``Polynomial.__mul__`` counts as under ``polynomials`` and one in
the series engine's coefficient loop as under ``starcore``.

Each wrapper times its own bookkeeping (span lookup, the hooks that
compute counts from the inputs, the stack and the aggregation): the
time from entering the wrapper to leaving it, minus the span.  That
bookkeeping is kept out of every self and inclusive time, and
``trace.overhead_s`` is its total over all calls.

Modules import functions by name (``from .starcore import star_n``), so a
wrapper replaces the original in every ``nstar`` module namespace that
holds it, not only in the defining module.  ``__rmul__`` and ``__radd__``
are class attributes of their own and are wrapped like ``__mul__`` and
``__add__``.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span).  An attribute "Class.method" is patched on
# the class; a plain attribute is patched in every nstar module.
TARGETS = (
    ("scalars", "ExactComplex.__mul__", "scalars.mul"),
    ("scalars", "ExactComplex.__rmul__", "scalars.mul"),
    ("scalars", "ExactComplex.__add__", "scalars.add"),
    ("scalars", "ExactComplex.__radd__", "scalars.add"),
    ("scalars", "ExactComplex.__pow__", "scalars.pow"),
    ("polynomials", "Polynomial.__mul__", "polynomials.mul"),
    ("polynomials", "Polynomial.__rmul__", "polynomials.mul"),
    ("polynomials", "Polynomial.__add__", "polynomials.add"),
    ("polynomials", "Polynomial.__radd__", "polynomials.add"),
    ("polynomials", "Polynomial.diff", "polynomials.diff"),
    ("polynomials", "Polynomial.__str__", "polynomials.format"),
    ("polynomials", "Polynomial.to_json_terms", "polynomials.format"),
    ("starcore", "star_n", "starcore.star_n"),
    ("starcore", "conjugate_star_n", "starcore.conjugate"),
    ("starcore", "star_n_stepwise", "starcore.stepwise"),
    ("starcore", "star_bracket", "starcore.bracket"),
    ("starcore", "deformation_terms", "starcore.deformation_terms"),
    ("closedforms", "star_coord_first", "closedforms.coord"),
    ("closedforms", "star_coord_middle", "closedforms.coord"),
    ("closedforms", "star_coord_last", "closedforms.coord"),
    ("closedforms", "star_two_coords", "closedforms.two_coords"),
    ("closedforms", "complex_pair", "closedforms.complex_pair"),
    ("closedforms", "star_complex_form", "closedforms.complex_form"),
    ("closedforms", "star_coord_slot", "closedforms.coord_slot"),
    ("audit", "audit_claim", "audit.claim"),
    ("audit", "run_suite", "audit.run_suite"),
    ("audit", "audit_jacobi", "audit.jacobi"),
    ("audit", "reports_to_json", "audit.report_json"),
    ("oscillator", "star_increments", "oscillator.star_increments"),
    ("oscillator", "PolyGauss.diff", "oscillator.polygauss_diff"),
    ("oscillator", "PolyGauss.eval", "oscillator.eval"),
    ("oscillator", "ground_state", "oscillator.ground_state"),
    ("oscillator", "build_hamiltonian", "oscillator.build_hamiltonian"),
    ("oscillator", "energy", "oscillator.energy"),
    ("oscillator", "residual_report", "oscillator.residual_report"),
    ("oscillator", "star_polygauss_truncated", "oscillator.truncated"),
    ("waves", "kernel_exponent", "waves.kernel"),
    ("waves", "star_waves", "waves.star_waves"),
    ("waves", "grid_oracle_star", "waves.grid_oracle"),
    ("waves", "WaveSum.sample_on_grid", "waves.sample"),
    ("waves", "freq_cross", "waves.freq_cross"),
    ("waves", "save_lattice", "waves.save_lattice"),
    ("exprs", "parse_expression", "exprs.parse"),
    ("exprs", "lower_poly", "exprs.lower"),
    ("exprs", "lower_wave", "exprs.lower"),
    ("cli", "main", "cli.main"),
)

# Per-layer metrics: name -> unit.  Counts are exact; *_s are seconds.
PER_LAYER = {
    "scalars.mul.calls": "count",
    "scalars.mul.self_s": "s",
    "scalars.mul.calls.under_starcore": "count",
    "scalars.mul.calls.under_polynomials": "count",
    "scalars.rt2_share": "ratio",
    "scalars.add.calls": "count",
    "scalars.add.self_s": "s",
    "scalars.pow.calls": "count",
    "polynomials.mul.calls": "count",
    "polynomials.mul.self_s": "s",
    "polynomials.mul.term_pairs": "count",
    "polynomials.add.calls": "count",
    "polynomials.add.self_s": "s",
    "polynomials.diff.calls": "count",
    "polynomials.diff.self_s": "s",
    "polynomials.format_s": "s",
    "starcore.star_n.calls": "count",
    "starcore.star_n.self_s": "s",
    "starcore.compositions": "count",
    "starcore.stepwise.calls": "count",
    "starcore.stepwise.self_s": "s",
    "starcore.conjugate.calls": "count",
    "closedforms.calls": "count",
    "closedforms.self_s": "s",
    "audit.claims": "count",
    "audit.guaranteed_s": "s",
    "audit.audited_s": "s",
    "audit.self_s": "s",
    "audit.oracle_confirm_s": "s",
    "audit.report_json_s": "s",
    "oscillator.star_increments.calls": "count",
    "oscillator.star_increments.self_s": "s",
    "oscillator.polygauss_diff.calls": "count",
    "oscillator.polygauss_diff.self_s": "s",
    "oscillator.eval.calls": "count",
    "oscillator.eval.self_s": "s",
    "oscillator.ground_state_s": "s",
    "waves.kernel.calls": "count",
    "waves.kernel.self_s": "s",
    "waves.star_waves.self_s": "s",
    "waves.grid_oracle.self_s": "s",
    "waves.sample.self_s": "s",
    "waves.tuples": "count",
    "exprs.parse.self_s": "s",
    "exprs.lower.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _has_rt2(v) -> bool:
    return bool(getattr(v, "rt2_re", 0) or getattr(v, "rt2_im", 0))


class Tracer:
    """Installs span wrappers on the package and aggregates their spans."""

    def __init__(self):
        # frames: [child time, layer, under, bookkeeping of nested wrappers]
        self._stack: list[list] = []
        self.overhead_s = 0.0
        # (span, under) -> [calls, self seconds, inclusive seconds]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []
        self._guaranteed: frozenset[str] = frozenset()

    # -- hooks: counts computed from a call's inputs, outside its span ---------

    def _hook_scalar_mul(self, args):
        if _has_rt2(args[0]) or _has_rt2(args[1]):
            self.counts["scalars.mul.rt2"] += 1

    def _hook_poly_mul(self, args):
        other = args[1]
        self.counts["polynomials.mul.term_pairs"] += (
            len(args[0].terms) * (len(other.terms) if hasattr(other, "terms") else 1))

    def _hook_compositions(self, args):
        """sum over m <= min degree of C(m+T-1, T-1) = C(bound+T, T), with
        T = 2 * #{theta_k != 0}: the compositions the series visits."""
        factors, cfg = args[0], args[1]
        degrees = [max((sum(e) for e in f.terms), default=-1) for f in factors]
        T = 2 * sum(1 for t in cfg.theta if t != 0)
        if T and min(degrees) >= 0:
            self.counts["starcore.compositions"] += math.comb(min(degrees) + T, T)

    def _hook_star_waves(self, args):
        self.counts["waves.tuples"] += math.prod(len(w.terms) for w in args[0])

    def _hook_grid_oracle(self, args):
        """Occupied frequencies per factor, counted as the oracle does."""
        occupancy = []
        for arr in args[0]:
            F = np.fft.fftn(np.asarray(arr, dtype=complex))
            cutoff = 1e-12 * max(1.0, float(np.abs(F).max()) / F.size)
            occupancy.append(int((np.abs(F) / F.size > cutoff).sum()))
        self.counts["waves.tuples"] += math.prod(occupancy)

    def _span_name(self, span: str, args) -> str:
        if span == "audit.claim":
            return span + (".guaranteed" if args[0] in self._guaranteed else ".audited")
        return span

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, span: str):
        layer = span.split(".", 1)[0]
        hook = {
            "scalars.mul": self._hook_scalar_mul,
            "polynomials.mul": self._hook_poly_mul,
            "starcore.star_n": self._hook_compositions,
            "starcore.conjugate": self._hook_compositions,
            "waves.star_waves": self._hook_star_waves,
            "waves.grid_oracle": self._hook_grid_oracle,
        }.get(span)
        named = span == "audit.claim"
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            outer = clock()
            name = self._span_name(span, args) if named else span
            if hook is not None:
                hook(args)
            parent = stack[-1] if stack else None
            if parent is None:
                under = "top"
            else:
                under = parent[1] if parent[1] != layer else parent[2]
            frame = [0.0, layer, under, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec = spans[(name, under)]
                rec[0] += 1
                rec[1] += (t1 - t0) - frame[0]
                rec[2] += (t1 - t0) - frame[3]
                end = clock()
                own = (end - outer) - (t1 - t0)
                self.overhead_s += own
                if parent is not None:
                    parent[0] += end - outer
                    parent[3] += own + frame[3]

        return traced

    def install(self) -> None:
        import nstar.audit

        self._guaranteed = frozenset(nstar.audit.GUARANTEED_CLAIMS)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "nstar" or name.startswith("nstar."))]
        for module_name, attr, span in TARGETS:
            module = sys.modules[f"nstar.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- metrics ---------------------------------------------------------------

    def _by(self, field: int, pred) -> float:
        return sum(rec[field] for (span, under), rec in self.spans.items() if pred(span, under))

    def metrics(self) -> dict[str, float]:
        calls = lambda name, under=None: self._by(
            0, lambda s, u: s == name and (under is None or u == under))
        self_s = lambda *names: self._by(1, lambda s, u: s in names)
        total_s = lambda name, under=None: self._by(
            2, lambda s, u: s == name and (under is None or u == under))
        layer = lambda field, prefix: self._by(field, lambda s, u: s.startswith(prefix + "."))
        mul_calls = calls("scalars.mul")
        values = {
            "scalars.mul.calls": mul_calls,
            "scalars.mul.self_s": self_s("scalars.mul"),
            "scalars.mul.calls.under_starcore": calls("scalars.mul", "starcore"),
            "scalars.mul.calls.under_polynomials": calls("scalars.mul", "polynomials"),
            "scalars.rt2_share": self.counts["scalars.mul.rt2"] / mul_calls if mul_calls else 0.0,
            "scalars.add.calls": calls("scalars.add"),
            "scalars.add.self_s": self_s("scalars.add"),
            "scalars.pow.calls": calls("scalars.pow"),
            "polynomials.mul.calls": calls("polynomials.mul"),
            "polynomials.mul.self_s": self_s("polynomials.mul"),
            "polynomials.mul.term_pairs": self.counts["polynomials.mul.term_pairs"],
            "polynomials.add.calls": calls("polynomials.add"),
            "polynomials.add.self_s": self_s("polynomials.add"),
            "polynomials.diff.calls": calls("polynomials.diff"),
            "polynomials.diff.self_s": self_s("polynomials.diff"),
            "polynomials.format_s": self_s("polynomials.format"),
            "starcore.star_n.calls": calls("starcore.star_n"),
            "starcore.star_n.self_s": self_s("starcore.star_n"),
            "starcore.compositions": self.counts["starcore.compositions"],
            "starcore.stepwise.calls": calls("starcore.stepwise"),
            "starcore.stepwise.self_s": self_s("starcore.stepwise"),
            "starcore.conjugate.calls": calls("starcore.conjugate"),
            "closedforms.calls": layer(0, "closedforms"),
            "closedforms.self_s": layer(1, "closedforms"),
            "audit.claims": calls("audit.claim.guaranteed") + calls("audit.claim.audited"),
            "audit.guaranteed_s": total_s("audit.claim.guaranteed"),
            "audit.audited_s": total_s("audit.claim.audited"),
            "audit.self_s": self_s("audit.claim.guaranteed", "audit.claim.audited",
                                   "audit.run_suite", "audit.jacobi"),
            "audit.oracle_confirm_s": total_s("starcore.stepwise", "audit"),
            "audit.report_json_s": total_s("audit.report_json"),
            "oscillator.star_increments.calls": calls("oscillator.star_increments"),
            "oscillator.star_increments.self_s": self_s("oscillator.star_increments"),
            "oscillator.polygauss_diff.calls": calls("oscillator.polygauss_diff"),
            "oscillator.polygauss_diff.self_s": self_s("oscillator.polygauss_diff"),
            "oscillator.eval.calls": calls("oscillator.eval"),
            "oscillator.eval.self_s": self_s("oscillator.eval"),
            "oscillator.ground_state_s": total_s("oscillator.ground_state"),
            "waves.kernel.calls": calls("waves.kernel"),
            "waves.kernel.self_s": self_s("waves.kernel"),
            "waves.star_waves.self_s": self_s("waves.star_waves"),
            "waves.grid_oracle.self_s": self_s("waves.grid_oracle"),
            "waves.sample.self_s": self_s("waves.sample"),
            "waves.tuples": self.counts["waves.tuples"],
            "exprs.parse.self_s": self_s("exprs.parse"),
            "exprs.lower.self_s": self_s("exprs.lower"),
            "cli.self_s": self_s("cli.main"),
            "trace.overhead_s": self.overhead_s,
        }
        if values.keys() != PER_LAYER.keys():
            raise RuntimeError("per-layer metric table and values disagree")
        return values
