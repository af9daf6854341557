"""The benchmark's traced run wraps package functions and methods by name
(perfbench/tracing.py, TARGETS).  Installing its tracer here makes a
rename or deletion of any of those names fail this suite, not only the
traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import nstar.cli  # noqa: F401  (imports every module the tracer patches)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _package_attributes() -> dict:
    """(owner, name) -> value for every attribute the tracer may replace:
    module globals, and class attributes of the package's classes."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "nstar" or mod_name.startswith("nstar.")):
            continue
        for key, value in vars(mod).items():
            out[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[(f"{mod_name}.{key}", attr)] = member
    return out


def test_tracer_installs_and_restores_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    before = _package_attributes()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _package_attributes()
    finally:
        tracer.uninstall()
    wrapped = sum(during[key] is not before[key] for key in before)
    assert wrapped >= len(tracing.TARGETS)
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
