"""Nothing in src/nstar exists only for the tests.

Every module-level function or class in src/nstar, and every named
(non-dunder) method of such a class, must be referenced outside its own
definition: by a Name, an Attribute or an import in src/nstar, demos/ or
perfbench/, or by a whole-word mention in README.md.  Docstrings and
comments are not references, as the scan reads syntax trees.  The
allow-list is built, not typed: the package's ``__all__`` and the
attributes perfbench's tracer patches (perfbench/tracing.py, TARGETS).
Test-only references live in the test modules, such as
tests/references.py.

Blind spots: references are matched by name, not by owner, so a method
whose name is also a live attribute elsewhere (a ``scale`` method, say,
beside a ``spec.scale`` field) passes though nothing calls it; and a
helper whose only caller is itself test-only passes until that caller
is deleted.  Dunder methods are not checked; their callers are
operators and protocols.
"""

import ast
import importlib.util
import re
from pathlib import Path

import nstar

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nstar"
CALLER_DIRS = (SRC, ROOT / "demos", ROOT / "perfbench")
TRACING = ROOT / "perfbench" / "tracing.py"


def _definitions():
    """(path, qualified name, name, first line, last line) of each checked
    definition."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield path, node.name, node.name, _first_line(node), node.end_lineno
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (member.name.startswith("__") and member.name.endswith("__"))):
                        yield (path, f"{node.name}.{member.name}", member.name,
                               _first_line(member), member.end_lineno)


def _first_line(node) -> int:
    return min([node.lineno, *(d.lineno for d in node.decorator_list)])


def _references() -> dict:
    """name -> [(path, line)] for every Name, Attribute and imported name
    in the caller directories."""
    refs = {}
    for folder in CALLER_DIRS:
        for path in sorted(folder.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [part for alias in node.names for part in alias.name.split(".")]
                else:
                    continue
                for name in names:
                    refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _allowed() -> set:
    """The exported names and every name in the tracer's TARGETS."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return set(nstar.__all__) | {part for _, attr, _ in tracing.TARGETS for part in attr.split(".")}


def test_every_src_definition_has_a_caller_outside_the_tests():
    refs = _references()
    readme = (ROOT / "README.md").read_text()
    allowed = _allowed()
    orphans = []
    for path, qualname, name, first, last in _definitions():
        if name in allowed:
            continue
        if any(ref_path != path or not first <= line <= last
               for ref_path, line in refs.get(name, ())):
            continue
        if re.search(rf"\b{re.escape(name)}\b", readme):
            continue
        orphans.append(f"{path.relative_to(ROOT)}: {qualname}")
    assert not orphans, "defined in src but called only from tests, or not at all: " + ", ".join(orphans)
