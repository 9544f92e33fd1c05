"""Repository hygiene: the library keeps no dead helpers and a lean import path."""

import ast
import collections
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "voablocks"


def _definitions():
    """(name, file) of every module-level function and class of the library
    and every non-dunder method of its module-level classes."""
    out = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((node.name, path))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        out.append((item.name, path))
    return out


def _mentions(path):
    """(bare names, names that can reach another module) used in one file.

    A bare name in another file is a local of that file, so only attribute
    accesses, imports and the words of non-docstring strings (``__all__``,
    ``getattr`` names, benchmark span names) count across files.  Comments
    and docstrings never count."""
    tree = ast.parse(path.read_text())
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    bare, reaching = collections.Counter(), collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reaching[node.attr] += 1
        elif isinstance(node, ast.alias):
            reaching[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            reaching.update(re.findall(r"\w+", node.value))
    return bare, reaching


def test_every_library_definition_is_used():
    # a function, class or method that no code in src/, tests/ or perfbench/
    # refers to is dead; each concept keeps one live implementation
    bare = {}
    reaching = collections.Counter()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            bare[path], used = _mentions(path)
            reaching.update(used)
    dead = sorted(
        f"{path.name}:{name}" for name, path in _definitions() if not reaching[name] and not bare[path][name]
    )
    assert not dead, f"defined but never used: {dead}"


def test_every_import_is_used():
    # a name a library module imports and never uses is what a deletion
    # leaves behind; __init__.py imports to re-export, and a __future__
    # import is a compiler directive
    unused = []
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}:{name}")
    assert not unused, f"imported but never used: {unused}"


def test_import_path_skips_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize: start-up time that
    # every CLI run and every benchmark set-up pays
    code = "import voablocks, voablocks.cli, sys; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# the top-level stdlib modules that ``import voablocks, voablocks.cli`` loads
# today; every new one is start-up time that each CLI run and benchmark
# set-up pays.  Their "_"-prefixed parts (_json, _decimal, _sre for re,
# _collections_abc for collections.abc) come with them
IMPORT_BUDGET = set(
    "__future__ argparse cmath collections copyreg decimal enum fractions functools genericpath gettext "
    "itertools json keyword math numbers operator os posixpath re reprlib stat types warnings".split()
)
IMPORT_PARTS = {"_sre", "_collections_abc"}


def test_import_path_stays_within_its_stdlib_budget():
    code = (
        "import sys; before = set(sys.modules); import voablocks, voablocks.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    tops = {name.partition(".")[0] for name in out.stdout.split()} - {"voablocks"}
    extra = sorted(t for t in tops if t not in IMPORT_BUDGET | IMPORT_PARTS and t[1:] not in IMPORT_BUDGET)
    assert not extra, f"the import path loads stdlib modules outside its budget: {extra}"


def test_benchmark_tracer_resolves_every_traced_name():
    # the traced benchmark wraps library functions by name and calls
    # Scalar.is_cyclotomic inside its scalar-arithmetic wrapper; a deleted or
    # renamed target fails here rather than only in a traced benchmark run
    code = (
        "import importlib, pkgutil, voablocks, tracer\n"
        "modules = [voablocks] + [importlib.import_module('voablocks.' + m.name)"
        " for m in pkgutil.iter_modules(voablocks.__path__)]\n"
        "tr = tracer.Tracer(modules)\n"
        "tr.install()\n"
        "assert voablocks.scalars.Scalar.root_of_unity(3) * 2\n"
        "tr.metrics(0.0)\n"
        "tr.uninstall()\n"
    )
    env = {**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT / 'perfbench'}", "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
