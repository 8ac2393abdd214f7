import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import plbench

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(plbench.__file__).resolve().parent


def project_table() -> dict:
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_every_declared_script_target_imports():
    for name, target in project_table().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def top_level_imports(path: Path) -> set[str]:
    """First name of every absolute import in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower().replace("-", "_")
                for dep in project_table()["dependencies"]}
    imported = set().union(*(top_level_imports(p) for p in PACKAGE.rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "plbench"}
    assert third_party, "the package imports no third-party module"
    assert third_party <= declared, sorted(third_party - declared)


def test_importing_the_package_loads_no_scipy():
    # every module, in a fresh interpreter: a test run may have imported
    # scipy already
    code = (
        "import importlib, pkgutil, sys, plbench\n"
        "for m in pkgutil.iter_modules(plbench.__path__):\n"
        "    importlib.import_module('plbench.' + m.name)\n"
        "print(sorted(n for n in sys.modules if n.partition('.')[0] == 'scipy'))\n"
    )
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
