import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")


def test_every_declared_script_target_imports():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
