"""The demos import only names that exist, and the quick ones run clean."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Trains eight policies (about 40 s); only its imports are checked.
IMPORT_ONLY = {"06_reward_sweep.py"}


def metaplan_imports(path: Path):
    """(module, name) for every ``from metaplan... import name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "metaplan":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_exist(demo):
    imported = list(metaplan_imports(demo))
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), \
            f"{demo.name} imports missing {module}.{name}"


@pytest.mark.parametrize(
    "demo", [d for d in DEMOS if d.name not in IMPORT_ONLY],
    ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
