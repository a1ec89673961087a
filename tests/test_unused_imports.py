"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "metaplan"

# __init__.py is not checked: it is the package's public API, and every
# import there is a re-export.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# Names imported on purpose without a use in the importing module: the step
# rule's causes, re-exported beside CAUSE_GOAL so that every ValidationResult
# cause can be imported from evalkit.
ALLOWED = {
    "evalkit.py": {"CAUSE_CONFLICT", "CAUSE_DEGREE", "CAUSE_INAPPLICABLE"},
}


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that no other line reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom x import a, b as c\nc()\n") \
        == ["1: os", "2: a"]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    allowed = ALLOWED.get(path.name, set())
    unused = [entry for entry in unused_imports(path.read_text("utf-8"))
              if entry.split(": ")[1] not in allowed]
    assert unused == [], f"{path.name} imports names it never uses"
