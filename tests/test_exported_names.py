"""Every name the package exports has a caller outside the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "metaplan"

# Program code that may import the package's names: the benchmark's harness
# (not its own tests) and the demos.
CALLERS = sorted([p for p in (ROOT / "perfbench").glob("*.py")
                  if not p.name.startswith("test_")]
                 + list((ROOT / "demos").glob("*.py")))


def exported_names(source: str) -> set[str]:
    """The names ``__init__.py`` re-exports from the package's modules."""
    return {alias.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def referenced_names(source: str) -> set[str]:
    """Every name read and every attribute taken in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_from_package(source: str) -> set[str]:
    """The names ``source`` imports with ``from metaplan import ...``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "metaplan"
            for alias in node.names}


def unused_exports(init: str, modules: list[str],
                   callers: list[str]) -> list[str]:
    """The exported names that no library module references and no caller
    imports."""
    used = set().union(*map(referenced_names, modules),
                       *map(imported_from_package, callers))
    return sorted(exported_names(init) - used)


def test_finds_an_unused_export():
    init = "from .a import used, called, idle\nfrom .b import Kept\n"
    modules = ["def f():\n    return used()\n", "x.Kept\n"]
    callers = ["from metaplan import called\nimport metaplan\nmetaplan.idle\n"]
    assert unused_exports(init, modules, callers) == ["idle"]


def test_every_export_has_a_program_caller():
    modules = [p.read_text("utf-8") for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"]
    callers = [p.read_text("utf-8") for p in CALLERS]
    unused = unused_exports((SRC / "__init__.py").read_text("utf-8"),
                            modules, callers)
    assert unused == [], ("metaplan exports names that only the tests use; "
                          "move them to tests/reference.py")
