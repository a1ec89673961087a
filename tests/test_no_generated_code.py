"""No library module generates code: a call to the builtin ``exec``,
``eval`` or ``compile`` runs code that no source file shows."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "metaplan"
BUILTINS = {"exec", "eval", "compile"}


def code_generating_calls(source: str) -> list[str]:
    """Each bare call to a code-generating builtin, as ``line: name``. An
    attribute call such as ``re.compile`` is not one."""
    return [f"{node.lineno}: {node.func.id}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in BUILTINS]


def test_finds_a_code_generating_call():
    assert code_generating_calls(
        "import re\nre.compile('a')\nexec('x = 1')\n"
        "f = eval\nprint(eval(compile('1', 's', 'eval')))\n") \
        == ["3: exec", "5: eval", "5: compile"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_generates_no_code(path):
    assert code_generating_calls(path.read_text("utf-8")) == []
