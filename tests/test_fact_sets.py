"""The library holds fact sets one way, as int masks: no module builds a set
of facts from a mask, but for the one reader that asks for sets."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "metaplan"

# The trace's visited states as frozensets, which the benchmark's reference
# checks read.
ALLOWED = {"env.py: EpisodeTrace.states"}


def calls_mask_facts(node: ast.AST) -> bool:
    """True iff ``node`` holds a call of ``mask_facts``, by name or as an
    attribute."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Call):
            func = inner.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if name == "mask_facts":
                return True
    return False


def set_builds(source: str) -> list[str]:
    """The scope (``Class.function``, or ``<module>``) of each ``set(...)``,
    ``frozenset(...)`` or set comprehension in ``source`` that is built
    from a ``mask_facts(...)`` call, one entry per build."""
    found: list[str] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            is_set = isinstance(child, ast.SetComp) or (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id in ("set", "frozenset"))
            if is_set and calls_mask_facts(child):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_finds_a_set_built_from_mask_facts():
    source = (
        "def f(m):\n"
        "    return frozenset(mask_facts(m))\n"
        "class T:\n"
        "    def states(self):\n"
        "        return [set(grounding.mask_facts(m)) for m in self.masks]\n"
        "    def kept(self, m):\n"
        "        return sorted(mask_facts(m)), set(other(m)), frozenset()\n"
        "x = {f for f in mask_facts(3)}\n")
    assert set_builds(source) == ["f", "T.states", "<module>"]


def test_library_builds_no_fact_set_from_a_mask():
    found = {f"{path.name}: {scope}" for path in sorted(SRC.glob("*.py"))
             for scope in set_builds(path.read_text("utf-8"))}
    assert found - ALLOWED == set(), (
        "fact sets are held as masks; convert with mask_facts only where a "
        "list of fact ids is needed")
    assert found == ALLOWED
