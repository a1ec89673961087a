"""Every budget fails one way: a ``CapacityError`` naming what it counted,
with ``count`` past ``cap`` and the message ``"{what} exceeded cap {cap}:
{count}"``."""

import ast
from pathlib import Path

import pytest

from metaplan import (CapacityError, FeatureConfig, applicable_actions,
                      bfs_solve, build_conflict_set, ground, ground_reachable,
                      parse_domain, parse_problem)
from metaplan import evalkit, grounding, meta_ops, policy
from tests.conftest import SWITCH_DOMAIN, SWITCH_PROBLEM, build_task
from tests.reference import featurize_all
from tests.test_grounding import CHAIN_DOMAIN, chain_problem

SRC = Path(__file__).resolve().parents[1] / "src" / "metaplan"

# The oracle's old cap error, whose budget now raises CapacityError. It is
# written in two parts so that a text search for the name finds no source.
RETIRED = "Search" "MemoryError"


def switches():
    """A fresh four-switch task: 4 operators, 4 + 6 + 4 actions up to
    degree 3, 4 successors of the initial state at degree 1."""
    return build_task(SWITCH_DOMAIN, SWITCH_PROBLEM)


def enumerate_at(degree):
    task = switches()
    return lambda: applicable_actions(task, task.init_mask, degree,
                                      build_conflict_set(task))


def featurize_switches():
    task = switches()
    actions = applicable_actions(task, task.init_mask, 2,
                                 build_conflict_set(task))
    featurize_all(task, task.init_mask, actions, FeatureConfig(degree=2))


# Each budget: the cap constant, the cap set for the case, what the error
# names, the count it reports, and the call that trips it. Chain(4) makes
# 4 + 16 + 64 + 256 partial bindings; at degrees 2 and 3 a cap of 4 passes
# the applicable operators and trips at the first atom's children.
BUDGETS = {
    "ground": (grounding, "DEFAULT_OPERATOR_CAP", 3, "grounding operators",
               4, lambda: ground(parse_domain(SWITCH_DOMAIN),
                                 parse_problem(SWITCH_PROBLEM))),
    "reachable-operators": (
        grounding, "DEFAULT_OPERATOR_CAP", 3, "grounding operators", 4,
        lambda: ground_reachable(parse_domain(SWITCH_DOMAIN),
                                 parse_problem(SWITCH_PROBLEM))),
    "reachable-bindings": (
        grounding, "DEFAULT_BINDING_CAP", 339, "grounding bindings", 340,
        lambda: ground_reachable(parse_domain(CHAIN_DOMAIN),
                                 chain_problem(4))),
    "enumerate-deg1": (meta_ops, "DEFAULT_ACTION_CAP", 3, "meta-actions", 4,
                       enumerate_at(1)),
    "enumerate-deg2": (meta_ops, "DEFAULT_ACTION_CAP", 4, "meta-actions", 5,
                       enumerate_at(2)),
    "enumerate-deg3": (meta_ops, "DEFAULT_ACTION_CAP", 4, "meta-actions", 5,
                       enumerate_at(3)),
    "feature-rows": (policy, "MAX_TABLE_ROWS", 9, "feature table rows", 10,
                     featurize_switches),
    "bfs-successors": (evalkit, "DEFAULT_BFS_SUCCESSOR_CAP", 3,
                       "search successors", 4,
                       lambda: bfs_solve(switches(), 1, 8)),
}


@pytest.mark.parametrize("name", BUDGETS)
def test_every_budget_raises_one_error_form(name, monkeypatch):
    module, constant, cap, what, count, call = BUDGETS[name]
    monkeypatch.setattr(module, constant, cap)
    with pytest.raises(CapacityError) as err:
        call()
    assert (err.value.count, err.value.cap) == (count, cap)
    assert err.value.count > err.value.cap
    assert str(err.value) == f"{what} exceeded cap {cap}: {count}"


def named(node: ast.AST) -> str | None:
    """The identifier that ``node`` reads, takes, defines or imports."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        return node.name
    if isinstance(node, ast.alias):
        return node.name
    return None


def budget_faults(source: str) -> list[str]:
    """Each ``CapacityError(...)`` call in ``source`` that does not pass
    exactly three positional arguments, the first a string literal, and
    each place that names ``RETIRED``, as ``"line: name"``."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and named(node.func) == "CapacityError":
            args = node.args
            if (len(args) != 3 or node.keywords
                    or any(isinstance(a, ast.Starred) for a in args)
                    or not isinstance(args[0], ast.Constant)
                    or not isinstance(args[0].value, str)):
                faults.append((node.lineno, "CapacityError"))
        elif named(node) == RETIRED:
            faults.append((node.lineno, RETIRED))
    return [f"{line}: {name}" for line, name in sorted(faults)]


def test_finds_a_worded_capacity_error():
    source = (f"from .evalkit import {RETIRED}\n"
              "CapacityError(f'{n} actions', n, cap)\n"
              "CapacityError('meta-actions', n, cap)\n"
              "grounding.CapacityError('rows', count=n, cap=cap)\n"
              f"class {RETIRED}(Exception):\n    pass\n"
              f"raise evalkit.{RETIRED}(n, cap)\n")
    assert budget_faults(source) == [
        f"1: {RETIRED}", "2: CapacityError", "4: CapacityError",
        f"5: {RETIRED}", f"7: {RETIRED}"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_raises_budgets_by_what_they_count(path):
    assert budget_faults(path.read_text("utf-8")) == [], \
        f"{path.name} words a budget error of its own"
