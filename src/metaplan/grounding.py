"""Instantiate lifted schemas against problem objects into a ground task.

The ground task is the immutable core datum of the toolkit: a dense fact
table, an operator table with precondition/add/delete fact-index sets, and
the initial and goal fact sets. Grounding is deterministic: schemas are
visited in declaration order and bindings in lexicographic object order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Any

from .pddl import DomainAst, Literal, ProblemAst, ROOT_TYPE, check_compat

DEFAULT_OPERATOR_CAP = 10_000_000

TASK_SCHEMA_VERSION = 1


class GroundingError(Exception):
    """Domain/problem pair cannot be grounded."""


class CapacityError(Exception):
    """An enumeration would exceed its configured cap."""

    def __init__(self, message: str, count: int, cap: int):
        super().__init__(message)
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class Fact:
    """One ground predicate instance with its dense table index."""

    index: int
    predicate: str
    args: tuple[str, ...]

    @property
    def key(self) -> tuple[str, tuple[str, ...]]:
        return (self.predicate, self.args)

    def __str__(self) -> str:
        if self.args:
            return f"({self.predicate} {' '.join(self.args)})"
        return f"({self.predicate})"


@dataclass(frozen=True)
class GroundOperator:
    """A fully bound action schema over fact indices."""

    id: int
    schema: str
    args: tuple[str, ...]  # objects in schema parameter order
    pre: frozenset[int]
    add: frozenset[int]
    delete: frozenset[int]

    @property
    def name(self) -> str:
        if self.args:
            return f"({self.schema} {' '.join(self.args)})"
        return f"({self.schema})"


@dataclass(frozen=True)
class GroundTask:
    """Immutable grounded planning task: facts, operators, init, goal."""

    facts: tuple[Fact, ...]
    operators: tuple[GroundOperator, ...]
    init: frozenset[int]
    goal: frozenset[int]
    domain_name: str
    problem_name: str

    @cached_property
    def fact_index(self) -> dict[tuple[str, tuple[str, ...]], int]:
        return {f.key: f.index for f in self.facts}

    @cached_property
    def operator_index(self) -> dict[str, int]:
        return {o.name: o.id for o in self.operators}

    def fact_str(self, index: int) -> str:
        return str(self.facts[index])


def _objects_by_type(domain: DomainAst,
                     problem: ProblemAst) -> dict[str, list[str]]:
    """Map every type to the lexicographically sorted compatible objects."""
    by_type: dict[str, set[str]] = {ROOT_TYPE: set()}
    for tname in domain.types:
        by_type.setdefault(tname, set())
    for obj, tname in problem.objects:
        for anc in domain.ancestors(tname):
            by_type.setdefault(anc, set()).add(obj)
    return {t: sorted(objs) for t, objs in by_type.items()}


def ground(domain: DomainAst, problem: ProblemAst,
           max_operators: int = DEFAULT_OPERATOR_CAP) -> GroundTask:
    """Ground ``domain`` against ``problem`` into a :class:`GroundTask`.

    Every type-consistent total binding of every schema yields exactly one
    operator. Bindings may repeat objects; when that makes a ground literal
    land in both add and delete, the delete entry is dropped so the operator
    matches the (s \\ Del) | Add update with no internal ambiguity.
    """
    diags = check_compat(domain, problem)
    if diags:
        raise GroundingError("incompatible domain/problem: " + "; ".join(diags))

    candidates = _objects_by_type(domain, problem)
    total = 0
    for schema in domain.schemas:
        count = 1
        for _, tname in schema.params:
            count *= len(candidates.get(tname, ()))
        total += count
    if total > max_operators:
        raise CapacityError(
            f"grounding would create {total} operators (cap {max_operators})",
            total, max_operators)

    fact_keys: set[tuple[str, tuple[str, ...]]] = set()
    raw_ops: list[tuple[str, tuple[str, ...], set, set, set]] = []
    for schema in domain.schemas:
        param_names = [v for v, _ in schema.params]
        pools = [candidates.get(tname, []) for _, tname in schema.params]
        for combo in product(*pools):
            binding = dict(zip(param_names, combo))
            pre = {_bind(lit, binding) for lit in schema.pre}
            add = {_bind(lit, binding) for lit in schema.add}
            delete = {_bind(lit, binding) for lit in schema.delete}
            delete -= add
            fact_keys.update(pre, add, delete)
            raw_ops.append((schema.name, tuple(combo), pre, add, delete))

    init_keys = {(lit.predicate, lit.args) for lit in problem.init}
    goal_keys = {(lit.predicate, lit.args) for lit in problem.goal}
    fact_keys.update(init_keys, goal_keys)

    facts = tuple(Fact(i, pred, args)
                  for i, (pred, args) in enumerate(sorted(fact_keys)))
    index = {f.key: f.index for f in facts}

    operators = tuple(
        GroundOperator(i, name, args,
                       frozenset(index[k] for k in pre),
                       frozenset(index[k] for k in add),
                       frozenset(index[k] for k in delete))
        for i, (name, args, pre, add, delete) in enumerate(raw_ops))

    return GroundTask(facts=facts, operators=operators,
                      init=frozenset(index[k] for k in init_keys),
                      goal=frozenset(index[k] for k in goal_keys),
                      domain_name=domain.name, problem_name=problem.name)


def _bind(lit: Literal, binding: dict[str, str]) -> tuple[str, tuple[str, ...]]:
    return (lit.predicate, tuple(binding[a] for a in lit.args))


def reachability_prune(task: GroundTask) -> GroundTask:
    """Drop operators whose preconditions are not delete-relaxed reachable.

    Runs the standard add-only fixpoint from the initial state and keeps
    exactly the operators applicable somewhere in that relaxation. The
    solution set is unchanged. Fact and operator indices are re-densified.
    """
    reached = set(task.init)
    remaining = list(task.operators)
    changed = True
    while changed:
        changed = False
        still = []
        for op in remaining:
            if op.pre <= reached:
                if not op.add <= reached:
                    reached |= op.add
                    changed = True
            else:
                still.append(op)
                continue
        remaining = still

    kept = [op for op in task.operators if op.pre <= reached]
    used: set[int] = set(task.init) | set(task.goal)
    for op in kept:
        used |= op.pre | op.add | op.delete

    old_facts = [f for f in task.facts if f.index in used]
    remap = {f.index: i for i, f in enumerate(old_facts)}
    facts = tuple(Fact(i, f.predicate, f.args) for i, f in enumerate(old_facts))
    operators = tuple(
        GroundOperator(i, op.schema, op.args,
                       frozenset(remap[x] for x in op.pre),
                       frozenset(remap[x] for x in op.add),
                       frozenset(remap[x] for x in op.delete))
        for i, op in enumerate(kept))
    return GroundTask(facts=facts, operators=operators,
                      init=frozenset(remap[x] for x in task.init),
                      goal=frozenset(remap[x] for x in task.goal),
                      domain_name=task.domain_name,
                      problem_name=task.problem_name)


# ---------------------------------------------------------------------------
# JSON interchange (the canonical format consumed by the test oracles)
# ---------------------------------------------------------------------------

def task_to_json(task: GroundTask) -> dict[str, Any]:
    return {
        "schema_version": TASK_SCHEMA_VERSION,
        "domain": task.domain_name,
        "problem": task.problem_name,
        "facts": [{"predicate": f.predicate, "args": list(f.args)}
                  for f in task.facts],
        "operators": [{"schema": o.schema, "args": list(o.args),
                       "pre": sorted(o.pre), "add": sorted(o.add),
                       "del": sorted(o.delete)}
                      for o in task.operators],
        "init": sorted(task.init),
        "goal": sorted(task.goal),
    }
