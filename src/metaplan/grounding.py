"""Instantiate lifted schemas against problem objects into a ground task.

The ground task is the immutable core datum of the toolkit: a dense fact
table, an operator table, and the initial and goal fact sets. An operator
holds its precondition, add and delete lists as int fact masks, bit ``f``
standing for fact ``f``, built straight from the fact index; its ``pre``,
``add`` and ``delete`` fact sets are views derived from the masks on each
read, for display and the tests. :func:`fact_mask` and :func:`mask_facts`
are the only conversions between the two. Grounding is deterministic:
schemas are visited in declaration order and bindings in lexicographic
object order.

Two groundings are offered. Both bind a schema's literals through the
same positional key functions and build their task through one builder.
:func:`ground` builds every type-consistent binding (the raw task).
:func:`ground_reachable` builds only what the delete relaxation reaches,
as Fast Downward's translator does (Helmert 2009, "Concise finite-domain
representations for PDDL planning tasks"): it joins static predicates
during binding and explores the relaxed task before building an
operator, so unreachable bindings are never built. Its result equals the
raw task pruned to its relaxed-reachable operators, exactly; the tests
check that against ``ground`` and the set-algebra prune of
``tests/reference.py``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from .pddl import (ActionSchemaAst, DomainAst, ProblemAst, ROOT_TYPE,
                   check_compat)

DEFAULT_OPERATOR_CAP = 10_000_000

# ground_reachable's static join makes partial bindings before it builds any
# operator. With two or more objects per parameter it makes fewer than two
# per raw binding, so this cap admits what ground's cap admits. Each costs
# about 0.7 us against about 30 us for a raw operator in ground (2-core VM),
# so a join that keeps almost nothing of a huge product stops within about
# a minute.
DEFAULT_BINDING_CAP = 10 * DEFAULT_OPERATOR_CAP

TASK_SCHEMA_VERSION = 1


class GroundingError(Exception):
    """Domain/problem pair cannot be grounded."""


class CapacityError(Exception):
    """An enumeration would exceed its configured cap."""

    def __init__(self, message: str, count: int, cap: int):
        super().__init__(message)
        self.count = count
        self.cap = cap


def fact_mask(facts: Iterable[int]) -> int:
    """The mask with bit ``f`` set for each fact ``f``."""
    mask = 0
    for f in facts:
        mask |= 1 << f
    return mask


def mask_facts(mask: int) -> list[int]:
    """The facts of ``mask`` in ascending order."""
    facts = []
    while mask:
        low = mask & -mask
        facts.append(low.bit_length() - 1)
        mask ^= low
    return facts


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class GroundOperator:
    """A fully bound action schema over fact indices, its precondition, add
    and delete lists held as fact masks."""

    id: int
    schema: str
    args: tuple[str, ...]  # objects in schema parameter order
    pre_mask: int
    add_mask: int
    delete_mask: int

    @property
    def pre(self) -> frozenset[int]:
        """The precondition facts, derived from ``pre_mask`` on each read."""
        return frozenset(mask_facts(self.pre_mask))

    @property
    def add(self) -> frozenset[int]:
        """The add facts, derived from ``add_mask`` on each read."""
        return frozenset(mask_facts(self.add_mask))

    @property
    def delete(self) -> frozenset[int]:
        """The delete facts, derived from ``delete_mask`` on each read."""
        return frozenset(mask_facts(self.delete_mask))

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
    def operator_index(self) -> dict[str, int]:
        return {o.name: o.id for o in self.operators}

    def fact_str(self, index: int) -> str:
        return str(self.facts[index])


_FactKey = tuple[str, tuple[str, ...]]
_KeyOf = Callable[[tuple[str, ...]], _FactKey]
# A schema literal as its predicate and its arguments' parameter positions.
_Positional = tuple[str, tuple[int, ...]]
# An operator before indexing: schema name, binding, and the fact keys of
# its precondition, add and delete lists.
_RawOperator = tuple[str, tuple[str, ...], set, set, set]


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


def ground(domain: DomainAst, problem: ProblemAst) -> GroundTask:
    """Ground ``domain`` against ``problem`` into a :class:`GroundTask`.

    Every type-consistent total binding of every schema yields exactly one
    operator. Bindings may repeat objects; when that makes a ground literal
    land in both add and delete, the delete entry is dropped so the operator
    matches the (s \\ Del) | Add update with no internal ambiguity.

    ``DEFAULT_OPERATOR_CAP``, read when the grounding runs, bounds the
    binding product: a larger one raises :class:`CapacityError` before any
    operator is built.
    """
    diags = check_compat(domain, problem)
    if diags:
        raise GroundingError("incompatible domain/problem: " + "; ".join(diags))

    max_operators = DEFAULT_OPERATOR_CAP
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

    raw_ops: list[_RawOperator] = []
    for schema in domain.schemas:
        pools = [candidates.get(tname, []) for _, tname in schema.params]
        raw_ops += _raw_operators(schema, product(*pools))
    return _build_task(domain, problem, raw_ops)


def _build_task(domain: DomainAst, problem: ProblemAst,
                raw_ops: list[_RawOperator]) -> GroundTask:
    """The task of ``raw_ops``, in their order. The fact table is the
    literals of ``init``, ``goal`` and the operators, in sorted key order."""
    init_keys = {(lit.predicate, lit.args) for lit in problem.init}
    goal_keys = {(lit.predicate, lit.args) for lit in problem.goal}
    fact_keys = init_keys | goal_keys
    for _, _, pre_keys, add_keys, delete_keys in raw_ops:
        fact_keys.update(pre_keys, add_keys, delete_keys)
    ordered = sorted(fact_keys)
    index = {key: i for i, key in enumerate(ordered)}
    facts = tuple(Fact(i, pred, args) for i, (pred, args) in enumerate(ordered))
    at = index.__getitem__
    operators = tuple(
        GroundOperator(i, name, args, fact_mask(map(at, pre_keys)),
                       fact_mask(map(at, add_keys)),
                       fact_mask(map(at, delete_keys)))
        for i, (name, args, pre_keys, add_keys, delete_keys)
        in enumerate(raw_ops))
    return GroundTask(facts=facts, operators=operators,
                      init=frozenset(index[k] for k in init_keys),
                      goal=frozenset(index[k] for k in goal_keys),
                      domain_name=domain.name, problem_name=problem.name)


def _positional(schema: ActionSchemaAst) -> list[list[_Positional]]:
    """The schema's precondition, add and delete literals, each as its
    predicate and the parameter positions of its arguments."""
    position = {v: i for i, (v, _) in enumerate(schema.params)}
    return [[(lit.predicate, tuple(position[a] for a in lit.args))
             for lit in literals]
            for literals in (schema.pre, schema.add, schema.delete)]


def _raw_operators(schema: ActionSchemaAst,
                   combos: Iterable[tuple[str, ...]]) -> Iterator[_RawOperator]:
    """The raw operator of each binding of ``combos``, with ``add &
    delete`` dropped from the delete list."""
    pre_of, add_of, delete_of = ([_key_of(pred, pos) for pred, pos in lits]
                                 for lits in _positional(schema))
    for combo in combos:
        add_keys = {key(combo) for key in add_of}
        yield (schema.name, combo, {key(combo) for key in pre_of}, add_keys,
               {key(combo) for key in delete_of} - add_keys)


# ---------------------------------------------------------------------------
# Grounding the relaxed-reachable task directly
# ---------------------------------------------------------------------------

def ground_reachable(domain: DomainAst, problem: ProblemAst) -> GroundTask:
    """Ground only the operators that the delete relaxation reaches.

    The result equals the raw task of :func:`ground` less the operators
    whose preconditions the delete relaxation never reaches, ids
    re-densified: the same facts and operators, with the same ids and in
    the same order as the prune of ``tests/reference.py`` gives. The
    unreachable bindings are never built, following the exploration of Fast
    Downward's translator (Helmert 2009, "Concise finite-domain
    representations for PDDL planning tasks"):

    1. A predicate that no schema adds or deletes is static. Parameters are
       bound depth-first in declaration order, so bindings stay in
       lexicographic order, and a partial binding is rejected as soon as one
       of its static preconditions is fully bound and absent from ``init``.
    2. The candidates that survive run through the delete-relaxed fixpoint,
       a worklist that counts each candidate's unreached preconditions.
       Reached candidates become operators in their original order, with
       ``add & delete`` dropped from the delete list as :func:`ground` does.
       The fact table is ``init | goal`` and the kept operators' literals,
       in sorted key order.

    Two caps, read when the grounding runs, bound its time and memory:
    ``DEFAULT_OPERATOR_CAP`` counts the candidates that survive the static
    join (the operators actually built, not the binding product), and
    ``DEFAULT_BINDING_CAP`` counts the partial bindings the join makes.
    :class:`CapacityError` is raised before making or building past either,
    with ``count`` the total reached at that point.
    """
    diags = check_compat(domain, problem)
    if diags:
        raise GroundingError("incompatible domain/problem: " + "; ".join(diags))

    candidates = _objects_by_type(domain, problem)
    init_keys = {(lit.predicate, lit.args) for lit in problem.init}
    goal_keys = {(lit.predicate, lit.args) for lit in problem.goal}
    dynamic = {lit.predicate for schema in domain.schemas
               for lit in schema.add | schema.delete}

    spent: Counter[str] = Counter()
    raw_ops: list[_RawOperator] = []
    for schema in domain.schemas:
        checks: list[list[_KeyOf]] = [[] for _ in schema.params]
        unsatisfiable = False
        for pred, pos in _positional(schema)[0]:
            if pred in dynamic:
                continue
            if pos:
                checks[max(pos)].append(_key_of(pred, pos))
            elif (pred, ()) not in init_keys:
                unsatisfiable = True
        if unsatisfiable:
            continue
        pools = [candidates.get(tname, []) for _, tname in schema.params]
        raw_ops += _raw_operators(
            schema, _static_bindings(pools, checks, init_keys, spent))

    return _build_task(domain, problem, _relaxed_reachable(raw_ops, init_keys))


def _key_of(pred: str, pos: tuple[int, ...]) -> _KeyOf:
    """The function from a binding to the fact key of the literal ``pred``
    whose arguments are the parameters at positions ``pos``."""
    if len(pos) > 1:
        args = itemgetter(*pos)
        return lambda combo: (pred, args(combo))
    if pos:
        (i,) = pos
        return lambda combo: (pred, (combo[i],))
    return lambda combo: (pred, ())


def _charge(spent: Counter[str], kind: str, count: int) -> None:
    """Add ``count`` to ``spent[kind]``, raising :class:`CapacityError` once
    it passes the cap on ``kind`` ("operators" or "bindings")."""
    cap = DEFAULT_OPERATOR_CAP if kind == "operators" else DEFAULT_BINDING_CAP
    spent[kind] += count
    if spent[kind] > cap:
        raise CapacityError(
            f"grounding would make more than {cap} {kind} (cap {cap})",
            spent[kind], cap)


def _static_bindings(pools: list[list[str]], checks: list[list[_KeyOf]],
                     init_keys: set[_FactKey],
                     spent: Counter[str]) -> Iterator[tuple[str, ...]]:
    """Bindings over ``pools`` in lexicographic order, less those with a
    static precondition absent from ``init_keys``.

    ``checks[d]`` holds the static preconditions whose last parameter is
    ``d``; the bindings of parameter ``d`` under one prefix are tested on
    them as soon as they are made. Past the last tested parameter the
    remaining parameters are a plain product. The partial bindings made
    and the bindings yielded are charged to ``spent`` before they are made,
    all those under one prefix at once.
    """
    last = max((d for d, tests in enumerate(checks) if tests), default=-1)
    tail = pools[last + 1:]
    size = prod(map(len, tail))
    if last < 0:
        _charge(spent, "operators", size)
        return product(*pools)

    def extend(prefix: tuple[str, ...],
               depth: int) -> Iterator[tuple[str, ...]]:
        combos = [prefix + (obj,) for obj in pools[depth]]
        for key in checks[depth]:
            combos = [combo for combo in combos if key(combo) in init_keys]
        if depth < last:
            _charge(spent, "bindings", len(combos) * len(pools[depth + 1]))
            for combo in combos:
                yield from extend(combo, depth + 1)
            return
        _charge(spent, "operators", len(combos) * size)
        for combo in combos:
            for rest in product(*tail):
                yield combo + rest

    _charge(spent, "bindings", len(pools[0]))
    return extend((), 0)


def _relaxed_reachable(raw_ops: list[_RawOperator],
                       init_keys: set[_FactKey]) -> list[_RawOperator]:
    """The operators whose preconditions all lie in the delete-relaxed
    closure of ``init_keys``, in their original order.

    Each operator counts its preconditions not yet reached; reaching a fact
    decrements the count of every operator waiting on it, and an operator
    whose count reaches zero adds its effects. Every operator and fact is
    handled once.
    """
    reached = set(init_keys)
    waiting: defaultdict[_FactKey, list[int]] = defaultdict(list)
    missing: list[int] = []
    ready: list[int] = []
    for i, (_, _, pre_keys, _, _) in enumerate(raw_ops):
        unmet = pre_keys - reached
        missing.append(len(unmet))
        for key in unmet:
            waiting[key].append(i)
        if not unmet:
            ready.append(i)
    while ready:
        for key in raw_ops[ready.pop()][3]:
            if key not in reached:
                reached.add(key)
                for j in waiting.pop(key, ()):
                    missing[j] -= 1
                    if not missing[j]:
                        ready.append(j)
    return [op for op, count in zip(raw_ops, missing) if not count]


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
                       "pre": mask_facts(o.pre_mask),
                       "add": mask_facts(o.add_mask),
                       "del": mask_facts(o.delete_mask)}
                      for o in task.operators],
        "init": sorted(task.init),
        "goal": sorted(task.goal),
    }
