"""Instantiate lifted schemas against problem objects into a ground task.

The ground task is the immutable core datum of the toolkit: a dense fact
table, an operator table, and the initial and goal facts, held as the int
fact masks ``init_mask`` and ``goal_mask``, bit ``f`` standing for fact
``f``. An operator holds its precondition, add and delete lists as fact
masks too, summed from the bits of its fact ids; the masks are the only
form either record holds its fact sets in. :func:`fact_mask` and
:func:`mask_facts` convert between a mask and its fact ids, and
:func:`task_to_json` lists each mask's facts, which is the form the test
oracles read. Grounding is deterministic: schemas are visited in
declaration order and bindings in lexicographic object order.

Two groundings are offered, and both work on interned int fact ids from
binding to mask. Each schema literal reads its args off a binding through
a C-level ``itemgetter``, and its ``(predicate, args)`` key is interned
once per grounding to a dense int id, so a candidate operator holds small
sets of ints. One builder ranks the used ids by key, which gives the
sorted fact table, and sums each operator's bits into its masks.
:func:`ground` builds every type-consistent binding (the raw task).
:func:`ground_reachable` builds only what the delete relaxation reaches,
as Fast Downward's translator does (Helmert 2009, "Concise finite-domain
representations for PDDL planning tasks"): it joins each schema's static
preconditions through indexes of their ``init`` tuples, binding the most
constrained parameter first, and explores the relaxed task before
building an operator, so neither a binding a static literal rejects nor
an unreachable one is built. Its result equals the raw task pruned to
its relaxed-reachable operators, exactly; the tests check both
groundings against the plain grounder and the set-algebra prune of
``tests/reference.py``, and the join against a filtered binding product.

Compiled data is per table, not per task. Problems of one domain often
ground to equal fact and operator tables, and :func:`_build_task` looks
each new table up among those of the live tasks, hashed by its sizes: a
task whose table is equal to one of them gets that table's two tuples and
its one compiled record. What other modules compile from the table alone,
the conflict relation and the applicability table of
:mod:`metaplan.meta_ops`, is kept on that record, so it is built once per
distinct table and freed with the last task that holds it. What depends on
a task's init or goal, such as the policy's feature table, stays per task.
"""

from __future__ import annotations

import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import count, product
from math import prod
from operator import itemgetter
from typing import (Any, Callable, Collection, Iterable, Iterator,
                    Mapping, NamedTuple)

from .pddl import (ActionSchemaAst, DomainAst, Literal, ProblemAst, ROOT_TYPE,
                   check_compat)

DEFAULT_OPERATOR_CAP = 10_000_000

# ground_reachable's static join makes partial bindings before it builds any
# operator: at each depth but the last, one per object that the literals
# completed so far allow. Those are prefixes of raw bindings, so with two
# or more objects per parameter there are fewer of them than raw bindings,
# and this cap admits what ground's cap admits. Each costs about 0.7 us
# against about 30 us for a raw operator in ground (2-core VM), so a join
# that keeps almost nothing of a huge product stops within about a minute.
DEFAULT_BINDING_CAP = 10 * DEFAULT_OPERATOR_CAP

TASK_SCHEMA_VERSION = 1


class GroundingError(Exception):
    """Domain/problem pair cannot be grounded."""


class CapacityError(Exception):
    """``count`` of ``what`` exceeded ``cap``: how every budget in the
    library fails, named by what it counts."""

    def __init__(self, what: str, count: int, cap: int):
        super().__init__(f"{what} exceeded cap {cap}: {count}")
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


class Fact(NamedTuple):
    """One ground predicate instance with its dense table index (a field
    that shadows ``tuple.index``)."""

    index: int
    predicate: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        if self.args:
            return f"({self.predicate} {' '.join(self.args)})"
        return f"({self.predicate})"


class GroundOperator(NamedTuple):
    """A fully bound action schema over fact indices, its precondition, add
    and delete lists held as fact masks."""

    id: int
    schema: str
    args: tuple[str, ...]  # objects in schema parameter order
    pre_mask: int
    add_mask: int
    delete_mask: int

    @property
    def name(self) -> str:
        if self.args:
            return f"({self.schema} {' '.join(self.args)})"
        return f"({self.schema})"


class _Compiled(dict[str, Any]):
    """What other modules compile from one fact and operator table alone,
    under keys of their own (:mod:`metaplan.meta_ops` keeps the conflict
    relation and the applicability table here), with the table's one pair
    of tuples. Every task a grounding makes of an equal table shares one
    record, which lives as long as the last of them."""

    __slots__ = ("facts", "operators", "__weakref__")

    def __init__(self, facts: tuple[Fact, ...],
                 operators: tuple[GroundOperator, ...]) -> None:
        super().__init__()
        self.facts = facts
        self.operators = operators


class _TableKey(NamedTuple):
    """A fact and operator table as the key of its record: equal by value,
    hashed by its two sizes alone. So a table of sizes no live table has
    costs one small hash, and a table is compared in full only with the
    live tables of its sizes, which fails at their first difference."""

    facts: tuple[Fact, ...]
    operators: tuple[GroundOperator, ...]

    def __hash__(self) -> int:
        return hash((len(self.facts), len(self.operators)))


# The record of every table that a live task holds.
_TABLES: weakref.WeakValueDictionary[_TableKey, _Compiled] = \
    weakref.WeakValueDictionary()


@dataclass(frozen=True)
class GroundTask:
    """Immutable grounded planning task: facts, operators, and the initial
    and goal facts held as fact masks."""

    facts: tuple[Fact, ...]
    operators: tuple[GroundOperator, ...]
    init_mask: int
    goal_mask: int
    domain_name: str
    problem_name: str

    @cached_property
    def operator_index(self) -> dict[str, int]:
        return {o.name: o.id for o in self.operators}

    @cached_property
    def _compiled(self) -> _Compiled:
        """The record of what is compiled from the task's facts and
        operators alone. A grounding gives every task of an equal table one
        shared record (:func:`_build_task`); a task made any other way, as
        by ``dataclasses.replace``, gets its own on first use."""
        return _Compiled(self.facts, self.operators)

    def fact_str(self, index: int) -> str:
        return str(self.facts[index])


_FactKey = tuple[str, tuple[str, ...]]
_Args = tuple[str, ...]
# The function from a binding to a literal's args, a C-level itemgetter.
_Getter = Callable[[tuple[str, ...]], _Args]
# A schema literal as its predicate's id table and the getter of its args.
_Bound = tuple[dict[_Args, int], _Getter]
# A schema literal as its predicate and its arguments' parameter positions.
_Positional = tuple[str, tuple[int, ...]]
# An operator before indexing: schema name, binding, the fact ids of its
# precondition and add lists, and its schema's bound delete literals, which
# are read only when the operator is built.
_RawOperator = tuple[str, tuple[str, ...], set[int], set[int], list[_Bound]]


class _FactIds(dict[str, defaultdict[_Args, int]]):
    """Fact keys interned to dense int ids, one id table per predicate.

    ``self[pred][args]`` is the id of the fact ``(pred, args)``; a key met
    for the first time takes the next id. Ids follow the order keys are
    met in, not key order: :func:`_build_task` ranks the used ones by key.
    """

    def __init__(self) -> None:
        super().__init__()
        self._next = count().__next__

    def __missing__(self, pred: str) -> defaultdict[_Args, int]:
        table = self[pred] = defaultdict(self._next)
        return table

    def of(self, literals: Iterable[Literal]) -> set[int]:
        """The ids of ``literals``."""
        return {self[lit.predicate][lit.args] for lit in literals}

    def keys_by_id(self) -> list[_FactKey]:
        """The key of every id met so far, indexed by id."""
        keys: list[_FactKey] = [("", ())] * sum(map(len, self.values()))
        for pred, table in self.items():
            for args, i in table.items():
                keys[i] = (pred, args)
        return keys


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
    whole binding product, charged at once as :func:`ground_reachable`
    charges its candidates: a larger one raises :class:`CapacityError`,
    with ``count`` the product, before any operator is built.
    """
    diags = check_compat(domain, problem)
    if diags:
        raise GroundingError("incompatible domain/problem: " + "; ".join(diags))

    candidates = _objects_by_type(domain, problem)
    pools = [[candidates.get(tname, []) for _, tname in schema.params]
             for schema in domain.schemas]
    _charge(Counter(), "operators", sum(prod(map(len, p)) for p in pools))

    ids = _FactIds()
    raw_ops: list[_RawOperator] = []
    for schema, schema_pools in zip(domain.schemas, pools):
        raw_ops += _raw_operators(schema, ids, product(*schema_pools))
    return _build_task(domain, problem, ids, raw_ops)


def _build_task(domain: DomainAst, problem: ProblemAst, ids: _FactIds,
                raw_ops: list[_RawOperator]) -> GroundTask:
    """The task of ``raw_ops``, in their order, with ``add & delete``
    dropped from each delete list. The fact table is the literals of
    ``init``, ``goal`` and the operators, in sorted key order.

    Each used id is ranked by its key once and maps to the bit of its rank;
    a mask, an operator's or ``init``'s or ``goal``'s, is the sum of its
    ids' bits, which are distinct, so the sum is their OR.

    A task whose fact and operator table equals a live task's takes that
    task's two tuples and compiled record (:attr:`GroundTask._compiled`),
    so a set of problems that ground to a few tables holds and compiles
    each table once.
    """
    init, goal = ids.of(problem.init), ids.of(problem.goal)
    ops = [(name, combo, pre, add,
            {table[get(combo)] for table, get in delete_of} - add)
           for name, combo, pre, add, delete_of in raw_ops]
    used = init | goal
    for _, _, pre, add, delete in ops:
        used.update(pre, add, delete)
    key = ids.keys_by_id()
    order = sorted(used, key=key.__getitem__)
    bit = {i: 1 << r for r, i in enumerate(order)}.__getitem__
    facts = tuple(Fact(r, *key[i]) for r, i in enumerate(order))
    operators = tuple(
        GroundOperator(n, name, combo, sum(map(bit, pre)), sum(map(bit, add)),
                       sum(map(bit, delete)))
        for n, (name, combo, pre, add, delete) in enumerate(ops))
    table = _TableKey(facts, operators)
    compiled = _TABLES.get(table)
    if compiled is None:
        compiled = _TABLES[table] = _Compiled(facts, operators)
    task = GroundTask(facts=compiled.facts, operators=compiled.operators,
                      init_mask=sum(map(bit, init)),
                      goal_mask=sum(map(bit, goal)),
                      domain_name=domain.name, problem_name=problem.name)
    task.__dict__["_compiled"] = compiled
    return task


def _positional(schema: ActionSchemaAst) -> list[list[_Positional]]:
    """The schema's precondition, add and delete literals, each as its
    predicate and the parameter positions of its arguments."""
    position = {v: i for i, (v, _) in enumerate(schema.params)}
    return [[(lit.predicate, tuple(position[a] for a in lit.args))
             for lit in literals]
            for literals in (schema.pre, schema.add, schema.delete)]


def _getter(pos: tuple[int, ...]) -> _Getter:
    """The function from a binding to the args at parameter positions
    ``pos``: an ``itemgetter`` of the positions, or of a slice when there is
    one position or none, so that it always yields a tuple."""
    if len(pos) > 1:
        return itemgetter(*pos)
    start = pos[0] if pos else 0
    return itemgetter(slice(start, start + len(pos)))


def _raw_operators(schema: ActionSchemaAst, ids: _FactIds,
                   combos: Iterable[tuple[str, ...]]) -> Iterator[_RawOperator]:
    """The raw operator of each binding of ``combos``."""
    pre_of, add_of, delete_of = (
        [(ids[pred], _getter(pos)) for pred, pos in lits]
        for lits in _positional(schema))
    name = schema.name
    for combo in combos:
        yield (name, combo, {table[get(combo)] for table, get in pre_of},
               {table[get(combo)] for table, get in add_of}, delete_of)


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

    1. A predicate that no schema adds or deletes is static, and each
       schema's static preconditions are joined against their ``init``
       tuples (:func:`_static_bindings`). The parameter that completes the
       most static literals is bound first, and a literal narrows the
       objects of the parameter that completes it through an index of its
       ``init`` tuples, so a binding that a static literal rejects is never
       made. The survivors are sorted back into lexicographic binding
       order, the order :func:`ground` makes them in.
    2. Each surviving candidate's precondition and add literals are interned
       to int fact ids, and the candidates run through the delete-relaxed
       fixpoint over those ids, a worklist that counts each candidate's
       unreached preconditions. Reached candidates become operators in
       their original order, with ``add & delete`` dropped from the delete
       list as :func:`ground` does. The fact table is ``init | goal`` and
       the kept operators' literals, in sorted key order.

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
    ids = _FactIds()
    init_args: defaultdict[str, set[_Args]] = defaultdict(set)
    for lit in problem.init:
        init_args[lit.predicate].add(lit.args)
    dynamic = {lit.predicate for schema in domain.schemas
               for lit in schema.add | schema.delete}

    spent: Counter[str] = Counter()
    raw_ops: list[_RawOperator] = []
    for schema in domain.schemas:
        statics = [(pred, pos) for pred, pos in _positional(schema)[0]
                   if pred not in dynamic]
        pools = [candidates.get(tname, []) for _, tname in schema.params]
        raw_ops += _raw_operators(
            schema, ids, _static_bindings(pools, statics, init_args, spent))

    return _build_task(domain, problem, ids,
                       _relaxed_reachable(raw_ops, ids.of(problem.init)))


def _charge(spent: Counter[str], kind: str, count: int) -> None:
    """Add ``count`` to ``spent[kind]``, raising :class:`CapacityError` once
    it passes the cap on ``kind`` ("operators" or "bindings")."""
    spent[kind] += count
    if kind == "operators" and spent[kind] > DEFAULT_OPERATOR_CAP:
        raise CapacityError("grounding operators", spent[kind],
                            DEFAULT_OPERATOR_CAP)
    if kind == "bindings" and spent[kind] > DEFAULT_BINDING_CAP:
        raise CapacityError("grounding bindings", spent[kind],
                            DEFAULT_BINDING_CAP)


def _join_order(
        literals: list[_Positional]) -> list[tuple[int, list[_Positional]]]:
    """The parameters that ``literals`` name, in the order the static join
    binds them, each with the literals it completes, those over the most
    positions first (the likeliest to reject a binding).

    Each step binds the parameter that completes the most literals not yet
    complete; ties go to the parameter named in the most literals, then to
    the lowest position.
    """
    named = Counter(p for _, pos in literals for p in set(pos))
    bound: set[int] = set()
    pending = literals
    steps = []
    while pending:
        completed = {p: [lit for lit in pending if set(lit[1]) - bound == {p}]
                     for p in named.keys() - bound}
        p = max(completed, key=lambda q: (len(completed[q]), named[q], -q))
        bound.add(p)
        pending = [lit for lit in pending if lit not in completed[p]]
        steps.append((p, sorted(completed[p], key=lambda lit: -len(lit[1]))))
    return steps


def _index(tuples: Iterable[_Args], pos: tuple[int, ...], p: int,
           pool: list[str]) -> dict[_Args, dict[str, None]]:
    """The index of the ``tuples`` of a static literal over the parameter
    positions ``pos`` that parameter ``p`` completes: the args at the
    positions not ``p`` map to the objects of ``pool`` that the tuples hold
    at every position ``p``, in pool order, as the keys of a dict, which
    iterates in order and tests membership in constant time."""
    at_p = [i for i, q in enumerate(pos) if q == p]
    key = _getter(tuple(i for i, q in enumerate(pos) if q != p))
    allowed = set(pool)
    index: defaultdict[_Args, set[str]] = defaultdict(set)
    for args in tuples:
        obj = args[at_p[0]]
        if obj in allowed and all(args[i] == obj for i in at_p[1:]):
            index[key(args)].add(obj)
    return {k: dict.fromkeys(sorted(objs)) for k, objs in index.items()}


def _static_bindings(pools: list[list[str]], statics: list[_Positional],
                     init_args: Mapping[str, set[_Args]],
                     spent: Counter[str]) -> Iterable[tuple[str, ...]]:
    """The bindings over the sorted ``pools``, in lexicographic order, whose
    static preconditions ``statics`` all lie in ``init_args``, each static
    literal as its predicate and its parameter positions.

    The parameters that ``statics`` name are bound depth-first in the order
    of :func:`_join_order`. At each depth, the objects a parameter may take
    under a partial binding are its pool's, or, when it completes some
    literals, those in every completed literal's index at that binding.
    The parameters in no static literal follow as a plain product, and the
    survivors are sorted back into lexicographic order unless the join
    order is the declaration order. The partial bindings made before the
    last depth and the bindings that survive it are charged to ``spent``
    before they are made, all those under one partial binding at once.
    """
    if any(not pos and () not in init_args.get(pred, ())
           for pred, pos in statics):
        return ()
    steps = _join_order([lit for lit in statics if lit[1]])
    order = [p for p, _ in steps]
    order += [p for p in range(len(pools)) if p not in order]
    tail = [pools[p] for p in order[len(steps):]]
    size = prod(map(len, tail))
    if not steps:
        _charge(spent, "operators", size)
        return product(*pools)

    depth_of = {p: d for d, p in enumerate(order)}
    plan = [(pools[p], [(_index(init_args.get(pred, ()), pos, p, pools[p]),
                         _getter(tuple(depth_of[q] for q in pos if q != p)))
                        for pred, pos in completed])
            for p, completed in steps]
    last = len(plan) - 1
    found: list[tuple[str, ...]] = []

    def extend(prefix: tuple[str, ...], depth: int) -> None:
        pool, indexes = plan[depth]
        objs: Collection[str] = pool
        for index, key in indexes:
            allowed = index.get(key(prefix))
            if allowed is None:
                return
            objs = allowed if objs is pool else [o for o in objs
                                                 if o in allowed]
        if depth < last:
            _charge(spent, "bindings", len(objs))
            for obj in objs:
                extend(prefix + (obj,), depth + 1)
            return
        _charge(spent, "operators", len(objs) * size)
        for obj in objs:
            combo = prefix + (obj,)
            found.extend(combo + rest for rest in product(*tail))

    extend((), 0)
    if order == sorted(order):
        return found
    return sorted(map(_getter(tuple(depth_of[p] for p in range(len(pools)))),
                      found))


def _relaxed_reachable(raw_ops: list[_RawOperator],
                       init: set[int]) -> list[_RawOperator]:
    """The operators whose preconditions all lie in the delete-relaxed
    closure of the fact ids ``init``, in their original order.

    Each operator counts its preconditions not yet reached; reaching a fact
    decrements the count of every operator waiting on it, and an operator
    whose count reaches zero adds its effects. Every operator and fact is
    handled once.
    """
    reached = set(init)
    waiting: defaultdict[int, list[int]] = defaultdict(list)
    missing: list[int] = []
    ready: list[int] = []
    for i, (_, _, pre, _, _) in enumerate(raw_ops):
        unmet = pre - reached
        missing.append(len(unmet))
        for fact in unmet:
            waiting[fact].append(i)
        if not unmet:
            ready.append(i)
    while ready:
        for fact in raw_ops[ready.pop()][3]:
            if fact not in reached:
                reached.add(fact)
                for j in waiting.pop(fact, ()):
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
        "init": mask_facts(task.init_mask),
        "goal": mask_facts(task.goal_mask),
    }
