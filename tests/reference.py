"""Set-algebra references the library is tested against.

The library holds states and operators as int fact masks and steps them
through one kernel (:func:`metaplan.meta_ops.step_fault`,
:func:`metaplan.meta_ops.applicable_actions`,
:func:`metaplan.evalkit.bfs_solve`), grounds the reachable task directly
(:func:`metaplan.grounding.ground_reachable`), and evaluates the clipped
surrogate on one concatenated batch. It scores a state through the two
parts of a row's logit that the action feature table keeps apart
(:func:`metaplan.policy.scorer`). The functions here state the same
semantics the plain way, on frozensets of fact indices, fact keys of
strings and lists of decisions, so the differential tests have something
independent to compare against. Nothing in the library calls them.

A task's fact sets come from :func:`sets`, which reads them off the task's
JSON dump (:func:`metaplan.task_to_json`, the format the benchmark's
checkers read too), not off any mask.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from metaplan import (Fact, GroundOperator, GroundTask, InapplicableError,
                      MetaAction, State, task_to_json)
from metaplan.grounding import fact_mask
from metaplan.meta_ops import (CAUSE_CONFLICT, CAUSE_DEGREE,
                               CAUSE_INAPPLICABLE, union_mask)
from metaplan.pddl import DomainAst, ProblemAst
from metaplan.policy import (FeatureConfig, PolicyParams, _DecisionBatch,
                             _action_table, _segments)


# ---------------------------------------------------------------------------
# A task's fact sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaskSets:
    """A task's fact sets as frozensets of fact indices: operator ``i``'s
    ``pre[i]``, ``add[i]`` and ``delete[i]``, and ``init`` and ``goal``."""

    pre: tuple[State, ...]
    add: tuple[State, ...]
    delete: tuple[State, ...]
    init: State
    goal: State


_SETS: dict[int, TaskSets] = {}


def sets(task: GroundTask) -> TaskSets:
    """The fact sets of ``task``, read off its JSON dump once per task
    object and dropped when the task is."""
    key = id(task)
    if key not in _SETS:
        data = task_to_json(task)
        ops = data["operators"]
        _SETS[key] = TaskSets(
            *(tuple(frozenset(op[name]) for op in ops)
              for name in ("pre", "add", "del")),
            frozenset(data["init"]), frozenset(data["goal"]))
        weakref.finalize(task, _SETS.pop, key)
    return _SETS[key]


# ---------------------------------------------------------------------------
# STRIPS semantics on fact sets
# ---------------------------------------------------------------------------

def is_applicable(task: GroundTask, state: State, op_id: int) -> bool:
    """True iff the operator's preconditions are all present in ``state``."""
    return sets(task).pre[op_id] <= state


def applicable_ops(task: GroundTask, state: State) -> list[int]:
    """The ids of the operators applicable in ``state``, ascending."""
    return [i for i, pre in enumerate(sets(task).pre) if pre <= state]


def apply(task: GroundTask, state: State, op_id: int) -> State:
    """Successor state (state \\ delete) | add.

    Raises :class:`InapplicableError` when the operator's preconditions do
    not hold.
    """
    view = sets(task)
    pre = view.pre[op_id]
    if not pre <= state:
        raise InapplicableError(
            f"{task.operators[op_id].name} inapplicable: missing "
            + ", ".join(task.fact_str(i) for i in sorted(pre - state)))
    return (state - view.delete[op_id]) | view.add[op_id]


def is_goal(task: GroundTask, state: State) -> bool:
    """True iff every goal fact is present in ``state``."""
    return sets(task).goal <= state


# ---------------------------------------------------------------------------
# Meta-actions and conflicts
# ---------------------------------------------------------------------------

def make_meta_action(task: GroundTask, atoms: Sequence[int]) -> MetaAction:
    """The action of a strictly increasing atom tuple, its effects unioned."""
    atoms = tuple(atoms)
    if list(atoms) != sorted(set(atoms)):
        raise ValueError(f"atoms must be strictly increasing, got {atoms}")
    ops = [task.operators[i] for i in atoms]
    return MetaAction(atoms, union_mask(op.add_mask for op in ops),
                      union_mask(op.delete_mask for op in ops))


def action_effects(task: GroundTask,
                   atoms: Sequence[int]) -> tuple[State, State]:
    """The union of the atoms' add lists and the union of their delete
    lists, read off the task's fact sets, not off any mask."""
    view = sets(task)
    return (frozenset().union(*(view.add[i] for i in atoms)),
            frozenset().union(*(view.delete[i] for i in atoms)))


def conflicts(task: GroundTask, a: int, b: int) -> bool:
    """True iff operators ``a`` and ``b`` interfere or have inconsistent effects."""
    if a == b:
        raise ValueError("conflicts is defined for distinct operators")
    view = sets(task)
    pre, add, delete = view.pre, view.add, view.delete
    return bool((pre[a] & delete[b]) or (add[a] & delete[b])
                or (pre[b] & delete[a]) or (add[b] & delete[a]))


def step_fault(task: GroundTask, state: State, atoms: Sequence[int],
               degree: int) -> tuple[str, str] | None:
    """The step rule one atom at a time on a fact set: at most ``degree``
    atoms, then every pair conflict-free (``ValueError`` for an operator
    given twice), then each atom applicable, in that order; the first
    violation's ``(cause, detail)``, or None."""
    if len(atoms) > degree:
        return CAUSE_DEGREE, f"degree {len(atoms)} > {degree}"
    ops = task.operators
    for i, a in enumerate(atoms):
        for b in atoms[i + 1:]:
            if a == b:
                raise ValueError("a step holds distinct operators")
            if conflicts(task, a, b):
                return CAUSE_CONFLICT, (f"{ops[a].name} conflicts with "
                                        f"{ops[b].name}")
    for a in atoms:
        if not is_applicable(task, state, a):
            return CAUSE_INAPPLICABLE, ops[a].name
    return None


# ---------------------------------------------------------------------------
# Grounding and delete-relaxed pruning
# ---------------------------------------------------------------------------

def reference_ground(domain: DomainAst, problem: ProblemAst) -> GroundTask:
    """The raw ground task, built the plain way.

    Every schema, in declaration order, is bound to every tuple of the
    product of its parameters' typed object pools, each pool sorted. Each
    literal is keyed by its predicate and object names. The fact table is
    every key of ``init``, ``goal`` and the operators, sorted, and an
    operator's delete list drops what its add list holds.
    """
    pools: dict[str, set[str]] = {}
    for obj, tname in problem.objects:
        for ancestor in domain.ancestors(tname):
            pools.setdefault(ancestor, set()).add(obj)
    raw = []
    for schema in domain.schemas:
        variables = [v for v, _ in schema.params]
        for combo in product(*(sorted(pools.get(tname, ()))
                               for _, tname in schema.params)):
            binding = dict(zip(variables, combo))
            pre, add, delete = (
                {(lit.predicate, tuple(binding[a] for a in lit.args))
                 for lit in literals}
                for literals in (schema.pre, schema.add, schema.delete))
            raw.append((schema.name, combo, pre, add, delete - add))
    init = {(lit.predicate, lit.args) for lit in problem.init}
    goal = {(lit.predicate, lit.args) for lit in problem.goal}
    keys = init | goal
    for _, _, pre, add, delete in raw:
        keys |= pre | add | delete
    index = {key: i for i, key in enumerate(sorted(keys))}
    return GroundTask(
        facts=tuple(Fact(i, pred, args) for (pred, args), i in index.items()),
        operators=tuple(
            GroundOperator(i, name, combo,
                           *(fact_mask(index[k] for k in lits)
                             for lits in (pre, add, delete)))
            for i, (name, combo, pre, add, delete) in enumerate(raw)),
        init_mask=fact_mask(index[k] for k in init),
        goal_mask=fact_mask(index[k] for k in goal),
        domain_name=domain.name, problem_name=problem.name)


def reachability_prune(task: GroundTask) -> GroundTask:
    """Drop operators whose preconditions are not delete-relaxed reachable.

    Runs the standard add-only fixpoint from the initial state and keeps
    exactly the operators applicable somewhere in that relaxation. The
    solution set is unchanged. Fact and operator indices are re-densified.
    """
    view = sets(task)
    reached = set(view.init)
    remaining = list(task.operators)
    changed = True
    while changed:
        changed = False
        still = []
        for op in remaining:
            if view.pre[op.id] <= reached:
                if not view.add[op.id] <= reached:
                    reached |= view.add[op.id]
                    changed = True
            else:
                still.append(op)
                continue
        remaining = still

    kept = [op for op in task.operators if view.pre[op.id] <= reached]
    used: set[int] = set(view.init) | set(view.goal)
    for op in kept:
        used |= view.pre[op.id] | view.add[op.id] | view.delete[op.id]

    old_facts = [f for f in task.facts if f.index in used]
    remap = {f.index: i for i, f in enumerate(old_facts)}
    facts = tuple(Fact(i, f.predicate, f.args) for i, f in enumerate(old_facts))
    operators = tuple(
        GroundOperator(i, op.schema, op.args,
                       *(fact_mask(remap[x] for x in facts_of[op.id])
                         for facts_of in (view.pre, view.add, view.delete)))
        for i, op in enumerate(kept))
    return GroundTask(facts=facts, operators=operators,
                      init_mask=fact_mask(remap[x] for x in view.init),
                      goal_mask=fact_mask(remap[x] for x in view.goal),
                      domain_name=task.domain_name,
                      problem_name=task.problem_name)


# ---------------------------------------------------------------------------
# Whole feature rows and the softmax over them
# ---------------------------------------------------------------------------

def table_features(task: GroundTask, fc: FeatureConfig, rows: np.ndarray,
                   state: int) -> np.ndarray:
    """The (len(rows), dim) feature matrix of the rows ``rows`` of the
    task's action feature table for ``fc`` at the state mask ``state``: each
    row's integer counts divided per column, with columns 2 and 4, which
    depend on the state, computed from the task's fact sets as the feature
    definition states them: the goal facts the row's atoms newly add at
    ``state``, and the goal fraction the successor holds."""
    table = _action_table(task, fc)
    atoms_of = {row: atoms for atoms, row in table.index.items()}
    goal = sets(task).goal
    held = frozenset(f for f in range(state.bit_length()) if state >> f & 1)
    feats = table.static.take(rows, axis=0) / table.divisors
    for i, row in enumerate(rows):
        add, delete = action_effects(task, atoms_of[row])
        feats[i, 2] = len((add & goal) - held)
        feats[i, 4] = (len(goal & ((held - delete) | add)) / len(goal)
                       if goal else 1.0)
    return feats


def featurize_all(task: GroundTask, state: int,
                  actions: Sequence[MetaAction],
                  fc: FeatureConfig) -> np.ndarray:
    """Stacked (n_actions, dim) feature matrix at the state mask ``state``,
    read off the task's action feature table; (0, dim) for no actions."""
    return table_features(task, fc, _action_table(task, fc).rows(actions),
                          state)


def action_distribution(params: PolicyParams, feats: np.ndarray) -> np.ndarray:
    """Softmax over the logits of the feature rows ``feats``."""
    z = feats @ params.weights
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


# ---------------------------------------------------------------------------
# Surrogate decisions one at a time
# ---------------------------------------------------------------------------

@dataclass
class DecisionStep:
    feats: np.ndarray  # (n_actions, dim)
    taken: int
    old_logp: float
    advantage: float


def decision_batch(steps: Sequence[DecisionStep],
                   dim: int) -> _DecisionBatch:
    """The batch ``surrogate_objective`` takes, built from ``steps``: the
    identity form, whose rows are the steps' features themselves."""
    starts, segment = _segments([len(s.feats) for s in steps])
    feats = np.concatenate([s.feats for s in steps]) if steps \
        else np.zeros((0, dim))
    return _DecisionBatch(
        feats, np.arange(len(feats)), np.zeros((len(feats), 2)),
        starts, segment,
        taken=starts + np.array([s.taken for s in steps], dtype=np.intp),
        old_logp=np.array([s.old_logp for s in steps], dtype=np.float64),
        advantage=np.array([s.advantage for s in steps],
                           dtype=np.float64))
