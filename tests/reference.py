"""Set-algebra references the library is tested against.

The library holds states and operators as int fact masks and steps them
through one kernel (:func:`metaplan.meta_ops.step_fault`,
:func:`metaplan.meta_ops.applicable_actions`,
:func:`metaplan.evalkit.bfs_solve`), grounds the reachable task directly
(:func:`metaplan.grounding.ground_reachable`), and evaluates the clipped
surrogate on one concatenated batch. The functions here state the same
semantics the plain way, on frozensets of fact indices, fact keys of
strings and lists of decisions, so the differential tests have something
independent to compare against. Nothing in the library calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from metaplan import (Fact, GroundOperator, GroundTask, InapplicableError,
                      MetaAction, State)
from metaplan.grounding import fact_mask
from metaplan.meta_ops import union_mask
from metaplan.pddl import DomainAst, ProblemAst
from metaplan.policy import _DecisionBatch, _segments


# ---------------------------------------------------------------------------
# STRIPS semantics on fact sets
# ---------------------------------------------------------------------------

def is_applicable(task: GroundTask, state: State, op_id: int) -> bool:
    """True iff the operator's preconditions are all present in ``state``."""
    return task.operators[op_id].pre <= state


def apply(task: GroundTask, state: State, op_id: int) -> State:
    """Successor state (state \\ delete) | add.

    Raises :class:`InapplicableError` when the operator's preconditions do
    not hold.
    """
    op = task.operators[op_id]
    if not op.pre <= state:
        missing = sorted(op.pre - state)
        raise InapplicableError(
            f"{op.name} inapplicable: missing "
            + ", ".join(task.fact_str(i) for i in missing))
    return (state - op.delete) | op.add


def is_goal(task: GroundTask, state: State) -> bool:
    """True iff every goal fact is present in ``state``."""
    return task.goal <= state


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
    lists, read off the operators' fact sets, not off any mask."""
    ops = [task.operators[i] for i in atoms]
    return (frozenset().union(*(op.add for op in ops)),
            frozenset().union(*(op.delete for op in ops)))


def conflicts(task: GroundTask, a: int, b: int) -> bool:
    """True iff operators ``a`` and ``b`` interfere or have inconsistent effects."""
    if a == b:
        raise ValueError("conflicts is defined for distinct operators")
    oa, ob = task.operators[a], task.operators[b]
    return bool((oa.pre & ob.delete) or (oa.add & ob.delete)
                or (ob.pre & oa.delete) or (ob.add & oa.delete))


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
                       fact_mask(remap[x] for x in op.pre),
                       fact_mask(remap[x] for x in op.add),
                       fact_mask(remap[x] for x in op.delete))
        for i, op in enumerate(kept))
    return GroundTask(facts=facts, operators=operators,
                      init_mask=fact_mask(remap[x] for x in task.init),
                      goal_mask=fact_mask(remap[x] for x in task.goal),
                      domain_name=task.domain_name,
                      problem_name=task.problem_name)


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
    """The batch ``surrogate_objective`` takes, built from ``steps``."""
    starts, segment = _segments([len(s.feats) for s in steps])
    feats = np.concatenate([s.feats for s in steps]) if steps \
        else np.zeros((0, dim))
    return _DecisionBatch(
        feats, starts, segment,
        taken=starts + np.array([s.taken for s in steps], dtype=np.intp),
        old_logp=np.array([s.old_logp for s in steps], dtype=np.float64),
        advantage=np.array([s.advantage for s in steps],
                           dtype=np.float64))
