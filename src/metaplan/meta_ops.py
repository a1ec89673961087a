"""Conflict analysis and the degree-L meta-action space.

A meta-action is a set of 1..L pairwise non-conflicting operators applied
simultaneously; its precondition/add/delete sets are the unions of its
atoms'. Two operators conflict when one deletes a precondition of the other
(interference) or deletes an add effect of the other (inconsistent effects),
checked in both directions. For conflict-free sets every sequential order of
the atoms is applicable and reaches the same successor, which equals the
union-formula update, so simultaneous application is well defined.

The conflict relation is precomputed once per task over the whole operator
table and filtered online per state; this yields the same action sets as
recomputing conflicts per state, at a fraction of the per-step cost.
:func:`step_fault` states the step rule once; the environment's step and
the plan validator both apply it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .grounding import CapacityError, GroundTask
from .transition import State

DEFAULT_ACTION_CAP = 10_000_000

CAUSE_INAPPLICABLE = "inapplicable"
CAUSE_CONFLICT = "conflict"
CAUSE_DEGREE = "degree_exceeded"


@dataclass(frozen=True)
class ConflictSet:
    """Symmetric relation over operator ids, stored as (low, high) pairs."""

    pairs: frozenset[tuple[int, int]]

    def conflicting(self, a: int, b: int) -> bool:
        return (a, b) in self.pairs if a < b else (b, a) in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class MetaAction:
    """A sorted conflict-free operator set with unioned effect triplets."""

    atoms: tuple[int, ...]
    pre: frozenset[int]
    add: frozenset[int]
    delete: frozenset[int]

    @property
    def degree(self) -> int:
        return len(self.atoms)

    def name(self, task: GroundTask) -> str:
        return " ".join(task.operators[i].name for i in self.atoms)


def make_meta_action(task: GroundTask, atoms: Sequence[int]) -> MetaAction:
    """Build the union-triplet action for a strictly increasing atom tuple."""
    atoms = tuple(atoms)
    if list(atoms) != sorted(set(atoms)):
        raise ValueError(f"atoms must be strictly increasing, got {atoms}")
    pre: frozenset[int] = frozenset()
    add: frozenset[int] = frozenset()
    delete: frozenset[int] = frozenset()
    for i in atoms:
        op = task.operators[i]
        pre |= op.pre
        add |= op.add
        delete |= op.delete
    return MetaAction(atoms, pre, add, delete)


def conflicts(task: GroundTask, a: int, b: int) -> bool:
    """True iff operators ``a`` and ``b`` interfere or have inconsistent effects."""
    if a == b:
        raise ValueError("conflicts is defined for distinct operators")
    oa, ob = task.operators[a], task.operators[b]
    return bool((oa.pre & ob.delete) or (oa.add & ob.delete)
                or (ob.pre & oa.delete) or (ob.add & oa.delete))


def step_fault(task: GroundTask, state: State, atoms: Sequence[int],
               degree: int) -> tuple[str, str] | None:
    """The first reason ``atoms`` cannot be applied together at ``state``.

    This is the one step rule: at most ``degree`` atoms, pairwise
    conflict-free, each applicable in ``state``, checked in that order.
    Returns ``(cause, detail)`` for the first violation, or None when the
    union update ``(state - ∪del) | ∪add`` is well defined.
    """
    if len(atoms) > degree:
        return CAUSE_DEGREE, f"degree {len(atoms)} > {degree}"
    for i, a in enumerate(atoms):
        for b in atoms[i + 1:]:
            if conflicts(task, a, b):
                return CAUSE_CONFLICT, (f"{task.operators[a].name} conflicts "
                                        f"with {task.operators[b].name}")
    for a in atoms:
        if not task.operators[a].pre <= state:
            return CAUSE_INAPPLICABLE, task.operators[a].name
    return None


def build_conflict_set(task: GroundTask,
                       ops: Iterable[int] | None = None) -> ConflictSet:
    """All conflicting pairs among ``ops`` (default: the full operator table).

    Indexes deleters per fact instead of testing all pairs, so the cost is
    near-linear in the total pre/add/delete footprint.
    """
    if ops is None:
        op_ids = range(len(task.operators))
    else:
        op_ids = sorted(ops)
    deleters: dict[int, list[int]] = {}
    for i in op_ids:
        for f in task.operators[i].delete:
            deleters.setdefault(f, []).append(i)
    pairs: set[tuple[int, int]] = set()
    for a in op_ids:
        op = task.operators[a]
        for f in op.pre | op.add:
            for b in deleters.get(f, ()):
                if b != a:
                    pairs.add((a, b) if a < b else (b, a))
    return ConflictSet(frozenset(pairs))


def applicable_actions(task: GroundTask, state: State, degree: int,
                       conflict_set: ConflictSet,
                       max_actions: int = DEFAULT_ACTION_CAP) -> list[MetaAction]:
    """Every applicable meta-action of degree 1..degree at ``state``.

    A meta-action is applicable iff each atom is individually applicable and
    no atom pair conflicts. The degree-1 slice is exactly the applicable
    operator set; order is lexicographic by atom tuple (a DFS over
    conflict-free subsets of the applicable operators).
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    base = [i for i, op in enumerate(task.operators) if op.pre <= state]
    out: list[MetaAction] = []
    chosen: list[int] = []

    def extend(start: int) -> None:
        for idx in range(start, len(base)):
            op = base[idx]
            if any(conflict_set.conflicting(op, c) for c in chosen):
                continue
            chosen.append(op)
            if len(out) >= max_actions:
                raise CapacityError(
                    f"meta-action enumeration exceeded cap {max_actions}",
                    len(out) + 1, max_actions)
            out.append(make_meta_action(task, chosen))
            if len(chosen) < degree:
                extend(idx + 1)
            chosen.pop()

    extend(0)
    return out


@dataclass(frozen=True)
class SpaceStats:
    """Distinct action count, broken down by degree."""

    total: int
    by_degree: dict[int, int]


def action_space_stats(actions: Iterable[MetaAction]) -> SpaceStats:
    """Count distinct meta-actions (by atom set) in an observed trace."""
    distinct = {a.atoms for a in actions}
    hist = Counter(len(atoms) for atoms in distinct)
    return SpaceStats(total=len(distinct), by_degree=dict(sorted(hist.items())))
