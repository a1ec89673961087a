"""Conflict analysis and the degree-L meta-action space.

A meta-action is a set of 1..L pairwise non-conflicting operators applied
simultaneously; its add and delete sets are the unions of its atoms'. Two
operators conflict when one deletes a precondition of the other
(interference) or deletes an add effect of the other (inconsistent effects),
checked in both directions. For conflict-free sets every sequential order of
the atoms is applicable and reaches the same successor, which equals the
union-formula update, so simultaneous application is well defined.

Fact sets are held here as int masks, bit ``f`` standing for fact ``f``:
:func:`op_masks` gives each operator's precondition, add and delete masks
and :func:`goal_mask` the goal's, a meta-action is a named tuple of its
atoms and their unioned add and delete masks, and a state may be passed to
:func:`applicable_actions` as a mask or as a fact set. :func:`fact_mask`
and :func:`mask_facts` are the only conversions. The set semantics are
those of the frozensets (``State``) of the tests' set-algebra reference,
``tests/reference.py``; only the representation differs.

The conflict relation is built once per task over the whole operator table,
one adjacency mask per operator, and filtered online per state; this yields
the same action sets as recomputing conflicts per state, at a fraction of
the per-step cost.
:func:`step_fault` states the step rule once, on a state mask; the
environment's step and the plan validator both apply it.

The applicable operators of a state are found through a successor index
(:func:`successor_index`, after the successor generator of Fast Downward,
Helmert 2006) rather than by testing every operator: each operator is filed
under one key fact of its precondition, and a state tests only the
operators filed under its own facts, plus those with an empty precondition.
Every candidate's full precondition is still tested, so the result is exact
at every state, reachable or not.

The meta-actions of a state are enumerated depth-first over set bits: a
node's children are the set bits of a ``free`` mask over operator ids, the
later applicable operators that conflict with none of the node's atoms,
taken lowest first, so no conflicting operator is ever visited. Each
operator's degree-1 action is built once per task (:func:`single_actions`)
and shared by every enumeration that returns it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .grounding import CapacityError, GroundTask

# A state as a set of fact ids: what ``EpisodeTrace.states`` gives and what
# ``applicable_actions`` accepts beside a mask.
State = frozenset[int]

DEFAULT_ACTION_CAP = 10_000_000

CAUSE_INAPPLICABLE = "inapplicable"
CAUSE_CONFLICT = "conflict"
CAUSE_DEGREE = "degree_exceeded"


@dataclass(frozen=True)
class ConflictSet:
    """Symmetric relation over operator ids: bit ``b`` of ``masks[a]`` is
    set iff operators ``a`` and ``b`` conflict."""

    masks: tuple[int, ...]

    def conflicting(self, a: int, b: int) -> bool:
        return bool(self.masks[a] >> b & 1)

    def __len__(self) -> int:
        """The number of conflicting pairs."""
        return sum(mask.bit_count() for mask in self.masks) // 2


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


def union_mask(masks: Sequence[int], ids: Iterable[int]) -> int:
    """The OR of ``masks[i]`` over ``ids``."""
    mask = 0
    for i in ids:
        mask |= masks[i]
    return mask


OpMasks = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def op_masks(task: GroundTask) -> OpMasks:
    """``(pre, add, delete)``, one fact mask per operator in each, built on
    first use and kept in the task's ``__dict__`` like the conflict set."""
    cache = task.__dict__
    if "_op_masks" not in cache:
        ops = task.operators
        cache["_op_masks"] = (tuple(fact_mask(op.pre) for op in ops),
                              tuple(fact_mask(op.add) for op in ops),
                              tuple(fact_mask(op.delete) for op in ops))
    return cache["_op_masks"]


def goal_mask(task: GroundTask) -> int:
    """The mask of the task's goal facts, built on first use and kept in the
    task's ``__dict__`` like :func:`op_masks`."""
    cache = task.__dict__
    if "_goal_mask" not in cache:
        cache["_goal_mask"] = fact_mask(task.goal)
    return cache["_goal_mask"]


SuccessorIndex = tuple[tuple[int, ...], int, dict[int, tuple[int, ...]]]


def successor_index(task: GroundTask) -> SuccessorIndex:
    """``(always, key_mask, by_key)``: the operators a state's applicable
    set is drawn from, built on first use and kept in the task's
    ``__dict__`` like :func:`op_masks`.

    Each operator with a non-empty precondition is filed in ``by_key``
    under one fact of its precondition, its key: the fact the fewest
    operators require, ties to the lowest fact id. ``key_mask`` has a bit
    for each key fact; ``always`` lists the operators with an empty
    precondition, in id order.
    """
    cache = task.__dict__
    if "_successor_index" not in cache:
        required = Counter(f for op in task.operators for f in op.pre)
        always: list[int] = []
        by_key: dict[int, list[int]] = {}
        for i, op in enumerate(task.operators):
            if op.pre:
                key = min(op.pre, key=lambda f: (required[f], f))
                by_key.setdefault(key, []).append(i)
            else:
                always.append(i)
        cache["_successor_index"] = (
            tuple(always), fact_mask(by_key),
            {f: tuple(ids) for f, ids in by_key.items()})
    return cache["_successor_index"]


class MetaAction(NamedTuple):
    """A sorted conflict-free operator set with the masks of its atoms'
    unioned add and delete effects; ``add`` and ``delete`` read them back
    as fact sets. Read-only, equal and hashed by value over the three
    fields; as a named tuple it also equals the plain tuple
    ``(atoms, add_mask, delete_mask)``."""

    atoms: tuple[int, ...]
    add_mask: int
    delete_mask: int

    @property
    def add(self) -> frozenset[int]:
        return frozenset(mask_facts(self.add_mask))

    @property
    def delete(self) -> frozenset[int]:
        return frozenset(mask_facts(self.delete_mask))

    @property
    def degree(self) -> int:
        return len(self.atoms)

    def name(self, task: GroundTask) -> str:
        return " ".join(task.operators[i].name for i in self.atoms)


# The DFS's constructor: the generated ``__new__``'s body without its frame.
_tuple_new = tuple.__new__


def step_fault(task: GroundTask, state: int, atoms: Sequence[int],
               degree: int) -> tuple[str, str] | None:
    """The first reason ``atoms`` cannot be applied together at ``state``.

    This is the one step rule: at most ``degree`` atoms, pairwise
    conflict-free, each applicable in ``state``, checked in that order.
    Returns ``(cause, detail)`` for the first violation, or None when the
    union update ``(state & ~∪del) | ∪add`` is well defined. ``state`` is a
    fact mask; pairs are tested on the operator masks by the rule of
    :func:`build_conflict_set`, without building the relation.
    """
    if len(atoms) > degree:
        return CAUSE_DEGREE, f"degree {len(atoms)} > {degree}"
    pre, add, delete = op_masks(task)
    for i, a in enumerate(atoms):
        for b in atoms[i + 1:]:
            if a == b:
                raise ValueError("a step holds distinct operators")
            if (pre[a] & delete[b] or add[a] & delete[b]
                    or pre[b] & delete[a] or add[b] & delete[a]):
                return CAUSE_CONFLICT, (f"{task.operators[a].name} conflicts "
                                        f"with {task.operators[b].name}")
    for a in atoms:
        if pre[a] & state != pre[a]:
            return CAUSE_INAPPLICABLE, task.operators[a].name
    return None


def build_conflict_set(task: GroundTask) -> ConflictSet:
    """The conflict relation over the full operator table.

    An operator's mask ORs the deleters of each fact it needs or adds and
    the needers or adders of each fact it deletes, so the cost is
    near-linear in the total pre/add/delete footprint.
    """
    deleters = [0] * len(task.facts)
    needers = [0] * len(task.facts)
    for i, op in enumerate(task.operators):
        bit = 1 << i
        for f in op.delete:
            deleters[f] |= bit
        for f in op.pre | op.add:
            needers[f] |= bit
    masks = []
    for i, op in enumerate(task.operators):
        mask = 0
        for f in op.pre | op.add:
            mask |= deleters[f]
        for f in op.delete:
            mask |= needers[f]
        masks.append(mask & ~(1 << i))
    return ConflictSet(tuple(masks))


def conflict_set_of(task: GroundTask) -> ConflictSet:
    """The task's conflict relation, built on first use and kept in the
    task's ``__dict__``, as ``cached_property`` keeps its values."""
    cache = task.__dict__
    if "_conflict_set" not in cache:
        cache["_conflict_set"] = build_conflict_set(task)
    return cache["_conflict_set"]


def single_actions(task: GroundTask) -> tuple[MetaAction, ...]:
    """The degree-1 action of every operator, ``singles[i]`` being
    ``MetaAction((i,), add[i], delete[i])``, built on first use and kept in
    the task's ``__dict__`` like :func:`op_masks`, so that every enumeration
    at every state hands out the same objects."""
    cache = task.__dict__
    if "_single_actions" not in cache:
        _, add, delete = op_masks(task)
        cache["_single_actions"] = tuple(
            MetaAction((i,), add[i], delete[i]) for i in range(len(add)))
    return cache["_single_actions"]


def _cap_error(max_actions: int) -> CapacityError:
    """The error of an enumeration that would hold ``max_actions + 1``."""
    return CapacityError(
        f"meta-action enumeration exceeded cap {max_actions}",
        max_actions + 1, max_actions)


def applicable_actions(task: GroundTask, state: State | int, degree: int,
                       conflict_set: ConflictSet) -> list[MetaAction]:
    """Every applicable meta-action of degree 1..degree at ``state``, a fact
    mask or a fact set.

    The rollout, the search and ``metaplan actions`` pass masks. A fact
    set is still accepted, and converted once per call, for the one caller
    that holds states as sets: the benchmark's reference checks
    (``perfbench/workloads.py``) pass the frozensets of
    ``EpisodeTrace.states`` and of the states a plan visits.

    A meta-action is applicable iff each atom is individually applicable
    (``pre & state == pre``) and no atom pair conflicts. The degree-1 slice
    is exactly the applicable operator set, and its actions are the task's
    cached :func:`single_actions`. Order is lexicographic by atom tuple: a
    DFS over conflict-free subsets of the applicable operators. A node's
    children are the set bits of its ``free`` mask, the operator ids above
    its last atom that are applicable and conflict with none of its atoms,
    walked in ascending order; a child's own ``free`` is its parent's
    remainder with the child's conflict mask cleared, so no conflicting
    operator is ever visited. Each action extends its parent, so its effect
    masks are the parent's ORed with one operator's.

    More than ``DEFAULT_ACTION_CAP`` actions, the cap read when the call
    runs, raise :class:`CapacityError` with count cap + 1. The applicable
    operators and each node's children are counted before they are added,
    so the list never holds more than the cap plus the siblings still
    pending on the path.

    Only the candidates of the task's :func:`successor_index` are tested:
    the operators filed under the key facts set in ``state`` and those with
    an empty precondition, sorted by id. An operator whose key fact is
    false cannot be applicable, so this finds what a scan of the whole
    operator table finds.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    max_actions = DEFAULT_ACTION_CAP
    s = state if isinstance(state, int) else fact_mask(state)
    pre, add, delete = op_masks(task)
    always, key_mask, by_key = successor_index(task)
    candidates = list(always)
    keys = s & key_mask
    while keys:
        low = keys & -keys
        candidates += by_key[low.bit_length() - 1]
        keys ^= low
    candidates.sort()
    base = [i for i in candidates if pre[i] & s == pre[i]]
    if len(base) > max_actions:
        raise _cap_error(max_actions)
    singles = single_actions(task)
    if degree == 1:
        return [singles[i] for i in base]
    masks = conflict_set.masks
    out: list[MetaAction] = []
    append = out.append

    def extend(atoms: tuple[int, ...], add_mask: int, delete_mask: int,
               free: int) -> None:
        if len(out) + free.bit_count() > max_actions:
            raise _cap_error(max_actions)
        deeper = len(atoms) + 1 < degree
        while free:
            low = free & -free
            free ^= low
            i = low.bit_length() - 1
            child = atoms + (i,)
            child_add = add_mask | add[i]
            child_delete = delete_mask | delete[i]
            append(_tuple_new(MetaAction, (child, child_add, child_delete)))
            if deeper:
                rest = free & ~masks[i]
                if rest:
                    extend(child, child_add, child_delete, rest)

    later = fact_mask(base)  # the ids not yet taken as a first atom
    for i in base:
        later ^= 1 << i
        single = singles[i]
        append(single)
        free = later & ~masks[i]
        if free:
            extend(single.atoms, single.add_mask, single.delete_mask, free)
    # ``extend`` holds itself through its closure cell. Deleting it breaks
    # that cycle, so ``out`` is freed by reference counting once the caller
    # drops it, not later by the garbage collector.
    del extend
    if len(out) > max_actions:
        raise _cap_error(max_actions)
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
