"""Conflict analysis and the degree-L meta-action space.

A meta-action is a set of 1..L pairwise non-conflicting operators applied
simultaneously; its add and delete sets are the unions of its atoms'. Two
operators conflict when one deletes a precondition of the other
(interference) or deletes an add effect of the other (inconsistent effects),
checked in both directions. For conflict-free sets every sequential order of
the atoms is applicable and reaches the same successor, which equals the
union-formula update, so simultaneous application is well defined.

Fact sets are held here as int masks, bit ``f`` standing for fact ``f``,
as the ground task and its operators hold them: the code here reads the
operators' own precondition, add and delete masks off their records, a
meta-action is a named tuple of its atoms and their unioned add and delete
masks, and a state may be passed to :func:`applicable_actions` as a mask
or as a fact set. :func:`~metaplan.grounding.fact_mask` and
:func:`~metaplan.grounding.mask_facts` are the only conversions. The set
semantics are those of the frozensets (``State``) of the tests' set-algebra
reference, ``tests/reference.py``; only the representation differs.

The conflict relation is built once per task over the whole operator table,
one adjacency mask per operator, and filtered online per state; this yields
the same action sets as recomputing conflicts per state, at a fraction of
the per-step cost.
:func:`step_fault` states the step rule once, on a state mask; the
environment's step and the plan validator both apply it.

The applicable operators of a state are read off a per-task table
(:func:`applicability_table`) rather than found by testing operators: for
each group of 4 fact ids that some operator requires, the operators that
each of the 16 patterns of those facts leaves unmet. A state ORs one entry
per group, so the result is exact at every state, reachable or not. The
meta-actions are then enumerated depth-first over the set bits of operator
masks, so no conflicting operator is ever visited: the first three levels
as loops nested in :func:`applicable_actions`, one per level, which list
the singles, pairs and triples of the non-conflict graph level by level as
Chiba and Nishizeki's clique listing does, and any deeper level by a
recursion that is called only from a triple. Each task keeps its degree-1
actions, built with the table, and its degree-2 pairs, each built the
first time an enumeration at degree 2 meets it: a pair's atoms and effect
masks do not depend on the state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .grounding import CapacityError, GroundTask, fact_mask, mask_facts

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


def union_mask(masks: Iterable[int]) -> int:
    """The OR of ``masks``."""
    union = 0
    for mask in masks:
        union |= mask
    return union


class MetaAction(NamedTuple):
    """A sorted conflict-free operator set with the masks of its atoms'
    unioned add and delete effects. Read-only, equal and hashed by value
    over the three fields; as a named tuple it also equals the plain tuple
    ``(atoms, add_mask, delete_mask)``."""

    atoms: tuple[int, ...]
    add_mask: int
    delete_mask: int

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
    :func:`build_conflict_set`, without building the relation. The atoms
    are applicable together iff the union of their preconditions holds in
    ``state``, so the atoms are looked at one by one only to name the first
    that is not applicable.
    """
    if len(atoms) > degree:
        return CAUSE_DEGREE, f"degree {len(atoms)} > {degree}"
    ops = task.operators
    pre = 0
    for i, a in enumerate(atoms):
        op_a = ops[a]
        pre |= op_a.pre_mask
        for b in atoms[i + 1:]:
            if a == b:
                raise ValueError("a step holds distinct operators")
            op_b = ops[b]
            if (op_a.pre_mask & op_b.delete_mask
                    or op_a.add_mask & op_b.delete_mask
                    or op_b.pre_mask & op_a.delete_mask
                    or op_b.add_mask & op_a.delete_mask):
                return CAUSE_CONFLICT, (f"{op_a.name} conflicts with "
                                        f"{op_b.name}")
    if pre & state != pre:
        return CAUSE_INAPPLICABLE, next(ops[a].name for a in atoms
                                        if ops[a].pre_mask & ~state)
    return None


def build_conflict_set(task: GroundTask) -> ConflictSet:
    """The conflict relation over the full operator table.

    An operator's mask ORs the deleters of each fact it needs or adds and
    the needers or adders of each fact it deletes, so the cost is
    near-linear in the total pre/add/delete footprint.
    """
    uses = [mask_facts(op.pre_mask | op.add_mask) for op in task.operators]
    deletes = [mask_facts(op.delete_mask) for op in task.operators]
    deleters = [0] * len(task.facts)
    needers = [0] * len(task.facts)
    for i, (used, deleted) in enumerate(zip(uses, deletes)):
        bit = 1 << i
        for f in deleted:
            deleters[f] |= bit
        for f in used:
            needers[f] |= bit
    masks = []
    for i, (used, deleted) in enumerate(zip(uses, deletes)):
        mask = 0
        for f in used:
            mask |= deleters[f]
        for f in deleted:
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


class ApplicabilityTable(NamedTuple):
    """What an enumeration reads of a task: ``groups`` holds ``(shift,
    table)`` for each group of the 4 fact ids from ``shift`` up that some
    operator requires, ``table[v]`` the OR of the operators that require a
    fact of the group whose bit is 0 in ``v``. The applicable operators at a
    mask ``s`` are ``all_ops`` less ``table[s >> shift & 15]`` of every
    group. ``add`` and ``delete`` are the operators' effect masks and
    ``singles[i]`` is the degree-1 action ``MetaAction((i,), add[i],
    delete[i])``, so that every enumeration at every state hands out the
    same objects. The effect masks are the operators' own, gathered into
    columns for the DFS.

    ``pairs`` is the one field that grows with use: ``pairs[i][j]`` is the
    degree-2 action ``MetaAction((i, j), add[i] | add[j], delete[i] |
    delete[j])`` for ``i < j``, stored the first time an enumeration at
    degree 2 returns it, and each ``pairs[i]`` is made the first time
    ``i`` is such a pair's first atom. It holds nothing that depends on a
    state or on the conflict relation, and stays empty on a task that is
    never enumerated at degree 2."""

    all_ops: int
    groups: tuple[tuple[int, tuple[int, ...]], ...]
    singles: tuple[MetaAction, ...]
    add: tuple[int, ...]
    delete: tuple[int, ...]
    pairs: dict[int, dict[int, MetaAction]]


def applicability_table(task: GroundTask) -> ApplicabilityTable:
    """The task's :class:`ApplicabilityTable`, built on first use and kept
    in the task's ``__dict__`` like the conflict set."""
    cache = task.__dict__
    if "_applicability_table" not in cache:
        ops = task.operators
        add = tuple(op.add_mask for op in ops)
        delete = tuple(op.delete_mask for op in ops)
        needers = [0] * (len(task.facts) + 3)  # every group has 4 entries
        for i, op in enumerate(ops):
            for f in mask_facts(op.pre_mask):
                needers[f] |= 1 << i
        groups = []
        for shift in range(0, len(task.facts), 4):
            needs = needers[shift:shift + 4]
            if any(needs):
                groups.append((shift, tuple(
                    union_mask(needs[k] for k in range(4) if not v >> k & 1)
                    for v in range(16))))
        singles = tuple(MetaAction((i,), add[i], delete[i])
                        for i in range(len(add)))
        cache["_applicability_table"] = ApplicabilityTable(
            (1 << len(add)) - 1, tuple(groups), singles, add, delete, {})
    return cache["_applicability_table"]


def parallel_share(sizes: Sequence[int]) -> float:
    """The parallelism rate: the share of steps, of operator counts ``sizes``
    (not empty), that carry two or more operators."""
    return sum(1 for n in sizes if n >= 2) / len(sizes)


def _cap_error(max_actions: int) -> CapacityError:
    """The error of an enumeration that would hold ``max_actions + 1``."""
    return CapacityError("meta-actions", max_actions + 1, max_actions)


def _extend(out: list[MetaAction], node: MetaAction, free: int, levels: int,
            add: Sequence[int], delete: Sequence[int], masks: Sequence[int],
            max_actions: int) -> None:
    """Append to ``out`` the children of ``node``, the set bits of ``free``
    lowest first, each followed by its subtree ``levels - 1`` deep.
    :func:`applicable_actions` walks the first three levels in its own
    loops and calls this for a triple's subtree only. Masks are walked with
    ``x & (x - 1)`` and cleared with ``x ^ (x & m)``: no operand is
    negative, which CPython's ``&`` handles more slowly."""
    if len(out) + free.bit_count() > max_actions:
        raise _cap_error(max_actions)
    atoms, add_mask, delete_mask = node
    append = out.append
    if levels == 1:
        while free:
            later = free & (free - 1)
            i = (free ^ later).bit_length() - 1
            free = later
            append(_tuple_new(MetaAction, (atoms + (i,), add_mask | add[i],
                                           delete_mask | delete[i])))
        return
    while free:
        later = free & (free - 1)
        i = (free ^ later).bit_length() - 1
        free = later
        child = _tuple_new(MetaAction, (atoms + (i,), add_mask | add[i],
                                        delete_mask | delete[i]))
        append(child)
        rest = free ^ (free & masks[i])
        if rest:
            _extend(out, child, rest, levels - 1, add, delete, masks,
                    max_actions)


def applicable_actions(task: GroundTask, state: State | int, degree: int,
                       conflict_set: ConflictSet) -> list[MetaAction]:
    """Every applicable meta-action of degree 1..degree at ``state``, a fact
    mask or a fact set. A set is converted once per call; the benchmark's
    reference checks (``perfbench/workloads.py``) pass sets.

    A meta-action is applicable iff each atom is individually applicable
    (``pre & state == pre``) and no atom pair conflicts. The applicable
    operators come off the task's :func:`applicability_table` as one
    operator mask; the degree-1 slice is exactly that set, its actions the
    table's cached ``singles``. Order is lexicographic by atom tuple: a DFS
    over conflict-free subsets of the applicable operators. A node's
    children are the set bits of its ``free`` mask, the applicable
    operator ids above its last atom that conflict with none of its atoms,
    walked in ascending order; a child's own ``free`` is its parent's
    remainder with the child's conflict mask cleared, so no conflicting
    operator is ever visited. Each action's effect masks are its parent's
    ORed with one operator's.

    The first three levels of the DFS are loops nested in this function,
    so no function is called per node above the third level:

    - level 1 walks the applicable operators and appends their singles;
    - level 2 walks each single's ``free`` bits. At degree 2 it appends the
      pairs of the table's ``pairs`` store, building and storing the ones
      not met before, so the task keeps its degree-2 actions once seen. At
      degree 3 and up it builds every pair afresh and the store is neither
      read nor filled;
    - level 3 walks each pair's ``free`` bits and builds each triple from
      the pair's unioned masks. At degree 4 and up each triple's subtree
      is appended by :func:`_extend`, one call per triple with children.

    More than ``DEFAULT_ACTION_CAP`` actions, the cap read when the call
    runs, raise :class:`CapacityError` with count cap + 1. The applicable
    operators and each node's children are counted before they are added,
    so the list never holds more than the cap plus the pending siblings.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    max_actions = DEFAULT_ACTION_CAP
    s = state if isinstance(state, int) else fact_mask(state)
    ops, groups, singles, add, delete, pairs = applicability_table(task)
    blocked = 0
    for shift, table in groups:
        blocked |= table[s >> shift & 15]
    ops ^= blocked  # all_ops less blocked, as blocked <= all_ops
    if ops.bit_count() > max_actions:
        raise _cap_error(max_actions)
    out: list[MetaAction] = []
    append = out.append
    if degree == 1:
        while ops:
            rest = ops & (ops - 1)
            append(singles[(ops ^ rest).bit_length() - 1])
            ops = rest
        return out
    masks = conflict_set.masks
    new = _tuple_new
    while ops:  # level 1; ``ops`` keeps the ids not yet taken
        later = ops & (ops - 1)
        i = (ops ^ later).bit_length() - 1
        ops = later
        append(singles[i])
        free = ops ^ (ops & masks[i])
        if not free:
            continue
        if len(out) + free.bit_count() > max_actions:
            raise _cap_error(max_actions)
        add_i, delete_i = add[i], delete[i]
        if degree == 2:  # level 2 as leaves, through the pair store
            row = pairs.get(i)
            if row is None:
                row = pairs[i] = {}
            get = row.get
            while free:
                later = free & (free - 1)
                j = (free ^ later).bit_length() - 1
                free = later
                pair = get(j)
                if pair is None:
                    pair = row[j] = new(MetaAction, (
                        (i, j), add_i | add[j], delete_i | delete[j]))
                append(pair)
            continue
        while free:  # level 2
            later = free & (free - 1)
            j = (free ^ later).bit_length() - 1
            free = later
            add_ij, delete_ij = add_i | add[j], delete_i | delete[j]
            append(new(MetaAction, ((i, j), add_ij, delete_ij)))
            rest = free ^ (free & masks[j])
            if not rest:
                continue
            if len(out) + rest.bit_count() > max_actions:
                raise _cap_error(max_actions)
            if degree == 3:  # level 3 as leaves
                while rest:
                    later = rest & (rest - 1)
                    k = (rest ^ later).bit_length() - 1
                    rest = later
                    append(new(MetaAction, ((i, j, k), add_ij | add[k],
                                            delete_ij | delete[k])))
                continue
            while rest:  # level 3, each triple's subtree by ``_extend``
                later = rest & (rest - 1)
                k = (rest ^ later).bit_length() - 1
                rest = later
                triple = new(MetaAction, ((i, j, k), add_ij | add[k],
                                          delete_ij | delete[k]))
                append(triple)
                deeper = rest ^ (rest & masks[k])
                if deeper:
                    _extend(out, triple, deeper, degree - 3, add, delete,
                            masks, max_actions)
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
