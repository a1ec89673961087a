"""STRIPS state semantics: applicability, successor computation, goal test.

This module states the semantics in set algebra: states are immutable
frozensets of fact indices, so all functions here are pure and safe to call
concurrently. Enumeration, the environment and search
(:mod:`metaplan.meta_ops`, :mod:`metaplan.env`,
:func:`metaplan.evalkit.bfs_solve`) hold the same sets as int fact masks,
and are tested against these functions.
"""

from __future__ import annotations

from .grounding import GroundTask

State = frozenset[int]


class InapplicableError(Exception):
    """An operator or action was applied in a state it is not applicable in."""


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
