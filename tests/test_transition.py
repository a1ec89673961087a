"""Transition semantics against an independent set-algebra oracle."""

import random

import pytest

from metaplan import InapplicableError, State, bfs_solve, task_to_json
from tests.conftest import build_task, multiblocks_task
from tests.reference import (applicable_ops, apply, is_applicable, is_goal,
                             sets)

EMPTY_PRE_DOMAIN = """\
(define (domain free)
  (:requirements :strips)
  (:predicates (a) (b))
  (:action spawn
    :parameters ()
    :precondition (and)
    :effect (and (a)))
  (:action swap
    :parameters ()
    :precondition (and (a))
    :effect (and (b) (not (a))))
)
"""

EMPTY_PRE_PROBLEM = """\
(define (problem start)
  (:domain free)
  (:init)
  (:goal (and (b)))
)
"""


@pytest.fixture(scope="module")
def free_task():
    return build_task(EMPTY_PRE_DOMAIN, EMPTY_PRE_PROBLEM)


def random_states(task, count, seed):
    """Random walks from init give reachable states; random subsets add noise."""
    rng = random.Random(seed)
    init = sets(task).init
    states = [init]
    state = init
    for _ in range(count * 4):
        ops = applicable_ops(task, state)
        if not ops:
            state = init
            continue
        state = apply(task, state, rng.choice(ops))
        states.append(state)
    rng.shuffle(states)
    return states[:count]


def test_empty_precondition_always_applicable(free_task):
    spawn = free_task.operator_index["(spawn)"]
    assert is_applicable(free_task, frozenset(), spawn)
    assert is_applicable(free_task, sets(free_task).init, spawn)


def test_missing_precondition_not_applicable(free_task):
    swap = free_task.operator_index["(swap)"]
    assert not is_applicable(free_task, frozenset(), swap)


def test_applicable_set_matches_membership_oracle():
    task = multiblocks_task(blocks=6, arms=2, seed=3)
    data = task_to_json(task)
    for state in random_states(task, 5, seed=1):
        got = [o.id for o in task.operators if is_applicable(task, state, o.id)]
        oracle = [i for i, op in enumerate(data["operators"])
                  if all(p in state for p in op["pre"])]
        assert got == oracle


def test_apply_identity_when_no_effects():
    task = build_task("""\
(define (domain inert)
  (:requirements :strips)
  (:predicates (x))
  (:action wait
    :parameters ()
    :precondition (and)
    :effect (and))
)
""", "(define (problem p) (:domain inert) (:init (x)) (:goal (and (x))))")
    state = sets(task).init
    assert apply(task, state, 0) == state


def test_apply_delete_then_add(free_task):
    swap = free_task.operator_index["(swap)"]
    fact_index = {(f.predicate, f.args): f.index for f in free_task.facts}
    a = fact_index[("a", ())]
    b = fact_index[("b", ())]
    assert apply(free_task, frozenset({a}), swap) == frozenset({b})


def test_apply_matches_set_algebra_oracle():
    task = multiblocks_task(blocks=4, arms=2, seed=6)
    data = task_to_json(task)
    rng = random.Random(0)
    checked = 0
    for state in random_states(task, 80, seed=2):
        ops = [i for i, op in enumerate(data["operators"])
               if set(op["pre"]) <= state]
        for _ in range(min(len(ops), 10)):
            op_id = rng.choice(ops)
            op = data["operators"][op_id]
            expected = (set(state) - set(op["del"])) | set(op["add"])
            got = apply(task, state, op_id)
            assert sorted(got) == sorted(expected)
            checked += 1
    assert checked >= 200


def test_frame_property():
    task = multiblocks_task(blocks=4, arms=1, seed=8)
    table = set(range(len(task.facts)))
    view = sets(task)
    for state in random_states(task, 20, seed=3):
        for op in task.operators:
            if not view.pre[op.id] <= state:
                continue
            nxt = apply(task, state, op.id)
            assert nxt <= table
            touched = view.add[op.id] | view.delete[op.id]
            for f in state - touched:
                assert f in nxt
            for f in nxt - touched:
                assert f in state


def test_apply_strict_raises(free_task):
    swap = free_task.operator_index["(swap)"]
    with pytest.raises(InapplicableError, match="swap"):
        apply(free_task, frozenset(), swap)


def test_apply_returns_new_state(free_task):
    spawn = free_task.operator_index["(spawn)"]
    state: State = frozenset()
    nxt = apply(free_task, state, spawn)
    assert state == frozenset()
    assert nxt != state


def test_is_goal_empty_goal():
    task = build_task(EMPTY_PRE_DOMAIN,
                      EMPTY_PRE_PROBLEM.replace("(:goal (and (b)))",
                                                "(:goal (and))"))
    assert is_goal(task, frozenset())
    assert is_goal(task, sets(task).init)


def test_goal_satisfied_at_init_when_goal_equals_init():
    task = multiblocks_task(blocks=3, arms=1, seed=5)
    assert is_goal(task, sets(task).init | sets(task).goal)


def test_goal_after_oracle_plan():
    task = multiblocks_task(blocks=3, arms=1, seed=5)
    plan = bfs_solve(task, 1, 20)
    assert plan is not None
    state = sets(task).init
    for step in plan.steps:
        (op_id,) = step
        state = apply(task, state, op_id)
    assert is_goal(task, state)
