"""Reward accounting, episode termination, and discounted returns."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplan import (EnvConfig, EpisodeTrace, InapplicableError,
                      applicable_actions, build_conflict_set,
                      conservative_meta_reward, custom_spec,
                      discounted_return, generate, ground, reset,
                      shaped_reward_audit, step, StepOutcome, rollout)
from metaplan.env import (REASON_DEAD_END, REASON_GOAL, REASON_STEP_LIMIT,
                          rewards_to_go)
from metaplan.meta_ops import fact_mask
from tests.conftest import multiblocks_task
from tests.reference import apply, is_goal, make_meta_action, sets
from tests.test_policy import SHAPES


@pytest.fixture(scope="module")
def task():
    from tests.conftest import TWO_TOWER_PROBLEM, build_task
    from metaplan.generators import MULTIBLOCKS_DOMAIN
    return build_task(MULTIBLOCKS_DOMAIN, TWO_TOWER_PROBLEM)


@pytest.fixture(scope="module")
def conflict_set(task):
    return build_conflict_set(task)


def first_chooser(state, actions):
    return 0


def test_reset_returns_init(task):
    assert reset(task) == fact_mask(sets(task).init)
    assert reset(task) == reset(task)


def test_degree1_nongoal_reward_zero(task, conflict_set):
    cfg = EnvConfig(degree=2, meta_reward=0.01)
    from metaplan import applicable_actions
    actions = applicable_actions(task, task.init_mask, 1, conflict_set)
    outcome = step(task, task.init_mask, actions[0], cfg, 0)
    assert outcome.reward == 0.0


def test_degree2_nongoal_reward_is_meta(task, conflict_set):
    cfg = EnvConfig(degree=2, meta_reward=0.01)
    from metaplan import applicable_actions
    actions = [a for a in applicable_actions(task, task.init_mask, 2,
                                             conflict_set)
               if a.degree == 2]
    outcome = step(task, task.init_mask, actions[0], cfg, 0)
    assert outcome.reward == 0.01


def test_goal_and_meta_rewards_stack():
    """Two-step hand-executed episode: the final parallel step both reaches
    the goal and earns the meta reward, so reward is 1 + r."""
    from metaplan import applicable_actions
    task = multiblocks_task(blocks=1, arms=1, seed=0)
    # single block on the table, goal equals init ... build a 2-goal variant
    from tests.conftest import build_task
    from metaplan.generators import MULTIBLOCKS_DOMAIN
    task = build_task(MULTIBLOCKS_DOMAIN, """\
(define (problem stack2)
  (:domain multiblocks)
  (:objects a b c d - block arm1 arm2 - arm)
  (:init (ontable a) (ontable b) (ontable c) (ontable d)
         (clear a) (clear b) (clear c) (clear d)
         (handempty arm1) (handempty arm2))
  (:goal (and (on a b) (on c d)))
)
""")
    cfg = EnvConfig(degree=2, meta_reward=0.01)
    pick = make_meta_action(task, tuple(sorted(
        (task.operator_index["(pick-up arm1 a)"],
         task.operator_index["(pick-up arm2 c)"]))))
    out1 = step(task, task.init_mask, pick, cfg, 0)
    assert out1.reward == 0.01
    stack = make_meta_action(task, tuple(sorted(
        (task.operator_index["(stack arm1 a b)"],
         task.operator_index["(stack arm2 c d)"]))))
    out2 = step(task, out1.next_state, stack, cfg, 1)
    assert out2.reward == 1.01
    assert out2.done and out2.goal_reached


def test_reward_is_always_in_the_four_value_set(task):
    cfg = EnvConfig(degree=2, meta_reward=0.003)
    rng = random.Random(4)
    allowed = {0.0, 0.003, 1.0, 1.003}
    for ep in range(20):
        trace = rollout(task, cfg, lambda s, acts: rng.randrange(len(acts)))
        for r in trace.rewards:
            assert r in allowed


def test_step_cap_terminates(task):
    cfg = EnvConfig(degree=1, max_steps=3)
    trace = rollout(task, cfg, first_chooser)
    assert len(trace.actions) <= 3
    if trace.reason == REASON_STEP_LIMIT:
        assert len(trace.actions) == 3


def test_dead_end_detection():
    from tests.conftest import build_task
    task = build_task("""\
(define (domain once)
  (:requirements :strips)
  (:predicates (fresh) (used) (win))
  (:action burn
    :parameters ()
    :precondition (and (fresh))
    :effect (and (used) (not (fresh))))
)
""", "(define (problem p) (:domain once) (:init (fresh)) (:goal (and (win))))")
    cfg = EnvConfig(degree=1)
    outcome = step(task, task.init_mask, make_meta_action(task, (0,)),
                   cfg, 0)
    assert not outcome.done and not outcome.goal_reached
    trace = rollout(task, cfg, first_chooser)
    assert trace.reason == REASON_DEAD_END
    assert len(trace.actions) == 1


def test_strict_applicability(task):
    cfg = EnvConfig(degree=2)
    held = make_meta_action(task, (task.operator_index["(put-down arm1 a)"],))
    with pytest.raises(InapplicableError):
        step(task, task.init_mask, held, cfg, 0)


def test_conflicting_atoms_rejected(task):
    cfg = EnvConfig(degree=2)
    a = task.operator_index["(pick-up arm1 a)"]
    b = task.operator_index["(pick-up arm1 b)"]
    action = make_meta_action(task, tuple(sorted((a, b))))
    with pytest.raises(InapplicableError):
        step(task, task.init_mask, action, cfg, 0)


def test_degree_above_config_rejected(task):
    cfg = EnvConfig(degree=1)
    a = task.operator_index["(pick-up arm1 a)"]
    b = task.operator_index["(pick-up arm2 b)"]
    action = make_meta_action(task, tuple(sorted((a, b))))
    with pytest.raises(InapplicableError):
        step(task, task.init_mask, action, cfg, 0)


def test_step_deterministic(task, conflict_set):
    from metaplan import applicable_actions
    cfg = EnvConfig(degree=2, meta_reward=0.01)
    action = applicable_actions(task, task.init_mask, 2, conflict_set)[3]
    a = step(task, task.init_mask, action, cfg, 0)
    b = step(task, task.init_mask, action, cfg, 0)
    assert a == b


def test_step_outcome_is_a_frozen_slotted_record(task, conflict_set):
    """``StepOutcome`` is a named tuple built by keyword, compares, hashes
    and prints by value, refuses assignment and has no instance
    ``__dict__``."""
    outcome = StepOutcome(next_state=5, reward=0.5, done=False,
                          goal_reached=False)
    assert (outcome.next_state, outcome.reward, outcome.done,
            outcome.goal_reached) == (5, 0.5, False, False)
    assert outcome == StepOutcome(5, 0.5, False, False)
    assert outcome != StepOutcome(5, 0.5, True, False)
    assert hash(outcome) == hash(StepOutcome(5, 0.5, False, False))
    assert repr(outcome) == ("StepOutcome(next_state=5, reward=0.5, "
                             "done=False, goal_reached=False)")
    assert outcome == (5, 0.5, False, False)
    with pytest.raises(AttributeError):
        outcome.reward = 1.0
    assert StepOutcome.__slots__ == () and not hasattr(outcome, "__dict__")
    action = applicable_actions(task, task.init_mask, 2, conflict_set)[0]
    stepped = step(task, task.init_mask, action, EnvConfig(degree=2), 0)
    assert type(stepped) is StepOutcome
    assert not hasattr(stepped, "__dict__")


def test_trace_alignment(task):
    cfg = EnvConfig(degree=2, max_steps=10)
    trace = rollout(task, cfg, first_chooser)
    assert len(trace.states) == len(trace.actions) + 1
    assert len(trace.states) == len(trace.rewards) + 1


# ---------------------------------------------------------------------------
# The mask rollout against set algebra
# ---------------------------------------------------------------------------

def reference_rollout(task, cfg, choose):
    """The episode loop in set algebra: frozenset states, each step folding
    ``transition.apply`` over the action's atoms, ``is_goal`` as the goal
    test. Returns the states, actions, rewards and end reason."""
    conflict_set = build_conflict_set(task)
    state = sets(task).init
    states, actions, rewards = [state], [], []
    reason = REASON_GOAL if is_goal(task, state) else None
    while reason is None:
        available = applicable_actions(task, state, cfg.degree, conflict_set)
        if not available:
            reason = REASON_DEAD_END
            break
        action = available[choose(state, available)]
        for op_id in action.atoms:
            state = apply(task, state, op_id)
        goal_reached = is_goal(task, state)
        reward = cfg.goal_reward if goal_reached else 0.0
        if action.degree >= 2:
            reward += cfg.meta_reward
        states.append(state)
        actions.append(action)
        rewards.append(reward)
        if goal_reached:
            reason = REASON_GOAL
        elif len(actions) >= cfg.max_steps:
            reason = REASON_STEP_LIMIT
    return states, actions, rewards, reason


@given(domain=st.sampled_from(sorted(SHAPES)), seed=st.integers(0, 10_000),
       degree=st.integers(1, 3), walk=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_mask_rollout_equals_set_algebra_reference(domain, seed, degree,
                                                   walk):
    """Under the same seeded random chooser, the rollout over state masks
    visits the reference's states, takes its actions, collects its rewards
    and ends for its reason; and ``step`` on a mask reaches what folding
    ``apply`` over the action's atoms reaches."""
    task = ground(*generate(custom_spec(domain, seed=seed, **SHAPES[domain])))
    cfg = EnvConfig(degree=degree, meta_reward=0.01, max_steps=12)

    def chooser():
        rng = random.Random(walk)
        return lambda state, actions: rng.randrange(len(actions))

    trace = rollout(task, cfg, chooser())
    states, actions, rewards, reason = reference_rollout(task, cfg, chooser())
    assert trace.states == states
    assert all(type(s) is frozenset for s in trace.states)
    assert trace.masks == [fact_mask(s) for s in states]
    assert trace.actions == actions
    assert trace.rewards == rewards
    assert trace.reason == reason
    for t, (state, action) in enumerate(zip(states, actions)):
        outcome = step(task, fact_mask(state), action, cfg, t)
        folded = state
        for op_id in action.atoms:
            folded = apply(task, folded, op_id)
        assert outcome.next_state == fact_mask(folded)
        assert outcome.reward == rewards[t]


# ---------------------------------------------------------------------------
# Discounted return
# ---------------------------------------------------------------------------

def test_return_single_reward():
    assert discounted_return([1.0], 0.5) == 1.0


def test_return_gamma_squared_exact():
    assert discounted_return([0.0, 0.0, 1.0], 0.99) == 0.9801


def test_return_closed_form():
    for gamma in (0.5, 0.9, 0.99):
        for horizon in (1, 7, 100):
            rewards = [0.25] * horizon
            closed = 0.25 * (1 - gamma ** horizon) / (1 - gamma)
            assert math.isclose(discounted_return(rewards, gamma), closed,
                                rel_tol=0, abs_tol=1e-12)


@given(st.lists(st.floats(-1, 1), max_size=30),
       st.floats(0, 1, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_return_matches_power_sum(rewards, gamma):
    direct = sum((gamma ** k) * r for k, r in enumerate(rewards))
    assert math.isclose(discounted_return(rewards, gamma), direct,
                        rel_tol=1e-12, abs_tol=1e-12)


def test_return_gamma_edge_cases():
    rewards = [0.3, 0.5, 0.7]
    assert discounted_return(rewards, 0.0) == 0.3
    assert discounted_return(rewards, 1.0) == pytest.approx(1.5, abs=1e-15)
    assert discounted_return([], 0.9) == 0.0


def test_rewards_to_go_are_the_suffix_returns():
    rewards = [0.1, -0.2, 0.0, 1.0]
    assert rewards_to_go(rewards, 0.9) == [
        discounted_return(rewards[t:], 0.9) for t in range(len(rewards))]
    assert rewards_to_go([], 0.9) == []


def test_shorter_goal_episodes_dominate():
    """With no shaping and gamma < 1, a goal episode of length T returns
    gamma^(T-1): strictly decreasing in T."""
    for gamma in (0.9, 0.99):
        returns = [discounted_return([0.0] * (t - 1) + [1.0], gamma)
                   for t in range(1, 10)]
        assert all(a > b for a, b in zip(returns, returns[1:]))


# ---------------------------------------------------------------------------
# Conservative reward and masking audit
# ---------------------------------------------------------------------------

def test_conservative_meta_reward_values():
    assert conservative_meta_reward(EnvConfig()) == 0.01
    assert conservative_meta_reward(EnvConfig(max_steps=1)) == 1.0
    assert conservative_meta_reward(EnvConfig(goal_reward=2.0)) == 0.02


def _synthetic_trace(task, meta_steps, cfg, reach_goal):
    """Trace with ``meta_steps`` degree-2 decisions, ending at the goal."""
    a = task.operator_index["(pick-up arm1 a)"]
    b = task.operator_index["(pick-up arm2 b)"]
    action = make_meta_action(task, tuple(sorted((a, b))))
    rewards = [cfg.meta_reward] * meta_steps
    if reach_goal and rewards:
        rewards[-1] += cfg.goal_reward
    return EpisodeTrace(masks=[task.init_mask] * (meta_steps + 1),
                        actions=[action] * meta_steps,
                        rewards=rewards,
                        reason=REASON_GOAL if reach_goal else REASON_STEP_LIMIT,
                        task=task)


def test_audit_eleven_meta_steps(task):
    cfg = EnvConfig(meta_reward=0.01)
    audit = shaped_reward_audit(_synthetic_trace(task, 11, cfg, True), cfg)
    assert audit.meta_total == pytest.approx(0.11, abs=1e-12)
    assert audit.goal_total == 1.0
    assert not audit.masking


def test_audit_no_meta_steps(task):
    cfg = EnvConfig(meta_reward=0.01)
    trace = EpisodeTrace(masks=[task.init_mask], actions=[],
                         rewards=[], reason=REASON_GOAL, task=task)
    audit = shaped_reward_audit(trace, cfg)
    assert audit.meta_total == 0.0
    assert not audit.masking


def test_audit_masking_flag(task):
    cfg = EnvConfig(meta_reward=0.01)
    audit = shaped_reward_audit(_synthetic_trace(task, 101, cfg, False), cfg)
    assert audit.meta_total == pytest.approx(1.01, abs=1e-12)
    assert audit.meta_total > 1.0
    assert audit.masking
    assert audit.goal_total == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        EnvConfig(gamma=1.5)
    with pytest.raises(ValueError):
        EnvConfig(max_steps=0)
    with pytest.raises(ValueError):
        EnvConfig(degree=0)
    with pytest.raises(ValueError):
        EnvConfig(meta_reward=-0.1)


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        EnvConfig(seed=-1)
    assert EnvConfig(seed=0).seed == 0


@pytest.mark.parametrize("name", ["goal_reward", "meta_reward"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_config_rejects_non_finite_rewards(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        EnvConfig(**{name: value})
