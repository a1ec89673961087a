"""Deterministic episodic MDP over a ground task.

Reward is sparse: ``goal_reward`` on reaching the goal, plus a flat
``meta_reward`` whenever the chosen action bundles two or more operators.
The two stack additively when a meta-action reaches the goal, so every step
reward is exactly one of {0, r, goal_reward, goal_reward + r}. Episodes end
on goal, on the step cap, or in a dead end (no applicable action). The step
decides the first two; the rollout's enumeration at the next state decides
the third.

States are int fact masks (bit ``f`` set iff fact ``f`` holds; see
:mod:`metaplan.meta_ops`) from :func:`reset` through :func:`step` and the
chooser to the trace, so an episode converts no state between steps. An
:class:`EpisodeTrace` keeps the masks and builds frozensets of facts only
when its ``states`` are read.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, NamedTuple, Optional

from .grounding import GroundTask
from .meta_ops import (MetaAction, State, applicable_actions,
                       conflict_set_of, mask_facts, step_fault)

REASON_GOAL = "goal"
REASON_STEP_LIMIT = "step_limit"
REASON_DEAD_END = "dead_end"


class InapplicableError(Exception):
    """An operator or action was applied in a state it is not applicable in."""


@dataclass(frozen=True)
class EnvConfig:
    """Reward shaping and episode parameters."""

    gamma: float = 0.99
    goal_reward: float = 1.0
    meta_reward: float = 0.0
    max_steps: int = 100
    degree: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("goal_reward", "meta_reward"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.meta_reward < 0.0:
            raise ValueError(f"meta_reward must be >= 0, got {self.meta_reward}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def to_json(self) -> dict[str, Any]:
        return asdict(self)


class StepOutcome(NamedTuple):
    """What :func:`step` returns: the successor state mask, the reward and
    whether the episode ended (``done``) at the goal (``goal_reached``)."""

    next_state: int
    reward: float
    done: bool
    goal_reached: bool


@dataclass
class EpisodeTrace:
    """Aligned state/action/reward sequences: |masks| = |actions| + 1.

    ``masks`` holds the visited states as fact masks, as the rollout
    carried them. ``states`` gives them as frozensets of facts, built anew
    on every read.
    """

    masks: list[int]
    actions: list[MetaAction]
    rewards: list[float]
    reason: str
    task: Optional[GroundTask] = field(default=None, repr=False)

    @property
    def states(self) -> list[State]:
        # Built through a set, which sizes the frozenset's table as set
        # algebra does: grown from a list, a state of 5 to 7 facts takes 728
        # bytes, not 472 (CPython 3.11), and a caller may keep them all.
        return [frozenset(set(mask_facts(mask))) for mask in self.masks]


def reset(task: GroundTask) -> int:
    """Initial state mask of a fresh episode. ``reset`` keeps no step
    counter: the caller passes :func:`step` its ``steps_so_far``."""
    return task.init_mask


def step(task: GroundTask, state: int, action: MetaAction, cfg: EnvConfig,
         steps_so_far: int) -> StepOutcome:
    """Apply one (meta-)action to the state mask ``state`` and score it.

    ``steps_so_far`` counts completed steps before this one. Strict: raises
    :class:`InapplicableError` when the action breaks the step rule
    (:func:`~metaplan.meta_ops.step_fault`) at ``cfg.degree``. ``done`` means
    the goal or the step cap is reached, ``goal_reached`` that the goal is;
    the step reads no operator outside the action, so a dead end is left to
    the caller's next enumeration.
    """
    fault = step_fault(task, state, action.atoms, cfg.degree)
    if fault is not None:
        raise InapplicableError("{}: {}".format(*fault))

    next_state = (state & ~action.delete_mask) | action.add_mask
    goal = task.goal_mask
    goal_reached = next_state & goal == goal
    reward = (cfg.goal_reward if goal_reached else 0.0)
    if action.degree >= 2:
        reward += cfg.meta_reward

    done = goal_reached or steps_so_far + 1 >= cfg.max_steps
    return StepOutcome(next_state=next_state, reward=reward, done=done,
                       goal_reached=goal_reached)


def rollout(task: GroundTask, cfg: EnvConfig,
            choose: Callable[[int, list[MetaAction]], int]) -> EpisodeTrace:
    """Run one episode, picking actions with ``choose(state, actions)``,
    where ``state`` is the current state mask."""
    conflict_set = conflict_set_of(task)
    goal = task.goal_mask
    state = reset(task)
    masks = [state]
    actions: list[MetaAction] = []
    rewards: list[float] = []
    reason = REASON_GOAL if state & goal == goal else None
    while reason is None:
        available = applicable_actions(task, state, cfg.degree, conflict_set)
        if not available:
            reason = REASON_DEAD_END
            break
        action = available[choose(state, available)]
        outcome = step(task, state, action, cfg, len(actions))
        state = outcome.next_state
        masks.append(state)
        actions.append(action)
        rewards.append(outcome.reward)
        if outcome.done:
            reason = (REASON_GOAL if outcome.goal_reached
                      else REASON_STEP_LIMIT)
    return EpisodeTrace(masks, actions, rewards, reason, task)


def rewards_to_go(rewards: list[float], gamma: float) -> list[float]:
    """The discounted return from each step on: entry t is the sum of
    gamma^k * rewards[t + k], folded from the last reward back (Horner)."""
    togo = [0.0] * len(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        togo[t] = acc
    return togo


def discounted_return(rewards: list[float], gamma: float) -> float:
    """Sum of gamma^k * rewards[k]: the first reward-to-go, 0.0 for none."""
    return rewards_to_go(rewards, gamma)[0] if rewards else 0.0


def conservative_meta_reward(cfg: EnvConfig) -> float:
    """Meta reward guaranteed not to mask the goal within one episode."""
    return cfg.goal_reward / cfg.max_steps


@dataclass(frozen=True)
class RewardAudit:
    """Shaping-vs-goal reward accounting for one episode."""

    meta_total: float
    goal_total: float
    masking: bool


def shaped_reward_audit(trace: EpisodeTrace, cfg: EnvConfig) -> RewardAudit:
    """Total meta shaping collected, goal reward collected, and a masking
    flag set when the shaping total exceeds the goal reward."""
    meta_total = 0.0
    for action in trace.actions:
        if action.degree >= 2:
            meta_total += cfg.meta_reward
    goal_total = cfg.goal_reward if (trace.reason == REASON_GOAL
                                     and trace.actions) else 0.0
    return RewardAudit(meta_total=meta_total, goal_total=goal_total,
                       masking=meta_total > cfg.goal_reward)
