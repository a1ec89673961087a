"""Plan execution, validation, metrics, and a breadth-first oracle planner.

Plans are timestep-indexed sets of operator ids: each step is a conflict-free
bundle applied simultaneously via the union formula. "Length" in reports is
the number of timesteps; the count of atomic operators is reported alongside
to avoid ambiguity with sequential baselines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from .env import EnvConfig, REASON_GOAL, rollout
from .grounding import GroundTask
# The step rule's causes are re-exported beside CAUSE_GOAL, so every
# ValidationResult cause can be imported from this module.
from .meta_ops import (CAUSE_CONFLICT, CAUSE_DEGREE, CAUSE_INAPPLICABLE,
                       ConflictSet, MetaAction, applicable_actions,
                       conflict_set_of, mask_facts, step_fault, union_mask)
from .policy import FeatureConfig, PolicyParams, greedy_action, \
    sample_action, scorer

REPORT_SCHEMA_VERSION = 1

DEFAULT_BFS_STATE_CAP = 1_000_000

CAUSE_GOAL = "goal_unsatisfied"


class PlanParseError(Exception):
    """A plan file line does not match the plan text format."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class EmptyPlanError(Exception):
    """Metric undefined for a plan with no timesteps."""


class SearchMemoryError(Exception):
    """BFS exceeded its visited-state cap."""

    def __init__(self, visited: int, cap: int):
        super().__init__(f"search visited {visited} states (cap {cap})")
        self.visited = visited
        self.cap = cap


@dataclass(frozen=True)
class Plan:
    """Ordered timesteps, each a sorted tuple of operator ids."""

    steps: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for i, step in enumerate(self.steps):
            if not step:
                raise ValueError(f"step {i} is empty")

    @property
    def timesteps(self) -> int:
        return len(self.steps)

    @property
    def total_atoms(self) -> int:
        return sum(len(step) for step in self.steps)


def plan_from_actions(actions: Sequence[MetaAction]) -> Plan:
    return Plan(tuple(a.atoms for a in actions))


# ---------------------------------------------------------------------------
# Plan text format: "<t>: (<op> <args...>) (<op> <args...>)"
# ---------------------------------------------------------------------------

_STEP_RE = re.compile(r"^(\d+):\s*(.*)$")
_OP_RE = re.compile(r"\(([^()]*)\)")


def plan_to_text(task: GroundTask, plan: Plan) -> str:
    lines = []
    for t, step in enumerate(plan.steps):
        ops = " ".join(task.operators[i].name for i in step)
        lines.append(f"{t}: {ops}")
    return "\n".join(lines) + ("\n" if lines else "")


def _step_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, operator names) of each step line, without a task.

    Checks the line shape, the timestep order, leftover text and duplicate
    names in a step; names are canonicalized to single spaces.
    """
    expected_t = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";")[0].strip()
        if not line:
            continue
        match = _STEP_RE.match(line)
        if not match:
            raise PlanParseError(f"malformed step line {line!r}", lineno)
        t = int(match.group(1))
        if t != expected_t:
            raise PlanParseError(f"expected timestep {expected_t}, found {t}",
                                 lineno)
        expected_t += 1
        body = match.group(2).strip()
        names = ["(" + " ".join(name.split()) + ")"
                 for name in _OP_RE.findall(body)]
        leftover = _OP_RE.sub("", body).strip()
        if leftover or not names:
            raise PlanParseError(f"malformed operator list {body!r}", lineno)
        if len(set(names)) != len(names):
            raise PlanParseError("duplicate operator within a step", lineno)
        yield lineno, names


def plan_from_text(task: GroundTask, text: str) -> Plan:
    steps: list[tuple[int, ...]] = []
    for lineno, names in _step_lines(text):
        ids = []
        for name in names:
            op_id = task.operator_index.get(name)
            if op_id is None:
                raise PlanParseError(f"unknown operator {name}", lineno)
            ids.append(op_id)
        steps.append(tuple(sorted(ids)))
    return Plan(tuple(steps))


# ---------------------------------------------------------------------------
# Validation and metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    step: Optional[int] = None
    cause: Optional[str] = None
    detail: str = ""


def validate_plan(task: GroundTask, plan: Plan, degree: int) -> ValidationResult:
    """Check a parallel plan step by step against the task semantics.

    A step passes the step rule (:func:`~metaplan.meta_ops.step_fault`):
    its degree is within bounds, its atoms are pairwise conflict-free, and
    every atom is applicable in the running state. The plan passes when the
    final state satisfies the goal. The running state is a fact mask.
    """
    state = task.init_mask
    for t, step in enumerate(plan.steps):
        fault = step_fault(task, state, step, degree)
        if fault is not None:
            return ValidationResult(False, t, *fault)
        ops = [task.operators[i] for i in step]
        state = ((state & ~union_mask(op.delete_mask for op in ops))
                 | union_mask(op.add_mask for op in ops))
    missing = task.goal_mask & ~state
    if missing:
        return ValidationResult(False, len(plan.steps), CAUSE_GOAL,
                                ", ".join(task.fact_str(i)
                                          for i in mask_facts(missing)))
    return ValidationResult(True)


def parallelism_rate(plan: Plan) -> float:
    """Fraction of timesteps carrying two or more operators."""
    if not plan.steps:
        raise EmptyPlanError("parallelism rate undefined for an empty plan")
    parallel = sum(1 for step in plan.steps if len(step) >= 2)
    return parallel / len(plan.steps)


@dataclass(frozen=True)
class ProblemOutcome:
    problem: str
    solved: bool
    timesteps: Optional[int] = None
    total_atoms: Optional[int] = None
    parallelism: Optional[float] = None
    reason: str = ""

    def to_json(self) -> dict[str, Any]:
        return {"problem": self.problem, "solved": self.solved,
                "timesteps": self.timesteps, "total_atoms": self.total_atoms,
                "parallelism": self.parallelism, "reason": self.reason}


@dataclass(frozen=True)
class EvalReport:
    outcomes: tuple[ProblemOutcome, ...]
    solved: int
    total: int
    avg_timesteps: Optional[float]
    avg_total_atoms: Optional[float]
    mean_parallelism: Optional[float]
    config: dict[str, Any] = field(default_factory=dict)

    @property
    def coverage(self) -> Optional[float]:
        return self.solved / self.total if self.total else None

    def to_json(self) -> dict[str, Any]:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "solved": self.solved,
            "total": self.total,
            "coverage": self.coverage,
            "avg_timesteps": self.avg_timesteps,
            "avg_total_atoms": self.avg_total_atoms,
            "mean_parallelism": self.mean_parallelism,
            "config": self.config,
            "outcomes": [o.to_json() for o in self.outcomes],
        }


def aggregate(outcomes: Sequence[ProblemOutcome],
              config: dict[str, Any] | None = None) -> EvalReport:
    """Coverage plus averages computed over solved problems only."""
    solved = [o for o in outcomes if o.solved]
    lengths = [o.timesteps for o in solved if o.timesteps is not None]
    atoms = [o.total_atoms for o in solved if o.total_atoms is not None]
    rates = [o.parallelism for o in solved if o.parallelism is not None]
    return EvalReport(
        outcomes=tuple(outcomes),
        solved=len(solved),
        total=len(outcomes),
        avg_timesteps=float(np.mean(lengths)) if lengths else None,
        avg_total_atoms=float(np.mean(atoms)) if atoms else None,
        mean_parallelism=float(np.mean(rates)) if rates else None,
        config=dict(config or {}),
    )


# ---------------------------------------------------------------------------
# Policy execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyRun:
    solved: bool
    plan: Optional[Plan]
    reason: str


def run_policy(params: PolicyParams, task: GroundTask, mode: str,
               env_cfg: EnvConfig, fc: FeatureConfig | None = None,
               seed: int | None = None) -> PolicyRun:
    """Execute the policy as one :func:`~metaplan.env.rollout` episode.

    The episode runs from the initial state until goal, dead end, or cap.

    ``mode`` is ``"greedy"`` (argmax, the evaluation default) or
    ``"sample"`` (seeded stochastic draw). The distribution at a state is
    computed once per episode (:func:`~metaplan.policy.scorer`), so a policy
    that cycles until the step cap scores each state of the cycle once.
    Failure is a value, not an error.
    """
    if mode not in ("greedy", "sample"):
        raise ValueError(f"mode must be 'greedy' or 'sample', got {mode!r}")
    if fc is None:
        fc = FeatureConfig(degree=env_cfg.degree)
    rng = np.random.default_rng(env_cfg.seed if seed is None else seed)

    score = scorer(task, params, fc)

    def choose(state: int, available: list[MetaAction]) -> int:
        _, _, dist, cumulative = score(state, available)
        return greedy_action(dist) if mode == "greedy" \
            else sample_action(dist, rng, cumulative)

    trace = rollout(task, env_cfg, choose)
    if trace.reason != REASON_GOAL:
        return PolicyRun(False, None, trace.reason)
    return PolicyRun(True, plan_from_actions(trace.actions), REASON_GOAL)


def evaluate_policy(params: PolicyParams, tasks: Sequence[GroundTask],
                    mode: str, env_cfg: EnvConfig,
                    fc: FeatureConfig | None = None,
                    seed: int | None = None,
                    config: dict[str, Any] | None = None) -> EvalReport:
    """Run the policy over a task list and aggregate per-problem outcomes."""
    outcomes = []
    for task in tasks:
        run = run_policy(params, task, mode, env_cfg, fc, seed=seed)
        if run.solved and run.plan is not None:
            rate = parallelism_rate(run.plan) if run.plan.steps else None
            outcomes.append(ProblemOutcome(
                problem=task.problem_name, solved=True,
                timesteps=run.plan.timesteps,
                total_atoms=run.plan.total_atoms,
                parallelism=rate, reason=run.reason))
        else:
            outcomes.append(ProblemOutcome(problem=task.problem_name,
                                           solved=False, reason=run.reason))
    return aggregate(outcomes, config)


# ---------------------------------------------------------------------------
# Breadth-first oracle
# ---------------------------------------------------------------------------

def bfs_solve(task: GroundTask, degree: int, depth_limit: int,
              conflict_set: ConflictSet | None = None) -> Optional[Plan]:
    """Shallowest plan in the degree-L action space, or None within the limit.

    Breadth-first over fact-mask states, one depth layer at a time, the
    successor of ``s`` under an action being ``(s & ~delete_mask) |
    add_mask``, with deterministic tie-breaking by action order; intended
    as an independent oracle on tiny instances. Without ``conflict_set`` it
    uses the task's own relation. Visiting more than
    ``DEFAULT_BFS_STATE_CAP`` states, the cap read when the search starts,
    raises :class:`SearchMemoryError`.
    """
    if depth_limit < 0:
        raise ValueError("depth_limit must be >= 0")
    state_cap = DEFAULT_BFS_STATE_CAP
    if conflict_set is None:
        conflict_set = conflict_set_of(task)
    init, goal = task.init_mask, task.goal_mask
    if init & goal == goal:
        return Plan(())

    # ``parent`` maps each visited state to the state and atoms it was
    # reached by; ``init`` maps to None.
    parent: dict[int, tuple[int, tuple[int, ...]] | None] = {init: None}
    layer = [init]
    for _ in range(depth_limit):
        next_layer: list[int] = []
        for state in layer:
            for atoms, add_mask, delete_mask in applicable_actions(
                    task, state, degree, conflict_set):
                nxt = (state & ~delete_mask) | add_mask
                if nxt in parent:
                    continue
                parent[nxt] = (state, atoms)
                if nxt & goal == goal:
                    steps: list[tuple[int, ...]] = []
                    cur = nxt
                    while cur != init:
                        cur, taken = parent[cur]
                        steps.append(taken)
                    return Plan(tuple(reversed(steps)))
                if len(parent) > state_cap:
                    raise SearchMemoryError(len(parent), state_cap)
                next_layer.append(nxt)
        if not next_layer:
            break
        layer = next_layer
    return None
