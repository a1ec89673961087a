"""Plan validation, metrics, the plan text format, and the BFS oracle."""

import time
from functools import cache
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplan import (CapacityError, EmptyPlanError, EnvConfig,
                      FeatureConfig, InapplicableError, Plan, PlanParseError,
                      PolicyParams, ProblemOutcome, TrainConfig, aggregate,
                      applicable_actions, bfs_solve, build_conflict_set,
                      evaluate_policy, generate_dataset, greedy_action,
                      ground_reachable, init_params, parallelism_rate,
                      plan_from_actions, plan_from_text, plan_to_text,
                      preset_spec, run_policy, sample_action, step, train,
                      validate_plan)
from metaplan import evalkit, policy
from metaplan.evalkit import (CAUSE_CONFLICT, CAUSE_DEGREE,
                              CAUSE_INAPPLICABLE, CAUSE_GOAL)
from metaplan.generators import MULTIBLOCKS_DOMAIN
from metaplan.meta_ops import fact_mask
from tests.conftest import (TWO_TOWER_PROBLEM, build_task, depots_task,
                            logistics_task, multiblocks_task)
from tests.reference import (action_distribution, action_effects,
                             applicable_ops, featurize_all, is_goal,
                             make_meta_action, sets)


@pytest.fixture(scope="module")
def tower_task(two_tower_task):
    return two_tower_task


def test_parallelism_rate_simple():
    plan = Plan(tuple([(0, 1)] * 3 + [(2,)] * 7))
    assert parallelism_rate(plan) == pytest.approx(0.3)


def test_parallelism_rate_sequential():
    plan = Plan(((0,), (1,), (2,)))
    assert parallelism_rate(plan) == 0.0


def test_parallelism_rate_empty_plan():
    with pytest.raises(EmptyPlanError):
        parallelism_rate(Plan(()))


def test_plan_rejects_empty_step():
    with pytest.raises(ValueError):
        Plan(((0,), ()))


def test_aggregate_empty():
    report = aggregate([])
    assert report.total == 0 and report.solved == 0
    assert report.coverage is None
    assert report.avg_timesteps is None
    assert report.mean_parallelism is None


def test_aggregate_solved_only_averages():
    outcomes = [
        ProblemOutcome("p1", True, timesteps=10, total_atoms=12,
                       parallelism=0.2),
        ProblemOutcome("p2", False),
        ProblemOutcome("p3", True, timesteps=20, total_atoms=25,
                       parallelism=0.4),
        ProblemOutcome("p4", False),
    ]
    report = aggregate(outcomes)
    assert report.solved == 2 and report.total == 4
    assert report.coverage == 0.5
    assert report.avg_timesteps == 15.0
    assert report.mean_parallelism == pytest.approx(0.3)
    data = report.to_json()
    assert data["schema_version"] == 1
    assert len(data["outcomes"]) == 4


# ---------------------------------------------------------------------------
# Plan text format
# ---------------------------------------------------------------------------

def test_plan_text_round_trip(blocks3_task):
    task = blocks3_task
    plan = bfs_solve(task, 1, 20)
    text = plan_to_text(task, plan)
    parsed = plan_from_text(task, text)
    assert parsed.steps == plan.steps
    assert plan_to_text(task, parsed) == text


def test_plan_text_parallel_round_trip(tower_task):
    plan = bfs_solve(tower_task, 2, 6)
    assert any(len(step) >= 2 for step in plan.steps)
    text = plan_to_text(tower_task, plan)
    assert plan_from_text(tower_task, text).steps == plan.steps


@given(st.integers(0, 6))
@settings(max_examples=20, deadline=None)
def test_plan_text_random_subplans(length):
    task = multiblocks_task(blocks=3, arms=1, seed=5)
    full = bfs_solve(task, 1, 20)
    plan = Plan(full.steps[:length]) if length <= full.timesteps else full
    if not plan.steps:
        assert plan_to_text(task, plan) == ""
        return
    assert plan_from_text(task, plan_to_text(task, plan)).steps == plan.steps


def test_plan_text_malformed_line(blocks3_task):
    with pytest.raises(PlanParseError, match="malformed"):
        plan_from_text(blocks3_task, "not a step\n")


def test_plan_text_bad_timestep(blocks3_task):
    plan = bfs_solve(blocks3_task, 1, 20)
    text = plan_to_text(blocks3_task, plan)
    broken = text.replace("0:", "4:", 1)
    with pytest.raises(PlanParseError, match="timestep"):
        plan_from_text(blocks3_task, broken)


def test_plan_text_is_case_insensitive(blocks3_task):
    """Operator names fold to lower case, as PDDL symbols do, before the
    duplicate-in-step check."""
    plan = bfs_solve(blocks3_task, 1, 20)
    text = plan_to_text(blocks3_task, plan)
    assert plan_from_text(blocks3_task, text.upper()).steps == plan.steps
    first = text.splitlines()[0].split(": ")[1]
    with pytest.raises(PlanParseError, match="duplicate"):
        plan_from_text(blocks3_task, f"0: {first} {first.upper()}\n")


def test_plan_text_unknown_operator(blocks3_task):
    with pytest.raises(PlanParseError, match="unknown operator"):
        plan_from_text(blocks3_task, "0: (teleport b1 b2)\n")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_oracle_plan_validates(blocks3_task):
    plan = bfs_solve(blocks3_task, 1, 20)
    assert validate_plan(blocks3_task, plan, 1).ok


def test_conflicting_pair_rejected(tower_task):
    task = tower_task
    a = task.operator_index["(pick-up arm1 a)"]
    b = task.operator_index["(pick-up arm1 b)"]  # same arm: interference
    plan = Plan((tuple(sorted((a, b))),))
    result = validate_plan(task, plan, 2)
    assert not result.ok
    assert result.step == 0
    assert result.cause == CAUSE_CONFLICT


def test_dropped_final_step_rejected(blocks3_task):
    plan = bfs_solve(blocks3_task, 1, 20)
    truncated = Plan(plan.steps[:-1])
    result = validate_plan(blocks3_task, truncated, 1)
    assert not result.ok
    assert result.cause == CAUSE_GOAL
    assert result.step == truncated.timesteps


def test_degree_exceeded_rejected(tower_task):
    task = tower_task
    a = task.operator_index["(pick-up arm1 a)"]
    b = task.operator_index["(pick-up arm2 b)"]
    plan = Plan((tuple(sorted((a, b))),))
    result = validate_plan(task, plan, 1)
    assert not result.ok
    assert result.cause == CAUSE_DEGREE


def test_inapplicable_step_rejected(blocks3_task):
    plan = bfs_solve(blocks3_task, 1, 20)
    swapped = list(plan.steps)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    result = validate_plan(blocks3_task, Plan(tuple(swapped)), 1)
    assert not result.ok
    assert result.cause == CAUSE_INAPPLICABLE
    assert result.step == 0


def test_empty_plan_valid_iff_goal_at_init(blocks3_task):
    result = validate_plan(blocks3_task, Plan(()), 1)
    assert not result.ok
    assert result.cause == CAUSE_GOAL


@cache
def step_rule_tasks():
    return (build_task(MULTIBLOCKS_DOMAIN, TWO_TOWER_PROBLEM),
            multiblocks_task(blocks=3, arms=2, seed=3),
            depots_task(seed=4, crates=2))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_step_raises_iff_validator_rejects_the_step(data):
    """env.step and validate_plan apply one step rule: step raises exactly
    when the one-step plan fails on degree, conflict or applicability, and
    with the validator's cause and detail."""
    task = data.draw(st.sampled_from(step_rule_tasks()))
    init = sets(task).init
    applicable = applicable_ops(task, init)
    pool = data.draw(st.sampled_from(
        [applicable, list(range(len(task.operators)))]))
    atoms = tuple(sorted(data.draw(
        st.sets(st.sampled_from(pool), min_size=1, max_size=3))))
    degree = data.draw(st.integers(1, 3))
    result = validate_plan(task, Plan((atoms,)), degree)
    step_fails = result.cause in (CAUSE_DEGREE, CAUSE_CONFLICT,
                                  CAUSE_INAPPLICABLE)
    action = make_meta_action(task, atoms)
    if step_fails:
        with pytest.raises(InapplicableError) as err:
            step(task, task.init_mask, action,
                 EnvConfig(degree=degree), 0)
        assert str(err.value) == f"{result.cause}: {result.detail}"
    else:
        outcome = step(task, task.init_mask, action,
                       EnvConfig(degree=degree), 0)
        add, delete = action_effects(task, atoms)
        assert outcome.next_state == fact_mask((init - delete) | add)


# ---------------------------------------------------------------------------
# BFS oracle
# ---------------------------------------------------------------------------

def test_bfs_trivial_goal():
    task = multiblocks_task(blocks=1, arms=1, seed=0)
    plan = bfs_solve(task, 1, 5)
    assert plan is not None and plan.timesteps == 0


def test_bfs_two_block_stack(two_block_task):
    plan = bfs_solve(two_block_task, 1, 10)
    assert plan.timesteps == 2  # pick-up a; stack a b
    names = [two_block_task.operators[step[0]].name for step in plan.steps]
    assert names == ["(pick-up arm1 a)", "(stack arm1 a b)"]


def test_bfs_respects_depth_limit(two_block_task):
    assert bfs_solve(two_block_task, 1, 1) is None
    assert bfs_solve(two_block_task, 1, 2) is not None


def test_bfs_successor_cap_boundary(blocks3_task, monkeypatch):
    """The cap counts successors generated, every expansion's actions, up
    to the one that reaches the goal: a cap equal to that count returns
    the plan, and one less raises with exactly that count."""
    plan = bfs_solve(blocks3_task, 1, 20)
    generated = []

    def counting(*args):
        actions = applicable_actions(*args)
        generated.append(len(actions))
        return actions

    with monkeypatch.context() as patch:
        patch.setattr(evalkit, "applicable_actions", counting)
        assert bfs_solve(blocks3_task, 1, 20) == plan
    count = sum(generated)
    assert plan.timesteps > 2 and count > len(generated)
    monkeypatch.setattr(evalkit, "DEFAULT_BFS_SUCCESSOR_CAP", count)
    assert bfs_solve(blocks3_task, 1, 20) == plan
    monkeypatch.setattr(evalkit, "DEFAULT_BFS_SUCCESSOR_CAP", count - 1)
    with pytest.raises(CapacityError) as err:
        bfs_solve(blocks3_task, 1, 20)
    assert (err.value.count, err.value.cap) == (count, count - 1)


def test_bfs_successor_cap_stops_runaway_degree_two_search():
    """On p01 of the logistics test preset a degree-2 state has about 1,100
    actions, so depth 3 alone would generate about 100M successors; the
    default budget trips after 1M, within a few seconds (about 1 s on a
    2-core VM, where the visited-state cap it replaced took 17 s)."""
    domain, problem = generate_dataset(preset_spec("logistics", "test", 1),
                                       1)[0]
    task = ground_reachable(domain, problem)
    start = time.perf_counter()
    with pytest.raises(CapacityError) as err:
        bfs_solve(task, 2, 8)
    assert time.perf_counter() - start < 10
    assert err.value.count > err.value.cap == evalkit.DEFAULT_BFS_SUCCESSOR_CAP


def test_bfs_deterministic(blocks3_task):
    a = bfs_solve(blocks3_task, 1, 20)
    b = bfs_solve(blocks3_task, 1, 20)
    assert a.steps == b.steps


def test_bfs_optimal_against_exhaustive_enumeration(two_block_task):
    """Try every operator sequence up to length 3: none shorter than the
    BFS plan reaches the goal."""
    from itertools import product
    from tests.reference import apply, is_applicable
    task = two_block_task
    bfs_len = bfs_solve(task, 1, 10).timesteps
    shortest = None
    for length in range(0, 4):
        for seq in product(range(len(task.operators)), repeat=length):
            state = sets(task).init
            ok = True
            for op in seq:
                if not is_applicable(task, state, op):
                    ok = False
                    break
                state = apply(task, state, op)
            if ok and is_goal(task, state):
                shortest = length
                break
        if shortest is not None:
            break
    assert shortest == bfs_len == 2


def test_makespan_monotone_in_degree():
    tasks = [multiblocks_task(blocks=3, arms=2, seed=s) for s in range(4)]
    tasks += [logistics_task(seed=s) for s in range(2)]
    tasks += [depots_task(seed=s) for s in range(2)]
    for task in tasks:
        seq = bfs_solve(task, 1, 25)
        par = bfs_solve(task, 2, 25)
        assert seq is not None and par is not None
        assert par.timesteps <= seq.timesteps
        assert validate_plan(task, seq, 1).ok
        assert validate_plan(task, par, 2).ok


def test_parallel_strictly_shorter_on_two_towers(tower_task):
    seq = bfs_solve(tower_task, 1, 10)
    par = bfs_solve(tower_task, 2, 10)
    assert seq.timesteps == 4
    assert par.timesteps == 2
    assert parallelism_rate(par) == 1.0


# ---------------------------------------------------------------------------
# Policy execution
# ---------------------------------------------------------------------------

def test_run_policy_goal_at_init():
    task = multiblocks_task(blocks=1, arms=1, seed=0)
    params = init_params(FeatureConfig(degree=1))
    run = run_policy(params, task, "greedy", EnvConfig(degree=1))
    assert run.solved
    assert run.plan.timesteps == 0


DEAD_END_AT_INIT = ("""\
(define (domain stuck)
  (:requirements :strips)
  (:predicates (go) (win))
  (:action advance
    :parameters ()
    :precondition (and (go))
    :effect (and (win)))
)
""", "(define (problem p) (:domain stuck) (:init) (:goal (and (win))))")


def test_run_policy_rejects_features_of_another_degree(blocks3_task):
    fc = FeatureConfig(degree=1)
    with pytest.raises(ValueError, match="feature degree 1 differs from "
                                         "the environment's degree 2"):
        run_policy(init_params(fc), blocks3_task, "greedy",
                   EnvConfig(degree=2), fc)


def test_evaluate_policy_rejects_features_of_another_degree(blocks3_task):
    """Refused before any run, so also for an empty task list."""
    fc = FeatureConfig(degree=3)
    for tasks in ([blocks3_task], []):
        with pytest.raises(ValueError, match="feature degree 3 differs "
                                             "from the environment's "
                                             "degree 1"):
            evaluate_policy(init_params(fc), tasks, "greedy",
                            EnvConfig(degree=1), fc)


def test_run_policy_dead_end_init():
    task = build_task(*DEAD_END_AT_INIT)
    params = init_params(FeatureConfig(degree=1))
    run = run_policy(params, task, "greedy", EnvConfig(degree=1))
    assert not run.solved
    assert run.reason == "dead_end"
    assert run.plan is None


def test_run_policy_modes_and_seeding(blocks3_task):
    params = init_params(FeatureConfig(degree=1))
    cfg = EnvConfig(degree=1, max_steps=30)
    a = run_policy(params, blocks3_task, "sample", cfg, seed=3)
    b = run_policy(params, blocks3_task, "sample", cfg, seed=3)
    assert (a.solved, a.reason) == (b.solved, b.reason)
    if a.solved:
        assert a.plan.steps == b.plan.steps
    with pytest.raises(ValueError):
        run_policy(params, blocks3_task, "argmax", cfg)


def test_trained_policy_plan_validates(blocks3_task):
    env_cfg = EnvConfig(degree=1, max_steps=40)
    cfg = TrainConfig(iterations=40, episodes_per_iteration=16,
                      learning_rate=0.2, seed=0)
    result = train([blocks3_task], env_cfg, cfg)
    run = run_policy(result.params, blocks3_task, "greedy", env_cfg)
    assert run.solved
    assert validate_plan(blocks3_task, run.plan, 1).ok
    oracle = bfs_solve(blocks3_task, 1, 20)
    assert run.plan.timesteps >= oracle.timesteps


# ---------------------------------------------------------------------------
# run_policy against the episode loop it had before it ran on rollout
# ---------------------------------------------------------------------------

def reference_run_policy(params, task, mode, env_cfg, seed):
    """run_policy's former loop, kept as an independent reference."""
    fc = FeatureConfig(degree=env_cfg.degree)
    conflict_set = build_conflict_set(task)
    rng = np.random.default_rng(seed)
    state = sets(task).init
    chosen = []
    for _ in range(env_cfg.max_steps):
        if is_goal(task, state):
            return True, plan_from_actions(chosen), "goal"
        available = applicable_actions(task, state, env_cfg.degree,
                                       conflict_set)
        if not available:
            return False, None, "dead_end"
        dist = action_distribution(
            params, featurize_all(task, fact_mask(state), available, fc))
        idx = greedy_action(dist) if mode == "greedy" \
            else sample_action(list(accumulate(dist.tolist())), rng)
        action = available[idx]
        add, delete = action_effects(task, action.atoms)
        state = (state - delete) | add
        chosen.append(action)
    if is_goal(task, state):
        return True, plan_from_actions(chosen), "goal"
    return False, None, "step_limit"


def test_run_policy_scores_each_state_once_per_episode(monkeypatch):
    """Policies that cycle until the step cap: each episode scores its
    distinct decision states once, in first-visit order, the next episode
    scores them again, and the runs equal the reference loop's."""
    task = multiblocks_task(blocks=4, arms=2, seed=1)
    fc = FeatureConfig(degree=2)
    cfg = EnvConfig(degree=2, max_steps=40)
    scored, traces = [], []
    rollout = evalkit.rollout
    goal_columns = policy._ActionTable.goal_columns

    def spy_goal_columns(table, rows, state):
        scored.append(state)
        return goal_columns(table, rows, state)

    def capture(*args):
        trace = rollout(*args)
        traces.append(trace)
        return trace

    rng = np.random.default_rng(0)
    for mode, weights in (("greedy", np.zeros(fc.dim)),
                          ("sample", rng.normal(size=fc.dim))):
        params = PolicyParams(weights=weights)
        expect = reference_run_policy(params, task, mode, cfg, seed=5)
        scored.clear()
        traces.clear()
        with monkeypatch.context() as patch:
            patch.setattr(policy._ActionTable, "goal_columns",
                          spy_goal_columns)
            patch.setattr(evalkit, "rollout", capture)
            runs = [run_policy(params, task, mode, cfg, seed=5)
                    for _ in range(2)]
        for run in runs:
            assert (run.solved, run.plan, run.reason) == expect
        assert expect[2] == "step_limit"
        states = traces[0].masks[:-1]
        assert traces[1].masks == traces[0].masks
        distinct = list(dict.fromkeys(states))
        assert scored == distinct * 2
        assert len(states) > len(distinct)


DEAD_END_AFTER_ONE_STEP = ("""\
(define (domain once)
  (:requirements :strips)
  (:predicates (fresh) (used) (win))
  (:action burn
    :parameters ()
    :precondition (and (fresh))
    :effect (and (used) (not (fresh))))
)
""", "(define (problem p) (:domain once) (:init (fresh)) (:goal (and (win))))")


def test_run_policy_matches_reference_loop(two_block_task):
    tasks = [two_block_task,
             multiblocks_task(blocks=4, arms=2, seed=1),
             logistics_task(seed=2, cities=2, airplanes=1, trucks=2,
                            locations_per_city=2, packages=2),
             depots_task(seed=3, crates=2),
             build_task(*DEAD_END_AFTER_ONE_STEP),
             build_task(*DEAD_END_AT_INIT)]
    rng = np.random.default_rng(0)
    reasons = set()
    for task in tasks:
        for degree in (1, 2):
            fc = FeatureConfig(degree=degree)
            weights = [np.zeros(fc.dim), rng.normal(size=fc.dim)]
            for w in weights:
                params = PolicyParams(weights=w)
                for mode in ("greedy", "sample"):
                    for max_steps in (3, 15):
                        cfg = EnvConfig(degree=degree, max_steps=max_steps)
                        run = run_policy(params, task, mode, cfg, seed=5)
                        expect = reference_run_policy(params, task, mode,
                                                      cfg, seed=5)
                        assert (run.solved, run.plan, run.reason) == expect
                        reasons.add(run.reason)
    assert reasons == {"goal", "dead_end", "step_limit"}
