"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavier criteria
(desk-scale training, the reward comparison, the 300-instance generator
sweep) take a few minutes combined.
"""

import json
import random
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from metaplan import (EnvConfig, Plan, TrainConfig, applicable_actions,
                      bfs_solve, build_conflict_set,
                      conservative_meta_reward, custom_spec,
                      discounted_return, evaluate_policy, generate,
                      ground, preset_spec, rollout, run_policy,
                      shaped_reward_audit, task_to_json, train, validate_plan)
from metaplan.cli import main as cli_main
from metaplan.env import EpisodeTrace
from metaplan.evalkit import (CAUSE_CONFLICT, CAUSE_DEGREE, CAUSE_GOAL,
                              CAUSE_INAPPLICABLE)
from metaplan.policy import surrogate_objective
from tests.conftest import (build_task, depots_task, logistics_task,
                            multiblocks_task, SWITCH_DOMAIN, SWITCH_PROBLEM,
                            TWO_TOWER_PROBLEM)
from metaplan.generators import MULTIBLOCKS_DOMAIN
from tests.reference import (DecisionStep, applicable_ops, apply, conflicts,
                             decision_batch, is_applicable, sets)
from tests.test_meta_ops import two_order_check
from tests.test_transition import random_states


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def train_size_tasks():
    return [
        ground(*generate(preset_spec("multiblocks", "train", seed=41))),
        ground(*generate(preset_spec("logistics", "train", seed=42))),
        ground(*generate(preset_spec("depots", "train", seed=43))),
    ]


def test_criterion_1_conflict_order_independence_oracle():
    with criterion("1 conflict/order-independence oracle"):
        start = time.perf_counter()
        rng = random.Random(99)
        checked = 0
        for task in train_size_tasks():
            for state in random_states(task, 25, seed=7):
                ops = applicable_ops(task, state)
                if len(ops) < 2:
                    continue
                pairs = list(combinations(ops, 2))
                rng.shuffle(pairs)
                for a, b in pairs[:20]:
                    both_ok, same, union = two_order_check(task, state, a, b)
                    if not conflicts(task, a, b):
                        assert both_ok and same
                        mid = apply(task, state, a)
                        assert apply(task, mid, b) == union
                    if not both_ok or not same:
                        assert conflicts(task, a, b)
                    checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 1000, f"only {checked} pairs checked"
        assert elapsed < 60.0, f"oracle took {elapsed:.1f}s"


def test_criterion_2_action_space_exactness():
    with criterion("2 action-space exactness"):
        tasks = [multiblocks_task(blocks=4, arms=2, seed=1),
                 logistics_task(seed=2, cities=2, airplanes=1, trucks=2,
                                locations_per_city=2, packages=2),
                 depots_task(seed=3, crates=2)]
        for task in tasks:
            n = build_conflict_set(task)
            states = random_states(task, 20, seed=5)
            assert len(states) >= 20
            for state in states:
                ops = applicable_ops(task, state)
                expect = {(i,) for i in ops}
                expect |= {p for p in combinations(ops, 2)
                           if not conflicts(task, *p)}
                got = [a.atoms for a in applicable_actions(task, state, 2, n)]
                assert len(got) == len(set(got))
                assert set(got) == expect
                # degree-1 slice is exactly the applicable operator set
                ones = [a.atoms for a in applicable_actions(task, state, 1, n)]
                assert ones == [(i,) for i in ops]
                if all(not conflicts(task, a, b)
                       for a, b in combinations(ops, 2)):
                    k = len(ops)
                    assert len(got) == k + k * (k - 1) // 2
        # closed-form count on a task of k=4 pairwise independent operators
        switch = build_task(SWITCH_DOMAIN, SWITCH_PROBLEM)
        n = build_conflict_set(switch)
        assert len(applicable_actions(switch, switch.init_mask, 2, n)) == 10


def test_criterion_3_transition_semantics():
    with criterion("3 transition semantics"):
        task = multiblocks_task(blocks=5, arms=2, seed=9)
        dump = json.loads(json.dumps(task_to_json(task)))  # via serialized form
        ops = dump["operators"]
        rng = random.Random(17)
        applied = 0
        for state in random_states(task, 400, seed=21):
            candidates = [i for i in range(len(ops))
                          if set(ops[i]["pre"]) <= state]
            rng.shuffle(candidates)
            for op_id in candidates[:8]:
                expected = sorted((set(state) - set(ops[op_id]["del"]))
                                  | set(ops[op_id]["add"]))
                got = apply(task, state, op_id)
                assert sorted(got) == expected
                touched = (set(ops[op_id]["add"]) | set(ops[op_id]["del"]))
                assert {f for f in state if f not in touched} <= got
                assert {f for f in got if f not in touched} <= state
                applied += 1
            if applied >= 1000:
                break
        assert applied >= 1000, f"only {applied} applies"


def test_criterion_4_discounted_return():
    with criterion("4 discounted return"):
        assert discounted_return([0.0, 0.0, 1.0], 0.99) == 0.9801
        for c, gamma, horizon in [(1.0, 0.99, 100), (0.25, 0.9, 50),
                                  (2.0, 0.5, 20), (0.01, 0.999, 200)]:
            closed = c * (1 - gamma ** horizon) / (1 - gamma)
            got = discounted_return([c] * horizon, gamma)
            assert abs(got - closed) <= 1e-12


def test_criterion_5_reward_accounting():
    with criterion("5 reward accounting"):
        assert conservative_meta_reward(EnvConfig()) == 0.01
        task = build_task(MULTIBLOCKS_DOMAIN, TWO_TOWER_PROBLEM)
        r = 0.01
        cfg = EnvConfig(degree=2, meta_reward=r, max_steps=30)
        rng = random.Random(3)
        allowed = {0.0, r, 1.0, 1.0 + r}
        meta_action = None
        for _ in range(30):
            trace = rollout(task, cfg,
                            lambda s, acts: rng.randrange(len(acts)))
            assert all(rw in allowed for rw in trace.rewards)
            for a in trace.actions:
                if a.degree >= 2:
                    meta_action = a
        assert meta_action is not None
        # masking flag: 101 parallel steps at r=0.01 exceed the goal reward
        def synthetic(steps):
            return EpisodeTrace(masks=[task.init_mask] * (steps + 1),
                                actions=[meta_action] * steps,
                                rewards=[r] * steps,
                                reason="step_limit", task=task)
        assert shaped_reward_audit(synthetic(101), cfg).masking
        assert not shaped_reward_audit(synthetic(11), cfg).masking
        audit = shaped_reward_audit(synthetic(11), cfg)
        assert audit.meta_total == pytest.approx(0.11, abs=1e-12)


def test_criterion_6_gradient_correctness():
    with criterion("6 gradient correctness"):
        for trial in range(10):
            rng = np.random.default_rng(1000 + trial)
            dim = 10
            steps = []
            for _ in range(8):
                k = int(rng.integers(2, 6))
                feats = rng.normal(size=(k, dim))
                logits = feats @ (rng.normal(size=dim) * 0.3)
                logp = logits - logits.max()
                logp = logp - np.log(np.exp(logp).sum())
                taken = int(rng.integers(k))
                steps.append(DecisionStep(
                    feats=feats, taken=taken, old_logp=float(logp[taken]),
                    advantage=float(rng.normal())))
            batch = decision_batch(steps, dim)
            w = rng.normal(size=dim) * 0.5
            _, grad = surrogate_objective(w, batch, 0.2, 0.01)
            h = 1e-6
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                hi, _ = surrogate_objective(w + e, batch, 0.2, 0.01)
                lo, _ = surrogate_objective(w - e, batch, 0.2, 0.01)
                fd = (hi - lo) / (2 * h)
                denom = max(abs(fd), abs(grad[i]), 1e-8)
                assert abs(grad[i] - fd) / denom < 1e-5


def test_criterion_7_desk_scale_convergence():
    with criterion("7 desk-scale convergence"):
        start = time.perf_counter()
        task = multiblocks_task(blocks=3, arms=1, seed=5)
        env_cfg = EnvConfig(degree=1)
        cfg = TrainConfig(iterations=200, episodes_per_iteration=32, seed=0)
        result = train([task], env_cfg, cfg)
        elapsed = time.perf_counter() - start
        coverages = [rec["coverage"] for rec in result.curve]
        assert any(c == 1.0 for c in coverages), \
            f"max coverage {max(coverages):.2f}"
        assert elapsed < 300.0, f"training took {elapsed:.0f}s"
        greedy = run_policy(result.params, task, "greedy", env_cfg)
        assert greedy.solved
        assert validate_plan(task, greedy.plan, 1).ok
        for seed in range(10):
            sampled = run_policy(result.params, task, "sample", env_cfg,
                                 seed=seed)
            if sampled.solved:
                assert validate_plan(task, sampled.plan, 1).ok


def test_criterion_8_directional_parallelism_effect():
    with criterion("8 directional parallelism effect"):
        train_tasks = [multiblocks_task(blocks=4, arms=2, seed=s)
                       for s in (11, 12, 13)]
        eval_tasks = [multiblocks_task(blocks=4, arms=2, seed=s)
                      for s in range(21, 29)]

        def median_rate(meta_reward):
            rates = []
            for seed in (1, 2, 3):
                cfg = EnvConfig(degree=2, meta_reward=meta_reward,
                                max_steps=40)
                tc = TrainConfig(iterations=80, episodes_per_iteration=16,
                                 seed=seed)
                result = train(train_tasks, cfg, tc)
                report = evaluate_policy(result.params, eval_tasks, "greedy",
                                         cfg)
                assert report.solved > 0
                rates.append(report.mean_parallelism)
            return float(np.median(rates))

        rate_zero = median_rate(0.0)
        rate_shaped = median_rate(0.01)
        print(f"  [median parallelism rate: r=0.0 -> {rate_zero:.3f}, "
              f"r=0.01 -> {rate_shaped:.3f}]")
        assert rate_shaped >= rate_zero
        assert rate_shaped > 0.0


def test_criterion_9_makespan_monotonicity():
    with criterion("9 makespan monotonicity"):
        tasks = [multiblocks_task(blocks=3, arms=2, seed=s) for s in range(20)]
        tasks += [logistics_task(seed=s) for s in range(15)]
        tasks += [depots_task(seed=s) for s in range(15)]
        tasks.append(build_task(MULTIBLOCKS_DOMAIN, TWO_TOWER_PROBLEM))
        assert len(tasks) >= 50
        strict_improvement = 0
        for task in tasks:
            seq = bfs_solve(task, 1, 25)
            par = bfs_solve(task, 2, 25)
            assert seq is not None, f"{task.problem_name} unsolved at L=1"
            assert par is not None, f"{task.problem_name} unsolved at L=2"
            assert par.timesteps <= seq.timesteps
            if par.timesteps < seq.timesteps:
                strict_improvement += 1
        assert strict_improvement >= 1


def test_criterion_10_validator_mutation_suite():
    with criterion("10 validator mutation suite"):
        plans = []
        seed = 0
        while len(plans) < 20 and seed < 200:
            task = multiblocks_task(blocks=random.Random(seed).choice((3, 4)),
                                    arms=1, seed=seed)
            plan = bfs_solve(task, 1, 25)
            seed += 1
            if plan is None or plan.timesteps < 2:
                continue
            plans.append((task, plan))
        assert len(plans) == 20

        for task, plan in plans:
            assert validate_plan(task, plan, 2).ok

            # swap the first two steps: with one arm the second step needs
            # the held block, so the swapped first step is inapplicable
            swapped = list(plan.steps)
            swapped[0], swapped[1] = swapped[1], swapped[0]
            assert not is_applicable(task, sets(task).init, swapped[0][0])
            result = validate_plan(task, Plan(tuple(swapped)), 2)
            assert (not result.ok and result.step == 0
                    and result.cause == CAUSE_INAPPLICABLE)

            # drop the final step: BFS plans are minimal, so the goal is open
            result = validate_plan(task, Plan(plan.steps[:-1]), 2)
            assert not result.ok and result.cause == CAUSE_GOAL

            # inject a conflicting pair applicable somewhere along the plan
            injected = None
            state = sets(task).init
            for t, step in enumerate(plan.steps):
                ops = applicable_ops(task, state)
                pair = next((p for p in combinations(ops, 2)
                             if conflicts(task, *p)), None)
                if pair is not None:
                    mutated = list(plan.steps)
                    mutated[t] = tuple(sorted(pair))
                    injected = (t, Plan(tuple(mutated)))
                    break
                state = apply(task, state, step[0])
            assert injected is not None
            t, mutated_plan = injected
            result = validate_plan(task, mutated_plan, 2)
            assert (not result.ok and result.step == t
                    and result.cause == CAUSE_CONFLICT)

            # degree above the configured bound is rejected first
            widened = list(plan.steps)
            widened[0] = tuple(sorted({plan.steps[0][0],
                                       (plan.steps[0][0] + 1)
                                       % len(task.operators)}))
            result = validate_plan(task, Plan(tuple(widened)), 1)
            assert not result.ok and result.cause == CAUSE_DEGREE


def test_criterion_11_determinism(tmp_path):
    with criterion("11 gen/train/eval determinism"):
        outputs = []
        for run in ("r1", "r2"):
            base = tmp_path / run
            problems = base / "problems"
            assert cli_main(["gen", "--domain", "multiblocks",
                             "--preset", "custom", "--range", "blocks=3:3",
                             "--range", "arms=1:1", "--count", "3",
                             "--seed", "21", "--out", str(problems)]) == 0
            model = base / "model"
            assert cli_main(["train", "--problems", str(problems),
                             "--out", str(model), "--iterations", "5",
                             "--episodes", "8", "--degree", "1",
                             "--max-steps", "25", "--seed", "13"]) == 0
            report = base / "report.json"
            assert cli_main(["eval", "--checkpoint",
                             str(model / "checkpoint.json"),
                             "--problems", str(problems), "--degree", "1",
                             "--report", str(report), "--seed", "13"]) == 0
            files = {}
            for path in sorted(base.rglob("*")):
                if path.is_file():
                    files[str(path.relative_to(base))] = path.read_bytes()
            outputs.append(files)
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs"


def test_criterion_12_generator_solvability():
    with criterion("12 generator solvability"):
        for seed in range(100):
            task = ground(*generate(custom_spec(
                "multiblocks", seed=seed, blocks=(3, 4), arms=2)))
            assert bfs_solve(task, 1, 20) is not None, f"multiblocks {seed}"
        for seed in range(100):
            task = ground(*generate(custom_spec(
                "logistics", seed=seed, cities=(1, 2), airplanes=1,
                trucks=(1, 2), locations_per_city=(1, 2), packages=1)))
            assert bfs_solve(task, 1, 15) is not None, f"logistics {seed}"
        for seed in range(100):
            task = ground(*generate(custom_spec(
                "depots", seed=seed, depots=1, distributors=1, trucks=1,
                pallets=2, hoists=2, crates=1)))
            assert bfs_solve(task, 1, 15) is not None, f"depots {seed}"
