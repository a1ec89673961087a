"""The workloads: inputs made from the seed, set-up, one timed round, checks.

Each workload drives the public API the way ``metaplan train``,
``metaplan eval`` and the README quickstart do. The timed calls go through
the module attributes (``cli.load_problem_dir``, ``evalkit.bfs_solve``, ...)
so that the tracer's wrappers see them. A round is a fixed list of
operations that gives the same results every time it runs; the checks at
the end compare the program's outputs with the reference checkers in
``checkers.py``, which never call ``metaplan.evalkit`` or
``metaplan.meta_ops``.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import checkers
from checkers import RefTask
from metaplan import (Checkpoint, EnvConfig, FeatureConfig, TrainConfig,
                      applicable_actions, build_conflict_set, cli,
                      custom_spec, domain_to_pddl, evalkit, generate, ground,
                      load_checkpoint, meta_ops, policy, problem_to_pddl,
                      run_policy, save_checkpoint, task_to_json,
                      write_dataset)

# States per run at which the enumeration is compared with brute force.
SAMPLED_STATES = 24
# A reference search larger than this is not "cheap" and is skipped.
CHEAP_SEARCH_STATES = 20_000


class _RefTasks:
    """RefTask and conflict set per task, built once for the checks."""

    def __init__(self) -> None:
        self._ref: dict[int, tuple] = {}

    def get(self, task) -> tuple[RefTask, object]:
        key = id(task)
        if key not in self._ref:
            self._ref[key] = (task, RefTask(task_to_json(task)),
                              build_conflict_set(task))
        return self._ref[key][1], self._ref[key][2]


def _check_enumeration(samples, degree: int, refs: _RefTasks,
                       failures: list[str]) -> None:
    for task, state in samples:
        ref, conflict_set = refs.get(task)
        got = [a.atoms for a in applicable_actions(task, state, degree,
                                                   conflict_set)]
        problem = checkers.compare_actions(
            got, checkers.enumerate_actions(ref, state, degree))
        if problem:
            failures.append(f"{task.problem_name}: enumeration: {problem}")


class TrainWorkload:
    """``load_problem_dir`` -> ``train`` -> checkpoint -> greedy evaluation.

    A round runs ``units`` independent pipelines, each on its own training
    set and training seed, and evaluates every checkpoint on one held-out
    set. Several short units average over learning trajectories, which
    differ from seed to seed far more than one long unit would.
    """

    def __init__(self, name: str, domain: str, shape: dict, units: int,
                 tasks_per_unit: int, held_out: int, env_cfg: EnvConfig,
                 train_cfg: TrainConfig, must_solve: bool):
        self.name = name
        self.domain = domain
        self.shape = shape
        self.units = units
        self.tasks_per_unit = tasks_per_unit
        self.held_out = held_out
        self.env_cfg = env_cfg
        self.train_cfg = train_cfg
        self.must_solve = must_solve

    def configure(self, seed: int, out: Path) -> None:
        self.seed = seed
        self.out = out
        self.env = EnvConfig(**{**self.env_cfg.to_json(), "seed": seed})
        self.train_cfgs = [
            TrainConfig(**{**self.train_cfg.to_json(),
                           "seed": seed * 100 + unit})
            for unit in range(self.units)]

    def operations_per_round(self) -> int:
        return self.units * (self.train_cfg.iterations + 1 + self.held_out)

    def marks_per_round(self) -> int:
        """Hook calls a round makes: one per episode, update and held-out
        evaluation."""
        per_unit = self.train_cfg.iterations * (
            self.train_cfg.episodes_per_iteration + 1) + self.held_out
        return self.units * per_unit

    def write_inputs(self) -> None:
        for unit in range(self.units):
            spec = custom_spec(self.domain, seed=self.seed * 100 + unit,
                               **self.shape)
            write_dataset(spec, self.tasks_per_unit, self.out / f"train{unit}")
        spec = custom_spec(self.domain, seed=self.seed * 100 + 99,
                           **self.shape)
        write_dataset(spec, self.held_out, self.out / "held-out")

    def reset(self) -> None:
        self.unit_tasks = self.held = None

    def setup(self) -> None:
        self.unit_tasks = [
            cli.load_problem_dir(str(self.out / f"train{unit}"))
            for unit in range(self.units)]
        self.held = cli.load_problem_dir(str(self.out / "held-out"))

    def run_round(self, clock) -> list:
        """The clock is marked by the hooks inside ``train`` and
        ``evaluate_policy``."""
        results = []
        for unit, tasks in enumerate(self.unit_tasks):
            cfg = self.train_cfgs[unit]
            fc = FeatureConfig(degree=self.env.degree)
            result = policy.train(tasks, self.env, cfg, fc)
            path = self.out / f"checkpoint{unit}.json"
            save_checkpoint(Checkpoint(result.params, fc, cfg.seed), str(path))
            ckpt = load_checkpoint(str(path))
            report = evalkit.evaluate_policy(ckpt.params, self.held, "greedy",
                                             self.env, ckpt.feature,
                                             seed=self.env.seed)
            results.append((result.curve, ckpt, report))
        return results

    @staticmethod
    def signature(results) -> str:
        return json.dumps([[curve, ckpt.to_json(), report.to_json()]
                           for curve, ckpt, report in results],
                          sort_keys=True)

    def check(self, results, captured) -> tuple[list[str], dict]:
        failures: list[str] = []
        refs = _RefTasks()
        degree = self.env.degree
        samples = [(task, state) for task, states in captured
                   for state in states]
        solved = skipped = 0
        for unit, (curve, ckpt, report) in enumerate(results):
            dim = FeatureConfig(degree=degree).dim
            weights = ckpt.params.weights
            if len(weights) != dim or ckpt.feature.dim != dim:
                failures.append(f"unit {unit}: {len(weights)} weights, "
                                f"expected {dim}")
            if not all(math.isfinite(w) for w in weights):
                failures.append(f"unit {unit}: non-finite weights")
            if [r["iteration"] for r in curve] != list(
                    range(self.train_cfg.iterations)):
                failures.append(f"unit {unit}: curve has {len(curve)} "
                                f"records for {self.train_cfg.iterations} "
                                "iterations")
            if not all(0.0 <= r["coverage"] <= 1.0 for r in curve):
                failures.append(f"unit {unit}: coverage outside [0, 1]")
            for task, outcome in zip(self.held, report.outcomes):
                if not outcome.solved:
                    continue
                solved += 1
                run = run_policy(ckpt.params, task, "greedy", self.env,
                                 ckpt.feature)
                ref, _ = refs.get(task)
                steps = run.plan.steps if run.solved else ()
                problem = checkers.simulate(ref, steps, degree)
                if problem is None and len(steps) != outcome.timesteps:
                    problem = (f"{len(steps)} steps, report says "
                               f"{outcome.timesteps}")
                if problem is None:
                    try:
                        optimum = checkers.bfs_makespan(
                            ref, degree, self.env.max_steps,
                            CHEAP_SEARCH_STATES)
                        problem = checkers.check_not_shorter(len(steps),
                                                             optimum)
                    except checkers.SearchTooLarge:
                        skipped += 1
                if problem:
                    failures.append(f"unit {unit} {task.problem_name}: "
                                    f"{problem}")
                samples += [(task, s) for s in checkers.plan_states(ref,
                                                                    steps)]
        if self.must_solve and solved == 0:
            failures.append("no held-out problem solved")
        rng = random.Random(self.seed)
        picked = rng.sample(samples, min(SAMPLED_STATES, len(samples)))
        _check_enumeration(picked, degree, refs, failures)
        return failures, {"held_out_solved": solved,
                          "held_out_runs": self.units * self.held_out,
                          "optimum_skipped": skipped,
                          "states_compared": len(picked)}


class BfsWorkload:
    """``bfs_solve`` at degree 1 and degree 3, conflict sets built once per
    task as the README quickstart does. No policy code runs.

    Search effort grows steeply with the optimal makespan, so a set of
    random instances of mixed depth gives a total that swings with the seed.
    Each instance set therefore keeps only instances whose sequential optimum
    (found by the reference search) is at least ``min_steps``.
    """

    name = "bfs-oracle"
    degrees = (1, 3)
    depth_limit = 30
    max_candidates = 20

    def __init__(self, sets: list[tuple[str, dict, int, int]]):
        self.sets = sets

    def configure(self, seed: int, out: Path) -> None:
        self.seed = seed
        self.out = out

    def operations_per_round(self) -> int:
        return len(self.degrees) * sum(count for _, _, count, _ in self.sets)

    def marks_per_round(self) -> int:
        return self.operations_per_round()

    def write_inputs(self) -> None:
        self.optimum: dict[str, int] = {}
        for i, (domain, shape, count, min_steps) in enumerate(self.sets):
            rng = random.Random(self.seed * 100 + i)
            out = self.out / f"{domain}{i}"
            out.mkdir(parents=True)
            written = 0
            for _ in range(self.max_candidates * count):
                if written == count:
                    break
                spec = custom_spec(domain, seed=rng.randrange(2 ** 31),
                                   **shape)
                dom, prob = generate(spec)
                optimum = checkers.bfs_makespan(
                    RefTask(task_to_json(ground(dom, prob))), 1,
                    self.depth_limit, 1_000_000)
                if optimum is None or optimum < min_steps:
                    continue
                written += 1
                (out / "domain.pddl").write_text(domain_to_pddl(dom))
                (out / f"p{written:03d}.pddl").write_text(
                    problem_to_pddl(prob))
                self.optimum[prob.name] = optimum
            if written < count:
                raise RuntimeError(f"only {written} of {count} {domain} "
                                   f"instances need {min_steps}+ steps")

    def reset(self) -> None:
        self.tasks = self.conflicts = None

    def setup(self) -> None:
        self.tasks = []
        for i, (domain, _, _, _) in enumerate(self.sets):
            self.tasks += cli.load_problem_dir(str(self.out / f"{domain}{i}"))
        self.conflicts = [meta_ops.build_conflict_set(t)
                          for t in self.tasks]

    def run_round(self, clock) -> list:
        plans = []
        for task, conflict_set in zip(self.tasks, self.conflicts):
            for degree in self.degrees:
                clock.mark()
                plans.append(evalkit.bfs_solve(task, degree,
                                               self.depth_limit, conflict_set))
        return plans

    @staticmethod
    def signature(plans) -> str:
        return json.dumps([p.steps if p else None for p in plans])

    def check(self, plans, captured) -> tuple[list[str], dict]:
        failures: list[str] = []
        refs = _RefTasks()
        samples = []
        for i, task in enumerate(self.tasks):
            ref, _ = refs.get(task)
            seq, par = plans[2 * i], plans[2 * i + 1]
            name = task.problem_name
            if seq is None or seq.timesteps != self.optimum[name]:
                failures.append(f"{name}: degree-1 makespan "
                                f"{seq.timesteps if seq else None}, "
                                f"reference {self.optimum[name]}")
            if seq is not None and (par is None
                                    or par.timesteps > seq.timesteps):
                failures.append(f"{name}: degree-3 plan longer than degree 1")
            for degree, plan in zip(self.degrees, (seq, par)):
                if plan is None:
                    continue
                problem = checkers.simulate(ref, plan.steps, degree)
                if problem:
                    failures.append(f"{name} degree {degree}: {problem}")
                samples += [(task, s) for s in checkers.plan_states(
                    ref, plan.steps)]
        rng = random.Random(self.seed)
        picked = rng.sample(samples, min(SAMPLED_STATES, len(samples)))
        _check_enumeration(picked, max(self.degrees), refs, failures)
        return failures, {"searches": len(plans),
                          "states_compared": len(picked)}


WORKLOADS = {
    "train-multiblocks": TrainWorkload(
        "train-multiblocks", "multiblocks", {"blocks": 4, "arms": 2},
        units=10, tasks_per_unit=4, held_out=16,
        env_cfg=EnvConfig(degree=2, meta_reward=0.01, max_steps=20),
        train_cfg=TrainConfig(iterations=8, episodes_per_iteration=6,
                              learning_rate=0.5),
        must_solve=True),
    "train-logistics": TrainWorkload(
        "train-logistics", "logistics",
        {"airplanes": 2, "cities": 3, "trucks": 3, "locations_per_city": 4,
         "packages": 2},
        units=2, tasks_per_unit=3, held_out=3,
        env_cfg=EnvConfig(degree=2, meta_reward=0.01, max_steps=12),
        train_cfg=TrainConfig(iterations=3, episodes_per_iteration=3,
                              learning_rate=0.3),
        must_solve=False),
    "bfs-oracle": BfsWorkload([
        ("multiblocks", {"blocks": 4, "arms": 3}, 100, 6),
        ("depots", {"depots": 1, "distributors": 1, "trucks": 1,
                    "pallets": 2, "hoists": 2, "crates": 3}, 75, 13),
    ]),
}
