"""The benchmark's hook points still exist and still see the calls.

``perfbench/tracing.py`` wraps public functions of the program from outside
by replacing module attributes; a name that disappears makes it raise
AttributeError, and a traced benchmark run then exits without a result.
These tests install its tracer and its untraced hooks (with a stub clock),
run a small training, evaluation and search through them, and undo them.
``perfbench/`` is only read.
"""

import importlib.util
from pathlib import Path

import pytest

from metaplan import (EnvConfig, FeatureConfig, TrainConfig, cli, env,
                      evalkit, grounding, meta_ops, pddl, policy)
from tests.conftest import multiblocks_task, table_of
from tests.test_meta_ops import pairwise_conflict_oracle

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = (pddl, grounding, meta_ops, env, policy, evalkit, cli)


class StubClock:
    """The host clock's interface to the hooks, counting unit marks."""

    def __init__(self) -> None:
        self.marks = 0

    def mark(self) -> None:
        self.marks += 1

    def maybe_mark(self) -> None:
        pass


@pytest.fixture()
def instrumented():
    """(tracer, hooks, clock), installed in the benchmark's order; the
    module attributes are checked to be restored afterwards."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = [dict(vars(m)) for m in MODULES]
    clock = StubClock()
    tracer, hooks = tracing.Tracer(), tracing.Hooks(clock)
    tracer.install()
    hooks.install()
    try:
        yield tracer, hooks, clock
    finally:
        hooks.undo()
        tracer.undo()
        for module, attrs in zip(MODULES, before):
            assert all(vars(module)[k] is v for k, v in attrs.items())


def test_traced_conflict_build_counts_pairs(instrumented):
    tracer, _, _ = instrumented
    task = multiblocks_task(blocks=4, arms=2, seed=3)
    meta_ops.build_conflict_set(task)
    _, counts = tracer.take()
    assert counts["meta_ops.conflict_build_calls"] == 1
    assert counts["meta_ops.conflict_pairs"] == len(
        pairwise_conflict_oracle(task, range(len(task.operators))))


def test_traced_pipeline_reaches_every_hook(instrumented):
    tracer, hooks, clock = instrumented
    train_tasks = [multiblocks_task(blocks=3, arms=2, seed=s) for s in (1, 2)]
    held = [multiblocks_task(blocks=3, arms=2, seed=3),
            multiblocks_task(blocks=3, arms=3, seed=4)]
    env_cfg = EnvConfig(degree=2, max_steps=8)
    cfg = TrainConfig(iterations=8, episodes_per_iteration=2, seed=0)
    fc = FeatureConfig(degree=2)
    tasks = train_tasks + held
    assert 1 < len({table_of(task) for task in tasks}) < len(tasks)
    # The tables whose relation no live task has built yet.
    unbuilt = {table_of(task) for task in tasks
               if "conflict_set" not in task._compiled}
    assert unbuilt
    hooks.captured = []
    result = policy.train(train_tasks, env_cfg, cfg, fc)
    # The evaluation episodes, seen through the traced name.
    evaluated = []
    traced_rollout = evalkit.rollout

    def capturing(*args):
        trace = traced_rollout(*args)
        evaluated.append(trace)
        return trace

    evalkit.rollout = capturing
    try:
        evalkit.evaluate_policy(result.params, held, "greedy", env_cfg, fc)
    finally:
        evalkit.rollout = traced_rollout
    evalkit.bfs_solve(held[0], 2, 4)
    _, counts = tracer.take()

    episodes = cfg.iterations * cfg.episodes_per_iteration
    assert len(hooks.captured) == episodes
    assert clock.marks == cfg.iterations * (cfg.episodes_per_iteration + 1) \
        + len(held)
    assert counts["env.episodes"] == episodes + len(held)
    assert counts["env.steps"] > 0
    assert counts["policy.surrogate_calls"] == \
        cfg.iterations * cfg.gradient_steps
    assert counts["evalkit.bfs_expanded"] > 0
    # Each distinct operator table's relation is built once, through the
    # traced name, and the tasks of an equal table share it.
    assert counts["meta_ops.conflict_build_calls"] == len(unbuilt)
    for a in tasks:
        for b in tasks:
            if table_of(a) == table_of(b):
                assert meta_ops.conflict_set_of(a) is \
                    meta_ops.conflict_set_of(b)
            else:
                assert meta_ops.conflict_set_of(a) is not \
                    meta_ops.conflict_set_of(b)
    # Every decision and expansion enumerates once, and only there.
    assert hooks.states == counts["meta_ops.enumerate_calls"] > 0

    # Each distinct decision state of a training batch, and of an
    # evaluation episode, is featurized once, through the traced name.
    # Decisions are made at every state of a trace but the last.
    each = cfg.episodes_per_iteration
    scored = [(hooks.captured[i][0],
               {meta_ops.fact_mask(state)
                for _, states in hooks.captured[i:i + each]
                for state in states[:-1]})
              for i in range(0, episodes, each)]
    scored += [(trace.task, set(trace.masks[:-1])) for trace in evaluated]
    assert len(evaluated) == len(held)
    rollout_enumerations = counts["meta_ops.enumerate_calls"] \
        - counts["evalkit.bfs_expanded"]
    assert 0 < counts["policy.featurize_calls"] == \
        sum(len(states) for _, states in scored) < rollout_enumerations
    assert counts["policy.featurize_rows"] == sum(
        len(meta_ops.applicable_actions(task, state, env_cfg.degree,
                                        meta_ops.conflict_set_of(task)))
        for task, states in scored for state in states)


def test_captured_trace_states_are_frozensets(instrumented):
    """The benchmark's reference checks read the states its hook captures
    from ``policy.rollout`` as fact sets (``pre <= state``) and pass them to
    ``applicable_actions``: each is a frozenset, and the enumeration at it
    equals the enumeration at its mask."""
    _, hooks, _ = instrumented
    tasks = [multiblocks_task(blocks=3, arms=2, seed=s) for s in (1, 2)]
    env_cfg = EnvConfig(degree=2, max_steps=8)
    cfg = TrainConfig(iterations=4, episodes_per_iteration=2, seed=0)
    hooks.captured = []
    policy.train(tasks, env_cfg, cfg, FeatureConfig(degree=2))
    captured = [(task, state) for task, states in hooks.captured
                for state in states]
    assert len(hooks.captured) == cfg.iterations * cfg.episodes_per_iteration
    assert captured
    for task, state in captured:
        assert type(state) is frozenset
        conflict_set = meta_ops.conflict_set_of(task)
        as_set = meta_ops.applicable_actions(task, state, env_cfg.degree,
                                             conflict_set)
        as_mask = meta_ops.applicable_actions(
            task, meta_ops.fact_mask(state), env_cfg.degree, conflict_set)
        assert [a.atoms for a in as_set] == [a.atoms for a in as_mask]
        assert as_set
