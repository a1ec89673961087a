"""Tasks that ground to an equal operator table share one compiled table.

A grounding hands every task of an equal fact and operator table the same
two tuples and the same compiled record: the conflict relation, and the
applicability table with its singles and degree-2 pair store. Sharing must
not show in any output, so each task that shares its table is compared with
an unshared copy of it, which compiles its own; and the record must go with
the last task that holds it.
"""

import gc
import json
import random
import weakref

import pytest

from metaplan import (Checkpoint, EnvConfig, FeatureConfig, TrainConfig,
                      applicable_actions, bfs_solve, custom_spec,
                      evaluate_policy, generate_dataset, ground_reachable,
                      save_checkpoint, train)
from metaplan.meta_ops import applicability_table, conflict_set_of
from tests.conftest import multiblocks_task, table_of, unshared
from tests.reference import reachability_prune, reference_ground

# Fixed shapes whose six-problem datasets ground to one or two tables.
SHAPES = {
    "multiblocks": {"blocks": 3, "arms": 2},
    "logistics": {"airplanes": 1, "cities": 2, "trucks": 1,
                  "locations_per_city": 2, "packages": 1},
    "depots": {"depots": 1, "distributors": 1, "trucks": 1, "pallets": 2,
               "hoists": 2, "crates": 2},
}


def walk(task, seed, steps=10):
    """The states of a seeded random walk at degree 1 from ``init``."""
    rng = random.Random(seed)
    state = task.init_mask
    states = [state]
    for _ in range(steps):
        actions = applicable_actions(task, state, 1, conflict_set_of(task))
        if not actions:
            break
        _, add_mask, delete_mask = rng.choice(actions)
        state = (state & ~delete_mask) | add_mask
        states.append(state)
    return states


def outputs(tasks, seed, out):
    """The train curve, the checkpoint file written under ``out`` and the
    greedy report JSON of a short training on ``tasks``."""
    env_cfg = EnvConfig(degree=2, max_steps=10, seed=seed)
    cfg = TrainConfig(iterations=3, episodes_per_iteration=4, seed=seed)
    fc = FeatureConfig(degree=2)
    result = train(tasks, env_cfg, cfg, fc)
    out.mkdir()
    path = out / "checkpoint.json"
    save_checkpoint(Checkpoint(result.params, fc, cfg.seed), str(path))
    report = evaluate_policy(result.params, tasks, "greedy", env_cfg, fc)
    return (result.curve, path.read_bytes(),
            json.dumps(report.to_json(), sort_keys=True))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("domain", sorted(SHAPES))
def test_shared_table_acts_as_an_unshared_copy(domain, seed, tmp_path):
    """Each task equals the task the plain reference grounder gives its
    problem, so a shared table is the task's own. Each task that shares its
    table enumerates the same actions, atoms and order, as an unshared copy
    at random-walk states for L = 1..3, and finds the same oracle plan;
    training and greedy evaluation on the shared tasks write the same
    curve, checkpoint and report as on the copies."""
    spec = custom_spec(domain, seed=seed, **SHAPES[domain])
    problems = generate_dataset(spec, 6)
    tasks = [ground_reachable(*pair) for pair in problems]
    for task, pair in zip(tasks, problems):
        assert task == reachability_prune(reference_ground(*pair))
    copies = [unshared(task) for task in tasks]
    shared = [(task, copy) for task, copy in zip(tasks, copies)
              if any(other is not task and other._compiled is task._compiled
                     for other in tasks)]
    assert shared
    for task, copy in zip(tasks, copies):
        assert table_of(copy) == table_of(task)
        assert copy.facts is not task.facts
        assert copy._compiled is not task._compiled

    solved = 0
    for i, (task, copy) in enumerate(shared):
        for state in walk(copy, seed * 100 + i):
            for degree in (1, 2, 3):
                assert applicable_actions(
                    task, state, degree, conflict_set_of(task)) == \
                    applicable_actions(copy, state, degree,
                                       conflict_set_of(copy))
        plan = bfs_solve(task, 2, 10)
        assert plan == bfs_solve(copy, 2, 10)
        solved += plan is not None
    assert solved

    on_copies = outputs(copies, seed, tmp_path / "copies")
    assert outputs(tasks, seed, tmp_path / "shared") == on_copies


def test_tasks_of_one_table_share_one_record_until_the_last_goes():
    """Two tasks of one table hold the same tuples and record, and so the
    same relation and applicability table; a task of another table holds
    another. Once every task of the table is dropped, after a training on
    them, its record is freed, so a long-running process or a reward sweep
    does not pile up tables."""
    first = multiblocks_task(blocks=2, arms=2, seed=1)
    second = multiblocks_task(blocks=2, arms=2, seed=2)
    other = multiblocks_task(blocks=2, arms=1, seed=1)
    assert first.init_mask != second.init_mask
    assert first._compiled is second._compiled
    assert first.facts is second.facts
    assert first.operators is second.operators
    assert other._compiled is not first._compiled
    assert conflict_set_of(first) is conflict_set_of(second)
    assert applicability_table(first) is applicability_table(second)
    assert conflict_set_of(other) is not conflict_set_of(first)

    train([first, second], EnvConfig(degree=2, max_steps=6),
          TrainConfig(iterations=2, episodes_per_iteration=2, seed=0))
    record = weakref.ref(first._compiled)
    del first
    gc.collect()
    assert record() is second._compiled
    del second
    gc.collect()
    assert record() is None
    again = multiblocks_task(blocks=2, arms=2, seed=1)
    assert "conflict_set" not in again._compiled
    assert other._compiled is not again._compiled
