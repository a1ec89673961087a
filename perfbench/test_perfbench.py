"""Tests of the reference checkers, each of which accepts good input and
rejects a corrupted one, and of the benchmark's metric list. Run with
``python3 -m pytest perfbench``."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checkers  # noqa: E402
import run  # noqa: E402
from checkers import RefTask  # noqa: E402
from metaplan import (applicable_actions, bfs_solve,  # noqa: E402
                      build_conflict_set, custom_spec, gen_depots,
                      gen_multiblocks, ground, task_to_json)

# Facts: 0 (off s1), 1 (on s1), 2 (off s2), 3 (on s2), 4 (done).
# "break" deletes the precondition of "flip-on s2", so the two conflict.
TOY = {
    "operators": [
        {"pre": [0], "add": [1], "del": [0]},  # 0: flip-on s1
        {"pre": [2], "add": [3], "del": [2]},  # 1: flip-on s2
        {"pre": [2], "add": [], "del": [2]},   # 2: break s2
        {"pre": [1], "add": [4], "del": []},   # 3: finish
    ],
    "init": [0, 2],
    "goal": [1, 3, 4],
}
TOY_PLAN = [(0, 1), (3,)]


@pytest.fixture
def toy():
    return RefTask(TOY)


def test_simulator_accepts_a_valid_plan(toy):
    assert checkers.simulate(toy, TOY_PLAN, 2) is None
    assert checkers.simulate(toy, [(0,), (1,), (3,)], 1) is None


def test_simulator_rejects_a_mutated_step(toy):
    assert "not applicable" in checkers.simulate(toy, [(0, 1), (2,)], 2)
    assert "goal" in checkers.simulate(toy, [(0, 2), (3,)], 2)


def test_simulator_rejects_a_conflicting_pair(toy):
    assert "conflict" in checkers.simulate(toy, [(1, 2), (0,), (3,)], 2)


def test_simulator_rejects_degree_and_truncation(toy):
    assert "degree" in checkers.simulate(toy, TOY_PLAN, 1)
    assert "goal" in checkers.simulate(toy, TOY_PLAN[:1], 2)


def test_enumerator_lists_conflict_free_sets_in_order(toy):
    assert checkers.enumerate_actions(toy, toy.init, 2) == [
        (0,), (0, 1), (0, 2), (1,), (2,)]


def test_compare_actions_rejects_missing_extra_and_reordered(toy):
    want = checkers.enumerate_actions(toy, toy.init, 2)
    assert checkers.compare_actions(want, want) is None
    assert checkers.compare_actions(want[:-1], want) is not None
    assert checkers.compare_actions(want + [(1, 2)], want) is not None
    assert checkers.compare_actions([want[1], want[0]] + want[2:],
                                    want) is not None


def test_bfs_finds_the_optimum_and_flags_a_shorter_plan(toy):
    assert checkers.bfs_makespan(toy, 1, 10, 1000) == 3
    assert checkers.bfs_makespan(toy, 2, 10, 1000) == 2
    assert checkers.bfs_makespan(toy, 2, 1, 1000) is None
    assert checkers.check_not_shorter(2, 2) is None
    assert checkers.check_not_shorter(1, 2) is not None
    with pytest.raises(checkers.SearchTooLarge):
        checkers.bfs_makespan(toy, 1, 10, 1)


def _generated_tasks():
    return [ground(*gen_multiblocks(custom_spec("multiblocks", seed=s,
                                                blocks=3, arms=2)))
            for s in (1, 2)] + [
        ground(*gen_depots(custom_spec(
            "depots", seed=3, depots=1, distributors=1, trucks=1, pallets=2,
            hoists=2, crates=2)))]


def test_checkers_agree_with_the_program_on_generated_tasks():
    for task in _generated_tasks():
        ref = RefTask(json.loads(json.dumps(task_to_json(task))))
        conflict_set = build_conflict_set(task)
        for degree in (1, 3):
            plan = bfs_solve(task, degree, 30, conflict_set)
            assert checkers.simulate(ref, plan.steps, degree) is None
            assert checkers.bfs_makespan(ref, degree, 30,
                                         100_000) == plan.timesteps
            for state in checkers.plan_states(ref, plan.steps):
                got = [a.atoms for a in applicable_actions(
                    task, state, degree, conflict_set)]
                want = checkers.enumerate_actions(ref, state, degree)
                assert checkers.compare_actions(got, want) is None


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = {name: unit for name, (_, unit) in run.PER_LAYER.items()}
    reported.update(run.DERIVED)
    assert per_layer == reported
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "work_s", "states_per_s", "peak_rss_mb"}
