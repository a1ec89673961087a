"""Grounding tests against brute-force binding-enumeration oracles."""

from itertools import product

import pytest

from metaplan import (CapacityError, GroundingError, custom_spec,
                      gen_logistics, gen_multiblocks, ground, parse_domain,
                      parse_problem, reachability_prune, task_to_json)
from tests.conftest import logistics_task, multiblocks_task

TRANSPORT_DOMAIN = """\
(define (domain transport)
  (:requirements :strips :typing)
  (:types truck city - object)
  (:predicates (at ?t - truck ?c - city))
  (:action move
    :parameters (?t - truck ?c1 - city ?c2 - city)
    :precondition (and (at ?t ?c1))
    :effect (and (at ?t ?c2) (not (at ?t ?c1))))
)
"""

TRANSPORT_PROBLEM = """\
(define (problem haul)
  (:domain transport)
  (:objects t1 t2 - truck c1 c2 c3 - city)
  (:init (at t1 c1) (at t2 c2))
  (:goal (and (at t1 c3)))
)
"""


def brute_force_operator_count(domain, problem) -> int:
    """Enumerate type-consistent total bindings directly from the ASTs."""
    compatible = {}
    for obj, tname in problem.objects:
        for anc in domain.ancestors(tname):
            compatible.setdefault(anc, []).append(obj)
    count = 0
    for schema in domain.schemas:
        pools = [compatible.get(t, []) for _, t in schema.params]
        count += sum(1 for _ in product(*pools))
    return count


def test_transport_18_operators():
    domain = parse_domain(TRANSPORT_DOMAIN)
    problem = parse_problem(TRANSPORT_PROBLEM)
    task = ground(domain, problem)
    assert len(task.operators) == 18  # 2 trucks * 3 * 3 cities
    assert len(task.operators) == brute_force_operator_count(domain, problem)


def test_empty_type_product():
    domain = parse_domain(TRANSPORT_DOMAIN)
    problem = parse_problem("""\
(define (problem haul)
  (:domain transport)
  (:objects c1 c2 c3 - city)
  (:init)
  (:goal (and))
)
""")
    assert len(ground(domain, problem).operators) == 0


def test_multiblocks_count_matches_binding_oracle():
    domain, problem = gen_multiblocks(
        custom_spec("multiblocks", seed=9, blocks=3, arms=1))
    task = ground(domain, problem)
    assert len(task.operators) == brute_force_operator_count(domain, problem)
    # pick-up/put-down: arms*blocks, stack/unstack: arms*blocks^2
    assert len(task.operators) == 2 * (1 * 3) + 2 * (1 * 3 * 3)


def test_binding_reproduces_lifted_literals():
    domain, problem = gen_logistics(custom_spec(
        "logistics", seed=2, cities=2, airplanes=1, trucks=1,
        locations_per_city=1, packages=1))
    task = ground(domain, problem)
    schemas = {s.name: s for s in domain.schemas}
    for op in task.operators:
        schema = schemas[op.schema]
        binding = {v: obj for (v, _), obj in zip(schema.params, op.args)}
        expect = {
            "pre": {(l.predicate, tuple(binding[a] for a in l.args))
                    for l in schema.pre},
            "add": {(l.predicate, tuple(binding[a] for a in l.args))
                    for l in schema.add},
        }
        got_pre = {task.facts[i].key for i in op.pre}
        got_add = {task.facts[i].key for i in op.add}
        got_del = {task.facts[i].key for i in op.delete}
        assert got_pre == expect["pre"]
        assert got_add == expect["add"]
        # delete may have lost literals that collided with add
        raw_del = {(l.predicate, tuple(binding[a] for a in l.args))
                   for l in schema.delete}
        assert got_del == raw_del - expect["add"]


def test_self_move_is_noop():
    task = ground(parse_domain(TRANSPORT_DOMAIN),
                  parse_problem(TRANSPORT_PROBLEM))
    self_moves = [op for op in task.operators if op.args[1] == op.args[2]]
    assert len(self_moves) == 6
    for op in self_moves:
        assert not (op.add & op.delete)
        assert op.delete == frozenset()  # delete lost to the colliding add


def test_ground_is_deterministic():
    domain, problem = gen_multiblocks(
        custom_spec("multiblocks", seed=4, blocks=4, arms=2))
    a = task_to_json(ground(domain, problem))
    b = task_to_json(ground(domain, problem))
    assert a == b


def test_fact_table_structure():
    task = multiblocks_task(blocks=3, arms=1, seed=7)
    assert [f.index for f in task.facts] == list(range(len(task.facts)))
    keys = [f.key for f in task.facts]
    assert keys == sorted(keys)
    assert task.init <= set(range(len(task.facts)))
    assert task.goal <= set(range(len(task.facts)))


def test_incompatible_pair_raises():
    domain = parse_domain(TRANSPORT_DOMAIN)
    problem = parse_problem(TRANSPORT_PROBLEM.replace("transport", "other"))
    with pytest.raises(GroundingError):
        ground(domain, problem)


def test_operator_cap():
    domain = parse_domain(TRANSPORT_DOMAIN)
    problem = parse_problem(TRANSPORT_PROBLEM)
    with pytest.raises(CapacityError):
        ground(domain, problem, max_operators=10)


# ---------------------------------------------------------------------------
# Delete-relaxation pruning
# ---------------------------------------------------------------------------

def relaxed_reachability_oracle(data: dict) -> list[int]:
    """Queue-based fixpoint over the JSON dump, independent of the library."""
    reached = set(data["init"])
    ops = data["operators"]
    pending = list(range(len(ops)))
    kept: set[int] = set()
    progress = True
    while progress:
        progress = False
        for i in list(pending):
            if set(ops[i]["pre"]) <= reached:
                kept.add(i)
                pending.remove(i)
                reached |= set(ops[i]["add"])
                progress = True
    return sorted(kept)


def test_prune_identity_when_all_reachable():
    task = multiblocks_task(blocks=3, arms=1, seed=7)
    pruned = reachability_prune(task)
    assert len(pruned.operators) == len(task.operators)
    assert task_to_json(pruned) == task_to_json(task)


def test_prune_drops_unreachable_operator():
    domain = parse_domain("""\
(define (domain gated)
  (:requirements :strips)
  (:predicates (key) (door-open) (inside))
  (:action enter
    :parameters ()
    :precondition (and (door-open))
    :effect (and (inside)))
  (:action unlock
    :parameters ()
    :precondition (and (key))
    :effect (and (door-open)))
)
""")
    problem = parse_problem("""\
(define (problem locked-out)
  (:domain gated)
  (:init)
  (:goal (and (inside)))
)
""")
    task = ground(domain, problem)
    pruned = reachability_prune(task)
    assert len(task.operators) == 2
    assert len(pruned.operators) == 0
    assert pruned.goal  # goal facts survive re-densification


def test_prune_matches_fixpoint_oracle():
    task = logistics_task(seed=3, cities=2, airplanes=1, trucks=1,
                          locations_per_city=2, packages=2)
    data = task_to_json(task)
    kept_oracle = relaxed_reachability_oracle(data)
    pruned = reachability_prune(task)
    kept_names = [task.operators[i].name for i in kept_oracle]
    assert [op.name for op in pruned.operators] == kept_names


def test_prune_preserves_solvability():
    from metaplan import bfs_solve
    task = logistics_task(seed=8)
    pruned = reachability_prune(task)
    before = bfs_solve(task, 1, 15)
    after = bfs_solve(pruned, 1, 15)
    assert (before is None) == (after is None)
    if before is not None:
        assert before.timesteps == after.timesteps
