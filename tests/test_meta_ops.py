"""Conflict analysis and meta-action enumeration against brute-force oracles."""

import gc
import pickle
import random
import sys
from collections import deque
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplan import (CapacityError, EnvConfig, TrainConfig,
                      action_space_stats, applicable_actions, bfs_solve,
                      build_conflict_set, custom_spec, evaluate_policy,
                      generate, ground, run_policy, train)
from metaplan import meta_ops
from metaplan.meta_ops import (ConflictSet, MetaAction, applicability_table,
                               fact_mask, mask_facts)
from tests.conftest import (SWITCH_DOMAIN, SWITCH_PROBLEM, build_task,
                            depots_task, logistics_task, multiblocks_task)
from tests.reference import (action_effects, apply, conflicts, is_applicable,
                             make_meta_action)
from tests.test_policy import SHAPES
from tests.test_transition import random_states


def pairwise_conflict_oracle(task, ops):
    """O(n^2) double loop straight off the two paper conditions."""
    pairs = set()
    for a in ops:
        for b in ops:
            if a >= b:
                continue
            oa, ob = task.operators[a], task.operators[b]
            interference = (oa.pre & ob.delete) or (ob.pre & oa.delete)
            inconsistent = (oa.add & ob.delete) or (ob.add & oa.delete)
            if interference or inconsistent:
                pairs.add((a, b))
    return pairs


def two_order_check(task, state, a, b):
    """Execute both orders; returns (both_ok, same_successor, union_result)."""
    union = (state - (task.operators[a].delete | task.operators[b].delete)) \
        | task.operators[a].add | task.operators[b].add
    results = []
    for first, second in ((a, b), (b, a)):
        mid = apply(task, state, first)
        if not is_applicable(task, mid, second):
            return False, False, union
        results.append(apply(task, mid, second))
    return True, results[0] == results[1], union


@pytest.fixture(scope="module")
def arm_task():
    return multiblocks_task(blocks=3, arms=2, seed=1)


def test_same_arm_pickups_interfere(arm_task):
    task = arm_task
    a = task.operator_index["(pick-up arm1 b1)"]
    b = task.operator_index["(pick-up arm1 b2)"]
    assert conflicts(task, a, b)


def test_distinct_arm_pickups_do_not_conflict(arm_task):
    task = arm_task
    a = task.operator_index["(pick-up arm1 b1)"]
    b = task.operator_index["(pick-up arm2 b2)"]
    assert not conflicts(task, a, b)


def test_conflicts_requires_distinct_ids(arm_task):
    with pytest.raises(ValueError):
        conflicts(arm_task, 0, 0)


def test_conflicts_symmetric(arm_task):
    task = arm_task
    rng = random.Random(0)
    n = len(task.operators)
    for _ in range(200):
        a, b = rng.sample(range(n), 2)
        assert conflicts(task, a, b) == conflicts(task, b, a)


def test_conflict_free_pairs_commute():
    """Order-independence and its converse over all three domains."""
    tasks = [multiblocks_task(blocks=4, arms=2, seed=2),
             logistics_task(seed=4, cities=2, airplanes=1, trucks=2,
                            locations_per_city=2, packages=2),
             depots_task(seed=5, crates=2)]
    rng = random.Random(7)
    checked = 0
    for task in tasks:
        for state in random_states(task, 12, seed=11):
            ops = [o.id for o in task.operators if o.pre <= state]
            if len(ops) < 2:
                continue
            pairs = list(combinations(ops, 2))
            rng.shuffle(pairs)
            for a, b in pairs[:30]:
                both_ok, same, union = two_order_check(task, state, a, b)
                if not conflicts(task, a, b):
                    assert both_ok and same
                    mid = apply(task, state, a)
                    assert apply(task, mid, b) == union
                elif not (both_ok and same):
                    assert conflicts(task, a, b)
                checked += 1
    assert checked >= 300


def test_order_failure_implies_conflict():
    tasks = [multiblocks_task(blocks=4, arms=2, seed=3),
             depots_task(seed=6, crates=2)]
    for task in tasks:
        for state in random_states(task, 8, seed=13):
            ops = [o.id for o in task.operators if o.pre <= state]
            for a, b in combinations(ops, 2):
                both_ok, same, _ = two_order_check(task, state, a, b)
                if not both_ok or not same:
                    assert conflicts(task, a, b)


def relation_on(conflict_set, ops):
    """The (low, high) pairs of ``conflict_set`` among ``ops``, read through
    ``conflicting`` in both directions."""
    pairs = set()
    for a, b in combinations(sorted(ops), 2):
        assert conflict_set.conflicting(a, b) == conflict_set.conflicting(b, a)
        if conflict_set.conflicting(a, b):
            pairs.add((a, b))
    return pairs


@pytest.mark.parametrize("make_task", [
    lambda: multiblocks_task(blocks=4, arms=2, seed=3),
    lambda: logistics_task(seed=2, cities=2, airplanes=1, trucks=2,
                           locations_per_city=2, packages=2),
    lambda: depots_task(seed=9, depots=1, distributors=2, trucks=2,
                        pallets=3, hoists=2, crates=3),
], ids=["multiblocks", "logistics", "depots"])
def test_build_conflict_set_matches_pairwise_oracle(make_task):
    task = make_task()
    full = build_conflict_set(task)
    ops = range(len(task.operators))
    expect = pairwise_conflict_oracle(task, ops)
    assert expect
    assert relation_on(full, ops) == expect
    assert len(full) == len(expect)
    assert not any(full.conflicting(a, a) for a in ops)


def test_build_conflict_set_subset():
    """The full relation restricted to the operators applicable at init
    equals the oracle run on those operators alone."""
    task = multiblocks_task(blocks=3, arms=2, seed=4)
    ops = [o.id for o in task.operators if o.pre <= task.init]
    assert relation_on(build_conflict_set(task), ops) == \
        pairwise_conflict_oracle(task, ops)


def test_relation_built_once_per_task(monkeypatch):
    """Training, evaluation, policy runs and search share each task's one
    relation: four tasks, four builds."""
    builds = []

    def counting(task):
        builds.append(task.problem_name)
        return build(task)

    build = meta_ops.build_conflict_set
    monkeypatch.setattr(meta_ops, "build_conflict_set", counting)
    train_tasks = [multiblocks_task(blocks=3, arms=2, seed=s) for s in (1, 2)]
    other = [multiblocks_task(blocks=3, arms=2, seed=s) for s in (3, 4)]
    env_cfg = EnvConfig(degree=2, max_steps=8)
    result = train(train_tasks, env_cfg,
                   TrainConfig(iterations=8, episodes_per_iteration=2, seed=0))
    for _ in range(2):
        evaluate_policy(result.params, other, "greedy", env_cfg)
    run_policy(result.params, other[0], "sample", env_cfg, seed=1)
    bfs_solve(other[1], 2, 4)
    assert sorted(builds) == sorted(t.problem_name
                                    for t in train_tasks + other)


def test_disjoint_footprints_no_conflicts(switch_task):
    n = build_conflict_set(switch_task)
    assert len(n) == 0


def test_mutual_interference_single_pair():
    task = build_task("""\
(define (domain duel)
  (:requirements :strips)
  (:predicates (x) (y))
  (:action kill-y
    :parameters ()
    :precondition (and (x))
    :effect (and (not (y))))
  (:action kill-x
    :parameters ()
    :precondition (and (y))
    :effect (and (not (x))))
)
""", "(define (problem p) (:domain duel) (:init (x) (y)) (:goal (and)))")
    n = build_conflict_set(task)
    assert n.masks == (0b10, 0b01)
    assert len(n) == 1


# ---------------------------------------------------------------------------
# Meta-action construction
# ---------------------------------------------------------------------------

def test_make_meta_action_unions(arm_task):
    task = arm_task
    a = task.operator_index["(pick-up arm1 b1)"]
    b = task.operator_index["(pick-up arm2 b2)"]
    lo, hi = sorted((a, b))
    action = make_meta_action(task, (lo, hi))
    assert frozenset(mask_facts(action.add_mask)) == \
        task.operators[a].add | task.operators[b].add
    assert frozenset(mask_facts(action.delete_mask)) == \
        task.operators[a].delete | task.operators[b].delete
    assert action.degree == 2


@given(domain=st.sampled_from(sorted(SHAPES)), seed=st.integers(0, 10_000),
       degree=st.integers(1, 3), walk=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_enumerated_actions_equal_make_meta_action(domain, seed, degree, walk):
    """The DFS unions each action's effects onto its parent's; every action
    equals the one built from its atoms alone."""
    task = ground(*generate(custom_spec(domain, seed=seed, **SHAPES[domain])))
    conflict_set = build_conflict_set(task)
    rng = random.Random(walk)
    state = task.init
    for _ in range(6):
        actions = applicable_actions(task, state, degree, conflict_set)
        if not actions:
            break
        assert actions == [make_meta_action(task, a.atoms) for a in actions]
        action = rng.choice(actions)
        add, delete = action_effects(task, action.atoms)
        state = (state - delete) | add


def test_make_meta_action_rejects_unsorted(arm_task):
    with pytest.raises(ValueError):
        make_meta_action(arm_task, (2, 1))
    with pytest.raises(ValueError):
        make_meta_action(arm_task, (1, 1))


def test_pairs_in_lexicographic_order(switch_task):
    n = build_conflict_set(switch_task)
    pairs = [a.atoms for a in applicable_actions(
        switch_task, switch_task.init, 2, n) if a.degree == 2]
    assert pairs == list(combinations(range(4), 2))


def test_all_conflicting_leaves_only_singles(switch_task):
    n = ConflictSet(tuple(0b1111 & ~(1 << i) for i in range(4)))
    actions = applicable_actions(switch_task, switch_task.init, 3, n)
    assert [a.atoms for a in actions] == [(0,), (1,), (2,), (3,)]


def test_applicable_actions_rejects_degree_zero(switch_task):
    n = build_conflict_set(switch_task)
    with pytest.raises(ValueError):
        applicable_actions(switch_task, switch_task.init, 0, n)


def test_meta_operator_cap(switch_task, monkeypatch):
    n = build_conflict_set(switch_task)
    monkeypatch.setattr(meta_ops, "DEFAULT_ACTION_CAP", 2)
    with pytest.raises(CapacityError):
        applicable_actions(switch_task, switch_task.init, 2, n)


# ---------------------------------------------------------------------------
# Online applicable-action enumeration
# ---------------------------------------------------------------------------

def test_switchboard_counts(switch_task):
    """k independent applicable operators: k + C(k,2) actions at L=2."""
    n = build_conflict_set(switch_task)
    actions = applicable_actions(switch_task, switch_task.init, 2, n)
    assert len(actions) == 4 + 6
    degree1 = [a for a in actions if a.degree == 1]
    assert [a.atoms for a in degree1] == [(0,), (1,), (2,), (3,)]


def test_dead_end_returns_empty(switch_task):
    n = build_conflict_set(switch_task)
    fact_index = {f.key: f.index for f in switch_task.facts}
    all_on = frozenset(fact_index[("on", (f"s{i}",))] for i in range(1, 5))
    assert applicable_actions(switch_task, all_on, 2, n) == []


def test_single_applicable_operator(arm_task):
    task = multiblocks_task(blocks=1, arms=1, seed=0)
    n = build_conflict_set(task)
    actions = applicable_actions(task, task.init, 2, n)
    assert len(actions) == 1
    assert actions[0].degree == 1


def test_degree_one_slice_equals_applicable_operators():
    task = multiblocks_task(blocks=4, arms=2, seed=6)
    n = build_conflict_set(task)
    for state in random_states(task, 10, seed=17):
        applicable = [o.id for o in task.operators if o.pre <= state]
        got = applicable_actions(task, state, 1, n)
        assert [a.atoms for a in got] == [(i,) for i in applicable]


def test_monotone_in_degree():
    task = multiblocks_task(blocks=3, arms=2, seed=7)
    n = build_conflict_set(task)
    for state in random_states(task, 8, seed=19):
        by_degree = [
            {a.atoms for a in applicable_actions(task, state, d, n)}
            for d in (1, 2, 3)]
        assert by_degree[0] <= by_degree[1] <= by_degree[2]


@pytest.mark.parametrize("degree", [2, 3])
def test_applicable_matches_brute_force(degree):
    """Every conflict-free subset of the applicable operators, up to size
    ``degree``, straight off the pairwise conflict definition."""
    task = multiblocks_task(blocks=4, arms=2, seed=8)
    n = build_conflict_set(task)
    for state in random_states(task, 10, seed=23):
        applicable = [o.id for o in task.operators if o.pre <= state]
        expect = {combo for size in range(1, degree + 1)
                  for combo in combinations(applicable, size)
                  if not any(conflicts(task, a, b)
                             for a, b in combinations(combo, 2))}
        got = {a.atoms for a in applicable_actions(task, state, degree, n)}
        assert got == expect


def test_global_filter_equals_local_conflict_loop():
    """Filtering the precomputed full-table relation to the applicable set
    gives the same relation as running the conflict loop on that set alone."""
    task = depots_task(seed=10, crates=2)
    full = build_conflict_set(task)
    for state in random_states(task, 10, seed=29):
        ops = [o.id for o in task.operators if o.pre <= state]
        assert relation_on(full, ops) == pairwise_conflict_oracle(task, ops)


def test_enumerated_actions_freed_without_the_collector(arm_task,
                                                         switch_task):
    """Enumeration leaves no reference cycle: the actions go as soon as the
    caller drops them, with the garbage collector off, at degree 2 and at
    degree 3, where the DFS recurses below the first level, and on a fresh
    task, whose first enumeration builds its tables."""
    n3 = build_conflict_set(switch_task)
    assert any(a.degree == 3 for a in applicable_actions(
        switch_task, switch_task.init, 3, n3))
    fresh = build_task(SWITCH_DOMAIN, SWITCH_PROBLEM)
    for task, degree in ((arm_task, 2), (switch_task, 3), (fresh, 3)):
        n = build_conflict_set(task)
        gc.collect()
        gc.disable()
        try:
            actions = applicable_actions(task, task.init, degree, n)
            # held by ``actions`` and by getrefcount's own argument only
            assert sys.getrefcount(actions) == 2
            del actions
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_action_space_stats_empty():
    stats = action_space_stats([])
    assert stats.total == 0
    assert stats.by_degree == {}


def test_action_space_stats_histogram(switch_task):
    singles = [make_meta_action(switch_task, (i,)) for i in range(4)]
    pairs = [make_meta_action(switch_task, p)
             for p in [(0, 1), (0, 2), (1, 2)]]
    # a fifth degree-1 entry duplicates an existing one and must not count
    trace = singles + pairs + [singles[0]]
    stats = action_space_stats(trace)
    assert stats.total == 7
    assert stats.by_degree == {1: 4, 2: 3}


def test_action_space_stats_spec_example(two_tower_task):
    task = two_tower_task
    singles = [make_meta_action(task, (i,)) for i in range(5)]
    n = build_conflict_set(task)
    pairs = [a for a in applicable_actions(task, task.init, 2, n)
             if a.degree == 2][:3]
    stats = action_space_stats(singles + pairs)
    assert stats.total == 8
    assert stats.by_degree == {1: 5, 2: 3}


# ---------------------------------------------------------------------------
# The int-mask core against frozenset semantics
# ---------------------------------------------------------------------------

def frozenset_bfs(task, degree, depth_limit):
    """Breadth-first search over frozenset states, successors unioned from
    the operators' effect sets, the same tie-breaking as ``bfs_solve``."""
    conflict_set = build_conflict_set(task)
    if task.goal <= task.init:
        return ()
    parent, depth = {}, {task.init: 0}
    queue = deque([task.init])
    while queue:
        state = queue.popleft()
        if depth[state] >= depth_limit:
            continue
        for action in applicable_actions(task, state, degree, conflict_set):
            ops = [task.operators[i] for i in action.atoms]
            nxt = (state - frozenset().union(*(op.delete for op in ops))) \
                | frozenset().union(*(op.add for op in ops))
            if nxt in depth:
                continue
            depth[nxt] = depth[state] + 1
            parent[nxt] = (state, action.atoms)
            if task.goal <= nxt:
                steps = []
                while nxt != task.init:
                    nxt, atoms = parent[nxt]
                    steps.append(atoms)
                return tuple(reversed(steps))
            queue.append(nxt)
    return None


@given(domain=st.sampled_from(sorted(SHAPES)), seed=st.integers(0, 10_000),
       degree=st.integers(1, 3), walk=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_mask_core_equals_frozenset_semantics(domain, seed, degree, walk):
    """On random walks, a mask state enumerates what its fact set does,
    every action's effects are its operators' unions, and its mask
    successor is what ``transition.apply`` reaches in every atom order."""
    task = ground(*generate(custom_spec(domain, seed=seed, **SHAPES[domain])))
    conflict_set = build_conflict_set(task)
    rng = random.Random(walk)
    state = task.init
    for _ in range(6):
        mask = fact_mask(state)
        assert mask_facts(mask) == sorted(state)
        actions = applicable_actions(task, state, degree, conflict_set)
        assert applicable_actions(task, mask, degree, conflict_set) == actions
        successors = []
        for action in actions:
            ops = [task.operators[i] for i in action.atoms]
            assert frozenset(mask_facts(action.add_mask)) == \
                frozenset().union(*(op.add for op in ops))
            assert frozenset(mask_facts(action.delete_mask)) == \
                frozenset().union(*(op.delete for op in ops))
            successor = frozenset(mask_facts(
                (mask & ~action.delete_mask) | action.add_mask))
            for order in permutations(action.atoms):
                reached = state
                for i in order:
                    reached = apply(task, reached, i)
                assert reached == successor
            successors.append(successor)
        if not successors:
            break
        state = rng.choice(successors)


@given(domain=st.sampled_from(sorted(SHAPES)), seed=st.integers(0, 10_000),
       degree=st.integers(1, 3), depth_limit=st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_bfs_solve_equals_frozenset_bfs(domain, seed, degree, depth_limit):
    task = ground(*generate(custom_spec(domain, seed=seed, **SHAPES[domain])))
    plan = bfs_solve(task, degree, depth_limit)
    assert (plan.steps if plan else None) == \
        frozenset_bfs(task, degree, depth_limit)


# ---------------------------------------------------------------------------
# The applicability table against a full scan of the operator table
# ---------------------------------------------------------------------------

def full_scan_actions(task, state, degree, conflict_set):
    """``(atoms, add_mask, delete_mask)`` of every action at ``state``, the
    applicable set found by testing every operator's precondition and the
    effects unioned from the operators' fact sets."""
    applicable = [i for i, op in enumerate(task.operators) if op.pre <= state]
    out = []

    def extend(start, chosen):
        for idx in range(start, len(applicable)):
            i = applicable[idx]
            if any(conflict_set.conflicting(i, j) for j in chosen):
                continue
            atoms = chosen + (i,)
            ops = [task.operators[a] for a in atoms]
            out.append((atoms,
                        fact_mask(frozenset().union(*(op.add for op in ops))),
                        fact_mask(frozenset().union(
                            *(op.delete for op in ops)))))
            if len(atoms) < degree:
                extend(idx + 1, atoms)

    extend(0, ())
    return out


def enumerated(task, state, degree, conflict_set):
    return [(a.atoms, a.add_mask, a.delete_mask)
            for a in applicable_actions(task, state, degree, conflict_set)]


@given(domain=st.sampled_from(sorted(SHAPES)), seed=st.integers(0, 10_000),
       degree=st.integers(1, 3), walk=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_index_equals_full_scan_on_random_walks(domain, seed, degree, walk):
    """Raw ground tables, unreachable operators included: at every state of
    a random walk the table-driven enumeration is the full scan's."""
    task = ground(*generate(custom_spec(domain, seed=seed, **SHAPES[domain])))
    conflict_set = build_conflict_set(task)
    rng = random.Random(walk)
    state = task.init
    for _ in range(6):
        expect = full_scan_actions(task, state, degree, conflict_set)
        assert enumerated(task, state, degree, conflict_set) == expect
        assert enumerated(task, fact_mask(state), degree,
                          conflict_set) == expect
        if not expect:
            break
        atoms, add_mask, delete_mask = rng.choice(expect)
        state = frozenset(mask_facts(
            (fact_mask(state) & ~delete_mask) | add_mask))


@given(domain=st.sampled_from(sorted(SHAPES)), seed=st.integers(0, 10_000),
       degree=st.integers(1, 2), draw=st.integers(0, 2 ** 32 - 1),
       density=st.sampled_from([0.1, 0.5, 0.9]))
@settings(max_examples=60, deadline=None)
def test_index_equals_full_scan_on_arbitrary_fact_sets(domain, seed, degree,
                                                       draw, density):
    """States need not be reachable: any fact subset, facts that no
    operator adds among them, enumerates what the full scan finds."""
    task = ground(*generate(custom_spec(domain, seed=seed, **SHAPES[domain])))
    added = frozenset().union(*(op.add for op in task.operators))
    assert domain == "multiblocks" or len(added) < len(task.facts)
    conflict_set = build_conflict_set(task)
    rng = random.Random(draw)
    for _ in range(4):
        state = frozenset(f for f in range(len(task.facts))
                          if rng.random() < density)
        assert enumerated(task, state, degree, conflict_set) == \
            full_scan_actions(task, state, degree, conflict_set)


EMPTY_PRE_DOMAIN = """\
(define (domain lamps)
  (:requirements :strips)
  (:predicates (power) (on-a) (on-b) (on-c) (fuse) (alarm))
  (:action connect
    :parameters ()
    :precondition (and)
    :effect (and (power)))
  (:action light-a
    :parameters ()
    :precondition (and (power))
    :effect (and (on-a)))
  (:action light-b
    :parameters ()
    :precondition (and (power) (on-a))
    :effect (and (on-b) (not (on-a))))
  (:action light-c
    :parameters ()
    :precondition (and (on-b) (fuse))
    :effect (and (on-c) (alarm)))
  (:action blow
    :parameters ()
    :precondition (and (power) (on-c) (alarm))
    :effect (and (not (fuse)) (not (power))))
  (:action cut
    :parameters ()
    :precondition (and (on-b))
    :effect (and (not (power))))
)
"""


def applicable_by_scan(task, mask):
    """The operators applicable at ``mask``, each tested on its own."""
    state = frozenset(mask_facts(mask))
    return [i for i in range(len(task.operators))
            if is_applicable(task, state, i)]


def test_index_keeps_empty_precondition_operators():
    """Every mask of a 6-fact task, two bits above its facts included: the
    applicability table gives each group's entries by their definition,
    never blocks the operator with an empty precondition, and finds what a
    scan of every operator finds, so the enumeration at degrees 1-3 equals
    the recursive reference on a full scan."""
    task = build_task(EMPTY_PRE_DOMAIN, """\
(define (problem p) (:domain lamps) (:init (fuse)) (:goal (and (on-c))))""")
    n = len(task.facts)
    assert n % 4 != 0
    assert any(len({f // 4 for f in op.pre}) == 2 for op in task.operators)
    connect = task.operator_index["(connect)"]
    table = applicability_table(task)
    assert table.all_ops == (1 << len(task.operators)) - 1
    assert [shift for shift, _ in table.groups] == [0, 4]
    for shift, entries in table.groups:
        assert len(entries) == 16
        for v, blocked in enumerate(entries):
            unmet = {shift + k for k in range(4) if not v >> k & 1}
            assert mask_facts(blocked) == [
                i for i, op in enumerate(task.operators) if op.pre & unmet]
    conflict_set = build_conflict_set(task)
    for mask in range(1 << (n + 2)):
        state = mask & ((1 << n) - 1)
        applicable = applicable_by_scan(task, state)
        assert connect in applicable
        assert [a.atoms for a in applicable_actions(
            task, mask, 1, conflict_set)] == [(i,) for i in applicable]
        for degree in (1, 2, 3):
            got = applicable_actions(task, mask, degree, conflict_set)
            assert got == recursive_dfs_actions(task, mask, degree,
                                                conflict_set)
            assert enumerated(task, frozenset(mask_facts(state)), degree,
                              conflict_set) == full_scan_actions(
                task, frozenset(mask_facts(state)), degree, conflict_set)


@pytest.mark.parametrize("make_task", [
    lambda: multiblocks_task(blocks=4, arms=3, seed=5),
    lambda: logistics_task(seed=6),
    lambda: depots_task(seed=7, crates=2),
], ids=["multiblocks", "logistics", "depots"])
def test_table_equals_full_scan_on_random_masks(make_task):
    """Seeded random masks, some with bits set above the task's facts: the
    table's applicable operators are the full scan's, and the enumeration
    at degrees 1-3 is the recursive reference's."""
    task = make_task()
    n = len(task.facts)
    conflict_set = build_conflict_set(task)
    rng = random.Random(n)
    for trial in range(60):
        density = (0.3, 0.6, 0.9)[trial % 3]
        mask = fact_mask(f for f in range(n) if rng.random() < density)
        if trial % 2:
            mask |= rng.getrandbits(8) << n
        applicable = applicable_by_scan(task, mask & ((1 << n) - 1))
        assert [a.atoms for a in applicable_actions(
            task, mask, 1, conflict_set)] == [(i,) for i in applicable]
        for degree in (2, 3):
            assert applicable_actions(task, mask, degree, conflict_set) == \
                recursive_dfs_actions(task, mask, degree, conflict_set)


def test_applicability_table_built_once_per_task():
    """The table is built by the first enumeration and is the same object
    on every later call; another task gets its own."""
    task = multiblocks_task(blocks=3, arms=2, seed=4)
    assert "_applicability_table" not in task.__dict__
    n = build_conflict_set(task)
    applicable_actions(task, task.init, 2, n)
    table = task.__dict__["_applicability_table"]
    assert applicability_table(task) is table
    for state in random_states(task, 5, seed=9):
        applicable_actions(task, state, 3, n)
        assert applicability_table(task) is table
    assert table.singles == tuple(make_meta_action(task, (i,))
                                  for i in range(len(task.operators)))
    assert table.add == tuple(op.add_mask for op in task.operators)
    assert table.delete == tuple(op.delete_mask for op in task.operators)
    other = multiblocks_task(blocks=3, arms=2, seed=4)
    assert applicability_table(other) is not table
    assert applicability_table(other) == table


# ---------------------------------------------------------------------------
# MetaAction value semantics
# ---------------------------------------------------------------------------

def test_meta_action_equal_and_hashed_by_value(switch_task):
    """An enumerated action equals, and hashes as, the one built from its
    atoms; it cannot be assigned to or have an attribute deleted, and it
    unpacks as ``(atoms, add_mask, delete_mask)``."""
    n = build_conflict_set(switch_task)
    actions = applicable_actions(switch_task, switch_task.init, 2, n)
    assert any(a.degree == 2 for a in actions)
    for action in actions:
        built = make_meta_action(switch_task, action.atoms)
        assert action == built and action is not built
        assert hash(action) == hash(built)
        assert action == MetaAction(action.atoms, action.add_mask,
                                    action.delete_mask)
    assert len(set(actions) | {make_meta_action(switch_task, a.atoms)
                               for a in actions}) == len(actions)
    action = actions[-1]
    other = MetaAction(action.atoms, action.add_mask ^ 1, action.delete_mask)
    assert action != other
    assert repr(action) == (f"MetaAction(atoms={action.atoms!r}, "
                            f"add_mask={action.add_mask!r}, "
                            f"delete_mask={action.delete_mask!r})")
    for name in ("atoms", "add_mask", "delete_mask", "other"):
        with pytest.raises(AttributeError):
            setattr(action, name, 0)
        with pytest.raises(AttributeError):
            delattr(action, name)
    assert action == make_meta_action(switch_task, action.atoms)
    assert pickle.loads(pickle.dumps(action)) == action
    atoms, add_mask, delete_mask = action
    assert (atoms, add_mask, delete_mask) == (
        action.atoms, action.add_mask, action.delete_mask)


# ---------------------------------------------------------------------------
# The set-bit DFS against the recursive reference
# ---------------------------------------------------------------------------

def recursive_dfs_actions(task, state, degree, conflict_set,
                          max_actions=meta_ops.DEFAULT_ACTION_CAP):
    """The enumeration as it was written before the set-bit walk, on a
    full scan of the operator table: every operator's precondition tested,
    then a DFS that recurses once per action below ``degree``, tests every
    later applicable operator against a ``blocked`` mask of the chosen
    atoms' conflicts, and builds every action, degree 1 included, afresh."""
    s = state if isinstance(state, int) else fact_mask(state)
    pre, add, delete = ([getattr(op, name) for op in task.operators]
                        for name in ("pre_mask", "add_mask", "delete_mask"))
    base = [i for i in range(len(pre)) if pre[i] & s == pre[i]]
    masks = conflict_set.masks
    out = []

    def extend(start, blocked, atoms, add_mask, delete_mask):
        for idx in range(start, len(base)):
            i = base[idx]
            if blocked >> i & 1:
                continue
            if len(out) >= max_actions:
                raise CapacityError(
                    f"meta-action enumeration exceeded cap {max_actions}",
                    len(out) + 1, max_actions)
            child = atoms + (i,)
            child_add = add_mask | add[i]
            child_delete = delete_mask | delete[i]
            out.append(MetaAction(child, child_add, child_delete))
            if len(child) < degree:
                extend(idx + 1, blocked | masks[i], child, child_add,
                       child_delete)

    extend(0, 0, (), 0, 0)
    return out


def enumeration_outcome(enumerate_actions, *args, **kwargs):
    """The list an enumeration returns, or ``(count, cap, message)`` of the
    ``CapacityError`` it raises."""
    try:
        return enumerate_actions(*args, **kwargs)
    except CapacityError as err:
        return (err.count, err.cap, str(err))


def assert_same_as_reference(task, state, degree, conflict_set):
    """``applicable_actions`` under the action cap in force now equals the
    reference under the same cap."""
    got = enumeration_outcome(applicable_actions, task, state, degree,
                              conflict_set)
    expect = enumeration_outcome(recursive_dfs_actions, task, state, degree,
                                 conflict_set,
                                 max_actions=meta_ops.DEFAULT_ACTION_CAP)
    assert got == expect
    if isinstance(got, list):
        assert all(type(a) is MetaAction for a in got)
    return got


@given(domain=st.sampled_from(sorted(SHAPES)), seed=st.integers(0, 10_000),
       degree=st.integers(1, 4), walk=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_bit_walk_equals_recursive_dfs_on_random_walks(domain, seed, degree,
                                                       walk):
    """Raw ground tables at degrees 1-4: at every state of a random walk of
    mask states the set-bit walk returns the reference's list, the same
    actions in the same order."""
    task = ground(*generate(custom_spec(domain, seed=seed, **SHAPES[domain])))
    conflict_set = build_conflict_set(task)
    rng = random.Random(walk)
    state = fact_mask(task.init)
    for _ in range(6):
        actions = assert_same_as_reference(task, state, degree, conflict_set)
        if not actions:
            break
        _, add_mask, delete_mask = rng.choice(actions)
        state = (state & ~delete_mask) | add_mask


@given(domain=st.sampled_from(sorted(SHAPES)), seed=st.integers(0, 10_000),
       degree=st.integers(1, 4), draw=st.integers(0, 2 ** 32 - 1),
       density=st.sampled_from([0.1, 0.5, 0.9]),
       cap=st.sampled_from([0, 1, 7, 60, 5_000]))
@settings(max_examples=60, deadline=None)
def test_bit_walk_equals_recursive_dfs_on_arbitrary_fact_sets(
        domain, seed, degree, draw, density, cap):
    """Any fact subset, unreachable ones included, as a set and as a mask,
    under caps below, at and above the action count: the same list, or the
    same ``CapacityError``."""
    task = ground(*generate(custom_spec(domain, seed=seed, **SHAPES[domain])))
    conflict_set = build_conflict_set(task)
    rng = random.Random(draw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(meta_ops, "DEFAULT_ACTION_CAP", cap)
        for _ in range(4):
            state = frozenset(f for f in range(len(task.facts))
                              if rng.random() < density)
            got = assert_same_as_reference(task, state, degree, conflict_set)
            assert enumeration_outcome(applicable_actions, task,
                                       fact_mask(state), degree,
                                       conflict_set) == got


@pytest.mark.parametrize("degree", [1, 3])
def test_cap_boundary(switch_task, degree, monkeypatch):
    """A cap equal to the action count returns the whole list; any lower
    cap raises ``CapacityError`` counting one action past the cap."""
    n = build_conflict_set(switch_task)
    actions = applicable_actions(switch_task, switch_task.init, degree, n)
    assert len(actions) == {1: 4, 3: 4 + 6 + 4}[degree]
    count = len(actions)
    monkeypatch.setattr(meta_ops, "DEFAULT_ACTION_CAP", count)
    assert applicable_actions(switch_task, switch_task.init, degree,
                              n) == actions
    for cap in range(count):
        monkeypatch.setattr(meta_ops, "DEFAULT_ACTION_CAP", cap)
        with pytest.raises(CapacityError) as err:
            applicable_actions(switch_task, switch_task.init, degree, n)
        assert (err.value.count, err.value.cap) == (cap + 1, cap)


def test_cap_trips_before_the_space_is_built(monkeypatch):
    """Thirty independent switches hold 4,525 actions up to degree 3; a cap
    of 50 raises after fewer than 50 have been built, not at the end."""
    names = [f"s{i}" for i in range(30)]
    task = build_task(SWITCH_DOMAIN, f"""\
(define (problem thirty) (:domain switches)
  (:objects {' '.join(names)} - switch)
  (:init {' '.join(f'(off {name})' for name in names)})
  (:goal (and)))""")
    n = build_conflict_set(task)
    assert len(applicable_actions(task, task.init, 3, n)) == 30 + 435 + 4060
    built = []
    tuple_new = meta_ops._tuple_new

    def counting(cls, fields):
        built.append(fields[0])
        return tuple_new(cls, fields)

    monkeypatch.setattr(meta_ops, "_tuple_new", counting)
    monkeypatch.setattr(meta_ops, "DEFAULT_ACTION_CAP", 50)
    with pytest.raises(CapacityError) as err:
        applicable_actions(task, task.init, 3, n)
    assert (err.value.count, err.value.cap) == (51, 50)
    assert 0 < len(built) < 50


def test_degree_one_actions_built_once_per_task():
    """Each operator's degree-1 action is built once per task, equals the
    one built from its atom, and is the very object every enumeration at
    every degree returns for it."""
    task = multiblocks_task(blocks=4, arms=3, seed=12)
    assert "_applicability_table" not in task.__dict__
    singles = applicability_table(task).singles
    assert applicability_table(task).singles is singles
    assert task.__dict__["_applicability_table"].singles is singles
    assert singles == tuple(make_meta_action(task, (i,))
                            for i in range(len(task.operators)))
    n = build_conflict_set(task)
    deepest = 1
    for state in random_states(task, 10, seed=31):
        ones = applicable_actions(task, state, 1, n)
        assert all(a is singles[a.atoms[0]] for a in ones)
        deep = applicable_actions(task, state, 3, n)
        deepest = max([deepest] + [a.degree for a in deep])
        by_atoms = {a.atoms: a for a in deep}
        assert all(by_atoms[a.atoms] is a for a in ones)
    assert deepest == 3
    assert applicability_table(task).singles is singles
    other = multiblocks_task(blocks=4, arms=3, seed=12)
    assert applicability_table(other).singles is not singles
    assert applicability_table(other).singles == singles
