"""Featurizer, distribution, sampling, and gradient/training correctness."""

import dataclasses
import functools
import itertools
import json
import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplan import (CapacityError, CheckpointError, EnvConfig,
                      FeatureConfig, TrainConfig, applicable_actions,
                      build_conflict_set, custom_spec, discounted_return,
                      generate, greedy_action, ground, init_params,
                      policy_update, rollout, sample_action, train)
from metaplan import policy
from metaplan.meta_ops import fact_mask
from metaplan.policy import (Checkpoint, PolicyParams, _action_table,
                             _decision_steps, _distinct_rows, _softmax,
                             load_checkpoint, save_checkpoint,
                             surrogate_objective)
from tests.conftest import build_task, depots_task
from tests.reference import (DecisionStep, action_distribution,
                             action_effects, decision_batch, featurize_all,
                             make_meta_action, sets, table_features)
from metaplan.generators import MULTIBLOCKS_DOMAIN

TWO_GOAL_PROBLEM = """\
(define (problem feature-probe)
  (:domain multiblocks)
  (:objects a b c d - block arm1 - arm)
  (:init (ontable a) (ontable b) (ontable c) (ontable d)
         (clear a) (clear b) (clear c) (clear d) (handempty arm1))
  (:goal (and (on a b) (on c d)))
)
"""


# ---------------------------------------------------------------------------
# Reference implementations: the per-action, per-decision loops that the
# array code in metaplan.policy must reproduce.
# ---------------------------------------------------------------------------

def featurize_reference(task, state, action, fc):
    """The feature definition, one action at a time with set algebra."""
    def bucket(text):
        return 6 + zlib.crc32(text.encode("utf-8")) % fc.d_hash

    v = np.zeros(fc.dim, dtype=np.float64)
    goal = sets(task).goal
    add, delete = action_effects(task, action.atoms)
    next_state = (state - delete) | add
    v[0] = 1.0
    v[1] = action.degree / fc.degree
    v[2] = len((add & goal) - state)
    v[3] = len(delete & goal)
    v[4] = len(goal & next_state) / len(goal) if goal else 1.0
    v[5] = len(add & goal)
    for indices, sign in ((add, 1.0), (delete, -1.0)):
        for i in indices:
            fact = task.facts[i]
            v[bucket(fact.predicate)] += sign
            for pos in range(len(fact.args)):
                v[bucket(f"{fact.predicate}/{pos}")] += sign
    return v


def _log_softmax_reference(logits):
    z = logits - logits.max()
    return z - np.log(np.exp(z).sum())


def surrogate_reference(weights, steps, clip_epsilon, entropy_coef):
    """The clipped surrogate and its gradient, one decision at a time."""
    total = 0.0
    grad = np.zeros_like(weights)
    for s in steps:
        logp = _log_softmax_reference(s.feats @ weights)
        p = np.exp(logp)
        fbar = p @ s.feats
        ratio = float(np.exp(logp[s.taken] - s.old_logp))
        unclipped = ratio * s.advantage
        clipped = float(np.clip(ratio, 1.0 - clip_epsilon,
                                1.0 + clip_epsilon)) * s.advantage
        total += min(unclipped, clipped)
        if unclipped <= clipped:
            grad += s.advantage * ratio * (s.feats[s.taken] - fbar)
        q = p * logp
        total += entropy_coef * float(-q.sum())
        grad += entropy_coef * (-(q @ s.feats - q.sum() * fbar))
    n = max(len(steps), 1)
    return total / n, grad / n


def decisions_reference(batch, env_cfg, fc):
    """The (features, index taken) record of a batch, rebuilt by enumerating
    and featurizing every visited state again."""
    decisions = []
    for trace in batch:
        task = trace.task
        conflict_set = build_conflict_set(task)
        for state, action in zip(trace.states, trace.actions):
            available = applicable_actions(task, state, env_cfg.degree,
                                           conflict_set)
            feats = np.stack([featurize_reference(task, state, a, fc)
                              for a in available])
            taken = next(i for i, a in enumerate(available)
                         if a.atoms == action.atoms)
            decisions.append((feats, taken))
    return decisions


def index_record(batch, env_cfg, fc):
    """The (rows, goal columns, taken) record of a batch, rebuilt by
    enumerating every visited state again and featurizing it through the
    table; the features it gives equal :func:`decisions_reference`'s, and
    its goal columns are theirs."""
    reference = iter(decisions_reference(batch, env_cfg, fc))
    record = []
    for trace in batch:
        task = trace.task
        conflict_set = build_conflict_set(task)
        for state in trace.masks[:len(trace.actions)]:
            available = applicable_actions(task, state, env_cfg.degree,
                                           conflict_set)
            feats = featurize_all(task, state, available, fc)
            want, taken = next(reference)
            assert np.array_equal(feats, want)
            record.append((policy.featurize_all(task, available, fc),
                           feats[:, 2:5:2], taken))
    return record


def decision_steps_reference(batch, decisions, params, env_cfg):
    """Decision steps with log-probs and advantages, one at a time."""
    advantages = []
    for trace in batch:
        togo = 0.0
        returns = [0.0] * len(trace.rewards)
        for t in range(len(trace.rewards) - 1, -1, -1):
            togo = trace.rewards[t] + env_cfg.gamma * togo
            returns[t] = togo
        advantages += [r - params.baseline for r in returns]
    steps = []
    for (feats, taken), advantage in zip(decisions, advantages):
        logp = _log_softmax_reference(feats @ params.weights)
        steps.append(DecisionStep(feats=feats, taken=taken,
                                  old_logp=float(logp[taken]),
                                  advantage=advantage))
    return steps


@pytest.fixture(scope="module")
def probe_task():
    return build_task(MULTIBLOCKS_DOMAIN, TWO_GOAL_PROBLEM)


@pytest.fixture(scope="module")
def probe_conflicts(probe_task):
    return build_conflict_set(probe_task)


def test_featurize_goal_counting(probe_task):
    """Stacking a onto b adds 1 of 2 goal facts: newly-added = 1,
    successor goal fraction = 0.5."""
    task = probe_task
    fc = FeatureConfig(degree=2)
    pick = make_meta_action(task, (task.operator_index["(pick-up arm1 a)"],))
    pick_add, pick_delete = action_effects(task, pick.atoms)
    holding = (sets(task).init - pick_delete) | pick_add
    stack = make_meta_action(task, (task.operator_index["(stack arm1 a b)"],))
    v = featurize_all(task, fact_mask(holding), [stack], fc)[0]
    assert v[0] == 1.0
    assert v[2] == 1.0  # newly added goal facts
    assert v[3] == 0.0  # deleted goal facts
    assert v[4] == 0.5  # successor goal fraction
    assert v[5] == 1.0  # add effects in goal


def test_featurize_degree_fraction(probe_task, probe_conflicts):
    fc = FeatureConfig(degree=2)
    actions = applicable_actions(probe_task, probe_task.init_mask, 2,
                                 probe_conflicts)
    for a in actions:
        v = featurize_all(probe_task, probe_task.init_mask, [a], fc)[0]
        assert v[1] == a.degree / 2


def test_featurize_deterministic(probe_task, probe_conflicts):
    fc = FeatureConfig(degree=2)
    action = applicable_actions(probe_task, probe_task.init_mask, 2,
                                probe_conflicts)[1]
    state = probe_task.init_mask
    a = featurize_all(probe_task, state, [action], fc)[0]
    b = featurize_all(probe_task, state, [action], fc)[0]
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))
    assert a.shape == (fc.dim,)


SHAPES = {
    "multiblocks": {"blocks": (2, 4), "arms": (1, 2)},
    "logistics": {"airplanes": 1, "cities": (1, 2), "trucks": (1, 2),
                  "locations_per_city": (1, 2), "packages": (1, 2)},
    "depots": {"depots": 1, "distributors": 1, "trucks": 1, "pallets": 2,
               "hoists": 2, "crates": (1, 2)},
}


def _assert_rows_match_reference(task, state, actions, fc):
    """The table's whole rows, and its two parts that the scorer and the
    update read (the state-free base and the goal columns), equal the
    per-action definition."""
    got = featurize_all(task, fact_mask(state), actions, fc)
    want = np.stack([featurize_reference(task, state, a, fc)
                     for a in actions])
    assert np.array_equal(got, want)
    assert np.array_equal(
        featurize_all(task, fact_mask(state), actions[-1:], fc)[0], want[-1])
    table = _action_table(task, fc)
    rows = policy.featurize_all(task, actions, fc)
    parts = table.base(rows)
    assert not parts[:, 2:5:2].any()
    parts[:, 2:5:2] = table.goal_columns(rows, fact_mask(state))
    assert np.array_equal(parts, want)


@given(domain=st.sampled_from(sorted(SHAPES)), seed=st.integers(0, 10_000),
       degree=st.integers(1, 3), walk=st.integers(0, 2 ** 32 - 1),
       d_hash=st.sampled_from([8, 64]))
@settings(max_examples=40, deadline=None)
def test_featurize_all_equals_reference_on_random_walks(domain, seed, degree,
                                                        walk, d_hash):
    task = ground(*generate(custom_spec(domain, seed=seed, **SHAPES[domain])))
    conflict_set = build_conflict_set(task)
    fc = FeatureConfig(degree=degree, d_hash=d_hash)
    rng = random.Random(walk)
    state = sets(task).init
    for _ in range(6):
        actions = applicable_actions(task, state, degree, conflict_set)
        if not actions:
            break
        _assert_rows_match_reference(task, state, actions, fc)
        action = rng.choice(actions)
        add, delete = action_effects(task, action.atoms)
        state = (state - delete) | add


def test_featurize_all_empty_goal(probe_task, probe_conflicts):
    task = dataclasses.replace(probe_task, goal_mask=0)
    fc = FeatureConfig(degree=2)
    actions = applicable_actions(task, task.init_mask, 2, probe_conflicts)
    _assert_rows_match_reference(task, sets(task).init, actions, fc)
    assert np.all(
        featurize_all(task, task.init_mask, actions, fc)[:, 4] == 1.0)


def test_featurize_all_single_action_state(probe_task):
    """One tower a-b-c-d and an empty hand: only unstacking a applies."""
    task = probe_task
    fc = FeatureConfig(degree=2)
    op = task.operator_index
    state = sets(task).init
    for name in ("(pick-up arm1 c)", "(stack arm1 c d)", "(pick-up arm1 b)",
                 "(stack arm1 b c)", "(pick-up arm1 a)", "(stack arm1 a b)"):
        add, delete = action_effects(task, (op[name],))
        state = (state - delete) | add
    actions = applicable_actions(task, state, 2, build_conflict_set(task))
    assert len(actions) == 1
    _assert_rows_match_reference(task, state, actions, fc)


def test_featurize_all_conflicting_atoms(probe_task):
    """An action whose atoms add and delete the same fact (not one the
    enumerator would produce) still gets the defined features."""
    task = probe_task
    fc = FeatureConfig(degree=2)
    op = task.operator_index
    pick = make_meta_action(task, (op["(pick-up arm1 a)"],))
    pick_add, pick_delete = action_effects(task, pick.atoms)
    holding = (sets(task).init - pick_delete) | pick_add
    clash = make_meta_action(task, tuple(sorted(
        (op["(stack arm1 a b)"], op["(pick-up arm1 c)"]))))
    clash_add, clash_delete = action_effects(task, clash.atoms)
    assert clash_add & clash_delete
    _assert_rows_match_reference(task, holding, [clash], fc)


def test_featurize_all_no_actions(probe_task):
    fc = FeatureConfig(degree=2)
    feats = featurize_all(probe_task, probe_task.init_mask, [], fc)
    assert feats.shape == (0, fc.dim)
    rows = policy.featurize_all(probe_task, [], fc)
    goal = _action_table(probe_task, fc).goal_columns(rows,
                                                      probe_task.init_mask)
    assert goal.shape == (0, 2) and rows.shape == (0,)


# ---------------------------------------------------------------------------
# The action feature table: rows kept across calls, states and configs
# ---------------------------------------------------------------------------

@functools.cache
def _warm_task():
    """One task shared by every example, so its table stays warm."""
    task = ground(*generate(custom_spec("multiblocks", seed=7, blocks=4,
                                        arms=2)))
    return task, build_conflict_set(task)


@given(walk=st.integers(0, 2 ** 32 - 1), degree=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_table_rows_served_at_later_states_match_reference(walk, degree):
    """Random walks on one task: rows built at earlier states, and in
    earlier examples, serve later states exactly."""
    task, conflict_set = _warm_task()
    fc = FeatureConfig(degree=degree)
    rng = random.Random(walk)
    state = sets(task).init
    visited = []
    for _ in range(8):
        actions = applicable_actions(task, state, degree, conflict_set)
        if not actions:
            break
        _assert_rows_match_reference(task, state, actions, fc)
        visited.append((state, actions))
        action = rng.choice(actions)
        add, delete = action_effects(task, action.atoms)
        state = (state - delete) | add
    # A second pass is served from the table alone.
    rows = len(_action_table(task, fc).index)
    for state, actions in visited:
        _assert_rows_match_reference(task, state, actions, fc)
    assert len(_action_table(task, fc).index) == rows


def test_table_row_at_states_holding_different_goal_facts():
    """One row serves states that differ in the goal facts they hold."""
    task = build_task(MULTIBLOCKS_DOMAIN, TWO_GOAL_PROBLEM)
    fc = FeatureConfig(degree=2)
    op = task.operator_index
    pick = make_meta_action(task, (op["(pick-up arm1 a)"],))
    pick_add, pick_delete = action_effects(task, pick.atoms)
    holding = (sets(task).init - pick_delete) | pick_add
    stack = make_meta_action(task, (op["(stack arm1 a b)"],))
    other = next(f for f in sets(task).goal
                 if f not in action_effects(task, stack.atoms)[0])
    states = [holding, holding | {other}]
    rows = [featurize_all(task, fact_mask(state), [stack], fc)[0]
            for state in states]
    for state, row in zip(states, rows):
        assert np.array_equal(row, featurize_reference(task, state, stack, fc))
    assert (rows[0][4], rows[1][4]) == (0.5, 1.0)
    assert len(_action_table(task, fc).index) == 1


def test_table_per_feature_config():
    task = build_task(MULTIBLOCKS_DOMAIN, TWO_GOAL_PROBLEM)
    actions = applicable_actions(task, task.init_mask, 2,
                                 build_conflict_set(task))
    configs = [FeatureConfig(degree=2), FeatureConfig(degree=3),
               FeatureConfig(degree=2, d_hash=8)]
    for fc in configs:
        _assert_rows_match_reference(task, sets(task).init, actions, fc)
    tables = [_action_table(task, fc) for fc in configs]
    assert len({id(t) for t in tables}) == len(configs)
    assert all(len(t.index) == len(actions) for t in tables)


def test_replaced_goal_gets_a_fresh_table():
    """``dataclasses.replace`` makes a new task, which builds its own table
    for its own goal."""
    task = build_task(MULTIBLOCKS_DOMAIN, TWO_GOAL_PROBLEM)
    fc = FeatureConfig(degree=2)
    actions = applicable_actions(task, task.init_mask, 2,
                                 build_conflict_set(task))
    _assert_rows_match_reference(task, sets(task).init, actions, fc)
    on_a_b = next(f for f in sets(task).goal
                  if str(task.facts[f]) == "(on a b)")
    holding_a = next(f for f, fact in enumerate(task.facts)
                     if str(fact) == "(holding arm1 a)")
    moved = dataclasses.replace(task,
                                goal_mask=fact_mask({on_a_b, holding_a}))
    assert _action_table(moved, fc) is not _action_table(task, fc)
    _assert_rows_match_reference(moved, sets(moved).init, actions, fc)


def test_table_counts_wider_than_int8_stay_exact():
    """One operator adds 15 facts of arity 8: at d_hash 1 its bucket count
    is 135, past int8, so the table picks a wider integer type."""
    params = " ".join(f"?v{i}" for i in range(8))
    preds = [f"p{k}" for k in range(15)]
    domain = (
        "(define (domain wide) (:requirements :strips) (:predicates (ready) "
        + " ".join(f"({p} {params})" for p in preds)
        + f") (:action spread :parameters ({params}) :precondition (and "
        "(ready)) :effect (and (not (ready)) "
        + " ".join(f"({p} {params})" for p in preds) + ")))")
    problem = ("(define (problem wide-1) (:domain wide) (:objects o) "
               "(:init (ready)) (:goal (and (p0 o o o o o o o o))))")
    task = build_task(domain, problem)
    fc = FeatureConfig(degree=1, d_hash=1)
    actions = applicable_actions(task, task.init_mask, 1,
                                 build_conflict_set(task))
    _assert_rows_match_reference(task, sets(task).init, actions, fc)
    # The 135 added counts, less the deleted (ready).
    assert featurize_all(task, task.init_mask, actions,
                         fc)[0, -1] == 134
    assert _action_table(task, fc).static.dtype == np.int16


def test_table_rows_exact_across_build_blocks_and_the_top_fact():
    """One ``rows`` call over every conflict-free triple of a depots task
    whose 26 facts end mid-byte, some of them touching the highest fact id:
    rows on both sides of each block boundary, and a seeded sample of the
    others, equal the per-action reference at two states."""
    task = depots_task(seed=0, trucks=2)
    n = len(task.facts)
    assert n % 8 != 0
    fc = FeatureConfig(degree=3)
    actions = applicable_actions(task, (1 << n) - 1, 3,
                                 build_conflict_set(task))
    block = policy._BUILD_BLOCK
    assert len(actions) > block
    top = [i for i, a in enumerate(actions)
           if (a.add_mask | a.delete_mask) >> (n - 1) & 1]
    assert top
    table = _action_table(task, fc)
    rows = table.rows(actions)
    assert np.array_equal(rows, np.arange(len(actions)))
    edges = {top[0], top[-1], len(actions) - 1}
    for start in range(0, len(actions), block):
        edges |= {max(start - 1, 0), start}
    sample = random.Random(n).sample(range(len(actions)), 200)
    picked = sorted(edges | set(sample))
    walk = random.Random(1)
    later = frozenset(f for f in range(n) if walk.random() < 0.5)
    for state in (sets(task).init, later):
        feats = table_features(task, fc, rows[picked], fact_mask(state))
        want = np.stack([featurize_reference(task, state, actions[i], fc)
                         for i in picked])
        assert np.array_equal(feats, want)


def test_table_row_cap_raises(monkeypatch):
    task = build_task(MULTIBLOCKS_DOMAIN, TWO_GOAL_PROBLEM)
    fc = FeatureConfig(degree=2)
    actions = applicable_actions(task, task.init_mask, 2,
                                 build_conflict_set(task))
    monkeypatch.setattr(policy, "MAX_TABLE_ROWS", len(actions) - 1)
    featurize_all(task, task.init_mask, actions[:2], fc)
    with pytest.raises(CapacityError, match="feature table") as err:
        featurize_all(task, task.init_mask, actions, fc)
    assert (err.value.count, err.value.cap) == (len(actions), len(actions) - 1)
    # The failed call added no row.
    assert len(_action_table(task, fc).index) == 2


def test_uniform_distribution_at_zero_weights(probe_task, probe_conflicts):
    fc = FeatureConfig(degree=2)
    actions = applicable_actions(probe_task, probe_task.init_mask, 2,
                                 probe_conflicts)
    score = policy.scorer(probe_task, init_params(fc), fc)
    dist = score(probe_task.init_mask, actions)[2]
    assert np.allclose(dist, 1.0 / len(actions))
    assert abs(dist.sum() - 1.0) < 1e-9
    assert np.all(dist > 0)


def test_single_action_distribution():
    logits = np.array([[1.0, 2.0]]) @ np.array([0.3, -0.2])
    assert _softmax(logits).tolist() == [1.0]


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(6, 5))
    weights = rng.normal(size=5)
    base = _softmax(feats @ weights)
    shifted = _softmax(feats @ weights + 0.0)
    # adding a constant to every logit: append a constant feature column
    feats2 = np.hstack([feats, np.ones((6, 1))])
    dist2 = _softmax(feats2 @ np.append(weights, 7.3))
    assert np.allclose(base, dist2, atol=1e-9)
    assert np.allclose(base, shifted)
    assert greedy_action(base) == greedy_action(dist2)


_LOGIT_SCALES = st.sampled_from([1.0, 1e-3, 50.0, 700.0, 1e5, 1e300])


@given(data=st.data(), n=st.integers(1, 40), dim=st.integers(1, 6),
       scale=_LOGIT_SCALES, ties=st.booleans())
@settings(max_examples=300, deadline=None)
def test_action_distribution_bits_equal_temporaries(data, n, dim, scale,
                                                    ties):
    """The in-place softmax gives the same bits as the formula with
    temporaries: single actions, tied logits (repeated feature rows) and
    logits large enough to underflow every action but the best."""
    values = st.floats(-1.0, 1.0, allow_nan=False)
    weights = np.array(data.draw(st.lists(values, min_size=dim,
                                          max_size=dim))) * scale
    rows = data.draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                              min_size=1, max_size=n))
    if ties:
        rows = [rows[i] for i in data.draw(st.lists(
            st.integers(0, len(rows) - 1), min_size=n, max_size=n))]
    feats = np.array(rows, dtype=np.float64)
    params = PolicyParams(weights=weights)
    got = _softmax(feats @ weights)
    want = action_distribution(params, feats)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_action_distribution_tied_and_huge_logits():
    params = PolicyParams(weights=np.array([1e300, -1e300]))
    feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.0]])
    got = _softmax(feats @ params.weights)
    assert got.tobytes() == action_distribution(params, feats).tobytes()
    assert got.tolist() == [0.5, 0.5, 0.0, 0.0]
    # Past the largest float the products overflow: no distribution.
    for top in (np.inf, np.nan):
        with pytest.raises(FloatingPointError, match="not finite"):
            _softmax(np.array([top, 0.0]))


def _running_sums(dist):
    """The running sums a scorer keeps beside its distribution."""
    return list(itertools.accumulate(dist.tolist()))


def test_sample_action_degenerate():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample_action([1.0], rng) == 0


def test_sample_action_seeded_reproducible():
    cumulative = _running_sums(np.array([0.2, 0.5, 0.3]))
    a = [sample_action(cumulative, np.random.default_rng(42))
         for _ in range(10)]
    b = [sample_action(cumulative, np.random.default_rng(42))
         for _ in range(10)]
    assert a == b


def test_sample_action_frequencies():
    cumulative = _running_sums(np.array([0.25, 0.75]))
    rng = np.random.default_rng(7)
    draws = np.array([sample_action(cumulative, rng)
                      for _ in range(100_000)])
    freq = (draws == 1).mean()
    assert abs(freq - 0.75) < 0.01


class _FixedDraw:
    """A generator stand-in whose ``random()`` returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@given(weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1e3)),
                        min_size=1, max_size=40),
       u=st.floats(0.0, 1.0, exclude_max=True), tie=st.integers(0, 39),
       at_tie=st.booleans())
@settings(max_examples=300, deadline=None)
def test_sample_action_equals_numpy_cumsum(weights, u, tie, at_tie):
    """The draw from the running sums of ``dist`` is the index
    ``searchsorted(cumsum(dist), u, "right")`` would give, clamped to the
    last action, including at ``u`` equal to a partial sum."""
    if sum(weights) == 0.0:
        weights[0] = 1.0
    dist = np.array(weights) / np.sum(weights)
    cumsum = np.cumsum(dist)
    if at_tie:
        u = float(cumsum[tie % len(dist)])
    expect = min(int(np.searchsorted(cumsum, u, side="right")), len(dist) - 1)
    assert sample_action(_running_sums(dist), _FixedDraw(u)) == expect


# ---------------------------------------------------------------------------
# Update correctness
# ---------------------------------------------------------------------------

def _random_decision_steps(rng, n_steps, dim):
    steps = []
    for _ in range(n_steps):
        k = rng.integers(2, 7)
        feats = rng.normal(size=(k, dim))
        taken = int(rng.integers(k))
        logits = feats @ rng.normal(size=dim) * 0.3
        logp = logits - logits.max()
        logp = logp - np.log(np.exp(logp).sum())
        steps.append(DecisionStep(feats=feats, taken=taken,
                                  old_logp=float(logp[taken]),
                                  advantage=float(rng.normal())))
    return steps


@pytest.mark.parametrize("trial", range(3))
def test_gradient_matches_finite_differences(trial):
    rng = np.random.default_rng(100 + trial)
    dim = 8
    batch = decision_batch(_random_decision_steps(rng, 12, dim), dim)
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


def _steps_with_ratios(rng, sizes, dim, log_ratio_scale):
    """Decision steps whose old log-probs sit ``log_ratio_scale`` away from
    the current ones, so ratios fall inside and outside the clip range."""
    w = rng.normal(size=dim) * 0.5
    steps = []
    for k in sizes:
        feats = rng.normal(size=(k, dim))
        taken = int(rng.integers(k))
        logp = _log_softmax_reference(feats @ w)
        steps.append(DecisionStep(
            feats=feats, taken=taken,
            old_logp=float(logp[taken] + rng.normal() * log_ratio_scale),
            advantage=float(rng.normal())))
    return w, steps


@pytest.mark.parametrize("sizes,scale,entropy_coef", [
    ([1, 1, 1], 0.5, 0.01),
    ([1, 4, 1, 7, 2], 0.05, 0.01),
    ([3, 5, 2, 9, 1, 6] * 5, 1.0, 0.01),
    ([2, 3, 6, 1] * 4, 1.0, 0.0),
    ([40, 1, 130], 0.3, 0.05),
])
def test_surrogate_equals_loop_reference(sizes, scale, entropy_coef):
    rng = np.random.default_rng(len(sizes) + int(100 * scale))
    w, steps = _steps_with_ratios(rng, sizes, 9, scale)
    ratios = [np.exp(_log_softmax_reference(s.feats @ w)[s.taken]
                     - s.old_logp) for s in steps]
    if scale >= 0.3:
        assert any(abs(r - 1.0) > 0.2 for r in ratios)
    value, grad = surrogate_objective(w, decision_batch(steps, 9), 0.2,
                                      entropy_coef)
    ref_value, ref_grad = surrogate_reference(w, steps, 0.2, entropy_coef)
    np.testing.assert_allclose(value, ref_value, rtol=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12)


def test_surrogate_no_steps():
    value, grad = surrogate_objective(np.ones(4), decision_batch([], 4), 0.2,
                                      0.01)
    assert value == 0.0 and np.array_equal(grad, np.zeros(4))


def test_zero_advantage_no_entropy_leaves_weights(probe_task):
    fc = FeatureConfig(degree=2)
    params = init_params(fc)
    cfg = TrainConfig(entropy_coef=0.0, seed=0)
    env_cfg = EnvConfig(degree=2, max_steps=5)
    trace = rollout(probe_task, env_cfg, lambda s, a: 0)
    trace.rewards = [0.0] * len(trace.rewards)  # forces all advantages to 0
    updated = policy_update(params, [trace], cfg, env_cfg,
                            index_record([trace], env_cfg, fc), fc)
    assert np.array_equal(updated.weights, params.weights)
    assert updated.version == params.version + 1


def test_positive_advantage_raises_taken_probability(probe_task,
                                                     probe_conflicts):
    """One-step episode taking the goal-progress action (stack a onto b,
    which has distinct features from its alternatives)."""
    from metaplan.env import EpisodeTrace
    fc = FeatureConfig(degree=2)
    params = init_params(fc)
    env_cfg = EnvConfig(degree=2, max_steps=1)
    cfg = TrainConfig(entropy_coef=0.0, learning_rate=0.05, seed=0)
    task = probe_task
    pick = make_meta_action(task, (task.operator_index["(pick-up arm1 a)"],))
    pick_add, pick_delete = action_effects(task, pick.atoms)
    holding = (sets(task).init - pick_delete) | pick_add
    stack = make_meta_action(task, (task.operator_index["(stack arm1 a b)"],))
    stack_add, stack_delete = action_effects(task, stack.atoms)
    trace = EpisodeTrace(
        masks=[fact_mask(holding),
               fact_mask((holding - stack_delete) | stack_add)],
        actions=[stack], rewards=[1.0], reason="goal", task=task)
    updated = policy_update(params, [trace], cfg, env_cfg,
                            index_record([trace], env_cfg, fc), fc)
    actions = applicable_actions(task, holding, 2, probe_conflicts)
    taken = next(i for i, a in enumerate(actions) if a.atoms == stack.atoms)
    feats = featurize_all(task, fact_mask(holding), actions, fc)
    before = action_distribution(params, feats)[taken]
    after = action_distribution(updated, feats)[taken]
    assert after > before


def test_baseline_running_mean(probe_task):
    fc = FeatureConfig(degree=2)
    params = init_params(fc)
    env_cfg = EnvConfig(degree=2, max_steps=2)
    cfg = TrainConfig(seed=0)
    traces = [rollout(probe_task, env_cfg, lambda s, a: 0) for _ in range(3)]
    updated = policy_update(params, traces, cfg, env_cfg,
                            index_record(traces, env_cfg, fc), fc)
    assert updated.return_count == 3
    from metaplan import discounted_return
    expect = np.mean([discounted_return(t.rewards, env_cfg.gamma)
                      for t in traces])
    assert updated.baseline == pytest.approx(float(expect))


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        policy_update(init_params(FeatureConfig(degree=2)), [],
                      TrainConfig(), EnvConfig(), [], FeatureConfig(degree=2))


def test_batch_of_two_tasks_rejected(probe_task):
    """A batch holds the episodes of one task, whose action feature table
    gives every decision's features."""
    fc = FeatureConfig(degree=2)
    env_cfg = EnvConfig(degree=2, max_steps=3)
    other = ground(*generate(custom_spec("multiblocks", seed=3, blocks=3,
                                         arms=1)))
    batch = [rollout(task, env_cfg, lambda s, a: 0)
             for task in (probe_task, other)]
    with pytest.raises(ValueError, match="one task"):
        policy_update(init_params(fc), batch, TrainConfig(), env_cfg,
                      index_record(batch, env_cfg, fc), fc)


def test_old_logp_recomputation_matches_rollout_policy(probe_task):
    """The update recomputes rollout-time log-probs exactly: with incoming
    params every ratio starts at 1."""
    fc = FeatureConfig(degree=2)
    rng = np.random.default_rng(5)
    params = PolicyParams(weights=rng.normal(size=fc.dim) * 0.1)
    env_cfg = EnvConfig(degree=2, max_steps=6)
    table = _action_table(probe_task, fc)
    decisions = []

    def choose(state, available):
        rows = policy.featurize_all(probe_task, available, fc)
        decisions.append((rows, table.goal_columns(rows, state), 0))
        return 0

    trace = rollout(probe_task, env_cfg, choose)
    steps = _decision_steps([trace], decisions, params, env_cfg, fc)
    value, _ = surrogate_objective(params.weights, steps, 0.2, 0.0)
    assert value == pytest.approx(np.mean(steps.advantage))


def _recorded_batch(task, params, env_cfg, fc, episodes, seed):
    """Episodes sampled from ``params`` with the decision record ``train``
    keeps: the table rows, their goal columns at the state and the index
    taken."""
    rng = np.random.default_rng(seed)
    table = _action_table(task, fc)
    decisions = []

    def choose(state, available):
        feats = featurize_all(task, state, available, fc)
        taken = sample_action(
            _running_sums(action_distribution(params, feats)), rng)
        rows = policy.featurize_all(task, available, fc)
        decisions.append((rows, table.goal_columns(rows, state), taken))
        return taken

    batch = [rollout(task, env_cfg, choose) for _ in range(episodes)]
    return batch, decisions


def _batch_features(batch):
    """The (N, dim) features of ``batch``: each row's distinct row with its
    goal columns added."""
    feats = batch.rows[batch.inv]
    feats[:, 2:5:2] += batch.goal
    return feats


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_recorded_decisions_equal_re_enumeration(probe_task, degree):
    """The record made at rollout gives the features of re-enumeration
    exactly: its rows at the decision's state give the whole rows, and its
    goal columns are their columns 2 and 4. So do the decision steps built
    from it. Log-probs are
    computed over the whole batch, so against the per-decision loop they
    match at the surrogate's tolerance, not bit for bit."""
    fc = FeatureConfig(degree=degree)
    rng = np.random.default_rng(degree)
    params = PolicyParams(weights=rng.normal(size=fc.dim) * 0.3,
                          baseline=0.4)
    env_cfg = EnvConfig(degree=degree, max_steps=8, meta_reward=0.01)
    batch, decisions = _recorded_batch(probe_task, params, env_cfg, fc, 5,
                                       degree)
    rebuilt = decisions_reference(batch, env_cfg, fc)
    states = [mask for trace in batch for mask in trace.masks[:-1]]
    assert [t for _, _, t in decisions] == [t for _, t in rebuilt]
    assert len(states) == len(decisions)
    for (rows, goal, _), state, (b, _) in zip(decisions, states, rebuilt):
        assert np.array_equal(table_features(probe_task, fc, rows, state), b)
        assert np.array_equal(goal, b[:, 2:5:2])

    got = _decision_steps(batch, decisions, params, env_cfg, fc)
    want = decision_steps_reference(batch, rebuilt, params, env_cfg)
    again = decision_batch(want, fc.dim)
    assert np.array_equal(_batch_features(got),
                          np.concatenate([s.feats for s in want]))
    for name in ("starts", "segment", "taken", "advantage"):
        assert np.array_equal(getattr(got, name), getattr(again, name))
    assert len(got) == len(want) > 0
    assert np.array_equal(got.taken - got.starts, [s.taken for s in want])
    assert np.array_equal(got.advantage, [s.advantage for s in want])
    np.testing.assert_allclose(got.old_logp, [s.old_logp for s in want],
                               rtol=1e-12)


def _table_form_batch(task, degree, seed):
    """A batch built from a rollout record of six episodes, which all start
    at the task's initial state, so its table rows repeat."""
    fc = FeatureConfig(degree=degree)
    rng = np.random.default_rng(seed)
    params = PolicyParams(weights=rng.normal(size=fc.dim) * 0.3,
                          baseline=0.2)
    env_cfg = EnvConfig(degree=degree, max_steps=8, meta_reward=0.01)
    batch, decisions = _recorded_batch(task, params, env_cfg, fc, 6, seed)
    return fc, decisions, _decision_steps(batch, decisions, params, env_cfg,
                                          fc)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_table_rows_and_identity_form_agree(probe_task, degree):
    """The surrogate through a batch's distinct table rows equals the
    surrogate through the identity form of the same exact features, whose
    every row is its own. The bias column's gradient vanishes analytically,
    and there the two sums round differently, so the gradient is compared
    at the relative tolerance of its largest entry."""
    fc, _, batch = _table_form_batch(probe_task, degree, 10 + degree)
    assert len(batch.rows) < len(batch.inv)
    feats = _batch_features(batch)
    identity = dataclasses.replace(batch, rows=feats,
                                   inv=np.arange(len(feats)),
                                   goal=np.zeros((len(feats), 2)))
    rng = np.random.default_rng(degree)
    for scale, entropy_coef in ((0.3, 0.01), (1.0, 0.0), (1.0, 0.05)):
        w = rng.normal(size=fc.dim) * scale
        value, grad = surrogate_objective(w, batch, 0.2, entropy_coef)
        want, want_grad = surrogate_objective(w, identity, 0.2,
                                              entropy_coef)
        np.testing.assert_allclose(value, want, rtol=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(want_grad).max())


def test_table_form_gradient_matches_finite_differences(probe_task):
    """Criterion 6's check on a batch of distinct table rows. A column that
    is constant within every decision, such as the bias, shifts all logits
    of a decision alike and so leaves the surrogate unchanged: there both
    the gradient and the finite difference are rounding noise, and the
    check is that they are near zero."""
    fc, _, batch = _table_form_batch(probe_task, 2, 7)
    feats = _batch_features(batch)
    flat = np.all(feats == feats[batch.starts[batch.segment]], axis=0)
    assert flat[0] and not flat.all()
    rng = np.random.default_rng(7)
    w = rng.normal(size=fc.dim) * 0.5
    _, grad = surrogate_objective(w, batch, 0.2, 0.01)
    h = 1e-6
    for i in range(fc.dim):
        e = np.zeros(fc.dim)
        e[i] = h
        hi, _ = surrogate_objective(w + e, batch, 0.2, 0.01)
        lo, _ = surrogate_objective(w - e, batch, 0.2, 0.01)
        fd = (hi - lo) / (2 * h)
        if flat[i]:
            assert abs(grad[i]) < 1e-12 and abs(fd) < 1e-9
            continue
        denom = max(abs(fd), abs(grad[i]), 1e-8)
        assert abs(grad[i] - fd) / denom < 1e-5


def test_batch_holds_each_distinct_row_once(probe_task):
    """A degree-3 batch holds one float row per distinct table row of its
    record, and no float array of one entry per row and feature."""
    fc, decisions, batch = _table_form_batch(probe_task, 3, 5)
    ids = np.concatenate([rows for rows, _, _ in decisions])
    n = len(ids)
    assert len(batch.rows) == len(np.unique(ids)) < n
    assert batch.inv.shape == (n,) and batch.goal.shape == (n, 2)
    floats = [value for value in vars(batch).values()
              if value.dtype.kind == "f"]
    assert len(floats) == 4
    assert all(value.size != n * fc.dim for value in floats)


def test_distinct_rows_equal_unique_with_inverse(probe_task):
    """The presence-mask ``distinct``/``inv`` of a batch's row ids equal
    ``np.unique(..., return_inverse=True)``: on random id batches over a
    table, on an empty batch, a single row and the table's last row."""
    fc = FeatureConfig(degree=2)
    table = _action_table(probe_task, fc)
    actions = applicable_actions(probe_task, probe_task.init_mask, 2,
                                 build_conflict_set(probe_task))
    table.rows(actions)
    n_rows = len(table.index)
    last = n_rows - 1
    rng = np.random.default_rng(0)
    batches = [np.zeros(0, dtype=np.intp), np.array([3], dtype=np.intp),
               np.array([last], dtype=np.intp),
               np.array([last, 0, last], dtype=np.intp)]
    batches += [rng.integers(0, n_rows, size=size).astype(np.intp)
                for size in (1, 2, 17, 500)]
    batches += [rng.integers(0, n_rows // 3, size=40).astype(np.intp)]
    for ids in batches:
        distinct, inv = _distinct_rows(ids, n_rows)
        want_distinct, want_inv = np.unique(ids, return_inverse=True)
        assert np.array_equal(distinct, want_distinct)
        assert np.array_equal(inv, want_inv)
        assert inv.shape == ids.shape and inv.dtype == np.intp


def test_batch_of_no_decisions(probe_task):
    """Episodes that take no action give an empty batch, whose surrogate is
    zero with a zero gradient, and an update that keeps the weights."""
    from metaplan.env import EpisodeTrace
    fc = FeatureConfig(degree=2)
    params = PolicyParams(weights=np.full(fc.dim, 0.1))
    env_cfg = EnvConfig(degree=2, max_steps=4)
    trace = EpisodeTrace(masks=[probe_task.init_mask], actions=[],
                         rewards=[], reason="step_limit", task=probe_task)
    batch = _decision_steps([trace], [], params, env_cfg, fc)
    assert len(batch) == 0 and batch.rows.shape == (0, fc.dim)
    value, grad = surrogate_objective(params.weights, batch, 0.2, 0.01)
    assert value == 0.0 and np.array_equal(grad, np.zeros(fc.dim))
    updated = policy_update(params, [trace], TrainConfig(seed=0), env_cfg,
                            [], fc)
    assert np.array_equal(updated.weights, params.weights)


def test_recorded_and_replayed_updates_agree(probe_task):
    """The update from the rollout's record equals the update from the
    record rebuilt by re-enumerating the traces."""
    fc = FeatureConfig(degree=2)
    params = PolicyParams(weights=np.full(fc.dim, 0.05), baseline=0.1)
    env_cfg = EnvConfig(degree=2, max_steps=6)
    cfg = TrainConfig(seed=0)
    batch, decisions = _recorded_batch(probe_task, params, env_cfg, fc, 4, 3)
    recorded = policy_update(params, batch, cfg, env_cfg, decisions, fc)
    replayed = policy_update(params, batch, cfg, env_cfg,
                             index_record(batch, env_cfg, fc), fc)
    assert np.array_equal(recorded.weights, replayed.weights)
    with pytest.raises(ValueError, match="decisions recorded"):
        policy_update(params, batch, cfg, env_cfg, decisions[:-1], fc)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def test_train_rejects_features_of_another_degree(blocks3_task):
    """The degree feature is scaled by the features' degree, so a config
    of another degree than the environment's is refused."""
    cfg = TrainConfig(iterations=1, episodes_per_iteration=1, seed=3)
    with pytest.raises(ValueError, match="feature degree 1 differs from "
                                         "the environment's degree 3"):
        train([blocks3_task], EnvConfig(degree=3), cfg,
              FeatureConfig(degree=1))


def test_zero_iterations_returns_initial_params(blocks3_task):
    cfg = TrainConfig(iterations=0, seed=1)
    env_cfg = EnvConfig(degree=1)
    result = train([blocks3_task], env_cfg, cfg)
    assert np.array_equal(result.params.weights,
                          init_params(FeatureConfig(degree=1)).weights)
    assert result.curve == []


def test_train_deterministic_under_seed(blocks3_task):
    cfg = TrainConfig(iterations=4, episodes_per_iteration=4, seed=9)
    env_cfg = EnvConfig(degree=2, max_steps=15)
    a = train([blocks3_task], env_cfg, cfg)
    b = train([blocks3_task], env_cfg, cfg)
    assert np.array_equal(a.params.weights, b.params.weights)
    assert json.dumps(a.curve) == json.dumps(b.curve)


def test_train_progresses(blocks3_task):
    cfg = TrainConfig(iterations=3, episodes_per_iteration=4, seed=2)
    env_cfg = EnvConfig(degree=1, max_steps=20)
    result = train([blocks3_task], env_cfg, cfg)
    assert result.params.version == 3
    assert len(result.curve) == 3
    for record in result.curve:
        assert set(record) >= {"iteration", "mean_return", "coverage",
                               "mean_parallelism"}


def train_reference(tasks, env_cfg, cfg, fc):
    """``train``'s loop with every decision featurized and scored anew, by
    :func:`_recorded_batch`'s chooser. Returns the params, the curve and
    the number of decisions made at a state already seen in their batch."""
    rng = np.random.default_rng(cfg.seed)
    params = init_params(fc)
    curve = []
    revisits = 0
    for iteration in range(cfg.iterations):
        task = tasks[int(rng.integers(len(tasks)))]
        # default_rng returns a Generator as it is, so the batch draws from
        # this loop's generator.
        batch, decisions = _recorded_batch(task, params, env_cfg, fc,
                                           cfg.episodes_per_iteration, rng)
        states = [mask for trace in batch for mask in trace.masks[:-1]]
        revisits += len(states) - len(set(states))
        params = policy_update(params, batch, cfg, env_cfg, decisions, fc)
        solved = [t for t in batch if t.reason == "goal"]
        rates = [sum(a.degree >= 2 for a in t.actions) / len(t.actions)
                 for t in solved if t.actions]
        curve.append({
            "iteration": iteration,
            "task": task.problem_name,
            "mean_return": float(np.mean([
                discounted_return(t.rewards, env_cfg.gamma) for t in batch])),
            "coverage": len(solved) / len(batch),
            "mean_parallelism": float(np.mean(rates)) if rates else None,
        })
    return params, curve, revisits


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("domain", sorted(SHAPES))
def test_train_equals_unmemoized_reference(domain, degree, seed):
    """Scoring each state once per batch changes nothing: the curve and
    the params equal the loop that scores every decision anew, bit for
    bit, on batches that revisit states."""
    tasks = [ground(*generate(custom_spec(domain, seed=seed + k,
                                          **SHAPES[domain])))
             for k in (2, 3)]
    env_cfg = EnvConfig(degree=degree, max_steps=15, meta_reward=0.01)
    cfg = TrainConfig(iterations=4, episodes_per_iteration=6,
                      learning_rate=0.5, seed=seed)
    fc = FeatureConfig(degree=degree)
    got = train(tasks, env_cfg, cfg, fc)
    params, curve, revisits = train_reference(tasks, env_cfg, cfg, fc)
    assert revisits > 0
    assert json.dumps(got.curve) == json.dumps(curve)
    assert np.array_equal(got.params.weights, params.weights)
    assert (got.params.baseline, got.params.return_count,
            got.params.version) == (params.baseline, params.return_count,
                                    params.version)


def test_train_featurizes_each_state_once_per_batch(monkeypatch,
                                                     blocks3_task):
    """Each iteration scores every distinct decision state of its batch
    exactly once, however often the batch revisits it, and the next
    iteration, under new params, scores it again: the goal columns, the one
    part of a row that depends on the state, are computed once per scored
    state, and the update reuses them."""
    scored = []
    per_batch = []
    goal_columns = policy._ActionTable.goal_columns

    def spy_goal_columns(table, rows, state):
        scored.append(state)
        return goal_columns(table, rows, state)

    def spy_update(params, batch, *args):
        states = [mask for trace in batch for mask in trace.masks[:-1]]
        per_batch.append((sorted(scored), states))
        scored.clear()
        return policy_update(params, batch, *args)

    monkeypatch.setattr(policy._ActionTable, "goal_columns",
                        spy_goal_columns)
    monkeypatch.setattr(policy, "policy_update", spy_update)
    cfg = TrainConfig(iterations=4, episodes_per_iteration=6, seed=3)
    train([blocks3_task], EnvConfig(degree=2, max_steps=15), cfg)
    assert len(per_batch) == cfg.iterations and not scored
    init = blocks3_task.init_mask
    for calls, states in per_batch:
        assert calls == sorted(set(states))
        assert len(states) > len(calls)
        assert init in calls


def _assert_scores_match_reference(score, task, state, actions, weights,
                                   fc):
    """The scorer's distribution at ``state`` is the softmax over the
    per-action feature rows, and its greedy action is the same."""
    feats = np.stack([featurize_reference(task, state, a, fc)
                      for a in actions])
    want = action_distribution(PolicyParams(weights=weights), feats)
    dist = score(fact_mask(state), actions)[2]
    np.testing.assert_allclose(dist, want, rtol=1e-12)
    assert greedy_action(dist) == greedy_action(want)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("domain", sorted(SHAPES))
def test_scorer_equals_softmax_over_reference_rows(domain, degree):
    """At the states of random walks, under weights of several scales, the
    scorer's two-part logits give the softmax over the per-action feature
    rows. The scorer is made before the walk, so the table and its kept
    base logits grow together."""
    task = ground(*generate(custom_spec(domain, seed=degree,
                                        **SHAPES[domain])))
    conflict_set = build_conflict_set(task)
    fc = FeatureConfig(degree=degree)
    rng = np.random.default_rng(degree)
    walk = random.Random(degree)
    for scale in (0.3, 3.0):
        weights = rng.normal(size=fc.dim) * scale
        score = policy.scorer(task, PolicyParams(weights=weights), fc)
        state = sets(task).init
        for _ in range(10):
            actions = applicable_actions(task, state, degree, conflict_set)
            if not actions:
                break
            _assert_scores_match_reference(score, task, state, actions,
                                           weights, fc)
            add, delete = action_effects(task, walk.choice(actions).atoms)
            state = (state - delete) | add


def test_scorer_fills_base_logits_across_build_blocks():
    """A scorer whose cache was filled at the initial state meets a state
    that adds more than a build block of rows: the fill crosses a block
    edge, and the distributions at both states still equal the reference."""
    task = depots_task(seed=0, trucks=2)
    fc = FeatureConfig(degree=3)
    weights = np.random.default_rng(3).normal(size=fc.dim)
    score = policy.scorer(task, PolicyParams(weights=weights), fc)
    conflict_set = build_conflict_set(task)
    table = _action_table(task, fc)
    init = sets(task).init
    _assert_scores_match_reference(
        score, task, init, applicable_actions(task, init, 3, conflict_set),
        weights, fc)
    filled = len(table.index)
    everything = frozenset(range(len(task.facts)))
    actions = applicable_actions(task, everything, 3, conflict_set)
    _assert_scores_match_reference(score, task, everything, actions, weights,
                                   fc)
    assert len(table.index) - filled > policy._BUILD_BLOCK


def test_scorer_keeps_the_running_sums_it_samples_from(blocks3_task):
    """A scorer's scores end with the running sums of their distribution,
    summed at the first visit and handed back at every revisit."""
    task = blocks3_task
    fc = FeatureConfig(degree=2)
    rng = np.random.default_rng(5)
    params = dataclasses.replace(init_params(fc),
                                 weights=rng.normal(size=fc.dim))
    score = policy.scorer(task, params, fc)
    n = build_conflict_set(task)
    state, seen = task.init_mask, 0
    for _ in range(12):
        available = applicable_actions(task, state, 2, n)
        if not available:
            break
        first = score(state, available)
        assert score(state, available) is first
        dist, cumulative = first[2], first[3]
        assert cumulative == _running_sums(dist)
        seen += len(available) > 1
        _, add_mask, delete_mask = available[greedy_action(dist)]
        state = (state & ~delete_mask) | add_mask
    assert seen


def test_checkpoint_round_trip(tmp_path):
    fc = FeatureConfig(degree=2, d_hash=16)
    params = PolicyParams(weights=np.arange(fc.dim, dtype=np.float64),
                          baseline=0.25, return_count=12, version=3)
    path = tmp_path / "ckpt.json"
    save_checkpoint(Checkpoint(params=params, feature=fc, seed=77), str(path))
    loaded = load_checkpoint(str(path))
    assert np.array_equal(loaded.params.weights, params.weights)
    assert loaded.params.baseline == params.baseline
    assert loaded.params.version == 3
    assert loaded.feature == fc
    assert loaded.seed == 77


def _checkpoint_json(**changes):
    fc = FeatureConfig(degree=2, d_hash=8)
    data = Checkpoint(PolicyParams(np.zeros(fc.dim)), fc, 0).to_json()
    data.update(changes)
    return data


@pytest.mark.parametrize("data,message", [
    (_checkpoint_json(schema_version=99, weights=[0.0, 0.0]),
     "^schema_version 99, expected 1$"),
    (_checkpoint_json(weights=[0.0, 0.0]), "need 14 finite weights"),
    (_checkpoint_json(weights=[0.0] * 13 + [float("nan")]), "finite"),
    (_checkpoint_json(feature={"degree": 2}), "missing key 'd_hash'"),
    (_checkpoint_json(feature={"degree": 0, "d_hash": 8}), "degree 0"),
    (_checkpoint_json(baseline="high"), "malformed value"),
    ({"schema_version": 1}, "missing key"),
    ([1, 2], "not a JSON object"),
    ({"weights": []}, "^schema_version None"),
    (_checkpoint_json(baseline=float("nan")), "^non-finite baseline nan$"),
    (_checkpoint_json(baseline=float("-inf")), "^non-finite baseline -inf$"),
    (_checkpoint_json(feature={"degree": 2.7, "d_hash": 8}),
     "^malformed value: degree 2.7 is not an integer$"),
    (_checkpoint_json(feature={"degree": True, "d_hash": 8}),
     "^malformed value: degree True is not an integer$"),
    (_checkpoint_json(feature={"degree": "2", "d_hash": 8}),
     "^malformed value: degree '2' is not an integer$"),
    (_checkpoint_json(feature={"degree": 2, "d_hash": 8.0}),
     "^malformed value: d_hash 8.0 is not an integer$"),
    (_checkpoint_json(return_count=-5),
     "^malformed value: return_count -5 < 0$"),
    (_checkpoint_json(return_count=False),
     "^malformed value: return_count False is not an integer$"),
    (_checkpoint_json(version=-1), "^malformed value: version -1 < 0$"),
    (_checkpoint_json(version="0"),
     "^malformed value: version '0' is not an integer$"),
    (_checkpoint_json(seed=-1), "^malformed value: seed -1 < 0$"),
    (_checkpoint_json(seed=1.5),
     "^malformed value: seed 1.5 is not an integer$"),
    (_checkpoint_json(baseline="0.5"),
     "^malformed value: baseline '0.5' is not a number$"),
    (_checkpoint_json(baseline=True),
     "^malformed value: baseline True is not a number$"),
    (_checkpoint_json(baseline=None),
     "^malformed value: baseline None is not a number$"),
    (_checkpoint_json(weights=["1"] + [0.0] * 13),
     "^malformed value: weight '1' is not a number$"),
    (_checkpoint_json(weights=[0.0] * 13 + [True]),
     "^malformed value: weight True is not a number$"),
    (_checkpoint_json(weights=[[0.0]] * 14),
     r"^malformed value: weight \[0.0\] is not a number$"),
    (_checkpoint_json(weights="0" * 14),
     "^malformed value: weights '0+' is not a list$"),
    (_checkpoint_json(baseline=10 ** 400),
     "^malformed value: int too large to convert to float$"),
])
def test_checkpoint_from_json_rejects_malformed(data, message):
    with pytest.raises(CheckpointError, match=message):
        Checkpoint.from_json(data)


def test_load_checkpoint_rejects_invalid_json(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text('{"weights": [', encoding="utf-8")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("name", ["learning_rate", "entropy_coef"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_train_config_rejects_non_finite_rates(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        TrainConfig(**{name: value})


def test_load_checkpoint_rejects_nan_baseline(tmp_path):
    """json reads the NaN literal, which is not JSON; a checkpoint holding
    it is malformed."""
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(_checkpoint_json(baseline=float("nan"))),
                    encoding="utf-8")
    assert '"baseline": NaN' in path.read_text(encoding="utf-8")
    with pytest.raises(CheckpointError, match="non-finite baseline"):
        load_checkpoint(str(path))


def test_train_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        TrainConfig(seed=-1)
    assert TrainConfig(seed=0).seed == 0


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(clip_epsilon=0.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(episodes_per_iteration=0)
