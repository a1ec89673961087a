"""Featurizer, distribution, sampling, and gradient/training correctness."""

import dataclasses
import json
import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplan import (CheckpointError, DeadEndError, EnvConfig, FeatureConfig,
                      TrainConfig, action_distribution, applicable_actions,
                      build_conflict_set, custom_spec, featurize,
                      featurize_all, generate, greedy_action, ground,
                      init_params, make_meta_action, policy_update, rollout,
                      sample_action, train)
from metaplan.policy import (Checkpoint, PolicyParams, _DecisionStep,
                             _decision_steps, _replay_decisions,
                             load_checkpoint, save_checkpoint,
                             surrogate_objective)
from tests.conftest import build_task
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
    goal = task.goal
    next_state = (state - action.delete) | action.add
    v[0] = 1.0
    v[1] = action.degree / fc.degree
    v[2] = len((action.add & goal) - state)
    v[3] = len(action.delete & goal)
    v[4] = len(goal & next_state) / len(goal) if goal else 1.0
    v[5] = len(action.add & goal)
    for indices, sign in ((action.add, 1.0), (action.delete, -1.0)):
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
        steps.append(_DecisionStep(feats=feats, taken=taken,
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
    holding = (task.init - pick.delete) | pick.add
    stack = make_meta_action(task, (task.operator_index["(stack arm1 a b)"],))
    v = featurize(task, holding, stack, fc)
    assert v[0] == 1.0
    assert v[2] == 1.0  # newly added goal facts
    assert v[3] == 0.0  # deleted goal facts
    assert v[4] == 0.5  # successor goal fraction
    assert v[5] == 1.0  # add effects in goal


def test_featurize_degree_fraction(probe_task, probe_conflicts):
    fc = FeatureConfig(degree=2)
    actions = applicable_actions(probe_task, probe_task.init, 2,
                                 probe_conflicts)
    for a in actions:
        v = featurize(probe_task, probe_task.init, a, fc)
        assert v[1] == a.degree / 2


def test_featurize_deterministic(probe_task, probe_conflicts):
    fc = FeatureConfig(degree=2)
    action = applicable_actions(probe_task, probe_task.init, 2,
                                probe_conflicts)[1]
    a = featurize(probe_task, probe_task.init, action, fc)
    b = featurize(probe_task, probe_task.init, action, fc)
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
    got = featurize_all(task, state, actions, fc)
    want = np.stack([featurize_reference(task, state, a, fc)
                     for a in actions])
    assert np.array_equal(got, want)
    assert np.array_equal(featurize(task, state, actions[-1], fc), want[-1])


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
    state = task.init
    for _ in range(6):
        actions = applicable_actions(task, state, degree, conflict_set)
        if not actions:
            break
        _assert_rows_match_reference(task, state, actions, fc)
        action = rng.choice(actions)
        state = (state - action.delete) | action.add


def test_featurize_all_empty_goal(probe_task, probe_conflicts):
    task = dataclasses.replace(probe_task, goal=frozenset())
    fc = FeatureConfig(degree=2)
    actions = applicable_actions(task, task.init, 2, probe_conflicts)
    _assert_rows_match_reference(task, task.init, actions, fc)
    assert np.all(featurize_all(task, task.init, actions, fc)[:, 4] == 1.0)


def test_featurize_all_single_action_state(probe_task):
    """One tower a-b-c-d and an empty hand: only unstacking a applies."""
    task = probe_task
    fc = FeatureConfig(degree=2)
    op = task.operator_index
    state = task.init
    for name in ("(pick-up arm1 c)", "(stack arm1 c d)", "(pick-up arm1 b)",
                 "(stack arm1 b c)", "(pick-up arm1 a)", "(stack arm1 a b)"):
        action = make_meta_action(task, (op[name],))
        state = (state - action.delete) | action.add
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
    holding = (task.init - pick.delete) | pick.add
    clash = make_meta_action(task, tuple(sorted(
        (op["(stack arm1 a b)"], op["(pick-up arm1 c)"]))))
    assert clash.add & clash.delete
    _assert_rows_match_reference(task, holding, [clash], fc)


def test_featurize_all_no_actions(probe_task):
    fc = FeatureConfig(degree=2)
    feats = featurize_all(probe_task, probe_task.init, [], fc)
    assert feats.shape == (0, fc.dim)
    with pytest.raises(DeadEndError):
        action_distribution(init_params(fc), feats)


def test_uniform_distribution_at_zero_weights(probe_task, probe_conflicts):
    fc = FeatureConfig(degree=2)
    params = init_params(fc)
    actions = applicable_actions(probe_task, probe_task.init, 2,
                                 probe_conflicts)
    dist = action_distribution(
        params, featurize_all(probe_task, probe_task.init, actions, fc))
    assert np.allclose(dist, 1.0 / len(actions))
    assert abs(dist.sum() - 1.0) < 1e-9
    assert np.all(dist > 0)


def test_single_action_distribution():
    params = PolicyParams(weights=np.array([0.3, -0.2]))
    dist = action_distribution(params, np.array([[1.0, 2.0]]))
    assert dist.tolist() == [1.0]


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(6, 5))
    params = PolicyParams(weights=rng.normal(size=5))
    base = action_distribution(params, feats)
    shifted = action_distribution(params, feats + 0.0)
    # adding a constant to every logit: append a constant feature column
    feats2 = np.hstack([feats, np.ones((6, 1))])
    params2 = PolicyParams(weights=np.append(params.weights, 7.3))
    dist2 = action_distribution(params2, feats2)
    assert np.allclose(base, dist2, atol=1e-9)
    assert np.allclose(base, shifted)
    assert greedy_action(base) == greedy_action(dist2)


def test_empty_action_set_raises():
    params = PolicyParams(weights=np.zeros(3))
    with pytest.raises(DeadEndError):
        action_distribution(params, np.zeros((0, 3)))


def test_sample_action_degenerate():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample_action(np.array([1.0]), rng) == 0


def test_sample_action_seeded_reproducible():
    dist = np.array([0.2, 0.5, 0.3])
    a = [sample_action(dist, np.random.default_rng(42)) for _ in range(10)]
    b = [sample_action(dist, np.random.default_rng(42)) for _ in range(10)]
    assert a == b


def test_sample_action_frequencies():
    dist = np.array([0.25, 0.75])
    rng = np.random.default_rng(7)
    draws = np.array([sample_action(dist, rng) for _ in range(100_000)])
    freq = (draws == 1).mean()
    assert abs(freq - 0.75) < 0.01


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
        steps.append(_DecisionStep(feats=feats, taken=taken,
                                   old_logp=float(logp[taken]),
                                   advantage=float(rng.normal())))
    return steps


@pytest.mark.parametrize("trial", range(3))
def test_gradient_matches_finite_differences(trial):
    rng = np.random.default_rng(100 + trial)
    dim = 8
    steps = _random_decision_steps(rng, 12, dim)
    w = rng.normal(size=dim) * 0.5
    _, grad = surrogate_objective(w, steps, 0.2, 0.01)
    h = 1e-6
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        hi, _ = surrogate_objective(w + e, steps, 0.2, 0.01)
        lo, _ = surrogate_objective(w - e, steps, 0.2, 0.01)
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
        steps.append(_DecisionStep(
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
    value, grad = surrogate_objective(w, steps, 0.2, entropy_coef)
    ref_value, ref_grad = surrogate_reference(w, steps, 0.2, entropy_coef)
    np.testing.assert_allclose(value, ref_value, rtol=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12)


def test_surrogate_no_steps():
    value, grad = surrogate_objective(np.ones(4), [], 0.2, 0.01)
    assert value == 0.0 and np.array_equal(grad, np.zeros(4))


def test_zero_advantage_no_entropy_leaves_weights(probe_task, probe_conflicts):
    fc = FeatureConfig(degree=2)
    params = init_params(fc)
    cfg = TrainConfig(entropy_coef=0.0, seed=0)
    env_cfg = EnvConfig(degree=2, max_steps=5)
    trace = rollout(probe_task, env_cfg, probe_conflicts, lambda s, a: 0)
    trace.rewards = [0.0] * len(trace.rewards)  # forces all advantages to 0
    updated = policy_update(params, [trace], cfg, env_cfg, fc)
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
    holding = (task.init - pick.delete) | pick.add
    stack = make_meta_action(task, (task.operator_index["(stack arm1 a b)"],))
    trace = EpisodeTrace(states=[holding, (holding - stack.delete) | stack.add],
                         actions=[stack], rewards=[1.0], terminal=True,
                         reason="goal", task=task)
    updated = policy_update(params, [trace], cfg, env_cfg, fc)
    actions = applicable_actions(task, holding, 2, probe_conflicts)
    taken = next(i for i, a in enumerate(actions) if a.atoms == stack.atoms)
    feats = featurize_all(task, holding, actions, fc)
    before = action_distribution(params, feats)[taken]
    after = action_distribution(updated, feats)[taken]
    assert after > before


def test_baseline_running_mean(probe_task, probe_conflicts):
    fc = FeatureConfig(degree=2)
    params = init_params(fc)
    env_cfg = EnvConfig(degree=2, max_steps=2)
    cfg = TrainConfig(seed=0)
    traces = [rollout(probe_task, env_cfg, probe_conflicts, lambda s, a: 0)
              for _ in range(3)]
    updated = policy_update(params, traces, cfg, env_cfg, fc)
    assert updated.return_count == 3
    from metaplan import discounted_return
    expect = np.mean([discounted_return(t.rewards, env_cfg.gamma)
                      for t in traces])
    assert updated.baseline == pytest.approx(float(expect))


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        policy_update(init_params(FeatureConfig(degree=2)), [],
                      TrainConfig(), EnvConfig())


def test_old_logp_recomputation_matches_rollout_policy(probe_task,
                                                       probe_conflicts):
    """The update recomputes rollout-time log-probs exactly: with incoming
    params every ratio starts at 1."""
    fc = FeatureConfig(degree=2)
    rng = np.random.default_rng(5)
    params = PolicyParams(weights=rng.normal(size=fc.dim) * 0.1)
    env_cfg = EnvConfig(degree=2, max_steps=6)
    decisions = []

    def choose(state, available):
        decisions.append((featurize_all(probe_task, state, available, fc), 0))
        return 0

    trace = rollout(probe_task, env_cfg, probe_conflicts, choose)
    steps = _decision_steps([trace], decisions, params, env_cfg)
    value, _ = surrogate_objective(params.weights, steps, 0.2, 0.0)
    assert value == pytest.approx(np.mean(steps.advantage))


def _recorded_batch(task, conflict_set, params, env_cfg, fc, episodes, seed):
    """Episodes sampled from ``params`` with the decision record ``train``
    keeps."""
    rng = np.random.default_rng(seed)
    decisions = []

    def choose(state, available):
        feats = featurize_all(task, state, available, fc)
        taken = sample_action(action_distribution(params, feats), rng)
        decisions.append((feats, taken))
        return taken

    batch = [rollout(task, env_cfg, conflict_set, choose)
             for _ in range(episodes)]
    return batch, decisions


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_recorded_decisions_equal_re_enumeration(probe_task, probe_conflicts,
                                                  degree):
    """The record made at rollout equals re-enumeration exactly, and so do
    the decision steps built from it. Log-probs are computed over the whole
    batch, so against the per-decision loop they match at the surrogate's
    tolerance, not bit for bit."""
    fc = FeatureConfig(degree=degree)
    rng = np.random.default_rng(degree)
    params = PolicyParams(weights=rng.normal(size=fc.dim) * 0.3,
                          baseline=0.4)
    env_cfg = EnvConfig(degree=degree, max_steps=8, meta_reward=0.01)
    batch, decisions = _recorded_batch(probe_task, probe_conflicts, params,
                                       env_cfg, fc, 5, degree)
    rebuilt = decisions_reference(batch, env_cfg, fc)
    assert [t for _, t in decisions] == [t for _, t in rebuilt]
    assert all(np.array_equal(a, b)
               for (a, _), (b, _) in zip(decisions, rebuilt))
    # Traces that come without a record are replayed to the same record.
    replayed = _replay_decisions(batch, env_cfg, fc)
    assert [t for _, t in replayed] == [t for _, t in rebuilt]
    assert all(np.array_equal(a, b)
               for (a, _), (b, _) in zip(replayed, rebuilt))

    got = _decision_steps(batch, decisions, params, env_cfg)
    again = _decision_steps(batch, rebuilt, params, env_cfg)
    for name in ("feats", "starts", "segment", "taken", "old_logp",
                 "advantage"):
        assert np.array_equal(getattr(got, name), getattr(again, name))
    want = decision_steps_reference(batch, rebuilt, params, env_cfg)
    assert len(got) == len(want) > 0
    assert np.array_equal(got.taken - got.starts, [s.taken for s in want])
    assert np.array_equal(got.advantage, [s.advantage for s in want])
    np.testing.assert_allclose(got.old_logp, [s.old_logp for s in want],
                               rtol=1e-12)


def test_recorded_and_replayed_updates_agree(probe_task, probe_conflicts):
    fc = FeatureConfig(degree=2)
    params = PolicyParams(weights=np.full(fc.dim, 0.05), baseline=0.1)
    env_cfg = EnvConfig(degree=2, max_steps=6)
    cfg = TrainConfig(seed=0)
    batch, decisions = _recorded_batch(probe_task, probe_conflicts, params,
                                       env_cfg, fc, 4, 3)
    recorded = policy_update(params, batch, cfg, env_cfg, fc, decisions)
    replayed = policy_update(params, batch, cfg, env_cfg, fc)
    assert np.array_equal(recorded.weights, replayed.weights)
    with pytest.raises(ValueError, match="decisions recorded"):
        policy_update(params, batch, cfg, env_cfg, fc, decisions[:-1])


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

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
])
def test_checkpoint_from_json_rejects_malformed(data, message):
    with pytest.raises(CheckpointError, match=message):
        Checkpoint.from_json(data)


def test_load_checkpoint_rejects_invalid_json(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text('{"weights": [', encoding="utf-8")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        load_checkpoint(str(path))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(clip_epsilon=0.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(episodes_per_iteration=0)
