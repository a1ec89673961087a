"""Desk-scale learned policy over the meta-action space.

A linear softmax policy over hand-built state-action features stands in for
the reference GNN encoder: the action-space mechanism, not the encoder, is
what this package studies. Features come from per-task tables (hashed-bucket
counts per fact and a goal mask, built once per task), so every action at a
state is featurized by a few array operations. Training is a scaled-down
clipped-surrogate policy-gradient loop (PPO-style) with an entropy bonus and
a running-mean return baseline. The rollout records the features and the
action taken at every decision, and the update reads that record instead of
enumerating and featurizing the visited states again; the surrogate then
evaluates all decisions of a batch at once. Everything is reproducible bit
for bit under a fixed seed and single-threaded rollout order.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from .env import (EnvConfig, EpisodeTrace, REASON_GOAL, discounted_return,
                  rollout)
from .grounding import GroundTask
from .meta_ops import MetaAction
from .transition import State

CHECKPOINT_SCHEMA_VERSION = 1

N_CORE_FEATURES = 6


class DeadEndError(Exception):
    """No applicable action: the caller must terminate the episode."""


class NonFiniteGradientError(Exception):
    """A gradient step produced non-finite values; the update was aborted."""


class CheckpointError(ValueError):
    """A checkpoint is malformed or does not match its feature shape."""


@dataclass(frozen=True)
class FeatureConfig:
    """Featurizer shape: core features plus hashed predicate features."""

    degree: int
    d_hash: int = 64

    @property
    def dim(self) -> int:
        return N_CORE_FEATURES + self.d_hash


@dataclass
class PolicyParams:
    """Linear policy weights plus the running return baseline."""

    weights: np.ndarray
    baseline: float = 0.0
    return_count: int = 0
    version: int = 0

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.weights.copy(), self.baseline,
                            self.return_count, self.version)


@dataclass(frozen=True)
class TrainConfig:
    """Scaled-down analogue of the reference 900x100x20 PPO schedule."""

    iterations: int = 300
    episodes_per_iteration: int = 32
    gradient_steps: int = 10
    clip_epsilon: float = 0.2
    learning_rate: float = 0.1
    entropy_coef: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        for name in ("episodes_per_iteration", "gradient_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError("clip_epsilon must be in (0, 1)")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        if self.entropy_coef < 0.0:
            raise ValueError("entropy_coef must be >= 0")

    def to_json(self) -> dict:
        return {"iterations": self.iterations,
                "episodes_per_iteration": self.episodes_per_iteration,
                "gradient_steps": self.gradient_steps,
                "clip_epsilon": self.clip_epsilon,
                "learning_rate": self.learning_rate,
                "entropy_coef": self.entropy_coef, "seed": self.seed}


def init_params(fc: FeatureConfig) -> PolicyParams:
    """Zero weights: the uniform policy over applicable actions."""
    return PolicyParams(weights=np.zeros(fc.dim, dtype=np.float64))


_ADD = attrgetter("add")
_DELETE = attrgetter("delete")
_ATOMS = attrgetter("atoms")


def _hash_bucket(text: str, width: int) -> int:
    return zlib.crc32(text.encode("utf-8")) % width


@dataclass(frozen=True)
class _FeatureTables:
    """Per-task lookup tables behind :func:`featurize_all`."""

    buckets: np.ndarray  # (facts, d_hash) hashed-bucket counts of each fact
    goal: np.ndarray     # (facts,) goal mask, 1.0 for goal facts


def _feature_tables(task: GroundTask, d_hash: int) -> _FeatureTables:
    """The task's tables for ``d_hash``, built on first use.

    They are kept in the task's ``__dict__``, as ``cached_property`` keeps
    its values, so they live exactly as long as the task.
    """
    cache = task.__dict__.setdefault("_feature_tables", {})
    tables = cache.get(d_hash)
    if tables is None:
        buckets = np.zeros((len(task.facts), d_hash), dtype=np.float64)
        for i, fact in enumerate(task.facts):
            buckets[i, _hash_bucket(fact.predicate, d_hash)] += 1.0
            for pos in range(len(fact.args)):
                buckets[i, _hash_bucket(f"{fact.predicate}/{pos}",
                                        d_hash)] += 1.0
        goal = np.zeros(len(task.facts), dtype=np.float64)
        goal[sorted(task.goal)] = 1.0
        tables = cache[d_hash] = _FeatureTables(buckets, goal)
    return tables


def featurize(task: GroundTask, state: State, action: MetaAction,
              fc: FeatureConfig) -> np.ndarray:
    """Deterministic state-action feature vector.

    Core block: bias, degree fraction, goal facts newly added, goal facts
    deleted, goal fraction satisfied in the successor, add effects in the
    goal. Hashed block: signed counts over (predicate, argument position)
    of the facts the action touches, +1 per add and -1 per delete. It is
    the one-action case of :func:`featurize_all`, which reads the per-task
    tables.
    """
    return featurize_all(task, state, [action], fc)[0]


def featurize_all(task: GroundTask, state: State,
                  actions: Sequence[MetaAction],
                  fc: FeatureConfig) -> np.ndarray:
    """Stacked (n_actions, dim) feature matrix; (0, dim) for no actions.

    Row i is :func:`featurize` of ``actions[i]``. Each fact's hashed-bucket
    counts come from a (facts x d_hash) table built once per task, so the
    hashed block of every row is one product (add - delete incidence) @
    table over the facts the actions touch; the core columns are products
    of the same incidence with the goal mask, corrected by the goal facts
    the state already holds. Every entry is a small integer or the same IEEE
    division as the per-action definition, so the rows are exact.
    """
    n = len(actions)
    features = np.empty((n, fc.dim), dtype=np.float64)
    if n == 0:
        return features
    tables = _feature_tables(task, fc.d_hash)
    adds = list(map(_ADD, actions))
    dels = list(map(_DELETE, actions))
    sizes = list(map(len, adds))
    total_add = sum(sizes)
    sizes += map(len, dels)
    facts = np.fromiter(chain(chain.from_iterable(adds),
                              chain.from_iterable(dels)), dtype=np.intp)
    # Columns: the touched facts in index order as added, then as deleted.
    mark = np.zeros(len(task.facts), dtype=bool)
    mark[facts] = True
    touched = np.flatnonzero(mark)
    width = len(touched)
    column = np.cumsum(mark) - 1
    columns = column[facts]
    columns[total_add:] += width
    rows = np.arange(n)
    incidence = np.zeros((n, 2 * width), dtype=np.float64)
    incidence[np.concatenate((rows, rows)).repeat(sizes), columns] = 1.0
    add = incidence[:, :width]
    delete = incidence[:, width:]
    goal = tables.goal[touched]

    features[:, 0] = 1.0
    features[:, 1] = np.array(list(map(len, map(_ATOMS, actions)))) \
        / fc.degree
    features[:, 3] = delete @ goal
    features[:, 5] = add @ goal
    features[:, N_CORE_FEATURES:] = (add - delete) @ tables.buckets[touched]
    # Goal facts the state holds: an add does not newly add them, and a
    # delete that no add restores loses them from the successor.
    reached = np.array(sorted(task.goal & state), dtype=np.intp)
    reached = column[reached[mark[reached]]]
    add_reached = add[:, reached]
    del_reached = delete[:, reached]
    features[:, 2] = features[:, 5] - add_reached.sum(axis=1)
    if task.goal:
        lost = (del_reached - del_reached * add_reached).sum(axis=1)
        features[:, 4] = (len(task.goal & state) + features[:, 2] - lost) \
            / len(task.goal)
    else:
        features[:, 4] = 1.0
    return features


def action_distribution(params: PolicyParams, feats: np.ndarray) -> np.ndarray:
    """Softmax over per-action logits; only applicable actions get entries."""
    if len(feats) == 0:
        raise DeadEndError("no applicable actions")
    logits = feats @ params.weights
    logits = logits - logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()


def sample_action(dist: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index from ``dist``, advancing ``rng`` deterministically."""
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(dist), u, side="right"))
    return min(idx, len(dist) - 1)


def greedy_action(dist: np.ndarray) -> int:
    """Argmax index; ties break to the lowest index."""
    return int(np.argmax(dist))


# ---------------------------------------------------------------------------
# Clipped-surrogate update
# ---------------------------------------------------------------------------

@dataclass
class _DecisionStep:
    feats: np.ndarray  # (n_actions, dim)
    taken: int
    old_logp: float
    advantage: float


# (features at the state, index taken): what the rollout chooser saw.
Decision = tuple[np.ndarray, int]


@dataclass
class _DecisionBatch:
    """Every decision of a batch as segments of one (N, dim) matrix."""

    feats: np.ndarray      # (N, dim): each decision's rows, concatenated
    starts: np.ndarray     # (D,) first row of each decision
    segment: np.ndarray    # (N,) decision of each row
    taken: np.ndarray      # (D,) row of the action taken
    old_logp: np.ndarray   # (D,)
    advantage: np.ndarray  # (D,)

    def __len__(self) -> int:
        return len(self.starts)

    @staticmethod
    def from_steps(steps: Sequence[_DecisionStep],
                   dim: int) -> "_DecisionBatch":
        feats, starts, segment = _segments([s.feats for s in steps], dim)
        return _DecisionBatch(
            feats, starts, segment,
            taken=starts + np.array([s.taken for s in steps], dtype=np.intp),
            old_logp=np.array([s.old_logp for s in steps], dtype=np.float64),
            advantage=np.array([s.advantage for s in steps],
                               dtype=np.float64))


def _segments(feats: Sequence[np.ndarray],
              dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-decision feature blocks as one matrix, the first row of each
    block, and the block of each row."""
    sizes = np.fromiter(map(len, feats), dtype=np.intp, count=len(feats))
    starts = np.cumsum(sizes) - sizes
    matrix = np.concatenate(feats) if feats else np.zeros((0, dim))
    return matrix, starts, np.repeat(np.arange(len(sizes)), sizes)


def _log_softmax(logits: np.ndarray, starts: np.ndarray,
                 segment: np.ndarray) -> np.ndarray:
    """Log-softmax of each decision's segment of ``logits``."""
    z = logits - np.maximum.reduceat(logits, starts)[segment]
    return z - np.log(np.add.reduceat(np.exp(z), starts))[segment]


def surrogate_objective(weights: np.ndarray,
                        steps: _DecisionBatch | Sequence[_DecisionStep],
                        clip_epsilon: float,
                        entropy_coef: float) -> tuple[float, np.ndarray]:
    """Mean clipped surrogate plus entropy bonus, with its analytic gradient.

    Per decision: min(ratio * A, clip(ratio, 1-eps, 1+eps) * A) where
    ratio = pi_w(a) / pi_old(a). The gradient of the min is the unclipped
    branch's gradient when that branch is active and zero when the clip is
    strictly active; the entropy gradient is -sum_i p_i log p_i (f_i - fbar).
    All decisions are evaluated together over one concatenated feature
    matrix, with segment reductions per decision.
    """
    batch = steps if isinstance(steps, _DecisionBatch) \
        else _DecisionBatch.from_steps(steps, len(weights))
    n = len(batch)
    if n == 0:
        return 0.0, np.zeros_like(weights)
    logp = _log_softmax(batch.feats @ weights, batch.starts, batch.segment)
    p = np.exp(logp)
    ratio = np.exp(logp[batch.taken] - batch.old_logp)
    unclipped = ratio * batch.advantage
    clipped = np.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon) \
        * batch.advantage
    # Entropy: H = -sum p log p per decision.
    q = p * logp
    q_sum = np.add.reduceat(q, batch.starts)
    total = float(np.minimum(unclipped, clipped).sum()
                  - entropy_coef * q_sum.sum())
    # Both gradients are sums of feature rows: (f_taken - fbar) for the
    # active unclipped branch, -(q_i - sum(q) p_i) f_i for the entropy.
    active = np.where(unclipped <= clipped, unclipped, 0.0)
    row_weights = -entropy_coef * (q - q_sum[batch.segment] * p) \
        - active[batch.segment] * p
    row_weights[batch.taken] += active
    return total / n, (row_weights @ batch.feats) / n


def _decision_steps(batch: Sequence[EpisodeTrace],
                    decisions: Sequence[Decision], params: PolicyParams,
                    env_cfg: EnvConfig) -> _DecisionBatch:
    """The batch's decisions with rollout-time log-probs and advantages.

    ``decisions`` holds one record per action of the batch, in trace order.
    """
    n_actions = sum(len(t.actions) for t in batch)
    if len(decisions) != n_actions:
        raise ValueError(f"{len(decisions)} decisions recorded for "
                         f"{n_actions} actions")
    advantages: list[float] = []
    for trace in batch:
        # Discounted reward-to-go per decision.
        togo = 0.0
        returns = [0.0] * len(trace.rewards)
        for t in range(len(trace.rewards) - 1, -1, -1):
            togo = trace.rewards[t] + env_cfg.gamma * togo
            returns[t] = togo
        advantages += [r - params.baseline for r in returns]
    feats, starts, segment = _segments([f for f, _ in decisions],
                                       len(params.weights))
    taken = starts + np.array([i for _, i in decisions], dtype=np.intp)
    logp = _log_softmax(feats @ params.weights, starts, segment)
    return _DecisionBatch(feats, starts, segment, taken,
                          old_logp=logp[taken],
                          advantage=np.array(advantages, dtype=np.float64))


def policy_update(params: PolicyParams, batch: Sequence[EpisodeTrace],
                  cfg: TrainConfig, env_cfg: EnvConfig,
                  decisions: Sequence[Decision]) -> PolicyParams:
    """One training update from a batch of episodes.

    ``decisions`` is the (features, index taken) record of every action in
    the batch, in trace order, as the rollout chooser saw them (``train``
    records it). Runs up to ``cfg.gradient_steps`` ascent steps on the
    clipped surrogate, then folds the batch returns into the running-mean
    baseline. On any non-finite gradient the update aborts and ``params``
    is untouched.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    steps = _decision_steps(batch, decisions, params, env_cfg)

    weights = params.weights.copy()
    for _ in range(cfg.gradient_steps):
        if not steps:
            break
        _, grad = surrogate_objective(weights, steps, cfg.clip_epsilon,
                                      cfg.entropy_coef)
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradientError("non-finite surrogate gradient")
        weights = weights + cfg.learning_rate * grad
        if not np.all(np.isfinite(weights)):
            raise NonFiniteGradientError("non-finite weights after update")

    baseline = params.baseline
    count = params.return_count
    for trace in batch:
        ep_return = discounted_return(trace.rewards, env_cfg.gamma)
        count += 1
        baseline += (ep_return - baseline) / count
    return PolicyParams(weights=weights, baseline=baseline,
                        return_count=count, version=params.version + 1)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def _episode_parallelism(trace: EpisodeTrace) -> float | None:
    if not trace.actions:
        return None
    parallel = sum(1 for a in trace.actions if a.degree >= 2)
    return parallel / len(trace.actions)


@dataclass
class TrainResult:
    params: PolicyParams
    curve: list[dict]


def train(tasks: Sequence[GroundTask], env_cfg: EnvConfig, cfg: TrainConfig,
          fc: FeatureConfig | None = None,
          params: PolicyParams | None = None) -> TrainResult:
    """Iterate rollout batches and updates over a task set.

    Each iteration samples one task uniformly, rolls out
    ``episodes_per_iteration`` episodes with the current stochastic policy,
    and applies one :func:`policy_update`. The curve records mean return,
    coverage, and mean parallelism rate per iteration.
    """
    if not tasks:
        raise ValueError("tasks must be non-empty")
    if fc is None:
        fc = FeatureConfig(degree=env_cfg.degree)
    if params is None:
        params = init_params(fc)

    rng = np.random.default_rng(cfg.seed)
    curve: list[dict] = []

    for iteration in range(cfg.iterations):
        task = tasks[int(rng.integers(len(tasks)))]

        decisions: list[Decision] = []

        def choose(state: State, available: list[MetaAction]) -> int:
            feats = featurize_all(task, state, available, fc)
            taken = sample_action(action_distribution(params, feats), rng)
            decisions.append((feats, taken))
            return taken

        batch = [rollout(task, env_cfg, choose)
                 for _ in range(cfg.episodes_per_iteration)]
        try:
            params = policy_update(params, batch, cfg, env_cfg, decisions)
        except NonFiniteGradientError as err:
            raise NonFiniteGradientError(
                f"iteration {iteration}: {err}") from err

        returns = [discounted_return(t.rewards, env_cfg.gamma) for t in batch]
        solved = [t for t in batch if t.reason == REASON_GOAL]
        rates = [r for t in solved
                 if (r := _episode_parallelism(t)) is not None]
        curve.append({
            "iteration": iteration,
            "task": task.problem_name,
            "mean_return": float(np.mean(returns)),
            "coverage": len(solved) / len(batch),
            "mean_parallelism": float(np.mean(rates)) if rates else None,
        })
    return TrainResult(params=params, curve=curve)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    params: PolicyParams
    feature: FeatureConfig
    seed: int

    def to_json(self) -> dict:
        return {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "weights": self.params.weights.tolist(),
            "baseline": self.params.baseline,
            "return_count": self.params.return_count,
            "version": self.params.version,
            "feature": {"degree": self.feature.degree,
                        "d_hash": self.feature.d_hash},
            "seed": self.seed,
        }

    @staticmethod
    def from_json(data: dict) -> "Checkpoint":
        """Parse a checkpoint, raising :class:`CheckpointError` unless it has
        every key, this schema version and one weight per feature."""
        if not isinstance(data, dict):
            raise CheckpointError("not a JSON object")
        version = data.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(f"schema_version {version!r}, expected "
                                  f"{CHECKPOINT_SCHEMA_VERSION}")
        try:
            fc = FeatureConfig(degree=int(data["feature"]["degree"]),
                               d_hash=int(data["feature"]["d_hash"]))
            params = PolicyParams(
                weights=np.asarray(data["weights"], dtype=np.float64),
                baseline=float(data["baseline"]),
                return_count=int(data["return_count"]),
                version=int(data["version"]))
            seed = int(data["seed"])
        except KeyError as err:
            raise CheckpointError(f"missing key {err}") from err
        except (TypeError, ValueError) as err:
            raise CheckpointError(f"malformed value: {err}") from err
        if fc.degree < 1 or fc.d_hash < 1:
            raise CheckpointError(f"bad feature shape: degree {fc.degree}, "
                                  f"d_hash {fc.d_hash}")
        weights = params.weights
        if weights.shape != (fc.dim,) or not np.all(np.isfinite(weights)):
            raise CheckpointError(f"need {fc.dim} finite weights for degree "
                                  f"{fc.degree}, d_hash {fc.d_hash}; got "
                                  f"{weights.size}")
        return Checkpoint(params=params, feature=fc, seed=seed)


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checkpoint.to_json(), fh, indent=2)
        fh.write("\n")


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint file; :class:`CheckpointError` if it is malformed."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as err:
            raise CheckpointError(f"not valid JSON: {err}") from err
    return Checkpoint.from_json(data)
