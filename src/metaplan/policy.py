"""Desk-scale learned policy over the meta-action space.

A linear softmax policy over hand-built state-action features stands in for
the reference GNN encoder: the action-space mechanism, not the encoder, is
what this package studies. A feature row is a core block of goal and degree
counts and a hashed block of the action's signed effects per (predicate,
argument position). All but two goal columns depend on the action's atoms
alone, and those two on the state only through the goal facts it holds. So
each task keeps an action feature table per feature shape: one row per atom
tuple, built on first sight from the bits of the action's add and delete
masks and kept as small integers, the two goal columns as a block of two
small rows over the goal facts.
A row's logit has one form from the rollout to the update: the weights
times the row's state-free part (:meth:`_ActionTable.base`), plus the two
goal weights times its goal columns at the state
(:meth:`_ActionTable.goal_columns`). A batch is collected under one fixed
policy, so the chooser (:func:`scorer`) keeps the first part for every
table row and scores each state once per policy version, by a gather, a
small product and a softmax, however often the state is revisited.
Training is a scaled-down clipped-surrogate policy-gradient loop
(PPO-style) with an entropy bonus and a running-mean return baseline. The
rollout records, at every decision, the table rows of the available
actions, their goal columns as the scorer computed them and the index
taken; the update holds each distinct table row of that record once, in
float form, and evaluates all decisions of a batch at once through those
rows and goal columns. Everything is reproducible bit for bit under a
fixed seed and single-threaded rollout order.
"""

from __future__ import annotations

import json
import math
import zlib
from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .env import (EnvConfig, EpisodeTrace, REASON_GOAL, discounted_return,
                  rewards_to_go, rollout)
from .files import write_json
from .grounding import CapacityError, GroundTask, mask_facts
from .meta_ops import MetaAction, parallel_share

CHECKPOINT_SCHEMA_VERSION = 1

N_CORE_FEATURES = 6


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
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0.0 <= self.entropy_coef < math.inf:
            raise ValueError("entropy_coef must be finite and >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def to_json(self) -> dict:
        return asdict(self)


def features_for(env_cfg: EnvConfig,
                 fc: FeatureConfig | None) -> FeatureConfig:
    """``fc``, whose degree must be the environment's, or by default the
    features of ``env_cfg``'s degree."""
    if fc is None:
        return FeatureConfig(degree=env_cfg.degree)
    if fc.degree != env_cfg.degree:
        raise ValueError(f"feature degree {fc.degree} differs from the "
                         f"environment's degree {env_cfg.degree}")
    return fc


def init_params(fc: FeatureConfig) -> PolicyParams:
    """Zero weights: the uniform policy over applicable actions."""
    return PolicyParams(weights=np.zeros(fc.dim, dtype=np.float64))


# MetaAction.atoms by position, which skips the named tuple's property.
_ATOMS = itemgetter(0)

# Rows one action feature table may hold; featurizing past it raises
# CapacityError. A row costs a few hundred bytes with its index entry.
MAX_TABLE_ROWS = 1_000_000

# Missing rows are built this many actions at a time, which bounds the
# incidence matrices behind them to a few MB even at degree 3.
_BUILD_BLOCK = 2048


def _hash_bucket(text: str, width: int) -> int:
    return zlib.crc32(text.encode("utf-8")) % width


def _incidence(masks: Sequence[int], n_facts: int) -> np.ndarray:
    """The (len(masks), n_facts) int8 matrix whose row r is 1 at each fact
    of the mask ``masks[r]`` and 0 elsewhere. It is signed, so that its
    negation and differences are exact."""
    width = (n_facts + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little")
                                    for m in masks), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(masks), width), axis=1,
                         count=n_facts, bitorder="little").view(np.int8)


class _ActionTable:
    """One task's action feature rows for one :class:`FeatureConfig`.

    The feature row of an action at a state: core block of bias, degree
    fraction, goal facts newly added, goal facts deleted, goal fraction
    satisfied in the successor, add effects in the goal; hashed block of
    signed counts over (predicate, argument position) of the facts the
    action touches, +1 per add and -1 per delete.

    ``index`` maps an atom tuple to its row; an action's effects are the
    union of its atoms', so its atoms determine its row. A row holds, as
    small integers, everything that does not depend on the state:

    - ``static[r]``: the feature row with column 1 the degree count, not
      yet divided by the degree, and columns 2 and 4, which depend on the
      state, zero. Its integer type is the smallest that holds the largest
      count an action of the task can reach, and the goal size;
    - ``goal[r]``: the goal block of columns 2 and 4, shape (2, 1 + G) for
      G goal facts, in the integer type of ``static``. Entry 0 of each of
      its two rows is the goal facts the action adds (for column 4, one
      instead when the task has no goal); entries 1.. run over the task's
      goal facts in index order, minus one for each goal fact the action
      adds, and one for each it neither adds nor deletes.

    Rows are built on first sight, without reference to any state, from
    the bits of the actions' effect masks (:func:`_incidence`) and the
    (facts, d_hash) hashed-bucket counts ``buckets``, and appended; the
    arrays grow by half their size at a time.
    """

    def __init__(self, task: GroundTask, fc: FeatureConfig):
        self.n_facts = len(task.facts)
        # A fact counts once in its predicate's bucket and once in the
        # bucket of each (predicate, argument position), so an entry is at
        # most 1 + arity.
        self.buckets = buckets = np.zeros((self.n_facts, fc.d_hash),
                                          dtype=np.int8)
        for i, fact in enumerate(task.facts):
            buckets[i, _hash_bucket(fact.predicate, fc.d_hash)] += 1
            for pos in range(len(fact.args)):
                buckets[i, _hash_bucket(f"{fact.predicate}/{pos}",
                                        fc.d_hash)] += 1
        self.goal_mask = task.goal_mask
        self.goal_facts = mask_facts(task.goal_mask)
        self.goal_ids = np.array(self.goal_facts, dtype=np.intp)
        goal_size = len(self.goal_facts)
        if goal_size > np.iinfo(np.int16).max:
            raise CapacityError("feature table goal facts", goal_size,
                                np.iinfo(np.int16).max)
        # Every column is divided by these at gather time: columns 1 and 4
        # by the degree and the goal size, the others by one, which leaves
        # them exact.
        self.divisors = np.ones(fc.dim, dtype=np.float64)
        self.divisors[1:5:3] = fc.degree, max(goal_size, 1)
        self.goal_divisors = self.divisors[2:5:2]
        # ``goal_columns``'s vector for each set of goal facts held, keyed
        # by the state's goal bits: no more entries than states scored.
        self.held: dict[int, np.ndarray] = {}
        # No count exceeds the atoms of an action, at most the degree and
        # the operator count, or every effect of those atoms counted in one
        # bucket once per argument position; the goal columns, state
        # included, do not exceed the goal size.
        atoms = min(fc.degree, len(task.operators))
        effects = max((op.add_mask.bit_count() + op.delete_mask.bit_count()
                       for op in task.operators), default=0)
        arity = max((len(fact.args) for fact in task.facts), default=0)
        bound = max(atoms * (1 + effects * (1 + arity)), goal_size)
        self.index: dict[tuple[int, ...], int] = {}
        self.static = np.zeros((0, fc.dim),
                               dtype=np.min_scalar_type(-1 - bound))
        self.goal = np.zeros((0, 2, 1 + goal_size), dtype=self.static.dtype)

    def rows(self, actions: Sequence[MetaAction]) -> np.ndarray:
        """The row of each action, building the missing ones."""
        index = self.index
        try:
            return np.fromiter(map(index.__getitem__, map(_ATOMS, actions)),
                               dtype=np.intp, count=len(actions))
        except KeyError:
            missing = {a.atoms: a for a in actions if a.atoms not in index}
            self._append(list(missing.values()))
        return np.fromiter(map(index.__getitem__, map(_ATOMS, actions)),
                           dtype=np.intp, count=len(actions))

    def base(self, ids) -> np.ndarray:
        """The float rows ``ids`` (indices or a slice), divided by the
        divisors, with columns 2 and 4, which depend on the state, zero."""
        return self.static[ids] / self.divisors

    def goal_columns(self, rows: np.ndarray, state: int) -> np.ndarray:
        """Columns 2 and 4 of ``rows`` at the state mask ``state``, shape
        (len(rows), 2).

        One gather and one product: the rows' goal blocks (see the class
        docstring) times the vector of a one and the 0/1 flags of the goal
        facts ``state`` holds, built once per set of goal facts held and
        kept in ``held``. Column 2 is the goal facts the action adds,
        less those ``state`` already holds; column 4's count is the goal
        facts the action adds, plus those ``state`` holds that the action
        neither adds nor deletes. The sums are of small integers in the
        integer type of ``static``, so the one division is the only
        rounding, as in the per-action definition.
        """
        key = state & self.goal_mask
        held = self.held.get(key)
        if held is None:
            held = self.held[key] = np.array(
                [1, *[key >> f & 1 for f in self.goal_facts]],
                dtype=self.goal.dtype)
        return self.goal.take(rows, axis=0) @ held / self.goal_divisors

    def _append(self, actions: list[MetaAction]) -> None:
        start = len(self.index)
        end = start + len(actions)
        if end > MAX_TABLE_ROWS:
            raise CapacityError("feature table rows", end, MAX_TABLE_ROWS)
        if end > len(self.static):
            size = max(end, len(self.static) * 3 // 2)
            for name in ("static", "goal"):
                old = getattr(self, name)
                new = np.zeros((size,) + old.shape[1:], dtype=old.dtype)
                new[:start] = old[:start]
                setattr(self, name, new)
        for lo in range(0, len(actions), _BUILD_BLOCK):
            self._build(start + lo, actions[lo:lo + _BUILD_BLOCK])
        self.index.update(zip(map(_ATOMS, actions), range(start, end)))

    def _build(self, start: int, actions: list[MetaAction]) -> None:
        """Fill rows ``start:start + len(actions)``.

        The actions' add and delete masks are unpacked into 0/1 incidence
        matrices over the facts. The hashed block of every row is one
        product (add - delete incidence) @ bucket table over the facts the
        actions touch, in float64; every entry is a sum of small integers,
        so the product is exact. The goal columns are the incidence
        columns of the goal facts.
        """
        n = len(actions)
        add = _incidence([a.add_mask for a in actions], self.n_facts)
        delete = _incidence([a.delete_mask for a in actions], self.n_facts)
        touched = np.flatnonzero(add.any(axis=0) | delete.any(axis=0))
        hashed = ((add - delete)[:, touched]
                  @ self.buckets[touched].astype(np.float64))
        goal_add = add[:, self.goal_ids]
        goal_del = delete[:, self.goal_ids]

        static = self.static[start:start + n]
        static[:, 0] = 1
        static[:, 1] = list(map(len, map(_ATOMS, actions)))
        static[:, 3] = goal_del.sum(axis=1)
        static[:, 5] = goal_add.sum(axis=1)
        static[:, N_CORE_FEATURES:] = hashed
        goal = self.goal[start:start + n]
        goal[:, 0, 0] = static[:, 5]
        goal[:, 1, 0] = static[:, 5] if self.goal_facts else 1
        goal[:, 0, 1:] = -goal_add
        goal[:, 1, 1:] = 1 - (goal_add | goal_del)


def _action_table(task: GroundTask, fc: FeatureConfig) -> _ActionTable:
    """The task's action feature table for ``fc``, built on first use and
    kept in the task's ``__dict__``, as ``cached_property`` keeps its
    values, so it lives exactly as long as the task."""
    key = (fc.degree, fc.d_hash)
    tables = task.__dict__.get("_action_tables")
    if tables is None:
        tables = task.__dict__["_action_tables"] = {}
    table = tables.get(key)
    if table is None:
        table = tables[key] = _ActionTable(task, fc)
    return table


def featurize_all(task: GroundTask, actions: Sequence[MetaAction],
                  fc: FeatureConfig) -> np.ndarray:
    """The rows of ``actions`` in the task's action feature table for
    ``fc`` (see :class:`_ActionTable`), one dict lookup per action,
    building the rows not yet in the table."""
    return _action_table(task, fc).rows(actions)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax of one state's logits, in place, with the operations of
    ``exp(z) / exp(z).sum()`` for ``z = logits - logits.max()``; a largest
    logit that is not finite raises ``FloatingPointError``. The reductions
    are the ufuncs' own, ``np.maximum.reduce`` and ``np.add.reduce``, which
    ``ndarray.max`` and ``ndarray.sum`` run behind a Python wrapper, so the
    result is the same to the bit."""
    top = np.maximum.reduce(logits)
    if not math.isfinite(top):
        raise FloatingPointError(f"largest logit {top} is not finite")
    logits -= top
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits)
    return logits


# What the scorer computes at one state: the action feature table rows of
# the available actions (``featurize_all``), their (n, 2) goal columns at
# the state (``_ActionTable.goal_columns``), the distribution over the
# actions, and its running sums, which ``sample_action`` bisects.
Scores = tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]


def scorer(task: GroundTask, params: PolicyParams, fc: FeatureConfig
           ) -> Callable[[int, Sequence[MetaAction]], Scores]:
    """``score(state, available)``: the :data:`Scores` of the state mask
    ``state`` under ``params``, computed once per state.

    ``available`` is the enumeration at ``state``, never empty. A state
    seen before gets its first scores back, which holds only while
    ``params`` is fixed, so a scorer serves one policy version: a rollout
    batch or an evaluation episode. The logits have the update's form
    (:meth:`_DecisionBatch.logits`): the scorer keeps ``table.base(row) @
    w`` for every row of the task's action feature table, filled in blocks
    of ``_BUILD_BLOCK`` rows as the table grows, and a state adds its goal
    columns (:meth:`_ActionTable.goal_columns`) times their weights. Raises
    ``FloatingPointError`` when a state's largest logit is not finite.
    Equal rows at different positions can get logits an ulp apart, as BLAS
    computes a product's rows with more than one kernel.
    """
    table = _action_table(task, fc)
    weights, goal_weights = params.weights, params.weights[2:5:2]
    base = np.zeros(0)
    memo: dict[int, Scores] = {}

    def score(state: int, available: Sequence[MetaAction]) -> Scores:
        nonlocal base
        scores = memo.get(state)
        if scores is None:
            rows = featurize_all(task, available, fc)
            goal = table.goal_columns(rows, state)
            n = len(table.index)
            if len(base) < n:
                base = np.concatenate([base, *(
                    table.base(slice(lo, min(lo + _BUILD_BLOCK, n))) @ weights
                    for lo in range(len(base), n, _BUILD_BLOCK))])
            dist = _softmax(base[rows] + goal @ goal_weights)
            scores = memo[state] = (rows, goal, dist,
                                    list(accumulate(dist.tolist())))
        return scores
    return score


def sample_action(cumulative: Sequence[float],
                  rng: np.random.Generator) -> int:
    """Draw an index from the distribution whose running sums are
    ``cumulative`` (a :func:`scorer`'s scores end with them), advancing
    ``rng`` deterministically."""
    idx = bisect_right(cumulative, rng.random())
    return min(idx, len(cumulative) - 1)


def greedy_action(dist: np.ndarray) -> int:
    """Argmax index; ties break to the lowest index, but only between
    bit-equal probabilities, which equal feature rows need not get (see
    :func:`scorer` and ROADMAP item 2's open follow-up)."""
    return int(dist.argmax())


# ---------------------------------------------------------------------------
# Clipped-surrogate update
# ---------------------------------------------------------------------------

# What the rollout chooser saw at one state: the action feature table rows
# of the available actions, their goal columns (both as the scorer computed
# them, see :data:`Scores`) and the index taken. The table gives the other
# columns again from the rows, so no float row is kept per decision.
Decision = tuple[np.ndarray, np.ndarray, int]


@dataclass
class _DecisionBatch:
    """Every decision of a batch as segments of N feature rows.

    The batch's rows repeat the same few atom tuples at many states, so a
    row is held as an index into the batch's distinct rows plus the two
    columns that depend on the state: row i's features are ``rows[inv[i]]``
    with ``goal[i]`` added to columns 2 and 4 (see :meth:`logits` and
    :meth:`gradient`). A batch built from a decision record holds each
    distinct table row once, as :meth:`_ActionTable.base` gives it, and
    the goal columns the scorer used; any (N, dim) matrix ``feats`` is the
    batch with ``rows = feats``, ``inv = arange(N)`` and ``goal`` zero.
    """

    rows: np.ndarray       # (U, dim): distinct rows
    inv: np.ndarray        # (N,) each row's index into ``rows``
    goal: np.ndarray       # (N, 2): each row's columns 2 and 4
    starts: np.ndarray     # (D,) first row of each decision
    segment: np.ndarray    # (N,) decision of each row
    taken: np.ndarray      # (D,) row of the action taken
    old_logp: np.ndarray   # (D,)
    advantage: np.ndarray  # (D,)

    def __len__(self) -> int:
        return len(self.starts)

    def logits(self, weights: np.ndarray) -> np.ndarray:
        """The (N,) products of every row with ``weights``: one product per
        distinct row, gathered, plus the goal columns' part."""
        return (self.rows @ weights)[self.inv] + self.goal @ weights[2:5:2]

    def gradient(self, row_weights: np.ndarray) -> np.ndarray:
        """``row_weights @ feats`` for the (N, dim) features ``feats`` of the
        batch: the row weights summed per distinct row times those rows,
        plus the goal columns' part."""
        grad = np.bincount(self.inv, row_weights,
                           minlength=len(self.rows)) @ self.rows
        grad[2:5:2] += row_weights @ self.goal
        return grad


def _segments(sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each block of ``sizes`` rows, and the block of each
    row."""
    sizes = np.asarray(sizes, dtype=np.intp)
    return np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes)


def _log_softmax(logits: np.ndarray, starts: np.ndarray,
                 segment: np.ndarray) -> np.ndarray:
    """Log-softmax of each decision's segment of ``logits``."""
    z = logits - np.maximum.reduceat(logits, starts)[segment]
    return z - np.log(np.add.reduceat(np.exp(z), starts))[segment]


def surrogate_objective(weights: np.ndarray, batch: _DecisionBatch,
                        clip_epsilon: float,
                        entropy_coef: float) -> tuple[float, np.ndarray]:
    """Mean clipped surrogate plus entropy bonus, with its analytic gradient.

    Per decision: min(ratio * A, clip(ratio, 1-eps, 1+eps) * A) where
    ratio = pi_w(a) / pi_old(a). The gradient of the min is the unclipped
    branch's gradient when that branch is active and zero when the clip is
    strictly active; the entropy gradient is -sum_i p_i log p_i (f_i - fbar).
    All decisions are evaluated together, with segment reductions per
    decision. The logits and the gradient go through the batch's distinct
    rows (:meth:`_DecisionBatch.logits` and :meth:`_DecisionBatch.gradient`),
    so a step costs one product per distinct row, not per decision row.
    """
    n = len(batch)
    if n == 0:
        return 0.0, np.zeros_like(weights)
    logp = _log_softmax(batch.logits(weights), batch.starts, batch.segment)
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
    return total / n, batch.gradient(row_weights) / n


def _distinct_rows(ids: np.ndarray,
                   n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` for the row ids ``ids`` of a
    table of ``n_rows`` rows: the ascending distinct ids, and each id's
    position among them. A presence mask over the table's rows takes the
    place of the sort."""
    present = np.zeros(n_rows, dtype=bool)
    present[ids] = True
    distinct = np.flatnonzero(present)
    position = np.zeros(n_rows, dtype=np.intp)
    position[distinct] = np.arange(len(distinct))
    return distinct, position[ids]


def _decision_steps(batch: Sequence[EpisodeTrace],
                    decisions: Sequence[Decision], params: PolicyParams,
                    env_cfg: EnvConfig, fc: FeatureConfig) -> _DecisionBatch:
    """The batch's decisions with rollout-time log-probs and advantages.

    ``decisions`` holds one record per action of the batch, in trace order.
    The rows come from the action feature table of the batch's one task:
    each distinct table row of the record once, as
    :meth:`_ActionTable.base` gives it, and per decision row the goal
    columns the scorer recorded.
    """
    n_actions = sum(len(t.actions) for t in batch)
    if len(decisions) != n_actions:
        raise ValueError(f"{len(decisions)} decisions recorded for "
                         f"{n_actions} actions")
    advantages = [togo - params.baseline for trace in batch
                  for togo in rewards_to_go(trace.rewards, env_cfg.gamma)]
    sizes = [len(rows) for rows, _, _ in decisions]
    starts, segment = _segments(sizes)
    taken = starts + np.array([i for _, _, i in decisions], dtype=np.intp)
    if decisions:
        ids, goals, _ = zip(*decisions)
        table = _action_table(batch[0].task, fc)
        distinct, inv = _distinct_rows(np.concatenate(ids), len(table.index))
        rows = table.base(distinct)
        goal = np.concatenate(goals)
    else:
        rows, inv, goal = (np.zeros((0, fc.dim)), np.zeros(0, dtype=np.intp),
                           np.zeros((0, 2)))
    steps = _DecisionBatch(rows, inv, goal, starts, segment, taken,
                           old_logp=np.zeros(len(decisions)),
                           advantage=np.array(advantages, dtype=np.float64))
    steps.old_logp = _log_softmax(steps.logits(params.weights), starts,
                                  segment)[taken]
    return steps


def policy_update(params: PolicyParams, batch: Sequence[EpisodeTrace],
                  cfg: TrainConfig, env_cfg: EnvConfig,
                  decisions: Sequence[Decision],
                  fc: FeatureConfig) -> PolicyParams:
    """One training update from a batch of episodes.

    Every trace of ``batch`` is an episode of one task; a batch that mixes
    tasks raises ``ValueError``. ``decisions`` is the record of every action
    in the batch, in trace order, as the rollout chooser saw them
    (``train`` records it; see :data:`Decision`), over the task's action
    feature table for ``fc``. Runs up to ``cfg.gradient_steps`` ascent
    steps on the clipped surrogate, then folds the batch returns into the
    running-mean baseline. On any non-finite gradient the update aborts
    and ``params`` is untouched.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    if any(trace.task is not batch[0].task for trace in batch):
        raise ValueError("batch must hold episodes of one task")
    steps = _decision_steps(batch, decisions, params, env_cfg, fc)

    weights = params.weights.copy()
    for _ in range(cfg.gradient_steps):
        if not steps:
            break
        _, grad = surrogate_objective(weights, steps, cfg.clip_epsilon,
                                      cfg.entropy_coef)
        if not np.isfinite(grad).all():
            raise NonFiniteGradientError("non-finite surrogate gradient")
        weights = weights + cfg.learning_rate * grad
        if not np.isfinite(weights).all():
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
    return parallel_share([a.degree for a in trace.actions]) \
        if trace.actions else None


@dataclass
class TrainResult:
    params: PolicyParams
    curve: list[dict]


def train(tasks: Sequence[GroundTask], env_cfg: EnvConfig, cfg: TrainConfig,
          fc: FeatureConfig | None = None) -> TrainResult:
    """Iterate rollout batches and updates over a task set.

    Training starts from :func:`init_params`. Each iteration samples one
    task uniformly, rolls out ``episodes_per_iteration`` episodes with the
    current stochastic policy, and applies one :func:`policy_update`, so a
    batch holds one task's episodes. The params are fixed for the
    batch, so each distinct state of it is featurized and its distribution
    computed once (:func:`scorer`); a revisit samples from the same
    distribution with the same generator. The curve records mean return,
    coverage, and mean parallelism rate per iteration.
    """
    if not tasks:
        raise ValueError("tasks must be non-empty")
    fc = features_for(env_cfg, fc)
    params = init_params(fc)

    rng = np.random.default_rng(cfg.seed)
    curve: list[dict] = []

    for iteration in range(cfg.iterations):
        task = tasks[int(rng.integers(len(tasks)))]

        decisions: list[Decision] = []
        score = scorer(task, params, fc)

        def choose(state: int, available: list[MetaAction]) -> int:
            rows, goal, _, cumulative = score(state, available)
            taken = sample_action(cumulative, rng)
            decisions.append((rows, goal, taken))
            return taken

        batch = [rollout(task, env_cfg, choose)
                 for _ in range(cfg.episodes_per_iteration)]
        # The scores hold for these params only.
        del choose, score
        try:
            params = policy_update(params, batch, cfg, env_cfg, decisions,
                                   fc)
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
        every key, this schema version, one finite weight per feature, a
        finite baseline, JSON numbers (not bools or strings) for the
        weights and the baseline, and JSON integers (not bools, floats or
        strings) for the feature shape and the counts, the counts and the
        seed non-negative."""
        if not isinstance(data, dict):
            raise CheckpointError("not a JSON object")
        version = data.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(f"schema_version {version!r}, expected "
                                  f"{CHECKPOINT_SCHEMA_VERSION}")
        try:
            shape = {"degree": data["feature"]["degree"],
                     "d_hash": data["feature"]["d_hash"]}
            weights, baseline = data["weights"], data["baseline"]
            counts = {name: data[name]
                      for name in ("return_count", "version", "seed")}
        except KeyError as err:
            raise CheckpointError(f"missing key {err}") from err
        except TypeError as err:
            raise CheckpointError(f"malformed value: {err}") from err
        if type(weights) is not list:
            raise CheckpointError(f"malformed value: weights {weights!r} is "
                                  "not a list")
        for name, value in [("baseline", baseline),
                            *(("weight", w) for w in weights)]:
            if type(value) not in (int, float):
                raise CheckpointError(f"malformed value: {name} {value!r} "
                                      "is not a number")
        for name, value in {**shape, **counts}.items():
            if type(value) is not int:
                raise CheckpointError(f"malformed value: {name} {value!r} "
                                      "is not an integer")
            if name in counts and value < 0:
                raise CheckpointError(f"malformed value: {name} {value} < 0")
        fc = FeatureConfig(**shape)
        try:
            params = PolicyParams(np.array(weights, dtype=np.float64),
                                  float(baseline), counts["return_count"],
                                  counts["version"])
        except OverflowError as err:
            raise CheckpointError(f"malformed value: {err}") from err
        if fc.degree < 1 or fc.d_hash < 1:
            raise CheckpointError(f"bad feature shape: degree {fc.degree}, "
                                  f"d_hash {fc.d_hash}")
        if not math.isfinite(params.baseline):
            raise CheckpointError(f"non-finite baseline {params.baseline}")
        weights = params.weights
        if weights.shape != (fc.dim,) or not np.all(np.isfinite(weights)):
            raise CheckpointError(f"need {fc.dim} finite weights for degree "
                                  f"{fc.degree}, d_hash {fc.d_hash}; got "
                                  f"{weights.size}")
        return Checkpoint(params=params, feature=fc, seed=counts["seed"])


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Write a checkpoint file, replacing any old one whole."""
    write_json(path, checkpoint.to_json())


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint file; :class:`CheckpointError` if it is malformed."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as err:
            raise CheckpointError(f"not valid JSON: {err}") from err
    return Checkpoint.from_json(data)
