"""STRIPS planning environments with meta-operator (parallel) action spaces.

The pipeline: parse PDDL (:mod:`metaplan.pddl`), ground it
(:mod:`metaplan.grounding`), step states (:mod:`metaplan.transition`), build
degree-L meta-action spaces with conflict checking (:mod:`metaplan.meta_ops`),
wrap everything in a reward-shaped deterministic MDP (:mod:`metaplan.env`),
train a desk-scale policy (:mod:`metaplan.policy`), and evaluate coverage,
plan length, and parallelism (:mod:`metaplan.evalkit`). Seeded instance
generators live in :mod:`metaplan.generators`.
"""

from .pddl import (DomainAst, ProblemAst, ActionSchemaAst, Literal,
                   PddlError, UnsupportedConstructError, parse_domain,
                   parse_problem, check_compat, domain_to_pddl,
                   problem_to_pddl)
from .grounding import (Fact, GroundOperator, GroundTask, GroundingError,
                        CapacityError, ground, reachability_prune,
                        task_to_json, task_from_json, dump_task, load_task)
from .transition import State, InapplicableError, is_applicable, apply, is_goal
from .meta_ops import (ConflictSet, MetaAction, ActionSpace, SpaceStats,
                       conflicts, build_conflict_set, make_meta_action,
                       make_meta_operators, applicable_actions,
                       materialize_action_space, action_space_stats)
from .env import (EnvConfig, StepOutcome, EpisodeTrace, RewardAudit, reset,
                  step, rollout, discounted_return, conservative_meta_reward,
                  shaped_reward_audit)
from .policy import (FeatureConfig, PolicyParams, TrainConfig, TrainResult,
                     Checkpoint, CheckpointError, DeadEndError,
                     NonFiniteGradientError,
                     featurize, featurize_all, action_distribution,
                     sample_action, greedy_action, policy_update, train,
                     init_params, save_checkpoint, load_checkpoint)
from .evalkit import (Plan, EvalReport, ProblemOutcome, PolicyRun,
                      ValidationResult, PlanParseError, EmptyPlanError,
                      SearchMemoryError, plan_from_actions, plan_to_text,
                      plan_from_text, run_policy, evaluate_policy,
                      validate_plan, parallelism_rate, aggregate, bfs_solve)
from .generators import (GenSpec, InfeasibleSpecError, PRESETS, preset_spec,
                         custom_spec, generate, generate_dataset,
                         write_dataset, gen_multiblocks, gen_logistics,
                         gen_depots)

__version__ = "0.1.0"
