"""STRIPS planning environments with meta-operator (parallel) action spaces.

The pipeline: parse PDDL (:mod:`metaplan.pddl`), ground it
(:mod:`metaplan.grounding`), build degree-L meta-action spaces with conflict
checking and the one step rule on fact masks (:mod:`metaplan.meta_ops`),
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
                        CapacityError, ground, ground_reachable,
                        task_to_json)
from .meta_ops import (State, ConflictSet, MetaAction, SpaceStats,
                       build_conflict_set, applicable_actions,
                       action_space_stats)
from .env import (InapplicableError, EnvConfig, StepOutcome, EpisodeTrace,
                  RewardAudit, reset, step, rollout, discounted_return,
                  conservative_meta_reward, shaped_reward_audit)
from .policy import (FeatureConfig, PolicyParams, TrainConfig, TrainResult,
                     Checkpoint, CheckpointError, NonFiniteGradientError,
                     sample_action, greedy_action, policy_update, train,
                     init_params, save_checkpoint, load_checkpoint)
from .evalkit import (Plan, EvalReport, ProblemOutcome, PolicyRun,
                      ValidationResult, PlanParseError, EmptyPlanError,
                      plan_from_actions, plan_to_text, plan_from_text,
                      run_policy, evaluate_policy, validate_plan,
                      parallelism_rate, aggregate, bfs_solve)
from .generators import (GenSpec, InfeasibleSpecError, PRESETS, preset_spec,
                         custom_spec, generate, generate_dataset,
                         write_dataset, gen_multiblocks, gen_logistics,
                         gen_depots)

__version__ = "0.1.0"
