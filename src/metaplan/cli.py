"""Command-line interface for the full pipeline.

Subcommands: ``gen`` (problem generation), ``actions`` (applicable
meta-action dump), ``train``, ``eval``, ``validate``, ``rate``. Exit codes
are a stable contract: 0 success, 1 runtime failure, 2 usage/input error,
3 validation failure. Every report embeds the effective configuration and
seed, and reruns under a fixed seed are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Sequence

from .env import EnvConfig
from .evalkit import (PlanParseError, _step_lines, evaluate_policy,
                      plan_from_text, validate_plan)
from .files import open_atomic
from .generators import (DOMAIN_KINDS, GenSpec, InfeasibleSpecError,
                         preset_spec, write_dataset)
from .grounding import (CapacityError, GroundingError, GroundTask, ground,
                        ground_reachable)
from .meta_ops import action_space_stats, applicable_actions, \
    conflict_set_of, mask_facts, union_mask
from .pddl import PddlError, parse_domain, parse_problem
from .policy import (Checkpoint, CheckpointError, FeatureConfig,
                     NonFiniteGradientError, TrainConfig, load_checkpoint,
                     save_checkpoint, train)

ACTIONS_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_INVALID = 3

_ENV_KEYS = {f.name: type(f.default) for f in fields(EnvConfig)}
_TRAIN_KEYS = {f.name: type(f.default) for f in fields(TrainConfig)}
_SETTING_KEYS = {**_ENV_KEYS, **_TRAIN_KEYS}


class UsageError(Exception):
    """Bad input that maps to exit code 2."""


def _default_out_dir() -> str:
    return os.environ.get("METAPLAN_OUT", ".")


def read_config_file(path: str) -> dict[str, Any]:
    """Plain-text ``key = value`` lines, each key an environment or training
    setting (train and eval accept the same keys) given at most once, a dash
    in it read as an underscore; '#' and ';' start comments. Each value is
    converted to its setting's type, and an error names its line."""
    values: dict[str, Any] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"[#;]", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise UsageError(f"{where}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key not in _SETTING_KEYS:
            raise UsageError(f"{where}: unknown config key {key!r}")
        if key in values:
            raise UsageError(f"{where}: config key {key} given twice")
        try:
            values[key] = _SETTING_KEYS[key](value.strip())
        except ValueError as err:
            raise UsageError(f"{where}: config key {key}: {err}") from err
    return values


def _settings(args: argparse.Namespace) -> dict[str, Any]:
    """Config file values, then explicit flags: every setting given."""
    merged = read_config_file(args.config) if getattr(args, "config",
                                                      None) else {}
    for key in _SETTING_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _configs(merged: dict[str, Any]) -> tuple[EnvConfig, TrainConfig]:
    """Defaults, overridden by the settings given."""
    try:
        env_cfg = EnvConfig(**{k: merged[k] for k in _ENV_KEYS if k in merged})
        train_cfg = TrainConfig(**{k: merged[k] for k in _TRAIN_KEYS
                                   if k in merged})
    except ValueError as err:
        raise UsageError(str(err)) from err
    return env_cfg, train_cfg


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise RuntimeError(f"cannot read {path}: {err}") from err


def _load_task(domain_path: str, problem_path: str) -> GroundTask:
    domain = parse_domain(_read_text(domain_path), domain_path)
    problem = parse_problem(_read_text(problem_path), problem_path)
    return ground(domain, problem)


def load_problem_dir(path: str) -> list[GroundTask]:
    """Ground every p*.pddl (or any non-domain .pddl) against domain.pddl.

    Only the relaxed-reachable operators are built (:func:`ground_reachable`),
    which is the task ``train`` and ``eval`` run on. ``validate`` and
    ``actions`` load through :func:`_load_task`, which keeps the raw operator
    table, so a plan naming an unreachable operator is INVALID rather than
    unparseable and ``actions`` operator ids keep their raw meaning.
    """
    root = Path(path)
    if not root.is_dir():
        raise UsageError(f"{path} is not a directory")
    pddl_files = sorted(p for p in root.glob("*.pddl")
                        if p.name != "domain.pddl")
    if not pddl_files:
        return []
    domain_file = root / "domain.pddl"
    if not domain_file.exists():
        raise RuntimeError(f"{path} has problem files but no domain.pddl")
    domain = parse_domain(_read_text(domain_file), str(domain_file))
    tasks = []
    for p in pddl_files:
        problem = parse_problem(_read_text(p), str(p))
        tasks.append(ground_reachable(domain, problem))
    return tasks


def _write_json(data: dict, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open_atomic(path) as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    ranges: dict[str, tuple[int, int]] = {}
    for item in args.range or []:
        match = re.fullmatch(r"(\w+)=(\d+):(\d+)", item)
        if not match:
            raise UsageError(f"bad --range {item!r}, expected NAME=LO:HI")
        ranges[match.group(1)] = (int(match.group(2)), int(match.group(3)))
    if args.preset == "custom" and not ranges:
        raise UsageError("--preset custom requires --range settings")
    try:
        if args.preset == "custom":
            spec = GenSpec(domain=args.domain, ranges=ranges, seed=args.seed,
                           preset="custom")
        else:
            spec = preset_spec(args.domain, args.preset, args.seed)
            if ranges:
                spec = GenSpec(domain=args.domain,
                               ranges={**spec.ranges, **ranges},
                               seed=args.seed, preset="custom")
    except ValueError as err:
        raise UsageError(f"bad --range: {err}") from err
    out = args.out or str(Path(_default_out_dir()) /
                          f"{args.domain}-{args.preset}")
    manifest = write_dataset(spec, args.count, out)
    print(f"wrote {manifest['count']} problems to {out}")
    return EXIT_OK


def cmd_actions(args: argparse.Namespace) -> int:
    if args.degree < 1:
        raise UsageError("degree must be >= 1")
    task = _load_task(args.domain, args.problem)
    actions = applicable_actions(task, task.init_mask, args.degree,
                                 conflict_set_of(task))
    stats = action_space_stats(actions)
    payload = {
        "schema_version": ACTIONS_SCHEMA_VERSION,
        "domain": task.domain_name,
        "problem": task.problem_name,
        "degree": args.degree,
        "count": stats.total,
        "histogram": {str(k): v for k, v in stats.by_degree.items()},
        "actions": [{
            "atoms": list(a.atoms),
            "operators": [task.operators[i].name for i in a.atoms],
            "degree": a.degree,
            "pre": mask_facts(union_mask(task.operators[i].pre_mask
                                         for i in a.atoms)),
            "add": mask_facts(a.add_mask),
            "del": mask_facts(a.delete_mask),
        } for a in actions],
    }
    json.dump(payload, sys.stdout, indent=2)
    print()
    return EXIT_OK


def _train_once(tasks, env_cfg: EnvConfig, train_cfg: TrainConfig,
                out_dir: Path, suffix: str) -> None:
    fc = FeatureConfig(degree=env_cfg.degree)
    result = train(tasks, env_cfg, train_cfg, fc)
    checkpoint = Checkpoint(params=result.params, feature=fc,
                            seed=train_cfg.seed)
    save_checkpoint(checkpoint, str(out_dir / f"checkpoint{suffix}.json"))
    curve_path = out_dir / f"curve{suffix}.jsonl"
    with open_atomic(curve_path) as fh:
        for record in result.curve:
            fh.write(json.dumps({"schema_version": 1, **record,
                                 "env": env_cfg.to_json(),
                                 "train": train_cfg.to_json()}) + "\n")


def cmd_train(args: argparse.Namespace) -> int:
    env_cfg, train_cfg = _configs(_settings(args))
    # Every sweep value is checked before any model is trained.
    sweep: list[EnvConfig] = []
    if args.sweep_meta_reward:
        try:
            sweep = [EnvConfig(**{**env_cfg.to_json(),
                                  "meta_reward": float(r)})
                     for r in args.sweep_meta_reward.split(",")]
        except ValueError as err:
            raise UsageError(f"bad --sweep-meta-reward: {err}") from err
        # Equal values would write to the same files.
        rewards = [cfg.meta_reward for cfg in sweep]
        if len(set(rewards)) < len(rewards):
            raise UsageError(f"bad --sweep-meta-reward: a value repeats in "
                             f"{rewards}")
    tasks = load_problem_dir(args.problems)
    if not tasks:
        raise UsageError(f"no problems found in {args.problems}")
    out_dir = Path(args.out or _default_out_dir())
    out_dir.mkdir(parents=True, exist_ok=True)

    if sweep:
        for cfg_r in sweep:
            _train_once(tasks, cfg_r, train_cfg, out_dir,
                        f"-r{cfg_r.meta_reward}")
        print(f"trained {len(sweep)} models into {out_dir}")
    else:
        _train_once(tasks, env_cfg, train_cfg, out_dir, "")
        print(f"trained 1 model into {out_dir}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    settings = _settings(args)
    env_cfg, _ = _configs(settings)
    try:
        checkpoint = load_checkpoint(args.checkpoint)
    except OSError as err:
        raise RuntimeError(f"cannot read checkpoint: {err}") from err
    except CheckpointError as err:
        raise UsageError(f"bad checkpoint {args.checkpoint}: {err}") from err
    # The policy runs at the degree it was trained for.
    trained = checkpoint.feature.degree
    if "degree" not in settings:
        env_cfg = EnvConfig(**{**env_cfg.to_json(), "degree": trained})
    elif env_cfg.degree != trained:
        raise UsageError(f"degree {env_cfg.degree} differs from the "
                         f"checkpoint's degree {trained}")
    tasks = load_problem_dir(args.problems)
    mode = "sample" if args.sample else "greedy"
    report = evaluate_policy(
        checkpoint.params, tasks, mode, env_cfg, checkpoint.feature,
        seed=env_cfg.seed,
        config={"mode": mode, "env": env_cfg.to_json(),
                "checkpoint": Path(args.checkpoint).name,
                "checkpoint_version": checkpoint.params.version})
    report_path = args.report or str(Path(_default_out_dir()) / "report.json")
    _write_json(report.to_json(), report_path)
    solved = f"{report.solved}/{report.total}"
    print(f"coverage {solved}; report written to {report_path}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.degree < 1:
        raise UsageError("degree must be >= 1")
    task = _load_task(args.domain, args.problem)
    try:
        plan = plan_from_text(task, _read_text(args.plan))
    except PlanParseError as err:
        raise UsageError(f"plan parse error: {err}") from err
    result = validate_plan(task, plan, args.degree)
    if result.ok:
        print("VALID")
        return EXIT_OK
    print(f"INVALID at step {result.step}: {result.cause} ({result.detail})")
    return EXIT_INVALID


def cmd_rate(args: argparse.Namespace) -> int:
    text = _read_text(args.plan)
    try:
        steps = [len(names) for _, names in _step_lines(text)]
    except PlanParseError as err:
        raise UsageError(f"plan parse error: {err}") from err
    if not steps:
        raise UsageError("empty plan")
    rate = sum(1 for n in steps if n >= 2) / len(steps)
    print(f"{rate:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_settings_flags(parser: argparse.ArgumentParser,
                        training: bool) -> None:
    """``--config`` and one flag per environment setting, and per training
    setting when ``training``: the field name with dashes, except
    ``--episodes`` for ``episodes_per_iteration``."""
    parser.add_argument("--config", help="plain-text key = value settings file")
    for key, conv in (_SETTING_KEYS if training else _ENV_KEYS).items():
        flag = "episodes" if key == "episodes_per_iteration" else key
        parser.add_argument("--" + flag.replace("_", "-"), type=conv,
                            default=None, dest=key)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaplan",
        description="STRIPS planning with meta-operator action spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate problem files")
    p_gen.add_argument("--domain", required=True, choices=DOMAIN_KINDS)
    p_gen.add_argument("--preset", default="train",
                       choices=["train", "test", "custom"])
    p_gen.add_argument("--count", type=int, default=10)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--range", action="append",
                       help="NAME=LO:HI count range, repeatable")
    p_gen.add_argument("--out", help="output directory")
    p_gen.set_defaults(func=cmd_gen)

    p_act = sub.add_parser("actions",
                           help="dump applicable meta-actions at the init state")
    p_act.add_argument("domain")
    p_act.add_argument("problem")
    p_act.add_argument("--degree", type=int, default=2)
    p_act.set_defaults(func=cmd_actions)

    p_train = sub.add_parser("train", help="train a policy on a problem set")
    p_train.add_argument("--problems", required=True)
    p_train.add_argument("--out", help="output directory")
    p_train.add_argument("--sweep-meta-reward", dest="sweep_meta_reward",
                         help="comma-separated meta reward grid")
    _add_settings_flags(p_train, training=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on problems")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--problems", required=True)
    p_eval.add_argument("--report", help="report JSON path")
    mode = p_eval.add_mutually_exclusive_group()
    mode.add_argument("--greedy", action="store_true")
    mode.add_argument("--sample", action="store_true")
    _add_settings_flags(p_eval, training=False)
    p_eval.set_defaults(func=cmd_eval)

    p_val = sub.add_parser("validate", help="validate a plan file")
    p_val.add_argument("domain")
    p_val.add_argument("problem")
    p_val.add_argument("plan")
    p_val.add_argument("--degree", type=int, default=2)
    p_val.set_defaults(func=cmd_validate)

    p_rate = sub.add_parser("rate", help="parallelism rate of a plan file")
    p_rate.add_argument("plan")
    p_rate.set_defaults(func=cmd_rate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleSpecError as err:
        print(f"error: infeasible spec: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (PddlError, GroundingError, CapacityError,
            NonFiniteGradientError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
