"""CLI contract tests: subcommands, artifacts, and stable exit codes."""

import json
import warnings
from dataclasses import fields

import numpy as np
import pytest

from metaplan import (Checkpoint, EnvConfig, FeatureConfig, PolicyParams,
                      TrainConfig, TrainResult, bfs_solve, cli, custom_spec,
                      domain_to_pddl, evaluate_policy, generate, ground,
                      ground_reachable, init_params, parse_domain,
                      parse_problem, plan_to_text, problem_to_pddl,
                      save_checkpoint, train)
from metaplan import grounding
from metaplan.cli import ACTIONS_SCHEMA_VERSION, main
from tests.conftest import (SWITCH_DOMAIN, SWITCH_PROBLEM, TWO_BLOCK_PROBLEM,
                            build_task)
from tests.reference import sets
from tests.test_policy import SHAPES
from metaplan.generators import MULTIBLOCKS_DOMAIN

ONE_OP_DOMAIN = """\
(define (domain solo)
  (:requirements :strips)
  (:predicates (ready) (done))
  (:action finish
    :parameters ()
    :precondition (and (ready))
    :effect (and (done) (not (ready))))
)
"""

ONE_OP_PROBLEM = """\
(define (problem solo-1)
  (:domain solo)
  (:init (ready))
  (:goal (and (done)))
)
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def problems_dir(tmp_path):
    out = tmp_path / "problems"
    assert main(["gen", "--domain", "multiblocks", "--preset", "custom",
                 "--range", "blocks=3:3", "--range", "arms=1:1",
                 "--count", "2", "--seed", "5", "--out", str(out)]) == 0
    return out


def test_gen_writes_files_and_manifest(problems_dir):
    files = sorted(p.name for p in problems_dir.iterdir())
    assert files == ["domain.pddl", "manifest.json", "p01.pddl", "p02.pddl"]
    manifest = json.loads((problems_dir / "manifest.json").read_text())
    assert manifest["count"] == 2
    assert manifest["spec"]["seed"] == 5


def test_gen_byte_identical_reruns(tmp_path):
    args = ["gen", "--domain", "depots", "--preset", "test", "--count", "3",
            "--seed", "1"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for p in sorted(out1.iterdir()):
        assert p.read_bytes() == (out2 / p.name).read_bytes()


def test_gen_invalid_preset_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--domain", "depots", "--preset", "huge"])
    assert err.value.code == 2


def test_gen_infeasible_spec_exit_2(tmp_path):
    code = main(["gen", "--domain", "logistics", "--preset", "custom",
                 "--range", "cities=2:2", "--range", "airplanes=0:0",
                 "--range", "trucks=1:1", "--range", "locations_per_city=1:1",
                 "--range", "packages=1:1", "--out", str(tmp_path / "x")])
    assert code == 2


def test_gen_infeasible_spec_creates_nothing(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["gen", "--domain", "multiblocks", "--preset", "custom",
                 "--range", "arms=0:0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--preset", "custom", "--range", "blocks=5:3"],
     "range blocks: min 5 > max 3"),
    (["--range", "block=8:8"], "unknown range 'block' for multiblocks"),
])
def test_gen_bad_range_exit_2(tmp_path, capsys, args, message):
    out = tmp_path / "gen"
    assert main(["gen", "--domain", "multiblocks", *args,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad --range: {message}")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("count", ["-2", "0"])
def test_gen_count_below_one_exit_2(tmp_path, capsys, count):
    out = tmp_path / "gen"
    assert main(["gen", "--domain", "multiblocks", "--count", count,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --count must be >= 1, got {count}\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    [], ["--preset", "custom", "--range", "blocks=3:3", "--range", "arms=1:1"]],
    ids=["preset", "custom"])
def test_gen_negative_seed_exit_2(tmp_path, capsys, args):
    """A negative seed would give the instances of its absolute value."""
    out = tmp_path / "gen"
    assert main(["gen", "--domain", "multiblocks", "--seed", "-3", *args,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -3\n"
    assert not out.exists()


def test_actions_single_operator(tmp_path, capsys):
    domain = write(tmp_path / "d.pddl", ONE_OP_DOMAIN)
    problem = write(tmp_path / "p.pddl", ONE_OP_PROBLEM)
    assert main(["actions", domain, problem, "--degree", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["histogram"] == {"1": 1}
    assert payload["actions"][0]["operators"] == ["(finish)"]


def test_actions_counts_pairs(tmp_path, capsys):
    domain = write(tmp_path / "d.pddl", SWITCH_DOMAIN)
    problem = write(tmp_path / "p.pddl", SWITCH_PROBLEM)
    assert main(["actions", domain, problem, "--degree", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 10  # k + C(k,2) with k = 4
    assert payload["histogram"] == {"1": 4, "2": 6}


@pytest.mark.parametrize("domain", sorted(SHAPES))
def test_actions_json_unions_atoms(domain, tmp_path, capsys):
    """"pre", "add" and "del" of every action are its atoms' unions, read
    off the task's fact sets, under schema version 1."""
    dom, prob = generate(custom_spec(domain, seed=5, **SHAPES[domain]))
    domain_text, problem_text = domain_to_pddl(dom), problem_to_pddl(prob)
    view = sets(build_task(domain_text, problem_text))
    paths = [write(tmp_path / "d.pddl", domain_text),
             write(tmp_path / "p.pddl", problem_text)]
    for degree in (1, 2, 3):
        assert main(["actions", *paths, "--degree", str(degree)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == ACTIONS_SCHEMA_VERSION == 1
        assert payload["count"] == len(payload["actions"]) > 0
        for action in payload["actions"]:
            for key, field in (("pre", view.pre), ("add", view.add),
                               ("del", view.delete)):
                want = set().union(*(field[i] for i in action["atoms"]))
                assert action[key] == sorted(want)


RAW_LOGISTICS = {"cities": 2, "airplanes": 1, "trucks": 2,
                 "locations_per_city": 2, "packages": 2}


def raw_logistics_files(tmp_path, seed=3):
    """A logistics pair on disk, whose raw table the load path prunes."""
    dom, prob = generate(custom_spec("logistics", seed=seed, **RAW_LOGISTICS))
    paths = [write(tmp_path / "d.pddl", domain_to_pddl(dom)),
             write(tmp_path / "p.pddl", problem_to_pddl(prob))]
    return dom, prob, paths


def test_actions_keep_raw_operator_ids(tmp_path, capsys):
    """``actions`` grounds raw: atoms are ids into the raw operator table,
    which differ from the pruned ids, under schema version 1."""
    dom, prob, paths = raw_logistics_files(tmp_path)
    raw = ground(dom, prob)
    pruned = ground_reachable(dom, prob).operator_index
    assert main(["actions", *paths, "--degree", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == ACTIONS_SCHEMA_VERSION == 1
    atoms = [i for action in payload["actions"] for i in action["atoms"]]
    for action in payload["actions"]:
        assert action["operators"] == [raw.operators[i].name
                                       for i in action["atoms"]]
    assert any(pruned[raw.operators[i].name] != i for i in atoms)


def test_validate_unreachable_operator_is_invalid_exit_3(tmp_path, capsys):
    """``validate`` grounds raw: an operator that relaxed reachability
    prunes still parses, and the plan fails as INVALID, not as a parse
    error."""
    dom, prob, paths = raw_logistics_files(tmp_path)
    reachable = ground_reachable(dom, prob).operator_index
    unreachable = next(op.name for op in ground(dom, prob).operators
                       if op.name not in reachable)
    plan_file = write(tmp_path / "plan.txt", f"0: {unreachable}\n")
    assert main(["validate", *paths, plan_file, "--degree", "1"]) == 3
    assert capsys.readouterr().out.startswith("INVALID at step 0")


def test_load_path_learns_as_raw_tasks(tmp_path):
    """Training and greedy evaluation on the pruned tasks that
    load_problem_dir builds give the curve, weights and report of the raw
    tasks."""
    out = tmp_path / "problems"
    ranges = [arg for name, count in RAW_LOGISTICS.items()
              for arg in ("--range", f"{name}={count}:{count}")]
    assert main(["gen", "--domain", "logistics", "--preset", "custom",
                 *ranges, "--count", "3", "--seed", "2",
                 "--out", str(out)]) == 0
    loaded = cli.load_problem_dir(str(out))
    domain = parse_domain((out / "domain.pddl").read_text())
    raw = [ground(domain, parse_problem(p.read_text()))
           for p in sorted(out.glob("p*.pddl"))]
    assert sum(len(t.operators) for t in loaded) < sum(
        len(t.operators) for t in raw)
    env_cfg = EnvConfig(degree=2, meta_reward=0.01, max_steps=10)
    cfg = TrainConfig(iterations=4, episodes_per_iteration=3,
                      learning_rate=0.3, seed=7)
    fc = FeatureConfig(degree=2)
    runs = []
    for tasks in (loaded, raw):
        result = train(tasks, env_cfg, cfg, fc)
        report = evaluate_policy(result.params, tasks, "greedy", env_cfg, fc,
                                 seed=env_cfg.seed)
        runs.append((result.curve, result.params.weights.tolist(),
                     Checkpoint(result.params, fc, cfg.seed).to_json(),
                     report.to_json()))
    assert runs[0] == runs[1]


def test_actions_degree_zero_exit_2(tmp_path, capsys):
    domain = write(tmp_path / "d.pddl", ONE_OP_DOMAIN)
    problem = write(tmp_path / "p.pddl", ONE_OP_PROBLEM)
    assert main(["actions", domain, problem, "--degree", "0"]) == 2
    assert "degree" in capsys.readouterr().err


def test_actions_parse_error_exit_2(tmp_path, capsys):
    domain = write(tmp_path / "d.pddl", "(define (domain broken)")
    problem = write(tmp_path / "p.pddl", ONE_OP_PROBLEM)
    assert main(["actions", domain, problem]) == 2


def test_undeclared_predicate_reported_once_exit_2(tmp_path, capsys):
    """A predicate the domain does not declare, used by 14 init literals,
    is one diagnostic on the one error line."""
    objects = [f"o{i}" for i in range(14)]
    domain = write(tmp_path / "d.pddl", ONE_OP_DOMAIN)
    problem = write(tmp_path / "p.pddl", f"""\
(define (problem solo-1)
  (:domain solo)
  (:objects {' '.join(objects)})
  (:init (ready) {' '.join(f'(foo {o})' for o in objects)})
  (:goal (and (done)))
)
""")
    assert main(["actions", domain, problem]) == 2
    assert capsys.readouterr().err == (
        "error: incompatible domain/problem: init uses undeclared predicate "
        "'foo'\n")


def test_train_zero_iterations_is_initialization(problems_dir, tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--iterations", "0", "--degree", "1", "--seed", "3"]) == 0
    ckpt = json.loads((out / "checkpoint.json").read_text())
    assert ckpt["version"] == 0
    assert all(w == 0.0 for w in ckpt["weights"])
    assert (out / "curve.jsonl").read_text() == ""


def test_train_rerun_byte_identical(problems_dir, tmp_path):
    args = ["train", "--problems", str(problems_dir), "--iterations", "3",
            "--episodes", "4", "--degree", "1", "--max-steps", "12",
            "--seed", "11"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("checkpoint.json", "curve.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_train_sweep_writes_per_reward_artifacts(problems_dir, tmp_path):
    out = tmp_path / "sweep"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--iterations", "2", "--episodes", "2", "--degree", "2",
                 "--max-steps", "8", "--seed", "2",
                 "--sweep-meta-reward", "0.0,0.01"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["checkpoint-r0.0.json", "checkpoint-r0.01.json",
                     "curve-r0.0.jsonl", "curve-r0.01.jsonl"]


@pytest.mark.parametrize("grid", ["-1", "0.01,-1", "0.01,nan", "0.01,x",
                                  "0.01,1e-2"])
def test_train_sweep_bad_value_exit_2_before_training(problems_dir, tmp_path,
                                                      capsys, grid):
    """Every sweep value is checked before the first model is trained."""
    out = tmp_path / "sweep"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--iterations", "1", "--episodes", "1", "--degree", "1",
                 f"--sweep-meta-reward={grid}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad --sweep-meta-reward: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--meta-reward", "nan"), ("--goal-reward", "inf"),
    ("--learning-rate", "nan"), ("--entropy-coef", "nan")])
def test_train_non_finite_setting_exit_2(problems_dir, tmp_path, capsys,
                                         flag, value):
    """A non-finite setting is an input error, not a NaN in the
    checkpoint and the curve."""
    out = tmp_path / "run"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--iterations", "1", "--episodes", "1", "--degree", "1",
                 flag, value]) == 2
    err = capsys.readouterr().err
    name = flag[2:].replace("-", "_")
    assert err.startswith(f"error: {name} must be finite")
    assert err.count("\n") == 1
    assert not out.exists()


def test_train_overflowing_rewards_exit_1(problems_dir, tmp_path, capsys):
    """Finite rewards whose gradient overflows stop training with one error
    line and no numpy warning, as an overflowing checkpoint stops eval."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--problems", str(problems_dir),
                     "--out", str(tmp_path / "run"), "--iterations", "1",
                     "--episodes", "2", "--goal-reward", "1e308",
                     "--meta-reward", "1e308"]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err == "error: iteration 0: non-finite surrogate gradient\n"


def test_train_and_eval_at_huge_degree(problems_dir, tmp_path):
    """A degree past int64 trains and evaluates: no action has more atoms
    than the task has operators, so the feature table's integers fit."""
    out = tmp_path / "run"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--iterations", "1", "--episodes", "2",
                 "--degree", str(2**63 - 1)]) == 0
    assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                 "--problems", str(problems_dir),
                 "--report", str(tmp_path / "report.json")]) == 0


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_exit_2(problems_dir, tmp_path, capsys, command,
                              source):
    """A negative seed is an input error, not a numpy traceback."""
    out = tmp_path / "out"
    args = {"train": ["train", "--problems", str(problems_dir),
                      "--out", str(out), "--iterations", "1"],
            "eval": ["eval", "--checkpoint", str(tmp_path / "none.json"),
                     "--problems", str(problems_dir), "--report", str(out)]}
    if source == "flag":
        setting = ["--seed", "-1"]
    else:
        setting = ["--config", write(tmp_path / "run.conf", "seed = -1\n")]
    assert main(args[command] + setting) == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("writer", ["report", "checkpoint", "curve"])
def test_failed_write_leaves_previous_file(problems_dir, tmp_path,
                                           monkeypatch, writer):
    """A write that raises partway leaves the old file whole and no
    temporary file beside it."""
    out = tmp_path / "run"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--iterations", "2", "--episodes", "2", "--degree", "1",
                 "--seed", "3"]) == 0
    files = {"report": out / "report.json",
             "checkpoint": out / "checkpoint.json",
             "curve": out / "curve.jsonl"}
    cli._write_json({"solved": 1}, files["report"])
    before = files[writer].read_bytes()
    # Each writer gets a value json cannot encode after it has written some.
    unencodable = {"partial": 1, "bad": object()}
    if writer == "report":
        call = lambda: cli._write_json(unencodable, files["report"])
    elif writer == "checkpoint":
        monkeypatch.setattr(Checkpoint, "to_json", lambda self: unencodable)
        call = lambda: save_checkpoint(
            Checkpoint(init_params(FeatureConfig(degree=1)),
                       FeatureConfig(degree=1), 0), str(files["checkpoint"]))
    else:
        monkeypatch.setattr(cli, "train", lambda *args: TrainResult(
            init_params(FeatureConfig(degree=1)),
            [{"iteration": 0}, unencodable]))
        call = lambda: cli._train_once([], EnvConfig(degree=1),
                                       TrainConfig(iterations=1), out, "")
    with pytest.raises(TypeError):
        call()
    assert files[writer].read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == sorted(
        p.name for p in files.values())


@pytest.mark.parametrize("command", ["gen", "train", "train-checkpoint",
                                     "eval"])
def test_unwritable_output_exit_2(problems_dir, tmp_path, capsys,
                                  monkeypatch, command):
    """An output path that cannot be written (a directory where the report
    or the checkpoint goes, a file where an output directory goes) exits 2
    with one line before any training or evaluation runs, and leaves no
    temporary file."""
    run = tmp_path / "run"
    assert main(["train", "--problems", str(problems_dir), "--out", str(run),
                 "--iterations", "0", "--degree", "1"]) == 0

    def ran(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(cli, "train", ran)
    monkeypatch.setattr(cli, "evaluate_policy", ran)
    taken = tmp_path / "taken"
    if command == "eval":
        taken.mkdir()
        args = ["eval", "--checkpoint", str(run / "checkpoint.json"),
                "--problems", str(problems_dir), "--report", str(taken)]
    elif command == "train-checkpoint":
        (taken / "checkpoint.json").mkdir(parents=True)
        args = ["train", "--problems", str(problems_dir), "--iterations",
                "0", "--out", str(taken)]
        taken = taken / "checkpoint.json"
    else:
        taken.write_text("keep\n", encoding="utf-8")
        args = {"gen": ["gen", "--domain", "multiblocks", "--count", "1",
                        "--out", str(taken)],
                "train": ["train", "--problems", str(problems_dir),
                          "--iterations", "0", "--out", str(taken)]}[command]
    capsys.readouterr()
    before = sorted(tmp_path.rglob("*"))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {taken}: ")
    assert err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_train_no_problems_exit_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["train", "--problems", str(empty), "--out",
                 str(tmp_path / "o")]) == 2


def test_train_config_file_with_flag_override(problems_dir, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("iterations = 1\nseed = 4  # comment\ndegree = 1\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--config", str(config), "--iterations", "0"]) == 0
    ckpt = json.loads((out / "checkpoint.json").read_text())
    assert ckpt["version"] == 0  # flag overrode the file's iterations = 1
    assert ckpt["seed"] == 4


def no_problem_dirs(tmp_path, problems_dir):
    """A directory with no file and one with only ``domain.pddl``."""
    empty, domain_only = tmp_path / "none", tmp_path / "domain-only"
    empty.mkdir()
    domain_only.mkdir()
    (domain_only / "domain.pddl").write_bytes(
        (problems_dir / "domain.pddl").read_bytes())
    return empty, domain_only


def test_eval_empty_problems_dir(tmp_path, problems_dir, capsys):
    """A problem directory without a problem file is an input error, as
    train has it, and no report is written."""
    out = tmp_path / "run"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--iterations", "0", "--degree", "1"]) == 0
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    for path in no_problem_dirs(tmp_path, problems_dir):
        assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                     "--problems", str(path),
                     "--report", str(report_path)]) == 2
        assert capsys.readouterr().err == \
            f"error: no problems found in {path}\n"
        assert not report_path.exists()


def test_train_empty_problems_dir(tmp_path, problems_dir, capsys):
    out = tmp_path / "run"
    for path in no_problem_dirs(tmp_path, problems_dir):
        assert main(["train", "--problems", str(path), "--out", str(out),
                     "--iterations", "0"]) == 2
        assert capsys.readouterr().err == \
            f"error: no problems found in {path}\n"
        assert not out.exists()


def test_eval_report_labels_mode(problems_dir, tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--iterations", "0", "--degree", "1"]) == 0
    for flag, mode in (("--greedy", "greedy"), ("--sample", "sample")):
        report_path = tmp_path / f"report-{mode}.json"
        assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                     "--problems", str(problems_dir),
                     "--report", str(report_path), flag, "--degree", "1",
                     "--seed", "3"]) == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["mode"] == mode
        assert report["config"]["env"]["seed"] == 3


def test_eval_missing_checkpoint_exit_2(problems_dir, tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "nope.json"),
                 "--problems", str(problems_dir)]) == 2


def test_eval_adopts_checkpoint_degree(problems_dir, tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--iterations", "0", "--degree", "1"]) == 0
    report_path = tmp_path / "report.json"
    assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                 "--problems", str(problems_dir),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["config"]["env"]["degree"] == 1


@pytest.mark.parametrize("source", ["flag", "config"])
def test_eval_degree_mismatch_exit_2(problems_dir, tmp_path, capsys, source):
    out = tmp_path / "run"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--iterations", "0", "--degree", "1"]) == 0
    capsys.readouterr()
    if source == "flag":
        setting = ["--degree", "2"]
    else:
        config = tmp_path / "eval.conf"
        config.write_text("degree = 2\n", encoding="utf-8")
        setting = ["--config", str(config)]
    assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                 "--problems", str(problems_dir),
                 "--report", str(tmp_path / "report.json")] + setting) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "degree" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("text", [
    json.dumps({"schema_version": 99, "weights": [0.0, 0.0], "baseline": 0.0,
                "return_count": 0, "version": 0,
                "feature": {"degree": 2, "d_hash": 64}, "seed": 0}),
    json.dumps({"schema_version": 1, "weights": [0.0, 0.0], "baseline": 0.0,
                "return_count": 0, "version": 0,
                "feature": {"degree": 2, "d_hash": 64}, "seed": 0}),
    json.dumps({"schema_version": 1, "weights": [0.0] * 70}),
    '{"schema_version": 1, "weights": [',
    json.dumps({"schema_version": 1, "weights": [0.0] * 70, "baseline": 0.0,
                "return_count": 0, "version": 0,
                "feature": {"degree": 2.7, "d_hash": 64}, "seed": 0}),
    json.dumps({"schema_version": 1, "weights": [0.0] * 70,
                "baseline": "0.5", "return_count": 0, "version": 0,
                "feature": {"degree": 2, "d_hash": 64}, "seed": 0}),
    json.dumps({"schema_version": 1, "weights": ["1"] + [0.0] * 69,
                "baseline": 0.0, "return_count": 0, "version": 0,
                "feature": {"degree": 2, "d_hash": 64}, "seed": 0}),
], ids=["schema-version", "weight-count", "missing-key", "not-json",
        "float-degree", "string-baseline", "string-weight"])
def test_eval_malformed_checkpoint_exit_2(problems_dir, tmp_path, capsys,
                                          text):
    path = write(tmp_path / "checkpoint.json", text)
    assert main(["eval", "--checkpoint", path,
                 "--problems", str(problems_dir),
                 "--report", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_eval_overflowing_checkpoint_exit_2(problems_dir, tmp_path, capsys):
    """Finite weights whose logits overflow make a bad checkpoint: one error
    line, no numpy warning and no report, not an all-NaN policy."""
    fc = FeatureConfig(degree=2)
    checkpoint = Checkpoint(PolicyParams(np.full(fc.dim, 1e308)), fc, 0)
    path = write(tmp_path / "checkpoint.json",
                 json.dumps(checkpoint.to_json()))
    report = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", "--checkpoint", path,
                     "--problems", str(problems_dir),
                     "--report", str(report)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad checkpoint {path}: largest logit ")
    assert err.count("\n") == 1
    assert not report.exists()


def test_validate_oracle_plan(tmp_path, capsys):
    domain = write(tmp_path / "d.pddl", MULTIBLOCKS_DOMAIN)
    problem = write(tmp_path / "p.pddl", TWO_BLOCK_PROBLEM)
    task = build_task(MULTIBLOCKS_DOMAIN, TWO_BLOCK_PROBLEM)
    plan = bfs_solve(task, 1, 10)
    plan_file = write(tmp_path / "plan.txt", plan_to_text(task, plan))
    assert main(["validate", domain, problem, plan_file, "--degree", "1"]) == 0
    assert "VALID" in capsys.readouterr().out


def test_validate_conflicting_pair_exit_3(tmp_path, capsys):
    domain = write(tmp_path / "d.pddl", MULTIBLOCKS_DOMAIN)
    problem = write(tmp_path / "p.pddl", TWO_BLOCK_PROBLEM)
    plan_file = write(tmp_path / "plan.txt",
                      "0: (pick-up arm1 a) (pick-up arm1 b)\n")
    assert main(["validate", domain, problem, plan_file,
                 "--degree", "2"]) == 3
    assert "conflict" in capsys.readouterr().out


def test_validate_malformed_plan_exit_2(tmp_path):
    domain = write(tmp_path / "d.pddl", MULTIBLOCKS_DOMAIN)
    problem = write(tmp_path / "p.pddl", TWO_BLOCK_PROBLEM)
    plan_file = write(tmp_path / "plan.txt", "0: pick-up arm1 a\n")
    assert main(["validate", domain, problem, plan_file]) == 2


def test_rate_sequential(tmp_path, capsys):
    plan_file = write(tmp_path / "plan.txt",
                      "0: (pick-up arm1 a)\n1: (stack arm1 a b)\n")
    assert main(["rate", plan_file]) == 0
    assert capsys.readouterr().out.strip() == "0.000"


def test_rate_three_of_ten(tmp_path, capsys):
    lines = [f"{t}: (op{t} x) (op{t} y)" if t < 3 else f"{t}: (op{t} x)"
             for t in range(10)]
    plan_file = write(tmp_path / "plan.txt", "\n".join(lines) + "\n")
    assert main(["rate", plan_file]) == 0
    assert capsys.readouterr().out.strip() == "0.300"


def test_rate_empty_plan_exit_2(tmp_path, capsys):
    plan_file = write(tmp_path / "plan.txt", "")
    assert main(["rate", plan_file]) == 2
    assert "empty plan" in capsys.readouterr().err


def test_rate_unreadable_exit_2(tmp_path):
    assert main(["rate", str(tmp_path / "missing.txt")]) == 2


def test_rate_non_utf8_exit_2(tmp_path, capsys):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_bytes(b"\xff\xfe0: (a x)\n")
    assert main(["rate", str(plan_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {plan_file}: ")
    assert err.count("\n") == 1


def test_config_non_utf8_exit_2(problems_dir, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_bytes(b"iterations = 0\n# caf\xff\n")
    out = tmp_path / "out"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {config}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_train_problem_path_is_a_directory_exit_2(problems_dir, capsys):
    (problems_dir / "x.pddl").mkdir()
    assert main(["train", "--problems", str(problems_dir),
                 "--iterations", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {problems_dir / 'x.pddl'}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fault", ["no-domain", "malformed-problem",
                                   "incompatible-problem"])
def test_problem_dir_input_fault_exit_2(problems_dir, tmp_path, capsys,
                                        fault):
    """A fault in a file of the named problem directory exits 2, as any
    fault in a named input does."""
    if fault == "no-domain":
        (problems_dir / "domain.pddl").unlink()
    elif fault == "malformed-problem":
        write(problems_dir / "p03.pddl", "(define (problem broken)")
    else:
        write(problems_dir / "p03.pddl", ONE_OP_PROBLEM)
    out = tmp_path / "out"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--iterations", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_capacity_exceeded_exit_1(tmp_path, capsys, monkeypatch):
    """Valid input that the run cannot finish exits 1."""
    monkeypatch.setattr(grounding, "DEFAULT_OPERATOR_CAP", 0)
    domain = write(tmp_path / "d.pddl", ONE_OP_DOMAIN)
    problem = write(tmp_path / "p.pddl", ONE_OP_PROBLEM)
    assert main(["actions", domain, problem]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: grounding operators exceeded cap 0: 1\n"


@pytest.mark.parametrize("text", [
    "3: (a x) (b y) junk\n7: (c z)\n",
    "0: (a x) (b y) junk\n1: (c z)\n",
    "0: (a x) (a x)\n",
], ids=["timestep-order", "leftover-text", "duplicate-name"])
def test_rate_rejects_what_validate_rejects(tmp_path, capsys, text):
    plan_file = write(tmp_path / "plan.txt", text)
    assert main(["rate", plan_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("line,key", [("degre = 3", "degre"),
                                      ("episodes = 8", "episodes")])
def test_config_unknown_key_exit_2(problems_dir, tmp_path, capsys, command,
                                   line, key):
    config = write(tmp_path / "run.conf", f"iterations = 0\n{line}\n")
    out = tmp_path / "out"
    args = {"train": ["train", "--problems", str(problems_dir),
                      "--out", str(out)],
            "eval": ["eval", "--checkpoint", str(tmp_path / "none.json"),
                     "--problems", str(problems_dir), "--report", str(out)]}
    assert main(args[command] + ["--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("text,line,message", [
    ("degree = 2\ndegree = 3\n", 2, "config key degree given twice"),
    ("# run\nepisodes-per-iteration = 2\n\nepisodes_per_iteration = 4\n", 4,
     "config key episodes_per_iteration given twice"),
    ("iterations = 0\ndegree = two\n", 2,
     "config key degree: invalid literal for int() with base 10: 'two'"),
    ("gamma = high\n", 1,
     "config key gamma: could not convert string to float: 'high'"),
], ids=["repeat", "repeat-dash-spelling", "bad-int", "bad-float"])
def test_config_bad_line_exit_2(problems_dir, tmp_path, capsys, command,
                                text, line, message):
    """A key given twice, in either spelling, or a value its setting cannot
    read is an input error at its line, not a silent last value."""
    config = write(tmp_path / "run.conf", text)
    out = tmp_path / "out"
    args = {"train": ["train", "--problems", str(problems_dir),
                      "--out", str(out)],
            "eval": ["eval", "--checkpoint", str(tmp_path / "none.json"),
                     "--problems", str(problems_dir), "--report", str(out)]}
    assert main(args[command] + ["--config", config]) == 2
    assert capsys.readouterr().err == f"error: {config}:{line}: {message}\n"
    assert not out.exists()


def test_config_keys_shared_by_train_and_eval(problems_dir, tmp_path):
    """Training keys in a config file do not stop eval, and env keys do
    not stop train."""
    config = write(tmp_path / "run.conf",
                   "iterations = 0\nepisodes_per_iteration = 2\n"
                   "gamma = 0.9\ndegree = 1\n")
    out = tmp_path / "run"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--config", config]) == 0
    assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                 "--problems", str(problems_dir),
                 "--report", str(tmp_path / "report.json"),
                 "--config", config]) == 0


def test_settings_flags_are_the_config_fields():
    """``train`` has one flag per environment and training setting, in field
    order, and ``eval`` one per environment setting; ``--episodes`` sets
    ``episodes_per_iteration``."""
    env = [f.name for f in fields(EnvConfig)]
    training = [f.name for f in fields(TrainConfig) if f.name not in env]
    parser = cli.build_parser()
    others = {"command", "func", "config", "problems", "out",
              "sweep_meta_reward", "checkpoint", "report", "greedy", "sample"}
    train_args = vars(parser.parse_args(["train", "--problems", "p",
                                         "--episodes", "3"]))
    eval_args = vars(parser.parse_args(["eval", "--checkpoint", "c",
                                        "--problems", "p"]))
    assert [k for k in train_args if k not in others] == env + training
    assert [k for k in eval_args if k not in others] == env
    assert train_args["episodes_per_iteration"] == 3
