"""CLI contract tests: subcommands, artifacts, and stable exit codes."""

import json

import pytest

from metaplan import bfs_solve, plan_to_text
from metaplan.cli import main
from tests.conftest import (SWITCH_DOMAIN, SWITCH_PROBLEM, TWO_BLOCK_PROBLEM,
                            build_task)
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


def test_actions_degree_zero_exit_2(tmp_path, capsys):
    domain = write(tmp_path / "d.pddl", ONE_OP_DOMAIN)
    problem = write(tmp_path / "p.pddl", ONE_OP_PROBLEM)
    assert main(["actions", domain, problem, "--degree", "0"]) == 2
    assert "degree" in capsys.readouterr().err


def test_actions_parse_error_exit_1(tmp_path, capsys):
    domain = write(tmp_path / "d.pddl", "(define (domain broken)")
    problem = write(tmp_path / "p.pddl", ONE_OP_PROBLEM)
    assert main(["actions", domain, problem]) == 1


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


def test_eval_empty_problems_dir(tmp_path, problems_dir):
    out = tmp_path / "run"
    assert main(["train", "--problems", str(problems_dir), "--out", str(out),
                 "--iterations", "0", "--degree", "1"]) == 0
    empty = tmp_path / "none"
    empty.mkdir()
    report_path = tmp_path / "report.json"
    assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                 "--problems", str(empty), "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["solved"] == 0 and report["total"] == 0
    assert report["coverage"] is None


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


def test_eval_missing_checkpoint_exit_1(problems_dir, tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "nope.json"),
                 "--problems", str(problems_dir)]) == 1


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
], ids=["schema-version", "weight-count", "missing-key", "not-json"])
def test_eval_malformed_checkpoint_exit_2(problems_dir, tmp_path, capsys,
                                          text):
    path = write(tmp_path / "checkpoint.json", text)
    assert main(["eval", "--checkpoint", path,
                 "--problems", str(problems_dir),
                 "--report", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_rate_unreadable_exit_1(tmp_path):
    assert main(["rate", str(tmp_path / "missing.txt")]) == 1
