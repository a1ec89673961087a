"""Generator determinism, preset ranges, and solvability by construction."""

import pytest

from metaplan import generators
from metaplan import (GenSpec, InfeasibleSpecError, PRESETS, bfs_solve,
                      check_compat, custom_spec, domain_to_pddl, generate,
                      generate_dataset, gen_depots, gen_logistics,
                      gen_multiblocks, ground, preset_spec, problem_to_pddl,
                      write_dataset)


def test_preset_ranges_are_frozen():
    assert PRESETS["multiblocks"]["train"] == {"blocks": (5, 6),
                                               "arms": (2, 2)}
    assert PRESETS["multiblocks"]["test"] == {"blocks": (10, 11),
                                              "arms": (2, 2)}
    assert PRESETS["logistics"]["train"] == {
        "airplanes": (2, 4), "cities": (2, 4), "trucks": (2, 4),
        "locations_per_city": (2, 4), "packages": (1, 3)}
    assert PRESETS["logistics"]["test"] == {
        "airplanes": (3, 4), "cities": (6, 7), "trucks": (3, 4),
        "locations_per_city": (6, 7), "packages": (6, 7)}
    assert PRESETS["depots"]["train"] == {
        "depots": (1, 2), "distributors": (2, 3), "trucks": (2, 3),
        "pallets": (3, 5), "hoists": (2, 4), "crates": (3, 5)}
    assert PRESETS["depots"]["test"] == {
        "depots": (5, 6), "distributors": (5, 6), "trucks": (5, 6),
        "pallets": (5, 6), "hoists": (5, 6), "crates": (5, 6)}


def test_multiblocks_train_preset_counts():
    for seed in range(10):
        _, problem = gen_multiblocks(preset_spec("multiblocks", "train", seed))
        blocks = [o for o, t in problem.objects if t == "block"]
        arms = [o for o, t in problem.objects if t == "arm"]
        assert len(blocks) in (5, 6)
        assert len(arms) == 2


def test_logistics_test_preset_counts():
    for seed in range(5):
        _, problem = gen_logistics(preset_spec("logistics", "test", seed))
        cities = [o for o, t in problem.objects if t == "city"]
        packages = [o for o, t in problem.objects if t == "package"]
        assert len(cities) in (6, 7)
        assert len(packages) in (6, 7)


def test_depots_train_preset_counts():
    for seed in range(5):
        _, problem = gen_depots(preset_spec("depots", "train", seed))
        crates = [o for o, t in problem.objects if t == "crate"]
        hoists = [o for o, t in problem.objects if t == "hoist"]
        assert len(crates) in (3, 4, 5)
        assert len(hoists) in (2, 3, 4)


def test_preset_sampling_spans_ranges():
    seen = set()
    for seed in range(40):
        _, problem = gen_multiblocks(preset_spec("multiblocks", "train", seed))
        seen.add(len([o for o, t in problem.objects if t == "block"]))
    assert seen == {5, 6}


@pytest.mark.parametrize("kind,counts", [
    ("multiblocks", dict(blocks=3, arms=2)),
    ("logistics", dict(cities=2, airplanes=1, trucks=1,
                       locations_per_city=2, packages=1)),
    ("depots", dict(depots=1, distributors=1, trucks=1, pallets=2, hoists=2,
                    crates=1)),
])
def test_generation_deterministic(kind, counts):
    spec = custom_spec(kind, seed=123, **counts)
    d1, p1 = generate(spec)
    d2, p2 = generate(spec)
    assert domain_to_pddl(d1) == domain_to_pddl(d2)
    assert problem_to_pddl(p1) == problem_to_pddl(p2)
    assert check_compat(d1, p1) == []


def test_different_seeds_differ():
    texts = {problem_to_pddl(generate(custom_spec(
        "multiblocks", seed=s, blocks=5, arms=2))[1]) for s in range(8)}
    assert len(texts) > 1


@pytest.mark.parametrize("make", [
    lambda seed: custom_spec("multiblocks", seed=seed, blocks=4, arms=2),
    lambda seed: preset_spec("depots", "train", seed),
    lambda seed: GenSpec("logistics", {"packages": (1, 2)}, seed=seed),
], ids=["custom", "preset", "GenSpec"])
def test_negative_seed_rejected(make):
    """A negative seed would give the instance of its absolute value under
    another name."""
    assert make(0).seed == 0
    with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
        make(-5)


def test_one_block_goal_equals_init():
    domain, problem = gen_multiblocks(
        custom_spec("multiblocks", seed=3, blocks=1, arms=1))
    task = ground(domain, problem)
    plan = bfs_solve(task, 1, 5)
    assert plan is not None and plan.timesteps == 0


@pytest.mark.parametrize("seed", range(12))
def test_small_multiblocks_solvable(seed):
    domain, problem = gen_multiblocks(
        custom_spec("multiblocks", seed=seed, blocks=(3, 4), arms=(1, 2)))
    task = ground(domain, problem)
    assert bfs_solve(task, 1, 20) is not None


@pytest.mark.parametrize("seed", range(8))
def test_small_logistics_solvable(seed):
    domain, problem = gen_logistics(custom_spec(
        "logistics", seed=seed, cities=(1, 2), airplanes=1, trucks=(1, 2),
        locations_per_city=(1, 2), packages=1))
    task = ground(domain, problem)
    assert bfs_solve(task, 1, 15) is not None


@pytest.mark.parametrize("seed", range(8))
def test_minimal_depots_solvable(seed):
    domain, problem = gen_depots(custom_spec(
        "depots", seed=seed, depots=1, distributors=1, trucks=1, pallets=2,
        hoists=2, crates=1))
    task = ground(domain, problem)
    assert bfs_solve(task, 1, 15) is not None


def test_logistics_infeasible_without_airplanes():
    with pytest.raises(InfeasibleSpecError, match="airplane"):
        gen_logistics(custom_spec("logistics", seed=0, cities=2, airplanes=0,
                                  trucks=1, locations_per_city=2, packages=1))


def test_depots_infeasible_without_hoists():
    with pytest.raises(InfeasibleSpecError):
        gen_depots(custom_spec("depots", seed=0, depots=1, distributors=0,
                               trucks=1, pallets=1, hoists=0, crates=1))


def test_multiblocks_infeasible_without_blocks():
    with pytest.raises(InfeasibleSpecError):
        gen_multiblocks(custom_spec("multiblocks", seed=0, blocks=0, arms=1))


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(domain="chess", ranges={"pieces": (1, 2)})
    with pytest.raises(ValueError):
        GenSpec(domain="depots", ranges={"crates": (5, 3)})
    # A name the domain's generator does not read.
    for name in ("block", "crates"):
        with pytest.raises(ValueError, match=f"unknown range '{name}'"):
            GenSpec(domain="multiblocks", ranges={name: (8, 8)})
    with pytest.raises(ValueError):
        preset_spec("logistics", "validation")


def test_write_dataset_byte_identical(tmp_path):
    spec = preset_spec("multiblocks", "train", seed=7)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    m1 = write_dataset(spec, 4, out1)
    m2 = write_dataset(spec, 4, out2)
    assert m1 == m2
    for name in ["domain.pddl", "p01.pddl", "p04.pddl", "manifest.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert len(list(out1.glob("p*.pddl"))) == 4


@pytest.mark.parametrize("count", [0, -2])
def test_write_dataset_rejects_count_below_one(tmp_path, count):
    out = tmp_path / "data"
    with pytest.raises(ValueError, match="count must be >= 1"):
        write_dataset(preset_spec("multiblocks", "train"), count, out)
    assert not out.exists()


@pytest.mark.parametrize("failing", ["problem", "manifest"])
def test_failed_dataset_write_leaves_previous_files(tmp_path, monkeypatch,
                                                    failing):
    """A dataset write that raises partway leaves the earlier manifest and
    the file being written whole, with no temporary file beside them."""
    out = tmp_path / "data"
    write_dataset(preset_spec("multiblocks", "train", seed=7), 2, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    if failing == "problem":
        printed = []

        def print_problem(problem):
            printed.append(problem)
            if len(printed) == 2:
                raise RuntimeError("disk full")
            return problem_to_pddl(problem)

        monkeypatch.setattr(generators, "problem_to_pddl", print_problem)
        error = RuntimeError
    else:
        # json.dump writes part of the manifest before it meets the object.
        monkeypatch.setattr(GenSpec, "to_json",
                            lambda self: {"partial": 1, "bad": object()})
        error = TypeError
    with pytest.raises(error):
        write_dataset(preset_spec("multiblocks", "train", seed=8), 2, out)
    assert sorted(p.name for p in out.iterdir()) == sorted(before)
    assert (out / "manifest.json").read_bytes() == before["manifest.json"]
    if failing == "problem":
        assert (out / "p02.pddl").read_bytes() == before["p02.pddl"]
    assert (out / "p01.pddl").read_bytes() != before["p01.pddl"]


def test_generate_dataset_instances_vary():
    instances = generate_dataset(preset_spec("multiblocks", "train", 1), 5)
    names = {p.name for _, p in instances}
    assert len(names) == 5
