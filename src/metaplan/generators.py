"""Seeded random problem generators: multi-arm blocksworld, logistics, depots.

Instances are solvable by construction: blocksworld configurations are
mutually reachable, logistics packages are only placed where a transport
chain exists, and depots crates live only at locations that have both a
hoist and a pallet. Identical specs (including the seed) produce identical
ASTs, hence byte-identical PDDL output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .files import open_atomic, write_json
from .pddl import DomainAst, Literal, ProblemAst, parse_domain, \
    domain_to_pddl, problem_to_pddl

MULTIBLOCKS = "multiblocks"
LOGISTICS = "logistics"
DEPOTS = "depots"
DOMAIN_KINDS = (MULTIBLOCKS, LOGISTICS, DEPOTS)

MANIFEST_SCHEMA_VERSION = 1


class InfeasibleSpecError(Exception):
    """The requested object counts cannot guarantee solvable instances."""


@dataclass(frozen=True)
class GenSpec:
    """Domain kind, per-object-type count ranges, seed, and preset tag."""

    domain: str
    ranges: dict[str, tuple[int, int]]
    seed: int = 0
    preset: str = "custom"

    def __post_init__(self) -> None:
        if self.domain not in DOMAIN_KINDS:
            raise ValueError(f"unknown domain kind {self.domain!r}")
        if not self.ranges:
            raise ValueError("ranges must be non-empty")
        # The names the domain's generator reads are its presets' names.
        known = PRESETS[self.domain]["train"]
        for name, (lo, hi) in self.ranges.items():
            if name not in known:
                raise ValueError(f"unknown range {name!r} for {self.domain}; "
                                 f"expected one of {', '.join(known)}")
            if lo > hi:
                raise ValueError(f"range {name}: min {lo} > max {hi}")
        # A negative seed would give the instance of its absolute value.
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def with_seed(self, seed: int) -> "GenSpec":
        return replace(self, seed=seed)

    def to_json(self) -> dict[str, Any]:
        return {"domain": self.domain,
                "ranges": {k: list(v) for k, v in self.ranges.items()},
                "seed": self.seed, "preset": self.preset}


# Table-style size presets for each domain's train and test distributions.
PRESETS: dict[str, dict[str, dict[str, tuple[int, int]]]] = {
    MULTIBLOCKS: {
        "train": {"blocks": (5, 6), "arms": (2, 2)},
        "test": {"blocks": (10, 11), "arms": (2, 2)},
    },
    LOGISTICS: {
        "train": {"airplanes": (2, 4), "cities": (2, 4), "trucks": (2, 4),
                  "locations_per_city": (2, 4), "packages": (1, 3)},
        "test": {"airplanes": (3, 4), "cities": (6, 7), "trucks": (3, 4),
                 "locations_per_city": (6, 7), "packages": (6, 7)},
    },
    DEPOTS: {
        "train": {"depots": (1, 2), "distributors": (2, 3), "trucks": (2, 3),
                  "pallets": (3, 5), "hoists": (2, 4), "crates": (3, 5)},
        "test": {"depots": (5, 6), "distributors": (5, 6), "trucks": (5, 6),
                 "pallets": (5, 6), "hoists": (5, 6), "crates": (5, 6)},
    },
}


def preset_spec(domain: str, preset: str, seed: int = 0) -> GenSpec:
    if domain not in PRESETS:
        raise ValueError(f"unknown domain kind {domain!r}")
    if preset not in PRESETS[domain]:
        raise ValueError(f"unknown preset {preset!r} for {domain}")
    return GenSpec(domain=domain, ranges=dict(PRESETS[domain][preset]),
                   seed=seed, preset=preset)


def custom_spec(domain: str, seed: int = 0,
                **counts: int | tuple[int, int]) -> GenSpec:
    """Spec with explicit counts; plain ints become degenerate ranges."""
    ranges = {name: (v, v) if isinstance(v, int) else tuple(v)  # type: ignore
              for name, v in counts.items()}
    return GenSpec(domain=domain, ranges=ranges, seed=seed, preset="custom")


def _sample_counts(spec: GenSpec, rng: random.Random) -> dict[str, int]:
    return {name: rng.randint(lo, hi)
            for name, (lo, hi) in spec.ranges.items()}


# ---------------------------------------------------------------------------
# Multi-arm blocksworld
# ---------------------------------------------------------------------------

MULTIBLOCKS_DOMAIN = """\
(define (domain multiblocks)
  (:requirements :strips :typing)
  (:types block arm - object)
  (:predicates
    (on ?x - block ?y - block)
    (ontable ?x - block)
    (clear ?x - block)
    (handempty ?a - arm)
    (holding ?a - arm ?x - block))
  (:action pick-up
    :parameters (?a - arm ?x - block)
    :precondition (and (clear ?x) (ontable ?x) (handempty ?a))
    :effect (and (holding ?a ?x)
                 (not (ontable ?x)) (not (clear ?x)) (not (handempty ?a))))
  (:action put-down
    :parameters (?a - arm ?x - block)
    :precondition (and (holding ?a ?x))
    :effect (and (ontable ?x) (clear ?x) (handempty ?a)
                 (not (holding ?a ?x))))
  (:action stack
    :parameters (?a - arm ?x - block ?y - block)
    :precondition (and (holding ?a ?x) (clear ?y))
    :effect (and (on ?x ?y) (clear ?x) (handempty ?a)
                 (not (holding ?a ?x)) (not (clear ?y))))
  (:action unstack
    :parameters (?a - arm ?x - block ?y - block)
    :precondition (and (on ?x ?y) (clear ?x) (handempty ?a))
    :effect (and (holding ?a ?x) (clear ?y)
                 (not (on ?x ?y)) (not (clear ?x)) (not (handempty ?a))))
)
"""


def _random_towers(rng: random.Random, blocks: list[str]) -> dict[str, str]:
    """Assign each block to 'table' or a unique supporting block."""
    order = list(blocks)
    rng.shuffle(order)
    tops: list[str] = []
    placement: dict[str, str] = {}
    for block in order:
        choice = rng.choice(["table"] + tops)
        placement[block] = choice
        if choice != "table":
            tops.remove(choice)
        tops.append(block)
    return placement


def _tower_literals(placement: dict[str, str],
                    blocks: list[str]) -> tuple[set[Literal], set[str]]:
    literals = set()
    supported = set(placement.values())
    clear = {b for b in blocks if b not in supported}
    for block in blocks:
        below = placement[block]
        if below == "table":
            literals.add(Literal("ontable", (block,)))
        else:
            literals.add(Literal("on", (block, below)))
    return literals, clear


def gen_multiblocks(spec: GenSpec) -> tuple[DomainAst, ProblemAst]:
    """Random tower rearrangement instance with one or more robot arms."""
    rng = random.Random(spec.seed)
    counts = _sample_counts(spec, rng)
    n_blocks = counts.get("blocks", 0)
    n_arms = counts.get("arms", 2)
    if n_blocks < 1 or n_arms < 1:
        raise InfeasibleSpecError("need at least 1 block and 1 arm")

    blocks = [f"b{i}" for i in range(1, n_blocks + 1)]
    arms = [f"arm{i}" for i in range(1, n_arms + 1)]

    init_placement = _random_towers(rng, blocks)
    goal_placement = _random_towers(rng, blocks)

    init, clear = _tower_literals(init_placement, blocks)
    init |= {Literal("clear", (b,)) for b in clear}
    init |= {Literal("handempty", (a,)) for a in arms}
    goal, _ = _tower_literals(goal_placement, blocks)

    domain = parse_domain(MULTIBLOCKS_DOMAIN, "multiblocks-domain")
    problem = ProblemAst(
        name=f"multiblocks-{n_blocks}b-{n_arms}a-s{spec.seed}",
        domain_name="multiblocks",
        objects=tuple([(b, "block") for b in blocks]
                      + [(a, "arm") for a in arms]),
        init=frozenset(init), goal=frozenset(goal))
    return domain, problem


# ---------------------------------------------------------------------------
# Logistics
# ---------------------------------------------------------------------------

LOGISTICS_DOMAIN = """\
(define (domain logistics)
  (:requirements :strips :typing)
  (:types
    city place physobj - object
    package vehicle - physobj
    truck airplane - vehicle
    airport location - place)
  (:predicates
    (in-city ?loc - place ?city - city)
    (at ?obj - physobj ?loc - place)
    (in ?pkg - package ?veh - vehicle))
  (:action load-truck
    :parameters (?pkg - package ?truck - truck ?loc - place)
    :precondition (and (at ?truck ?loc) (at ?pkg ?loc))
    :effect (and (in ?pkg ?truck) (not (at ?pkg ?loc))))
  (:action unload-truck
    :parameters (?pkg - package ?truck - truck ?loc - place)
    :precondition (and (at ?truck ?loc) (in ?pkg ?truck))
    :effect (and (at ?pkg ?loc) (not (in ?pkg ?truck))))
  (:action load-airplane
    :parameters (?pkg - package ?airplane - airplane ?loc - place)
    :precondition (and (at ?airplane ?loc) (at ?pkg ?loc))
    :effect (and (in ?pkg ?airplane) (not (at ?pkg ?loc))))
  (:action unload-airplane
    :parameters (?pkg - package ?airplane - airplane ?loc - place)
    :precondition (and (at ?airplane ?loc) (in ?pkg ?airplane))
    :effect (and (at ?pkg ?loc) (not (in ?pkg ?airplane))))
  (:action drive-truck
    :parameters (?truck - truck ?loc-from - place ?loc-to - place ?city - city)
    :precondition (and (at ?truck ?loc-from)
                       (in-city ?loc-from ?city) (in-city ?loc-to ?city))
    :effect (and (at ?truck ?loc-to) (not (at ?truck ?loc-from))))
  (:action fly-airplane
    :parameters (?airplane - airplane ?loc-from - airport ?loc-to - airport)
    :precondition (and (at ?airplane ?loc-from))
    :effect (and (at ?airplane ?loc-to) (not (at ?airplane ?loc-from))))
)
"""


def gen_logistics(spec: GenSpec) -> tuple[DomainAst, ProblemAst]:
    """Package delivery instance where every package is deliverable.

    Each city gets one airport plus ``locations_per_city`` plain locations.
    Packages start and end only at locations served by a truck of the same
    city, or at airports; inter-city goals require at least one airplane.
    """
    rng = random.Random(spec.seed)
    counts = _sample_counts(spec, rng)
    n_cities = counts.get("cities", 0)
    n_airplanes = counts.get("airplanes", 0)
    n_trucks = counts.get("trucks", 0)
    n_locations = counts.get("locations_per_city", 0)
    n_packages = counts.get("packages", 0)
    if n_cities < 1 or n_locations < 1 or n_trucks < 1:
        raise InfeasibleSpecError(
            "need at least 1 city, 1 location per city, and 1 truck")
    if n_cities > 1 and n_airplanes < 1:
        raise InfeasibleSpecError(
            "multiple cities require at least 1 airplane for inter-city goals")

    cities = [f"city{i}" for i in range(1, n_cities + 1)]
    airports = {c: f"airport{i}" for i, c in enumerate(cities, start=1)}
    city_locations = {
        c: [airports[c]] + [f"loc{i}-{j}" for j in range(1, n_locations + 1)]
        for i, c in enumerate(cities, start=1)}
    trucks = [f"truck{i}" for i in range(1, n_trucks + 1)]
    airplanes = [f"plane{i}" for i in range(1, n_airplanes + 1)]
    packages = [f"pkg{i}" for i in range(1, n_packages + 1)]

    truck_city = {t: rng.choice(cities) for t in trucks}
    truck_loc = {t: rng.choice(city_locations[truck_city[t]]) for t in trucks}
    plane_loc = {p: airports[rng.choice(cities)] for p in airplanes}

    cities_with_truck = set(truck_city.values())
    allowed = {c: (city_locations[c] if c in cities_with_truck
                   else [airports[c]]) for c in cities}
    endpoints = [(c, loc) for c in cities for loc in allowed[c]]
    pairs = [(o, d) for o in endpoints for d in endpoints
             if o[1] != d[1] and (o[0] == d[0] or n_airplanes >= 1)]
    if not pairs:
        raise InfeasibleSpecError("no deliverable origin/destination pair")

    init: set[Literal] = set()
    for c in cities:
        for loc in city_locations[c]:
            init.add(Literal("in-city", (loc, c)))
    for t in trucks:
        init.add(Literal("at", (t, truck_loc[t])))
    for p in airplanes:
        init.add(Literal("at", (p, plane_loc[p])))
    goal: set[Literal] = set()
    for pkg in packages:
        (_, origin), (_, dest) = rng.choice(pairs)
        init.add(Literal("at", (pkg, origin)))
        goal.add(Literal("at", (pkg, dest)))

    objects = ([(c, "city") for c in cities]
               + [(airports[c], "airport") for c in cities]
               + [(loc, "location") for c in cities
                  for loc in city_locations[c][1:]]
               + [(t, "truck") for t in trucks]
               + [(p, "airplane") for p in airplanes]
               + [(pkg, "package") for pkg in packages])

    domain = parse_domain(LOGISTICS_DOMAIN, "logistics-domain")
    problem = ProblemAst(
        name=f"logistics-{n_cities}c-{n_packages}p-s{spec.seed}",
        domain_name="logistics", objects=tuple(objects),
        init=frozenset(init), goal=frozenset(goal))
    return domain, problem


# ---------------------------------------------------------------------------
# Depots
# ---------------------------------------------------------------------------

DEPOTS_DOMAIN = """\
(define (domain depots)
  (:requirements :strips :typing)
  (:types
    place locatable - object
    depot distributor - place
    truck hoist surface - locatable
    pallet crate - surface)
  (:predicates
    (at ?x - locatable ?y - place)
    (on ?x - crate ?y - surface)
    (in ?x - crate ?y - truck)
    (lifting ?x - hoist ?y - crate)
    (available ?x - hoist)
    (clear ?x - surface))
  (:action drive
    :parameters (?x - truck ?y - place ?z - place)
    :precondition (and (at ?x ?y))
    :effect (and (at ?x ?z) (not (at ?x ?y))))
  (:action lift
    :parameters (?x - hoist ?y - crate ?z - surface ?p - place)
    :precondition (and (at ?x ?p) (available ?x) (at ?y ?p)
                       (on ?y ?z) (clear ?y))
    :effect (and (lifting ?x ?y) (clear ?z)
                 (not (at ?y ?p)) (not (clear ?y)) (not (available ?x))
                 (not (on ?y ?z))))
  (:action drop
    :parameters (?x - hoist ?y - crate ?z - surface ?p - place)
    :precondition (and (at ?x ?p) (at ?z ?p) (clear ?z) (lifting ?x ?y))
    :effect (and (available ?x) (at ?y ?p) (clear ?y) (on ?y ?z)
                 (not (lifting ?x ?y)) (not (clear ?z))))
  (:action load
    :parameters (?x - hoist ?y - crate ?z - truck ?p - place)
    :precondition (and (at ?x ?p) (at ?z ?p) (lifting ?x ?y))
    :effect (and (in ?y ?z) (available ?x) (not (lifting ?x ?y))))
  (:action unload
    :parameters (?x - hoist ?y - crate ?z - truck ?p - place)
    :precondition (and (at ?x ?p) (at ?z ?p) (available ?x) (in ?y ?z))
    :effect (and (lifting ?x ?y) (not (in ?y ?z)) (not (available ?x))))
)
"""


def _stack_crates(rng: random.Random, crates: list[str],
                  pallet_place: dict[str, str],
                  active: list[str]) -> dict[str, tuple[str, str]]:
    """Assign each crate a (place, base surface); bases host one crate each."""
    open_surfaces = {place: [p for p, pl in pallet_place.items() if pl == place]
                     for place in active}
    assignment: dict[str, tuple[str, str]] = {}
    for crate in crates:
        place = rng.choice([p for p in active if open_surfaces[p]])
        base = rng.choice(open_surfaces[place])
        open_surfaces[place].remove(base)
        open_surfaces[place].append(crate)
        assignment[crate] = (place, base)
    return assignment


def gen_depots(spec: GenSpec) -> tuple[DomainAst, ProblemAst]:
    """Crate restacking instance; crates only appear where a hoist and a
    pallet are both present, so every arrangement is reachable by truck."""
    rng = random.Random(spec.seed)
    counts = _sample_counts(spec, rng)
    n_depots = counts.get("depots", 0)
    n_distributors = counts.get("distributors", 0)
    n_trucks = counts.get("trucks", 0)
    n_pallets = counts.get("pallets", 0)
    n_hoists = counts.get("hoists", 0)
    n_crates = counts.get("crates", 0)
    if n_depots + n_distributors < 1:
        raise InfeasibleSpecError("need at least 1 depot or distributor")
    if n_trucks < 1 or n_hoists < 1 or n_pallets < 1:
        raise InfeasibleSpecError("need at least 1 truck, 1 hoist, 1 pallet")

    places = ([f"depot{i}" for i in range(1, n_depots + 1)]
              + [f"distributor{i}" for i in range(1, n_distributors + 1)])
    trucks = [f"truck{i}" for i in range(1, n_trucks + 1)]
    pallets = [f"pallet{i}" for i in range(1, n_pallets + 1)]
    hoists = [f"hoist{i}" for i in range(1, n_hoists + 1)]
    crates = [f"crate{i}" for i in range(1, n_crates + 1)]

    order = rng.sample(places, len(places))
    pallet_place = {p: order[i % len(order)] for i, p in enumerate(pallets)}
    hoist_place = {h: order[i % len(order)] for i, h in enumerate(hoists)}
    active = [p for p in order
              if p in pallet_place.values() and p in hoist_place.values()]
    if n_crates > 0 and not active:
        raise InfeasibleSpecError(
            "no location has both a hoist and a pallet to serve crates")

    init_stack = _stack_crates(rng, crates, pallet_place, active) if crates \
        else {}
    goal_stack = _stack_crates(rng, crates, pallet_place, active) if crates \
        else {}

    init: set[Literal] = set()
    for p in pallets:
        init.add(Literal("at", (p, pallet_place[p])))
    for h in hoists:
        init.add(Literal("at", (h, hoist_place[h])))
        init.add(Literal("available", (h,)))
    for t in trucks:
        init.add(Literal("at", (t, rng.choice(places))))
    occupied = set()
    for crate, (place, base) in init_stack.items():
        init.add(Literal("at", (crate, place)))
        init.add(Literal("on", (crate, base)))
        occupied.add(base)
    for surface in pallets + crates:
        if surface not in occupied:
            init.add(Literal("clear", (surface,)))

    goal = {Literal("on", (crate, base))
            for crate, (_, base) in goal_stack.items()}

    objects = ([(p, "depot") for p in places if p.startswith("depot")]
               + [(p, "distributor") for p in places
                  if p.startswith("distributor")]
               + [(t, "truck") for t in trucks]
               + [(p, "pallet") for p in pallets]
               + [(h, "hoist") for h in hoists]
               + [(c, "crate") for c in crates])

    domain = parse_domain(DEPOTS_DOMAIN, "depots-domain")
    problem = ProblemAst(
        name=f"depots-{len(places)}pl-{n_crates}c-s{spec.seed}",
        domain_name="depots", objects=tuple(objects),
        init=frozenset(init), goal=frozenset(goal))
    return domain, problem


# ---------------------------------------------------------------------------
# Dispatch and dataset files
# ---------------------------------------------------------------------------

_GENERATORS = {
    MULTIBLOCKS: gen_multiblocks,
    LOGISTICS: gen_logistics,
    DEPOTS: gen_depots,
}


def generate(spec: GenSpec) -> tuple[DomainAst, ProblemAst]:
    return _GENERATORS[spec.domain](spec)


def generate_dataset(spec: GenSpec,
                     count: int) -> list[tuple[DomainAst, ProblemAst]]:
    """``count`` instances with per-instance seeds derived from the spec seed."""
    rng = random.Random(spec.seed)
    seeds = [rng.randrange(2 ** 31) for _ in range(count)]
    return [generate(spec.with_seed(s)) for s in seeds]


def write_dataset(spec: GenSpec, count: int, out_dir: str | Path) -> dict:
    """Write domain.pddl, p<NN>.pddl files, and a manifest; returns the manifest.

    Each file is replaced whole through :func:`~metaplan.files.open_atomic`,
    and the manifest last, so a write that raises leaves the earlier
    manifest as it was. A ``count`` below 1, or a spec the generator
    rejects, raises before anything is created.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    instances = generate_dataset(spec, count)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "spec": spec.to_json(),
        "count": count,
        "domain_file": "domain.pddl",
        "problems": [],
    }
    for i, (domain, problem) in enumerate(instances, start=1):
        if i == 1:
            with open_atomic(out / "domain.pddl") as fh:
                fh.write(domain_to_pddl(domain))
        fname = f"p{i:02d}.pddl"
        with open_atomic(out / fname) as fh:
            fh.write(problem_to_pddl(problem))
        manifest["problems"].append({"file": fname, "name": problem.name})
    write_json(out / "manifest.json", manifest)
    return manifest
