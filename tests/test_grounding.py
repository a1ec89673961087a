"""Grounding tests against brute-force binding-enumeration oracles."""

import gc
import pickle
import tracemalloc
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from metaplan import grounding
from metaplan import (CapacityError, Fact, GroundingError, GroundOperator,
                      InfeasibleSpecError, Literal, custom_spec, gen_depots,
                      gen_logistics, gen_multiblocks, generate, ground,
                      ground_reachable, parse_domain, parse_problem,
                      preset_spec, task_to_json)
from metaplan.generators import PRESETS
from tests.conftest import logistics_task, multiblocks_task
from tests.reference import reachability_prune, reference_ground, sets

TRANSPORT_DOMAIN = """\
(define (domain transport)
  (:requirements :strips :typing)
  (:types truck city - object)
  (:predicates (at ?t - truck ?c - city))
  (:action move
    :parameters (?t - truck ?c1 - city ?c2 - city)
    :precondition (and (at ?t ?c1))
    :effect (and (at ?t ?c2) (not (at ?t ?c1))))
)
"""

TRANSPORT_PROBLEM = """\
(define (problem haul)
  (:domain transport)
  (:objects t1 t2 - truck c1 c2 c3 - city)
  (:init (at t1 c1) (at t2 c2))
  (:goal (and (at t1 c3)))
)
"""


def brute_force_operator_count(domain, problem) -> int:
    """Enumerate type-consistent total bindings directly from the ASTs."""
    compatible = {}
    for obj, tname in problem.objects:
        for anc in domain.ancestors(tname):
            compatible.setdefault(anc, []).append(obj)
    count = 0
    for schema in domain.schemas:
        pools = [compatible.get(t, []) for _, t in schema.params]
        count += sum(1 for _ in product(*pools))
    return count


def test_transport_18_operators():
    domain = parse_domain(TRANSPORT_DOMAIN)
    problem = parse_problem(TRANSPORT_PROBLEM)
    task = ground(domain, problem)
    assert len(task.operators) == 18  # 2 trucks * 3 * 3 cities
    assert len(task.operators) == brute_force_operator_count(domain, problem)


def test_empty_type_product():
    domain = parse_domain(TRANSPORT_DOMAIN)
    problem = parse_problem("""\
(define (problem haul)
  (:domain transport)
  (:objects c1 c2 c3 - city)
  (:init)
  (:goal (and))
)
""")
    assert len(ground(domain, problem).operators) == 0


def test_multiblocks_count_matches_binding_oracle():
    domain, problem = gen_multiblocks(
        custom_spec("multiblocks", seed=9, blocks=3, arms=1))
    task = ground(domain, problem)
    assert len(task.operators) == brute_force_operator_count(domain, problem)
    # pick-up/put-down: arms*blocks, stack/unstack: arms*blocks^2
    assert len(task.operators) == 2 * (1 * 3) + 2 * (1 * 3 * 3)


def test_binding_reproduces_lifted_literals():
    domain, problem = gen_logistics(custom_spec(
        "logistics", seed=2, cities=2, airplanes=1, trucks=1,
        locations_per_city=1, packages=1))
    task = ground(domain, problem)
    keys = [(f.predicate, f.args) for f in task.facts]
    schemas = {s.name: s for s in domain.schemas}
    view = sets(task)
    for op in task.operators:
        schema = schemas[op.schema]
        binding = {v: obj for (v, _), obj in zip(schema.params, op.args)}
        expect = {
            "pre": {(l.predicate, tuple(binding[a] for a in l.args))
                    for l in schema.pre},
            "add": {(l.predicate, tuple(binding[a] for a in l.args))
                    for l in schema.add},
        }
        got_pre = {keys[i] for i in view.pre[op.id]}
        got_add = {keys[i] for i in view.add[op.id]}
        got_del = {keys[i] for i in view.delete[op.id]}
        assert got_pre == expect["pre"]
        assert got_add == expect["add"]
        # delete may have lost literals that collided with add
        raw_del = {(l.predicate, tuple(binding[a] for a in l.args))
                   for l in schema.delete}
        assert got_del == raw_del - expect["add"]


def mask_bits(mask: int) -> set[int]:
    """The set bits of ``mask``, tested one position at a time."""
    return {f for f in range(mask.bit_length()) if mask >> f & 1}


REPRESENTED = {
    "multiblocks": (gen_multiblocks, {"blocks": 3, "arms": 2}),
    "logistics": (gen_logistics, {"cities": 2, "airplanes": 1, "trucks": 2,
                                  "locations_per_city": 2, "packages": 2}),
    "depots": (gen_depots, {"depots": 1, "distributors": 1, "trucks": 1,
                            "pallets": 2, "hoists": 2, "crates": 2}),
}


@pytest.mark.parametrize("grounder", [ground, ground_reachable],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("kind", sorted(REPRESENTED))
def test_operators_hold_their_lists_as_masks(kind, grounder):
    """Each operator stores its lists, and the task its init and goal, only
    as int masks whose bits are the facts of the bound literals; the
    reference's set view is those bits; facts and operators keep no
    instance ``__dict__``."""
    gen, counts = REPRESENTED[kind]
    domain, problem = gen(custom_spec(kind, seed=3, **counts))
    task = grounder(domain, problem)
    assert task.operators
    assert not any(hasattr(task, name) for name in ("init", "goal"))
    fact_keys = [(f.predicate, f.args) for f in task.facts]
    ref = sets(task)
    for mask, view, literals in ((task.init_mask, ref.init, problem.init),
                                 (task.goal_mask, ref.goal, problem.goal)):
        assert type(mask) is int
        assert type(view) is frozenset and view == mask_bits(mask)
        assert {fact_keys[f] for f in view} == {
            (lit.predicate, lit.args) for lit in literals}
    schemas = {s.name: s for s in domain.schemas}
    for op in task.operators:
        schema = schemas[op.schema]
        binding = {v: obj for (v, _), obj in zip(schema.params, op.args)}
        pre, add, delete = ({(l.predicate, tuple(binding[a] for a in l.args))
                             for l in literals}
                            for literals in (schema.pre, schema.add,
                                             schema.delete))
        lists = ((op.pre_mask, ref.pre[op.id], pre),
                 (op.add_mask, ref.add[op.id], add),
                 (op.delete_mask, ref.delete[op.id], delete - add))
        for mask, view, keys in lists:
            assert type(mask) is int
            bits = mask_bits(mask)
            assert type(view) is frozenset and view == bits
            assert {fact_keys[f] for f in bits} == keys
        assert not hasattr(op, "__dict__")
        assert not any(hasattr(op, name) for name in ("pre", "add", "delete"))
    assert not any(hasattr(fact, "__dict__") for fact in task.facts)


@pytest.mark.parametrize("record", [
    Fact(3, "on", ("a", "b")),
    GroundOperator(7, "stack", ("a", "b"), 0b101, 0b10, 0b1000),
    Literal("on", ("a", "b")),
], ids=["fact", "operator", "literal"])
def test_value_records_are_named_tuples(record):
    """The records are named tuples built by their own constructors: read
    only, with no instance ``__dict__``, equal and hashed by value as their
    field tuple, and printed field by field."""
    cls = type(record)
    values = record._asdict()
    fields = tuple(values.values())
    assert cls(**values) == cls(*fields) == record == record._replace() \
        == fields
    assert hash(cls(*fields)) == hash(record) == hash(fields)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in values.items()) + ")"
    assert pickle.loads(pickle.dumps(record)) == record
    assert cls.__slots__ == () and not hasattr(record, "__dict__")
    for name in (cls._fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(TypeError):
        cls(*fields[:-1])


def test_literals_sort_by_predicate_then_args():
    literals = [Literal("on", ("b", "a")), Literal("clear", ("b",)),
                Literal("on", ("a", "b")), Literal("clear", ("a",)),
                Literal("handempty", ())]
    assert sorted(literals) == [
        Literal("clear", ("a",)), Literal("clear", ("b",)),
        Literal("handempty", ()), Literal("on", ("a", "b")),
        Literal("on", ("b", "a"))]
    assert Literal("on", ("a",)) < Literal("on", ("a", "b"))


def test_operators_hold_under_400_bytes_each():
    """The memory a grounded task keeps, per operator: three int masks in a
    named tuple. Three frozensets in a plain dataclass kept about 900."""
    pairs = [gen_multiblocks(custom_spec("multiblocks", seed=seed, blocks=4,
                                         arms=3))
             for seed in range(20)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tasks = [ground(domain, problem) for domain, problem in pairs]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    operators = sum(len(task.operators) for task in tasks)
    assert operators == 20 * 120
    assert held < 400 * operators


def test_self_move_is_noop():
    task = ground(parse_domain(TRANSPORT_DOMAIN),
                  parse_problem(TRANSPORT_PROBLEM))
    self_moves = [op for op in task.operators if op.args[1] == op.args[2]]
    assert len(self_moves) == 6
    view = sets(task)
    for op in self_moves:
        assert not (view.add[op.id] & view.delete[op.id])
        # delete lost to the colliding add
        assert view.delete[op.id] == frozenset()


def test_ground_is_deterministic():
    domain, problem = gen_multiblocks(
        custom_spec("multiblocks", seed=4, blocks=4, arms=2))
    a = task_to_json(ground(domain, problem))
    b = task_to_json(ground(domain, problem))
    assert a == b


def test_fact_table_structure():
    task = multiblocks_task(blocks=3, arms=1, seed=7)
    assert [f.index for f in task.facts] == list(range(len(task.facts)))
    keys = [(f.predicate, f.args) for f in task.facts]
    assert keys == sorted(keys)
    assert sets(task).init <= set(range(len(task.facts)))
    assert sets(task).goal <= set(range(len(task.facts)))


def test_incompatible_pair_raises():
    domain = parse_domain(TRANSPORT_DOMAIN)
    problem = parse_problem(TRANSPORT_PROBLEM.replace("transport", "other"))
    with pytest.raises(GroundingError):
        ground(domain, problem)


def test_operator_cap(monkeypatch):
    domain = parse_domain(TRANSPORT_DOMAIN)
    problem = parse_problem(TRANSPORT_PROBLEM)
    monkeypatch.setattr(grounding, "DEFAULT_OPERATOR_CAP", 10)
    with pytest.raises(CapacityError):
        ground(domain, problem)


# ---------------------------------------------------------------------------
# Delete-relaxation pruning
# ---------------------------------------------------------------------------

def relaxed_reachability_oracle(data: dict) -> list[int]:
    """Queue-based fixpoint over the JSON dump, independent of the library."""
    reached = set(data["init"])
    ops = data["operators"]
    pending = list(range(len(ops)))
    kept: set[int] = set()
    progress = True
    while progress:
        progress = False
        for i in list(pending):
            if set(ops[i]["pre"]) <= reached:
                kept.add(i)
                pending.remove(i)
                reached |= set(ops[i]["add"])
                progress = True
    return sorted(kept)


def test_prune_identity_when_all_reachable():
    task = multiblocks_task(blocks=3, arms=1, seed=7)
    pruned = reachability_prune(task)
    assert len(pruned.operators) == len(task.operators)
    assert task_to_json(pruned) == task_to_json(task)


GATED_DOMAIN = """\
(define (domain gated)
  (:requirements :strips)
  (:predicates (key) (door-open) (inside))
  (:action enter
    :parameters ()
    :precondition (and (door-open))
    :effect (and (inside)))
  (:action unlock
    :parameters ()
    :precondition (and (key))
    :effect (and (door-open)))
)
"""


def test_prune_drops_unreachable_operator():
    domain = parse_domain(GATED_DOMAIN)
    problem = parse_problem("""\
(define (problem locked-out)
  (:domain gated)
  (:init)
  (:goal (and (inside)))
)
""")
    task = ground(domain, problem)
    pruned = reachability_prune(task)
    assert len(task.operators) == 2
    assert len(pruned.operators) == 0
    assert sets(pruned).goal  # goal facts survive re-densification


def test_prune_matches_fixpoint_oracle():
    task = logistics_task(seed=3, cities=2, airplanes=1, trucks=1,
                          locations_per_city=2, packages=2)
    data = task_to_json(task)
    kept_oracle = relaxed_reachability_oracle(data)
    pruned = reachability_prune(task)
    kept_names = [task.operators[i].name for i in kept_oracle]
    assert [op.name for op in pruned.operators] == kept_names


def test_prune_preserves_solvability():
    from metaplan import bfs_solve
    task = logistics_task(seed=8)
    pruned = reachability_prune(task)
    before = bfs_solve(task, 1, 15)
    after = bfs_solve(pruned, 1, 15)
    assert (before is None) == (after is None)
    if before is not None:
        assert before.timesteps == after.timesteps


# ---------------------------------------------------------------------------
# Grounding only the relaxed-reachable task
# ---------------------------------------------------------------------------

def assert_equals_pruned_raw(domain, problem):
    """ground_reachable equals the pruned raw task: facts, operators, ids
    and order."""
    got = ground_reachable(domain, problem)
    assert task_to_json(got) == task_to_json(
        reachability_prune(ground(domain, problem)))
    return got


GENERATORS = {
    "multiblocks": (gen_multiblocks, {"blocks": (1, 5), "arms": (1, 3)}),
    "logistics": (gen_logistics, {"cities": (1, 3), "airplanes": (0, 2),
                                  "trucks": (1, 3),
                                  "locations_per_city": (1, 3),
                                  "packages": (0, 3)}),
    "depots": (gen_depots, {"depots": (0, 2), "distributors": (0, 2),
                            "trucks": (1, 2), "pallets": (1, 4),
                            "hoists": (1, 3), "crates": (0, 3)}),
}


@given(st.sampled_from(sorted(GENERATORS)), st.data(),
       st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_ground_reachable_equals_pruned_ground(kind, data, seed):
    gen, ranges = GENERATORS[kind]
    counts = {name: data.draw(st.integers(lo, hi), label=name)
              for name, (lo, hi) in ranges.items()}
    try:
        domain, problem = gen(custom_spec(kind, seed=seed, **counts))
    except InfeasibleSpecError:
        assume(False)
    assert_equals_pruned_raw(domain, problem)


@pytest.mark.parametrize("init,built,kept", [
    ("", 1, []),
    ("(key)", 2, ["(enter)", "(unlock)"]),
])
def test_ground_reachable_zero_parameter_schemas(init, built, kept,
                                                monkeypatch):
    """(key) is static and has no parameter: without it in init, unlock is
    rejected before it is built, so only enter counts against the cap, and
    enter is never reached."""
    domain = parse_domain(GATED_DOMAIN)
    problem = parse_problem(f"""\
(define (problem gate)
  (:domain gated)
  (:init {init})
  (:goal (and (inside)))
)
""")
    task = assert_equals_pruned_raw(domain, problem)
    assert [op.name for op in task.operators] == kept
    monkeypatch.setattr(grounding, "DEFAULT_OPERATOR_CAP", built)
    ground_reachable(domain, problem)
    monkeypatch.setattr(grounding, "DEFAULT_OPERATOR_CAP", built - 1)
    with pytest.raises(CapacityError):
        ground_reachable(domain, problem)


def test_ground_reachable_goal_only_facts():
    """Goal facts that no kept operator mentions stay in the fact table."""
    problem = parse_problem("""\
(define (problem gate)
  (:domain gated)
  (:init)
  (:goal (and (inside) (key)))
)
""")
    task = assert_equals_pruned_raw(parse_domain(GATED_DOMAIN), problem)
    assert not task.operators
    assert sorted(str(task.facts[i]) for i in sets(task).goal) == [
        "(inside)", "(key)"]


def test_ground_reachable_repeated_object_drops_delete():
    """(move t c c) adds and deletes (at t c); the delete entry is dropped
    as ground drops it."""
    task = assert_equals_pruned_raw(parse_domain(TRANSPORT_DOMAIN),
                                    parse_problem(TRANSPORT_PROBLEM))
    self_moves = [op for op in task.operators if op.args[1] == op.args[2]]
    assert len(self_moves) == 6
    view = sets(task)
    assert all(view.delete[op.id] == frozenset() and view.add[op.id]
               for op in self_moves)


ROADS_DOMAIN = """\
(define (domain roads)
  (:requirements :strips :typing)
  (:types place vehicle - object truck - vehicle)
  (:predicates (road ?from - place ?to - place)
               (at ?v - vehicle ?p - place)
               (ferry ?p - place) (parked ?v - vehicle))
  (:action drive
    :parameters (?from - place ?to - place ?v - vehicle)
    :precondition (and (road ?from ?to) (at ?v ?from))
    :effect (and (at ?v ?to) (not (at ?v ?from))))
  (:action park
    :parameters (?v - truck ?p - place ?spot - place)
    :precondition (and (at ?v ?p))
    :effect (and (parked ?v)))
  (:action sail
    :parameters (?v - vehicle ?from - place ?to - place)
    :precondition (and (at ?v ?from) (ferry ?from) (ferry ?to))
    :effect (and (at ?v ?to) (not (at ?v ?from))))
)
"""

ROADS_PROBLEM = """\
(define (problem roads-1)
  (:domain roads)
  (:objects a b c d e - place t1 - truck v1 - vehicle)
  (:init (at t1 a) (at v1 c) (road a b) (road b a) (road c d) (road e a))
  (:goal (and (at t1 b) (parked v1)))
)
"""


def test_ground_reachable_subtypes_free_parameters_and_dead_schemas():
    """Vehicle pools hold the truck too; ?v of drive is bound after the last
    static test and ?spot of park appears in no literal at all; sail has no
    binding that passes the static join, and nothing reaches place e, so
    (road e a) passes the static join but no drive from e is kept."""
    domain, problem = parse_domain(ROADS_DOMAIN), parse_problem(ROADS_PROBLEM)
    task = assert_equals_pruned_raw(domain, problem)
    names = [op.name for op in task.operators]
    assert "(drive a b t1)" in names and "(drive c d v1)" in names
    assert not any(op.schema == "sail" for op in task.operators)
    assert not any(op.args[:1] == ("e",) for op in task.operators
                   if op.schema == "drive")
    # t1 reaches a and b; ?spot takes every place.
    assert sum(op.schema == "park" for op in task.operators) == 2 * 5
    assert len(task.operators) < len(ground(domain, problem).operators)


def test_ground_reachable_incompatible_pair_raises():
    with pytest.raises(GroundingError):
        ground_reachable(parse_domain(TRANSPORT_DOMAIN),
                         parse_problem(TRANSPORT_PROBLEM.replace("transport",
                                                                 "other")))


def static_join_count(domain, problem) -> int:
    """Raw operators whose static preconditions hold in init, counted over
    the raw task."""
    task = ground(domain, problem)
    dynamic = {lit.predicate for s in domain.schemas
               for lit in s.add | s.delete}
    keys = [(f.predicate, f.args) for f in task.facts]
    init = {keys[i] for i in sets(task).init}
    return sum(all(keys[i] in init for i in pre
                   if task.facts[i].predicate not in dynamic)
               for pre in sets(task).pre)


def test_ground_reachable_cap_counts_static_join_survivors(monkeypatch):
    """The operator cap counts the operators built, not the binding
    product: a raw logistics task loads under a cap that ground trips on."""
    domain, problem = gen_logistics(custom_spec(
        "logistics", seed=1, cities=3, airplanes=1, trucks=3,
        locations_per_city=2, packages=2))
    raw = len(ground(domain, problem).operators)
    built = static_join_count(domain, problem)
    reachable = len(reachability_prune(ground(domain, problem)).operators)
    assert reachable < built < raw
    monkeypatch.setattr(grounding, "DEFAULT_OPERATOR_CAP", built)
    task = ground_reachable(domain, problem)
    assert len(task.operators) == reachable
    with pytest.raises(CapacityError) as err:
        ground(domain, problem)
    assert err.value.count == raw
    monkeypatch.setattr(grounding, "DEFAULT_OPERATOR_CAP", built - 1)
    with pytest.raises(CapacityError) as err:
        ground_reachable(domain, problem)
    assert (err.value.count, err.value.cap) == (built, built - 1)


WIDE_DOMAIN = """\
(define (domain wide)
  (:requirements :strips)
  (:predicates (link ?a ?b ?c ?d ?e) (mark ?a) (done))
  (:action join
    :parameters (?a ?b ?c ?d ?e)
    :precondition (and (mark ?a) (link ?a ?b ?c ?d ?e))
    :effect (and (done) (not (mark ?a))))
)
"""


def wide_problem(n: int):
    """n objects, so n ** 5 bindings of join, of which the one static
    link fact lets exactly one through."""
    objects = " ".join(f"o{i}" for i in range(n))
    return parse_problem(f"""\
(define (problem wide-{n})
  (:domain wide)
  (:objects {objects})
  (:init (mark o0) (link o0 o0 o0 o0 o0))
  (:goal (and (done)))
)
""")


CHAIN_DOMAIN = """\
(define (domain chain)
  (:requirements :strips)
  (:predicates (link ?x ?y) (last ?a ?b ?c ?d ?e) (mark ?a) (done))
  (:action join
    :parameters (?a ?b ?c ?d ?e)
    :precondition (and (mark ?a) (link ?a ?b) (link ?b ?c) (link ?c ?d)
                       (link ?d ?e) (last ?a ?b ?c ?d ?e))
    :effect (and (done) (not (mark ?a))))
)
"""


def chain_problem(n: int):
    """n objects, every pair of them linked, and one last fact, so the
    static join keeps one of the n ** 5 bindings of join."""
    objects = [f"o{i}" for i in range(n)]
    links = " ".join(f"(link {x} {y})" for x in objects for y in objects)
    return parse_problem(f"""\
(define (problem chain-{n})
  (:domain chain)
  (:objects {' '.join(objects)})
  (:init (mark o0) {links} (last o0 o0 o0 o0 o0))
  (:goal (and (done)))
)
""")


def test_ground_reachable_binding_cap_bounds_static_join(monkeypatch):
    """The join binds ?b, ?c and ?d first (each in three static literals,
    ?b lowest), each completing one more link, then ?a (completing
    (link ?a ?b), lower than ?e) and last ?e. Every link is in init, so
    each of the first four depths keeps every object: n + n**2 + n**3 +
    n**4 partial bindings, of which (last ...) keeps one at ?e. They count
    against the binding cap, which stops a product far above the operator
    cap even though the join keeps one binding of it."""
    domain = parse_domain(CHAIN_DOMAIN)
    made = sum(4 ** depth for depth in range(1, 5))
    monkeypatch.setattr(grounding, "DEFAULT_BINDING_CAP", made)
    task = assert_equals_pruned_raw(domain, chain_problem(4))
    assert [op.name for op in task.operators] == ["(join o0 o0 o0 o0 o0)"]
    monkeypatch.setattr(grounding, "DEFAULT_BINDING_CAP", made - 1)
    with pytest.raises(CapacityError) as err:
        ground_reachable(domain, chain_problem(4))
    assert (err.value.count, err.value.cap) == (made, made - 1)

    huge = chain_problem(40)
    with pytest.raises(CapacityError) as err:
        ground(domain, huge)
    assert err.value.count == 40 ** 5 > grounding.DEFAULT_OPERATOR_CAP
    monkeypatch.setattr(grounding, "DEFAULT_BINDING_CAP", 100_000)
    with pytest.raises(CapacityError) as err:
        ground_reachable(domain, huge)
    assert err.value.cap == 100_000
    assert err.value.count <= 100_000 + 40


@pytest.mark.parametrize("seed,survivors", [(1, 5400), (2, 4716)])
def test_static_join_makes_fewer_bindings_than_it_keeps(monkeypatch, seed,
                                                        survivors):
    """drive-truck's in-city literals narrow ?loc-from and ?loc-to to the
    places of the city bound first, so on the logistics test preset the
    join makes fewer partial bindings than the operators that survive it
    (binding ?truck first made 49,564 and 48,531 for the same survivors)."""
    domain, problem = generate(preset_spec("logistics", "test", seed))
    monkeypatch.setattr(grounding, "DEFAULT_OPERATOR_CAP", survivors)
    monkeypatch.setattr(grounding, "DEFAULT_BINDING_CAP", survivors)
    ground_reachable(domain, problem)
    monkeypatch.setattr(grounding, "DEFAULT_OPERATOR_CAP", survivors - 1)
    with pytest.raises(CapacityError) as err:
        ground_reachable(domain, problem)
    assert err.value.count == survivors


def test_join_order_binds_most_constrained_parameter_first():
    """drive-truck binds ?city (in both in-city literals) before the places
    it narrows; a unary literal completes its parameter at once; the chain
    of CHAIN_DOMAIN binds ?b, ?c, ?d, ?a and last ?e."""
    drive = [("in-city", (1, 3)), ("in-city", (2, 3))]
    assert grounding._join_order(drive) == [
        (3, []), (1, [("in-city", (1, 3))]), (2, [("in-city", (2, 3))])]
    road = [("road", (0, 1)), ("airport", (1,))]
    assert grounding._join_order(road) == [
        (1, [("airport", (1,))]), (0, [("road", (0, 1))])]
    chain = [("link", (0, 1)), ("link", (1, 2)), ("link", (2, 3)),
             ("link", (3, 4)), ("last", (0, 1, 2, 3, 4))]
    assert grounding._join_order(chain) == [
        (1, []), (2, [("link", (1, 2))]), (3, [("link", (2, 3))]),
        (0, [("link", (0, 1))]),
        (4, [("last", (0, 1, 2, 3, 4)), ("link", (3, 4))])]


JOIN_OBJECTS = "abcd"


@st.composite
def static_joins(draw):
    """Sorted pools of up to four parameters, static relations of arity 0
    to 3 over JOIN_OBJECTS, and literals of those relations over the
    parameters, repeats allowed."""
    arity = draw(st.integers(1, 4))
    pools = [sorted(draw(st.sets(st.sampled_from(JOIN_OBJECTS))))
             for _ in range(arity)]
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    relations = {
        f"r{i}": draw(st.sets(st.tuples(*[st.sampled_from(JOIN_OBJECTS)] * k),
                              max_size=12))
        for i, k in enumerate(sizes)}
    statics = draw(st.lists(
        st.sampled_from(range(len(sizes))).flatmap(
            lambda i: st.tuples(st.just(f"r{i}"), st.tuples(
                *[st.integers(0, arity - 1)] * sizes[i]))),
        max_size=4))
    return pools, statics, relations


@given(static_joins())
@example((["ab", "abc"], [("r0", (1, 1, 0))],
          {"r0": {"aab", "bba", "ccb", "abb"}}))  # a repeated parameter
@example((["abc", "abcd", "ab"], [("r0", (2, 0))],
          {"r0": {"ba", "bc", "ac"}}))  # a parameter in no literal
@example((["b", "bc"], [("r0", (0, 1)), ("r1", (1,))],
          {"r0": {"ab", "bc", "bd", "cc"}, "r1": {"a", "c", "d"}}))  # narrow
@example((["ab", "ab"], [("r0", (0,)), ("r1", (0, 1))],
          {"r0": {"a"}, "r1": set()}))  # an empty relation
@example((["ab"], [("r0", (0,)), ("r1", ())],
          {"r0": {"a"}, "r1": set()}))  # an unsatisfiable 0-ary literal
@settings(max_examples=300, deadline=None)
def test_static_join_equals_filtered_product(join):
    """The index join yields exactly the bindings of product(*pools) whose
    static literals all hold, in the same order, and charges each of them
    as an operator. (The examples write a pool or an args tuple of
    one-letter objects as a string.)"""
    pools, statics, relations = join
    pools = [list(pool) for pool in pools]
    relations = {pred: {tuple(args) for args in rel}
                 for pred, rel in relations.items()}
    expected = [combo for combo in product(*pools)
                if all(tuple(combo[p] for p in pos) in relations[pred]
                       for pred, pos in statics)]
    spent = Counter()
    assert list(grounding._static_bindings(pools, statics, relations,
                                           spent)) == expected
    assert spent["operators"] == len(expected)


# ---------------------------------------------------------------------------
# Both groundings against the plain reference grounder
# ---------------------------------------------------------------------------

def assert_matches_reference(domain, problem):
    """ground equals the plain grounder of ``tests/reference.py``, and
    ground_reachable equals that grounder's task pruned, so a fault shared
    by the two library groundings still shows."""
    raw = reference_ground(domain, problem)
    assert task_to_json(ground(domain, problem)) == task_to_json(raw)
    assert task_to_json(ground_reachable(domain, problem)) == task_to_json(
        reachability_prune(raw))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("preset", ["train", "test"])
@pytest.mark.parametrize("kind", sorted(PRESETS))
def test_groundings_match_reference_on_presets(kind, preset, seed):
    assert_matches_reference(*generate(preset_spec(kind, preset, seed)))


@pytest.mark.parametrize("domain,problem", [
    # (move t c c) binds one object twice: add and delete collide.
    (TRANSPORT_DOMAIN, TRANSPORT_PROBLEM),
    # 0-ary schemas and literals, (key) static.
    (GATED_DOMAIN, "(define (problem g) (:domain gated) (:init (key))"
                   " (:goal (and (inside))))"),
    # Static preconditions, subtypes, a parameter in no literal.
    (ROADS_DOMAIN, ROADS_PROBLEM),
    # A static literal over five parameters, most bindings rejected.
    (WIDE_DOMAIN, None),
    # A join order other than the declaration order.
    (CHAIN_DOMAIN, None),
], ids=["repeated-objects", "zero-ary", "static", "wide", "chain"])
def test_groundings_match_reference_on_inline_domains(domain, problem):
    domain = parse_domain(domain)
    if problem:
        problem = parse_problem(problem)
    else:
        problem = wide_problem(3) if domain.name == "wide" else chain_problem(3)
    assert_matches_reference(domain, problem)
