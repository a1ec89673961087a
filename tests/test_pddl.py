"""Parser tests: supported subset, loud rejections, round-tripping."""

import ast
from pathlib import Path

import pytest

from metaplan import (PddlError, UnsupportedConstructError, check_compat,
                      custom_spec, domain_to_pddl, gen_depots, gen_logistics,
                      gen_multiblocks, parse_domain, parse_problem,
                      problem_to_pddl)
from metaplan.pddl import Literal

ONE_ACTION_DOMAIN = """\
(define (domain tiny)
  (:requirements :strips)
  (:predicates (p ?x))
  (:action a
    :parameters (?x)
    :precondition (and (p ?x))
    :effect (and (not (p ?x))))
)
"""

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


def test_minimal_domain():
    domain = parse_domain(ONE_ACTION_DOMAIN)
    assert len(domain.schemas) == 1
    assert len(domain.predicates) == 1
    assert domain.name == "tiny"


def test_typed_schema_params():
    domain = parse_domain(TRANSPORT_DOMAIN)
    move = domain.schemas[0]
    assert move.params == (("?t", "truck"), ("?c1", "city"), ("?c2", "city"))


def test_untyped_params_default_to_object():
    domain = parse_domain(ONE_ACTION_DOMAIN)
    assert domain.schemas[0].params == (("?x", "object"),)
    assert domain.predicates[0].params == (("?x", "object"),)


def test_symbols_folded_to_lower_case():
    text = ONE_ACTION_DOMAIN.replace("(p ?x)", "(P ?X)").replace(
        "domain tiny", "domain TINY")
    domain = parse_domain(text)
    assert domain.name == "tiny"
    assert domain.predicates[0].name == "p"


def test_comments_stripped():
    text = "; header comment\n" + ONE_ACTION_DOMAIN.replace(
        "(:requirements :strips)", "(:requirements :strips) ; trailing")
    assert parse_domain(text).name == "tiny"


def test_conditional_effect_rejected():
    text = ONE_ACTION_DOMAIN.replace(
        ":effect (and (not (p ?x)))",
        ":effect (and (when (p ?x) (not (p ?x))))")
    with pytest.raises(UnsupportedConstructError, match="conditional effect"):
        parse_domain(text)


@pytest.mark.parametrize("pre,construct", [
    ("(not (p ?x))", "negative precondition"),
    ("(or (p ?x) (p ?x))", "disjunctive precondition"),
    ("(forall (?y) (p ?y))", "universal quantifier"),
    ("(exists (?y) (p ?y))", "existential quantifier"),
    ("(= ?x ?x)", "equality"),
])
def test_unsupported_preconditions_rejected(pre, construct):
    text = ONE_ACTION_DOMAIN.replace(":precondition (and (p ?x))",
                                     f":precondition (and {pre})")
    with pytest.raises(UnsupportedConstructError) as err:
        parse_domain(text)
    assert construct in str(err.value)


def test_unsupported_requirement_rejected():
    text = ONE_ACTION_DOMAIN.replace(":strips", ":strips :adl")
    with pytest.raises(UnsupportedConstructError, match=":adl"):
        parse_domain(text)


def test_domain_constants_rejected():
    text = ONE_ACTION_DOMAIN.replace("(:predicates",
                                     "(:constants c1)\n  (:predicates")
    with pytest.raises(UnsupportedConstructError, match="constants"):
        parse_domain(text)


def test_unbound_variable_rejected():
    text = ONE_ACTION_DOMAIN.replace("(not (p ?x))", "(not (p ?y))")
    with pytest.raises(PddlError, match="unbound"):
        parse_domain(text)


def test_duplicate_predicate_rejected():
    text = ONE_ACTION_DOMAIN.replace("(:predicates (p ?x))",
                                     "(:predicates (p ?x) (p ?x ?y))")
    with pytest.raises(PddlError, match="declared twice"):
        parse_domain(text)


def test_add_and_delete_of_same_literal_rejected():
    text = ONE_ACTION_DOMAIN.replace(":effect (and (not (p ?x)))",
                                     ":effect (and (p ?x) (not (p ?x))))"[:-1])
    with pytest.raises(PddlError, match="both add and delete"):
        parse_domain(text)


def parse_error(parse, text: str) -> PddlError:
    """The error ``parse`` raises on ``text``; its message leads with the
    position it carries."""
    with pytest.raises(PddlError) as err:
        parse(text)
    assert str(err.value).startswith(
        f"<string>:{err.value.line}:{err.value.column}: ")
    return err.value


def test_syntax_error_carries_position():
    """An unclosed form is reported at the last token read."""
    err = parse_error(parse_domain,
                      "(define (domain broken)\n  (:predicates (p ?x)")
    assert (err.line, err.column) == (2, 21)


EMPTY_FORM_ACTION = """\
(define (domain d)
  (:predicates (p))
  (:action a :parameters () :precondition {pre} :effect {eff}))"""


@pytest.mark.parametrize("parse,text,position", [
    # A tab is one column.
    (parse_domain, "(define (domain d)\n\t(:bogus))", (2, 3)),
    # A CRLF line end starts the next line at column 1.
    (parse_domain, "(define (domain d)\r\n  (:bogus))", (2, 4)),
    # A comment, parentheses and all, ends at the line end.
    (parse_domain, "(define (domain d) ; (:bogus) (\n  (:bogus))", (2, 4)),
    (parse_domain,
     "; header\r\n(define (domain d)\r\n; (\r\n\t  (:bogus))", (4, 5)),
    # An empty form () at fault is reported at its '('.
    (parse_domain, "(define (domain d)\n  ())", (2, 3)),
    (parse_domain, "(define (domain d)\n  (:predicates (p) ()))", (2, 20)),
    (parse_domain, EMPTY_FORM_ACTION.format(pre="(and (p) ())", eff="(p)"),
     (3, 52)),
    (parse_domain, EMPTY_FORM_ACTION.format(pre="(p)", eff="(and (p) ())"),
     (3, 64)),
    (parse_problem,
     "(define (problem q)\n  (:domain d)\n  (:init (p) ())\n  (:goal (p)))",
     (3, 14)),
], ids=["tab", "crlf", "comment", "mixed", "empty-section",
        "empty-predicate", "empty-precondition", "empty-effect",
        "empty-init-fact"])
def test_token_positions_after_tabs_crlf_and_comments(parse, text, position):
    """Errors carry the position of the token at fault, or of the '(' of
    the empty form at fault."""
    err = parse_error(parse, text)
    assert (err.line, err.column) == position


SECTIONED_DOMAIN = """\
(define (domain tiny)
  (:requirements :strips :typing)
  (:types {types})
  (:predicates (p ?x{ptype}))
  {extra}
  (:action a :parameters (?x) :precondition (p ?x) :effect (not (p ?x)))
)
"""


def sectioned_domain(types="block arm", ptype="", extra=""):
    return SECTIONED_DOMAIN.format(types=types, ptype=ptype, extra=extra)


def action_b(fields):
    """The sectioned domain with an action ``b`` of ``fields`` on line 5,
    its '(' at column 3."""
    return sectioned_domain(extra=f"(:action b {fields})")


@pytest.mark.parametrize("extra", [
    "(:requirements :strips)",
    "(:types crate)",
    "(:predicates (q ?x))",
])
def test_repeated_domain_section_rejected_at_its_keyword(extra):
    err = parse_error(parse_domain, sectioned_domain(extra=extra))
    assert err.message == f"section {extra.split()[0][1:]} given twice"
    assert (err.line, err.column) == (5, 4)


@pytest.mark.parametrize("text,message,position", [
    (sectioned_domain(extra="(:action a :parameters (?x))"),
     "action 'a' declared twice", (6, 12)),
    (sectioned_domain(ptype=" - crate"),
     "predicate 'p' uses unknown type 'crate'", (4, 24)),
    (sectioned_domain(types="block arm block"),
     "type 'block' declared twice", (3, 21)),
    (sectioned_domain(types="block - arm arm - block"),
     "type hierarchy cycle through 'block'", (3, 11)),
    (action_b(":parameters (?x ?y ?x)"),
     "action 'b' has duplicate parameter '?x'", (5, 33)),
    (action_b(":parameters (?x - crate)"),
     "action 'b' uses unknown type 'crate'", (5, 32)),
    (action_b(":parameters (?x) :precondition (q ?x)"),
     "action 'b' precondition uses undeclared predicate 'q'", (5, 46)),
    (action_b(":parameters (?x) :effect (p ?x ?x)"),
     "action 'b' add effect (p ?x ?x): expected 1 arguments, found 2",
     (5, 40)),
    (action_b(":parameters (?x) :precondition (p c)"),
     "unsupported construct: object constant in action schema", (5, 48)),
    (action_b(":parameters (?x) :effect (not (p ?y))"),
     "action 'b' delete effect uses unbound variable '?y'", (5, 47)),
    (action_b(":parameters (?x) :effect (and (p ?x) (not (p ?x)))"),
     "action 'b' has (p ?x) in both add and delete effects", (5, 57)),
], ids=["action", "predicate-type", "type", "type-cycle",
        "duplicate-parameter", "parameter-type", "undeclared-predicate",
        "arity", "object-constant", "unbound-variable", "add-and-delete"])
def test_domain_declaration_errors_point_at_the_token(text, message, position):
    err = parse_error(parse_domain, text)
    assert (err.message, err.line, err.column) == (message, *position)


def test_sections_in_any_order():
    """A section may use a type or predicate that a later one declares."""
    text = """\
(define (domain tiny)
  (:action a :parameters (?x - block)
    :precondition (p ?x) :effect (not (p ?x)))
  (:predicates (p ?x - block))
  (:types block)
  (:requirements :strips :typing))"""
    first = parse_domain(text)
    assert parse_domain(domain_to_pddl(first)) == first
    assert first.schemas[0].params == (("?x", "block"),)


def positionless_errors(source: str) -> list[int]:
    """The lines of ``source`` that build a PddlError or an
    UnsupportedConstructError without a line and a column."""
    lines = []
    errors = ("PddlError", "UnsupportedConstructError")
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in errors):
            continue
        keywords = {k.arg for k in node.keywords}
        if not (len(node.args) >= 4 or {"line", "column"} <= keywords
                or any(isinstance(a, ast.Starred) for a in node.args[2:])):
            lines.append(node.lineno)
    return lines


def test_finds_a_positionless_error():
    source = ("raise PddlError('a', f)\n"
              "raise PddlError('b', f, 1, 2)\n"
              "raise UnsupportedConstructError('c', f, *pos)\n"
              "raise PddlError('d', f, line=1, column=2)\n"
              "raise UnsupportedConstructError('e', filename=f)\n")
    assert positionless_errors(source) == [1, 5]


def test_every_pddl_error_carries_a_position():
    path = Path(__file__).resolve().parents[1] / "src" / "metaplan" / "pddl.py"
    assert positionless_errors(path.read_text("utf-8")) == []


SECTIONED_PROBLEM = """\
(define (problem p1)
  (:domain tiny)
  (:requirements :strips)
  (:objects {objects})
  (:init (p a))
  (:goal (and (p b)))
  {extra}
)
"""


@pytest.mark.parametrize("extra", [
    "(:domain tiny)",
    "(:requirements :strips)",
    "(:objects c)",
    "(:init (p b))",
    "(:goal (and (p a)))",
])
def test_repeated_problem_section_rejected_at_its_keyword(extra):
    """Each section appears once: a second is rejected at its keyword, not
    left to replace (goal, objects) or merge with (init) the first."""
    err = parse_error(parse_problem,
                      SECTIONED_PROBLEM.format(objects="a b", extra=extra))
    assert err.message == f"section {extra.split()[0][1:]} given twice"
    assert (err.line, err.column) == (7, 4)


def test_duplicate_object_points_at_second_declaration():
    err = parse_error(parse_problem, SECTIONED_PROBLEM.format(
        objects="a b - c a", extra=""))
    assert (err.message, err.line, err.column) == (
        "object 'a' declared twice", 4, 21)


def test_empty_problem():
    problem = parse_problem("""\
(define (problem empty)
  (:domain tiny)
  (:init)
  (:goal (and))
)
""")
    assert problem.objects == ()
    assert problem.goal == frozenset()
    assert problem.init == frozenset()


def test_five_block_instance_objects():
    domain, problem = gen_multiblocks(
        custom_spec("multiblocks", seed=0, blocks=5, arms=2))
    blocks = [o for o, t in problem.objects if t == "block"]
    arms = [o for o, t in problem.objects if t == "arm"]
    assert len(blocks) == 5
    assert len(arms) == 2
    assert check_compat(domain, problem) == []


def test_negated_goal_rejected():
    with pytest.raises(UnsupportedConstructError, match="negative goal"):
        parse_problem("""\
(define (problem bad)
  (:domain tiny)
  (:objects a)
  (:init (p a))
  (:goal (not (p a)))
)
""")


def test_check_compat_clean_pair():
    domain = parse_domain(ONE_ACTION_DOMAIN)
    problem = parse_problem("""\
(define (problem ok)
  (:domain tiny)
  (:objects a b)
  (:init (p a))
  (:goal (and (p b)))
)
""")
    assert check_compat(domain, problem) == []


def test_check_compat_undeclared_predicate():
    domain = parse_domain(ONE_ACTION_DOMAIN)
    problem = parse_problem("""\
(define (problem bad)
  (:domain tiny)
  (:objects a)
  (:init (foo a))
  (:goal (and (p a)))
)
""")
    diags = check_compat(domain, problem)
    assert len(diags) == 1
    assert "foo" in diags[0]


def test_check_compat_arity_mismatch():
    domain = parse_domain(ONE_ACTION_DOMAIN)
    problem = parse_problem("""\
(define (problem bad)
  (:domain tiny)
  (:objects a b)
  (:init (p a))
  (:goal (and (p a b)))
)
""")
    diags = check_compat(domain, problem)
    assert len(diags) == 1
    assert "expected 1" in diags[0] and "found 2" in diags[0]


def test_check_compat_domain_name_mismatch():
    domain = parse_domain(ONE_ACTION_DOMAIN)
    problem = parse_problem(
        "(define (problem q) (:domain other) (:init) (:goal (and)))")
    assert any("other" in d for d in check_compat(domain, problem))


def test_parse_deterministic():
    assert parse_domain(TRANSPORT_DOMAIN) == parse_domain(TRANSPORT_DOMAIN)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("gen,counts", [
    (gen_multiblocks, dict(blocks=4, arms=2)),
    (gen_logistics, dict(cities=2, airplanes=1, trucks=2,
                         locations_per_city=2, packages=2)),
    (gen_depots, dict(depots=1, distributors=2, trucks=1, pallets=3,
                      hoists=2, crates=2)),
])
def test_round_trip_generated_instances(gen, counts, seed):
    kind = {gen_multiblocks: "multiblocks", gen_logistics: "logistics",
            gen_depots: "depots"}[gen]
    domain, problem = gen(custom_spec(kind, seed=seed, **counts))
    assert parse_domain(domain_to_pddl(domain)) == domain
    assert parse_problem(problem_to_pddl(problem)) == problem


def test_round_trip_inline_domains():
    for text in (ONE_ACTION_DOMAIN, TRANSPORT_DOMAIN):
        domain = parse_domain(text)
        assert parse_domain(domain_to_pddl(domain)) == domain


def test_literal_str_and_order():
    assert str(Literal("on", ("a", "b"))) == "(on a b)"
    assert Literal("at", ("a",)) < Literal("on", ("a", "b"))
