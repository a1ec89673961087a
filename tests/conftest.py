"""Shared fixtures: tiny hand-written tasks plus generated instances."""

import dataclasses

import pytest

from metaplan import (Fact, GroundOperator, custom_spec, gen_depots,
                      gen_logistics, gen_multiblocks, ground, parse_domain,
                      parse_problem)

# Toy domain with independent switch operators: exact counting is trivial.
SWITCH_DOMAIN = """\
(define (domain switches)
  (:requirements :strips :typing)
  (:types switch - object)
  (:predicates (off ?s - switch) (on ?s - switch))
  (:action flip-on
    :parameters (?s - switch)
    :precondition (and (off ?s))
    :effect (and (on ?s) (not (off ?s))))
)
"""

SWITCH_PROBLEM = """\
(define (problem four-switches)
  (:domain switches)
  (:objects s1 s2 s3 s4 - switch)
  (:init (off s1) (off s2) (off s3) (off s4))
  (:goal (and (on s1) (on s2) (on s3) (on s4)))
)
"""

# Two blocks on the table, one arm; optimal plan: pick-up then stack.
TWO_BLOCK_PROBLEM = """\
(define (problem two-blocks)
  (:domain multiblocks)
  (:objects a b - block arm1 - arm)
  (:init (ontable a) (ontable b) (clear a) (clear b) (handempty arm1))
  (:goal (and (on a b)))
)
"""

# Four blocks, two arms, two independent towers: parallel pickup halves
# the makespan (2 steps at L=2 versus 4 at L=1).
TWO_TOWER_PROBLEM = """\
(define (problem two-towers)
  (:domain multiblocks)
  (:objects a b c d - block arm1 arm2 - arm)
  (:init (ontable a) (ontable b) (ontable c) (ontable d)
         (clear a) (clear b) (clear c) (clear d)
         (handempty arm1) (handempty arm2))
  (:goal (and (on a b) (on c d)))
)
"""


def build_task(domain_text: str, problem_text: str):
    return ground(parse_domain(domain_text), parse_problem(problem_text))


def multiblocks_task(blocks: int, arms: int, seed: int):
    domain, problem = gen_multiblocks(
        custom_spec("multiblocks", seed=seed, blocks=blocks, arms=arms))
    return ground(domain, problem)


def logistics_task(seed: int, **counts):
    defaults = dict(cities=1, airplanes=0, trucks=1, locations_per_city=2,
                    packages=1)
    defaults.update(counts)
    domain, problem = gen_logistics(
        custom_spec("logistics", seed=seed, **defaults))
    return ground(domain, problem)


def depots_task(seed: int, **counts):
    defaults = dict(depots=1, distributors=1, trucks=1, pallets=2, hoists=2,
                    crates=1)
    defaults.update(counts)
    domain, problem = gen_depots(custom_spec("depots", seed=seed, **defaults))
    return ground(domain, problem)


def table_of(task):
    """The task's fact and operator table, the value tasks share by."""
    return task.facts, task.operators


def unshared(task):
    """An equal copy of ``task`` with fresh fact and operator tuples and
    records. Made by ``dataclasses.replace``, not by a grounding, it shares
    no live task's table and gets a compiled record of its own."""
    return dataclasses.replace(
        task, facts=tuple(map(Fact._make, task.facts)),
        operators=tuple(map(GroundOperator._make, task.operators)))


@pytest.fixture(scope="session")
def switch_task():
    return build_task(SWITCH_DOMAIN, SWITCH_PROBLEM)


@pytest.fixture(scope="session")
def two_block_task():
    from metaplan.generators import MULTIBLOCKS_DOMAIN
    return build_task(MULTIBLOCKS_DOMAIN, TWO_BLOCK_PROBLEM)


@pytest.fixture(scope="session")
def two_tower_task():
    from metaplan.generators import MULTIBLOCKS_DOMAIN
    return build_task(MULTIBLOCKS_DOMAIN, TWO_TOWER_PROBLEM)


@pytest.fixture(scope="session")
def blocks3_task():
    return multiblocks_task(blocks=3, arms=1, seed=5)
