"""
Conflicts and meta-actions
==========================

Two operators conflict when one deletes a precondition of the other
(interference) or deletes one of the other's add effects (inconsistent
effects). Conflict-free sets of operators can run simultaneously as a
single meta-action whose effect triplets are the unions of its atoms'.
"""

from metaplan import (action_space_stats, applicable_actions,
                      build_conflict_set, custom_spec, gen_multiblocks,
                      ground, reset)

# Four blocks, two arms: two towers can be built in parallel.
domain, problem = gen_multiblocks(
    custom_spec("multiblocks", seed=7, blocks=4, arms=2))
task = ground(domain, problem)
print(f"{task.problem_name}: {len(task.operators)} operators")

# The conflict relation is precomputed once for the whole operator table.
n = build_conflict_set(task)
print(f"conflicting pairs: {len(n)}")

# Same arm twice: interference (both need and delete the arm's free hand).
a = task.operator_index["(pick-up arm1 b1)"]
b = task.operator_index["(pick-up arm1 b2)"]
c = task.operator_index["(pick-up arm2 b2)"]
print(f"pick-up arm1 b1 vs pick-up arm1 b2 -> {n.conflicting(a, b)}")
print(f"pick-up arm1 b1 vs pick-up arm2 b2 -> {n.conflicting(a, c)}")

# Applicable actions at the initial state, degree 2: every applicable
# operator plus every applicable conflict-free pair. States are fact masks;
# reset gives the initial one.
actions = applicable_actions(task, reset(task), 2, n)
stats = action_space_stats(actions)
print(f"applicable actions at init: {stats.total}, by degree "
      f"{stats.by_degree}")
for action in actions:
    if action.degree == 2:
        print(f"  parallel: {action.name(task)}")

# Over the whole operator table the degree-2 space is far larger: every
# pair of operators that does not conflict. Only the applicable slice above
# is ever enumerated while stepping.
ops = len(task.operators)
print(f"conflict-free operator pairs in the table: "
      f"{ops * (ops - 1) // 2 - len(n)}")
