"""
Parsing and grounding
=====================

Generate a small logistics instance, ground it, and poke at the result:
the fact table, the operator table, grounding only the relaxed-reachable
task, and the JSON interchange dump.
"""

import json

from metaplan import (custom_spec, domain_to_pddl, gen_logistics, ground,
                      ground_reachable, problem_to_pddl, task_to_json)
from metaplan.grounding import mask_facts

# A 2-city instance with one airplane: every package needs a truck leg,
# an air leg, or both.
spec = custom_spec("logistics", seed=42, cities=2, airplanes=1, trucks=2,
                   locations_per_city=2, packages=2)
domain, problem = gen_logistics(spec)

print(domain_to_pddl(domain))
print(problem_to_pddl(problem))

# Grounding instantiates every type-consistent binding of every schema.
task = ground(domain, problem)
print(f"facts:     {len(task.facts)}")
print(f"operators: {len(task.operators)}")
print(f"init size: {task.init_mask.bit_count()}, "
      f"goal size: {task.goal_mask.bit_count()}")

# Facts and operators are dense, deterministic tables. An operator holds
# its precondition, add and delete lists as int masks, bit f for fact f.
for fact in task.facts[:5]:
    print(f"  fact {fact.index}: {fact}")
for op in task.operators[:3]:
    print(f"  operator {op.id}: {op.name}")
    print(f"    pre={mask_facts(op.pre_mask)} add={mask_facts(op.add_mask)} "
          f"del={mask_facts(op.delete_mask)}")

# ground_reachable keeps only the operators the delete relaxation reaches,
# and never builds the others: it can only shrink the operator table, and
# on a well-formed instance it keeps everything useful. It is what
# `metaplan train` and `metaplan eval` load.
direct = ground_reachable(domain, problem)
print(f"operators: ground {len(task.operators)}, "
      f"ground_reachable {len(direct.operators)}")

# The JSON dump is the interchange format consumed by external checkers.
dump = task_to_json(task)
print(json.dumps(dump, indent=2)[:400], "...")
