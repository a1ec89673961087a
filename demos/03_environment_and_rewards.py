"""
The reward-shaped environment
=============================

The MDP is deterministic: reward 1 on reaching the goal, 0 otherwise,
plus a small flat bonus r whenever the chosen action bundles two or more
operators. The audit below shows why r must stay small relative to the
goal reward.
"""

import random

from metaplan import (EnvConfig, conservative_meta_reward, custom_spec,
                      discounted_return, gen_multiblocks, ground, rollout,
                      shaped_reward_audit)

domain, problem = gen_multiblocks(
    custom_spec("multiblocks", seed=3, blocks=4, arms=2))
task = ground(domain, problem)

cfg = EnvConfig(degree=2, meta_reward=0.01, max_steps=50)

# A random-walk episode: rewards are always 0, r, 1, or 1 + r.
rng = random.Random(0)
trace = rollout(task, cfg, lambda s, acts: rng.randrange(len(acts)))
print(f"episode: {len(trace.actions)} steps, reason={trace.reason}")
print(f"rewards: {trace.rewards}")
print(f"return (gamma={cfg.gamma}): "
      f"{discounted_return(trace.rewards, cfg.gamma):.4f}")

# Shaping accounting: how much reward came from parallelism versus the
# goal, and whether shaping could mask the goal signal entirely.
audit = shaped_reward_audit(trace, cfg)
print(f"meta shaping total: {audit.meta_total:.4f}")
print(f"goal reward total:  {audit.goal_total:.4f}")
print(f"masking: {audit.masking}")

# A conservative choice of r that can never mask the goal within one
# episode: goal_reward / max_steps.
print(f"conservative meta reward: {conservative_meta_reward(cfg):.4f}")

# With r = 0.011 and a 100-step cap, 101 parallel steps would beat the
# goal reward; the audit flags that situation.
long_cfg = EnvConfig(degree=2, meta_reward=0.011, max_steps=200)
long_trace = rollout(task, long_cfg,
                     lambda s, acts: rng.randrange(len(acts)))
print(f"long walk: meta={shaped_reward_audit(long_trace, long_cfg).meta_total:.3f}, "
      f"masking={shaped_reward_audit(long_trace, long_cfg).masking}")
