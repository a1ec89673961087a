"""
Sweeping the meta-operator reward
=================================

Train the same tasks under several shaping rewards and compare coverage
and parallelism of the resulting greedy policies. Larger r encourages
parallel steps; too large and shaping can drown out the goal signal.
"""

from metaplan import (EnvConfig, TrainConfig, custom_spec, evaluate_policy,
                      gen_multiblocks, ground, train)

tasks = [ground(*gen_multiblocks(custom_spec(
    "multiblocks", seed=s, blocks=4, arms=2))) for s in (11, 12, 13)]
eval_tasks = [ground(*gen_multiblocks(custom_spec(
    "multiblocks", seed=s, blocks=4, arms=2))) for s in range(21, 27)]

print("meta reward -> coverage, mean timesteps, parallelism rate")
for meta_reward in (0.0, 0.01, 0.001, 0.0001):
    env_cfg = EnvConfig(degree=2, meta_reward=meta_reward, max_steps=40)
    train_cfg = TrainConfig(iterations=60, episodes_per_iteration=16, seed=1)
    result = train(tasks, env_cfg, train_cfg)
    report = evaluate_policy(result.params, eval_tasks, "greedy", env_cfg)
    rate = report.mean_parallelism
    steps = report.avg_timesteps
    print(f"  r={meta_reward:<7}: {report.solved}/{report.total}, "
          f"timesteps {'-' if steps is None else f'{steps:.1f}'}, "
          f"parallelism {'-' if rate is None else f'{rate:.3f}'}")
