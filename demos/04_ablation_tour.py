#!/usr/bin/env python3
"""Which components matter?  Paired ablation runs on identical splits.

Each arm disables exactly one component and reruns the same 16-shot cells.
Removing name learning is catastrophic (the embeddings are the only
text-side signal for held-out concepts); removing context exchange costs a
few points; the remaining components matter less at this scale.
"""

import time

from namelearn.harness import ExperimentConfig, run_ablation
from namelearn.world import WorldConfig

config = ExperimentConfig(
    world=WorldConfig(),
    shots=(16,),
    seeds=(0,),
    lrs=(1e-3,),
    epochs=200,
    n_test_per_class=100,
)

flags = (
    "disable_name_agent",
    "disable_context_exchange",
    "disable_text_context",
    "disable_dynamic_balancing",
)

start = time.perf_counter()
suite = run_ablation(config, flags)
print(f"ran full model + {len(flags)} ablated arms in {time.perf_counter() - start:.0f}s\n")

full = next(iter(suite.values())).full
print(f"full model 16-shot held-out accuracy: {full.mean_ood(16):.3f}\n")
print(f"{'ablated component':<32} {'accuracy':>8} {'drop':>8}")
for flag, result in sorted(suite.items(), key=lambda kv: -kv[1].delta_by_shot()[16]):
    acc = result.ablated.mean_ood(16)
    drop = result.delta_by_shot()[16]
    print(f"{flag:<32} {acc:8.3f} {drop:+8.3f}")
