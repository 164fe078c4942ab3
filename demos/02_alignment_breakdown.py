#!/usr/bin/env python3
"""Reproduce cross-modal alignment breakdown with frozen encoders.

Visual features of held-out concepts are perfectly discriminative (the
nearest-prototype ceiling is ~100%), yet zero-shot classification of those
same images sits at chance because their names all map to one blind token.
Seen concepts stay near-perfect: the breakdown is purely a text-side failure.
"""

import numpy as np

from namelearn.session import SessionSettings, TrainingSession
from namelearn.world import WorldConfig, build_world

world = build_world(WorldConfig())
# The frozen model: an untrained session whose held-out names render with the
# blind token and whose text side has no fusion.
frozen = TrainingSession(
    world, SessionSettings(disable_name_agent=True, disable_text_context=True)
)

seen_x, seen_y = world.sample_split(world.seen_ids, per_class=200, seed=1)
ood_x, ood_y = world.sample_split(world.ood_ids, per_class=200, seed=2)

seen_acc = frozen.evaluate(seen_x, seen_y, world.seen_ids)["seen"]
ood_acc = frozen.evaluate(ood_x, ood_y, world.ood_ids)["ood"]
ceiling = world.bayes_oracle_accuracy(ood_x, ood_y, world.ood_ids)
chance = 1.0 / len(world.ood_ids)

print(f"seen zero-shot accuracy      : {seen_acc:.4f}")
print(f"held-out zero-shot accuracy  : {ood_acc:.4f}   (chance = {chance:.2f})")
print(f"held-out visual ceiling      : {ceiling:.4f}   (nearest prototype)")
print()
print("The gap between the ceiling and chance is the measurable room that")
print("name learning can recover; see 03_few_shot_adaptation.py.")

# Per-image scores confirm the collapse: with one shared blind token every
# held-out class gets exactly the same cosine score.
image = frozen.image_agent.encode(ood_x[:1])[0].data[0]
text = frozen.class_text_features(world.ood_ids, context=None)
cosines = text @ image / (np.linalg.norm(text, axis=1) * np.linalg.norm(image))
print("\nfirst held-out image, cosine to each class:", cosines.round(4))
