#!/usr/bin/env python3
"""Build a synthetic dual-encoder world and inspect its frozen guarantees.

The world generates images as noisy linear renderings of unit latent
prototypes.  The frozen visual encoder inverts the renderer exactly, so
visual features always cluster around the right prototype.  The frozen text
side is constructed to align with seen-concept prompts and to be blind to
held-out names.  Everything is deterministic under the config seed, so a
world's config identifies it.
"""

import numpy as np

from namelearn.autodiff import Tensor
from namelearn.image_agent import frozen_visual_features
from namelearn.session import SessionSettings, TrainingSession
from namelearn.world import WorldConfig, build_world

config = WorldConfig()  # 32-dim embeddings, 20 seen + 10 held-out concepts
world = build_world(config)
# The frozen model: an untrained session whose held-out names render with the
# blind token and whose text side has no fusion.
frozen = TrainingSession(
    world, SessionSettings(disable_name_agent=True, disable_text_context=True)
)

print("concepts:", len(world.concepts), "| seen:", len(world.seen_ids), "| held-out:", len(world.ood_ids))
print("build self-checks:", world.report)

# The visual encoder is an exact left inverse: noiseless images encode back
# to the latent prototype.
cid = world.ood_ids[0]
clean = build_world(WorldConfig(noise_sigma=0.0))
x = clean.sample_images(cid, 1, seed=0)
feats = frozen_visual_features(Tensor(x), Tensor(clean.gen_map)).data
err = np.abs(feats[0] - clean.concept(cid).latent).max()
print(f"noiseless encode-back error for concept {cid}: {err:.2e}")

# Seen-concept canonical prompts encode right next to their prototypes...
seen = world.seen_ids[:3]
for cid, f in zip(seen, frozen.class_text_features(seen, context=None)):
    cos = f @ world.concept(cid).latent / np.linalg.norm(f)
    print(f"seen concept {cid}: cosine(prompt feature, prototype) = {cos:.4f}")

# ...while every held-out prompt encodes to the same uninformative vector.
feats = frozen.class_text_features(world.ood_ids, context=None)
print("held-out prompt feature spread:", np.abs(feats - feats[0]).max())

