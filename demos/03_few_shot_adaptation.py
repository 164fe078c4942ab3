#!/usr/bin/env python3
"""Repair the broken alignment: learn name embeddings from 16 shots.

A training session wires the four agents together.  Each round the image
agent encodes the batch and shares a pooled visual context; the name agent
renders prompts with learnable name vectors (including renderings borrowed
from other concept families); the text agent fuses prompts with the visual
context; the coordinator computes the balanced contrastive-plus-classifier
loss.  Backpropagation moves only the declared learnables.
"""

from namelearn.session import SessionSettings, TrainingSession
from namelearn.world import WorldConfig, build_world

world = build_world(WorldConfig())
session = TrainingSession(world, SessionSettings(), seed=0)

label_space = world.seen_ids + world.ood_ids
test_x, test_y = world.sample_split(label_space, per_class=100, seed=11)

before = session.evaluate(test_x, test_y, label_space)
print(f"before: seen={before['seen']:.3f}  held-out={before['ood']:.3f} (joint label space)")

shots = {cid: world.sample_images(cid, 16, seed=42) for cid in world.ood_ids}
history = session.train(shots, epochs=200, lr=1e-3)

print(f"trained 200 full-batch steps on {16 * len(world.ood_ids)} image-text pairs")
print(f"loss: {history[0].total:.3f} -> {history[-1].total:.3f}")
last = history[-1]
print(
    f"final step: tau={last.tau:.3f}  w_con={last.w_con:.3f}  w_cls={last.w_cls:.3f}"
)

after = session.evaluate(test_x, test_y, label_space)
print(f"after : seen={after['seen']:.3f}  held-out={after['ood']:.3f}")
print()
print("Held-out accuracy rises from collapsed to near the visual ceiling while")
print("seen-concept accuracy is untouched: the frozen encoders never moved,")
print("only the name embeddings (plus fusion and coordinator scalars) did.")

# The message log is a compact protocol trace of the last round: who sent
# what, each payload summarized by its shape and first four values.  A round
# is four messages: visual context and image features from the image agent,
# pooled prompts from the name agent, and text features from the text agent.
print(f"\nbus log of round {session.bus.round_index}: {len(session.bus.log)} messages")
for record in session.bus.log:
    print("  ", record.summary(session.bus.round_index))
