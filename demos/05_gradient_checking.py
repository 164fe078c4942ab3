#!/usr/bin/env python3
"""Trust but verify: finite differences against the tape, oracles against
the batched losses.

The reverse-mode tape is small enough to audit: every operation records a
closure, a backward pass walks them once in reverse, and a central-difference
probe of each parameter entry bounds the relative error.  The same machinery
validates the full training loss end to end.
"""

from namelearn import autodiff as ad
from namelearn.autodiff import Tape, Tensor, backward, grad_check
from namelearn.selfcheck import (
    classification_oracle_suite,
    contrastive_oracle_suite,
    full_loss_grad_checks,
)

# A hand-sized example first: d/dx sum(sigmoid(x * x)) at x = [1, -2].
x = Tensor([1.0, -2.0], requires_grad=True)
with Tape() as tape:
    loss = ad.sum_all(ad.sigmoid(ad.mul(x, x)))
backward(tape, loss)
print("analytic gradient:", x.grad)

err = grad_check(lambda t: ad.sum_all(ad.sigmoid(ad.mul(t, t))), [x], eps=1e-5)
print(f"central-difference relative error: {err:.2e}")

# Detach severs gradients exactly: a leaf feeding only a detached branch
# receives an identically zero gradient.
y = Tensor([3.0, 4.0], requires_grad=True)
with Tape() as tape:
    loss = ad.sum_all(ad.relu(ad.detach(y)))
backward(tape, loss)
print("gradient through detach:", y.grad)

# The big one: the complete training loss (name embeddings, context fusion,
# temperature, balancing weights, classification head) against central
# differences, twenty random 4-sample batches.  The image agent's difficulty
# scorer is fixed, so it has no coordinates to check.
report = full_loss_grad_checks(n_batches=20)
print(report.line())

# And the batched losses against naive per-element loops.
print(contrastive_oracle_suite(n_batches=100).line())
print(classification_oracle_suite(n_batches=100).line())
