"""Multi-strategy visual processing.

Two encoding strategies over the frozen visual encoder — plain features, or
unit-normalized features plus a small gradient-blocked residual copy — routed
by a difficulty score that a fixed, seeded scorer estimates from the batch
feature distribution.  ``ImageAgent.encode`` is the one routing path, for
training rounds and evaluation alike, and its return is the one place to
read a batch's difficulty score and strategy.  Each round ``step`` receives
nothing and returns two payloads: ``visual_context``, a pooled context vector
for the text agent, and ``image_features`` for the coordinator.  The score is
one number per batch, taken from the batch's mean feature; the residual
coefficient ``ALPHA`` and the routing threshold ``DIFFICULTY_THRESHOLD`` are
fixed.  The agent reads ``disable_difficulty`` and
``disable_image_agent_robust`` from the session's ``SessionSettings`` once,
when built, and builds its scorer only where the arm scores.
Nothing on the image side learns, so ``prepare`` computes a training run's
payloads once and every round's ``step`` sends them.  The frozen encoder and
the robust encoding (``robust_features``, one op) work in row blocks
(``autodiff.row_blocks``), so encoding a large test set holds its features
and not a chain of temporaries.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .bus import AgentId
from .settings import SessionSettings

STANDARD = "standard"
ROBUST = "robust"
# Residual coefficient of the robust encoding: small, so the unit-normalized
# part dominates.
ALPHA = 0.1
# Batches scoring at or above this route robust: the scorer's midpoint.
DIFFICULTY_THRESHOLD = 0.5


def frozen_visual_features(images: Tensor, encoder: Tensor) -> Tensor:
    """The frozen visual encoder, the renderer's exact left inverse: a
    nonempty ``(N, P)`` image batch times the ``(P, D)`` encoder matrix.

    One op with ``matmul``'s backward, computed block by block
    (``autodiff.row_blocks``) into one output."""
    x, w = images.data, encoder.data
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"frozen visual encoder: need a nonempty batch, got {images.shape}")
    if w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"frozen visual encoder: raw dim {x.shape[1]} != {w.shape[0]}")
    out = np.empty((x.shape[0], w.shape[1]))
    for rows in ad.row_blocks(x.shape[0]):
        np.matmul(x[rows], w, out=out[rows])

    def backward(g):
        gx = g @ w.T if images.requires_grad else None
        return gx, x.T @ g if encoder.requires_grad else None

    return ad._make(out, (images, encoder), backward)


def robust_features(feats: Tensor, alpha: float = ALPHA) -> Tensor:
    """``add(l2_normalize_rows(feats), scale(detach(feats), alpha))`` as one
    op: unit rows plus a gradient-blocked scaled residual.

    Computed block by block (``autodiff.row_blocks``) into one output as
    ``feats * alpha``, then plus the unit rows; only the row norms are kept,
    and the backward recomputes the unit rows from them."""
    x = feats.data
    if x.ndim != 2:
        raise ShapeError(f"robust_features: need a matrix, got shape {feats.shape}")
    a = float(alpha)
    out = np.empty_like(x)
    norms = np.empty((x.shape[0], 1))
    for rows in ad.row_blocks(x.shape[0]):
        block = np.multiply(x[rows], a, out=out[rows])
        y, norms[rows] = ad.unit_rows(x[rows], "robust_features")
        block += y

    def backward(g):  # the residual's gradient is zero
        return (ad.unit_rows_backward(g, x / norms, norms),)

    return ad._make(out, (feats,), backward)


class DifficultyEstimator:
    """Two-layer sigmoid scorer of batch processing difficulty.

    The weights are a fixed seeded draw, not learnables: the score reaches the
    loss only through the routing threshold, so no gradient could move them.
    """

    def __init__(self, embed_dim: int, hidden_dim: int, rng: np.random.Generator):
        half_width = 1.0 / np.sqrt(embed_dim)
        u = lambda shape: rng.uniform(-half_width, half_width, size=shape)
        self.w1 = Tensor(u((embed_dim, hidden_dim)), name="difficulty.w1")
        self.b1 = Tensor(u(hidden_dim), name="difficulty.b1")
        self.w2 = Tensor(u((hidden_dim, 1)), name="difficulty.w2")
        self.b2 = Tensor(u(1), name="difficulty.b2")

    def estimate(self, features: Tensor) -> Tensor:
        """Difficulty in (0, 1): a ``(D,)`` feature vector scores to ``(1,)``,
        each row of an ``(N, D)`` batch to one row of ``(N, 1)``."""
        h = ad.relu(ad.affine(features, self.w1, self.b1))
        return ad.sigmoid(ad.affine(h, self.w2, self.b2))


def select_strategy(difficulty: float, threshold: float) -> str:
    """Route a batch: standard below the threshold, robust at or above it."""
    if not 0.0 < difficulty < 1.0:
        raise ValueError(f"difficulty {difficulty} outside (0, 1)")
    return STANDARD if difficulty < threshold else ROBUST


class ImageAgent:
    agent_id = AgentId.IMAGE

    def __init__(
        self,
        frozen_visual: np.ndarray,  # (P, D) encoder matrix
        settings: SessionSettings,
        rng: np.random.Generator,
    ):
        self.frozen_visual = Tensor(frozen_visual, name="frozen_visual")
        self.routes = not settings.disable_image_agent_robust
        d = frozen_visual.shape[1]
        scores = not settings.disable_difficulty
        self.estimator = DifficultyEstimator(d, max(1, d // 2), rng) if scores else None

    # -- encodings ------------------------------------------------------------

    def encode_standard(self, images: Tensor) -> Tensor:
        """Frozen encoder output, unchanged."""
        return frozen_visual_features(images, self.frozen_visual)

    def encode_robust(self, images: Tensor, alpha: float = ALPHA) -> Tensor:
        """Unit-normalized features plus a gradient-blocked scaled residual."""
        return robust_features(self.encode_standard(images), alpha)

    def encode(self, images: np.ndarray) -> tuple[Tensor, float, str]:
        """Route a raw batch: its features, difficulty score and strategy."""
        standard = self.encode_standard(Tensor(images))
        difficulty = 0.5  # neutral score when estimation is ablated
        if self.estimator is not None:
            difficulty = self.estimator.estimate(ad.mean_rows(standard)).item()
        strategy = select_strategy(difficulty, DIFFICULTY_THRESHOLD) if self.routes else STANDARD
        features = standard if strategy == STANDARD else robust_features(standard)
        return features, difficulty, strategy

    @staticmethod
    def emit_visual_context(features: Tensor) -> Tensor:
        """Pooled context for the text agent: column-wise mean of the batch."""
        return ad.mean_rows(features)

    # -- round protocol ---------------------------------------------------------

    def prepare(self, images: np.ndarray) -> Mapping[str, Tensor]:
        """A run's two payloads, read-only: a function of its images alone."""
        features = self.encode(images)[0]
        return MappingProxyType({
            "visual_context": self.emit_visual_context(features),
            "image_features": features,
        })

    def step(self, inbox, batch) -> Mapping[str, Tensor]:
        return batch.run[self]
