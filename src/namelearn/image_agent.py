"""Multi-strategy visual processing.

Two encoding strategies over the frozen visual encoder — plain features, or
unit-normalized features plus a small gradient-blocked residual copy — routed
by a difficulty score that a fixed, seeded scorer estimates from the batch
feature distribution.  ``ImageAgent.encode`` is the one routing path, for
training rounds and evaluation alike.  Emits the batch features and their
``{difficulty, strategy}`` metadata to the coordinator and a pooled visual
context vector to the text agent.  The score is one number per batch, taken
from the batch's mean feature.  It reads ``alpha``, ``difficulty_threshold``,
``disable_difficulty`` and ``disable_image_agent_robust`` from the session's
``SessionSettings``.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .bus import (
    AgentId,
    FeatureBlock,
    MailboxError,
    Message,
    Metadata,
)
from .settings import SessionSettings

STANDARD = "standard"
ROBUST = "robust"


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
        h = ad.relu(ad.add(ad.matmul(features, self.w1), self.b1))
        return ad.sigmoid(ad.add(ad.matmul(h, self.w2), self.b2))


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
        self.settings = settings
        self.frozen_visual = Tensor(frozen_visual, name="frozen_visual")
        d = frozen_visual.shape[1]
        self.estimator = DifficultyEstimator(d, max(1, d // 2), rng)

    # -- encodings ------------------------------------------------------------

    def encode_standard(self, images: Tensor) -> Tensor:
        """Frozen encoder output, unchanged."""
        if images.data.ndim != 2 or images.shape[0] < 1:
            raise ShapeError(f"encode_standard: need a nonempty batch, got {images.shape}")
        if images.shape[1] != self.frozen_visual.shape[0]:
            raise ShapeError(
                f"encode_standard: raw dim {images.shape[1]} != {self.frozen_visual.shape[0]}"
            )
        return ad.matmul(images, self.frozen_visual)

    def encode_robust(self, images: Tensor, alpha: float | None = None) -> Tensor:
        """Unit-normalized features plus a gradient-blocked scaled residual."""
        return self._robust(self.encode_standard(images), alpha)

    def _robust(self, feats: Tensor, alpha: float | None = None) -> Tensor:
        a = self.settings.alpha if alpha is None else alpha
        return ad.add(ad.l2_normalize_rows(feats), ad.scale(ad.detach(feats), a))

    def encode(self, images: np.ndarray) -> tuple[Tensor, float, str]:
        """Route a raw batch: its features, difficulty score and strategy."""
        standard = self.encode_standard(Tensor(images))
        if self.settings.disable_difficulty:
            difficulty = 0.5  # neutral score when estimation is ablated
        else:
            difficulty = self.estimator.estimate(ad.mean_rows(standard)).item()
        if self.settings.disable_image_agent_robust:
            strategy = STANDARD
        else:
            strategy = select_strategy(difficulty, self.settings.difficulty_threshold)
        features = standard if strategy == STANDARD else self._robust(standard)
        return features, difficulty, strategy

    @staticmethod
    def emit_visual_context(features: Tensor) -> Tensor:
        """Pooled context for the text agent: column-wise mean of the batch."""
        return ad.mean_rows(features)

    # -- round protocol ---------------------------------------------------------

    def step(self, messages, batch) -> list[Message]:
        if messages:
            raise MailboxError(f"image agent cannot handle {messages[0]}")
        features, difficulty, strategy = self.encode(batch.images)
        context = self.emit_visual_context(features)
        return [
            Message(AgentId.IMAGE, AgentId.TEXT, FeatureBlock(context, "visual_context")),
            Message(
                AgentId.IMAGE, AgentId.COORDINATOR, FeatureBlock(features, "image_features")
            ),
            Message(
                AgentId.IMAGE,
                AgentId.COORDINATOR,
                Metadata({"difficulty": repr(difficulty), "strategy": strategy}),
            ),
        ]
