"""Text encoding with visual-context fusion.

``TextAgent.encode`` is the one text-encoding path, for training rounds and
evaluation alike.  It runs the frozen text encoder's mixer over pooled prompt
embeddings (the name agent's ``(N, D)`` block, learnable name vectors already
pooled in), then mixes that standard feature with a learned transform of the
feature concatenated with the visual context vector received from the image
agent, weighted by the fixed ratio ``lambda_mix``.  The context is a value
snapshot broadcast to every row: no gradient crosses from the text agent into
the image agent.  It reads ``disable_text_context``, ``lambda_mix`` and
``simple_concat_fusion`` from the session's ``SessionSettings``.
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
)
from .settings import SessionSettings


class MissingContextError(RuntimeError):
    """Contextual encoding requested before any visual context arrived."""


class ContextIntegrationModule:
    """Two-layer net fusing text features with a same-width context, row-wise.

    Input rows are the 2D-wide concatenation, output rows are D-wide.  Starts
    near zero (zero output bias, small weights) so early training is
    dominated by the plain text feature.
    """

    def __init__(self, embed_dim: int, hidden_dim: int, rng: np.random.Generator):
        a = 0.5 / np.sqrt(2 * embed_dim)
        self.w3 = Tensor(
            rng.uniform(-a, a, size=(2 * embed_dim, hidden_dim)),
            requires_grad=True,
            name="fusion.w3",
        )
        self.b3 = Tensor(np.zeros(hidden_dim), requires_grad=True, name="fusion.b3")
        self.w4 = Tensor(
            rng.uniform(-a, a, size=(hidden_dim, embed_dim)),
            requires_grad=True,
            name="fusion.w4",
        )
        self.b4 = Tensor(np.zeros(embed_dim), requires_grad=True, name="fusion.b4")
        self.in_dim = 2 * embed_dim

    def parameters(self) -> list[Tensor]:
        return [self.w3, self.b3, self.w4, self.b4]

    def __call__(self, z: Tensor) -> Tensor:
        if z.data.ndim != 2 or z.shape[1] != self.in_dim:
            raise ShapeError(f"context fusion: need shape (N, {self.in_dim}), got {z.shape}")
        return ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(z, self.w3), self.b3)), self.w4), self.b4)


class LinearFusion:
    """Single linear map over the concatenation; the simple-fusion arm."""

    def __init__(self, embed_dim: int, rng: np.random.Generator):
        a = 0.5 / np.sqrt(2 * embed_dim)
        self.w = Tensor(
            rng.uniform(-a, a, size=(2 * embed_dim, embed_dim)),
            requires_grad=True,
            name="fusion.linear_w",
        )
        self.b = Tensor(np.zeros(embed_dim), requires_grad=True, name="fusion.linear_b")
        self.in_dim = 2 * embed_dim

    def parameters(self) -> list[Tensor]:
        return [self.w, self.b]

    def __call__(self, z: Tensor) -> Tensor:
        if z.data.ndim != 2 or z.shape[1] != self.in_dim:
            raise ShapeError(f"linear fusion: need shape (N, {self.in_dim}), got {z.shape}")
        return ad.add(ad.matmul(z, self.w), self.b)


class TextAgent:
    agent_id = AgentId.TEXT

    def __init__(
        self,
        mixer: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        settings: SessionSettings,
        rng: np.random.Generator,
    ):
        self.settings = settings
        mi, mib, mo, mob = mixer
        self._mixer_in = Tensor(mi, name="frozen_text_in")
        self._mixer_in_bias = Tensor(mib, name="frozen_text_in_bias")
        self._mixer_out = Tensor(mo, name="frozen_text_out")
        self._mixer_out_bias = Tensor(mob, name="frozen_text_out_bias")
        d = mi.shape[0]
        if settings.simple_concat_fusion:
            self.fusion = LinearFusion(d, rng)
        else:
            self.fusion = ContextIntegrationModule(d, d, rng)

    def parameters(self) -> list[Tensor]:
        return list(self.fusion.parameters())

    # -- encoding -------------------------------------------------------------

    def encode(self, pooled: Tensor, context: Tensor | None) -> Tensor:
        """Text features ``(N, D)`` for pooled prompt embeddings ``(N, D)``.

        The frozen mixer gives the standard feature; unless
        ``disable_text_context`` is set or ``lambda_mix`` is 1, the result is
        ``lam * standard + (1 - lam) * fusion(standard | context)``.
        """
        h = ad.relu(ad.add(ad.matmul(pooled, self._mixer_in), self._mixer_in_bias))
        standard = ad.add(ad.matmul(h, self._mixer_out), self._mixer_out_bias)
        if self.settings.disable_text_context or self.settings.lambda_mix >= 1.0:
            return standard
        if context is None:
            raise MissingContextError(
                "no visual context received; set lambda_mix=1 or "
                "disable_text_context for standard encoding"
            )
        # A constant copy per row: the value snapshot carries no gradient.
        rows = Tensor(np.tile(context.data, (standard.shape[0], 1)))
        fused = self.fusion(ad.concat_cols(standard, rows))
        lam = self.settings.lambda_mix
        return ad.add(ad.scale(standard, lam), ad.scale(fused, 1.0 - lam))

    # -- round protocol ---------------------------------------------------------

    def step(self, messages, batch) -> list[Message]:
        context: Tensor | None = None
        pooled: Tensor | None = None
        for msg in messages:
            c = msg.content
            if isinstance(c, FeatureBlock) and c.label == "visual_context":
                context = c.tensor
            elif isinstance(c, FeatureBlock) and c.label == "prompts":
                pooled = c.tensor
            else:
                raise MailboxError(f"text agent cannot handle {msg}")
        if pooled is None:
            raise MailboxError("text agent round ended without prompts")
        block = FeatureBlock(self.encode(pooled, context), "text_features")
        return [Message(AgentId.TEXT, AgentId.COORDINATOR, block)]
