"""Text encoding with visual-context fusion.

``TextAgent.encode`` is the one text-encoding path, for training rounds and
evaluation alike.  It runs the frozen text encoder's mixer over pooled prompt
embeddings (the name agent's ``(N, D)`` block, learnable name vectors already
pooled in), then mixes that standard feature with a learned transform of the
feature concatenated with the visual context vector received from the image
agent, weighted by a fixed (or optionally learnable) mixing ratio.  The
context is a value snapshot broadcast to every row: no gradient crosses from
the text agent into the image agent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .bus import (
    AgentId,
    FeatureBlock,
    MailboxError,
    Message,
)


class MissingContextError(RuntimeError):
    """Contextual encoding requested before any visual context arrived."""


@dataclass(frozen=True)
class TextAgentConfig:
    lambda_mix: float = 0.7  # weight of the plain text feature in the fusion
    fusion: str = "two_layer"  # or "linear" (simple concatenation arm)
    learnable_lambda: bool = False  # sigmoid-reparameterized mixing ratio
    disable_context: bool = False  # ablation: standard encoding only

    def __post_init__(self):
        if not 0.0 <= self.lambda_mix <= 1.0:
            raise ValueError(f"lambda_mix {self.lambda_mix} outside [0, 1]")
        if self.fusion not in ("two_layer", "linear"):
            raise ValueError(f"unknown fusion {self.fusion!r}")


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
        config: TextAgentConfig,
        rng: np.random.Generator,
    ):
        self.config = config
        mi, mib, mo, mob = mixer
        self._mixer_in = Tensor(mi, name="frozen_text_in")
        self._mixer_in_bias = Tensor(mib, name="frozen_text_in_bias")
        self._mixer_out = Tensor(mo, name="frozen_text_out")
        self._mixer_out_bias = Tensor(mob, name="frozen_text_out_bias")
        d = mi.shape[0]
        if config.fusion == "two_layer":
            self.fusion = ContextIntegrationModule(d, d, rng)
        else:
            self.fusion = LinearFusion(d, rng)
        self.lambda_param: Tensor | None = None
        if config.learnable_lambda:
            lam = min(max(config.lambda_mix, 1e-6), 1 - 1e-6)
            self.lambda_param = Tensor(
                np.asarray(np.log(lam / (1 - lam))), requires_grad=True, name="lambda_param"
            )

    def parameters(self) -> list[Tensor]:
        params = list(self.fusion.parameters())
        if self.lambda_param is not None:
            params.append(self.lambda_param)
        return params

    # -- encoding -------------------------------------------------------------

    def _mixing_weights(self) -> tuple:
        if self.lambda_param is not None:
            lam = ad.sigmoid(self.lambda_param)
            one_minus = ad.add(ad.scale(lam, -1.0), Tensor(np.asarray(1.0)))
            return lam, one_minus
        return self.config.lambda_mix, 1.0 - self.config.lambda_mix

    def encode(self, pooled: Tensor, context: Tensor | None) -> Tensor:
        """Text features ``(N, D)`` for pooled prompt embeddings ``(N, D)``.

        The frozen mixer gives the standard feature; unless the context is
        disabled or ``lambda_mix`` is 1, the result is
        ``lam * standard + (1 - lam) * fusion(standard | context)``.
        """
        h = ad.relu(ad.add(ad.matmul(pooled, self._mixer_in), self._mixer_in_bias))
        standard = ad.add(ad.matmul(h, self._mixer_out), self._mixer_out_bias)
        if self.config.disable_context or self.config.lambda_mix >= 1.0:
            return standard
        if context is None:
            raise MissingContextError(
                "no visual context received; set lambda_mix=1 or "
                "disable_context for standard encoding"
            )
        # A constant copy per row: the value snapshot carries no gradient.
        rows = Tensor(np.tile(context.data, (standard.shape[0], 1)))
        fused = self.fusion(ad.concat_cols(standard, rows))
        lam, one_minus = self._mixing_weights()
        if isinstance(lam, Tensor):
            return ad.add(ad.mul(lam, standard), ad.mul(one_minus, fused))
        return ad.add(ad.scale(standard, lam), ad.scale(fused, one_minus))

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
