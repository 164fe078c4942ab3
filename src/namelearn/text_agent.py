"""Text encoding with visual-context fusion.

Standard encoding runs the frozen text encoder over an embedded prompt (the
name agent's (T, D) matrix, learnable name vectors spliced in).  Contextual
encoding mixes that with a learned transform of the text feature
concatenated with the visual context vector received from the image agent,
weighted by a fixed (or optionally learnable) mixing ratio.  The context is
a value snapshot: no gradient crosses from the text agent into the image
agent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .bus import (
    AgentId,
    AgentMemory,
    FeatureBlock,
    MailboxError,
    Message,
    Metadata,
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
    """Two-layer net fusing a text feature with a same-width context vector.

    Input is the 2D-wide concatenation, output is D-wide.  Starts near zero
    (zero output bias, small weights) so early training is dominated by the
    plain text feature.
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
        if z.shape != (self.in_dim,):
            raise ShapeError(f"context fusion: need shape ({self.in_dim},), got {z.shape}")
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
        if z.shape != (self.in_dim,):
            raise ShapeError(f"linear fusion: need shape ({self.in_dim},), got {z.shape}")
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

    # -- encodings ------------------------------------------------------------

    def encode_matrix(self, matrix: Tensor) -> Tensor:
        """Frozen text encoder over an embedded sequence: mean, then mixer."""
        m = ad.mean_rows(matrix)
        h = ad.relu(ad.add(ad.matmul(m, self._mixer_in), self._mixer_in_bias))
        return ad.add(ad.matmul(h, self._mixer_out), self._mixer_out_bias)

    def integrate_context(self, z: Tensor) -> Tensor:
        """Learned fusion of a concatenated text-plus-context vector."""
        return self.fusion(z)

    def _mixing_weights(self) -> tuple:
        if self.lambda_param is not None:
            lam = ad.sigmoid(self.lambda_param)
            one_minus = ad.add(ad.scale(lam, -1.0), Tensor(np.asarray(1.0)))
            return lam, one_minus
        return self.config.lambda_mix, 1.0 - self.config.lambda_mix

    def contextual_from_standard(self, standard: Tensor, context: Tensor) -> Tensor:
        """``lam * standard + (1 - lam) * fusion(standard | context)``."""
        fused = self.integrate_context(ad.concat_cols(standard, context))
        lam, one_minus = self._mixing_weights()
        if isinstance(lam, Tensor):
            return ad.add(ad.mul(lam, standard), ad.mul(one_minus, fused))
        return ad.add(ad.scale(standard, lam), ad.scale(fused, one_minus))

    # -- round protocol ---------------------------------------------------------

    def open_round(self, memory: AgentMemory) -> list[Message]:
        return []

    def step(self, messages, batch, memory: AgentMemory):
        context: Tensor | None = None
        prompt_blocks: list[FeatureBlock] = []
        for msg in messages:
            c = msg.content
            if isinstance(c, Metadata):
                continue  # coordinator directives are informational
            if isinstance(c, FeatureBlock) and c.label == "visual_context":
                context = c.tensor
            elif isinstance(c, FeatureBlock) and c.label.startswith("prompt|"):
                prompt_blocks.append(c)
            else:
                raise MailboxError(f"text agent cannot handle {msg}")
        outputs = []
        use_context = not self.config.disable_context and self.config.lambda_mix < 1.0
        if use_context and context is None:
            raise MissingContextError(
                "no visual context received this round; set lambda_mix=1 or "
                "disable_context for standard encoding"
            )
        if context is not None:
            context = ad.detach(context)  # value snapshot: no gradient across agents
        for block in prompt_blocks:
            standard = self.encode_matrix(block.tensor)
            feature = (
                self.contextual_from_standard(standard, context)
                if use_context
                else standard
            )
            label = "text|" + block.label.split("|", 1)[1]
            outputs.append(
                Message(AgentId.TEXT, AgentId.COORDINATOR, FeatureBlock(feature, label))
            )
        return outputs, replace(memory, step_count=memory.step_count + 1)
