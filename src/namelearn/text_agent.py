"""Text encoding with visual-context fusion.

``TextAgent.encode`` is the one text-encoding path, for training rounds and
evaluation alike.  It runs the frozen text encoder's mixer over pooled prompt
embeddings (the name agent's ``(N, D)`` ``prompts`` payload, learnable name
vectors already pooled in), then mixes that standard feature with a learned
transform of the feature concatenated with the image agent's
``visual_context`` payload, weighted by the fixed ratio ``LAMBDA_MIX``.  Each
round ``step`` returns one payload, ``text_features``, for the coordinator.
The context is a value snapshot broadcast to every row: no gradient crosses
from the text agent into the image agent.  ``encode`` keeps the broadcast
rows with the context tensor they came from, and builds them again only for
another tensor or another row count: within a training run the image agent
sends the same cached context every round.  No code writes a context tensor
in place, so its identity stands for its value.  It reads
``disable_text_context`` (in ``encode``) and ``simple_concat_fusion`` (when
built) from the session's ``SessionSettings``.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .bus import AgentId
from .settings import SessionSettings

# Weight of the plain text feature in the fusion: it dominates, so the
# near-zero fusion starts as a small correction.
LAMBDA_MIX = 0.7


def frozen_text_features(pooled: Tensor, mixer: tuple[Tensor, ...]) -> Tensor:
    """The frozen text encoder's mixer over pooled prompt embeddings, ``(N, D)``
    rows or one ``(D,)`` vector: rotation, shifted ReLU, inverse rotation, from
    ``mixer = (in, in_bias, out, out_bias)``."""
    mixer_in, mixer_in_bias, mixer_out, mixer_out_bias = mixer
    h = ad.relu(ad.affine(pooled, mixer_in, mixer_in_bias))
    return ad.affine(h, mixer_out, mixer_out_bias)


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
        if z.data.ndim != 2 or z.data.shape[1] != self.in_dim:
            raise ShapeError(f"context fusion: need shape (N, {self.in_dim}), got {z.shape}")
        return ad.affine(ad.relu(ad.affine(z, self.w3, self.b3)), self.w4, self.b4)


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
        if z.data.ndim != 2 or z.data.shape[1] != self.in_dim:
            raise ShapeError(f"linear fusion: need shape (N, {self.in_dim}), got {z.shape}")
        return ad.affine(z, self.w, self.b)


class TextAgent:
    agent_id = AgentId.TEXT

    def __init__(
        self,
        mixer: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        settings: SessionSettings,
        rng: np.random.Generator,
    ):
        self.settings = settings
        names = ("frozen_text_in", "frozen_text_in_bias", "frozen_text_out", "frozen_text_out_bias")
        self.mixer = tuple(Tensor(a, name=n) for a, n in zip(mixer, names))
        d = mixer[0].shape[0]
        if settings.simple_concat_fusion:
            self.fusion = LinearFusion(d, rng)
        else:
            self.fusion = ContextIntegrationModule(d, d, rng)
        # The last context tensor ``encode`` broadcast, and its rows.
        self._context_rows: tuple[Tensor, Tensor] | None = None

    def parameters(self) -> list[Tensor]:
        return list(self.fusion.parameters())

    # -- encoding -------------------------------------------------------------

    def encode(self, pooled: Tensor, context: Tensor | None) -> Tensor:
        """Text features ``(N, D)`` for pooled prompt embeddings ``(N, D)``.

        The frozen mixer gives the standard feature; unless
        ``disable_text_context`` is set, the result is
        ``LAMBDA_MIX * standard + (1 - LAMBDA_MIX) * fusion(standard | context)``.
        """
        standard = frozen_text_features(pooled, self.mixer)
        if self.settings.disable_text_context:
            return standard
        if context is None:
            raise MissingContextError(
                "no visual context received; set disable_text_context for "
                "standard encoding"
            )
        # A constant copy per row: the value snapshot carries no gradient.
        n = standard.data.shape[0]
        cached = self._context_rows
        if cached is None or cached[0] is not context or cached[1].data.shape[0] != n:
            rows = np.tile(context.data, (n, 1))
            rows.flags.writeable = False
            cached = self._context_rows = (context, Tensor(rows))
        rows = cached[1]
        fused = self.fusion(ad.concat_cols(standard, rows))
        return ad.blend(standard, fused, LAMBDA_MIX)

    # -- round protocol ---------------------------------------------------------

    def step(self, inbox, batch) -> dict[str, Tensor]:
        # ``encode`` needs the context only with ``disable_text_context`` off.
        return {"text_features": self.encode(inbox["prompts"], inbox.get("visual_context"))}
