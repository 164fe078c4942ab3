"""Text encoding with visual-context fusion.

``encode_text`` is the one text-encoding path, for training rounds and
evaluation alike, and one tape entry.  It runs the frozen text encoder's mixer
over pooled prompt embeddings (the name agent's ``(N, D)`` ``prompts``
payload, learnable name vectors already pooled in), then mixes that standard
feature with a learned transform of the feature concatenated with the image
agent's ``visual_context``, weighted by the fixed ratio ``LAMBDA_MIX``.  The
context is a constant ``(D,)`` array broadcast to every row, and the frozen
mixer's layers are read as constants too: neither is a tape input, so no
gradient crosses into the image agent or the frozen encoder, and the op's
inputs are the prompts and the fusion layers alone.  An encode keeps each
layer's input for the backward, which reads the relu masks off them.  Each
round ``step`` turns the ``prompts`` and ``visual_context`` in its inbox into
one payload, ``text_features``, for the coordinator.  The agent reads
``disable_text_context`` and ``simple_concat_fusion`` when built, and builds
``fusion_layers`` only where the arm fuses.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .settings import SessionSettings

# Weight of the plain text feature in the fusion: it dominates, so the
# near-zero fusion starts as a small correction.
LAMBDA_MIX = 0.7


def _relu_mlp(x: np.ndarray, layers) -> tuple[np.ndarray, list]:
    """``affine`` layers ``(W1, b1, W2, b2, ...)``, a ``relu`` between each
    two, each in place on the fresh output below it: the output and each
    layer's input."""
    inputs = []
    for i in range(0, len(layers), 2):
        if i:
            np.maximum(x, 0.0, out=x)
        inputs.append(x)
        x = x @ layers[i].data + layers[i + 1].data
    return x, inputs


def _relu_mlp_backward(g: np.ndarray, layers, inputs, need_input, need_layers) -> tuple:
    """Gradients through ``_relu_mlp``: the input's (``None`` unless
    ``need_input``), then each layer's (``None`` unless ``need_layers``).
    ``g`` goes on down only while the input or a lower layer needs a
    gradient, so no product is formed that nobody reads.  A ``relu`` passes
    ``g`` where its output, the next layer's input, is positive."""
    grads = [None] * len(layers)
    for i in range(len(layers) - 2, -1, -2):
        if need_layers:
            grads[i] = inputs[i // 2].T @ g
            grads[i + 1] = np.add.reduce(g, axis=0)
        if not (need_input or need_layers and i):
            return None, grads
        g = g @ layers[i].data.T
        if i:
            g = g * (inputs[i // 2] > 0)
    return g, grads


def encode_text(x: Tensor, mixer, context: np.ndarray | None = None, fusion=()) -> Tensor:
    """``standard = mixer(x)`` for ``(N, D)`` rows (or one ``(D,)`` vector),
    or with ``fusion`` layers ``blend(standard, fusion(concat_cols(standard,
    context rows)), LAMBDA_MIX)``, as one tape entry; ``mixer`` and
    ``fusion`` are ``_relu_mlp`` layers and the constant ``(D,)`` context
    fills the right half of every concatenated row.  The tape inputs are
    the prompts and the fusion layers: the mixer is frozen, read as a
    constant.  The backward evaluates the composed ops' expressions in their
    order, so every gradient is theirs, bit for bit, and forms none that no
    input reads: with frozen prompts (the ``disable_name_agent`` arm) it
    stops at the fusion layers."""
    std, std_in = _relu_mlp(x.data, mixer)
    out = std
    if fusion:
        if std.ndim != 2 or context.shape != std.shape[1:]:
            raise ShapeError(f"text encoding: context {context.shape} for features {std.shape}")
        n, k = std.shape
        cat = np.empty((n, 2 * k))
        cat[:, :k] = std
        cat[:, k:] = context
        fused, fused_in = _relu_mlp(cat, fusion)
        wa, wb = LAMBDA_MIX, 1.0 - LAMBDA_MIX
        out = std * wa + fused * wb

    def backward(g):
        need_x, grads = x.requires_grad, ()
        if fusion:
            gz, grads = _relu_mlp_backward(g * wb, fusion, fused_in, need_x, True)
            if need_x:
                g = g * wa + gz[:, :k]
        return (_relu_mlp_backward(g, mixer, std_in, need_x, False)[0], *grads)

    return ad._make(out, (x, *fusion), backward)


class MissingContextError(RuntimeError):
    """Contextual encoding requested before any visual context arrived."""


def _uniform(rng: np.random.Generator, half_width: float, shape, name: str) -> Tensor:
    return Tensor(rng.uniform(-half_width, half_width, shape), requires_grad=True, name=name)


def _zeros(width: int, name: str) -> Tensor:
    return Tensor(np.zeros(width), requires_grad=True, name=name)


def fusion_layers(d: int, simple: bool, rng: np.random.Generator) -> tuple[Tensor, ...]:
    """The fusion's ``_relu_mlp`` layers from the ``2 * d``-wide
    concatenation of text feature and context, for embedding width ``d``,
    out to ``d``: two layers with a hidden layer ``d`` wide, or with
    ``simple`` one linear map (the ``simple_concat_fusion`` arm).  They start
    near zero (zero biases, small weights), so early training is dominated
    by the plain text feature."""
    a = 0.5 / np.sqrt(2 * d)
    if simple:
        return _uniform(rng, a, (2 * d, d), "fusion.linear_w"), _zeros(d, "fusion.linear_b")
    w3 = _uniform(rng, a, (2 * d, d), "fusion.w3")
    b3 = _zeros(d, "fusion.b3")
    return w3, b3, _uniform(rng, a, (d, d), "fusion.w4"), _zeros(d, "fusion.b4")


class TextAgent:
    agent_id = "Text"

    def __init__(
        self,
        mixer: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        settings: SessionSettings,
        rng: np.random.Generator,
    ):
        names = ("frozen_text_in", "frozen_text_in_bias", "frozen_text_out", "frozen_text_out_bias")
        self.mixer = tuple(Tensor(a, name=n) for a, n in zip(mixer, names))
        d = mixer[0].shape[0]
        fuses = not settings.disable_text_context
        self.layers = fusion_layers(d, settings.simple_concat_fusion, rng) if fuses else ()

    def parameters(self) -> list[Tensor]:
        return list(self.layers)

    # -- encoding -------------------------------------------------------------

    def encode(self, pooled: Tensor, context: Tensor | None) -> Tensor:
        """Text features ``(N, D)`` for pooled prompt embeddings ``(N, D)``
        and a context (``None`` under ``disable_text_context``), through
        ``encode_text``."""
        if context is None and self.layers:
            raise MissingContextError(
                "no visual context received; set disable_text_context for standard encoding"
            )
        data = None if context is None else context.data
        return encode_text(pooled, self.mixer, data, self.layers)

    # -- round protocol ---------------------------------------------------------

    def step(self, inbox, batch) -> dict[str, Tensor]:
        context = inbox["visual_context"].data
        return {"text_features": encode_text(inbox["prompts"], self.mixer, context, self.layers)}
