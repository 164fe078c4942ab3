"""Synthetic dual-encoder universe with a controllable alignment pathology.

Images of a concept are noisy linear renderings of a latent prototype, and
the frozen visual encoder is the exact left inverse of the renderer, so
visual features of *every* concept — seen or not — cluster around their
prototypes.  The frozen text side only aligns with prototypes of concepts
whose names exist in its vocabulary: names of held-out concepts map to a
single reserved out-of-vocabulary token, so their prompts all encode to the
same uninformative vector.  Alignment breakdown for the held-out split is
therefore a construction-time fact with measurable ground truth.  The world
is data only: the frozen encoders that read its arrays are the agents' own
(``image_agent.frozen_visual_features``, ``text_agent.encode_text`` with no
fusion layers and ``name_agent.pool_frozen_tokens``), and ``build_world``
checks its invariants through them.  ``build_world`` is deterministic, so a world's
``WorldConfig`` identifies it: no world is ever saved or loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import name_agent
from .autodiff import Tensor
from .coordinator import nearest_class
from .image_agent import frozen_visual_features
from .name_agent import NAME_SLOT, PromptTemplate
from .text_agent import encode_text

FAMILIES = ("family_0", "family_1", "family_2", "family_3")
FILLER_POOL = 40
# Pre-activation shift keeping the frozen text mixer in its linear region for
# every mean embedding the vocabulary can produce.
MIXER_SHIFT = 10.0
# Std-dev per coordinate of filler-word embeddings, scaled so a filler token
# has norm ~0.2 regardless of dimension.
FILLER_NORM = 0.2


class WorldBuildError(RuntimeError):
    """Configuration cannot be realized (e.g. latent separation infeasible)."""


@dataclass(frozen=True)
class WorldConfig:
    embed_dim: int = 32
    image_dim: int = 64
    n_seen: int = 20
    n_ood: int = 10
    noise_sigma: float = 0.05
    min_separation: float = 0.3
    vocab_size: int = 128
    seed: int = 0

    def validate(self) -> None:
        if self.embed_dim < 1:
            raise WorldBuildError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.seed < 0:
            raise WorldBuildError(f"seed must be >= 0, got {self.seed}")
        if self.n_seen < 2 or self.n_ood < 2:
            raise WorldBuildError("need at least 2 seen and 2 held-out concepts")
        if self.image_dim < self.embed_dim:
            raise WorldBuildError("image_dim must be >= embed_dim")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise WorldBuildError(f"noise_sigma {self.noise_sigma} must be finite and >= 0")
        needed = FILLER_POOL + self.n_seen + self.n_ood + 1
        if self.vocab_size < needed:
            raise WorldBuildError(f"vocab_size must be >= {needed}")
        if not -np.inf < self.min_separation < np.inf:
            raise WorldBuildError(f"min_separation {self.min_separation} must be finite")
        # Noise-induced expected cosine spread of a visual feature around its
        # prototype, to second order; latents must be separated well clear of it.
        spread = self.noise_sigma**2 * (self.embed_dim - 1) / 2.0
        if self.min_separation <= 2.0 * spread:
            raise WorldBuildError(
                f"min_separation {self.min_separation} must exceed twice the "
                f"noise cosine spread ({spread:.4g})"
            )


@dataclass(frozen=True)
class ConceptSpec:
    id: int
    latent: np.ndarray  # unit vector, embed_dim
    split: str  # "seen" | "ood"
    name_token: int
    family: str


def check_split_labels(n_images: int, labels: np.ndarray, class_ids) -> None:
    """The input check of both scorers, ``TrainingSession.evaluate`` and
    ``World.bayes_oracle_accuracy``: ``ValueError`` unless the label space is
    nonempty and holds every label, of an integer dtype, one per image."""
    if len(class_ids) == 0:
        raise ValueError("empty label space: no class to score against")
    labels = np.asarray(labels)
    if labels.shape != (n_images,):
        raise ValueError(f"{n_images} images need {n_images} labels, got shape {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels of dtype {labels.dtype}, not integers")
    outside = sorted(set(labels.tolist()) - set(np.asarray(class_ids).tolist()))
    if outside:
        raise ValueError(f"labels {outside} are outside the label space {list(class_ids)}")


def _sample_separated_latents(
    rng: np.random.Generator, n: int, dim: int, min_separation: float
) -> np.ndarray:
    """Rejection-sample unit vectors with pairwise cosine <= 1 - min_separation."""
    max_cos = 1.0 - min_separation
    kept: list[np.ndarray] = []
    for _ in range(500 * n):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        if all(abs(float(v @ u)) <= max_cos for u in kept):
            kept.append(v)
            if len(kept) == n:
                return np.stack(kept)
    raise WorldBuildError(
        f"could not place {n} latents with separation {min_separation} in "
        f"{dim} dimensions; lower the concept count or raise embed_dim"
    )


class World:
    """Immutable frozen-encoder universe; safe for concurrent reads.

    Construction makes every array read-only (the encoder, vocabulary and
    mixer arrays and each concept's latent), so the cells of a sweep can
    share one world: an in-place write raises ``ValueError``.
    """

    def __init__(
        self,
        config: WorldConfig,
        concepts: list[ConceptSpec],
        gen_map: np.ndarray,
        vocab: np.ndarray,
        mixer_in: np.ndarray,
        mixer_in_bias: np.ndarray,
        mixer_out: np.ndarray,
        mixer_out_bias: np.ndarray,
        canonical_template: PromptTemplate,
        templates: list[PromptTemplate],
    ):
        self.config = config
        self.concepts = concepts
        self._by_id = {c.id: c for c in concepts}
        self.gen_map = gen_map  # (P, D), orthonormal columns
        self.vocab = vocab  # (V, D)
        self.mixer_in = mixer_in
        self.mixer_in_bias = mixer_in_bias
        self.mixer_out = mixer_out
        self.mixer_out_bias = mixer_out_bias
        self.canonical_template = canonical_template
        self.templates = templates
        self.oov_token = config.vocab_size - 1
        self.report: dict = {}
        for arr in (gen_map, vocab, mixer_in, mixer_in_bias, mixer_out, mixer_out_bias):
            arr.flags.writeable = False
        for c in concepts:
            c.latent.flags.writeable = False

    # -- lookups ------------------------------------------------------------

    def concept(self, concept_id: int) -> ConceptSpec:
        return self._by_id[concept_id]

    @property
    def seen_ids(self) -> list[int]:
        return [c.id for c in self.concepts if c.split == "seen"]

    @property
    def ood_ids(self) -> list[int]:
        return [c.id for c in self.concepts if c.split == "ood"]

    # -- data generation ------------------------------------------------------

    def sample_images(self, concept_id: int, k: int, seed: int) -> np.ndarray:
        """k noisy renderings of the concept latent; deterministic under seed."""
        if k < 1:
            raise ValueError(f"need k >= 1 images, got {k}")
        concept = self.concept(concept_id)
        rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, concept_id, seed])
        )
        # The scaled noise plus the latent's rendering, in one array.
        images = rng.normal(size=(k, self.config.image_dim))
        images *= self.config.noise_sigma
        images += concept.latent @ self.gen_map.T
        return images

    def sample_split(
        self, concept_ids: list[int], per_class: int, seed: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked images plus concept-id labels for an evaluation set, each
        class's block written into one preallocated array."""
        images = np.empty((len(concept_ids) * per_class, self.config.image_dim))
        for i, cid in enumerate(concept_ids):
            images[i * per_class : (i + 1) * per_class] = self.sample_images(cid, per_class, seed)
        labels = np.repeat(concept_ids, per_class)
        return images, labels

    # -- adaptation ceiling ----------------------------------------------------

    def bayes_oracle_accuracy(
        self, images: np.ndarray, labels: np.ndarray, class_ids: list[int]
    ) -> float:
        """Nearest-latent accuracy on visual features over a label space: the
        adaptation ceiling, scored as evaluation scores, through
        ``coordinator.nearest_class``."""
        images = np.atleast_2d(images)
        check_split_labels(len(images), labels, class_ids)
        feats = frozen_visual_features(Tensor(images), Tensor(self.gen_map)).data
        protos = np.stack([self.concept(cid).latent for cid in class_ids])
        return float(np.mean(np.asarray(class_ids)[nearest_class(feats, protos)] == labels))


def build_world(config: WorldConfig = WorldConfig()) -> World:
    """Deterministically construct a world and verify its frozen invariants."""
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xD0A1]))
    d, p = config.embed_dim, config.image_dim
    n = config.n_seen + config.n_ood

    latents = _sample_separated_latents(rng, n, d, config.min_separation)

    # Renderer with orthonormal columns; its transpose is the frozen visual
    # encoder, an exact left inverse.  Every array is stored C-contiguous
    # because outputs depend on the layout: a prompt batch times the
    # transposed view ``q.T`` rounds differently from the same product
    # against a contiguous copy, in most of its entries.
    gen_map, _ = np.linalg.qr(rng.normal(size=(p, d)))
    gen_map = np.ascontiguousarray(gen_map)

    # Frozen text mixer: rotation, shifted ReLU, inverse rotation.  Within the
    # operating region (|rotated coords| < MIXER_SHIFT) it is the identity on
    # mean embeddings, which makes alignment constructible exactly.
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    mixer_in = np.ascontiguousarray(q)
    mixer_in_bias = np.full(d, MIXER_SHIFT)
    mixer_out = np.ascontiguousarray(q.T)
    mixer_out_bias = -MIXER_SHIFT * q.sum(axis=1)

    vocab = rng.normal(scale=FILLER_NORM / np.sqrt(d), size=(config.vocab_size, d))
    oov_token = config.vocab_size - 1

    canonical, templates = name_agent.build_template_bank(FAMILIES, FILLER_POOL, rng)
    canonical_fillers = [t for t in canonical.tokens if t != NAME_SLOT]
    canonical_len = len(canonical.tokens)

    concepts: list[ConceptSpec] = []
    for i in range(n):
        split = "seen" if i < config.n_seen else "ood"
        family = FAMILIES[i % len(FAMILIES)]
        if split == "seen":
            token = FILLER_POOL + i
            # Constructed so the canonical prompt's mean embedding equals the
            # latent exactly: token = T*u - sum(filler embeddings).
            vocab[token] = canonical_len * latents[i] - vocab[canonical_fillers].sum(axis=0)
        else:
            token = oov_token  # shared blind token: total blindness
        concepts.append(ConceptSpec(i, latents[i], split, token, family))

    world = World(
        config,
        concepts,
        gen_map,
        vocab,
        mixer_in,
        mixer_in_bias,
        mixer_out,
        mixer_out_bias,
        canonical,
        templates,
    )

    # Build-time verification of the frozen-encoder invariants: each concept's
    # canonical prompt with its frozen name, through the agents' frozen text
    # encoder, one concept at a time.
    mixer = tuple(Tensor(a) for a in (mixer_in, mixer_in_bias, mixer_out, mixer_out_bias))
    feats = {}
    for c in concepts:
        rendered = name_agent.render_prompt(canonical, c, None)
        pooled = Tensor(name_agent.pool_frozen_tokens(rendered, vocab))
        feats[c.id] = encode_text(pooled, mixer).data
    sc_cos = [
        float(feats[c.id] @ c.latent / np.linalg.norm(feats[c.id]))
        for c in concepts
        if c.split == "seen"
    ]
    ood_feats = np.stack([feats[c.id] for c in concepts if c.split == "ood"])
    blindness_spread = float(np.max(np.abs(ood_feats - ood_feats[0])))
    world.report = {
        "sc_min_prompt_cosine": min(sc_cos),
        "ood_blindness_spread": blindness_spread,
        "max_pairwise_latent_cosine": float(
            np.max(np.abs(latents @ latents.T - np.eye(n)))
        ),
    }
    if world.report["sc_min_prompt_cosine"] < 0.9:
        raise WorldBuildError(
            f"seen-prompt alignment check failed: {world.report['sc_min_prompt_cosine']}"
        )
    if blindness_spread != 0.0:
        raise WorldBuildError("blind-token check failed: features differ")
    return world
