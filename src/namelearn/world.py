"""Synthetic dual-encoder universe with a controllable alignment pathology.

Images of a concept are noisy linear renderings of a latent prototype, and
the frozen visual encoder is the exact left inverse of the renderer, so
visual features of *every* concept — seen or not — cluster around their
prototypes.  The frozen text side only aligns with prototypes of concepts
whose names exist in its vocabulary: names of held-out concepts map to a
single reserved out-of-vocabulary token, so their prompts all encode to the
same uninformative vector.  Alignment breakdown for the held-out split is
therefore a construction-time fact with measurable ground truth.  The frozen
model's zero-shot classifier is a softmax at the fixed temperature
``ZERO_SHOT_GAMMA``.  A snapshot loads only if its length is exactly header
plus arrays and every key of its config is a ``WorldConfig`` field.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import name_agent
from .name_agent import NAME_SLOT, PromptTemplate

SNAPSHOT_MAGIC = b"NLWORLD/1\n"

FAMILIES = ("family_0", "family_1", "family_2", "family_3")
FILLER_POOL = 40
# Pre-activation shift keeping the frozen text mixer in its linear region for
# every mean embedding the vocabulary can produce.
MIXER_SHIFT = 10.0
# Std-dev per coordinate of filler-word embeddings, scaled so a filler token
# has norm ~0.2 regardless of dimension.
FILLER_NORM = 0.2
# Softmax temperature of the frozen model's zero-shot classifier.
ZERO_SHOT_GAMMA = 0.07


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
        if self.n_seen < 2 or self.n_ood < 2:
            raise WorldBuildError("need at least 2 seen and 2 held-out concepts")
        if self.image_dim < self.embed_dim:
            raise WorldBuildError("image_dim must be >= embed_dim")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise WorldBuildError(f"noise_sigma {self.noise_sigma} must be finite and >= 0")
        needed = FILLER_POOL + self.n_seen + self.n_ood + 1
        if self.vocab_size < needed:
            raise WorldBuildError(f"vocab_size must be >= {needed}")
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
    name: str
    latent: np.ndarray  # unit vector, embed_dim
    split: str  # "seen" | "ood"
    name_token: int
    family: str


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
    """Immutable frozen-encoder universe; safe for concurrent reads."""

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

    # -- lookups ------------------------------------------------------------

    def concept(self, concept_id: int) -> ConceptSpec:
        return self._by_id[concept_id]

    @property
    def seen_ids(self) -> list[int]:
        return [c.id for c in self.concepts if c.split == "seen"]

    @property
    def ood_ids(self) -> list[int]:
        return [c.id for c in self.concepts if c.split == "ood"]

    # -- frozen encoders ----------------------------------------------------

    def encode_images(self, images: np.ndarray) -> np.ndarray:
        """Frozen visual encoder: exact left inverse of the renderer."""
        return np.asarray(images) @ self.gen_map

    def text_mixer(self, mean_embed: np.ndarray) -> np.ndarray:
        """Frozen text encoder body applied to a mean token embedding."""
        h = np.maximum(0.0, mean_embed @ self.mixer_in + self.mixer_in_bias)
        return h @ self.mixer_out + self.mixer_out_bias

    def frozen_prompt_feature(
        self, concept_id: int, template: PromptTemplate | None = None
    ) -> np.ndarray:
        """Text feature of a template rendered with the concept's frozen name."""
        t = template or self.canonical_template
        concept = self.concept(concept_id)
        ids = [concept.name_token if tok == NAME_SLOT else tok for tok in t.tokens]
        return self.text_mixer(self.vocab[ids].mean(axis=0))

    # -- data generation ------------------------------------------------------

    def sample_images(self, concept_id: int, k: int, seed: int) -> np.ndarray:
        """k noisy renderings of the concept latent; deterministic under seed."""
        if k < 1:
            raise ValueError(f"need k >= 1 images, got {k}")
        concept = self.concept(concept_id)
        rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, concept_id, seed])
        )
        noise = rng.normal(size=(k, self.config.image_dim))
        return concept.latent @ self.gen_map.T + self.config.noise_sigma * noise

    def sample_split(
        self, concept_ids: list[int], per_class: int, seed: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked images plus concept-id labels for an evaluation set."""
        images = np.concatenate(
            [self.sample_images(cid, per_class, seed) for cid in concept_ids]
        )
        labels = np.repeat(concept_ids, per_class)
        return images, labels

    # -- frozen-model inference ----------------------------------------------

    def zero_shot_probs(self, images: np.ndarray, class_ids: list[int]) -> np.ndarray:
        """Open-vocabulary probabilities: softmax of cosine / ZERO_SHOT_GAMMA
        per image."""
        if len(class_ids) == 0:
            raise ValueError("empty class set")
        feats = self.encode_images(np.atleast_2d(images))
        feats = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        text = np.stack([self.frozen_prompt_feature(cid) for cid in class_ids])
        text = text / np.linalg.norm(text, axis=1, keepdims=True)
        logits = (feats @ text.T) / ZERO_SHOT_GAMMA
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        return p

    def zero_shot_accuracy(
        self, images: np.ndarray, labels: np.ndarray, class_ids: list[int]
    ) -> float:
        probs = self.zero_shot_probs(images, class_ids)
        pred = np.asarray(class_ids)[np.argmax(probs, axis=1)]
        return float(np.mean(pred == labels))

    def bayes_oracle_accuracy(
        self, images: np.ndarray, labels: np.ndarray, class_ids: list[int] | None = None
    ) -> float:
        """Nearest-latent accuracy on visual features: the adaptation ceiling."""
        ids = class_ids if class_ids is not None else sorted({int(y) for y in labels})
        feats = self.encode_images(np.atleast_2d(images))
        feats = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        protos = np.stack([self.concept(cid).latent for cid in ids])
        pred = np.asarray(ids)[np.argmax(feats @ protos.T, axis=1)]
        return float(np.mean(pred == labels))


def build_world(config: WorldConfig = WorldConfig()) -> World:
    """Deterministically construct a world and verify its frozen invariants."""
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xD0A1]))
    d, p = config.embed_dim, config.image_dim
    n = config.n_seen + config.n_ood

    latents = _sample_separated_latents(rng, n, d, config.min_separation)

    # Renderer with orthonormal columns; its transpose is the frozen visual
    # encoder, an exact left inverse.  All arrays are stored C-contiguous so
    # a freshly built world and a snapshot-loaded one compute bit-identically.
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
        name = f"{split}_{i if split == 'seen' else i - config.n_seen:02d}"
        concepts.append(ConceptSpec(i, name, latents[i], split, token, family))

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

    # Build-time verification of the frozen-encoder invariants.
    sc_cos = []
    for c in concepts:
        if c.split != "seen":
            continue
        f = world.frozen_prompt_feature(c.id)
        sc_cos.append(float(f @ c.latent / np.linalg.norm(f)))
    ood_feats = np.stack(
        [world.frozen_prompt_feature(c.id) for c in concepts if c.split == "ood"]
    )
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


# ---------------------------------------------------------------------------
# Snapshot format: magic, uint32-LE header length, JSON header (config,
# concept metadata, templates, array manifest), then the arrays as raw
# little-endian float64 in manifest order, and nothing after them.

def save_world(world: World, path) -> None:
    arrays = {
        "latents": np.stack([c.latent for c in world.concepts]),
        "gen_map": world.gen_map,
        "vocab": world.vocab,
        "mixer_in": world.mixer_in,
        "mixer_in_bias": world.mixer_in_bias,
        "mixer_out": world.mixer_out,
        "mixer_out_bias": world.mixer_out_bias,
    }
    header = {
        "config": asdict(world.config),
        "concepts": [
            {
                "id": c.id,
                "name": c.name,
                "split": c.split,
                "name_token": c.name_token,
                "family": c.family,
            }
            for c in world.concepts
        ],
        "canonical_template": _template_record(world.canonical_template),
        "templates": [_template_record(t) for t in world.templates],
        "manifest": [[k, list(v.shape)] for k, v in arrays.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    tmp.replace(Path(path))


def load_world(path) -> World:
    header, flat = name_agent.read_framed(
        path,
        SNAPSHOT_MAGIC,
        "world snapshot",
        lambda h: sum(int(np.prod(shape)) for _, shape in h["manifest"]),
    )
    arrays, off = {}, 0
    for key, shape in header["manifest"]:
        count = int(np.prod(shape))
        arrays[key] = flat[off : off + count].reshape(shape)
        off += count
    extra = sorted(set(header["config"]) - {f.name for f in fields(WorldConfig)})
    if extra:
        raise ValueError(
            f"{path}: config keys {extra} are not WorldConfig fields; "
            "rebuild the snapshot with 'namelearn world build'"
        )
    config = WorldConfig(**header["config"])
    concepts = [
        ConceptSpec(
            m["id"],
            m["name"],
            arrays["latents"][m["id"]],
            m["split"],
            m["name_token"],
            m["family"],
        )
        for m in header["concepts"]
    ]
    return World(
        config,
        concepts,
        arrays["gen_map"],
        arrays["vocab"],
        arrays["mixer_in"],
        arrays["mixer_in_bias"],
        arrays["mixer_out"],
        arrays["mixer_out_bias"],
        _template_from(header["canonical_template"]),
        [_template_from(t) for t in header["templates"]],
    )


def _template_record(t: PromptTemplate) -> dict:
    return {"id": t.template_id, "tokens": list(t.tokens), "affinity": t.category_affinity}


def _template_from(rec: dict) -> PromptTemplate:
    return PromptTemplate(rec["id"], tuple(rec["tokens"]), rec["affinity"])
