"""Learnable name embeddings and prompt generation for new concepts.

Concepts whose names are missing from the frozen vocabulary get a small set
of trainable vectors that are spliced into prompt templates in place of the
name token.  Template banks are organized by concept family so that a
concept's name can also be rendered inside templates authored for *other*
families (context exchange), multiplying its training views.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bus import AgentId, AgentMemory, FeatureBlock, MailboxError, Message, Metadata

NAME_SLOT = -1
SHARED_AFFINITY = "shared"

CHECKPOINT_MAGIC = b"NLNAMES/1\n"


class FrozenNameError(ValueError):
    """Attempt to create learnable embeddings for an in-vocabulary name."""


class MissingNameEmbeddingError(KeyError):
    """A concept was rendered before its embeddings were initialized."""


class InsufficientTemplatesError(ValueError):
    """Not enough foreign-family templates for the requested exchange count."""


class UnknownTokenError(ValueError):
    """A token id outside the vocabulary (the reserved blind token is legal)."""


@dataclass(frozen=True)
class PromptTemplate:
    """A token sequence with exactly one NAME_SLOT placeholder."""

    template_id: str
    tokens: tuple[int, ...]
    category_affinity: str

    def __post_init__(self):
        slots = sum(1 for t in self.tokens if t == NAME_SLOT)
        if slots != 1:
            raise ValueError(
                f"template {self.template_id!r} has {slots} name slots, need exactly 1"
            )


def build_template_bank(
    families: tuple[str, ...],
    filler_pool: int,
    rng: np.random.Generator,
    per_family: int = 8,
    canonical_tokens: tuple[int, ...] = (0, 1, 2, 3),
) -> tuple[PromptTemplate, list[PromptTemplate]]:
    """Shared canonical template plus ``per_family`` native templates each.

    Template bodies are sequences of filler-word ids below ``filler_pool``
    with the name slot at a random position.
    """
    canonical = PromptTemplate(
        "shared_0", tuple(canonical_tokens) + (NAME_SLOT,), SHARED_AFFINITY
    )
    bank: list[PromptTemplate] = []
    for family in families:
        for i in range(per_family):
            length = int(rng.integers(3, 8))
            body = [int(t) for t in rng.integers(0, filler_pool, size=length)]
            body.insert(int(rng.integers(0, length + 1)), NAME_SLOT)
            bank.append(PromptTemplate(f"{family}_{i}", tuple(body), family))
    return canonical, bank


class NameEmbeddingTable:
    """Per-concept learnable name vectors, keyed by concept id.

    Only out-of-vocabulary concepts get entries; in-vocabulary names stay on
    the frozen token table.
    """

    def __init__(self, embed_dim: int):
        self.embed_dim = embed_dim
        self._vectors: dict[int, list[Tensor]] = {}

    def __contains__(self, concept_id: int) -> bool:
        return concept_id in self._vectors

    def concept_ids(self) -> list[int]:
        return sorted(self._vectors)

    def vectors(self, concept_id: int) -> list[Tensor]:
        try:
            return self._vectors[concept_id]
        except KeyError:
            raise MissingNameEmbeddingError(
                f"no name embeddings for concept {concept_id}"
            ) from None

    def parameters(self) -> list[Tensor]:
        return [v for cid in self.concept_ids() for v in self._vectors[cid]]


def init_name_embeddings(
    table: NameEmbeddingTable,
    concept,
    n_vectors: int,
    policy: str,
    vocab: np.ndarray,
    oov_token: int,
    rng: np.random.Generator | None = None,
) -> list[Tensor]:
    """Create and register ``n_vectors`` learnable vectors for an OOV concept.

    Policies: ``zero``; ``random`` (small gaussian); ``vocab_mean`` (every
    vector starts at the mean of the frozen vocabulary rows, the reserved
    out-of-vocabulary row excluded).
    """
    if concept.split != "ood":
        raise FrozenNameError(
            f"concept {concept.id} is in-vocabulary; its name stays frozen"
        )
    if n_vectors < 1:
        raise ValueError(f"n_vectors must be >= 1, got {n_vectors}")
    dim = table.embed_dim
    if policy == "zero":
        make = lambda i: np.zeros(dim)
    elif policy == "random":
        if rng is None:
            raise ValueError("policy 'random' needs an rng")
        make = lambda i: rng.normal(scale=0.02, size=dim)
    elif policy == "vocab_mean":
        rows = np.delete(vocab, oov_token, axis=0)
        mean = rows.mean(axis=0)
        make = lambda i: mean.copy()
    else:
        raise ValueError(f"unknown init policy {policy!r}")
    vectors = [
        Tensor(make(i), requires_grad=True, name=f"name_embed[{concept.id}][{i}]")
        for i in range(n_vectors)
    ]
    table._vectors[concept.id] = vectors
    return vectors


@dataclass
class RenderedPrompt:
    """A template with the name slot filled, ready for text encoding.

    ``target`` holds frozen token ids for in-vocabulary names or the
    learnable vectors for OOV names.  ``frozen_token_ids`` lists every
    vocabulary id the rendering will embed (used to audit name masking).
    """

    concept_id: int
    template_id: str
    origin: str
    prompt_tokens: tuple[int, ...]
    target: tuple

    @property
    def spliced_length(self) -> int:
        return len(self.prompt_tokens) - 1 + len(self.target)

    @property
    def frozen_token_ids(self) -> tuple[int, ...]:
        ids = [t for t in self.prompt_tokens if t != NAME_SLOT]
        ids += [t for t in self.target if isinstance(t, int)]
        return tuple(ids)


def render_prompt(
    template: PromptTemplate,
    concept,
    table: NameEmbeddingTable | None,
    frozen_names: bool = False,
) -> RenderedPrompt:
    """Fill the template's name slot for one concept.

    In-vocabulary concepts always use their frozen name token.  OOV concepts
    use their learnable vectors, unless ``frozen_names`` forces the frozen
    (blind) token, e.g. for the no-name-learning baseline.
    """
    if concept.split == "ood" and not frozen_names:
        if table is None:
            raise MissingNameEmbeddingError(f"no table for concept {concept.id}")
        target: tuple = tuple(table.vectors(concept.id))
    else:
        target = (concept.name_token,)
    origin = (
        "native"
        if template.category_affinity in (concept.family, SHARED_AFFINITY)
        else "exchanged"
    )
    return RenderedPrompt(concept.id, template.template_id, origin, template.tokens, target)


@dataclass(frozen=True)
class AugmentedPromptSet:
    """One native rendering plus K renderings borrowed from other families."""

    concept_id: int
    entries: tuple[tuple[str, RenderedPrompt, str], ...]  # (template_id, prompt, origin)
    family: str = field(default="")

    def __post_init__(self):
        if not any(origin == "native" for _, _, origin in self.entries):
            raise ValueError("augmented set needs at least one native rendering")


def context_exchange_augment(
    concept,
    templates: list[PromptTemplate],
    k: int,
    seed: int,
    table: NameEmbeddingTable | None = None,
    frozen_names: bool = False,
) -> AugmentedPromptSet:
    """One native rendering plus ``k`` foreign-family renderings, seeded.

    Foreign templates are drawn without replacement from templates whose
    affinity is neither the concept's family nor shared.
    """
    native_pool = [t for t in templates if t.category_affinity == concept.family]
    foreign_pool = [
        t
        for t in templates
        if t.category_affinity not in (concept.family, SHARED_AFFINITY)
    ]
    if not native_pool:
        raise InsufficientTemplatesError(
            f"no native templates for family {concept.family!r}"
        )
    if len(foreign_pool) < k:
        raise InsufficientTemplatesError(
            f"need {k} foreign templates, only {len(foreign_pool)} available"
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, concept.id]))
    native = native_pool[int(rng.integers(len(native_pool)))]
    entries = [
        (native.template_id, render_prompt(native, concept, table, frozen_names), "native")
    ]
    for idx in rng.choice(len(foreign_pool), size=k, replace=False):
        t = foreign_pool[int(idx)]
        entries.append(
            (t.template_id, render_prompt(t, concept, table, frozen_names), "exchanged")
        )
    return AugmentedPromptSet(concept.id, tuple(entries), family=concept.family)


class NameAgent:
    """Bus-facing wrapper: renders the batch's prompts and ships them as
    embedded (T, D) matrices to the text agent.

    With ``frozen_names`` set (baseline / no-name-learning arm) every
    rendering uses the concept's frozen token instead of learnable vectors.
    """

    agent_id = AgentId.NAME

    def __init__(
        self,
        concepts_by_id: dict,
        templates: list[PromptTemplate],
        canonical: PromptTemplate,
        table: NameEmbeddingTable,
        vocab: np.ndarray,
        frozen_names: bool = False,
    ):
        self.concepts = concepts_by_id
        self.templates = {t.template_id: t for t in templates}
        self.templates[canonical.template_id] = canonical
        self.table = table
        self.vocab = vocab
        self.frozen_names = frozen_names

    def render(self, concept_id: int, template_id: str) -> RenderedPrompt:
        template = self.templates[template_id]
        concept = self.concepts[concept_id]
        return render_prompt(template, concept, self.table, self.frozen_names)

    def embed(self, rendered: RenderedPrompt) -> Tensor:
        """Stack the spliced token embeddings into a (T, D) matrix: frozen
        rows for token ids, the learnable vectors themselves in the name slot."""
        rows: list[Tensor] = []
        for tok in rendered.prompt_tokens:
            if tok == NAME_SLOT:
                rows += [
                    t if isinstance(t, Tensor) else self._token(t)
                    for t in rendered.target
                ]
            else:
                rows.append(self._token(tok))
        return ad.stack_rows(rows)

    def _token(self, tok) -> Tensor:
        if not isinstance(tok, (int, np.integer)) or not 0 <= tok < len(self.vocab):
            raise UnknownTokenError(f"token id {tok!r} outside vocabulary")
        return Tensor(self.vocab[tok])

    def open_round(self, memory: AgentMemory) -> list[Message]:
        return []

    def step(self, messages, batch, memory: AgentMemory):
        for msg in messages:
            if not isinstance(msg.content, Metadata):
                raise MailboxError(f"name agent cannot handle {msg}")
        outputs = []
        for concept_id, template_id in batch.distinct_prompts:
            rendered = self.render(concept_id, template_id)
            label = f"prompt|{concept_id}|{template_id}|{rendered.origin}"
            outputs.append(
                Message(AgentId.NAME, AgentId.TEXT, FeatureBlock(self.embed(rendered), label))
            )
        return outputs, replace(memory, step_count=memory.step_count + 1)


# ---------------------------------------------------------------------------
# Checkpoint format: magic, uint32-LE header length, JSON header, then the
# concatenated vectors as raw little-endian float64 in header order.

def save_name_table(table: NameEmbeddingTable, path, world_seed: int) -> None:
    header = {
        "embed_dim": table.embed_dim,
        "world_seed": int(world_seed),
        "concepts": [
            {"id": cid, "n_vectors": len(table.vectors(cid))}
            for cid in table.concept_ids()
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for cid in table.concept_ids():
            for vec in table.vectors(cid):
                fh.write(vec.data.astype("<f8").tobytes())


def load_name_table(path) -> tuple[NameEmbeddingTable, int]:
    raw = Path(path).read_bytes()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a name-embedding checkpoint")
    off = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack_from("<I", raw, off)
    off += 4
    header = json.loads(raw[off : off + hlen])
    off += hlen
    dim = header["embed_dim"]
    table = NameEmbeddingTable(dim)
    for entry in header["concepts"]:
        vectors = []
        for i in range(entry["n_vectors"]):
            data = np.frombuffer(raw, dtype="<f8", count=dim, offset=off).copy()
            off += dim * 8
            vectors.append(
                Tensor(data, requires_grad=True, name=f"name_embed[{entry['id']}][{i}]")
            )
        table._vectors[entry["id"]] = vectors
    return table, header["world_seed"]
