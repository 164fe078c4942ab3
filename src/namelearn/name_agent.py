"""Learnable name embeddings and prompt generation for new concepts.

Concepts whose names are missing from the frozen vocabulary get trainable
vectors (one per name when a session starts) that are spliced into prompt
templates in place of the name token.  Template banks are organized by
concept family so that a concept's name can also be rendered inside templates
authored for *other* families (context exchange), multiplying its training
views.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bus import AgentId, FeatureBlock, MailboxError, Message

NAME_SLOT = -1
SHARED_AFFINITY = "shared"

CHECKPOINT_MAGIC = b"NLNAMES/1\n"


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
    """Learnable name vectors of the out-of-vocabulary concepts, as one
    ``(R, D)`` tensor.

    Each concept owns a contiguous block of rows, blocks in ascending concept
    id, so the flattened tensor lists the coordinates in (concept id, vector)
    order.  In-vocabulary names stay on the frozen token table.
    """

    def __init__(self, embed_dim: int):
        self.embed_dim = embed_dim
        self.weight = Tensor(np.zeros((0, embed_dim)), requires_grad=True, name="name_embed")
        self._rows: dict[int, range] = {}  # concept id -> its rows, ascending id

    def concept_ids(self) -> list[int]:
        return list(self._rows)

    def rows(self, concept_id: int) -> range:
        """The table rows holding one concept's name vectors."""
        try:
            return self._rows[concept_id]
        except KeyError:
            raise MissingNameEmbeddingError(
                f"no name embeddings for concept {concept_id}"
            ) from None

    def add(self, concept_id: int, values: np.ndarray) -> None:
        """Register (or replace) one concept's block of ``(n, D)`` vectors."""
        blocks = {cid: self.weight.data[r.start : r.stop] for cid, r in self._rows.items()}
        blocks[concept_id] = np.asarray(values, dtype=np.float64)
        self._rows, start = {}, 0
        for cid in sorted(blocks):
            self._rows[cid] = range(start, start + len(blocks[cid]))
            start += len(blocks[cid])
        self.weight.data = np.concatenate([blocks[cid] for cid in self._rows])

    def parameters(self) -> list[Tensor]:
        return [self.weight] if self._rows else []


@dataclass
class RenderedPrompt:
    """A template with the name slot filled, ready for pooling.

    The slot holds either frozen ``name_tokens`` (in-vocabulary names, or the
    blind token) or learnable ``name_rows`` of the name table (OOV names).
    ``frozen_token_ids`` lists every vocabulary id the rendering embeds (used
    to audit name masking); table rows are never among them.
    """

    concept_id: int
    template_id: str
    prompt_tokens: tuple[int, ...]
    name_tokens: tuple[int, ...]
    name_rows: tuple[int, ...]

    @property
    def spliced_length(self) -> int:
        return len(self.prompt_tokens) - 1 + len(self.name_tokens) + len(self.name_rows)

    @property
    def frozen_token_ids(self) -> tuple[int, ...]:
        return tuple(t for t in self.prompt_tokens if t != NAME_SLOT) + self.name_tokens


def render_prompt(
    template: PromptTemplate,
    concept,
    table: NameEmbeddingTable,
    frozen_names: bool = False,
) -> RenderedPrompt:
    """Fill the template's name slot for one concept.

    In-vocabulary concepts always use their frozen name token.  OOV concepts
    use their rows of the name table, unless ``frozen_names`` forces the
    frozen (blind) token, e.g. for the no-name-learning baseline.
    """
    name_tokens, name_rows = (concept.name_token,), ()
    if concept.split == "ood" and not frozen_names:
        name_tokens, name_rows = (), tuple(table.rows(concept.id))
    return RenderedPrompt(
        concept.id, template.template_id, template.tokens, name_tokens, name_rows
    )


def context_exchange_augment(
    concept, templates: list[PromptTemplate], k: int, seed: int
) -> list[tuple[str, str]]:
    """One native template plus ``k`` foreign-family ones, seeded, as
    ``(template_id, origin)`` pairs with the native pair first.

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
    pairs = [(native.template_id, "native")]
    for idx in rng.choice(len(foreign_pool), size=k, replace=False):
        pairs.append((foreign_pool[int(idx)].template_id, "exchanged"))
    return pairs


class NameAgent:
    """Bus-facing wrapper: renders the batch's prompts and ships their pooled
    embeddings, one row per image-prompt pair, to the text agent.

    The frozen text encoder mean-pools token embeddings before anything else,
    so a prompt's pooled embedding is a frozen part (its vocabulary rows) plus
    a fixed selection of name-table rows, each weighted by one over the
    spliced length.  With ``frozen_names`` set (baseline / no-name-learning
    arm) every rendering uses the concept's frozen token instead.
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
        self._pooled_rows: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] = {}

    def render(self, concept_id: int, template_id: str) -> RenderedPrompt:
        template = self.templates[template_id]
        concept = self.concepts[concept_id]
        return render_prompt(template, concept, self.table, self.frozen_names)

    def _pooled_row(self, pair: tuple[int, str]) -> tuple[np.ndarray, np.ndarray]:
        """One prompt's frozen pooled row and its weights over the table rows.

        Rendered and validated on first use only: templates, names and the
        table's row layout are fixed for the agent's lifetime (the values in
        the table are not, which is why the selection is kept, not applied).
        """
        if pair not in self._pooled_rows:
            rendered = self.render(*pair)
            ids = list(rendered.frozen_token_ids)
            for tok in ids:
                if not 0 <= tok < len(self.vocab):
                    raise UnknownTokenError(f"token id {tok!r} outside vocabulary")
            selection = np.zeros(self.table.weight.shape[0])
            selection[list(rendered.name_rows)] = 1.0 / rendered.spliced_length
            frozen = self.vocab[ids].sum(axis=0) / rendered.spliced_length
            self._pooled_rows[pair] = frozen, selection
        return self._pooled_rows[pair]

    def pool(self, pairs: list[tuple[int, str]]) -> Tensor:
        """Pooled prompt embeddings ``(N, D)``, one row per (concept id,
        template id) pair."""
        rows = [self._pooled_row(pair) for pair in pairs]
        pooled = Tensor(np.stack([frozen for frozen, _ in rows]))
        selection = np.stack([weights for _, weights in rows])
        if selection.any():
            pooled = ad.add(pooled, ad.matmul(Tensor(selection), self.table.weight))
        return pooled

    def step(self, messages, batch) -> list[Message]:
        if messages:
            raise MailboxError(f"name agent cannot handle {messages[0]}")
        block = FeatureBlock(self.pool(batch.prompt_plan), "prompts")
        return [Message(AgentId.NAME, AgentId.TEXT, block)]


# ---------------------------------------------------------------------------
# Checkpoint format: magic, uint32-LE header length, JSON header, then the
# table's rows as raw little-endian float64, row-major, in header order.

def save_name_table(table: NameEmbeddingTable, path, world_seed: int) -> None:
    header = {
        "embed_dim": table.embed_dim,
        "world_seed": int(world_seed),
        "concepts": [
            {"id": cid, "n_vectors": len(table.rows(cid))} for cid in table.concept_ids()
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(table.weight.data.astype("<f8").tobytes())


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
        count = entry["n_vectors"] * dim
        data = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
        off += count * 8
        table.add(entry["id"], data.reshape(entry["n_vectors"], dim))
    return table, header["world_seed"]
