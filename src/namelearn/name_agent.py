"""Learnable name embeddings and prompt generation for new concepts.

Each concept whose name is missing from the frozen vocabulary gets one
trainable vector, a row of a fixed name table, that is spliced into prompt
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
    """Learnable name vectors of the held-out concepts, as one ``(n, D)``
    tensor: one row per concept, rows in ascending concept id.

    A concept's row is also its column in the classification head.
    In-vocabulary names stay on the frozen token table.
    """

    def __init__(self, concept_ids, values: np.ndarray):
        self.concept_ids = [int(cid) for cid in concept_ids]
        if any(a >= b for a, b in zip(self.concept_ids, self.concept_ids[1:])):
            raise ValueError(f"concept ids must be strictly ascending, got {self.concept_ids}")
        values = np.array(values, dtype=np.float64)
        if values.ndim != 2 or len(values) != len(self.concept_ids):
            raise ValueError(
                f"need ({len(self.concept_ids)}, D) name vectors, got shape {values.shape}"
            )
        self.index = {cid: row for row, cid in enumerate(self.concept_ids)}
        self.weight = Tensor(values, requires_grad=True, name="name_embed")

    def row(self, concept_id: int) -> int:
        """The table row holding one concept's name vector."""
        try:
            return self.index[concept_id]
        except KeyError:
            raise MissingNameEmbeddingError(
                f"no name embedding for concept {concept_id}"
            ) from None


@dataclass
class RenderedPrompt:
    """A template with the name slot filled, ready for pooling.

    The slot holds either a frozen ``name_token`` (in-vocabulary names, or the
    blind token) or the learnable ``name_row`` of the name table (held-out
    names); exactly one of the two is set.  ``frozen_token_ids`` lists every
    vocabulary id the rendering embeds (used to audit name masking); table
    rows are never among them.
    """

    concept_id: int
    template_id: str
    prompt_tokens: tuple[int, ...]
    name_token: int | None
    name_row: int | None

    @property
    def frozen_token_ids(self) -> tuple[int, ...]:
        body = tuple(t for t in self.prompt_tokens if t != NAME_SLOT)
        return body if self.name_token is None else body + (self.name_token,)


def render_prompt(
    template: PromptTemplate,
    concept,
    table: NameEmbeddingTable,
    frozen_names: bool = False,
) -> RenderedPrompt:
    """Fill the template's name slot for one concept.

    In-vocabulary concepts always use their frozen name token.  OOV concepts
    use their row of the name table, unless ``frozen_names`` forces the
    frozen (blind) token, e.g. for the no-name-learning baseline.
    """
    name_token, name_row = concept.name_token, None
    if concept.split == "ood" and not frozen_names:
        name_token, name_row = None, table.row(concept.id)
    return RenderedPrompt(
        concept.id, template.template_id, template.tokens, name_token, name_row
    )


def context_exchange_augment(
    concept, templates: list[PromptTemplate], k: int, seed: int
) -> list[str]:
    """The ids of one native template plus ``k`` foreign-family ones, seeded,
    native first.

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
    foreign = rng.choice(len(foreign_pool), size=k, replace=False)
    return [native.template_id] + [foreign_pool[int(i)].template_id for i in foreign]


class NameAgent:
    """Bus-facing wrapper: renders the batch's prompts and ships their pooled
    embeddings, one row per image-prompt pair, to the text agent.

    The frozen text encoder mean-pools token embeddings before anything else,
    so a prompt's pooled embedding is a frozen part (its vocabulary rows) plus
    at most one name-table row, each weighted by one over the template length
    (the slot holds one token or one row).  With ``frozen_names`` set
    (baseline / no-name-learning arm) every rendering uses the concept's
    frozen token instead.
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
            length = len(rendered.prompt_tokens)
            selection = np.zeros(self.table.weight.shape[0])
            if rendered.name_row is not None:
                selection[rendered.name_row] = 1.0 / length
            frozen = self.vocab[ids].sum(axis=0) / length
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
# table's rows as raw little-endian float64, row-major, in header order, and
# nothing after them.  The header lists each concept with its vector count,
# which is always 1.

def save_name_table(table: NameEmbeddingTable, path, world_seed: int) -> None:
    header = {
        "embed_dim": table.weight.shape[1],
        "world_seed": int(world_seed),
        "concepts": [{"id": cid, "n_vectors": 1} for cid in table.concept_ids],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(table.weight.data.astype("<f8").tobytes())


def load_name_table(path) -> tuple[NameEmbeddingTable, int]:
    header, values = read_framed(
        path,
        CHECKPOINT_MAGIC,
        "name-embedding checkpoint",
        lambda h: len(h["concepts"]) * h["embed_dim"],
    )
    if any(entry["n_vectors"] != 1 for entry in header["concepts"]):
        raise ValueError(f"{path}: every concept must have exactly one name vector")
    ids = [entry["id"] for entry in header["concepts"]]
    table = NameEmbeddingTable(ids, values.reshape(len(ids), header["embed_dim"]))
    return table, header["world_seed"]


def read_framed(path, magic: bytes, kind: str, n_floats) -> tuple[dict, np.ndarray]:
    """Header and float64 payload of a magic, uint32-LE length, JSON header file.

    ``n_floats(header)`` is the payload's length in floats; a file of any other
    length, cut in its header or not, raises ``ValueError`` naming ``path``.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(magic):
        raise ValueError(f"{path}: not a {kind}")
    off = len(magic) + 4
    # A file cut inside the length field is shorter than ``off``: caught below.
    hlen = int.from_bytes(raw[len(magic) : off], "little")
    if len(raw) < off + hlen:
        raise ValueError(f"{path}: file ends inside its header ({len(raw)} bytes)")
    header = json.loads(raw[off : off + hlen])
    off += hlen
    expected = off + 8 * n_floats(header)
    if len(raw) != expected:
        raise ValueError(f"{path}: {len(raw)} bytes, header and arrays need {expected}")
    return header, np.frombuffer(raw, dtype="<f8", offset=off).copy()
