"""Learnable name embeddings and prompt generation for new concepts.

Each concept whose name is missing from the frozen vocabulary gets one
trainable vector, a row of a fixed name table, that is spliced into prompt
templates in place of the name token.  Template banks are organized by
concept family so that a concept's name can also be rendered inside templates
authored for *other* families (context exchange), multiplying its training
views.  Each round ``NameAgent.step`` receives nothing and returns one
payload, ``prompts``, for the text agent: the frozen block the session
prepared for the batch, plus the live name table's rows.  An agent
without a name table (the ``disable_name_agent`` arm) renders every name
with its frozen token.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

NAME_SLOT = -1
SHARED_AFFINITY = "shared"
# Native templates per family, and the canonical template's filler words
# before its name slot: fixed, since no world varies them.
TEMPLATES_PER_FAMILY = 8
CANONICAL_TOKENS = (0, 1, 2, 3)

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
) -> tuple[PromptTemplate, list[PromptTemplate]]:
    """Shared canonical template plus ``TEMPLATES_PER_FAMILY`` native
    templates for each family.

    Template bodies are sequences of filler-word ids below ``filler_pool``
    with the name slot at a random position.
    """
    canonical = PromptTemplate(
        "shared_0", CANONICAL_TOKENS + (NAME_SLOT,), SHARED_AFFINITY
    )
    bank: list[PromptTemplate] = []
    for family in families:
        for i in range(TEMPLATES_PER_FAMILY):
            length = int(rng.integers(3, 8))
            body = [int(t) for t in rng.integers(0, filler_pool, size=length)]
            body.insert(int(rng.integers(0, length + 1)), NAME_SLOT)
            bank.append(PromptTemplate(f"{family}_{i}", tuple(body), family))
    return canonical, bank


class NameRows(dict):
    """Held-out concept id -> row, rows in ascending id: a concept's row of
    the name table and its column in the classification head.  Looking up
    any other id raises ``MissingNameEmbeddingError``."""

    def __init__(self, concept_ids):
        ids = [int(cid) for cid in concept_ids]
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError(f"concept ids must be strictly ascending, got {ids}")
        super().__init__((cid, row) for row, cid in enumerate(ids))

    def __missing__(self, concept_id):
        raise MissingNameEmbeddingError(f"no name embedding for concept {concept_id}")


class NameEmbeddingTable:
    """Learnable name vectors of the held-out concepts, as one ``(n, D)``
    tensor whose rows follow ``NameRows(concept_ids)``.  In-vocabulary names
    stay on the frozen token table.
    """

    def __init__(self, concept_ids, values: np.ndarray):
        self.index = NameRows(concept_ids)
        self.concept_ids = list(self.index)
        values = np.array(values, dtype=np.float64)
        if values.ndim != 2 or len(values) != len(self.concept_ids):
            raise ValueError(
                f"need ({len(self.concept_ids)}, D) name vectors, got shape {values.shape}"
            )
        self.weight = Tensor(values, requires_grad=True, name="name_embed")


@dataclass
class RenderedPrompt:
    """A template with the name slot filled, ready for pooling.

    The slot holds either a frozen ``name_token`` (in-vocabulary names, or the
    blind token) or the learnable ``name_row`` of the name table (held-out
    names); exactly one of the two is set.  ``frozen_token_ids`` lists every
    vocabulary id the rendering embeds (used to audit name masking); table
    rows are never among them.
    """

    prompt_tokens: tuple[int, ...]
    name_token: int | None
    name_row: int | None

    @property
    def frozen_token_ids(self) -> tuple[int, ...]:
        body = tuple(t for t in self.prompt_tokens if t != NAME_SLOT)
        return body if self.name_token is None else body + (self.name_token,)


def render_prompt(
    template: PromptTemplate, concept, table: NameEmbeddingTable | None
) -> RenderedPrompt:
    """Fill the template's name slot for one concept.

    In-vocabulary concepts always use their frozen name token.  OOV concepts
    use their row of the name table or, with no table (the no-name-learning
    baseline), their frozen (blind) token.
    """
    name_token, name_row = concept.name_token, None
    if concept.split == "ood" and table is not None:
        name_token, name_row = None, table.index[concept.id]
    return RenderedPrompt(template.tokens, name_token, name_row)


def pool_frozen_tokens(rendered: RenderedPrompt, vocab: np.ndarray) -> np.ndarray:
    """The frozen part of a rendering's mean-pooled embedding: its vocabulary
    rows summed, over the template length.  With a frozen name this is the
    whole pooled embedding; a name-table row adds its own share."""
    ids = list(rendered.frozen_token_ids)
    for tok in ids:
        if not 0 <= tok < len(vocab):
            raise UnknownTokenError(f"token id {tok!r} outside vocabulary")
    return vocab[ids].sum(axis=0) / len(rendered.prompt_tokens)


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
    embeddings, one row per distinct prompt (``batch.prompts``, not one per
    image-prompt pair), to the text agent.

    The frozen text encoder mean-pools token embeddings before anything else,
    so a prompt's pooled embedding is a frozen part (its vocabulary rows) plus
    at most one name-table row, each weighted by one over the template length
    (the slot holds one token or one row).  ``block`` stacks a batch's
    frozen parts and its selection of table rows once, when the session
    builds it, so a round costs one ``matmul`` and one ``add`` against the
    live table.  With no table (the no-name-learning arm) every rendering
    uses the concept's frozen token, and a block is its frozen rows alone.
    """

    agent_id = "Name"

    def __init__(
        self,
        concepts_by_id: dict,
        templates: list[PromptTemplate],
        canonical: PromptTemplate,
        table: NameEmbeddingTable | None,
        vocab: np.ndarray,
    ):
        self.concepts = concepts_by_id
        self.templates = {t.template_id: t for t in templates}
        self.templates[canonical.template_id] = canonical
        self.table = table
        self.vocab = vocab

    def parameters(self) -> list[Tensor]:
        """The name table, if the agent has one."""
        return [] if self.table is None else [self.table.weight]

    def render(self, concept_id: int, template_id: str) -> RenderedPrompt:
        template = self.templates[template_id]
        concept = self.concepts[concept_id]
        return render_prompt(template, concept, self.table)

    def block(self, pairs: list[tuple[int, str]]) -> tuple[Tensor, Tensor | None]:
        """The frozen pooled rows ``(U, D)`` of one prompt list and their
        weights ``(U, n_ood)`` over the table rows (``None`` when no prompt
        selects a row, or there is no table), rendered and validated: the
        table's values change, its row layout does not, so the selection is
        kept, not applied."""
        frozen = np.zeros((len(pairs), self.vocab.shape[1]))
        selection = None if self.table is None else np.zeros((len(pairs), len(self.table.index)))
        for i, pair in enumerate(pairs):
            rendered = self.render(*pair)
            frozen[i] = pool_frozen_tokens(rendered, self.vocab)
            if rendered.name_row is not None:
                selection[i, rendered.name_row] = 1.0 / len(rendered.prompt_tokens)
        frozen.flags.writeable = False
        if selection is None or not selection.any():
            return Tensor(frozen), None
        selection.flags.writeable = False
        return Tensor(frozen), Tensor(selection)

    def pooled(self, block: tuple[Tensor, Tensor | None]) -> Tensor:
        """A block's pooled embeddings against the live name table."""
        frozen, selection = block
        if selection is None:
            return frozen
        return ad.add(frozen, ad.matmul(selection, self.table.weight))

    def pool(self, pairs: list[tuple[int, str]]) -> Tensor:
        """Pooled prompt embeddings ``(N, D)``, one row per (concept id,
        template id) pair."""
        return self.pooled(self.block(pairs))

    def step(self, inbox, batch) -> dict[str, Tensor]:
        return {"prompts": self.pooled(batch.run[self])}


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
    """The table and world seed of a checkpoint; ``ValueError`` names ``path``
    if the file is not one, is cut or runs long, or its header lacks a field
    or holds a number that is not a JSON integer >= 0."""
    raw = Path(path).read_bytes()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a name-embedding checkpoint")
    off = len(CHECKPOINT_MAGIC) + 4
    # A file cut inside the length field is shorter than ``off``: caught below.
    hlen = int.from_bytes(raw[len(CHECKPOINT_MAGIC) : off], "little")
    if len(raw) < off + hlen:
        raise ValueError(f"{path}: file ends inside its header ({len(raw)} bytes)")
    try:
        header = json.loads(raw[off : off + hlen])
        dim, world_seed = header["embed_dim"], header["world_seed"]
        ids = [entry["id"] for entry in header["concepts"]]
        blocks = [entry["n_vectors"] for entry in header["concepts"]]
        # JSON integers only: a bool is an int to Python, and int() would
        # truncate a float or parse a string.
        if any(type(n) is not int or n < 0 for n in (dim, world_seed, *ids, *blocks)):
            raise TypeError
    except (ValueError, KeyError, TypeError):
        raise ValueError(
            f"{path}: header is not an object with embed_dim, world_seed and "
            "concepts, each concept with id and n_vectors, all integers >= 0"
        ) from None
    off += hlen
    expected = off + 8 * len(ids) * dim
    if len(raw) != expected:
        raise ValueError(f"{path}: {len(raw)} bytes, header and rows need {expected}")
    if any(n != 1 for n in blocks):
        raise ValueError(f"{path}: every concept must have exactly one name vector")
    try:
        values = np.frombuffer(raw, dtype="<f8", offset=off).reshape(len(ids), dim)
        table = NameEmbeddingTable(ids, values)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return table, world_seed
