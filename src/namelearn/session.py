"""One training session: four agents, a bus, an optimizer, and a world.

The session owns everything learnable (name embeddings, context fusion,
coordinator scalars and head; each held-out name starts as one vector at the
mean of the frozen vocabulary rows, the reserved blind row excluded), builds
per-epoch batches of image-prompt pairs with template rotation, runs
fixed-schedule bus rounds under a gradient tape, and evaluates by cosine
retrieval against per-class text features.  The coordinator agent ends each
round: it requires the image features, the ``{difficulty, strategy}``
metadata and the text features, computes the loss, and sends nothing.  The
image agent's difficulty scorer is fixed: the loss has no path back to it.
The image and text agents and the coordinator read the session's
``SessionSettings`` record as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, backward
from .bus import (
    AgentId,
    FeatureBlock,
    MailboxError,
    Message,
    MessageBus,
    Metadata,
    run_round,
)
from .coordinator import Adam, CoordinatorParams, LossBreakdown, total_loss
from .image_agent import ImageAgent
from .name_agent import NameAgent, NameEmbeddingTable, context_exchange_augment
from .settings import SessionSettings
from .text_agent import TextAgent
from .world import World

# Foreign-family templates each held-out concept borrows (context exchange).
EXCHANGE_K = 2


class TrainingDivergedError(RuntimeError):
    """The loss left the finite range; the cell should be marked failed."""


@dataclass
class Batch:
    """One full-batch training round: image-prompt pairs plus the plan
    mapping each pair to its rendered prompt."""

    images: np.ndarray  # (N, P)
    concept_ids: np.ndarray  # (N,) world concept ids
    class_labels: np.ndarray  # (N,) classification-head indices
    prompt_plan: list[tuple[int, str]]  # per pair: (concept_id, template_id)

    @property
    def size(self) -> int:
        return len(self.images)

    @property
    def match_index(self) -> np.ndarray:
        return np.arange(self.size)


@dataclass
class CoordinatorRound:
    """What the coordinator collected and computed in one round."""

    image_features: Tensor
    text_features: Tensor  # (N, D), one row per pair in prompt_plan order
    difficulty: float
    strategy: str
    total: Tensor
    breakdown: LossBreakdown


class CoordinatorAgent:
    agent_id = AgentId.COORDINATOR

    def __init__(self, params: CoordinatorParams, settings: SessionSettings):
        self.params = params
        self.settings = settings
        self.last_round: CoordinatorRound | None = None

    def step(self, messages, batch: Batch) -> list[Message]:
        image_features: Tensor | None = None
        text_features: Tensor | None = None
        metadata: dict | None = None
        for msg in messages:
            c = msg.content
            if isinstance(c, Metadata):
                metadata = c.entries
            elif isinstance(c, FeatureBlock) and c.label == "image_features":
                image_features = c.tensor
            elif isinstance(c, FeatureBlock) and c.label == "text_features":
                text_features = c.tensor
            else:
                raise MailboxError(f"coordinator cannot handle {msg}")
        if image_features is None or text_features is None or metadata is None:
            raise MailboxError(
                "coordinator round ended without image features, text features or metadata"
            )
        total, breakdown = total_loss(
            image_features,
            text_features,
            batch.match_index,
            batch.class_labels,
            self.params,
            self.settings,
        )
        self.last_round = CoordinatorRound(
            image_features,
            text_features,
            float(metadata["difficulty"]),
            metadata["strategy"],
            total,
            breakdown,
        )
        return []


@dataclass
class StepRecord:
    step: int
    breakdown: LossBreakdown
    lr: float


class TrainingSession:
    """Owns the agents, their learnables, and the train/evaluate loops."""

    def __init__(self, world: World, settings: SessionSettings = SessionSettings(), seed: int = 0):
        self.world = world
        self.settings = settings
        self.seed = seed
        ss = np.random.SeedSequence([seed, world.config.seed, 0xA6E57])
        # The first stream is unused; it stays spawned so the others keep
        # their seeds.
        _, difficulty_rng, fusion_rng, exchange_ss = ss.spawn(4)

        self.table = NameEmbeddingTable(world.config.embed_dim)
        if not settings.disable_name_agent:
            mean = np.delete(world.vocab, world.oov_token, axis=0).mean(axis=0)
            for cid in world.ood_ids:
                self.table.add(cid, mean[None, :])

        self.image_agent = ImageAgent(
            world.gen_map, settings, np.random.default_rng(difficulty_rng)
        )
        self.text_agent = TextAgent(
            (world.mixer_in, world.mixer_in_bias, world.mixer_out, world.mixer_out_bias),
            settings,
            np.random.default_rng(fusion_rng),
        )
        self.name_agent = NameAgent(
            {c.id: c for c in world.concepts},
            world.templates,
            world.canonical_template,
            self.table,
            world.vocab,
            frozen_names=settings.disable_name_agent,
        )
        self.coordinator_params = CoordinatorParams(
            world.config.embed_dim, len(world.ood_ids)
        )
        self.coordinator = CoordinatorAgent(self.coordinator_params, settings)

        self.bus = MessageBus()
        for agent in (self.image_agent, self.name_agent, self.text_agent, self.coordinator):
            self.bus.register(agent)

        self.ood_index = {cid: i for i, cid in enumerate(world.ood_ids)}
        self.prompt_pools = self._build_prompt_pools(exchange_ss)
        self.step_records: list[StepRecord] = []

    # -- setup ----------------------------------------------------------------

    def _build_prompt_pools(self, exchange_ss) -> dict[int, list[str]]:
        """Per-concept rotation of template ids: the native template, then the
        ``EXCHANGE_K`` exchanged ones (none with context exchange disabled)."""
        k = 0 if self.settings.disable_context_exchange else EXCHANGE_K
        exchange_seed = int(exchange_ss.generate_state(1)[0])
        return {
            cid: context_exchange_augment(
                self.world.concept(cid), self.world.templates, k, seed=exchange_seed
            )
            for cid in self.world.ood_ids
        }

    def trainable_parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        if not self.settings.disable_name_agent:
            params += self.table.parameters()
        if not self.settings.disable_text_context:
            params += self.text_agent.parameters()
        params += self.coordinator_params.parameters(self.settings)
        return params

    # -- training ----------------------------------------------------------------

    def build_batch(self, shots_by_class: dict[int, np.ndarray], epoch: int) -> Batch:
        images, concept_ids, labels, plan = [], [], [], []
        for cid in sorted(shots_by_class):
            pool = self.prompt_pools[cid]
            for j, image in enumerate(shots_by_class[cid]):
                images.append(image)
                concept_ids.append(cid)
                labels.append(self.ood_index[cid])
                plan.append((cid, pool[(j + epoch) % len(pool)]))
        return Batch(
            images=np.stack(images),
            concept_ids=np.asarray(concept_ids),
            class_labels=np.asarray(labels),
            prompt_plan=plan,
        )

    def train_step(self, batch: Batch, optimizer: Adam, lr: float) -> LossBreakdown:
        with Tape() as tape:
            round_info = run_round(self.bus, batch)
        total = round_info.total
        if not np.isfinite(total.data):
            raise TrainingDivergedError(f"loss became {float(total.data)!r}")
        backward(tape, total)
        optimizer.step()
        optimizer.zero_grad()
        record = StepRecord(len(self.step_records) + 1, round_info.breakdown, lr)
        self.step_records.append(record)
        return round_info.breakdown

    def train(
        self, shots_by_class: dict[int, np.ndarray], epochs: int, lr: float
    ) -> list[LossBreakdown]:
        optimizer = Adam(self.trainable_parameters(), lr)
        history = []
        for epoch in range(epochs):
            batch = self.build_batch(shots_by_class, epoch)
            history.append(self.train_step(batch, optimizer, lr))
        return history

    def training_token_audit(self) -> set[int]:
        """Every frozen vocabulary id the training prompts embed; empty before
        the first training step.  Batches draw their prompts from the fixed
        per-concept pools, so the pools bound what training can render."""
        ids: set[int] = set()
        if not self.step_records:
            return ids
        for cid, pool in self.prompt_pools.items():
            for tid in pool:
                ids.update(self.name_agent.render(cid, tid).frozen_token_ids)
        return ids

    def write_step_log(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("step,l_con,l_cls,w_con,w_cls,tau,total,lr\n")
            for rec in self.step_records:
                b = rec.breakdown
                fh.write(
                    f"{rec.step},{b.l_con:.9g},{b.l_cls:.9g},{b.w_con:.9g},"
                    f"{b.w_cls:.9g},{b.tau:.9g},{b.total:.9g},{rec.lr:.9g}\n"
                )

    # -- evaluation ----------------------------------------------------------------

    def class_text_features(self, class_ids: list[int], context: Tensor) -> np.ndarray:
        """Per-class text features from the canonical prompt, encoded the way
        training rounds encode: trained name embeddings, then the text agent
        with this visual context."""
        template_id = self.world.canonical_template.template_id
        pooled = self.name_agent.pool([(cid, template_id) for cid in class_ids])
        return self.text_agent.encode(pooled, context).data

    def evaluate(
        self, images: np.ndarray, labels: np.ndarray, class_ids: list[int]
    ) -> dict[str, float]:
        """Cosine-retrieval accuracy over a label space, reported per split."""
        feats = self.image_agent.encode(images)[0]
        text = self.class_text_features(class_ids, ImageAgent.emit_visual_context(feats))
        fn = feats.data / np.linalg.norm(feats.data, axis=1, keepdims=True)
        tn = text / np.linalg.norm(text, axis=1, keepdims=True)
        pred = np.asarray(class_ids)[np.argmax(fn @ tn.T, axis=1)]
        correct = pred == labels
        split_of = {c.id: c.split for c in self.world.concepts}
        is_seen = np.asarray([split_of[int(y)] == "seen" for y in labels])
        out = {"overall": float(np.mean(correct))}
        if np.any(is_seen):
            out["seen"] = float(np.mean(correct[is_seen]))
        if np.any(~is_seen):
            out["ood"] = float(np.mean(correct[~is_seen]))
        return out
