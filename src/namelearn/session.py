"""One training session: four agents, a bus, an optimizer, and a world.

The session owns the learnables its arm trains (name embeddings, context
fusion, coordinator scalars and head) and hands them to the optimizer: every
tensor Adam holds gets a gradient each round.  An arm builds nothing its
rounds never read.  ``class_rows`` maps each held-out concept, in ascending
id, to its class index; the name table, built only where names learn (not
under ``disable_name_agent``), follows that map, each row starting at the
mean of the frozen vocabulary rows, the reserved blind row excluded.  Nothing
on the image side learns, so ``prepare_shots`` prepares a run's image side
once (pair order, image payloads, unit image rows, checked labels) and
``train`` keeps it as ``shots`` until the next run.  ``build_batch`` adds an
epoch's prompt side (the rotated plan, each distinct prompt once, the name
agent's frozen block, the checked matches) into ``batch.run``, which every
round on it reads; a run builds each distinct batch once, as the rotation
repeats every few epochs, and a round raises ``bus.UnpreparedBatchError`` on
a batch another session built, or none.  It runs fixed-schedule bus rounds
under a gradient tape and returns each step's loss breakdown; it keeps no
per-step history, so its memory does not grow with epochs (``write_step_log``
writes a returned history).  It evaluates by cosine retrieval: the test
images go through ``ImageAgent.prepare``, as training shots do, and are
scored against per-class text features through the coordinator's
``nearest_class``, by ``similarity_matrix`` as training rounds are.  Its bus
is built from its four agents.  The coordinator agent ends each round: its
inbox holds the ``image_features`` and the ``text_features`` (one row per
distinct prompt), as ``bus.ROUND_SCHEMA`` routes them; it computes the loss,
one tape entry, over images against distinct prompts and returns
``total_loss``'s ``(total, breakdown)`` pair.  The image agent's difficulty
scorer is fixed, as the loss has no path back to it, and not built under
``disable_difficulty``.  The image and text agents and ``CoordinatorParams``
read the session's ``SessionSettings`` record as it is, when built; the
session itself reads only ``disable_name_agent`` (when built) and
``disable_context_exchange`` (for the prompt pools).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .autodiff import Labels, Tape, Tensor, backward, check_labels, unit_rows
from .bus import EmptyBatchError, MessageBus, PreparedRun, run_round
from .coordinator import Adam, CoordinatorParams, LossBreakdown, check_matches
from .coordinator import distinct_rows, nearest_class, total_loss
from .image_agent import ImageAgent
from .name_agent import NameAgent, NameEmbeddingTable, NameRows, context_exchange_augment
from .settings import SessionSettings
from .text_agent import TextAgent
from .world import World, check_split_labels

# Foreign-family templates each held-out concept borrows (context exchange).
EXCHANGE_K = 2


class TrainingDivergedError(RuntimeError):
    """The loss left the finite range; the cell should be marked failed."""


class PreparedShots(NamedTuple):
    """A training run's image side, which every batch built from it shares."""

    pairs: list[tuple[int, int]]  # per pair: (concept_id, shot index), ascending id
    image: Mapping[str, Tensor]  # the image agent's payloads
    img_rows: tuple[np.ndarray, np.ndarray]  # unit image rows (N, D), norms (N, 1)
    labels: Labels  # checked classification-head indices


@dataclass
class Batch:
    """One full-batch training round: the plan mapping each image-prompt
    pair to its rendered prompt.

    ``prompts`` holds the plan's distinct pairs in first-use order, and
    ``prompt_index[i]`` is pair i's row in it: a round encodes and scores each
    distinct prompt once."""

    prompt_plan: list[tuple[int, str]]  # per pair: (concept_id, template_id)
    prompts: list[tuple[int, str]] = field(init=False)  # (U,) distinct pairs
    prompt_index: np.ndarray = field(init=False)  # (N,) pair -> row of prompts
    # What the session's agents prepared for the batch; every round reads it.
    run: PreparedRun = field(default_factory=PreparedRun, init=False, repr=False)

    def __post_init__(self):
        rows: dict[tuple[int, str], int] = {}
        index = [rows.setdefault(pair, len(rows)) for pair in self.prompt_plan]
        self.prompts = list(rows)
        self.prompt_index = np.asarray(index, dtype=np.intp)

    @property
    def size(self) -> int:
        return len(self.prompt_plan)


class CoordinatorAgent:
    agent_id = "Coordinator"

    def __init__(self, params: CoordinatorParams):
        self.params = params

    def step(self, inbox: dict[str, Tensor], batch: Batch) -> tuple[Tensor, LossBreakdown]:
        image_features, text_features = inbox["image_features"], inbox["text_features"]
        return total_loss(image_features, text_features, *batch.run[self], self.params)


class TrainingSession:
    """Owns the agents, their learnables, and the train/evaluate loops."""

    def __init__(self, world: World, settings: SessionSettings = SessionSettings(), seed: int = 0):
        self.world = world
        self.settings = settings
        ss = np.random.SeedSequence([seed, world.config.seed, 0xA6E57])
        # The first stream is unused; it stays spawned so the others keep
        # their seeds.
        _, difficulty_rng, fusion_rng, exchange_ss = ss.spawn(4)

        self.class_rows = NameRows(world.ood_ids)
        self.table = None  # no name learns under disable_name_agent
        if not settings.disable_name_agent:
            mean = np.delete(world.vocab, world.oov_token, axis=0).mean(axis=0)
            values = np.tile(mean, (len(self.class_rows), 1))
            self.table = NameEmbeddingTable(self.class_rows, values)

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
        )
        self.coordinator_params = CoordinatorParams(
            world.config.embed_dim, len(world.ood_ids), settings
        )
        self.coordinator = CoordinatorAgent(self.coordinator_params)

        self.bus = MessageBus(self.image_agent, self.name_agent, self.text_agent, self.coordinator)

        self.prompt_pools = self._build_prompt_pools(exchange_ss)
        self.shots: PreparedShots | None = None  # the last training run's image side

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
        """Every learnable the arm trains: the name agent's, the text
        agent's, then the coordinator's."""
        return [
            *self.name_agent.parameters(),
            *self.text_agent.parameters(),
            *self.coordinator_params.parameters(),
        ]

    # -- training ----------------------------------------------------------------

    def prepare_shots(self, shots_by_class: dict[int, np.ndarray]) -> PreparedShots:
        """The shots' image side, in ascending concept id: ``EmptyBatchError``
        for no shots, ``MissingNameEmbeddingError`` for one not held out."""
        ids = sorted(shots_by_class)
        pairs = [(cid, j) for cid in ids for j in range(len(shots_by_class[cid]))]
        if not pairs:
            raise EmptyBatchError("no shots to train on")
        labels = [self.class_rows[cid] for cid, _ in pairs]
        image = self.image_agent.prepare(np.concatenate([shots_by_class[cid] for cid in ids]))
        img_rows = unit_rows(image["image_features"].data, "similarity_matrix")
        n_classes = self.coordinator_params.w_cls_head.shape[1]
        return PreparedShots(pairs, image, img_rows, check_labels(labels, (len(pairs), n_classes)))

    def build_batch(self, shots: PreparedShots, epoch: int) -> Batch:
        """Epoch ``epoch``'s batch over prepared shots, prepared: the prompt
        plan, the prompts' frozen block and the checked matches."""
        pools = self.prompt_pools
        batch = Batch([(cid, pools[cid][(j + epoch) % len(pools[cid])]) for cid, j in shots.pairs])
        matches = check_matches(batch.prompt_index, (batch.size, len(batch.prompts)))
        batch.run.update({
            self.image_agent: shots.image,
            self.name_agent: self.name_agent.block(batch.prompts),
            self.coordinator: (shots.img_rows, matches, shots.labels),
        })
        return batch

    def train_step(self, batch: Batch, optimizer: Adam) -> LossBreakdown:
        with Tape() as tape:
            total, breakdown = run_round(self.bus, batch)
        if not np.isfinite(total.data):
            raise TrainingDivergedError(f"loss became {float(total.data)!r}")
        backward(tape, total)
        optimizer.step()
        optimizer.zero_grad()
        return breakdown

    def train(
        self, shots_by_class: dict[int, np.ndarray], epochs: int, lr: float
    ) -> list[LossBreakdown]:
        """``epochs`` full-batch steps on the shots, prepared once as
        ``self.shots``; epoch e trains on ``build_batch(self.shots, e)``.  The
        rotation repeats after ``lcm`` of the prompt-pool lengths (3 with
        context exchange, 1 without), so only that many batches are built.
        Returns one breakdown per step; the session keeps none of them."""
        optimizer = Adam(self.trainable_parameters(), lr)
        self.shots = shots = self.prepare_shots(shots_by_class)
        period = math.lcm(*(len(self.prompt_pools[cid]) for cid in shots_by_class))
        batches = [self.build_batch(shots, e) for e in range(min(period, epochs))]
        return [self.train_step(batches[e % period], optimizer) for e in range(epochs)]

    def training_token_audit(self) -> set[int]:
        """Every frozen vocabulary id the training prompts can embed.  Batches
        draw their prompts from the fixed per-concept pools, so the pools bound
        what training renders."""
        ids: set[int] = set()
        for cid, pool in self.prompt_pools.items():
            for tid in pool:
                ids.update(self.name_agent.render(cid, tid).frozen_token_ids)
        return ids

    # -- evaluation ----------------------------------------------------------------

    def class_text_features(self, class_ids: list[int], context: Tensor | None) -> np.ndarray:
        """Per-class text features from the canonical prompt, encoded the way
        training rounds encode: trained name embeddings, then the text agent
        with this visual context (``None`` under ``disable_text_context``).
        Equal prompt rows are encoded once, so their classes tie exactly."""
        template_id = self.world.canonical_template.template_id
        pooled = self.name_agent.pool([(cid, template_id) for cid in class_ids]).data
        first, index = distinct_rows(pooled)
        return self.text_agent.encode(Tensor(pooled[first]), context).data[index]

    def evaluate(
        self, images: np.ndarray, labels: np.ndarray, class_ids: list[int]
    ) -> dict[str, float]:
        """Cosine-retrieval accuracy over a label space, ``"seen"`` and
        ``"ood"``, each where its split has images, scored through
        ``coordinator.nearest_class``."""
        check_split_labels(len(images), labels, class_ids)
        image = self.image_agent.prepare(images)
        text = self.class_text_features(class_ids, image["visual_context"])
        correct = np.asarray(class_ids)[nearest_class(image["image_features"].data, text)] == labels
        is_seen = np.isin(labels, self.world.seen_ids)
        out = {}
        if np.any(is_seen):
            out["seen"] = float(np.mean(correct[is_seen]))
        if np.any(~is_seen):
            out["ood"] = float(np.mean(correct[~is_seen]))
        return out


def write_step_log(path, history: list[LossBreakdown], lr: float) -> None:
    """One CSV row per step of a history that ``TrainingSession.train``
    returned, numbered from 1."""
    with open(path, "w") as fh:
        fh.write("step,l_con,l_cls,w_con,w_cls,tau,total,lr\n")
        for step, b in enumerate(history, start=1):
            fh.write(
                f"{step},{b.l_con:.9g},{b.l_cls:.9g},{b.w_con:.9g},"
                f"{b.w_cls:.9g},{b.tau:.9g},{b.total:.9g},{lr:.9g}\n"
            )
