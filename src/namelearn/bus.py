"""The four agents' fixed round: its schema, its schedule and its log.

One bus per training session, built from its four agents in ``ROUND_ORDER``
and single-threaded within a round.  A round is five labeled payloads, each
with one sender and one reader, and ``ROUND_SCHEMA`` is the one place that
says which: the image agent's visual context (to the text agent), its batch
features and ``{difficulty, strategy}`` metadata (to the coordinator), the
name agent's pooled prompts (to the text agent) and the text agent's features
(to the coordinator).  Each agent steps on a dict of the payloads addressed
to it.  A sender returns a dict, which ``run_round`` checks against the
schema before it delivers it; the coordinator returns its
``CoordinatorRound``, which ``run_round`` returns.  The bus holds the current
round's inboxes, its delivered payloads by reference; ``MessageBus.log``
builds from them, when read, one record per delivery, keyed by label, holding
what ``serialize_log`` writes: a feature payload's shape and first four values
(copied), or the metadata.

A round's fixed cost is Python-level calls, not arithmetic: ``AgentId``
hashes by identity in C, and each agent's labels are checked with one tuple
comparison, building an error message only once a check has failed.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from enum import Enum
from typing import NamedTuple, Protocol

import numpy as np

from .autodiff import Tensor


class AgentId(Enum):
    IMAGE = "Image"
    TEXT = "Text"
    NAME = "Name"
    COORDINATOR = "Coordinator"

    # Members are singletons compared by identity, so the identity hash agrees
    # with equality, and it runs in C instead of ``Enum.__hash__``.
    __hash__ = object.__hash__


ROUND_ORDER = (AgentId.IMAGE, AgentId.NAME, AgentId.TEXT, AgentId.COORDINATOR)

# Label -> (sender, receiver), in send order.  Every sender steps before its
# receiver in ROUND_ORDER, so each payload is read in the round that sends it.
# The metadata payload is a mapping, every other one a Tensor.
ROUND_SCHEMA = {
    "visual_context": (AgentId.IMAGE, AgentId.TEXT),
    "image_features": (AgentId.IMAGE, AgentId.COORDINATOR),
    "metadata": (AgentId.IMAGE, AgentId.COORDINATOR),
    "prompts": (AgentId.NAME, AgentId.TEXT),
    "text_features": (AgentId.TEXT, AgentId.COORDINATOR),
}

# Per sender, in ROUND_ORDER: the labels it sends, in send order.  The
# coordinator, last, sends nothing.
_SENDS = tuple(
    (agent, tuple(label for label, (sender, _) in ROUND_SCHEMA.items() if sender is agent))
    for agent in ROUND_ORDER[:-1]
)

Payload = Tensor | Mapping


class EmptyBatchError(ValueError):
    """A round was started on a zero-sample batch."""


class ProtocolError(RuntimeError):
    """An agent sent labels other than the ones the round schema gives it."""


class UnpreparedBatchError(RuntimeError):
    """A round ran on a batch that the agents' own session did not prepare."""


class PreparedRun(dict):
    """Agent -> what it computed once for a batch, which each round reads."""

    def __missing__(self, agent):
        raise UnpreparedBatchError(f"{agent.agent_id.value} agent: not its session's batch")


# Values kept per feature payload in the log: the shape and this many leading
# values (row-major), exactly what ``LogRecord.summary`` reports.
LOG_VALUES = 4


class LogRecord(NamedTuple):
    """One delivered payload, keyed by its label; a feature payload keeps
    only a short summary, the metadata payload its mapping."""

    label: str
    shape: tuple[int, ...] | None = None
    values: np.ndarray | None = None  # the first LOG_VALUES values
    metadata: dict | None = None

    @classmethod
    def of(cls, label: str, payload: Payload) -> "LogRecord":
        """A delivered payload's record; ``flat[:n]`` is a copy, in row-major order."""
        if label == "metadata":
            return cls(label, metadata=dict(payload))
        return cls(label, payload.data.shape, payload.data.flat[:LOG_VALUES])

    def summary(self, round_index: int) -> dict:
        sender, receiver = ROUND_SCHEMA[self.label]
        if self.metadata is None:
            tag, payload = "feature", {"shape": list(self.shape), "first": self.values.tolist()}
        else:
            tag, payload = "metadata", {"keys": sorted(self.metadata)}
        return {
            "round": round_index,
            "sender": sender.value,
            "receiver": receiver.value,
            "content_tag": tag,
            "payload_summary": payload,
        }


class Agent(Protocol):
    agent_id: AgentId

    def step(self, inbox: dict[str, Payload], batch): ...


class MessageBus:
    """The four agents in ``ROUND_ORDER``, the round count and the current
    round's log."""

    def __init__(self, *agents: Agent):
        given = [agent.agent_id.value for agent in agents]
        expected = [agent_id.value for agent_id in ROUND_ORDER]
        if given != expected:
            raise ValueError(f"a bus takes its agents in ROUND_ORDER {expected}, got {given}")
        self.agents = agents
        self.round_index = 0
        self._inboxes: dict[AgentId, dict[str, Payload]] = {agent: {} for agent in ROUND_ORDER}

    @property
    def log(self) -> list[LogRecord]:
        """One record per payload the current round's inboxes hold, in send
        order, built when read."""
        return [
            LogRecord.of(label, self._inboxes[receiver][label])
            for label, (_, receiver) in ROUND_SCHEMA.items()
            if label in self._inboxes[receiver]
        ]

    def serialize_log(self, path) -> None:
        """Line-delimited JSON: one record per delivered payload."""
        with open(path, "w") as fh:
            for rec in self.log:
                fh.write(json.dumps(rec.summary(self.round_index), sort_keys=True) + "\n")


def run_round(bus: MessageBus, batch):
    """One fixed-schedule round: Image, Name, Text, then Coordinator.

    Each sender steps on the payloads sent to it and must return exactly the
    labels ``ROUND_SCHEMA`` gives it, in schema order, or ``ProtocolError``
    names it.  Returns the coordinator's ``CoordinatorRound``.
    """
    if batch.size == 0:
        raise EmptyBatchError("round started on an empty batch")
    bus.round_index += 1
    inboxes = bus._inboxes = {agent_id: {} for agent_id in ROUND_ORDER}
    for agent, (agent_id, labels) in zip(bus.agents, _SENDS):
        sent = agent.step(inboxes[agent_id], batch)
        if tuple(sent) != labels:
            raise ProtocolError(
                f"{agent_id.value} sent {list(sent)}; the round schema gives it {list(labels)}"
            )
        for label in labels:
            inboxes[ROUND_SCHEMA[label][1]][label] = sent[label]
    return bus.agents[-1].step(inboxes[AgentId.COORDINATOR], batch)
