"""Structured message passing between the four cooperating agents.

One bus per training session, single-threaded within a round.  A round is
five messages, each with a reader: the image agent's visual context (to the
text agent), its batch features and ``{difficulty, strategy}`` metadata (to
the coordinator), the name agent's pooled prompts (to the text agent) and the
text agent's features (to the coordinator).  Delivery is FIFO per (sender,
receiver) pair.  Every send is appended to a log that keeps, per message,
what ``serialize_log`` writes: a feature payload's shape and first four
values, or the metadata keys.  ``run_round`` empties the log when a round
starts, so it holds the current round only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Protocol, runtime_checkable

import numpy as np

from .autodiff import Tensor


class AgentId(Enum):
    IMAGE = "Image"
    TEXT = "Text"
    NAME = "Name"
    COORDINATOR = "Coordinator"


ROUND_ORDER = (AgentId.IMAGE, AgentId.NAME, AgentId.TEXT, AgentId.COORDINATOR)


class SelfSendError(ValueError):
    """An agent addressed a message to itself."""


class UnregisteredAgentError(RuntimeError):
    """run_round needs all four agents registered."""


class MailboxError(TypeError):
    """An agent received content it has no schema for; names the message."""


class EmptyBatchError(ValueError):
    """A round was started on a zero-sample batch."""


class ProtocolError(RuntimeError):
    """A round ended with undelivered messages."""


@dataclass(frozen=True)
class FeatureBlock:
    """A tensor payload plus a semantic label (e.g. 'visual_context')."""

    tensor: Tensor
    label: str


@dataclass(frozen=True)
class Metadata:
    entries: dict


Content = FeatureBlock | Metadata


def content_tag(content: Content) -> str:
    if isinstance(content, FeatureBlock):
        return "feature"
    if isinstance(content, Metadata):
        return "metadata"
    raise MailboxError(f"unknown content type {type(content).__name__}")


@dataclass(frozen=True)
class Message:
    sender: AgentId
    receiver: AgentId
    content: Content

    def __post_init__(self):
        if self.sender == self.receiver:
            raise SelfSendError(f"{self.sender.value} cannot message itself")


# Values kept per feature payload in the log: the shape and this many leading
# values (row-major), exactly what ``LogRecord.summary`` reports.
LOG_VALUES = 4


@dataclass(frozen=True)
class LogRecord:
    """One delivered message; feature payloads keep only a short summary."""

    round_index: int
    sender: AgentId
    receiver: AgentId
    tag: str
    label: str | None = None
    shape: tuple[int, ...] | None = None
    values: np.ndarray | None = None  # the first LOG_VALUES values
    metadata: dict | None = None

    def summary(self) -> dict:
        if self.tag == "feature":
            payload = {
                "shape": list(self.shape),
                "first": [float(v) for v in self.values],
            }
        else:
            payload = {"keys": sorted(self.metadata)}
        return {
            "round": self.round_index,
            "sender": self.sender.value,
            "receiver": self.receiver.value,
            "content_tag": self.tag,
            "payload_summary": payload,
        }


@runtime_checkable
class Agent(Protocol):
    agent_id: AgentId

    def step(self, messages: list[Message], batch) -> list[Message]:
        ...


class MessageBus:
    """FIFO mailboxes, registration, and the log."""

    def __init__(self):
        self.mailboxes: dict[AgentId, list[Message]] = {a: [] for a in AgentId}
        self.agents: dict[AgentId, Agent] = {}
        self.log: list[LogRecord] = []
        self.round_index = 0

    def register(self, agent: Agent) -> None:
        self.agents[agent.agent_id] = agent

    def send(self, msg: Message) -> None:
        if msg.sender == msg.receiver:
            raise SelfSendError(f"{msg.sender.value} cannot message itself")
        self.mailboxes[msg.receiver].append(msg)
        self.log.append(self._record(msg))

    def drain(self, agent_id: AgentId) -> list[Message]:
        out = self.mailboxes[agent_id]
        self.mailboxes[agent_id] = []
        return out

    def _record(self, msg: Message) -> LogRecord:
        c = msg.content
        tag = content_tag(c)
        feature = tag == "feature"
        return LogRecord(
            round_index=self.round_index,
            sender=msg.sender,
            receiver=msg.receiver,
            tag=tag,
            label=c.label if feature else None,
            shape=c.tensor.shape if feature else None,
            values=c.tensor.data.reshape(-1)[:LOG_VALUES].copy() if feature else None,
            metadata=dict(c.entries) if tag == "metadata" else None,
        )

    def serialize_log(self, path) -> None:
        """Line-delimited JSON: one record per delivered message."""
        with open(path, "w") as fh:
            for rec in self.log:
                fh.write(json.dumps(rec.summary(), sort_keys=True) + "\n")


def run_round(bus: MessageBus, batch):
    """One fixed-schedule round: Image, Name, Text, then Coordinator.

    Returns the coordinator's ``CoordinatorRound``; every mailbox must be
    empty when the round ends.  The bus log keeps this round's messages only.
    """
    missing = [a.value for a in AgentId if a not in bus.agents]
    if missing:
        raise UnregisteredAgentError(f"agents not registered: {missing}")
    if batch.size == 0:
        raise EmptyBatchError("round started on an empty batch")
    bus.round_index += 1
    bus.log.clear()
    for agent_id in ROUND_ORDER:
        for msg in bus.agents[agent_id].step(bus.drain(agent_id), batch):
            bus.send(msg)
    stuck = {a.value: len(m) for a, m in bus.mailboxes.items() if m}
    if stuck:
        raise ProtocolError(f"mailboxes not empty at round end: {stuck}")
    return bus.agents[AgentId.COORDINATOR].last_round
