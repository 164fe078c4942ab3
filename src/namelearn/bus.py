"""Structured message passing between the four cooperating agents.

One bus per training session, single-threaded within a round.  A round is
five messages, each with a reader: the image agent's visual context (to the
text agent), its batch features and ``{difficulty, strategy}`` metadata (to
the coordinator), the name agent's pooled prompts (to the text agent) and the
text agent's features (to the coordinator).  Delivery is FIFO per (sender,
receiver) pair.  Every send is appended to a log that keeps, per message,
what ``serialize_log`` writes: a feature payload's shape and first four
values, or the metadata keys.  A ``LogRecord`` is an immutable named tuple,
built positionally with one type test per message.  ``run_round`` empties the
log when a round starts, so it holds the current round only.

A round's fixed cost is Python-level calls, not arithmetic: ``AgentId``
hashes by identity in C, and ``run_round`` checks registration and leftover
mail with one C-level test each, building an error message only once a check
has failed.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Protocol, runtime_checkable

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
_ALL_AGENTS = frozenset(AgentId)


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
    entries: Mapping


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


class LogRecord(NamedTuple):
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
        self.mailboxes[msg.receiver].append(msg)
        self.log.append(self._record(msg))

    def drain(self, agent_id: AgentId) -> list[Message]:
        out = self.mailboxes[agent_id]
        self.mailboxes[agent_id] = []
        return out

    def _record(self, msg: Message) -> LogRecord:
        c = msg.content
        if isinstance(c, FeatureBlock):
            data = c.tensor.data
            return LogRecord(
                self.round_index,
                msg.sender,
                msg.receiver,
                "feature",
                c.label,
                data.shape,
                data.flat[:LOG_VALUES],  # a copy, in row-major order
            )
        # content_tag rejects a payload that is neither kind.
        tag = content_tag(c)
        return LogRecord(
            self.round_index, msg.sender, msg.receiver, tag, metadata=dict(c.entries)
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
    agents = bus.agents
    if not agents.keys() >= _ALL_AGENTS:
        missing = [a.value for a in AgentId if a not in agents]
        raise UnregisteredAgentError(f"agents not registered: {missing}")
    if batch.size == 0:
        raise EmptyBatchError("round started on an empty batch")
    bus.round_index += 1
    bus.log.clear()
    for agent_id in ROUND_ORDER:
        for msg in agents[agent_id].step(bus.drain(agent_id), batch):
            bus.send(msg)
    if any(bus.mailboxes.values()):
        stuck = {a.value: len(m) for a, m in bus.mailboxes.items() if m}
        raise ProtocolError(f"mailboxes not empty at round end: {stuck}")
    return agents[AgentId.COORDINATOR].last_round
