"""The four agents' fixed round: its schema, its schedule and its log.

One bus per training session, built from its four agents in ``ROUND_ORDER``
and single-threaded within a round.  A round is four labeled tensor payloads,
each with one sender and one reader, and ``ROUND_SCHEMA`` is the one place
that says which: the image agent's visual context (to the text agent) and its
batch features (to the coordinator), the name agent's pooled prompts (to the
text agent) and the text agent's features (to the coordinator).  Each agent
steps on a dict of the payloads addressed to it.  A sender returns a dict,
which ``run_round`` checks against the schema before it delivers it; the
coordinator returns its ``(total, breakdown)`` loss pair, which ``run_round``
returns.  The bus holds the current round's inboxes, its delivered payloads
by reference; ``MessageBus.log`` builds from them, when read, one record per
delivery, keyed by label, holding what ``serialize_log`` writes: the payload's
shape and first four values (copied).

Agents go by their names, the strings of ``ROUND_ORDER``.  A round's fixed
cost is Python-level calls, not arithmetic: each agent's labels are checked
with one tuple comparison, building an error message only once it fails.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Protocol

import numpy as np

from .autodiff import Tensor


ROUND_ORDER = ("Image", "Name", "Text", "Coordinator")

# Label -> (sender, receiver), in send order.  Every sender steps before its
# receiver in ROUND_ORDER, so each payload is read in the round that sends it.
ROUND_SCHEMA = {
    "visual_context": ("Image", "Text"),
    "image_features": ("Image", "Coordinator"),
    "prompts": ("Name", "Text"),
    "text_features": ("Text", "Coordinator"),
}

# Per sender, in ROUND_ORDER: the labels it sends, in send order.  The
# coordinator, last, sends nothing.
_SENDS = tuple(
    (agent, tuple(label for label, (sender, _) in ROUND_SCHEMA.items() if sender == agent))
    for agent in ROUND_ORDER[:-1]
)


class EmptyBatchError(ValueError):
    """A round was started on a zero-sample batch."""


class ProtocolError(RuntimeError):
    """An agent sent labels other than the ones the round schema gives it."""


class UnpreparedBatchError(RuntimeError):
    """A round ran on a batch that the agents' own session did not prepare."""


class PreparedRun(dict):
    """Agent -> what it computed once for a batch, which each round reads."""

    def __missing__(self, agent):
        raise UnpreparedBatchError(f"{agent.agent_id} agent: not its session's batch")


# Values kept per payload in the log: the shape and this many leading values
# (row-major), exactly what ``LogRecord.summary`` reports.
LOG_VALUES = 4


class LogRecord(NamedTuple):
    """One delivered payload, keyed by its label: a short summary."""

    label: str
    shape: tuple[int, ...]
    values: np.ndarray  # the first LOG_VALUES values

    def summary(self, round_index: int) -> dict:
        sender, receiver = ROUND_SCHEMA[self.label]
        # Every payload is a feature; the tag stays so that lines stay stable.
        return {
            "round": round_index,
            "sender": sender,
            "receiver": receiver,
            "content_tag": "feature",
            "payload_summary": {"shape": list(self.shape), "first": self.values.tolist()},
        }


class Agent(Protocol):
    agent_id: str

    def step(self, inbox: dict[str, Tensor], batch): ...


class MessageBus:
    """The four agents in ``ROUND_ORDER``, the round count and the current
    round's log."""

    def __init__(self, *agents: Agent):
        given = [agent.agent_id for agent in agents]
        expected = list(ROUND_ORDER)
        if given != expected:
            raise ValueError(f"a bus takes its agents in ROUND_ORDER {expected}, got {given}")
        self.agents = agents
        self.round_index = 0
        self._inboxes: dict[str, dict[str, Tensor]] = {agent: {} for agent in ROUND_ORDER}

    @property
    def log(self) -> list[LogRecord]:
        """One record per payload the current round's inboxes hold, in send
        order, built when read; ``flat[:n]`` is a copy, in row-major order."""
        delivered = [
            (label, self._inboxes[receiver][label].data)
            for label, (_, receiver) in ROUND_SCHEMA.items()
            if label in self._inboxes[receiver]
        ]
        return [LogRecord(label, data.shape, data.flat[:LOG_VALUES]) for label, data in delivered]

    def serialize_log(self, path) -> None:
        """Line-delimited JSON: one record per delivered payload."""
        with open(path, "w") as fh:
            for rec in self.log:
                fh.write(json.dumps(rec.summary(self.round_index), sort_keys=True) + "\n")


def run_round(bus: MessageBus, batch):
    """One fixed-schedule round: Image, Name, Text, then Coordinator.

    Each sender steps on the payloads sent to it and must return exactly the
    labels ``ROUND_SCHEMA`` gives it, in schema order, or ``ProtocolError``
    names it.  Returns the coordinator's ``(total, breakdown)`` loss pair.
    """
    if batch.size == 0:
        raise EmptyBatchError("round started on an empty batch")
    bus.round_index += 1
    inboxes = bus._inboxes = {agent_id: {} for agent_id in ROUND_ORDER}
    for agent, (agent_id, labels) in zip(bus.agents, _SENDS):
        sent = agent.step(inboxes[agent_id], batch)
        if tuple(sent) != labels:
            raise ProtocolError(
                f"{agent_id} sent {list(sent)}; the round schema gives it {list(labels)}"
            )
        for label in labels:
            inboxes[ROUND_SCHEMA[label][1]][label] = sent[label]
    return bus.agents[-1].step(inboxes["Coordinator"], batch)
