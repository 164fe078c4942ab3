import json
import pickle

import numpy as np
import pytest

from namelearn.autodiff import Tensor
from namelearn.bus import (
    AgentId,
    EmptyBatchError,
    FeatureBlock,
    MailboxError,
    Message,
    MessageBus,
    Metadata,
    ProtocolError,
    SelfSendError,
    UnregisteredAgentError,
    content_tag,
    run_round,
)
from namelearn.session import Batch, SessionSettings, TrainingSession
from namelearn.world import WorldConfig, build_world

SMALL = WorldConfig(embed_dim=16, image_dim=24, n_seen=4, n_ood=3, vocab_size=64, seed=5)


@pytest.fixture(scope="module")
def world():
    return build_world(SMALL)


def make_session(world, seed=0, **kwargs):
    return TrainingSession(world, SessionSettings(**kwargs), seed=seed)


def make_batch(world, session, k=2, epoch=0, seed=11):
    shots = {cid: world.sample_images(cid, k, seed=seed) for cid in world.ood_ids}
    return session.build_batch(shots, epoch)


def fb(vec=(1.0, 2.0), label="visual_context"):
    return FeatureBlock(Tensor(np.asarray(vec)), label)


# ---------------------------------------------------------------------------
# Message and mailbox mechanics

def test_send_delivers_to_mailbox():
    bus = MessageBus()
    msg = Message(AgentId.IMAGE, AgentId.TEXT, fb())
    bus.send(msg)
    assert len(bus.mailboxes[AgentId.TEXT]) == 1


def test_self_send_rejected():
    with pytest.raises(SelfSendError):
        Message(AgentId.IMAGE, AgentId.IMAGE, fb())


def test_fifo_order_per_pair():
    bus = MessageBus()
    bus.send(Message(AgentId.IMAGE, AgentId.TEXT, fb(label="first")))
    bus.send(Message(AgentId.IMAGE, AgentId.TEXT, fb(label="second")))
    drained = bus.drain(AgentId.TEXT)
    assert [m.content.label for m in drained] == ["first", "second"]


def test_content_tags():
    assert content_tag(fb()) == "feature"
    assert content_tag(Metadata({"k": "v"})) == "metadata"


def test_log_records_payload_summary():
    bus = MessageBus()
    bus.send(Message(AgentId.IMAGE, AgentId.TEXT, fb((1.0, 2.0, 3.0, 4.0, 5.0))))
    summary = bus.log[0].summary()
    assert summary["content_tag"] == "feature"
    assert summary["payload_summary"]["shape"] == [5]
    assert summary["payload_summary"]["first"] == [1.0, 2.0, 3.0, 4.0]


def test_log_record_rejects_attribute_assignment():
    bus = MessageBus()
    bus.send(Message(AgentId.IMAGE, AgentId.TEXT, fb()))
    rec = bus.log[0]
    with pytest.raises(AttributeError):
        rec.tag = "metadata"
    with pytest.raises(AttributeError):
        rec.values = None
    assert rec.tag == "feature" and rec.values.tolist() == [1.0, 2.0]


def test_agent_id_survives_pickle_as_a_mailbox_key():
    bus = MessageBus()
    bus.send(Message(AgentId.IMAGE, AgentId.TEXT, fb()))
    mailboxes = pickle.loads(pickle.dumps(bus.mailboxes))
    assert list(mailboxes) == list(AgentId)
    assert all(a is b for a, b in zip(mailboxes, AgentId))
    assert [m.content.label for m in mailboxes[AgentId.TEXT]] == ["visual_context"]
    assert mailboxes[AgentId.IMAGE] == []
    assert hash(pickle.loads(pickle.dumps(AgentId.NAME))) == hash(AgentId.NAME)


def test_serialize_log_jsonl(tmp_path):
    bus = MessageBus()
    bus.round_index = 3
    entries = {"difficulty": "0.5", "strategy": "standard"}
    bus.send(Message(AgentId.IMAGE, AgentId.COORDINATOR, Metadata(entries)))
    bus.send(Message(AgentId.IMAGE, AgentId.COORDINATOR, fb(label="image_features")))
    path = tmp_path / "log.jsonl"
    bus.serialize_log(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {
        "round": 3,
        "sender": "Image",
        "receiver": "Coordinator",
        "content_tag": "metadata",
        "payload_summary": {"keys": ["difficulty", "strategy"]},
    }
    assert lines[1]["content_tag"] == "feature"
    assert lines[1]["payload_summary"] == {"shape": [2], "first": [1.0, 2.0]}


def test_log_keeps_only_summary_values_over_default_rounds(tmp_path):
    world = build_world(WorldConfig())
    session = make_session(world)
    rounds = [
        run_round(session.bus, make_batch(world, session, k=16, epoch=e))
        for e in range(3)
    ]
    # The log holds the current round only.
    assert len(session.bus.log) == 5
    assert all(rec.round_index == 3 for rec in session.bus.log)
    features = [rec for rec in session.bus.log if rec.tag == "feature"]
    assert features
    assert all(rec.values.size <= 4 for rec in features)
    assert all(rec.values is None for rec in session.bus.log if rec.tag != "feature")
    path = tmp_path / "log.jsonl"
    session.bus.serialize_log(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == len(session.bus.log)
    assert all(
        set(line) == {"round", "sender", "receiver", "content_tag", "payload_summary"}
        for line in lines
    )
    # The last round's image features, summarized by shape and first four values.
    image = rounds[-1].image_features.data
    last = [
        line
        for line, rec in zip(lines, session.bus.log)
        if rec.round_index == 3 and rec.label == "image_features"
    ]
    assert last == [
        {
            "round": 3,
            "sender": "Image",
            "receiver": "Coordinator",
            "content_tag": "feature",
            "payload_summary": {
                "shape": list(image.shape),
                "first": [float(v) for v in image.reshape(-1)[:4]],
            },
        }
    ]


def test_default_round_log_file_matches_the_round(tmp_path):
    """Every line of a default round's log file, rebuilt from what the agents
    computed: shape and first four values of each feature payload, the
    metadata keys, in send order."""
    world = build_world(WorldConfig())
    session = make_session(world)
    batch = make_batch(world, session, k=16)
    info = run_round(session.bus, batch)
    path = tmp_path / "log.jsonl"
    session.bus.serialize_log(path)

    def feature(sender, receiver, data):
        payload = {"shape": list(data.shape), "first": data.reshape(-1)[:4].tolist()}
        return sender, receiver, "feature", payload

    context = session.image_agent.emit_visual_context(info.image_features).data
    rows = [
        feature("Image", "Text", context),
        feature("Image", "Coordinator", info.image_features.data),
        ("Image", "Coordinator", "metadata", {"keys": ["difficulty", "strategy"]}),
        feature("Name", "Text", session.name_agent.pool(batch.prompts).data),
        feature("Text", "Coordinator", info.text_features.data),
    ]
    expected = "".join(
        json.dumps(
            {
                "round": 1,
                "sender": sender,
                "receiver": receiver,
                "content_tag": tag,
                "payload_summary": payload,
            },
            sort_keys=True,
        )
        + "\n"
        for sender, receiver, tag, payload in rows
    )
    assert path.read_text() == expected


# ---------------------------------------------------------------------------
# run_round on the real four agents

@pytest.mark.parametrize("missing", list(AgentId), ids=lambda a: a.value)
def test_run_round_requires_registration(world, missing):
    session = make_session(world)
    bus = MessageBus()
    for agent in (session.image_agent, session.name_agent, session.text_agent, session.coordinator):
        if agent.agent_id is not missing:
            bus.register(agent)
    with pytest.raises(UnregisteredAgentError, match=rf"\['{missing.value}'\]"):
        run_round(bus, make_batch(world, session))
    assert bus.round_index == 0 and bus.log == []


class _Chatty:
    """The coordinator, plus one message to the image agent that no agent
    reads this round."""

    agent_id = AgentId.COORDINATOR

    def __init__(self, coordinator):
        self.coordinator = coordinator
        self.last_round = None

    def step(self, messages, batch):
        self.coordinator.step(messages, batch)
        self.last_round = self.coordinator.last_round
        return [Message(AgentId.COORDINATOR, AgentId.IMAGE, Metadata({"k": 1}))]


def test_run_round_names_a_mailbox_left_full(world):
    session = make_session(world)
    session.bus.register(_Chatty(session.coordinator))
    with pytest.raises(ProtocolError, match=r"\{'Image': 1\}"):
        run_round(session.bus, make_batch(world, session))


def test_run_round_rejects_empty_batch(world):
    session = make_session(world)
    empty = Batch(
        images=np.zeros((0, world.config.image_dim)),
        class_labels=np.zeros(0, dtype=int),
        prompt_plan=[],
    )
    with pytest.raises(EmptyBatchError):
        run_round(session.bus, empty)


def test_run_round_coordinator_collects_artifacts(world):
    session = make_session(world)
    batch = make_batch(world, session, k=2)
    info = run_round(session.bus, batch)
    assert info.image_features.shape == (batch.size, world.config.embed_dim)
    assert info.text_features.shape == (batch.size, world.config.embed_dim)
    assert 0.0 < info.difficulty < 1.0
    assert info.strategy in ("standard", "robust")
    assert info.breakdown is not None


def test_run_round_empties_all_mailboxes(world):
    session = make_session(world)
    run_round(session.bus, make_batch(world, session))
    assert all(len(m) == 0 for m in session.bus.mailboxes.values())


def test_round_determinism_same_seed(world):
    triples = []
    for _ in range(2):
        session = make_session(world, seed=9)
        run_round(session.bus, make_batch(world, session))
        triples.append(
            [(r.sender.value, r.receiver.value, r.tag, r.label) for r in session.bus.log]
        )
    assert triples[0] == triples[1]


def test_step_agent_deterministic_given_inputs_and_memory(world):
    session_a = make_session(world, seed=4)
    session_b = make_session(world, seed=4)
    batch = make_batch(world, session_a)
    out_a = session_a.image_agent.step([], batch)
    out_b = session_b.image_agent.step([], batch)
    assert len(out_a) == len(out_b)
    for ma, mb in zip(out_a, out_b):
        if isinstance(ma.content, FeatureBlock):
            assert np.array_equal(ma.content.tensor.data, mb.content.tensor.data)
        else:
            assert ma.content == mb.content


def test_malformed_mailbox_content_raises_typed_error(world):
    session = make_session(world)
    batch = make_batch(world, session)
    bad = Message(AgentId.NAME, AgentId.IMAGE, fb(label="image_features"))
    with pytest.raises(MailboxError):
        session.image_agent.step([bad], batch)


def test_round_sends_only_messages_with_a_reader():
    world = build_world(WorldConfig())
    session = make_session(world)
    batch = make_batch(world, session, k=16)
    run_round(session.bus, batch)
    assert [(r.sender, r.receiver, r.tag, r.label) for r in session.bus.log] == [
        (AgentId.IMAGE, AgentId.TEXT, "feature", "visual_context"),
        (AgentId.IMAGE, AgentId.COORDINATOR, "feature", "image_features"),
        (AgentId.IMAGE, AgentId.COORDINATOR, "metadata", None),
        (AgentId.NAME, AgentId.TEXT, "feature", "prompts"),
        (AgentId.TEXT, AgentId.COORDINATOR, "feature", "text_features"),
    ]
    metadata = Metadata({"difficulty": 0.5, "strategy": "standard"})
    for agent in (session.image_agent, session.name_agent, session.text_agent):
        with pytest.raises(MailboxError):
            agent.step([Message(AgentId.COORDINATOR, agent.agent_id, metadata)], batch)
    to_text, image_features, image_metadata = session.image_agent.step([], batch)
    (prompts,) = session.name_agent.step([], batch)
    (text_features,) = session.text_agent.step([to_text, prompts], batch)
    with pytest.raises(MailboxError, match="metadata"):
        session.coordinator.step([image_features, text_features], batch)
    assert session.coordinator.step([image_features, image_metadata, text_features], batch) == []
