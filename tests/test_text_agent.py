from types import SimpleNamespace

import numpy as np
import pytest

from namelearn import autodiff as ad
from namelearn import text_agent
from namelearn.autodiff import ShapeError, Tensor, grad_check
from namelearn.bus import AgentId, run_round
from namelearn.image_agent import ImageAgent
from namelearn.name_agent import (
    NAME_SLOT,
    NameAgent,
    NameEmbeddingTable,
    UnknownTokenError,
)
from namelearn.text_agent import MissingContextError, TextAgent, encode_text, fusion_layers
from namelearn.session import TrainingSession
from namelearn.settings import SessionSettings
from namelearn.world import WorldConfig, build_world

SMALL = WorldConfig(embed_dim=16, image_dim=24, n_seen=4, n_ood=3, vocab_size=64, seed=2)


@pytest.fixture(scope="module")
def world():
    return build_world(SMALL)


def make_agent(world, **settings):
    return TextAgent(
        (world.mixer_in, world.mixer_in_bias, world.mixer_out, world.mixer_out_bias),
        SessionSettings(**settings),
        np.random.default_rng(0),
    )


@pytest.fixture()
def agent(world):
    return make_agent(world)


def make_namer(world, extra_concepts=(), learns_names=True):
    """Name agent whose table holds one random vector, for the first held-out
    concept only; with no table unless ``learns_names``."""
    vectors = np.random.default_rng(1).normal(scale=0.02, size=(1, world.config.embed_dim))
    table = NameEmbeddingTable(world.ood_ids[:1], vectors) if learns_names else None
    concepts = {c.id: c for c in list(world.concepts) + list(extra_concepts)}
    return NameAgent(concepts, world.templates, world.canonical_template, table, world.vocab)


@pytest.fixture()
def namer(world):
    return make_namer(world)


def pooled(world, namer, concept_id) -> Tensor:
    """The canonical prompt of one concept, pooled by the name agent: (1, D)."""
    return namer.pool([(concept_id, world.canonical_template.template_id)])


def standard(world, pooled_rows) -> Tensor:
    """The plain text feature: the frozen encoder alone, no context fusion."""
    return encode_text(pooled_rows, make_agent(world).mixer)


def context(world, seed) -> Tensor:
    return Tensor(np.random.default_rng(seed).normal(size=world.config.embed_dim))


def composed_layers(layers, z) -> Tensor:
    """``affine`` layers ``(W1, b1, W2, b2, ...)`` with a ``relu`` between
    each two, as the generic ops."""
    for i in range(0, len(layers), 2):
        if i:
            z = ad.relu(z)
        z = ad.affine(z, layers[i], layers[i + 1])
    return z


def test_encode_standard_deterministic(world, namer):
    rows = pooled(world, namer, world.seen_ids[0])
    a = standard(world, rows)
    b = standard(world, rows)
    assert np.array_equal(a.data, b.data)
    assert a.shape == (1, world.config.embed_dim)


def test_encode_rows_match_one_at_a_time(world, namer):
    ids = world.seen_ids + world.ood_ids[:1]  # the table holds the first only
    rows = namer.pool([(cid, world.canonical_template.template_id) for cid in ids])
    agent = make_agent(world)
    c = context(world, 10)
    batched = agent.encode(rows, c).data
    single = np.concatenate([agent.encode(pooled(world, namer, cid), c).data for cid in ids])
    assert np.allclose(batched, single, rtol=0, atol=1e-12)


def test_encode_standard_rejects_unknown_token(world):
    bad = SimpleNamespace(
        id=99, split="seen", name_token=world.config.vocab_size + 5, family="family_0"
    )
    with pytest.raises(UnknownTokenError):
        pooled(world, make_namer(world, [bad]), bad.id)


def test_encode_standard_accepts_blind_token(world):
    namer = make_namer(world, learns_names=False)
    cid = world.ood_ids[0]
    rendered = namer.render(cid, world.canonical_template.template_id)
    assert rendered.name_token == world.oov_token
    assert rendered.name_row is None
    out = standard(world, pooled(world, namer, cid))
    assert out.shape == (1, world.config.embed_dim)


def test_encode_standard_sensitive_to_name_embeddings(world, namer):
    cid = world.ood_ids[0]
    a = standard(world, pooled(world, namer, cid))
    namer.table.weight.data[namer.table.index[cid]] += 0.5
    b = standard(world, pooled(world, namer, cid))
    assert not np.allclose(a.data, b.data)


def test_integrate_context_constant_network(world):
    agent = make_agent(world)
    d = world.config.embed_dim
    for p in agent.layers:
        p.data[...] = 0.0
    v = np.arange(d, dtype=float)
    agent.layers[3].data = v.copy()
    z = Tensor(np.random.default_rng(0).normal(size=(3, 2 * d)))
    out = encode_text(z, agent.layers)
    assert np.array_equal(out.data, np.tile(v, (3, 1)))


def test_integrate_context_hand_case():
    layers = w3, b3, w4, b4 = fusion_layers(1, False, np.random.default_rng(0))
    w3.data = np.array([[1.0], [1.0]])
    b3.data = np.array([0.0])
    w4.data = np.array([[2.0]])
    b4.data = np.array([0.0])
    out = encode_text(Tensor([[1.0, 0.5]]), layers)
    assert out.data[0] == pytest.approx([3.0], abs=1e-12)


def test_integrate_context_relu_kill_leaves_bias(world):
    layers = w3, b3, _, b4 = fusion_layers(2, False, np.random.default_rng(0))
    w3.data = -np.ones((4, 2))
    b3.data = np.zeros(2)
    b4.data = np.array([0.25, -0.5])
    # All pre-activations negative.
    out = encode_text(Tensor([[1.0, 1.0, 1.0, 1.0]]), layers)
    assert np.array_equal(out.data, [[0.25, -0.5]])


def test_integrate_context_rejects_wrong_width(world, agent):
    d = world.config.embed_dim
    rows = Tensor(np.zeros((1, d)))
    with pytest.raises(ShapeError):
        agent.encode(rows, Tensor(np.zeros(d + 1)))
    with pytest.raises(ShapeError):
        # Rows only, not a bare vector.
        encode_text(Tensor(np.zeros(d)), agent.mixer, np.zeros(d), agent.layers)


def test_disable_text_context_is_the_standard_encoding(world, namer):
    agent = make_agent(world, disable_text_context=True)
    assert agent.layers == () and agent.parameters() == []  # nothing to train
    rows = pooled(world, namer, world.ood_ids[0])
    std = standard(world, rows)
    assert np.array_equal(agent.encode(rows, context(world, 3)).data, std.data)
    # Encoding needs no visual context, and a round ignores the one it gets.
    assert np.array_equal(agent.encode(rows, None).data, std.data)
    out = agent.step({"visual_context": context(world, 3), "prompts": rows}, None)
    assert list(out) == ["text_features"]
    assert np.array_equal(out["text_features"].data, std.data)


def test_contextual_lambda_zero_equals_fusion(world, namer, monkeypatch):
    monkeypatch.setattr(text_agent, "LAMBDA_MIX", 0.0)
    agent = make_agent(world)
    rows = pooled(world, namer, world.seen_ids[0])
    c = context(world, 2)
    out = agent.encode(rows, c)
    z = ad.concat_cols(standard(world, rows), Tensor(c.data[None, :]))
    fused = composed_layers(agent.layers, z)
    assert np.allclose(out.data, fused.data, atol=1e-12)


def test_contextual_missing_context_is_error(world, namer):
    agent = make_agent(world)
    rows = pooled(world, namer, world.seen_ids[0])
    with pytest.raises(MissingContextError, match="disable_text_context"):
        agent.encode(rows, None)


def test_contextual_halfway_with_constant_fusion(world, namer, monkeypatch):
    monkeypatch.setattr(text_agent, "LAMBDA_MIX", 0.5)
    agent = make_agent(world)
    for p in agent.layers:
        p.data[...] = 0.0
    b = np.random.default_rng(3).normal(size=world.config.embed_dim)
    agent.layers[3].data = b.copy()
    rows = pooled(world, namer, world.seen_ids[1])
    out = agent.encode(rows, context(world, 4))
    assert np.allclose(out.data, 0.5 * standard(world, rows).data + 0.5 * b, atol=1e-12)


def test_contextual_is_affine_in_lambda(world, namer, monkeypatch):
    rows = pooled(world, namer, world.seen_ids[0])
    c = context(world, 5)

    def contextual(lam):
        monkeypatch.setattr(text_agent, "LAMBDA_MIX", lam)
        agent = make_agent(world)  # same seed: same fusion weights
        return agent.encode(rows, c).data

    endpoint_a, endpoint_b = contextual(1.0), contextual(0.0)
    for lam in (0.25, 0.5, 0.7):
        out = contextual(lam)
        assert np.allclose(out, lam * endpoint_a + (1 - lam) * endpoint_b, atol=1e-12)


def test_gradients_reach_name_embeddings_and_fusion(world, agent, namer):
    c = context(world, 6)
    params = [namer.table.weight, *agent.layers]

    def f(*ps):
        out = agent.encode(pooled(world, namer, world.ood_ids[0]), c)
        return ad.sum_all(ad.mul(out, out))

    assert grad_check(f, params, eps=1e-5) < 1e-4
    assert np.all(np.abs(namer.table.weight.grad).max(axis=1) > 0.0)


def test_zero_context_zero_fusion_contributes_bias_only(world, agent, namer):
    for p in agent.layers:
        p.data[...] = 0.0
    b = np.random.default_rng(7).normal(size=world.config.embed_dim)
    agent.layers[3].data = b.copy()
    rows = pooled(world, namer, world.seen_ids[0])
    out = agent.encode(rows, Tensor(np.zeros(world.config.embed_dim)))
    assert np.allclose(out.data, 0.7 * standard(world, rows).data + 0.3 * b, atol=1e-12)


def tiled_encode(agent, rows, c):
    """``encode`` as the generic ops, with the context rows built by ``np.tile``."""
    std = composed_layers(agent.mixer, rows)
    ctx_rows = Tensor(np.tile(c.data, (std.shape[0], 1)))
    fused = composed_layers(agent.layers, ad.concat_cols(std, ctx_rows))
    return ad.blend(std, fused, text_agent.LAMBDA_MIX)


def test_text_features_equal_the_tiled_composed_chain(world):
    session = TrainingSession(world, SessionSettings(), seed=0)
    agent = session.text_agent
    canonical = world.canonical_template.template_id
    ids = list(world.ood_ids)
    # Two evaluations on different test batches, each with its own context.
    for seed in (1, 2):
        images = np.concatenate([world.sample_images(cid, 5, seed=seed) for cid in ids])
        c = ImageAgent.emit_visual_context(session.image_agent.encode(images)[0])
        rows = session.name_agent.pool([(cid, canonical) for cid in ids])
        want = tiled_encode(agent, rows, c).data
        assert np.array_equal(session.class_text_features(ids, c), want)
        # The same context again, then over fewer rows.
        assert np.array_equal(agent.encode(rows, c).data, want)
        one = session.name_agent.pool([(ids[0], canonical)])
        assert np.array_equal(agent.encode(one, c).data, tiled_encode(agent, one, c).data)
    # Training rounds after an evaluation: the context the image agent sends.
    shots = session.prepare_shots({cid: world.sample_images(cid, 2, seed=3) for cid in ids})
    for epoch in range(2):
        batch = session.build_batch(shots, epoch)
        run_round(session.bus, batch)
        inbox = session.bus._inboxes[AgentId.COORDINATOR]
        c = ImageAgent.emit_visual_context(inbox["image_features"])
        want = tiled_encode(agent, session.name_agent.pool(batch.prompts), c)
        assert np.array_equal(inbox["text_features"].data, want.data)


def test_a_round_encodes_the_visual_context_the_bus_delivers(world):
    # The text agent reads its inbox: swap the delivered context for another
    # vector and the round's text features follow it.
    session = TrainingSession(world, SessionSettings(), seed=0)
    shots = {cid: world.sample_images(cid, 2, seed=3) for cid in world.ood_ids}
    batch = session.build_batch(session.prepare_shots(shots), 0)
    swapped = Tensor(np.random.default_rng(4).normal(size=world.config.embed_dim))
    sent = batch.run[session.image_agent]
    batch.run[session.image_agent] = {**sent, "visual_context": swapped}
    run_round(session.bus, batch)
    want = tiled_encode(session.text_agent, session.name_agent.pool(batch.prompts), swapped)
    text = session.bus._inboxes[AgentId.COORDINATOR]["text_features"]
    assert np.array_equal(text.data, want.data)
    assert not np.array_equal(swapped.data, sent["visual_context"].data)


def test_linear_fusion_shape_and_params(world):
    agent = make_agent(world, simple_concat_fusion=True)
    assert [p.name for p in agent.parameters()] == ["fusion.linear_w", "fusion.linear_b"]
    d = world.config.embed_dim
    out = encode_text(Tensor(np.zeros((3, 2 * d))), agent.layers)
    assert out.shape == (3, d)


def test_embed_sequence_splice_length(world, namer):
    # The pooled prompt is the mean over the spliced sequence: the template's
    # frozen rows plus the one learnable name vector in the slot.
    cid = world.ood_ids[0]
    tokens = world.canonical_template.tokens
    frozen = [t for t in tokens if t != NAME_SLOT]
    names = namer.table.weight.data[[namer.table.index[cid]]]
    spliced = np.concatenate([world.vocab[frozen], names])
    assert len(spliced) == len(tokens)
    assert np.allclose(pooled(world, namer, cid).data, [spliced.mean(axis=0)], atol=1e-15)
