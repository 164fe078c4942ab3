from types import SimpleNamespace

import numpy as np
import pytest

from namelearn import autodiff as ad
from namelearn.autodiff import ShapeError, Tensor, grad_check
from namelearn.bus import AgentId, FeatureBlock, Message
from namelearn.name_agent import (
    NAME_SLOT,
    NameAgent,
    NameEmbeddingTable,
    UnknownTokenError,
)
from namelearn.text_agent import (
    ContextIntegrationModule,
    LinearFusion,
    MissingContextError,
    TextAgent,
)
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


def make_namer(world, extra_concepts=(), frozen_names=False):
    """Name agent whose table holds one random vector, for the first held-out
    concept only."""
    vectors = np.random.default_rng(1).normal(scale=0.02, size=(1, world.config.embed_dim))
    table = NameEmbeddingTable(world.ood_ids[:1], vectors)
    concepts = {c.id: c for c in list(world.concepts) + list(extra_concepts)}
    return NameAgent(
        concepts,
        world.templates,
        world.canonical_template,
        table,
        world.vocab,
        frozen_names=frozen_names,
    )


@pytest.fixture()
def namer(world):
    return make_namer(world)


def pooled(world, namer, concept_id) -> Tensor:
    """The canonical prompt of one concept, pooled by the name agent: (1, D)."""
    return namer.pool([(concept_id, world.canonical_template.template_id)])


def standard(world, pooled_rows) -> Tensor:
    """The plain text feature: the frozen encoder alone, no context fusion."""
    return make_agent(world, lambda_mix=1.0).encode(pooled_rows, None)


def context(world, seed) -> Tensor:
    return Tensor(np.random.default_rng(seed).normal(size=world.config.embed_dim))


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
    namer = make_namer(world, frozen_names=True)
    cid = world.ood_ids[0]
    rendered = namer.render(cid, world.canonical_template.template_id)
    assert rendered.name_token == world.oov_token
    assert rendered.name_row is None
    out = standard(world, pooled(world, namer, cid))
    assert out.shape == (1, world.config.embed_dim)


def test_encode_standard_sensitive_to_name_embeddings(world, namer):
    cid = world.ood_ids[0]
    a = standard(world, pooled(world, namer, cid))
    namer.table.weight.data[namer.table.row(cid)] += 0.5
    b = standard(world, pooled(world, namer, cid))
    assert not np.allclose(a.data, b.data)


def test_integrate_context_constant_network(world):
    agent = make_agent(world)
    d = world.config.embed_dim
    for p in agent.fusion.parameters():
        p.data[...] = 0.0
    v = np.arange(d, dtype=float)
    agent.fusion.b4.data = v.copy()
    out = agent.fusion(Tensor(np.random.default_rng(0).normal(size=(3, 2 * d))))
    assert np.array_equal(out.data, np.tile(v, (3, 1)))


def test_integrate_context_hand_case():
    module = ContextIntegrationModule(1, 1, np.random.default_rng(0))
    module.w3.data = np.array([[1.0], [1.0]])
    module.b3.data = np.array([0.0])
    module.w4.data = np.array([[2.0]])
    module.b4.data = np.array([0.0])
    out = module(Tensor([[1.0, 0.5]]))
    assert out.data[0] == pytest.approx([3.0], abs=1e-12)


def test_integrate_context_relu_kill_leaves_bias(world):
    module = ContextIntegrationModule(2, 2, np.random.default_rng(0))
    module.w3.data = -np.ones((4, 2))
    module.b3.data = np.zeros(2)
    module.b4.data = np.array([0.25, -0.5])
    out = module(Tensor([[1.0, 1.0, 1.0, 1.0]]))  # all pre-activations negative
    assert np.array_equal(out.data, [[0.25, -0.5]])


def test_integrate_context_rejects_wrong_width(world, agent):
    d = world.config.embed_dim
    with pytest.raises(ShapeError):
        agent.fusion(Tensor(np.zeros((1, d))))
    with pytest.raises(ShapeError):
        agent.fusion(Tensor(np.zeros(2 * d)))  # rows only, not a bare vector


def prompt_message(rows):
    return Message(AgentId.NAME, AgentId.TEXT, FeatureBlock(rows, "prompts"))


def test_contextual_lambda_one_equals_standard(world, namer):
    agent = make_agent(world, lambda_mix=1.0)
    rows = pooled(world, namer, world.seen_ids[0])
    std = standard(world, rows)
    assert np.array_equal(agent.encode(rows, context(world, 1)).data, std.data)
    # At the endpoint the round needs no visual context at all.
    out = agent.step([prompt_message(rows)], None)
    assert out[0].content.label == "text_features"
    assert np.array_equal(out[0].content.tensor.data, std.data)


def test_disable_text_context_is_the_standard_encoding(world, namer):
    agent = make_agent(world, disable_text_context=True)
    rows = pooled(world, namer, world.ood_ids[0])
    assert np.array_equal(agent.encode(rows, context(world, 3)).data, standard(world, rows).data)


def test_contextual_lambda_zero_equals_fusion(world, namer):
    agent = make_agent(world, lambda_mix=0.0)
    rows = pooled(world, namer, world.seen_ids[0])
    c = context(world, 2)
    out = agent.encode(rows, c)
    fused = agent.fusion(ad.concat_cols(standard(world, rows), Tensor(c.data[None, :])))
    assert np.allclose(out.data, fused.data, atol=1e-12)


def test_contextual_missing_context_is_error(world, namer):
    agent = make_agent(world, lambda_mix=0.5)
    rows = pooled(world, namer, world.seen_ids[0])
    with pytest.raises(MissingContextError, match="lambda_mix=1"):
        agent.step([prompt_message(rows)], None)


def test_contextual_halfway_with_constant_fusion(world, namer):
    agent = make_agent(world, lambda_mix=0.5)
    for p in agent.fusion.parameters():
        p.data[...] = 0.0
    b = np.random.default_rng(3).normal(size=world.config.embed_dim)
    agent.fusion.b4.data = b.copy()
    rows = pooled(world, namer, world.seen_ids[1])
    out = agent.encode(rows, context(world, 4))
    assert np.allclose(out.data, 0.5 * standard(world, rows).data + 0.5 * b, atol=1e-12)


def test_contextual_is_affine_in_lambda(world, namer):
    rows = pooled(world, namer, world.seen_ids[0])
    c = context(world, 5)

    def contextual(lam):
        agent = make_agent(world, lambda_mix=lam)  # same seed: same fusion weights
        return agent.encode(rows, c).data

    endpoint_a, endpoint_b = contextual(1.0), contextual(0.0)
    for lam in (0.25, 0.5, 0.7):
        out = contextual(lam)
        assert np.allclose(out, lam * endpoint_a + (1 - lam) * endpoint_b, atol=1e-12)


def test_gradients_reach_name_embeddings_and_fusion(world, agent, namer):
    c = context(world, 6)
    params = [namer.table.weight] + agent.fusion.parameters()

    def f(*ps):
        out = agent.encode(pooled(world, namer, world.ood_ids[0]), c)
        return ad.sum_all(ad.mul(out, out))

    assert grad_check(f, params, eps=1e-5) < 1e-4
    assert np.all(np.abs(namer.table.weight.grad).max(axis=1) > 0.0)


def test_zero_context_zero_fusion_contributes_bias_only(world, agent, namer):
    for p in agent.fusion.parameters():
        p.data[...] = 0.0
    b = np.random.default_rng(7).normal(size=world.config.embed_dim)
    agent.fusion.b4.data = b.copy()
    rows = pooled(world, namer, world.seen_ids[0])
    out = agent.encode(rows, Tensor(np.zeros(world.config.embed_dim)))
    assert np.allclose(out.data, 0.7 * standard(world, rows).data + 0.3 * b, atol=1e-12)


def test_linear_fusion_shape_and_params(world):
    agent = make_agent(world, simple_concat_fusion=True)
    assert isinstance(agent.fusion, LinearFusion)
    assert len(agent.parameters()) == 2
    d = world.config.embed_dim
    out = agent.fusion(Tensor(np.zeros((3, 2 * d))))
    assert out.shape == (3, d)


def test_embed_sequence_splice_length(world, namer):
    # The pooled prompt is the mean over the spliced sequence: the template's
    # frozen rows plus the one learnable name vector in the slot.
    cid = world.ood_ids[0]
    tokens = world.canonical_template.tokens
    frozen = [t for t in tokens if t != NAME_SLOT]
    names = namer.table.weight.data[[namer.table.row(cid)]]
    spliced = np.concatenate([world.vocab[frozen], names])
    assert len(spliced) == len(tokens)
    assert np.allclose(pooled(world, namer, cid).data, [spliced.mean(axis=0)], atol=1e-15)
