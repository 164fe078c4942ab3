import numpy as np
import pytest

from namelearn import autodiff as ad
from namelearn.autodiff import ShapeError, Tape, Tensor, backward, grad_check
from namelearn.bus import AgentId, AgentMemory, FeatureBlock, Message
from namelearn.name_agent import (
    NAME_SLOT,
    NameAgent,
    NameEmbeddingTable,
    RenderedPrompt,
    UnknownTokenError,
    init_name_embeddings,
)
from namelearn.text_agent import (
    ContextIntegrationModule,
    LinearFusion,
    MissingContextError,
    TextAgent,
    TextAgentConfig,
)
from namelearn.world import WorldConfig, build_world

SMALL = WorldConfig(embed_dim=16, image_dim=24, n_seen=4, n_ood=3, vocab_size=64, seed=2)


@pytest.fixture(scope="module")
def world():
    return build_world(SMALL)


def make_agent(world, **cfg_kwargs):
    return TextAgent(
        (world.mixer_in, world.mixer_in_bias, world.mixer_out, world.mixer_out_bias),
        TextAgentConfig(**cfg_kwargs),
        np.random.default_rng(0),
    )


@pytest.fixture()
def agent(world):
    return make_agent(world)


@pytest.fixture(scope="module")
def namer(world):
    return NameAgent(
        {c.id: c for c in world.concepts},
        world.templates,
        world.canonical_template,
        NameEmbeddingTable(world.config.embed_dim),
        world.vocab,
    )


@pytest.fixture()
def ood_target(world):
    table = NameEmbeddingTable(world.config.embed_dim)
    concept = world.concept(world.ood_ids[0])
    vecs = init_name_embeddings(
        table, concept, 2, "random", world.vocab, world.oov_token, np.random.default_rng(1)
    )
    return tuple(vecs)


def embed(namer, tokens, target) -> Tensor:
    return namer.embed(RenderedPrompt(0, "test", "native", tuple(tokens), tuple(target)))


def standard(agent, namer, tokens, target) -> Tensor:
    """The plain text feature: the name agent's embedding, frozen encoder."""
    return agent.encode_matrix(embed(namer, tokens, target))


def seen_prompt(world, i=0):
    return world.canonical_template.tokens, (world.concept(world.seen_ids[i]).name_token,)


def test_encode_standard_deterministic(world, agent, namer):
    tokens, target = seen_prompt(world)
    a = standard(agent, namer, tokens, target)
    b = standard(agent, namer, tokens, target)
    assert np.array_equal(a.data, b.data)
    assert a.shape == (world.config.embed_dim,)


def test_encode_standard_rejects_unknown_token(world, namer):
    with pytest.raises(UnknownTokenError):
        embed(namer, (0, 1, NAME_SLOT), (world.config.vocab_size + 5,))


def test_encode_standard_accepts_blind_token(world, agent, namer):
    out = standard(agent, namer, world.canonical_template.tokens, (world.oov_token,))
    assert out.shape == (world.config.embed_dim,)


def test_encode_standard_sensitive_to_name_embeddings(world, agent, namer, ood_target):
    tokens = world.canonical_template.tokens
    a = standard(agent, namer, tokens, ood_target)
    perturbed = tuple(Tensor(t.data + 0.5, requires_grad=True) for t in ood_target)
    b = standard(agent, namer, tokens, perturbed)
    assert not np.allclose(a.data, b.data)


def test_integrate_context_constant_network(world):
    agent = make_agent(world)
    d = world.config.embed_dim
    for p in agent.fusion.parameters():
        p.data[...] = 0.0
    v = np.arange(d, dtype=float)
    agent.fusion.b4.data = v.copy()
    out = agent.integrate_context(Tensor(np.random.default_rng(0).normal(size=2 * d)))
    assert np.array_equal(out.data, v)


def test_integrate_context_hand_case():
    module = ContextIntegrationModule(1, 1, np.random.default_rng(0))
    module.w3.data = np.array([[1.0], [1.0]])
    module.b3.data = np.array([0.0])
    module.w4.data = np.array([[2.0]])
    module.b4.data = np.array([0.0])
    out = module(Tensor([1.0, 0.5]))
    assert out.data == pytest.approx([3.0], abs=1e-12)


def test_integrate_context_relu_kill_leaves_bias(world):
    module = ContextIntegrationModule(2, 2, np.random.default_rng(0))
    module.w3.data = -np.ones((4, 2))
    module.b3.data = np.zeros(2)
    module.b4.data = np.array([0.25, -0.5])
    out = module(Tensor([1.0, 1.0, 1.0, 1.0]))  # all pre-activations negative
    assert np.array_equal(out.data, [0.25, -0.5])


def test_integrate_context_rejects_wrong_width(world, agent):
    with pytest.raises(ShapeError):
        agent.integrate_context(Tensor(np.zeros(world.config.embed_dim)))


def prompt_message(namer, tokens, target, label="prompt|0|test|native"):
    block = FeatureBlock(embed(namer, tokens, target), label)
    return Message(AgentId.NAME, AgentId.TEXT, block)


def test_contextual_lambda_one_equals_standard(world, namer):
    agent = make_agent(world, lambda_mix=1.0)
    tokens, target = seen_prompt(world)
    std = standard(agent, namer, tokens, target)
    c = Tensor(np.random.default_rng(1).normal(size=world.config.embed_dim))
    assert np.array_equal(agent.contextual_from_standard(std, c).data, std.data)
    # At the endpoint the round needs no visual context at all.
    out, _ = agent.step([prompt_message(namer, tokens, target)], None, AgentMemory())
    assert np.array_equal(out[0].content.tensor.data, std.data)


def test_contextual_lambda_zero_equals_fusion(world, namer):
    agent = make_agent(world, lambda_mix=0.0)
    tokens, target = seen_prompt(world)
    c = Tensor(np.random.default_rng(2).normal(size=world.config.embed_dim))
    std = standard(agent, namer, tokens, target)
    out = agent.contextual_from_standard(std, c)
    fused = agent.integrate_context(ad.concat_cols(std, c))
    assert np.allclose(out.data, fused.data, atol=1e-12)


def test_contextual_missing_context_is_error(world, namer):
    agent = make_agent(world, lambda_mix=0.5)
    tokens, target = seen_prompt(world)
    with pytest.raises(MissingContextError, match="lambda_mix=1"):
        agent.step([prompt_message(namer, tokens, target)], None, AgentMemory())


def test_contextual_halfway_with_constant_fusion(world, namer):
    agent = make_agent(world, lambda_mix=0.5)
    for p in agent.fusion.parameters():
        p.data[...] = 0.0
    b = np.random.default_rng(3).normal(size=world.config.embed_dim)
    agent.fusion.b4.data = b.copy()
    tokens, target = seen_prompt(world, 1)
    c = Tensor(np.random.default_rng(4).normal(size=world.config.embed_dim))
    std = standard(agent, namer, tokens, target)
    out = agent.contextual_from_standard(std, c)
    assert np.allclose(out.data, 0.5 * std.data + 0.5 * b, atol=1e-12)


def test_contextual_is_affine_in_lambda(world, namer):
    tokens, target = seen_prompt(world)
    c = Tensor(np.random.default_rng(5).normal(size=world.config.embed_dim))

    def contextual(lam):
        agent = make_agent(world, lambda_mix=lam)  # same seed: same fusion weights
        return agent.contextual_from_standard(standard(agent, namer, tokens, target), c).data

    endpoint_a, endpoint_b = contextual(1.0), contextual(0.0)
    for lam in (0.25, 0.5, 0.7):
        out = contextual(lam)
        assert np.allclose(out, lam * endpoint_a + (1 - lam) * endpoint_b, atol=1e-12)


def test_gradients_reach_name_embeddings_and_fusion(world, agent, namer, ood_target):
    tokens = world.canonical_template.tokens
    c = Tensor(np.random.default_rng(6).normal(size=world.config.embed_dim))
    params = list(ood_target) + agent.fusion.parameters()

    def f(*ps):
        out = agent.contextual_from_standard(standard(agent, namer, tokens, ood_target), c)
        return ad.sum_all(ad.mul(out, out))

    assert grad_check(f, params, eps=1e-5) < 1e-4


def test_zero_context_zero_fusion_contributes_bias_only(world, agent, namer):
    for p in agent.fusion.parameters():
        p.data[...] = 0.0
    b = np.random.default_rng(7).normal(size=world.config.embed_dim)
    agent.fusion.b4.data = b.copy()
    tokens, target = seen_prompt(world)
    zero_c = Tensor(np.zeros(world.config.embed_dim))
    std = standard(agent, namer, tokens, target)
    out = agent.contextual_from_standard(std, zero_c)
    assert np.allclose(out.data, 0.7 * std.data + 0.3 * b, atol=1e-12)


def test_linear_fusion_shape_and_params(world):
    agent = make_agent(world, fusion="linear")
    assert isinstance(agent.fusion, LinearFusion)
    assert len(agent.parameters()) == 2
    d = world.config.embed_dim
    out = agent.integrate_context(Tensor(np.zeros(2 * d)))
    assert out.shape == (d,)


def test_learnable_lambda_reparameterization(world):
    agent = make_agent(world, learnable_lambda=True)
    assert agent.lambda_param is not None
    lam = 1.0 / (1.0 + np.exp(-float(agent.lambda_param.data)))
    assert lam == pytest.approx(0.7, abs=1e-9)
    std = Tensor(np.random.default_rng(8).normal(size=world.config.embed_dim))
    c = Tensor(np.random.default_rng(9).normal(size=world.config.embed_dim))
    out = agent.contextual_from_standard(std, c)
    assert out.shape == (world.config.embed_dim,)
    # The mixing ratio itself must receive gradient.
    with Tape() as tape:
        loss = ad.sum_all(agent.contextual_from_standard(std, c))
    backward(tape, loss)
    assert agent.lambda_param.grad is not None
    assert float(agent.lambda_param.grad) != 0.0


def test_embed_sequence_splice_length(world, namer, ood_target):
    tokens = world.canonical_template.tokens
    mat = embed(namer, tokens, ood_target)
    assert mat.shape == (len(tokens) - 1 + len(ood_target), world.config.embed_dim)
