import numpy as np
import pytest

from namelearn.name_agent import (
    NAME_SLOT,
    AugmentedPromptSet,
    FrozenNameError,
    InsufficientTemplatesError,
    MissingNameEmbeddingError,
    NameAgent,
    NameEmbeddingTable,
    PromptTemplate,
    RenderedPrompt,
    UnknownTokenError,
    build_template_bank,
    context_exchange_augment,
    init_name_embeddings,
    load_name_table,
    render_prompt,
    save_name_table,
)
from namelearn.session import SessionSettings, TrainingSession
from namelearn.world import WorldConfig, build_world

SMALL = WorldConfig(
    embed_dim=16, image_dim=24, n_seen=4, n_ood=3, vocab_size=64, seed=1
)


@pytest.fixture(scope="module")
def world():
    return build_world(SMALL)


@pytest.fixture()
def table(world):
    t = NameEmbeddingTable(world.config.embed_dim)
    rng = np.random.default_rng(0)
    for cid in world.ood_ids:
        init_name_embeddings(
            t, world.concept(cid), 2, "vocab_mean", world.vocab, world.oov_token, rng
        )
    return t


def test_template_requires_exactly_one_slot():
    with pytest.raises(ValueError):
        PromptTemplate("bad", (1, 2, 3), "family_0")
    with pytest.raises(ValueError):
        PromptTemplate("bad", (NAME_SLOT, 2, NAME_SLOT), "family_0")


def test_init_zero_policy(world):
    t = NameEmbeddingTable(world.config.embed_dim)
    cid = world.ood_ids[0]
    vecs = init_name_embeddings(
        t, world.concept(cid), 3, "zero", world.vocab, world.oov_token
    )
    assert len(vecs) == 3
    for v in vecs:
        assert np.array_equal(v.data, np.zeros(world.config.embed_dim))
        assert v.requires_grad


def test_init_vocab_mean_matches_mean_oracle(world):
    t = NameEmbeddingTable(world.config.embed_dim)
    cid = world.ood_ids[0]
    vecs = init_name_embeddings(
        t, world.concept(cid), 2, "vocab_mean", world.vocab, world.oov_token
    )
    expected = np.delete(world.vocab, world.oov_token, axis=0).mean(axis=0)
    for v in vecs:
        assert np.allclose(v.data, expected, atol=0)


def test_init_rejects_seen_concept(world):
    t = NameEmbeddingTable(world.config.embed_dim)
    with pytest.raises(FrozenNameError):
        init_name_embeddings(
            t, world.concept(world.seen_ids[0]), 1, "zero", world.vocab, world.oov_token
        )


def test_init_rejects_zero_vectors(world):
    t = NameEmbeddingTable(world.config.embed_dim)
    with pytest.raises(ValueError):
        init_name_embeddings(
            t, world.concept(world.ood_ids[0]), 0, "zero", world.vocab, world.oov_token
        )


def test_render_seen_concept_uses_frozen_token(world, table):
    concept = world.concept(world.seen_ids[0])
    rp = render_prompt(world.canonical_template, concept, table)
    assert rp.target == (concept.name_token,)
    assert concept.name_token in rp.frozen_token_ids
    assert rp.spliced_length == len(world.canonical_template.tokens)


def test_render_ood_splice_arithmetic(world, table):
    concept = world.concept(world.ood_ids[0])
    rp = render_prompt(world.canonical_template, concept, table)
    assert rp.spliced_length == len(world.canonical_template.tokens) - 1 + 2
    assert all(not isinstance(t, int) for t in rp.target)
    # The blind frozen token never appears in a learnable rendering.
    assert world.oov_token not in rp.frozen_token_ids


def test_render_ood_missing_from_table(world):
    empty = NameEmbeddingTable(world.config.embed_dim)
    with pytest.raises(MissingNameEmbeddingError):
        render_prompt(world.canonical_template, world.concept(world.ood_ids[0]), empty)


def test_render_reflects_parameter_updates(world, table):
    concept = world.concept(world.ood_ids[0])
    rp = render_prompt(world.canonical_template, concept, table)
    before = rp.target[0].data.copy()
    table.vectors(concept.id)[0].data += 0.25  # simulated optimizer step
    after = render_prompt(world.canonical_template, concept, table)
    assert not np.array_equal(after.target[0].data, before)


@pytest.mark.parametrize(
    "tokens, target",
    [((0, -2, NAME_SLOT), (5,)), ((0, 1, NAME_SLOT), (-2,)), ((0, NAME_SLOT), (64,))],
)
def test_embed_rejects_token_ids_outside_vocabulary(world, table, tokens, target):
    agent = NameAgent({}, [], world.canonical_template, table, world.vocab)
    with pytest.raises(UnknownTokenError):
        agent.embed(RenderedPrompt(0, "t", "native", tokens, target))


def test_training_rejects_negative_template_token():
    # A template token of -2 (say, from a hand-edited world snapshot) must not
    # silently embed vocab[-2] during training.
    world = build_world(SMALL)
    world.templates = [
        PromptTemplate(t.template_id, (-2,) + t.tokens, t.category_affinity)
        for t in world.templates
    ]
    session = TrainingSession(world, SessionSettings(), seed=0)
    shots = {cid: world.sample_images(cid, 2, seed=3) for cid in world.ood_ids}
    with pytest.raises(UnknownTokenError, match="-2"):
        session.train(shots, epochs=1, lr=1e-3)


def test_exchange_k0_native_only(world, table):
    concept = world.concept(world.ood_ids[0])
    aug = context_exchange_augment(concept, world.templates, 0, seed=7, table=table)
    assert len(aug.entries) == 1
    assert aug.entries[0][2] == "native"


def test_exchange_deterministic_under_seed(world, table):
    concept = world.concept(world.ood_ids[1])
    a = context_exchange_augment(concept, world.templates, 2, seed=3, table=table)
    b = context_exchange_augment(concept, world.templates, 2, seed=3, table=table)
    assert [e[0] for e in a.entries] == [e[0] for e in b.entries]


def test_exchange_entries_have_foreign_affinity(world, table):
    concept = world.concept(world.ood_ids[2])
    by_id = {t.template_id: t for t in world.templates}
    aug = context_exchange_augment(concept, world.templates, 4, seed=5, table=table)
    exchanged = [e for e in aug.entries if e[2] == "exchanged"]
    assert len(exchanged) == 4
    for tid, _, _ in exchanged:
        assert by_id[tid].category_affinity != concept.family


def test_exchange_insufficient_foreign_templates(world, table):
    concept = world.concept(world.ood_ids[0])
    native_only = [t for t in world.templates if t.category_affinity == concept.family]
    with pytest.raises(InsufficientTemplatesError) as exc:
        context_exchange_augment(concept, native_only, 2, seed=0, table=table)
    assert "0" in str(exc.value)


def test_augmented_set_requires_native():
    rp = render_prompt(
        PromptTemplate("x_0", (5, NAME_SLOT), "x"),
        type("C", (), {"id": 9, "split": "seen", "name_token": 6, "family": "y"})(),
        None,
    )
    with pytest.raises(ValueError):
        AugmentedPromptSet(9, ((("x_0"), rp, "exchanged"),))


def test_template_bank_shape():
    rng = np.random.default_rng(0)
    canonical, bank = build_template_bank(("a", "b"), 10, rng, per_family=8)
    assert canonical.category_affinity == "shared"
    assert len(bank) == 16
    assert all(t.tokens.count(NAME_SLOT) == 1 for t in bank)


def test_checkpoint_roundtrip(world, table, tmp_path):
    path = tmp_path / "names.bin"
    save_name_table(table, path, world_seed=world.config.seed)
    loaded, seed = load_name_table(path)
    assert seed == world.config.seed
    assert loaded.concept_ids() == table.concept_ids()
    for cid in table.concept_ids():
        for a, b in zip(table.vectors(cid), loaded.vectors(cid)):
            assert a.data.tobytes() == b.data.tobytes()
            assert b.requires_grad


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_name_table(path)
