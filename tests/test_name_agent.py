import json
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from namelearn.name_agent import (
    NAME_SLOT,
    InsufficientTemplatesError,
    MissingNameEmbeddingError,
    NameAgent,
    NameEmbeddingTable,
    PromptTemplate,
    UnknownTokenError,
    build_template_bank,
    context_exchange_augment,
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
    # One random vector per held-out name.
    shape = (len(world.ood_ids), world.config.embed_dim)
    return NameEmbeddingTable(world.ood_ids, np.random.default_rng(0).normal(size=shape))


def test_template_requires_exactly_one_slot():
    with pytest.raises(ValueError):
        PromptTemplate("bad", (1, 2, 3), "family_0")
    with pytest.raises(ValueError):
        PromptTemplate("bad", (NAME_SLOT, 2, NAME_SLOT), "family_0")


def test_init_vocab_mean_matches_mean_oracle(world):
    # A session starts each held-out name as one vector at the mean of the
    # frozen vocabulary rows, the reserved blind row excluded.
    table = TrainingSession(world, SessionSettings(), seed=0).table
    expected = np.delete(world.vocab, world.oov_token, axis=0).mean(axis=0)
    assert table.concept_ids == sorted(world.ood_ids)
    assert table.weight.requires_grad
    assert table.weight.shape == (len(world.ood_ids), world.config.embed_dim)
    for cid in world.ood_ids:
        assert np.array_equal(table.weight.data[table.row(cid)], expected)


@pytest.mark.parametrize(
    "ids, shape", [([3, 7, 5], (3, 2)), ([3, 3], (2, 2)), ([3, 7], (3, 2)), ([3, 7], (2,))]
)
def test_table_needs_ascending_ids_and_one_row_each(ids, shape):
    with pytest.raises(ValueError):
        NameEmbeddingTable(ids, np.zeros(shape))


def test_render_seen_concept_uses_frozen_token(world, table):
    concept = world.concept(world.seen_ids[0])
    rp = render_prompt(world.canonical_template, concept, table)
    assert rp.name_token == concept.name_token
    assert rp.name_row is None
    assert concept.name_token in rp.frozen_token_ids
    assert len(rp.frozen_token_ids) == len(world.canonical_template.tokens)


def test_render_ood_splice_arithmetic(world, table):
    concept = world.concept(world.ood_ids[0])
    rp = render_prompt(world.canonical_template, concept, table)
    assert rp.name_token is None
    assert rp.name_row == table.row(concept.id) == 0
    # Table rows are never mistaken for vocabulary ids.
    assert rp.frozen_token_ids == tuple(
        t for t in world.canonical_template.tokens if t != NAME_SLOT
    )
    # The blind frozen token never appears in a learnable rendering.
    assert world.oov_token not in rp.frozen_token_ids


def test_render_ood_missing_from_table(world):
    empty = NameEmbeddingTable([], np.zeros((0, world.config.embed_dim)))
    with pytest.raises(MissingNameEmbeddingError):
        render_prompt(world.canonical_template, world.concept(world.ood_ids[0]), empty)


def test_render_reflects_parameter_updates(world, table):
    concept = world.concept(world.ood_ids[0])
    agent = NameAgent(
        {concept.id: concept}, [], world.canonical_template, table, world.vocab
    )
    pair = [(concept.id, world.canonical_template.template_id)]
    before = agent.pool(pair).data.copy()
    table.weight.data[table.row(concept.id)] += 0.25  # simulated optimizer step
    assert not np.array_equal(agent.pool(pair).data, before)


@pytest.mark.parametrize(
    "tokens, target",
    [((0, -2, NAME_SLOT), (5,)), ((0, 1, NAME_SLOT), (-2,)), ((0, NAME_SLOT), (64,))],
)
def test_embed_rejects_token_ids_outside_vocabulary(world, table, tokens, target):
    (name_token,) = target
    concept = SimpleNamespace(id=0, split="seen", name_token=name_token, family="x")
    template = PromptTemplate("t", tokens, "x")
    agent = NameAgent({0: concept}, [template], world.canonical_template, table, world.vocab)
    with pytest.raises(UnknownTokenError):
        agent.pool([(0, "t")])


def test_pool_rows_follow_the_plan(world, table):
    # One row per pair in plan order, each distinct pair rendered once.
    agent = NameAgent(
        {c.id: c for c in world.concepts}, world.templates, world.canonical_template,
        table, world.vocab,
    )
    canonical = world.canonical_template.template_id
    a, b = world.ood_ids[0], world.seen_ids[0]
    rows = agent.pool([(a, canonical), (b, canonical), (a, canonical)]).data
    assert np.array_equal(rows[0], rows[2])
    assert np.array_equal(rows[1], agent.pool([(b, canonical)]).data[0])


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


def test_exchange_k0_native_only(world):
    concept = world.concept(world.ood_ids[0])
    by_id = {t.template_id: t for t in world.templates}
    (tid,) = context_exchange_augment(concept, world.templates, 0, seed=7)
    assert by_id[tid].category_affinity == concept.family


def test_exchange_deterministic_under_seed(world):
    concept = world.concept(world.ood_ids[1])
    a = context_exchange_augment(concept, world.templates, 2, seed=3)
    b = context_exchange_augment(concept, world.templates, 2, seed=3)
    assert a == b


def test_exchange_entries_have_foreign_affinity(world):
    concept = world.concept(world.ood_ids[2])
    by_id = {t.template_id: t for t in world.templates}
    native, *exchanged = context_exchange_augment(concept, world.templates, 4, seed=5)
    assert by_id[native].category_affinity == concept.family
    assert len(exchanged) == 4
    assert len(set(exchanged)) == 4  # drawn without replacement
    for tid in exchanged:
        assert by_id[tid].category_affinity not in (concept.family, "shared")


def test_exchange_insufficient_foreign_templates(world):
    concept = world.concept(world.ood_ids[0])
    native = [t for t in world.templates if t.category_affinity == concept.family]
    foreign = [t for t in world.templates if t.category_affinity != concept.family]
    for kept, message in ((native, "only 0 available"), (foreign, "no native templates")):
        with pytest.raises(InsufficientTemplatesError, match=message):
            context_exchange_augment(concept, kept, 2, seed=0)


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
    assert loaded.concept_ids == table.concept_ids
    assert loaded.index == table.index
    assert loaded.weight.data.tobytes() == table.weight.data.tobytes()
    assert loaded.weight.requires_grad


def test_checkpoint_byte_layout(tmp_path):
    # Magic, uint32-LE header length, JSON header, then row-major '<f8' values
    # in ascending concept id order, one vector per concept.
    drawn = np.random.default_rng(4).normal(scale=0.02, size=(2, 3))  # 3's row, then 7's
    table = NameEmbeddingTable([3, 7], drawn)
    path = tmp_path / "names.bin"
    save_name_table(table, path, world_seed=11)
    raw = path.read_bytes()
    magic = b"NLNAMES/1\n"
    assert raw.startswith(magic)
    (hlen,) = struct.unpack_from("<I", raw, len(magic))
    start = len(magic) + 4
    header = json.loads(raw[start : start + hlen])
    assert header == {
        "concepts": [{"id": 3, "n_vectors": 1}, {"id": 7, "n_vectors": 1}],
        "embed_dim": 3,
        "world_seed": 11,
    }
    assert raw[start : start + hlen] == json.dumps(header, sort_keys=True).encode()
    body = drawn.astype("<f8").tobytes()
    assert raw[start + hlen :] == body


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_name_table(path)


@pytest.mark.parametrize(
    "damage",
    [
        lambda raw: raw + bytes(16),  # once loaded as a (2, 3) table
        lambda raw: raw[:-40],
        lambda raw: raw[:20],  # inside the JSON header
        lambda raw: raw[:12],  # inside the header length
    ],
    ids=["16_bytes_appended", "40_bytes_cut", "cut_in_header", "cut_in_header_length"],
)
def test_checkpoint_of_wrong_length_names_the_file(tmp_path, damage):
    path = tmp_path / "names.bin"
    save_name_table(NameEmbeddingTable([3, 7], np.ones((2, 3))), path, world_seed=0)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_name_table(path)


@pytest.mark.parametrize(
    "concepts",
    [
        [{"id": 3, "n_vectors": 2}],  # a block of two rows for one concept
        [{"id": 7, "n_vectors": 1}, {"id": 3, "n_vectors": 1}],  # ids not ascending
    ],
)
def test_checkpoint_rejects_blocks_and_unordered_ids(tmp_path, concepts):
    # Written by hand: the header says what the test needs, the body holds
    # two rows of three values either way.
    blob = json.dumps({"concepts": concepts, "embed_dim": 3, "world_seed": 0}).encode()
    body = np.random.default_rng(5).normal(size=(2, 3)).astype("<f8").tobytes()
    path = tmp_path / "names.bin"
    path.write_bytes(b"NLNAMES/1\n" + struct.pack("<I", len(blob)) + blob + body)
    with pytest.raises(ValueError):
        load_name_table(path)
