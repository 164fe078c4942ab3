import json
import re
import struct

import numpy as np
import pytest

from namelearn.world import (
    WorldBuildError,
    WorldConfig,
    build_world,
    load_world,
    save_world,
)

SMALL = WorldConfig(
    embed_dim=16, image_dim=24, n_seen=4, n_ood=3, vocab_size=64, seed=3
)


@pytest.fixture(scope="module")
def world():
    return build_world(SMALL)


@pytest.fixture(scope="module")
def default_world():
    return build_world(WorldConfig())


def test_build_is_deterministic():
    a = build_world(SMALL)
    b = build_world(SMALL)
    for ca, cb in zip(a.concepts, b.concepts):
        assert np.array_equal(ca.latent, cb.latent)
    assert np.array_equal(a.vocab, b.vocab)
    assert np.array_equal(a.gen_map, b.gen_map)


def test_build_self_check_seen_alignment(world):
    assert world.report["sc_min_prompt_cosine"] >= 0.9


def test_build_self_check_blindness(world):
    assert world.report["ood_blindness_spread"] == 0.0


def test_build_rejects_single_seen_concept():
    with pytest.raises(WorldBuildError):
        build_world(WorldConfig(n_seen=1))


def test_build_rejects_infeasible_separation():
    cfg = WorldConfig(
        embed_dim=3,
        image_dim=4,
        n_seen=40,
        n_ood=40,
        min_separation=1.2,
        vocab_size=256,
        noise_sigma=0.01,
    )
    with pytest.raises(WorldBuildError, match="lower the concept count"):
        build_world(cfg)


def test_build_rejects_noise_overwhelming_separation():
    with pytest.raises(WorldBuildError, match="cosine spread"):
        build_world(WorldConfig(noise_sigma=0.5))


def test_mixer_is_identity_in_operating_region(world):
    rng = np.random.default_rng(0)
    m = rng.normal(size=world.config.embed_dim)
    m *= 2.0 / np.linalg.norm(m)
    assert np.allclose(world.text_mixer(m), m, atol=1e-10)


def test_noiseless_images_encode_to_latent_exactly():
    w = build_world(
        WorldConfig(
            embed_dim=16, image_dim=24, n_seen=4, n_ood=3, vocab_size=64,
            noise_sigma=0.0, min_separation=0.3, seed=3,
        )
    )
    cid = w.ood_ids[0]
    x = w.sample_images(cid, 4, seed=0)
    feats = w.encode_images(x)
    assert np.allclose(feats, np.tile(w.concept(cid).latent, (4, 1)), atol=1e-12)


def test_sample_images_deterministic_and_distinct(world):
    cid = world.seen_ids[0]
    a = world.sample_images(cid, 16, seed=5)
    b = world.sample_images(cid, 16, seed=5)
    c = world.sample_images(cid, 16, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert len({row.tobytes() for row in a}) == 16


def test_sample_images_rejects_k0(world):
    with pytest.raises(ValueError):
        world.sample_images(world.seen_ids[0], 0, seed=0)


def test_nearest_latent_oracle_perfect_at_low_noise(world):
    # Brute-force oracle: classify by explicit cosine loop over prototypes.
    ids = world.seen_ids + world.ood_ids
    images, labels = world.sample_split(ids, per_class=20, seed=11)
    feats = world.encode_images(images)
    correct = 0
    for f, y in zip(feats, labels):
        sims = [f @ world.concept(c).latent / np.linalg.norm(f) for c in ids]
        correct += ids[int(np.argmax(sims))] == y
    assert correct / len(labels) == 1.0
    assert world.bayes_oracle_accuracy(images, labels, ids) == 1.0


def test_bayes_oracle_noise_floor(world):
    # Drown the signal manually; nearest-latent falls to chance.
    ids = world.seen_ids + world.ood_ids
    images, labels = world.sample_split(ids, per_class=60, seed=13)
    rng = np.random.default_rng(0)
    noisy = images + rng.normal(scale=50.0, size=images.shape)
    acc = world.bayes_oracle_accuracy(noisy, labels, ids)
    assert abs(acc - 1.0 / len(ids)) < 0.08


def test_default_world_bayes_ceiling(default_world):
    ids = default_world.seen_ids + default_world.ood_ids
    images, labels = default_world.sample_split(ids, per_class=334, seed=17)
    assert default_world.bayes_oracle_accuracy(images, labels, ids) >= 0.99


def test_zero_shot_single_class_probability_one(world):
    cid = world.seen_ids[0]
    x = world.sample_images(cid, 3, seed=1)
    probs = world.zero_shot_probs(x, [cid])
    assert np.allclose(probs, 1.0, atol=1e-10)


def test_zero_shot_probs_sum_to_one(world):
    ids = world.seen_ids + world.ood_ids
    x = world.sample_images(ids[0], 5, seed=2)
    probs = world.zero_shot_probs(x, ids)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-10)


def test_zero_shot_rejects_empty_class_set(world):
    x = world.sample_images(world.seen_ids[0], 1, seed=0)
    with pytest.raises(ValueError):
        world.zero_shot_probs(x, [])


def test_blind_ood_zero_shot_is_uniform(world):
    # All blind-token prompts encode identically, so probabilities are exactly
    # uniform and accuracy equals first-class chance on a balanced set.
    ids = world.ood_ids
    images, labels = world.sample_split(ids, per_class=50, seed=4)
    probs = world.zero_shot_probs(images, ids)
    assert np.allclose(probs, 1.0 / len(ids), atol=1e-10)
    acc = world.zero_shot_accuracy(images, labels, ids)
    assert abs(acc - 1.0 / len(ids)) <= 0.03


def test_seen_zero_shot_separable_case(world):
    ids = world.seen_ids
    images, labels = world.sample_split(ids, per_class=50, seed=5)
    assert world.zero_shot_accuracy(images, labels, ids) >= 0.95


def test_alignment_breakdown_reproduced(default_world):
    # Discriminative visual features, uninformative held-out text features.
    w = default_world
    ood_images, ood_labels = w.sample_split(w.ood_ids, per_class=100, seed=21)
    seen_images, seen_labels = w.sample_split(w.seen_ids, per_class=50, seed=22)
    chance = 1.0 / len(w.ood_ids)
    assert abs(w.zero_shot_accuracy(ood_images, ood_labels, w.ood_ids) - chance) <= 0.03
    assert w.zero_shot_accuracy(seen_images, seen_labels, w.seen_ids) >= 0.95
    assert w.bayes_oracle_accuracy(ood_images, ood_labels, w.ood_ids) >= 0.99


def test_snapshot_roundtrip_bit_identical(world, tmp_path):
    path = tmp_path / "world.bin"
    save_world(world, path)
    loaded = load_world(path)
    assert loaded.config == world.config
    assert np.array_equal(loaded.vocab, world.vocab)
    assert np.array_equal(loaded.gen_map, world.gen_map)
    for a, b in zip(world.concepts, loaded.concepts):
        assert a.id == b.id and a.split == b.split and a.name_token == b.name_token
        assert np.array_equal(a.latent, b.latent)
    assert [t.template_id for t in loaded.templates] == [
        t.template_id for t in world.templates
    ]
    # Loaded world behaves identically.
    x = world.sample_images(world.seen_ids[0], 3, seed=9)
    assert np.array_equal(
        world.zero_shot_probs(x, world.seen_ids), loaded.zero_shot_probs(x, world.seen_ids)
    )


@pytest.mark.parametrize(
    "damage",
    [
        lambda raw: raw + bytes(16),
        lambda raw: raw[:-40],
        lambda raw: raw[:40],  # inside the JSON header
        lambda raw: raw[:12],  # inside the header length
    ],
    ids=["16_bytes_appended", "40_bytes_cut", "cut_in_header", "cut_in_header_length"],
)
def test_snapshot_of_wrong_length_names_the_file(world, tmp_path, damage):
    path = tmp_path / "world.bin"
    save_world(world, path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_world(path)


def test_snapshot_with_unknown_config_key_names_path_and_key(world, tmp_path):
    # The header a snapshot had while `gamma` was still a WorldConfig field.
    path = tmp_path / "world.bin"
    save_world(world, path)
    raw = path.read_bytes()
    magic = b"NLWORLD/1\n"
    start = len(magic) + 4
    end = start + struct.unpack_from("<I", raw, len(magic))[0]
    header = json.loads(raw[start:end])
    header["config"]["gamma"] = 0.07
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(magic + struct.pack("<I", len(blob)) + blob + raw[end:])
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*'gamma'.*world build"):
        load_world(path)


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"garbage")
    with pytest.raises(ValueError):
        load_world(path)
