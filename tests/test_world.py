import numpy as np
import pytest

from namelearn.autodiff import DomainError, Tensor
from namelearn.image_agent import frozen_visual_features
from namelearn.session import SessionSettings, TrainingSession
from namelearn.text_agent import encode_text
from namelearn.world import WorldBuildError, WorldConfig, build_world

SMALL = WorldConfig(
    embed_dim=16, image_dim=24, n_seen=4, n_ood=3, vocab_size=64, seed=3
)
HARD = WorldConfig(
    embed_dim=16, image_dim=32, n_seen=20, n_ood=20, noise_sigma=0.1, min_separation=0.2
)


@pytest.fixture(scope="module")
def world():
    return build_world(SMALL)


@pytest.fixture(scope="module")
def default_world():
    return build_world(WorldConfig())


@pytest.fixture(scope="module", params=[WorldConfig(), HARD], ids=["default", "hard"])
def paired_world(request):
    return build_world(request.param)


def frozen_model(w):
    """The frozen dual encoder: an untrained session whose held-out names
    render with the blind token and whose text side has no fusion."""
    settings = SessionSettings(disable_name_agent=True, disable_text_context=True)
    return TrainingSession(w, settings)


def visual_features(w, images):
    return frozen_visual_features(Tensor(images), Tensor(w.gen_map)).data


def text_mixer(w):
    return tuple(Tensor(a) for a in (w.mixer_in, w.mixer_in_bias, w.mixer_out, w.mixer_out_bias))


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


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_build_rejects_non_finite_separation(value):
    with pytest.raises(WorldBuildError, match="min_separation"):
        build_world(WorldConfig(min_separation=value))


def test_build_rejects_noise_overwhelming_separation():
    with pytest.raises(WorldBuildError, match="cosine spread"):
        build_world(WorldConfig(noise_sigma=0.5))


def test_mixer_is_identity_in_operating_region(world):
    rng = np.random.default_rng(0)
    m = rng.normal(size=world.config.embed_dim)
    m *= 2.0 / np.linalg.norm(m)
    assert np.allclose(encode_text(Tensor(m), text_mixer(world)).data, m, atol=1e-10)


def test_noiseless_images_encode_to_latent_exactly():
    w = build_world(
        WorldConfig(
            embed_dim=16, image_dim=24, n_seen=4, n_ood=3, vocab_size=64,
            noise_sigma=0.0, min_separation=0.3, seed=3,
        )
    )
    cid = w.ood_ids[0]
    x = w.sample_images(cid, 4, seed=0)
    feats = visual_features(w, x)
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
    feats = visual_features(world, images)
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


def test_zero_shot_rejects_empty_class_set(world):
    x, y = world.sample_split(world.seen_ids[:1], per_class=1, seed=0)
    with pytest.raises(ValueError, match="empty label space"):
        frozen_model(world).evaluate(x, y, [])


# Splits both scorers reject, each from 10 images of 5 classes: the
# arguments they are scored with, and the ``ValueError`` message.
BAD_SPLITS = {
    "one_label_for_every_image": (lambda x, y, ids: (x, y[:1], ids), "10 images need 10 labels"),
    "one_label_short": (lambda x, y, ids: (x, y[:-1], ids), "10 images need 10 labels"),
    "label_outside_the_space": (lambda x, y, ids: (x, y, ids[1:]), "outside the label space"),
    "empty_label_space": (lambda x, y, ids: (x, y, []), "empty label space"),
    # Labels equal to ids in the space, of a dtype that is not an integer's.
    "float_labels": (lambda x, y, ids: (x, y.astype(float), ids), "not integers"),
    "float_label_list": (lambda x, y, ids: (x, [float(v) for v in y], ids), "not integers"),
    "bool_labels": (lambda x, y, ids: (x, y.astype(bool), ids), "not integers"),
}


@pytest.mark.parametrize("case", list(BAD_SPLITS))
@pytest.mark.parametrize("scorer", ["evaluate", "bayes_oracle_accuracy"])
def test_both_scorers_reject_a_bad_split(world, scorer, case):
    ids = (world.seen_ids + world.ood_ids)[:5]
    assert ids[:2] == [0, 1]  # bool labels are in the space, as False and True
    images, labels = world.sample_split(ids, per_class=2, seed=0)
    score = getattr(frozen_model(world) if scorer == "evaluate" else world, scorer)
    args, message = BAD_SPLITS[case]
    with pytest.raises(ValueError, match=message):
        score(*args(images, labels, ids))


@pytest.mark.parametrize("scorer", ["evaluate", "bayes_oracle_accuracy"])
def test_both_scorers_reject_a_zero_image(default_world, scorer):
    # A zero image has no direction to score: its cosines would be NaN, and
    # argmax would pick the first class.
    w = default_world
    images, labels = w.sample_split(w.ood_ids, per_class=3, seed=1)
    images[0] = 0.0
    score = getattr(frozen_model(w) if scorer == "evaluate" else w, scorer)
    with pytest.raises(DomainError, match="row with norm <= 1e-12"):
        score(images, labels, w.ood_ids)


def test_blind_ood_zero_shot_is_uniform(paired_world):
    # All blind-token prompts encode identically, so every held-out class
    # scores the same, the first one wins every image, and accuracy on a
    # balanced set is exactly chance.
    w = paired_world
    session = frozen_model(w)
    text = session.class_text_features(w.ood_ids, context=None)
    assert np.array_equal(text, np.tile(text[0], (len(w.ood_ids), 1)))
    images, labels = w.sample_split(w.ood_ids, per_class=50, seed=4)
    chance = 1.0 / len(w.ood_ids)
    assert session.evaluate(images, labels, w.ood_ids) == {"ood": chance}
    # The first class takes every tie: its own images all score, the last's none.
    for cid, accuracy in ((w.ood_ids[0], 1.0), (w.ood_ids[-1], 0.0)):
        images, labels = w.sample_split([cid], per_class=10, seed=4)
        assert session.evaluate(images, labels, w.ood_ids) == {"ood": accuracy}


def test_seen_zero_shot_separable_case(paired_world):
    w = paired_world
    images, labels = w.sample_split(w.seen_ids, per_class=50, seed=5)
    assert frozen_model(w).evaluate(images, labels, w.seen_ids)["seen"] >= 0.95


def test_alignment_breakdown_reproduced(paired_world):
    # Discriminative visual features, uninformative held-out text features.
    w = paired_world
    session = frozen_model(w)
    ood_images, ood_labels = w.sample_split(w.ood_ids, per_class=100, seed=21)
    seen_images, seen_labels = w.sample_split(w.seen_ids, per_class=50, seed=22)
    chance = 1.0 / len(w.ood_ids)
    assert abs(session.evaluate(ood_images, ood_labels, w.ood_ids)["ood"] - chance) <= 0.03
    assert session.evaluate(seen_images, seen_labels, w.seen_ids)["seen"] >= 0.95
    assert w.bayes_oracle_accuracy(ood_images, ood_labels, w.ood_ids) >= 0.99


def _world_arrays(w):
    mixers = [w.mixer_in, w.mixer_in_bias, w.mixer_out, w.mixer_out_bias]
    return [w.gen_map, w.vocab, *mixers] + [c.latent for c in w.concepts]


@pytest.mark.parametrize("config", [SMALL], ids=["built"])
def test_world_arrays_are_read_only(config):
    w = build_world(config)
    for arr in _world_arrays(w):
        # Output bits depend on the layout a matmul reads (see build_world).
        assert arr.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            arr += 1.0
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0.0


def test_training_and_evaluation_run_on_a_read_only_world(world):
    before = [arr.tobytes() for arr in _world_arrays(world)]
    session = TrainingSession(world, SessionSettings(), seed=0)
    shots = {cid: world.sample_images(cid, 2, seed=5) for cid in world.ood_ids}
    session.train(shots, epochs=4, lr=1e-3)
    ids = world.seen_ids + world.ood_ids
    images, labels = world.sample_split(ids, per_class=5, seed=6)
    assert set(session.evaluate(images, labels, ids)) == {"seen", "ood"}
    assert [arr.tobytes() for arr in _world_arrays(world)] == before
