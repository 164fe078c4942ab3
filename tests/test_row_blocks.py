"""Evaluation in row blocks (``autodiff.row_blocks``) against the whole batch.

The frozen encoder, the robust encoding and the two scorers (evaluation and
the Bayes oracle) each work through ``BLOCK_ROWS`` rows at a time.  At the
default block size their values are the whole-batch computation's bits; at
any block size, down to one row, every accuracy is the same; and a scorer's
memory is the test images plus its feature arrays (two for evaluation, one
for the oracle), whatever the size of the test set.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from namelearn import autodiff as ad
from namelearn import coordinator, image_agent
from namelearn.autodiff import Tensor
from namelearn.harness import parse_config_file
from namelearn.image_agent import ALPHA, frozen_visual_features, robust_features
from namelearn.session import SessionSettings, TrainingSession
from namelearn.world import WorldConfig, build_world

HARD_CONFIG = Path(__file__).parents[1] / "configs" / "hard.cfg"
WORLDS = {"default": WorldConfig(), "hard": parse_config_file(HARD_CONFIG).world}
# Difficulty thresholds that force a route: every score lies in (0, 1).
ROUTES = {"standard": 1.0, "robust": 0.0}


@pytest.fixture(scope="module", params=list(WORLDS))
def trained(request):
    """A world, its joint test split (200 images per class, as the sweeps
    use) and a session trained for 30 epochs on 4 shots per held-out class."""
    world = build_world(WORLDS[request.param])
    ids = world.seen_ids + world.ood_ids
    images, labels = world.sample_split(ids, per_class=200, seed=1)
    session = TrainingSession(world, SessionSettings(), seed=0)
    shots = {cid: world.sample_images(cid, 4, seed=3) for cid in world.ood_ids}
    session.train(shots, epochs=30, lr=1e-3)
    return world, ids, images, labels, session


def composed_robust(feats):
    return ad.add(ad.l2_normalize_rows(feats), ad.scale(ad.detach(feats), ALPHA))


@pytest.mark.parametrize("n", [1, 255, 511, 512, 513, 767, 768, 1025, 6000])
def test_row_blocks_cover_the_rows_with_no_short_block(n):
    blocks = ad.row_blocks(n)
    assert np.array_equal(np.concatenate([np.arange(n)[b] for b in blocks]), np.arange(n))
    sizes = [len(range(n)[b]) for b in blocks]
    assert len(sizes) == 1 or min(sizes) >= ad.BLOCK_ROWS // 2
    assert max(sizes) < 1.5 * ad.BLOCK_ROWS


def test_default_block_size_keeps_the_whole_batch_bits(trained, monkeypatch):
    world, ids, images, labels, session = trained
    # The split (whole blocks and a tail), and a remainder of one row, which
    # BLAS would multiply with another kernel were it a block of its own.
    for batch in (images[: 2 * ad.BLOCK_ROWS + 1], images):
        feats = frozen_visual_features(Tensor(batch), Tensor(world.gen_map))
        assert np.array_equal(feats.data, batch @ world.gen_map)
        robust = robust_features(feats)
        assert np.array_equal(robust.data, composed_robust(feats).data)

    # Evaluation's scores, block by block, are rows of the whole-batch matrix
    # (``robust`` now holds the whole split's robust features).
    monkeypatch.setattr(image_agent, "DIFFICULTY_THRESHOLD", ROUTES["robust"])
    blocks = []
    similarity = coordinator.similarity_matrix

    def recording(img, txt):
        blocks.append((img.data, txt.data, similarity(img, txt).data))
        return similarity(img, txt)

    monkeypatch.setattr(coordinator, "similarity_matrix", recording)
    session.evaluate(images, labels, ids)
    assert [len(img) for img, _, _ in blocks] == [
        len(range(len(images))[rows]) for rows in ad.row_blocks(len(images))
    ]
    assert np.array_equal(np.concatenate([img for img, _, _ in blocks]), robust.data)
    whole = similarity(robust, Tensor(blocks[0][1])).data
    start = 0
    for _, text, scores in blocks:
        assert np.array_equal(text, blocks[0][1])
        assert np.array_equal(scores, whole[start : start + len(scores)])
        start += len(scores)


@pytest.mark.parametrize("route", list(ROUTES))
def test_accuracy_does_not_depend_on_the_block_size(trained, route, monkeypatch):
    world, ids, images, labels, session = trained
    monkeypatch.setattr(image_agent, "DIFFICULTY_THRESHOLD", ROUTES[route])
    assert session.image_agent.encode(images)[2] == route
    scorers = (session.evaluate, world.bayes_oracle_accuracy)
    expected = [score(images, labels, ids) for score in scorers]
    assert set(expected[0]) == {"overall", "seen", "ood"}
    for rows in (1, 7, 50, len(images), 2 * len(images)):
        monkeypatch.setattr(ad, "BLOCK_ROWS", rows)
        assert [score(images, labels, ids) for score in scorers] == expected, rows


def test_robust_features_rejects_a_zero_norm_row_in_any_block(monkeypatch):
    monkeypatch.setattr(ad, "BLOCK_ROWS", 4)
    feats = np.ones((10, 3))
    feats[9] = 0.0  # in the last, partial block
    with pytest.raises(ad.DomainError, match="robust_features"):
        robust_features(Tensor(feats))


@pytest.mark.parametrize("scorer", ["evaluate", "bayes_oracle_accuracy"])
@pytest.mark.parametrize("n", [2048, 8192])
def test_scorer_memory_is_the_images_plus_its_feature_arrays(n, scorer, monkeypatch):
    # The images exist before tracing starts, so the traced peak is what
    # the scorer allocates: evaluate's standard and robust features (n x D
    # each), or the oracle's one feature array, and one block's scores and
    # unit rows, never an (n x classes) matrix.  The allowance covers the
    # per-image labels, masks and predictions.
    world = build_world(WorldConfig())
    ids = world.seen_ids + world.ood_ids
    images, labels = world.sample_split(ids, per_class=-(-n // len(ids)), seed=1)
    images, labels = images[:n], labels[:n]
    session = TrainingSession(world, SessionSettings(), seed=0)
    monkeypatch.setattr(image_agent, "DIFFICULTY_THRESHOLD", ROUTES["robust"])
    assert session.image_agent.encode(images[:10])[2] == "robust"
    score = getattr(session if scorer == "evaluate" else world, scorer)
    score(images[:10], labels[:10], ids)  # first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        score(images, labels, ids)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    arrays = 2 if scorer == "evaluate" else 1
    assert peak <= arrays * n * world.config.embed_dim * 8 + 0.5 * 2**20


def test_sample_split_holds_its_output_and_one_class_block():
    # Besides the output and the block, ``sample_images`` holds a generator
    # and the broadcast in-place add iterates through numpy's 64 KB buffer
    # (8,192 doubles), whatever the block's size.
    world = build_world(WorldConfig())
    ids = world.seen_ids + world.ood_ids
    per_class = 200
    world.sample_split(ids[:1], per_class, seed=1)  # first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        images, labels = world.sample_split(ids, per_class, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    block = per_class * world.config.image_dim * 8
    assert images.nbytes == len(ids) * block
    assert peak <= images.nbytes + labels.nbytes + block + 2**16 + 16 * 2**10
