from types import SimpleNamespace

import numpy as np
import pytest

from namelearn import autodiff as ad
from namelearn import image_agent
from namelearn.autodiff import DomainError, ShapeError, Tape, Tensor, backward, grad_check
from namelearn.coordinator import contrastive_loss, similarity_matrix
from namelearn.image_agent import (
    DifficultyEstimator,
    ImageAgent,
    frozen_visual_features,
    robust_features,
    select_strategy,
)
from namelearn.settings import SessionSettings


@pytest.fixture()
def agent():
    rng = np.random.default_rng(0)
    frozen, _ = np.linalg.qr(rng.normal(size=(12, 8)))
    return ImageAgent(np.ascontiguousarray(frozen), SessionSettings(), np.random.default_rng(1))


def test_frozen_encoder_output(agent):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 12))
    out = frozen_visual_features(Tensor(x), agent.frozen_visual)
    assert np.array_equal(out.data, x @ agent.frozen_visual.data)
    assert out.shape == (5, 8)


def test_frozen_encoder_rejects_empty_batch(agent):
    with pytest.raises(ShapeError):
        frozen_visual_features(Tensor(np.zeros((0, 12))), agent.frozen_visual)


def test_frozen_encoder_rejects_dim_mismatch(agent):
    with pytest.raises(ShapeError):
        frozen_visual_features(Tensor(np.zeros((3, 7))), agent.frozen_visual)


def test_robust_features_hand_case():
    # Features [[3, 4]] -> [[0.6, 0.8]] + 0.1 * [[3, 4]].
    assert image_agent.ALPHA == 0.1
    out = robust_features(Tensor([[3.0, 4.0]]))
    assert np.allclose(out.data, [[0.9, 1.2]], atol=1e-12)


def test_robust_features_alpha_zero_reduces_to_normalization():
    x = Tensor(np.random.default_rng(3).normal(size=(4, 8)))
    robust = robust_features(x, alpha=0.0)
    assert np.allclose(robust.data, ad.l2_normalize_rows(x).data, atol=1e-12)


def test_robust_features_rejects_zero_norm_feature():
    with pytest.raises(DomainError):
        robust_features(Tensor([[0.0, 0.0]]))


def test_robust_features_residual_branch_blocks_gradient(agent):
    # Gradient of sum(robust) w.r.t. the raw batch equals the gradient of
    # sum(normalized term) alone: the residual branch contributes zero.
    # The normalized path itself is finite-difference verified, so equality
    # with it is the detach-blocking oracle.
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 12)), requires_grad=True)

    def standard(t):
        return frozen_visual_features(t, agent.frozen_visual)

    err = grad_check(lambda t: ad.sum_all(ad.l2_normalize_rows(standard(t))), [x], eps=1e-5)
    assert err < 1e-4

    with Tape() as tape:
        loss = ad.sum_all(robust_features(standard(x)))
    backward(tape, loss)
    grad_robust = x.grad.copy()
    with Tape() as tape:
        loss = ad.sum_all(ad.l2_normalize_rows(standard(x)))
    backward(tape, loss)
    assert np.array_equal(grad_robust, x.grad)


def test_difficulty_zero_parameters_give_half():
    est = DifficultyEstimator(4, 2, np.random.default_rng(0))
    for p in (est.w1, est.b1, est.w2, est.b2):
        p.data[...] = 0.0
    out = est.estimate(ad.mean_rows(Tensor(np.random.default_rng(1).normal(size=(5, 4)))))
    assert out.data == pytest.approx([0.5])


def test_difficulty_always_strictly_inside_unit_interval():
    est = DifficultyEstimator(6, 3, np.random.default_rng(2))
    for seed in range(10):
        rng = np.random.default_rng(seed)
        batch = Tensor(rng.normal(scale=10.0, size=(4, 6)))
        for features in (ad.mean_rows(batch), batch):
            d = est.estimate(features)
            assert np.all(d.data > 0.0) and np.all(d.data < 1.0)


def test_difficulty_hand_case():
    est = DifficultyEstimator(2, 1, np.random.default_rng(0))
    est.w1.data = np.array([[1.0], [0.0]])
    est.b1.data = np.array([0.0])
    est.w2.data = np.array([[2.0]])
    est.b2.data = np.array([0.0])
    out = est.estimate(Tensor([1.0, 5.0]))
    assert out.data == pytest.approx([1.0 / (1.0 + np.exp(-2.0))], abs=1e-12)


def test_difficulty_per_sample_shape():
    est = DifficultyEstimator(6, 3, np.random.default_rng(2))
    d = est.estimate(Tensor(np.random.default_rng(3).normal(size=(7, 6))))
    assert d.shape == (7, 1)


@pytest.mark.parametrize("threshold", [0.05, 0.95])
def test_encode_is_the_round_routing(agent, threshold, monkeypatch):
    monkeypatch.setattr(image_agent, "DIFFICULTY_THRESHOLD", threshold)
    images = np.random.default_rng(6).normal(size=(5, 12))
    features, difficulty, strategy = agent.encode(images)
    assert strategy == select_strategy(difficulty, threshold)
    standard = frozen_visual_features(Tensor(images), agent.frozen_visual)
    want = standard if strategy == "standard" else robust_features(standard)
    assert np.array_equal(features.data, want.data)
    sent = agent.step({}, SimpleNamespace(run={agent: agent.prepare(images)}))
    assert list(sent) == ["visual_context", "image_features"]
    assert np.array_equal(sent["image_features"].data, features.data)


def test_an_agent_without_estimation_builds_no_scorer_and_scores_neutral():
    # The neutral 0.5 routes robust (the threshold is inclusive), or standard
    # where the robust route is ablated too.
    frozen, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(12, 8)))
    images = np.random.default_rng(6).normal(size=(5, 12))
    for robust_off, route in ((False, "robust"), (True, "standard")):
        settings = SessionSettings(disable_difficulty=True, disable_image_agent_robust=robust_off)
        agent = ImageAgent(np.ascontiguousarray(frozen), settings, np.random.default_rng(1))
        assert agent.estimator is None
        assert agent.encode(images)[1:] == (0.5, route)


@pytest.mark.parametrize("alpha", [0.1, 1.0])
def test_route_is_invisible_to_cosine_scores(agent, alpha):
    # The robust encoding is a positive per-row rescale of the standard one,
    # so the similarity matrix and the contrastive loss cannot tell them apart.
    rng = np.random.default_rng(8)
    images = Tensor(rng.normal(size=(6, 12)))
    text = Tensor(rng.normal(size=(6, 8)))
    standard = frozen_visual_features(images, agent.frozen_visual)
    s_standard = similarity_matrix(standard, text)
    s_robust = similarity_matrix(robust_features(standard, alpha), text)
    assert np.max(np.abs(s_standard.data - s_robust.data)) <= 1e-12
    for tau in (0.5, 1.0, 2.0):
        l_standard = contrastive_loss(s_standard, np.arange(6), tau).item()
        l_robust = contrastive_loss(s_robust, np.arange(6), tau).item()
        assert abs(l_standard - l_robust) <= 1e-12


def test_robust_encode_runs_the_frozen_encoder_once(agent, monkeypatch):
    monkeypatch.setattr(image_agent, "DIFFICULTY_THRESHOLD", 0.05)  # always robust
    calls = []
    encoder = image_agent.frozen_visual_features

    def counting(images, weights):
        calls.append(weights is agent.frozen_visual)
        return encoder(images, weights)

    monkeypatch.setattr(image_agent, "frozen_visual_features", counting)
    _, _, strategy = agent.encode(np.random.default_rng(7).normal(size=(5, 12)))
    assert strategy == "robust"
    assert calls == [True]


def test_select_strategy_rule_and_tiebreak():
    assert select_strategy(0.2, 0.5) == "standard"
    assert select_strategy(0.9, 0.5) == "robust"
    assert select_strategy(0.5, 0.5) == "robust"


def test_select_strategy_rejects_out_of_range():
    with pytest.raises(ValueError):
        select_strategy(1.0, 0.5)


def prepared_context(images) -> np.ndarray:
    """``prepare``'s visual context on an identity encoder that routes every
    batch standard, so that the features are the images."""
    settings = SessionSettings(disable_image_agent_robust=True)
    agent = ImageAgent(np.eye(np.shape(images)[1]), settings, np.random.default_rng(0))
    return agent.prepare(np.asarray(images, dtype=float))["visual_context"].data


def test_prepare_sends_the_mean_feature_row_as_context():
    assert np.array_equal(prepared_context([[1.0, 1.0], [3.0, 3.0]]), [2.0, 2.0])


def test_prepare_context_of_a_single_row_is_the_row():
    assert np.array_equal(prepared_context([[0.5, -1.5, 2.0]]), [0.5, -1.5, 2.0])


def test_prepare_context_is_permutation_invariant():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(6, 4))
    a = prepared_context(feats)
    b = prepared_context(feats[rng.permutation(6)])
    assert np.allclose(a, b, atol=1e-12)
