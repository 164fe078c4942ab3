from types import SimpleNamespace

import numpy as np
import pytest

from namelearn import autodiff as ad
from namelearn.autodiff import DomainError, ShapeError, Tape, Tensor, backward, grad_check
from namelearn.bus import Metadata
from namelearn.coordinator import contrastive_loss, similarity_matrix
from namelearn.image_agent import (
    DifficultyEstimator,
    ImageAgent,
    select_strategy,
)
from namelearn.settings import SessionSettings


@pytest.fixture()
def agent():
    rng = np.random.default_rng(0)
    frozen, _ = np.linalg.qr(rng.normal(size=(12, 8)))
    return ImageAgent(np.ascontiguousarray(frozen), SessionSettings(), np.random.default_rng(1))


def test_config_validation():
    with pytest.raises(ValueError):
        SessionSettings(alpha=1.5)
    with pytest.raises(ValueError):
        SessionSettings(difficulty_threshold=0.0)


def test_encode_standard_is_frozen_output(agent):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 12))
    out = agent.encode_standard(Tensor(x))
    assert np.array_equal(out.data, x @ agent.frozen_visual.data)
    assert out.shape == (5, 8)


def test_encode_standard_rejects_empty_batch(agent):
    with pytest.raises(ShapeError):
        agent.encode_standard(Tensor(np.zeros((0, 12))))


def test_encode_standard_rejects_dim_mismatch(agent):
    with pytest.raises(ShapeError):
        agent.encode_standard(Tensor(np.zeros((3, 7))))


def test_encode_robust_hand_case():
    # Identity encoder: features [[3, 4]] -> [[0.6, 0.8]] + 0.1 * [[3, 4]].
    agent = ImageAgent(np.eye(2), SessionSettings(alpha=0.1), np.random.default_rng(0))
    out = agent.encode_robust(Tensor([[3.0, 4.0]]))
    assert np.allclose(out.data, [[0.9, 1.2]], atol=1e-12)


def test_encode_robust_alpha_zero_reduces_to_normalization(agent):
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 12)))
    robust = agent.encode_robust(x, alpha=0.0)
    normalized = ad.l2_normalize_rows(agent.encode_standard(x))
    assert np.allclose(robust.data, normalized.data, atol=1e-12)


def test_encode_robust_rejects_zero_norm_feature():
    agent = ImageAgent(np.eye(2), SessionSettings(), np.random.default_rng(0))
    with pytest.raises(DomainError):
        agent.encode_robust(Tensor([[0.0, 0.0]]))


def test_encode_robust_residual_branch_blocks_gradient(agent):
    # Gradient of sum(robust) w.r.t. the raw batch equals the gradient of
    # sum(normalized term) alone: the residual branch contributes zero.
    # The normalized path itself is finite-difference verified, so equality
    # with it is the detach-blocking oracle.
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 12)), requires_grad=True)

    err = grad_check(
        lambda t: ad.sum_all(ad.l2_normalize_rows(agent.encode_standard(t))), [x], eps=1e-5
    )
    assert err < 1e-4

    with Tape() as tape:
        loss = ad.sum_all(agent.encode_robust(x))
    backward(tape, loss)
    grad_robust = x.grad.copy()
    with Tape() as tape:
        loss = ad.sum_all(ad.l2_normalize_rows(agent.encode_standard(x)))
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
def test_encode_is_the_round_routing(agent, threshold):
    agent.settings = SessionSettings(difficulty_threshold=threshold)
    images = np.random.default_rng(6).normal(size=(5, 12))
    features, difficulty, strategy = agent.encode(images)
    assert strategy == select_strategy(difficulty, threshold)
    encoder = agent.encode_standard if strategy == "standard" else agent.encode_robust
    assert np.array_equal(features.data, encoder(Tensor(images)).data)
    out = agent.step([], SimpleNamespace(images=images))
    (sent,) = [m.content for m in out if getattr(m.content, "label", "") == "image_features"]
    assert np.array_equal(sent.tensor.data, features.data)
    assert Metadata({"difficulty": repr(difficulty), "strategy": strategy}) in [
        m.content for m in out
    ]


@pytest.mark.parametrize("alpha", [0.1, 1.0])
def test_route_is_invisible_to_cosine_scores(agent, alpha):
    # The robust encoding is a positive per-row rescale of the standard one,
    # so the similarity matrix and the contrastive loss cannot tell them apart.
    rng = np.random.default_rng(8)
    images = Tensor(rng.normal(size=(6, 12)))
    text = Tensor(rng.normal(size=(6, 8)))
    s_standard = similarity_matrix(agent.encode_standard(images), text)
    s_robust = similarity_matrix(agent.encode_robust(images, alpha), text)
    assert np.max(np.abs(s_standard.data - s_robust.data)) <= 1e-12
    for tau in (0.5, 1.0, 2.0):
        l_standard = contrastive_loss(s_standard, np.arange(6), tau).item()
        l_robust = contrastive_loss(s_robust, np.arange(6), tau).item()
        assert abs(l_standard - l_robust) <= 1e-12


def test_robust_encode_runs_the_frozen_encoder_once(agent, monkeypatch):
    agent.settings = SessionSettings(difficulty_threshold=0.05)  # always robust
    calls = []
    matmul = ad.matmul

    def counting(a, b):
        calls.append(b is agent.frozen_visual)
        return matmul(a, b)

    monkeypatch.setattr(ad, "matmul", counting)
    _, _, strategy = agent.encode(np.random.default_rng(7).normal(size=(5, 12)))
    assert strategy == "robust"
    assert sum(calls) == 1


def test_select_strategy_rule_and_tiebreak():
    assert select_strategy(0.2, 0.5) == "standard"
    assert select_strategy(0.9, 0.5) == "robust"
    assert select_strategy(0.5, 0.5) == "robust"


def test_select_strategy_rejects_out_of_range():
    with pytest.raises(ValueError):
        select_strategy(1.0, 0.5)


def test_emit_visual_context_mean():
    out = ImageAgent.emit_visual_context(Tensor([[1.0, 1.0], [3.0, 3.0]]))
    assert np.array_equal(out.data, [2.0, 2.0])


def test_emit_visual_context_single_row():
    out = ImageAgent.emit_visual_context(Tensor([[0.5, -1.5, 2.0]]))
    assert np.array_equal(out.data, [0.5, -1.5, 2.0])


def test_emit_visual_context_permutation_invariant():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(6, 4))
    a = ImageAgent.emit_visual_context(Tensor(feats)).data
    b = ImageAgent.emit_visual_context(Tensor(feats[rng.permutation(6)])).data
    assert np.allclose(a, b, atol=1e-12)
