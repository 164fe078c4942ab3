import math

import numpy as np
import pytest

from namelearn.autodiff import DomainError, ShapeError, Tape, Tensor, backward, grad_check
from namelearn.coordinator import (
    Adam,
    CoordinatorParams,
    DegenerateWeightsError,
    LossBreakdown,
    NanGradientError,
    classification_loss,
    contrastive_loss,
    effective_temperature,
    loss_weights,
    similarity_matrix,
    total_loss,
)
from namelearn.settings import SessionSettings


# ---------------------------------------------------------------------------
# Independent oracles

def naive_contrastive(s: np.ndarray, y, tau: float) -> float:
    """Per-element double loop over both softmax directions."""
    n = len(s)
    total = 0.0
    for i in range(n):
        den_row = sum(math.exp(s[i][j] / tau) for j in range(n))
        total += math.log(math.exp(s[i][y[i]] / tau) / den_row)
        den_col = sum(math.exp(s[j][i] / tau) for j in range(n))
        total += math.log(math.exp(s[y[i]][i] / tau) / den_col)
    return -total / (2 * n)


def naive_cross_entropy(logits: np.ndarray, y) -> float:
    """Scalar-by-scalar softmax cross-entropy."""
    total = 0.0
    for i in range(len(logits)):
        den = sum(math.exp(v) for v in logits[i])
        total += math.log(math.exp(logits[i][y[i]]) / den)
    return -total / len(logits)


# ---------------------------------------------------------------------------
# Temperature

def test_effective_temperature_clips_upper():
    assert effective_temperature(Tensor(np.asarray(3.0))).item() == 2.0


def test_effective_temperature_clips_lower():
    assert effective_temperature(Tensor(np.asarray(0.1))).item() == 0.5


def test_effective_temperature_interior():
    assert effective_temperature(Tensor(np.asarray(1.0))).item() == 1.0


def test_effective_temperature_gradient_band():
    for raw, expected in [(1.3, 1.0), (2.5, 0.0), (0.2, 0.0)]:
        t = Tensor(np.asarray(raw), requires_grad=True)
        with Tape() as tape:
            out = effective_temperature(t)
        backward(tape, out)
        assert t.grad == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Similarity

def test_similarity_identity_case():
    img = Tensor(np.eye(2))
    s = similarity_matrix(img, img)
    assert np.allclose(s.data, np.eye(2), atol=1e-12)


def test_similarity_hand_case():
    img = Tensor([[1.0, 0.0], [0.0, 1.0]])
    txt = Tensor([[0.6, 0.8], [1.0, 0.0]])
    s = similarity_matrix(img, txt)
    assert np.allclose(s.data, [[0.6, 1.0], [0.8, 0.0]], atol=1e-12)


def test_similarity_transpose_of_swapped_args():
    rng = np.random.default_rng(0)
    a, b = Tensor(rng.normal(size=(3, 5))), Tensor(rng.normal(size=(4, 5)))
    s = similarity_matrix(a, b)
    st = similarity_matrix(b, a)
    assert np.allclose(s.data, st.data.T, atol=1e-12)


def test_similarity_rejects_dim_mismatch():
    with pytest.raises(ShapeError):
        similarity_matrix(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))


def test_row_normalization_makes_argmax_scale_invariant():
    rng = np.random.default_rng(1)
    img = Tensor(rng.normal(size=(6, 8)))
    txt = Tensor(rng.normal(size=(6, 8)))
    base = similarity_matrix(img, txt).data
    scaled = similarity_matrix(Tensor(img.data * 37.5), txt).data
    assert np.array_equal(np.argmax(base, axis=1), np.argmax(scaled, axis=1))
    assert np.allclose(base, scaled, atol=1e-12)


# ---------------------------------------------------------------------------
# Contrastive loss

def test_contrastive_identity_two_pairs():
    s = Tensor(np.eye(2))
    value = contrastive_loss(s, [0, 1], 1.0).item()
    assert value == pytest.approx(naive_contrastive(np.eye(2), [0, 1], 1.0), abs=1e-12)
    assert value == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-9)


def test_contrastive_single_pair_is_zero():
    assert contrastive_loss(Tensor([[0.37]]), [0], 1.0).item() == pytest.approx(0.0, abs=1e-12)


def test_contrastive_uniform_similarities_give_log_n():
    for n in (2, 5, 9):
        s = Tensor(np.full((n, n), 0.42))
        value = contrastive_loss(s, list(range(n)), 1.3).item()
        assert value == pytest.approx(math.log(n), abs=1e-9)


def test_contrastive_rejects_empty_batch():
    with pytest.raises(ShapeError):
        contrastive_loss(Tensor(np.zeros((0, 0))), [], 1.0)


def test_contrastive_rejects_bad_indices():
    with pytest.raises(DomainError):
        contrastive_loss(Tensor(np.eye(2)), [0, 2], 1.0)


def test_contrastive_rejects_out_of_band_tau():
    with pytest.raises(DomainError):
        contrastive_loss(Tensor(np.eye(2)), [0, 1], 0.1)


@pytest.mark.parametrize("seed", range(100))
def test_contrastive_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 17))
    s = rng.normal(scale=2.0, size=(n, n))
    y = rng.permutation(n)
    tau = float(rng.uniform(0.5, 2.0))
    ours = contrastive_loss(Tensor(s), y, tau).item()
    assert ours == pytest.approx(naive_contrastive(s, y, tau), abs=1e-9)
    assert ours >= 0.0 or ours == pytest.approx(0.0, abs=1e-12)


def test_contrastive_invariant_under_batch_permutation():
    rng = np.random.default_rng(7)
    n = 8
    img = rng.normal(size=(n, 5))
    txt = rng.normal(size=(n, 5))
    y = np.arange(n)
    base = contrastive_loss(similarity_matrix(Tensor(img), Tensor(txt)), y, 1.0).item()
    perm = rng.permutation(n)
    # Permute images and texts together; match indices follow the text rows.
    inv = np.argsort(perm)
    permuted = contrastive_loss(
        similarity_matrix(Tensor(img[perm]), Tensor(txt[perm])), inv[y[perm]], 1.0
    ).item()
    assert permuted == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# Classification loss

def test_classification_hand_case():
    feats = Tensor(np.eye(1))
    w = Tensor(np.asarray([[2.0, 0.0, 0.0]]))
    value = classification_loss(feats, w, [0]).item()
    assert value == pytest.approx(math.log(math.exp(2.0) + 2.0) - 2.0, abs=1e-12)


def test_classification_uniform_logits_give_log_c():
    feats = Tensor(np.zeros((4, 3)))
    w = Tensor(np.zeros((3, 5)))
    assert classification_loss(feats, w, [0, 1, 2, 3]).item() == pytest.approx(
        math.log(5), abs=1e-12
    )


def test_classification_margin_limit_goes_to_zero():
    feats = Tensor(np.eye(2))
    w = Tensor(np.asarray([[60.0, 0.0], [0.0, 60.0]]))
    assert classification_loss(feats, w, [0, 1]).item() == pytest.approx(0.0, abs=1e-12)


def test_classification_rejects_label_out_of_range():
    with pytest.raises(DomainError):
        classification_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), [0, 4])


@pytest.mark.parametrize("seed", range(30))
def test_classification_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    n, d, c = int(rng.integers(1, 9)), 6, int(rng.integers(2, 7))
    feats = rng.normal(size=(n, d))
    w = rng.normal(size=(d, c))
    y = rng.integers(0, c, size=n)
    ours = classification_loss(Tensor(feats), Tensor(w), y).item()
    assert ours == pytest.approx(naive_cross_entropy(feats @ w, y), abs=1e-9)


# ---------------------------------------------------------------------------
# Dynamic loss balancing

def test_loss_weights_unit_params():
    w_con, w_cls = loss_weights(Tensor(np.asarray(1.0)), Tensor(np.asarray(1.0)))
    assert w_con.item() == pytest.approx(1.0 / 2.0)
    assert w_cls.item() == pytest.approx(1.0 / 2.0)


def test_loss_weights_clipped_numerators():
    w_con, w_cls = loss_weights(Tensor(np.asarray(3.0)), Tensor(np.asarray(0.05)))
    assert w_con.item() == pytest.approx(2.0 / 3.05)
    assert w_cls.item() == pytest.approx(0.1 / 3.05)


def test_loss_weights_boundary_params():
    w_con, w_cls = loss_weights(Tensor(np.asarray(0.5)), Tensor(np.asarray(0.5)))
    assert w_con.item() == pytest.approx(0.5)
    assert w_cls.item() == pytest.approx(0.5)


def test_loss_weights_rejects_degenerate_denominator():
    with pytest.raises(DegenerateWeightsError):
        loss_weights(Tensor(np.asarray(1.0)), Tensor(np.asarray(-1.0)))


def test_loss_breakdown_invariant_enforced():
    with pytest.raises(ValueError):
        LossBreakdown(
            l_con=1.0, l_cls=1.0, w_con=0.5, w_cls=0.5, tau=1.0,
            total=2.0, w_con_num=1.0, w_cls_num=0.5,
        )


# ---------------------------------------------------------------------------
# Total loss

def _synthetic_round(rng, n=4, d=6, n_classes=3):
    img = Tensor(rng.normal(size=(n, d)))
    txt = Tensor(rng.normal(size=(n, d)), requires_grad=True, name="txt")
    y = np.arange(n)
    labels = rng.integers(0, n_classes, size=n)
    params = CoordinatorParams(d, n_classes)
    return img, txt, y, labels, params


def test_total_loss_weighted_sum():
    rng = np.random.default_rng(0)
    img, txt, y, labels, params = _synthetic_round(rng)
    total, bd = total_loss(img, txt, y, labels, params)
    assert bd.total == pytest.approx(bd.w_con * bd.l_con + bd.w_cls * bd.l_cls, abs=1e-15)
    assert total.item() == bd.total


def test_total_loss_fixed_weights_when_balancing_disabled():
    rng = np.random.default_rng(3)
    img, txt, y, labels, params = _synthetic_round(rng)
    settings = SessionSettings(disable_dynamic_balancing=True)
    _, bd = total_loss(img, txt, y, labels, params, settings)
    assert (bd.w_con, bd.w_cls) == (0.5, 0.5)
    # The temperature still trains; the two weights do not.
    trained = [params.tau_param, params.w_cls_head]
    assert [id(p) for p in params.parameters(settings)] == [id(p) for p in trained]


def test_coordinator_dynamics_off_fixes_tau_and_weights():
    rng = np.random.default_rng(6)
    img, txt, y, labels, params = _synthetic_round(rng)
    full = [params.tau_param, params.w_con_param, params.w_cls_param, params.w_cls_head]
    assert [id(p) for p in params.parameters(SessionSettings())] == [id(p) for p in full]
    settings = SessionSettings(disable_coordinator_dynamics=True)
    assert [id(p) for p in params.parameters(settings)] == [id(params.w_cls_head)]
    # Values the learnables would give if they were read: tau 1.7, weights
    # 1.5 / 0.3 over 1.8.
    params.tau_param.data = np.asarray(1.7)
    params.w_con_param.data = np.asarray(1.5)
    params.w_cls_param.data = np.asarray(0.3)
    _, bd = total_loss(img, txt, y, labels, params, settings)
    assert (bd.w_con, bd.w_cls, bd.tau) == (0.5, 0.5, 1.0)


def test_total_loss_grad_check_on_synthetic_batch():
    rng = np.random.default_rng(4)
    img, txt, y, labels, params = _synthetic_round(rng)

    def f(txt_p, tau_p, wc_p, wl_p, head_p):
        total, _ = total_loss(img, txt_p, y, labels, params)
        return total

    params.w_cls_head.data = rng.normal(scale=0.1, size=params.w_cls_head.shape)
    err = grad_check(
        f,
        [txt, params.tau_param, params.w_con_param, params.w_cls_param, params.w_cls_head],
        eps=1e-5,
    )
    assert err < 1e-4


def test_training_sanity_loss_strictly_decreases():
    # Separable case: orthonormal image rows, learnable texts from noise.
    rng = np.random.default_rng(5)
    n = 4
    img = Tensor(np.eye(n))
    txt = Tensor(rng.normal(scale=0.3, size=(n, n)), requires_grad=True, name="txt")
    labels = np.arange(n)
    params = CoordinatorParams(n, n)
    opt = Adam([txt] + params.parameters(SessionSettings()), lr=1e-3)
    totals = []
    for _ in range(50):
        with Tape() as tape:
            total, bd = total_loss(img, txt, np.arange(n), labels, params)
        totals.append(bd.total)
        backward(tape, total)
        opt.step()
        opt.zero_grad()
    assert all(b < a for a, b in zip(totals, totals[1:]))


# ---------------------------------------------------------------------------
# Optimizer

def test_adam_zero_gradients_leave_parameters_unchanged():
    p = Tensor(np.asarray([1.0, 2.0]), requires_grad=True)
    opt = Adam([p], lr=1e-3)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adam_missing_gradient_leaves_parameter_unchanged():
    p = Tensor(np.asarray([1.0]), requires_grad=True)
    opt = Adam([p], lr=1e-3)
    opt.step()
    assert np.array_equal(p.data, [1.0])


def test_adam_first_step_magnitude():
    p = Tensor(np.asarray(5.0), requires_grad=True)
    opt = Adam([p], lr=1e-3)
    p.grad = np.asarray(1.0)
    opt.step()
    assert p.data == pytest.approx(5.0 - 1e-3, abs=1e-10)


def test_adam_rejects_lr_out_of_range():
    p = Tensor(np.asarray(0.0), requires_grad=True)
    with pytest.raises(ValueError):
        Adam([p], lr=0.5)


def test_adam_aborts_on_nan_gradient_naming_tensor():
    p = Tensor(np.asarray(0.0), requires_grad=True, name="culprit")
    opt = Adam([p], lr=1e-3)
    p.grad = np.asarray(np.nan)
    with pytest.raises(NanGradientError, match="culprit"):
        opt.step()
