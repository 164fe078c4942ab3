import math

import numpy as np
import pytest

from namelearn import autodiff as ad
from namelearn.autodiff import DomainError, ShapeError, Tape, Tensor, backward, grad_check
from namelearn.coordinator import (
    TAU_BAND,
    Adam,
    CoordinatorParams,
    DegenerateWeightsError,
    LossBreakdown,
    MissingGradientError,
    NanGradientError,
    check_matches,
    classification_loss,
    contrastive_loss,
    effective_temperature,
    loss_weights,
    similarity_matrix,
    total_loss,
    weighted_total,
)
from namelearn.settings import SessionSettings


# ---------------------------------------------------------------------------
# Independent oracles

def naive_contrastive(s: np.ndarray, y, tau: float) -> float:
    """Per-element double loop over both softmax directions of the expanded
    (N, N) matrix whose column j is s's column y[j], targets on the diagonal."""
    n = len(s)
    total = 0.0
    for i in range(n):
        den_row = sum(math.exp(s[i][y[j]] / tau) for j in range(n))
        total += math.log(math.exp(s[i][y[i]] / tau) / den_row)
        den_col = sum(math.exp(s[j][y[i]] / tau) for j in range(n))
        total += math.log(math.exp(s[i][y[i]] / tau) / den_col)
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


def test_contrastive_rejects_negative_or_misshaped_indices():
    for y in ([-1, 1], [0, 1, 1], [[0, 1]]):
        with pytest.raises(DomainError):
            contrastive_loss(Tensor(np.eye(2)), y, 1.0)


# (N, U) scores against distinct texts, column u shared by bincount(y)[u] rows.

def _grouped_case(seed):
    rng = np.random.default_rng(seed)
    u = int(rng.integers(1, 9))
    n = u + int(rng.integers(0, 3 * u + 1))
    idx = np.concatenate([rng.permutation(u), rng.integers(0, u, size=n - u)])
    rng.shuffle(idx)  # every column used, most of them repeated
    g = rng.normal(scale=2.0, size=(n, u))
    tau = (TAU_BAND[0], TAU_BAND[1], 1.0, float(rng.uniform(*TAU_BAND)))[seed % 4]
    return g, idx, tau


@pytest.mark.parametrize("seed", range(16))
def test_grouped_contrastive_equals_expanded_square(seed):
    g, idx, tau = _grouped_case(seed)
    n, u = g.shape
    grouped = Tensor(g, requires_grad=True)
    tau_g = Tensor(np.asarray(tau), requires_grad=True)
    with Tape() as tape:
        loss_g = contrastive_loss(grouped, idx, tau_g)
    backward(tape, loss_g)
    # Expanded: column j is pair j's text, so pair i matches column i.
    square = Tensor(g[:, idx], requires_grad=True)
    tau_s = Tensor(np.asarray(tau), requires_grad=True)
    with Tape() as tape:
        loss_s = contrastive_loss(square, np.arange(n), tau_s)
    backward(tape, loss_s)
    assert abs(loss_g.item() - loss_s.item()) <= 1e-12
    assert abs(loss_g.item() - naive_contrastive(g[:, idx], np.arange(n), tau)) <= 1e-9
    # dL/dG[:, v] sums dL/dS over the square columns that repeat G's column v.
    grad_from_square = np.zeros((n, u))
    np.add.at(grad_from_square.T, idx, square.grad.T)
    assert np.max(np.abs(grouped.grad - grad_from_square)) <= 1e-12
    assert abs(float(tau_g.grad) - float(tau_s.grad)) <= 1e-12


def test_grouped_contrastive_keeps_the_square_checks():
    s = Tensor(np.random.default_rng(0).normal(size=(3, 2)))
    with pytest.raises(ShapeError):
        contrastive_loss(Tensor(np.ones(3)), [0, 1, 1], 1.0)
    with pytest.raises(ShapeError):
        contrastive_loss(Tensor(np.zeros((0, 2))), [], 1.0)
    for y in ([0, 1, 2], [-1, 0, 1], [0, 1]):
        with pytest.raises(DomainError, match="match indices"):
            contrastive_loss(s, y, 1.0)
    with pytest.raises(DomainError, match="tau"):
        contrastive_loss(s, [0, 1, 1], 0.1)


def test_grouped_contrastive_rejects_unused_column():
    s = Tensor(np.random.default_rng(1).normal(size=(3, 3)))
    with pytest.raises(DomainError, match="column 1 has no pair"):
        contrastive_loss(s, [0, 2, 2], 1.0)


# The closed-form op against the composed form it replaced, rebuilt here from
# per-row log-softmax, gathers and transposes on the tape.

def composed_contrastive(s, y, tau):
    n, u = s.shape
    y = np.asarray(y)
    log_m = np.log(np.bincount(y, minlength=u))
    st = ad.div(s, tau)
    per_image = ad.add(
        ad.pick_per_row(ad.log_softmax_rows(ad.add(st, Tensor(log_m))), y),
        Tensor(-log_m[y]),
    )
    per_text = ad.pick_per_row(ad.transpose(ad.log_softmax_rows(ad.transpose(st))), y)
    return ad.scale(ad.sum_all(ad.add(per_image, per_text)), -1.0 / (2.0 * n))


def _loss_and_grads(fn, s, y, tau):
    s_t = Tensor(s, requires_grad=True)
    tau_t = Tensor(np.asarray(tau), requires_grad=True)
    with Tape() as tape:
        loss = fn(s_t, y, tau_t)
    backward(tape, loss)
    return loss.item(), s_t.grad, tau_t.grad, len(tape)


def _closed_form_cases():
    # "square": N = U, one image per column, matched by a permutation;
    # "grouped": U < N, several images share a column.
    rng = np.random.default_rng(11)
    cases = [
        ("square N=1", np.asarray([[0.3]]), [0], 1.0),
        ("grouped N=1", np.asarray([[-0.7]]), [0], 2.0),
        ("grouped one text", rng.normal(size=(5, 1)), [0] * 5, 0.5),
    ]
    for tau in TAU_BAND:
        cases.append((f"square N=1 tau={tau}", np.asarray([[-0.4]]), [0], tau))
        cases.append((f"grouped N=1 tau={tau}", np.asarray([[0.9]]), [0], tau))
    for k, tau in enumerate((TAU_BAND[0], TAU_BAND[1], 1.3)):
        n = 6 + k
        y = rng.permutation(n)
        cases.append((f"square tau={tau}", rng.normal(scale=2.0, size=(n, n)), y, tau))
        idx = np.concatenate([np.arange(3), rng.integers(0, 3, size=n - 3)])
        rng.shuffle(idx)
        g = rng.normal(scale=2.0, size=(n, 3))
        cases.append((f"grouped tau={tau}", g, idx, tau))
    return cases


@pytest.mark.parametrize("case", _closed_form_cases(), ids=lambda c: c[0])
def test_contrastive_closed_form_matches_composed_form(case):
    _, s, y, tau = case
    value, ds, dtau, entries = _loss_and_grads(contrastive_loss, s, y, tau)
    ref_value, ref_ds, ref_dtau, _ = _loss_and_grads(composed_contrastive, s, y, tau)
    assert abs(value - ref_value) <= 1e-12
    assert np.max(np.abs(ds - ref_ds)) <= 1e-12
    assert dtau.shape == () and abs(float(dtau) - float(ref_dtau)) <= 1e-12
    assert entries == 1


@pytest.mark.parametrize("y", [[0, 1], [0, 1, 1]], ids=["square", "grouped"])
@pytest.mark.parametrize("far", ["row", "column"])
def test_contrastive_rejects_an_underflowing_softmax_sum(y, far):
    # s / tau spanning more than about 700 drives every exponential of one
    # row (or column) below the smallest normal float.
    s = np.zeros((len(y), 2))
    if far == "row":
        s[1] = -800.0
    else:
        s[:, 1] = -800.0
    with pytest.raises(DomainError, match="underflows"):
        contrastive_loss(Tensor(s), y, 1.0)
    contrastive_loss(Tensor(s / 4.0), y, 1.0)  # a span of 200 is fine


def test_contrastive_records_one_entry_and_passes_tau_gradient_through_clip():
    s = Tensor(np.random.default_rng(2).normal(size=(4, 4)), requires_grad=True)
    raw = Tensor(np.asarray(1.2), requires_grad=True)
    with Tape() as tape:
        loss = contrastive_loss(s, np.arange(4), effective_temperature(raw))
    assert len(tape) == 2  # the clip and the loss
    backward(tape, loss)
    assert raw.grad.shape == () and float(raw.grad) != 0.0


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


def test_classification_rejects_negative_label():
    with pytest.raises(DomainError):
        classification_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), [-1, 0])


@pytest.mark.parametrize("seed", range(30))
def test_classification_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    n, d, c = int(rng.integers(1, 9)), 6, int(rng.integers(2, 7))
    feats = rng.normal(size=(n, d))
    w = rng.normal(size=(d, c))
    y = rng.integers(0, c, size=n)
    ours = classification_loss(Tensor(feats), Tensor(w), y).item()
    assert ours == pytest.approx(naive_cross_entropy(feats @ w, y), abs=1e-9)


def test_classification_records_matmul_and_one_loss_entry():
    feats = Tensor(np.ones((3, 2)))
    w = Tensor(np.zeros((2, 4)), requires_grad=True)
    with Tape() as tape:
        classification_loss(feats, w, [0, 1, 3])
    assert len(tape) == 2


# ---------------------------------------------------------------------------
# Dynamic loss balancing

def test_loss_weights_unit_params():
    w_con, w_cls, _, _ = loss_weights(1.0, 1.0)
    assert w_con == pytest.approx(1.0 / 2.0)
    assert w_cls == pytest.approx(1.0 / 2.0)


def test_loss_weights_clipped_numerators():
    w_con, w_cls, num_con, num_cls = loss_weights(3.0, 0.05)
    assert w_con == pytest.approx(2.0 / 3.05)
    assert w_cls == pytest.approx(0.1 / 3.05)
    assert (num_con, num_cls) == (2.0, 0.1)


def test_loss_weights_boundary_params():
    w_con, w_cls, _, _ = loss_weights(0.5, 0.5)
    assert w_con == pytest.approx(0.5)
    assert w_cls == pytest.approx(0.5)


@pytest.mark.parametrize(
    "params, numerators",
    [
        ((0.3, 1.5), (0.5, 1.0)),  # below CON_NUM_BAND, above CLS_NUM_BAND
        ((0.48, 1.2), (0.5, 1.0)),  # just past the same two edges
        ((2.5, 0.05), (2.0, 0.1)),  # above CON_NUM_BAND, below CLS_NUM_BAND
        ((0.5, 1.0), (0.5, 1.0)),  # on the edges, which are in the bands
        ((2.0, 0.1), (2.0, 0.1)),
    ],
)
def test_loss_weights_pin_every_band_edge(params, numerators):
    w_con, w_cls, num_con, num_cls = loss_weights(*params)
    assert (num_con, num_cls) == numerators
    denom = params[0] + params[1]
    assert (w_con, w_cls) == (numerators[0] / denom, numerators[1] / denom)


@pytest.mark.parametrize(
    "p_con, p_cls, grads",
    [
        # Outside its band a parameter keeps only the denominator term,
        # -(num_con * l_con + num_cls * l_cls) / denom**2, with l = (2, 3).
        (0.3, 1.5, (-4.0 / 1.8**2, -4.0 / 1.8**2)),
        (0.48, 1.2, (-4.0 / 1.68**2, -4.0 / 1.68**2)),
        (2.5, 0.05, (-4.3 / 2.55**2, -4.3 / 2.55**2)),
        # Inside (edges included) it adds its numerator's term, l / denom.
        (0.5, 1.0, (2.0 / 1.5 - 4.0 / 1.5**2, 3.0 / 1.5 - 4.0 / 1.5**2)),
        (2.0, 0.1, (2.0 / 2.1 - 4.3 / 2.1**2, 3.0 / 2.1 - 4.3 / 2.1**2)),
        (1.0, 0.5, (2.0 / 1.5 - 3.5 / 1.5**2, 3.0 / 1.5 - 3.5 / 1.5**2)),
    ],
)
def test_weighted_total_gradients_at_the_band_edges(p_con, p_cls, grads):
    params = tuple(Tensor(np.asarray(p), requires_grad=True) for p in (p_con, p_cls))
    with Tape() as tape:
        total, _ = weighted_total(Tensor(np.asarray(2.0)), Tensor(np.asarray(3.0)), params)
    backward(tape, total)
    assert (float(params[0].grad), float(params[1].grad)) == pytest.approx(grads, rel=1e-12)


def test_loss_weights_rejects_degenerate_denominator():
    with pytest.raises(DegenerateWeightsError):
        loss_weights(1.0, -1.0)
    with pytest.raises(DegenerateWeightsError):
        weighted_total(
            Tensor(np.asarray(1.0)),
            Tensor(np.asarray(1.0)),
            (Tensor(np.asarray(1.0)), Tensor(np.asarray(-1.0))),
        )


def test_loss_breakdown_invariant_enforced():
    with pytest.raises(ValueError):
        LossBreakdown(
            l_con=1.0, l_cls=1.0, w_con=0.5, w_cls=0.5, tau=1.0,
            total=2.0, w_con_num=1.0, w_cls_num=0.5,
        )


# ---------------------------------------------------------------------------
# Total loss

def _checked(img, labels, n_classes):
    """A batch's constants as ``total_loss`` takes them, one text row per
    image: the unit image rows, the checked matches and the checked labels."""
    n = len(labels)
    return (
        ad.unit_rows(img.data, "similarity_matrix"),
        check_matches(np.arange(n), (n, n)),
        ad.check_labels(labels, (n, n_classes)),
    )


def _synthetic_round(rng, n=4, d=6, n_classes=3, settings=SessionSettings()):
    img = Tensor(rng.normal(size=(n, d)))
    txt = Tensor(rng.normal(size=(n, d)), requires_grad=True, name="txt")
    constants = _checked(img, rng.integers(0, n_classes, size=n), n_classes)
    params = CoordinatorParams(d, n_classes, settings)
    return img, txt, constants, params


def test_total_loss_weighted_sum():
    rng = np.random.default_rng(0)
    img, txt, constants, params = _synthetic_round(rng)
    total, bd = total_loss(img, txt, *constants, params)
    assert bd.total == pytest.approx(bd.w_con * bd.l_con + bd.w_cls * bd.l_cls, abs=1e-15)
    assert total.item() == bd.total


def _train_round(img, txt, constants, params, steps=5):
    """Adam steps on the total loss over txt and every coordinator learnable
    the arm builds; Adam raises if one of them gets no gradient.  Returns
    whether each learnable moved."""
    before = [p.data.tobytes() for p in params.parameters()]
    opt = Adam([txt] + params.parameters(), lr=1e-2)
    for _ in range(steps):
        with Tape() as tape:
            total, _ = total_loss(img, txt, *constants, params)
        backward(tape, total)
        opt.step()
        opt.zero_grad()
    return [p.data.tobytes() != b for p, b in zip(params.parameters(), before)]


def test_full_arm_builds_and_trains_every_coordinator_learnable():
    img, txt, constants, params = _synthetic_round(np.random.default_rng(2))
    names = [p.name for p in params.parameters()]
    assert names == ["tau_param", "w_con_param", "w_cls_param", "w_cls_head"]
    assert _train_round(img, txt, constants, params) == [True] * 4


def test_total_loss_fixed_weights_when_balancing_disabled():
    rng = np.random.default_rng(3)
    settings = SessionSettings(disable_dynamic_balancing=True)
    img, txt, constants, params = _synthetic_round(rng, settings=settings)
    _, bd = total_loss(img, txt, *constants, params)
    assert (bd.w_con, bd.w_cls) == (0.5, 0.5)
    # The arm builds no weight parameters; the temperature still trains.
    assert (params.w_con_param, params.w_cls_param) == (None, None)
    assert [p.name for p in params.parameters()] == ["tau_param", "w_cls_head"]
    assert _train_round(img, txt, constants, params) == [True, True]


def test_coordinator_dynamics_off_fixes_tau_and_weights():
    rng = np.random.default_rng(6)
    settings = SessionSettings(disable_coordinator_dynamics=True)
    img, txt, constants, params = _synthetic_round(rng, settings=settings)
    # The arm builds none of the three scalars: only the head trains.
    assert (params.tau_param, params.w_con_param, params.w_cls_param) == (None, None, None)
    assert [p.name for p in params.parameters()] == ["w_cls_head"]
    assert _train_round(img, txt, constants, params) == [True]
    _, bd = total_loss(img, txt, *constants, params)
    assert (bd.w_con, bd.w_cls, bd.tau) == (0.5, 0.5, 1.0)


def test_total_loss_grad_check_on_synthetic_batch():
    rng = np.random.default_rng(4)
    img, txt, constants, params = _synthetic_round(rng)

    def f(txt_p, tau_p, wc_p, wl_p, head_p):
        total, _ = total_loss(img, txt_p, *constants, params)
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
    constants = _checked(img, np.arange(n), n)
    params = CoordinatorParams(n, n, SessionSettings())
    opt = Adam([txt] + params.parameters(), lr=1e-3)
    totals = []
    for _ in range(50):
        with Tape() as tape:
            total, bd = total_loss(img, txt, *constants, params)
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


def test_adam_raises_on_a_missing_gradient_naming_the_tensor():
    p = Tensor(np.asarray([1.0]), requires_grad=True, name="given")
    q = Tensor(np.asarray([2.0]), requires_grad=True, name="culprit")
    opt = Adam([p, q], lr=1e-3)
    p.grad = np.asarray([1.0])
    with pytest.raises(MissingGradientError, match="on culprit$"):
        opt.step()
    # The check runs before any update: nothing moved.
    assert np.array_equal(p.data, [1.0]) and np.array_equal(q.data, [2.0])
    assert opt.t == 0 and not opt._m.any() and not opt._v.any()


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


def test_adam_aborts_on_infinite_gradient_entry():
    p = Tensor(np.zeros(3), requires_grad=True, name="culprit")
    opt = Adam([p], lr=1e-3)
    p.grad = np.asarray([0.1, -np.inf, 0.2])
    with pytest.raises(NanGradientError, match="culprit"):
        opt.step()
    assert np.array_equal(p.data, np.zeros(3))


class ReferenceAdam:
    """One update per tensor, in the textbook order: the loop the flat
    update replaced."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr = params, lr
        self.b1, self.b2, self.eps, self.t = beta1, beta2, eps, 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        b1, b2 = self.b1, self.b2
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1**self.t)
            v_hat = self.v[i] / (1 - b2**self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _adam_params(shapes):
    rng = np.random.default_rng(5)
    return [
        Tensor(rng.normal(size=shape), requires_grad=True, name=f"p{i}")
        for i, shape in enumerate(shapes)
    ]


def test_flat_adam_is_bit_identical_to_a_per_tensor_loop():
    shapes = [(), (4, 3), (7,), (), (2, 5)]
    flat, ref = _adam_params(shapes), _adam_params(shapes)
    opt, ref_opt = Adam(flat, lr=3e-3), ReferenceAdam(ref, lr=3e-3)
    rng = np.random.default_rng(6)
    for _ in range(50):
        for a, b in zip(flat, ref):
            g = rng.normal(scale=10.0 ** rng.integers(-4, 2), size=a.shape)
            a.grad, b.grad = np.array(g), g
        opt.step()
        ref_opt.step()
        for a, b in zip(flat, ref):
            assert np.array_equal(a.data, b.data)
    off = np.cumsum([0] + [p.data.size for p in flat])
    for i in range(len(shapes)):
        assert np.array_equal(opt._m[off[i] : off[i + 1]], ref_opt.m[i].reshape(-1))
        assert np.array_equal(opt._v[off[i] : off[i + 1]], ref_opt.v[i].reshape(-1))


def test_flat_adam_updates_parameters_in_place():
    params = _adam_params([(3,), ()])
    arrays = [p.data for p in params]
    opt = Adam(params, lr=1e-3)
    for p in params:
        p.grad = np.ones_like(p.data)
    opt.step()
    assert all(p.data is a for p, a in zip(params, arrays))


def test_flat_adam_names_the_tensor_with_a_non_finite_entry():
    params = _adam_params([(2,), (3, 2), ()])
    before = [p.data.copy() for p in params]
    opt = Adam(params, lr=1e-3)
    for p in params:
        p.grad = np.zeros_like(p.data)
    params[1].grad[2, 1] = np.inf
    params[2].grad = np.asarray(np.nan)
    with pytest.raises(NanGradientError, match="on p1$"):
        opt.step()
    # The scan runs before any update: nothing moved.
    assert all(np.array_equal(p.data, b) for p, b in zip(params, before))
    assert not opt._m.any() and not opt._v.any()
