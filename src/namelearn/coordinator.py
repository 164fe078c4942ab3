"""Loss computation and adaptive optimization.

Clipped dynamic temperature, symmetric image-text contrastive loss, auxiliary
classification loss, and learnable clipped loss weights, combined into one
differentiable total.  The similarity matrix stores raw cosine products and
the temperature divides inside the loss, because in the paper's formula the
similarities are first multiplied by the temperature, which cancels it.
Training and evaluation both score through ``similarity_matrix``, and
evaluation and the Bayes oracle through ``nearest_class``.  A round's text
side has one row per distinct prompt, so the loss scores N images against U
texts, with multiplicities taken from the match indices; that equals the
square loss over one text row per image-prompt pair (see
``contrastive_loss``).  A batch's fixed inputs are checked once, when the
session prepares it: the match indices by ``check_matches``, the class labels
by ``autodiff.check_labels``, and the image rows are normalized then too.
Each loss term has a closed-form backward: the contrastive loss here, whose
value and backward share one exponential pass, the classification loss
through ``autodiff.softmax_cross_entropy``.  ``similarity_matrix`` and
``weighted_total`` (the clipped loss weights and the weighted sum, on python
floats) are one op each too.  ``total_loss`` runs all of them, on their
kernels, as one tape entry, the only one a round records here; the ops stay
as its oracles.  Its tape inputs are the text features and the learnables
the arm trains: the image side is a constant.  Only ``CoordinatorParams``
reads ``disable_coordinator_dynamics`` and ``disable_dynamic_balancing``:
under them it builds no temperature or no loss-weight parameters, and
``total_loss`` fixes what is not built.  Adam updates every parameter it
holds in one pass over flat moment vectors, and each must have a gradient.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DomainError, ShapeError, Tensor
from .settings import SessionSettings

TAU_BAND = (0.5, 2.0)
CON_NUM_BAND = (0.5, 2.0)
CLS_NUM_BAND = (0.1, 1.0)
# Contrastive and classification weights when dynamic balancing is off.
FIXED_WEIGHTS = (0.5, 0.5)
# Learning rates Adam accepts.
LR_BAND = (1e-6, 1e-1)
# Adam's moment decay rates and denominator guard: Kingma & Ba's defaults.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Smallest normal float64: a softmax sum below it has underflowed, and its
# reciprocal in the contrastive backward would overflow.
_TINY = sys.float_info.min


class DegenerateWeightsError(ValueError):
    """Weight-parameter sum too close to zero to divide by."""


class NanGradientError(RuntimeError):
    """A gradient turned non-finite; names the offending tensor."""


class MissingGradientError(RuntimeError):
    """A parameter the optimizer holds got no gradient; names the tensor."""


def _scalar(value: float, name: str) -> Tensor:
    return Tensor(np.asarray(value), requires_grad=True, name=name)


class CoordinatorParams:
    """The auxiliary classification head plus the learnable scalars the arm
    trains: the temperature unless ``disable_coordinator_dynamics``, the two
    loss-weight parameters unless that or ``disable_dynamic_balancing``.  A
    scalar the arm fixes is ``None``."""

    def __init__(self, embed_dim: int, n_classes: int, settings: SessionSettings):
        dynamic = not settings.disable_coordinator_dynamics
        balanced = dynamic and not settings.disable_dynamic_balancing
        self.tau_param = _scalar(1.0, "tau_param") if dynamic else None
        self.w_con_param = _scalar(1.0, "w_con_param") if balanced else None
        self.w_cls_param = _scalar(0.5, "w_cls_param") if balanced else None
        self.w_cls_head = Tensor(
            np.zeros((embed_dim, n_classes)), requires_grad=True, name="w_cls_head"
        )

    def parameters(self) -> list[Tensor]:
        """The built scalars, then the head."""
        params = (self.tau_param, self.w_con_param, self.w_cls_param, self.w_cls_head)
        return [p for p in params if p is not None]


def effective_temperature(tau_param: Tensor) -> Tensor:
    """Clip the raw temperature into its stability band."""
    return ad.clip(tau_param, *TAU_BAND)


def similarity_matrix(img: Tensor, txt: Tensor) -> Tensor:
    """Raw pairwise cosines between row-normalized image and text features.

    One op for ``matmul(l2_normalize_rows(img), transpose(l2_normalize_rows(txt)))``:
    the product takes the normalized text rows as a transposed view, so it is
    the same BLAS call as ``x @ y.T``, and the backward evaluates the composed
    ops' expressions in their order."""
    s, backward = _similarity(img, txt, None)
    return ad._make(s, (img, txt), backward)


def nearest_class(feats: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Each feature row's most cosine-similar row of ``classes``, the first
    on ties: ``similarity_matrix`` block by block (``autodiff.row_blocks``),
    so no ``(N, classes)`` matrix is built."""
    classes = Tensor(classes)
    best = np.empty(len(feats), dtype=np.intp)
    for rows in ad.row_blocks(len(best)):
        best[rows] = np.argmax(similarity_matrix(Tensor(feats[rows]), classes).data, axis=1)
    return best


def _similarity(img: Tensor, txt: Tensor, img_rows):
    """``similarity_matrix``'s cosines and backward ``g -> (gi, gt)``;
    ``img_rows``, if given, are ``img``'s ``unit_rows``."""
    if img.data.ndim != 2 or txt.data.ndim != 2 or img.data.shape[1] != txt.data.shape[1]:
        raise ShapeError(f"similarity_matrix: incompatible {img.shape} vs {txt.shape}")
    yi, ni = img_rows or ad.unit_rows(img.data, "similarity_matrix")
    yt, nt = ad.unit_rows(txt.data, "similarity_matrix")

    def backward(g):
        gi = ad.unit_rows_backward(g @ yt, yi, ni) if img.requires_grad else None
        gt = ad.unit_rows_backward((yi.T @ g).T, yt, nt) if txt.requires_grad else None
        return gi, gt

    return yi @ yt.T, backward


Matches = namedtuple("Matches", "index counts rows shape")  # (N,), (U,) floats, arange(N), (N, U)


def check_matches(y, shape: tuple[int, ...]) -> Matches:
    """Every check ``contrastive_loss`` makes of its match indices, done once
    for a batch's fixed indices."""
    if len(shape) != 2:
        raise ShapeError(f"contrastive_loss: need a matrix, got {shape}")
    n, u = shape
    if n == 0:
        raise ShapeError("contrastive_loss: empty batch")
    y = np.asarray(y, dtype=np.intp)
    if y.shape != (n,) or np.minimum.reduce(y) < 0 or np.maximum.reduce(y) >= u:
        raise DomainError(f"contrastive_loss: bad match indices for {n} rows, {u} columns")
    m = np.bincount(y, minlength=u)
    if np.minimum.reduce(m) == 0:
        raise DomainError(f"contrastive_loss: column {int(m.argmin())} has no pair")
    return Matches(y, m.astype(np.float64), np.arange(n), shape)  # products need no cast


def contrastive_loss(s: Tensor, y, tau) -> Tensor:
    """Symmetric cross-entropy over rows and columns of s divided by tau.

    s is ``(N, U)``, one column per distinct text, and ``y[i]`` is image i's
    column (an index array or ``check_matches``'s ``Matches``); every column
    must be used.  The multiplicities
    ``m = bincount(y)`` give the value: it is the square loss of the
    ``(N, N)`` matrix whose column j is s's column ``y[j]``, with the targets
    on its diagonal.  A row term weights column u by ``m[u]`` (a ``log m``
    row bias, taken back off the picked entry), and a column term is the
    log-softmax over images of column ``y[i]``, picked at row i.

    Averaged with a 1/(2N) factor; always nonnegative.  One tape entry, whose
    backward is the closed form (Radford et al., 2021): on ``st = s / tau``,
    with ``Y`` the one-hot targets, ``P`` the row softmax of ``st + log m``
    and ``Q`` the column softmax of ``st``, the gradient is
    ``G = -(2Y - P - m*Q) / (2N)``; then ``ds = G / tau`` and
    ``dtau = -sum(G * s) / tau**2``.

    Both directions share one exponential pass: ``E = exp(st - max st)``
    gives the column sums ``c``, is scaled in place by ``m``, and then gives
    the row sums ``r``.  So ``P + m*Q = E * (1/r + 1/c)``, and the same
    ``(N, U)`` buffer serves the value and the backward.  A row or column sum
    that underflows (``st`` spanning more than about 700) raises
    ``DomainError``; cosines over a tau in the band span at most 4.
    """
    matches = y if type(y) is Matches else check_matches(y, s.data.shape)
    tau_t = tau if isinstance(tau, Tensor) else Tensor(np.asarray(float(tau)))
    value, kernel = _contrastive(s.data, matches, float(tau_t.data.reshape(())))

    def backward(g):
        ds, dtau = kernel(g, True)
        return ds, dtau.reshape(tau_t.data.shape)

    return ad._make(value, (s, tau_t), backward)


def _contrastive(sd: np.ndarray, matches: Matches, tau: float):
    """``contrastive_loss``'s value on scores ``sd`` and a python tau, and its
    backward ``(g, need_tau) -> (ds, dtau)``, ``dtau`` ``None`` unless needed."""
    y, m, rows, shape = matches
    if sd.shape != shape:
        raise ShapeError(f"contrastive_loss: scores {sd.shape}, matches checked for {shape}")
    if not TAU_BAND[0] <= tau <= TAU_BAND[1]:
        raise DomainError(f"contrastive_loss: tau {tau} outside {TAU_BAND}")
    n = shape[0]
    z = sd / tau
    z -= np.maximum.reduce(z, axis=None)
    e = np.exp(z)
    col = np.add.reduce(e, axis=0)
    e *= m
    row = np.add.reduce(e, axis=1)
    if min(np.minimum.reduce(row), np.minimum.reduce(col)) < _TINY:
        raise DomainError(
            "contrastive_loss: a row or column sum underflows: s / tau spans too far"
        )
    # Each direction's picked log-probability is z at the target minus the
    # log of its sum; the row bias log m cancels at the target.
    picked = 2.0 * np.add.reduce(z[rows, y])
    value = (np.add.reduce(np.log(row)) + m @ np.log(col) - picked) / (2.0 * n)

    def backward(g, need_tau):
        grad = (1.0 / row)[:, None] + 1.0 / col
        grad *= e
        grad[rows, y] -= 2.0
        grad *= g / (2.0 * n)
        return grad / tau, np.add.reduce(-grad * sd / (tau * tau), axis=None) if need_tau else None

    return value, backward


def classification_loss(img_features: Tensor, w_cls: Tensor, labels) -> Tensor:
    """Mean cross-entropy of the linear head's logits against the labels
    (an index array or ``ad.Labels``); ``ad.check_labels`` checks them."""
    return ad.softmax_cross_entropy(ad.matmul(img_features, w_cls), labels)


def loss_weights(w_con_param: float, w_cls_param: float) -> tuple[float, float, float, float]:
    """Clipped numerators over the unclipped parameter sum.

    Returns the two weights, then the two clipped numerators they divide.
    The weights need not sum to 1; a near-zero denominator is rejected.
    """
    denom = w_con_param + w_cls_param
    if abs(denom) < 1e-8:
        raise DegenerateWeightsError("weight parameters sum to ~0")
    num_con = min(max(w_con_param, CON_NUM_BAND[0]), CON_NUM_BAND[1])
    num_cls = min(max(w_cls_param, CLS_NUM_BAND[0]), CLS_NUM_BAND[1])
    return num_con / denom, num_cls / denom, num_con, num_cls


def weighted_total(
    l_con: Tensor, l_cls: Tensor, weight_params: tuple[Tensor, Tensor] | None
) -> tuple[Tensor, tuple[float, float, float, float]]:
    """``w_con * l_con + w_cls * l_cls`` as one tape entry, plus the weights
    and numerators ``(w_con, w_cls, num_con, num_cls)`` as floats.

    With ``weight_params`` the weights are ``loss_weights`` of the two
    parameters, which then get gradients; with ``None`` they are
    ``FIXED_WEIGHTS``, constants off the tape.  Arithmetic is on python
    floats, and the scalar backward takes the steps of the composed chain
    (``add``, two ``clip``s, two ``div``s, two ``mul``s and an ``add``) in the
    order that chain's backward takes them, so the gradients are the same bits.
    """
    total, floats, backward = _weigh(float(l_con.data), float(l_cls.data), weight_params)
    inputs = (l_con, l_cls, *(weight_params or ()))
    return ad._make(np.asarray(total), inputs, lambda g: backward(float(g))), floats


def _weigh(lc: float, lk: float, weight_params: tuple[Tensor, Tensor] | None):
    """``weighted_total``'s total, floats and backward on python floats:
    ``g -> (dl_con, dl_cls)``, then the two parameters' with ``weight_params``."""
    if weight_params is None:
        w_con, w_cls = num_con, num_cls = FIXED_WEIGHTS
    else:
        p_con, p_cls = float(weight_params[0].data), float(weight_params[1].data)
        w_con, w_cls, num_con, num_cls = loss_weights(p_con, p_cls)

    def backward(g):
        if weight_params is None:
            return g * w_con, g * w_cls
        g_w_con, g_w_cls = g * lc, g * lk
        denom = p_con + p_cls
        sq = denom * denom
        g_denom = -g_w_cls * num_cls / sq + -g_w_con * num_con / sq
        in_con = CON_NUM_BAND[0] <= p_con <= CON_NUM_BAND[1]
        in_cls = CLS_NUM_BAND[0] <= p_cls <= CLS_NUM_BAND[1]
        g_con, g_cls = g_w_con / denom * in_con + g_denom, g_w_cls / denom * in_cls + g_denom
        return g * w_con, g * w_cls, g_con, g_cls

    return w_con * lc + w_cls * lk, (w_con, w_cls, num_con, num_cls), backward


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar record of one training step's loss composition."""

    l_con: float
    l_cls: float
    w_con: float
    w_cls: float
    tau: float
    total: float
    w_con_num: float
    w_cls_num: float

    def __post_init__(self):
        recombined = self.w_con * self.l_con + self.w_cls * self.l_cls
        if abs(self.total - recombined) > 1e-12:
            raise ValueError("total differs from weighted sum of parts")
        if not TAU_BAND[0] <= self.tau <= TAU_BAND[1]:
            raise ValueError(f"tau {self.tau} outside {TAU_BAND}")
        if not CON_NUM_BAND[0] <= self.w_con_num <= CON_NUM_BAND[1]:
            raise ValueError(f"contrastive numerator {self.w_con_num} outside band")
        if not CLS_NUM_BAND[0] <= self.w_cls_num <= CLS_NUM_BAND[1]:
            raise ValueError(f"classification numerator {self.w_cls_num} outside band")


def total_loss(
    img_features: Tensor,
    txt_features: Tensor,
    img_rows: tuple[np.ndarray, np.ndarray],
    matches: Matches,
    labels: ad.Labels,
    params: CoordinatorParams,
) -> tuple[Tensor, LossBreakdown]:
    """Weighted sum of the contrastive and classification losses, one tape entry.

    ``txt_features`` has one row per distinct prompt and ``matches`` (from
    ``check_matches``) gives image i's row; the contrastive loss scores the
    ``(N, U)`` cosines, equal to the square loss over one text row per image.
    The image side is constant, no tape input: ``img_features``, their
    ``unit_rows`` and the ``ad.check_labels`` ``labels``, as a batch holds
    them.  Returns the differentiable total plus a float breakdown whose
    invariants (band clips, exact recombination) are checked on construction.

    The op is the chain ``effective_temperature``, ``similarity_matrix``,
    the two loss terms and ``weighted_total``, the clip taken on python
    floats.  Its backward evaluates the chain's expressions in their order,
    so its gradients are the chain's bits.  A temperature ``params`` does not
    build is 1.0, and loss weights it does not build are ``FIXED_WEIGHTS``.
    """
    tau_param, head = params.tau_param, params.w_cls_head
    dynamic = tau_param is not None
    raw_tau = float(tau_param.data) if dynamic else 1.0
    tau = min(max(raw_tau, TAU_BAND[0]), TAU_BAND[1])
    s, similarity_backward = _similarity(img_features, txt_features, img_rows)
    l_con, contrastive_backward = _contrastive(s, matches, tau)
    x, w = img_features.data, head.data
    if w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {x.shape} @ {w.shape}")
    l_cls, cross_entropy_backward = ad.cross_entropy(x @ w, labels)
    w_con, w_cls = params.w_con_param, params.w_cls_param
    weight_params = None if w_con is None else (w_con, w_cls)
    total, floats, weights_backward = _weigh(float(l_con), float(l_cls), weight_params)
    inputs = (txt_features, head, tau_param)[: 2 + dynamic] + (weight_params or ())

    def backward(g):
        g_con, g_cls, *weight_grads = weights_backward(float(g))
        ds, dtau = contrastive_backward(g_con, dynamic)
        gt = similarity_backward(ds)[1]
        g_head = x.T @ cross_entropy_backward(g_cls)
        g_tau = dtau * (TAU_BAND[0] <= raw_tau <= TAU_BAND[1]) if dynamic else None
        return (gt, g_head, g_tau)[: 2 + dynamic] + tuple(weight_grads)

    breakdown = LossBreakdown(float(l_con), float(l_cls), *floats[:2], tau, total, *floats[2:])
    return ad._make(np.asarray(total), inputs, backward), breakdown


class Adam:
    """Adaptive-moment optimizer over the session's learnable tensors.

    The moments are two flat vectors over all parameters, in their given
    order, and a step is one vector update over the gradients concatenated
    (Kingma & Ba, 2015, is elementwise, so this gives the same bits as one
    update per tensor); each parameter is then updated in place from its
    segment.  Every parameter must have a gradient: a missing one raises
    ``MissingGradientError`` and a non-finite one ``NanGradientError``,
    each naming the tensor, before anything is updated.
    """

    def __init__(self, params: list[Tensor], lr: float):
        if not LR_BAND[0] <= lr <= LR_BAND[1]:
            raise ValueError(f"lr {lr} outside [{LR_BAND[0]:g}, {LR_BAND[1]:g}]")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = np.zeros(sum(p.data.size for p in self.params))
        self._v = np.zeros_like(self._m)

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                raise MissingGradientError(f"no gradient on {p.name or 'unnamed tensor'}")
        g = np.concatenate([p.grad for p in self.params], axis=None)
        if not np.isfinite(g).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise NanGradientError(f"non-finite gradient on {bad.name or 'unnamed tensor'}")
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        self._m = m = b1 * self._m + (1 - b1) * g
        self._v = v = b2 * self._v + (1 - b2) * g * g
        m_hat = m / (1 - b1**self.t)
        v_hat = v / (1 - b2**self.t)
        update = self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        start = 0
        for p in self.params:
            p.data -= update[start : start + p.data.size].reshape(p.data.shape)
            start += p.data.size

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
