"""Loss computation and adaptive optimization.

Clipped dynamic temperature, symmetric image-text contrastive loss, auxiliary
classification loss, and learnable clipped loss weights, combined into one
differentiable total.  The similarity matrix stores raw cosine products and
the temperature divides inside the loss, because in the paper's formula the
similarities are first multiplied by the temperature, which cancels it.  The
loss reads ``disable_coordinator_dynamics`` and ``disable_dynamic_balancing``
from the session's ``SessionSettings``.
"""

from __future__ import annotations

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


class DegenerateWeightsError(ValueError):
    """Weight-parameter sum too close to zero to divide by."""


class NanGradientError(RuntimeError):
    """A gradient turned non-finite; names the offending tensor."""


class CoordinatorParams:
    """Learnable scalars plus the auxiliary classification head."""

    def __init__(self, embed_dim: int, n_classes: int):
        self.tau_param = Tensor(np.asarray(1.0), requires_grad=True, name="tau_param")
        self.w_con_param = Tensor(np.asarray(1.0), requires_grad=True, name="w_con_param")
        self.w_cls_param = Tensor(np.asarray(0.5), requires_grad=True, name="w_cls_param")
        self.w_cls_head = Tensor(
            np.zeros((embed_dim, n_classes)), requires_grad=True, name="w_cls_head"
        )

    def parameters(self, settings: SessionSettings) -> list[Tensor]:
        """The learnables ``settings`` lets train: without coordinator dynamics,
        neither the temperature nor the loss weights."""
        params: list[Tensor] = []
        if not settings.disable_coordinator_dynamics:
            params.append(self.tau_param)
            if not settings.disable_dynamic_balancing:
                params += [self.w_con_param, self.w_cls_param]
        params.append(self.w_cls_head)
        return params


def effective_temperature(tau_param: Tensor) -> Tensor:
    """Clip the raw temperature into its stability band."""
    return ad.clip(tau_param, *TAU_BAND)


def similarity_matrix(img: Tensor, txt: Tensor) -> Tensor:
    """Raw pairwise cosines between row-normalized image and text features."""
    if img.data.ndim != 2 or txt.data.ndim != 2 or img.shape[1] != txt.shape[1]:
        raise ShapeError(f"similarity_matrix: incompatible {img.shape} vs {txt.shape}")
    return ad.matmul(ad.l2_normalize_rows(img), ad.transpose(ad.l2_normalize_rows(txt)))


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(float(value)))


def contrastive_loss(s: Tensor, y, tau) -> Tensor:
    """Symmetric cross-entropy over rows and columns of s divided by tau.

    ``y[i]`` is the matching text index for image i; the column direction
    uses the transposed matrix so each text is scored against all images.
    Averaged with a 1/(2N) factor; always nonnegative.
    """
    if s.data.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"contrastive_loss: need a square matrix, got {s.shape}")
    n = s.shape[0]
    if n == 0:
        raise ShapeError("contrastive_loss: empty batch")
    y = np.asarray(y, dtype=np.intp)
    if y.shape != (n,) or np.any(y < 0) or np.any(y >= n):
        raise DomainError(f"contrastive_loss: bad match indices for batch of {n}")
    tau_t = _as_tensor(tau)
    tau_value = float(tau_t.data.reshape(()))
    if not TAU_BAND[0] <= tau_value <= TAU_BAND[1]:
        raise DomainError(f"contrastive_loss: tau {tau_value} outside {TAU_BAND}")
    st = ad.div(s, tau_t)
    per_image = ad.pick_per_row(ad.log_softmax_rows(st), y)
    per_text = ad.pick_per_row(ad.log_softmax_rows(ad.transpose(st)), y)
    return ad.scale(ad.sum_all(ad.add(per_image, per_text)), -1.0 / (2.0 * n))


def classification_loss(img_features: Tensor, w_cls: Tensor, labels) -> Tensor:
    """Mean cross-entropy of the linear head's logits against the labels."""
    logits = ad.matmul(img_features, w_cls)
    n, n_classes = logits.shape
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (n,):
        raise ShapeError(f"classification_loss: need {n} labels, got {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise DomainError(f"classification_loss: label outside [0, {n_classes})")
    picked = ad.pick_per_row(ad.log_softmax_rows(logits), labels)
    return ad.scale(ad.sum_all(picked), -1.0 / n)


def loss_weights(w_con_param: Tensor, w_cls_param: Tensor) -> tuple[Tensor, Tensor]:
    """Clipped numerators over the unclipped parameter sum.

    The weights need not sum to 1; a near-zero denominator is rejected.
    """
    denom = ad.add(w_con_param, w_cls_param)
    if abs(float(denom.data.reshape(()))) < 1e-8:
        raise DegenerateWeightsError("weight parameters sum to ~0")
    w_con = ad.div(ad.clip(w_con_param, *CON_NUM_BAND), denom)
    w_cls = ad.div(ad.clip(w_cls_param, *CLS_NUM_BAND), denom)
    return w_con, w_cls


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
    match_index,
    class_labels,
    params: CoordinatorParams,
    settings: SessionSettings = SessionSettings(),
) -> tuple[Tensor, LossBreakdown]:
    """Weighted sum of the contrastive and classification losses.

    Returns the differentiable total plus a float breakdown whose invariants
    (band clips, exact recombination) are checked on construction.
    """
    if settings.disable_coordinator_dynamics:
        tau = Tensor(np.asarray(1.0))
    else:
        tau = effective_temperature(params.tau_param)
    s = similarity_matrix(img_features, txt_features)
    l_con = contrastive_loss(s, match_index, tau)
    if settings.disable_coordinator_dynamics or settings.disable_dynamic_balancing:
        w_con = Tensor(np.asarray(FIXED_WEIGHTS[0]))
        w_cls = Tensor(np.asarray(FIXED_WEIGHTS[1]))
        num_con, num_cls = FIXED_WEIGHTS
    else:
        w_con, w_cls = loss_weights(params.w_con_param, params.w_cls_param)
        num_con = float(np.clip(params.w_con_param.data, *CON_NUM_BAND))
        num_cls = float(np.clip(params.w_cls_param.data, *CLS_NUM_BAND))
    l_cls = classification_loss(img_features, params.w_cls_head, class_labels)
    total = ad.add(ad.mul(w_con, l_con), ad.mul(w_cls, l_cls))
    breakdown = LossBreakdown(
        l_con=l_con.item(),
        l_cls=l_cls.item(),
        w_con=w_con.item(),
        w_cls=w_cls.item(),
        tau=tau.item(),
        total=total.item(),
        w_con_num=num_con,
        w_cls_num=num_cls,
    )
    return total, breakdown


class Adam:
    """Adaptive-moment optimizer over the session's learnable tensors.

    Parameters with no gradient are left untouched; a non-finite gradient
    aborts with a diagnostic naming the tensor.
    """

    def __init__(
        self,
        params: list[Tensor],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if not LR_BAND[0] <= lr <= LR_BAND[1]:
            raise ValueError(f"lr {lr} outside [{LR_BAND[0]:g}, {LR_BAND[1]:g}]")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NanGradientError(
                    f"non-finite gradient on {p.name or 'unnamed tensor'}"
                )
            self._m[i] = b1 * self._m[i] + (1 - b1) * g
            self._v[i] = b2 * self._v[i] + (1 - b2) * g * g
            m_hat = self._m[i] / (1 - b1**self.t)
            v_hat = self._v[i] / (1 - b2**self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
