"""Reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run: while a :class:`Tape` is active, every operation whose inputs
are connected to a gradient-requiring leaf is recorded.  ``backward`` replays
the tape once, in reverse, and assigns ``.grad`` on every gradient-requiring
leaf.  ``grad_check`` compares those gradients against central finite
differences.  Loss terms are single ops with closed-form backwards
(``softmax_cross_entropy`` here, the contrastive loss in ``coordinator``), so
each costs one tape entry.  So are ``affine`` (a matmul plus bias) and
``blend`` (a fixed-weight sum), the coordinator's whole ``total_loss``, the
text agent's ``encode_text`` (its whole chain) and the image agent's
``robust_features`` (unit rows plus a detached residual).  A fused op's
tape inputs are only the operands that can learn: ``total_loss`` reads the
image side, and ``encode_text`` the frozen mixer and the visual context, as
constants.
Each fused backward evaluates the numpy expressions its composed ops would,
in the same order, so its gradients are bit-identical to theirs; the generic
ops stay, and tests use them as the oracles.  A batch's fixed class labels
are checked once, by ``check_labels``, not by every ``softmax_cross_entropy``.

Ops whose rows are independent and whose batches grow with the data (the
frozen visual encoder, the robust encoding, evaluation's scoring) work
through ``row_blocks``: about ``BLOCK_ROWS`` rows at a time, each block
written into one preallocated output, so their temporaries stay one block in
size.  BLAS runs a short product (a 1-row one always, and one of up to
about 1,200 entries against a transposed operand) through other kernels,
whose last bits can differ, so no block but a whole batch is shorter than
half a block: at 512 rows, the blocks give the whole batch's bits on the
default and hard worlds.

Sums, maxima, minima and tests on a round's path, here and in
``coordinator``, call the ufunc's ``reduce`` directly, as in
``np.add.reduce(x, axis=1)``: the ndarray methods (``x.sum(axis=1)``,
``x.any()``) compute the same thing through one more Python-level call each.

Shapes are deliberately restricted to what the model needs: scalars (0-d),
vectors (1-d) and matrices (2-d).  No broadcasting beyond a row-vector bias
add, no GPU, no mixed precision.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operation applied to incompatible shapes; names the op and shapes."""


class DomainError(ValueError):
    """Input outside an operation's numeric domain (e.g. zero-norm row)."""


class Tensor:
    """Dense float64 array with an optional gradient slot.

    ``requires_grad`` marks learnable leaves.  After ``backward`` every
    gradient-requiring leaf holds a same-shape ``grad`` array (zeros if the
    leaf is disconnected from the loss, e.g. it only feeds ``detach``).
    """

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


# Rows per block of a row-blocked op (see ``row_blocks``).
BLOCK_ROWS = 512


def row_blocks(n: int) -> list[slice]:
    """Consecutive slices covering ``n`` rows, ``BLOCK_ROWS`` each but the
    last, which takes in a remainder shorter than half a block."""
    step = BLOCK_ROWS
    starts = list(range(0, n - (step - 1) // 2, step)) or [0]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


# ---------------------------------------------------------------------------
# Tape

_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of executed operations for one backward pass.

    Used as a context manager; tapes nest, the innermost one records.
    Entries are appended in execution order, so a single reverse sweep
    visits every node after all of its consumers.
    """

    def __init__(self):
        self.entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self.entries)


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    """Wrap an op's float64 result; record it on the active tape when
    grad-connected.  An array is wrapped as it is, without ``np.asarray``; a
    numpy scalar (what a ufunc makes of 0-d arrays) becomes a 0-d array."""
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.requires_grad = False
    out.grad = None
    out.name = None
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            if _TAPE_STACK:
                _TAPE_STACK[-1].entries.append((out, inputs, backward_fn))
            break
    return out


# ---------------------------------------------------------------------------
# Operations

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: (N,K)@(K,M) or (K,)@(K,M).

    The backward returns ``None`` for an operand that does not require a
    gradient (a frozen weight, a selection matrix, fixed features), which
    ``backward`` skips, so no product is formed that nobody reads.
    """
    ad, bd = a.data, b.data
    if not (ad.ndim in (1, 2) and bd.ndim == 2 and ad.shape[-1] == bd.shape[0]):
        raise ShapeError(f"matmul: incompatible shapes {ad.shape} @ {bd.shape}")

    def backward(g):
        if ad.ndim == 1:  # (K,)@(K,M) -> (M,)
            ga = bd @ g if a.requires_grad else None
            return ga, np.outer(ad, g) if b.requires_grad else None
        ga = g @ bd.T if a.requires_grad else None
        return ga, ad.T @ g if b.requires_grad else None

    return _make(ad @ bd, (a, b), backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``add(matmul(x, w), b)`` as one op: (N,K)@(K,M) plus a (M,) row bias,
    or (K,)@(K,M) plus a (M,) vector.  Operands without a gradient get
    ``None``, as in ``matmul``."""
    xd, wd, bd = x.data, w.data, b.data
    if not (xd.ndim in (1, 2) and wd.ndim == 2 and xd.shape[-1] == wd.shape[0]):
        raise ShapeError(f"affine: incompatible shapes {xd.shape} @ {wd.shape}")
    if bd.shape != (wd.shape[1],):
        raise ShapeError(f"affine: bias shape {bd.shape} for {wd.shape[1]} outputs")

    def backward(g):
        if xd.ndim == 1:
            gx = wd @ g if x.requires_grad else None
            return gx, np.outer(xd, g) if w.requires_grad else None, g
        gx = g @ wd.T if x.requires_grad else None
        gw = xd.T @ g if w.requires_grad else None
        return gx, gw, np.add.reduce(g, axis=0) if b.requires_grad else None

    return _make(xd @ wd + bd, (x, w, b), backward)


def blend(a: Tensor, b: Tensor, weight: float) -> Tensor:
    """``weight * a + (1 - weight) * b`` for two same-shape tensors and a
    python constant; one op for ``add(scale(a, w), scale(b, 1 - w))``."""
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ShapeError(f"blend: incompatible shapes {ad.shape} and {bd.shape}")
    wa = float(weight)
    wb = 1.0 - wa

    def backward(g):
        return g * wa, g * wb

    return _make(ad * wa + bd * wb, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also supports the row-bias case (N,M)+(M,)."""
    ad, bd = a.data, b.data
    if ad.shape == bd.shape:
        def backward(g):
            return g, g
    elif ad.ndim == 2 and bd.ndim == 1 and ad.shape[1] == bd.shape[0]:
        def backward(g):
            return g, g.sum(axis=0)
    else:
        raise ShapeError(f"add: incompatible shapes {ad.shape} + {bd.shape}")
    return _make(ad + bd, (a, b), backward)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python constant."""
    f = float(factor)

    def backward(g):
        return (g * f,)

    return _make(a.data * f, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise ShapeError(f"mul: incompatible shapes {ad.shape} * {bd.shape}")

    def backward(g):
        return g * bd, g * ad
    return _make(ad * bd, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient; the divisor may be a scalar (size-1) tensor."""
    ad, bd = a.data, b.data
    if not bd.all():  # false exactly when some entry is (+/-) zero
        raise DomainError("div: zero divisor")
    if ad.shape == bd.shape:
        def backward(g):
            return g / bd, -g * ad / (bd * bd)
    elif bd.size == 1:
        bs = bd.reshape(())

        def backward(g):
            return g / bs, np.sum(-g * ad / (bs * bs)).reshape(bd.shape)
    else:
        raise ShapeError(f"div: incompatible shapes {ad.shape} / {bd.shape}")
    return _make(ad / bd, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        return (g * mask,)

    return _make(np.where(mask, a.data, 0.0), (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)

    def backward(g):
        return (g * y * (1.0 - y),)

    return _make(y, (a,), backward)


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Scale each row of a matrix to unit Euclidean norm."""
    if a.data.ndim != 2:
        raise ShapeError(f"l2_normalize_rows: need a matrix, got shape {a.shape}")
    y, norms = unit_rows(a.data, "l2_normalize_rows")

    def backward(g):
        return (unit_rows_backward(g, y, norms),)

    return _make(y, (a,), backward)


def unit_rows(x: np.ndarray, op: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a matrix array scaled to unit norm, and the ``(N, 1)`` norms;
    ``DomainError`` naming ``op`` for a row of norm <= 1e-12.  The norms are
    the expression ``np.linalg.norm(x, axis=1, keepdims=True)`` evaluates for
    real input, without its Python-level dispatch."""
    norms = np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))
    if np.minimum.reduce(norms, axis=None) <= 1e-12:
        raise DomainError(f"{op}: row with norm <= 1e-12")
    return x / norms, norms


def unit_rows_backward(g: np.ndarray, y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient through ``unit_rows`` given its output ``y`` and ``norms``."""
    dot = np.add.reduce(g * y, axis=1, keepdims=True)
    return (g - dot * y) / norms


def mean_rows(a: Tensor) -> Tensor:
    """Column-wise mean of a matrix: (N,D) -> (D,)."""
    if a.data.ndim != 2:
        raise ShapeError(f"mean_rows: need a matrix, got shape {a.shape}")
    n = a.data.shape[0]

    def backward(g):
        return (np.tile(g / n, (n, 1)),)

    return _make(a.data.mean(axis=0), (a,), backward)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the feature axis: two vectors or two matrices."""
    ad, bd = a.data, b.data
    if ad.ndim == 1 and bd.ndim == 1:
        k = ad.shape[0]

        def backward(g):
            return g[:k], g[k:]

        return _make(np.concatenate([ad, bd]), (a, b), backward)
    if ad.ndim == 2 and bd.ndim == 2 and ad.shape[0] == bd.shape[0]:
        k = ad.shape[1]

        def backward(g):
            return g[:, :k], g[:, k:]

        return _make(np.concatenate([ad, bd], axis=1), (a, b), backward)
    raise ShapeError(f"concat_cols: incompatible shapes {ad.shape} | {bd.shape}")


def detach(a: Tensor) -> Tensor:
    """Copy values, sever the gradient connection.

    Recorded as a zero-gradient entry so a leaf reachable only through
    ``detach`` still receives an (all-zero) gradient from ``backward``.
    """
    out = Tensor(a.data.copy())
    if a.requires_grad and _TAPE_STACK:
        _TAPE_STACK[-1].entries.append(
            (out, (a,), lambda g: (np.zeros_like(a.data),))
        )
    return out


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a matrix array with max-subtraction
    stabilization; no tape entry."""
    z = x - np.maximum.reduce(x, axis=1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))


def log_softmax_rows(a: Tensor) -> Tensor:
    """Row-wise log-softmax with max-subtraction stabilization."""
    if a.data.ndim != 2:
        raise ShapeError(f"log_softmax_rows: need a matrix, got shape {a.shape}")
    y = log_softmax(a.data)

    def backward(g):
        return (g - np.exp(y) * g.sum(axis=1, keepdims=True),)

    return _make(y, (a,), backward)


def transpose(a: Tensor) -> Tensor:
    """A view of the transposed matrix, not a copy: a product with it makes
    the same BLAS call as numpy's ``x @ y.T``."""
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: need a matrix, got shape {a.shape}")

    def backward(g):
        return (g.T,)

    return _make(a.data.T, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    """Full reduction to a 0-d scalar tensor."""
    shape = a.data.shape

    def backward(g):
        return (np.full(shape, float(g)),)

    return _make(np.asarray(a.data.sum()), (a,), backward)


Labels = namedtuple("Labels", "index rows shape")  # (N,) indices, arange(N), (N, M)


def check_labels(labels, shape: tuple[int, ...], op: str = "softmax_cross_entropy") -> Labels:
    """Every check ``op`` makes of its per-row column indices into a nonempty
    matrix, which must be of an integer dtype (not bool, not float); a
    batch's fixed class labels are checked once."""
    if len(shape) != 2 or shape[0] == 0:
        raise ShapeError(f"{op}: need a nonempty matrix, got shape {shape}")
    idx = np.asarray(labels)
    n, m = shape
    if idx.shape != (n,):
        raise ShapeError(f"{op}: need {n} labels, got shape {idx.shape}")
    if idx.dtype.kind not in "iu":
        raise DomainError(f"{op}: labels of dtype {idx.dtype}, not integers")
    if np.minimum.reduce(idx) < 0 or np.maximum.reduce(idx) >= m:
        raise DomainError(f"{op}: label out of range for {m} columns")
    return Labels(idx.astype(np.intp, copy=False), np.arange(n), shape)


def pick_per_row(a: Tensor, indices) -> Tensor:
    """Gather one entry per row: out[i] = a[i, indices[i]]."""
    idx, rows, shape = check_labels(indices, a.data.shape, "pick_per_row")

    def backward(g):
        out = np.zeros(shape)
        out[rows, idx] = g
        return (out,)

    return _make(a.data[rows, idx], (a,), backward)


def softmax_cross_entropy(a: Tensor, labels) -> Tensor:
    """Mean over rows of ``-log softmax(a)[i, labels[i]]``, as a 0-d tensor,
    for an index array or ``check_labels``'s ``Labels``.

    One op with the closed-form backward ``(softmax(a) - onehot) * g / N``.
    """
    checked = labels if type(labels) is Labels else check_labels(labels, a.data.shape)
    value, backward = cross_entropy(a.data, checked)
    return _make(value, (a,), lambda g: (backward(g),))


def cross_entropy(x: np.ndarray, labels: Labels) -> tuple:
    """``softmax_cross_entropy``'s value on logits ``x`` and backward ``g -> dx``."""
    idx, rows, shape = labels
    if x.shape != shape:
        raise ShapeError(f"softmax_cross_entropy: logits {x.shape}, labels checked for {shape}")
    n = shape[0]
    log_p = log_softmax(x)

    def backward(g):
        d = np.exp(log_p)
        d[rows, idx] -= 1.0
        return d * (g / n)

    return np.add.reduce(log_p[rows, idx]) * (-1.0 / n), backward


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes inside the band, zero outside."""
    x = a.data

    def backward(g):  # only the backward reads the band mask
        return (g * ((x >= lo) & (x <= hi)),)

    return _make(x.clip(lo, hi), (a,), backward)


# ---------------------------------------------------------------------------
# Backward pass and gradient checking

def backward(tape: Tape, loss: Tensor) -> None:
    """Assign ``.grad`` on every gradient-requiring leaf reachable on the tape.

    Leaves connected only through ``detach`` receive exact zeros.  Raises
    ``ShapeError`` if the loss is not a scalar.

    Gradients are keyed by the tensor (which hashes by identity).  The leaves
    are the gradient-requiring inputs, and the loss, that no entry outputs,
    taken in the order the tape first reads them (a set of tensors would
    iterate in address order, which differs from one run to the next).
    A node's first gradient is kept by reference, and gradients that meet at
    a node are summed into a new array, so no op's returned array is written
    to (``add`` returns ``g`` twice).  Each leaf's ``.grad`` is a fresh
    float64 copy that no other leaf shares.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for out, inputs, backward_fn in reversed(tape.entries):
        g = grads.get(out)
        if g is None:
            continue
        for inp, ig in zip(inputs, backward_fn(g)):
            if inp.requires_grad:
                grads[inp] = grads[inp] + ig if inp in grads else ig
    outs = {out for out, _, _ in tape.entries}
    for leaf in dict.fromkeys([inp for _, inputs, _ in tape.entries for inp in inputs] + [loss]):
        if leaf.requires_grad and leaf not in outs:
            leaf.grad = np.array(grads[leaf], np.float64) if leaf in grads else np.zeros_like(leaf.data)


def grad_check(f: Callable[..., Tensor], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    ``f(*params)`` must return a scalar tensor and be deterministic.  The
    relative error per entry is ``|analytic - numeric| / max(1, |numeric|)``;
    the numeric side is a two-point central difference, evaluated without any
    tape active.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"grad_check: eps {eps} outside [1e-7, 1e-3]")
    params = list(params)
    with Tape() as tape:
        out = f(*params)
    if out.data.size != 1:
        raise ShapeError(f"grad_check: f must return a scalar, got shape {out.shape}")
    backward(tape, out)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]
    worst = 0.0
    for p, a in zip(params, analytic):
        flat_a = a.reshape(-1)
        for i in range(p.data.size):
            orig = p.data.flat[i]
            p.data.flat[i] = orig + eps
            f_hi = f(*params).item()
            p.data.flat[i] = orig - eps
            f_lo = f(*params).item()
            p.data.flat[i] = orig
            numeric = (f_hi - f_lo) / (2.0 * eps)
            err = abs(flat_a[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
