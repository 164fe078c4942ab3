"""Reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run: while a :class:`Tape` is active, every operation whose inputs
are connected to a gradient-requiring leaf is recorded.  ``backward`` replays
the tape once, in reverse, and assigns ``.grad`` on every gradient-requiring
leaf.  ``grad_check`` compares those gradients against central finite
differences.

Shapes are deliberately restricted to what the model needs: scalars (0-d),
vectors (1-d) and matrices (2-d).  No broadcasting beyond a row-vector bias
add, no GPU, no mixed precision.
"""

from __future__ import annotations

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
    """Wrap an op result; record it on the active tape when grad-connected."""
    out = Tensor(data)
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        if _TAPE_STACK:
            _TAPE_STACK[-1].entries.append((out, inputs, backward_fn))
    return out


# ---------------------------------------------------------------------------
# Operations

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: (N,K)@(K,M) or (K,)@(K,M)."""
    ad, bd = a.data, b.data
    if not (ad.ndim in (1, 2) and bd.ndim == 2 and ad.shape[-1] == bd.shape[0]):
        raise ShapeError(f"matmul: incompatible shapes {ad.shape} @ {bd.shape}")

    def backward(g):
        if ad.ndim == 1:  # (K,)@(K,M) -> (M,)
            return bd @ g, np.outer(ad, g)
        return g @ bd.T, ad.T @ g

    return _make(ad @ bd, (a, b), backward)


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
    if np.any(bd == 0.0):
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
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    if np.any(norms <= 1e-12):
        raise DomainError("l2_normalize_rows: row with norm <= 1e-12")
    y = a.data / norms

    def backward(g):
        dot = np.sum(g * y, axis=1, keepdims=True)
        return ((g - dot * y) / norms,)

    return _make(y, (a,), backward)


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


def log_softmax_rows(a: Tensor) -> Tensor:
    """Row-wise log-softmax with max-subtraction stabilization."""
    if a.data.ndim != 2:
        raise ShapeError(f"log_softmax_rows: need a matrix, got shape {a.shape}")
    z = a.data - a.data.max(axis=1, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def backward(g):
        return (g - np.exp(y) * g.sum(axis=1, keepdims=True),)

    return _make(y, (a,), backward)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: need a matrix, got shape {a.shape}")

    def backward(g):
        return (g.T,)

    return _make(a.data.T.copy(), (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    """Full reduction to a 0-d scalar tensor."""
    shape = a.data.shape

    def backward(g):
        return (np.full(shape, float(g)),)

    return _make(np.asarray(a.data.sum()), (a,), backward)


def pick_per_row(a: Tensor, indices) -> Tensor:
    """Gather one entry per row: out[i] = a[i, indices[i]]."""
    if a.data.ndim != 2:
        raise ShapeError(f"pick_per_row: need a matrix, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    n, m = a.data.shape
    if idx.shape != (n,):
        raise ShapeError(f"pick_per_row: need {n} indices, got shape {idx.shape}")
    if np.any(idx < 0) or np.any(idx >= m):
        raise DomainError(f"pick_per_row: index out of range for {m} columns")

    def backward(g):
        out = np.zeros((n, m))
        out[np.arange(n), idx] = g
        return (out,)

    return _make(a.data[np.arange(n), idx], (a,), backward)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes inside the band, zero outside."""
    mask = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        return (g * mask,)

    return _make(np.clip(a.data, lo, hi), (a,), backward)


# ---------------------------------------------------------------------------
# Backward pass and gradient checking

def backward(tape: Tape, loss: Tensor) -> None:
    """Assign ``.grad`` on every gradient-requiring leaf reachable on the tape.

    Leaves connected only through ``detach`` receive exact zeros.  Raises
    ``ShapeError`` if the loss is not a scalar.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    produced = {id(out) for out, _, _ in tape.entries}
    for out, inputs, backward_fn in reversed(tape.entries):
        g = grads.get(id(out))
        if g is None:
            continue
        for inp, ig in zip(inputs, backward_fn(g)):
            if not inp.requires_grad:
                continue
            acc = grads.get(id(inp))
            if acc is None:
                grads[id(inp)] = np.array(ig, dtype=np.float64)
            else:
                acc += ig
    for _, inputs, _ in tape.entries:
        for inp in inputs:
            if inp.requires_grad and id(inp) not in produced:
                inp.grad = grads.get(id(inp), np.zeros_like(inp.data))
    if loss.requires_grad and id(loss) not in produced:
        loss.grad = np.ones_like(loss.data)


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
