import numpy as np
import pytest

from namelearn import autodiff as ad
from namelearn.autodiff import (
    DomainError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    grad_check,
)


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor([0.0])).data == pytest.approx([0.5])


def test_relu_definition():
    out = ad.relu(Tensor([-1.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 2.0])


def test_l2_normalize_rows_hand_case():
    out = ad.l2_normalize_rows(Tensor([[3.0, 4.0]]))
    assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-12)


def test_l2_normalize_rows_zero_norm_row_rejected():
    with pytest.raises(DomainError):
        ad.l2_normalize_rows(Tensor([[0.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize(
    "divisor", [np.asarray(0.0), np.asarray(-0.0), np.asarray([[2.0, 0.0]])]
)
def test_div_rejects_zero_divisor(divisor):
    with pytest.raises(DomainError, match="zero divisor"):
        ad.div(Tensor([[1.0, 2.0]]), Tensor(divisor))


@pytest.mark.parametrize("indices", [[-1, 0], [0, 2]])
def test_pick_per_row_rejects_out_of_range_index(indices):
    with pytest.raises(DomainError, match="out of range"):
        ad.pick_per_row(Tensor(np.eye(2)), indices)


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(ShapeError) as exc:
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "matmul" in str(exc.value)
    assert "(2, 3)" in str(exc.value)


def test_backward_linear():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.scale(x, 3.0))
    backward(tape, loss)
    assert np.array_equal(x.grad, [3.0, 3.0])


def test_backward_detached_factor_is_constant():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(ad.detach(x), x))
    backward(tape, loss)
    assert np.array_equal(x.grad, [2.0])


def test_backward_sigmoid_at_zero():
    x = Tensor([0.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.sigmoid(x))
    backward(tape, loss)
    assert x.grad == pytest.approx([0.25])


def test_backward_rejects_nonscalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.scale(x, 2.0)
    with pytest.raises(ShapeError):
        backward(tape, y)


def test_detach_blocks_gradients_exactly():
    x = Tensor([1.5, -0.5, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.relu(ad.detach(x)))
    backward(tape, loss)
    assert x.grad is not None
    assert np.array_equal(x.grad, np.zeros(3))


def test_grad_check_quadratic():
    x = Tensor([1.0], requires_grad=True)
    err = grad_check(lambda t: ad.sum_all(ad.mul(t, t)), [x], eps=1e-5)
    assert err < 1e-6


def test_grad_check_constant_function():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([4.0, 5.0])
    err = grad_check(lambda t: ad.sum_all(c), [x], eps=1e-5)
    assert err == 0.0


def test_grad_check_rejects_bad_eps():
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda t: ad.sum_all(t), [x], eps=1e-2)


def test_grad_check_rejects_nonscalar_f():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        grad_check(lambda t: ad.scale(t, 2.0), [x], eps=1e-5)


def _random_composite(idx, x, w, b):
    """A nontrivial expression touching every differentiable op kind."""
    m = ad.matmul(x, w)                      # (N,H)
    m = ad.add(m, b)                         # row-bias add
    m = ad.relu(m)
    m = ad.add(m, ad.scale(ad.sigmoid(m), 0.5))
    m = ad.l2_normalize_rows(ad.add(m, Tensor(np.full(m.shape, 0.3))))
    ls = ad.log_softmax_rows(ad.mul(m, m))
    picked = ad.pick_per_row(ls, idx)
    ctx = ad.concat_cols(ad.mean_rows(m), ad.mean_rows(ad.transpose(ls)))
    total = ad.add(ad.sum_all(picked), ad.sum_all(ad.clip(ctx, -0.4, 0.4)))
    return ad.add(total, ad.sum_all(ad.div(picked, Tensor(np.asarray(2.0)))))


@pytest.mark.parametrize("seed", range(20))
def test_composite_expressions_grad_check(seed):
    rng = np.random.default_rng(seed)
    n, d, h = 3, 4, 5
    x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    w = Tensor(rng.normal(size=(d, h)), requires_grad=True)
    b = Tensor(rng.normal(size=h), requires_grad=True)
    idx = rng.integers(0, h, size=n)
    err = grad_check(lambda *p: _random_composite(idx, *p), [x, w, b], eps=1e-5)
    assert err < 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_l2_normalize_rows_unit_norms(seed):
    rng = np.random.default_rng(seed)
    out = ad.l2_normalize_rows(Tensor(rng.normal(size=(6, 9))))
    assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-10)


# Image and text feature shapes of a default and a hard-world 16-shot step,
# and of a criterion-1 round.
ROUND_SHAPES = [(160, 32), (30, 32), (320, 16), (60, 16), (4, 8)]


@pytest.mark.parametrize("order", ["C", "F"])
def test_unit_rows_matches_the_linalg_norm_oracle_bit_for_bit(order):
    rng = np.random.default_rng(7)
    shapes = ROUND_SHAPES + [tuple(rng.integers(1, 65, size=2)) for _ in range(200)]
    for shape in shapes:
        x = np.asarray(rng.normal(scale=rng.uniform(1e-3, 1e3), size=shape), order=order)
        y, norms = ad.unit_rows(x, "oracle")
        oracle = np.linalg.norm(x, axis=1, keepdims=True)
        assert norms.tobytes() == oracle.tobytes(), shape
        assert y.tobytes() == (x / oracle).tobytes(), shape


@pytest.mark.parametrize("seed", range(5))
def test_log_softmax_rows_exponentiate_to_one(seed):
    rng = np.random.default_rng(seed)
    out = ad.log_softmax_rows(Tensor(rng.normal(scale=30.0, size=(5, 7))))
    assert np.allclose(np.exp(out.data).sum(axis=1), 1.0, atol=1e-10)


def test_detach_values_identical_and_grad_severed():
    x = Tensor([[3.0, -1.0]], requires_grad=True)
    with Tape():
        y = ad.detach(x)
    assert np.array_equal(y.data, x.data)
    assert not y.requires_grad
    y.data[0, 0] = 99.0  # detached copy, not a view
    assert x.data[0, 0] == 3.0


def test_same_tensor_used_twice_accumulates():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(x, x))
    backward(tape, loss)
    assert x.grad == pytest.approx([6.0])


def test_gradients_through_shared_subexpression():
    # One tensor feeding two branches must receive the sum of both paths.
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.scale(x, 2.0)
        loss = ad.add(ad.sum_all(y), ad.sum_all(ad.mul(y, y)))
    backward(tape, loss)
    # d/dx [2x + 4x^2] = 2 + 8x
    assert np.allclose(x.grad, [10.0, 18.0])


# ---------------------------------------------------------------------------
# Softmax cross-entropy: one op against the composed form it replaced


def _xent_cases():
    rng = np.random.default_rng(3)
    yield np.asarray([[0.4, -1.0]]), [1]
    yield rng.normal(scale=5.0, size=(6, 4)), [0, 3, 3, 1, 2, 0]
    yield rng.normal(size=(5, 1)), [0] * 5


@pytest.mark.parametrize("case", list(_xent_cases()), ids=["N=1", "repeated", "one class"])
def test_softmax_cross_entropy_matches_composed_form(case):
    logits, labels = case
    a = Tensor(logits, requires_grad=True)
    with Tape() as tape:
        loss = ad.softmax_cross_entropy(a, labels)
    assert len(tape) == 1
    backward(tape, loss)
    b = Tensor(logits, requires_grad=True)
    with Tape() as tape:
        picked = ad.pick_per_row(ad.log_softmax_rows(b), labels)
        ref = ad.scale(ad.sum_all(picked), -1.0 / len(labels))
    backward(tape, ref)
    assert loss.shape == ()
    assert abs(loss.item() - ref.item()) <= 1e-12
    assert np.max(np.abs(a.grad - b.grad)) <= 1e-12


def test_softmax_cross_entropy_rejects_bad_input():
    with pytest.raises(ShapeError):
        ad.softmax_cross_entropy(Tensor(np.ones(3)), [0])
    with pytest.raises(ShapeError):
        ad.softmax_cross_entropy(Tensor(np.ones((0, 3))), [])
    with pytest.raises(ShapeError):
        ad.softmax_cross_entropy(Tensor(np.ones((2, 3))), [0])
    for labels in ([0, 3], [-1, 0]):
        with pytest.raises(DomainError, match="out of range"):
            ad.softmax_cross_entropy(Tensor(np.ones((2, 3))), labels)


# ---------------------------------------------------------------------------
# Gradient buffers: shared by reference inside a pass, never between leaves


def test_leaf_added_to_itself_gets_the_summed_gradient():
    a = Tensor([1.0, -2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(ad.add(a, a), Tensor([3.0, 5.0])))
    backward(tape, loss)
    assert np.array_equal(a.grad, [6.0, 10.0])


def test_leaf_feeding_two_matmuls_gets_the_summed_gradient():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    u, v = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    with Tape() as tape:
        loss = ad.add(ad.sum_all(ad.matmul(a, Tensor(u))), ad.sum_all(ad.matmul(a, Tensor(v))))
    backward(tape, loss)
    expected = np.ones((2, 4)) @ u.T + np.ones((2, 4)) @ v.T
    assert np.allclose(a.grad, expected, atol=1e-12)


def test_leaves_never_share_a_gradient_buffer():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    b = Tensor([[3.0, 4.0]], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.add(a, b))
    backward(tape, loss)
    assert a.grad is not b.grad
    assert a.grad.dtype == np.float64 and a.grad.shape == a.shape
    a.grad[0, 0] = 99.0
    assert np.array_equal(b.grad, [[1.0, 1.0]])
    backward(tape, loss)
    assert np.array_equal(a.grad, [[1.0, 1.0]])
    assert np.array_equal(b.grad, [[1.0, 1.0]])


def test_scalar_leaf_gradient_is_a_writable_array():
    t = Tensor(np.asarray(1.5), requires_grad=True)
    with Tape() as tape:
        loss = ad.add(ad.clip(t, 0.5, 2.0), ad.clip(t, 0.5, 2.0))
    backward(tape, loss)
    assert isinstance(t.grad, np.ndarray) and t.grad.shape == ()
    assert float(t.grad) == 2.0


@pytest.mark.parametrize("a_shape", [(2, 3), (3,)])
def test_matmul_backward_skips_operands_without_gradient(a_shape):
    rng = np.random.default_rng(1)
    g = rng.normal(size=(2, 4) if len(a_shape) == 2 else (4,))
    for a_grad, b_grad in [(True, False), (False, True), (False, False), (True, True)]:
        a = Tensor(rng.normal(size=a_shape), requires_grad=a_grad)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=b_grad)
        with Tape() as tape:
            ad.matmul(a, b)
        if not (a_grad or b_grad):
            assert len(tape) == 0
            continue
        (_, _, backward_fn), = tape.entries
        ga, gb = backward_fn(g)
        assert (ga is None) == (not a_grad) and (gb is None) == (not b_grad)


def test_mixed_graph_leaf_gradients_do_not_depend_on_frozen_operands():
    # A frozen weight, a fixed selection matrix and fixed features sit beside
    # learnable leaves; each learnable gradient equals the one computed with
    # every operand learnable.
    rng = np.random.default_rng(2)
    values = {
        "x": rng.normal(size=(5, 3)),  # fixed features
        "w": rng.normal(size=(3, 4)),  # frozen weight
        "sel": rng.normal(size=(5, 2)),  # selection matrix
        "table": rng.normal(size=(2, 4)),  # learnable
        "head": rng.normal(size=(4, 3)),  # learnable
        "v": rng.normal(size=4),  # learnable vector operand
    }

    def grads(learnable):
        t = {k: Tensor(v.copy(), requires_grad=k in learnable) for k, v in values.items()}
        with Tape() as tape:
            h = ad.add(ad.matmul(t["x"], t["w"]), ad.matmul(t["sel"], t["table"]))
            loss = ad.add(
                ad.sum_all(ad.relu(ad.matmul(h, t["head"]))),
                ad.sum_all(ad.matmul(t["v"], ad.transpose(h))),
            )
        backward(tape, loss)
        return {k: t[k].grad for k in learnable}

    mixed = grads({"table", "head", "v"})
    full = grads(set(values))
    for k, grad in mixed.items():
        assert np.array_equal(grad, full[k])
