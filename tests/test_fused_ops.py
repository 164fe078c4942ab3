"""Each fused op against the composed generic ops it replaces.

A fused op's backward evaluates the composed ops' numpy expressions in their
order, so its value and every input gradient must be the same bits, not just
close: ``np.array_equal`` throughout.  Shapes are random, plus the default
and hard worlds' 16-shot round shapes, and for the row-blocked image ops a
batch of several blocks and a partial one.
"""

from dataclasses import astuple

import numpy as np
import pytest

from namelearn import autodiff as ad
from namelearn.autodiff import Tape, Tensor, backward
from namelearn.coordinator import (
    CLS_NUM_BAND,
    CON_NUM_BAND,
    FIXED_WEIGHTS,
    CoordinatorParams,
    check_matches,
    classification_loss,
    contrastive_loss,
    effective_temperature,
    similarity_matrix,
    total_loss,
    weighted_total,
)
from namelearn.image_agent import ALPHA, frozen_visual_features, robust_features
from namelearn.settings import SessionSettings
from namelearn.text_agent import LAMBDA_MIX

# (pairs, distinct prompts, embed dim) of a 16-shot round, and its classes.
DEFAULT16 = (160, 30, 32)
HARD16 = (320, 60, 16)
CLASSES = {DEFAULT16: 10, HARD16: 20}


def run(fn, arrays, needs_grad, upstream):
    """Value of ``fn`` and each input's gradient under the upstream gradient
    ``upstream`` (``mul`` then ``sum_all`` hand it over unchanged), plus the
    tape entries ``fn`` itself recorded."""
    inputs = [Tensor(a, requires_grad=r) for a, r in zip(arrays, needs_grad)]
    with Tape() as tape:
        out = fn(*inputs)
        entries = len(tape)
        if out.data.ndim:
            loss = ad.sum_all(ad.mul(out, Tensor(upstream)))
        else:
            loss = ad.scale(out, upstream)
    backward(tape, loss)
    return out.data, [t.grad for t in inputs], entries


def assert_same_bits(fused, composed, arrays, needs_grad, upstream):
    value, grads, entries = run(fused, arrays, needs_grad, upstream)
    ref_value, ref_grads, _ = run(composed, arrays, needs_grad, upstream)
    assert entries == 1
    assert value.shape == ref_value.shape and np.array_equal(value, ref_value)
    for g, ref, r in zip(grads, ref_grads, needs_grad):
        assert (g is None) == (ref is None) == (not r)
        if r:
            assert g.shape == ref.shape and np.array_equal(g, ref)


def composed_affine(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def _affine_cases():
    rng = np.random.default_rng(40)
    cases = []
    for k in range(6):
        n, i, o = (int(v) for v in rng.integers(1, 9, size=3))
        x_shape = (i,) if k % 3 == 0 else (n, i)
        mask = [(True, True, True), (True, False, False), (False, True, True)][k % 3]
        cases.append((f"random {x_shape}x{o} {mask}", x_shape, i, o, mask))
    for name, (_, u, d) in (("default16", DEFAULT16), ("hard16", HARD16)):
        cases += [
            (f"{name} frozen mixer", (u, d), d, d, (True, False, False)),
            (f"{name} fusion in", (u, 2 * d), 2 * d, d, (True, True, True)),
            (f"{name} fusion out", (u, d), d, d, (True, True, True)),
            (f"{name} scorer", (d,), d, d // 2, (True, False, False)),
            (f"{name} scorer out", (d // 2,), d // 2, 1, (True, False, False)),
        ]
    return cases


@pytest.mark.parametrize("case", _affine_cases(), ids=lambda c: c[0])
def test_affine_is_bit_identical_to_matmul_plus_bias(case):
    _, x_shape, i, o, mask = case
    rng = np.random.default_rng(len(case[0]))
    arrays = [rng.normal(size=x_shape), rng.normal(size=(i, o)), rng.normal(size=o)]
    upstream = rng.normal(size=x_shape[:-1] + (o,))
    assert_same_bits(ad.affine, composed_affine, arrays, mask, upstream)


def test_affine_rejects_bad_shapes():
    with pytest.raises(ad.ShapeError, match="affine"):
        ad.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.ones(5)))
    with pytest.raises(ad.ShapeError, match="bias"):
        ad.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))), Tensor(np.ones((2, 5))))


@pytest.mark.parametrize(
    "shape, weight",
    [((3, 4), LAMBDA_MIX), ((1, 7), 0.25), ((5,), -1.5), (DEFAULT16[1:], LAMBDA_MIX),
     (HARD16[1:], LAMBDA_MIX)],
)
def test_blend_is_bit_identical_to_two_scales_and_an_add(shape, weight):
    rng = np.random.default_rng(41)
    arrays = [rng.normal(size=shape), rng.normal(size=shape)]

    def composed(a, b):
        return ad.add(ad.scale(a, weight), ad.scale(b, 1.0 - weight))

    assert_same_bits(
        lambda a, b: ad.blend(a, b, weight), composed, arrays, (True, True),
        rng.normal(size=shape),
    )


def test_blend_rejects_mismatched_shapes():
    with pytest.raises(ad.ShapeError, match="blend"):
        ad.blend(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), 0.5)


def composed_similarity(img, txt):
    return ad.matmul(ad.l2_normalize_rows(img), ad.transpose(ad.l2_normalize_rows(txt)))


@pytest.mark.parametrize(
    "n, u, d", [(1, 1, 1), (4, 3, 5), (7, 7, 2), (2, 9, 6), DEFAULT16, HARD16]
)
@pytest.mark.parametrize("img_grad", [False, True], ids=["frozen_img", "img_grad"])
def test_similarity_matrix_is_bit_identical_to_the_composed_ops(n, u, d, img_grad):
    rng = np.random.default_rng(n * 100 + u)
    arrays = [rng.normal(size=(n, d)), rng.normal(size=(u, d))]
    assert_same_bits(
        similarity_matrix, composed_similarity, arrays, (img_grad, True),
        rng.normal(size=(n, u)),
    )


# (rows, raw dim, embed dim) of image batches: random, the 16-shot shots, and
# a batch of two whole blocks and a partial one.
IMAGE_SHAPES = [
    (1, 1, 1), (4, 5, 3), (7, 3, 2),
    (DEFAULT16[0], 64, DEFAULT16[2]), (HARD16[0], 32, HARD16[2]),
    (2 * ad.BLOCK_ROWS + 37, 64, 32),
]


@pytest.mark.parametrize("n, p, d", IMAGE_SHAPES)
@pytest.mark.parametrize(
    "mask", [(True, False), (False, True), (True, True)], ids=["images", "encoder", "both"]
)
def test_frozen_encoder_is_bit_identical_to_matmul(n, p, d, mask):
    rng = np.random.default_rng(n * 10 + p)
    arrays = [rng.normal(size=(n, p)), rng.normal(size=(p, d))]
    assert_same_bits(frozen_visual_features, ad.matmul, arrays, mask, rng.normal(size=(n, d)))


def composed_robust(x, alpha):
    return ad.add(ad.l2_normalize_rows(x), ad.scale(ad.detach(x), alpha))


@pytest.mark.parametrize("n, _, d", IMAGE_SHAPES)
@pytest.mark.parametrize("alpha", [ALPHA, 1.0])
@pytest.mark.parametrize("x_grad", [False, True], ids=["frozen_x", "x_grad"])
def test_robust_features_is_bit_identical_to_the_composed_chain(n, _, d, alpha, x_grad):
    rng = np.random.default_rng(n * 10 + d)
    x = rng.normal(size=(n, d))
    if not x_grad:  # nothing to record: the value alone
        with Tape() as tape:
            value = robust_features(Tensor(x), alpha).data
        assert len(tape) == 0
        assert np.array_equal(value, composed_robust(Tensor(x), alpha).data)
        return
    assert_same_bits(
        lambda t: robust_features(t, alpha), lambda t: composed_robust(t, alpha), [x], (True,),
        rng.normal(size=(n, d)),
    )


def test_robust_features_rejects_a_vector():
    with pytest.raises(ad.ShapeError, match="robust_features"):
        robust_features(Tensor(np.ones(3)))


def composed_total(l_con, l_cls, w_con_param, w_cls_param):
    """The chain the fused total replaced: add, two clips, two divs, two muls
    and an add."""
    denom = ad.add(w_con_param, w_cls_param)
    num_con = ad.clip(w_con_param, *CON_NUM_BAND)
    num_cls = ad.clip(w_cls_param, *CLS_NUM_BAND)
    w_con, w_cls = ad.div(num_con, denom), ad.div(num_cls, denom)
    return ad.add(ad.mul(w_con, l_con), ad.mul(w_cls, l_cls)), (w_con, w_cls, num_con, num_cls)


def _weight_cases():
    edges = [
        (1.0, 0.5), (CON_NUM_BAND[0], CLS_NUM_BAND[0]), (CON_NUM_BAND[1], CLS_NUM_BAND[1]),
        (CON_NUM_BAND[0], CLS_NUM_BAND[1]), (3.0, 0.05), (0.3, 1.5), (-0.2, 0.6),
    ]
    rng = np.random.default_rng(42)
    return edges + [tuple(rng.uniform(-0.5, 2.5, size=2)) for _ in range(5)]


@pytest.mark.parametrize("params", _weight_cases(), ids=lambda p: f"{p[0]:.3g},{p[1]:.3g}")
def test_weighted_total_is_bit_identical_to_the_weight_chain(params):
    rng = np.random.default_rng(43)
    arrays = [np.asarray(v) for v in (*rng.uniform(0.1, 3.0, size=2), *params)]
    mask = (True, True, True, True)
    upstream = float(rng.normal())

    def fused(l_con, l_cls, p_con, p_cls):
        return weighted_total(l_con, l_cls, (p_con, p_cls))[0]

    assert_same_bits(fused, lambda *t: composed_total(*t)[0], arrays, mask, upstream)
    tensors = [Tensor(a) for a in arrays]
    floats = weighted_total(*tensors[:2], tuple(tensors[2:]))[1]
    assert floats == tuple(t.item() for t in composed_total(*tensors)[1])


def test_fixed_weighted_total_is_bit_identical_to_constant_weights():
    rng = np.random.default_rng(44)
    arrays = [np.asarray(v) for v in rng.uniform(0.1, 3.0, size=2)]

    def composed(l_con, l_cls):
        w_con, w_cls = (Tensor(np.asarray(w)) for w in FIXED_WEIGHTS)
        return ad.add(ad.mul(w_con, l_con), ad.mul(w_cls, l_cls))

    assert_same_bits(
        lambda a, b: weighted_total(a, b, None)[0], composed, arrays, (True, True),
        float(rng.normal()),
    )


def composed_loss(img, txt, matches, labels, params, settings):
    """The chain the one-op total loss replaced: the temperature clip,
    ``similarity_matrix``, the two loss terms (the head's ``matmul`` inside
    the classification loss) and ``weighted_total``; the loss and its
    ``LossBreakdown`` fields, in order."""
    if settings.disable_coordinator_dynamics:
        tau = Tensor(np.asarray(1.0))
    else:
        tau = effective_temperature(params.tau_param)
    l_con = contrastive_loss(similarity_matrix(img, txt), matches, tau)
    l_cls = classification_loss(img, params.w_cls_head, labels)
    fixed = settings.disable_coordinator_dynamics or settings.disable_dynamic_balancing
    weights = None if fixed else (params.w_con_param, params.w_cls_param)
    total, (w_con, w_cls, num_con, num_cls) = weighted_total(l_con, l_cls, weights)
    floats = (l_con.item(), l_cls.item(), w_con, w_cls, tau.item(), total.item(), num_con, num_cls)
    return total, floats


LOSS_ARMS = {
    "default": SessionSettings(),
    "no_dynamics": SessionSettings(disable_coordinator_dynamics=True),
    "no_balancing": SessionSettings(disable_dynamic_balancing=True),
}
# Which operands ask for a gradient: (image, text, tau, head, w_con, w_cls).
# The image features are a constant of the loss, never a tape input: asked
# or not, they get none.
LOSS_MASKS = {
    "training": (False, True, True, True, True, True),
    "every_operand": (True, True, True, True, True, True),
    "frozen_text": (False, False, True, True, True, True),
    "image_only": (True, False, False, False, False, False),
    "head_only": (False, False, False, True, False, False),
    "scalars_only": (False, False, True, False, True, True),
}
# (pairs, distinct prompts, embed dim, classes, raw temperature): the
# temperatures lie below, inside and above its band.
LOSS_SHAPES = [
    (1, 1, 1, 2, 0.4), (4, 3, 5, 3, 1.3), (7, 7, 2, 4, 2.2), (9, 2, 6, 5, 0.8),
    (*DEFAULT16, CLASSES[DEFAULT16], 1.1), (*HARD16, CLASSES[HARD16], 2.5),
]


@pytest.mark.parametrize("n, u, d, c, raw_tau", LOSS_SHAPES)
@pytest.mark.parametrize("arm", list(LOSS_ARMS))
@pytest.mark.parametrize("mask", list(LOSS_MASKS))
def test_total_loss_is_bit_identical_to_the_composed_chain(n, u, d, c, raw_tau, arm, mask):
    settings, needs = LOSS_ARMS[arm], LOSS_MASKS[mask]
    rng = np.random.default_rng(n * 1000 + u * 10 + c)
    y = rng.permutation(np.concatenate([np.arange(u), rng.integers(0, u, size=n - u)]))
    matches = check_matches(y, (n, u))
    labels = ad.check_labels(rng.integers(0, c, size=n), (n, c))
    # Weight parameters on either side of their bands' edges.
    arrays = [
        rng.normal(size=(n, d)), rng.normal(size=(u, d)), np.asarray(raw_tau),
        rng.normal(scale=0.3, size=(d, c)), np.asarray(rng.uniform(0.3, 2.3)),
        np.asarray(rng.uniform(0.0, 1.2)),
    ]
    upstream = float(rng.normal())

    def run_loss(fused):
        img, txt, *learnables = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, needs)]
        # The arm's parameters, holding the operands of those it builds.
        params = CoordinatorParams(d, c, settings)
        for name, t in zip(("tau_param", "w_cls_head", "w_con_param", "w_cls_param"), learnables):
            if getattr(params, name) is not None:
                setattr(params, name, t)
        with Tape() as tape:
            if fused:
                img_rows = ad.unit_rows(img.data, "similarity_matrix")
                out, breakdown = total_loss(img, txt, img_rows, matches, labels, params)
                floats = astuple(breakdown)
            else:  # the chain, reading the image as the fused op does: a constant
                out, floats = composed_loss(Tensor(img.data), txt, matches, labels, params, settings)
            entries = len(tape)
            loss = ad.scale(out, upstream)
        backward(tape, loss)
        return out.data, floats, [t.grad for t in (img, txt, *learnables)], entries

    # A tensor gets a gradient exactly where it needs one and the arm trains it.
    trains = (False, True, arm != "no_dynamics", True, arm == "default", arm == "default")
    graded = [r and t for r, t in zip(needs, trains)]
    value, floats, grads, entries = run_loss(True)
    ref_value, ref_floats, ref_grads, _ = run_loss(False)
    assert entries == (1 if any(graded) else 0)  # with none, nothing to record
    assert [g is not None for g in grads] == graded
    assert np.array_equal(value, ref_value) and value.shape == ()
    assert np.array_equal(floats, ref_floats)
    for g, ref in zip(grads, ref_grads):
        assert (g is None) == (ref is None)
        if g is not None:
            assert g.shape == ref.shape and np.array_equal(g, ref)


def composed_layers(layers, z):
    """``affine`` layers ``(W1, b1, W2, b2, ...)`` with a ``relu`` between each
    two, as the generic ops."""
    for i in range(0, len(layers), 2):
        if i:
            z = ad.relu(z)
        z = ad.affine(z, layers[i], layers[i + 1])
    return z


def composed_text(x, context, *layers):
    """The chain the one-op text encode replaced: the mixer's affine, relu,
    affine, then concat_cols with the context tiled to one row per prompt,
    the fusion layers and the blend."""
    mixer, fusion = layers[:4], layers[4:]
    std = composed_layers(mixer, x)
    if not fusion:
        return std
    rows = Tensor(np.tile(context, (std.shape[0], 1)))
    return ad.blend(std, composed_layers(fusion, ad.concat_cols(std, rows)), LAMBDA_MIX)


# The fusion layers' shapes of each arm, for embed dim d: the default two
# layers, ``simple_concat_fusion``'s one, ``disable_text_context``'s none.
FUSIONS = {
    "default": lambda d: [(2 * d, d), (d,), (d, d), (d,)],
    "simple_concat": lambda d: [(2 * d, d), (d,)],
    "no_context": lambda d: [],
}
# Which operands ask for a gradient: (prompts, mixer, fusion).  The frozen
# mixer and the context are constants, never tape inputs: asked or not, the
# mixer gets no gradient.
GRAD_MASKS = {
    "training": (True, False, True),
    "frozen_names": (False, False, True),
    "frozen_fusion": (True, False, False),
    "every_operand": (True, True, True),
}


@pytest.mark.parametrize("u, d", [(1, 1), (3, 4), (7, 2), DEFAULT16[1:], HARD16[1:]])
@pytest.mark.parametrize("fusion", list(FUSIONS))
@pytest.mark.parametrize("mask", list(GRAD_MASKS))
def test_text_encode_is_bit_identical_to_the_composed_chain(u, d, fusion, mask):
    from namelearn.text_agent import encode_text

    rng = np.random.default_rng(u * 100 + d)
    shapes = FUSIONS[fusion](d)
    x_grad, mixer_grad, fusion_grad = GRAD_MASKS[mask]
    mixer = [rng.normal(size=s) for s in ((d, d), (d,), (d, d), (d,))]
    layers = mixer + [rng.normal(size=s) for s in shapes]
    arrays = [rng.normal(size=(u, d)), *layers]
    needs = (x_grad, *[False] * 4, *[fusion_grad] * len(shapes))
    context = rng.normal(size=d)
    frozen = [Tensor(a, requires_grad=mixer_grad) for a in mixer]

    def fused(x, *ls):
        return encode_text(x, frozen, context, ls[4:])

    def oracle(x, *ls):
        return composed_text(x, context, *ls)

    if not any(needs):  # nothing to record: the value alone
        tensors = [Tensor(a) for a in arrays]
        with Tape() as tape:
            value = fused(*tensors).data
        assert len(tape) == 0 and np.array_equal(value, oracle(*tensors).data)
        return
    assert_same_bits(fused, oracle, arrays, needs, rng.normal(size=(u, d)))
    assert all(m.grad is None for m in frozen)


@pytest.mark.parametrize("fusion", ["default", "simple_concat"])
def test_text_encode_backward_returns_none_for_frozen_inputs(fusion):
    """The ``disable_name_agent`` arm's operands: frozen prompts, and the
    mixer, a constant that is no input.  The backward hands the prompts
    ``None`` and forms only the fusion layers' gradients, which match the
    composed chain's."""
    from namelearn.text_agent import encode_text

    u, d = 5, 4
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(u, d)))
    mixer = [Tensor(rng.normal(size=s)) for s in ((d, d), (d,), (d, d), (d,))]
    context = rng.normal(size=d)
    layers = [Tensor(rng.normal(size=s), requires_grad=True) for s in FUSIONS[fusion](d)]
    with Tape() as tape:
        encode_text(x, mixer, context, layers)
    ((_, inputs, backward_fn),) = tape.entries
    upstream = rng.normal(size=(u, d))
    grads = backward_fn(upstream)
    assert len(grads) == len(inputs) == 1 + len(layers)
    assert inputs[0] is x and grads[0] is None
    _, ref, _ = run(
        lambda *ls: composed_text(x, context, *mixer, *ls),
        [t.data for t in layers],
        [True] * len(layers),
        upstream,
    )
    assert all(np.array_equal(g, r) for g, r in zip(grads[1:], ref))


def test_world_checks_its_text_features_through_the_agents_op():
    from namelearn import text_agent, world

    assert world.encode_text is text_agent.encode_text
