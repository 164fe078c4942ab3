"""Generated cases (Hypothesis, under ``conftest``'s derandomized profile):
properties that hold for every input of a shape, checked on drawn inputs
beside the fixed case lists."""

import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from namelearn import autodiff as ad  # noqa: E402
from namelearn.autodiff import DomainError, Tape, Tensor  # noqa: E402
from namelearn.coordinator import LR_BAND, check_matches  # noqa: E402
from namelearn.harness import ExperimentConfig, parse_config_file  # noqa: E402
from namelearn.settings import SessionSettings  # noqa: E402
from namelearn.text_agent import encode_text  # noqa: E402
from namelearn.world import FILLER_POOL, WorldConfig, check_split_labels  # noqa: E402
from test_fused_ops import FUSIONS, GRAD_MASKS, composed_text, run  # noqa: E402


@given(n=st.integers(0, 2000), block=st.integers(1, 600))
def test_row_blocks_cover_each_row_once_with_no_short_block(n, block):
    saved, ad.BLOCK_ROWS = ad.BLOCK_ROWS, block
    try:
        blocks = ad.row_blocks(n)
    finally:
        ad.BLOCK_ROWS = saved
    rows = [range(n)[b] for b in blocks]
    assert [i for r in rows for i in r] == list(range(n))
    assert all(r.step == 1 for r in rows)
    assert len(rows) == 1 or all(block <= 2 * len(r) < 3 * block for r in rows)


# Integer dtypes, and the float and bool ones an index check must refuse.
INDEX_DTYPES = [np.int8, np.int64, np.uint8, np.uint64, np.intp, np.float32, np.float64, np.bool_]


@st.composite
def index_arrays(draw):
    """A column count and an index array of a drawn dtype, some entries out of
    range (-1 wraps to the top of an unsigned dtype); a float array may hold
    fractions, and half of the arrays list every column besides."""
    u = draw(st.integers(1, 12))
    y = draw(st.lists(st.integers(-1, u), min_size=1, max_size=3 * u))
    if draw(st.booleans()):
        y = draw(st.permutations(y + list(range(u))))
    dtype = np.dtype(draw(st.sampled_from(INDEX_DTYPES)))
    values = np.array(y)
    if dtype.kind == "f":
        values = values + draw(st.sampled_from([0.0, 0.25, 0.9]))
    return u, values.astype(dtype)


def accepts(y, u):
    """Whether ``y`` is a valid index array into ``u`` columns."""
    return y.dtype.kind in "iu" and ((y >= 0) & (y < u)).all()


@given(index_arrays())
def test_check_labels_accepts_exactly_the_in_range_integer_indices(case):
    u, y = case
    if accepts(y, u):
        labels = ad.check_labels(y, (len(y), u))
        assert labels.index.dtype == np.intp and np.array_equal(labels.index, y)
    else:
        with pytest.raises(DomainError, match="^softmax_cross_entropy: "):
            ad.check_labels(y, (len(y), u))


@given(index_arrays())
def test_check_matches_accepts_exactly_the_in_range_indices_that_use_every_column(case):
    u, y = case
    if accepts(y, u) and np.bincount(y.astype(np.intp), minlength=u).all():
        matches = check_matches(y, (len(y), u))
        assert matches.index.dtype == np.intp and np.array_equal(matches.index, y)
        assert np.array_equal(matches.counts, np.bincount(matches.index, minlength=u))
    else:
        with pytest.raises(DomainError, match="^contrastive_loss: "):
            check_matches(y, (len(y), u))


@st.composite
def label_splits(draw):
    """A label space of distinct ids and one label per image, of a drawn
    dtype: ids in the space and ids outside it (-1 wraps to the top of an
    unsigned dtype); a float array may hold fractions."""
    ids = draw(st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True))
    y = draw(st.lists(st.sampled_from(ids) | st.integers(-1, 21), min_size=1, max_size=12))
    dtype = np.dtype(draw(st.sampled_from(INDEX_DTYPES)))
    values = np.array(y)
    if dtype.kind == "f":
        values = values + draw(st.sampled_from([0.0, 0.25, 0.9]))
    return ids, values.astype(dtype)


@given(label_splits())
def test_check_split_labels_accepts_exactly_the_integer_labels_in_the_space(case):
    ids, y = case
    if y.dtype.kind not in "iu":
        with pytest.raises(ValueError, match="not integers"):
            check_split_labels(len(y), y, ids)
    elif np.isin(y, ids).all():
        check_split_labels(len(y), y, ids)
    else:
        with pytest.raises(ValueError, match="outside the label space"):
            check_split_labels(len(y), y, ids)


# Entries whose sums are exact, so many pre-activations land on zero or
# cross it, signed zeros included.
EXACT = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])


def bits(a: np.ndarray) -> tuple:
    return a.shape, a.dtype, a.tobytes()


@given(
    u=st.integers(1, 6),
    d=st.integers(1, 5),
    fusion=st.sampled_from(list(FUSIONS)),
    mask=st.sampled_from(list(GRAD_MASKS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_encode_text_is_bit_identical_to_the_composed_chain(u, d, fusion, mask, seed):
    x_grad, _, fusion_grad = GRAD_MASKS[mask]
    rng = np.random.default_rng(seed)
    shapes = [(u, d), (d, d), (d,), (d, d), (d,), *FUSIONS[fusion](d), (u, d), (d,)]
    drawn = [rng.choice(EXACT, size=s) for s in shapes]
    x, mixer, layers, upstream, context = drawn[0], drawn[1:5], drawn[5:-2], *drawn[-2:]
    frozen = [Tensor(a) for a in mixer]

    def fused(x, *ls):
        return encode_text(x, frozen, context, ls)

    def oracle(x, *ls):
        return composed_text(x, context, *frozen, *ls)

    needs = (x_grad, *[fusion_grad] * len(layers))
    if not any(needs):  # nothing to record: the value alone
        with Tape() as tape:
            value = fused(Tensor(x), *map(Tensor, layers)).data
        assert len(tape) == 0
        assert bits(value) == bits(oracle(Tensor(x), *map(Tensor, layers)).data)
        return
    value, grads, entries = run(fused, [x, *layers], needs, upstream)
    ref_value, ref_grads, _ = run(oracle, [x, *layers], needs, upstream)
    assert entries == 1 and bits(value) == bits(ref_value)
    for g, ref, need in zip(grads, ref_grads, needs):
        assert (g is None) == (ref is None) == (not need)
        if need:
            assert bits(g) == bits(ref)


finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def world_configs(draw):
    """A ``WorldConfig`` that passes its own checks: latents separated clear
    of the noise spread, and words enough for every concept."""
    embed_dim = draw(st.integers(1, 64))
    n_seen, n_ood = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    noise_sigma = draw(st.floats(0.0, 1.0, **finite))
    spread = noise_sigma**2 * (embed_dim - 1) / 2.0
    return WorldConfig(
        embed_dim=embed_dim,
        image_dim=embed_dim + draw(st.integers(0, 64)),
        n_seen=n_seen,
        n_ood=n_ood,
        noise_sigma=noise_sigma,
        min_separation=2.0 * spread + draw(st.floats(1e-3, 10.0, **finite)),
        vocab_size=FILLER_POOL + n_seen + n_ood + 1 + draw(st.integers(0, 100)),
        seed=draw(st.integers(0, 2**31)),
    )


def ascending(elements):
    return st.lists(elements, min_size=1, max_size=5, unique=True).map(lambda v: tuple(sorted(v)))


@st.composite
def experiment_configs(draw):
    flags = {f.name: draw(st.booleans()) for f in fields(SessionSettings)}
    return ExperimentConfig(
        **flags,
        world=draw(world_configs()),
        shots=draw(ascending(st.integers(0, 64))),
        seeds=draw(st.lists(st.integers(0, 999), min_size=1, max_size=5, unique=True).map(tuple)),
        lrs=draw(ascending(st.floats(*LR_BAND, **finite))),
        epochs=draw(st.integers(1, 1000)),
        n_test_per_class=draw(st.integers(1, 1000)),
    )


def render(config: ExperimentConfig) -> str:
    """The config-file text of every field, world fields as ``world.<name>``."""

    def value(v):
        if isinstance(v, tuple):
            return ",".join(value(item) for item in v)
        return str(v).lower() if isinstance(v, bool) else repr(v)

    items = [(f"world.{f.name}", getattr(config.world, f.name)) for f in fields(WorldConfig)]
    items += [(f.name, getattr(config, f.name)) for f in fields(config) if f.name != "world"]
    return "".join(f"{key} = {value(v)}\n" for key, v in items)


# Each case draws about 30 values, so half the profile's cases keep the test
# under a second.
@settings(max_examples=100)
@given(experiment_configs())
def test_a_rendered_config_parses_back_equal(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text(render(config))
        assert parse_config_file(path) == config
