"""Generated cases (Hypothesis, under ``conftest``'s derandomized profile):
properties that hold for every input of a shape, checked on drawn inputs
beside the fixed case lists."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from namelearn import autodiff as ad  # noqa: E402
from namelearn.autodiff import DomainError  # noqa: E402
from namelearn.coordinator import check_matches  # noqa: E402


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


@st.composite
def match_indices(draw):
    """A column count and match indices, some out of range; half of them
    list every column besides."""
    u = draw(st.integers(1, 12))
    y = draw(st.lists(st.integers(-1, u), min_size=1, max_size=3 * u))
    if draw(st.booleans()):
        y = draw(st.permutations(y + list(range(u))))
    return u, y


@given(match_indices())
def test_check_matches_accepts_exactly_the_in_range_indices_that_use_every_column(case):
    u, y = case
    in_range = all(0 <= i < u for i in y)
    if in_range and np.bincount(y, minlength=u).all():
        matches = check_matches(y, (len(y), u))
        assert np.array_equal(matches.index, y)
        assert np.array_equal(matches.counts, np.bincount(y, minlength=u))
    else:
        with pytest.raises(DomainError):
            check_matches(y, (len(y), u))
