"""``prepare_queries`` normalizes a block in one call, row by row bits.

Each row of the block must equal ``prepare_query`` on that row, byte
for byte, for every metric — all-zero rows (whose norm is guarded),
``d = 1``, an empty batch and magnitudes from tiny to overflowing
included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.distance import prepare_queries, prepare_query


@st.composite
def blocks(draw):
    rows = draw(st.integers(0, 12))
    dim = draw(st.sampled_from((1, 1, 2, 3, 7, 16, 96, 769)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = 10.0 ** draw(st.sampled_from((-30, -3, 0, 3, 19)))
    block = (rng.standard_normal((rows, dim)) * scale).astype(np.float32)
    zero = np.array(draw(st.lists(st.booleans(), min_size=rows,
                                  max_size=rows)), dtype=bool)
    block[zero] = draw(st.sampled_from((0.0, -0.0)))
    return block


@settings(max_examples=200, deadline=None, derandomize=True)
@given(blocks(), st.sampled_from(("cosine", "l2", "ip")))
def test_each_row_is_prepare_query_of_that_row(block, metric):
    with np.errstate(over="ignore"):
        prepared = prepare_queries(block, metric)
        assert prepared.shape == block.shape
        assert prepared.dtype == np.float32
        for row in range(block.shape[0]):
            assert (prepared[row].tobytes()
                    == prepare_query(block[row], metric).tobytes())
