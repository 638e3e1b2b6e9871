"""Unit tests for the product quantizer."""

import numpy as np
import pytest

from repro.ann.pq import ProductQuantizer
from repro.errors import AnnIndexError


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    return rng.standard_normal((400, 16)).astype(np.float32)


def test_dim_must_divide_into_subspaces():
    with pytest.raises(AnnIndexError):
        ProductQuantizer(dim=10, m=3)


def test_nbits_bounds():
    with pytest.raises(AnnIndexError):
        ProductQuantizer(dim=8, m=2, nbits=9)
    with pytest.raises(AnnIndexError):
        ProductQuantizer(dim=8, m=2, nbits=0)


def test_use_before_train_raises(data):
    pq = ProductQuantizer(dim=16, m=4)
    with pytest.raises(AnnIndexError):
        pq.encode(data)
    with pytest.raises(AnnIndexError):
        pq.adc_table(data[0])


def test_codes_shape_and_dtype(data):
    pq = ProductQuantizer(dim=16, m=4).train(data)
    codes = pq.encode(data)
    assert codes.shape == (400, 4)
    assert codes.dtype == np.uint8


def test_single_vector_encode(data):
    pq = ProductQuantizer(dim=16, m=4).train(data)
    code = pq.encode(data[0])
    assert code.shape == (4,)


def test_decode_reduces_error_with_more_subspaces(data):
    err = []
    for m in (2, 8, 16):
        pq = ProductQuantizer(dim=16, m=m).train(data)
        recon = pq.decode(pq.encode(data))
        err.append(float(((recon - data) ** 2).mean()))
    assert err[0] > err[1] > err[2]


def test_adc_matches_symmetric_distance_on_decoded(data):
    pq = ProductQuantizer(dim=16, m=4).train(data)
    codes = pq.encode(data)
    q = data[7]
    table = pq.adc_table(q)
    adc = ProductQuantizer.adc_distances(table, codes)
    decoded = pq.decode(codes)
    exact = ((decoded - q) ** 2).sum(axis=1)
    assert np.allclose(adc, exact, rtol=1e-4, atol=1e-4)


def test_adc_ranks_close_to_true_ranks(data):
    pq = ProductQuantizer(dim=16, m=16).train(data)
    codes = pq.encode(data)
    q = data[3] + 0.01
    adc = ProductQuantizer.adc_distances(pq.adc_table(q), codes)
    true = ((data - q) ** 2).sum(axis=1)
    # The true nearest neighbour must rank in the ADC top-5.
    assert true.argmin() in np.argsort(adc)[:5]


def test_one_dim_subspaces_use_quantile_grid(data):
    pq = ProductQuantizer(dim=16, m=16).train(data)
    recon = pq.decode(pq.encode(data))
    err = float(((recon - data) ** 2).mean())
    assert err < 1e-3  # 256 levels per scalar: near-lossless


def test_small_training_set_shrinks_codebooks():
    # Regression: with fewer training rows than codewords the codebooks
    # were padded with duplicate rows, which made the 1-D grid encoder's
    # searchsorted edges ambiguous and wasted ADC table width.
    X = np.random.default_rng(1).standard_normal((10, 8)).astype(np.float32)
    pq = ProductQuantizer(dim=8, m=2).train(X)
    assert pq.ksub_effective == 10
    assert pq.codebooks.shape == (2, 10, 4)
    codes = pq.encode(X)
    assert codes.max() < pq.ksub_effective
    assert np.isfinite(pq.decode(codes)).all()


def test_small_training_set_one_dim_grid_path():
    """dsub == 1 uses quantile grids; tiny sets must stay consistent."""
    X = np.random.default_rng(2).standard_normal((6, 4)).astype(np.float32)
    pq = ProductQuantizer(dim=4, m=4).train(X)
    assert pq.ksub_effective == 6
    codes = pq.encode(X)
    assert codes.max() < 6
    # Near-lossless: every training scalar is its own grid point.
    assert np.allclose(pq.decode(codes), X, atol=1e-5)


def test_small_training_set_adc_tables_match_effective_width():
    X = np.random.default_rng(3).standard_normal((10, 8)).astype(np.float32)
    Q = np.random.default_rng(4).standard_normal((3, 8)).astype(np.float32)
    pq = ProductQuantizer(dim=8, m=2).train(X)
    assert pq.adc_table(Q[0]).shape == (2, 10)
    assert pq.adc_tables(Q).shape == (3, 2, 10)
    codes = pq.encode(X)
    batch = ProductQuantizer.adc_distances_batch(pq.adc_tables(Q), codes)
    for b in range(3):
        assert np.array_equal(
            batch[b], ProductQuantizer.adc_distances(pq.adc_table(Q[b]),
                                                     codes))


def test_code_bytes(data):
    assert ProductQuantizer(dim=16, m=4).code_bytes() == 4


def test_train_shape_mismatch_raises(data):
    pq = ProductQuantizer(dim=8, m=2)
    with pytest.raises(AnnIndexError):
        pq.train(data)  # dim 16 != 8
