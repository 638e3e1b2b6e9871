"""Unit tests for the scalar quantizer."""

import numpy as np
import pytest

from repro.ann.sq import ScalarQuantizer
from repro.errors import AnnIndexError


@pytest.fixture
def data():
    rng = np.random.default_rng(0)
    return (rng.standard_normal((200, 12)) * 3 + 1).astype(np.float32)


def test_roundtrip_error_is_small(data):
    sq = ScalarQuantizer().train(data)
    recon = sq.decode(sq.encode(data))
    span = data.max(axis=0) - data.min(axis=0)
    assert (np.abs(recon - data) <= span / 255 + 1e-5).all()


def test_codes_are_uint8(data):
    sq = ScalarQuantizer().train(data)
    codes = sq.encode(data)
    assert codes.dtype == np.uint8


def test_out_of_range_values_clip(data):
    sq = ScalarQuantizer().train(data)
    extreme = data[0] * 100
    codes = sq.encode(extreme)
    assert codes.min() >= 0 and codes.max() <= 255


def test_constant_dimension_survives():
    X = np.ones((50, 4), dtype=np.float32)
    sq = ScalarQuantizer().train(X)
    assert np.isfinite(sq.decode(sq.encode(X))).all()


def test_use_before_train_raises(data):
    with pytest.raises(AnnIndexError):
        ScalarQuantizer().encode(data)


def test_empty_training_raises():
    with pytest.raises(AnnIndexError):
        ScalarQuantizer().train(np.empty((0, 3), dtype=np.float32))


def test_code_bytes():
    assert ScalarQuantizer().code_bytes(128) == 128


def test_quantization_preserves_neighbour_ranking(data):
    sq = ScalarQuantizer().train(data)
    recon = sq.decode(sq.encode(data))
    q = data[5]
    true_order = np.argsort(((data - q) ** 2).sum(axis=1))
    approx_order = np.argsort(((recon - q) ** 2).sum(axis=1))
    assert true_order[0] == approx_order[0]
