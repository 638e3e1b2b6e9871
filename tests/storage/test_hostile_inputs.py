"""Hostile device inputs fail eagerly, with a typed error.

Every case below used to be accepted (a NaN latency read as zero, a
fractional size landed in ``bytes_read``) or died later with a raw
``ZeroDivisionError`` / ``ValueError`` far from the call that caused it.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import StorageError
from repro.simkernel import Environment
from repro.storage import SimSSD, samsung_990pro_4tb


@pytest.fixture
def device():
    return SimSSD(Environment(), samsung_990pro_4tb())


def untouched(device) -> bool:
    return (device.reads_issued == device.writes_issued == 0
            and device.bytes_read == device.bytes_written == 0
            and sorted(device._channel_free)
            == [0.0] * device.spec.channels
            and device.env.events_processed == 0
            and not device.env._heap)


# -- DeviceSpec ---------------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("channel_read_bw", 0),              # was: ZeroDivisionError on first read
    ("channel_write_bw", 0.0),
    ("channel_read_bw", math.inf),       # zero occupancy for any size
    ("read_seek_s", -1.0),               # was: a negative occupancy
    ("write_seek_s", 0.0),
    ("read_seek_s", math.nan),
    ("read_access_s", math.nan),         # was: zero latency, silently
    ("write_access_s", -1e-6),
    ("read_access_s", math.inf),
    ("cpu_per_request_s", 0.0),
    ("cpu_per_request_s", math.nan),
    ("max_request_bytes", 0),            # was: accepted, then no request fits
    ("max_request_bytes", -4096),
    ("capacity_bytes", math.nan),
    ("channels", math.nan),
])
def test_spec_rejects_degenerate_timing(field, value):
    with pytest.raises(StorageError, match="invalid device spec"):
        dataclasses.replace(samsung_990pro_4tb(), **{field: value})


def test_spec_accepts_zero_access_latency():
    spec = dataclasses.replace(samsung_990pro_4tb(), read_access_s=0.0,
                               write_access_s=0.0)
    assert spec.read_access_s == 0.0


# -- SimSSD.submit ------------------------------------------------------------

@pytest.mark.parametrize("requests", [
    None,                                # was: a zero timeout
    7,
    [(0,)],                              # was: a bare ValueError
    [(0, 4096, "R")],
    [4096],
    [(0, 4096), None],
], ids=repr)
def test_submit_rejects_a_non_sequence_of_pairs(device, requests):
    with pytest.raises(StorageError, match="pairs"):
        device.submit(requests, "R")
    assert untouched(device)


@pytest.mark.parametrize("request_", [
    (math.nan, 4096),                    # was: accepted (nan < 0 is false)
    (0, math.nan),
    (0, 4096.5),                         # was: bytes_read == 4096.5
    (0.0, 4096),
    (0, 4096.0),
    (True, 4096),
    (0, True),
    ("0", 4096),
    (0, "4096"),
    (None, 4096),
    (0, np.float64(4096)),
    (0, np.bool_(True)),
], ids=repr)
@pytest.mark.parametrize("op", ["R", "W"])
def test_submit_rejects_non_integer_geometry(device, request_, op):
    # Behind a valid request: nothing of the batch may be applied.
    with pytest.raises(StorageError):
        device.submit([(0, 4096), request_], op)
    assert untouched(device)


def test_submit_accepts_numpy_integers(device):
    requests = [(np.int64(8192), np.int32(4096)), (np.uint8(0), 4096)]
    done = device.submit(requests, "R")
    assert done.delay > 0
    assert device.reads_issued == 2 and device.bytes_read == 8192
    assert type(device.bytes_read + 0) is not float


@pytest.mark.parametrize("requests", [[], ()])
def test_empty_batch_is_still_a_zero_timeout(device, requests):
    done = device.submit(requests, "W")
    assert done.delay == 0.0
    assert device.writes_issued == 0


@pytest.mark.parametrize("duration", [math.nan, 0.0, -1.0])
def test_utilization_rejects_a_non_positive_or_nan_window(device, duration):
    with pytest.raises(StorageError, match="duration"):   # nan: was nan
        device.utilization(duration)
