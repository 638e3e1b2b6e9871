"""``SearchRequest`` validation, fuzzed over every routing field.

A request either builds or raises a typed
:class:`~repro.errors.ReproError` (an ``EngineError``) — never a bare
``TypeError``, and never a request with a fractional or boolean ``k`` or
shard, or a NaN or infinite deadline ("no deadline" is spelled
``None``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import SearchRequest
from repro.errors import EngineError, ReproError

#: Per field: (valid values, invalid values).
FIELDS = {
    "k": ((1, 10, np.int64(3)),
          (0, -1, 2.5, True, False, math.nan, math.inf, "5", None)),
    "shard": ((None, 0, 3, np.int32(1)),
              (-1, 1.5, True, False, math.nan, "0")),
    "deadline_s": ((None, 0.01, 2, np.float64(0.5)),
                   (0, -0.1, math.nan, math.inf, -math.inf, True, False,
                    "1")),
    "consistency": (("one", "quorum", "all"), ("ONE", "", None, 1)),
    "params": (((), (("nprobe", 4),), {"ef_search": 16}),
               (5, "ab", ((1, 2),), [("x",)], {1: 2})),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({
    name: st.one_of(st.sampled_from(good).map(lambda v: (v, True)),
                    st.sampled_from(bad).map(lambda v: (v, False)))
    for name, (good, bad) in FIELDS.items()}))
def test_a_request_builds_exactly_when_every_field_is_valid(drawn):
    kwargs = {name: value for name, (value, _ok) in drawn.items()}
    if all(ok for _value, ok in drawn.values()):
        request = SearchRequest(np.zeros(4), **kwargs)
        assert isinstance(request.params, tuple)
    else:
        with pytest.raises(ReproError) as caught:
            SearchRequest(np.zeros(4), **kwargs)
        assert caught.type is EngineError


@pytest.mark.parametrize("kwargs", [
    dict(k=2.5), dict(k=True), dict(deadline_s=math.nan),
    dict(deadline_s=math.inf), dict(shard=1.5), dict(shard=True)])
def test_the_named_hostile_requests_are_rejected(kwargs):
    with pytest.raises(EngineError):
        SearchRequest.of(np.zeros(4), **kwargs)
