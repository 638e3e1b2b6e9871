"""A write load refuses every value it cannot simulate, at construction."""

import math

import pytest

from repro.errors import WorkloadError
from repro.mutate import MutationLoad


@pytest.mark.parametrize("field, value", [
    ("insert_qps", math.nan),
    ("insert_qps", math.inf),
    ("delete_qps", math.nan),
    ("delete_qps", math.inf),
    ("batch_rows", 2.5),
    ("batch_rows", True),
    ("rebuild_cpu_per_row_s", math.nan),
    ("write_amplification", math.inf),
])
def test_mutation_load_rejects_hostile_value(field, value):
    with pytest.raises(WorkloadError, match=field):
        MutationLoad(**{field: value})
