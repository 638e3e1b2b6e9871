"""A compile scans each IVF or flat segment once.

An IVF or flat scan reads no cache state, so inside
:meth:`~repro.ann.base.VectorIndex.reuse_traversals` the warm pass of
``BenchRunner._compile`` takes the cold pass's scan back instead of
scanning again.  The oracle is a compile on a copy of the same engine
whose indexes keep the base class's scope (which searches every time):
cold plans, warm plans, found ids and distance bits and recall must be
equal, and nothing may stay behind on an index.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.ann.base import VectorIndex
from repro.ann.flat import FlatIndex
from repro.ann.ivf import IVFIndex
from repro.data.groundtruth import exact_knn
from repro.data.synthetic import make_vectors
from repro.engines import IndexSpec, VectorEngine, get_profile
from repro.workload import BenchRunner

DIM, ROWS, GROWING, N_QUERIES, K = 16, 600, 25, 12, 10

SPECS = {"ivf": dict(nlist=12), "ivf-pq": dict(nlist=12, pq_m=4),
         "flat": {}}
PARAMS = {"ivf": {"nprobe": 3}, "ivf-pq": {"nprobe": 4}, "flat": {}}
_ENGINES: dict[tuple, VectorEngine] = {}


def data() -> np.ndarray:
    return make_vectors(ROWS + GROWING, DIM, n_clusters=8, seed=9,
                        latent_dim=6)


def queries() -> np.ndarray:
    rng = np.random.default_rng(4)
    out = data()[rng.integers(0, ROWS, size=N_QUERIES)] + 0.2 * (
        rng.standard_normal((N_QUERIES, DIM)).astype(np.float32))
    out[1] = out[0]                     # a repeated query
    return out


def engine_copy(kind: str, metric: str) -> VectorEngine:
    """Three sealed segments plus a growing buffer."""
    key = (kind, metric)
    if key not in _ENGINES:
        profile = dataclasses.replace(get_profile("milvus"),
                                      supported_indexes=tuple(SPECS),
                                      segment_bytes=ROWS // 3 * 4 * DIM)
        engine = VectorEngine(profile)
        engine.create_collection("c", DIM,
                                 IndexSpec.of(kind, metric, **SPECS[kind]),
                                 storage_dim=DIM)
        engine.insert("c", data()[:ROWS])
        engine.flush("c")
        engine.insert("c", data()[ROWS:])
        _ENGINES[key] = engine
    return copy.deepcopy(_ENGINES[key])


def counting_scans(monkeypatch) -> list:
    calls = []
    for cls in (IVFIndex, FlatIndex):
        def counted(self, *args, _scan=cls._scan):
            calls.append(id(self))
            return _scan(self, *args)
        monkeypatch.setattr(cls, "_scan", counted)
    return calls


def compile_once(kind: str, metric: str, *, deleted: bool = False):
    engine = engine_copy(kind, metric)
    if deleted:
        engine.collection("c").delete(range(0, ROWS, 7))
    truth = exact_knn(data(), queries(), K, metric)
    runner = BenchRunner(engine, "c", queries(), ground_truth=truth, k=K)
    cold, warm, recall = runner._compile(PARAMS[kind])
    found = [(ids.tolist(), dists.tobytes())
             for ids, dists in runner.compiled_results(PARAMS[kind])]
    for segment in engine.collection("c").segments:
        assert "_traversals" not in vars(segment.index)
    return cold, warm, recall, found


@pytest.mark.parametrize("metric", ["l2", "cosine", "ip"])
@pytest.mark.parametrize("kind", sorted(SPECS))
def test_one_scan_per_segment_and_the_plans_of_two(kind, metric,
                                                   monkeypatch):
    assert len(engine_copy(kind, metric).collection("c").segments) == 3
    calls = counting_scans(monkeypatch)
    got = compile_once(kind, metric)
    assert len(calls) == len(set(calls)) == 3
    for cls in (IVFIndex, FlatIndex):
        monkeypatch.setattr(cls, "reuse_traversals",
                            VectorIndex.reuse_traversals)
    calls.clear()
    want = compile_once(kind, metric)
    assert len(calls) == 6
    assert got == want
    assert got[0] == got[1]             # no cache state: warm is cold


@pytest.mark.parametrize("kind", ["ivf", "flat"])
def test_tombstones_search_per_query_inside_the_scope(kind, monkeypatch):
    """With tombstones a batch searches query by query (and may
    escalate); each key is still scanned once per compile."""
    calls = counting_scans(monkeypatch)
    got = compile_once(kind, "l2", deleted=True)
    scans = len(calls)
    for cls in (IVFIndex, FlatIndex):
        monkeypatch.setattr(cls, "reuse_traversals",
                            VectorIndex.reuse_traversals)
    calls.clear()
    assert compile_once(kind, "l2", deleted=True) == got
    # Half the scans: the repeated query (rows 0 and 1) takes row 0's
    # scans back in each pass, every other query in the warm pass.
    assert len(calls) == 2 * scans >= 2 * 3 * N_QUERIES


def test_a_search_outside_the_scope_always_scans(monkeypatch):
    index = engine_copy("ivf", "l2").collection("c").segments[0].index
    calls = counting_scans(monkeypatch)
    query = queries()[0]
    first = index.search(query, K, nprobe=3)
    index.search(query, K, nprobe=3)
    assert len(calls) == 2
    with index.reuse_traversals():
        with index.reuse_traversals():      # nested: shares the memo
            inside = index.search(query, K, nprobe=3)
        assert index._traversals            # outer scope still open
        wider = index.search(query, K, nprobe=4)    # other keys scan
        deeper = index.search(query, 2 * K, nprobe=3)
        assert len(calls) == 5
        assert index.search(query, K, nprobe=3) is inside
        assert index.search(query, K, nprobe=4) is wider
        assert index.search(query, 2 * K, nprobe=3) is deeper
        assert not index._traversals
    assert len(calls) == 5
    assert "_traversals" not in vars(index)
    assert inside.ids.tolist() == first.ids.tolist()
    assert inside.dists.tobytes() == first.dists.tobytes()
    assert len(deeper.ids) == 2 * K
