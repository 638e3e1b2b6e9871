"""Typed index parameters, SearchRequest, and work-profile merging."""

import dataclasses

import numpy as np
import pytest

from repro.ann.workprofile import WorkProfile
from repro.engines import (DiskANNParams, HNSWParams, IndexSpec,
                           SearchRequest, SPANNParams, make_params,
                           merge_works)
from repro.engines.params import coerce_params
from repro.errors import EngineError


class TestTypedParams:
    def test_defaults_match_paper_build_knobs(self):
        params = make_params("diskann")
        assert (params.R, params.L_build, params.alpha) == (32, 96, 1.3)

    def test_unknown_parameter_name_lists_valid_ones(self):
        with pytest.raises(EngineError, match="ef_construction"):
            make_params("hnsw", m=16)          # typo: lowercase m

    def test_unknown_kind_raises(self):
        with pytest.raises(EngineError, match="unknown index kind"):
            make_params("annoy")

    def test_out_of_range_values_fail_at_construction(self):
        with pytest.raises(EngineError, match="M must be positive"):
            make_params("hnsw", M=0)
        with pytest.raises(EngineError, match="alpha"):
            make_params("diskann", alpha=0.5)
        with pytest.raises(EngineError, match="cache_policy"):
            make_params("spann", cache_policy="mru")

    @pytest.mark.parametrize("kind, params", [
        ("diskann", {"R": float("nan")}), ("diskann", {"R": 8.5}),
        ("diskann", {"R": True}), ("diskann", {"L_build": float("inf")}),
        ("diskann", {"L_build": "96"}), ("diskann", {"alpha": float("nan")}),
        ("diskann", {"alpha": float("inf")}), ("diskann", {"alpha": True}),
        ("diskann", {"alpha": "1.3"}), ("hnsw", {"M": 16.0}),
        ("hnsw", {"ef_construction": False}), ("ivf", {"nlist": 4.5}),
        ("ivf-pq", {"pq_m": float("nan")}),
        ("hnsw-mmap", {"cache_bytes": 1.5}),
        ("hnsw-mmap", {"cache_bytes": True}),
        ("spann", {"closure_eps": float("nan")}),
        ("spann", {"closure_eps": -0.1}),
        ("spann", {"list_cache_bytes": float("inf")}),
        ("spann", {"max_replicas": 2.0}),
    ])
    def test_non_integral_and_non_finite_values_are_refused(self, kind,
                                                            params):
        with pytest.raises(EngineError):
            make_params(kind, **params)

    def test_numpy_integers_and_integral_alpha_are_accepted(self):
        params = make_params("diskann", R=np.int64(16),
                             L_build=np.int32(40), alpha=1)
        assert (params.R, params.L_build, params.alpha) == (16, 40, 1)

    def test_params_hashable_and_frozen(self):
        params = HNSWParams(M=8)
        assert hash(params) == hash(HNSWParams(M=8))
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.M = 16

    def test_as_dict_includes_defaults(self):
        assert SPANNParams(n_postings=16).as_dict()["max_replicas"] == 8


class TestIndexSpecShims:
    def test_of_builds_typed_params(self):
        spec = IndexSpec.of("hnsw", M=8, ef_construction=40)
        assert isinstance(spec.params, HNSWParams)
        assert spec.param_dict == {"M": 8, "ef_construction": 40}

    def test_plain_dict_accepted(self):
        spec = IndexSpec("diskann", "cosine", {"R": 16})
        assert spec.params == DiskANNParams(R=16)

    def test_none_means_all_defaults(self):
        assert IndexSpec("hnsw").params == HNSWParams()

    def test_wrong_dataclass_for_kind_raises(self):
        with pytest.raises(EngineError, match="expected"):
            IndexSpec("hnsw", "cosine", DiskANNParams())

    def test_validation_happens_inside_spec_too(self):
        with pytest.raises(EngineError):
            IndexSpec("hnsw", "cosine", {"M": -4})

    def test_coerce_rejects_garbage(self):
        with pytest.raises(EngineError, match="cannot interpret"):
            coerce_params("hnsw", 42)
        with pytest.raises(EngineError, match="cannot interpret"):
            coerce_params("hnsw", (("M", 8), ("ef_construction", 40)))


class TestSearchRequest:
    def test_of_sorts_params_into_canonical_tuple(self):
        request = SearchRequest.of(np.zeros(4), k=5, search_list=20,
                                   beam_width=2)
        assert request.params == (("beam_width", 2), ("search_list", 20))
        assert request.param_dict == {"beam_width": 2, "search_list": 20}

    def test_dict_params_normalized(self):
        request = SearchRequest(np.zeros(4), 5,
                                params={"ef_search": 16})
        assert request.params == (("ef_search", 16),)

    def test_nonpositive_k_raises(self):
        with pytest.raises(EngineError, match="k must be positive"):
            SearchRequest.of(np.zeros(4), k=0)

    def test_requests_with_same_spelling_compare_equal(self):
        a = SearchRequest.of(None, k=3, b=2, a=1)
        b = SearchRequest(None, 3, params=(("a", 1), ("b", 2)))
        assert a == b and hash(a) == hash(b)


class TestMergeWorks:
    def test_merge_works_sums_prefetch_counters(self):
        a, b = WorkProfile(), WorkProfile()
        a.prefetch_issued, a.prefetch_wasted = 4, 1
        b.prefetch_issued, b.prefetch_wasted = 2, 2
        merged = merge_works([a, b])
        assert merged.prefetch_issued == 6
        assert merged.prefetch_wasted == 3
