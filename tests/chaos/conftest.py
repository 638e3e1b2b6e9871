"""Shared corpus + cluster-runner factory for the chaos suite."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterTopology
from repro.cluster.runner import ClusterBenchRunner
from repro.data.groundtruth import exact_knn
from repro.engines.engine import IndexSpec
from repro.serve.arrivals import PoissonArrivals
from repro.serve.server import ServeConfig, TenantLoad


@pytest.fixture(scope="session")
def chaos_corpus():
    """480 rows in 16 dims plus 24 queries and exact top-5 truth."""
    rng = np.random.default_rng(21)
    X = rng.standard_normal((480, 16), dtype=np.float32)
    queries = rng.standard_normal((24, 16), dtype=np.float32)
    truth = exact_knn(X, queries, 5, "l2")
    return X, queries, truth


@pytest.fixture
def fresh_runner(chaos_corpus):
    """Factory: a new flat-index cluster runner per call.

    A chaos run consumes its runner (the supervisor edits routing, the
    mutation load grows allocators), so every test needing comparable
    runs builds one runner per run from this factory.
    """
    X, queries, truth = chaos_corpus

    def build(n_shards=2, replicas=2, spares=1, seed=0):
        topo = ClusterTopology(n_shards=n_shards, replicas=replicas,
                               spares=spares, seed=seed)
        cluster = Cluster(topo, "milvus", seed=seed)
        cluster.create_collection("c", X.shape[1],
                                  IndexSpec.of("flat", "l2"))
        cluster.insert("c", X)
        cluster.flush("c")
        return ClusterBenchRunner(cluster, "c", queries,
                                  ground_truth=truth, k=5)

    return build


@pytest.fixture
def serve_config():
    """Factory: a small open-loop FIFO config for chaos runs."""

    def build(duration_s=0.08, rate_qps=2000.0, seed=0):
        return ServeConfig(
            policy="fifo", duration_s=duration_s, seed=seed,
            max_inflight=8,
            tenants=(TenantLoad("all", PoissonArrivals(
                rate_qps=rate_qps)),))

    return build
