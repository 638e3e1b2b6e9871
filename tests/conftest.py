"""Shared fixtures: small clustered datasets for fast index tests, and
a reference-cycle probe for simulated runs."""

import gc
import weakref

import numpy as np
import pytest

from repro.ann.flat import FlatIndex
from repro.data.synthetic import make_vectors


@pytest.fixture(scope="session")
def small_data():
    """500 clustered unit vectors in 24 dims (latent 8)."""
    return make_vectors(500, 24, n_clusters=12, seed=7, latent_dim=8)


@pytest.fixture(scope="session")
def small_queries(small_data):
    rng = np.random.default_rng(99)
    rows = rng.integers(0, small_data.shape[0], size=32)
    noise = rng.standard_normal((32, small_data.shape[1])) * 0.2
    Q = small_data[rows] + noise.astype(np.float32)
    return Q / np.linalg.norm(Q, axis=1, keepdims=True)


@pytest.fixture(scope="session")
def small_truth(small_data, small_queries):
    """Exact cosine top-10 for the small dataset."""
    flat = FlatIndex(metric="cosine").build(small_data)
    return np.vstack([flat.search(q, 10).ids for q in small_queries])


@pytest.fixture
def live_envs(monkeypatch):
    """Factory: ``live_envs(runner_cls, call)`` runs ``call()`` with the
    cyclic collector off, drops its result, and returns how many of the
    :class:`~repro.simkernel.Environment` objects that
    ``runner_cls.open_replay`` opened meanwhile are still alive.

    0 means nothing the run left behind sits in a reference cycle with
    its timeline (whose devices carry the whole block trace): the
    session goes with its last reference, not at the next full
    collection.
    """

    def run(runner_cls, call) -> int:
        envs = []
        opener = runner_cls.open_replay

        def open_replay(self, *args, **kwargs):
            session = opener(self, *args, **kwargs)
            envs.append(weakref.ref(session.env))
            return session

        with monkeypatch.context() as patch:
            patch.setattr(runner_cls, "open_replay", open_replay)
            gc.collect()
            gc.disable()
            try:
                call()
                assert envs, "the call opened no replay session"
                return sum(env() is not None for env in envs)
            finally:
                gc.enable()

    return run
