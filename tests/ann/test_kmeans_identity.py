"""The array k-means is the seed's k-means, bit for bit.

``repro.ann.kmeans`` computes the data norms once, writes each Lloyd
step's distance matrix into reused scratch and updates every centroid
in one grouped pass; ``tests/ann/reference_kmeans.py`` keeps the loop it
replaced.  Centroids and assignments must be byte-equal on the inputs
a naive rewrite breaks: ``d = 1`` (numpy sums an ``(m, 1)`` block
pairwise), all-``-0.0`` coordinates (numpy's sum starts from ``+0.0``),
data far from the origin (where the distance expansion's rounding
order and its clamp at 0 decide assignments),
empty clusters (all take the one farthest point), ``k >= n``,
duplicated rows and every ``max_iters`` from 1 to 20.  The IVF, IVF-PQ
and SPANN builds are pinned by digests taken with the seed's k-means.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.ivf import IVFIndex
from repro.ann.kmeans import kmeans, kmeans_pp_init
from repro.ann.pq import ProductQuantizer
from repro.ann.spann import SPANNIndex
from repro.data.synthetic import make_vectors
from tests.ann import reference_kmeans as reference

#: Coordinates that collide: signed zeros, repeats, exact halves.
COORDS = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.25)


def assert_same(X, k, max_iters, seed):
    want = reference.kmeans(X, k, max_iters=max_iters, seed=seed)
    got = kmeans(X, k, max_iters=max_iters, seed=seed)
    assert got[0].dtype == want[0].dtype
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@st.composite
def cases(draw):
    n = draw(st.integers(1, 60))
    d = draw(st.sampled_from((1, 1, 2, 3, 5, 8)))
    k = draw(st.integers(1, 70))
    kind = draw(st.sampled_from(("gauss", "grid", "dup", "negzero",
                                 "far")))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "gauss":
        X = rng.standard_normal((n, d)) * 10.0 ** draw(st.integers(-3, 3))
    elif kind == "grid":
        X = rng.choice(COORDS, size=(n, d))
    elif kind == "dup":
        distinct = rng.standard_normal((draw(st.integers(1, 4)), d))
        X = distinct[rng.integers(len(distinct), size=n)]
    elif kind == "negzero":
        X = np.full((n, d), -0.0)
        X[rng.random((n, d)) < 0.3] = 1.0
    else:
        # Far from the origin: x_sq + c_sq - 2 G cancels, so its
        # rounding (and the clamp at 0) decides assignments.
        X = 10.0 ** draw(st.integers(2, 4)) + rng.standard_normal((n, d))
    return (X.astype(np.float32), k, draw(st.integers(1, 20)),
            draw(st.integers(0, 50)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases())
def test_kmeans_is_the_seed_kmeans(case):
    assert_same(*case)


def test_kmeans_pp_init_is_the_seed_init():
    X = make_vectors(500, 16, n_clusters=6, seed=2)
    for k in (1, 7, 64):
        want = reference.kmeans_pp_init(X, k, np.random.default_rng(k))
        got = kmeans_pp_init(X, k, np.random.default_rng(k))
        assert got.tobytes() == want.tobytes()


def test_empty_clusters_all_take_the_farthest_point():
    # Three distinct rows, eight clusters: k-means++ runs out of mass
    # and seeds duplicates, whose clusters then come up empty.
    X = np.repeat(np.array([[0.0, 0.0], [1.0, -0.0], [5.0, 5.0]],
                           dtype=np.float32), [30, 2, 1], axis=0)
    centroids, assignments = kmeans(X, 8, max_iters=3, seed=1)
    empty = np.bincount(assignments, minlength=8) == 0
    assert empty.any()
    assert_same(X, 8, 3, 1)
    assert len({row.tobytes() for row in centroids[empty]}) == 1


def test_an_all_negative_zero_column_sums_to_positive_zero():
    X = np.zeros((40, 3), dtype=np.float32)
    X[:, 1] = -0.0
    X[::2, 2] = 4.0
    centroids, _ = kmeans(X, 2, seed=0)
    assert not np.signbit(centroids[:, 1]).any()
    assert_same(X, 2, 20, 0)


def test_d1_keeps_numpys_pairwise_means():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((3000, 1)).astype(np.float32)
    assert_same(X, 5, 20, 3)


def test_large_blocks_match():
    rng = np.random.default_rng(11)
    assert_same(rng.standard_normal((2000, 24)).astype(np.float32),
                96, 20, 0)
    assert_same(rng.standard_normal((4000, 4)).astype(np.float32),
                256, 6, 5)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def test_index_builds_match_the_digests_pinned_with_the_seed_kmeans():
    X = make_vectors(1500, 32, n_clusters=10, seed=3)
    ivf = IVFIndex(metric="l2").build(X)
    assert digest(ivf.centroids, *ivf._lists) == (
        "d5106b312da7a6995be24fd5c03993758cb31b30e666e052acedc3bc1c457ff3")
    ivf = IVFIndex(metric="cosine", nlist=40, seed=2).build(X)
    assert digest(ivf.centroids, *ivf._lists) == (
        "d26a6a63968abdecdf495a35bc9219d30a09c9cc83eecad309f7ff9ea61c3f68")
    pq = ProductQuantizer(32, m=8, seed=1)           # dsub 4: k-means
    ivfpq = IVFIndex(metric="l2", nlist=24, quantizer=pq,
                     on_disk=True).build(X)
    assert digest(ivfpq.centroids, pq.codebooks, *ivfpq._lists,
                  *ivfpq._codes) == (
        "1b238e27546b3262451a64b44cdd38acd37a21ad002686555d0cacb1b3f59527")
    spann = SPANNIndex(metric="l2", seed=4).build(X)
    assert digest(spann.centroids, *spann._lists) == (
        "1571ddd987da62b93abcc31b96864fd3d9d869f0e8e55d8b73e58bbb7b4e4587")
