"""Vectorized distance kernels shared by every index.

Supported metrics mirror those of the benchmarked databases: squared
Euclidean (``l2``), inner product (``ip``), and ``cosine``.  All kernels
return values where *smaller means closer*, so callers can rank results
uniformly; for ``ip`` and ``cosine`` the kernels therefore return
negated similarity.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnnIndexError

METRICS = ("l2", "ip", "cosine")


def _as_2d(Y: np.ndarray) -> np.ndarray:
    return Y if Y.ndim == 2 else Y.reshape(1, -1)


def normalize(X: np.ndarray) -> np.ndarray:
    """L2-normalize rows, guarding all-zero rows."""
    X = np.asarray(X, dtype=np.float32)
    norms = np.linalg.norm(_as_2d(X), axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return (_as_2d(X) / norms).reshape(X.shape)


def distances(query: np.ndarray, Y: np.ndarray, metric: str) -> np.ndarray:
    """Distance from one query vector to each row of *Y* (smaller=closer)."""
    Y = _as_2d(np.asarray(Y, dtype=np.float32))
    query = np.asarray(query, dtype=np.float32).reshape(-1)
    if query.shape[0] != Y.shape[1]:
        raise AnnIndexError(
            f"dimension mismatch: query {query.shape[0]} vs data {Y.shape[1]}")
    if metric == "l2":
        diff = Y - query
        return np.einsum("ij,ij->i", diff, diff)
    if metric == "ip":
        return -(Y @ query)
    if metric == "cosine":
        similarity = (Y @ query) / (
            (np.linalg.norm(Y, axis=1) * np.linalg.norm(query)) + 1e-30)
        return -similarity
    raise AnnIndexError(f"unknown metric {metric!r}; choose from {METRICS}")


def pairwise(X: np.ndarray, Y: np.ndarray, metric: str) -> np.ndarray:
    """Distance matrix between rows of *X* and rows of *Y*."""
    X = _as_2d(np.asarray(X, dtype=np.float32))
    Y = _as_2d(np.asarray(Y, dtype=np.float32))
    if X.shape[1] != Y.shape[1]:
        raise AnnIndexError(
            f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    if metric == "l2":
        x_sq = np.einsum("ij,ij->i", X, X)[:, None]
        y_sq = np.einsum("ij,ij->i", Y, Y)[None, :]
        out = x_sq + y_sq - 2.0 * (X @ Y.T)
        np.maximum(out, 0.0, out=out)
        return out
    if metric == "ip":
        return -(X @ Y.T)
    if metric == "cosine":
        xn = np.linalg.norm(X, axis=1, keepdims=True) + 1e-30
        yn = np.linalg.norm(Y, axis=1, keepdims=True) + 1e-30
        return -((X / xn) @ (Y / yn).T)
    raise AnnIndexError(f"unknown metric {metric!r}; choose from {METRICS}")


def prepare(X: np.ndarray, metric: str) -> tuple[np.ndarray, str]:
    """Preprocess data so the cheapest equivalent kernel can be used.

    For ``cosine``, vectors are L2-normalized once at build time and the
    internal metric becomes ``l2n``: squared Euclidean distance on unit
    vectors, computed as ``2 - 2 * <x, q>``.  It ranks identically to
    cosine but is *non-negative*, which graph-pruning rules with
    multiplicative slack (DiskANN's RobustPrune alpha) require.
    Returns ``(data, internal_metric)``.
    """
    X = np.ascontiguousarray(X, dtype=np.float32)
    if metric == "cosine":
        return normalize(X), "l2n"
    if metric in ("l2", "ip"):
        return X, metric
    raise AnnIndexError(f"unknown metric {metric!r}; choose from {METRICS}")


def prepare_query(query: np.ndarray, metric: str) -> np.ndarray:
    """The query-side counterpart of :func:`prepare`."""
    query = np.asarray(query, dtype=np.float32).reshape(-1)
    return normalize(query) if metric == "cosine" else query


def _padded_gemm(Xs: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``(B, n)`` inner products of *Q* rows with *Xs* rows.

    Runs as zero-padded fixed-width ``(n, dim) @ (dim, _BATCH_W)``
    blocks, so an entry's bits depend only on its two vectors.
    """
    n_queries, dim = Q.shape
    out = np.empty((n_queries, Xs.shape[0]), dtype=np.float32)
    for start in range(0, n_queries, _BATCH_W):
        stop = min(start + _BATCH_W, n_queries)
        padded = np.zeros((dim, _BATCH_W), dtype=np.float32)
        padded[:, :stop - start] = Q[start:stop].T
        out[start:stop] = (Xs @ padded)[:, :stop - start].T
    return out


def make_kernel(X: np.ndarray, internal_metric: str):
    """A fast closure ``kernel(query, ids) -> dists`` over rows of *X*.

    Avoids the per-call validation of :func:`distances` in index hot
    loops; *X* must already be the output of :func:`prepare`.

    Every inner product runs through the same fixed-width padded GEMM
    as :func:`make_batch_kernel` (never a raw BLAS matvec), so a row's
    distance depends only on its content and the query — not on how
    many other rows happen to be gathered into the same scoring call.
    BLAS matvec paths switch algorithms (and summation order) with the
    gathered row count, which made the *same* vector score to
    different last-ulp bits in different frontiers; content-only bits
    are what keeps a sharded index's distances identical to the
    single-node index's for identical rows, which the cluster layer's
    (distance, id) merge relies on (see :mod:`repro.cluster.merge`).

    One caveat: numpy hands a product with a *single* gathered row to
    BLAS ``gemv`` instead of ``gemm``, and the two sum in different
    orders, so ``kernel(q, [j])`` and ``kernel(q, [i, j])`` may
    disagree in the last ulp about row ``j``.  Each value is still a
    function of the two vectors alone.

    The GEMM-backed kernels (``ip``, ``l2n``) also take a ``(B, dim)``
    block of prepared vectors as *query*; the result is then
    ``(B, n_ids)`` and its row ``b`` is bit-identical to
    ``kernel(query[b], ids)``.  They advertise it as
    ``kernel.block_width = _BATCH_W``, the number of queries one call
    scores at no extra cost (the padded GEMM is that wide whether one
    column is used or all).  The ``l2`` kernel's ``diff`` formula pays
    for every query and has no block form; :func:`make_batch_kernel`'s
    norm expansion rounds differently, so it is no substitute.  Vamana
    construction leans on the blocks to reproduce, in bulk, the bits
    its one-query calls would produce.
    """
    dim = X.shape[1]

    def matvec(Xs: np.ndarray, query: np.ndarray) -> np.ndarray:
        if query.ndim == 2:
            return _padded_gemm(Xs, query)
        padded = np.zeros((dim, _BATCH_W), dtype=np.float32)
        padded[:, 0] = query
        return (Xs @ padded)[:, 0]

    if internal_metric == "ip":
        def kernel(query: np.ndarray, ids) -> np.ndarray:
            return -matvec(X[ids], query)
        kernel.block_width = _BATCH_W
        return kernel
    if internal_metric == "l2n":
        def kernel(query: np.ndarray, ids) -> np.ndarray:
            return 2.0 - 2.0 * matvec(X[ids], query)
        kernel.block_width = _BATCH_W
        return kernel
    if internal_metric == "l2":
        def kernel(query: np.ndarray, ids) -> np.ndarray:
            diff = X[ids] - query
            return np.einsum("ij,ij->i", diff, diff)
        return kernel
    raise AnnIndexError(f"no kernel for metric {internal_metric!r}")


def make_row_kernels(X: np.ndarray, internal_metric: str):
    """Kernels whose query is itself a row of *X*, a block at a time.

    Returns ``bind(rows) -> [score, ...]``, one closure per row, where
    ``score(ids)`` takes a list of ints and returns, as Python floats,
    exactly ``make_kernel(X, internal_metric)(X[row], ids).tolist()`` —
    bit for bit and for every ``len(ids)``.  Graph construction asks
    for thousands of small gathers per inserted row; this serves them
    at the price of a lookup.

    For ``l2n``, where a block of queries is free, one call scores the
    rows against all of *X* and ``score`` reads the result; a one-id
    gather, whose product BLAS routes (and rounds) differently, is
    still issued for real, against a query padded once per row.
    Scratch is ``len(rows) * n`` float32.  The ``l2`` kernel pays per
    element, so scoring all of *X* would cost more than the gathers it
    saves: its ``score`` gathers.
    """
    kernel = make_kernel(X, internal_metric)
    if internal_metric == "l2":
        return lambda rows: [
            lambda ids, query=X[row]: kernel(query, ids).tolist()
            for row in rows]
    if internal_metric != "l2n":
        raise AnnIndexError(
            f"no row kernels for metric {internal_metric!r}")
    dim = X.shape[1]
    two = np.float32(2.0)   # the array kernel's float32 arithmetic

    def bind_row(query: np.ndarray, dense: memoryview):
        padded = np.zeros((dim, _BATCH_W), dtype=np.float32)
        padded[:, 0] = query

        def score(ids: list[int]) -> list[float]:
            if len(ids) == 1:
                j = ids[0]
                return [float(two - two * (X[j:j + 1] @ padded)[0, 0])]
            # A memoryview hands out Python floats one entry at a time:
            # no O(n) conversion per row.
            return [dense[j] for j in ids]
        return score

    def bind(rows: np.ndarray):
        dense = kernel(X[rows], slice(None))
        return [bind_row(X[row], memoryview(dense[b]))
                for b, row in enumerate(rows)]
    return bind


def top_k(dists: np.ndarray, k: int) -> np.ndarray:
    """Indices of the *k* smallest distances, sorted ascending.

    Fully deterministic: equal distances are broken by ascending index,
    exactly as if the whole array were stable-sorted by ``(dist, id)``
    and truncated to *k*.  (``np.argpartition`` alone leaves the order
    — and, on a tie at the k-th place, even the *membership* — of equal
    distances unspecified across numpy versions.)
    """
    n = dists.shape[0]
    k = min(k, n)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k == n:
        return np.argsort(dists, kind="stable").astype(np.int64)
    part = np.argpartition(dists, k - 1)[:k]
    threshold = dists[part].max()
    # All indices at or below the k-th distance, ascending; the stable
    # sort then ranks by distance with ties in ascending-id order.
    candidates = np.flatnonzero(dists <= threshold)
    order = candidates[np.argsort(dists[candidates], kind="stable")]
    return order[:k].astype(np.int64)


def top_k_batch(dists: np.ndarray, k: int) -> np.ndarray:
    """Row-wise :func:`top_k` over a ``(B, n)`` distance matrix.

    Returns ``(B, min(k, n))`` indices; every row is bit-identical to
    ``top_k(dists[row], k)``.  The fast path partitions all rows in one
    numpy call; rows with a tie straddling the k-th place (where the
    partition's membership choice is unspecified) fall back to the
    scalar routine.
    """
    dists = np.asarray(dists)
    if dists.ndim != 2:
        raise AnnIndexError(f"top_k_batch needs a 2D matrix: {dists.shape}")
    n_queries, n = dists.shape
    k = min(k, n)
    if k <= 0:
        return np.empty((n_queries, 0), dtype=np.int64)
    if k == n:
        return np.argsort(dists, axis=1, kind="stable").astype(np.int64)
    # Partition on k (not k-1): position k then holds the (k+1)-th
    # smallest distance — the minimum of everything excluded — so the
    # ambiguity test below needs no full-width gather.
    part = np.argpartition(dists, k, axis=1)
    kept = np.sort(part[:, :k], axis=1)            # candidate ids ascending
    kept_dists = np.take_along_axis(dists, kept, axis=1)
    order = np.argsort(kept_dists, axis=1, kind="stable")
    out = np.take_along_axis(kept, order, axis=1).astype(np.int64)
    # A row is ambiguous iff something outside the partition ties the
    # row's k-th distance; re-rank those rows exactly.
    threshold = kept_dists.max(axis=1)
    spill = np.take_along_axis(dists, part[:, k:k + 1], axis=1)[:, 0]
    for row in np.flatnonzero(spill <= threshold):
        out[row] = top_k(dists[row], k)
    return out


#: Column width of the batched GEMM blocks.  Scoring always runs
#: through fixed-shape ``(n, _BATCH_W)`` matrix products (queries
#: zero-padded to the block width), which makes every result column
#: independent of the batch size and of the other queries in the block
#: — the property the batch-vs-sequential bit-identity tests pin down.
_BATCH_W = 16


def make_batch_kernel(X: np.ndarray, internal_metric: str,
                      x_sq: np.ndarray | None = None):
    """A closure ``kernel(Q, ids) -> (B, n_ids)`` over rows of *X*.

    The batch-of-queries counterpart of :func:`make_kernel`: *Q* is a
    ``(B, dim)`` float32 block of prepared queries, *ids* selects rows
    of *X* (an index array or a slice).  Distances are computed through
    fixed-width padded GEMM blocks (see :data:`_BATCH_W`), so column
    ``j`` of the result is bit-identical for any batch that contains
    query ``j`` — including ``B == 1``, which is how the single-query
    search paths stay bit-identical to the batched ones.

    For ``l2``, *x_sq* may pass in the precomputed row norms
    ``einsum("ij,ij->i", X, X)`` to avoid recomputing them per call.
    """
    if internal_metric == "ip":
        def kernel(Q: np.ndarray, ids) -> np.ndarray:
            return -_padded_gemm(X[ids], Q)
        return kernel
    if internal_metric == "l2n":
        def kernel(Q: np.ndarray, ids) -> np.ndarray:
            return 2.0 - 2.0 * _padded_gemm(X[ids], Q)
        return kernel
    if internal_metric == "l2":
        if x_sq is None:
            x_sq = np.einsum("ij,ij->i", X, X)

        def kernel(Q: np.ndarray, ids) -> np.ndarray:
            out = x_sq[ids][None, :] + np.einsum(
                "ij,ij->i", Q, Q)[:, None] - 2.0 * _padded_gemm(X[ids], Q)
            np.maximum(out, 0.0, out=out)
            return out
        return kernel
    raise AnnIndexError(f"no batch kernel for metric {internal_metric!r}")


def prepare_queries(queries: np.ndarray, metric: str) -> np.ndarray:
    """The batch counterpart of :func:`prepare_query`.

    Returns a ``(B, dim)`` float32 block; each row equals
    ``prepare_query(queries[row], metric)`` bit-for-bit.
    """
    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim != 2:
        raise AnnIndexError(
            f"query batch must be 2D (B, dim): {queries.shape}")
    if metric == "cosine":
        return np.vstack([normalize(q) for q in queries])
    return np.ascontiguousarray(queries)
