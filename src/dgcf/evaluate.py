"""Ranking evaluation (Recall@K, NDCG@K under train-exclusion) and the
embedding smoothness diagnostic used to measure over-smoothing versus depth."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .data import DatasetSplit, laplacian_for
from .errors import DataError
from .graph import BLOCK_ROWS, InteractionMatrix, even_partition, row_blocks, run_ranges
from .model import forward, init_params, preset, score_all_items


@dataclass
class RankingMetrics:
    recall_at_k: float
    ndcg_at_k: float
    k: int
    users_evaluated: int


@dataclass
class SmoothnessReport:
    model: str
    layer: int
    user_sim: float
    item_sim: float


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def rank_items(scores: np.ndarray, exclude: np.ndarray, k: int) -> np.ndarray:
    """The k rankable items with the highest scores, by descending score and
    then ascending index: the per-user reference ranking, which `recommend`
    uses and `evaluate_model` reproduces bitwise (and falls back to).

    Excluded items and items with a non-finite score are not rankable and are
    never returned; the list is shorter than k only when fewer than k items
    are rankable. The result is exactly the first k of a full sort, but only
    the candidates at or above the k-th key are sorted, ties at the boundary
    included.
    """
    _check_k(k)
    key = -np.asarray(scores, dtype=np.float64)  # ascending key: score desc
    key[exclude] = np.inf
    key[~np.isfinite(key)] = np.inf
    n = len(key)
    if k < n:
        cand = np.flatnonzero(key <= np.partition(key, k - 1)[k - 1])
    else:
        cand = np.arange(n)
    top = cand[np.lexsort((cand, key[cand]))[:k]]
    return top[key[top] < np.inf]


# Scores per block of users in evaluate_model: 2 MB of float64, whatever n.
_BLOCK_SCORES = 1 << 18


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ b, the filter's BLAS product, for a (U, d), a (d, n) b and a
    C-contiguous (U, n) out; any product within _rounding_bound will do. It
    runs as GEMMs of at most BLOCK_ROWS rows of a by BLOCK_ROWS columns of b,
    one numpy call per stack of them, written into out: at d <= 64 OpenBLAS
    runs each on the calling thread, where a larger one would wake OpenBLAS's
    own threads beside the ranges."""
    d, n = b.shape
    t = n // BLOCK_ROWS
    q = t * BLOCK_ROWS
    tiles = b[:, :q].reshape(d, t, BLOCK_ROWS).swapaxes(0, 1)  # (t, d, BLOCK_ROWS)
    for X, Y in zip(row_blocks(a), row_blocks(out)):
        if X.ndim == 2:  # the rest, one block of fewer rows
            X, Y = X[None], Y[None]
        B, R = Y.shape[:2]  # B blocks of R <= BLOCK_ROWS rows
        np.matmul(X[:, None], tiles, out=Y[..., :q].reshape(B, R, t, BLOCK_ROWS).swapaxes(1, 2))
        np.matmul(X, b[:, q:], out=Y[..., q:])
    return out


def _rounding_bound(user_rows: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per user, delta >= |BLAS score - np.sum score| over all items, and
    whether delta is finite far below overflow. Two float evaluations of a
    length-d dot product differ by at most 2 gamma_d sum_j |x_j y_j| <=
    2 gamma_d |x|_inf max_i |y_i|_1, plus underflow: delta is four times that
    plus the least normal float. The norms square nothing, so cannot underflow."""
    with np.errstate(invalid="ignore", over="ignore"):
        bound = (np.max(np.abs(user_rows), axis=1, initial=0.0)
                 * np.max(np.sum(np.abs(items), axis=1), initial=0.0))
    f = np.finfo(np.float64)
    return 4 * items.shape[1] * f.eps * bound + f.tiny, bound < f.max / 4  # False for nan


def _block_offsets(R, U: np.ndarray) -> np.ndarray:
    """Flat offsets into a (len(U), R.n) array of the users U's pairs in R."""
    start, count = R.indptr[U], R.indptr[U + 1] - R.indptr[U]
    row_start = np.cumsum(count) - count
    pos = np.arange(count.sum()) - np.repeat(row_start - start, count)  # into R.indices
    return np.repeat(np.arange(len(U)) * R.n, count) + R.indices[pos]


def _top_k(e_star: np.ndarray, split: DatasetSplit, users: np.ndarray, k: int) -> list:
    """rank_items(score_all_items(e_star, m, u), u's train items, k) for each
    u in users, bitwise. Per block of users, one BLAS product A filters: with
    tau_u the k-th largest A - delta_u over u's rankable items, every item of
    the exact top k, ties included, has np.sum score >= tau_u, so A >= tau_u -
    delta_u. Only those candidates are scored, by score_all_items' arithmetic,
    and ranked. Users whose delta is not safely finite, and e_star other than
    C-contiguous float64, take the per-user reference, on the calling thread.
    The blocks are cut into even_partition's ranges, a user's n scores
    counting as n / d rows, and each range ranks its blocks on its own
    thread; a block's lists do not depend on the other blocks, so they do not
    depend on the number of ranges."""
    m = split.m
    items = e_star[m:]
    n, d = items.shape
    delta, ok = _rounding_bound(e_star[users], items)
    ok &= e_star.dtype == np.float64 and e_star.flags.c_contiguous
    tops: list = [None] * len(users)
    for j in np.flatnonzero(~ok):
        u = int(users[j])
        tops[j] = rank_items(score_all_items(e_star, m, u), split.train.user_items(u), k)
    pos, kk = np.flatnonzero(ok), min(k, n)
    per = max(1, _BLOCK_SCORES // n)
    items_T = np.ascontiguousarray(items.T)  # _product's tiles of it are plain BLAS operands
    bounds = even_partition(len(pos), per, rows=len(pos) * n / max(d, 1))
    # each range's A and lo buffers, allocated on this thread: memory a worker
    # thread frees stays in that thread's malloc arena, where later work on
    # this thread cannot reuse it
    bufs = np.empty((len(bounds) - 1, 2, min(per, len(pos)), n))

    def blocks(first, end, sync):  # no traced name (rank_items, score_all_items) runs here
        A_buf, lo_buf = bufs[bounds.index(first)]
        for b0 in range(first, end, per):
            block = pos[b0:b0 + per]
            U, du = users[block], delta[block][:, None]
            A = _product(e_star[U], items_T, out=A_buf[:len(U)])
            lo = np.subtract(A, du, out=lo_buf[:len(U)])
            train = _block_offsets(split.train, U)
            lo.reshape(-1)[train] = -np.inf
            lo.partition(n - kk, axis=1)  # tau: column n - kk; -inf if fewer than kk rankable
            keep = A >= lo[:, n - kk:n - kk + 1] - du
            keep.reshape(-1)[train] = False
            r, c = np.divmod(np.flatnonzero(keep), n)
            s = np.sum(items[c] * e_star[U[r]], axis=1)
            order = c[np.lexsort((c, -s, r))]
            cand = np.bincount(r, minlength=len(U))
            for j, start, size in zip(block.tolist(), (np.cumsum(cand) - cand).tolist(),
                                      cand.tolist()):
                tops[j] = order[start:start + min(k, size)]

    run_ranges(bounds, blocks)
    return tops


def evaluate_model(e_star: np.ndarray, split: DatasetSplit, k: int = 20) -> RankingMetrics:
    """Mean Recall@k / NDCG@k over users with non-empty test sets.

    Each user's list is bitwise rank_items(score_all_items(...)) with the
    user's train items excluded. It comes from a BLAS product that only picks
    a certified superset of the top k, whose members alone are scored exactly
    (see _top_k). Blocks of users are ranked on the row-range threads
    (graph.run_ranges), and the means run in user order, so the metrics do
    not depend on the BLAS build, its thread count, the block size or the
    number of ranges.
    """
    _check_k(k)
    if split.test is None:
        raise DataError("the split's test lists were not read (load_split with read_test=False)")
    m, n = split.m, split.n
    if e_star.shape[0] != m + n:
        raise DataError(f"embedding rows {e_star.shape[0]} do not match m+n={m + n}")
    lengths = [len(items) for items in split.test]
    held = InteractionMatrix.from_pairs(m, n, np.column_stack((
        np.repeat(np.arange(m), lengths),
        np.fromiter(itertools.chain.from_iterable(split.test), np.int64, sum(lengths)))))
    n_test = np.diff(held.indptr)
    users = np.flatnonzero(n_test)
    if not len(users):
        raise DataError("no users with test interactions to evaluate")
    n_test, kk = n_test[users], min(k, n)
    # rank discounts 1/log2(r + 2) by the scalar expression of a per-user sum,
    # and the ideal DCG of j hits, idcg[j], summed left to right by cumsum
    discount = np.array([float(1.0 / np.log2(r + 2)) for r in range(kk)])
    idcg = np.concatenate(([0.0], np.cumsum(discount)))
    tops = _top_k(e_star, split, users, k)
    recalls, ndcgs = np.empty((2, len(users)))
    per = max(1, _BLOCK_SCORES // n)
    for b0 in range(0, len(users), per):
        U, block, size = users[b0:b0 + per], tops[b0:b0 + per], n_test[b0:b0 + per]
        count = np.array([len(top) for top in block])
        r = np.repeat(np.arange(len(U)), count)  # row and rank of each listed item
        c = np.arange(len(r)) - np.repeat(np.cumsum(count) - count, count)
        is_test = np.zeros(len(U) * n, dtype=bool)
        is_test[_block_offsets(held, U)] = True
        hits = np.zeros((len(U), kk))  # short lists end in misses
        hits[r, c] = is_test[r * n + np.concatenate(block)]
        recalls[b0:b0 + per] = hits.sum(axis=1) / size
        # a per-user sum of the hit discounts, left to right: adding a miss's 0.0 is exact
        dcg = np.cumsum(hits * discount, axis=1)[:, -1]
        ndcgs[b0:b0 + per] = dcg / idcg[np.minimum(size, k)]
    return RankingMetrics(recall_at_k=float(np.mean(recalls)), ndcg_at_k=float(np.mean(ndcgs)),
                          k=k, users_evaluated=len(users))


def smoothness(E_block: np.ndarray) -> float:
    """Mean pairwise cosine similarity over all unordered row pairs.

    Zero rows are excluded. Computed exactly for any size via the Gram
    identity: sum over a != b of cos(a, b) = |sum of unit rows|^2 - r.
    """
    E_block = np.asarray(E_block, dtype=np.float64)
    if E_block.ndim != 2:
        raise ValueError("expected a 2-d block of embedding rows")
    norms = np.linalg.norm(E_block, axis=1)
    nz = norms > 0
    r = int(nz.sum())
    if r < 2:
        raise DataError("smoothness undefined: fewer than 2 nonzero rows")
    unit = E_block[nz] / norms[nz][:, None]
    total = np.sum(unit, axis=0)
    val = (float(total @ total) - r) / (r * (r - 1))
    return float(np.clip(val, -1.0, 1.0))


def oversmoothing_bytes(split: DatasetSplit, d: int, L: int) -> int:
    """Bytes that oversmoothing_report holds for configurations of at most L
    layers, an upper bound: 2L + 6 (N, d) float arrays (W, the stack
    E(0..L), the mixes M(1..L), E*, D, and smoothness' two copies of one
    side's rows), the L (d, d) transforms, and S: its row pointers and three
    values per stored entry (values, column indices and S_mix's values)."""
    N = split.m + split.n
    return 8 * ((2 * L + 6) * N * d + L * d * d + N + 1 + 6 * split.train.nnz)


def oversmoothing_report(split: DatasetSplit, hyper_grid: list[tuple[str, int]],
                         seed: int, d: int = 64) -> list[SmoothnessReport]:
    """Per-layer user/item smoothness for each (model tag, depth) configuration.

    Tags name model presets, taken at their default fields.
    Every configuration starts from the identical seeded initialization, so
    rows differ only through the propagation rule.
    """
    S = laplacian_for(split)
    m = split.m
    out: list[SmoothnessReport] = []
    trace = None  # each forward reuses the previous trace's buffers
    for tag, L in hyper_grid:
        hyper = preset(tag, d=d, L=L)
        params = init_params(split.m, split.n, hyper, np.random.default_rng(seed))
        trace = forward(params, S, hyper, out=trace)
        for layer, E in enumerate(trace.E_layers):
            out.append(SmoothnessReport(model=tag, layer=layer,
                                        user_sim=smoothness(E[:m]),
                                        item_sim=smoothness(E[m:])))
    return out


def report_tsv(reports: list[SmoothnessReport]) -> str:
    lines = ["model\tlayer\tuser_sim\titem_sim"]
    for r in reports:
        lines.append(f"{r.model}\t{r.layer}\t{r.user_sim:.10f}\t{r.item_sim:.10f}")
    return "\n".join(lines) + "\n"
