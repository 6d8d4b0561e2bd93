"""Ranking evaluation (Recall@K, NDCG@K under train-exclusion) and the
embedding smoothness diagnostic used to measure over-smoothing versus depth."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .data import DatasetSplit, laplacian_for
from .errors import DataError
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


@functools.lru_cache(maxsize=8)
def _discounts(size: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Rank discounts 1/log2(r + 2) for r < size, and the ideal DCG of j hits,
    idcg[j], summed left to right from the first j discounts. Each entry is
    computed by the scalar expression and in the order a per-user sum uses, so
    a table lookup is bitwise that sum."""
    discount = tuple(float(1.0 / np.log2(r + 2)) for r in range(size))
    idcg = [0.0]
    for x in discount:
        idcg.append(idcg[-1] + x)
    return discount, tuple(idcg)


def recall_at_k(ranked_items, test_items: set, k: int) -> float:
    _check_k(k)
    if not test_items:
        raise ValueError("empty test set; caller must skip this user")
    top = itertools.islice(ranked_items, k)
    return sum(1 for item in top if item in test_items) / len(test_items)


def ndcg_at_k(ranked_items, test_items: set, k: int) -> float:
    """Binary relevance; ideal DCG truncated at min(|test|, k)."""
    _check_k(k)
    if not test_items:
        raise ValueError("empty test set; caller must skip this user")
    top = list(itertools.islice(ranked_items, k))
    ideal = min(len(test_items), k)
    # tables come in power-of-two sizes, so a whole evaluation shares one
    discount, idcg = _discounts(1 << (max(len(top), ideal) - 1).bit_length())
    dcg = sum(discount[r] for r, item in enumerate(top) if item in test_items)
    return float(dcg / idcg[ideal])


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
_product = np.matmul  # the filter's BLAS product; any within the rounding bound will do


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


def _top_k(e_star: np.ndarray, split: DatasetSplit, users: np.ndarray, k: int) -> list:
    """rank_items(score_all_items(e_star, m, u), u's train items, k) for each
    u in users, bitwise. Per block of users, one BLAS product A filters: with
    tau_u the k-th largest A - delta_u over u's rankable items, every item of
    the exact top k, ties included, has np.sum score >= tau_u, so A >= tau_u -
    delta_u. Only those candidates are scored, by score_all_items' arithmetic,
    and ranked. Users whose delta is not safely finite, and e_star other than
    C-contiguous float64, take the per-user reference."""
    m = split.m
    items = e_star[m:]
    n = len(items)
    delta, ok = _rounding_bound(e_star[users], items)
    ok &= e_star.dtype == np.float64 and e_star.flags.c_contiguous
    tops: list = [None] * len(users)
    for j in np.flatnonzero(~ok):
        u = int(users[j])
        tops[j] = rank_items(score_all_items(e_star, m, u), split.train.user_items(u), k)
    pos, kk = np.flatnonzero(ok), min(k, n)
    per = max(1, _BLOCK_SCORES // n)
    A_buf, lo_buf = np.empty((2, min(per, len(pos)), n))
    for b0 in range(0, len(pos), per):
        block = pos[b0:b0 + per]
        U, du = users[block], delta[block][:, None]
        A = _product(e_star[U], items.T, out=A_buf[:len(U)])
        lo = np.subtract(A, du, out=lo_buf[:len(U)])
        sub = split.train.rows[U]  # the block's train pairs, as flat offsets into A
        train = np.repeat(np.arange(len(U)) * n, np.diff(sub.indptr)) + sub.indices
        lo.reshape(-1)[train] = -np.inf
        lo.partition(n - kk, axis=1)  # tau: column n - kk; -inf if fewer than kk rankable
        keep = A >= lo[:, n - kk:n - kk + 1] - du
        keep.reshape(-1)[train] = False
        r, c = np.divmod(np.flatnonzero(keep), n)
        s = np.sum(items[c] * e_star[U[r]], axis=1)
        order = c[np.lexsort((c, -s, r))]
        cand = np.bincount(r, minlength=len(U))
        for j, start, size in zip(block.tolist(), (np.cumsum(cand) - cand).tolist(), cand.tolist()):
            tops[j] = order[start:start + min(k, size)]
    return tops


def evaluate_model(e_star: np.ndarray, split: DatasetSplit, k: int = 20) -> RankingMetrics:
    """Mean Recall@k / NDCG@k over users with non-empty test sets.

    Each user's list is bitwise rank_items(score_all_items(...)) with the
    user's train items excluded. It comes from a BLAS product that only picks
    a certified superset of the top k, whose members alone are scored exactly
    (see _top_k). The means run in user order, so the metrics do not depend on
    the BLAS build, its thread count or the block size.
    """
    _check_k(k)
    m, n = split.m, split.n
    if e_star.shape[0] != m + n:
        raise DataError(f"embedding rows {e_star.shape[0]} do not match m+n={m + n}")
    users = np.array([u for u in range(m) if split.test[u]], dtype=np.int64)
    if not len(users):
        raise DataError("no users with test interactions to evaluate")
    recalls, ndcgs = [], []
    for u, top in zip(users.tolist(), _top_k(e_star, split, users, k)):
        top, tset = top.tolist(), set(split.test[u])
        recalls.append(recall_at_k(top, tset, k))
        ndcgs.append(ndcg_at_k(top, tset, k))
    return RankingMetrics(recall_at_k=float(np.mean(recalls)), ndcg_at_k=float(np.mean(ndcgs)),
                          k=k, users_evaluated=len(recalls))


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
    for tag, L in hyper_grid:
        hyper = preset(tag, d=d, L=L)
        params = init_params(split.m, split.n, hyper, np.random.default_rng(seed))
        trace = forward(params, S, hyper)
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
