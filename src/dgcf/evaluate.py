"""Ranking evaluation (Recall@K, NDCG@K under train-exclusion) and the
embedding smoothness diagnostic used to measure over-smoothing versus depth."""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
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
    then ascending index.

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


def _usable_cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def evaluate_model(e_star: np.ndarray, split: DatasetSplit, k: int = 20) -> RankingMetrics:
    """Mean Recall@k / NDCG@k over users with non-empty test sets.

    Scores come from e_star row dot products; each user's train items are
    excluded from the ranking before the cutoff is applied (see rank_items).
    Users are split into contiguous chunks, one per usable core, which worker
    threads score and rank; numpy releases the GIL inside both. The per-user
    values are gathered in user order, so the means are bitwise the same
    whatever the number of cores.
    """
    _check_k(k)
    m, n = split.m, split.n
    if e_star.shape[0] != m + n:
        raise DataError(f"embedding rows {e_star.shape[0]} do not match m+n={m + n}")
    users = [u for u in range(m) if split.test[u]]
    if not users:
        raise DataError("no users with test interactions to evaluate")

    def user_metrics(chunk: list[int]) -> list[tuple[float, float]]:
        out = []
        for u in chunk:
            top = rank_items(score_all_items(e_star, m, u), split.train.user_items(u), k).tolist()
            tset = set(split.test[u])
            out.append((recall_at_k(top, tset, k), ndcg_at_k(top, tset, k)))
        return out

    workers = min(_usable_cores(), len(users))
    if workers == 1:
        parts = [user_metrics(users)]
    else:
        bounds = [len(users) * w // workers for w in range(workers + 1)]
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(user_metrics, [users[a:b] for a, b in zip(bounds, bounds[1:])]))
    recalls, ndcgs = zip(*itertools.chain.from_iterable(parts))
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
