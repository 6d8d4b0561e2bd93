"""Ranking evaluation (Recall@K, NDCG@K under train-exclusion) and the
embedding smoothness diagnostic used to measure over-smoothing versus depth."""

from __future__ import annotations

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


def recall_at_k(ranked_items, test_items: set, k: int) -> float:
    if not test_items:
        raise ValueError("empty test set; caller must skip this user")
    top = list(ranked_items)[:k]
    return sum(1 for item in top if item in test_items) / len(test_items)


def ndcg_at_k(ranked_items, test_items: set, k: int) -> float:
    """Binary relevance; ideal DCG truncated at min(|test|, k)."""
    if not test_items:
        raise ValueError("empty test set; caller must skip this user")
    top = list(ranked_items)[:k]
    dcg = sum(1.0 / np.log2(r + 2) for r, item in enumerate(top) if item in test_items)
    idcg = sum(1.0 / np.log2(r + 2) for r in range(min(len(test_items), k)))
    return float(dcg / idcg)


def rank_items(scores: np.ndarray, exclude: np.ndarray, k: int) -> np.ndarray:
    """Top-k item indices by descending score, ties broken by ascending index;
    excluded items are pushed below everything rankable."""
    s = scores.astype(np.float64, copy=True)
    s[exclude] = -np.inf
    n = len(s)
    order = np.lexsort((np.arange(n), -s))  # primary: score desc; secondary: index asc
    top = order[: min(k, n)]
    return top[np.isfinite(s[top])]


def evaluate_model(e_star: np.ndarray, split: DatasetSplit, k: int = 20) -> RankingMetrics:
    """Mean Recall@k / NDCG@k over users with non-empty test sets.

    Scores come from e_star row dot products; each user's train items are
    excluded from the ranking before the cutoff is applied.
    """
    m, n = split.m, split.n
    if e_star.shape[0] != m + n:
        raise DataError(f"embedding rows {e_star.shape[0]} do not match m+n={m + n}")
    recalls: list[float] = []
    ndcgs: list[float] = []
    for u in range(m):
        test = split.test[u]
        if not test:
            continue
        scores = score_all_items(e_star, m, u)
        top = rank_items(scores, split.train.user_items(u), k)
        tset = set(test)
        recalls.append(recall_at_k(top, tset, k))
        ndcgs.append(ndcg_at_k(top, tset, k))
    if not recalls:
        raise DataError("no users with test interactions to evaluate")
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
