"""Independent oracle implementations used to certify the package code.

Everything here is deliberately naive (dense matrices, python loops, full
sorts) and written straight from the definitions, so agreement with the
package's vectorized code is meaningful evidence.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from dgcf.errors import DataError, ParseError
from dgcf.model import ModelParams
from dgcf.util import read_text


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def dense_normalized_adjacency(m: int, n: int, pairs) -> np.ndarray:
    """D^(-1/2) A D^(-1/2) built with dense arithmetic and explicit loops."""
    N = m + n
    A = np.zeros((N, N))
    for u, i in set(pairs):
        A[u, m + i] = 1.0
        A[m + i, u] = 1.0
    d = A.sum(axis=1)
    S = np.zeros((N, N))
    for r in range(N):
        for c in range(N):
            if A[r, c] != 0 and d[r] > 0 and d[c] > 0:
                S[r, c] = A[r, c] / math.sqrt(d[r] * d[c])
    return S


def brute_force_k_core(pairs: list[tuple[str, str]], k: int) -> set:
    """Delete ONE under-degree node at a time until none remains.

    A different deletion schedule than the implementation's simultaneous
    rounds; the k-core is unique, so results must still agree.
    """
    pairs = list(dict.fromkeys(pairs))
    while True:
        udeg: dict = {}
        ideg: dict = {}
        for u, i in pairs:
            udeg[u] = udeg.get(u, 0) + 1
            ideg[i] = ideg.get(i, 0) + 1
        victim = None
        for u in sorted(udeg):
            if udeg[u] < k:
                victim = ("u", u)
                break
        if victim is None:
            for i in sorted(ideg):
                if ideg[i] < k:
                    victim = ("i", i)
                    break
        if victim is None:
            return set(pairs)
        kind, node = victim
        if kind == "u":
            pairs = [(u, i) for u, i in pairs if u != node]
        else:
            pairs = [(u, i) for u, i in pairs if i != node]


def naive_recall(ranked, test_items, k) -> float:
    hits = 0
    for item in list(ranked)[:k]:
        if item in test_items:
            hits += 1
    return hits / len(test_items)


def naive_ndcg(ranked, test_items, k) -> float:
    dcg = 0.0
    for rank, item in enumerate(list(ranked)[:k]):
        if item in test_items:
            dcg += 1.0 / np.log2(rank + 2)
    idcg = 0.0
    for rank in range(min(len(test_items), k)):
        idcg += 1.0 / np.log2(rank + 2)
    return float(dcg / idcg)


def naive_rank(scores: np.ndarray, exclude, k: int) -> list[int]:
    """Full sort by (-score, index) after dropping excluded items and items
    whose score is not finite."""
    banned = set(int(i) for i in exclude)
    order = sorted((i for i in range(len(scores)) if i not in banned and math.isfinite(scores[i])),
                   key=lambda i: (-scores[i], i))
    return order[:k]


def naive_evaluate(e_star: np.ndarray, split, k: int):
    """Per-user full-sort evaluation; returns (recall, ndcg, users)."""
    m = split.m
    recalls, ndcgs = [], []
    for u in range(m):
        test = split.test[u]
        if not test:
            continue
        scores = np.array([float(np.sum(e_star[u] * e_star[m + i]))
                           for i in range(split.n)])
        top = naive_rank(scores, split.train.user_items(u), k)
        recalls.append(naive_recall(top, set(test), k))
        ndcgs.append(naive_ndcg(top, set(test), k))
    return float(np.mean(recalls)), float(np.mean(ndcgs)), len(recalls)


def naive_smoothness(E: np.ndarray) -> float:
    """O(r^2) pairwise cosine mean over nonzero rows."""
    rows = [r for r in np.asarray(E, dtype=np.float64) if np.linalg.norm(r) > 0]
    total = 0.0
    count = 0
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            total += float(rows[a] @ rows[b]
                           / (np.linalg.norm(rows[a]) * np.linalg.norm(rows[b])))
            count += 1
    return total / count


def random_interactions(rng: np.random.Generator, m: int, n: int,
                        per_user: int) -> list[tuple[int, int]]:
    """Random bipartite pairs with every user getting >= 1 item."""
    pairs = set()
    for u in range(m):
        items = rng.integers(0, n, size=per_user)
        pairs.add((u, int(items[0])))
        for i in items[1:]:
            pairs.add((u, int(i)))
    return sorted(pairs)


def finite_diff_grad(params: ModelParams, loss_closure, step: float = 1e-6) -> ModelParams:
    """Central-difference gradient estimate, one closure call pair per entry.

    Only for small instances; cost is 2 * (number of parameters) losses.
    """
    work = params.copy()

    def diff_entries(arr: np.ndarray) -> np.ndarray:
        g = np.zeros_like(arr)
        for ix in np.ndindex(arr.shape):
            orig = arr[ix]
            arr[ix] = orig + step
            up = loss_closure(work)
            arr[ix] = orig - step
            down = loss_closure(work)
            arr[ix] = orig
            g[ix] = (up - down) / (2.0 * step)
        return g

    return ModelParams(params.m, params.n, diff_entries(work.W),
                       [diff_entries(Wl) for Wl in work.W_layers])


def naive_read_adjacency(path: Path, m: int, n: int) -> dict[int, list[int]]:
    """'user item1 item2 ...' lines read one line and one int() per token at a
    time, with the package's error messages; items per user in file order."""
    out: dict[int, list[int]] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            u, *items = (int(tok) for tok in line.split())
        except ValueError:
            u, items = -1, []
        if not items or not 0 <= u < m or not all(0 <= i < n for i in items):
            raise ParseError(f"{path}:{lineno}: expected 'user item1 item2 ...' with user "
                             f"index < {m} and item indices < {n}, got {line!r}")
        out.setdefault(u, []).extend(items)
    if not out:
        raise DataError(f"{path}: no interactions found")
    return out


def naive_train_and_test(data_dir: Path, m: int, n: int) -> tuple[sp.csr_array, list[list[int]]]:
    """Train matrix and per-user test lists of a save_split directory, through
    naive_read_adjacency: a canonical 0/1 CSR array and sorted item sets."""
    pairs = [(u, i) for u, items in naive_read_adjacency(data_dir / "train.txt", m, n).items()
             for i in items]
    rows = sp.csr_array((np.ones(len(pairs)), tuple(np.array(pairs).T)), shape=(m, n))
    rows.sum_duplicates()
    rows.data[:] = 1.0
    test: list[list[int]] = [[] for _ in range(m)]
    if (data_dir / "test.txt").stat().st_size:
        for u, items in naive_read_adjacency(data_dir / "test.txt", m, n).items():
            test[u] = sorted(set(items))
    return rows, test


def write_v1_model(src: Path, dst: Path) -> None:
    """Rewrite the version-2 model file src as the version-1 file dst: the same
    header and parameters, without the graph section, with version byte 1 and
    a fresh CRC. Offsets come straight from the documented layout."""
    blob = Path(src).read_bytes()
    assert blob[:4] == b"DGCF" and blob[4] == 2, "expected a version-2 model file"
    m, n, d, _, _, _ = struct.unpack_from("<QQQQdd", blob, 8)
    body = bytearray(blob[:-4 - 32 - 8 * (m + n) * d])
    body[4] = 1
    Path(dst).write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
