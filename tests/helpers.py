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
from scipy.special import expit

from dgcf.errors import DataError, ParseError
from dgcf.graph import spmm
from dgcf.model import ModelParams
from dgcf.util import read_text


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def row_order_spmm_add(S, E: np.ndarray, out0: np.ndarray) -> np.ndarray:
    """out0 + S @ E for a CSR S, each output row adding its entries' products
    one at a time in stored order: the sequence of an in-place CSR kernel."""
    out = np.array(out0, dtype=np.float64)
    E = np.asarray(E, dtype=np.float64)
    for r in range(S.shape[0]):
        for jj in range(S.indptr[r], S.indptr[r + 1]):
            out[r] += S.data[jj] * E[S.indices[jj]]
    return out


def layer_order_sum(weights, layers) -> np.ndarray:
    """E* = w_0 E(0) + w_1 E(1) + ..., each product rounded, added in layer order."""
    total = weights[0] * layers[0]
    for w, E in zip(weights[1:], layers[1:]):
        total = total + w * E
    return total



def lightgcn_forward(E0: np.ndarray, S: sp.csr_array, L: int) -> np.ndarray:
    """E(l) = S E(l-1) for l = 1..L; returns the uniform mean over E(0)..E(L).

    The independent LightGCN propagation: the model configured with alpha=0,
    beta=0, identity activation and free embeddings must reproduce it. E0
    here is a free embedding table, per the reference model's convention.
    """
    if L < 0:
        raise ValueError(f"L must be >= 0, got {L}")
    if S.shape[0] != E0.shape[0]:
        raise ValueError(f"S {S.shape} does not match E0 {E0.shape}")
    if L == 0:
        return E0.copy()
    acc = E0.copy()
    E = E0
    for _ in range(L):
        E = spmm(S, E)
        acc += E
    return acc / (L + 1)

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


def scipy_laplacian(R) -> sp.csr_array:
    """S = D^(-1/2) A D^(-1/2) of an InteractionMatrix R through scipy: A is
    the block matrix [[0, R], [R^T, 0]] in canonical CSR, D its row sums, and
    each value a_ij times the product of the two scale factors (1/sqrt(0) is
    taken as 0)."""
    rows = sp.csr_array((np.ones(R.nnz), R.indices, R.indptr), shape=(R.m, R.n))
    A = sp.block_array([[None, rows], [rows.T, None]], format="csr")
    A.sum_duplicates()
    A.sort_indices()
    d = np.asarray(A.sum(axis=1), dtype=np.float64).ravel()
    inv_sqrt = np.zeros_like(d)
    nz = d > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(d[nz])
    row_of = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    data = A.data * (inv_sqrt[row_of] * inv_sqrt[A.indices])
    return sp.csr_array((data, A.indices.copy(), A.indptr.copy()), shape=A.shape)


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


def predict(E_star: np.ndarray, m: int, u: int, i: int) -> float:
    """Score of item i for user u: dot of user row u and item row m+i."""
    n = E_star.shape[0] - m
    if not 0 <= u < m:
        raise IndexError(f"user index {u} out of range [0, {m})")
    if not 0 <= i < n:
        raise IndexError(f"item index {i} out of range [0, {n})")
    return float(np.sum(E_star[u] * E_star[m + i]))


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


def whole_batch_sample_bpr_triples(split, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """sample_bpr_triples with a rejection loop that re-checks the whole batch
    every round and redraws each negative found in the user's train set."""
    r = split.train
    deg = np.diff(r.indptr)
    eligible = np.flatnonzero((deg >= 1) & (deg < split.n))
    if len(eligible) == 0:
        raise DataError("no sampleable users: every user has no or all items in train")
    flat = r.codes
    users = eligible[rng.integers(0, len(eligible), size=batch_size)]
    offsets = rng.integers(0, deg[users])
    pos = r.indices[r.indptr[users] + offsets]
    neg = rng.integers(0, split.n, size=batch_size)
    while True:
        codes = users * split.n + neg
        loc = np.minimum(np.searchsorted(flat, codes), len(flat) - 1)
        hit = flat[loc] == codes
        if not hit.any():
            break
        neg[hit] = rng.integers(0, split.n, size=int(hit.sum()))
    return np.stack([users, pos, neg], axis=1).astype(np.int64)


def whole_array_adam(arrays, grads, lr: float, state: dict) -> None:
    """One Adam step in place, each operation over whole arrays on the calling
    thread, with the per-element operations of train.optimizer_step. state
    starts as {} and keeps t and the moments."""
    from dgcf.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

    if not state:
        state.update(t=0, m=[np.zeros_like(p) for p in arrays],
                     v=[np.zeros_like(p) for p in arrays])
    state["t"] += 1
    c1 = 1.0 - ADAM_BETA1 ** state["t"]
    c2 = 1.0 - ADAM_BETA2 ** state["t"]
    for p, g, mom, vel in zip(arrays, grads, state["m"], state["v"]):
        t1, t2 = np.empty_like(p), np.empty_like(p)
        mom *= ADAM_BETA1
        mom += np.multiply(1.0 - ADAM_BETA1, g, out=t1)
        vel *= ADAM_BETA2
        np.multiply(g, g, out=t2)
        t2 *= 1.0 - ADAM_BETA2
        vel += t2
        np.divide(mom, c1, out=t1)
        t1 *= lr
        np.divide(vel, c2, out=t2)
        np.sqrt(t2, out=t2)
        t2 += ADAM_EPS
        t1 /= t2
        p -= t1


def one_shot_margins(E_star: np.ndarray, m: int, batch: np.ndarray) -> np.ndarray:
    """x_t = <e_u, e_i - e_j> per triple, each row set gathered whole."""
    rows = E_star[m + batch[:, 1]]
    rows -= E_star[m + batch[:, 2]]
    rows *= E_star[batch[:, 0]]
    return np.sum(rows, axis=1)


def scatter_loss_grad(E_star: np.ndarray, m: int, batch: np.ndarray) -> np.ndarray:
    """d(mean softplus(-x_t))/dE* by per-triple scatter: with c_t = -sigmoid(-x_t)/B,
    the rows c_t (e_i - e_j) at u, c_t e_u at m+i and -c_t e_u at m+j, summed
    into zeros by one incidence-matrix product, each row in triple order."""
    u, i, j = batch[:, 0], m + batch[:, 1], m + batch[:, 2]
    B = len(batch)
    c = -expit(-one_shot_margins(E_star, m, batch)) / B
    vals = np.concatenate([c[:, None] * (E_star[i] - E_star[j]),
                           c[:, None] * E_star[u], -c[:, None] * E_star[u]])
    idx = np.concatenate([u, i, j])
    incidence = sp.csr_array((np.ones(3 * B), (idx, np.arange(3 * B))),
                             shape=(E_star.shape[0], 3 * B))
    return incidence @ vals


def naive_read_adjacency(path: Path, m: int, n: int) -> list[tuple[int, int]]:
    """'user item1 item2 ...' lines read one line and one int() per token at a
    time, with the package's error messages: the (user, item) pairs in file
    order, none for a file of blank lines."""
    out: list[tuple[int, int]] = []
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
        out.extend((u, i) for i in items)
    return out


def naive_read_map(path: Path, size: int) -> dict[str, int]:
    """'token<TAB>index' lines read one at a time, with the package's error
    messages: every token once, and the indices exactly 0..size-1."""
    mapping: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        try:
            index = int(fields[1]) if len(fields) == 2 else None
        except ValueError:
            index = None
        if index is None:
            raise ParseError(f"{path}:{lineno}: expected 'token<TAB>index', got {line!r}")
        if fields[0] in mapping:
            raise ParseError(f"{path}:{lineno}: token {fields[0]!r} is listed twice")
        mapping[fields[0]] = index
    if len(mapping) != size or set(mapping.values()) != set(range(size)):
        raise DataError(f"{path}: indices are not 0..{size - 1} as stats.json says")
    return mapping


def canonical_csr(m: int, n: int, pairs) -> sp.csr_array:
    """The m x n 0/1 matrix of (user, item) pairs as scipy builds it: a CSR
    array in canonical form, indices sorted within each row, repeats merged."""
    arr = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    rows = sp.csr_array((np.ones(len(arr)), (arr[:, 0], arr[:, 1])), shape=(m, n))
    rows.sum_duplicates()
    rows.data[:] = 1.0
    assert rows.has_canonical_format
    return rows


def naive_train_and_test(data_dir: Path, m: int, n: int) -> tuple[sp.csr_array, list[list[int]]]:
    """Train matrix and per-user test lists of a save_split directory, through
    naive_read_adjacency: a canonical 0/1 CSR array and sorted item sets."""
    rows = canonical_csr(m, n, naive_read_adjacency(data_dir / "train.txt", m, n))
    held: list[set[int]] = [set() for _ in range(m)]
    for u, i in naive_read_adjacency(data_dir / "test.txt", m, n):
        held[u].add(i)
    return rows, [sorted(items) for items in held]


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
