"""BPR training with exact hand-written backpropagation and Adam.

backward() is reverse-mode differentiation of the forward pass written out
by hand, layer by layer; the test suite certifies it against central finite
differences. TrainConfig holds everything about a training run, including
the learning rate and the L2 weight; Hyperparams holds the model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .data import DatasetSplit, laplacian_for, sample_bpr_triples
from .errors import ConfigError, DivergenceError
from .evaluate import evaluate_model
from .graph import BLOCK_ROWS, add_product, even_partition, row_blocks, row_partition, run_ranges
from .model import ForwardTrace, Hyperparams, ModelParams, Workspace, forward, init_params

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # the Adam paper's defaults


@dataclass
class TrainConfig:
    """One training run: Adam's step size, bpr_loss's L2 weight, batches and early stopping."""

    lr: float = 1e-3
    reg_lambda: float = 1e-4
    epochs: int = 200
    batch_size: int = 1024
    batches_per_epoch: int | None = None  # None = ceil(nnz / batch_size)
    seed: int = 0
    eval_every: int = 10  # 0 disables validation and early stopping
    early_stop_patience: int = 10  # evaluations without improvement

    def __post_init__(self):
        for key in ("lr", "reg_lambda"):
            value = getattr(self, key)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        for key, low in (("epochs", 0), ("batch_size", 1), ("batches_per_epoch", 1),
                         ("eval_every", 0), ("early_stop_patience", 1)):
            value = getattr(self, key)
            if value is not None and value < low:  # batches_per_epoch may be None
                raise ConfigError(f"{key} must be >= {low}, got {value}")


@dataclass
class OptimizerState:
    t: int = 0
    m: list[np.ndarray] | None = field(default=None, repr=False)
    v: list[np.ndarray] | None = field(default=None, repr=False)
    scratch: Workspace = field(default_factory=Workspace, repr=False)  # Adam's chunk buffers


MARGIN_CHUNK = 512  # rows per gather in _margins: two (512, d) buffers, not (B, d) temporaries
ADAM_CHUNK = 256  # rows per pass of optimizer_step: two (256, d) buffers per range


def training_bytes(N: int, d: int, L: int, batch_size: int) -> int:
    """Bytes that fit holds for an N-node graph, an upper bound over models:
    2L + 13 (N, d) float arrays (the stack E(0..L), the mixes M(1..L), W, the
    best parameters' copy, grad_W, Adam's two, E*, G, D, two M_dot, E0_bar
    and bpr_loss's squared W), the relu mask's (N, d) bytes, two layers' (d, d)
    partial products per BLOCK_ROWS rows, two (ADAM_CHUNK, d) buffers per
    range of Adam, two (MARGIN_CHUNK, d) margin buffers per range of triples,
    and the batch path's 32 values per triple (sampling, margins, bpr_loss's
    seed C; tracemalloc sees about 250 bytes)."""
    adam_ranges = len(even_partition(N)) - 1
    margin_ranges = len(even_partition(batch_size, MARGIN_CHUNK)) - 1
    floats = ((2 * L + 13) * N * d + 2 * -(-N // BLOCK_ROWS) * d * d
              + 2 * adam_ranges * ADAM_CHUNK * d
              + 2 * margin_ranges * min(batch_size, MARGIN_CHUNK) * d + 32 * batch_size)
    return 8 * floats + N * d


def _margins(trace: ForwardTrace, batch: np.ndarray) -> np.ndarray:
    """x_t = <e_u, e_i> - <e_u, e_j> per triple on trace.E_star."""
    E_star, m = trace.E_star, trace.m
    n = E_star.shape[0] - m
    if batch.min() < 0 or batch[:, 0].max() >= m or batch[:, 1:].max() >= n:
        raise IndexError(f"batch index out of range: users [0, {m}), items [0, {n})")
    # each range of triples (cut at multiples of MARGIN_CHUNK) gathers the
    # rows MARGIN_CHUNK triples at a time into two workspace buffers of its
    # own (mode="clip" skips take's own buffer; every index is in range);
    # np.sum reduces each row alone, so x is that of one whole gather
    u, i, j = batch[:, 0], m + batch[:, 1], m + batch[:, 2]
    x = np.empty(len(batch))
    ws = trace.workspace

    def triples(lo, hi, sync):
        k = min(hi - lo, MARGIN_CHUNK)
        rows, other = (ws.get((name, lo), (k, E_star.shape[1]))
                       for name in ("margin_rows", "margin_other"))
        for start in range(lo, hi, k):
            end = min(start + k, hi)
            r, o = rows[:end - start], other[:end - start]
            np.take(E_star, i[start:end], axis=0, out=r, mode="clip")
            np.take(E_star, j[start:end], axis=0, out=o, mode="clip")
            r -= o
            np.take(E_star, u[start:end], axis=0, out=o, mode="clip")
            r *= o
            np.sum(r, axis=1, out=x[start:end])

    run_ranges(even_partition(len(batch), MARGIN_CHUNK), triples)
    return x


def bpr_loss(trace: ForwardTrace, batch: np.ndarray, reg_lambda: float,
             params: ModelParams) -> tuple[float, sp.csr_array]:
    """Mean softplus(-margin) plus L2 penalty on all parameter matrices, and
    the seed C of backward, with d(mean softplus term)/d(E_star) = C E_star.
    C is the symmetric N x N matrix with entries c_t at (u, m+i) and (m+i, u)
    and -c_t at (u, m+j) and (m+j, u) per triple t, c_t = dloss/dx_t;
    csr_array sums repeated entries in a fixed order."""
    batch = np.asarray(batch)
    if batch.size == 0:
        raise ValueError("empty batch")
    x = _margins(trace, batch)
    # -ln sigmoid(x) = softplus(-x) = logaddexp(0, -x), stable for any x
    rank_term = float(np.mean(np.logaddexp(0.0, -x)))
    W_sq = np.multiply(params.W, params.W, out=trace.workspace.get("W_sq", params.W.shape))
    reg = float(np.sum(W_sq))
    for Wl in params.W_layers:
        reg += float(np.sum(Wl * Wl))
    m, N = trace.m, trace.E_star.shape[0]
    u, i, j = batch[:, 0], m + batch[:, 1], m + batch[:, 2]
    c = -expit(-x) / len(batch)  # dloss/dx_t
    rows = np.concatenate([u, u, i, j])
    cols = np.concatenate([i, j, u, u])
    vals = np.concatenate([c, -c, c, -c])
    return rank_term + reg_lambda * reg, sp.csr_array((vals, (rows, cols)), shape=(N, N))


def backward(trace: ForwardTrace, C: sp.csr_array, params: ModelParams,
             hyper: Hyperparams, reg_lambda: float) -> ModelParams:
    """Exact gradient with respect to W and every W(l) of a loss whose
    gradient with respect to E* is C E*, plus reg_lambda times the squared
    norms of W and the W(l), returned in the shape of params. With the C of
    bpr_loss(trace, batch, reg_lambda, params), that is bpr_loss's gradient.
    C is a float64 CSR matrix of S's shape.

    Reverse pass through E* = sum w_k E(k), E(l) = act(M(l) T(l)),
    M(l) = a E(0) + S_mix E(l-1), E(0) = S W (or W). S, S_mix = (1-a) S and
    T(l) are those of the forward pass, read from the trace; the relu mask
    is E(l) > 0, which equals M(l) T(l) > 0. G = dloss/dE* is the sparse
    product C E*, and D carries dloss/dE(l). Each layer sets D = w(l) G and
    adds S_mix M_dot(l+1) into it in place, S_mix being symmetric;
    M_dot(l) = dloss/dM(l) alternates between two buffers, so that a layer
    writes one while every range reads the other. Under b = 0, M_dot(l) is
    dloss/dZ(l) itself and D is written there. The initial-residual path
    sums the M_dot unscaled in E0_bar and scales by a once. M(l)^T
    dloss/dZ(l) is one small product per BLOCK_ROWS-row block, into layer
    l's half of a partials buffer that alternates by layer like M_dot; once
    layer l is complete, each range sums its own columns of those partials
    over all blocks, in block order.

    As in forward, each range of row_partition(S) runs on its own thread,
    from the rows of C E* to those of the gradient, and the ranges meet once
    per layer (and before the last product S D), so the result does not
    depend on their number. Every (N, d) temporary, G included, is a buffer
    of trace.workspace, taken only by the models that read it; the returned
    gradients are fresh arrays.
    """
    if C.shape != trace.S.shape:
        raise ValueError(f"C {C.shape} does not match S {trace.S.shape}")
    if len(trace.E_layers) != hyper.L + 1:
        raise ValueError("trace does not match hyper.L")
    a, b, L = hyper.alpha, hyper.beta, hyper.L
    w = hyper.layer_weights
    ws, shape = trace.workspace, trace.E_star.shape
    G = ws.get("G", shape)
    D = ws.get("D", shape)
    M_dots = [ws.get(("M_dot", k), shape) for k in range(min(L, 2))]  # layer l's: (L - l) % 2
    E0_bar = ws.get("E0_bar", shape) if a != 0.0 and L else None
    relu = hyper.activation == "relu"
    mask = ws.get("mask", shape, bool) if relu and L else None
    blocks, d = -(-shape[0] // BLOCK_ROWS), shape[1]
    partials = ws.get("partials", (min(L, 2), blocks, d, d)) if b != 0.0 and L else None
    grad_W = np.empty(shape)
    # C-contiguous, as each range adds into its columns of the flattened array
    grad_W_layers = [np.multiply(2.0 * reg_lambda, Wl, order="C") for Wl in params.W_layers]
    bounds = row_partition(trace.S)
    # a column slice one wide would be summed pairwise, not in block order,
    # so every range's slice of the d*d columns is at least two wide
    slices = min(len(bounds) - 1, max(1, d * d // 2))

    def rows(lo, hi, sync):
        G_rows = G[lo:hi]
        G_rows.fill(0.0)
        add_product(C, trace.E_star, G_rows, (lo, hi))
        r = bounds.index(lo)
        cols = slice(r * d * d // slices, (r + 1) * d * d // slices) if r < slices else slice(0)
        for l in range(L, -1, -1):
            Dl = (M_dots[(L - l) % 2] if b == 0.0 and l else D)[lo:hi]
            np.multiply(w[l], G_rows, out=Dl)
            if l < L:
                add_product(trace.S_mix, M_dots[(L - l - 1) % 2], Dl, (lo, hi))
            if l == 0:
                break
            if relu:  # Dl now holds dloss/dZ(l)
                Dl *= np.greater(trace.E_layers[l][lo:hi], 0.0, out=mask[lo:hi])
            M_dot = M_dots[(L - l) % 2][lo:hi]
            if b != 0.0:
                # a C-contiguous copy of T(l)^T: block products with it are
                # faster than with the transposed view, and bitwise the same
                T_t = np.ascontiguousarray(trace.transforms[l - 1].T)
                layer = partials[(L - l) % 2]
                first = lo // BLOCK_ROWS
                for X, Y, M in zip(row_blocks(Dl), row_blocks(M_dot),
                                   row_blocks(trace.mixed_layers[l - 1][lo:hi])):
                    np.matmul(X, T_t, out=Y)
                    if M.ndim == 3:  # whole blocks
                        np.matmul(M.transpose(0, 2, 1), X, out=layer[first:first + len(M)])
                        first += len(M)
                    else:
                        np.matmul(M.T, X, out=layer[first])
            if a != 0.0:  # the top layer starts the sum, saving a zero fill
                if l == L:
                    np.copyto(E0_bar[lo:hi], M_dot)
                else:
                    E0_bar[lo:hi] += M_dot
            sync()
            if b != 0.0:  # layer l's partials are complete; the next layer writes the other half
                total = np.sum(partials[(L - l) % 2].reshape(blocks, d * d)[:, cols], axis=0)
                total *= b
                grad_W_layers[l - 1].reshape(-1)[cols] += total
        if a != 0.0 and L:
            E0_bar[lo:hi] *= a
            Dl += E0_bar[lo:hi]  # dloss/dE(0)
        out = grad_W[lo:hi]
        if hyper.embedding_mode == "sw":  # dE0/dW: S^T = S
            sync()
            out.fill(0.0)
            add_product(trace.S, D, out, (lo, hi))
            out += np.multiply(2.0 * reg_lambda, params.W[lo:hi], out=G_rows)  # G's rows are spent
        else:  # or I
            np.multiply(2.0 * reg_lambda, params.W[lo:hi], out=out)
            out += Dl

    run_ranges(bounds, rows)
    return ModelParams(params.m, params.n, grad_W, grad_W_layers)


def optimizer_step(arrays: list[np.ndarray], grads: list[np.ndarray], lr: float,
                   state: OptimizerState) -> OptimizerState:
    """One Adam step of size lr on the arrays, in place; returns the advanced
    state. Each array's rows are cut into even_partition's ranges, each run
    by its own thread ADAM_CHUNK rows at a time through two chunk buffers of
    state.scratch. Every element takes the same operations in the same
    order, so the result does not depend on the ranges."""
    if len(arrays) != len(grads):
        raise ValueError("parameter/gradient count mismatch")
    for p, g in zip(arrays, grads):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
    if state.m is None:
        state.m = [np.zeros_like(p) for p in arrays]
        state.v = [np.zeros_like(p) for p in arrays]
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, mom, vel in zip(arrays, grads, state.m, state.v):
        def rows(lo, hi, sync):
            t1_chunk, t2_chunk = (state.scratch.get((k, lo), (ADAM_CHUNK,) + p.shape[1:], p.dtype)
                                  for k in range(2))
            for start in range(lo, hi, ADAM_CHUNK):
                end = min(start + ADAM_CHUNK, hi)
                pc, gc, mc, vc = p[start:end], g[start:end], mom[start:end], vel[start:end]
                t1, t2 = t1_chunk[:end - start], t2_chunk[:end - start]
                mc *= ADAM_BETA1
                mc += np.multiply(1.0 - ADAM_BETA1, gc, out=t1)
                vc *= ADAM_BETA2
                np.multiply(gc, gc, out=t2)
                t2 *= 1.0 - ADAM_BETA2
                vc += t2
                # p -= lr * (mom / c1) / (sqrt(vel / c2) + eps), one temporary at a time
                np.divide(mc, c1, out=t1)
                t1 *= lr
                np.divide(vc, c2, out=t2)
                np.sqrt(t2, out=t2)
                t2 += ADAM_EPS
                t1 /= t2
                pc -= t1

        run_ranges(even_partition(len(p)), rows)
    return state


def fit(split: DatasetSplit, hyper: Hyperparams, config: TrainConfig,
        ) -> tuple[ModelParams, list[dict]]:
    """Train on split.train; log per-epoch loss and periodic Recall/NDCG@20.

    Deterministic for a fixed config.seed. When early stopping fires the
    best-validation parameters are returned; otherwise the final ones.
    """
    S = laplacian_for(split)
    rng = np.random.default_rng(config.seed)
    params = init_params(split.m, split.n, hyper, rng)
    state = OptimizerState()
    bpe = config.batches_per_epoch or max(1, math.ceil(split.train.nnz / config.batch_size))
    log: list[dict] = []
    best_params = None
    best_recall = -1.0
    stale_evals = 0
    trace = None  # each forward reuses the previous trace's buffers
    for epoch in range(1, config.epochs + 1):
        t0 = time.monotonic()
        total = 0.0
        for _ in range(bpe):
            batch = sample_bpr_triples(split, config.batch_size, rng)
            trace = forward(params, S, hyper, out=trace)
            loss, C = bpr_loss(trace, batch, config.reg_lambda, params)
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            grads = backward(trace, C, params, hyper, config.reg_lambda)
            optimizer_step([params.W] + params.W_layers, [grads.W] + grads.W_layers,
                           config.lr, state)
            total += loss
        entry = {"epoch": epoch, "loss": total / bpe}
        stop = False
        if config.eval_every and epoch % config.eval_every == 0:
            trace = forward(params, S, hyper, out=trace)
            metrics = evaluate_model(trace.E_star, split, k=20)
            entry["recall@20"] = metrics.recall_at_k
            entry["ndcg@20"] = metrics.ndcg_at_k
            if metrics.recall_at_k > best_recall:
                best_recall = metrics.recall_at_k
                best_params = params.copy()
                stale_evals = 0
            else:
                stale_evals += 1
                if stale_evals >= config.early_stop_patience:
                    stop = True
        entry["wall_ms"] = int((time.monotonic() - t0) * 1000)
        log.append(entry)
        if stop:
            return best_params, log
    return params, log
