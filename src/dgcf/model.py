"""Deep graph collaborative filtering forward pass.

The model embeds all m+n nodes (users first, then items) and propagates
through L layers that mix each layer's neighborhood aggregate with the
initial embedding (initial residual) and blend the per-layer transform
with the identity matrix (identity mapping):

    E(0) = S W            (or E(0) = W in free-embedding mode)
    E(l) = act(((1-a) S E(l-1) + a E(0)) ((1-b) I + b W(l-1)))
    E*   = sum_k w_k E(k)
    score(u, i) = <E*[u], E*[m+i]>

Both mixing weights live in [0, 1]; the endpoints are reduction modes
(a=0, b=0 is plain propagation, a=1, b=0 freezes E(l) at E(0)). PRESETS
names the reductions that are trained and compared: BPRMF (L=0), LightGCN
and the plain ablation are configurations of this one model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError
from .graph import CsrMatrix, add_product, row_blocks, row_partition, run_ranges

ACTIVATIONS = ("identity", "relu")
EMBEDDING_MODES = ("sw", "free")


@dataclass
class Hyperparams:
    """The model's settings, which a model file stores; a training run's are a TrainConfig."""

    d: int = 64
    L: int = 4
    alpha: float = 0.1
    beta: float = 0.1
    layer_weights: np.ndarray | None = None  # length L+1; None = uniform
    activation: str = "relu"
    embedding_mode: str = "sw"

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if self.L < 0:
            raise ConfigError(f"L must be >= 0, got {self.L}")
        for key in ("alpha", "beta"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ConfigError(f"{key} must be in [0, 1], got {getattr(self, key)}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.embedding_mode not in EMBEDDING_MODES:
            raise ConfigError(
                f"embedding_mode must be one of {EMBEDDING_MODES}, got {self.embedding_mode!r}")
        if self.layer_weights is None:
            self.layer_weights = np.full(self.L + 1, 1.0 / (self.L + 1))
        else:
            self.layer_weights = np.asarray(self.layer_weights, dtype=np.float64)
            if (self.layer_weights.shape != (self.L + 1,)
                    or not np.isfinite(self.layer_weights).all()):
                raise ConfigError(
                    f"layer_weights must be L+1={self.L + 1} finite values, "
                    f"got {self.layer_weights}")


# Fields each model tag pins; the caller's values fill in the rest.
PRESETS = {
    "ours": {},
    "plain": dict(alpha=0.0, beta=0.0, activation="identity"),
    "lightgcn": dict(alpha=0.0, beta=0.0, activation="identity", embedding_mode="free"),
    "bprmf": dict(L=0, alpha=0.0, beta=0.0, layer_weights=[1.0], activation="identity",
                  embedding_mode="free"),
}


def preset(tag: str, **fields) -> Hyperparams:
    """Hyperparams of model `tag`: its PRESETS fields over `fields`. Unless
    given layer_weights, "plain" reads out only its last layer. A depth whose
    L + 1 layer weights numpy cannot even size raises MemoryError, as a
    smaller depth too large to allocate does, not numpy's ValueError."""
    if tag not in PRESETS:
        raise ConfigError(f"unknown model tag {tag!r}, expected one of {tuple(PRESETS)}")
    fields.update(PRESETS[tag])
    L = fields.get("L", Hyperparams.L)
    if L >= np.iinfo(np.intp).max // 8:
        raise MemoryError
    if tag == "plain" and fields.get("layer_weights") is None:
        fields["layer_weights"] = np.arange(L + 1) == L
    return Hyperparams(**fields)


@dataclass
class ModelParams:
    """Everything trainable: base weights W and per-layer transforms W(l)."""

    m: int
    n: int
    W: np.ndarray  # (m+n, d)
    W_layers: list[np.ndarray]  # L matrices, each (d, d)

    def copy(self) -> "ModelParams":
        return ModelParams(self.m, self.n, self.W.copy(), [w.copy() for w in self.W_layers])


class Workspace:
    """Buffers kept between calls, one per name; a name's buffer is
    reallocated when the requested shape or dtype changes. Contents are scratch."""

    def __init__(self):
        self._buffers: dict[object, np.ndarray] = {}

    def get(self, name, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(shape, dtype)
        return buf


@dataclass
class ForwardTrace:
    """All intermediates of one forward pass, kept for backprop and diagnostics.

    S is the graph operator the pass ran on and S_mix = (1-a) S its scaled
    copy, S itself when a = 0, which share S's index arrays. mixed_layers
    holds the pre-transform mixes M(l) = a E(0) + S_mix E(l-1); transforms
    holds T(l) = (1-b) I + b W(l-1), or None when b = 0, so that
    E(l) = act(M(l) T(l)). E_layers are the rows of one (L+1, N, d) stack in
    workspace, so E(0) is a copy of params.W in free mode, and E* is the
    weighted sum of its rows. M(l) is E(l) under identity with b = 0, where
    the model makes them equal, and has its own buffer otherwise. workspace
    owns the buffers behind the stack, M(l), E*, S_mix's values and the
    scratch of forward and backward; passing the trace back to forward as
    `out` overwrites all of them.
    """

    m: int
    E_layers: list[np.ndarray]  # E(0)..E(L)
    mixed_layers: list[np.ndarray]  # M(1)..M(L)
    transforms: list[np.ndarray | None]  # T(1)..T(L)
    E_star: np.ndarray = field(repr=False, default=None)
    S: CsrMatrix | None = field(repr=False, default=None)
    S_mix: CsrMatrix | None = field(repr=False, default=None)
    workspace: Workspace = field(repr=False, default_factory=Workspace)


def init_params(m: int, n: int, hyper: Hyperparams, rng: np.random.Generator) -> ModelParams:
    """W ~ N(0, 0.1^2); W(l) = 0 so every transform starts at (1-b) I exactly."""
    W = rng.normal(0.0, 0.1, size=(m + n, hyper.d))
    W_layers = [np.zeros((hyper.d, hyper.d)) for _ in range(hyper.L)]
    return ModelParams(m=m, n=n, W=W, W_layers=W_layers)


def forward(params: ModelParams, S: CsrMatrix, hyper: Hyperparams,
            out: ForwardTrace | None = None) -> ForwardTrace:
    """Full forward pass on the graph S: E(0), L propagation layers, E*.

    Each mix M(l) accumulates S_mix E(l-1) in place onto a E(0), or onto
    zeros at a = 0; at a = 1 S_mix's values are zeros, so M(l) equals E(0).
    b = 0 skips the transform. E* = w_0 E(0) + w_1 E(1) + ..., added in layer
    order. Each range of row_partition(S) runs on its own thread
    for the whole pass, and the ranges meet once per layer, when E(l-1) is
    complete. Given `out`, a trace from an earlier call, forward writes this
    pass into it and its workspace buffers and returns it: every array out
    held before is overwritten or released. Results are bitwise those of a
    fresh call and do not depend on the number of ranges.
    """
    N = params.m + params.n
    if S.shape != (N, N):
        raise ValueError(f"S {S.shape} does not match m+n={N}")
    if params.W.shape != (N, hyper.d):
        raise ValueError(f"W {params.W.shape}, expected {(N, hyper.d)}")
    if len(params.W_layers) != hyper.L:
        raise ValueError(f"expected {hyper.L} layer transforms, got {len(params.W_layers)}")
    if out is None:
        out = ForwardTrace(m=params.m, E_layers=[], mixed_layers=[], transforms=[])
    ws, shape, a, b, L = out.workspace, params.W.shape, hyper.alpha, hyper.beta, hyper.L
    stack = ws.get("E", (L + 1,) + shape)
    S_mix = S
    if a != 0.0:
        data = np.multiply(1.0 - a, S.data, out=ws.get("S_mix", S.data.shape))
        S_mix = CsrMatrix(data, S.indices, S.indptr, S.shape)
    relu = hyper.activation == "relu"
    own_M = b != 0.0 or relu  # else M(l) is E(l)
    out.m, out.E_layers, out.S, out.S_mix = params.m, list(stack), S, S_mix
    out.mixed_layers = [ws.get(("M", l), shape) if own_M else out.E_layers[l]
                        for l in range(1, L + 1)]
    out.transforms = [None if b == 0.0 else (1.0 - b) * np.eye(shape[1]) + b * W_l
                      for W_l in params.W_layers]
    out.E_star = ws.get("E_star", shape)
    scratch = ws.get("D", shape) if L else None  # w_k E(k) before it is added; backward's D
    W = np.ascontiguousarray(params.W)
    w = hyper.layer_weights

    def rows(lo, hi, sync):
        E0 = stack[0, lo:hi]
        if hyper.embedding_mode == "sw":
            E0.fill(0.0)
            add_product(S, W, E0, (lo, hi))
        else:
            np.copyto(E0, W[lo:hi])
        for l in range(1, L + 1):
            sync()
            M, T, E = out.mixed_layers[l - 1][lo:hi], out.transforms[l - 1], stack[l, lo:hi]
            if a == 0.0:
                M.fill(0.0)
            else:
                np.multiply(a, E0, out=M)
            add_product(S_mix, stack[l - 1], M, (lo, hi))
            if T is None:
                Z = M
            else:
                for X, Y in zip(row_blocks(M), row_blocks(E)):
                    np.matmul(X, T, out=Y)
                Z = E
            # any inf or NaN makes the sum non-finite; a finite Z whose sum
            # overflows passes the exact check
            with np.errstate(over="ignore"):
                total = np.sum(Z)
            if not np.isfinite(total) and not np.isfinite(Z).all():
                raise DivergenceError("non-finite values in propagation layer output")
            if relu:  # in place, except that M stays as it is
                np.maximum(Z, 0.0, out=E)
        E_star = out.E_star[lo:hi]
        np.multiply(w[0], E0, out=E_star)
        for k in range(1, L + 1):
            E_star += np.multiply(w[k], stack[k, lo:hi], out=scratch[lo:hi])

    run_ranges(row_partition(S), rows)
    return out


def score_all_items(E_star: np.ndarray, m: int, u: int) -> np.ndarray:
    """All n item scores for user u: row i is the dot of user row u and item
    row m+i, summed by np.sum."""
    if not 0 <= u < m:
        raise IndexError(f"user index {u} out of range [0, {m})")
    return np.sum(E_star[m:] * E_star[u], axis=1)
