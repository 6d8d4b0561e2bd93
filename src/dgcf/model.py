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
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DivergenceError
from .graph import spmm

if TYPE_CHECKING:
    import scipy.sparse as sp

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
    given layer_weights, "plain" reads out only its last layer."""
    if tag not in PRESETS:
        raise ConfigError(f"unknown model tag {tag!r}, expected one of {tuple(PRESETS)}")
    fields.update(PRESETS[tag])
    if tag == "plain" and fields.get("layer_weights") is None:
        L = fields.get("L", Hyperparams.L)
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

    mixed_layers holds the pre-transform mixes M(l) = a E(0) + S_mix E(l-1),
    where S_mix = (1-a) S is the scaled operator of mix_operator; transforms
    holds T(l) = (1-b) I + b W(l-1), or None when b = 0, so that
    E(l) = act(M(l) T(l)). E_layers are the rows of one (L+1, N, d) stack in
    workspace, so E(0) is a copy of params.W in free mode, and E* is that
    stack times the layer weights. Arrays alias where the model makes them
    equal: M(l) is E(0) when a = 1, and M(l) is E(l) under identity with
    b = 0. workspace owns the buffers behind the stack, M(l), E*, S_mix's
    values and the scratch of forward and backward; passing the trace back to
    forward as `out` overwrites all of them. margins is (batch, x), the BPR
    margins of the last batch scored on E*, which the loss and the backward
    pass of one step share; forward clears it.
    """

    m: int
    E_layers: list[np.ndarray]  # E(0)..E(L)
    mixed_layers: list[np.ndarray]  # M(1)..M(L)
    transforms: list[np.ndarray | None]  # T(1)..T(L)
    E_star: np.ndarray = field(repr=False, default=None)
    S_mix: sp.csr_array | None = field(repr=False, default=None)
    workspace: Workspace = field(repr=False, default_factory=Workspace)
    margins: tuple[np.ndarray, np.ndarray] | None = field(repr=False, default=None)


def init_params(m: int, n: int, hyper: Hyperparams, rng: np.random.Generator) -> ModelParams:
    """W ~ N(0, 0.1^2); W(l) = 0 so every transform starts at (1-b) I exactly."""
    W = rng.normal(0.0, 0.1, size=(m + n, hyper.d))
    W_layers = [np.zeros((hyper.d, hyper.d)) for _ in range(hyper.L)]
    return ModelParams(m=m, n=n, W=W, W_layers=W_layers)


def mix_operator(S: sp.csr_array, alpha: float, data: np.ndarray | None = None,
                 ) -> sp.csr_array:
    """S_mix = (1-alpha) S: S itself when alpha = 0, else S's index arrays with
    scaled values, written into data when given (a buffer of S.nnz floats)."""
    if alpha == 0.0:
        return S
    import scipy.sparse as sp

    data = np.multiply(1.0 - alpha, S.data, out=data)
    return sp.csr_array((data, S.indices, S.indptr), shape=S.shape)


def propagate_layer(E_prev, E0, S, alpha, beta, W_l, activation, S_mix=None, M=None,
                    out=None, mask=None) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """One propagation layer; returns (M, T, E_next): the mix
    M = alpha E0 + S_mix E_prev, the transform T (None when beta = 0, which
    skips it) and E_next = act(M T). The product accumulates onto alpha E0 in
    place; alpha = 1 skips it, so M is E0, and alpha = 0 starts it from zero.
    S_mix is mix_operator(S, alpha) when the caller has it. M and out are
    float64 buffers for the mix and for E_next, and mask a bool buffer for the
    finiteness check; each is allocated when None. E_next is out when out is
    given; otherwise, under identity with beta = 0, it is M. A caller that
    passes the same buffer as M and out must use identity with beta = 0."""
    if E_prev.shape != E0.shape:
        raise ValueError(f"E_prev {E_prev.shape} and E0 {E0.shape} disagree")
    if S.shape[0] != E_prev.shape[0]:
        raise ValueError(f"S {S.shape} does not match embeddings {E_prev.shape}")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}")
    if alpha == 1.0:
        M = E0
    else:
        M = np.empty(E_prev.shape) if M is None else M
        if alpha == 0.0:
            M.fill(0.0)
        else:
            np.multiply(alpha, E0, out=M)
        spmm(mix_operator(S, alpha) if S_mix is None else S_mix, E_prev, out=M)
    # Z = M T with T = (1-b) I + b W
    if beta == 0.0:
        T, Z = None, M
    elif W_l is None:
        raise ValueError("beta > 0 requires a layer transform matrix")
    else:
        T = (1.0 - beta) * np.eye(M.shape[1])
        T += beta * W_l
        Z = np.matmul(M, T, out=out)
    if not np.isfinite(Z, out=mask).all():
        raise DivergenceError("non-finite values in propagation layer output")
    if activation == "relu":  # in place, except that M stays as it is
        return M, T, np.maximum(Z, 0.0, out=out if Z is M else Z)
    if out is not None and Z is not out:  # alpha = 1 with beta = 0: E_next equals E0
        np.copyto(out, Z)
        Z = out
    return M, T, Z


def forward(params: ModelParams, S: sp.csr_array, hyper: Hyperparams,
            out: ForwardTrace | None = None) -> ForwardTrace:
    """Full forward pass: E(0), L propagation layers, layer combination.

    Given `out`, a trace from an earlier call, forward writes this pass into
    it and its workspace buffers and returns it: every array out held before
    is overwritten or released. Results are bitwise those of a fresh call.
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
    ws, shape, a = out.workspace, params.W.shape, hyper.alpha
    stack = ws.get("E", (hyper.L + 1,) + shape)
    E0 = stack[0]
    if hyper.embedding_mode == "sw":
        E0.fill(0.0)
        spmm(S, params.W, out=E0)
    else:
        np.copyto(E0, params.W)
    S_mix = mix_operator(S, a, ws.get("S_mix", S.data.shape))
    mask = ws.get("mask", shape, bool)
    own_M = a != 1.0 and (hyper.beta != 0.0 or hyper.activation == "relu")  # else M(l) is E(l)
    out.m, out.E_layers, out.mixed_layers, out.transforms = params.m, [E0], [], []
    out.S_mix, out.margins = S_mix, None
    for l, W_l in enumerate(params.W_layers, start=1):
        E = stack[l]
        M, T, E = propagate_layer(out.E_layers[-1], E0, S, a, hyper.beta, W_l,
                                  hyper.activation, S_mix,
                                  ws.get(("M", l), shape) if own_M else E, E, mask)
        out.mixed_layers.append(M)
        out.transforms.append(T)
        out.E_layers.append(E)
    out.E_star = combine_layers(stack, hyper.layer_weights, ws.get("E_star", shape))
    return out


def combine_layers(E_layers, layer_weights, out=None) -> np.ndarray:
    """E* = sum_k w_k E(k) as one BLAS product of the weights with the layers
    stacked as rows (an (L+1, N, d) array, or a list that is stacked first);
    out, a C-contiguous float64 buffer, receives E* when given. One layer is
    a plain scaling: it wakes no BLAS threads, which keep spinning after a
    call and take cores from the work that follows on a small host."""
    w = np.asarray(layer_weights, dtype=np.float64)
    stack = np.asarray(E_layers, dtype=np.float64)
    if len(stack) != len(w):
        raise ValueError(f"{len(stack)} layers but {len(w)} weights")
    if len(w) == 1:
        return np.multiply(w[0], stack[0], out=out)
    flat = stack.reshape(len(w), -1)
    if out is None:
        return np.dot(w, flat).reshape(stack.shape[1:])
    if not out.flags.c_contiguous:  # reshape would hand np.dot a copy
        raise ValueError("out must be C-contiguous")
    np.dot(w, flat, out=out.reshape(-1))
    return out


def score_all_items(E_star: np.ndarray, m: int, u: int) -> np.ndarray:
    """All n item scores for user u: row i is the dot of user row u and item
    row m+i, summed by np.sum."""
    if not 0 <= u < m:
        raise IndexError(f"user index {u} out of range [0, {m})")
    return np.sum(E_star[m:] * E_star[u], axis=1)
