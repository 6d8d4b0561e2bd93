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
import scipy.sparse as sp

from .errors import ConfigError, DivergenceError
from .graph import spmm

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
    """Float64 buffers kept between calls, one per name; a name's buffer is
    reallocated when the requested shape changes. Contents are scratch."""

    def __init__(self):
        self._buffers: dict[object, np.ndarray] = {}

    def get(self, name, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape:
            buf = self._buffers[name] = np.empty(shape)
        return buf


@dataclass
class ForwardTrace:
    """All intermediates of one forward pass, kept for backprop and diagnostics.

    mixed_layers holds the pre-transform mixes M(l) = (1-a) S E(l-1) + a E(0);
    transforms holds T(l) = (1-b) I + b W(l-1), or None when b = 0, so that
    E(l) = act(M(l) T(l)). Arrays may alias where the model makes them equal:
    E(0) is params.W in free mode, M(l) is E(0) when a = 1, and E(l) is M(l)
    under identity with b = 0. workspace owns the buffers behind E(l) and E*
    and the scratch of forward and backward; passing the trace back to
    forward as `out` overwrites all of them. margins is (batch, x), the BPR
    margins of the last batch scored on E*, which the loss and the backward
    pass of one step share; forward clears it.
    """

    m: int
    E_layers: list[np.ndarray]  # E(0)..E(L)
    mixed_layers: list[np.ndarray]  # M(1)..M(L)
    transforms: list[np.ndarray | None]  # T(1)..T(L)
    E_star: np.ndarray = field(repr=False, default=None)
    workspace: Workspace = field(repr=False, default_factory=Workspace)
    margins: tuple[np.ndarray, np.ndarray] | None = field(repr=False, default=None)


def init_params(m: int, n: int, hyper: Hyperparams, rng: np.random.Generator) -> ModelParams:
    """W ~ N(0, 0.1^2); W(l) = 0 so every transform starts at (1-b) I exactly."""
    W = rng.normal(0.0, 0.1, size=(m + n, hyper.d))
    W_layers = [np.zeros((hyper.d, hyper.d)) for _ in range(hyper.L)]
    return ModelParams(m=m, n=n, W=W, W_layers=W_layers)


def propagate_layer(E_prev, E0, S, alpha, beta, W_l, activation, aE0=None, out=None,
                    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """One propagation layer; returns (M, T, E_next), the mix, the transform
    (None when beta = 0, which skips it) and the activated product M T.
    Endpoint alpha and beta skip work and stay exact. aE0 is alpha * E0 when
    the caller has it; out is a buffer for E_next, used unless E_next is M."""
    if E_prev.shape != E0.shape:
        raise ValueError(f"E_prev {E_prev.shape} and E0 {E0.shape} disagree")
    if S.shape[0] != E_prev.shape[0]:
        raise ValueError(f"S {S.shape} does not match embeddings {E_prev.shape}")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation!r}")
    # M = (1-a) S E_prev + a E0, in place on the fresh product
    if alpha == 1.0:
        M = E0
    else:
        M = spmm(S, E_prev)
        if alpha != 0.0:
            M *= 1.0 - alpha
            M += alpha * E0 if aE0 is None else aE0
    # Z = M T with T = (1-b) I + b W
    if beta == 0.0:
        T, Z = None, M
    elif W_l is None:
        raise ValueError("beta > 0 requires a layer transform matrix")
    else:
        T = (1.0 - beta) * np.eye(M.shape[1])
        T += beta * W_l
        Z = np.matmul(M, T, out=out)
    if not np.isfinite(Z).all():
        raise DivergenceError("non-finite values in propagation layer output")
    if activation == "relu":  # in place, except that M stays as it is
        return M, T, np.maximum(Z, 0.0, out=out if Z is M else Z)
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
    # drop the previous pass's arrays first, so that their memory is free for this one
    out.m, out.E_layers, out.mixed_layers, out.transforms = params.m, [], [], []
    out.E_star = out.margins = None
    ws, shape = out.workspace, params.W.shape
    E0 = spmm(S, params.W) if hyper.embedding_mode == "sw" else params.W
    a = hyper.alpha
    # a E(0) sits in "tmp" during the layers; combine_layers reuses that buffer after them
    aE0 = np.multiply(a, E0, out=ws.get("tmp", shape)) if 0.0 < a < 1.0 and hyper.L else None
    own_E = hyper.beta != 0.0 or hyper.activation == "relu"  # else E(l) is M(l)
    out.E_layers.append(E0)
    for l, W_l in enumerate(params.W_layers, start=1):
        M, T, E = propagate_layer(out.E_layers[-1], E0, S, a, hyper.beta, W_l,
                                  hyper.activation, aE0,
                                  ws.get(("E", l), shape) if own_E else None)
        out.mixed_layers.append(M)
        out.transforms.append(T)
        out.E_layers.append(E)
    out.E_star = combine_layers(out.E_layers, hyper.layer_weights, ws.get("E_star", shape),
                                ws.get("tmp", shape))
    return out


def combine_layers(E_layers: list[np.ndarray], layer_weights, out=None, tmp=None) -> np.ndarray:
    """E* = sum_k w_k E(k), accumulated in layer order for reproducibility;
    out receives E* and tmp holds each w_k E(k) when given."""
    w = np.asarray(layer_weights, dtype=np.float64)
    if len(E_layers) != len(w):
        raise ValueError(f"{len(E_layers)} layers but {len(w)} weights")
    E_star = np.multiply(w[0], E_layers[0], out=out)
    for k in range(1, len(w)):
        E_star += np.multiply(w[k], E_layers[k], out=tmp)
    return E_star


def predict(E_star: np.ndarray, m: int, u: int, i: int) -> float:
    """Score of item i for user u: dot of user row u and item row m+i."""
    n = E_star.shape[0] - m
    if not 0 <= u < m:
        raise IndexError(f"user index {u} out of range [0, {m})")
    if not 0 <= i < n:
        raise IndexError(f"item index {i} out of range [0, {n})")
    return float(np.sum(E_star[u] * E_star[m + i]))


def score_all_items(E_star: np.ndarray, m: int, u: int) -> np.ndarray:
    """All n item scores for user u; row i agrees bit-for-bit with predict."""
    if not 0 <= u < m:
        raise IndexError(f"user index {u} out of range [0, {m})")
    return np.sum(E_star[m:] * E_star[u], axis=1)
