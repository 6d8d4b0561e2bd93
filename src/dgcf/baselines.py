"""Independent LightGCN propagation, the oracle for the model's reductions.

BPRMF and LightGCN are not separate code paths: they are configurations of
the one model (`dgcf.model.PRESETS`), trained by `dgcf.train.fit` and scored
through `dgcf.model.forward`. lightgcn_forward is kept as an independent
implementation on purpose: the main model configured with alpha=0, beta=0,
identity activation and free embeddings must reproduce it, and the test
suite checks the two code paths against each other. No package code calls it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import spmm


def lightgcn_forward(E0: np.ndarray, S: sp.csr_array, L: int) -> np.ndarray:
    """E(l) = S E(l-1) for l = 1..L; returns the uniform mean over E(0)..E(L).

    E0 here is a free embedding table, per the reference model's convention.
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
