"""Bipartite user-item graph operators.

Node index layout is fixed everywhere in this package: users occupy rows
0..m-1, items occupy rows m..m+n-1 of every (m+n)-sized vector or matrix.

The interaction matrix R is plain numpy CSR arrays, so a reader of the
train matrix (sampling, evaluation, the model file's fingerprint) needs
numpy alone. The propagation operator S built from it
(data.laplacian_for) is a scipy CSR array (float64); scipy is imported only
where S is multiplied or, in laplacian_for, wrapped. All values are treated
as immutable after construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class InteractionMatrix:
    """Binary user-item interaction matrix R in canonical CSR form: user u's
    items are indices[indptr[u]:indptr[u + 1]], ascending and without repeats."""

    m: int
    n: int
    indptr: np.ndarray  # (m + 1,) int64
    indices: np.ndarray  # (nnz,) int64

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def user_items(self, u: int) -> np.ndarray:
        """Ascending item indices user u interacted with."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def codes(self) -> np.ndarray:
        """u*n + i of every stored pair: ascending, as the rows are canonical."""
        return np.repeat(np.arange(self.m) * self.n, np.diff(self.indptr)) + self.indices

    @staticmethod
    def from_pairs(m: int, n: int, pairs) -> "InteractionMatrix":
        """Build from (user_index, item_index) pairs, an iterable of tuples or a
        (k, 2) integer array; duplicates collapse to one."""
        arr = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
        if arr.shape != (0,) and (arr.ndim != 2 or arr.shape[1] != 2):  # (0,): no pairs
            raise ValueError("pairs must be (user, item) tuples")
        arr = arr.reshape(-1, 2)
        if (arr < 0).any() or (arr[:, 0] >= m).any() or (arr[:, 1] >= n).any():
            raise ValueError("interaction index out of range")
        # u*n + i orders pairs by user, then item. Files list pairs nearly in
        # that order, which the stable sort (timsort) passes in about linear
        # time, far faster than np.unique; repeats end up adjacent.
        codes = np.sort(arr[:, 0] * n + arr[:, 1], kind="stable")
        first = np.ones(len(codes), dtype=bool)
        first[1:] = codes[1:] != codes[:-1]
        codes = codes[first]
        users, items = np.divmod(codes, max(n, 1))
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(users, minlength=m), out=indptr[1:])
        return InteractionMatrix(m=m, n=n, indptr=indptr, indices=items)


def spmm(S: sp.csr_array, E: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sparse x dense product in float64; the kernel behind every propagation step.

    Without out, returns a fresh S @ E. With out, adds S @ E into out in place
    and returns it (see add_product).
    """
    if out is not None:
        return add_product(S, E, out)
    E = np.asarray(E, dtype=np.float64)
    if S.shape[1] != E.shape[0]:
        raise ValueError(f"dimension mismatch: {S.shape} @ {E.shape}")
    return S @ E


def add_product(S: sp.csr_array, E: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out += S @ E in place, for a C-contiguous float64 out; returns out.

    A CSR S runs scipy's csr_matvecs, the kernel that S @ E runs after
    np.zeros: each output row adds its entries' products in stored order, so
    a zero-filled out receives exactly S @ E. The kernel is private scipy API,
    the package's one use of it; without it (or for another format) this
    falls back to out += S @ E, which rounds the sum before adding it.
    """
    E = np.asarray(E, dtype=np.float64)
    if E.ndim not in (1, 2) or S.shape[1] != E.shape[0]:
        raise ValueError(f"dimension mismatch: {S.shape} @ {E.shape}")
    want = (S.shape[0],) + E.shape[1:]
    if not (isinstance(out, np.ndarray) and out.shape == want and out.dtype == np.float64
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writeable C-contiguous float64 array of shape {want}")
    kernel = _csr_matvecs()
    if kernel is None or S.format != "csr" or S.dtype != np.float64:
        out += S @ E
    else:
        n_vecs = E.shape[1] if E.ndim == 2 else 1
        kernel(S.shape[0], S.shape[1], n_vecs, S.indptr, S.indices, S.data,
               np.ascontiguousarray(E).ravel(), out.ravel())
    return out


@functools.cache
def _csr_matvecs():
    """scipy's private csr_matvecs kernel, loaded on first use; None without it."""
    try:
        from scipy.sparse._sparsetools import csr_matvecs
    except ImportError:  # private scipy API: add_product falls back to S @ E
        return None
    return csr_matvecs
