"""Bipartite user-item graph operators.

Node index layout is fixed everywhere in this package: users occupy rows
0..m-1, items occupy rows m..m+n-1 of every (m+n)-sized vector or matrix.

The interaction matrix R is plain numpy CSR arrays, so a reader of the
train matrix (sampling, evaluation, the model file's fingerprint) needs
numpy alone. The propagation operator S built from it
(InteractionMatrix.laplacian) and every other sparse operand is a CsrMatrix,
float64 CSR arrays as well. Only their products (add_product) and the loss
gradient's seed (train.bpr_loss) need scipy, and of scipy only two compiled
kernels, which sparse_kernel loads straight from their extension module
without running the package init of scipy.sparse. All values are treated as
immutable after construction.

The training step and evaluation split their work among threads
(run_ranges). forward and backward cut S's rows by work (row_partition):
each thread owns a contiguous range of rows for a whole layer, and every
dense product runs in blocks of BLOCK_ROWS rows that start at multiples of
BLOCK_ROWS. Adam's rows, the batch's triples and evaluation's blocks of
users are cut into equal ranges (even_partition). Block boundaries do not
depend on the ranges, and no sum runs across a range boundary, so every
result, a trained model file and evaluate_model's metrics included, is
bitwise the same for any number of ranges.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import operator
import os
import sys
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DgcfError

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor


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

    @functools.cached_property
    def codes(self) -> np.ndarray:
        """u*n + i of every stored pair: ascending, as the rows are canonical, so
        contains finds a code in O(log nnz). Computed on first read and kept,
        read-only, as the matrix is immutable."""
        codes = np.repeat(np.arange(self.m) * self.n, np.diff(self.indptr)) + self.indices
        codes.flags.writeable = False
        return codes

    @functools.cached_property
    def laplacian(self) -> CsrMatrix:
        """Normalized adjacency S of this graph, the propagation operator: the
        (m+n) x (m+n) block matrix [[0, R], [R^T, 0]] with S_ij = 1 / sqrt(d_i d_j)
        on each edge, for node degrees d; isolated nodes (d = 0) keep all-zero
        rows. An item's row lists its users ascending, and each value is one
        product of the two scale factors, so S equals its transpose exactly.
        Built on first read and kept, its arrays read-only, as the matrix is
        immutable."""
        m, n = self.m, self.n
        user_deg = np.diff(self.indptr)
        item_deg = np.bincount(self.indices, minlength=n)
        deg = np.concatenate((user_deg, item_deg))
        inv_sqrt = np.zeros(m + n)
        nz = deg > 0
        inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
        users = np.repeat(np.arange(m), user_deg)  # the user of each stored pair
        items = m + self.indices
        edge = inv_sqrt[users] * inv_sqrt[items]
        by_item = np.argsort(self.indices * m + users)  # by item, then user: the keys are unique
        data = np.concatenate((edge, edge[by_item]))
        indices = np.concatenate((items, users[by_item]))
        indptr = np.concatenate((self.indptr, self.nnz + np.cumsum(item_deg)))
        for a in (data, indices, indptr):
            a.flags.writeable = False
        return CsrMatrix(data, indices, indptr, (m + n, m + n))

    def contains(self, codes: np.ndarray) -> np.ndarray:
        """Whether each code u*n + i, in any order, is a stored pair; the
        matrix must hold one at least, as the sampler's and evaluate_model's
        do. The codes are looked up in ascending order, which walks
        self.codes' cache lines in order, and the answers scattered back."""
        order = np.argsort(codes)
        loc = np.empty_like(order)
        loc[order] = np.searchsorted(self.codes, codes[order])
        return self.codes[np.minimum(loc, self.nnz - 1)] == codes

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


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A float64 sparse matrix as CSR arrays, the operand of add_product: row
    r's values are data[indptr[r]:indptr[r + 1]], in the columns indices[...]
    of the same slice, in stored order. A row may list a column more than
    once. The constructor refuses arrays that the compiled kernel could read
    out of bounds, with ValueError: data, indices and indptr must be 1-d
    C-contiguous numpy arrays, data float64, indices and indptr of one dtype,
    int32 or int64; indptr has rows + 1 entries, starts at 0 and does not
    descend, and its last entry is the length of data and of indices, whose
    every column is in range."""

    data: np.ndarray  # (nnz,) float64
    indices: np.ndarray  # (nnz,)
    indptr: np.ndarray  # (rows + 1,)
    shape: tuple[int, int]

    def __post_init__(self):
        shape = tuple(operator.index(k) for k in self.shape)
        if len(shape) != 2 or min(shape) < 0:
            raise ValueError(f"shape must be two sizes >= 0, got {self.shape}")
        object.__setattr__(self, "shape", shape)
        rows, cols = shape
        arrays = (self.data, self.indices, self.indptr)
        if not all(isinstance(a, np.ndarray) and a.ndim == 1 and a.flags.c_contiguous
                   for a in arrays):
            raise ValueError("data, indices and indptr must be 1-d C-contiguous numpy arrays")
        if self.data.dtype != np.float64:
            raise ValueError(f"data must be float64, got {self.data.dtype}")
        if self.indices.dtype != self.indptr.dtype or self.indptr.dtype not in (np.int32,
                                                                                  np.int64):
            raise ValueError(f"indices and indptr must be both int32 or both int64, got "
                             f"{self.indices.dtype} and {self.indptr.dtype}")
        ptr = self.indptr
        if len(ptr) != rows + 1:
            raise ValueError(f"indptr has {len(ptr)} entries, expected rows + 1 = {rows + 1}")
        if ptr[0] != 0 or ptr[-1] != len(self.data) or ptr[-1] != len(self.indices):
            raise ValueError(f"indptr must run from 0 to the {len(self.data)} values and "
                             f"{len(self.indices)} indices, got {ptr[0]}..{ptr[-1]}")
        if rows > 1 and (ptr[1:] < ptr[:-1]).any():
            raise ValueError("indptr must not descend")
        if len(self.indices) and not (0 <= self.indices.min() and self.indices.max() < cols):
            raise ValueError(f"column indices must be in [0, {cols})")

    @property
    def nnz(self) -> int:
        return len(self.data)


def spmm(S: CsrMatrix, E: np.ndarray) -> np.ndarray:
    """A fresh S @ E in float64 for a 2-d E: add_product onto zeros. The
    propagation steps add into their own buffers with add_product instead."""
    E = np.asarray(E, dtype=np.float64)
    return add_product(S, E, np.zeros(S.shape[:1] + E.shape[1:]), (0, S.shape[0]))


def add_product(S: CsrMatrix, E: np.ndarray, out: np.ndarray,
                rows: tuple[int, int]) -> np.ndarray:
    """out += S[lo:hi] @ E in place for rows = (lo, hi), a CsrMatrix S, a 2-d
    E and a C-contiguous float64 out of rows lo..hi-1 only; returns out.

    It runs scipy's csr_matvecs, the kernel that scipy's S @ E runs after
    np.zeros: each output row adds its entries' products in stored order, so
    a zero-filled out receives exactly rows lo..hi-1 of S @ E, and a row's
    result does not depend on the rows asked for. S need not be canonical:
    a row's repeated entries are added one by one. The kernel is private
    scipy API (see sparse_kernel). No other product rounds the same onto a
    non-zero out, so without the kernel this raises DgcfError.
    """
    if not isinstance(S, CsrMatrix):
        raise ValueError(f"S must be a CsrMatrix of float64 CSR arrays, got {type(S).__name__}")
    lo, hi = rows
    E = np.asarray(E, dtype=np.float64)
    if E.ndim != 2 or S.shape[1] != E.shape[0]:
        raise ValueError(f"dimension mismatch: {S.shape} @ {E.shape}")
    if not 0 <= lo <= hi <= S.shape[0]:  # the kernel would read past S.indptr
        raise ValueError(f"rows {rows} out of range for {S.shape[0]} rows")
    want = (hi - lo, E.shape[1])
    if not (isinstance(out, np.ndarray) and out.shape == want and out.dtype == np.float64
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writeable C-contiguous float64 array of shape {want}")
    sparse_kernel("csr_matvecs")(hi - lo, S.shape[1], E.shape[1], S.indptr[lo:hi + 1],
                                 S.indices, S.data, np.ascontiguousarray(E).ravel(), out.ravel())
    return out


# scipy's private sparsetools kernels that the package runs, with what each does for it
SPARSE_KERNELS = {"csr_matvecs": "the kernel of every sparse product",
                  "coo_tocsr": "the kernel that builds the loss gradient's seed C"}
KERNEL_MODULE = "scipy.sparse._sparsetools"


@functools.cache
def sparse_kernel(name: str):
    """scipy's private kernel scipy.sparse._sparsetools.<name>, one of
    SPARSE_KERNELS, loaded on first use; DgcfError naming the scipy version
    when that release lacks it."""
    try:
        return getattr(_kernel_module(), name)
    except (ImportError, AttributeError):
        import scipy

        raise DgcfError(f"scipy {scipy.__version__} has no {KERNEL_MODULE}."
                        f"{name}, {SPARSE_KERNELS[name]}") from None


_KERNEL_LOCK = threading.Lock()  # the first products of a pass arrive on every range at once


def _kernel_module():
    """The extension module KERNEL_MODULE, found in this order: its
    sys.modules entry, reused as is (None blocks it, as it blocks an import);
    its file in the sparse directory of scipy's package, loaded once and
    entered in sys.modules, so that a later import of scipy.sparse shares it;
    the ordinary import. find_spec locates scipy without importing it, so
    neither scipy's nor scipy.sparse's package init runs here, short of that
    last resort: scipy.sparse's took a cold process 120-200 ms on a 2-core
    host, and loading the file under 1 ms."""
    with _KERNEL_LOCK:
        if KERNEL_MODULE in sys.modules:
            module = sys.modules[KERNEL_MODULE]
            if module is None:
                raise ImportError(f"{KERNEL_MODULE} is blocked in sys.modules")
            return module
        from importlib import machinery, util

        scipy_spec = util.find_spec("scipy")
        locations = scipy_spec.submodule_search_locations if scipy_spec else None
        for location in locations or ():
            finder = machinery.FileFinder(os.path.join(location, "sparse"), (
                machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES))
            spec = finder.find_spec(KERNEL_MODULE)
            if spec is not None and spec.loader is not None:
                module = util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[KERNEL_MODULE] = module
                return module
        return importlib.import_module(KERNEL_MODULE)


BLOCK_ROWS = 64  # rows per dense product: at d = 64, every GEMM of a step is 64 x 64 x 64
MIN_RANGE_ROWS = 1024  # rows per range, at the least on average: fewer are not worth a thread
# A row's dense work in a step (transforms, masks, sums) took as long as the
# sparse products of about 24 stored entries, measured at d = 64.
ROW_WORK = 24


def row_partition(S: CsrMatrix) -> tuple[int, ...]:
    """Bounds of ranges of S's rows, range r being rows bounds[r]..bounds[r+1]-1:
    one range per usable core, but no more than one per MIN_RANGE_ROWS rows
    (so a small graph is one range), cut at the block boundaries that come
    nearest to equal shares of the step's work, a row's stored entries plus
    ROW_WORK."""
    N = S.shape[0]
    starts = np.arange(0, N, BLOCK_ROWS)
    return _cut(N, starts, S.indptr[starts] + ROW_WORK * starts, S.nnz + ROW_WORK * N, N)


def range_count(rows: float) -> int:
    """Ranges for `rows` rows of work: one per usable core, at most one per MIN_RANGE_ROWS."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cores or 1, int(rows // MIN_RANGE_ROWS)))


def even_partition(N: int, step: int = BLOCK_ROWS, rows: float | None = None) -> tuple[int, ...]:
    """Bounds of ranges of N rows (or triples, or users), as many as
    row_partition makes of `rows` rows (N by default), cut at the multiples of
    step nearest to equal numbers of rows."""
    starts = np.arange(0, N, step)
    return _cut(N, starts, starts, N, N if rows is None else rows)


def _cut(N: int, starts: np.ndarray, before: np.ndarray, total, rows: float) -> tuple[int, ...]:
    """Bounds of range_count(rows) ranges of N rows, range r cut at the start
    in `starts` whose work before it (`before`, ascending) is nearest to
    r / count of `total`; coinciding cuts merge."""
    count = range_count(rows)
    cuts = set()
    for share in total * np.arange(1, count) / count:
        k = int(np.searchsorted(before, share))
        if k == len(before) or (k > 0 and share - before[k - 1] < before[k] - share):
            k -= 1
        cuts.add(int(starts[k]))
    cuts.discard(0)
    return (0, *sorted(cuts), N)


def row_blocks(X: np.ndarray) -> list[np.ndarray]:
    """X's rows as views, a (q, BLOCK_ROWS, ...) stack of whole blocks and then
    the rest, if any; a matmul over each runs one BLAS call per block."""
    q = len(X) // BLOCK_ROWS * BLOCK_ROWS
    parts = [X[:q].reshape((q // BLOCK_ROWS, BLOCK_ROWS) + X.shape[1:])] if q else []
    return parts + [X[q:]] if q < len(X) else parts


def run_ranges(bounds: tuple[int, ...],
               body: Callable[[int, int, Callable[[], None]], None]) -> None:
    """Run body(lo, hi, sync) once per range lo..hi-1 of bounds: the first on
    the calling thread, the others on worker threads. sync() returns once
    every range has reached it. An exception in one range breaks every sync,
    and the first exception by range order (other than the broken syncs it
    caused) is raised here once all ranges have stopped. Calls do not nest:
    body must not call run_ranges."""
    count = len(bounds) - 1
    barrier = threading.Barrier(count)

    def run(r: int) -> None:
        try:
            body(bounds[r], bounds[r + 1], barrier.wait)
        except BaseException:
            barrier.abort()
            raise

    if count == 1:
        return run(0)
    with _POOL.lock:
        pool = _POOL.executor(count - 1)
        # each worker runs in a copy of the caller's context, so np.errstate holds there too
        futures = [pool.submit(contextvars.copy_context().run, run, r) for r in range(1, count)]
        errors = []
        try:
            run(0)
        except BaseException as exc:
            errors.append(exc)
        errors += [exc for exc in (f.exception() for f in futures) if exc is not None]
    if errors:
        raise next((e for e in errors if not isinstance(e, threading.BrokenBarrierError)),
                   errors[0])


class _RangePool:
    """The worker threads of run_ranges, started on first use. One call runs
    on them at a time, as its ranges wait for each other at every sync."""

    def __init__(self):
        self.lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        self._workers = 0

    def executor(self, workers: int) -> ThreadPoolExecutor:
        from concurrent.futures import ThreadPoolExecutor  # here, off the import path of serving

        if workers > self._workers:
            if self._executor is not None:
                self._executor.shutdown()
            self._executor = ThreadPoolExecutor(workers, thread_name_prefix="dgcf-range")
            self._workers = workers
        return self._executor


_POOL = _RangePool()
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_POOL.__init__)
