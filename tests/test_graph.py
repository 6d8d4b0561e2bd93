import dataclasses
import importlib
import sys

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dgcf import graph
from dgcf.data import DatasetSplit, laplacian_for
from dgcf.errors import DgcfError
from dgcf.graph import KERNEL_MODULE, CsrMatrix, InteractionMatrix, add_product, row_partition, \
    spmm
from dgcf.model import Hyperparams, ModelParams, forward, init_params, preset
from dgcf.train import bpr_loss
from helpers import as_csr, as_scipy, canonical_csr, dense_normalized_adjacency, \
    random_interactions, row_order_spmm_add, scipy_laplacian

from conftest import laplacian_from_pairs


def test_interaction_matrix_basic():
    R = InteractionMatrix.from_pairs(2, 2, [(0, 0), (0, 1), (1, 0)])
    assert R.nnz == 3
    assert np.array_equal(R.user_items(0), [0, 1])
    assert np.array_equal(R.user_items(1), [0])
    assert np.array_equal(R.indptr, [0, 2, 3]) and np.array_equal(R.indices, [0, 1, 0])


def test_interaction_matrix_dedups_and_validates():
    R = InteractionMatrix.from_pairs(2, 3, [(0, 1), (0, 1), (1, 2)])
    assert R.nnz == 2
    R = InteractionMatrix.from_pairs(2, 3, [(1, 2), (0, 2), (1, 0), (0, 2), (1, 2), (0, 0)])
    assert R.nnz == 4
    assert np.array_equal(R.indptr, [0, 2, 4]) and np.array_equal(R.indices, [0, 2, 0, 2])
    with pytest.raises(ValueError):
        InteractionMatrix.from_pairs(2, 3, [(2, 0)])
    with pytest.raises(ValueError):
        InteractionMatrix.from_pairs(2, 3, [(0, 3)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_from_pairs_matches_scipy_canonical_form(m, n, data):
    # repeats, any order, users without pairs, and the empty list
    pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                               max_size=30))
    want = canonical_csr(m, n, pairs)
    for given_as in (pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2)):
        R = InteractionMatrix.from_pairs(m, n, given_as)
        assert R.indptr.dtype == R.indices.dtype == np.int64
        assert R.indptr.tolist() == want.indptr.tolist()
        assert R.indices.tolist() == want.indices.tolist()
        assert R.codes.tolist() == sorted({u * n + i for u, i in pairs})
        assert R.codes is R.codes and not R.codes.flags.writeable  # computed once, read-only


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_contains_agrees_with_a_set_of_pairs(m, n, data):
    # codes in any order with repeats, users without pairs, and the last code m*n - 1
    pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                               min_size=1, max_size=30))
    codes = data.draw(st.lists(st.integers(0, m * n - 1), max_size=40)) + [m * n - 1, 0]
    R = InteractionMatrix.from_pairs(m, n, pairs)
    got, want = R.contains(np.array(codes, dtype=np.int64)), set(pairs)
    assert got.dtype == bool and got.tolist() == [divmod(c, n) in want for c in codes]


@pytest.mark.parametrize("m,n", [(0, 0), (3, 0), (0, 4), (3, 4)])
def test_from_pairs_of_no_pairs(m, n):
    R = InteractionMatrix.from_pairs(m, n, np.empty(0))  # shape (0,): no pairs
    assert R.nnz == 0 and R.indptr.tolist() == [0] * (m + 1)


def test_adjacency_identity_pattern():
    S = laplacian_from_pairs(2, 2, [(0, 0), (1, 1)])
    want = np.zeros((4, 4))
    want[0, 2] = want[2, 0] = want[1, 3] = want[3, 1] = 1.0
    assert np.array_equal(as_scipy(S).toarray(), want)


def test_adjacency_empty():
    S = laplacian_from_pairs(3, 4, [])
    assert S.shape == (7, 7)
    assert S.nnz == 0


def test_adjacency_row_counts_and_symmetry():
    S = laplacian_from_pairs(2, 2, [(0, 0), (0, 1), (1, 0)])
    assert np.array_equal(np.diff(S.indptr), [2, 1, 2, 1])
    assert np.array_equal(as_scipy(S).toarray(), as_scipy(S).toarray().T)


def test_adjacency_blocks_zero():
    rng = np.random.default_rng(5)
    pairs = random_interactions(rng, 6, 8, 3)
    S = as_scipy(laplacian_from_pairs(6, 8, pairs)).toarray()
    assert not S[:6, :6].any()
    assert not S[6:, 6:].any()


def test_degree_vector_examples():
    # a row stores one entry per edge, so its length is the node's degree
    S1 = laplacian_from_pairs(2, 2, [(0, 0), (1, 1)])
    assert np.array_equal(np.diff(S1.indptr), [1, 1, 1, 1])
    S2 = laplacian_from_pairs(3, 4, [])
    assert np.array_equal(np.diff(S2.indptr), np.zeros(7))
    S3 = laplacian_from_pairs(2, 2, [(0, 0), (0, 1), (1, 0)])
    assert np.array_equal(np.diff(S3.indptr), [2, 1, 2, 1])


def test_degree_matches_interaction_counts():
    rng = np.random.default_rng(9)
    pairs = random_interactions(rng, 7, 9, 4)
    d = np.diff(laplacian_from_pairs(7, 9, pairs).indptr)
    assert np.array_equal(d[:7], np.bincount([u for u, _ in pairs], minlength=7))
    item_counts = np.bincount([i for _, i in pairs], minlength=9)
    assert np.array_equal(d[7:], item_counts)


def test_normalize_unit_degrees_is_identity_on_A():
    S = laplacian_from_pairs(2, 2, [(0, 0), (1, 1)])
    assert S.data.tolist() == [1.0] * 4


def test_normalize_hand_values():
    # degrees [2,1,2,1]: entries are 1/2 and 1/sqrt(2)
    S = as_scipy(laplacian_from_pairs(2, 2, [(0, 0), (0, 1), (1, 0)])).toarray()
    assert S[0, 2] == pytest.approx(0.5, abs=1e-12)
    assert S[0, 3] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert S[1, 2] == pytest.approx(1 / np.sqrt(2), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_laplacian_matches_scipy_construction(m, n, data):
    # users and items without pairs, m or n = 1; a graph has at least one edge
    pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                               min_size=1, max_size=40))
    R = InteractionMatrix.from_pairs(m, n, pairs)
    S = laplacian_from_pairs(m, n, pairs)
    want = scipy_laplacian(R)
    assert S.shape == want.shape == (m + n, m + n)
    for got, ref in ((S.data, want.data), (S.indices, want.indices), (S.indptr, want.indptr)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_normalize_symmetry_exact():
    rng = np.random.default_rng(3)
    pairs = random_interactions(rng, 11, 13, 4)
    S = as_scipy(laplacian_from_pairs(11, 13, pairs)).toarray()
    assert np.array_equal(S, S.T)


def test_normalize_isolated_rows_zero():
    # item 3 has no interactions: its row and column must be all zero
    S = as_scipy(laplacian_from_pairs(2, 4, [(0, 0), (1, 1), (0, 2)])).toarray()
    assert not S[2 + 3].any()
    assert not S[:, 2 + 3].any()


def test_normalize_matches_dense_oracle():
    rng = np.random.default_rng(17)
    for _ in range(5):
        m, n = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        pairs = random_interactions(rng, m, n, 3)
        S = as_scipy(laplacian_from_pairs(m, n, pairs)).toarray()
        assert np.max(np.abs(S - dense_normalized_adjacency(m, n, pairs))) < 1e-12


def test_laplacian_is_built_once_and_read_only():
    R = InteractionMatrix.from_pairs(2, 3, [(0, 0), (1, 2), (0, 1)])
    S = R.laplacian
    split = DatasetSplit(train=R, test=None, user_map={}, item_map={}, seed=0)
    assert R.laplacian is S and laplacian_for(split) is S
    for a in (S.data, S.indices, S.indptr):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        S.data[0] = 2.0


def test_top_eigenvalue_is_one_when_connected():
    # ring graph is connected; top |eigenvalue| of S is exactly 1
    pairs = [(u, u) for u in range(8)] + [(u, (u + 1) % 8) for u in range(8)]
    S = as_scipy(laplacian_from_pairs(8, 8, pairs)).toarray()
    vals = np.linalg.eigvalsh(S)
    assert vals.max() == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.abs(vals) <= 1 + 1e-8)


def test_spmm_zero_and_swap():
    Z = as_csr((2, 2))
    assert np.array_equal(spmm(Z, np.array([[1.0], [2.0]])), np.zeros((2, 1)))
    swap = as_csr(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(spmm(swap, np.array([[1.0], [2.0]])), [[2.0], [1.0]])


def test_spmm_matches_dense_oracle(rng):
    S_dense = rng.normal(size=(6, 6)) * (rng.random((6, 6)) < 0.4)
    E = rng.normal(size=(6, 3))
    got = spmm(as_csr(S_dense), E)
    want = np.zeros((6, 3))
    for i in range(6):
        for j in range(3):
            for k in range(6):
                want[i, j] += S_dense[i, k] * E[k, j]
    assert np.max(np.abs(got - want)) < 1e-12


def test_spmm_dimension_mismatch():
    with pytest.raises(ValueError):
        spmm(as_csr((3, 3)), np.ones((4, 2)))


def add_product_cases():
    """(S, E) pairs: random square and rectangular shapes, an empty matrix, a
    non-contiguous E, a one-column E and a zero-row S."""
    rng = np.random.default_rng(11)
    cases = []
    for rows, cols, d in ((6, 6, 3), (15, 15, 4), (9, 4, 5), (4, 9, 2), (1, 7, 3)):
        dense = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.5)
        cases.append((as_csr(dense), rng.normal(size=(cols, d))))
    cases.append((as_csr((5, 6)), rng.normal(size=(6, 3))))  # nnz = 0
    S = laplacian_from_pairs(5, 6, random_interactions(rng, 5, 6, 3))
    cases.append((S, rng.normal(size=(11, 8))[:, ::2]))  # E not contiguous
    cases.append((S, np.asfortranarray(rng.normal(size=(11, 3)))))
    cases.append((S, rng.normal(size=(11, 1))))
    cases.append((as_csr((0, 4)), rng.normal(size=(4, 3))))
    return cases


@pytest.mark.parametrize("case", range(len(add_product_cases())))
def test_spmm_out_accumulates_in_row_order(case):
    S, E = add_product_cases()[case]
    out0 = np.random.default_rng(case).normal(size=(S.shape[0], E.shape[1]))
    out = out0.copy()
    assert add_product(S, E, out, (0, S.shape[0])) is out
    assert out.tobytes() == row_order_spmm_add(S, E, out0).tobytes()
    assert in_two_row_ranges(S, E, out0).tobytes() == out.tobytes()


def in_two_row_ranges(S, E, out0):
    """add_product onto out0 as two calls, on the top and the bottom rows."""
    out, half = out0.copy(), S.shape[0] // 2
    for lo, hi in ((0, half), (half, S.shape[0])):
        assert add_product(S, E, out[lo:hi], (lo, hi)) is not None
    return out


@pytest.mark.parametrize("case", range(len(add_product_cases())))
def test_spmm_out_from_zero_is_the_fresh_product(case):
    S, E = add_product_cases()[case]
    out = np.zeros((S.shape[0], E.shape[1]))
    add_product(S, E, out, (0, S.shape[0]))
    assert out.tobytes() == (as_scipy(S) @ E).tobytes() == spmm(S, E).tobytes()


@pytest.mark.parametrize("case", range(len(add_product_cases())))
def test_add_product_without_kernel_is_an_error(case, without_sparse_kernel):
    # no other product rounds as the kernel does onto a non-zero out
    S, E = add_product_cases()[case]
    out = np.random.default_rng(case).normal(size=(S.shape[0], E.shape[1]))
    before = out.copy()
    with pytest.raises(DgcfError, match=rf"^scipy {scipy.__version__} has no "
                                        r"scipy\.sparse\._sparsetools\.csr_matvecs"):
        add_product(S, E, out, (0, S.shape[0]))
    assert out.tobytes() == before.tobytes()


def test_bpr_loss_without_kernel_is_an_error(without_sparse_kernel):
    # C keeps each row's entries in batch order, which no public constructor does
    m, n = 2, 3
    params = ModelParams(m, n, np.random.default_rng(0).normal(size=(m + n, 2)), [])
    trace = forward(params, laplacian_from_pairs(m, n, []), preset("bprmf", d=2))
    with pytest.raises(DgcfError, match=rf"^scipy {scipy.__version__} has no "
                                        r"scipy\.sparse\._sparsetools\.coo_tocsr"):
        bpr_loss(trace, np.array([[0, 1, 2], [1, 0, 2]]), 0.0, params)


def test_spmm_out_rejects_bad_buffers():
    S = as_csr(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 0.0]]))
    E = np.ones((2, 4))
    bad = [np.zeros((2, 4)), np.zeros((3, 5)), np.zeros(12), np.zeros((3, 4), np.float32),
           np.zeros((3, 4), np.int64), np.zeros((3, 8))[:, ::2], np.zeros((3, 4), order="F"),
           np.zeros((3, 4)).tolist()]
    for out in bad:
        with pytest.raises(ValueError):
            add_product(S, E, out, (0, 3))
    frozen = np.zeros((3, 4))
    frozen.flags.writeable = False
    with pytest.raises(ValueError):
        add_product(S, E, frozen, (0, 3))
    with pytest.raises(ValueError):
        add_product(S, np.ones((3, 4)), np.zeros((3, 4)), (0, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):  # E is (N, d), never a vector
        add_product(S, np.ones(2), np.zeros(3), (0, 3))


@pytest.mark.parametrize("S", [sp.csr_array(np.eye(3, dtype=np.float32)),
                               sp.csr_array(np.eye(3, dtype=np.int64)),
                               sp.csc_array(np.eye(3)), sp.coo_array(np.eye(3))])
def test_add_product_takes_only_float64_csr(S):
    with pytest.raises(ValueError, match="float64 CSR"):
        add_product(S, np.ones((3, 2)), np.zeros((3, 2)), (0, 3))


@pytest.mark.parametrize("rows", [(-1, 2), (2, 4), (3, 2)])
def test_add_product_refuses_rows_outside_S(rows):
    # the kernel would read past S.indptr
    out = np.zeros((max(rows[1] - rows[0], 0), 2))
    with pytest.raises(ValueError, match="out of range"):
        add_product(as_csr(np.eye(3)), np.ones((3, 2)), out, rows)


def csr_arrays(**changes):
    """CsrMatrix arguments of the 2 x 3 matrix [[1, 0, 2], [0, 3, 0]], with changes."""
    fields = dict(data=np.array([1.0, 2.0, 3.0]), indices=np.array([0, 2, 1]),
                  indptr=np.array([0, 2, 3]), shape=(2, 3))
    return fields | changes


def test_csr_matrix_holds_its_arrays():
    S = CsrMatrix(**csr_arrays(shape=(np.int64(2), 3)))
    assert S.shape == (2, 3) and type(S.shape[0]) is int and S.nnz == 3
    assert as_scipy(S).toarray().tolist() == [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]
    with pytest.raises(dataclasses.FrozenInstanceError):
        S.data = np.zeros(3)


@pytest.mark.parametrize("changes", [
    dict(data=np.array([1, 2, 3])),  # not float64
    dict(data=np.array([1.0, 2.0, 3.0], np.float32)),
    dict(data=np.array([[1.0, 2.0, 3.0]])),  # not 1-d
    dict(data=np.arange(6.0)[::2]),  # not contiguous
    dict(indices=[0, 2, 1]),  # not an array
    dict(indices=np.array([0, 2, 1], np.int32)),  # indptr is int64
    dict(indices=np.array([0, 2, 1], np.int16), indptr=np.array([0, 2, 3], np.int16)),
    dict(indices=np.array([0.0, 2.0, 1.0]), indptr=np.array([0.0, 2.0, 3.0])),
    dict(indptr=np.array([0, 3])),  # rows + 1 entries
    dict(indptr=np.array([0, 2, 3, 3])),
    dict(indptr=np.array([1, 2, 3])),  # starts past 0
    dict(indptr=np.array([0, 2, 2])),  # ends before the values
    dict(indptr=np.array([0, 2, 4])),  # ends past them
    dict(indices=np.array([0, 2])),  # fewer indices than values
    dict(data=np.array([1.0, 2.0])),
    dict(indptr=np.array([0, 4, 3])),  # descends
    dict(indices=np.array([0, 3, 1])),  # column out of range
    dict(indices=np.array([0, -1, 1])),
    dict(shape=(-2, 3)),
    dict(shape=(2, 3, 1)),
])
def test_csr_matrix_refuses_arrays_the_kernel_would_overrun(changes):
    with pytest.raises(ValueError):
        CsrMatrix(**csr_arrays(**changes))


@pytest.mark.parametrize("scipy_seen", [True, False])
def test_kernels_load_once_without_scipy_sparse(scipy_seen, ranges, monkeypatch):
    # the first forward on two ranges loads the kernels' module once, by its
    # file (or, where find_spec does not see scipy, by the ordinary import),
    # and computes the same bits as the module scipy.sparse imported
    rng = np.random.default_rng(4)
    S = laplacian_from_pairs(80, 70, random_interactions(rng, 80, 70, 4))
    hyper = Hyperparams(d=8, L=3, alpha=0.3, beta=0.2, activation="relu")
    params = init_params(80, 70, hyper, rng)
    want = forward(params, S, hyper)  # on the module that scipy.sparse imported
    imported = sys.modules[KERNEL_MODULE]
    ranges(2)
    assert len(row_partition(S)) == 3
    monkeypatch.delitem(sys.modules, KERNEL_MODULE)
    if not scipy_seen:
        find_spec = importlib.util.find_spec
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name, *args: None if name == "scipy" else find_spec(name, *args))
    loads = []
    module_from_spec = importlib.util.module_from_spec
    monkeypatch.setattr(importlib.util, "module_from_spec",
                        lambda spec: loads.append(spec.name) or module_from_spec(spec))
    graph.sparse_kernel.cache_clear()
    try:
        got = forward(params, S, hyper)
        module = sys.modules[KERNEL_MODULE]
        assert module is not imported and loads == ([KERNEL_MODULE] if scipy_seen else [])
        assert graph.sparse_kernel("csr_matvecs") is module.csr_matvecs
        assert importlib.import_module(KERNEL_MODULE) is module
    finally:
        graph.sparse_kernel.cache_clear()  # the next call takes the module scipy.sparse holds
    for a, b in zip([want.E_star, *want.E_layers, *want.mixed_layers],
                    [got.E_star, *got.E_layers, *got.mixed_layers]):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.integers(2, 10), st.integers(0, 1000))
def test_adjacency_nnz_doubles_and_symmetric(m, n, seed):
    rng = np.random.default_rng(seed)
    pairs = random_interactions(rng, m, n, 3)
    R = InteractionMatrix.from_pairs(m, n, pairs)
    S = laplacian_from_pairs(m, n, pairs)
    assert S.nnz == 2 * R.nnz
    assert np.array_equal(as_scipy(S).toarray(), as_scipy(S).toarray().T)
