import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dgcf.errors import DgcfError
from dgcf.graph import InteractionMatrix, add_product, spmm
from helpers import canonical_csr, dense_normalized_adjacency, random_interactions, \
    row_order_spmm_add, scipy_laplacian

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


@pytest.mark.parametrize("m,n", [(0, 0), (3, 0), (0, 4), (3, 4)])
def test_from_pairs_of_no_pairs(m, n):
    R = InteractionMatrix.from_pairs(m, n, np.empty(0))  # shape (0,): no pairs
    assert R.nnz == 0 and R.indptr.tolist() == [0] * (m + 1)


def test_adjacency_identity_pattern():
    S = laplacian_from_pairs(2, 2, [(0, 0), (1, 1)])
    want = np.zeros((4, 4))
    want[0, 2] = want[2, 0] = want[1, 3] = want[3, 1] = 1.0
    assert np.array_equal(S.toarray(), want)


def test_adjacency_empty():
    S = laplacian_from_pairs(3, 4, [])
    assert S.shape == (7, 7)
    assert S.nnz == 0


def test_adjacency_row_counts_and_symmetry():
    S = laplacian_from_pairs(2, 2, [(0, 0), (0, 1), (1, 0)])
    assert np.array_equal(np.diff(S.indptr), [2, 1, 2, 1])
    assert np.array_equal(S.toarray(), S.toarray().T)


def test_adjacency_blocks_zero():
    rng = np.random.default_rng(5)
    pairs = random_interactions(rng, 6, 8, 3)
    S = laplacian_from_pairs(6, 8, pairs).toarray()
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
    S = laplacian_from_pairs(2, 2, [(0, 0), (0, 1), (1, 0)]).toarray()
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
    S = laplacian_from_pairs(11, 13, pairs).toarray()
    assert np.array_equal(S, S.T)


def test_normalize_isolated_rows_zero():
    # item 3 has no interactions: its row and column must be all zero
    S = laplacian_from_pairs(2, 4, [(0, 0), (1, 1), (0, 2)]).toarray()
    assert not S[2 + 3].any()
    assert not S[:, 2 + 3].any()


def test_normalize_matches_dense_oracle():
    rng = np.random.default_rng(17)
    for _ in range(5):
        m, n = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        pairs = random_interactions(rng, m, n, 3)
        S = laplacian_from_pairs(m, n, pairs).toarray()
        assert np.max(np.abs(S - dense_normalized_adjacency(m, n, pairs))) < 1e-12


def test_top_eigenvalue_is_one_when_connected():
    # ring graph is connected; top |eigenvalue| of S is exactly 1
    pairs = [(u, u) for u in range(8)] + [(u, (u + 1) % 8) for u in range(8)]
    S = laplacian_from_pairs(8, 8, pairs).toarray()
    vals = np.linalg.eigvalsh(S)
    assert vals.max() == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.abs(vals) <= 1 + 1e-8)


def test_spmm_zero_and_swap():
    Z = sp.csr_array((2, 2))
    assert np.array_equal(spmm(Z, np.array([[1.0], [2.0]])), np.zeros((2, 1)))
    swap = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(spmm(swap, np.array([[1.0], [2.0]])), [[2.0], [1.0]])


def test_spmm_matches_dense_oracle(rng):
    S_dense = rng.normal(size=(6, 6)) * (rng.random((6, 6)) < 0.4)
    E = rng.normal(size=(6, 3))
    got = spmm(sp.csr_array(S_dense), E)
    want = np.zeros((6, 3))
    for i in range(6):
        for j in range(3):
            for k in range(6):
                want[i, j] += S_dense[i, k] * E[k, j]
    assert np.max(np.abs(got - want)) < 1e-12


def test_spmm_dimension_mismatch():
    with pytest.raises(ValueError):
        spmm(sp.csr_array((3, 3)), np.ones((4, 2)))


def add_product_cases():
    """(S, E) pairs: random square and rectangular shapes, an empty matrix, a
    non-contiguous E, a one-column E and a zero-row S."""
    rng = np.random.default_rng(11)
    cases = []
    for rows, cols, d in ((6, 6, 3), (15, 15, 4), (9, 4, 5), (4, 9, 2), (1, 7, 3)):
        dense = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.5)
        cases.append((sp.csr_array(dense), rng.normal(size=(cols, d))))
    cases.append((sp.csr_array((5, 6)), rng.normal(size=(6, 3))))  # nnz = 0
    S = laplacian_from_pairs(5, 6, random_interactions(rng, 5, 6, 3))
    cases.append((S, rng.normal(size=(11, 8))[:, ::2]))  # E not contiguous
    cases.append((S, np.asfortranarray(rng.normal(size=(11, 3)))))
    cases.append((S, rng.normal(size=(11, 1))))
    cases.append((sp.csr_array((0, 4)), rng.normal(size=(4, 3))))
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
    assert out.tobytes() == (S @ E).tobytes() == spmm(S, E).tobytes()


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


def test_spmm_out_rejects_bad_buffers():
    S = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 0.0]]))
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
        add_product(sp.csr_array(np.eye(3)), np.ones((3, 2)), out, rows)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.integers(2, 10), st.integers(0, 1000))
def test_adjacency_nnz_doubles_and_symmetric(m, n, seed):
    rng = np.random.default_rng(seed)
    pairs = random_interactions(rng, m, n, 3)
    R = InteractionMatrix.from_pairs(m, n, pairs)
    S = laplacian_from_pairs(m, n, pairs)
    assert S.nnz == 2 * R.nnz
    assert np.array_equal(S.toarray(), S.toarray().T)
