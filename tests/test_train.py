import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit

from dgcf.data import RawInteractions, split_train_test
from dgcf.errors import ConfigError
from dgcf.graph import InteractionMatrix
from dgcf.model import Hyperparams, ModelParams, forward, init_params, preset, score_all_items
from dgcf.train import ADAM_EPS, MARGIN_CHUNK, OptimizerState, TrainConfig, _margins, \
    backward, bpr_loss, fit, laplacian_for, optimizer_step
from helpers import as_csr, as_scipy, finite_diff_grad, one_shot_margins, random_interactions, \
    rel_err, scatter_loss_grad

from conftest import laplacian_from_pairs


REG = 0.01  # L2 weight of the tests that do not set their own


def tiny_instance(seed, m=3, n=4, d=2, L=2, activation="relu", mode="sw",
                  alpha=0.3, beta=0.4):
    rng = np.random.default_rng(seed)
    S = laplacian_from_pairs(m, n, random_interactions(rng, m, n, 3))
    hyper = Hyperparams(d=d, L=L, alpha=alpha, beta=beta, activation=activation,
                        embedding_mode=mode)
    params = init_params(m, n, hyper, rng)
    params.W_layers = [rng.normal(0, 0.3, (d, d)) for _ in range(L)]
    B = 6
    batch = np.stack([rng.integers(0, m, B), rng.integers(0, n, B),
                      rng.integers(0, n, B)], axis=1)
    return S, hyper, params, batch


class TestBprLoss:
    def test_zero_margin_is_ln2(self, rng):
        # identical user/item rows make every margin zero
        E = np.tile(rng.normal(size=(1, 3)), (6, 1))
        params = ModelParams(2, 4, np.zeros((6, 3)), [])
        from dgcf.model import ForwardTrace
        trace = ForwardTrace(m=2, E_layers=[E], mixed_layers=[], transforms=[], E_star=E)
        batch = np.array([[0, 0, 1], [1, 2, 3]])
        assert bpr_loss(trace, batch, 0.0, params)[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_margin_ln3(self):
        # single triple with margin ln 3: loss = -ln sigmoid(ln 3) = -ln(3/4)
        from dgcf.model import ForwardTrace
        E = np.zeros((3, 1))
        E[0, 0] = 1.0
        E[1, 0] = math.log(3.0)  # item 0
        E[2, 0] = 0.0  # item 1
        trace = ForwardTrace(m=1, E_layers=[E], mixed_layers=[], transforms=[], E_star=E)
        params = ModelParams(1, 2, np.zeros((3, 1)), [])
        loss, _ = bpr_loss(trace, np.array([[0, 0, 1]]), 0.0, params)
        assert loss == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_monotone_in_margin_with_reg_floor(self):
        from dgcf.model import ForwardTrace
        params = ModelParams(1, 2, np.full((3, 1), 0.5), [])
        reg = 0.01
        reg_term = reg * float(np.sum(params.W ** 2))
        losses = []
        for margin in (0.0, 2.0, 20.0, 200.0):
            E = np.zeros((3, 1))
            E[0, 0] = 1.0
            E[1, 0] = margin
            trace = ForwardTrace(m=1, E_layers=[E], mixed_layers=[], transforms=[], E_star=E)
            losses.append(bpr_loss(trace, np.array([[0, 0, 1]]), reg, params)[0])
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] == pytest.approx(reg_term, abs=1e-10)

    def test_empty_batch(self, ring_split):
        S = laplacian_for(ring_split)
        hyper = Hyperparams(d=2, L=1)
        params = init_params(ring_split.m, ring_split.n, hyper, np.random.default_rng(0))
        trace = forward(params, S, hyper)
        with pytest.raises(ValueError):
            bpr_loss(trace, np.empty((0, 3), dtype=int), 0.0, params)


def one_entry_seed(N, row, col):
    """The seed C with a single 1 at (row, col)."""
    return as_csr(sp.coo_array(([1.0], ([row], [col])), shape=(N, N)))


class TestSeed:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", [(3, 4, 2, 2), (5, 5, 3, 3)])
    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("mode", ["sw", "free"])
    def test_one_entry_seed_splits_the_score_over_nodes(self, seed, shape, activation, mode):
        # E* is positively homogeneous of degree 1 in W (linear maps and relu,
        # no bias), so by Euler's theorem sum_v <W[v], d<E*[u], q>/dW[v]> is
        # <E*[u], q>; the seed with a 1 at (u, m+i) makes q = E*[m+i]. The
        # sum came within 1.5e-15 of sum_v |c_v|; a wrong term misses by far more
        m, n, d, L = shape
        S, hyper, params, _ = tiny_instance(seed, m, n, d, L, activation, mode)
        trace = forward(params, S, hyper)
        for u in range(m):
            scores = score_all_items(trace.E_star, m, u)
            for i in range(n):
                grads = backward(trace, one_entry_seed(m + n, u, m + i), params, hyper, 0.0)
                c = np.sum(params.W * grads.W, axis=1)  # each node's share
                assert abs(c.sum() - scores[i]) <= 1e-13 * np.abs(c).sum()

    @pytest.mark.parametrize("C_shape", [(11, 12), (12, 11), (1, 1), (13, 13)])
    def test_seed_of_another_shape_is_refused(self, C_shape):
        S, hyper, params, _ = tiny_instance(2, 5, 7, 2, 2)
        trace = forward(params, S, hyper)
        with pytest.raises(ValueError, match="does not match S"):
            backward(trace, as_csr(C_shape), params, hyper, REG)


def bprmf_trace(m, n, E_star):
    """forward of a bprmf model (free, L = 0) whose E* is E_star."""
    params = ModelParams(m, n, np.array(E_star, dtype=np.float64), [])
    return forward(params, laplacian_from_pairs(m, n, []), preset("bprmf", d=E_star.shape[1]))


def scatter_bound(E, m, batch):
    """Per entry, delta >= |C E* - scatter_loss_grad|, C bpr_loss's seed. Row r
    of either sums at most K products of a coefficient and an E row, the
    coefficients c_t (e_i - e_j) or sums of repeated c_t formed first; two
    such float sums differ by at most 2 gamma_K A, A the row's sum of
    |c_t| |e| over its terms, plus underflow: delta is 4 K eps A + K tiny,
    K twice the row's triple count plus 2."""
    u, i, j = batch[:, 0], m + batch[:, 1], m + batch[:, 2]
    c = expit(-one_shot_margins(E, m, batch))[:, None] / len(batch)  # |c_t|
    A = np.zeros_like(E)
    absE = np.abs(E)
    np.add.at(A, u, c * (absE[i] + absE[j]))
    np.add.at(A, i, c * absE[u])
    np.add.at(A, j, c * absE[u])
    K = 2 * np.bincount(np.concatenate([u, i, j]), minlength=len(E))[:, None] + 2
    f = np.finfo(np.float64)
    return 4 * K * f.eps * A + K * f.tiny


@st.composite
def gradient_case(draw):
    """(m, n, E*, batch): up to 5 users and 5 items, so triples repeat users
    and items and one user's positive is often another triple's negative."""
    m, n, d = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    B = draw(st.integers(1, 3 * (m + n)))
    triples = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                                      st.integers(0, n - 1)), min_size=B, max_size=B))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    E = scale * np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).normal(size=(m + n, d))
    return m, n, E, np.array(triples, dtype=np.int64)


def fixed_case(m, n, d, triples, seed=0):
    return m, n, np.random.default_rng(seed).normal(size=(m + n, d)), np.array(triples)


class TestBatchPath:
    @pytest.mark.parametrize("B", [1, MARGIN_CHUNK - 1, MARGIN_CHUNK, MARGIN_CHUNK + 1, 8192])
    def test_margins_equal_one_shot_gather(self, B):
        m, n = 40, 60
        rng = np.random.default_rng(B)
        trace = bprmf_trace(m, n, rng.normal(size=(m + n, 16)))
        batch = np.stack([rng.integers(0, m, B), rng.integers(0, n, B),
                          rng.integers(0, n, B)], axis=1)
        got = _margins(trace, batch)
        assert got.tobytes() == one_shot_margins(trace.E_star, m, batch).tobytes()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=gradient_case())
    @example(case=fixed_case(3, 4, 2, [[0, 1, 2]]))  # B = 1
    @example(case=fixed_case(2, 3, 3, [[0, 1, 2], [0, 1, 2], [1, 1, 0], [0, 0, 1]]))  # repeats
    @example(case=fixed_case(2, 3, 2, [[1, 0, 2], [1, 2, 0], [0, 2, 0]]))  # pos and neg
    @example(case=fixed_case(1, 2, 3, [[0, t % 2, (t + 1) % 2] for t in range(7)]))  # B > N
    def test_gradient_matches_per_triple_scatter(self, case):
        m, n, E, batch = case
        trace = bprmf_trace(m, n, E)
        _, C = bpr_loss(trace, batch, 0.0, ModelParams(m, n, E, []))
        got = as_scipy(C) @ trace.E_star
        want = scatter_loss_grad(E, m, batch)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= scatter_bound(E, m, batch))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=gradient_case())
    @example(case=fixed_case(3, 4, 2, [[0, 1, 2]]))  # B = 1
    @example(case=fixed_case(2, 3, 3, [[0, 1, 2], [0, 1, 2], [1, 1, 0], [0, 0, 1]]))  # repeats
    @example(case=fixed_case(2, 3, 2, [[1, 0, 2], [1, 2, 0], [0, 2, 0]]))  # pos and neg
    @example(case=fixed_case(1, 2, 3, [[0, t % 2, (t + 1) % 2] for t in range(7)]))  # B > N
    def test_seed_lists_each_row_in_batch_order(self, case):
        m, n, E, batch = case
        trace = bprmf_trace(m, n, E)
        _, C = bpr_loss(trace, batch, 0.0, ModelParams(m, n, E, []))
        # the 4B entries as listed: (u, i), (u, j), (i, u), (j, u), each in batch order
        u, i, j = batch[:, 0], m + batch[:, 1], m + batch[:, 2]
        c = -expit(-one_shot_margins(E, m, batch)) / len(batch)
        rows, cols = np.concatenate([u, u, i, j]), np.concatenate([i, j, u, u])
        vals = np.concatenate([c, -c, c, -c])
        N = m + n
        assert C.shape == (N, N) and C.nnz == 4 * len(batch)
        order = np.argsort(rows, kind="stable")
        assert np.array_equal(C.indptr, np.searchsorted(rows[order], np.arange(N + 1)))
        assert np.array_equal(C.indices, cols[order])
        assert C.data.tobytes() == vals[order].tobytes()
        # Summed, C is scipy's canonical matrix of the same entries. Each of
        # an entry's K repeats is added in another order, so two float sums of
        # the same K terms differ by at most 2 gamma_(K-1) A <= 2 K eps A, A
        # the sum of their magnitudes; adding subnormals is exact.
        want = sp.csr_array((vals, (rows, cols)), shape=(N, N))
        K = sp.csr_array((np.ones(len(vals)), (rows, cols)), shape=(N, N))
        A = sp.csr_array((np.abs(vals), (rows, cols)), shape=(N, N))
        got = as_scipy(C).copy()
        got.sum_duplicates()
        for X in (want, K, A):
            assert np.array_equal(got.indptr, X.indptr) and np.array_equal(got.indices, X.indices)
        assert np.all(np.abs(got.data - want.data) <= 2 * K.data * np.finfo(float).eps * A.data)

    @pytest.mark.parametrize("bad", [(0, 0, -1), (-1, 0, 0), (3, 0, 0), (0, 4, 0), (0, 0, 9)])
    def test_out_of_range_batch_is_refused(self, bad):
        S, hyper, params, batch = tiny_instance(6)
        batch[2] = bad
        with pytest.raises(IndexError, match="batch index out of range"):
            bpr_loss(forward(params, S, hyper), batch, REG, params)


class TestBackward:
    def test_symmetric_pos_neg_cancels(self, rng):
        S, hyper, params, _ = tiny_instance(0, activation="identity")
        batch = np.array([[0, 1, 1], [2, 3, 3]])  # i == j in every triple
        trace = forward(params, S, hyper)
        _, C = bpr_loss(trace, batch, 0.0, params)
        grads = backward(trace, C, params, hyper, 0.0)
        assert np.max(np.abs(grads.W)) == 0.0
        for g in grads.W_layers:
            assert np.max(np.abs(g)) == 0.0

    def test_pure_l2_when_ranking_flat(self):
        S, hyper, params, _ = tiny_instance(1, activation="identity")
        params.W[:] = 0.0  # all scores 0, expit(0) scatter still cancels i==j
        batch = np.array([[0, 0, 0], [1, 2, 2]])
        trace = forward(params, S, hyper)
        _, C = bpr_loss(trace, batch, 0.05, params)
        grads = backward(trace, C, params, hyper, 0.05)
        assert np.allclose(grads.W, 2 * 0.05 * params.W, atol=1e-15)
        for g, Wl in zip(grads.W_layers, params.W_layers):
            assert np.allclose(g, 2 * 0.05 * Wl, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("shape", [(3, 4, 2, 2), (5, 5, 3, 3)])
    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("mode", ["sw", "free"])
    def test_matches_finite_differences(self, seed, shape, activation, mode):
        m, n, d, L = shape
        S, hyper, params, batch = tiny_instance(seed, m, n, d, L, activation, mode)
        trace = forward(params, S, hyper)
        _, C = bpr_loss(trace, batch, REG, params)
        got = backward(trace, C, params, hyper, REG)

        def closure(p):
            return bpr_loss(forward(p, S, hyper), batch, REG, p)[0]

        want = finite_diff_grad(params, closure, step=1e-6)
        assert rel_err(got.W, want.W) <= 1e-4
        for g, w in zip(got.W_layers, want.W_layers):
            assert rel_err(g, w) <= 1e-4

    def test_loss_invariant_under_relabeling(self, rng):
        S, hyper, params, batch = tiny_instance(3, activation="identity")
        m, n = 3, 4
        pu = np.array([2, 0, 1])  # user permutation
        pi = np.array([3, 1, 0, 2])  # item permutation
        # permute graph, params, and batch consistently
        perm = np.concatenate([pu, m + pi])
        Sd = as_scipy(S).toarray()[np.ix_(perm, perm)]
        S2 = as_csr(Sd)
        inv_u = np.argsort(pu)
        inv_i = np.argsort(pi)
        params2 = ModelParams(m, n, params.W[perm], params.W_layers)
        batch2 = np.stack([inv_u[batch[:, 0]], inv_i[batch[:, 1]], inv_i[batch[:, 2]]], axis=1)
        l1, _ = bpr_loss(forward(params, S, hyper), batch, REG, params)
        l2, _ = bpr_loss(forward(params2, S2, hyper), batch2, REG, params2)
        assert l2 == pytest.approx(l1, rel=1e-12)


class TestFiniteDiff:
    def test_quadratic(self):
        params = ModelParams(1, 1, np.array([[1.0, 2.0]]), [])
        grads = finite_diff_grad(params, lambda p: float(np.sum(p.W ** 2)), step=1e-6)
        assert np.allclose(grads.W, [[2.0, 4.0]], atol=1e-8)

    def test_constant(self):
        params = ModelParams(1, 1, np.array([[1.0, 2.0]]), [np.eye(2)])
        grads = finite_diff_grad(params, lambda p: 7.5, step=1e-6)
        assert np.allclose(grads.W, 0.0, atol=1e-10)
        assert np.allclose(grads.W_layers[0], 0.0, atol=1e-10)


class TestOptimizer:
    def test_zero_grad_fixed_point(self):
        theta = [np.array([1.5, -2.0])]
        optimizer_step(theta, [np.zeros(2)], 0.1, OptimizerState())
        assert np.array_equal(theta[0], [1.5, -2.0])

    def test_adam_first_step_magnitude(self):
        # t=1, g=1: mhat=1, vhat=1, update = lr / (1 + eps)
        theta = [np.zeros(3)]
        lr = 0.01
        optimizer_step(theta, [np.ones(3)], lr, OptimizerState())
        expected = -lr / (1.0 + ADAM_EPS)
        assert np.allclose(theta[0], expected, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            optimizer_step([np.zeros(2)], [np.zeros(3)], 0.1, OptimizerState())

    def test_state_advances(self):
        state = OptimizerState()
        theta = [np.ones(2)]
        for t in range(1, 4):
            state = optimizer_step(theta, [np.ones(2)], 0.01, state)
            assert state.t == t


class TestFit:
    def test_lr_zero_is_identity(self, ring_split):
        hyper = Hyperparams(d=4, L=2)
        cfg = TrainConfig(lr=0.0, epochs=2, batch_size=16, seed=5, eval_every=0)
        params, _ = fit(ring_split, hyper, cfg)
        fresh = init_params(ring_split.m, ring_split.n, hyper, np.random.default_rng(5))
        assert np.array_equal(params.W, fresh.W)
        for a, b in zip(params.W_layers, fresh.W_layers):
            assert np.array_equal(a, b)

    def test_epochs_zero_returns_init(self, ring_split):
        hyper = Hyperparams(d=4, L=1)
        cfg = TrainConfig(epochs=0, batch_size=16, seed=2)
        params, log = fit(ring_split, hyper, cfg)
        fresh = init_params(ring_split.m, ring_split.n, hyper, np.random.default_rng(2))
        assert np.array_equal(params.W, fresh.W)
        assert log == []

    def test_deterministic(self, ring_split):
        hyper = Hyperparams(d=4, L=2)
        cfg = TrainConfig(epochs=3, batch_size=32, seed=9, eval_every=2)
        p1, log1 = fit(ring_split, hyper, cfg)
        p2, log2 = fit(ring_split, hyper, cfg)
        assert np.array_equal(p1.W, p2.W)
        for a, b in zip(p1.W_layers, p2.W_layers):
            assert np.array_equal(a, b)
        strip = lambda log: [{k: v for k, v in e.items() if k != "wall_ms"} for e in log]
        assert strip(log1) == strip(log2)

    def test_loss_decreases_on_planted_blocks(self):
        # 20x20 two-block structure, every node degree 10 (10-core tight)
        pairs = [(f"u{u:02d}", f"i{i:02d}")
                 for u in range(20) for i in range(20)
                 if (u < 10) == (i < 10)]
        split = split_train_test(RawInteractions(pairs), 0.2, seed=0)
        hyper = Hyperparams(d=8, L=2)
        cfg = TrainConfig(lr=5e-3, epochs=50, batch_size=64, seed=1, eval_every=0)
        _, log = fit(split, hyper, cfg)
        assert log[-1]["loss"] < log[0]["loss"]

    def test_single_sgd_step_decreases_triple_loss(self):
        # fixed connected path graph: no isolated users, no twin items
        pairs = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)]
        S = laplacian_from_pairs(3, 4, pairs)
        for seed in range(4):
            _, hyper, params, _ = tiny_instance(seed)
            lr = 1e-4
            batch = np.array([[0, 1, 2]])
            trace = forward(params, S, hyper)
            before, C = bpr_loss(trace, batch, 0.0, params)
            grads = backward(trace, C, params, hyper, 0.0)
            for p, g in zip([params.W] + params.W_layers, [grads.W] + grads.W_layers):
                p -= lr * g
            after, _ = bpr_loss(forward(params, S, hyper), batch, 0.0, params)
            assert after < before

    def test_log_has_metrics_on_eval_epochs(self, ring_split):
        hyper = Hyperparams(d=4, L=1)
        cfg = TrainConfig(epochs=4, batch_size=32, seed=0, eval_every=2)
        _, log = fit(ring_split, hyper, cfg)
        assert "recall@20" in log[1] and "ndcg@20" in log[3]
        assert "recall@20" not in log[0]
        assert all("loss" in e and "wall_ms" in e and "epoch" in e for e in log)


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [dict(epochs=-1), dict(batch_size=0),
                                     dict(batches_per_epoch=0), dict(eval_every=-2),
                                     dict(early_stop_patience=0), dict(lr=-1.0),
                                     dict(lr=float("nan")), dict(reg_lambda=float("nan")),
                                     dict(lr=float("inf"))])
    def test_rejects(self, bad):
        (key,) = bad
        with pytest.raises(ConfigError, match=f"^{key} must be .*, got {bad[key]}$"):
            TrainConfig(**bad)
