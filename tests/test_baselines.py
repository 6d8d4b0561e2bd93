"""The reference models as presets of the one model: BPRMF is L=0 with free
embeddings (E* = W = [P; Q]), LightGCN is checked against the independent
lightgcn_forward oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from dgcf.data import RawInteractions, split_train_test
from dgcf.evaluate import evaluate_model
from dgcf.model import ModelParams, forward, preset, score_all_items
from dgcf.train import TrainConfig, backward, bpr_loss, fit, laplacian_for
from helpers import finite_diff_grad, lightgcn_forward, rel_err

from conftest import laplacian_from_pairs


def bprmf_instance(P, Q):
    """(params, S, hyper) of BPRMF with user factors P and item factors Q."""
    m, n = len(P), len(Q)
    params = ModelParams(m, n, np.vstack([P, Q]), [])
    # L=0 in free mode makes no graph product; S only has to have the right shape
    return params, sp.csr_array((m + n, m + n)), preset("bprmf", d=P.shape[1])


def bprmf_loss(params, S, hyper, batch, reg=0.0):
    return bpr_loss(forward(params, S, hyper), batch, reg, params)


class TestPredict:
    def test_unit_vectors(self):
        params, S, hyper = bprmf_instance(np.eye(3), np.eye(3))
        E_star = forward(params, S, hyper).E_star
        assert np.array_equal(score_all_items(E_star, 3, 0), [1.0, 0.0, 0.0])

    def test_dot_product_value(self):
        params, S, hyper = bprmf_instance(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
        assert np.array_equal(score_all_items(forward(params, S, hyper).E_star, 1, 0), [11.0])


class TestGrads:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        P, Q = rng.normal(0, 0.5, (4, 3)), rng.normal(0, 0.5, (6, 3))
        batch = np.stack([rng.integers(0, 4, 8), rng.integers(0, 6, 8),
                          rng.integers(0, 6, 8)], axis=1)
        params, S, hyper = bprmf_instance(P, Q)
        got = backward(forward(params, S, hyper), batch, params, hyper, 0.02)
        want = finite_diff_grad(params, lambda p: bprmf_loss(p, S, hyper, batch, 0.02),
                                step=1e-6)
        assert got.W_layers == []
        assert rel_err(got.W, want.W) <= 1e-6

    def test_identical_pos_neg_leaves_only_reg(self):
        rng = np.random.default_rng(0)
        params, S, hyper = bprmf_instance(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)))
        batch = np.array([[0, 2, 2], [1, 3, 3]])
        grads = backward(forward(params, S, hyper), batch, params, hyper, 0.5)
        assert np.allclose(grads.W, params.W, atol=1e-15)  # 2 * 0.5 * W

    def test_loss_at_zero_margin(self):
        params, S, hyper = bprmf_instance(np.zeros((2, 3)), np.zeros((5, 3)))
        batch = np.array([[0, 1, 2], [1, 3, 4]])
        assert bprmf_loss(params, S, hyper, batch) == pytest.approx(np.log(2), abs=1e-12)


class TestFit:
    def test_lr_zero_is_identity(self, ring_split):
        cfg = TrainConfig(lr=0.0, epochs=2, batch_size=16, seed=3, eval_every=0)
        params, _ = fit(ring_split, preset("bprmf", d=4), cfg)
        # W = [P; Q] draws P, then Q, from the one seeded stream
        rng = np.random.default_rng(3)
        m = ring_split.m
        assert np.array_equal(params.W[:m], rng.normal(0.0, 0.1, (m, 4)))
        assert np.array_equal(params.W[m:], rng.normal(0.0, 0.1, (ring_split.n, 4)))

    def test_deterministic(self, ring_split):
        cfg = TrainConfig(epochs=3, batch_size=32, seed=1, eval_every=2)
        a, la = fit(ring_split, preset("bprmf", d=4), cfg)
        b, lb = fit(ring_split, preset("bprmf", d=4), cfg)
        assert np.array_equal(a.W, b.W)
        strip = lambda log: [{k: v for k, v in e.items() if k != "wall_ms"} for e in log]
        assert strip(la) == strip(lb)

    def test_learns_planted_blocks(self):
        # two disjoint blocks; test recall must beat uniform-random top-20
        pairs = [(f"u{u:02d}", f"i{i:02d}")
                 for u in range(20) for i in range(40)
                 if (u < 10) == (i < 20)]
        split = split_train_test(RawInteractions(pairs), 0.25, seed=0)
        cfg = TrainConfig(lr=5e-3, epochs=40, batch_size=64, seed=2, eval_every=10)
        hyper = preset("bprmf", d=8)
        params, log = fit(split, hyper, cfg)
        e_star = forward(params, laplacian_for(split), hyper).E_star
        metrics = evaluate_model(e_star, split, k=20)
        # random ranking expects recall ~= k / (n - train_deg) ~= 20/10 capped; block
        # structure is only learnable signal, demand a clear margin over 0.5
        assert metrics.recall_at_k > 0.8
        assert log[-1]["loss"] < log[0]["loss"]


class TestLightgcn:
    def test_L_zero_copies(self):
        E0 = np.arange(6.0).reshape(3, 2)
        S = sp.csr_array(np.zeros((3, 3)))
        out = lightgcn_forward(E0, S, 0)
        assert np.array_equal(out, E0)
        assert out is not E0

    def test_zero_graph_divides_by_depth(self):
        E0 = np.ones((3, 2))
        S = sp.csr_array(np.zeros((3, 3)))
        out = lightgcn_forward(E0, S, 3)
        assert np.allclose(out, 0.25)

    def test_identity_graph_is_noop(self):
        E0 = np.arange(8.0).reshape(4, 2)
        S = sp.csr_array(np.eye(4))
        assert np.allclose(lightgcn_forward(E0, S, 5), E0)

    def test_hand_average(self):
        # S swaps two nodes: mean of E0 and swapped E0
        S = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
        E0 = np.array([[1.0], [3.0]])
        out = lightgcn_forward(E0, S, 1)
        assert np.allclose(out, [[2.0], [2.0]])

    def test_negative_L_rejected(self):
        with pytest.raises(ValueError):
            lightgcn_forward(np.zeros((2, 1)), sp.csr_array(np.eye(2)), -1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lightgcn_forward(np.zeros((3, 1)), sp.csr_array(np.eye(2)), 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_reduced_main_model(self, seed):
        # dual route: the lightgcn preset (alpha=0, beta=0, identity, free embeddings)
        rng = np.random.default_rng(seed)
        m, n, d, L = 5, 7, 3, 4
        pairs = [(int(u), int(i)) for u, i in
                 zip(rng.integers(0, m, 12), rng.integers(0, n, 12))]
        S = laplacian_from_pairs(m, n, pairs)
        W = rng.normal(size=(m + n, d))
        hyper = preset("lightgcn", d=d, L=L)
        params = ModelParams(m, n, W.copy(), [np.zeros((d, d)) for _ in range(L)])
        ours = forward(params, S, hyper).E_star
        ref = lightgcn_forward(W, S, L)
        assert np.max(np.abs(ours - ref)) <= 1e-10
