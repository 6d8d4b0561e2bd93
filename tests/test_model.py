import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgcf.errors import ConfigError, DivergenceError
from dgcf.graph import InteractionMatrix
from dgcf.model import Hyperparams, ModelParams, forward, init_params, preset, score_all_items
from helpers import as_csr, as_scipy, layer_order_sum, lightgcn_forward, predict, \
    random_interactions

from conftest import laplacian_from_pairs


def small_S(seed=11, m=7, n=8):
    rng = np.random.default_rng(seed)
    return laplacian_from_pairs(m, n, random_interactions(rng, m, n, 3))


class TestHyperparams:
    def test_defaults(self):
        h = Hyperparams()
        assert h.layer_weights.shape == (h.L + 1,)
        assert np.allclose(h.layer_weights, 1 / (h.L + 1))

    @pytest.mark.parametrize("bad", [dict(alpha=-0.1), dict(alpha=1.5), dict(beta=2.0),
                                     dict(d=0), dict(L=-1), dict(activation="tanh"),
                                     dict(embedding_mode="frozen"),
                                     dict(layer_weights=[1.0, 0.0]), dict(alpha=float("nan")),
                                     dict(layer_weights=[float("nan")] * 5),
                                     dict(beta=-0.1), dict(beta=float("nan")),
                                     dict(layer_weights=[[0.2] * 5]),
                                     dict(layer_weights=[1.0, 1.0, float("inf"), 1.0, 1.0])])
    def test_validation(self, bad):
        (key,) = bad
        with pytest.raises(ConfigError, match=key):
            Hyperparams(**bad)

    def test_presets_pin_their_fields(self):
        mf = preset("bprmf", d=4, L=5, alpha=0.3, activation="relu")
        assert (mf.d, mf.L, mf.alpha, mf.beta, mf.activation, mf.embedding_mode) == \
            (4, 0, 0.0, 0.0, "identity", "free")
        assert np.array_equal(mf.layer_weights, [1.0])
        assert np.array_equal(preset("plain", L=3).layer_weights, [0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(preset("plain", L=1, layer_weights=[0.5, 0.5]).layer_weights,
                              [0.5, 0.5])
        lg = preset("lightgcn", L=2, embedding_mode="sw")
        assert (lg.alpha, lg.beta, lg.activation, lg.embedding_mode) == \
            (0.0, 0.0, "identity", "free")
        with pytest.raises(ConfigError, match="svd"):
            preset("svd")

    def test_endpoints_allowed_for_reduction_modes(self):
        Hyperparams(alpha=0.0, beta=0.0)
        Hyperparams(alpha=1.0, beta=1.0)


def e0(S, W, m):
    """E(0) of the sw-mode forward pass over the graph S with m users."""
    params = ModelParams(m, S.shape[0] - m, W, [])
    return forward(params, S, Hyperparams(d=W.shape[1], L=0)).E_layers[0]


class TestInitialEmbedding:
    def test_zero_w(self):
        S = small_S()
        assert not e0(S, np.zeros((S.shape[0], 4)), 7).any()

    def test_swap_permutation(self):
        swap = as_csr(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = e0(swap, np.array([[1.0], [2.0]]), 1)
        assert np.array_equal(out, [[2.0], [1.0]])

    def test_matches_dense_product(self, rng):
        S = small_S(3, 5, 5)
        W = rng.normal(size=(10, 4))
        assert np.max(np.abs(e0(S, W, 5) - as_scipy(S).toarray() @ W)) < 1e-12


def free_forward(S, W, alpha, L=1, activation="identity", **fields):
    """Trace of a b = 0 forward pass in free mode, where E(0) is W."""
    hyper = Hyperparams(d=W.shape[1], L=L, alpha=alpha, beta=0.0, activation=activation,
                        embedding_mode="free", **fields)
    m = W.shape[0] // 2
    params = ModelParams(m, W.shape[0] - m, W, [np.zeros((W.shape[1],) * 2)] * L)
    return forward(params, S, hyper)


class TestPropagateLayer:
    def test_alpha1_beta0_returns_e0(self, rng):
        S = small_S()
        W = rng.normal(size=(S.shape[0], 3))
        trace = free_forward(S, W, 1.0)
        assert trace.E_layers[1].tobytes() == trace.E_layers[0].tobytes()
        assert np.array_equal(trace.E_layers[1], W)

    def test_alpha0_beta0_is_plain_propagation(self, rng):
        S = small_S()
        W = rng.normal(size=(S.shape[0], 3))
        E1 = free_forward(S, W, 0.0).E_layers[1]
        assert np.max(np.abs(E1 - as_scipy(S).toarray() @ W)) < 1e-12

    def test_hand_mix(self):
        swap = as_csr(np.array([[0.0, 1.0], [1.0, 0.0]]))
        E1 = free_forward(swap, np.array([[1.0], [2.0]]), 0.5).E_layers[1]
        assert np.array_equal(E1, [[1.5], [1.5]])  # 0.5*[[2],[1]] + 0.5*[[1],[2]]

    def test_relu_clamps(self, rng):
        S = small_S()
        trace = free_forward(S, rng.normal(size=(S.shape[0], 3)), 0.2, activation="relu")
        (M,), (T,), E1 = trace.mixed_layers, trace.transforms, trace.E_layers[1]
        assert T is None
        assert np.array_equal(E1, np.maximum(M, 0.0))
        assert (E1 >= 0).all() and (M < 0).any()

    def test_shape_mismatch(self, rng):
        S = small_S()
        with pytest.raises(ValueError, match="does not match"):
            free_forward(S, rng.normal(size=(S.shape[0] - 1, 2)), 0.5)

    def test_nonfinite_raises(self):
        S = as_csr(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(DivergenceError, match="propagation layer"):
            free_forward(S, np.array([[np.inf], [1.0]]), 0.5)


class TestForward:
    def test_L0(self, rng):
        S = small_S()
        hyper = Hyperparams(d=3, L=0, layer_weights=[0.7])
        params = init_params(7, 8, hyper, rng)
        trace = forward(params, S, hyper)
        assert np.array_equal(trace.E_star, 0.7 * trace.E_layers[0])

    def test_fixed_point_exact(self, rng):
        S = small_S()
        hyper = Hyperparams(d=4, L=8, alpha=1.0, beta=0.0, activation="identity")
        params = init_params(7, 8, hyper, rng)
        trace = forward(params, S, hyper)
        for E in trace.E_layers[1:]:
            assert np.array_equal(E, trace.E_layers[0])
        assert np.max(np.abs(trace.E_star - trace.E_layers[0])) < 1e-12

    def test_matrix_power_oracle(self, rng):
        S = small_S()
        hyper = Hyperparams(d=3, L=3, alpha=0.0, beta=0.0, activation="identity",
                            layer_weights=[0, 0, 0, 1.0])
        params = init_params(7, 8, hyper, rng)
        trace = forward(params, S, hyper)
        Sd = as_scipy(S).toarray()
        oracle = np.linalg.matrix_power(Sd, 3) @ (Sd @ params.W)
        assert np.max(np.abs(trace.E_star - oracle)) <= 1e-10

    def test_free_mode_uses_w_directly(self, rng):
        S = small_S()
        hyper = Hyperparams(d=3, L=2, embedding_mode="free")
        params = init_params(7, 8, hyper, rng)
        trace = forward(params, S, hyper)
        assert trace.E_layers[0].tobytes() == params.W.tobytes()  # a copy in the layer stack

    def test_linear_in_w_under_identity(self, rng):
        S = small_S()
        hyper = Hyperparams(d=3, L=3, alpha=0.3, beta=0.4, activation="identity")
        params = init_params(7, 8, hyper, rng)
        params.W_layers = [rng.normal(size=(3, 3)) for _ in range(3)]
        scaled = ModelParams(7, 8, 2.5 * params.W, params.W_layers)
        a = forward(params, S, hyper).E_star
        b = forward(scaled, S, hyper).E_star
        assert np.max(np.abs(b - 2.5 * a)) < 1e-12

    def test_transforms_match_layers(self, rng):
        # T(l) is None iff beta = 0, else (1-b) I + b W(l); E(l) = act(M(l) T(l)) bitwise
        S = small_S()
        for beta in (0.0, 0.3):
            hyper = Hyperparams(d=3, L=3, alpha=0.2, beta=beta)
            params = init_params(7, 8, hyper, rng)
            params.W_layers = [rng.normal(size=(3, 3)) for _ in range(3)]
            trace = forward(params, S, hyper)
            for M, T, W_l, E in zip(trace.mixed_layers, trace.transforms, params.W_layers,
                                    trace.E_layers[1:]):
                if beta == 0.0:
                    assert T is None
                    assert np.array_equal(E, np.maximum(M, 0.0))
                else:
                    assert np.array_equal(T, (1 - beta) * np.eye(3) + beta * W_l)
                    assert np.array_equal(E, np.maximum(M @ T, 0.0))

    def test_estar_recombination_exact(self, rng):
        S = small_S()
        hyper = Hyperparams(d=3, L=4)
        params = init_params(7, 8, hyper, rng)
        trace = forward(params, S, hyper)
        want = layer_order_sum(hyper.layer_weights, trace.E_layers)
        assert trace.E_star.tobytes() == want.tobytes()

    def test_shape_validation(self, rng):
        S = small_S()
        hyper = Hyperparams(d=3, L=2)
        params = init_params(7, 8, hyper, rng)
        with pytest.raises(ValueError):
            forward(ModelParams(6, 8, params.W[:-1], params.W_layers), S, hyper)
        with pytest.raises(ValueError):
            forward(ModelParams(7, 8, params.W, params.W_layers[:-1]), S, hyper)


class TestCombine:
    def test_select_first(self, rng):
        S = small_S()
        W = rng.normal(size=(S.shape[0], 2))
        trace = free_forward(S, W, 0.3, L=2, layer_weights=[1.0, 0, 0])
        assert not np.array_equal(trace.E_layers[1], W)
        assert np.array_equal(trace.E_star, W)

    def test_convexity_on_identical_layers(self, rng):
        # a = 1, b = 0 under identity holds every E(l) at E(0)
        S = small_S()
        W = rng.normal(size=(S.shape[0], 2))
        E_star = free_forward(S, W, 1.0, L=2, layer_weights=[0.2, 0.5, 0.3]).E_star
        assert np.max(np.abs(E_star - W)) < 1e-12

    def test_forced_arithmetic(self):
        # E(1) = 3 E(0) on a one-node graph with a self-loop of weight 3
        E_star = free_forward(as_csr([[3.0]]), np.array([[1.0]]), 0.0,
                              layer_weights=[0.5, 0.5]).E_star
        assert np.array_equal(E_star, [[2.0]])

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match=r"layer_weights must be L\+1=1"):
            Hyperparams(L=0, layer_weights=[0.5, 0.5])


class TestPredict:
    def test_unit_basis(self):
        E = np.zeros((3, 4))
        E[0, 1] = 1.0
        E[1, 1] = 1.0  # item 0 lives at row m+0 = 1
        assert np.array_equal(score_all_items(E, 1, 0), [1.0, 0.0])

    def test_orthogonal(self):
        E = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(score_all_items(E, 1, 0), [0.0])

    def test_forced_arithmetic(self):
        E = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(score_all_items(E, 1, 0), [11.0])

    def test_out_of_range(self):
        for u in (-1, 2):
            with pytest.raises(IndexError, match=f"user index {u} out of range"):
                score_all_items(np.zeros((5, 2)), 2, u)

    def test_score_all_items_zero_block(self, rng):
        E = rng.normal(size=(6, 3))
        E[2:] = 0.0
        assert not score_all_items(E, 2, 1).any()

    def test_score_all_d1(self):
        E = np.array([[2.0], [1.0], [3.0], [5.0]])
        assert np.array_equal(score_all_items(E, 1, 0), [2.0, 6.0, 10.0])

    def test_score_all_matches_predict_bitwise(self, rng):
        E = rng.normal(size=(40, 16))
        v = score_all_items(E, 15, 3)
        for i in range(25):
            assert v[i] == predict(E, 15, 3, i)

    def test_ranking_invariance_under_scaling(self, rng):
        E = rng.normal(size=(30, 8))
        before = np.argsort(score_all_items(E, 10, 4))
        after = np.argsort(score_all_items(3.7 * E, 10, 4))
        assert np.array_equal(before, after)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 4))
def test_reduction_matches_lightgcn_reference(seed, L):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 40)), int(rng.integers(2, 40))
    S = laplacian_from_pairs(m, n, random_interactions(rng, m, n, 3))
    hyper = Hyperparams(d=5, L=L, alpha=0.0, beta=0.0, activation="identity",
                        embedding_mode="free")
    params = ModelParams(m, n, rng.normal(size=(m + n, 5)),
                         [np.zeros((5, 5)) for _ in range(L)])
    ours = forward(params, S, hyper).E_star
    reference = lightgcn_forward(params.W, S, L)
    assert np.max(np.abs(ours - reference)) <= 1e-10
