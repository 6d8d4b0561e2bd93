"""Buffer reuse: forward(out=trace), the backward workspace and the fused Adam
step give bitwise the results of fresh arrays, and allocate less."""

import tracemalloc

import numpy as np
import pytest

from dgcf.data import DatasetSplit, laplacian_for, sample_bpr_triples
from dgcf.graph import InteractionMatrix
from dgcf.model import ModelParams, forward, init_params, preset
from dgcf.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, OptimizerState, TrainConfig, \
    backward, bpr_loss, fit, optimizer_step, training_bytes
from helpers import finite_diff_grad, layer_order_sum, random_interactions, rel_err, \
    row_order_spmm_add

from conftest import laplacian_from_pairs

# every preset in both embedding modes (lightgcn and bprmf pin free), the
# endpoint a = 1 (S_mix's values are zeros), and b = 0 under identity (M is E(l))
CASES = {
    "ours-sw": ("ours", {}),
    "ours-free": ("ours", dict(embedding_mode="free")),
    "plain-sw": ("plain", {}),
    "plain-free": ("plain", dict(embedding_mode="free")),
    "lightgcn": ("lightgcn", {}),
    "bprmf": ("bprmf", {}),
    "alpha0": ("ours", dict(alpha=0.0)),
    "alpha1-sw": ("ours", dict(alpha=1.0)),
    "alpha1-free": ("ours", dict(alpha=1.0, embedding_mode="free")),
    "beta0-relu": ("ours", dict(beta=0.0)),
    "beta0-identity-free": ("ours", dict(beta=0.0, activation="identity",
                                         embedding_mode="free")),
    "alpha1-beta0-identity-free": ("ours", dict(alpha=1.0, beta=0.0, activation="identity",
                                                embedding_mode="free")),
}


def hyper_of(case, d=4, L=3):
    tag, fields = CASES[case]
    return preset(tag, d=d, L=L, **fields)


def random_params(m, n, hyper, seed):
    rng = np.random.default_rng(seed)
    params = init_params(m, n, hyper, rng)
    params.W_layers = [rng.normal(0, 0.3, (hyper.d, hyper.d)) for _ in range(hyper.L)]
    return params


def assert_same_trace(got, want):
    assert len(got.E_layers) == len(want.E_layers)
    for a, b in zip(got.E_layers + got.mixed_layers + [got.E_star],
                    want.E_layers + want.mixed_layers + [want.E_star]):
        # bytes also tell 0.0 from -0.0
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    for a, b in zip(got.transforms, want.transforms):
        assert (a is None) == (b is None)
        assert a is None or a.tobytes() == b.tobytes()


def assert_follows_definition(trace, params, S, hyper):
    """Every array of the trace recomputed from the definitions, layer by
    layer from the trace's own E(l-1), with fresh arrays throughout and in
    forward's arithmetic order: M(l) = a E(0) + S_mix E(l-1) with
    S_mix = (1-a) S, accumulated row by row onto a E(0), and E* as the
    weighted layers added in layer order."""
    a, b, w = hyper.alpha, hyper.beta, hyper.layer_weights
    E0 = S @ params.W if hyper.embedding_mode == "sw" else params.W.copy()
    S_mix = (1.0 - a) * S
    want = [E0]
    for l, W_l in enumerate(params.W_layers, start=1):
        E_prev = trace.E_layers[l - 1]
        M = S @ E_prev if a == 0.0 else row_order_spmm_add(S_mix, E_prev, a * E0)
        Z = M if b == 0.0 else M @ ((1.0 - b) * np.eye(hyper.d) + b * W_l)
        assert trace.mixed_layers[l - 1].tobytes() == M.tobytes()
        want.append(np.maximum(Z, 0.0) if hyper.activation == "relu" else Z)
    for got, expected in zip(trace.E_layers + [trace.E_star], want + [layer_order_sum(w, want)]):
        assert got.tobytes() == expected.tobytes()


def assert_aliasing(trace, params, hyper):
    """E(0)..E(L) are the rows of one stack, E(0) never is W, and M(l) is E(l)
    under identity with b = 0 and has its own buffer otherwise, a = 1 included."""
    stack = trace.E_layers[0].base
    assert stack is not None and stack.shape == (hyper.L + 1,) + params.W.shape
    assert all(E.base is stack for E in trace.E_layers)
    assert not np.shares_memory(trace.E_layers[0], params.W)
    for l, M in enumerate(trace.mixed_layers, start=1):
        if hyper.beta == 0.0 and hyper.activation == "identity":
            assert M is trace.E_layers[l]
        else:
            assert not np.shares_memory(M, stack)


@pytest.mark.parametrize("case", CASES)
def test_forward_into_previous_trace_is_bitwise_fresh(case):
    S = laplacian_from_pairs(7, 8, random_interactions(np.random.default_rng(1), 7, 8, 3))
    hyper = hyper_of(case)
    prev = forward(random_params(7, 8, hyper, 2), S, hyper)
    params = random_params(7, 8, hyper, 3)
    W = params.W.copy()
    got = forward(params, S, hyper, out=prev)
    assert got is prev
    assert np.array_equal(params.W, W)
    assert_same_trace(got, forward(params, S, hyper))
    assert_follows_definition(got, params, S, hyper)
    assert_aliasing(got, params, hyper)


@pytest.mark.parametrize("case", CASES)
def test_forward_into_trace_of_other_model(case):
    # the workspace holds buffers by role, so a trace whose M(l) are its E(l)
    # (b = 0, identity) can take any model's pass, and back
    S = laplacian_from_pairs(7, 8, random_interactions(np.random.default_rng(1), 7, 8, 3))
    aliasing = hyper_of("alpha1-beta0-identity-free")
    hyper = hyper_of(case)
    other = random_params(7, 8, aliasing, 4)
    params = random_params(7, 8, hyper, 5)
    W, other_W = params.W.copy(), other.W.copy()
    trace = forward(params, S, hyper, out=forward(other, S, aliasing))
    assert_same_trace(trace, forward(params, S, hyper))
    assert_follows_definition(trace, params, S, hyper)
    assert_same_trace(forward(other, S, aliasing, out=trace), forward(other, S, aliasing))
    assert np.array_equal(params.W, W) and np.array_equal(other.W, other_W)


@pytest.mark.parametrize("case", CASES)
def test_fit_steps_equal_hand_run_fresh_steps(case, ring_split):
    hyper = hyper_of(case)
    config = TrainConfig(lr=0.01, reg_lambda=1e-3, epochs=1, batches_per_epoch=3,
                         batch_size=16, seed=4, eval_every=0)
    fitted, log = fit(ring_split, hyper, config)

    S = laplacian_for(ring_split)
    rng = np.random.default_rng(config.seed)
    params = init_params(ring_split.m, ring_split.n, hyper, rng)
    state = OptimizerState()
    total = 0.0
    for _ in range(3):
        batch = sample_bpr_triples(ring_split, config.batch_size, rng)
        trace = forward(params, S, hyper)
        total += bpr_loss(trace, batch, config.reg_lambda, params)
        grads = backward(trace, batch, params, hyper, config.reg_lambda)
        optimizer_step([params.W] + params.W_layers, [grads.W] + grads.W_layers, config.lr,
                       state)
    assert log[0]["loss"] == total / 3
    for a, b in zip([fitted.W] + fitted.W_layers, [params.W] + params.W_layers):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", CASES)
def test_backward_matches_finite_differences_at_every_case(case):
    # the endpoints take their own branches in backward: a = 0 multiplies by S
    # itself, a = 1 skips the product, and b = 0 swaps the D and M_dot buffers
    S = laplacian_from_pairs(4, 5, random_interactions(np.random.default_rng(12), 4, 5, 3))
    hyper = hyper_of(case, d=3, L=3)
    params = random_params(4, 5, hyper, 13)
    batch = np.array([[0, 1, 2], [1, 0, 4], [3, 2, 0], [2, 4, 3], [0, 3, 1]])
    got = backward(forward(params, S, hyper), batch, params, hyper, 0.01)
    want = finite_diff_grad(params, lambda p: bpr_loss(forward(p, S, hyper), batch, 0.01, p),
                            step=1e-6)
    for g, w in zip([got.W] + got.W_layers, [want.W] + want.W_layers):
        assert rel_err(g, w) <= 1e-4


def test_backward_leaves_earlier_gradients_alone(ring_split):
    # the workspace is scratch: returned gradients are fresh arrays
    hyper = hyper_of("ours-free")
    S = laplacian_for(ring_split)
    params = random_params(ring_split.m, ring_split.n, hyper, 6)
    trace = forward(params, S, hyper)
    rng = np.random.default_rng(7)
    first = backward(trace, sample_bpr_triples(ring_split, 16, rng), params, hyper, 0.01)
    kept = ModelParams(first.m, first.n, first.W.copy(), [g.copy() for g in first.W_layers])
    backward(trace, sample_bpr_triples(ring_split, 16, rng), params, hyper, 0.01)
    for a, b in zip([first.W] + first.W_layers, [kept.W] + kept.W_layers):
        assert np.array_equal(a, b)


def test_fused_adam_matches_textbook_expression():
    rng = np.random.default_rng(8)
    shapes = [(5, 3), (3, 3)]
    fused = [rng.normal(size=s) for s in shapes]
    plain = [p.copy() for p in fused]
    mom = [np.zeros(s) for s in shapes]
    vel = [np.zeros(s) for s in shapes]
    state = OptimizerState()
    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        optimizer_step(fused, grads, 0.05, state)
        c1, c2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
        for p, g, mo, ve in zip(plain, grads, mom, vel):
            mo *= ADAM_BETA1
            mo += (1.0 - ADAM_BETA1) * g
            ve *= ADAM_BETA2
            ve += (1.0 - ADAM_BETA2) * (g * g)
            p -= 0.05 * (mo / c1) / (np.sqrt(ve / c2) + ADAM_EPS)
        for a, b in zip(fused, plain):
            assert a.tobytes() == b.tobytes()


def test_reused_forward_allocates_a_fraction_of_fresh():
    """tracemalloc peak of an L=8 forward: into a previous trace vs fresh. It
    counts bytes, so the bound holds on any machine."""
    m, n = 200, 300
    S = laplacian_from_pairs(m, n, random_interactions(np.random.default_rng(9), m, n, 6))
    hyper = preset("ours", d=64, L=8)
    params = random_params(m, n, hyper, 10)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = forward(params, S, hyper)
        fresh = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        forward(params, S, hyper, out=trace)
        reused = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    buffer = (m + n) * hyper.d * 8
    assert fresh > 10 * buffer
    assert reused < 0.25 * fresh, (reused / buffer, fresh / buffer)


def test_training_step_allocates_only_the_returned_gradient():
    """tracemalloc peak of one L=8 step (forward into the trace, loss,
    backward, Adam) after a warm-up step: below two (N, d) float64 arrays, so
    nothing of that size but the returned grad_W. It counts bytes, so the
    bound holds on any machine. N is large enough that the (d, d) arrays
    (each T(l) and the returned W(l) gradients) stay small beside (N, d)."""
    m, n = 600, 900
    S = laplacian_from_pairs(m, n, random_interactions(np.random.default_rng(9), m, n, 6))
    hyper = preset("ours", d=64, L=8)
    params = random_params(m, n, hyper, 10)
    batch = np.stack([np.arange(64) % m, np.arange(64) % n, (np.arange(64) + 7) % n], axis=1)
    state = OptimizerState()
    trace = None

    def step():
        nonlocal trace
        trace = forward(params, S, hyper, out=trace)
        bpr_loss(trace, batch, 1e-4, params)
        grads = backward(trace, batch, params, hyper, 1e-4)
        optimizer_step([params.W] + params.W_layers, [grads.W] + grads.W_layers, 1e-3, state)
        return grads

    step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grads = step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    buffer = (m + n) * hyper.d * 8
    assert grads.W.nbytes == buffer
    assert peak < 2 * buffer, peak / buffer


def test_training_bytes_bound_a_warm_step():
    """A warm L = 3 step of the model that holds every buffer (sw, relu,
    0 < a, b < 1): the tracemalloc peak of the step plus what it keeps between
    steps (workspace, parameters, Adam's state) stays under train.training_bytes."""
    m, n, B = 600, 900, 1024
    R = InteractionMatrix.from_pairs(m, n, random_interactions(np.random.default_rng(9), m, n, 6))
    split = DatasetSplit(R, None, {}, {}, 0)
    S = laplacian_for(split)
    hyper = preset("ours", d=64, L=3)
    rng = np.random.default_rng(0)
    params = init_params(m, n, hyper, rng)
    state = OptimizerState()
    trace = None

    def step():
        nonlocal trace
        batch = sample_bpr_triples(split, B, rng)
        trace = forward(params, S, hyper, out=trace)
        bpr_loss(trace, batch, 1e-4, params)
        grads = backward(trace, batch, params, hyper, 1e-4)
        optimizer_step([params.W] + params.W_layers, [grads.W] + grads.W_layers, 1e-3, state)

    step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = [*trace.workspace._buffers.values(), params.W, *params.W_layers, *state.m, *state.v,
            *state.scratch._buffers.values()]
    used = peak + sum(x.nbytes for x in kept)
    bound = training_bytes(m + n, hyper.d, hyper.L, B)
    assert used < bound, (used, bound)
    assert used > 0.75 * bound, (used, bound)  # and it counts what is there


def test_bprmf_step_allocates_less_than_one_batch_of_rows():
    """tracemalloc peak of one bprmf step at B = 8192 (sampling, forward into
    the trace, loss, backward, Adam) after a warm-up step: below one (B, d)
    float64 array, and no workspace buffer has B rows. The graph is small
    (N = 500), so the (N, d) buffers and the returned gradient fit too."""
    m, n, B = 200, 300, 8192
    R = InteractionMatrix.from_pairs(m, n, random_interactions(np.random.default_rng(9), m, n, 6))
    split = DatasetSplit(R, None, {}, {}, 0)
    S = laplacian_for(split)
    hyper = preset("bprmf", d=64)
    rng = np.random.default_rng(0)
    params = init_params(m, n, hyper, rng)
    state = OptimizerState()
    trace = None

    def step():
        nonlocal trace
        batch = sample_bpr_triples(split, B, rng)
        trace = forward(params, S, hyper, out=trace)
        bpr_loss(trace, batch, 1e-4, params)
        grads = backward(trace, batch, params, hyper, 1e-4)
        optimizer_step([params.W], [grads.W], 1e-3, state)

    step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows = B * hyper.d * 8
    assert peak < rows, peak / rows
    assert max(buf.shape[0] for buf in trace.workspace._buffers.values()) < B
    # L = 0, identity, a = 0, b = 0: no layer, mask, residual path or transform
    assert not {"mask", "E0_bar", "partials", ("M_dot", 0), ("M_dot", 1)} \
        & trace.workspace._buffers.keys()


@pytest.mark.parametrize("case", CASES)
def test_step_takes_only_the_buffers_it_reads(case, ring_split):
    hyper = hyper_of(case)
    S = laplacian_for(ring_split)
    params = random_params(ring_split.m, ring_split.n, hyper, 6)
    trace = forward(params, S, hyper)
    backward(trace, sample_bpr_triples(ring_split, 16, np.random.default_rng(7)), params, hyper,
             0.01)
    L, a, b = hyper.L, hyper.alpha, hyper.beta
    taken = trace.workspace._buffers.keys()
    assert ("mask" in taken) == (hyper.activation == "relu" and L > 0)
    assert ("E0_bar" in taken) == (a != 0.0 and L > 0)
    assert ("partials" in taken) == (b != 0.0 and L > 0)
    assert [("M_dot", k) in taken for k in range(3)] == [L > 0, L > 1, False]
