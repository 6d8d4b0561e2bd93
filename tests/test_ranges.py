"""Row ranges: the training step gives bitwise the same numbers whether it
runs as one range or several, and whatever OpenBLAS's thread count is; no
name that perfbench traces runs on a range's worker thread."""

import ast
import functools
import importlib
import itertools
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from dgcf import evaluate, graph, model, train
from dgcf.data import DatasetSplit, laplacian_for, sample_bpr_triples
from dgcf.errors import DivergenceError
from dgcf.graph import BLOCK_ROWS, InteractionMatrix, even_partition, row_partition
from dgcf.model import forward, init_params, preset
from dgcf.train import ADAM_CHUNK, MARGIN_CHUNK, OptimizerState, TrainConfig, \
    backward, bpr_loss, fit, optimizer_step
from helpers import random_interactions, whole_array_adam

ROOT = Path(__file__).resolve().parents[1]


def small_split(m=150, n=170, seed=0):
    """N = 320 rows, five blocks: enough for three ranges of whole blocks."""
    pairs = random_interactions(np.random.default_rng(seed), m, n, 5)
    return DatasetSplit(InteractionMatrix.from_pairs(m, n, pairs), None, {}, {}, 0)


def traced_targets() -> list[tuple[str, str, str]]:
    """perfbench/spans.py's TARGETS, (module, attribute, span name), read
    without importing perfbench."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS")


def test_no_traced_name_runs_on_a_range_thread(ranges, monkeypatch):
    # perfbench's Tracer keeps one span stack per process, so a traced name
    # called from a worker range would break the nesting of every span
    calls, counts = [], []

    def on_main_thread(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)
        return wrapper

    for module, attr, name in traced_targets():
        try:
            target = importlib.import_module(module)
        except ImportError:  # a module the package no longer has
            continue
        if hasattr(target, attr):
            monkeypatch.setattr(target, attr, on_main_thread(name, getattr(target, attr)))
    for caller in (model, train, evaluate):
        def counted(bounds, body, caller=caller):
            counts.append((caller.__name__, len(bounds) - 1))
            return graph.run_ranges(bounds, body)
        monkeypatch.setattr(caller, "run_ranges", counted)
    ranges(2)
    monkeypatch.setattr(evaluate, "_BLOCK_SCORES", 40 * 170)  # blocks of 40 users
    rng = np.random.default_rng(2)
    train_split = small_split()
    # one test item per user, outside its train items
    test = [[int(rng.choice(np.setdiff1d(np.arange(170), train_split.train.user_items(u))))]
            for u in range(150)]
    split = DatasetSplit(train_split.train, test, {}, {}, 0)
    hyper = preset("ours", d=8, L=2)
    params, log = train.fit(split, hyper, TrainConfig(epochs=2, batches_per_epoch=2,
                                                      batch_size=1024, eval_every=1))
    assert "recall@20" in log[-1]
    e_star = forward(params, laplacian_for(split), hyper).E_star
    e_star[3] = np.nan  # a user ranked by the traced reference pair
    evaluate.evaluate_model(e_star, split, k=20)
    assert {name for name, _ in calls} >= {"train.fit", "model.forward", "train.backward",
                                           "evaluate.evaluate_model", "evaluate.rank_items",
                                           "model.score_all_items"}
    assert all(main for _, main in calls)
    assert {caller for caller, count in counts if count == 2} == \
        {"dgcf.model", "dgcf.train", "dgcf.evaluate"}


def test_partition_cuts_whole_blocks_at_balanced_work(ranges):
    S = laplacian_for(small_split())
    assert row_partition(S) == (0, S.shape[0])  # 320 rows: one range
    N = S.shape[0]
    work = S.indptr + graph.ROW_WORK * np.arange(N + 1)  # above each row
    for k in (2, 3):
        ranges(k)
        bounds = row_partition(S)
        assert len(bounds) == k + 1 and bounds[0] == 0 and bounds[-1] == N
        for r, cut in enumerate(bounds[1:-1], start=1):
            # the block boundary nearest to r k-ths of the work
            gap = np.abs(work[:N:BLOCK_ROWS] - r * work[N] / k)
            assert cut % BLOCK_ROWS == 0 and gap[cut // BLOCK_ROWS] == gap.min()


def refuse_threads(monkeypatch):
    def refuse(workers):
        raise AssertionError("a one-range call reached the pool")
    monkeypatch.setattr(graph._POOL, "executor", refuse)


def test_small_graph_starts_no_thread(monkeypatch):
    # 700 rows and 1,024 triples: every stage of a step is one range
    refuse_threads(monkeypatch)
    split = small_split(m=300, n=400, seed=1)
    fit(split, preset("ours", d=8, L=2),
        TrainConfig(epochs=1, batches_per_epoch=2, batch_size=1024, eval_every=0))
    theta = [np.zeros((700, 8)), np.zeros((8, 8))]
    optimizer_step(theta, [np.ones((700, 8)), np.ones((8, 8))], 0.1, OptimizerState())


def test_model_without_products_starts_no_thread(monkeypatch):
    # bprmf's step is rows of Adam, C E* and the margins alone; it is split
    # like any model's rows, so on a small graph it too stays one range
    refuse_threads(monkeypatch)
    split = small_split(m=300, n=400, seed=1)
    fit(split, preset("bprmf", d=8),
        TrainConfig(epochs=1, batches_per_epoch=2, batch_size=1024, eval_every=0))


MODES = list(itertools.product((0.0, 0.1, 1.0), (0.0, 0.1), ("relu", "identity"), ("sw", "free"),
                               (0, 1, 3)))


@pytest.mark.parametrize("a,b,act,mode,L", MODES)
def test_step_and_fit_are_bitwise_equal_for_any_range_count(a, b, act, mode, L, ranges):
    split = small_split()
    S = laplacian_for(split)
    hyper = preset("ours", d=8, L=L, alpha=a, beta=b, activation=act, embedding_mode=mode)
    rng = np.random.default_rng(3)
    params = init_params(split.m, split.n, hyper, rng)
    params.W_layers = [rng.normal(0, 0.3, (8, 8)) for _ in range(L)]
    # above 2 x MARGIN_CHUNK triples, so the margins have one range per core too
    batch = sample_bpr_triples(split, 1600, rng)
    config = TrainConfig(lr=0.01, epochs=1, batches_per_epoch=2, batch_size=1600, eval_every=0)
    runs = []
    for k in (1, 2, 3):
        ranges(k)
        assert len(row_partition(S)) == len(even_partition(len(batch), MARGIN_CHUNK)) == k + 1
        trace = forward(params, S, hyper)
        _, C = bpr_loss(trace, batch, 1e-3, params)
        grads = backward(trace, C, params, hyper, 1e-3)
        fitted, _ = fit(split, hyper, config)
        arrays = (trace.E_layers + trace.mixed_layers + [trace.E_star, grads.W] + grads.W_layers
                  + [fitted.W] + fitted.W_layers)
        runs.append([x.tobytes() for x in arrays])
    assert runs[0] == runs[1] == runs[2]


def test_transform_gradient_sums_block_products_in_block_order(ranges):
    # L = 1: dloss/dZ(1) = (w_1 G) * (E(1) > 0), and grad W(1) is b times the
    # sum of M(1)[blk]^T dloss/dZ(1)[blk] over 64-row blocks, first to last.
    # At d = 2 the 4 columns split over 3 ranges, and 10 blocks are enough
    # for a one-column slice to be summed pairwise instead; without the L2
    # term, which would round such a difference away, and at a seed whose
    # sums differ in those two orders
    ranges(3)
    # 330 rows: five whole blocks and 10 rows; 630 rows: nine and 54
    for d, m, n, reg, seed in ((8, 150, 180, 1e-3, 7), (2, 300, 330, 0.0, 4)):
        split = small_split(m=m, n=n)
        S = laplacian_for(split)
        hyper = preset("ours", d=d, L=1, beta=0.3)
        rng = np.random.default_rng(seed)
        params = init_params(split.m, split.n, hyper, rng)
        params.W_layers = [rng.normal(0, 0.3, (d, d))]
        batch = sample_bpr_triples(split, 96, rng)
        trace = forward(params, S, hyper)
        _, C = bpr_loss(trace, batch, reg, params)
        G = C @ trace.E_star
        dZ = hyper.layer_weights[1] * G * (trace.E_layers[1] > 0)
        M = trace.mixed_layers[0]
        total = M[:BLOCK_ROWS].T @ dZ[:BLOCK_ROWS]
        for lo in range(BLOCK_ROWS, S.shape[0], BLOCK_ROWS):
            total = total + M[lo:lo + BLOCK_ROWS].T @ dZ[lo:lo + BLOCK_ROWS]
        want = 0.3 * total + 2.0 * reg * params.W_layers[0]
        got = backward(trace, C, params, hyper, reg).W_layers[0]
        assert got.tobytes() == want.tobytes()


def test_fit_under_fast_thread_switching_is_bitwise_one_range(ranges):
    # four ranges on any core count, the GIL handed over every microsecond:
    # each fit starts from a fresh trace, so the ranges take their margin and
    # Adam buffers from one Workspace at once, and add into disjoint columns
    # of the same grad W(l)
    split = small_split()
    hyper = preset("ours", d=8, L=3)
    batch_size = 2100  # four ranges of triples, cut at 512, 1024 and 1536
    config = TrainConfig(lr=0.01, epochs=1, batches_per_epoch=3, batch_size=batch_size,
                         eval_every=0)
    runs = []
    interval = sys.getswitchinterval()
    for k in (1, 4, 4, 4):
        ranges(k)
        assert len(even_partition(batch_size, MARGIN_CHUNK)) == k + 1
        sys.setswitchinterval(1e-6)
        try:
            fitted, log = fit(split, hyper, config)
        finally:
            sys.setswitchinterval(interval)
        runs.append([log[0]["loss"]] + [x.tobytes() for x in [fitted.W] + fitted.W_layers])
    assert runs[0] == runs[1] == runs[2] == runs[3]


def test_divergence_in_a_worker_range_reaches_the_caller(ranges):
    ranges(2)
    split = small_split()
    S = laplacian_for(split)
    lo, hi = row_partition(S)[1:3]
    hyper = preset("ours", d=8, L=2, alpha=1.0, embedding_mode="free")
    params = init_params(split.m, split.n, hyper, np.random.default_rng(4))
    good = params.W.copy()
    # a user of range 1, whose items are in range 1 too: no row of range 0
    # reads it, so only range 1 sees the inf (in M(1) and Z = M(1) T)
    assert lo < split.m and not S[:lo].toarray()[:, lo].any()
    params.W[lo, 3] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as err:
        forward(params, S, hyper)
    assert str(err.value) == "non-finite values in propagation layer output"
    params.W = good  # the pool is free again
    assert np.isfinite(forward(params, S, hyper).E_star).all()


def test_worker_ranges_keep_the_callers_error_state(ranges):
    # inf * 0 in E* = 0 E(0), in range 1 only: under np.errstate(invalid="raise")
    # it raises as it would on the calling thread
    split = small_split()
    S = laplacian_for(split)
    hyper = preset("ours", d=8, L=0, layer_weights=[0.0], embedding_mode="free")
    params = init_params(split.m, split.n, hyper, np.random.default_rng(4))
    params.W[-1, 3] = np.inf
    for k in (1, 2):
        ranges(k)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            forward(params, S, hyper)


@pytest.mark.parametrize("act", ["relu", "identity"])
def test_every_non_finite_value_at_a_range_edge_is_caught(act, ranges):
    # a = 1, b = 0: Z = E(0) = W on rows without neighbours, so each value
    # reaches its own range's check as it is, and no other row reads it;
    # relu would turn -inf into 0 after the check
    ranges(3)
    m, n = 150, 170
    bounds = row_partition(laplacian_for(small_split(m, n)))
    edges = {r for lo, hi in zip(bounds[:-1], bounds[1:]) for r in (lo, hi - 1)}
    pairs = [(u, i) for u, i in random_interactions(np.random.default_rng(0), m, n, 5)
             if u not in edges and m + i not in edges]  # small_split's pairs
    split = DatasetSplit(InteractionMatrix.from_pairs(m, n, pairs), None, {}, {}, 0)
    S = laplacian_for(split)
    assert row_partition(S) == bounds
    hyper = preset("ours", d=8, L=1, alpha=1.0, beta=0.0, activation=act, embedding_mode="free")
    params = init_params(split.m, split.n, hyper, np.random.default_rng(5))
    good = params.W.copy()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for row, value in itertools.product((lo, hi - 1), (-np.inf, np.inf, np.nan)):
            params.W = good.copy()
            params.W[row, 7 if row == lo else 0] = value
            with pytest.raises(DivergenceError):
                forward(params, S, hyper)


def test_finite_layer_whose_sum_overflows_passes(ranges):
    ranges(3)
    split = small_split()
    S = laplacian_for(split)
    hyper = preset("ours", d=8, L=1, alpha=1.0, beta=0.0, activation="identity",
                   embedding_mode="free")
    params = init_params(split.m, split.n, hyper, np.random.default_rng(6))
    params.W[:] = 1e308
    trace = forward(params, S, hyper)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(trace.E_layers[1]))
    assert np.array_equal(trace.E_layers[1], params.W)


def test_sync_returns_once_every_range_has_reached_it(ranges):
    ranges(3)
    bounds = row_partition(laplacian_for(small_split()))
    done = np.zeros((3, 4), dtype=int)
    seen = []

    def body(lo, hi, sync):
        for j in range(4):
            done[bounds.index(lo), j] = 1
            sync()
            seen.append((j, done[:, j].sum()))

    graph.run_ranges(bounds, body)
    assert sorted(seen) == [(j, 3) for j in range(4) for _ in range(3)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_adam_is_bitwise_the_whole_array_step_for_any_range_count(k, ranges):
    # 1,000 rows: ranges cut at multiples of 64, and the last chunk of each
    # range is shorter than ADAM_CHUNK; a 1-d array and a (d, d) one ride along
    ranges(k)
    assert len(even_partition(1000)) == k + 1 and 1000 % ADAM_CHUNK
    rng = np.random.default_rng(8)
    shapes = [(1000, 8), (8, 8), (300,)]
    ranged = [rng.normal(size=s) for s in shapes]
    whole = [p.copy() for p in ranged]
    state, oracle = OptimizerState(), {}
    for _ in range(4):
        grads = [rng.normal(size=s) for s in shapes]
        optimizer_step(ranged, grads, 0.05, state)
        whole_array_adam(whole, grads, 0.05, oracle)
        assert [p.tobytes() for p in ranged + state.m + state.v] == \
            [p.tobytes() for p in whole + oracle["m"] + oracle["v"]]


# OPENBLAS_NUM_THREADS is read when numpy loads, so each count needs a process
# of its own. N = 2,600 rows gives two ranges on a host with two cores or more.
STEP_SCRIPT = """
import hashlib, sys
import numpy as np
from dgcf.data import DatasetSplit, laplacian_for, sample_bpr_triples
from dgcf.graph import InteractionMatrix
from dgcf.model import forward, init_params, preset
from dgcf.modelfile import save_model
from dgcf.train import TrainConfig, backward, bpr_loss, fit

rng = np.random.default_rng(0)
m, n = 1000, 1600
pairs = np.stack([rng.integers(0, m, 16000), rng.integers(0, n, 16000)], axis=1)
split = DatasetSplit(InteractionMatrix.from_pairs(m, n, pairs), None, {}, {}, 0)
hyper = preset("ours", d=64, L=3)
params = init_params(m, n, hyper, rng)
params.W_layers = [rng.normal(0, 0.1, (64, 64)) for _ in range(3)]
batch = sample_bpr_triples(split, 1024, rng)
trace = forward(params, laplacian_for(split), hyper)
_, C = bpr_loss(trace, batch, 1e-4, params)
grads = backward(trace, C, params, hyper, 1e-4)
fitted, _ = fit(split, hyper, TrainConfig(epochs=1, batches_per_epoch=3, eval_every=0))
save_model(sys.argv[1], "ours", fitted, hyper)
print(hashlib.sha256(b"".join(g.tobytes() for g in [grads.W] + grads.W_layers)).hexdigest())
"""


def test_step_and_model_file_do_not_depend_on_blas_threads(tmp_path):
    results = []
    for threads in ("1", "2"):
        src = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        path = tmp_path / f"model-{threads}.dgcf"
        proc = subprocess.run([sys.executable, "-c", STEP_SCRIPT, str(path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        results.append((proc.stdout, path.read_bytes()))
    assert results[0] == results[1]
