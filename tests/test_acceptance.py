"""Acceptance gate: nine numbered end-to-end checks with pinned tolerances.

Each test prints one PASS/FAIL line (visible even under output capture) and
asserts the same condition, so the suite summary and the printed report agree.
Checks 6 and 7 train the runs of dgcf.experiments on the acceptance split,
made as a user makes it with scripts/make_synthetic.py and `dgcf preprocess`.
They take a few minutes and carry the `slow` marker, so `pytest -m "not slow"`
skips them. Everything else is seconds.
"""

import hashlib
import time

import numpy as np
import pytest

from dgcf import cli
from dgcf.data import DatasetSplit, RawInteractions, k_core_filter, split_train_test
from dgcf.evaluate import evaluate_model, oversmoothing_report
from dgcf.experiments import CHECK_6, CHECK_7, train_and_score
from dgcf.graph import InteractionMatrix
from dgcf.model import Hyperparams, forward, init_params
from dgcf.synthetic import bipartite_ring
from dgcf.train import backward, bpr_loss

from conftest import laplacian_from_pairs
from helpers import brute_force_k_core, finite_diff_grad, lightgcn_forward, \
    naive_evaluate, random_interactions, rel_err

DIM = 64


def report(check: int, passed: bool, detail: str, capfd) -> None:
    line = f"ACCEPTANCE {check}: {'PASS' if passed else 'FAIL'} - {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert passed, line


def test_1_gradients_match_finite_differences(capfd):
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(5):
        for m, n, d, L in ((3, 4, 2, 2), (5, 5, 3, 3)):
            for activation in ("relu", "identity"):
                for mode in ("sw", "free"):
                    rng = np.random.default_rng(seed)
                    S = laplacian_from_pairs(m, n, random_interactions(rng, m, n, 3))
                    hyper = Hyperparams(d=d, L=L, alpha=0.3, beta=0.4,
                                        activation=activation, embedding_mode=mode)
                    reg = 0.01
                    params = init_params(m, n, hyper, rng)
                    params.W_layers = [rng.normal(0, 0.3, (d, d)) for _ in range(L)]
                    B = 6
                    batch = np.stack([rng.integers(0, m, B), rng.integers(0, n, B),
                                      rng.integers(0, n, B)], axis=1)
                    got = backward(forward(params, S, hyper), batch, params, hyper, reg)
                    want = finite_diff_grad(
                        params, lambda p: bpr_loss(forward(p, S, hyper), batch, reg, p),
                        step=1e-6)
                    worst = max(worst, rel_err(got.W, want.W))
                    for g, w in zip(got.W_layers, want.W_layers):
                        worst = max(worst, rel_err(g, w))
    wall = time.monotonic() - t0
    ok = worst <= 1e-4 and wall < 10.0
    report(1, ok, f"max rel err {worst:.2e} (tol 1e-4) over 40 instances, "
                  f"{wall:.1f}s (budget 10s)", capfd)


def test_2_reduction_matches_simpler_models(capfd):
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    worst_lg = 0.0
    worst_dense = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 50))
        n = int(rng.integers(2, 50))
        d = int(rng.integers(2, 9))
        L = int(rng.integers(1, 5))
        S = laplacian_from_pairs(m, n, random_interactions(rng, m, n, 3))
        base = Hyperparams(d=d, L=L, alpha=0.0, beta=0.0, activation="identity",
                           embedding_mode="free")
        params = init_params(m, n, base, rng)

        # uniform layer combination == mean-pooled linear propagation
        diff = forward(params, S, base).E_star - lightgcn_forward(params.W, S, L)
        worst_lg = max(worst_lg, float(np.max(np.abs(diff))))

        # last-layer readout == dense matrix-power oracle
        last_only = np.zeros(L + 1)
        last_only[L] = 1.0
        deep = Hyperparams(d=d, L=L, alpha=0.0, beta=0.0, activation="identity",
                           embedding_mode="free", layer_weights=last_only)
        E = params.W.copy()
        Sd = S.toarray()
        for _ in range(L):
            E = Sd @ E
        diff = forward(params, S, deep).E_star - E
        worst_dense = max(worst_dense, float(np.max(np.abs(diff))))
    wall = time.monotonic() - t0
    ok = worst_lg <= 1e-10 and worst_dense <= 1e-10 and wall < 5.0
    report(2, ok, f"mean-pool gap {worst_lg:.2e}, dense-power gap "
                  f"{worst_dense:.2e} (tol 1e-10) on 20 graphs, {wall:.1f}s "
                  f"(budget 5s)", capfd)


def test_3_full_residual_freezes_all_layers(capfd):
    exact = True
    for mode in ("sw", "free"):
        rng = np.random.default_rng(3)
        S = laplacian_from_pairs(6, 7, random_interactions(rng, 6, 7, 3))
        hyper = Hyperparams(d=4, L=8, alpha=1.0, beta=0.0, activation="identity",
                            embedding_mode=mode)
        trace = forward(init_params(6, 7, hyper, rng), S, hyper)
        for l in range(1, 9):
            exact = exact and np.array_equal(trace.E_layers[l], trace.E_layers[0])
    report(3, exact, "alpha=1, beta=0, identity: E(l) == E(0) bit-exact for "
                     "l = 1..8, both embedding modes", capfd)


def test_4_residuals_resist_collapse(capfd):
    t0 = time.monotonic()
    wins = 0
    margins = []
    for seed in range(10):
        raw = bipartite_ring(200, 200, 18, seed=seed)  # 20 interactions per user
        split = split_train_test(raw, 0.2, seed=seed)
        rows = oversmoothing_report(split, [("plain", 8), ("ours", 8)],
                                    seed=seed, d=DIM)
        at8 = {r.model: r.user_sim for r in rows if r.layer == 8}
        margins.append(at8["plain"] - at8["ours"])
        if at8["plain"] > at8["ours"]:
            wins += 1
    wall = time.monotonic() - t0
    ok = wins >= 9 and wall < 60.0
    report(4, ok, f"plain L8 user smoothness exceeds full model on {wins}/10 "
                  f"seeds (need 9), min margin {min(margins):.3f}, {wall:.1f}s "
                  f"(budget 60s)", capfd)


def test_5_metrics_match_naive_reimplementation(capfd):
    rng = np.random.default_rng(17)
    checked = 0
    exact = True
    for _ in range(100):
        m = int(rng.integers(2, 31))
        n = int(rng.integers(8, 31))
        pairs = [(f"u{u}", f"i{i}")
                 for u, i in random_interactions(rng, m, n, int(rng.integers(4, 7)))]
        split = split_train_test(RawInteractions(pairs), 0.25, seed=int(rng.integers(100)))
        # low-resolution embeddings force score ties, exercising tie-breaking
        e_star = np.round(rng.normal(size=(split.m + split.n, 6)), 1)
        k = int(rng.integers(1, 26))
        want_r, want_n, want_users = naive_evaluate(e_star, split, k)
        if want_users == 0:
            continue
        got = evaluate_model(e_star, split, k=k)
        exact = exact and got.recall_at_k == want_r and got.ndcg_at_k == want_n \
            and got.users_evaluated == want_users
        checked += 1
    # one user, train item 0 excluded, test item 2 ranked second of [1, 2, 3]:
    # NDCG = 1/log2(3)
    one_user = DatasetSplit(train=InteractionMatrix.from_pairs(1, 4, [(0, 0)]), test=[[2]],
                            user_map={}, item_map={}, seed=0)
    pinned = evaluate_model(np.array([[1.0], [9.0], [3.0], [2.0], [1.0]]), one_user,
                            k=3).ndcg_at_k
    pin_ok = abs(pinned - 0.630930) <= 1e-6
    ok = exact and pin_ok and checked >= 90
    report(5, ok, f"recall/NDCG bitwise-equal to naive full-sort on {checked} "
                  f"fixtures; rank-2 NDCG {pinned:.6f} (want 0.630930 +/- 1e-6)",
           capfd)


@pytest.mark.slow
def test_6_propagation_beats_factorization(acceptance_split, capfd):
    runs = [train_and_score(acceptance_split, name) for name in CHECK_6]
    wall = sum(r.wall_s for r in runs)
    bpr, lg, ours = (r.recall for r in runs)
    ok = ours >= 1.1 * bpr and ours >= 0.95 * lg and wall < 1800.0
    report(6, ok, f"recall@20 ours {ours:.4f} vs bprmf {bpr:.4f} "
                  f"(need >= {1.1 * bpr:.4f}) and lightgcn {lg:.4f} "
                  f"(need >= {0.95 * lg:.4f}); {wall:.0f}s (budget 1800s)", capfd)


@pytest.mark.slow
def test_7_depth_helps_ours_hurts_plain(acceptance_split, capfd):
    runs = [train_and_score(acceptance_split, name) for name in CHECK_7]
    wall = sum(r.wall_s for r in runs)
    ours2, ours8, plain2, plain8 = (r.recall for r in runs)
    ok = ours8 >= 0.9 * ours2 and plain8 < plain2 and wall < 1800.0
    report(7, ok, f"recall@20 ours L8 {ours8:.4f} vs L2 {ours2:.4f} "
                  f"(need >= {0.9 * ours2:.4f}); plain L8 {plain8:.4f} vs L2 "
                  f"{plain2:.4f} (need <); {wall:.0f}s (budget 1800s)", capfd)


def test_8_pipeline_is_bit_reproducible(tmp_path, capfd):
    raw = tmp_path / "raw.tsv"
    lines = [f"u{u}\ti{i}" for u, i in bipartite_ring(30, 30, 6, seed=2).pairs]
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")

    ds = tmp_path / "ds"
    model = tmp_path / "model.dgcf"

    def run_once():
        # identical flags both times; the second run overwrites the first
        cli.main(["preprocess", "--input", str(raw), "--out", str(ds),
                  "--k-core", "2", "--test-ratio", "0.2", "--seed", "5"])
        cli.main(["train", "--data", str(ds), "--out", str(model),
                  "--model", "ours", "--dim", "8", "--layers", "2",
                  "--epochs", "5", "--seed", "3"])
        capfd.readouterr()  # drop preprocess/train progress output
        cli.main(["evaluate", "--model", str(model), "--data", str(ds), "--k", "10"])
        metrics_json = capfd.readouterr().out
        dataset_hashes = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(ds.iterdir())
        }
        return dataset_hashes, hashlib.sha256(model.read_bytes()).hexdigest(), metrics_json

    first = run_once()
    second = run_once()
    ok = first == second
    report(8, ok, "preprocess/train/evaluate artifacts byte-identical across "
                  "two runs (dataset files, model file, metrics JSON)", capfd)


def test_9_core_filter_matches_one_at_a_time_deletion(capfd):
    rng = np.random.default_rng(11)
    idempotent = True
    agree = True
    for _ in range(50):
        m = int(rng.integers(3, 40))
        n = int(rng.integers(3, 40))
        pairs = [(f"u{u}", f"i{i}")
                 for u, i in random_interactions(rng, m, n, int(rng.integers(2, 7)))]
        k = int(rng.integers(2, 5))
        got = k_core_filter(RawInteractions(pairs), k)
        agree = agree and set(got.pairs) == brute_force_k_core(pairs, k)
        again = k_core_filter(got, k)
        idempotent = idempotent and again.pairs == got.pairs
    ok = agree and idempotent
    report(9, ok, "k-core equals brute-force single-deletion oracle and is "
                  "idempotent on 50 random instances", capfd)
