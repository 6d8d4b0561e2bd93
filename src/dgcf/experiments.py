"""The accuracy runs of acceptance checks 6 and 7, defined once.

Check 6 compares the residual model with factorization and LightGCN
(CHECK_6); check 7 trains it and the plain ablation shallow and deep
(CHECK_7). scripts/run_comparison.py and scripts/depth_study.py print these
runs, and the acceptance gate trains them, all through train_and_score.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .data import DatasetSplit, laplacian_for
from .evaluate import evaluate_model
from .model import forward, preset
from .train import TrainConfig, fit

# run name -> (model tag, depth); bprmf's preset fixes its depth at 0
RUNS = {
    "bprmf": ("bprmf", 0),
    "lightgcn_L3": ("lightgcn", 3),
    "ours_L2": ("ours", 2),
    "ours_L4": ("ours", 4),
    "ours_L8": ("ours", 8),
    "plain_L2": ("plain", 2),
    "plain_L8": ("plain", 8),
}
CHECK_6 = ("bprmf", "lightgcn_L3", "ours_L4")
CHECK_7 = ("ours_L2", "ours_L8", "plain_L2", "plain_L8")
K = 20


class RunResult(NamedTuple):
    recall: float
    ndcg: float
    epochs: int
    wall_s: float


def train_and_score(split: DatasetSplit, name: str) -> RunResult:
    """Train run `name` of RUNS on split.train (d = 64, identity activation,
    seed 7, early-stop patience 6, lr 3e-4 for ours) and score its E* at
    Recall/NDCG@20 on split.test; wall_s counts training and scoring."""
    tag, L = RUNS[name]
    hyper = preset(tag, d=64, L=L, activation="identity")
    # the residual model needs a gentler step than the others
    config = TrainConfig(lr=3e-4 if tag == "ours" else TrainConfig.lr, seed=7,
                         early_stop_patience=6)
    t0 = time.monotonic()
    params, log = fit(split, hyper, config)
    metrics = evaluate_model(forward(params, laplacian_for(split), hyper).E_star, split, k=K)
    return RunResult(metrics.recall_at_k, metrics.ndcg_at_k, len(log), time.monotonic() - t0)


def print_runs(split: DatasetSplit, names: tuple[str, ...]) -> None:
    """One table row per run, printed as it finishes."""
    print(f"{'run':<12} {f'recall@{K}':>10} {f'ndcg@{K}':>10} {'epochs':>7} {'wall_s':>7}",
          flush=True)
    for name in names:
        r = train_and_score(split, name)
        print(f"{name:<12} {r.recall:>10.4f} {r.ndcg:>10.4f} {r.epochs:>7d} {r.wall_s:>7.1f}",
              flush=True)
