#!/usr/bin/env python3
"""Train BPRMF, LightGCN, and the residual-propagation model on one dataset
and print a Recall@20 / NDCG@20 comparison table. All three are presets of
the one model, trained by the same loop and scored by the same forward pass.

Example:
    python3 scripts/make_synthetic.py --generator walk --out /tmp/walk.tsv
    python3 -m dgcf.cli preprocess --input /tmp/walk.tsv --out /tmp/ds
    python3 scripts/run_comparison.py --data /tmp/ds
"""
import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dgcf.data import laplacian_for, load_split
from dgcf.evaluate import evaluate_model
from dgcf.model import forward, preset
from dgcf.train import TrainConfig, fit


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", required=True, help="preprocessed dataset directory")
    ap.add_argument("--dim", type=int, default=64)
    ap.add_argument("--layers", type=int, default=4)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--batch-size", type=int, default=1024)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--k", type=int, default=20)
    args = ap.parse_args()
    if args.k < 1:
        ap.error(f"--k must be >= 1, got {args.k}")

    split = load_split(args.data)
    S = laplacian_for(split)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, seed=args.seed,
                      eval_every=10, early_stop_patience=6)

    runs = {
        "bprmf": (preset("bprmf", d=args.dim), cfg),
        "lightgcn": (preset("lightgcn", d=args.dim, L=args.layers), cfg),
        "ours": (preset("ours", d=args.dim, L=args.layers, activation="identity"),
                 replace(cfg, lr=3e-4)),
    }
    rows = []
    for name, (hyper, run_cfg) in runs.items():
        t0 = time.time()
        params, log = fit(split, hyper, run_cfg)
        wall = time.time() - t0
        metrics = evaluate_model(forward(params, S, hyper).E_star, split, k=args.k)
        rows.append((name, metrics.recall_at_k, metrics.ndcg_at_k, len(log), wall))

    print(f"{'model':<10} {'recall@%d' % args.k:>10} {'ndcg@%d' % args.k:>10} "
          f"{'epochs':>7} {'wall_s':>7}")
    for name, recall, ndcg, epochs, wall in rows:
        print(f"{name:<10} {recall:>10.4f} {ndcg:>10.4f} {epochs:>7d} {wall:>7.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
