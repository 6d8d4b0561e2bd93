#!/usr/bin/env python3
"""Train the full model and the plain ablation at several depths, then report
Recall@20 alongside user-embedding smoothness at each depth.

The plain ablation drops the initial-residual and identity-mapping terms and
reads out only the last layer, so its accuracy should decay as depth grows
while the full model holds steady.

Example:
    python3 scripts/depth_study.py --data /tmp/ds --depths 2 4 8
"""
import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dgcf.data import laplacian_for, load_split
from dgcf.evaluate import evaluate_model, smoothness
from dgcf.model import forward, preset
from dgcf.train import TrainConfig, fit


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", required=True, help="preprocessed dataset directory")
    ap.add_argument("--depths", type=int, nargs="+", default=[2, 4, 8])
    ap.add_argument("--dim", type=int, default=64)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--k", type=int, default=20)
    args = ap.parse_args()

    split = load_split(args.data)
    S = laplacian_for(split)
    cfg = TrainConfig(epochs=args.epochs, seed=args.seed, eval_every=10,
                      early_stop_patience=6)

    print(f"{'model':<8} {'L':>3} {'recall@%d' % args.k:>10} {'ndcg@%d' % args.k:>10} "
          f"{'user_sim':>9} {'wall_s':>7}")
    for tag in ("ours", "plain"):
        for L in args.depths:
            hyper = preset(tag, d=args.dim, L=L)
            t0 = time.time()
            params, _ = fit(split, hyper, cfg)
            wall = time.time() - t0
            e_star = forward(params, S, hyper).E_star
            metrics = evaluate_model(e_star, split, k=args.k)
            sim = smoothness(e_star[: split.m])
            print(f"{tag:<8} {L:>3} {metrics.recall_at_k:>10.4f} "
                  f"{metrics.ndcg_at_k:>10.4f} {sim:>9.4f} {wall:>7.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
