#!/usr/bin/env python3
"""Print acceptance check 7's runs: the residual model and the plain ablation
at L=2 and L=8, each with Recall@20, NDCG@20, epochs trained and wall seconds.

The plain ablation drops the initial-residual and identity-mapping terms and
reads out only the last layer, so its accuracy should decay as depth grows
while the full model holds steady. dgcf.experiments holds the settings.

On the acceptance corpus:
    python3 scripts/make_synthetic.py --generator walk --seed 0 --out /tmp/walk.tsv
    dgcf preprocess --input /tmp/walk.tsv --out /tmp/ds
    python3 scripts/depth_study.py --data /tmp/ds
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dgcf.data import load_split
from dgcf.experiments import CHECK_7, print_runs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", required=True, help="preprocessed dataset directory")
    print_runs(load_split(ap.parse_args().data), CHECK_7)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
