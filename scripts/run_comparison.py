#!/usr/bin/env python3
"""Print acceptance check 6's runs: BPRMF, LightGCN at L=3 and the residual
model at L=4, each with Recall@20, NDCG@20, epochs trained and wall seconds.
All three are presets of the one model, trained by the same loop and scored
by the same forward pass; dgcf.experiments holds their settings.

On the acceptance corpus:
    python3 scripts/make_synthetic.py --generator walk --seed 0 --out /tmp/walk.tsv
    dgcf preprocess --input /tmp/walk.tsv --out /tmp/ds
    python3 scripts/run_comparison.py --data /tmp/ds
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dgcf.data import load_split
from dgcf.experiments import CHECK_6, print_runs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", required=True, help="preprocessed dataset directory")
    print_runs(load_split(ap.parse_args().data), CHECK_6)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
