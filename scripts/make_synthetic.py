#!/usr/bin/env python3
"""Write a synthetic interaction corpus as an edge-pairs file.

Example:
    python3 scripts/make_synthetic.py --generator walk --seed 0 --out data/walk.tsv
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dgcf.cli import entrypoint
from dgcf.errors import ConfigError
from dgcf.synthetic import bipartite_ring, walk_interactions

GENERATORS = {
    "ring": lambda seed: bipartite_ring(200, 200, 18, seed=seed),
    "walk": lambda seed: walk_interactions(seed=seed),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--generator", choices=sorted(GENERATORS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="edge-pairs output path")
    args = ap.parse_args()
    if args.seed < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")

    raw = GENERATORS[args.generator](args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{i}\n" for u, i in raw.pairs)
    print(f"wrote {len(raw.pairs)} interactions to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(entrypoint(main))
