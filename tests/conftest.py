import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes helpers importable

from dgcf import cli
from dgcf.data import DatasetSplit, laplacian_for, load_split, split_train_test
from dgcf.graph import InteractionMatrix
from dgcf.synthetic import bipartite_ring

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args: str) -> str:
    """stdout of `python *args` in the repository root. PYTHONPATH is removed,
    so a script finds the package through its own sys.path bootstrap."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def script_dataset(tmp: Path, generator: str) -> Path:
    """The dataset a user makes: make_synthetic.py's seed-0 corpus, then
    `dgcf preprocess` at its defaults."""
    corpus = tmp / f"{generator}.tsv"
    out = run_script("scripts/make_synthetic.py", "--generator", generator, "--out", str(corpus))
    assert out == f"wrote {len(corpus.read_text().splitlines())} interactions to {corpus}\n"
    assert cli.main(["preprocess", "--input", str(corpus), "--out", str(tmp / "ds")]) == 0
    return tmp / "ds"


def laplacian_from_pairs(m: int, n: int, pairs):
    """laplacian_for of the graph whose train pairs are `pairs`."""
    R = InteractionMatrix.from_pairs(m, n, pairs)
    return laplacian_for(DatasetSplit(train=R, test=None, user_map={}, item_map={}, seed=0))


@pytest.fixture(scope="session")
def ring_split():
    """Small connected dataset: 30 users, 30 items, ~8 interactions/user."""
    raw = bipartite_ring(30, 30, 6, seed=1)
    return split_train_test(raw, 0.2, seed=3)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def acceptance_split(tmp_path_factory):
    """The split of checks 6 and 7: the walk corpus, 10-core, 20% held out, seed 0."""
    return load_split(script_dataset(tmp_path_factory.mktemp("acceptance"), "walk"))
