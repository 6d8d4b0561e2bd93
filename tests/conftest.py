import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes helpers importable

from dgcf import cli, graph
from dgcf.data import DatasetSplit, laplacian_for, load_split, split_train_test
from dgcf.graph import InteractionMatrix
from dgcf.synthetic import bipartite_ring

ROOT = Path(__file__).resolve().parents[1]


def script_process(*args: str) -> subprocess.CompletedProcess:
    """The finished `python *args`, run in the repository root. PYTHONPATH is
    removed, so a script finds the package through its own sys.path bootstrap."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)


def run_script(*args: str) -> str:
    """stdout of script_process(*args), which must exit 0."""
    done = script_process(*args)
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


@pytest.fixture()
def without_sparse_kernel(monkeypatch):
    """scipy as a release without scipy.sparse._sparsetools would be: the
    module cannot be imported, and add_product loads its kernel afresh."""
    monkeypatch.setitem(sys.modules, "scipy.sparse._sparsetools", None)
    graph._csr_matvecs.cache_clear()
    yield
    graph._csr_matvecs.cache_clear()  # the next call loads the real kernel


@pytest.fixture()
def ranges(monkeypatch):
    """force(k) gives k usable cores and next to no least work per range, so
    row_partition cuts any graph of at least k blocks into k ranges, and
    evaluation cuts two or more blocks of users into 2 to k ranges."""
    def force(k):
        monkeypatch.setattr(graph, "MIN_RANGE_ROWS", 1e-6)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    return force
