import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes helpers importable

from dgcf.data import DatasetSplit, laplacian_for, split_train_test
from dgcf.graph import InteractionMatrix
from dgcf.synthetic import bipartite_ring


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
