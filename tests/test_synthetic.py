import hashlib

import numpy as np
import pytest

from dgcf.data import laplacian_for, split_train_test
from dgcf.synthetic import bipartite_ring, walk_interactions


def connected(raw):
    """Single component over users+items via union-find on token pairs."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, i in raw.pairs:
        ru, ri = find(("u", u)), find(("i", i))
        if ru != ri:
            parent[ru] = ri
    roots = {find(node) for node in parent}
    return len(roots) == 1


class TestRing:
    def test_connected(self):
        assert connected(bipartite_ring(20, 20, 0, seed=0))
        assert connected(bipartite_ring(20, 20, 5, seed=1))

    def test_degrees_at_least_two(self):
        raw = bipartite_ring(15, 15, 0, seed=0)
        from collections import Counter
        ud = Counter(u for u, _ in raw.pairs)
        assert all(c == 2 for c in ud.values())

    def test_deterministic(self):
        assert bipartite_ring(10, 10, 3, seed=5).pairs == \
            bipartite_ring(10, 10, 3, seed=5).pairs

    def test_seed_changes_extras(self):
        a = bipartite_ring(10, 10, 3, seed=1).pairs
        b = bipartite_ring(10, 10, 3, seed=2).pairs
        assert a != b

    def test_requires_square(self):
        with pytest.raises(ValueError):
            bipartite_ring(5, 6, 0, seed=0)

    def test_no_duplicates(self):
        raw = bipartite_ring(25, 25, 10, seed=3)
        assert len(raw.pairs) == len(set(raw.pairs))


WALK = dict(n_users=60, grid_side=5, items_per_cell=4, median_activity=10.0, min_activity=6,
            seed=2)


class TestWalk:
    def test_deterministic(self):
        assert walk_interactions(**WALK).pairs == walk_interactions(**WALK).pairs

    def test_no_duplicates(self):
        pairs = walk_interactions(**WALK).pairs
        assert len(pairs) == len(set(pairs))

    def test_every_user_meets_floor(self):
        from collections import Counter
        counts = Counter(u for u, _ in walk_interactions(**WALK).pairs)
        assert len(counts) == WALK["n_users"]
        assert min(counts.values()) >= WALK["min_activity"]

    def test_splits_cleanly(self):
        split = split_train_test(walk_interactions(**WALK), 0.2, seed=0)
        assert split.train.nnz > 0
        assert any(split.test)


class TestScaleAndStructure:
    def test_ring_normalized_laplacian_is_connected_graph(self):
        raw = bipartite_ring(30, 30, 4, seed=1)
        split = split_train_test(raw, 0.2, seed=0)
        S = laplacian_for(split)
        # connected bipartite graph: power iteration spreads mass everywhere
        x = np.zeros(S.shape[0])
        x[0] = 1.0
        for _ in range(60):
            x = S @ x + x
        assert np.all(np.abs(x) > 0)

    def test_walk_tastes_are_local(self):
        raw = walk_interactions(n_users=40, grid_side=12, items_per_cell=3,
                                median_activity=14.0, noise=0.0, seed=0)
        side, ipc = 12, 3
        from collections import defaultdict
        cells = defaultdict(list)
        for u, i in raw.pairs:
            cell = int(i[1:]) // ipc
            cells[u].append((cell // side, cell % side))
        for u, coords in cells.items():
            rows = [r for r, _ in coords]
            cols = [c for _, c in coords]
            # torus spread of a restarting walk stays well under the diameter
            def spread(vals):
                vals = sorted(set(vals))
                gaps = [(b - a) % side for a, b in zip(vals, vals[1:] + vals[:1])]
                return side - max(gaps) if gaps else 0
            assert spread(rows) <= 8 and spread(cols) <= 8


@pytest.mark.parametrize("seed,count,sha256", [
    (0, 32_734, "061c2111c480584f4742fe187503288ad39eff6104310dcd4f965f124aa029d2"),
    (1, 32_796, "a9560a600504c3abba21dc0622034b51c7cc500440a90ac10b0fdef04bd66d29"),
])
def test_walk_corpus_is_pinned(seed, count, sha256):
    # the defaults are the acceptance corpus, byte for byte as the generator
    # first produced it
    pairs = walk_interactions(seed=seed).pairs
    text = "".join(f"{u}\t{i}\n" for u, i in pairs)
    assert (len(pairs), hashlib.sha256(text.encode()).hexdigest()) == (count, sha256)
