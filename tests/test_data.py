import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgcf.data import RawInteractions, k_core_filter, load_split, parse_interactions, \
    sample_bpr_triples, save_split, split_train_test
from dgcf.errors import DataError, ParseError
from helpers import brute_force_k_core, naive_read_adjacency, naive_train_and_test


def write(tmp_path, text, name="inter.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestParse:
    def test_edge_pairs(self, tmp_path):
        raw = parse_interactions(write(tmp_path, "u1\ti1\nu1\ti2\n"), "edge-pairs")
        assert raw.pairs == [("u1", "i1"), ("u1", "i2")]

    def test_adjacency_list(self, tmp_path):
        raw = parse_interactions(write(tmp_path, "0 5 7 9\n"), "adjacency-list")
        assert raw.pairs == [("0", "5"), ("0", "7"), ("0", "9")]

    def test_dedup(self, tmp_path):
        raw = parse_interactions(write(tmp_path, "u1\ti1\nu1\ti1\n"), "edge-pairs")
        assert raw.pairs == [("u1", "i1")]

    def test_blank_lines_ignored(self, tmp_path):
        raw = parse_interactions(write(tmp_path, "u1\ti1\n\n\nu2\ti2\n"), "edge-pairs")
        assert len(raw.pairs) == 2

    def test_malformed_line_reports_number(self, tmp_path):
        p = write(tmp_path, "u1\ti1\nnot-a-pair\n")
        with pytest.raises(ParseError, match=":2"):
            parse_interactions(p, "edge-pairs")

    def test_empty_file_errors(self, tmp_path):
        with pytest.raises(DataError):
            parse_interactions(write(tmp_path, "\n\n"), "edge-pairs")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            parse_interactions(write(tmp_path, "a\tb\n"), "csv")


def pairs_of(users, items_per_user):
    return [(f"u{u}", f"i{i}") for u in range(users) for i in items_per_user(u)]


class TestKCore:
    def test_complete_bipartite_unchanged(self):
        raw = RawInteractions(pairs_of(10, lambda u: range(10)))
        assert sorted(k_core_filter(raw, 10).pairs) == sorted(raw.pairs)

    def test_star_collapses_to_empty(self):
        raw = RawInteractions([("u0", f"i{i}") for i in range(10)])
        assert k_core_filter(raw, 10).pairs == []

    def test_k1_keeps_everything(self):
        raw = RawInteractions([("u0", "i0"), ("u1", "i0"), ("u2", "i5")])
        assert sorted(k_core_filter(raw, 1).pairs) == sorted(raw.pairs)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            k_core_filter(RawInteractions([("u", "i")]), 0)

    def test_cascade(self):
        # removing item i1 (degree 1) drops u1 below 2, which strands i2
        pairs = [("u0", "i0"), ("u2", "i0"), ("u0", "i2"), ("u1", "i2"), ("u1", "i1"),
                 ("u2", "i3"), ("u0", "i3")]
        out = k_core_filter(RawInteractions(pairs), 2)
        assert sorted(out.pairs) == [("u0", "i0"), ("u0", "i3"), ("u2", "i0"), ("u2", "i3")]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_matches_brute_force_and_idempotent(self, seed, k):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 15)), int(rng.integers(2, 15))
        pairs = sorted({(f"u{rng.integers(m)}", f"i{rng.integers(n)}")
                        for _ in range(int(rng.integers(1, 60)))})
        once = k_core_filter(RawInteractions(pairs), k)
        assert set(once.pairs) == brute_force_k_core(pairs, k)
        twice = k_core_filter(once, k) if once.pairs else once
        assert twice.pairs == once.pairs


class TestSplit:
    def test_counts_user_with_10(self):
        raw = RawInteractions([("u0", f"i{i}") for i in range(10)] + [("u1", f"i{i}") for i in range(10)])
        split = split_train_test(raw, 0.2, seed=0)
        for u in range(2):
            assert len(split.test[u]) == 2
            assert len(split.train.user_items(u)) == 8

    def test_single_interaction_stays_in_train(self):
        raw = RawInteractions([("u0", "i0"), ("u1", "i0"), ("u1", "i1")])
        split = split_train_test(raw, 0.2, seed=1)
        u0 = split.user_map["u0"]
        assert split.test[u0] == []
        assert len(split.train.user_items(u0)) == 1

    def test_disjoint_and_complete(self):
        rng = np.random.default_rng(4)
        pairs = sorted({(f"u{rng.integers(8)}", f"i{rng.integers(12)}") for _ in range(70)})
        split = split_train_test(RawInteractions(pairs), 0.3, seed=9)
        per_user = {}
        for u_tok, i_tok in pairs:
            per_user.setdefault(split.user_map[u_tok], set()).add(split.item_map[i_tok])
        for u, items in per_user.items():
            train = set(split.train.user_items(u).tolist())
            test = set(split.test[u])
            assert train | test == items
            assert train & test == set()
            assert len(train) >= 1

    def test_deterministic(self):
        raw = RawInteractions(pairs_of(6, lambda u: range(u + 2)))
        a = split_train_test(raw, 0.25, seed=7)
        b = split_train_test(raw, 0.25, seed=7)
        assert np.array_equal(a.train.indices, b.train.indices)
        assert a.test == b.test and a.user_map == b.user_map

    def test_maps_are_sorted_contiguous(self):
        raw = RawInteractions([("zz", "b"), ("aa", "c"), ("mm", "a")])
        split = split_train_test(raw, 0.5, seed=0)
        assert split.user_map == {"aa": 0, "mm": 1, "zz": 2}
        assert split.item_map == {"a": 0, "b": 1, "c": 2}

    def test_ratio_validation(self):
        raw = RawInteractions([("u", "i")])
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_train_test(raw, bad, seed=0)

    def test_empty_errors(self):
        with pytest.raises(DataError):
            split_train_test(RawInteractions([]), 0.2, seed=0)


class TestSampling:
    def test_shape_and_exclusion(self, ring_split):
        rng = np.random.default_rng(2)
        batch = sample_bpr_triples(ring_split, 500, rng)
        assert batch.shape == (500, 3)
        flat = ring_split.train_flat()
        codes_pos = batch[:, 0] * ring_split.n + batch[:, 1]
        codes_neg = batch[:, 0] * ring_split.n + batch[:, 2]
        pos_in = np.isin(codes_pos, flat)
        neg_in = np.isin(codes_neg, flat)
        assert pos_in.all()
        assert not neg_in.any()

    def test_forced_negative(self):
        # train covers every item except 3: the only possible negative is 3
        raw = RawInteractions([("u0", f"i{i}") for i in range(6) if i != 3]
                              + [("u1", f"i{i}") for i in range(6)])
        split = split_train_test(raw, 0.2, seed=0)
        # rebuild u0 with full coverage minus item 3 by sampling from train only
        rng = np.random.default_rng(0)
        batch = sample_bpr_triples(split, 200, rng)
        u0 = split.user_map["u0"]
        negs = {int(j) for u, i, j in batch if u == u0}
        trained = set(split.train.user_items(u0).tolist())
        assert negs.isdisjoint(trained)

    def test_forced_pair_n2(self):
        raw = RawInteractions([("u0", "i0"), ("u0", "i1"), ("u1", "i0"), ("u1", "i1")])
        split = split_train_test(raw, 0.4, seed=1)
        rng = np.random.default_rng(5)
        batch = sample_bpr_triples(split, 100, rng)
        for u, i, j in batch:
            assert (int(i),) == tuple(split.train.user_items(int(u)).tolist())
            assert j not in split.train.user_items(int(u))

    def test_all_items_user_excluded(self):
        # u0 interacts with everything -> never sampled; u1 remains eligible
        raw = RawInteractions([("u0", "i0"), ("u0", "i1"), ("u1", "i0")])
        split = split_train_test(raw, 0.4, seed=0)
        u0 = split.user_map["u0"]
        if len(split.train.user_items(u0)) == split.n:
            rng = np.random.default_rng(1)
            batch = sample_bpr_triples(split, 50, rng)
            assert not (batch[:, 0] == u0).any()

    def test_error_when_nothing_sampleable(self):
        raw = RawInteractions([("u0", "i0")])
        split = split_train_test(raw, 0.5, seed=0)
        with pytest.raises(DataError):
            sample_bpr_triples(split, 4, np.random.default_rng(0))


class TestRoundTrip:
    def test_save_load_identity(self, ring_split, tmp_path):
        save_split(ring_split, tmp_path / "ds", k_core=2)
        loaded = load_split(tmp_path / "ds")
        assert loaded.m == ring_split.m and loaded.n == ring_split.n
        assert np.array_equal(loaded.train.indptr, ring_split.train.indptr)
        assert np.array_equal(loaded.train.indices, ring_split.train.indices)
        assert loaded.test == ring_split.test
        assert loaded.user_map == ring_split.user_map
        assert loaded.item_map == ring_split.item_map
        assert loaded.seed == ring_split.seed

    def test_stats_contents(self, ring_split, tmp_path):
        import json
        save_split(ring_split, tmp_path / "ds", k_core=5)
        stats = json.loads((tmp_path / "ds" / "stats.json").read_text())
        assert stats == {"m": ring_split.m, "n": ring_split.n, "nnz": ring_split.train.nnz,
                         "seed": ring_split.seed, "k": 5}

    def test_missing_dir(self, tmp_path):
        with pytest.raises(DataError):
            load_split(tmp_path / "nope")


def csr_state(rows):
    """indptr and indices as int64 bytes, of an InteractionMatrix or a scipy CSR array."""
    return [np.asarray(a, dtype=np.int64).tobytes() for a in (rows.indptr, rows.indices)]


def tiny_dataset(root: Path, train: str, test: str = "") -> Path:
    """A 3-user, 5-item dataset directory with the given train.txt and test.txt."""
    root.mkdir()
    (root / "stats.json").write_text(json.dumps({"m": 3, "n": 5, "seed": 0, "nnz": 0, "k": 1}))
    (root / "user_map.tsv").write_text("".join(f"u{u}\t{u}\n" for u in range(3)))
    (root / "item_map.tsv").write_text("".join(f"i{i}\t{i}\n" for i in range(5)))
    (root / "train.txt").write_text(train)
    (root / "test.txt").write_text(test)
    return root


class TestLoadSplitMatchesOracle:
    """load_split against the original split and the line-by-line oracle reader."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([0.1, 0.3, 0.5]))
    def test_random_round_trip(self, seed, ratio):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 12)), int(rng.integers(2, 12))
        pairs = sorted({(f"u{rng.integers(m)}", f"i{rng.integers(n)}")
                        for _ in range(int(rng.integers(1, 80)))})
        split = split_train_test(RawInteractions(pairs), ratio, seed)
        with tempfile.TemporaryDirectory() as tmp:
            save_split(split, tmp, k_core=1)
            loaded = load_split(tmp)
            rows, test = naive_train_and_test(Path(tmp), split.m, split.n)
        assert csr_state(loaded.train) == csr_state(split.train) == csr_state(rows)
        assert loaded.test == split.test == test
        assert all(type(i) is int for items in loaded.test for i in items)
        assert loaded.user_map == split.user_map and loaded.item_map == split.item_map
        assert loaded.seed == split.seed

    @pytest.mark.parametrize("train,test,items,held", [
        ("0\t1  2\n1 \t 3\t\t4\n2   0\n", "0\t4\n", [[1, 2], [3, 4], [0]], [[4], [], []]),
        ("\n0 1\n\n   \n1 2\n\n2 3\n\n", "\n\n2 4\n", [[1], [2], [3]], [[], [], [4]]),
        ("0 3\n1 1\n0 1\n2 2\n", "1 4\n1 0\n", [[1, 3], [1], [2]], [[], [0, 4], []]),
        ("0 1 1 2\n1 4 4\n2 0 0\n", "0 4 4 3\n0 3\n", [[1, 2], [4], [0]], [[3, 4], [], []]),
    ], ids=["tabs-and-spaces", "blank-lines", "user-on-two-lines", "repeated-items"])
    def test_hand_written(self, tmp_path, train, test, items, held):
        d = tiny_dataset(tmp_path / "ds", train, test)
        loaded = load_split(d)
        rows, oracle_test = naive_train_and_test(d, 3, 5)
        assert csr_state(loaded.train) == csr_state(rows)
        assert [loaded.train.user_items(u).tolist() for u in range(3)] == items
        assert loaded.test == oracle_test == held

    @pytest.mark.parametrize("name,text,lineno", [
        ("train.txt", "0 1\n0 5\n", 2),
        ("train.txt", "0 1\n\n1 x\n", 3),
        ("train.txt", "0 1\n3 1\n", 2),
        ("train.txt", "0 1\n1\n", 2),
        ("train.txt", "-1 2\n", 1),
        ("train.txt", "0 1\n1 2 -2\n", 2),
        ("train.txt", "0 1\n1 99999999999999999999999\n", 2),
        ("test.txt", "0 1\n\n\n0 2 7\n", 4),
    ], ids=["item-range", "non-integer", "user-range", "no-items", "negative-user",
            "negative-item", "huge-item", "test-file"])
    def test_malformed_line_message(self, tmp_path, name, text, lineno):
        files = {"train.txt": "0 1\n", "test.txt": "", name: text}
        d = tiny_dataset(tmp_path / "ds", files["train.txt"], files["test.txt"])
        with pytest.raises(ParseError) as got:
            load_split(d)
        with pytest.raises(ParseError) as want:
            naive_read_adjacency(d / name, 3, 5)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{d / name}:{lineno}: expected 'user item1 item2 ...'")

    @pytest.mark.parametrize("name,text", [
        ("user_map.tsv", "u0\t0\nu1\t1\nu0\t2\n"),
        ("item_map.tsv", "i0\t0\ni1\t1\n\ni2\t2\ni3\t3\ni1\t4\n"),
    ], ids=["user", "item"])
    def test_repeated_map_token(self, tmp_path, name, text):
        # every index is present; the repeat, not the index range, is the fault
        d = tiny_dataset(tmp_path / "ds", "0 1\n")
        (d / name).write_text(text)
        lineno, token = (3, "u0") if name == "user_map.tsv" else (6, "i1")
        with pytest.raises(ParseError, match=f"{name}:{lineno}: token '{token}' is listed twice"):
            load_split(d)

    def test_blank_train_file(self, tmp_path):
        d = tiny_dataset(tmp_path / "ds", "\n  \n")
        with pytest.raises(DataError, match="no interactions found"):
            load_split(d)
