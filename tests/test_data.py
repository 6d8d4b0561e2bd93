import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dgcf import data
from dgcf.data import DatasetSplit, RawInteractions, k_core_filter, load_split, \
    parse_interactions, sample_bpr_triples, save_split, split_train_test
from dgcf.errors import DataError, DgcfError, ParseError
from dgcf.graph import InteractionMatrix
from dgcf.synthetic import walk_interactions
from helpers import brute_force_k_core, naive_read_adjacency, naive_read_map, \
    naive_train_and_test, whole_batch_sample_bpr_triples


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
        flat = ring_split.train.codes
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

    @pytest.mark.parametrize("corpus", ["ring", "crowded"])
    @pytest.mark.parametrize("B", [1, 7, 1024, 8192])
    def test_equals_whole_batch_rejection(self, corpus, B, ring_split):
        """Output and generator state bitwise those of re-checking every
        negative each round. In "crowded" user 0 has all items but one, so
        its negatives take many rounds."""
        if corpus == "ring":
            split = ring_split
        else:
            n = 40
            pairs = [(0, i) for i in range(n) if i != 17] + [(1, 3), (1, 5), (2, 0)]
            split = DatasetSplit(InteractionMatrix.from_pairs(3, n, pairs), None, {}, {}, 0)
        for seed in range(3):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                got = sample_bpr_triples(split, B, got_rng)
                want = whole_batch_sample_bpr_triples(split, B, want_rng)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

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

    @pytest.mark.parametrize("test", ["", "\n", "  \n\t\n\n", "\r\n \x0c\n"],
                             ids=["empty", "newline", "blanks", "other-breaks"])
    def test_blank_test_file_holds_nothing(self, tmp_path, test):
        d = tiny_dataset(tmp_path / "ds", "0 1\n2 3 4\n", test)
        assert load_split(d).test == [[], [], []]
        (d / "test.txt").unlink()
        assert load_split(d).test == [[], [], []]

    @pytest.mark.parametrize("train", ["", "\n", " \t\n\n", "\r\n\x0b"])
    def test_blank_train_file_is_refused(self, tmp_path, train):
        d = tiny_dataset(tmp_path / "ds", train)
        with pytest.raises(DataError, match=re.escape(f"{d / 'train.txt'}: no interactions found")):
            load_split(d)

    @pytest.mark.parametrize("key,value,shown", [
        ("m", 3.0, "3.0"), ("m", 3.9, "3.9"), ("m", "3", '"3"'), ("m", True, "true"),
        ("n", False, "false"), ("n", None, "null"), ("seed", 0.5, "0.5"), ("seed", [0], "[0]"),
        ("seed", None, "nothing"),
    ])
    def test_stats_sizes_must_be_json_integers(self, tmp_path, key, value, shown):
        d = tiny_dataset(tmp_path / "ds", "0 1\n")
        stats = {"m": 3, "n": 5, "seed": 0, "nnz": 1, "k": 1}
        if shown == "nothing":
            del stats[key]
        else:
            stats[key] = value
        (d / "stats.json").write_text(json.dumps(stats))
        with pytest.raises(ParseError) as got:
            load_split(d)
        assert str(got.value) == f"{d / 'stats.json'}: {key!r} must be a JSON integer, got {shown}"

    @pytest.mark.parametrize("text", ["[3, 5, 0]", "3", '"m"'])
    def test_stats_must_be_an_object(self, tmp_path, text):
        d = tiny_dataset(tmp_path / "ds", "0 1\n")
        (d / "stats.json").write_text(text)
        with pytest.raises(ParseError, match="stats.json: expected a JSON object"):
            load_split(d)


# Text that line-by-line reading with str.splitlines, str.split and int()
# treats in every way it can. A clean file of ASCII digits, blanks and '\n'
# takes the vectorised pass; zero to three inserted faults send it to the
# loop, or must not: other line breaks, signs, underscores, a letter, a
# non-ASCII digit, digit runs longer than int64's 18 safe digits, a line with
# a user and no item, an index out of range, blank lines and missing final
# line breaks.
BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
FAULTS = BREAKS + ["+", "-", "_", "x", "\u0663", "\n", "\n\n", " \t\n", "\n3\n", "\t",
                   " ", "7", "99", "0" * 17, "1" * 19, "2" * 25]
BLANKS = st.text(" \t", max_size=3)


def index_text(bound: int):
    """An index below bound, sometimes with leading zeros (to 19 digits)."""
    return st.builds(lambda zeros, i: "0" * zeros + str(i),
                     st.sampled_from([0, 0, 0, 0, 1, 2, 17, 18]), st.integers(0, bound - 1))


@st.composite
def faulty(draw, clean: str) -> str:
    """clean with zero to three FAULTS inserted anywhere, the final '\n' perhaps cut."""
    text = clean
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(FAULTS)) + text[at:]
    if draw(st.booleans()):
        text = text.removesuffix("\n")
    return text


@st.composite
def adjacency_case(draw) -> tuple[str, int, int]:
    """(text, m, n): 'user item1 item2 ...' lines, some blank, then faults."""
    m, n = draw(st.integers(1, 13)), draw(st.integers(1, 13))
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        tokens = [draw(index_text(m))] + draw(st.lists(index_text(n), min_size=1, max_size=4))
        if draw(st.integers(0, 4)) == 0:
            tokens = []
        gaps = [draw(BLANKS.filter(bool)) for _ in tokens[1:]] + [""]
        body = "".join(tok + gap for tok, gap in zip(tokens, gaps))
        lines.append(draw(BLANKS) + body + draw(BLANKS) + "\n")
    return draw(faulty("".join(lines))), m, n


@st.composite
def map_case(draw) -> tuple[str, int]:
    """(text, size): 'token<TAB>index' lines over indices 0..size-1 (some
    missing, some repeated), tokens with spaces and repeats, then faults."""
    size = draw(st.integers(0, 5))
    order = draw(st.permutations(range(size)))
    order = draw(st.sampled_from([order, order[1:], order + order[:1], order]))
    pool = ["u0", "u1", "a b", " u2", "u3 ", "", "7"]
    tokens = draw(st.sampled_from([[f"u{i}" for i in order],
                                   [draw(st.sampled_from(pool)) for _ in order]]))
    text = "".join(f"{tok}\t{i}\n" for tok, i in zip(tokens, order))
    return draw(faulty(text)), size


def outcome(read, path: Path, *sizes):
    """What a reader gives for a file: its result, or its exception and message."""
    try:
        return read(path, *sizes)
    except DgcfError as exc:
        return type(exc), str(exc)


class TestReadersMatchLineByLineReading:
    """The vectorised readers against the line-by-line oracles of tests/helpers.py."""

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(adjacency_case())
    def test_adjacency(self, case):
        text, m, n = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "train.txt"
            path.write_bytes(text.encode("utf-8"))
            got = outcome(data._read_adjacency, path, m, n)
            want = outcome(naive_read_adjacency, path, m, n)
        if isinstance(got, np.ndarray):
            assert got.dtype == np.int64 and got.shape == (len(got), 2)
            got = [tuple(pair) for pair in got.tolist()]
        assert got == want

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(map_case())
    @example(("5\n7\t1\t0\n", 2))  # as many tabs as lines, but not one per line
    def test_map(self, case):
        text, size = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "user_map.tsv"
            path.write_bytes(text.encode("utf-8"))
            got = outcome(data._read_map, path, size)
            want = outcome(naive_read_map, path, size)
        assert got == want
        if isinstance(got, dict):
            assert all(type(i) is int for i in got.values())


def refuse_line_by_line(monkeypatch) -> None:
    """Make the line-by-line readers raise, so only the one-pass readers can load."""
    def refuse(path, *args):
        raise AssertionError(f"{path} went to the line-by-line reader")

    monkeypatch.setattr(data, "_read_adjacency_lines", refuse)
    monkeypatch.setattr(data, "_read_map_lines", refuse)


class TestSavedSplitsTakeTheOnePass:
    """Files save_split writes never fall back to the slow line-by-line readers."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([0.1, 0.3, 0.5]))
    def test_random_splits(self, seed, ratio):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 40)), int(rng.integers(2, 40))
        pairs = sorted({(f"u{rng.integers(m)}", f"i{rng.integers(n)}")
                        for _ in range(int(rng.integers(1, 300)))})
        split = split_train_test(RawInteractions(pairs), ratio, seed)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            save_split(split, tmp, k_core=1)
            refuse_line_by_line(mp)
            loaded = load_split(tmp)
        assert csr_state(loaded.train) == csr_state(split.train)
        assert loaded.test == split.test
        assert loaded.user_map == split.user_map and loaded.item_map == split.item_map

    def test_acceptance_corpus(self, tmp_path, monkeypatch):
        split = acceptance_split_in_memory()
        save_split(split, tmp_path / "ds", k_core=10)
        refuse_line_by_line(monkeypatch)
        loaded = load_split(tmp_path / "ds")
        assert csr_state(loaded.train) == csr_state(split.train)
        assert loaded.test == split.test
        assert loaded.user_map == split.user_map and loaded.item_map == split.item_map


def acceptance_split_in_memory() -> DatasetSplit:
    """The acceptance split built in memory: walk corpus, 10-core, 20% held out, seed 0."""
    return split_train_test(k_core_filter(walk_interactions(), 10), 0.2, 0)


def test_script_path_gives_the_acceptance_split(acceptance_split):
    # make_synthetic.py and `dgcf preprocess` at their defaults, as checks 6 and 7 read it
    want = acceptance_split_in_memory()
    assert csr_state(acceptance_split.train) == csr_state(want.train)
    assert acceptance_split.test == want.test
    assert acceptance_split.user_map == want.user_map
    assert acceptance_split.item_map == want.item_map
