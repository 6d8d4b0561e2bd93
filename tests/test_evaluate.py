import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgcf.data import RawInteractions, split_train_test
from dgcf.errors import ConfigError, DataError
from dgcf.evaluate import evaluate_model, ndcg_at_k, \
    oversmoothing_report, rank_items, recall_at_k, report_tsv, smoothness
from helpers import naive_evaluate, naive_ndcg, naive_rank, naive_recall, \
    naive_smoothness, random_interactions


class TestRecall:
    def test_perfect(self):
        assert recall_at_k([3, 1, 2], {1, 2, 3}, 3) == 1.0

    def test_half(self):
        assert recall_at_k([5, 1], {1, 9}, 2) == 0.5

    def test_none(self):
        assert recall_at_k([4, 5], {1, 2}, 2) == 0.0

    def test_truncates_at_k(self):
        # hit outside the cutoff does not count
        assert recall_at_k([7, 8, 1], {1}, 2) == 0.0

    def test_empty_test_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k([1, 2], set(), 2)


class TestNdcg:
    def test_single_item_at_rank_2(self):
        # item in the second slot: DCG = 1/log2(3), IDCG = 1
        got = ndcg_at_k([9, 5, 8], {5}, 20)
        assert got == pytest.approx(0.630930, abs=1e-6)
        assert got == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)

    def test_hit_at_top(self):
        assert ndcg_at_k([5, 1, 2], {5}, 20) == pytest.approx(1.0)

    def test_ideal_truncation(self):
        # 3 test items, k=2: IDCG uses only the first two discount slots
        got = ndcg_at_k([1, 2], {1, 2, 3}, 2)
        assert got == pytest.approx(1.0)

    def test_miss_is_zero(self):
        assert ndcg_at_k([4], {1}, 1) == 0.0

    def test_empty_test_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k([1], set(), 1)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_on_random_fixtures(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, 25))
        ranked = list(rng.permutation(n)[: rng.integers(1, n + 1)])
        test_items = set(int(x) for x in
                         rng.choice(n, size=rng.integers(1, n), replace=False))
        assert recall_at_k(ranked, test_items, k) == naive_recall(ranked, test_items, k)
        assert ndcg_at_k(ranked, test_items, k) == pytest.approx(
            naive_ndcg(ranked, test_items, k), abs=1e-12)


class TestRankItems:
    def test_descending_scores(self):
        top = rank_items(np.array([0.1, 0.9, 0.5]), np.array([], dtype=int), 3)
        assert list(top) == [1, 2, 0]

    def test_ties_break_by_index(self):
        top = rank_items(np.array([0.5, 0.5, 0.5]), np.array([], dtype=int), 3)
        assert list(top) == [0, 1, 2]

    def test_exclusion(self):
        top = rank_items(np.array([0.9, 0.8, 0.1]), np.array([0]), 2)
        assert list(top) == [1, 2]

    def test_exclusion_shrinks_list_when_needed(self):
        top = rank_items(np.array([0.9, 0.8]), np.array([0, 1]), 2)
        assert list(top) == []

    def test_input_not_mutated(self):
        scores = np.array([0.9, 0.8])
        rank_items(scores, np.array([0]), 1)
        assert scores[0] == 0.9

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_full_sort(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        # quantized scores force real ties
        scores = rng.integers(0, 4, size=n).astype(float) / 2.0
        n_ex = int(rng.integers(0, n))
        exclude = rng.choice(n, size=n_ex, replace=False)
        k = int(rng.integers(1, 30))
        assert list(rank_items(scores, exclude, k)) == naive_rank(scores, exclude, k)


class TestEvaluateModel:
    def test_matches_naive_loops(self, ring_split):
        rng = np.random.default_rng(4)
        e_star = rng.normal(size=(ring_split.m + ring_split.n, 5))
        got = evaluate_model(e_star, ring_split, k=7)
        want_r, want_n, want_users = naive_evaluate(e_star, ring_split, 7)
        assert got.recall_at_k == pytest.approx(want_r, abs=1e-12)
        assert got.ndcg_at_k == pytest.approx(want_n, abs=1e-12)
        assert got.users_evaluated == want_users
        assert got.k == 7

    def test_train_items_never_ranked(self):
        # embedding that scores train items highest; exclusion must still win
        pairs = [(f"u{u}", f"i{i}") for u in range(4) for i in range(8)]
        split = split_train_test(RawInteractions(pairs), 0.25, seed=1)
        e_star = np.zeros((12, 2))
        for u in range(4):
            for i in split.train.user_items(u):
                e_star[4 + i] += 1.0  # boost trained items globally
        metrics = evaluate_model(e_star, split, k=2)
        assert 0.0 <= metrics.recall_at_k <= 1.0

    def test_perfect_embedding_scores_one(self):
        # one test item per user; craft embeddings putting it on top
        pairs = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "z")]
        split = split_train_test(RawInteractions(pairs), 0.5, seed=0)
        m, n = split.m, split.n
        e_star = np.zeros((m + n, m))
        for u in range(m):
            e_star[u, u] = 1.0
            for i in split.test[u]:
                e_star[m + i, u] = 1.0
        metrics = evaluate_model(e_star, split, k=20)
        assert metrics.recall_at_k == 1.0
        assert metrics.ndcg_at_k == 1.0

    def test_monotone_score_transform_invariance(self, ring_split):
        rng = np.random.default_rng(8)
        e_star = rng.normal(size=(ring_split.m + ring_split.n, 3))
        base = evaluate_model(e_star, ring_split, k=5)
        scaled = evaluate_model(e_star * 3.0, ring_split, k=5)
        assert scaled.recall_at_k == pytest.approx(base.recall_at_k)
        assert scaled.ndcg_at_k == pytest.approx(base.ndcg_at_k)

    def test_row_count_mismatch(self, ring_split):
        with pytest.raises(DataError):
            evaluate_model(np.zeros((5, 2)), ring_split, k=3)


class TestSmoothness:
    def test_identical_rows(self):
        assert smoothness(np.tile([1.0, 2.0], (5, 1))) == pytest.approx(1.0)

    def test_orthogonal_rows(self):
        assert smoothness(np.eye(4)) == pytest.approx(0.0, abs=1e-12)

    def test_opposite_rows(self):
        assert smoothness(np.array([[1.0, 0.0], [-1.0, 0.0]])) == pytest.approx(-1.0)

    def test_three_known_rows(self):
        # pairs: (e1, e2) -> 0, (e1, e1+e2) -> 1/sqrt(2) twice
        E = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        want = (0.0 + 2 * (1.0 / math.sqrt(2.0))) / 3.0
        assert smoothness(E) == pytest.approx(want, abs=1e-12)

    def test_zero_rows_excluded(self):
        E = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert smoothness(E) == pytest.approx(1.0)

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            smoothness(np.array([[1.0, 2.0], [0.0, 0.0]]))

    def test_scaling_invariance(self, rng):
        E = rng.normal(size=(8, 3))
        scales = rng.uniform(0.1, 10.0, size=(8, 1))
        assert smoothness(E * scales) == pytest.approx(smoothness(E), abs=1e-10)

    def test_rotation_invariance(self, rng):
        E = rng.normal(size=(8, 4))
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        assert smoothness(E @ Q) == pytest.approx(smoothness(E), abs=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pairwise_loop(self, seed):
        rng = np.random.default_rng(seed)
        E = rng.normal(size=(rng.integers(2, 12), rng.integers(1, 5)))
        assert smoothness(E) == pytest.approx(naive_smoothness(E), abs=1e-10)


class TestOversmoothingReport:
    def test_row_count_and_layers(self, ring_split):
        reports = oversmoothing_report(ring_split, [("plain", 3), ("ours", 2)], seed=0, d=8)
        assert len(reports) == 4 + 3
        plain = [r for r in reports if r.model == "plain"]
        assert [r.layer for r in plain] == [0, 1, 2, 3]

    def test_same_seed_shares_layer0(self, ring_split):
        # both configs start from the identical seeded initialization
        reports = oversmoothing_report(ring_split, [("plain", 2), ("ours", 3)], seed=1, d=8)
        zero = [r for r in reports if r.layer == 0]
        assert zero[0].user_sim == zero[1].user_sim
        assert zero[0].item_sim == zero[1].item_sim

    def test_deterministic(self, ring_split):
        a = oversmoothing_report(ring_split, [("plain", 2)], seed=5, d=8)
        b = oversmoothing_report(ring_split, [("plain", 2)], seed=5, d=8)
        assert [(r.user_sim, r.item_sim) for r in a] == [(r.user_sim, r.item_sim) for r in b]

    def test_unknown_tag(self, ring_split):
        with pytest.raises(ConfigError):
            oversmoothing_report(ring_split, [("mystery", 2)], seed=0, d=8)

    def test_tsv_format(self, ring_split):
        reports = oversmoothing_report(ring_split, [("plain", 1)], seed=0, d=8)
        text = report_tsv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == "model\tlayer\tuser_sim\titem_sim"
        assert len(lines) == 3
        cells = lines[1].split("\t")
        assert cells[0] == "plain" and cells[1] == "0"
        float(cells[2]), float(cells[3])  # parseable

    def test_deep_plain_approaches_collapse(self, ring_split):
        reports = oversmoothing_report(ring_split, [("plain", 8)], seed=0, d=8)
        by_layer = {r.layer: r for r in reports}
        assert by_layer[8].user_sim > by_layer[1].user_sim
        assert by_layer[8].user_sim > 0.98
