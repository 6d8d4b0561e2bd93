import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dgcf import evaluate, graph
from dgcf.data import DatasetSplit, RawInteractions, split_train_test
from dgcf.errors import ConfigError, DataError
from dgcf.evaluate import evaluate_model, oversmoothing_report, rank_items, report_tsv, \
    smoothness
from dgcf.graph import InteractionMatrix
from dgcf.model import score_all_items
from helpers import naive_evaluate, naive_ndcg, naive_rank, naive_recall, \
    naive_smoothness, random_interactions


def one_user_split(ranking, test) -> tuple[np.ndarray, DatasetSplit]:
    """(e_star, split) of one user whose rankable items are `ranking`, scored in
    that order, then the test items outside it at score 0; every other item,
    the last one included, is a train item."""
    n = max([*ranking, *test]) + 2
    scores = np.zeros(n)
    scores[ranking] = np.arange(len(ranking), 0, -1)
    train = [(0, i) for i in range(n) if i not in ranking and i not in test]
    split = DatasetSplit(train=InteractionMatrix.from_pairs(1, n, train), test=[sorted(test)],
                         user_map={}, item_map={}, seed=0)
    return np.concatenate(([1.0], scores))[:, None], split


@pytest.mark.parametrize("ranking,test,k,recall,ndcg", [
    pytest.param([3, 1, 2], {1, 2, 3}, 3, 1.0, 1.0, id="perfect"),
    pytest.param([5, 1], {1, 9}, 2, 0.5, (1 / math.log2(3)) / (1 + 1 / math.log2(3)), id="half"),
    pytest.param([4, 5], {1, 2}, 2, 0.0, 0.0, id="none"),
    pytest.param([7, 8, 1], {1}, 2, 0.0, 0.0, id="hit_past_k"),
    pytest.param([5, 1, 2], {5}, 20, 1.0, 1.0, id="hit_at_top"),
    # DCG = 1/log2(3), IDCG = 1
    pytest.param([9, 5, 8], {5}, 3, 1.0, 1 / math.log2(3), id="rank_2"),
    # 3 test items, k=2: IDCG uses only the first two discount slots
    pytest.param([1, 2], {1, 2, 3}, 2, 2 / 3, 1.0, id="ideal_truncation"),
    pytest.param([4], {1}, 1, 0.0, 0.0, id="miss"),
])
def test_hand_computed_metrics(ranking, test, k, recall, ndcg):
    e_star, split = one_user_split(ranking, test)
    assert list(rank_items(score_all_items(e_star, 1, 0), split.train.user_items(0), k)) == \
        ranking[:k]
    got = evaluate_model(e_star, split, k=k)
    assert (got.recall_at_k, got.ndcg_at_k, got.users_evaluated) == \
        (naive_recall(ranking, test, k), naive_ndcg(ranking, test, k), 1)
    assert got.recall_at_k == pytest.approx(recall, abs=1e-12)
    assert got.ndcg_at_k == pytest.approx(ndcg, abs=1e-12)


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

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_on_long_vectors(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 301))
        # a few levels give heavy ties at the k-th score; -0.0 ties 0.0
        levels = [-0.0, 0.0, 0.5, 0.5, -1.0, 1.0, np.inf, -np.inf, np.nan]
        scores = rng.choice(rng.choice(levels, size=int(rng.integers(1, 5))), size=n)
        spread = rng.random(n) < rng.random()
        scores[spread] = rng.normal(size=int(spread.sum()))
        n_ex = n if rng.random() < 0.05 else int(rng.integers(0, n + 1))
        exclude = rng.choice(n, size=n_ex, replace=False)
        k = int(rng.integers(1, 31)) if rng.random() < 0.8 else int(rng.integers(n, n + 4))
        assert list(rank_items(scores, exclude, k)) == naive_rank(scores, exclude, k)

    def test_non_finite_scores_are_excluded(self):
        scores = np.array([np.inf, 0.3, np.nan, -np.inf, 0.1, 0.2])
        assert list(rank_items(scores, np.array([5]), 2)) == [1, 4]
        assert list(rank_items(scores, np.array([], dtype=int), 9)) == [1, 5, 4]

    def test_negative_zero_ties_zero(self):
        top = rank_items(np.array([0.0, -1.0, -0.0, 0.0]), np.array([], dtype=int), 2)
        assert list(top) == [0, 2]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            rank_items(np.array([0.5, 0.2]), np.array([], dtype=int), k)


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

    def test_split_without_test_lists_is_refused(self, ring_split, tmp_path):
        from dgcf.data import load_split, save_split
        from dgcf.model import preset
        from dgcf.train import TrainConfig, fit

        save_split(ring_split, tmp_path, k_core=1)
        split = load_split(tmp_path, read_test=False)
        with pytest.raises(DataError, match="test lists were not read"):
            evaluate_model(np.zeros((split.m + split.n, 2)), split)
        config = TrainConfig(epochs=1, batches_per_epoch=1, batch_size=8, eval_every=1)
        with pytest.raises(DataError, match="test lists were not read"):
            fit(split, preset("bprmf", d=2), config)

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

    def test_no_test_items_rejected(self):
        e_star, split = one_user_split([1, 2], {2})
        split.test = [[]]
        with pytest.raises(DataError, match="no users with test interactions"):
            evaluate_model(e_star, split, k=2)

    def test_row_count_mismatch(self, ring_split):
        with pytest.raises(DataError):
            evaluate_model(np.zeros((5, 2)), ring_split, k=3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, ring_split, k):
        e_star = np.ones((ring_split.m + ring_split.n, 2))
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate_model(e_star, ring_split, k=k)

    @pytest.mark.parametrize("k", [1, 5, 20, 100])
    def test_same_metrics_whatever_the_block_size(self, ring_split, monkeypatch, k):
        rows = []

        def product(a, b, out):
            rows.append(len(a))
            return np.matmul(a, b, out=out)

        monkeypatch.setattr(evaluate, "_product", product)
        for split in (ring_split, _crowded_split()):
            # rounded embeddings force score ties
            e_star = np.round(np.random.default_rng(k).normal(size=(split.m + split.n, 4)), 1)
            want = naive_evaluate(e_star, split, k)
            users = want[2]
            for size in (1, 2, 3, users + 1):  # users + 1: one block holds every user
                monkeypatch.setattr(evaluate, "_BLOCK_SCORES", size * split.n)
                rows.clear()
                got = evaluate_model(e_star, split, k=k)
                assert rows == [size] * (users // size) + ([users % size] if users % size else [])
                assert (got.recall_at_k, got.ndcg_at_k, got.users_evaluated) == want

    @pytest.mark.parametrize("k", [10, 20, 50])
    def test_many_hits_are_summed_left_to_right(self, k):
        # users whose lists are mostly test items: a DCG summed in another
        # order than the per-user sum (pairwise, say) differs in the last bits
        rng = np.random.default_rng(k)
        m, n = 8, 60
        train, test, e_star = [], [], np.zeros((m + n, m))
        e_star[:m] = np.eye(m)  # score(u, i) is e_star[m + i, u]
        for u in range(m):
            items = rng.permutation(n).tolist()
            train += [(u, i) for i in items[:5]]
            test.append(sorted(items[5:35]))
            e_star[m:, u] = rng.random(n)
            e_star[m + np.array(test[-1]), u] += 0.6
        split = DatasetSplit(train=InteractionMatrix.from_pairs(m, n, train), test=test,
                             user_map={}, item_map={}, seed=0)
        got = evaluate_model(e_star, split, k=k)
        assert (got.recall_at_k, got.ndcg_at_k, got.users_evaluated) == \
            naive_evaluate(e_star, split, k)


def _crowded_split() -> DatasetSplit:
    """Every user has 1 to 3 rankable items, so at k >= 3 ranked lists come up
    short of k; test sets hold 1 to 3 of those items."""
    rng = np.random.default_rng(11)
    m, n = 9, 7
    train, test = [], []
    for u in range(m):
        items = rng.permutation(n).tolist()
        free = int(rng.integers(1, 4))
        train += [(u, i) for i in items[free:]]
        test.append(sorted(items[:int(rng.integers(1, free + 1))]))
    return DatasetSplit(train=InteractionMatrix.from_pairs(m, n, train), test=test,
                        user_map={}, item_map={}, seed=0)


def _split_with_train(m: int, n: int, pairs) -> DatasetSplit:
    """A split holding `pairs` as train items; _top_k reads no test items."""
    return DatasetSplit(train=InteractionMatrix.from_pairs(m, n, pairs),
                        test=[[] for _ in range(m)], user_map={}, item_map={}, seed=0)


def _blocked_fixture(rng: np.random.Generator, kind: str, d: int | None = None):
    """(e_star, split, k) for _top_k: score ties, zero rows, users with every
    item excluded, k = 1 and k past the rankable items."""
    m, n = int(rng.integers(1, 12)), int(rng.integers(1, 40))
    d = d or int(rng.choice([1, 2, 7, 8, 17, 64]))
    E = rng.normal(size=(m + n, d))
    if kind == "rounded":  # few distinct values: exact score ties
        E = np.round(E, 1)
    elif kind == "cancelling":
        # item columns h..2h nearly negate columns 0..h and the user repeats
        # them, so scores are small sums of large terms that round differently
        h = d // 2
        E *= 10.0 ** rng.integers(0, 9, size=d)
        E[m:, h:2 * h] = -E[m:, :h] + rng.normal(size=(n, h))
        E[:m, h:2 * h] = E[:m, :h]
    elif kind == "huge":  # products overflow: every user takes the reference
        E *= 1e160
    if kind != "huge":
        zero = rng.random(m + n) < 0.15
        E[zero] = 0.0
    dup = rng.integers(0, n, size=int(rng.integers(0, n + 1)))
    E[m + dup] = E[m + rng.integers(0, n, size=len(dup))]  # duplicated item rows
    pairs = [(u, int(i)) for u in range(m) for i in rng.choice(n, size=int(rng.integers(0, n)),
                                                               replace=False)]
    if rng.random() < 0.3:
        pairs += [(int(rng.integers(m)), i) for i in range(n)]  # a user with nothing rankable
    k = int(rng.choice([1, rng.integers(1, n + 1), n, n + 3]))
    return E, _split_with_train(m, n, pairs), k


def _reference(e_star, split, k) -> list[list[int]]:
    return [rank_items(score_all_items(e_star, split.m, u), split.train.user_items(u), k).tolist()
            for u in range(split.m)]


def _blocked(e_star, split, k, block_users) -> tuple[list[list[int]], int]:
    """_top_k for every user, block_users to a block: (lists, users ranked by
    the reference fallback)."""
    fallback = []

    def scores(e, m, u):
        fallback.append(u)
        return score_all_items(e, m, u)

    with mock.patch.object(evaluate, "_BLOCK_SCORES", block_users * split.n), \
            mock.patch.object(evaluate, "score_all_items", scores):
        tops = evaluate._top_k(e_star, split, np.arange(split.m), k)
    assert tops.dtype == np.int64 and tops.shape == (split.m, min(k, split.n))
    lists = [row[:np.sum(row >= 0)] for row in tops]  # each row: its list, then only -1s
    assert all((top >= 0).all() and (row[len(top):] == -1).all() for row, top in zip(tops, lists))
    return [top.tolist() for top in lists], len(fallback)


class TestBlockedTopK:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference's overflow
    @pytest.mark.parametrize("kind", ["normal", "rounded", "cancelling", "huge"])
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_for_every_user(self, kind, seed):
        rng = np.random.default_rng(seed)
        e_star, split, k = _blocked_fixture(rng, kind)
        got, fallback = _blocked(e_star, split, k, int(rng.integers(1, split.m + 2)))
        assert got == _reference(e_star, split, k)
        assert fallback == (split.m if kind == "huge" else 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference's overflow
    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["normal", "rounded", "cancelling", "huge"])
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])  # force() is idempotent
    def test_same_lists_and_metrics_for_any_range_count(self, ranges, count, kind, seed):
        ranges(count)
        rng = np.random.default_rng(seed)
        e_star, split, k = _blocked_fixture(rng, kind)
        split.test = [sorted(rng.choice(split.n, size=int(rng.integers(0, min(4, split.n + 1))),
                                        replace=False).tolist()) for _ in range(split.m)]
        split.test[0] = split.test[0] or [0]
        block_users = int(rng.integers(1, split.m + 2))
        used = []

        def run_ranges(bounds, body):
            used.append(len(bounds) - 1)
            return graph.run_ranges(bounds, body)

        with mock.patch.object(evaluate, "run_ranges", run_ranges):
            got, fallback = _blocked(e_star, split, k, block_users)
            assert got == _reference(e_star, split, k)
            blocks = -(-(split.m - fallback) // block_users)
            assert used == [1] if count == 1 or blocks < 2 else 2 <= used[0] <= min(count, blocks)
            with mock.patch.object(evaluate, "_BLOCK_SCORES", block_users * split.n):
                metrics = evaluate_model(e_star, split, k)
        assert (metrics.recall_at_k, metrics.ndcg_at_k, metrics.users_evaluated) == \
            naive_evaluate(e_star, split, k)

    def test_cancelling_rows_round_differently_in_blas(self):
        # the fixtures above do exercise BLAS scores that differ from np.sum's
        e_star, split, _ = _blocked_fixture(np.random.default_rng(3), "cancelling", d=64)
        m = split.m
        blas = e_star[:m] @ e_star[m:].T
        exact = np.array([score_all_items(e_star, m, u) for u in range(m)])
        assert np.mean(blas != exact) > 0.5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference's inf and nan
    def test_only_unsafe_users_take_the_reference(self):
        rng = np.random.default_rng(5)
        m, n = 8, 20
        e_star = np.round(rng.normal(size=(m + n, 16)), 1)
        e_star[m] = 1.0  # the largest item 1-norm is at least 16
        e_star[1], e_star[4], e_star[6] = np.nan, 1e307, np.inf  # 1e307: bound near overflow
        split = _split_with_train(m, n, random_interactions(rng, m, n, 5))
        for k in (1, 5, n):
            got, fallback = _blocked(e_star, split, k, 3)
            assert got == _reference(e_star, split, k) and fallback == 3
        e_star[m + 3] = np.nan  # a non-finite item row: every user takes the reference
        got, fallback = _blocked(e_star, split, 5, 3)
        assert got == _reference(e_star, split, 5) and fallback == m

    @pytest.mark.parametrize("order", ["F", "float32"])
    def test_other_layouts_take_the_reference(self, order):
        e_star, split, k = _blocked_fixture(np.random.default_rng(9), "cancelling")
        e_star = np.asfortranarray(e_star) if order == "F" else e_star.astype(np.float32)
        got, fallback = _blocked(e_star, split, k, 2)
        assert got == _reference(e_star, split, k) and fallback == split.m

    @pytest.mark.parametrize("kind", ["rounded", "cancelling"])
    @pytest.mark.parametrize("sign", ["against-ranking", "random"])
    @pytest.mark.parametrize("move", ["rounding-gap", "delta"])
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_any_product_within_the_bound_gives_the_same_lists(self, kind, sign, move, seed):
        """The product's scores are np.sum's moved by up to the most that two
        float evaluations of a dot product can differ, 2 gamma_d sum_j
        |x_j y_j| plus underflow, so the lists hold for every BLAS, not only
        the one at hand; and by up to delta_u itself, exactly, so the filter
        holds for any score within the bound it computes."""
        rng = np.random.default_rng(seed)
        e_star, split, k = _blocked_fixture(rng, kind)
        d = e_star.shape[1]
        u = np.finfo(np.float64).eps / 2

        def product(a, b, out):
            items = b.T
            exact = np.array([np.sum(items * x, axis=1) for x in a])
            if move == "rounding-gap":
                gap = 2 * (d * u / (1 - d * u)) * (np.abs(a) @ np.abs(b)) * (1 + 1e-9) \
                    + d * np.finfo(np.float64).smallest_subnormal
            else:
                gap = evaluate._rounding_bound(a, items)[0][:, None]
            if sign == "random":
                step = rng.choice([-1.0, 1.0], size=exact.shape) * rng.random(exact.shape) ** 0.1
            else:  # the top k of all items sink, the rest rise
                step = np.ones_like(exact)
                top = np.argsort(-exact, axis=1, kind="stable")[:, :k]
                np.put_along_axis(step, top, -1.0, axis=1)
            out[...] = exact + step * gap
            for i, j in np.ndindex(out.shape if move == "delta" else (0, 0)):
                while abs(Fraction(out[i, j]) - Fraction(exact[i, j])) > Fraction(gap[i, 0]):
                    out[i, j] = np.nextafter(out[i, j], exact[i, j])  # back within delta
            return out

        with mock.patch.object(evaluate, "_product", product):
            got, fallback = _blocked(e_star, split, k, int(rng.integers(1, split.m + 2)))
        assert got == _reference(e_star, split, k) and fallback == 0


@pytest.mark.parametrize("d", [0, 1, 8, 64])
def test_product_is_a_at_b_in_gemms_of_at_most_a_block(d, monkeypatch):
    # every size around BLOCK_ROWS = 64, of users and of items, and zero-width rows
    rng = np.random.default_rng(d)
    shapes = []
    real = np.matmul

    def matmul(x, y, out):
        shapes.append((x.shape[-2], y.shape[-1]))
        return real(x, y, out=out)

    monkeypatch.setattr(np, "matmul", matmul)
    for U, n in itertools.product((1, 63, 64, 65, 129), (1, 63, 64, 65, 200)):
        a = rng.normal(size=(U, d)) * 10.0 ** rng.integers(-3, 4, size=(U, 1))
        items = rng.normal(size=(n, d))
        out = np.full((U, n), np.nan)
        shapes.clear()
        assert evaluate._product(a, np.ascontiguousarray(items.T), out) is out
        assert shapes and max(max(s) for s in shapes) <= graph.BLOCK_ROWS
        delta = evaluate._rounding_bound(a, items)[0][:, None]
        assert np.all(np.abs(out - real(a, items.T)) <= delta)


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
