import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import _synth
from adaptreg import evaluate
from adaptreg.data import _build_split, chronological_split, frequency_groups
from adaptreg.errors import AdaptRegError, ConfigError
from adaptreg.evaluate import (
    BLOCK_ELEMENTS, ITEM_METRIC_MODES, MetricReport, auc_from_scores, corpus_auc, corpus_metrics,
    group_improvement_report, user_auc, user_topk, user_topk_ranks,
)
from adaptreg.mf import Embeddings

from _synth import make_log
from conftest import (
    average_ranks, oracle_corpus_auc, oracle_corpus_metrics,
    oracle_group_improvement_report, oracle_user_auc, oracle_user_topk_ranks,
    random_instance, same_bytes,
)


Z = np.empty(0, dtype=np.int64)


def make_split(num_items, train, val, test):
    """Hand-built single or multi user split from item-id lists."""
    U = len(train)
    arr = lambda lists: [np.asarray(x, dtype=np.int64) for x in lists]
    times = [Z] * U
    return _build_split(U, num_items, arr(train), arr(val), arr(test),
                        times, times, times, degenerate=[])


def rank_emb(item_scores, dim_pad=0):
    """1-D embeddings so that item i scores item_scores[i] for user 0."""
    scores = np.asarray(item_scores, dtype=float).reshape(-1, 1)
    return Embeddings(user=np.ones((1, 1)), item=scores)


class TestAverageRanks:
    def test_no_ties(self):
        assert list(average_ranks(np.array([0.1, 0.5, 0.3]))) == [1, 3, 2]

    def test_all_tied(self):
        assert list(average_ranks(np.array([2.0, 2.0, 2.0]))) == [2, 2, 2]

    def test_midrank_pair(self):
        assert list(average_ranks(np.array([1.0, 3.0, 3.0, 5.0]))) == [1, 2.5, 2.5, 4]


class TestAuc:
    def test_perfect_separation(self):
        assert auc_from_scores(np.array([2.0, 3.0]), np.array([0.0, 1.0])) == 1.0

    def test_inverted(self):
        assert auc_from_scores(np.array([0.0]), np.array([1.0, 2.0])) == 0.0

    def test_all_tied_half(self):
        assert auc_from_scores(np.array([1.0, 1.0]), np.array([1.0, 1.0, 1.0])) == 0.5

    def test_hand_three_quarters(self):
        # pos {0.9, 0.4} vs neg {0.5, 0.1}: 3 of 4 pairs correctly ordered
        assert auc_from_scores(np.array([0.9, 0.4]), np.array([0.5, 0.1])) == 0.75

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_brute_force_pairs(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.choice(np.linspace(0, 1, 20), size=8)   # forced ties
        neg = rng.choice(np.linspace(0, 1, 20), size=13)
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert auc_from_scores(pos, neg) == pytest.approx(wins / (8 * 13), rel=1e-12)


class TestUserAuc:
    def test_training_items_excluded(self):
        # item 1 (train) outranks everything but must not count as a negative
        split = make_split(4, [[1]], [[]], [[0]])
        emb = rank_emb([0.5, 0.9, 0.2, 0.1])
        assert user_auc(emb, split, 0, "test") == 1.0

    def test_no_positives_excluded(self):
        split = make_split(3, [[0]], [[]], [[]])
        assert user_auc(rank_emb([1, 2, 3]), split, 0, "test") is None

    def test_validation_stage_excludes_train_only(self):
        split = make_split(4, [[0]], [[1]], [[2]])
        # validation candidates: {1, 2, 3}; positive 1 beats 2 and 3
        emb = rank_emb([9.0, 0.8, 0.5, 0.2])
        assert user_auc(emb, split, 0, "validation") == 1.0
        # test candidates: {2, 3}; positive 2 beats 3
        assert user_auc(emb, split, 0, "test") == 1.0


class TestTopK:
    def test_no_positives_excluded(self):
        split = make_split(3, [[0]], [[]], [[]])
        assert user_topk(rank_emb([1, 2, 3]), split, 0, 2) is None

    def test_rank_one_hit(self):
        split = make_split(5, [[]], [[]], [[0]])
        hr, ndcg = user_topk(rank_emb([5, 1, 2, 3, 4]), split, 0, 1)
        assert hr == 1.0 and ndcg == 1.0

    def test_just_outside_k(self):
        split = make_split(5, [[]], [[]], [[0]])
        # item 0 ranks 5th
        hr, ndcg = user_topk(rank_emb([1, 2, 3, 4, 5]), split, 0, 4)
        assert hr == 0.0 and ndcg == 0.0

    def test_two_positives_hand_value(self):
        # ranks 1 and 3 at k=50: HR = 1, NDCG = (1 + 1/log2(4)) / 2 = 0.75
        split = make_split(60, [[]], [[]], [[0, 1]])
        scores = -np.arange(60, dtype=float)
        scores[[0, 1]] = [99.0, 50.5]  # ranks 1 and 3
        scores[2] = 60.0               # rank 2
        hr, ndcg = user_topk(rank_emb(scores), split, 0, 50)
        assert hr == 1.0
        assert ndcg == pytest.approx(0.75, rel=1e-12)

    def test_tie_broken_by_item_id(self):
        split = make_split(3, [[]], [[]], [[2]])
        # all scores equal: order by id, item 2 ranks 3rd
        ranks = user_topk_ranks(rank_emb([1.0, 1.0, 1.0]), split, 0)
        assert list(ranks) == [3]
        hr, _ = user_topk(rank_emb([1.0, 1.0, 1.0]), split, 0, 2)
        assert hr == 0.0

    def test_excluded_items_shift_ranks(self):
        # train item 0 has the top score but is out of the candidate set
        split = make_split(3, [[0]], [[]], [[1]])
        ranks = user_topk_ranks(rank_emb([9.0, 2.0, 1.0]), split, 0)
        assert list(ranks) == [1]

    def test_monotone_in_k_and_ndcg_below_hr(self):
        emb, rng = random_instance(0, num_users=6, num_items=30)
        train = [sorted(rng.choice(30, 4, replace=False).tolist()) for _ in range(6)]
        test = [sorted(set(rng.choice(30, 3, replace=False)) - set(t))
                for t, _ in zip(train, range(6))]
        split = make_split(30, train, [[]] * 6, test)
        for u in range(6):
            if not len(split.test[u]):
                continue
            prev_hr = prev_ndcg = 0.0
            for k in (1, 3, 5, 10, 30):
                hr, ndcg = user_topk(emb, split, u, k)
                assert hr >= prev_hr and ndcg >= prev_ndcg
                assert ndcg <= hr + 1e-12
                prev_hr, prev_ndcg = hr, ndcg

    def test_monotone_transform_invariance(self):
        emb, _ = random_instance(1, num_users=1, num_items=12)
        split = make_split(12, [[0]], [[]], [[3, 7]])
        base = user_topk_ranks(emb, split, 0)
        warped = Embeddings(user=emb.user * 3.0, item=emb.item)  # scores scaled
        assert (user_topk_ranks(warped, split, 0) == base).all()


class TestCorpusMetrics:
    def test_mean_of_equal_users(self):
        # two identical users: corpus metric equals the per-user value
        split = make_split(4, [[], []], [[], []], [[0], [0]])
        emb = Embeddings(user=np.ones((2, 1)), item=np.array([[4.], [3.], [2.], [1.]]))
        rep = corpus_metrics(emb, split, ks=(1,))
        assert rep.hr[1] == 1.0 and rep.ndcg[1] == 1.0
        assert rep.auc == 1.0
        assert len(rep.user_ids) == 2

    def test_skips_users_without_positives(self):
        split = make_split(4, [[0], []], [[], []], [[], [1]])
        emb = Embeddings(user=np.ones((2, 1)), item=np.ones((4, 1)))
        rep = corpus_metrics(emb, split, ks=(2,))
        assert rep.skipped_users == 1
        assert list(rep.user_ids) == [1]

    @pytest.mark.filterwarnings("error")
    def test_no_scored_user_gives_nan_without_warning(self):
        # the one user has no test positive: every corpus mean is over none
        split = make_split(4, [[0]], [[1]], [[]])
        emb = Embeddings(user=np.ones((1, 1)), item=np.arange(4.0).reshape(-1, 1))
        rep = corpus_metrics(emb, split, ks=(1, 3))
        assert rep.skipped_users == 1 and len(rep.user_ids) == 0
        assert np.isnan([rep.auc, rep.hr[1], rep.hr[3], rep.ndcg[1], rep.ndcg[3]]).all()

    def test_item_specific_mode(self):
        # item 0 hits for user 0, misses for user 1 -> item HR 0.5
        split = make_split(3, [[], []], [[], []], [[0], [0]])
        emb = Embeddings(user=np.array([[1.0], [-1.0]]),
                         item=np.array([[3.], [2.], [1.]]))
        rep = corpus_metrics(emb, split, ks=(1,), item_metric_mode="item-specific")
        n = list(rep.item_ids[1]).index(0)
        assert rep.item_hr[1][n] == 0.5

    def test_user_average_mode(self):
        # under user averaging the item inherits each test user's whole-user HR
        split = make_split(3, [[], []], [[], []], [[0, 1], [0]])
        emb = Embeddings(user=np.array([[1.0], [1.0]]),
                         item=np.array([[3.], [2.], [1.]]))
        rep = corpus_metrics(emb, split, ks=(1,), item_metric_mode="user-average")
        n = list(rep.item_ids[1]).index(0)
        # user 0's HR@1 = 0.5 (one of two positives at rank 1), user 1's = 1
        assert rep.item_hr[1][n] == pytest.approx(0.75)

    def test_corpus_auc_matches_report(self):
        emb, rng = random_instance(2, num_users=8, num_items=20)
        lists = []
        for u in range(8):
            perm = rng.permutation(20)
            lists.append((sorted(perm[:5].tolist()), sorted(perm[5:8].tolist()),
                          sorted(perm[8:10].tolist())))
        split = make_split(20, [l[0] for l in lists], [l[1] for l in lists],
                           [l[2] for l in lists])
        rep = corpus_metrics(emb, split, ks=(5,), stage="test")
        assert corpus_auc(emb, split, stage="test") == pytest.approx(rep.auc, rel=1e-12)


def integer_instance():
    """Small-integer factors: exact scores and many forced ties. Every test
    candidate of user 6 is a positive (ranks but no AUC); user 7 has no test
    positives."""
    rng = np.random.default_rng(11)
    U, I = 8, 40
    train, val, test = [], [], []
    for u in range(U - 2):
        perm = rng.permutation(I)
        train.append(sorted(perm[:6].tolist()))
        val.append(perm[6:10].tolist())
        test.append(perm[10:15].tolist())
    train += [list(range(37)), list(range(5))]
    val += [[37], [5, 6]]
    test += [[38, 39], []]
    emb = Embeddings(user=rng.integers(-2, 3, (U, 3)).astype(float),
                     item=rng.integers(-2, 3, (I, 3)).astype(float))
    return emb, make_split(I, train, val, test)


def infinite_instance():
    """1-D scores with +inf and -inf ties among candidates and positives."""
    rng = np.random.default_rng(12)
    U, I = 5, 30
    item = rng.integers(-3, 4, I).astype(float)
    item[[2, 9, 17]] = np.inf
    item[[4, 5, 21]] = -np.inf
    user = np.array([[1.0], [-1.0], [2.0], [0.5], [-3.0]])
    train = [[0, 1], [9], [3, 4], [], [10, 11, 12]]
    val = [[2, 7], [5, 17], [21, 6], [9], [4]]
    test = [[9, 4, 13], [2, 21], [17, 5], [2, 4, 8], [9, 0]]
    return Embeddings(user=user, item=item.reshape(-1, 1)), make_split(I, train, val, test)


def synthetic_instance():
    """A chronological split of the synthetic corpus with float factors."""
    split = chronological_split(make_log(num_users=60, num_items=90, seed=4))
    emb, _ = random_instance(5, split.num_users, split.num_items, dim=6)
    return emb, split


def popular_instance():
    """Items shared by many users' positives: item groups of 1 to about 300
    values, past the sizes where numpy's pairwise summation changes form."""
    rng = np.random.default_rng(13)
    U, I = 320, 60
    train, val, test = [], [], []
    for u in range(U):
        perm = rng.permutation(np.arange(10, I))
        train.append(sorted(perm[:3].tolist()))
        # items 0-9 are each a positive of a growing share of the users
        hot = [i for i in range(10) if rng.random() < (i + 1) / 10]
        val.append(hot[: len(hot) // 2] + perm[3:5].tolist())
        test.append(hot[len(hot) // 2:] + perm[5:7].tolist())
    emb, _ = random_instance(6, U, I, dim=5)
    return emb, make_split(I, train, val, test)


def seed3_instance():
    """``tests/_synth.make_split(seed=3)`` with float factors."""
    split = _synth.make_split(seed=3)
    emb, _ = random_instance(3, split.num_users, split.num_items, dim=8)
    return emb, split


def tie_base(seed, U=24, I=40, dim=4):
    """Random factors on a hand-built split: per user 4 train, 3 validation
    and 3 test items, each list ascending."""
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(I) for _ in range(U)]
    lists = ([sorted(p[a:b].tolist()) for p in perms] for a, b in ((0, 4), (4, 7), (7, 10)))
    emb, _ = random_instance(seed, U, I, dim)
    return emb, make_split(I, *lists)


def zero_rows_instance():
    emb, split = tie_base(21)
    emb.user[[0, 5, 11, 23]] = 0.0
    return emb, split


def duplicate_negative_instance():
    """One item's row copied to another item: for a user with one of them
    as a positive and the other as a negative the two tie."""
    emb, split = tie_base(22)
    emb.item[[7, 19]] = emb.item[[3, 30]]
    return emb, split


def duplicate_positives_instance():
    """Rows copied between two validation positives of user 0 and between
    two test positives of user 1."""
    emb, split = tie_base(23)
    emb.item[split.val[0][1]] = emb.item[split.val[0][0]]
    emb.item[split.test[1][2]] = emb.item[split.test[1][0]]
    return emb, split


def inf_factors_instance():
    """A +inf item coordinate and a -inf user coordinate, no NaN score."""
    emb, split = tie_base(24)
    emb.item[5, 0] = np.inf
    emb.user[2, 0] = -np.inf
    return emb, split


def near_ties_instance():
    """Item pairs whose exact scores for the one user row are half an ulp to
    two ulps apart: the matrix product and the matrix-vector product round
    them differently and order some pairs differently. Each user has one
    positive per stage, whose partner stays a candidate; users 0 and 1 hold
    a whole pair as positives."""
    rng = np.random.default_rng(25)
    U, I, K = 40, 400, 32
    u = rng.normal(0, 1, K)
    base = rng.normal(0, 1, (I // 2, K))
    k = rng.integers(0, K, I // 2)
    step = rng.choice([-1.0, 1.0], I // 2) * rng.uniform(0.5, 2, I // 2)
    item = np.repeat(base, 2, axis=0)
    item[1::2][np.arange(I // 2), k] += step * np.spacing(np.abs(base @ u)) / u[k]
    lists = [2 * rng.permutation(I // 2)[:4] for _ in range(U)]
    val, test = [[l[2]] for l in lists], [[l[3]] for l in lists]
    val[0].append(val[0][0] + 1)
    test[1].append(test[1][0] + 1)
    split = make_split(I, [sorted(l[:2].tolist()) for l in lists], val, test)
    return Embeddings(user=np.tile(u, (U, 1)), item=item), split


def subnormal_instance():
    """Synthetic factors scaled so that their products are subnormal."""
    emb, split = synthetic_instance()
    return Embeddings(user=emb.user * 2.0**-520, item=emb.item * 2.0**-520), split


def tiny_norms_instance():
    """The near ties with every score scaled by 2^-60, exactly: the products
    stay normal but the users' squared norms underflow to zero."""
    emb, split = near_ties_instance()
    return Embeddings(user=emb.user * 2.0**-560, item=emb.item * 2.0**500), split


def wide_instance(seed=26, U=12, I=8192, dim=8):
    """Random factors on a wide catalog: per user 20 train items and 1 to 3
    validation and 1 to 3 test positives, drawn from items 10 to I - 2.
    User 0's first positive of each stage shares its item row with a
    negative: item 0, of lower id, and item I - 1, of higher id."""
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 4, (U, 2))
    drawn = [10 + rng.choice(I - 11, 28, replace=False) for _ in range(U)]
    train = [np.sort(d[:20]) for d in drawn]
    val = [d[20:20 + n[u, 0]] for u, d in enumerate(drawn)]
    test = [d[24:24 + n[u, 1]] for u, d in enumerate(drawn)]
    emb, _ = random_instance(seed, U, I, dim)
    for pos, neg in ((val[0][0], 0), (test[0][0], I - 1)):
        emb.item[neg] = emb.item[pos]
    return emb, make_split(I, train, val, test)


def wide_infinite_instance():
    """The wide instance with every user row positive in its first
    coordinate, so that items 5 and 8 score +inf and items 6 and 9 -inf for
    every user, and item 7 NaN, which every user trains on. Users 0 to 3 hold
    an infinite positive that ties an infinite negative."""
    emb, split = wide_instance(27)
    emb.user[:, 0] = np.abs(emb.user[:, 0]) + 0.1
    emb.item[[5, 8], 0] = np.inf
    emb.item[[6, 9], 0] = -np.inf
    emb.item[7, 0] = np.nan
    U = split.num_users
    add = lambda lists, extra: [np.append(lists[u], extra.get(u, [])).astype(np.int64)
                                for u in range(U)]
    train = [np.append(7, split.train[u]) for u in range(U)]
    return emb, make_split(split.num_items, train, add(split.val, {0: [5], 1: [6]}),
                           add(split.test, {2: [5], 3: [6, 8]}))


def wide_float32_instance():
    """The wide instance with float32 factors."""
    emb, split = wide_instance()
    return Embeddings(user=emb.user.astype(np.float32),
                      item=emb.item.astype(np.float32)), split


def wide_heavy_instance(seed=28, U=12, I=8192, dim=8):
    """The wide instance's users, with heavy ones among them. User 0 holds
    16 validation and 16 test positives; the first of each stage shares its
    item row with a negative of lower id (items 1 and 2), the second with
    one of higher id (items I - 2 and I - 3). User 2's validation positives
    are every validation candidate but its one test item, and user 3's test
    positives every test candidate but item I - 1."""
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 4, (U, 2))
    n[0] = 16
    drawn = [10 + rng.choice(I - 20, 52, replace=False) for _ in range(U)]
    train = [np.sort(d[:20]) for d in drawn]
    val = [d[20:20 + n[u, 0]] for u, d in enumerate(drawn)]
    test = [d[36:36 + n[u, 1]] for u, d in enumerate(drawn)]
    rest = lambda *taken: rng.permutation(np.setdiff1d(np.arange(I), np.concatenate(taken)))
    test[2] = test[2][:1]
    val[2] = rest(train[2], test[2])
    test[3] = rest(train[3], val[3], [I - 1])
    emb, _ = random_instance(seed, U, I, dim)
    for pos, neg in zip((val[0][0], val[0][1], test[0][0], test[0][1]), (1, I - 2, 2, I - 3)):
        emb.item[neg] = emb.item[pos]
    return emb, make_split(I, train, val, test)


def float32_ties_instance():
    """For user 0, the validation and the test positive each get a negative
    whose item row is the positive's scaled by 1 ± 2^-30: its score lies
    above the positive's band in float64 but rounds to the positive's
    float32 value."""
    emb, split = tie_base(29)
    taken = np.concatenate([split.train[0], split.val[0], split.test[0]])
    free = np.setdiff1d(np.arange(split.num_items), taken)
    for pos, neg in ((split.val[0][0], free[0]), (split.test[0][0], free[1])):
        emb.item[neg] = emb.item[pos] * (1 + np.sign(emb.item[pos] @ emb.user[0]) * 2.0**-30)
    return emb, split


def float32_range_instance():
    """Random factors scaled by powers of two, so that users 9 to 12 and 23
    score some items past the float32 range (3.4e38), finite in float64:
    among them users 11 and 12 a validation positive, and user 12 a test
    positive."""
    emb, split = tie_base(30)
    emb.user *= 2.0 ** (56 + np.arange(split.num_users) % 13)[:, None]
    emb.item *= 2.0**64
    return emb, split


FLOAT32_INSTANCES = {"float32-ties": float32_ties_instance,
                     "float32-range": float32_range_instance}

TIE_INSTANCES = {"zero-rows": zero_rows_instance,
                 "duplicate-negative": duplicate_negative_instance,
                 "duplicate-positives": duplicate_positives_instance,
                 "inf-factors": inf_factors_instance,
                 "near-ties": near_ties_instance,
                 "tiny-norms": tiny_norms_instance}

INSTANCES = {"integer": integer_instance, "infinite": infinite_instance,
             "synthetic": synthetic_instance, "popular": popular_instance,
             "seed3": seed3_instance, "subnormal": subnormal_instance,
             **TIE_INSTANCES, **FLOAT32_INSTANCES}

# 8192-item catalogs, one with heavy users
WIDE_INSTANCES = {"wide": wide_instance, "wide-infinite": wide_infinite_instance,
                  "wide-float32": wide_float32_instance, "wide-heavy": wide_heavy_instance}
INSTANCES.update(WIDE_INSTANCES)


def assert_same_report(got, want):
    for f in fields(MetricReport):
        x, y = getattr(got, f.name), getattr(want, f.name)
        if isinstance(x, dict):
            assert list(x) == list(y), f.name
            assert all(same_bytes(x[k], y[k]) for k in x), f.name
        else:
            assert same_bytes(x, y), f.name


class TestMatchesOracle:
    """The one-pass scoring core against the gather-and-rerank oracle."""

    @pytest.mark.parametrize("stage", ["validation", "test"])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_per_user_and_corpus_auc(self, name, stage):
        emb, split = INSTANCES[name]()
        for u in range(split.num_users):
            a, b = user_auc(emb, split, u, stage), oracle_user_auc(emb, split, u, stage)
            assert (a is None) == (b is None)
            assert a is None or same_bytes(a, b), (u, a, b)
            r, q = user_topk_ranks(emb, split, u, stage), oracle_user_topk_ranks(emb, split, u, stage)
            assert (r is None) == (q is None)
            assert r is None or same_bytes(r, q), (u, r, q)
        assert same_bytes(corpus_auc(emb, split, stage), oracle_corpus_auc(emb, split, stage))

    @pytest.mark.parametrize("mode", ["item-specific", "user-average"])
    @pytest.mark.parametrize("stage", ["validation", "test"])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_every_report_field(self, name, stage, mode):
        emb, split = INSTANCES[name]()
        ks = (1, 3, 10)
        got = corpus_metrics(emb, split, ks=ks, stage=stage, item_metric_mode=mode)
        want = oracle_corpus_metrics(emb, split, ks=ks, stage=stage, item_metric_mode=mode)
        assert_same_report(got, want)


def fallback_users(monkeypatch, emb, split, stage):
    """The users that ``corpus_auc`` and ``corpus_metrics`` each score
    through ``_score_user``; asserts that both fall back for the same ones."""
    calls = []
    real = evaluate._score_user
    monkeypatch.setattr(evaluate, "_score_user",
                        lambda e, s, u, st: calls.append(u) or real(e, s, u, st))
    corpus_auc(emb, split, stage)
    n = len(calls)
    corpus_metrics(emb, split, ks=(3,), stage=stage)
    monkeypatch.setattr(evaluate, "_score_user", real)
    assert calls[:n] == calls[n:]
    return calls[:n]


def affected_users(emb, split, stage):
    """Users with a positive and another candidate at ``stage`` whose order
    no band can certify: a zero or non-finite user row, a non-finite item
    row anywhere, or a positive whose item row equals or nearly equals
    another candidate's."""
    excluded, positives = evaluate._stage_lists(split, stage)
    finite_items = np.isfinite(emb.item).all()
    out = set()
    for u in range(split.num_users):
        cands = np.setdiff1d(np.arange(split.num_items),
                             np.concatenate([p[u] for p in excluded]))
        if len(positives[u]) == 0 or len(cands) < 2:
            continue
        row = emb.user[u]
        near = any(np.abs(emb.item[c] - emb.item[p]).max() <= 1e-9 * np.abs(emb.item[p]).max()
                   for p in positives[u] for c in cands if c != p)
        if not finite_items or not np.isfinite(row).all() or not row.any() or near:
            out.add(u)
    return out


def with_gaps(emb, split):
    """The split with every fourth user's validation and test positives
    removed (from user 1 on)."""
    U = split.num_users
    keep = lambda lists: [lists[u] if u % 4 != 1 else Z for u in range(U)]
    return emb, make_split(split.num_items, list(split.train), keep(split.val),
                           keep(split.test))


class TestCertifiedBlocks:
    """``_score_corpus`` certifies users from a block product and leaves the
    rest to ``_score_user``."""

    @pytest.mark.parametrize("stage", ["validation", "test"])
    @pytest.mark.parametrize("name", ["synthetic", "popular", "seed3"])
    def test_float_factors_certify_every_user(self, monkeypatch, name, stage):
        emb, split = INSTANCES[name]()
        assert fallback_users(monkeypatch, emb, split, stage) == []

    @pytest.mark.parametrize("stage", ["validation", "test"])
    @pytest.mark.parametrize("name", sorted(TIE_INSTANCES))
    def test_tied_users_fall_back(self, monkeypatch, name, stage):
        # bit-equality to the oracles: TestMatchesOracle
        emb, split = INSTANCES[name]()
        affected = affected_users(emb, split, stage)
        assert affected
        assert affected <= set(fallback_users(monkeypatch, emb, split, stage))

    @pytest.mark.parametrize("stage", ["validation", "test"])
    def test_float32_ties_fall_back(self, monkeypatch, stage):
        # user 0's negative clears its positive's band in float64, where the
        # scores alone would certify it, but not in the float32 sort keys
        emb, split = float32_ties_instance()
        affected = affected_users(emb, split, stage)
        assert 0 in affected
        assert affected <= set(fallback_users(monkeypatch, emb, split, stage))

    def test_non_float64_factors_use_the_per_user_path(self, monkeypatch):
        emb, split = synthetic_instance()
        emb = Embeddings(user=emb.user.astype(np.float32), item=emb.item.astype(np.float32))
        users = fallback_users(monkeypatch, emb, split, "test")
        assert users == list(range(split.num_users))

    @pytest.mark.parametrize("stage", ["validation", "test"])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_many_blocks(self, monkeypatch, name, stage):
        emb, split = with_gaps(*INSTANCES[name]())
        U = split.num_users
        rows = next(r for r in (2, 3, 5, 7) if U % r)
        monkeypatch.setattr(evaluate, "BLOCK_ELEMENTS", rows * split.num_items)
        assert U > 2 * rows  # several blocks, the last one partial
        assert len(split.val[1]) == len(split.test[1]) == 0  # in the first block
        assert same_bytes(corpus_auc(emb, split, stage), oracle_corpus_auc(emb, split, stage))
        assert_same_report(corpus_metrics(emb, split, ks=(1, 3), stage=stage),
                           oracle_corpus_metrics(emb, split, ks=(1, 3), stage=stage))


    @pytest.mark.parametrize("stage", ["validation", "test"])
    def test_one_user_per_block(self, monkeypatch, stage):
        # user 1 has no positives, so its block has none and is skipped
        emb, split = with_gaps(*INSTANCES["synthetic"]())
        monkeypatch.setattr(evaluate, "BLOCK_ELEMENTS", split.num_items)
        assert same_bytes(corpus_auc(emb, split, stage), oracle_corpus_auc(emb, split, stage))
        assert_same_report(corpus_metrics(emb, split, ks=(1, 3), stage=stage),
                           oracle_corpus_metrics(emb, split, ks=(1, 3), stage=stage))


def block_rows_instance(U, active, I=8, dim=4):
    """``U`` users on an ``I``-item catalog. Each has 2 train items, and the
    ``active`` ones 2 validation and 2 test items too, drawn from items 2
    on. Items 0 and 1 share one row; every fifth active user has both as its
    validation positives, and every fifth from the third on as its test
    positives, so each such user's two positives tie."""
    rng = np.random.default_rng(U)
    perms = rng.permuted(np.tile(np.arange(2, I), (U, 1)), axis=1)
    val, test = [[] for _ in range(U)], [[] for _ in range(U)]
    for n, u in enumerate(active):
        val[u] = [0, 1] if n % 5 == 0 else perms[u, 2:4].tolist()
        test[u] = [0, 1] if n % 5 == 2 else perms[u, 4:6].tolist()
    emb, _ = random_instance(U, U, I, dim)
    emb.item[1] = emb.item[0]
    return emb, make_split(I, np.sort(perms[:, :2]).tolist(), val, test)


class TestSortKeyWidths:
    """One block of each width of ``_score_corpus``'s row key: 1 byte up to
    256 rows and 2 bytes up to 65,536, both sorted by radix, then 4 bytes.
    Users whose tied positives must be rescored share the block with
    certified ones."""

    @pytest.mark.parametrize("stage", ["validation", "test"])
    @pytest.mark.parametrize("U, key", [(200, np.uint8), (1_000, np.uint16),
                                        (65_600, np.uint32)])
    def test_one_block_matches_the_oracle(self, monkeypatch, U, key, stage):
        # past 65,536 rows only the first and last 100 users have positives,
        # which keeps the per-user oracle short; rows 65,536 on would alias
        # rows 0 to 63 in a 2-byte key
        active = list(range(U)) if U < 2**16 else list(range(100)) + list(range(U - 100, U))
        emb, split = block_rows_instance(U, active)
        monkeypatch.setattr(evaluate, "BLOCK_ELEMENTS", U * split.num_items)
        assert np.min_scalar_type(U - 1) == key
        tied = [u for n, u in enumerate(active) if n % 5 == (0 if stage == "validation" else 2)]
        assert fallback_users(monkeypatch, emb, split, stage) == tied
        assert same_bytes(corpus_auc(emb, split, stage), oracle_corpus_auc(emb, split, stage))
        for mode in ITEM_METRIC_MODES:
            assert_same_report(
                corpus_metrics(emb, split, ks=(1, 3), stage=stage, item_metric_mode=mode),
                oracle_corpus_metrics(emb, split, ks=(1, 3), stage=stage, item_metric_mode=mode))


class TestKs:
    @pytest.mark.parametrize("ks", [(0,), (-3, 5), (5, 5), (10, 50, 10), (2.5,), (True,)])
    def test_rejected(self, ks):
        emb, split = integer_instance()
        with pytest.raises(ConfigError, match="ks must"):
            corpus_metrics(emb, split, ks=ks)

    def test_numpy_integers_accepted(self):
        emb, split = integer_instance()
        assert corpus_metrics(emb, split, ks=np.array([3, 1])).ks == (3, 1)


@pytest.mark.parametrize("mode", ["bogus", "Item-Specific", None])
def test_unknown_item_metric_mode_rejected(mode):
    emb, split = integer_instance()
    with pytest.raises(ConfigError, match="item_metric_mode"):
        corpus_metrics(emb, split, ks=(1,), item_metric_mode=mode)


class TestWorkingSet:
    @pytest.mark.parametrize("fn", [user_auc, user_topk_ranks])
    def test_peak_below_eight_score_vectors(self, fn):
        # a (n_cand, K) gather alone would be K score vectors
        I, K = 20_000, 64
        rng = np.random.default_rng(0)
        emb = Embeddings.init(1, I, K, 0.1, rng)
        perm = rng.permutation(I)
        split = make_split(I, [np.sort(perm[:300])], [perm[300:320]], [perm[320:340]])
        fn(emb, split, 0)
        tracemalloc.start()
        try:
            fn(emb, split, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * I * 8

    def test_corpus_auc_peak_within_block_budget(self):
        U, I, K, events = 80, 20_000, 32, 40
        rng = np.random.default_rng(0)
        emb = Embeddings.init(U, I, K, 0.1, rng)
        lists = [rng.choice(I, events, replace=False) for _ in range(U)]
        split = make_split(I, [np.sort(l[:24]) for l in lists], [l[24:32] for l in lists],
                           [l[32:] for l in lists])
        corpus_auc(emb, split)
        tracemalloc.start()
        try:
            corpus_auc(emb, split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's float64 scores, reused by every block, plus vectors
        # over the users, the items and the events
        assert peak < 8 * BLOCK_ELEMENTS + 64 * (U + I + U * events)


class TestNaNScores:
    def nan_instance(self):
        # item 3 scores NaN: user 0's test positive, a validation negative
        # for user 0, and a train item (never scored) for user 1
        split = make_split(5, [[0], [1, 3]], [[2], [0]], [[3], [4]])
        item = np.arange(5.0).reshape(-1, 1)
        item[3] = np.nan
        return Embeddings(user=np.ones((2, 1)), item=item), split

    @pytest.mark.parametrize("stage", ["validation", "test"])
    def test_candidate_nan_names_user_and_item(self, stage):
        emb, split = self.nan_instance()
        for fn in (user_auc, user_topk_ranks):
            with pytest.raises(AdaptRegError, match="user 0 at item 3"):
                fn(emb, split, 0, stage)
        with pytest.raises(AdaptRegError, match="user 0 at item 3"):
            corpus_metrics(emb, split, ks=(1,), stage=stage)
        with pytest.raises(AdaptRegError, match="user 0 at item 3"):
            corpus_auc(emb, split, stage)

    @pytest.mark.parametrize("stage", ["validation", "test"])
    def test_first_nan_user_named_across_blocks(self, monkeypatch, stage):
        # users 2 and 5 score NaN on every item, in different blocks of two
        # users; user 2's first candidate is item 1
        U, I = 6, 5
        split = make_split(I, [[0], [1], [0], [2], [3], [1]], [[2]] * U, [[3], [4], [3], [4], [4], [3]])
        user = np.ones((U, 1))
        user[[2, 5]] = np.nan
        emb = Embeddings(user=user, item=np.arange(1.0, I + 1).reshape(-1, 1))
        monkeypatch.setattr(evaluate, "BLOCK_ELEMENTS", 2 * I)
        for fn in (lambda: corpus_auc(emb, split, stage),
                   lambda: corpus_metrics(emb, split, ks=(1,), stage=stage),
                   lambda: user_auc(emb, split, 2, stage)):
            with pytest.raises(AdaptRegError, match="NaN score for user 2 at item 1$"):
                fn()

    @pytest.mark.parametrize("fn", [user_auc, user_topk_ranks])
    def test_unknown_stage_rejected(self, fn):
        emb, split = self.nan_instance()
        with pytest.raises(ValueError, match="unknown stage"):
            fn(emb, split, 0, "train")

    def test_excluded_nan_is_not_scored(self):
        emb, split = self.nan_instance()
        assert user_auc(emb, split, 1, "test") == 1.0
        assert list(user_topk_ranks(emb, split, 1, "test")) == [1]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stage", ["validation", "test"])
    def test_nan_from_infinite_factors_warns_nothing(self, stage):
        # item 0's factors (inf, -inf) score inf - inf = NaN for both users:
        # user 0 excludes it at either stage, user 1 has it as a candidate
        split = make_split(6, [[0, 5], [1]], [[2], [3]], [[4], [2]])
        item = np.array([[np.inf, -np.inf]] + [[i, 0.0] for i in range(1, 6)])
        emb = Embeddings(user=np.ones((2, 2)), item=item)
        assert user_auc(emb, split, 0, stage) == (1 / 3 if stage == "validation" else 1.0)
        for fn in (lambda: user_auc(emb, split, 1, stage),
                   lambda: corpus_auc(emb, split, stage),
                   lambda: corpus_metrics(emb, split, ks=(1,), stage=stage)):
            with pytest.raises(AdaptRegError, match="NaN score for user 1 at item 0$"):
                fn()


class TestGroupReport:
    def test_zero_delta(self):
        ids = np.arange(4)
        vals = np.array([0.2, 0.4, 0.6, 0.8])
        groups = np.array([0, 0, 1, 1])
        out = group_improvement_report(vals, vals, ids, ids, groups)
        assert all(row["delta"] == 0.0 for row in out)

    def test_ten_percent_gain(self):
        ids = np.arange(2)
        out = group_improvement_report([0.5, 0.5], [0.55, 0.55], ids, ids,
                                       np.array([0, 0]))
        assert out[0]["delta"] == pytest.approx(0.10)

    def test_single_member_and_empty_groups(self):
        ids = np.arange(2)
        groups = np.array([0, 2])  # group 1 has no members
        out = group_improvement_report([0.4, 0.8], [0.2, 0.8], ids, ids, groups)
        assert out[0]["size"] == 1
        assert out[0]["delta"] == pytest.approx(-0.5)
        assert out[1]["note"] == "empty group"
        assert out[2]["delta"] == 0.0

    def test_zero_baseline_flagged(self):
        ids = np.arange(1)
        out = group_improvement_report([0.0], [0.3], ids, ids, np.array([0]))
        assert out[0]["delta"] is None
        assert out[0]["note"] == "zero baseline"

    def test_mismatched_universes_intersect(self):
        out = group_improvement_report([0.2, 0.4], [0.8], np.array([3, 5]),
                                       np.array([5]), np.array([0] * 6))
        assert out[0]["size"] == 1
        assert out[0]["delta"] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_to_per_group_loop(self, seed):
        # labels with gaps (empty groups), groups that meet only in one
        # universe, a zero-baseline group and groups of one to hundreds
        rng = np.random.default_rng(seed)
        n = 900
        groups = rng.choice([0, 1, 3, 4, 6], n, p=[0.6, 0.25, 0.1, 0.049, 0.001])
        groups[rng.integers(0, n)] = 7
        ids_a = np.sort(rng.choice(n, 700, replace=False))
        ids_b = rng.permutation(rng.choice(n, 650, replace=False))
        values_a = rng.uniform(0, 1, len(ids_a))
        values_a[groups[ids_a] == 1] = 0.0
        values_a[groups[ids_a] == 3] *= 1e-6  # a small baseline is not a zero one
        values_b = rng.uniform(0, 1, len(ids_b))
        got = group_improvement_report(values_a, values_b, ids_a, ids_b, groups)
        want = oracle_group_improvement_report(values_a, values_b, ids_a, ids_b, groups)
        assert got == want
        notes = {row["note"] for row in got}
        assert {"empty group", "zero baseline"} <= notes


def test_wide_instances_hold_ties_and_non_finite_scores():
    # the cases each wide instance is built to hold
    emb, split = wide_instance()
    scores = emb.item @ emb.user[0]
    assert scores[split.val[0][0]] == scores[0] and scores[split.test[0][0]] == scores[-1]
    taken = np.concatenate([split.train[0], split.val[0], split.test[0]])
    assert 0 not in taken and split.num_items - 1 not in taken
    emb, split = wide_infinite_instance()
    scores = emb.item @ emb.user.T
    assert (scores[[5, 8]] == np.inf).all() and (scores[[6, 9]] == -np.inf).all()
    assert np.isnan(scores[7]).all() and np.isfinite(np.delete(scores, [5, 6, 7, 8, 9], 0)).all()
    assert all(7 in split.train[u] for u in range(split.num_users))
    emb, split = wide_heavy_instance()
    I, scores = split.num_items, emb.item @ emb.user[0]
    assert len(split.val[0]) == len(split.test[0]) == 16
    assert (scores[split.val[0][:2]] == scores[[1, I - 2]]).all()
    assert (scores[split.test[0][:2]] == scores[[2, I - 3]]).all()
    taken = np.concatenate([split.train[0], split.val[0], split.test[0]])
    assert not np.isin([1, 2, I - 3, I - 2], taken).any()
    assert len(split.train[2]) + len(split.val[2]) == I - 1
    assert sum(len(p[3]) for p in (split.train, split.val, split.test)) == I - 1


@pytest.mark.parametrize("stage", ["validation", "test"])
def test_float32_keys_certify_the_other_users(monkeypatch, stage):
    # what each float32 instance is built to hold, and that only the users
    # whose float32 keys cannot certify them fall back: a positive past the
    # float32 range has a band edge that rounds to an infinite key
    emb, split = float32_ties_instance()
    band = evaluate._bands(emb)[0]
    for positives in (split.val, split.test):
        pos = positives[0][0]
        neg = next(i for i in range(split.num_items) if i != pos
                   and (emb.item[i] != emb.item[pos]).any()
                   and np.allclose(emb.item[i], emb.item[pos], rtol=1e-8, atol=0))
        s = emb.item[[pos, neg]] @ emb.user[0]
        assert s[1] - s[0] > 1e3 * band and s.astype(np.float32)[0] == s.astype(np.float32)[1]
    assert fallback_users(monkeypatch, emb, split, stage) == sorted(
        affected_users(emb, split, stage))
    emb, split = float32_range_instance()
    _, positives = evaluate._stage_lists(split, stage)
    scores = emb.user @ emb.item.T
    assert np.isfinite(scores).all() and np.isfinite(evaluate._bands(emb)).all()
    past = np.abs(scores) > np.finfo(np.float32).max
    users = [u for u in range(split.num_users) if past[u, positives[u]].any()]
    assert fallback_users(monkeypatch, emb, split, stage) == users
    assert set(np.flatnonzero(past.any(axis=1))) - set(users)  # certified with infinite keys


@pytest.fixture(params=["one-user-blocks", "per-user"])
def corpus_path(request, monkeypatch):
    """``_score_corpus`` with one user per block, or with every band
    infinite (as where ``4·‖x‖·M`` overflows), so that it certifies no user
    and ``_score_user`` scores every user with positives."""
    if request.param == "one-user-blocks":
        monkeypatch.setattr(evaluate, "BLOCK_ELEMENTS", 1)
    else:
        monkeypatch.setattr(evaluate, "_bands", lambda emb: np.full(emb.num_users, np.inf))
    return request.param


@pytest.mark.usefixtures("corpus_path")
class TestMatchesOracleEachPath(TestMatchesOracle):
    pass


@pytest.mark.usefixtures("corpus_path")
class TestNaNScoresEachPath(TestNaNScores):
    pass


@pytest.mark.usefixtures("corpus_path")
class TestCertifiedBlocksEachPath(TestCertifiedBlocks):
    @pytest.mark.parametrize("stage", ["validation", "test"])
    @pytest.mark.parametrize("name", ["synthetic", "popular", "seed3"])
    def test_float_factors_certify_every_user(self, monkeypatch, corpus_path, name, stage):
        emb, split = INSTANCES[name]()
        _, positives = evaluate._stage_lists(split, stage)
        want = ([] if corpus_path == "one-user-blocks" else
                [u for u in range(split.num_users) if len(positives[u])])
        assert fallback_users(monkeypatch, emb, split, stage) == want


class TestExcludedOrder:
    """A stage's excluded items are only counted, masked and compared with,
    so the order of a user's train and validation rows cannot change a
    result of a stage that excludes them."""

    @pytest.mark.parametrize("stage", ["validation", "test"])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_permuted_exclusions_give_the_same_bits(self, name, stage):
        emb, split = INSTANCES[name]()
        rng = np.random.default_rng(0)
        train, val, test = list(split.train), list(split.val), list(split.test)
        shuffle = lambda rows: [r[rng.permutation(len(r))] for r in rows]
        shuffled = shuffle(train)
        assert any((a != b).any() for a, b in zip(train, shuffled))
        ordered = make_split(split.num_items, train, val, test)
        permuted = make_split(split.num_items, shuffled,
                              shuffle(val) if stage == "test" else val, test)
        for u in range(split.num_users):
            for fn in (user_auc, user_topk_ranks):
                a, b = fn(emb, ordered, u, stage), fn(emb, permuted, u, stage)
                assert (a is None) == (b is None) and (a is None or same_bytes(a, b)), u
        assert same_bytes(corpus_auc(emb, ordered, stage), corpus_auc(emb, permuted, stage))
        assert_same_report(corpus_metrics(emb, ordered, ks=(1, 3, 10), stage=stage),
                           corpus_metrics(emb, permuted, ks=(1, 3, 10), stage=stage))


@pytest.mark.usefixtures("corpus_path")
class TestExcludedOrderEachPath(TestExcludedOrder):
    pass


@pytest.mark.parametrize("stage", ["validation", "test"])
@pytest.mark.parametrize("name", sorted(WIDE_INSTANCES))
def test_wide_users_are_counted(monkeypatch, name, stage):
    emb, split = WIDE_INSTANCES[name]()
    U, I = split.num_users, split.num_items
    _, positives = evaluate._stage_lists(split, stage)
    assert all(len(p) for p in positives)
    calls = []
    real = evaluate._count_below
    monkeypatch.setattr(evaluate, "_count_below",
                        lambda values, at: calls.append(len(values)) or real(values, at))
    for u in range(U):
        user_auc(emb, split, u, stage)
    assert calls == [I] * U


@pytest.mark.parametrize("k", [0, -3, True, 2.5, np.int64(0), "5"])
def test_user_topk_rejects_what_corpus_metrics_rejects(k):
    emb, split = integer_instance()
    with pytest.raises(ConfigError, match="ks must"):
        user_topk(emb, split, 0, k)
    with pytest.raises(ConfigError, match="ks must"):
        corpus_metrics(emb, split, ks=(k,))


@pytest.mark.parametrize("k", [1, np.int64(3), 40])
def test_user_topk_accepts_positive_integers(k):
    emb, split = integer_instance()
    hr, ndcg = user_topk(emb, split, 0, k)
    ranks = user_topk_ranks(emb, split, 0)
    assert hr == np.mean(ranks <= k) and 0.0 <= ndcg <= hr


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pos, neg", [([1.0], []), ([], [1.0]), ([], []),
                                      (np.empty(0), np.array([0.5, 2.0]))])
def test_auc_from_scores_with_an_empty_side_is_none(pos, neg):
    assert auc_from_scores(pos, neg) is None
