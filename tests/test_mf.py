import math

import numpy as np
import pytest

from adaptreg.adaptive import RegCoefficients
from adaptreg.errors import ShapeMismatchError
from adaptreg.mf import (
    Embeddings, TripletBatch, bpr_gradient, bpr_loss, penalty,
    penalty_gradient,
)

from conftest import random_batch, random_instance


def dense_grad(emb, grad):
    gu = np.zeros_like(emb.user)
    gi = np.zeros_like(emb.item)
    gu[grad.user_rows] = grad.user_vals
    gi[grad.item_rows] = grad.item_vals
    return gu, gi


class TestBprLoss:
    def test_equal_scores_give_ln2(self):
        emb = Embeddings(user=np.zeros((2, 3)), item=np.ones((4, 3)))
        batch = TripletBatch(np.array([0, 1]), np.array([0, 1]), np.array([2, 3]))
        assert bpr_loss(emb, batch) == pytest.approx(2 * math.log(2), rel=1e-12)

    def test_margin_one(self):
        # score difference exactly 1
        emb = Embeddings(user=np.array([[1.0]]), item=np.array([[2.0], [1.0]]))
        batch = TripletBatch(np.array([0]), np.array([0]), np.array([1]))
        assert bpr_loss(emb, batch) == pytest.approx(math.log1p(math.exp(-1.0)), rel=1e-12)

    def test_large_negative_margin_no_overflow(self):
        emb = Embeddings(user=np.array([[1.0]]), item=np.array([[0.0], [50.0]]))
        batch = TripletBatch(np.array([0]), np.array([0]), np.array([1]))
        loss = bpr_loss(emb, batch)
        assert np.isfinite(loss)
        assert loss == pytest.approx(50.0, rel=1e-10)

    def test_nonnegative(self):
        emb, rng = random_instance(0)
        batch = random_batch(rng, 5, 8, 64)
        assert bpr_loss(emb, batch) >= 0.0


class TestBprGradient:
    def test_identical_items_zero_user_grad(self):
        emb, _ = random_instance(1)
        batch = TripletBatch(np.array([2]), np.array([3]), np.array([3]))
        grad = bpr_gradient(emb, batch)
        assert np.allclose(grad.user_vals, 0.0)

    def test_hand_single_triplet(self):
        emb = Embeddings(user=np.array([[1.0, 0.0]]),
                         item=np.array([[1.0, 0.0], [0.0, 1.0]]))
        batch = TripletBatch(np.array([0]), np.array([0]), np.array([1]))
        grad = bpr_gradient(emb, batch)
        d = -(1.0 - 1.0 / (1.0 + math.exp(-1.0)))  # x = 1
        assert grad.user_vals[0] == pytest.approx([d, -d], rel=1e-9)
        assert d == pytest.approx(-0.268941, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_difference_oracle(self, seed):
        emb, rng = random_instance(seed)
        batch = random_batch(rng, 5, 8, 16)
        grad = bpr_gradient(emb, batch)
        gu, gi = dense_grad(emb, grad)
        h = 1e-5
        for arr, g in ((emb.user, gu), (emb.item, gi)):
            for idx in np.ndindex(arr.shape):
                old = arr[idx]
                arr[idx] = old + h
                lp = bpr_loss(emb, batch)
                arr[idx] = old - h
                lm = bpr_loss(emb, batch)
                arr[idx] = old
                fd = (lp - lm) / (2 * h)
                assert g[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_untouched_rows_absent(self):
        emb, _ = random_instance(3)
        batch = TripletBatch(np.array([0, 0]), np.array([1, 2]), np.array([3, 3]))
        grad = bpr_gradient(emb, batch)
        assert list(grad.user_rows) == [0]
        assert sorted(grad.item_rows) == [1, 2, 3]

    def test_batch_permutation_invariance(self):
        emb, rng = random_instance(4)
        batch = random_batch(rng, 5, 8, 32)
        perm = rng.permutation(32)
        shuffled = TripletBatch(batch.users[perm], batch.pos[perm], batch.neg[perm])
        g1 = bpr_gradient(emb, batch)
        g2 = bpr_gradient(emb, shuffled)
        gu1, gi1 = dense_grad(emb, g1)
        gu2, gi2 = dense_grad(emb, g2)
        assert np.allclose(gu1, gu2, rtol=1e-12, atol=1e-14)
        assert np.allclose(gi1, gi2, rtol=1e-12, atol=1e-14)
        assert bpr_loss(emb, batch) == pytest.approx(bpr_loss(emb, shuffled), rel=1e-12)


class TestPenalty:
    def test_zero_coefficients(self):
        emb, _ = random_instance(0)
        lam = RegCoefficients.create("full", 5, 8, 4, init=0.0)
        assert penalty(emb, lam) == 0.0

    def test_global_scalar(self):
        emb = Embeddings(user=np.array([[1.0, 1.0]]), item=np.array([[1.0, 1.0]]))
        lam = RegCoefficients.create("global", 1, 1, 2, init=0.1)
        assert penalty(emb, lam) == pytest.approx(0.4, rel=1e-12)

    def test_fine_grained_hand_sum(self):
        emb = Embeddings(user=np.array([[1.0, 2.0]]), item=np.array([[3.0, -1.0]]))
        lam = RegCoefficients.create("full", 1, 1, 2)
        lam.values[:] = [0.1, 0.2, 0.3, 0.4]
        expected = 0.1 * 1 + 0.2 * 4 + 0.3 * 9 + 0.4 * 1
        assert penalty(emb, lam) == pytest.approx(expected, rel=1e-12)

    def test_tied_granularities_exact(self):
        emb, _ = random_instance(5)
        c = 0.37
        base = penalty(emb, RegCoefficients.create("global", 5, 8, 4, init=c))
        for gran in ("dim", "user", "item", "user-dim", "item-dim", "full"):
            assert penalty(emb, RegCoefficients.create(gran, 5, 8, 4, init=c)) == base

    def test_shape_mismatch(self):
        emb, _ = random_instance(0)
        for gran in ("full", "global"):
            lam = RegCoefficients.create(gran, 4, 8, 4)  # wrong user count
            with pytest.raises(ShapeMismatchError):
                penalty(emb, lam)


class TestPenaltyGradient:
    def test_shape_mismatch(self):
        emb, _ = random_instance(0)
        for gran in ("full", "global"):
            lam = RegCoefficients.create(gran, 5, 7, 4)  # wrong item count
            with pytest.raises(ShapeMismatchError):
                penalty_gradient(emb, lam)

    def test_zero_coefficients(self):
        emb, _ = random_instance(0)
        lam = RegCoefficients.create("global", 5, 8, 4, init=0.0)
        gu, gi = penalty_gradient(emb, lam)
        assert not gu.any() and not gi.any()

    def test_user_wise_hand(self):
        emb = Embeddings(user=np.array([[2.0, -4.0]]), item=np.zeros((1, 2)))
        lam = RegCoefficients.create("user", 1, 1, 2, init=0.5)
        gu, _ = penalty_gradient(emb, lam)
        assert gu[0] == pytest.approx([2.0, -4.0])

    def test_finite_difference_oracle(self):
        emb, rng = random_instance(6)
        lam = RegCoefficients.create("full", 5, 8, 4)
        lam.values[:] = rng.uniform(0, 0.5, lam.num_entries)
        gu, gi = penalty_gradient(emb, lam)
        h = 1e-6
        for arr, g in ((emb.user, gu), (emb.item, gi)):
            for idx in np.ndindex(arr.shape):
                old = arr[idx]
                arr[idx] = old + h
                lp = penalty(emb, lam)
                arr[idx] = old - h
                lm = penalty(emb, lam)
                arr[idx] = old
                assert g[idx] == pytest.approx((lp - lm) / (2 * h), rel=1e-8, abs=1e-10)
