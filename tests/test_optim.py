import math

import numpy as np
import pytest

from adaptreg import _kernels
from adaptreg.adaptive import RegCoefficients, compose_gradient
from adaptreg.errors import NonFiniteGradientError
from adaptreg.mf import Embeddings, SparseGrad, bpr_gradient
from adaptreg.optim import AdamOptimizer, SgdOptimizer, make_optimizer

from conftest import oracle_index_maps, random_batch, random_instance


def scalar_grad(val, side="user"):
    g = np.array([[val]])
    rows = np.array([0])
    zero = np.empty((0, 1))
    none = np.empty(0, dtype=np.int64)
    if side == "user":
        return SparseGrad(rows, g, none, zero)
    return SparseGrad(none, zero, rows, g)


def full_grad(emb, rng, scale=1.0):
    return SparseGrad(
        user_rows=np.arange(emb.num_users),
        user_vals=rng.normal(0, scale, emb.user.shape),
        item_rows=np.arange(emb.num_items),
        item_vals=rng.normal(0, scale, emb.item.shape),
    )


class TestSgd:
    def test_scalar_step(self):
        emb = Embeddings(user=np.array([[1.0]]), item=np.array([[0.0]]))
        opt = SgdOptimizer(lr=0.1)
        opt.step(emb, scalar_grad(2.0))
        assert emb.user[0, 0] == pytest.approx(0.8)

    def test_zero_gradient_noop(self):
        emb, _ = random_instance(0)
        before = emb.copy()
        opt = SgdOptimizer(lr=0.1)
        opt.step(emb, scalar_grad(0.0))
        assert (emb.user == before.user).all()

    def test_jacobian_is_minus_2_lr_theta(self):
        emb = Embeddings(user=np.array([[3.0]]), item=np.array([[1.0]]))
        opt = SgdOptimizer(lr=0.1)
        ju, ji = opt.lambda_jacobian(emb, scalar_grad(1.0))
        assert ju[0, 0] == pytest.approx(-0.6)

    def test_zero_theta_zero_sensitivity(self):
        emb = Embeddings(user=np.zeros((1, 2)), item=np.zeros((1, 2)))
        opt = SgdOptimizer(lr=0.1)
        g = SparseGrad(np.array([0]), np.ones((1, 2)), np.array([0]), np.ones((1, 2)))
        ju, ji = opt.lambda_jacobian(emb, g)
        assert not ju.any() and not ji.any()


class TestAdam:
    def test_first_step_hand_values(self):
        # fresh state, g = 1: s = 0.1, r = 0.001, effective step ~ lr
        emb = Embeddings(user=np.array([[1.0]]), item=np.array([[0.0]]))
        opt = AdamOptimizer(lr=0.01)
        opt.step(emb, scalar_grad(1.0))
        assert opt.t == 1
        assert opt.s_user[0, 0] == pytest.approx(0.1)
        assert opt.r_user[0, 0] == pytest.approx(0.001)
        c = math.sqrt(1 - 0.999) / (1 - 0.9)
        assert c == pytest.approx(0.3162278, abs=1e-6)
        expected = 1.0 - 0.01 * c * 0.1 / (math.sqrt(0.001) + 1e-8)
        assert emb.user[0, 0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.0 - 0.01 * 0.9999997, abs=1e-8)

    def test_zero_gradient_fresh_state_noop(self):
        emb, _ = random_instance(0)
        before = emb.copy()
        opt = AdamOptimizer()
        opt.step(emb, scalar_grad(0.0))
        assert (emb.user == before.user).all()

    def test_constant_gradient_monotone_decrease(self):
        emb = Embeddings(user=np.array([[5.0]]), item=np.array([[0.0]]))
        opt = AdamOptimizer(lr=0.01)
        values = [emb.user[0, 0]]
        for _ in range(20):
            opt.step(emb, scalar_grad(1.0))
            values.append(emb.user[0, 0])
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_lazy_moments_only_touched_rows(self):
        emb, _ = random_instance(1)
        opt = AdamOptimizer()
        opt.step(emb, scalar_grad(1.0))
        assert opt.s_user[1:].sum() == 0.0
        assert opt.s_item.sum() == 0.0


class TestAssumedUpdate:
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_matches_real_update_on_clone(self, kind):
        emb, rng = random_instance(2)
        opt = make_optimizer(kind)
        grad = bpr_gradient(emb, random_batch(rng, 5, 8, 16))
        # warm the state
        opt.step(emb, grad)
        grad2 = bpr_gradient(emb, random_batch(rng, 5, 8, 16))
        assumed = opt.assumed_step(emb, grad2)
        clone = opt.clone()
        real = emb.copy()
        clone.step(real, grad2)
        assert (assumed.user == real.user).all()
        assert (assumed.item == real.item).all()

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_matches_real_update_across_blocks(self, kind):
        # K=32 and enough touched rows that the real Adam step runs in
        # several blocks, each written back after it is computed
        U, I, K = 4000, 4000, 32
        emb, rng = random_instance(6, num_users=U, num_items=I, dim=K)
        opt = make_optimizer(kind)
        opt.step(emb, bpr_gradient(emb, random_batch(rng, U, I, 4096)))
        grad = bpr_gradient(emb, random_batch(rng, U, I, 4096))
        block = _kernels._BLOCK_ELEMS // K
        assert min(len(grad.user_rows), len(grad.item_rows)) > 2 * block
        user, item, moments = opt.assumed(emb, grad)
        clone, real = opt.clone(), emb.copy()
        clone.step(real, grad)
        assert real.user[grad.user_rows].tobytes() == user.tobytes()
        assert real.item[grad.item_rows].tobytes() == item.tobytes()
        assumed = opt.assumed_step(emb, grad)
        assert real.user.tobytes() == assumed.user.tobytes()
        assert real.item.tobytes() == assumed.item.tobytes()
        if kind == "sgd":
            assert moments is None
            return
        (su, ru), (si, ri) = moments
        for state, rows, want in ((clone.s_user, grad.user_rows, su),
                                  (clone.r_user, grad.user_rows, ru),
                                  (clone.s_item, grad.item_rows, si),
                                  (clone.r_item, grad.item_rows, ri)):
            assert state[rows].tobytes() == want.tobytes()

    def test_fresh_adam_assumed_step_stores_nothing(self):
        # before its first real step an Adam optimizer has no moments; the
        # assumed step reads them as zero and leaves the state as it was
        emb, rng = random_instance(4)
        opt = AdamOptimizer()
        grad = bpr_gradient(emb, random_batch(rng, 5, 8, 16))
        digest, keys = opt.state_digest(), set(opt.state_arrays())
        assumed = opt.assumed_step(emb, grad)
        user, item, _ = opt.assumed(emb, grad)
        opt.lambda_jacobian(emb, grad)
        assert opt.state_digest() == digest and set(opt.state_arrays()) == keys
        clone, real = opt.clone(), emb.copy()
        clone.step(real, grad)
        assert assumed.user.tobytes() == real.user.tobytes()
        assert assumed.item.tobytes() == real.item.tobytes()
        assert user.tobytes() == real.user[grad.user_rows].tobytes()
        assert item.tobytes() == real.item[grad.item_rows].tobytes()

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_idempotent_and_side_effect_free(self, kind):
        emb, rng = random_instance(3)
        opt = make_optimizer(kind)
        grad = bpr_gradient(emb, random_batch(rng, 5, 8, 16))
        opt.step(emb, grad)
        grad2 = bpr_gradient(emb, random_batch(rng, 5, 8, 16))
        before = opt.state_digest()
        emb_before = emb.copy()
        a = opt.assumed_step(emb, grad2)
        b = opt.assumed_step(emb, grad2)
        assert (a.user == b.user).all() and (a.item == b.item).all()
        assert opt.state_digest() == before
        assert (emb.user == emb_before.user).all()

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_golden_trace_unaffected_by_interleaved_assumed(self, kind):
        def trace(interleave):
            emb, rng = random_instance(4)
            opt = make_optimizer(kind)
            for _ in range(3):
                grad = bpr_gradient(emb, random_batch(rng, 5, 8, 8))
                if interleave:
                    opt.assumed_step(emb, grad)
                opt.step(emb, grad)
            return emb
        plain = trace(False)
        mixed = trace(True)
        assert (plain.user == mixed.user).all()
        assert (plain.item == mixed.item).all()

    def test_lambda_zero_equals_unregularized(self):
        emb, rng = random_instance(5)
        opt = make_optimizer("adam")
        grad = bpr_gradient(emb, random_batch(rng, 5, 8, 16))
        lam = RegCoefficients.create("full", 5, 8, 4, init=0.0)
        composed = compose_gradient(grad, emb, lam)
        a = opt.assumed_step(emb, grad)
        b = opt.assumed_step(emb, composed)
        assert (a.user == b.user).all() and (a.item == b.item).all()


class TestLambdaJacobian:
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_difference(self, kind, seed):
        emb, rng = random_instance(seed, num_users=6, num_items=6)
        opt = make_optimizer(kind)
        if kind == "adam":
            for _ in range(2):
                opt.step(emb.copy(), bpr_gradient(emb, random_batch(rng, 6, 6, 10)))
        g_bar = bpr_gradient(emb, random_batch(rng, 6, 6, 12))
        lam = RegCoefficients.create("full", 6, 6, 4, init=0.05)
        composed = compose_gradient(g_bar, emb, lam)
        ju, ji = opt.lambda_jacobian(emb, composed)
        h = 1e-6
        user_index, item_index = oracle_index_maps("full", 6, 6, 4)
        for side, rows, J, index in (("user", composed.user_rows, ju, user_index),
                                     ("item", composed.item_rows, ji, item_index)):
            for n, row in enumerate(rows):
                for k in range(emb.dim):
                    entry = index[row, k]
                    for sign, store in ((+1, "p"), (-1, "m")):
                        vals = lam.values.copy()
                        vals[entry] += sign * h
                        comp = compose_gradient(g_bar, emb, lam.with_values(vals))
                        th = opt.assumed_step(emb, comp)
                        if store == "p":
                            tp = (th.user if side == "user" else th.item)[row, k]
                        else:
                            tm = (th.user if side == "user" else th.item)[row, k]
                    fd = (tp - tm) / (2 * h)
                    assert J[n, k] == pytest.approx(fd, rel=1e-4, abs=1e-10)


class TestErrors:
    def test_non_finite_gradient_diagnosed(self):
        emb, _ = random_instance(0)
        opt = make_optimizer("adam")
        with pytest.raises(NonFiniteGradientError) as exc:
            opt.step(emb, scalar_grad(float("nan")), step_index=7)
        assert exc.value.side == "user"
        assert exc.value.step == 7

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            SgdOptimizer(lr=-1.0)
        with pytest.raises(ValueError):
            AdamOptimizer(beta1=1.5)

    def test_r_decay_override(self):
        opt = AdamOptimizer(beta1=0.9, beta2=0.999, r_decay=0.9)
        assert opt.r_decay == 0.9
