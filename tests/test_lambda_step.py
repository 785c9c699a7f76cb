"""The O(batch) coefficient step against the dense algorithm it replaced.

The oracle is that dense algorithm, kept here as the reference: the assumed
step on a full copy of the embeddings, the validation gradient on that copy, a
scatter-add into a hypergradient with one slot per coefficient entry, and a
clip/step/project over every entry. The arithmetic is unchanged, so the fast
path must match it bit for bit.
"""

import math

import numpy as np
import pytest

from adaptreg import _kernels
from adaptreg import adaptive
from adaptreg.adaptive import (
    GRANULARITIES, LambdaAdam, RegCoefficients, compose_gradient, hypergradient,
    lambda_step, sparse_hypergradient, train_model,
)
from adaptreg.config import RunConfig, resolve
from adaptreg.errors import AdaptRegError
from adaptreg.mf import TripletBatch, bpr_gradient
from adaptreg.optim import make_optimizer

from conftest import oracle_index_maps, random_batch, random_instance

U, I, K = 30, 40, 4


def oracle_assumed_step(opt, emb, grad):
    out = emb.copy()
    if opt.kind == "sgd":
        out.user[grad.user_rows] -= opt.lr * grad.user_vals
        out.item[grad.item_rows] -= opt.lr * grad.item_vals
        return out
    c = math.sqrt(1.0 - opt.beta2 ** (opt.t + 1)) / (1.0 - opt.beta1 ** (opt.t + 1))
    for param, s, r, rows, g in (
        (out.user, opt.s_user, opt.r_user, grad.user_rows, grad.user_vals),
        (out.item, opt.s_item, opt.r_item, grad.item_rows, grad.item_vals),
    ):
        s_bar = opt.beta1 * s[rows] + (1.0 - opt.beta1) * g
        r_bar = opt.r_decay * r[rows] + (1.0 - opt.r_decay) * g * g
        param[rows] = param[rows] - opt.lr * c * s_bar / (np.sqrt(r_bar) + opt.eps)
    return out


def oracle_hypergradient(lam, emb, opt, train_batch, val_batch):
    """Dense G, without the finiteness check."""
    composed = compose_gradient(bpr_gradient(emb, train_batch), emb, lam)
    v = bpr_gradient(oracle_assumed_step(opt, emb, composed), val_batch)
    j_user, j_item = opt.lambda_jacobian(emb, composed)
    G = np.zeros(lam.num_entries)
    user_index, item_index = oracle_index_maps(lam.granularity, emb.num_users,
                                               emb.num_items, emb.dim)
    for rows, J, v_rows, v_vals, index in (
        (composed.user_rows, j_user, v.user_rows, v.user_vals, user_index),
        (composed.item_rows, j_item, v.item_rows, v.item_vals, item_index),
    ):
        shared, ia, ib = np.intersect1d(rows, v_rows, assume_unique=True,
                                        return_indices=True)
        _kernels.scatter_add(G, index[shared].ravel(), (v_vals[ib] * J[ia]).ravel())
    return G


def oracle_error(G):
    bad = int(np.flatnonzero(~np.isfinite(G))[0])
    return f"non-finite hypergradient at coefficient entry {bad}"


def oracle_lambda_step(lam, emb, opt, train_batch, val_batch, step_size, clip,
                       lam_opt=None):
    G = oracle_hypergradient(lam, emb, opt, train_batch, val_batch)
    if not np.isfinite(G).all():
        raise AdaptRegError(oracle_error(G))
    if lam_opt is not None:
        G = lam_opt.direction(np.clip(G, -clip, clip))
    values = lam.values - step_size * np.clip(G, -clip, clip)
    np.maximum(values, 0.0, out=values)
    return lam.with_values(values)


def batches(rng, overlap):
    if overlap == "disjoint":
        # no user or item row is read by both batches
        tb = TripletBatch(rng.integers(0, U // 2, 16), rng.integers(0, I // 2, 16),
                          rng.integers(0, I // 2, 16))
        vb = TripletBatch(rng.integers(U // 2, U, 16), rng.integers(I // 2, I, 16),
                          rng.integers(I // 2, I, 16))
        return tb, vb
    tb = random_batch(rng, U, I, 16)
    return tb, (tb if overlap == "identical" else random_batch(rng, U, I, 16))


def warmed(kind, emb, rng):
    opt = make_optimizer(kind)
    for _ in range(2):
        opt.step(emb.copy(), bpr_gradient(emb, random_batch(rng, U, I, 16)))
    return opt


@pytest.mark.parametrize("overlap", ["disjoint", "overlapping", "identical"])
@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("gran", GRANULARITIES)
def test_hypergradient_bit_equal_to_dense_oracle(gran, kind, overlap):
    for seed in range(5):
        emb, rng = random_instance(seed, num_users=U, num_items=I, dim=K)
        opt = warmed(kind, emb, rng)
        lam = RegCoefficients.create(gran, U, I, K)
        lam.values[:] = rng.uniform(0.0, 0.2, lam.num_entries)
        tb, vb = batches(rng, overlap)
        expect = oracle_hypergradient(lam, emb, opt, tb, vb)
        G = hypergradient(lam, emb, opt, tb, vb)
        assert G.tobytes() == expect.tobytes()
        entries, values = sparse_hypergradient(lam, emb, opt, tb, vb)
        assert (np.diff(entries) > 0).all()
        assert values.tobytes() == expect[entries].tobytes()
        if overlap == "disjoint":
            assert len(entries) == 0


@pytest.mark.parametrize("lam_adam", [False, True])
def test_lambda_step_bit_equal_to_dense_oracle(lam_adam):
    emb, rng = random_instance(3, num_users=U, num_items=I, dim=K)
    opt = warmed("adam", emb, rng)
    lam = RegCoefficients.create("full", U, I, K, init=0.01)
    ref = lam.copy()
    lam_opt = LambdaAdam(lam.num_entries) if lam_adam else None
    ref_opt = LambdaAdam(lam.num_entries) if lam_adam else None
    for _ in range(20):
        tb, vb = batches(rng, "overlapping")
        lam = lambda_step(lam, emb, opt, tb, vb, 0.05, 0.01, lam_opt)
        ref = oracle_lambda_step(ref, emb, opt, tb, vb, 0.05, 0.01, ref_opt)
        assert lam.values.tobytes() == ref.values.tobytes()
    assert (lam.values != 0.01).any()


def test_non_finite_validation_gradient_names_oracle_entry():
    emb, rng = random_instance(5, num_users=U, num_items=I, dim=K)
    opt = warmed("adam", emb, rng)
    # item 39 is read by the validation batch only, so the train step stays
    # finite and the NaN enters through the validation gradient
    emb.item[39] = np.nan
    tb = TripletBatch(np.array([0, 1, 2]), np.array([3, 4, 5]), np.array([6, 7, 8]))
    vb = TripletBatch(np.array([2, 1]), np.array([39, 4]), np.array([10, 39]))
    for gran in GRANULARITIES:
        lam = RegCoefficients.create(gran, U, I, K, init=0.01)
        expect = oracle_error(oracle_hypergradient(lam, emb, opt, tb, vb))
        before = lam.values.copy()
        with pytest.raises(AdaptRegError) as exc:
            lambda_step(lam, emb, opt, tb, vb, 0.05, 1.0)
        assert str(exc.value) == expect
        assert lam.values.tobytes() == before.tobytes()
        with pytest.raises(AdaptRegError) as exc:
            hypergradient(lam, emb, opt, tb, vb)
        assert str(exc.value) == expect


def loop_cfg(mode="opt", granularity="full", adam_on_lambda=False):
    cfg = RunConfig()
    cfg.model.dim = 8
    cfg.training.epochs = 3
    cfg.training.batch_size = 128
    cfg.training.lambda_batch_size = 128
    cfg.training.eval_every = 1
    cfg.training.seed = 9
    cfg.regularization.mode = mode
    cfg.regularization.granularity = granularity
    cfg.regularization.step_size = 0.05
    cfg.regularization.adam_on_lambda = adam_on_lambda
    return resolve(cfg)


@pytest.mark.parametrize("mode,granularity,adam_on_lambda", [
    ("opt", "full", False), ("opt", "user", False), ("sgda", "dim", False),
    ("opt", "full", True),
])
def test_train_model_matches_oracle_loop(small_split, monkeypatch, mode,
                                         granularity, adam_on_lambda):
    cfg = loop_cfg(mode, granularity, adam_on_lambda)
    fast = train_model(small_split, cfg)
    monkeypatch.setattr(adaptive, "lambda_step", oracle_lambda_step)
    slow = train_model(small_split, cfg)
    assert fast.history == slow.history
    assert fast.best_epoch == slow.best_epoch
    assert fast.lam.values.tobytes() == slow.lam.values.tobytes()
    assert fast.emb.user.tobytes() == slow.emb.user.tobytes()
    assert fast.emb.item.tobytes() == slow.emb.item.tobytes()
    assert fast.optimizer.state_digest() == slow.optimizer.state_digest()
    assert (fast.lam.values != cfg.regularization.init).any()
