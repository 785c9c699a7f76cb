"""The O(batch) coefficient step against the algorithms it replaced.

The dense oracle is the original algorithm, kept here as the reference: the
assumed step on a full copy of the embeddings, the validation gradient on that
copy, a scatter-add into a hypergradient with one slot per coefficient entry,
and a clip/step/project over every entry. The all-rows oracle is the sparse
form that ran the assumed step and the reference Jacobian on every row the
train batch touches, then summed per entry with ``np.unique`` and
``np.bincount``. The arithmetic is unchanged, so the fast path must match both
bit for bit.
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
from adaptreg.errors import AdaptRegError, NonFiniteGradientError
from adaptreg.mf import Embeddings, TripletBatch, bpr_gradient
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


def oracle_lambda_jacobian(opt, emb, grad, moments=None):
    """The reference expression of each optimizer's ``lambda_jacobian``."""
    if opt.kind == "sgd":
        return (-2.0 * opt.lr * emb.user[grad.user_rows],
                -2.0 * opt.lr * emb.item[grad.item_rows])
    if moments is None:
        moments = opt.assumed(emb, grad)[2]
    c = math.sqrt(1.0 - opt.beta2 ** (opt.t + 1)) / (1.0 - opt.beta1 ** (opt.t + 1))
    out = []
    for theta, rows, g, (s_bar, r_bar) in zip(
            (emb.user, emb.item), (grad.user_rows, grad.item_rows),
            (grad.user_vals, grad.item_vals), moments):
        th = theta[rows]
        sq = np.sqrt(r_bar)
        denom = sq + opt.eps
        ds = (1.0 - opt.beta1) * 2.0 * th
        dr = (1.0 - opt.r_decay) * 4.0 * g * th
        with np.errstate(invalid="ignore", divide="ignore"):
            half = np.where(r_bar > 0.0, s_bar * dr / (2.0 * sq), 0.0)
        out.append(-opt.lr * c * (ds * denom - half) / denom ** 2)
    return tuple(out)


def oracle_sparse_hypergradient(lam, emb, opt, train_batch, val_batch):
    """``(entries, values)`` with the assumed step and the reference Jacobian
    on every touched row, summed per entry by ``np.unique`` and ``np.bincount``;
    without the finiteness check."""
    composed = compose_gradient(bpr_gradient(emb, train_batch), emb, lam)
    new_user, new_item, moments = opt.assumed(emb, composed)
    j_user, j_item = oracle_lambda_jacobian(opt, emb, composed, moments)
    n = len(val_batch.users)
    v_users, u_inv = np.unique(val_batch.users, return_inverse=True)
    v_items, i_inv = np.unique(np.concatenate([val_batch.pos, val_batch.neg]),
                               return_inverse=True)
    overlay, shared_rows = [], []
    for rows, new, theta, v_rows in ((composed.user_rows, new_user, emb.user, v_users),
                                     (composed.item_rows, new_item, emb.item, v_items)):
        shared, ia, ib = np.intersect1d(rows, v_rows, assume_unique=True,
                                        return_indices=True)
        part = theta[v_rows]
        part[ib] = new[ia]
        overlay.append(part)
        shared_rows.append((shared, ia, ib))
    v = bpr_gradient(Embeddings(*overlay), TripletBatch(u_inv, i_inv[:n], i_inv[n:]))
    idx, contrib = [], []
    for side, ((shared, ia, ib), J, v_vals) in enumerate(zip(
            shared_rows, (j_user, j_item), (v.user_vals, v.item_vals))):
        idx.append(lam.entries(side, shared).ravel())
        contrib.append((v_vals[ib] * J[ia]).ravel())
    entries, inverse = np.unique(np.concatenate(idx), return_inverse=True)
    values = np.bincount(inverse, weights=np.concatenate(contrib),
                         minlength=len(entries))
    return entries, values


def oracle_hypergradient(lam, emb, opt, train_batch, val_batch):
    """Dense G, without the finiteness check."""
    composed = compose_gradient(bpr_gradient(emb, train_batch), emb, lam)
    v = bpr_gradient(oracle_assumed_step(opt, emb, composed), val_batch)
    j_user, j_item = oracle_lambda_jacobian(opt, emb, composed)
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


def batches(rng, overlap, num_users=U, num_items=I, size=16):
    if overlap == "disjoint":
        # no user or item row is read by both batches
        lo_u, lo_i = num_users // 2, num_items // 2
        tb = TripletBatch(rng.integers(0, lo_u, size), rng.integers(0, lo_i, size),
                          rng.integers(0, lo_i, size))
        vb = TripletBatch(rng.integers(lo_u, num_users, size),
                          rng.integers(lo_i, num_items, size),
                          rng.integers(lo_i, num_items, size))
        return tb, vb
    tb = random_batch(rng, num_users, num_items, size)
    return tb, (tb if overlap == "identical"
                else random_batch(rng, num_users, num_items, size))


def shared_counts(tb, vb):
    """``(shared, touched)`` row counts of the user and of the item side."""
    t_users, t_items = np.unique(tb.users), np.unique(np.concatenate([tb.pos, tb.neg]))
    v_users, v_items = np.unique(vb.users), np.unique(np.concatenate([vb.pos, vb.neg]))
    return ((len(np.intersect1d(t_users, v_users)), len(t_users)),
            (len(np.intersect1d(t_items, v_items)), len(t_items)))


def warmed(kind, emb, rng, num_users=U, num_items=I):
    opt = make_optimizer(kind)
    for _ in range(2):
        opt.step(emb.copy(), bpr_gradient(emb, random_batch(rng, num_users, num_items, 16)))
    return opt


# a wider instance, on which two random batches share a strict minority of
# the rows the train batch touches
WU, WI, WB = 200, 300, 32


@pytest.mark.parametrize("overlap", ["disjoint", "overlapping", "identical"])
@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("gran", GRANULARITIES)
def test_hypergradient_bit_equal_to_dense_oracle(gran, kind, overlap):
    for seed in range(5):
        emb, rng = random_instance(seed, num_users=WU, num_items=WI, dim=K)
        opt = warmed(kind, emb, rng, WU, WI)
        lam = RegCoefficients.create(gran, WU, WI, K)
        lam.values[:] = rng.uniform(0.0, 0.2, lam.num_entries)
        tb, vb = batches(rng, overlap, WU, WI, WB)
        for shared, touched in shared_counts(tb, vb):
            assert {"disjoint": shared == 0, "overlapping": 0 < 2 * shared < touched,
                    "identical": shared == touched}[overlap]
        expect = oracle_hypergradient(lam, emb, opt, tb, vb)
        G = hypergradient(lam, emb, opt, tb, vb)
        assert G.tobytes() == expect.tobytes()
        entries, values = sparse_hypergradient(lam, emb, opt, tb, vb)
        assert (np.diff(entries) > 0).all()
        assert values.tobytes() == expect[entries].tobytes()
        # the all-rows sparse form returns the same entries in the same dtype
        all_entries, all_values = oracle_sparse_hypergradient(lam, emb, opt, tb, vb)
        assert entries.dtype == all_entries.dtype
        assert entries.tobytes() == all_entries.tobytes()
        assert values.tobytes() == all_values.tobytes()
        if overlap == "disjoint":
            assert len(entries) == 0


def test_sparse_hypergradient_keeps_positive_zero():
    # theta = 0 on a shared row gives Jacobian -0.0 for SGD: the entry sum is
    # +0.0, as np.bincount gives, on the sorted path of full as on the unique one
    emb, rng = random_instance(4, num_users=U, num_items=I, dim=K)
    emb.user[:] = 0.0
    opt = warmed("sgd", emb, rng)
    tb = random_batch(rng, U, I, 16)
    for gran in ("full", "user"):
        lam = RegCoefficients.create(gran, U, I, K, init=0.01)
        entries, values = sparse_hypergradient(lam, emb, opt, tb, tb)
        user_part = values[entries < lam.entries(1, np.array([0]))[0, 0]]
        assert len(user_part) and (user_part == 0.0).all()
        assert not np.signbit(user_part).any()
        expect = oracle_sparse_hypergradient(lam, emb, opt, tb, tb)[1]
        assert values.tobytes() == expect.tobytes()


def same_bits_or_nan(a, b):
    nan = np.isnan(a)
    return (nan == np.isnan(b)).all() and a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.parametrize("fresh", [True, False])
def test_adam_jacobian_in_place_matches_reference(fresh):
    emb, rng = random_instance(8, num_users=U, num_items=I, dim=K)
    opt = make_optimizer("adam") if fresh else warmed("adam", emb, rng)
    lam = RegCoefficients.create("full", U, I, K, init=0.05)
    composed = compose_gradient(bpr_gradient(emb, random_batch(rng, U, I, 16)), emb, lam)
    # a zero gradient coordinate on a row whose moments are still zero (every
    # row of fresh Adam, rows the warm-up missed otherwise) gives r_bar == 0
    composed.user_vals[:, 0] = 0.0
    composed.item_vals[:, 1] = 0.0
    moments = opt.assumed(emb, composed)[2]
    assert all((r == 0.0).any() for _, r in moments)
    got = opt.lambda_jacobian(emb, composed, moments)
    expect = oracle_lambda_jacobian(opt, emb, composed, moments)
    for a, b in zip(got, expect):
        assert a.tobytes() == b.tobytes()
    # without moments the Jacobian runs the assumed step itself
    for a, b in zip(opt.lambda_jacobian(emb, composed), expect):
        assert a.tobytes() == b.tobytes()
    # a NaN second moment makes the coordinate NaN in both forms
    (su, ru), (si, ri) = moments
    ru, si = ru.copy(), si.copy()
    ru[0, 0] = np.nan
    si[1, 2] = np.nan
    nan_moments = ((su, ru), (si, ri))
    for a, b in zip(opt.lambda_jacobian(emb, composed, nan_moments),
                    oracle_lambda_jacobian(opt, emb, composed, nan_moments)):
        assert same_bits_or_nan(a, b)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("side", ["user", "item"])
def test_non_finite_train_gradient_off_validation_rows_raises(monkeypatch, kind, side):
    emb, rng = random_instance(2, num_users=WU, num_items=WI, dim=K)
    opt = warmed(kind, emb, rng, WU, WI)
    tb, vb = batches(rng, "overlapping", WU, WI, WB)
    lam = RegCoefficients.create("full", WU, WI, K, init=0.01)
    v_rows = vb.users if side == "user" else np.concatenate([vb.pos, vb.neg])
    real, planted = adaptive.bpr_gradient, []

    def plant(emb_, batch):
        # the first pass is the train lambda-batch gradient
        grad = real(emb_, batch)
        if not planted:
            rows, vals = ((grad.user_rows, grad.user_vals) if side == "user"
                          else (grad.item_rows, grad.item_vals))
            pos = np.flatnonzero(~np.isin(rows, v_rows))[-1]
            vals[pos, 1] = np.nan if side == "user" else np.inf
            planted.append(int(rows[pos]))
        else:
            planted.append(None)
        return grad

    monkeypatch.setattr(adaptive, "bpr_gradient", plant)
    before = lam.values.copy()
    with pytest.raises(NonFiniteGradientError) as exc:
        lambda_step(lam, emb, opt, tb, vb, 0.05, 1.0)
    assert planted == [planted[0]]  # raised before the validation pass
    assert (exc.value.side, exc.value.entity_id) == (side, planted[0])
    assert planted[0] not in v_rows
    assert lam.values.tobytes() == before.tobytes()


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
