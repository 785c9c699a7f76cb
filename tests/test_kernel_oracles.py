"""The numpy training-step kernels against the forms they replaced.

The oracles in ``conftest`` are the earlier numpy kernels: a BPR gradient
that scatters with ``np.add.at`` into zero blocks and leaves the loss to a
second scoring pass, and an Adam row step that gathers each moment again for
every use. The kernels now score once, return each side's block as one
``np.bincount`` and gather each row once, a block of rows at a time; the
arithmetic is unchanged, so every output must match bit for bit, empty batch
included, and so must a seeded training run.
"""

import math

import numpy as np
import pytest

from adaptreg import _kernels
from adaptreg.adaptive import train_model
from adaptreg.config import RunConfig, resolve
from adaptreg.mf import Embeddings, TripletBatch, bpr_gradient, bpr_loss

from conftest import oracle_adam_step, oracle_bpr_grad_batch, same_bytes

K = 32


def triplet_case(kind, seed):
    """Factors and a triplet batch whose index pattern is named by ``kind``."""
    rng = np.random.default_rng(seed)
    if kind == "unique":      # few rows repeat
        U, I, n, scale = 20_000, 20_000, 1024, 0.3
    elif kind == "extreme":   # scores far out on both tails of the sigmoid
        U, I, n, scale = 50, 80, 512, 6.0
    elif kind == "empty":     # no triplets: (0, K) blocks and a zero loss
        U, I, n, scale = 50, 80, 0, 0.3
    else:
        U, I, n, scale = 2_000, 500, 2048, 0.3
    uf = rng.normal(0, scale, (U, K))
    itf = rng.normal(0, scale, (I, K))
    if kind == "zipf":        # a few rows carry most of the triplets
        draw = lambda m: np.minimum(rng.zipf(1.3, n) - 1, m - 1)
    else:
        draw = lambda m: rng.integers(0, m - 2, n)
    users, pos, neg = draw(U), draw(I), draw(I)
    if kind == "same":        # every triplet has the same user and items
        users[:], pos[:], neg[:] = 3, 5, 7
    if kind == "zero-row":
        # user U-1 only meets pos == neg, so its gradient row is zero; user
        # U-2 has a zero factor row and is the only reader of items I-1, I-2
        users[:8], neg[:8] = U - 1, pos[:8]
        users[8:12], pos[8:12], neg[8:12] = U - 2, I - 1, I - 2
        uf[U - 2] = 0.0
    return uf, itf, users, pos, neg


def run_kernel(kernel, uf, itf, users, pos, neg):
    n = len(users)
    urows, u_inv = np.unique(users, return_inverse=True)
    irows, inv = np.unique(np.concatenate([pos, neg]), return_inverse=True)
    loss, gu, gi = kernel(uf, itf, users, pos, neg, u_inv, inv[:n], inv[n:],
                          len(urows), len(irows))
    return urows, irows, gu, gi, loss


KINDS = ["unique", "zipf", "same", "zero-row", "extreme", "empty"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", KINDS)
def test_bpr_grad_bit_equal_to_add_at_oracle(kind, seed):
    uf, itf, users, pos, neg = triplet_case(kind, seed)
    urows, irows, gu, gi, loss = run_kernel(_kernels.bpr_grad_batch, uf, itf, users, pos, neg)
    *_, gu_ref, gi_ref, loss_ref = run_kernel(oracle_bpr_grad_batch, uf, itf, users, pos, neg)
    assert same_bytes(gu, gu_ref)
    assert same_bytes(gi, gi_ref)
    assert type(loss) is float and same_bytes(loss, loss_ref)
    if kind == "empty":
        assert gu.shape == gi.shape == (0, K) and gu.dtype == gi.dtype == np.float64
        assert loss == 0.0
    if kind == "zero-row":
        U, I = len(uf), len(itf)
        assert not gu[urows == U - 1].any()
        assert not gi[(irows == I - 1) | (irows == I - 2)].any()
        assert gu.any() and gi.any()


@pytest.mark.parametrize("kind", KINDS)
def test_bpr_gradient_carries_the_batch_loss(kind):
    uf, itf, users, pos, neg = triplet_case(kind, 2)
    emb, batch = Embeddings(uf, itf), TripletBatch(users, pos, neg)
    assert same_bytes(bpr_gradient(emb, batch).loss, bpr_loss(emb, batch))


def touched_rows(case, rng, n):
    if case == "unique":
        return np.unique(rng.integers(0, n, n // 3))
    if case == "all":
        return np.arange(n)
    if case == "one":
        return np.array([rng.integers(0, n)])
    return np.array([0, 7, 11, n - 1])  # zero-gradient: row 7 gets g = 0


@pytest.mark.parametrize("case", ["unique", "all", "one", "zero-gradient"])
def test_adam_step_bit_equal_to_gather_oracle(case):
    rng = np.random.default_rng(4)
    n = 5000  # "all" and "unique" span more than one block of rows
    state = [rng.normal(0, 0.3, (n, K)), np.zeros((n, K)), np.zeros((n, K))]
    ref = [a.copy() for a in state]
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    for t in range(1, 21):
        rows = touched_rows(case, rng, n)
        g = rng.normal(0, 1, (len(rows), K))
        if case == "zero-gradient" and t > 3:
            g[1] = 0.0
        c = math.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)
        _kernels.adam_step(*state, rows, g, lr, c, b1, b2, eps)
        oracle_adam_step(*ref, rows, g, lr, c, b1, b2, eps)
        for a, b in zip(state, ref):
            assert same_bytes(a, b)
    assert (state[1] != 0).any() and (state[2] != 0).any()


def loop_cfg(mode, kind):
    cfg = RunConfig()
    cfg.model.dim = 8
    cfg.optimizer.kind = kind
    cfg.training.epochs = 3
    cfg.training.batch_size = 128
    cfg.training.lambda_batch_size = 128
    cfg.training.eval_every = 1
    cfg.training.seed = 5
    cfg.regularization.mode = mode
    cfg.regularization.granularity = "full"
    cfg.regularization.fixed_value = 0.01
    cfg.regularization.step_size = 0.05
    return resolve(cfg)


@pytest.mark.parametrize("mode,kind", [("fix", "adam"), ("opt", "adam"), ("opt", "sgd")])
def test_train_model_matches_oracle_kernels(small_split, monkeypatch, mode, kind):
    cfg = loop_cfg(mode, kind)
    calls = []
    kernel = _kernels.bpr_grad_batch
    monkeypatch.setattr(_kernels, "bpr_grad_batch",
                        lambda *args: calls.append(1) or kernel(*args))
    fast = train_model(small_split, cfg)
    # one scoring pass per theta step and two (train, validation) per lambda
    # step: nothing scores a batch again for its loss
    steps = cfg.training.epochs * math.ceil(small_split.num_train_events / 128)
    assert len(calls) == steps * (3 if mode == "opt" else 1)
    monkeypatch.setattr(_kernels, "bpr_grad_batch", oracle_bpr_grad_batch)
    monkeypatch.setattr(_kernels, "adam_step", oracle_adam_step)
    slow = train_model(small_split, cfg)
    assert not fast.aborted and fast.history == slow.history
    assert fast.best_epoch == slow.best_epoch
    assert same_bytes(fast.lam.values, slow.lam.values)
    assert same_bytes(fast.emb.user, slow.emb.user)
    assert same_bytes(fast.emb.item, slow.emb.item)
    assert fast.optimizer.state_digest() == slow.optimizer.state_digest()
    assert all(np.isfinite(row["train_loss"]) and row["train_loss"] > 0
               for row in fast.history)
