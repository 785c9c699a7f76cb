"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 4 and 5 target the real food-review corpus; point
``ADAPTREG_AMAZON_FOOD`` at the raw delimited file to run them. Without it
they fall back as follows: criterion 4 skips (the numeric targets are
corpus-specific) and a synthetic analog checks the ordering claims instead;
criterion 5 runs on the synthetic corpus. Criterion 7 is an optional smoke
profile gated on ``ADAPTREG_ML10M``.
"""

import copy
import functools
import os
import time

import numpy as np
import pytest

from adaptreg.adaptive import (
    RegCoefficients, compose_gradient, hypergradient, project_and_step,
    train_model,
)
from adaptreg.config import DEFAULT_GRID, RunConfig, resolve
from adaptreg.data import (
    chronological_split, filter_min_count, load_interactions, sample_triplets,
    frequency_groups,
)
from adaptreg.evaluate import (
    auc_from_scores, corpus_auc, corpus_metrics, user_topk,
)
from adaptreg.mf import (
    Embeddings, TripletBatch, bpr_gradient, bpr_loss, penalty,
    penalty_gradient,
)
from adaptreg.optim import make_optimizer

from _synth import make_split

AMAZON_FOOD = os.environ.get("ADAPTREG_AMAZON_FOOD")
ML10M = os.environ.get("ADAPTREG_ML10M")


def report(num, desc, status):
    print(f"\nACCEPTANCE CRITERION {num} ({desc}): {status}")


def checked(num, desc):
    """Decorator printing one PASS/FAIL/SKIP line per criterion."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                report(num, desc, "SKIP")
                raise
            except BaseException:
                report(num, desc, "FAIL")
                raise
            report(num, desc, "PASS")
        return inner
    return wrap


def random_instance(seed):
    rng = np.random.default_rng(seed)
    return Embeddings.init(5, 8, 4, 0.3, rng), rng


def random_batch(rng, size=12):
    return TripletBatch(rng.integers(0, 5, size), rng.integers(0, 8, size),
                        rng.integers(0, 8, size))


@checked(1, "hypergradient matches central finite differences")
def test_criterion_1_hypergradient_oracle():
    start = time.time()
    h = 1e-4
    for inst in range(20):
        emb, rng = random_instance(100 + inst)
        for kind in ("sgd", "adam"):
            opt = make_optimizer(kind)
            if kind == "adam":  # warmed moments exercise the full jacobian
                for _ in range(3):
                    opt.step(emb.copy(), bpr_gradient(emb, random_batch(rng, 10)))
            tb = random_batch(rng)
            vb = random_batch(rng)
            for gran in ("global", "dim", "user", "item", "full"):
                lam = RegCoefficients.create(gran, 5, 8, 4, init=0.05)
                G = hypergradient(lam, emb, opt, tb, vb)
                g_bar = bpr_gradient(emb, tb)

                def val_loss(values):
                    comp = compose_gradient(g_bar, emb, lam.with_values(values))
                    return bpr_loss(opt.assumed_step(emb, comp), vb)

                for n in range(lam.num_entries):
                    vp = lam.values.copy(); vp[n] += h
                    vm = lam.values.copy(); vm[n] -= h
                    fd = (val_loss(vp) - val_loss(vm)) / (2 * h)
                    err = abs(G[n] - fd)
                    if err > 1e-8:  # absolute floor
                        assert err / abs(fd) <= 1e-4, (inst, kind, gran, n)
    assert time.time() - start < 60.0


@checked(2, "gradient oracles vs finite differences")
def test_criterion_2_gradient_oracles():
    for seed in range(3):
        emb, rng = random_instance(seed)
        batch = random_batch(rng, 16)
        grad = bpr_gradient(emb, batch)
        gu = np.zeros_like(emb.user)
        gi = np.zeros_like(emb.item)
        gu[grad.user_rows] = grad.user_vals
        gi[grad.item_rows] = grad.item_vals
        h = 1e-5
        for arr, g in ((emb.user, gu), (emb.item, gi)):
            for idx in np.ndindex(arr.shape):
                old = arr[idx]
                arr[idx] = old + h
                lp = bpr_loss(emb, batch)
                arr[idx] = old - h
                lm = bpr_loss(emb, batch)
                arr[idx] = old
                assert g[idx] == pytest.approx((lp - lm) / (2 * h),
                                               rel=1e-6, abs=1e-9)
        lam = RegCoefficients.create("full", 5, 8, 4)
        lam.values[:] = rng.uniform(0, 0.5, lam.num_entries)
        pu, pi = penalty_gradient(emb, lam)
        # the penalty is quadratic, so the central difference is exact at any
        # h; a larger h only reduces floating-point cancellation
        h = 1e-3
        for arr, g in ((emb.user, pu), (emb.item, pi)):
            for idx in np.ndindex(arr.shape):
                old = arr[idx]
                arr[idx] = old + h
                lp = penalty(emb, lam)
                arr[idx] = old - h
                lm = penalty(emb, lam)
                arr[idx] = old
                assert g[idx] == pytest.approx((lp - lm) / (2 * h),
                                               rel=1e-8, abs=1e-10)


@checked(3, "invariant suite")
def test_criterion_3_invariants():
    rng = np.random.default_rng(0)

    # nonnegativity after 1e5 fuzzed projection steps
    lam = RegCoefficients.create("dim", 3, 3, 8, init=0.0)
    for _ in range(100_000):
        G = rng.normal(0, 10, lam.num_entries)
        lam = project_and_step(lam, G, 10 ** rng.uniform(-4, 0), 1.0)
        assert (lam.values >= 0).all()

    # assumed-step side-effect freedom via state hashing
    for kind in ("sgd", "adam"):
        emb, r2 = random_instance(1)
        opt = make_optimizer(kind)
        opt.step(emb, bpr_gradient(emb, random_batch(r2, 16)))
        grad = bpr_gradient(emb, random_batch(r2, 16))
        digest = opt.state_digest()
        before = emb.copy()
        opt.assumed_step(emb, grad)
        assert opt.state_digest() == digest
        assert (emb.user == before.user).all()
        assert (emb.item == before.item).all()

    # tied-value equivalence across granularities, exact
    emb, _ = random_instance(2)
    c = 0.19
    lam_g = RegCoefficients.create("global", 5, 8, 4, init=c)
    base_pen = penalty(emb, lam_g)
    grad = bpr_gradient(emb, random_batch(np.random.default_rng(3), 16))
    base_comp = compose_gradient(grad, emb, lam_g)
    for gran in ("dim", "user", "item", "user-dim", "item-dim", "full"):
        tied = RegCoefficients.create(gran, 5, 8, 4, init=c)
        assert penalty(emb, tied) == base_pen
        comp = compose_gradient(grad, emb, tied)
        assert (comp.user_vals == base_comp.user_vals).all()
        assert (comp.item_vals == base_comp.item_vals).all()

    # HR/NDCG monotone in k and NDCG <= HR on 1e3 random rankings
    from adaptreg.data import _build_split
    Z = np.empty(0, dtype=np.int64)
    for _ in range(1000):
        n_items = int(rng.integers(5, 40))
        n_pos = int(rng.integers(1, min(5, n_items)))
        pos = np.sort(rng.choice(n_items, n_pos, replace=False)).astype(np.int64)
        split = _build_split(1, n_items, [Z], [Z], [pos], [Z], [Z], [Z],
                             degenerate=[])
        emb1 = Embeddings(user=np.ones((1, 1)),
                          item=rng.normal(0, 1, (n_items, 1)))
        prev_hr = prev_ndcg = 0.0
        for k in (1, 2, 5, 10, n_items):
            hr, ndcg = user_topk(emb1, split, 0, k)
            assert hr >= prev_hr and ndcg >= prev_ndcg
            assert ndcg <= hr + 1e-12
            prev_hr, prev_ndcg = hr, ndcg

    # sort-based AUC equals brute-force pair counting
    for _ in range(50):
        n = int(rng.integers(4, 200))
        n_pos = int(rng.integers(1, n))
        scores = rng.choice(np.linspace(-1, 1, 25), n)
        pos, neg = scores[:n_pos], scores[n_pos:]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        assert auc_from_scores(pos, neg) == pytest.approx(
            wins / (len(pos) * len(neg)), rel=1e-12)


# ---------------------------------------------------------------------------
# Comparative runs (real corpus when available, synthetic analog otherwise)
# ---------------------------------------------------------------------------

def _base_cfg(seed=0):
    c = RunConfig()
    c.model.dim = 16
    c.training.epochs = 60
    c.training.batch_size = 512
    c.training.lambda_batch_size = 512
    c.training.eval_every = 5
    c.training.patience = 50
    c.training.seed = seed
    c.regularization.step_size = 0.01
    c.regularization.adam_on_lambda = True
    return c


def _run(split, mode, gran="full", fixed=None, seed=0, base=None):
    cfg = copy.deepcopy(base) if base is not None else _base_cfg(seed)
    cfg.training.seed = seed
    cfg.regularization.mode = mode
    cfg.regularization.granularity = gran
    cfg.regularization.fixed_value = fixed
    return train_model(split, resolve(cfg))


def _grid_best(split, seed, base=None):
    best = None
    for cand in DEFAULT_GRID:
        res = _run(split, "fix", fixed=cand, seed=seed, base=base)
        if res.aborted:
            continue
        v = max((r["val_auc"] for r in res.history if "val_auc" in r),
                default=-np.inf)
        if best is None or v > best[1]:
            best = (cand, v, res)
    return best


@pytest.fixture(scope="module")
def synthetic_comparison():
    """Grid-searched fixed baseline vs adaptive runs, 3 seeds each."""
    split = make_split(num_users=120, num_items=200, seed=11,
                       min_events=8, max_events=60)
    rows = []
    for seed in (0, 1, 2):
        fix = _grid_best(split, seed)[2]
        fix_rep = corpus_metrics(fix.emb, split, ks=(100,))
        dui = _run(split, "opt", gran="full", seed=seed)
        dui_rep = corpus_metrics(dui.emb, split, ks=(100,))
        d = _run(split, "opt", gran="dim", seed=seed)
        rows.append({
            "fix_auc": fix_rep.auc, "fix_hr": fix_rep.hr[100],
            "dui_auc": dui_rep.auc, "dui_hr": dui_rep.hr[100],
            "d_auc": corpus_auc(d.emb, split, stage="test"),
            "dui_trajectory": dui.trajectory,
        })
    return split, rows


def _food_split():
    log = load_interactions(AMAZON_FOOD)
    log = filter_min_count(log, 20, 20)
    return chronological_split(log)


@checked(4, "comparative reproduction on the food-review corpus")
def test_criterion_4_real_corpus_reproduction():
    if not AMAZON_FOOD:
        pytest.skip("set ADAPTREG_AMAZON_FOOD to the raw review file to run")
    split = _food_split()
    fix_auc, fix_hr, dui_auc, dui_hr, d_auc = [], [], [], [], []
    for seed in (0, 1, 2):
        fix = _grid_best(split, seed)[2]
        rep = corpus_metrics(fix.emb, split, ks=(100,))
        fix_auc.append(rep.auc)
        fix_hr.append(rep.hr[100])
        dui = _run(split, "opt", gran="full", seed=seed)
        rep = corpus_metrics(dui.emb, split, ks=(100,))
        dui_auc.append(rep.auc)
        dui_hr.append(rep.hr[100])
        d = _run(split, "opt", gran="dim", seed=seed)
        d_auc.append(corpus_auc(d.emb, split, stage="test"))
    assert 0.78 <= np.mean(fix_auc) <= 0.83
    assert np.mean(dui_auc) - np.mean(fix_auc) >= 0.02
    assert np.mean(dui_hr) - np.mean(fix_hr) >= 0.05
    assert np.mean(dui_auc) >= np.mean(d_auc)


@checked(4, "ordering claims, synthetic analog")
def test_criterion_4_synthetic_ordering_analog(synthetic_comparison):
    """Seed-averaged ordering: adaptive full-granularity beats the
    grid-searched fixed baseline and its dimension-only restriction."""
    _, rows = synthetic_comparison
    fix_auc = np.mean([r["fix_auc"] for r in rows])
    dui_auc = np.mean([r["dui_auc"] for r in rows])
    assert dui_auc > fix_auc
    assert np.mean([r["dui_hr"] for r in rows]) > np.mean([r["fix_hr"] for r in rows])
    assert all(r["dui_auc"] >= r["d_auc"] for r in rows)


@checked(5, "coefficient trajectories increase with activity")
def test_criterion_5_trajectory(synthetic_comparison):
    if AMAZON_FOOD:
        split = _food_split()
        trajectory = _run(split, "opt", gran="full", seed=0).trajectory
    else:
        _, rows = synthetic_comparison
        trajectory = rows[0]["dui_trajectory"]
    assert trajectory[-1].user_mean > trajectory[0].user_mean
    stats = trajectory[-1].user_group_stats
    lowest = stats[0]
    highest = stats[-1]
    assert highest[0] > lowest[0]  # distinct frequency groups exist
    assert highest[2] > lowest[2]  # high-activity group carries larger lambda


@checked(6, "adaptive step wall time within 4x of fixed step")
def test_criterion_6_cost_model():
    split = make_split(num_users=120, num_items=200, seed=11,
                       min_events=8, max_events=60)
    rng = np.random.default_rng(0)
    emb = Embeddings.init(split.num_users, split.num_items, 16, 0.01, rng)
    opt = make_optimizer("adam")
    lam = RegCoefficients.create("full", split.num_users, split.num_items, 16,
                                 init=0.01)
    B = 2048

    def fixed_step():
        batch = sample_triplets(split, rng, B, "train")
        grad = bpr_gradient(emb, batch)
        opt.step(emb, compose_gradient(grad, emb, lam))

    def adaptive_step():
        fixed_step()
        tb = sample_triplets(split, rng, B, "train")
        vb = sample_triplets(split, rng, B, "validation")
        G = hypergradient(lam, emb, opt, tb, vb)
        project_and_step(lam, G, 1e-3, 1.0)

    for _ in range(20):
        adaptive_step()  # warm jit and caches
    ratios = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(200):
            fixed_step()
        t_fix = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(200):
            adaptive_step()
        t_opt = time.perf_counter() - t0
        ratios.append(t_opt / t_fix)
    assert sorted(ratios)[1] <= 4.0, ratios


@checked(7, "optional large-corpus smoke profile")
def test_criterion_7_ml10m_smoke():
    if not ML10M:
        pytest.skip("set ADAPTREG_ML10M to the ratings file to run")
    log = load_interactions(ML10M, delimiter="::", time_col=3)
    rng = np.random.default_rng(0)
    keep = rng.random(log.num_users) < 0.05  # 5 percent user subsample
    mask = keep[log.users]
    from adaptreg.data import InteractionLog
    sub = InteractionLog(users=log.users[mask], items=log.items[mask],
                         times=log.times[mask], num_users=log.num_users,
                         num_items=log.num_items, user_tokens=[], item_tokens=[])
    sub = filter_min_count(sub, 20, 20)
    split = chronological_split(sub)
    base = _base_cfg()
    base.model.dim = 32
    fix = _grid_best(split, 0, base=base)[2]
    dui = _run(split, "opt", gran="full", seed=0, base=base)
    fix_auc = corpus_auc(fix.emb, split, stage="test")
    dui_auc = corpus_auc(dui.emb, split, stage="test")
    assert dui_auc > 0.85
    assert dui_auc >= fix_auc
